//! The served database and the measured phases run against it.
//!
//! A database is built in-process on the serving stack — a
//! `FilePageStore` under a `WalStore` with native snapshots enabled,
//! published through an `EpochCell` — and served by
//! `ccam_server::Server` on loopback, exactly as `ccam serve --wal` runs
//! it. The phases are clients of that server:
//!
//! * the **counted pass**: one client, one request per frame, reading
//!   the pinned view's own I/O counters around every request, so the
//!   page accesses repeat exactly for a seed;
//! * the **capacity phase**: closed loop, two connections, 16-request
//!   frames through `Client::call_with_retry`;
//! * the **latency phase**: open loop on one connection at a fixed
//!   offered rate, timed from each request's due time.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccam_core::epoch::{EpochCell, Snapshotable};
use ccam_core::query::route::evaluate_path;
use ccam_core::{AccessMethod, Ccam, CcamBuilder};
use ccam_graph::NodeId;
use ccam_server::client::{Backoff, Client};
use ccam_server::protocol::{
    decode_response_batch, encode_request_batch, read_frame, write_frame, Request, Response, Status,
};
use ccam_server::{Server, ServerConfig, ServerHandle};
use ccam_storage::{wal_sidecar, FilePageStore, IoSnapshot, PageStore, WalInfo, WalStore};

use crate::trace::{traced_build, BuildSpans, Tracer};
use crate::util::{Fnv, Rng};
use crate::workload::{check, generate, op_index, Inputs, Spec, UpsertBook, PAGE_SIZE};

/// The serving stack's page store.
pub type Store = WalStore<FilePageStore>;
/// The served database cell.
pub type Db = EpochCell<Ccam<Store>>;

/// Requests per frame in the capacity phase.
pub const FRAME: usize = 16;
/// Client connections (and client threads) of the capacity phase.
pub const CONNECTIONS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Batches a connection may queue on the server. Deeper than the
/// `ccam serve` default of 16 so that the open-loop generator's catch-up
/// bursts after a scheduler stall queue (and show as latency) instead of
/// being shed.
pub const QUEUE_DEPTH: usize = 1024;

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Network generation.
    pub gen_s: f64,
    /// `CcamBuilder::build_static_on`.
    pub build_s: f64,
    /// Commit, snapshot enablement and first publish.
    pub publish_s: f64,
    /// All of the above plus the server bind.
    pub total_s: f64,
}

/// One built (and possibly served) database.
pub struct Served {
    /// The generated network (the answer oracle).
    pub inputs: Inputs,
    /// The database cell.
    pub db: Arc<Db>,
    /// The running server, when served.
    pub server: Option<ServerHandle<Store>>,
    /// Set-up timings.
    pub times: SetupTimes,
    /// Partition-layer spans, when built traced.
    pub build: Option<BuildSpans>,
    dir: PathBuf,
}

impl Served {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("served database").local_addr()
    }

    /// Stops the server (draining it) and deletes the database files.
    pub fn close(mut self) -> Result<(), String> {
        let r = match self.server.take() {
            Some(h) => h.shutdown().map_err(|e| format!("server shutdown: {e}")),
            None => Ok(()),
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        r
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(h) = self.server.take() {
            let _ = h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Generates the inputs and builds, publishes and (with `serve`) serves
/// a database under `dir`. With a tracer the build runs through the
/// partition and file layers one call at a time, inside spans.
pub fn setup(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    serve: bool,
    tracer: Option<&mut Tracer>,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let inputs = generate(spec, seed);
    let gen_s = secs(t0);

    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("db.ccam");
    let store = FilePageStore::create(&path, PAGE_SIZE).map_err(|e| e.to_string())?;
    let mut ws = WalStore::create(store, &wal_sidecar(&path)).map_err(|e| e.to_string())?;
    ws.set_max_wal_bytes(spec.wal_cap);

    let t1 = Instant::now();
    let (am, build) = match tracer {
        Some(tr) => {
            let (am, spans) = traced_build(spec, &inputs.net, ws, tr)?;
            (am, Some(spans))
        }
        None => (
            CcamBuilder::new(PAGE_SIZE)
                .threads(0)
                .strategy(spec.strategy)
                .build_static_on(ws, &inputs.net)
                .map_err(|e| e.to_string())?,
            None,
        ),
    };
    let build_s = secs(t1);

    let t2 = Instant::now();
    let mut am = am;
    am.file().commit().map_err(|e| e.to_string())?;
    if !am.enable_snapshots().map_err(|e| e.to_string())? {
        return Err("store has no native page versioning".into());
    }
    let db = Arc::new(EpochCell::new(am).map_err(|e| e.to_string())?);
    let publish_s = secs(t2);

    let server = if serve {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue_depth: QUEUE_DEPTH,
            deadline_ms: 2_000,
            ..ServerConfig::default()
        };
        Some(Server::start(Arc::clone(&db), config).map_err(|e| format!("server start: {e}"))?)
    } else {
        None
    };
    Ok(Served {
        inputs,
        db,
        server,
        times: SetupTimes {
            gen_s,
            build_s,
            publish_s,
            total_s: secs(t0),
        },
        build,
        dir: dir.to_path_buf(),
    })
}

/// The writer's WAL counters.
pub fn wal_info(db: &Db) -> Result<WalInfo, String> {
    db.with_writer(|am| am.file().pool().with_store(|s| s.wal_info()))
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "store has no WAL".to_string())
}

/// The writer's data-page I/O counters.
pub fn writer_io(db: &Db) -> IoSnapshot {
    db.io_stats().map(|s| s.snapshot()).unwrap_or_default()
}

/// Digest of every live data page of the writer (uncounted reads).
pub fn page_digest(db: &Db) -> Result<u64, String> {
    db.with_writer(|am| {
        let pool = am.file().pool();
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut h = Fnv::default();
        for p in pool.with_store(|s| s.live_pages()) {
            pool.read_uncounted(p, &mut buf)
                .map_err(|e| e.to_string())?;
            h.write(&p.0.to_le_bytes());
            h.write(&buf);
        }
        Ok(h.0)
    })
    .map_err(|e| e.to_string())?
}

/// Checks that every node of the network sits on exactly one page and
/// that no page holds more than the clustering budget.
pub fn check_placement(served: &Served) -> Result<(), String> {
    served
        .db
        .with_writer(|am| {
            let file = am.file();
            let budget = file.clustering_budget();
            let mut placed: Vec<u64> = Vec::with_capacity(served.inputs.ids.len());
            for (page, records) in file.scan_uncounted().map_err(|e| e.to_string())? {
                let used: usize = records.iter().map(ccam_core::file::clustering_weight).sum();
                if used > budget {
                    return Err(format!(
                        "page {page:?} holds {used} bytes, over the {budget}-byte budget"
                    ));
                }
                placed.extend(records.iter().map(|r| r.id.0));
            }
            placed.sort_unstable();
            let want: Vec<u64> = served.inputs.ids.iter().map(|id| id.0).collect();
            if placed != want {
                return Err(format!(
                    "{} records placed for {} nodes, or a node placed twice",
                    placed.len(),
                    want.len()
                ));
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?
}

/// Page accesses and writes counted per request class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests per class (see [`crate::workload::OPS`]).
    pub reqs: [u64; 5],
    /// Data pages read into the pinned view's pool (the paper's page
    /// accesses).
    pub reads: [u64; 5],
    /// Page requests served from the pinned view's pool.
    pub hits: [u64; 5],
    /// Frames evicted from the pinned view's pool.
    pub evictions: [u64; 5],
    /// Index pages visited (hits plus reads of the index pool).
    pub index_visits: [u64; 5],
    /// Data pages the writer wrote back for upserts.
    pub upsert_writes: u64,
    /// Store syncs (commit points) of upserts.
    pub upsert_syncs: u64,
    /// WAL bytes appended by upserts.
    pub wal_bytes: u64,
    /// WAL checkpoints taken during upserts.
    pub checkpoints: u64,
    /// Page reads of the first read request after each publish.
    pub cold_reads: u64,
    /// Snapshots published.
    pub publishes: u64,
}

impl Counts {
    /// Read requests of the pass.
    pub fn read_reqs(&self) -> u64 {
        self.reqs[..4].iter().sum()
    }

    /// Page reads of the read requests.
    pub fn read_pages(&self) -> u64 {
        self.reads[..4].iter().sum()
    }

    /// Records one request's view-side counters.
    pub fn add_read(&mut self, k: usize, view: &IoSnapshot, index: &IoSnapshot, cold: bool) {
        self.reqs[k] += 1;
        self.reads[k] += view.physical_reads;
        self.hits[k] += view.buffer_hits;
        self.evictions[k] += view.evictions;
        self.index_visits[k] += index.physical_reads + index.buffer_hits;
        if cold {
            self.cold_reads += view.physical_reads;
        }
    }

    /// Records one upsert's writer-side counters.
    pub fn add_upsert(&mut self, writer: &IoSnapshot, wal0: &WalInfo, wal1: &WalInfo) {
        self.reqs[4] += 1;
        self.publishes += 1;
        self.upsert_writes += writer.physical_writes;
        self.upsert_syncs += writer.syncs;
        self.wal_bytes += wal1.bytes_appended - wal0.bytes_appended;
        self.checkpoints += wal1.checkpoints - wal0.checkpoints;
    }
}

/// Answer failures by kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    /// `Overloaded` answers.
    pub overloaded: u64,
    /// `DeadlineExceeded` answers.
    pub deadline_exceeded: u64,
    /// `Internal` answers.
    pub internal: u64,
    /// `Degraded` answers.
    pub degraded: u64,
    /// Requests lost to transport errors.
    pub transport: u64,
    /// Answers that disagree with the in-memory network.
    pub wrong_answer: u64,
    /// Any other non-`Ok` status.
    pub other: u64,
}

impl Failures {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.overloaded
            + self.deadline_exceeded
            + self.internal
            + self.degraded
            + self.transport
            + self.wrong_answer
            + self.other
    }

    /// Adds `o` into `self`.
    pub fn merge(&mut self, o: &Failures) {
        self.overloaded += o.overloaded;
        self.deadline_exceeded += o.deadline_exceeded;
        self.internal += o.internal;
        self.degraded += o.degraded;
        self.transport += o.transport;
        self.wrong_answer += o.wrong_answer;
        self.other += o.other;
    }

    /// Classifies one answer; `checked` answers are compared with the
    /// oracle. Returns true for a good answer.
    pub fn classify(
        &mut self,
        inputs: &Inputs,
        req: &Request,
        resp: &Response,
        checked: bool,
    ) -> bool {
        match resp {
            Response::Error(Status::Overloaded, _) => self.overloaded += 1,
            Response::Error(Status::DeadlineExceeded, _) => self.deadline_exceeded += 1,
            Response::Error(Status::Internal, _) => self.internal += 1,
            Response::Error(Status::Degraded, _) | Response::RecordsDegraded { .. } => {
                self.degraded += 1
            }
            Response::Error(..) | Response::NotPrimary { .. } | Response::StatsJson(_) => {
                self.other += 1
            }
            _ if checked && !check(&inputs.net, req, resp) => self.wrong_answer += 1,
            _ => return true,
        }
        false
    }
}

/// The single-client counted pass through the server. Every request is
/// its own frame; the view the server pins is the one pinned here, so
/// its counters delta is exactly that request's work.
pub fn counted_pass(
    served: &Served,
    reqs: &[Request],
    book: &UpsertBook,
) -> Result<(Counts, Failures), String> {
    let mut client = Client::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut counts = Counts::default();
    let mut fails = Failures::default();
    let mut after_publish = false;
    for req in reqs {
        let k = op_index(req);
        let view = served.db.read().map_err(|e| e.to_string())?;
        let (v0, i0) = (
            view.file().stats().snapshot(),
            view.file().index_stats().snapshot(),
        );
        let (w0, wal0) = if k == 4 {
            (writer_io(&served.db), wal_info(&served.db)?)
        } else {
            Default::default()
        };
        let resp = client
            .call(std::slice::from_ref(req))
            .map_err(|e| format!("counted pass: {e}"))?
            .pop()
            .ok_or("empty response frame")?;
        fails.classify(&served.inputs, req, &resp, true);
        if k == 4 {
            if let Response::Upserted { epoch } = resp {
                book.ack(req, epoch);
            }
            counts.add_upsert(
                &writer_io(&served.db).since(&w0),
                &wal0,
                &wal_info(&served.db)?,
            );
            after_publish = true;
        } else {
            let v = view.file().stats().snapshot().since(&v0);
            let i = view.file().index_stats().snapshot().since(&i0);
            counts.add_read(k, &v, &i, after_publish);
            after_publish = false;
        }
    }
    Ok((counts, fails))
}

/// Outcome of a closed-loop capacity phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CapacityOut {
    /// Correct, non-failed answers.
    pub good: u64,
    /// Requests sent (retries not counted twice).
    pub attempted: u64,
    /// Failures by kind.
    pub fails: Failures,
    /// Measured wall time.
    pub elapsed_s: f64,
    /// Process CPU time (all threads: server and clients) over the
    /// measured wall time, s.
    pub cpu_s: f64,
}

impl CapacityOut {
    /// Goodput: good answers per second.
    pub fn qps(&self) -> f64 {
        crate::util::ratio(self.good as f64, self.elapsed_s)
    }

    /// CPU time per good answer, µs.
    pub fn cpu_us_per_req(&self) -> f64 {
        crate::util::ratio(self.cpu_s * 1e6, self.good as f64)
    }
}

/// Closed loop: `CONNECTIONS` clients, each sending `FRAME`-request
/// frames back to back for `seconds` after a short warm-up. One frame in
/// eight (seeded) is checked answer by answer.
pub fn capacity_phase(
    served: &Served,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    book: &UpsertBook,
) -> Result<CapacityOut, String> {
    let addr = served.addr();
    let run = Duration::from_secs_f64(seconds);
    // Both clients warm up until the shared start, then measure to the
    // shared end.
    let t_start = Instant::now() + Duration::from_secs_f64((seconds * 0.1).min(0.5));
    let t_end = t_start + run;
    let mut cpu_s = 0.0;
    let outs: Vec<Result<CapacityOut, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let inputs = &served.inputs;
                s.spawn(move || -> Result<CapacityOut, String> {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    client
                        .set_io_timeout(Some(Duration::from_secs(10)))
                        .map_err(|e| e.to_string())?;
                    let mut gen =
                        crate::workload::ReqGen::new(spec, inputs, book, seed, 100 + c as u64);
                    let mut sample = Rng::new(seed, 200 + c as u64);
                    let mut backoff = Backoff::new(
                        8,
                        Duration::from_millis(1),
                        Duration::from_millis(50),
                        seed ^ c as u64,
                    );
                    let mut out = CapacityOut::default();
                    loop {
                        let now = Instant::now();
                        if now >= t_end {
                            break;
                        }
                        let measuring = now >= t_start;
                        let reqs = gen.take(FRAME);
                        let checked = sample.below(8) == 0;
                        match client.call_with_retry(&reqs, &mut backoff) {
                            Ok(resps) => {
                                let mut f = Failures::default();
                                let mut good = 0;
                                for (req, resp) in reqs.iter().zip(&resps) {
                                    if let Response::Upserted { epoch } = resp {
                                        book.ack(req, *epoch);
                                    }
                                    good += u64::from(f.classify(inputs, req, resp, checked));
                                }
                                if measuring {
                                    out.good += good;
                                    out.attempted += reqs.len() as u64;
                                    out.fails.merge(&f);
                                }
                            }
                            Err(e) => {
                                if measuring {
                                    out.attempted += reqs.len() as u64;
                                    out.fails.transport += reqs.len() as u64;
                                }
                                eprintln!("capacity phase: transport error: {e}");
                                client.reconnect().map_err(|e| format!("reconnect: {e}"))?;
                            }
                        }
                    }
                    out.elapsed_s = run.as_secs_f64();
                    Ok(out)
                })
            })
            .collect();
        let sleep_until =
            |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
        sleep_until(t_start);
        let c0 = crate::util::process_cpu_s();
        sleep_until(t_end);
        cpu_s = crate::util::process_cpu_s() - c0;
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = CapacityOut::default();
    for o in outs {
        let o = o?;
        total.good += o.good;
        total.attempted += o.attempted;
        total.fails.merge(&o.fails);
        total.elapsed_s = total.elapsed_s.max(o.elapsed_s);
    }
    total.cpu_s = cpu_s;
    Ok(total)
}

/// Outcome of an open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopOut {
    /// Latency from due time of each good read answer, µs, with its
    /// request class.
    pub read_us: Vec<(usize, f64)>,
    /// Latency from due time of each good `Upsert` answer, µs.
    pub upsert_us: Vec<f64>,
    /// Send time minus due time of every request, µs.
    pub lateness_us: Vec<f64>,
    /// Receive time minus send time of every answer, µs.
    pub round_trip_us: Vec<f64>,
    /// Good answers.
    pub good: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Failures by kind.
    pub fails: Failures,
    /// Process CPU time (all threads) over the phase, s.
    pub cpu_s: f64,
}

/// Open loop on one connection: a sender thread writes one request per
/// frame at `rate` per second from a fixed schedule (late sends go out
/// back to back); this thread receives, checks every answer and times it
/// from its due time.
pub fn open_loop(
    served: &Served,
    reqs: &[Request],
    rate: f64,
    book: &UpsertBook,
) -> Result<OpenLoopOut, String> {
    let stream = TcpStream::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let n = reqs.len();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut recv_at = vec![Duration::ZERO; n];
    let mut answers: Vec<Option<Response>> = vec![None; n];
    let cpu0 = crate::util::process_cpu_s();
    let sent_at = std::thread::scope(|s| -> Result<Vec<Duration>, String> {
        let sender = s.spawn(move || -> Result<Vec<Duration>, String> {
            tight_timer_slack();
            let mut w = BufWriter::new(stream);
            let mut sent = Vec::with_capacity(n);
            for (i, req) in reqs.iter().enumerate() {
                let d = due(i);
                let now = Instant::now();
                if d > now {
                    std::thread::sleep(d - now);
                }
                let frame = encode_request_batch(i as u32, 0, std::slice::from_ref(req));
                sent.push(Instant::now() - start);
                write_frame(&mut w, &frame).map_err(|e| format!("send: {e}"))?;
            }
            Ok(sent)
        });
        let mut got = 0;
        let mut recv_err = None;
        while got < n {
            match read_frame(&mut reader) {
                Ok(Some(payload)) => {
                    let t = Instant::now() - start;
                    match decode_response_batch(&payload) {
                        Ok((tag, mut resps)) if (tag as usize) < n && resps.len() == 1 => {
                            let i = tag as usize;
                            if answers[i].is_none() {
                                got += 1;
                            }
                            recv_at[i] = t;
                            answers[i] = resps.pop();
                        }
                        Ok(_) => {
                            recv_err = Some("malformed response frame".to_string());
                            break;
                        }
                        Err(e) => {
                            recv_err = Some(format!("decode: {e}"));
                            break;
                        }
                    }
                }
                Ok(None) => {
                    recv_err = Some("server closed the connection".to_string());
                    break;
                }
                Err(e) => {
                    recv_err = Some(format!("receive: {e}"));
                    break;
                }
            }
        }
        let sent = sender
            .join()
            .unwrap_or_else(|_| Err("sender thread panicked".into()));
        if let Some(e) = recv_err {
            eprintln!("open loop: {e}");
        }
        sent
    })?;
    let mut out = OpenLoopOut {
        cpu_s: crate::util::process_cpu_s() - cpu0,
        ..OpenLoopOut::default()
    };
    for (i, req) in reqs.iter().enumerate() {
        out.attempted += 1;
        let due_at = Duration::from_secs_f64(i as f64 / rate);
        out.lateness_us
            .push((sent_at[i].saturating_sub(due_at)).as_secs_f64() * 1e6);
        let Some(resp) = &answers[i] else {
            out.fails.transport += 1;
            continue;
        };
        if !out.fails.classify(&served.inputs, req, resp, true) {
            continue;
        }
        out.good += 1;
        let lat = recv_at[i].saturating_sub(due_at).as_secs_f64() * 1e6;
        out.round_trip_us
            .push(recv_at[i].saturating_sub(sent_at[i]).as_secs_f64() * 1e6);
        if let Response::Upserted { epoch } = resp {
            book.ack(req, *epoch);
            out.upsert_us.push(lat);
        } else {
            out.read_us.push((op_index(req), lat));
        }
    }
    Ok(out)
}

impl OpenLoopOut {
    /// The `q`-quantile of read latency over one request class (`None`:
    /// all reads).
    pub fn read_quantile(&self, q: f64, class: Option<usize>) -> f64 {
        let mut v: Vec<f64> = self
            .read_us
            .iter()
            .filter(|&&(k, _)| class.is_none_or(|c| c == k))
            .map(|&(_, l)| l)
            .collect();
        crate::util::quantile(&mut v, q)
    }
}

/// Shrinks the calling thread's timer slack from Linux's default 50 µs
/// to 1 ns, so the open-loop sender wakes at its due time rather than up
/// to 50 µs after it.
fn tight_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // sets a scheduling parameter of the calling thread; no memory of
        // this program is read or written. A failure only leaves the
        // default slack, so the result is ignored.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

/// Reads back every upserted node through the server and compares it
/// with the payload of its last published write. Returns the mismatches
/// and the nodes checked.
pub fn read_back(served: &Served, book: &UpsertBook) -> Result<(u64, u64), String> {
    let expected = book.expected();
    let mut client = Client::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut wrong = 0;
    for chunk in expected.chunks(FRAME) {
        let reqs: Vec<Request> = chunk.iter().map(|(id, _)| Request::Find(*id)).collect();
        let resps = client.call(&reqs).map_err(|e| format!("read-back: {e}"))?;
        for ((id, payload), resp) in chunk.iter().zip(&resps) {
            let ok = matches!(resp, Response::Record(n) if n.id == *id && &n.payload == payload
                && served.inputs.net.node(*id).is_some_and(|w| crate::workload::record_matches(w, n)));
            wrong += u64::from(!ok);
        }
    }
    Ok((wrong, expected.len() as u64))
}

/// The server's metrics document, fetched with the `Stats` op.
pub fn server_stats(served: &Served) -> Result<String, String> {
    let mut client = Client::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    match client
        .call(&[Request::Stats])
        .map_err(|e| format!("stats: {e}"))?
        .pop()
    {
        Some(Response::StatsJson(j)) => Ok(j),
        other => Err(format!("stats op answered {other:?}")),
    }
}

/// Mean page accesses per route over `routes`, each evaluated from a
/// cold one-page buffer (the paper's §4.3 set-up) on a fresh view of the
/// committed state.
pub fn route_pages(db: &Db, routes: &[Vec<NodeId>]) -> Result<f64, String> {
    let view = db
        .with_writer(|am| am.capture())
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;
    let pool = view.file().pool();
    pool.set_capacity(1).map_err(|e| e.to_string())?;
    let stats = view.file().stats();
    let mut pages = 0u64;
    for r in routes {
        pool.clear().map_err(|e| e.to_string())?;
        let s0 = stats.snapshot();
        let eval = evaluate_path(&view, r).map_err(|e| e.to_string())?;
        if !eval.complete {
            return Err("route of the fixed set is incomplete".into());
        }
        pages += stats.snapshot().since(&s0).physical_reads;
    }
    Ok(pages as f64 / routes.len().max(1) as f64)
}
