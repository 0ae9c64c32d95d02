//! End-to-end benchmark of the CCAM serving stack.
//!
//! One run builds a workload's database in-process, serves it on
//! loopback and measures it from the outside: closed-loop goodput,
//! open-loop latency from due time, and the paper's data-page accesses
//! counted in a single-client pass. With `--trace 1` it also replays the
//! same counted stream through each layer's public functions inside
//! spans and reports per-layer costs. See `README.md` in this directory.

mod serve;
mod trace;
pub mod util;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

use ccam_core::{AccessMethod, CostParams};
use ccam_graph::NodeId;
use ccam_server::protocol::Request;

use serve::{
    capacity_phase, check_placement, counted_pass, open_loop, page_digest, read_back, route_pages,
    server_stats, setup, wal_info, Counts, Served, SetupTimes,
};
use trace::{layer_of, replay, Tracer};
use util::{histogram_field, json_num, mean, median, quantile, ratio, Metrics};
use workload::{ReqGen, Spec, UpsertBook, Workload, OPS};

/// Open-loop validity bound: p99 of send time minus due time, µs. A run
/// whose generator ran later than this is invalid.
pub const LATENESS_LIMIT_US: f64 = 50_000.0;

/// Minimum WAL checkpoints per `update` run.
pub const MIN_CHECKPOINTS: u64 = 3;

/// The core count the committed figures were taken on; reports from
/// other core counts are flagged, not compared.
pub const REFERENCE_CORES: usize = 2;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs (smoke tests).
    pub tiny: bool,
    /// Directory for databases, spans and the report.
    pub out_dir: PathBuf,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every answer checked was right and every validity check held.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed (any failure kind, wrong answers included).
    pub failed: u64,
    /// End-to-end metrics (`trace` off) or per-layer metrics (`trace` on).
    pub metrics: Metrics,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn commit() -> String {
    std::env::var("BENCH_COMMIT")
        .ok()
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map_or_else(
                    || "unknown".to_string(),
                    |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
                )
        })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn p(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    quantile(&mut v, q)
}

/// Runs one workload and returns its result line.
pub fn run(o: &Options) -> Result<Outcome, String> {
    let spec = Spec::new(o.workload, o.tiny);
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let tag = format!("{}-{}-{}", o.workload.name(), o.seed, std::process::id());
    let mut problems = Vec::new();
    let mut report = String::new();
    let steal0 = util::cpu_steal_ticks();

    // Set-up, several times; the last database is the one measured.
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut served: Option<Served> = None;
    for k in 0..spec.setups.max(1) {
        if let Some(prev) = served.take() {
            prev.close()?;
        }
        let s = setup(
            &spec,
            o.seed,
            &o.out_dir.join(format!("{tag}-a{k}")),
            true,
            None,
        )?;
        times.push(s.times);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    check_placement(&served)?;

    let db = &served.db;
    let (params, crr_start, pages, hot_pages) = db
        .with_writer(|am| -> Result<_, String> {
            let params = CostParams::measure(am.file()).map_err(|e| e.to_string())?;
            let map = am.file().page_map().map_err(|e| e.to_string())?;
            let mut hot: Vec<_> = served
                .inputs
                .hot
                .iter()
                .filter_map(|id| map.get(id))
                .collect();
            hot.sort_unstable();
            hot.dedup();
            Ok((params, params.alpha, am.file().num_pages(), hot.len()))
        })
        .map_err(|e| e.to_string())??;
    let frames = db
        .read()
        .map_err(|e| e.to_string())?
        .file()
        .pool()
        .capacity();
    let wal_start = wal_info(db)?;

    // Counted pass: deterministic page accesses from a fresh database.
    let book = UpsertBook::default();
    let count_stream = ReqGen::new(&spec, &served.inputs, &book, o.seed, 1).take(spec.count_reqs);
    let (counts, count_fails) = counted_pass(&served, &count_stream, &book)?;
    let digest_served = page_digest(db)?;
    // Layout figures here, after the counted pass's own (sequential)
    // upserts, repeat exactly for a seed; the concurrent upserts that
    // follow move the layout in an order that varies run to run, so the
    // end-of-run CRR is reported beside them.
    let crr = db
        .with_writer(|am| am.crr())
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;
    let route_set: Vec<Vec<NodeId>> = {
        let mut g = ReqGen::new(&spec, &served.inputs, &book, o.seed, 4);
        (0..spec.route_set).map(|_| g.walk()).collect()
    };
    let rpages = route_pages(db, &route_set)?;

    // Capacity, latency and write-probe phases.
    let cap = capacity_phase(
        &served,
        &spec,
        o.seed,
        o.seconds * spec.capacity_share,
        &book,
    )?;
    let lat_n = ((spec.rate * o.seconds * spec.latency_share) as usize).max(50);
    let lat_reqs = ReqGen::new(&spec, &served.inputs, &book, o.seed, 2).take(lat_n);
    let stats_before = server_stats(&served)?;
    let lat = open_loop(&served, &lat_reqs, spec.rate, &book)?;
    let stats_after = server_stats(&served)?;
    let probe = {
        let n = ((spec.probe_rate * o.seconds * workload::PROBE_SHARE) as usize)
            .max(workload::PROBE_MIN);
        let mut gen = ReqGen::new(&spec, &served.inputs, &book, o.seed, 3);
        let reqs: Vec<Request> = (0..n).map(|_| gen.upsert()).collect();
        open_loop(&served, &reqs, spec.probe_rate, &book)?
    };
    let (readback_wrong, readback_n) = read_back(&served, &book)?;
    let stats = server_stats(&served)?;
    let wal_end = wal_info(db)?;
    let crr_end = db
        .with_writer(|am| am.crr())
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;

    let mut fails = count_fails;
    fails.merge(&cap.fails);
    fails.merge(&lat.fails);
    fails.merge(&probe.fails);
    // Upsert latency beside reads where the mix has upserts, else the
    // probe's.
    let upsert_us = if lat.upsert_us.is_empty() {
        probe.upsert_us.clone()
    } else {
        lat.upsert_us.clone()
    };
    fails.wrong_answer += readback_wrong;
    let attempted = counts.reqs.iter().sum::<u64>()
        + cap.attempted
        + lat.attempted
        + probe.attempted
        + readback_n;

    // Validity.
    let lateness_p99 = p(&lat.lateness_us, 0.99);
    let probe_lateness_p99 = p(&probe.lateness_us, 0.99);
    for (phase, l) in [
        ("latency phase", lateness_p99),
        ("write probe", probe_lateness_p99),
    ] {
        if l > LATENESS_LIMIT_US {
            problems.push(format!(
                "{phase} generator ran late: p99 lateness {l:.0} µs > {LATENESS_LIMIT_US} µs"
            ));
        }
    }
    let checkpoints = wal_end.checkpoints - wal_start.checkpoints;
    if o.workload == Workload::Update && !o.tiny && checkpoints < MIN_CHECKPOINTS {
        problems.push(format!(
            "only {checkpoints} WAL checkpoints in the run (need {MIN_CHECKPOINTS})"
        ));
    }
    if fails.wrong_answer > 0 {
        problems.push(format!("{} wrong answers", fails.wrong_answer));
    }
    if cap.good == 0 || (lat.read_us.is_empty() && spec.mix[..4].iter().any(|&w| w > 0)) {
        problems.push("no good answers measured".to_string());
    }

    let steal1 = util::cpu_steal_ticks();
    let steal_share = ratio(
        steal1.0.saturating_sub(steal0.0) as f64,
        steal1.1.saturating_sub(steal0.1) as f64,
    );
    let mut m = Metrics::default();
    let mut layer = Metrics::default();
    if !o.trace {
        m.set("setup_s", med(|t| t.total_s), "s");
        m.set("cpu_us_per_req", cap.cpu_us_per_req(), "us");
        m.set(
            "upsert_cpu_us",
            ratio(probe.cpu_s * 1e6, probe.upsert_us.len() as f64),
            "us",
        );
        m.set(
            "pages_per_req",
            ratio(counts.read_pages() as f64, counts.read_reqs() as f64),
            "pages",
        );
        m.set("crr", crr, "ratio");
        m.set("route_pages", rpages, "pages");
    } else {
        traced_metrics(
            o,
            &spec,
            &count_stream,
            &counts,
            digest_served,
            &mut layer,
            &mut problems,
            &mut report,
        )?;
        let exec = |json: &str, op: &str| {
            let key = format!("serve.{op}.elapsed_us");
            (
                histogram_field(json, &key, "sum").unwrap_or(0.0),
                histogram_field(json, &key, "count").unwrap_or(0.0),
            )
        };
        for op in OPS {
            let (sum, n) = exec(&stats, op);
            layer.set(format!("server.exec_us.{op}"), ratio(sum, n), "us");
        }
        let (mut d_sum, mut d_n) = (0.0, 0.0);
        for op in OPS {
            let (s1, n1) = exec(&stats_after, op);
            let (s0, n0) = exec(&stats_before, op);
            d_sum += s1 - s0;
            d_n += n1 - n0;
        }
        layer.set(
            "server.outside_exec_us",
            mean(&lat.round_trip_us) - ratio(d_sum, d_n),
            "us",
        );
        layer.set("server.failed.overloaded", fails.overloaded as f64, "count");
        layer.set(
            "server.failed.deadline_exceeded",
            fails.deadline_exceeded as f64,
            "count",
        );
        layer.set("server.failed.internal", fails.internal as f64, "count");
        layer.set(
            "server.failed.wrong_answer",
            fails.wrong_answer as f64,
            "count",
        );
        layer.set(
            "server.error_rate",
            ratio(fails.total() as f64, attempted as f64),
            "fraction",
        );
        layer.set("wal.checkpoints", checkpoints as f64, "count");
        layer.set("serve.qps", cap.qps(), "req/s");
        layer.set("serve.p50_us", lat.read_quantile(0.5, None), "us");
        layer.set("serve.p99_us", lat.read_quantile(0.99, None), "us");
        layer.set("serve.upsert_p50_us", p(&upsert_us, 0.5), "us");
        layer.set("serve.upsert_p99_us", p(&upsert_us, 0.99), "us");
        layer.set("serve.lateness_p99_us", lateness_p99, "us");
        layer.set("serve.read_samples", lat.read_us.len() as f64, "count");
        layer.set("serve.upsert_samples", upsert_us.len() as f64, "count");
        layer.set("setup.gen_s", med(|t| t.gen_s), "s");
        layer.set("setup.build_s", med(|t| t.build_s), "s");
        layer.set("setup.publish_s", med(|t| t.publish_s), "s");
        layer.set("host.steal_share", steal_share, "fraction");
        layer.set("layout.crr_end", crr_end, "ratio");
    }
    m.set("peak_rss_mb", util::peak_rss_mb(), "MiB");

    // Report stamp.
    let n_cores = cores();
    let _ = writeln!(
        report,
        "workload {} seed {} seconds {} trace {}",
        o.workload.name(),
        o.seed,
        o.seconds,
        o.trace
    );
    let _ = writeln!(
        report,
        "cores {n_cores} commit {} {} | host steal {:.1}% of CPU time during the run",
        commit(),
        rustc_version(),
        steal_share * 100.0
    );
    if n_cores != REFERENCE_CORES {
        let _ = writeln!(report, "FLAG: taken on {n_cores} cores, reference figures are from {REFERENCE_CORES}; do not compare");
    }
    let _ = writeln!(
        report,
        "seeds: inputs {} | streams counted 1, capacity 100..{}, latency 2, probe 3, routes 4",
        o.seed,
        99 + serve::CONNECTIONS
    );
    let _ = writeln!(
        report,
        "nodes {} pages {pages} pool_frames {frames} hot_region_pages {hot_pages} page_size {}",
        served.inputs.ids.len(),
        workload::PAGE_SIZE
    );
    let _ = writeln!(
        report,
        "capacity: closed loop, {} connections x {}-request frames, {:.2} s | latency: open loop, 1 connection, {} req/s offered, {} requests",
        serve::CONNECTIONS,
        serve::FRAME,
        cap.elapsed_s,
        spec.rate,
        lat_n
    );
    let _ = writeln!(
        report,
        "write probe: open loop, {} upserts/s, {} upserts",
        spec.probe_rate, probe.attempted
    );
    let _ = writeln!(
        report,
        "wal flush policy: fsync per commit (group commit per upsert), live-log cap {}, checkpoints {checkpoints}",
        spec.wal_cap.map_or("none (checkpoint every commit)".to_string(), |c| format!("{c} bytes"))
    );
    let _ = writeln!(
        report,
        "served (wall clock): qps {:.0} | reads {} p50 {:.1} p99 {:.1} us | upserts {} p50 {:.0} p99 {:.0} us | lateness p50 {:.0} p99 {lateness_p99:.0} us (limit {LATENESS_LIMIT_US}) | crr start {crr_start:.4} after counted pass {crr:.4} end {crr_end:.4}",
        cap.qps(),
        lat.read_us.len(),
        lat.read_quantile(0.5, None),
        lat.read_quantile(0.99, None),
        upsert_us.len(),
        p(&upsert_us, 0.5),
        p(&upsert_us, 0.99),
        p(&lat.lateness_us, 0.5)
    );
    let _ = writeln!(
        report,
        "failures: overloaded {} deadline {} internal {} degraded {} transport {} wrong {} other {} of {attempted}; read-back {readback_n} nodes",
        fails.overloaded, fails.deadline_exceeded, fails.internal, fails.degraded, fails.transport, fails.wrong_answer, fails.other
    );
    for (k, op) in OPS.iter().enumerate().take(4) {
        if spec.mix[k] > 0 {
            let _ = writeln!(
                report,
                "  latency {op:<16} p50 {:.1} us p99 {:.1} us",
                lat.read_quantile(0.5, Some(k)),
                lat.read_quantile(0.99, Some(k))
            );
        }
    }
    let _ = writeln!(
        report,
        "counted pass (pages per request vs. cost-model prediction, §3.2):"
    );
    for (k, op) in OPS.iter().enumerate().take(4) {
        if counts.reqs[k] == 0 {
            continue;
        }
        let obs = ratio(counts.reads[k] as f64, counts.reqs[k] as f64);
        let pred = match k {
            1 => format!("{:.3}", params.get_successors_cost()),
            2 => format!("{:.3}", route_prediction(&params, &count_stream)),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            report,
            "  {op:<16} reqs {:>6} pages/req {obs:.4} predicted {pred}",
            counts.reqs[k]
        );
    }
    for line in &problems {
        let _ = writeln!(report, "INVALID: {line}");
    }
    for line in m.0.iter().chain(&layer.0) {
        let _ = writeln!(
            report,
            "  {} = {} {}",
            line.name,
            json_num(line.value),
            line.unit
        );
    }
    eprint!("{report}");
    let report_path = o.out_dir.join(format!(
        "report-{}-seed{}-trace{}.txt",
        o.workload.name(),
        o.seed,
        u8::from(o.trace)
    ));
    std::fs::write(&report_path, &report).map_err(|e| format!("{}: {e}", report_path.display()))?;

    served.close()?;
    let metrics = if o.trace { layer } else { m };
    let failed = fails.total();
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    })
}

/// Mean §3.2 route prediction over the route requests of `stream`.
fn route_prediction(params: &CostParams, stream: &[Request]) -> f64 {
    let v: Vec<f64> = stream
        .iter()
        .filter_map(|r| match r {
            Request::Route(n) => Some(params.route_evaluation_cost(n.len())),
            _ => None,
        })
        .collect();
    mean(&v)
}

/// The traced part of a `--trace 1` run: an untraced and a traced replay
/// of the counted stream on two fresh databases, checked against the
/// served counted pass, and the per-layer metrics they give.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    o: &Options,
    spec: &Spec,
    stream: &[Request],
    served_counts: &Counts,
    served_digest: u64,
    layer: &mut Metrics,
    problems: &mut Vec<String>,
    report: &mut String,
) -> Result<(), String> {
    let tag = format!("{}-{}-{}", o.workload.name(), o.seed, std::process::id());
    let mut off = Tracer::new(false);
    let b = setup(
        spec,
        o.seed,
        &o.out_dir.join(format!("{tag}-b")),
        false,
        None,
    )?;
    let untraced = replay(&b.db, &b.inputs, stream, &mut off)?;
    let digest_b = page_digest(&b.db)?;
    b.close()?;

    let mut tr = Tracer::new(true);
    let c = setup(
        spec,
        o.seed,
        &o.out_dir.join(format!("{tag}-c")),
        false,
        Some(&mut tr),
    )?;
    let params =
        c.db.with_writer(|am| CostParams::measure(am.file()))
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
    let traced = replay(&c.db, &c.inputs, stream, &mut tr)?;
    let digest_c = page_digest(&c.db)?;
    let build = c.build.unwrap_or_default();
    c.close()?;

    if untraced.counts != *served_counts || traced.counts != *served_counts {
        problems.push(format!(
            "replayed page counts differ from the served pass: served {served_counts:?} untraced {:?} traced {:?}",
            untraced.counts, traced.counts
        ));
    }
    if digest_b != served_digest || digest_c != served_digest {
        problems.push(format!(
            "page digests differ after the write sequence: served {served_digest:x} untraced {digest_b:x} traced {digest_c:x}"
        ));
    }
    let bad = traced.fails.total() + untraced.fails.total();
    if bad > 0 {
        problems.push(format!("{bad} replayed answers failed or were wrong"));
    }

    let sum = tr.summary();
    let st = |name: &str| sum.get(name).copied().unwrap_or_default();
    let n = stream.len() as f64;
    let c = &traced.counts;
    let reads = c.read_pages() as f64;
    let hits: u64 = c.hits[..4].iter().sum();
    layer.set(
        "protocol.decode_us",
        st("protocol.decode").total_ns as f64 / n / 1e3,
        "us",
    );
    layer.set(
        "protocol.encode_us",
        st("protocol.encode").total_ns as f64 / n / 1e3,
        "us",
    );
    layer.set("protocol.bytes_per_req", traced.bytes as f64 / n, "bytes");
    layer.set("epoch.pin_us", st("epoch.pin").mean_us(), "us");
    layer.set(
        "epoch.write_wait_us",
        st("epoch.write_wait").mean_us(),
        "us",
    );
    layer.set("epoch.publish_us", st("epoch.publish").mean_us(), "us");
    layer.set("am.find_us", st("am.find").mean_us(), "us");
    layer.set(
        "am.get_successors_us",
        st("am.get_successors").mean_us(),
        "us",
    );
    layer.set("am.update_us", st("am.update").mean_us(), "us");
    layer.set(
        "file.buffer_probes_per_successor",
        ratio(traced.probes as f64, traced.successors as f64),
        "probes",
    );
    layer.set(
        "file.page_writes_per_upsert",
        ratio(c.upsert_writes as f64, c.reqs[4] as f64),
        "pages",
    );
    layer.set("query.route_us", st("query.route").mean_us(), "us");
    layer.set("query.aggregate_us", st("query.aggregate").mean_us(), "us");
    layer.set(
        "query.nodes_per_req",
        ratio(
            (traced.query_nodes[0] + traced.query_nodes[1]) as f64,
            (c.reqs[2] + c.reqs[3]) as f64,
        ),
        "nodes",
    );
    for (k, op) in OPS.iter().enumerate().take(4) {
        layer.set(
            format!("buffer.reads_per_req.{op}"),
            ratio(c.reads[k] as f64, c.reqs[k] as f64),
            "pages",
        );
    }
    layer.set(
        "buffer.hit_ratio",
        ratio(hits as f64, hits as f64 + reads),
        "ratio",
    );
    layer.set(
        "buffer.evictions_per_req",
        ratio(
            c.evictions[..4].iter().sum::<u64>() as f64,
            c.read_reqs() as f64,
        ),
        "frames",
    );
    layer.set(
        "buffer.cold_reads_after_publish",
        ratio(c.cold_reads as f64, c.publishes as f64),
        "pages",
    );
    let pred_succ = params.get_successors_cost();
    let pred_route = route_prediction(&params, stream);
    layer.set("costmodel.pred_pages.get_successors", pred_succ, "pages");
    layer.set("costmodel.pred_pages.route", pred_route, "pages");
    layer.set(
        "costmodel.obs_over_pred.get_successors",
        ratio(ratio(c.reads[1] as f64, c.reqs[1] as f64), pred_succ),
        "ratio",
    );
    layer.set(
        "costmodel.obs_over_pred.route",
        ratio(ratio(c.reads[2] as f64, c.reqs[2] as f64), pred_route),
        "ratio",
    );
    layer.set("index.page_of_us", st("index.page_of").mean_us(), "us");
    layer.set(
        "index.reads_per_find",
        ratio(
            c.index_visits.iter().sum::<u64>() as f64,
            st("index.page_of").count as f64,
        ),
        "pages",
    );
    layer.set("wal.commit_us", st("wal.commit").mean_us(), "us");
    layer.set(
        "wal.bytes_per_upsert",
        ratio(c.wal_bytes as f64, c.reqs[4] as f64),
        "bytes",
    );
    layer.set(
        "wal.syncs_per_upsert",
        ratio(c.upsert_syncs as f64, c.reqs[4] as f64),
        "syncs",
    );
    layer.set("partition.graph_s", build.graph_s, "s");
    layer.set("partition.coarsen_s", build.coarsen_s, "s");
    layer.set("partition.cluster_s", build.cluster_s, "s");
    layer.set("partition.residue_ratio", build.residue_ratio, "ratio");
    layer.set("file.bulk_load_s", build.bulk_load_s, "s");
    layer.set("file.pages", build.pages as f64, "pages");
    layer.set("file.fill", build.fill, "ratio");
    layer.set(
        "trace.overhead_us",
        (traced.wall_s - untraced.wall_s) / n * 1e6,
        "us",
    );

    let _ = writeln!(report, "traced replay of {} requests: layer rows (span, count, inclusive ms, self ms, self us/span)", stream.len());
    for (name, s) in &sum {
        let _ = writeln!(
            report,
            "  {:<38} {:<22} {:>8} {:>10.3} {:>10.3} {:>9.3}",
            layer_of(name),
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.self_ns as f64 / s.count.max(1) as f64 / 1e3
        );
    }
    let _ = writeln!(
        report,
        "boundary counts: reads {:?} hits {:?} evictions {:?} index {:?} probes {} successors {} upserts {} page writes {} wal bytes {} syncs {}",
        c.reads, c.hits, c.evictions, c.index_visits, traced.probes, traced.successors, c.reqs[4], c.upsert_writes, c.wal_bytes, c.upsert_syncs
    );
    let spans_path = o
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", o.workload.name(), o.seed));
    tr.write(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let _ = writeln!(
        report,
        "spans written to {} ({} spans)",
        spans_path.display(),
        tr.spans.len()
    );
    Ok(())
}
