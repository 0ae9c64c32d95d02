//! Closed-loop load generator for `ccam serve` — the serving-layer
//! counterpart of `perf_hotpaths`, writing `BENCH_PR6.json`.
//!
//! ```text
//! serve_load --addr HOST:PORT --net FILE
//!            [--connections N] [--batch N] [--seconds S] [--seed N]
//!            [--mix find:succ:route:agg] [--out FILE]
//!            [--check-baseline FILE]
//! ```
//!
//! Each connection is closed-loop: it sends one batch frame, blocks for
//! the response, then sends the next — so offered load self-regulates
//! to server capacity and the reported latencies are honest round-trip
//! times, not coordinated-omission artifacts. The workload is
//! deterministic per seed: connection *i* draws from
//! `StdRng::seed_from_u64(seed + i)` over the node ids and 4-hop walks
//! of the `--net` file (which must be the file the served database was
//! built from). Batches the server sheds wholesale as `Overloaded` are
//! retried through the client's seeded jittered backoff
//! (`Client::call_with_retry`) — the behavior of a production caller,
//! so reported QPS reflects goodput under backpressure, not raw
//! rejection throughput.
//!
//! Reported: sustained QPS (completed, non-rejected requests/sec),
//! batch round-trip latency p50/p95/p99 in microseconds, overload
//! rejections, and — via a final `Stats` op — the server-side request
//! counters and physical-I/O gauges. Exits 1 on a server-side error, on
//! zero QPS, or (`--check-baseline FILE`) when a previous run's QPS is
//! more than 2x the fresh one, the regression gate `perf_hotpaths` uses.

use std::io::Write as _;
use std::time::{Duration, Instant};

use ccam_bench::report::{self, die, fixed, percentile, Args, Gates, Obj, OrDie};
use ccam_bench::{Mix, ServeWorkload};
use ccam_graph::load_network;
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_server::client::{Backoff, Client};
use ccam_server::protocol::{Request, Response, Status};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Default)]
struct ConnResult {
    ok_requests: u64,
    overloaded: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

fn run_connection(
    addr: &str,
    w: &ServeWorkload,
    batch: usize,
    mix: Mix,
    seed: u64,
    conn: u64,
    deadline: Instant,
) -> std::io::Result<ConnResult> {
    let mut client = Client::connect(addr)?;
    let mut rng = StdRng::seed_from_u64(seed + conn);
    // Shed batches (all-Overloaded rejections) are resent after a
    // short jittered backoff — seeded per connection, so rejected
    // connections desynchronize deterministically.
    let mut backoff = Backoff::new(
        3,
        Duration::from_micros(200),
        Duration::from_millis(5),
        seed ^ conn,
    );
    let mut res = ConnResult::default();
    while Instant::now() < deadline {
        let batch: Vec<Request> = (0..batch).map(|_| w.sample(&mut rng, &mix)).collect();
        let start = Instant::now();
        let resps = client.call_with_retry(&batch, &mut backoff)?;
        res.latencies_us.push(start.elapsed().as_micros() as u64);
        for r in &resps {
            match r {
                Response::Error(Status::Overloaded, _) => res.overloaded += 1,
                Response::Error(Status::NotFound, _) => res.ok_requests += 1,
                Response::Error(..) => res.errors += 1,
                _ => res.ok_requests += 1,
            }
        }
    }
    Ok(res)
}

fn main() {
    let mut a = Args::from_env();
    let addr: String = a.get("--addr", "127.0.0.1:4791".to_string());
    let net: Option<String> = a.opt("--net");
    let connections: usize = a.get("--connections", 4);
    let batch: usize = a.get("--batch", 16);
    let seconds: u64 = a.get("--seconds", 5);
    let seed: u64 = a.get("--seed", 42);
    let mix = a.get("--mix", Mix([60, 25, 10, 5]));
    let out: String = a.get("--out", "BENCH_PR6.json".to_string());
    let check_baseline: Option<String> = a.opt("--check-baseline");
    a.finish();
    // Without --net, fall back to the default paper-scale road map the
    // repo's harnesses generate (seed 5 lattice) — only valid when the
    // server was built from the same generator defaults.
    let net = match &net {
        Some(path) => load_network(std::path::Path::new(path)).or_die(&format!("--net {path}")),
        None => road_map(&RoadMapConfig {
            grid_w: 40,
            grid_h: 40,
            removed_nodes: 32,
            target_segments: 2800,
            target_directed: 5000,
            cell: 64,
            jitter: 24,
            seed: 5,
        }),
    };
    let w = ServeWorkload::new(&net, 256, seed);
    eprintln!(
        "serve_load: {connections} connections x batch {batch} against {addr} for {seconds}s over {} nodes",
        w.ids.len()
    );

    let wall = Instant::now();
    let deadline = wall + Duration::from_secs(seconds);
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections as u64)
            .map(|i| {
                let (addr, w) = (&addr, &w);
                s.spawn(move || run_connection(addr, w, batch, mix, seed, i, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| die("connection thread panicked"))
                    .or_die("connection failed")
            })
            .collect()
    });
    let elapsed = wall.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::new();
    let (mut ok, mut overloaded, mut errors) = (0u64, 0u64, 0u64);
    for r in &results {
        ok += r.ok_requests;
        overloaded += r.overloaded;
        errors += r.errors;
        latencies.extend_from_slice(&r.latencies_us);
    }
    latencies.sort_unstable();
    let qps = ok as f64 / elapsed;
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );

    // Server-side view, via the protocol itself.
    let stats = Client::connect(&*addr)
        .and_then(|mut c| c.call(&[Request::Stats]))
        .ok()
        .and_then(|resps| match resps.into_iter().next() {
            Some(Response::StatsJson(json)) => report::parse(&json).ok(),
            _ => None,
        });
    let server = |key: &str| stats.as_ref().and_then(|s| s.get(key)).unwrap_or(0.0);

    let mut gates = Gates::default();
    gates.at_most("errors", errors, 0);
    gates.check("qps", qps > 0.0, "no request completed");
    if let Some(path) = &check_baseline {
        let base = report::read_numbers(path).get("qps");
        let base_qps = base.unwrap_or_else(|| die(&format!("--check-baseline {path}: no qps")));
        // Current throughput must stay above half of the baseline's.
        let ratio = base_qps / qps.max(1.0);
        eprintln!("serve_load: baseline qps {base_qps:.0}, current {qps:.0}, ratio {ratio:.2}");
        gates.at_most("baseline_qps_ratio", ratio, 2.0);
    }

    let config = Obj::new()
        .set("addr", addr.as_str())
        .set("connections", connections)
        .set("batch", batch)
        .set("seconds", seconds)
        .set("seed", seed)
        .set("mix", mix.to_string())
        .set("nodes", w.ids.len());
    let results = Obj::new()
        .set("qps", fixed(qps, 1))
        .set("ok_requests", ok)
        .set("overloaded", overloaded)
        .set("errors", errors)
        .set("batches", latencies.len())
        .set("p50_us", p50)
        .set("p95_us", p95)
        .set("p99_us", p99)
        .set("server_requests_total", server("serve.requests"))
        .set("server_physical_reads", server("io.physical_reads"))
        .set("server_buffer_hits", server("io.buffer_hits"));
    report::write_report(
        &out,
        Obj::new()
            .set("bench", "serve_load")
            .set("config", config)
            .set("results", results)
            .set("gates", gates.to_json()),
    );
    println!(
        "qps {qps:.0}  p50 {p50}us  p95 {p95}us  p99 {p99}us  ok {ok}  overloaded {overloaded}  errors {errors}"
    );
    let _ = std::io::stdout().flush();
    gates.exit_on_failure();
}
