//! Ablation — secondary-index access cost.
//!
//! The paper's cost model "assume\[s\] that the index pages are buffered in
//! main memory" (§3.2) and flags modelling index cost as future work
//! (§5: "access cost for secondary indexes should be modeled and
//! evaluated"). This experiment does that evaluation: it shrinks the
//! B⁺-tree's buffer and counts index page accesses alongside the data
//! page accesses for the Figure 6 route workload.
//!
//! Expected shape: with a generous index buffer the index cost vanishes
//! (validating the paper's assumption); with a 1-frame buffer every
//! `Find()` pays the full root-to-leaf path.
//!
//! Route evaluation resolves each hop with `Get-A-successor()`, whose
//! buffer-first search is itself an index lookup (`page_of`) followed by
//! a residency check of that one page. Every hop therefore visits the
//! index whether or not its successor is already buffered, and at one
//! index frame both methods pay the full path on every hop: CCAM's CRR
//! lowers its *data* I/O but no longer its index I/O. The last shape
//! check states the expectation of a buffer search that needs no index
//! (CCAM below BFS-AM at one frame) and reports `[MISS]` under this
//! design; ROADMAP records it as an open departure.

use ccam_bench::{benchmark_network, render_table, EXPERIMENT_SEED};
use ccam_core::am::{AccessMethod, CcamBuilder, TopoAm, TraversalOrder};
use ccam_core::query::route::evaluate_route;
use ccam_graph::walks::random_walk_routes;
use std::collections::HashMap;

fn main() {
    let net = benchmark_network();
    let block = 2048;
    let routes = random_walk_routes(&net, 100, 20, EXPERIMENT_SEED + 60);
    println!("Ablation: secondary-index access cost  (block = {block} B, routes of 20 nodes)\n");

    let w = HashMap::new();
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(CcamBuilder::new(block).build_static(&net).expect("ccam")),
        Box::new(TopoAm::create(&net, block, TraversalOrder::BreadthFirst, None, &w).expect("bfs")),
    ];
    let index_buffers = [1usize, 2, 4, 16, 64];

    let header: Vec<String> = std::iter::once("method / idx frames".to_string())
        .chain(index_buffers.iter().map(|b| format!("{b}")))
        .chain(["data I/O".to_string(), "idx pages".to_string()])
        .collect();
    let mut rows = Vec::new();
    let mut series: Vec<Vec<f64>> = Vec::new();
    for am in &methods {
        let mut idx_io = Vec::new();
        let mut data_io = 0f64;
        for &frames in &index_buffers {
            am.file().pool().set_capacity(1).expect("data buffer");
            am.file()
                .set_index_buffer_capacity(frames)
                .expect("index buffer");
            let (mut d_total, mut i_total) = (0u64, 0u64);
            for r in &routes {
                am.file().pool().clear().expect("clear");
                let before_d = am.stats().snapshot();
                let before_i = am.file().index_stats().snapshot();
                let eval = evaluate_route(am.as_ref(), r).expect("route");
                debug_assert!(eval.complete);
                d_total += am.stats().snapshot().since(&before_d).physical_reads;
                i_total += am
                    .file()
                    .index_stats()
                    .snapshot()
                    .since(&before_i)
                    .physical_reads;
            }
            idx_io.push(i_total as f64 / routes.len() as f64);
            data_io = d_total as f64 / routes.len() as f64;
        }
        rows.push(
            std::iter::once(am.name().to_string())
                .chain(idx_io.iter().map(|v| format!("{v:.2}")))
                .chain([
                    format!("{data_io:.2}"),
                    format!("{}", am.file().index_pages()),
                ])
                .collect(),
        );
        series.push(idx_io);
        // Restore the in-memory-index assumption.
        am.file().set_index_buffer_capacity(4096).expect("restore");
    }
    println!("(cells: avg index page accesses per route at each index-buffer size)\n");
    println!("{}", render_table(&header, &rows));

    println!("shape checks:");
    for (m, s) in methods.iter().zip(&series) {
        println!(
            "  [{}] {}: index cost falls monotonically with index buffer",
            if s.windows(2).all(|w| w[1] <= w[0] + 1e-9) {
                "ok"
            } else {
                "MISS"
            },
            m.name()
        );
        println!(
            "  [{}] {}: index cost ~0 with a large buffer (paper's assumption)",
            if *s.last().expect("nonempty") < 0.5 {
                "ok"
            } else {
                "MISS"
            },
            m.name()
        );
    }
    println!(
        "  [{}] CCAM pays less index I/O than BFS-AM at 1 frame (high CRR avoids Find())",
        if series[0][0] < series[1][0] {
            "ok"
        } else {
            "MISS"
        }
    );
}
