//! Golden page-access counts.
//!
//! The paper's results are data-page access counts, so a change to how
//! the access methods reach their pages — the buffer-first successor
//! probe, page decoding, the buffer pool's recency order — must leave
//! every count of the paper's experiments exactly where it was. These
//! tests pin the physical reads per access method, on the reduced road
//! map of `experiment_shapes.rs`, for:
//!
//! * the Table 5 operations (cold 64-frame pool, source page primed),
//! * the Figure 6 routes (one-page buffer, cold per route),
//! * the observed classes of the `validate_costmodel` harness.
//!
//! A drift in any count fails here with the full observed table.

use std::collections::HashMap;

use ccam::core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam::core::query::route::evaluate_route;
use ccam::core::reorg::ReorgPolicy;
use ccam::core::validate::{validate, ValidationConfig};
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::walks::{edge_weights_from_routes, random_walk_routes};
use ccam::graph::{Network, NodeId};

const BLOCK: usize = 1024;

fn small_map() -> Network {
    road_map(&RoadMapConfig {
        grid_w: 15,
        grid_h: 15,
        removed_nodes: 3,
        target_segments: 330,
        target_directed: 580,
        cell: 64,
        jitter: 24,
        seed: 1995,
    })
}

/// Table 5's four methods, first-order policy (reorganization filtered
/// out, as in the paper).
fn table5_methods(net: &Network) -> Vec<Box<dyn AccessMethod>> {
    let w = HashMap::new();
    vec![
        Box::new(
            CcamBuilder::new(BLOCK)
                .policy(ReorgPolicy::FirstOrder)
                .build_static(net)
                .unwrap(),
        ),
        Box::new(TopoAm::create(net, BLOCK, TraversalOrder::DepthFirst, None, &w).unwrap()),
        Box::new(GridAm::create(net, BLOCK).unwrap()),
        Box::new(TopoAm::create(net, BLOCK, TraversalOrder::BreadthFirst, None, &w).unwrap()),
    ]
}

/// One digit per operation (counts above 9 would need a wider format;
/// none occur on this map).
fn digits(counts: &[u64]) -> String {
    counts
        .iter()
        .map(|&c| char::from_digit(c as u32, 10).expect("single-digit count"))
        .collect()
}

fn check(observed: &str, golden: &str) {
    assert!(
        observed == golden,
        "page-access counts drifted\n--- observed ---\n{observed}\n--- golden ---\n{golden}"
    );
}

/// Table 5: Get-successors and Get-A-successor reads per sampled node
/// (cold pool, source page primed by an unmeasured `Find`), then the
/// reads + writes of each delete and its re-insert.
#[test]
fn table5_operation_reads_are_pinned() {
    let net = small_map();
    let sample: Vec<NodeId> = net.node_ids().into_iter().step_by(3).collect();
    let mut out = String::new();
    for mut am in table5_methods(&net) {
        let (mut gs, mut ga) = (Vec::new(), Vec::new());
        for &x in &sample {
            let rec = am.find(x).unwrap().unwrap();
            if rec.successors.is_empty() {
                continue;
            }
            am.file().pool().clear().unwrap();
            am.find(x).unwrap();
            let before = am.stats().snapshot();
            am.get_successors(x).unwrap();
            gs.push(am.stats().snapshot().since(&before).physical_reads);

            am.file().pool().clear().unwrap();
            am.find(x).unwrap();
            let before = am.stats().snapshot();
            am.get_a_successor(x, rec.successors[0].to).unwrap();
            ga.push(am.stats().snapshot().since(&before).physical_reads);
        }
        let (mut del, mut ins) = (0u64, 0u64);
        for &x in &sample {
            am.file().pool().clear().unwrap();
            let before = am.stats().snapshot();
            let deleted = am.delete_node(x).unwrap().unwrap();
            am.file().pool().flush_all().unwrap();
            let d = am.stats().snapshot().since(&before);
            del += d.physical_reads + d.physical_writes;

            am.file().pool().clear().unwrap();
            let before = am.stats().snapshot();
            am.insert_node(&deleted.data, &deleted.incoming).unwrap();
            am.file().pool().flush_all().unwrap();
            let d = am.stats().snapshot().since(&before);
            ins += d.physical_reads + d.physical_writes;
        }
        out += &format!(
            "{} gs {}\n{} ga {}\n{} delete {del} insert {ins}\n",
            am.name(),
            digits(&gs),
            am.name(),
            digits(&ga),
            am.name()
        );
    }
    check(&out, TABLE5_GOLDEN);
}

/// Figure 6: reads per route with the paper's one-page buffer, cold per
/// route, for every method (WDFS-AM and CCAM clustered under the
/// route-derived edge weights).
#[test]
fn figure6_route_reads_are_pinned() {
    let net = small_map();
    let lengths = [10usize, 30];
    let sets: Vec<_> = lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| random_walk_routes(&net, 20, len, 1995 + 10 + i as u64))
        .collect();
    let all: Vec<_> = sets.iter().flatten().cloned().collect();
    let weights = edge_weights_from_routes(&all);
    let builder = CcamBuilder::new(BLOCK).weights(weights.clone());
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(builder.build_static(&net).unwrap()),
        Box::new(builder.build_dynamic(&net).unwrap()),
        Box::new(TopoAm::create(&net, BLOCK, TraversalOrder::DepthFirst, None, &weights).unwrap()),
        Box::new(
            TopoAm::create(
                &net,
                BLOCK,
                TraversalOrder::WeightedDepthFirst,
                None,
                &weights,
            )
            .unwrap(),
        ),
        Box::new(GridAm::create(&net, BLOCK).unwrap()),
        Box::new(
            TopoAm::create(&net, BLOCK, TraversalOrder::BreadthFirst, None, &weights).unwrap(),
        ),
    ];
    let mut out = String::new();
    for am in &methods {
        am.file().pool().set_capacity(1).unwrap();
        for (len, routes) in lengths.iter().zip(&sets) {
            let reads: Vec<u64> = routes
                .iter()
                .map(|r| {
                    am.file().pool().clear().unwrap();
                    let before = am.stats().snapshot();
                    assert!(evaluate_route(am.as_ref(), r).unwrap().complete);
                    am.stats().snapshot().since(&before).physical_reads
                })
                .collect();
            out += &format!("{} L={len} {reads:?}\n", am.name());
        }
    }
    check(&out, FIGURE6_GOLDEN);
}

/// `validate_costmodel`: the observed mean page accesses of every class
/// the harness measures, per method.
#[test]
fn validate_costmodel_observations_are_pinned() {
    let net = small_map();
    let cfg = ValidationConfig {
        sample: 48,
        routes: 12,
        route_len: 20,
        policy: ReorgPolicy::FirstOrder,
        ..ValidationConfig::default()
    };
    let mut out = String::new();
    for mut am in table5_methods(&net) {
        let report = validate(am.as_mut(), &cfg).unwrap();
        for c in &report.classes {
            out += &format!(
                "{} {} trials {} observed {:.6}\n",
                am.name(),
                c.class,
                c.trials,
                c.observed
            );
        }
    }
    check(&out, VALIDATE_GOLDEN);
}

const TABLE5_GOLDEN: &str = concat!(
    "CCAM-S gs 00100002111010001111001011000120011010111110010000000001012000012211100000\n",
    "CCAM-S ga 00100000101000000011000001000000001010000000010000000001001000011110000000\n",
    "CCAM-S delete 232 insert 232\n",
    "DFS-AM gs 00211002110101111221001011000121010011203121121001100011001110112110111011\n",
    "DFS-AM ga 00111000100001001011000011000000000000101101011001100010000100000000010011\n",
    "DFS-AM delete 278 insert 278\n",
    "Grid File gs 01110101121211211211111111011122012020101021110101101020111100011111200000\n",
    "Grid File ga 01110100110010111001011101011011011010100000100101101000101100010000100000\n",
    "Grid File delete 298 insert 298\n",
    "BFS-AM gs 00000121110111122212212122122222122232222222122112111222122221112221101000\n",
    "BFS-AM ga 00000110000100111101111111111111111111111011111111111111111111101111101000\n",
    "BFS-AM delete 382 insert 358\n",
);

const FIGURE6_GOLDEN: &str = concat!(
    "CCAM-S L=10 [3, 1, 5, 3, 1, 6, 2, 1, 3, 1, 1, 1, 1, 3, 1, 2, 2, 2, 2, 1]\n",
    "CCAM-S L=30 [8, 8, 2, 2, 3, 1, 4, 5, 7, 6, 4, 4, 5, 1, 3, 1, 8, 3, 3, 3]\n",
    "CCAM-D L=10 [3, 1, 4, 3, 1, 3, 2, 1, 3, 1, 1, 1, 1, 4, 1, 2, 2, 2, 2, 1]\n",
    "CCAM-D L=30 [12, 6, 1, 2, 3, 1, 6, 3, 10, 7, 4, 14, 7, 2, 6, 1, 7, 3, 6, 3]\n",
    "DFS-AM L=10 [3, 6, 3, 8, 5, 8, 3, 5, 1, 8, 4, 4, 5, 7, 1, 4, 3, 7, 4, 1]\n",
    "DFS-AM L=30 [9, 11, 6, 3, 8, 11, 9, 8, 8, 19, 6, 15, 9, 13, 11, 1, 13, 14, 14, 11]\n",
    "WDFS-AM L=10 [3, 3, 7, 6, 10, 6, 9, 2, 3, 3, 4, 8, 4, 4, 3, 5, 7, 5, 4, 1]\n",
    "WDFS-AM L=30 [6, 13, 12, 12, 14, 9, 9, 16, 11, 15, 13, 12, 9, 5, 13, 24, 11, 7, 14, 11]\n",
    "Grid File L=10 [2, 2, 4, 4, 4, 5, 5, 4, 2, 3, 6, 5, 7, 3, 8, 7, 6, 6, 4, 6]\n",
    "Grid File L=30 [11, 15, 5, 11, 17, 9, 7, 7, 19, 15, 22, 18, 10, 14, 19, 7, 21, 17, 18, 16]\n",
    "BFS-AM L=10 [10, 10, 10, 7, 10, 6, 10, 10, 10, 10, 8, 10, 10, 10, 10, 10, 10, 5, 9, 10]\n",
    "BFS-AM L=30 [17, 23, 30, 30, 28, 30, 16, 30, 27, 26, 30, 30, 15, 5, 13, 30, 26, 28, 8, 20]\n",
);

const VALIDATE_GOLDEN: &str = concat!(
    "CCAM-S find trials 48 observed 1.000000\n",
    "CCAM-S get_a_successor trials 48 observed 0.229167\n",
    "CCAM-S get_successors trials 48 observed 0.604167\n",
    "CCAM-S route trials 12 observed 3.916667\n",
    "CCAM-S delete trials 48 observed 1.687500\n",
    "CCAM-S insert trials 48 observed 0.020833\n",
    "DFS-AM find trials 48 observed 1.000000\n",
    "DFS-AM get_a_successor trials 48 observed 0.312500\n",
    "DFS-AM get_successors trials 48 observed 0.916667\n",
    "DFS-AM route trials 12 observed 7.833333\n",
    "DFS-AM delete trials 48 observed 2.041667\n",
    "DFS-AM insert trials 48 observed 0.062500\n",
    "Grid File find trials 48 observed 1.000000\n",
    "Grid File get_a_successor trials 48 observed 0.312500\n",
    "Grid File get_successors trials 48 observed 0.916667\n",
    "Grid File route trials 12 observed 8.333333\n",
    "Grid File delete trials 48 observed 1.958333\n",
    "Grid File insert trials 48 observed 0.000000\n",
    "BFS-AM find trials 48 observed 1.000000\n",
    "BFS-AM get_a_successor trials 48 observed 0.791667\n",
    "BFS-AM get_successors trials 48 observed 1.604167\n",
    "BFS-AM route trials 12 observed 16.166667\n",
    "BFS-AM delete trials 48 observed 2.645833\n",
    "BFS-AM insert trials 48 observed 0.312500\n",
);
