//! Integration: graph search and aggregate queries return identical
//! answers through every access method (placement must never change
//! query semantics, only I/O cost).

use std::collections::HashMap;

use ccam::core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam::core::query::aggregate::{location_allocation, route_unit_aggregate};
use ccam::core::query::route::evaluate_route;
use ccam::core::query::search::{a_star, dijkstra};
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::walks::random_walk_routes;
use ccam::graph::{Network, NodeId};

fn net() -> Network {
    road_map(&RoadMapConfig {
        grid_w: 10,
        grid_h: 10,
        removed_nodes: 2,
        target_segments: 150,
        target_directed: 265,
        cell: 64,
        jitter: 24,
        seed: 42,
    })
}

fn methods(net: &Network) -> Vec<Box<dyn AccessMethod>> {
    let w = HashMap::new();
    vec![
        Box::new(CcamBuilder::new(512).build_static(net).unwrap()),
        Box::new(TopoAm::create(net, 512, TraversalOrder::DepthFirst, None, &w).unwrap()),
        Box::new(GridAm::create(net, 512).unwrap()),
    ]
}

#[test]
fn shortest_paths_are_placement_independent() {
    let net = net();
    let ams = methods(&net);
    let ids = net.node_ids();
    for i in (0..ids.len()).step_by(13) {
        let (s, g) = (ids[i], ids[(i * 7 + 29) % ids.len()]);
        let costs: Vec<Option<u64>> = ams
            .iter()
            .map(|am| dijkstra(am.as_ref(), s, g).unwrap().map(|r| r.cost))
            .collect();
        assert!(
            costs.windows(2).all(|w| w[0] == w[1]),
            "dijkstra {s:?}->{g:?} disagrees across methods: {costs:?}"
        );
        // A* agrees with Dijkstra on every method.
        for am in &ams {
            let a = a_star(am.as_ref(), s, g).unwrap().map(|r| r.cost);
            assert_eq!(a, costs[0], "{}: A* vs dijkstra {s:?}->{g:?}", am.name());
        }
    }
}

#[test]
fn route_evaluation_is_placement_independent() {
    let net = net();
    let ams = methods(&net);
    for route in random_walk_routes(&net, 25, 15, 5) {
        let evals: Vec<_> = ams
            .iter()
            .map(|am| evaluate_route(am.as_ref(), &route).unwrap())
            .collect();
        assert!(evals.iter().all(|e| e.complete));
        assert!(
            evals.windows(2).all(|w| w[0] == w[1]),
            "route evaluation disagrees: {evals:?}"
        );
    }
}

#[test]
fn route_unit_aggregates_are_placement_independent() {
    let net = net();
    let ams = methods(&net);
    let routes = random_walk_routes(&net, 5, 12, 6);
    for route in &routes {
        let arcs: Vec<(NodeId, NodeId)> = route.edges().collect();
        let aggs: Vec<_> = ams
            .iter()
            .map(|am| route_unit_aggregate(am.as_ref(), &arcs).unwrap())
            .collect();
        assert!(aggs.windows(2).all(|w| w[0] == w[1]), "{aggs:?}");
        assert_eq!(aggs[0].arcs_found, arcs.len());
    }
}

#[test]
fn location_allocation_is_placement_independent() {
    let net = net();
    let ams = methods(&net);
    let ids = net.node_ids();
    let candidates = [ids[0], ids[ids.len() / 2], ids[ids.len() - 1]];
    let demands: Vec<NodeId> = ids.iter().step_by(17).copied().collect();
    let results: Vec<_> = ams
        .iter()
        .map(|am| location_allocation(am.as_ref(), &candidates, &demands).unwrap())
        .collect();
    assert!(results.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn search_io_reflects_clustering_quality() {
    // The same A* query costs fewer page accesses on CCAM than on
    // BFS-AM: the point of the whole paper.
    let net = net();
    let w = HashMap::new();
    let ccam = CcamBuilder::new(512).build_static(&net).unwrap();
    let bfs = TopoAm::create(&net, 512, TraversalOrder::BreadthFirst, None, &w).unwrap();
    let ids = net.node_ids();
    let mut ccam_io = 0u64;
    let mut bfs_io = 0u64;
    for i in (0..ids.len()).step_by(9) {
        let (s, g) = (ids[i], ids[(i * 11 + 31) % ids.len()]);
        for (am, total) in [
            (&ccam as &dyn AccessMethod, &mut ccam_io),
            (&bfs, &mut bfs_io),
        ] {
            am.file().pool().set_capacity(4).unwrap();
            am.file().pool().clear().unwrap();
            let before = am.stats().snapshot();
            let _ = a_star(am, s, g).unwrap();
            *total += am.stats().snapshot().since(&before).physical_reads;
        }
    }
    assert!(
        ccam_io < bfs_io,
        "A* over CCAM ({ccam_io}) must beat BFS-AM ({bfs_io})"
    );
}

/// The buffer-first probe keeps the pool's recency order exact (§2.3:
/// "the buffered data-page should be searched first"). With a 3-frame
/// pool:
///
/// 1. probing a record whose page is not resident costs no hit and no
///    read and leaves the LRU order as it was;
/// 2. probing a record on a resident page costs exactly one hit and no
///    read;
/// 3. the `Find()` fallback inside `get_successors` evicts the true LRU
///    page;
/// 4. the source node's page stays resident through its own expansion.
///
/// A probe that walked the resident frames hit (and promoted) every one
/// of them, reversing the LRU order, so the fallback evicted the source
/// page — breaking rules 1 and 4.
#[test]
fn buffer_first_probe_keeps_lru_order() {
    let net = net();
    let w = HashMap::new();
    let am = TopoAm::create(&net, 512, TraversalOrder::BreadthFirst, None, &w).unwrap();
    let file = am.file();
    let page = |id: NodeId| file.page_of(id).unwrap().unwrap();
    let pool = file.pool();
    pool.set_capacity(3).unwrap();

    // A source whose successors off its own page all share one page.
    let (src, src_page, far_page) = net
        .node_ids()
        .into_iter()
        .find_map(|id| {
            let p = page(id);
            let mut foreign: Vec<_> = net
                .node(id)
                .unwrap()
                .successors
                .iter()
                .map(|e| page(e.to))
                .filter(|&q| q != p)
                .collect();
            foreign.dedup();
            (foreign.len() == 1).then(|| (id, p, foreign[0]))
        })
        .expect("a node with exactly one foreign successor page");
    // One node on each of three further pages.
    let mut others: Vec<NodeId> = Vec::new();
    for id in net.node_ids() {
        let p = page(id);
        if p != src_page && p != far_page && others.iter().all(|&o| page(o) != p) {
            others.push(id);
        }
    }
    let (x, y, z) = (others[0], others[1], others[2]);

    // Rules 1 and 2 on a pool holding z, y, x (MRU first).
    pool.clear().unwrap();
    for id in [x, y, z] {
        am.find(id).unwrap().unwrap();
    }
    let lru = vec![page(z), page(y), page(x)];
    assert_eq!(pool.resident_pages(), lru);
    let before = am.stats().snapshot();
    assert!(file.find_in_buffer(src).unwrap().is_none());
    let d = am.stats().snapshot().since(&before);
    assert_eq!((d.buffer_hits, d.physical_reads), (0, 0), "missed probe");
    assert_eq!(
        pool.resident_pages(),
        lru,
        "missed probe reordered the pool"
    );

    let before = am.stats().snapshot();
    let (p, rec) = file.find_in_buffer(x).unwrap().unwrap();
    assert_eq!((p, rec.id), (page(x), x));
    let d = am.stats().snapshot().since(&before);
    assert_eq!((d.buffer_hits, d.physical_reads), (1, 0), "resident probe");
    assert_eq!(pool.resident_pages(), vec![page(x), page(z), page(y)]);

    // Rules 3 and 4: the pool holds y, x, then the source page (LRU
    // first); expanding the source faults the far page over y.
    pool.clear().unwrap();
    for id in [y, x, src] {
        am.find(id).unwrap().unwrap();
    }
    let before = am.stats().snapshot();
    let succs = am.get_successors(src).unwrap();
    assert_eq!(succs.len(), net.node(src).unwrap().successors.len());
    let d = am.stats().snapshot().since(&before);
    assert_eq!(d.physical_reads, 1, "only the far page is faulted");
    let resident = pool.resident_pages();
    assert!(
        !resident.contains(&page(y)),
        "the LRU page must go: {resident:?}"
    );
    assert!(resident.contains(&src_page), "the source page must stay");
    assert!(resident.contains(&far_page) && resident.contains(&page(x)));
}
