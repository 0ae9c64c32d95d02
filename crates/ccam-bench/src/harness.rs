//! Shared experiment plumbing.

use std::collections::HashMap;

use ccam_core::am::{AccessMethod, CcamBuilder, GridAm, TopoAm, TraversalOrder};
use ccam_core::query::route::evaluate_route;
use ccam_graph::walks::Route;
use ccam_graph::{roadmap, Network, NodeId};
use ccam_partition::PartGraph;
use ccam_server::protocol::Request;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Seed used by every experiment so tables regenerate identically.
pub const EXPERIMENT_SEED: u64 = 1995;

/// The benchmark network: the Minneapolis-like road map (1079 nodes,
/// 3057 directed edges — DESIGN.md §4).
pub fn benchmark_network() -> Network {
    roadmap::minneapolis_like(EXPERIMENT_SEED)
}

/// The five access methods of the paper's comparison, built over `net`
/// with the given block size and (optional) route-derived edge weights.
///
/// Order matches the paper's figures: CCAM-S, CCAM-D, DFS-AM,
/// (WDFS-AM when weighted,) Grid File, BFS-AM.
pub fn build_all_methods(
    net: &Network,
    block_size: usize,
    weights: Option<&HashMap<(NodeId, NodeId), u64>>,
    include_wdfs: bool,
) -> Vec<Box<dyn AccessMethod>> {
    let empty = HashMap::new();
    let w = weights.unwrap_or(&empty);
    let mut builder = CcamBuilder::new(block_size);
    if let Some(weights) = weights {
        builder = builder.weights(weights.clone());
    }
    let mut methods: Vec<Box<dyn AccessMethod>> = Vec::new();
    methods.push(Box::new(builder.build_static(net).expect("CCAM-S create")));
    methods.push(Box::new(builder.build_dynamic(net).expect("CCAM-D create")));
    methods.push(Box::new(
        TopoAm::create(net, block_size, TraversalOrder::DepthFirst, None, w)
            .expect("DFS-AM create"),
    ));
    if include_wdfs {
        methods.push(Box::new(
            TopoAm::create(net, block_size, TraversalOrder::WeightedDepthFirst, None, w)
                .expect("WDFS-AM create"),
        ));
    }
    methods.push(Box::new(
        GridAm::create(net, block_size).expect("Grid create"),
    ));
    methods.push(Box::new(
        TopoAm::create(net, block_size, TraversalOrder::BreadthFirst, None, w)
            .expect("BFS-AM create"),
    ));
    methods
}

/// A deterministic random sample of `fraction` of the network's nodes.
pub fn sample_nodes(net: &Network, fraction: f64, seed: u64) -> Vec<NodeId> {
    let mut ids = net.node_ids();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    let k = ((ids.len() as f64) * fraction).round() as usize;
    ids.truncate(k);
    ids
}

/// Measures the data-page I/O (reads + writes, the paper's §3.2
/// convention for update operations) of `op`, starting from a cold
/// buffer and flushing dirty pages afterwards.
pub fn measure_io<R>(
    am: &mut dyn AccessMethod,
    op: impl FnOnce(&mut dyn AccessMethod) -> R,
) -> (R, u64) {
    am.file().pool().clear().expect("clear buffer");
    let before = am.stats().snapshot();
    let r = op(am);
    am.file().pool().flush_all().expect("flush");
    let d = am.stats().snapshot().since(&before);
    (r, d.physical_reads + d.physical_writes)
}

/// Measures read-only data-page accesses of `op` (search operations:
/// reads only, no flush needed).
pub fn measure_reads<R>(
    am: &dyn AccessMethod,
    op: impl FnOnce(&dyn AccessMethod) -> R,
) -> (R, u64) {
    let before = am.stats().snapshot();
    let r = op(am);
    let d = am.stats().snapshot().since(&before);
    (r, d.physical_reads)
}

/// Average data-page accesses per route for a route set, evaluated with
/// the paper's single one-page buffer (§4.3), cold per route.
pub fn avg_route_io(am: &dyn AccessMethod, routes: &[Route]) -> f64 {
    am.file().pool().set_capacity(1).expect("capacity");
    let mut total = 0u64;
    for route in routes {
        am.file().pool().clear().expect("clear");
        let before = am.stats().snapshot();
        let eval = evaluate_route(am, route).expect("route evaluation");
        debug_assert!(eval.complete, "walk-generated route must be valid");
        total += am.stats().snapshot().since(&before).physical_reads;
    }
    // Restore a sane buffer for later phases.
    am.file()
        .pool()
        .set_capacity(ccam_core::file::DEFAULT_BUFFER_FRAMES)
        .expect("capacity");
    total as f64 / routes.len() as f64
}

/// The clustering input `Static-Create()` builds internally for `net`
/// at `block`-byte pages: the page budget, and a `PartGraph` with each
/// node's clustering weight and uniform edge weights (the CRR setting).
pub fn part_graph(net: &Network, block: usize) -> (PartGraph, usize) {
    let empty = CcamBuilder::new(block).build_empty().expect("empty file");
    let all: Vec<&ccam_graph::NodeData> = net.nodes().collect();
    let idx_of: HashMap<NodeId, usize> = all.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let sizes = all.iter().map(|n| ccam_core::file::clustering_weight(n));
    let mut edges = Vec::new();
    for (i, n) in all.iter().enumerate() {
        for e in &n.successors {
            if let Some(&j) = idx_of.get(&e.to) {
                edges.push((i, j, 1u64));
            }
        }
    }
    let graph = PartGraph::new(sizes.collect(), &edges);
    (graph, empty.file().clustering_budget())
}

/// Request-mix weights of the serving benches, written and parsed as
/// `find:succ:route:agg` (find : get_successors : route :
/// range_aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix(pub [u32; 4]);

impl std::str::FromStr for Mix {
    type Err = ();

    fn from_str(s: &str) -> Result<Mix, ()> {
        let weights: Result<Vec<u32>, _> = s.split(':').map(str::parse).collect();
        weights
            .ok()
            .and_then(|w| w.try_into().ok())
            .map(Mix)
            .ok_or(())
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.0;
        write!(f, "{a}:{b}:{c}:{d}")
    }
}

/// The seeded request stream of `serve_load` and `chaos_serve`: the
/// network's node ids plus a pool of up-to-4-hop random walks, sampled
/// by a [`Mix`].
pub struct ServeWorkload {
    pub ids: Vec<NodeId>,
    walks: Vec<Vec<NodeId>>,
}

impl ServeWorkload {
    /// Draws `walks` walks from `net` with `StdRng::seed_from_u64(seed)`.
    pub fn new(net: &Network, walks: usize, seed: u64) -> ServeWorkload {
        let ids = net.node_ids();
        let mut rng = StdRng::seed_from_u64(seed);
        let walks = (0..walks)
            .map(|_| {
                let mut walk = vec![ids[rng.random_range(0..ids.len())]];
                for _ in 0..4 {
                    let cur = *walk.last().expect("walk starts non-empty");
                    let Some(node) = net.node(cur) else { break };
                    if node.successors.is_empty() {
                        break;
                    }
                    walk.push(node.successors[rng.random_range(0..node.successors.len())].to);
                }
                walk
            })
            .collect();
        ServeWorkload { ids, walks }
    }

    /// One request drawn by `mix`.
    pub fn sample(&self, rng: &mut StdRng, mix: &Mix) -> Request {
        let [find, succ, route, _] = mix.0;
        let total: u32 = mix.0.iter().sum();
        let pick = rng.random_range(0..total.max(1));
        let id = self.ids[rng.random_range(0..self.ids.len())];
        if pick < find {
            return Request::Find(id);
        }
        if pick < find + succ {
            return Request::GetSuccessors(id);
        }
        let walk = &self.walks[rng.random_range(0..self.walks.len())];
        if pick < find + succ + route {
            Request::Route(walk.clone())
        } else {
            Request::RangeAggregate(walk.windows(2).map(|p| (p[0], p[1])).collect())
        }
    }
}

/// Renders a plain-text table: header row + rows, column-aligned.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| -> String {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        s.trim_end().to_string()
    };
    let mut out = line(header);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let net = ccam_graph::generators::grid_network(10, 10, 1.0);
        let a = sample_nodes(&net, 0.5, 7);
        let b = sample_nodes(&net, 0.5, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let c = sample_nodes(&net, 0.5, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn measure_io_counts_cold_accesses() {
        let net = ccam_graph::generators::grid_network(6, 6, 1.0);
        let mut am: Box<dyn AccessMethod> =
            Box::new(CcamBuilder::new(512).build_static(&net).unwrap());
        let id = net.node_ids()[0];
        let (_, io) = measure_io(am.as_mut(), |am| am.find(id).unwrap());
        assert_eq!(io, 1, "cold find reads exactly one data page");
    }

    /// The sampler is one seeded stream, and each mix weight of 100
    /// selects its request kind.
    #[test]
    fn serve_workload_is_seeded_and_mixed() {
        let net = ccam_graph::generators::grid_network(6, 6, 1.0);
        let draw = |seed, mix: &str| {
            let (w, mix) = (ServeWorkload::new(&net, 16, seed), mix.parse().unwrap());
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32)
                .map(|_| w.sample(&mut rng, &mix))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "55:25:12:8"), draw(7, "55:25:12:8"));
        assert_ne!(draw(7, "55:25:12:8"), draw(8, "55:25:12:8"));
        let routes = draw(7, "0:0:100:0");
        assert!(routes
            .iter()
            .all(|r| matches!(r, Request::Route(w) if !w.is_empty())));
        let aggs = draw(7, "0:0:0:100");
        assert!(aggs.iter().all(|r| matches!(r, Request::RangeAggregate(_))));
        assert_eq!(
            "55:25:12:8".parse::<Mix>().unwrap().to_string(),
            "55:25:12:8"
        );
        assert!("1:2:3".parse::<Mix>().is_err() && "1:2:x:4".parse::<Mix>().is_err());
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["xxx".into(), "y".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a    bb"));
        assert!(lines[2].starts_with("xxx  y"));
    }

    #[test]
    fn build_all_methods_names() {
        let net = ccam_graph::generators::grid_network(6, 6, 1.0);
        let methods = build_all_methods(&net, 512, None, true);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "CCAM-S",
                "CCAM-D",
                "DFS-AM",
                "WDFS-AM",
                "Grid File",
                "BFS-AM"
            ]
        );
    }
}
