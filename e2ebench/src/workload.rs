//! Workload definitions, seeded input generation and the answer oracle.
//!
//! Every input of a run — the network, the request streams, the upsert
//! payloads — follows from the workload and `--seed`. Answers are checked
//! against the in-memory [`Network`] the database was built from.

use ccam_graph::generators::grid_network;
use ccam_graph::roadmap::{road_map, RoadMapConfig};
use ccam_graph::{Network, NodeData, NodeId};
use ccam_partition::recursive::PartitionStrategy;
use ccam_server::protocol::{Request, Response};
use std::collections::HashMap;
use std::sync::Mutex;

use crate::util::Rng;

/// Data-page size of every database (the CLI's default block).
pub const PAGE_SIZE: usize = 1024;

/// Request kinds, in the order of [`Spec::mix`].
pub const OPS: [&str; 5] = [
    "find",
    "get_successors",
    "route",
    "range_aggregate",
    "upsert",
];

/// Index of a request's kind in [`OPS`].
pub fn op_index(r: &Request) -> usize {
    match r {
        Request::Find(_) => 0,
        Request::GetSuccessors(_) => 1,
        Request::Route(_) => 2,
        Request::RangeAggregate(_) => 3,
        Request::Upsert { .. } | Request::Stats => 4,
    }
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100% `Find` over a map that fits the view pool.
    Lookup,
    /// Successor / route / aggregate traffic over a map 8× the pool.
    Traverse,
    /// Mixed reads with 1% `Upsert` over a map 3× the pool.
    Update,
    /// Multilevel `Static-Create` of a 250k-node grid.
    Build,
}

impl Workload {
    /// Parses a `--workload` argument.
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "lookup" => Workload::Lookup,
            "traverse" => Workload::Traverse,
            "update" => Workload::Update,
            "build" => Workload::Build,
            _ => return None,
        })
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Traverse => "traverse",
            Workload::Update => "update",
            Workload::Build => "build",
        }
    }
}

/// Which generator builds the network.
#[derive(Debug, Clone, Copy)]
pub enum NetKind {
    /// `road_map` with a Minneapolis-proportioned `n × n` lattice.
    Road(u32),
    /// `grid_network(n, n, 1.0)`.
    Grid(u32),
}

/// Everything that defines one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Network generator and size.
    pub net: NetKind,
    /// Clustering strategy of the build.
    pub strategy: PartitionStrategy,
    /// Relative weights of find, get_successors, route, range_aggregate
    /// and upsert requests.
    pub mix: [u32; 5],
    /// Share of start nodes drawn from the hot region.
    pub hot_share: f64,
    /// Side of the hot region in lattice cells (centered); 0 for none.
    pub hot_cells: u32,
    /// Walk length range in hops (inclusive) for routes and aggregates.
    pub hops: (usize, usize),
    /// Offered rate of the open-loop latency phase, requests per second.
    pub rate: f64,
    /// Live-WAL byte cap (`None`: checkpoint after every commit).
    pub wal_cap: Option<u64>,
    /// Offered rate of the open-loop `Upsert` write probe that follows
    /// the read phases, upserts per second.
    pub probe_rate: f64,
    /// Requests in the single-client counted pass.
    pub count_reqs: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Routes in the fixed route set of `route_pages`.
    pub route_set: usize,
    /// Share of `--seconds` spent in the closed-loop capacity phase.
    pub capacity_share: f64,
    /// Share of `--seconds` spent in the open-loop latency phase.
    pub latency_share: f64,
}

/// Share of `--seconds` the write probe is offered over.
pub const PROBE_SHARE: f64 = 0.25;

/// Fewest upserts a write probe sends.
pub const PROBE_MIN: usize = 5;

impl Spec {
    /// The workload at full size, or at a tiny size for smoke tests.
    pub fn new(workload: Workload, tiny: bool) -> Spec {
        let base = Spec {
            workload,
            net: NetKind::Road(20),
            strategy: PartitionStrategy::Flat,
            mix: [100, 0, 0, 0, 0],
            hot_share: 0.0,
            hot_cells: 0,
            hops: (10, 20),
            rate: 6000.0,
            wal_cap: None,
            probe_rate: 100.0,
            count_reqs: 2000,
            setups: 15,
            route_set: 200,
            capacity_share: 0.35,
            latency_share: 0.4,
        };
        let mut spec = match workload {
            Workload::Lookup => base,
            Workload::Traverse => Spec {
                net: NetKind::Road(64),
                mix: [0, 40, 30, 30, 0],
                hot_share: 0.8,
                hot_cells: 28,
                rate: 1500.0,
                probe_rate: 20.0,
                setups: 5,
                ..base
            },
            Workload::Update => Spec {
                net: NetKind::Road(40),
                mix: [59, 25, 10, 5, 1],
                rate: 1000.0,
                wal_cap: Some(32 * 1024),
                probe_rate: 50.0,
                setups: 9,
                capacity_share: 0.3,
                latency_share: 0.45,
                ..base
            },
            Workload::Build => Spec {
                net: NetKind::Grid(500),
                strategy: PartitionStrategy::Multilevel,
                mix: [25, 25, 25, 25, 0],
                rate: 1000.0,
                probe_rate: 1.0,
                count_reqs: 1000,
                setups: 3,
                capacity_share: 0.25,
                latency_share: 0.1,
                ..base
            },
        };
        if tiny {
            spec.net = match spec.net {
                NetKind::Road(_) => NetKind::Road(8),
                NetKind::Grid(_) => NetKind::Grid(24),
            };
            spec.hot_cells = spec.hot_cells.min(4);
            spec.hops = (2, 4);
            spec.rate = spec.rate.min(500.0);
            spec.wal_cap = spec.wal_cap.map(|_| 8 * 1024);
            spec.probe_rate = spec.probe_rate.max(20.0);
            spec.count_reqs = 100;
            spec.setups = 1;
            spec.route_set = 10;
        }
        spec
    }
}

/// A generated network plus the id lists requests draw from.
pub struct Inputs {
    /// The network the database is built from; the answer oracle.
    pub net: Network,
    /// Every node id.
    pub ids: Vec<NodeId>,
    /// Node ids inside the hot region (empty without one).
    pub hot: Vec<NodeId>,
}

/// Generates the workload's network from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let net = match spec.net {
        NetKind::Road(n) => road_map(&RoadMapConfig::scaled(n, seed)),
        NetKind::Grid(n) => grid_network(n, n, 1.0),
    };
    let ids = net.node_ids();
    let hot = match (spec.net, spec.hot_cells) {
        (NetKind::Road(n), cells) if cells > 0 => {
            // Road-map coordinates are (lattice index + 1) · 64 ± 24.
            let lo = (n - cells) / 2;
            let cell = |c: u32| ((c + 32) / 64).saturating_sub(1);
            let inside = |c: u32| (lo..lo + cells).contains(&cell(c));
            net.nodes()
                .filter(|d| inside(d.x) && inside(d.y))
                .map(|d| d.id)
                .collect()
        }
        _ => Vec::new(),
    };
    Inputs { net, ids, hot }
}

/// The payload an `Upsert` of `version` writes: the original payload
/// rotated left by `version`. Length and byte sum are unchanged, so the
/// layout stays put and aggregate answers stay exact under writes.
pub fn rotated(orig: &[u8], version: u64) -> Vec<u8> {
    let mut p = orig.to_vec();
    if !p.is_empty() {
        let k = (version % p.len() as u64) as usize;
        p.rotate_left(k);
    }
    p
}

fn is_rotation(orig: &[u8], got: &[u8]) -> bool {
    orig.len() == got.len()
        && (orig.is_empty() || (0..orig.len()).any(|k| rotated(orig, k as u64) == got))
}

/// Which payload each upserted node should end on.
#[derive(Default)]
pub struct UpsertBook {
    inner: Mutex<HashMap<NodeId, BookEntry>>,
}

#[derive(Default)]
struct BookEntry {
    next_version: u64,
    /// (commit epoch, payload) of the latest acknowledged write.
    last: Option<(u64, Vec<u8>)>,
}

impl UpsertBook {
    /// A fresh version number for the next write of `id`.
    pub fn next_version(&self, id: NodeId) -> u64 {
        let mut m = self.inner.lock().expect("book lock");
        let e = m.entry(id).or_default();
        e.next_version += 1;
        e.next_version
    }

    /// Records that an `Upsert` of `req` was published at `epoch`.
    pub fn ack(&self, req: &Request, epoch: u64) {
        let Request::Upsert { id, payload } = req else {
            return;
        };
        let mut m = self.inner.lock().expect("book lock");
        let e = m.entry(*id).or_default();
        if e.last.as_ref().is_none_or(|(ep, _)| epoch > *ep) {
            e.last = Some((epoch, payload.clone()));
        }
    }

    /// `(node, payload)` of the last published write of every node.
    pub fn expected(&self) -> Vec<(NodeId, Vec<u8>)> {
        let mut v: Vec<(NodeId, Vec<u8>)> = self
            .inner
            .lock()
            .expect("book lock")
            .iter()
            .filter_map(|(&id, e)| e.last.as_ref().map(|(_, p)| (id, p.clone())))
            .collect();
        v.sort_unstable();
        v
    }
}

/// Seeded request generator for one client stream.
pub struct ReqGen<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    book: &'a UpsertBook,
    rng: Rng,
}

impl<'a> ReqGen<'a> {
    /// A stream for `seed`, decorrelated from other streams by `stream`.
    pub fn new(
        spec: &'a Spec,
        inputs: &'a Inputs,
        book: &'a UpsertBook,
        seed: u64,
        stream: u64,
    ) -> Self {
        ReqGen {
            spec,
            inputs,
            book,
            rng: Rng::new(seed, stream),
        }
    }

    fn start(&mut self) -> NodeId {
        let hot = &self.inputs.hot;
        if !hot.is_empty() && self.rng.unit() < self.spec.hot_share {
            hot[self.rng.below(hot.len())]
        } else {
            self.inputs.ids[self.rng.below(self.inputs.ids.len())]
        }
    }

    /// A random walk of `hops` edges from a drawn start node; restarts
    /// when stranded.
    pub fn walk(&mut self) -> Vec<NodeId> {
        let (lo, hi) = self.spec.hops;
        let hops = lo + self.rng.below(hi - lo + 1);
        for _ in 0..1000 {
            let mut nodes = vec![self.start()];
            while nodes.len() <= hops {
                let succ = &self
                    .inputs
                    .net
                    .node(*nodes.last().expect("non-empty"))
                    .expect("walk stays in the network")
                    .successors;
                if succ.is_empty() {
                    break;
                }
                nodes.push(succ[self.rng.below(succ.len())].to);
            }
            if nodes.len() == hops + 1 {
                return nodes;
            }
        }
        panic!("network cannot support walks of {hops} hops");
    }

    /// The next request of the workload's mix.
    pub fn next_request(&mut self) -> Request {
        let total: u32 = self.spec.mix.iter().sum();
        let mut pick = self.rng.below(total as usize) as u32;
        let mut op = 0;
        while pick >= self.spec.mix[op] {
            pick -= self.spec.mix[op];
            op += 1;
        }
        match op {
            0 => Request::Find(self.start()),
            1 => Request::GetSuccessors(self.start()),
            2 => Request::Route(self.walk()),
            3 => {
                let w = self.walk();
                Request::RangeAggregate(w.windows(2).map(|p| (p[0], p[1])).collect())
            }
            _ => self.upsert(),
        }
    }

    /// An `Upsert` of a uniformly drawn node to its next payload version.
    pub fn upsert(&mut self) -> Request {
        let id = self.inputs.ids[self.rng.below(self.inputs.ids.len())];
        let version = self.book.next_version(id);
        let orig = &self
            .inputs
            .net
            .node(id)
            .expect("drawn from the network")
            .payload;
        Request::Upsert {
            id,
            payload: rotated(orig, version),
        }
    }

    /// `n` requests of the mix.
    pub fn take(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// True when `got` is `want` up to an upserted payload rotation.
///
/// An upsert re-inserts its node, which re-appends it to its neighbors'
/// lists, so adjacency lists compare as sets.
pub fn record_matches(want: &NodeData, got: &NodeData) -> bool {
    fn sorted<T: Ord + Clone>(v: &[T]) -> Vec<T> {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    }
    let succ = |n: &NodeData| {
        sorted(
            &n.successors
                .iter()
                .map(|e| (e.to, e.cost))
                .collect::<Vec<_>>(),
        )
    };
    want.id == got.id
        && want.x == got.x
        && want.y == got.y
        && succ(want) == succ(got)
        && sorted(&want.predecessors) == sorted(&got.predecessors)
        && is_rotation(&want.payload, &got.payload)
}

/// Checks one answer against the in-memory network.
pub fn check(net: &Network, req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (Request::Find(id), Response::Record(got)) => {
            net.node(*id).is_some_and(|w| record_matches(w, got))
        }
        (Request::GetSuccessors(id), Response::Records(got)) => {
            let Some(src) = net.node(*id) else {
                return false;
            };
            let mut want: Vec<NodeId> = src.successors.iter().map(|e| e.to).collect();
            let mut ids: Vec<NodeId> = got.iter().map(|g| g.id).collect();
            want.sort_unstable();
            ids.sort_unstable();
            want == ids
                && got
                    .iter()
                    .all(|g| net.node(g.id).is_some_and(|w| record_matches(w, g)))
        }
        (
            Request::Route(nodes),
            Response::RouteEval {
                total_cost,
                nodes_visited,
                complete,
            },
        ) => route_cost(net, nodes).is_some_and(|c| {
            c == *total_cost && *nodes_visited as usize == nodes.len() && *complete
        }),
        (
            Request::RangeAggregate(arcs),
            Response::Aggregate {
                arcs_found,
                arcs_missing,
                total_cost,
                node_payload_sum,
                nodes_retrieved,
            },
        ) => {
            let want = aggregate(net, arcs);
            want == (
                *arcs_found as usize,
                *arcs_missing as usize,
                *total_cost,
                *node_payload_sum,
                *nodes_retrieved as usize,
            )
        }
        (Request::Upsert { .. }, Response::Upserted { .. }) => true,
        _ => false,
    }
}

/// Total edge cost of a route, `None` when an edge is missing.
pub fn route_cost(net: &Network, nodes: &[NodeId]) -> Option<u64> {
    let mut total = 0u64;
    for p in nodes.windows(2) {
        let e = net.node(p[0])?.successors.iter().find(|e| e.to == p[1])?;
        total += u64::from(e.cost);
    }
    Some(total)
}

/// The route-unit aggregate `(found, missing, cost, payload sum, nodes)`
/// with the semantics of `ccam_core::query::route_unit_aggregate`.
pub fn aggregate(net: &Network, arcs: &[(NodeId, NodeId)]) -> (usize, usize, u64, u64, usize) {
    let (mut found, mut missing, mut cost, mut payload, mut nodes) = (0, 0, 0u64, 0u64, 0);
    let mut seen: Vec<NodeId> = Vec::new();
    for &(from, to) in arcs {
        let Some(edge) = net
            .node(from)
            .and_then(|r| r.successors.iter().find(|e| e.to == to))
        else {
            missing += 1;
            continue;
        };
        found += 1;
        cost += u64::from(edge.cost);
        for id in [from, to] {
            if !seen.contains(&id) {
                if let Some(n) = net.node(id) {
                    payload += n.payload.iter().map(|&b| u64::from(b)).sum::<u64>();
                    nodes += 1;
                    seen.push(id);
                }
            }
        }
    }
    (found, missing, cost, payload, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotations_keep_length_and_sum() {
        let p = vec![1u8, 2, 3, 9];
        for v in 0..9 {
            let r = rotated(&p, v);
            assert_eq!(r.len(), p.len());
            assert_eq!(r.iter().map(|&b| b as u32).sum::<u32>(), 15);
            assert!(is_rotation(&p, &r));
        }
        assert!(!is_rotation(&p, &[1, 2, 9, 3]));
    }

    #[test]
    fn book_keeps_the_latest_epoch() {
        let b = UpsertBook::default();
        let id = NodeId(7);
        let w = |p: u8| Request::Upsert {
            id,
            payload: vec![p],
        };
        b.ack(&w(2), 9);
        b.ack(&w(1), 4);
        assert_eq!(b.expected(), vec![(id, vec![2])]);
    }

    #[test]
    fn streams_repeat_for_a_seed() {
        let spec = Spec::new(Workload::Traverse, true);
        let inputs = generate(&spec, 3);
        let b1 = UpsertBook::default();
        let b2 = UpsertBook::default();
        let a = ReqGen::new(&spec, &inputs, &b1, 3, 1).take(50);
        let b = ReqGen::new(&spec, &inputs, &b2, 3, 1).take(50);
        assert_eq!(a, b);
        assert!(!inputs.hot.is_empty());
    }
}
