//! The traced run: spans recorded from the benchmark's own calls into
//! each layer, and the single-threaded replay that makes them.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans are kept in memory and written out when
//! the run ends. The replay drives the same request stream as the
//! served counted pass, but through the public functions of each layer —
//! protocol codec, epoch cell, access method, data file, index, query
//! evaluators, WAL commit — so every layer's time is its own span's.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ccam_core::file::clustering_weight;
use ccam_core::query::aggregate::route_unit_aggregate;
use ccam_core::query::route::evaluate_path;
use ccam_core::{AccessMethod, Ccam, CcamBuilder};
use ccam_graph::{Network, NodeData, NodeId};
use ccam_partition::coarsen::coarsen_stack;
use ccam_partition::recursive::{
    cluster_nodes_into_pages_with, ClusterOptions, PartitionStrategy, Partitioner,
};
use ccam_partition::{residue_ratio, MultilevelOpts, PartGraph};
use ccam_server::protocol::{
    decode_request_batch, decode_response_batch, encode_request_batch, encode_response_batch,
    Request, Response,
};
use ccam_storage::{SnapshotStore, StorageResult};

use crate::serve::{wal_info, writer_io, Counts, Db, Failures, Store};
use crate::util::json_str;
use crate::workload::{op_index, Inputs, Spec, PAGE_SIZE};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `am.find`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to (`u64::MAX` outside requests).
    pub req: u64,
}

/// Records spans when on; runs the closures untouched when off.
pub struct Tracer {
    on: bool,
    t0: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// The current request id.
    pub req: u64,
}

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans, ns.
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean inclusive duration, µs (0 without spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: u64::MAX,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Per-name totals with self times.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_ns += d;
            e.self_ns += d.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = if s.req == u64::MAX {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {req}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Partition- and file-layer measurements of one traced build.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildSpans {
    /// Building the partition graph from the network, s.
    pub graph_s: f64,
    /// `coarsen_stack` on the whole graph (multilevel builds only), s.
    pub coarsen_s: f64,
    /// `cluster_nodes_into_pages_with`, s.
    pub cluster_s: f64,
    /// `NetworkFile::bulk_load`, s.
    pub bulk_load_s: f64,
    /// Residue ratio (CRR) of the clustering on the partition graph.
    pub residue_ratio: f64,
    /// Data pages loaded.
    pub pages: usize,
    /// Record bytes per page byte of budget.
    pub fill: f64,
}

fn span_s(tr: &Tracer) -> f64 {
    tr.spans
        .last()
        .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
}

/// `Static-Create()` exactly as `CcamBuilder::build_static_on` runs it,
/// one layer call at a time inside spans.
pub fn traced_build(
    spec: &Spec,
    net: &Network,
    store: Store,
    tr: &mut Tracer,
) -> Result<(Ccam<Store>, BuildSpans), String> {
    let mut am = CcamBuilder::new(PAGE_SIZE)
        .threads(0)
        .strategy(spec.strategy)
        .build_empty_on(store)
        .map_err(|e| e.to_string())?;
    let budget = am.file().clustering_budget();
    let mut out = BuildSpans::default();
    let (nodes, graph) = tr.span("partition.graph", |_| {
        let nodes: Vec<&NodeData> = net.nodes().collect();
        let idx_of: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
        let sizes: Vec<usize> = nodes.iter().map(|n| clustering_weight(n)).collect();
        let mut edges = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            for e in &n.successors {
                if let Some(&j) = idx_of.get(&e.to) {
                    // Uniform clustering weight: no route-derived weights.
                    edges.push((i, j, 1u64));
                }
            }
        }
        (nodes, PartGraph::new(sizes, &edges))
    });
    out.graph_s = span_s(tr);
    if spec.strategy == PartitionStrategy::Multilevel {
        let levels = tr.span("partition.coarsen", |_| {
            coarsen_stack(&graph, budget, &MultilevelOpts::default())
        });
        out.coarsen_s = span_s(tr);
        drop(levels);
    }
    let opts = ClusterOptions::new(Partitioner::RatioCut)
        .threads(0)
        .strategy(spec.strategy);
    let groups = tr.span("partition.cluster", |_| {
        cluster_nodes_into_pages_with(&graph, budget, opts)
    });
    out.cluster_s = span_s(tr);

    // Placement itself is checked on the served database, whose page
    // digest this build must match.
    let mut part = vec![0; graph.len()];
    for (g, group) in groups.iter().enumerate() {
        for &v in group {
            part[v] = g;
        }
    }
    out.residue_ratio = residue_ratio(&graph, &part);

    tr.span("file.bulk_load", |_| {
        am.file_mut()
            .bulk_load(
                groups
                    .iter()
                    .map(|g| g.iter().map(|&i| nodes[i]).collect::<Vec<_>>()),
            )
            .map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    out.bulk_load_s = span_s(tr);
    out.pages = am.file().num_pages();
    out.fill = graph.total_size() as f64 / (out.pages.max(1) * budget) as f64;
    Ok((am, out))
}

/// Work the replay measured beyond [`Counts`].
#[derive(Debug, Clone, Default)]
pub struct ReplayOut {
    /// Page counters, comparable with the served counted pass.
    pub counts: Counts,
    /// Answer failures.
    pub fails: Failures,
    /// Wall time of the whole replay, s.
    pub wall_s: f64,
    /// Request plus response frame bytes.
    pub bytes: u64,
    /// Pool hits of the resident-frame scans of `get_successors`.
    pub probes: u64,
    /// Successor records returned.
    pub successors: u64,
    /// Nodes visited by routes and retrieved by aggregates.
    pub query_nodes: [u64; 2],
}

type View = Ccam<SnapshotStore>;

/// `Find()` as `NetworkFile::find` runs it: index lookup, then the page.
fn find(tr: &mut Tracer, view: &View, id: NodeId) -> StorageResult<Option<NodeData>> {
    tr.span("am.find", |tr| {
        let Some(page) = tr.span("index.page_of", |_| view.file().page_of(id))? else {
            return Ok(None);
        };
        tr.span("file.read_from_page", |_| {
            view.file().read_from_page(page, id)
        })
    })
}

/// `Get-successors()` as `AccessMethod::get_successors` runs it.
fn get_successors(
    tr: &mut Tracer,
    view: &View,
    id: NodeId,
    out: &mut ReplayOut,
) -> StorageResult<Vec<NodeData>> {
    tr.span("am.get_successors", |tr| {
        let Some(rec) = find(tr, view, id)? else {
            return Ok(Vec::new());
        };
        let mut found = Vec::with_capacity(rec.successors.len());
        let stats = view.file().stats();
        for e in &rec.successors {
            let h0 = stats.snapshot().buffer_hits;
            let hit = tr.span("file.find_in_buffer", |_| view.file().find_in_buffer(e.to))?;
            out.probes += stats.snapshot().buffer_hits - h0;
            let succ = match hit {
                Some((_, s)) => Some(s),
                None => find(tr, view, e.to)?,
            };
            found.extend(succ);
        }
        out.successors += found.len() as u64;
        Ok(found)
    })
}

/// Replays `reqs` on `db` in one thread, one request at a time, with the
/// server's per-request steps: decode, pin a snapshot, execute, encode.
/// Upserts take the server's write path (`delete_node` + `insert_node`
/// under one commit, then publish).
pub fn replay(
    db: &Db,
    inputs: &Inputs,
    reqs: &[Request],
    tr: &mut Tracer,
) -> Result<ReplayOut, String> {
    let mut out = ReplayOut::default();
    let mut after_publish = false;
    let t0 = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        tr.req = i as u64;
        let k = op_index(req);
        let resp = tr.span("request", |tr| -> Result<Response, String> {
            let frame = tr.span("protocol.encode", |_| {
                encode_request_batch(i as u32, 0, std::slice::from_ref(req))
            });
            let (_, _, mut decoded) = tr
                .span("protocol.decode", |_| decode_request_batch(&frame))
                .map_err(|e| e.to_string())?;
            let req = decoded.pop().ok_or("empty request frame")?;
            let view = tr
                .span("epoch.pin", |_| db.read())
                .map_err(|e| e.to_string())?;
            let (v0, i0) = (
                view.file().stats().snapshot(),
                view.file().index_stats().snapshot(),
            );
            let resp = match &req {
                Request::Find(id) => match find(tr, &view, *id).map_err(|e| e.to_string())? {
                    Some(n) => Response::Record(n),
                    None => Response::Error(ccam_server::protocol::Status::NotFound, req.op()),
                },
                Request::GetSuccessors(id) => Response::Records(
                    get_successors(tr, &view, *id, &mut out).map_err(|e| e.to_string())?,
                ),
                Request::Route(nodes) => {
                    let e = tr
                        .span("query.route", |_| evaluate_path(&*view, nodes))
                        .map_err(|e| e.to_string())?;
                    out.query_nodes[0] += e.nodes_visited as u64;
                    Response::RouteEval {
                        total_cost: e.total_cost,
                        nodes_visited: e.nodes_visited as u32,
                        complete: e.complete,
                    }
                }
                Request::RangeAggregate(arcs) => {
                    let a = tr
                        .span("query.aggregate", |_| route_unit_aggregate(&*view, arcs))
                        .map_err(|e| e.to_string())?;
                    out.query_nodes[1] += a.nodes_retrieved as u64;
                    Response::Aggregate {
                        arcs_found: a.arcs_found as u32,
                        arcs_missing: a.arcs_missing as u32,
                        total_cost: a.total_cost,
                        node_payload_sum: a.node_payload_sum,
                        nodes_retrieved: a.nodes_retrieved as u32,
                    }
                }
                Request::Upsert { id, payload } => {
                    let (w0, wal0) = (writer_io(db), wal_info(db)?);
                    let epoch = upsert(tr, db, *id, payload)?;
                    out.counts
                        .add_upsert(&writer_io(db).since(&w0), &wal0, &wal_info(db)?);
                    Response::Upserted { epoch }
                }
                Request::Stats => return Err("stats is not replayed".into()),
            };
            if k != 4 {
                let v = view.file().stats().snapshot().since(&v0);
                let ix = view.file().index_stats().snapshot().since(&i0);
                out.counts.add_read(k, &v, &ix, after_publish);
            }
            drop(view);
            let back = tr.span("protocol.encode", |_| {
                encode_response_batch(i as u32, std::slice::from_ref(&resp))
            });
            let (_, mut resps) = tr
                .span("protocol.decode", |_| decode_response_batch(&back))
                .map_err(|e| e.to_string())?;
            out.bytes += (frame.len() + back.len()) as u64;
            resps
                .pop()
                .ok_or_else(|| "empty response frame".to_string())
        })?;
        after_publish = k == 4;
        out.fails.classify(inputs, req, &resp, true);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    tr.req = u64::MAX;
    Ok(out)
}

/// The server's `Upsert` write path, one step per span.
fn upsert(tr: &mut Tracer, db: &Db, id: NodeId, payload: &[u8]) -> Result<u64, String> {
    let mut w = tr
        .span("epoch.write_wait", |_| db.write())
        .map_err(|e| e.to_string())?;
    let was_auto = w.file().auto_commit();
    w.file_mut().set_auto_commit(false);
    let applied = tr.span("am.update", |_| -> StorageResult<bool> {
        let Some(del) = w.delete_node(id)? else {
            return Ok(false);
        };
        let mut data = del.data;
        data.payload = payload.to_vec();
        w.insert_node(&data, &del.incoming)?;
        Ok(true)
    });
    w.file_mut().set_auto_commit(was_auto);
    if !applied.map_err(|e| e.to_string())? {
        return Err(format!("upsert of unknown node {id:?}"));
    }
    tr.span("wal.commit", |_| w.file().commit())
        .map_err(|e| e.to_string())?;
    tr.span("epoch.publish", |_| w.commit())
        .map_err(|e| e.to_string())
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "protocol" => "ccam-server::protocol",
        "epoch" => "ccam-core::epoch",
        "am" => "ccam-core::am",
        "file" => "ccam-core::file / ccam-storage::buffer",
        "index" => "ccam-index::btree",
        "query" => "ccam-core::query",
        "wal" => "ccam-storage::durable / wal",
        "partition" => "ccam-partition",
        _ => "benchmark",
    }
}
