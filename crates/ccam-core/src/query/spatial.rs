//! Spatial queries over a network file.
//!
//! The paper's §2.1: CCAM's secondary index is a B⁺-tree over the
//! Z-order of the node coordinates, which "can support point and range
//! queries on spatial databases. Other access methods such as R-tree
//! \[11\] and Grid File \[21\], etc. can alternatively be created on top of
//! the data file as secondary indices." This module provides both
//! flavours over one data file:
//!
//! * [`SpatialIndex::RTree`] — a Guttman R-tree over the node points,
//! * [`SpatialIndex::ZOrder`] — Z-order range decomposition over the
//!   existing node-id B⁺-tree *when node ids are Z-order codes* (the
//!   road-map convention): a window query becomes a set of id-range
//!   scans.
//!
//! Retrieving the matching records costs counted data-page accesses like
//! every other query, so the experiments can compare clustering quality
//! for spatial workloads too.

use ccam_graph::{NodeData, NodeId};
use ccam_index::rtree::{RTree, Rect};
use ccam_index::zorder::{z_decode, z_encode};
use ccam_storage::{PageStore, StorageResult};

use crate::file::NetworkFile;

/// A spatial secondary index over the nodes of a data file.
pub enum SpatialIndex {
    /// Guttman R-tree over node coordinates.
    RTree(RTree<u64>),
    /// Z-order interpretation of the node ids themselves (valid when ids
    /// are Morton codes of the coordinates, as in the road-map
    /// generators).
    ZOrder,
}

impl SpatialIndex {
    /// Builds an R-tree index from the file's current contents
    /// (uncounted scan — index construction is not part of query I/O).
    pub fn build_rtree<S: PageStore>(file: &NetworkFile<S>) -> StorageResult<SpatialIndex> {
        let mut tree = RTree::new(16);
        for (_, records) in file.scan_uncounted()? {
            for rec in records {
                tree.insert(Rect::point(rec.x, rec.y), rec.id.0);
            }
        }
        Ok(SpatialIndex::RTree(tree))
    }

    /// The Z-order-id index (no construction needed; the node-id B⁺-tree
    /// *is* the spatial index).
    pub fn zorder() -> SpatialIndex {
        SpatialIndex::ZOrder
    }

    /// Registers a newly inserted node (no-op for Z-order).
    pub fn insert(&mut self, node: &NodeData) {
        if let SpatialIndex::RTree(t) = self {
            t.insert(Rect::point(node.x, node.y), node.id.0);
        }
    }

    /// Unregisters a deleted node (no-op for Z-order).
    pub fn remove(&mut self, node: &NodeData) {
        if let SpatialIndex::RTree(t) = self {
            t.remove(Rect::point(node.x, node.y), &node.id.0);
        }
    }

    /// Node ids inside the window `[x0, x1] × [y0, y1]` (index-only; no
    /// data-page I/O).
    pub fn window_ids<S: PageStore>(
        &self,
        file: &NetworkFile<S>,
        x0: u32,
        y0: u32,
        x1: u32,
        y1: u32,
    ) -> StorageResult<Vec<NodeId>> {
        match self {
            SpatialIndex::RTree(t) => Ok(t
                .window_query(Rect::new(x0, y0, x1, y1))
                .into_iter()
                .map(|&id| NodeId(id))
                .collect()),
            SpatialIndex::ZOrder => {
                // Scan the covering Z-range on the id index and filter by
                // decoded coordinates. The covering range [z(x0,y0),
                // z(x1,y1)] is correct for Morton codes (both coordinates
                // monotone) but loose; the filter restores exactness.
                let lo = z_encode(x0, y0);
                let hi = z_encode(x1, y1);
                let mut out = Vec::new();
                for (id, _) in file.index_range(lo, hi)? {
                    let (x, y) = z_decode(id);
                    if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
                        out.push(NodeId(id));
                    }
                }
                Ok(out)
            }
        }
    }

    /// Full records inside the window; fetching their pages is counted
    /// data-page I/O.
    pub fn window_records<S: PageStore>(
        &self,
        file: &NetworkFile<S>,
        x0: u32,
        y0: u32,
        x1: u32,
        y1: u32,
    ) -> StorageResult<Vec<NodeData>> {
        let ids = self.window_ids(file, x0, y0, x1, y1)?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            // Window members cluster spatially (and on CCAM also by
            // connectivity), so most fetches are free hits on pages
            // already buffered; one index lookup per record.
            if let Some((_, r)) = file.find(id)? {
                out.push(r);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::am::{AccessMethod, CcamBuilder};
    use ccam_graph::generators::grid_network;

    fn window_brute(net: &ccam_graph::Network, x0: u32, y0: u32, x1: u32, y1: u32) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = net
            .nodes()
            .filter(|n| n.x >= x0 && n.x <= x1 && n.y >= y0 && n.y <= y1)
            .map(|n| n.id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn rtree_window_matches_brute_force() {
        let net = grid_network(15, 15, 1.0);
        let am = CcamBuilder::new(1024).build_static(&net).unwrap();
        let idx = SpatialIndex::build_rtree(am.file()).unwrap();
        for (x0, y0, x1, y1) in [
            (0, 0, 14, 14),
            (3, 4, 7, 9),
            (10, 10, 10, 10),
            (20, 20, 30, 30),
        ] {
            let mut got = idx.window_ids(am.file(), x0, y0, x1, y1).unwrap();
            got.sort_unstable();
            assert_eq!(
                got,
                window_brute(&net, x0, y0, x1, y1),
                "{x0},{y0},{x1},{y1}"
            );
        }
    }

    #[test]
    fn zorder_window_matches_brute_force() {
        let net = grid_network(15, 15, 1.0);
        let am = CcamBuilder::new(1024).build_static(&net).unwrap();
        let idx = SpatialIndex::zorder();
        for (x0, y0, x1, y1) in [(0, 0, 14, 14), (3, 4, 7, 9), (5, 5, 5, 5)] {
            let mut got = idx.window_ids(am.file(), x0, y0, x1, y1).unwrap();
            got.sort_unstable();
            assert_eq!(
                got,
                window_brute(&net, x0, y0, x1, y1),
                "{x0},{y0},{x1},{y1}"
            );
        }
    }

    #[test]
    fn window_records_fetch_full_records() {
        let net = grid_network(10, 10, 1.0);
        let am = CcamBuilder::new(512).build_static(&net).unwrap();
        let idx = SpatialIndex::build_rtree(am.file()).unwrap();
        let recs = idx.window_records(am.file(), 2, 2, 5, 5).unwrap();
        assert_eq!(recs.len(), 16);
        for r in &recs {
            assert_eq!(net.node(r.id).unwrap(), r);
        }
    }

    #[test]
    fn index_tracks_updates() {
        let net = grid_network(8, 8, 1.0);
        let mut am = CcamBuilder::new(512).build_static(&net).unwrap();
        let mut idx = SpatialIndex::build_rtree(am.file()).unwrap();
        let victim = net.node_ids()[20];
        let victim_rec = am.find(victim).unwrap().unwrap();
        let del = am.delete_node(victim).unwrap().unwrap();
        idx.remove(&victim_rec);
        let ids = idx
            .window_ids(
                am.file(),
                victim_rec.x,
                victim_rec.y,
                victim_rec.x,
                victim_rec.y,
            )
            .unwrap();
        assert!(!ids.contains(&victim));
        am.insert_node(&del.data, &del.incoming).unwrap();
        idx.insert(&del.data);
        let ids = idx
            .window_ids(
                am.file(),
                victim_rec.x,
                victim_rec.y,
                victim_rec.x,
                victim_rec.y,
            )
            .unwrap();
        assert!(ids.contains(&victim));
    }
}
