//! WAL replay idempotency for replication: a follower that crashes
//! mid-apply and is re-shipped the same segment batch must converge to
//! byte-identical pages, including when the shipped range crosses a
//! checkpoint boundary on the primary.
//!
//! These tests drive the storage-level shipping primitives directly —
//! [`WalStore::repl_records_after`] on the primary feeding
//! [`Ccam::apply_replicated`] on the follower — the same path the
//! server's replication threads use, minus the sockets. Divergence is
//! detected two ways, in `reads_during_commit.rs` style: a
//! layout-independent generation digest over every logical record, and
//! a strict byte comparison of every live page (replication ships
//! physical images, so a correct follower is byte-identical, not just
//! logically equal).

use std::hash::{Hash, Hasher};

use ccam::core::am::{AccessMethod, Ccam, CcamBuilder};
use ccam::graph::roadmap::{road_map, RoadMapConfig};
use ccam::graph::Network;
use ccam::storage::{
    Durable, MemPageStore, PageStore, ReplFeed, RetentionSlot, StampedRecord, WalStore,
};

type WalMem = WalStore<MemPageStore>;

fn test_network(seed: u64) -> Network {
    road_map(&RoadMapConfig {
        grid_w: 10,
        grid_h: 10,
        removed_nodes: 2,
        target_segments: 150,
        target_directed: 265,
        cell: 64,
        jitter: 24,
        seed,
    })
}

fn temp_wal(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ccam-replay-{}-{}.wal", std::process::id(), name))
}

/// A WAL-backed primary with a retention slot subscribed from LSN 0
/// *before* the build — like a follower that subscribed at birth — so
/// checkpoints (including any auto-checkpoint during the build itself)
/// retain the full shippable tail.
fn primary_with(net: &Network, tag: &str) -> (Ccam<WalMem>, RetentionSlot) {
    let wal = WalStore::create(MemPageStore::new(1024).unwrap(), &temp_wal(tag)).unwrap();
    let slot = wal.wal_retention().subscribe(0);
    let mut am = CcamBuilder::new(1024).build_static_on(wal, net).unwrap();
    am.file_mut().set_auto_commit(true);
    (am, slot)
}

fn empty_follower(tag: &str) -> Ccam<WalMem> {
    let wal = WalStore::create(MemPageStore::new(1024).unwrap(), &temp_wal(tag)).unwrap();
    let mut am = CcamBuilder::new(1024)
        .build_static_on(wal, &Network::new())
        .unwrap();
    am.file_mut().set_auto_commit(true);
    am
}

/// Layout-independent digest of the logical record set.
fn ledger_digest(am: &Ccam<WalMem>) -> u64 {
    let mut nodes = std::collections::BTreeMap::new();
    for (_page, records) in am.file().scan_uncounted().expect("scan") {
        for node in records {
            nodes.insert(node.id.0, node);
        }
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (id, node) in &nodes {
        id.hash(&mut h);
        node.x.hash(&mut h);
        node.y.hash(&mut h);
        node.payload.hash(&mut h);
        for e in &node.successors {
            e.to.0.hash(&mut h);
            e.cost.hash(&mut h);
        }
        for p in &node.predecessors {
            p.0.hash(&mut h);
        }
    }
    h.finish()
}

/// Raw bytes of every live page, by id — the strict form of parity.
fn page_bytes(am: &Ccam<WalMem>) -> Vec<(u32, Vec<u8>)> {
    am.file().pool().with_store(|s| {
        let mut out = Vec::new();
        let mut buf = vec![0u8; s.page_size()];
        for page in s.live_pages() {
            s.read(page, &mut buf).expect("read live page");
            out.push((page.0, buf.clone()));
        }
        out
    })
}

/// Pulls everything committed after `after` out of the primary's WAL.
fn ship_after(primary: &Ccam<WalMem>, after: u64) -> (Vec<StampedRecord>, u64) {
    let feed = primary
        .file()
        .pool()
        .with_store_mut(|s| s.repl_records_after(after))
        .expect("repl feed");
    match feed {
        ReplFeed::Records { records, next_lsn } => (records, next_lsn),
        other => panic!("expected a shippable tail, got {other:?}"),
    }
}

/// Rewrite a node's payload through the primary (one WAL batch per op
/// thanks to auto-commit; same shape the server's upsert produces).
fn mutate(primary: &mut Ccam<WalMem>, id: ccam::graph::NodeId, stamp: u8) {
    let del = primary
        .delete_node(id)
        .expect("delete")
        .expect("node exists");
    let mut data = del.data;
    data.payload = vec![stamp; 11];
    primary.insert_node(&data, &del.incoming).expect("reinsert");
}

#[test]
fn reshipped_segments_apply_idempotently_across_checkpoint_boundary() {
    let net = test_network(5);
    let (mut primary, slot) = primary_with(&net, "ckpt-p");
    let mut follower = empty_follower("ckpt-f");
    let ids = net.node_ids();

    // History part 1, then a checkpoint, then history part 2: the
    // shipped range now crosses a checkpoint record.
    for (i, &id) in ids.iter().take(6).enumerate() {
        mutate(&mut primary, id, 0x10 + i as u8);
    }
    primary
        .file()
        .pool()
        .with_store_mut(|s| s.checkpoint())
        .expect("mid-history checkpoint");
    for (i, &id) in ids.iter().skip(6).take(6).enumerate() {
        mutate(&mut primary, id, 0x20 + i as u8);
    }

    // First shipment: the follower applies the full history and
    // reaches parity.
    let (records, next_lsn) = ship_after(&primary, 0);
    let apply = follower.apply_replicated(&records, 0).expect("first apply");
    assert!(apply.batches > 0, "nothing applied");
    assert_eq!(
        apply.applied_lsn,
        next_lsn - 1,
        "position short of the tail"
    );
    assert_eq!(
        ledger_digest(&primary),
        ledger_digest(&follower),
        "divergence after first apply"
    );
    let settled = page_bytes(&follower);
    assert_eq!(page_bytes(&primary), settled, "pages not byte-identical");

    // Crash: the follower loses its position sidecar and is re-shipped
    // the same range from LSN 0. Every batch must be skipped (its
    // commit LSN is at or below the follower's real position), leaving
    // the pages untouched byte for byte.
    let (again, _) = ship_after(&primary, 0);
    let reapply = follower
        .apply_replicated(&again, apply.applied_lsn)
        .expect("idempotent re-apply");
    assert_eq!(reapply.batches, 0, "re-applied already-applied batches");
    assert_eq!(reapply.applied_lsn, apply.applied_lsn, "position moved");
    assert_eq!(
        page_bytes(&follower),
        settled,
        "re-shipment changed follower pages"
    );
    assert_eq!(ledger_digest(&primary), ledger_digest(&follower));

    // And from a *stale* (but nonzero) position: the overlap is
    // skipped, only genuinely new history (none here) would apply.
    let stale = apply.applied_lsn / 2;
    let (overlap, _) = ship_after(&primary, stale);
    let re2 = follower
        .apply_replicated(&overlap, apply.applied_lsn)
        .expect("stale re-apply");
    assert_eq!(re2.batches, 0);
    assert_eq!(page_bytes(&follower), settled);
    drop(slot);
}

#[test]
fn torn_shipment_holds_back_tail_and_full_reship_converges() {
    let net = test_network(9);
    let (mut primary, _slot) = primary_with(&net, "torn-p");
    let mut follower = empty_follower("torn-f");
    let ids = net.node_ids();
    for (i, &id) in ids.iter().take(8).enumerate() {
        mutate(&mut primary, id, 0x40 + i as u8);
    }

    let (records, next_lsn) = ship_after(&primary, 0);
    assert!(records.len() > 4, "history too short to tear");

    // The follower crashes mid-apply: only a torn prefix of the
    // segment arrives. `apply_segment` must hold back the unterminated
    // final batch — the follower lands on a committed boundary, never
    // a half-applied batch.
    let torn = &records[..records.len() - 2];
    let partial = follower.apply_replicated(torn, 0).expect("torn apply");
    assert!(
        partial.applied_lsn < next_lsn - 1,
        "torn tail was applied as if complete"
    );

    // Recovery re-ships from the follower's surviving position; the
    // overlap is skipped, the rest applied, and the stores converge to
    // byte-identical pages.
    let (rest, rest_next) = ship_after(&primary, partial.applied_lsn);
    let done = follower
        .apply_replicated(&rest, partial.applied_lsn)
        .expect("resumed apply");
    assert_eq!(done.applied_lsn, rest_next - 1);
    assert_eq!(
        ledger_digest(&primary),
        ledger_digest(&follower),
        "divergence after resumed apply"
    );
    assert_eq!(page_bytes(&primary), page_bytes(&follower));

    // A second identical re-shipment is a no-op.
    let before = page_bytes(&follower);
    let (again, _) = ship_after(&primary, 0);
    let re = follower
        .apply_replicated(&again, done.applied_lsn)
        .expect("full re-ship");
    assert_eq!(re.batches, 0);
    assert_eq!(page_bytes(&follower), before);
}
