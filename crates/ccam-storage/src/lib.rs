#![warn(missing_docs)]

//! Paged storage substrate for the CCAM reproduction.
//!
//! This crate provides everything below the access-method layer:
//!
//! * [`page`] — page identifiers and block-size constants,
//! * [`slotted`] — slotted pages holding variable-length records (node
//!   records "do not have fixed formats, since the size of the
//!   successor-list and predecessor-list varies across nodes", paper §2.1),
//! * [`store`] — the [`PageStore`] abstraction with an in-memory and a
//!   file-backed implementation,
//! * [`buffer`] — an LRU buffer manager that counts data-page accesses,
//! * [`stats`] — shared I/O counters used by every experiment (the paper
//!   reports "the number of data pages accessed", §4), plus opt-in
//!   per-operation profiling spans,
//! * [`metrics`] — a named-metric registry (counters / gauges /
//!   histograms) with a dependency-free JSON dump, and the per-operation
//!   [`OpProfile`] page-access traces the spans produce,
//! * [`wal`], [`durable`], [`recovery`] — an opt-in write-ahead log:
//!   [`WalStore`] wraps any [`PageStore`], turns `sync()` into an atomic
//!   commit point, and replays the log on reopen so a crash at an
//!   arbitrary instant never tears a multi-page update,
//! * [`retry`] — [`RetryStore`] absorbs transient faults with bounded
//!   attempts and deterministic exponential backoff,
//! * [`integrity`] — [`scrub`](integrity::scrub) verifies every page's
//!   CRC32 (v2 page files), repairs damage from committed WAL images and
//!   reports what must be quarantined.
//! * [`testing`] — [`FaultStore`] injects seeded, replayable faults
//!   (I/O failure, power cut with a torn write, `ENOSPC`, glitches, page
//!   rot, stalls) below the buffer pool, so fault tests leave the
//!   page-access counts untouched.
//!
//! The access methods in `ccam-core` never touch a [`PageStore`] directly;
//! all page traffic flows through a [`BufferPool`] so that the experiments
//! can attribute every physical page fetch to the operation that caused it.

pub mod buffer;
pub mod durable;
pub mod error;
pub mod integrity;
pub mod metrics;
pub mod page;
pub mod recovery;
pub mod retry;
pub mod slotted;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod testing;
pub mod wal;

pub use buffer::{BufferPool, PoolStrategy, Prefetcher, ShardCounters, LINEAR_CAPACITY_MAX};
pub use durable::{ReplFeed, ReplImage, ReplImageState, RetentionSlot, WalRetention, WalStore};
pub use error::{StorageError, StorageResult};
pub use integrity::{committed_images, scrub, scrub_file, PageStatus, ScrubReport};
pub use metrics::{Histogram, MetricsRegistry, OpProfile, PageAccessKind, PageEvent};
pub use page::{PageId, BLOCK_1K, BLOCK_2K, BLOCK_4K, BLOCK_512, MIN_PAGE_SIZE};
pub use recovery::{apply_image, apply_segment, RecoveryReport, SegmentApply};
pub use retry::{xorshift64_star, RetryPolicy, RetryStore};
pub use slotted::{SlotId, SlottedPage, SlottedView};
pub use snapshot::{PageImage, PageVersions, SnapshotStore};
pub use stats::{IoSnapshot, IoStats, OpSpan};
pub use store::{FilePageStore, MemPageStore, PageStore, WalInfo};
pub use testing::{FaultController, FaultStore, OpCounts, SweepRng, TornWrite};
pub use wal::{wal_sidecar, LogRecord, StampedRecord, Wal};
