//! LRU buffer manager with counted page accesses.
//!
//! Every page request from the access-method layer flows through
//! [`BufferPool`]. A request for a non-resident page evicts the least
//! recently used frame (writing it back if dirty) and counts one
//! *data-page access* — the unit the paper's experiments report. Requests
//! for resident pages are buffer hits and cost nothing, which is exactly
//! the behaviour the `Get-A-successor()` description relies on ("the
//! buffered data-page containing the node is likely to contain the
//! specified successor node if CRR is high", §2.3).
//!
//! # Two strategies, picked by capacity at construction
//!
//! [`BufferPool::new`] chooses between two internal organizations with
//! identical semantics (exact LRU, same counting rules, same fault
//! behaviour — one property test pins both to one model):
//!
//! * **Linear** (capacity ≤ [`LINEAR_CAPACITY_MAX`]): one mutex around a
//!   flat frame vector; page lookup is a linear scan, recency is a
//!   monotone tick, eviction scans for the minimum tick. At small
//!   capacities the scan is cache-resident and beats the sharded
//!   structure's hash + two-lock hit path by a wide margin (the
//!   BENCH_PR5 capacity-256 hit-heavy regime measured the sharded pool
//!   at 0.15x of a linear scan).
//! * **Sharded** (larger capacities): the O(1) structure below — the
//!   linear scan's cost grows with every frame, so past a few hundred
//!   frames the hash lookup and intrusive LRU list win, and concurrent
//!   readers of different pages stop serialising on one mutex.
//!
//! # Sharded structure (all hot paths O(1))
//!
//! * The page table is *sharded*: `SHARD_COUNT` independent
//!   `Mutex<HashMap<PageId, Arc<Frame>>>` maps, so concurrent readers of
//!   different pages never serialise on one pool-wide mutex. Each frame's
//!   bytes sit behind their own `RwLock`, and the `with_page` /
//!   `with_page_mut` closures run holding only that frame lock.
//! * Recency is an intrusive doubly-linked LRU list over a slab of
//!   entries (`meta`): a hit unlinks and relinks one node at the MRU
//!   head, an eviction pops the LRU tail — no tick counters, no
//!   `min_by_key` scan over the frame vector.
//! * Misses and structural operations (shrink, clear, free, flush)
//!   serialise on a `fault` mutex. That keeps the miss path simple and
//!   is the right trade for this workload: the paper's experiments are
//!   miss-*counting*, not miss-*throughput*, and hits stay concurrent.
//!
//! Lock order (outermost first): `fault` → shard map → `meta` → frame
//! buffer → `store`. Shard and `meta` are the only nested pair on the hit
//! path; everything else takes one lock at a time.
//!
//! # Prefetch (opt-in, off by default)
//!
//! [`BufferPool::set_prefetcher`] installs a connectivity-aware hook: on
//! every miss the hook maps the faulted page to candidate pages (e.g. the
//! pages of its successors' clusters) and the pool reads them into *free*
//! frames only — a prefetch never evicts a resident page. Prefetched
//! reads are counted honestly: each bumps `physical_reads` and
//! `prefetch_issued` and emits a [`PageAccessKind::Prefetch`] event, so
//! the paper-metric page-access counts are unchanged exactly when the
//! hook is off (the default).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};

use crate::error::{StorageError, StorageResult};
use crate::metrics::PageAccessKind;
use crate::page::PageId;
use crate::stats::IoStats;
use crate::store::PageStore;

/// Number of page-table shards (power of two; page ids are sequential,
/// so a mask distributes them evenly).
const SHARD_COUNT: usize = 16;

/// Null index in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// A connectivity-aware prefetch hook: maps a faulted page to candidate
/// pages worth reading into free frames.
pub type Prefetcher = Arc<dyn Fn(PageId) -> Vec<PageId> + Send + Sync>;

/// Per-shard counter snapshot (see [`BufferPool::shard_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Requests satisfied from this shard's resident frames.
    pub hits: u64,
    /// Requests that faulted a page mapped to this shard.
    pub misses: u64,
    /// Frames evicted from this shard.
    pub evictions: u64,
}

struct FrameBuf {
    data: Box<[u8]>,
    dirty: bool,
}

struct Frame {
    id: PageId,
    /// Index of this frame's entry in the `meta` slab. Stable for the
    /// frame's lifetime; readers re-validate it under the `meta` lock
    /// (slot slabs recycle indices), so a stale load is harmless.
    slot: AtomicUsize,
    buf: RwLock<FrameBuf>,
}

struct Shard {
    map: Mutex<HashMap<PageId, Arc<Frame>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// One slab entry: a resident frame plus its intrusive LRU links.
struct Entry {
    frame: Option<Arc<Frame>>,
    prev: usize,
    next: usize,
    /// Closures currently running over this frame's buffer; pinned
    /// frames are never chosen for eviction.
    pins: u32,
    /// Set while an eviction is unlinking this entry: blocks new pins so
    /// the evictor can write back and drop the frame race-free.
    evicting: bool,
}

/// LRU list + slab, guarded by one mutex. Every operation is O(1).
struct Meta {
    entries: Vec<Entry>,
    free: Vec<usize>,
    /// MRU end of the list.
    head: usize,
    /// LRU end of the list.
    tail: usize,
    /// Resident frames (linked entries).
    len: usize,
    capacity: usize,
}

impl Meta {
    fn new(capacity: usize) -> Meta {
        Meta {
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    fn alloc_slot(&mut self, frame: Arc<Frame>, pins: u32) -> usize {
        let entry = Entry {
            frame: Some(frame),
            prev: NIL,
            next: NIL,
            pins,
            evicting: false,
        };
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        }
    }

    fn free_slot(&mut self, slot: usize) {
        let e = &mut self.entries[slot];
        e.frame = None;
        e.pins = 0;
        e.evicting = false;
        self.free.push(slot);
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.entries[slot].prev, self.entries[slot].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.entries[slot].prev = NIL;
        self.entries[slot].next = NIL;
    }

    fn push_head(&mut self, slot: usize) {
        self.entries[slot].prev = NIL;
        self.entries[slot].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn push_tail(&mut self, slot: usize) {
        self.entries[slot].next = NIL;
        self.entries[slot].prev = self.tail;
        if self.tail != NIL {
            self.entries[self.tail].next = slot;
        }
        self.tail = slot;
        if self.head == NIL {
            self.head = slot;
        }
    }

    fn move_to_head(&mut self, slot: usize) {
        if self.head != slot {
            self.detach(slot);
            self.push_head(slot);
        }
    }

    /// The LRU-most unpinned entry, or `None` when every resident frame
    /// is pinned. O(1) unless concurrent closures have pinned the tail.
    fn pick_victim(&self) -> Option<usize> {
        let mut slot = self.tail;
        while slot != NIL {
            if self.entries[slot].pins == 0 {
                return Some(slot);
            }
            slot = self.entries[slot].prev;
        }
        None
    }
}

/// The sharded organization: O(1) hit and eviction paths, concurrent
/// hits on different pages. See the module docs for when [`BufferPool`]
/// picks it.
struct ShardedPool<S: PageStore> {
    shards: Box<[Shard]>,
    meta: Mutex<Meta>,
    /// Signalled on unpin, for evictors that found every frame pinned.
    meta_cv: Condvar,
    /// Serialises misses and structural operations (shrink/clear/free/
    /// flush). Hits never touch it.
    fault: Mutex<()>,
    store: Mutex<S>,
    stats: Arc<IoStats>,
    page_size: usize,
    prefetcher: Mutex<Option<Prefetcher>>,
}

impl<S: PageStore> ShardedPool<S> {
    fn new(store: S, capacity: usize) -> Self {
        let page_size = store.page_size();
        let shards = (0..SHARD_COUNT)
            .map(|_| Shard {
                map: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedPool {
            shards,
            meta: Mutex::new(Meta::new(capacity)),
            meta_cv: Condvar::new(),
            fault: Mutex::new(()),
            store: Mutex::new(store),
            stats: IoStats::new_shared(),
            page_size,
            prefetcher: Mutex::new(None),
        }
    }

    fn shard(&self, id: PageId) -> &Shard {
        &self.shards[id.0 as usize & (SHARD_COUNT - 1)]
    }

    /// Shared I/O counters (bumped by this pool).
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Per-shard hit/miss/eviction counters, indexed by shard.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|s| ShardCounters {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Installs (or with `None` removes) the connectivity-aware prefetch
    /// hook. Off by default; see the module docs for the counting rules.
    pub fn set_prefetcher(&self, hook: Option<Prefetcher>) {
        *self.prefetcher.lock() = hook;
    }

    /// Changes the frame budget, evicting (and writing back) surplus
    /// frames immediately. Experiments use this to switch between the
    /// paper's "one buffer with the size of one data page" (route
    /// evaluation, §4.3) and larger update buffers.
    ///
    /// Error-atomic on the capacity: the new (smaller) budget is adopted
    /// only once every surplus frame has actually been evicted, so a
    /// failed write-back mid-shrink leaves the pool with its old
    /// capacity and the resident count within it.
    pub fn set_capacity(&self, capacity: usize) -> StorageResult<()> {
        assert!(capacity >= 1);
        let _fault = self.fault.lock();
        self.shrink_to(capacity)?;
        self.meta.lock().capacity = capacity;
        Ok(())
    }

    /// Current frame budget.
    pub fn capacity(&self) -> usize {
        self.meta.lock().capacity
    }

    /// Allocates a fresh page in the store (counted in the stats but not
    /// faulted into the pool — callers typically write it next, which
    /// faults it in as one access).
    pub fn allocate(&self) -> StorageResult<PageId> {
        let id = self.store.lock().allocate()?;
        self.stats.record_alloc();
        Ok(id)
    }

    /// Frees `id`, dropping any buffered copy.
    pub fn free(&self, id: PageId) -> StorageResult<()> {
        let _fault = self.fault.lock();
        // Free in the store first: if it fails, the buffered copy (and
        // any dirty contents) must survive untouched.
        self.store.lock().free(id)?;
        let removed = self.shard(id).map.lock().remove(&id);
        if let Some(frame) = removed {
            let mut m = self.meta.lock();
            let slot = frame.slot.load(Ordering::Relaxed);
            m.detach(slot);
            m.len -= 1;
            m.free_slot(slot);
        }
        self.stats.record_free();
        Ok(())
    }

    /// Finds `id` resident and pins it MRU, or returns `None` (the
    /// caller then takes the miss path). The only lock nesting on the
    /// hit path: shard map → `meta`.
    fn pin_resident(&self, id: PageId) -> Option<Arc<Frame>> {
        let map = self.shard(id).map.lock();
        let frame = Arc::clone(map.get(&id)?);
        let mut m = self.meta.lock();
        let slot = frame.slot.load(Ordering::Relaxed);
        let valid = m.entries.get(slot).is_some_and(|e| {
            !e.evicting && e.frame.as_ref().is_some_and(|f| Arc::ptr_eq(f, &frame))
        });
        if !valid {
            // Racing eviction or half-installed frame: miss path re-checks
            // under the fault lock.
            return None;
        }
        m.entries[slot].pins += 1;
        m.move_to_head(slot);
        Some(frame)
    }

    fn unpin(&self, frame: &Arc<Frame>) {
        let mut m = self.meta.lock();
        let slot = frame.slot.load(Ordering::Relaxed);
        if let Some(e) = m.entries.get_mut(slot) {
            if e.frame.as_ref().is_some_and(|f| Arc::ptr_eq(f, frame)) {
                e.pins = e.pins.saturating_sub(1);
            }
        }
        drop(m);
        self.meta_cv.notify_all();
    }

    /// The counted hit path: pins `id` MRU and records one buffer hit,
    /// or returns `None` without counting anything.
    fn hit(&self, id: PageId) -> Option<Arc<Frame>> {
        let frame = self.pin_resident(id)?;
        self.stats.record_hit();
        self.shard(id).hits.fetch_add(1, Ordering::Relaxed);
        self.stats.record_page_event(id, PageAccessKind::Hit);
        Some(frame)
    }

    /// Runs `f` over the (read-only) contents of page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        let frame = match self.hit(id) {
            Some(frame) => frame,
            None => self.fault_in(id)?,
        };
        let r = f(&frame.buf.read().data);
        self.unpin(&frame);
        Ok(r)
    }

    /// Runs `f` over page `id` only if it is resident: one counted hit,
    /// never a fault. `None` (nothing counted) when it is not resident.
    pub fn with_resident_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let frame = self.hit(id)?;
        let r = f(&frame.buf.read().data);
        self.unpin(&frame);
        Some(r)
    }

    /// Runs `f` over the mutable contents of page `id`, marking it dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> StorageResult<R> {
        let frame = match self.hit(id) {
            Some(frame) => frame,
            None => self.fault_in(id)?,
        };
        let r = {
            let mut buf = frame.buf.write();
            buf.dirty = true;
            f(&mut buf.data)
        };
        self.unpin(&frame);
        Ok(r)
    }

    /// Miss path: fetches `id` from the store, evicting if needed, and
    /// returns the frame pinned at the MRU head.
    fn fault_in(&self, id: PageId) -> StorageResult<Arc<Frame>> {
        let _fault = self.fault.lock();
        // Another thread may have faulted the page in while this one
        // waited on the fault lock.
        if let Some(frame) = self.hit(id) {
            return Ok(frame);
        }
        if !self.store.lock().is_live(id) {
            return Err(StorageError::InvalidPage(id));
        }
        // The fill happens into a fresh buffer *before* a frame is
        // created: a failed read — I/O error or checksum mismatch — must
        // never leave a frame cached as if it held valid page contents.
        // And it happens *before* any eviction: a failed replacement read
        // must not cost current residents their frames (the LRU victim —
        // dirty write-back included — is only paid for once the new page
        // is actually in hand).
        let mut data = vec![0u8; self.page_size].into_boxed_slice();
        if let Err(e) = self.store.lock().read(id, &mut data) {
            if matches!(e, StorageError::ChecksumMismatch { .. }) {
                self.stats.record_checksum_failure();
                crate::trace_event!("buffer", "checksum failure on page {}", id.0);
            }
            return Err(e);
        }
        let room = self.meta.lock().capacity - 1;
        self.shrink_to(room)?;
        self.stats.record_read();
        self.shard(id).misses.fetch_add(1, Ordering::Relaxed);
        self.stats.record_page_event(id, PageAccessKind::Miss);
        let frame = self.install(id, data, 1, true);
        self.prefetch_after_miss(id);
        Ok(frame)
    }

    /// Links a freshly read page into the pool: `pins` initial pins,
    /// MRU head or LRU tail placement. Caller holds the fault lock and
    /// has ensured a free frame exists.
    fn install(&self, id: PageId, data: Box<[u8]>, pins: u32, mru: bool) -> Arc<Frame> {
        let frame = Arc::new(Frame {
            id,
            slot: AtomicUsize::new(NIL),
            buf: RwLock::new(FrameBuf { data, dirty: false }),
        });
        let mut map = self.shard(id).map.lock();
        let mut m = self.meta.lock();
        let slot = m.alloc_slot(Arc::clone(&frame), pins);
        frame.slot.store(slot, Ordering::Relaxed);
        if mru {
            m.push_head(slot);
        } else {
            m.push_tail(slot);
        }
        m.len += 1;
        drop(m);
        map.insert(id, Arc::clone(&frame));
        frame
    }

    /// Evicts LRU-most unpinned frames until at most `target` remain.
    /// Caller holds the fault lock. Waits on the condvar if every
    /// resident frame is pinned by an in-flight closure.
    fn shrink_to(&self, target: usize) -> StorageResult<()> {
        loop {
            let victim = {
                let mut m = self.meta.lock();
                if m.len <= target {
                    return Ok(());
                }
                match m.pick_victim() {
                    Some(slot) => {
                        let frame =
                            Arc::clone(m.entries[slot].frame.as_ref().expect("victim occupied"));
                        m.entries[slot].evicting = true;
                        m.detach(slot);
                        m.len -= 1;
                        Some((slot, frame))
                    }
                    None => {
                        self.meta_cv.wait(&mut m);
                        None
                    }
                }
            };
            if let Some((slot, frame)) = victim {
                self.evict_frame(slot, frame)?;
            }
        }
    }

    /// Writes back (if dirty) and drops an unlinked victim frame. On a
    /// failed write-back the victim is reinstated at the LRU tail and
    /// the error propagates — the pool never loses dirty bytes.
    fn evict_frame(&self, slot: usize, frame: Arc<Frame>) -> StorageResult<()> {
        let dirty_copy = {
            let buf = frame.buf.read();
            buf.dirty.then(|| buf.data.clone())
        };
        if let Some(data) = dirty_copy {
            if let Err(e) = self.store.lock().write(frame.id, &data) {
                let mut m = self.meta.lock();
                m.entries[slot].evicting = false;
                m.push_tail(slot);
                m.len += 1;
                return Err(e);
            }
            frame.buf.write().dirty = false;
            self.stats.record_write();
            self.stats
                .record_page_event(frame.id, PageAccessKind::Write);
        }
        crate::trace_event!("buffer", "evict page {}", frame.id.0);
        self.shard(frame.id).map.lock().remove(&frame.id);
        self.shard(frame.id)
            .evictions
            .fetch_add(1, Ordering::Relaxed);
        self.stats.record_eviction();
        let mut m = self.meta.lock();
        m.free_slot(slot);
        Ok(())
    }

    /// Best-effort prefetch after a miss on `id`: reads hook-suggested
    /// pages into *free* frames (never evicting), inserted at the LRU
    /// tail so real misses reclaim them first. Caller holds the fault
    /// lock. Each successful read is counted (physical read + prefetch).
    fn prefetch_after_miss(&self, id: PageId) {
        let Some(hook) = self.prefetcher.lock().clone() else {
            return;
        };
        for pid in hook(id) {
            {
                let m = self.meta.lock();
                if m.len >= m.capacity {
                    break;
                }
            }
            if pid == id || self.is_resident(pid) || !self.store.lock().is_live(pid) {
                continue;
            }
            let mut data = vec![0u8; self.page_size].into_boxed_slice();
            match self.store.lock().read(pid, &mut data) {
                Ok(()) => {}
                Err(e) => {
                    if matches!(e, StorageError::ChecksumMismatch { .. }) {
                        self.stats.record_checksum_failure();
                    }
                    continue;
                }
            }
            self.stats.record_read();
            self.stats.record_prefetch();
            self.stats.record_page_event(pid, PageAccessKind::Prefetch);
            crate::trace_event!("buffer", "prefetch page {}", pid.0);
            self.install(pid, data, 0, false);
        }
    }

    /// True when `id` is resident (uncounted, no recency change).
    pub fn is_resident(&self, id: PageId) -> bool {
        self.shard(id).map.lock().contains_key(&id)
    }

    /// Ids of currently resident pages, most recently used first
    /// (uncounted, no recency change; diagnostics and tests).
    pub fn resident_pages(&self) -> Vec<PageId> {
        let m = self.meta.lock();
        let mut ids = Vec::with_capacity(m.len);
        let mut slot = m.head;
        while slot != NIL {
            if let Some(frame) = m.entries[slot].frame.as_ref() {
                ids.push(frame.id);
            }
            slot = m.entries[slot].next;
        }
        ids
    }

    /// Every resident frame, in ascending page order (for deterministic
    /// write-back). Caller holds the fault lock.
    fn resident_frames_sorted(&self) -> Vec<Arc<Frame>> {
        let m = self.meta.lock();
        let mut frames: Vec<Arc<Frame>> = Vec::with_capacity(m.len);
        let mut slot = m.head;
        while slot != NIL {
            if let Some(frame) = m.entries[slot].frame.as_ref() {
                frames.push(Arc::clone(frame));
            }
            slot = m.entries[slot].next;
        }
        drop(m);
        frames.sort_unstable_by_key(|f| f.id);
        frames
    }

    /// Writes back every dirty frame in ascending page-id order (frames
    /// stay resident and are marked clean). Stops at the first error —
    /// a `WalStore` beneath only commits on `sync()`, so a partial
    /// write-back is never made durable. Caller holds the fault lock.
    fn write_back_dirty(&self) -> StorageResult<()> {
        for frame in self.resident_frames_sorted() {
            let dirty_copy = {
                let buf = frame.buf.read();
                buf.dirty.then(|| buf.data.clone())
            };
            if let Some(data) = dirty_copy {
                self.store.lock().write(frame.id, &data)?;
                frame.buf.write().dirty = false;
                self.stats.record_write();
                self.stats
                    .record_page_event(frame.id, PageAccessKind::Write);
            }
        }
        Ok(())
    }

    /// Writes back every dirty frame (frames stay resident), then syncs
    /// the store — the commit point when the store is a `WalStore`.
    ///
    /// Dirty frames are written in ascending page order, not recency
    /// order, so the write-back sequence (and hence any write-ahead log
    /// batch built from it) is deterministic regardless of eviction
    /// history.
    pub fn flush_all(&self) -> StorageResult<()> {
        let _fault = self.fault.lock();
        self.write_back_dirty()?;
        self.store.lock().sync()?;
        self.stats.record_sync();
        Ok(())
    }

    /// Writes back and evicts every frame — the harness calls this before
    /// each measured operation so the operation starts cold, matching the
    /// paper's per-operation "average number of data page accesses".
    pub fn clear(&self) -> StorageResult<()> {
        let _fault = self.fault.lock();
        // Write-back first (ascending page order, for deterministic WAL
        // batches), then drop every frame.
        self.write_back_dirty()?;
        self.shrink_to(0)?;
        self.store.lock().sync()?;
        self.stats.record_sync();
        Ok(())
    }

    /// Read-only access to the underlying store (page geometry, live-page
    /// enumeration for CRR scans).
    pub fn with_store<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.store.lock())
    }

    /// Mutable access to the underlying store — the escape hatch abort
    /// and checkpoint paths use to drive a transactional store
    /// ([`PageStore::rollback`], [`PageStore::checkpoint`]) without going
    /// through the frame cache.
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.store.lock())
    }

    /// Drops every frame *without* writing dirty contents back — the
    /// abort path: in-flight (uncommitted) page mutations live only in
    /// dirty frames, so discarding them and rolling back the store
    /// returns the file to its last committed state.
    pub fn discard_frames(&self) {
        let _fault = self.fault.lock();
        for shard in self.shards.iter() {
            shard.map.lock().clear();
        }
        let mut m = self.meta.lock();
        m.entries.clear();
        m.free.clear();
        m.head = NIL;
        m.tail = NIL;
        m.len = 0;
    }

    /// Reads page `id`'s *current* contents into `buf` without counting
    /// an access or creating a frame: a resident frame (dirty or not) is
    /// served from memory, anything else straight from the store.
    ///
    /// This is what in-memory bookkeeping scans (the free-space map) use:
    /// they model state a real system would keep resident, so they must
    /// neither perturb the counted I/O statistics nor — crucially —
    /// force a `flush_all`, which on a `WalStore` is a *commit point* and
    /// would commit a half-finished multi-page operation.
    pub fn read_uncounted(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let resident = self.shard(id).map.lock().get(&id).cloned();
        if let Some(frame) = resident {
            buf.copy_from_slice(&frame.buf.read().data);
            return Ok(());
        }
        self.store.lock().read(id, buf)
    }

    /// Verifies shard-map ↔ LRU-list agreement, the capacity bound and
    /// slot back-pointers; returns a description of the first violation.
    /// A debugging and property-testing aid — the pool maintains these
    /// invariants through every allocate/free/fault/clear/shrink
    /// sequence.
    pub fn check_invariants(&self) -> Result<(), String> {
        let _fault = self.fault.lock();
        let m = self.meta.lock();
        if m.len > m.capacity {
            return Err(format!(
                "{} resident frames exceed capacity {}",
                m.len, m.capacity
            ));
        }
        // Walk the list, checking links and slot back-pointers.
        let mut listed = HashMap::new();
        let mut slot = m.head;
        let mut prev = NIL;
        while slot != NIL {
            let e = &m.entries[slot];
            if e.prev != prev {
                return Err(format!("slot {slot} prev link broken"));
            }
            let frame = match e.frame.as_ref() {
                Some(f) => f,
                None => return Err(format!("linked slot {slot} has no frame")),
            };
            if frame.slot.load(Ordering::Relaxed) != slot {
                return Err(format!(
                    "frame for page {} has stale slot back-pointer",
                    frame.id.0
                ));
            }
            if e.evicting {
                return Err(format!("linked slot {slot} marked evicting"));
            }
            if listed.insert(frame.id, slot).is_some() {
                return Err(format!("page {} linked twice", frame.id.0));
            }
            prev = slot;
            slot = e.next;
        }
        if prev != m.tail {
            return Err("tail does not terminate the list".into());
        }
        if listed.len() != m.len {
            return Err(format!(
                "list has {} entries but len says {}",
                listed.len(),
                m.len
            ));
        }
        // Shard maps must agree with the list exactly.
        let mut mapped = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let map = shard.map.lock();
            mapped += map.len();
            for (&id, frame) in map.iter() {
                if frame.id != id {
                    return Err(format!("shard {i} maps page {} to a wrong frame", id.0));
                }
                if id.0 as usize & (SHARD_COUNT - 1) != i {
                    return Err(format!("page {} hashed to the wrong shard {i}", id.0));
                }
                if !listed.contains_key(&id) {
                    return Err(format!("shard {i} holds unlisted page {}", id.0));
                }
            }
        }
        if mapped != m.len {
            return Err(format!(
                "shard maps hold {mapped} frames but the list holds {}",
                m.len
            ));
        }
        // Slab accounting: every entry is either linked or free.
        if m.len + m.free.len() != m.entries.len() {
            return Err(format!(
                "slab leak: {} linked + {} free != {} entries",
                m.len,
                m.free.len(),
                m.entries.len()
            ));
        }
        let store = self.store.lock();
        for &id in listed.keys() {
            if !store.is_live(id) {
                return Err(format!("resident page {} is dead in the store", id.0));
            }
        }
        Ok(())
    }
}

/// Dirty frames are written back when the pool drops, so a file-backed
/// database closed without an explicit flush still persists its data
/// (errors at drop time are necessarily swallowed — call
/// [`BufferPool::flush_all`] to observe them).
impl<S: PageStore> Drop for ShardedPool<S> {
    fn drop(&mut self) {
        let _ = self.write_back_dirty();
        let _ = self.store.lock().sync();
    }
}

/// The linear organization: one mutex around a flat frame vector, page
/// lookup by scan, recency by monotone tick, eviction by minimum-tick
/// scan. The shape of the pre-PR-5 pool — cache-resident and very fast
/// at small capacities — made thread-safe: closures still run *outside*
/// the state lock (pinned frames are never evicted), so nested page
/// accesses and concurrent readers remain correct, they just serialise
/// on the lookup.
struct LinearFrame {
    frame: Arc<Frame>,
    last_used: u64,
    pins: u32,
}

struct LinearState<S: PageStore> {
    frames: Vec<LinearFrame>,
    /// Monotone access clock; ticks give a total order of last use, so
    /// minimum-tick eviction is *exact* LRU.
    tick: u64,
    capacity: usize,
    store: S,
    counters: ShardCounters,
}

struct LinearPool<S: PageStore> {
    state: Mutex<LinearState<S>>,
    /// Signalled on unpin, for evictors that found every frame pinned.
    cv: Condvar,
    /// Evictors currently parked on `cv`; the release path skips the
    /// notify syscall entirely when nobody waits (the common case on the
    /// hit path this strategy exists to keep cheap).
    waiters: AtomicUsize,
    stats: Arc<IoStats>,
    page_size: usize,
    prefetcher: Mutex<Option<Prefetcher>>,
}

impl<S: PageStore> LinearPool<S> {
    fn new(store: S, capacity: usize) -> Self {
        let page_size = store.page_size();
        LinearPool {
            state: Mutex::new(LinearState {
                frames: Vec::with_capacity(capacity.min(1024)),
                tick: 0,
                capacity,
                store,
                counters: ShardCounters::default(),
            }),
            cv: Condvar::new(),
            waiters: AtomicUsize::new(0),
            stats: IoStats::new_shared(),
            page_size,
            prefetcher: Mutex::new(None),
        }
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Pins page `id` (faulting it in on a miss) and returns its frame.
    /// The miss path — store read, eviction, install — runs under the
    /// one state lock, with one exception: `evict_to` waits on the
    /// condvar (releasing the lock) when every frame is pinned. When
    /// that happens the install step re-checks residency (a concurrent
    /// miss on the same page may have installed it — pin that frame
    /// rather than admit a divergent duplicate) and re-reads the page
    /// (the pre-wait read is stale if the page was modified and written
    /// back while we slept).
    fn acquire(&self, id: PageId) -> StorageResult<Arc<Frame>> {
        let mut s = self.state.lock();
        if let Some(frame) = Self::pin_resident(&mut s, id) {
            drop(s);
            self.record_hit(id);
            return Ok(frame);
        }
        let tick = s.tick;
        if !s.store.is_live(id) {
            return Err(StorageError::InvalidPage(id));
        }
        // Fill before evicting, exactly like the sharded miss path: a
        // failed read must neither cache a frame nor cost a resident its
        // slot.
        let mut data = vec![0u8; self.page_size].into_boxed_slice();
        if let Err(e) = s.store.read(id, &mut data) {
            if matches!(e, StorageError::ChecksumMismatch { .. }) {
                self.stats.record_checksum_failure();
                crate::trace_event!("buffer", "checksum failure on page {}", id.0);
            }
            return Err(e);
        }
        let room = s.capacity - 1;
        if self.evict_to(&mut s, room)? {
            // The condvar wait released the state lock, so the world
            // may have moved: a concurrent miss on this same page may
            // have installed it (pin that frame — a second copy would
            // diverge and lose whichever writes back last), and our
            // speculative read may be stale if the page was modified
            // and written back while we slept. The lock is now held
            // continuously through install, so the re-read is current.
            if let Some(frame) = Self::pin_resident(&mut s, id) {
                drop(s);
                self.record_hit(id);
                return Ok(frame);
            }
            if !s.store.is_live(id) {
                return Err(StorageError::InvalidPage(id));
            }
            if let Err(e) = s.store.read(id, &mut data) {
                if matches!(e, StorageError::ChecksumMismatch { .. }) {
                    self.stats.record_checksum_failure();
                    crate::trace_event!("buffer", "checksum failure on page {}", id.0);
                }
                return Err(e);
            }
        }
        s.counters.misses += 1;
        self.stats.record_read();
        self.stats.record_page_event(id, PageAccessKind::Miss);
        let frame = Arc::new(Frame {
            id,
            slot: AtomicUsize::new(NIL),
            buf: RwLock::new(FrameBuf { data, dirty: false }),
        });
        s.frames.push(LinearFrame {
            frame: Arc::clone(&frame),
            last_used: tick,
            pins: 1,
        });
        self.prefetch_after_miss(&mut s, id);
        Ok(frame)
    }

    /// The hit path's work under the state lock: ticks the clock and,
    /// when `id` is resident, stamps and pins its frame and counts the
    /// hit in the pool's counters. The caller records the hit in the
    /// shared stats ([`Self::record_hit`]) after dropping the lock.
    fn pin_resident(s: &mut LinearState<S>, id: PageId) -> Option<Arc<Frame>> {
        s.tick += 1;
        let tick = s.tick;
        let lf = s.frames.iter_mut().find(|lf| lf.frame.id == id)?;
        lf.last_used = tick;
        lf.pins += 1;
        let frame = Arc::clone(&lf.frame);
        s.counters.hits += 1;
        Some(frame)
    }

    fn record_hit(&self, id: PageId) {
        self.stats.record_hit();
        self.stats.record_page_event(id, PageAccessKind::Hit);
    }

    fn release(&self, frame: &Arc<Frame>) {
        let mut s = self.state.lock();
        if let Some(lf) = s.frames.iter_mut().find(|lf| Arc::ptr_eq(&lf.frame, frame)) {
            lf.pins = lf.pins.saturating_sub(1);
        }
        drop(s);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.cv.notify_all();
        }
    }

    fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        let frame = self.acquire(id)?;
        let r = f(&frame.buf.read().data);
        self.release(&frame);
        Ok(r)
    }

    fn with_resident_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let frame = Self::pin_resident(&mut self.state.lock(), id)?;
        self.record_hit(id);
        let r = f(&frame.buf.read().data);
        self.release(&frame);
        Some(r)
    }

    fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> StorageResult<R> {
        let frame = self.acquire(id)?;
        let r = {
            let mut buf = frame.buf.write();
            buf.dirty = true;
            f(&mut buf.data)
        };
        self.release(&frame);
        Ok(r)
    }

    /// Evicts minimum-tick unpinned frames (writing dirty ones back)
    /// until at most `target` remain. Waits on the condvar when every
    /// frame is pinned. A failed write-back reinstates the victim (its
    /// tick keeps its recency) and propagates the error. Returns
    /// whether the condvar wait ran — i.e. whether the state lock was
    /// released at any point, obliging the caller to revalidate what it
    /// observed before the call.
    fn evict_to(
        &self,
        s: &mut parking_lot::MutexGuard<'_, LinearState<S>>,
        target: usize,
    ) -> StorageResult<bool> {
        let mut waited = false;
        loop {
            if s.frames.len() <= target {
                return Ok(waited);
            }
            let victim = s
                .frames
                .iter()
                .enumerate()
                .filter(|(_, lf)| lf.pins == 0)
                .min_by_key(|(_, lf)| lf.last_used)
                .map(|(i, _)| i);
            let Some(i) = victim else {
                self.waiters.fetch_add(1, Ordering::Relaxed);
                self.cv.wait(s);
                self.waiters.fetch_sub(1, Ordering::Relaxed);
                waited = true;
                continue;
            };
            let lf = s.frames.swap_remove(i);
            let dirty_copy = {
                let buf = lf.frame.buf.read();
                buf.dirty.then(|| buf.data.clone())
            };
            if let Some(data) = dirty_copy {
                if let Err(e) = s.store.write(lf.frame.id, &data) {
                    s.frames.push(lf);
                    return Err(e);
                }
                lf.frame.buf.write().dirty = false;
                self.stats.record_write();
                self.stats
                    .record_page_event(lf.frame.id, PageAccessKind::Write);
            }
            crate::trace_event!("buffer", "evict page {}", lf.frame.id.0);
            s.counters.evictions += 1;
            self.stats.record_eviction();
        }
    }

    /// Best-effort prefetch after a miss on `id` into *free* frames only,
    /// counted exactly like the sharded pool's. Prefetched frames enter
    /// with tick 0 — older than every real access, so real misses
    /// reclaim them first.
    fn prefetch_after_miss(&self, s: &mut parking_lot::MutexGuard<'_, LinearState<S>>, id: PageId) {
        let Some(hook) = self.prefetcher.lock().clone() else {
            return;
        };
        for pid in hook(id) {
            if s.frames.len() >= s.capacity {
                break;
            }
            if pid == id || s.frames.iter().any(|lf| lf.frame.id == pid) || !s.store.is_live(pid) {
                continue;
            }
            let mut data = vec![0u8; self.page_size].into_boxed_slice();
            match s.store.read(pid, &mut data) {
                Ok(()) => {}
                Err(e) => {
                    if matches!(e, StorageError::ChecksumMismatch { .. }) {
                        self.stats.record_checksum_failure();
                    }
                    continue;
                }
            }
            self.stats.record_read();
            self.stats.record_prefetch();
            self.stats.record_page_event(pid, PageAccessKind::Prefetch);
            crate::trace_event!("buffer", "prefetch page {}", pid.0);
            s.frames.push(LinearFrame {
                frame: Arc::new(Frame {
                    id: pid,
                    slot: AtomicUsize::new(NIL),
                    buf: RwLock::new(FrameBuf { data, dirty: false }),
                }),
                last_used: 0,
                pins: 0,
            });
        }
    }

    fn allocate(&self) -> StorageResult<PageId> {
        let id = self.state.lock().store.allocate()?;
        self.stats.record_alloc();
        Ok(id)
    }

    fn free(&self, id: PageId) -> StorageResult<()> {
        let mut s = self.state.lock();
        // Free in the store first: a failed free keeps the buffered copy.
        s.store.free(id)?;
        s.frames.retain(|lf| lf.frame.id != id);
        self.stats.record_free();
        Ok(())
    }

    fn set_capacity(&self, capacity: usize) -> StorageResult<()> {
        assert!(capacity >= 1);
        let mut s = self.state.lock();
        // Error-atomic: adopt the new budget only once the surplus is
        // actually evicted.
        self.evict_to(&mut s, capacity)?;
        s.capacity = capacity;
        Ok(())
    }

    fn capacity(&self) -> usize {
        self.state.lock().capacity
    }

    fn is_resident(&self, id: PageId) -> bool {
        self.state.lock().frames.iter().any(|lf| lf.frame.id == id)
    }

    fn resident_pages(&self) -> Vec<PageId> {
        let s = self.state.lock();
        let mut order: Vec<(u64, PageId)> = s
            .frames
            .iter()
            .map(|lf| (lf.last_used, lf.frame.id))
            .collect();
        // MRU-first; the stable sort keeps tick-0 prefetched frames in
        // insertion order, matching the sharded pool's tail placement.
        order.sort_by_key(|&(tick, _)| std::cmp::Reverse(tick));
        order.into_iter().map(|(_, id)| id).collect()
    }

    /// Writes back every dirty frame in ascending page order (frames stay
    /// resident and are marked clean), stopping at the first error.
    fn write_back_dirty(
        &self,
        s: &mut parking_lot::MutexGuard<'_, LinearState<S>>,
    ) -> StorageResult<()> {
        let mut frames: Vec<Arc<Frame>> = s.frames.iter().map(|lf| Arc::clone(&lf.frame)).collect();
        frames.sort_unstable_by_key(|f| f.id);
        for frame in frames {
            let dirty_copy = {
                let buf = frame.buf.read();
                buf.dirty.then(|| buf.data.clone())
            };
            if let Some(data) = dirty_copy {
                s.store.write(frame.id, &data)?;
                frame.buf.write().dirty = false;
                self.stats.record_write();
                self.stats
                    .record_page_event(frame.id, PageAccessKind::Write);
            }
        }
        Ok(())
    }

    fn flush_all(&self) -> StorageResult<()> {
        let mut s = self.state.lock();
        self.write_back_dirty(&mut s)?;
        s.store.sync()?;
        self.stats.record_sync();
        Ok(())
    }

    fn clear(&self) -> StorageResult<()> {
        let mut s = self.state.lock();
        self.write_back_dirty(&mut s)?;
        self.evict_to(&mut s, 0)?;
        s.store.sync()?;
        self.stats.record_sync();
        Ok(())
    }

    fn with_store<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.state.lock().store)
    }

    fn with_store_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.state.lock().store)
    }

    fn discard_frames(&self) {
        self.state.lock().frames.clear();
    }

    fn read_uncounted(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let s = self.state.lock();
        if let Some(lf) = s.frames.iter().find(|lf| lf.frame.id == id) {
            buf.copy_from_slice(&lf.frame.buf.read().data);
            return Ok(());
        }
        s.store.read(id, buf)
    }

    fn shard_counters(&self) -> Vec<ShardCounters> {
        vec![self.state.lock().counters]
    }

    fn set_prefetcher(&self, hook: Option<Prefetcher>) {
        *self.prefetcher.lock() = hook;
    }

    fn check_invariants(&self) -> Result<(), String> {
        let s = self.state.lock();
        if s.frames.len() > s.capacity {
            return Err(format!(
                "{} resident frames exceed capacity {}",
                s.frames.len(),
                s.capacity
            ));
        }
        let mut seen = HashMap::new();
        for lf in &s.frames {
            if seen.insert(lf.frame.id, ()).is_some() {
                return Err(format!("page {} resident twice", lf.frame.id.0));
            }
            if !s.store.is_live(lf.frame.id) {
                return Err(format!(
                    "resident page {} is dead in the store",
                    lf.frame.id.0
                ));
            }
        }
        Ok(())
    }
}

impl<S: PageStore> Drop for LinearPool<S> {
    fn drop(&mut self) {
        let mut s = self.state.lock();
        let _ = self.write_back_dirty(&mut s);
        let _ = s.store.sync();
    }
}

/// Which internal organization a [`BufferPool`] uses; see the module
/// docs for the trade-off. Fixed at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolStrategy {
    /// One mutex, flat frame vector, tick-based exact LRU. Fastest at
    /// small capacities (the scan stays cache-resident).
    Linear,
    /// Sharded page table + intrusive LRU list: O(1) hits and evictions,
    /// concurrent hits on different pages.
    Sharded,
}

/// Largest capacity at which [`BufferPool::new`] picks
/// [`PoolStrategy::Linear`]. Chosen from the BENCH_PR5 regimes: at 256
/// frames the linear scan was ~6x faster hit-heavy, at 4096 the sharded
/// structure was 1.4–4.4x faster.
pub const LINEAR_CAPACITY_MAX: usize = 256;

enum Inner<S: PageStore> {
    Linear(LinearPool<S>),
    Sharded(ShardedPool<S>),
}

/// An LRU buffer pool over a [`PageStore`] with counted page accesses.
///
/// Internally one of two organizations with identical semantics (see the
/// module docs); [`BufferPool::new`] picks by capacity,
/// [`BufferPool::with_strategy`] forces one (property tests pin both to
/// the same LRU model).
pub struct BufferPool<S: PageStore> {
    inner: Inner<S>,
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $e:expr) => {
        match &$self.inner {
            Inner::Linear($p) => $e,
            Inner::Sharded($p) => $e,
        }
    };
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps `store` with a pool of `capacity` frames (≥ 1), choosing
    /// the strategy by capacity: linear at or below
    /// [`LINEAR_CAPACITY_MAX`], sharded above.
    pub fn new(store: S, capacity: usize) -> Self {
        let strategy = if capacity <= LINEAR_CAPACITY_MAX {
            PoolStrategy::Linear
        } else {
            PoolStrategy::Sharded
        };
        Self::with_strategy(store, capacity, strategy)
    }

    /// Wraps `store` with a pool of `capacity` frames using an explicit
    /// strategy, regardless of capacity.
    pub fn with_strategy(store: S, capacity: usize, strategy: PoolStrategy) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let inner = match strategy {
            PoolStrategy::Linear => Inner::Linear(LinearPool::new(store, capacity)),
            PoolStrategy::Sharded => Inner::Sharded(ShardedPool::new(store, capacity)),
        };
        BufferPool { inner }
    }

    /// The organization this pool was constructed with.
    pub fn strategy(&self) -> PoolStrategy {
        match &self.inner {
            Inner::Linear(_) => PoolStrategy::Linear,
            Inner::Sharded(_) => PoolStrategy::Sharded,
        }
    }

    /// Shared I/O counters (bumped by this pool).
    pub fn stats(&self) -> Arc<IoStats> {
        dispatch!(self, p => p.stats())
    }

    /// Page size of the underlying store.
    pub fn page_size(&self) -> usize {
        dispatch!(self, p => p.page_size)
    }

    /// Number of page-table shards (1 for the linear strategy).
    pub fn shard_count(&self) -> usize {
        match &self.inner {
            Inner::Linear(_) => 1,
            Inner::Sharded(p) => p.shards.len(),
        }
    }

    /// Per-shard hit/miss/eviction counters, indexed by shard (a single
    /// entry for the linear strategy).
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        dispatch!(self, p => p.shard_counters())
    }

    /// Installs (or with `None` removes) the connectivity-aware prefetch
    /// hook. Off by default; see the module docs for the counting rules.
    pub fn set_prefetcher(&self, hook: Option<Prefetcher>) {
        dispatch!(self, p => p.set_prefetcher(hook))
    }

    /// Changes the frame budget, evicting (and writing back) surplus
    /// frames immediately; error-atomic on the capacity. The strategy
    /// does not change — it is fixed at construction.
    pub fn set_capacity(&self, capacity: usize) -> StorageResult<()> {
        dispatch!(self, p => p.set_capacity(capacity))
    }

    /// Current frame budget.
    pub fn capacity(&self) -> usize {
        dispatch!(self, p => p.capacity())
    }

    /// Allocates a fresh page in the store (counted in the stats but not
    /// faulted into the pool).
    pub fn allocate(&self) -> StorageResult<PageId> {
        dispatch!(self, p => p.allocate())
    }

    /// Frees `id`, dropping any buffered copy.
    pub fn free(&self, id: PageId) -> StorageResult<()> {
        dispatch!(self, p => p.free(id))
    }

    /// Runs `f` over the (read-only) contents of page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        dispatch!(self, p => p.with_page(id, f))
    }

    /// Runs `f` over the mutable contents of page `id`, marking it dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> StorageResult<R> {
        dispatch!(self, p => p.with_page_mut(id, f))
    }

    /// Runs `f` over page `id` only if it is resident — the buffer-first
    /// probe of `Get-A-successor()` ("the buffered data-page should be
    /// searched first", §2.3). A resident page costs exactly one counted
    /// hit and moves to MRU, as [`Self::with_page`] would; a non-resident
    /// page returns `None` having counted nothing and changed no recency.
    /// Residency is decided and the frame pinned in one step, so a
    /// concurrent eviction can never turn the probe into a fault.
    pub fn with_resident_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        dispatch!(self, p => p.with_resident_page(id, f))
    }

    /// True when `id` is resident. Uncounted and recency-neutral; a
    /// caller that goes on to read the page uses
    /// [`Self::with_resident_page`] instead, which cannot race an
    /// eviction in between.
    pub fn is_resident(&self, id: PageId) -> bool {
        dispatch!(self, p => p.is_resident(id))
    }

    /// Ids of currently resident pages, most recently used first.
    /// Uncounted and recency-neutral: a diagnostic and test aid (the
    /// LRU-model property tests compare it with their model). No access
    /// path scans it to resolve a record.
    pub fn resident_pages(&self) -> Vec<PageId> {
        dispatch!(self, p => p.resident_pages())
    }

    /// Writes back every dirty frame (frames stay resident), then syncs
    /// the store — the commit point when the store is a `WalStore`.
    pub fn flush_all(&self) -> StorageResult<()> {
        dispatch!(self, p => p.flush_all())
    }

    /// Writes back and evicts every frame.
    pub fn clear(&self) -> StorageResult<()> {
        dispatch!(self, p => p.clear())
    }

    /// Read-only access to the underlying store.
    pub fn with_store<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        dispatch!(self, p => p.with_store(f))
    }

    /// Mutable access to the underlying store — the escape hatch abort
    /// and checkpoint paths use to drive a transactional store.
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        dispatch!(self, p => p.with_store_mut(f))
    }

    /// Drops every frame *without* writing dirty contents back — the
    /// abort path.
    pub fn discard_frames(&self) {
        dispatch!(self, p => p.discard_frames())
    }

    /// Reads page `id`'s *current* contents into `buf` without counting
    /// an access or creating a frame.
    pub fn read_uncounted(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        dispatch!(self, p => p.read_uncounted(id, buf))
    }

    /// Flushes dirty frames and syncs the store (alias of
    /// [`Self::flush_all`] for API clarity at shutdown).
    pub fn flush(&self) -> StorageResult<()> {
        self.flush_all()
    }

    /// Verifies the pool's internal invariants; returns a description of
    /// the first violation. A debugging and property-testing aid.
    pub fn check_invariants(&self) -> Result<(), String> {
        dispatch!(self, p => p.check_invariants())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;

    /// The sharded strategy, forced: these tests predate the strategy
    /// split and pin the sharded structure's behaviour at small
    /// capacities (where `new` would now pick linear).
    fn pool(cap: usize) -> BufferPool<MemPageStore> {
        BufferPool::with_strategy(MemPageStore::new(128).unwrap(), cap, PoolStrategy::Sharded)
    }

    fn linear_pool(cap: usize) -> BufferPool<MemPageStore> {
        BufferPool::with_strategy(MemPageStore::new(128).unwrap(), cap, PoolStrategy::Linear)
    }

    #[test]
    fn read_after_write_through_pool() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(0x5a)).unwrap();
        let all = p
            .with_page(a, |buf| buf.iter().all(|&x| x == 0x5a))
            .unwrap();
        assert!(all);
    }

    #[test]
    fn hits_and_misses_counted() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page(a, |_| ()).unwrap(); // miss
        p.with_page(a, |_| ()).unwrap(); // hit
        p.with_page(b, |_| ()).unwrap(); // miss
        let s = p.stats().snapshot();
        assert_eq!(s.physical_reads, 2);
        assert_eq!(s.buffer_hits, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        p.with_page(a, |_| ()).unwrap();
        p.with_page(b, |_| ()).unwrap();
        p.with_page(a, |_| ()).unwrap(); // a is now MRU
        p.with_page(c, |_| ()).unwrap(); // evicts b
        assert!(p.is_resident(a));
        assert!(!p.is_resident(b));
        assert!(p.is_resident(c));
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let p = pool(1);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(7)).unwrap();
        p.with_page(b, |_| ()).unwrap(); // evicts dirty a
        assert_eq!(p.stats().snapshot().physical_writes, 1);
        // Re-reading a shows the persisted bytes.
        let ok = p.with_page(a, |buf| buf.iter().all(|&x| x == 7)).unwrap();
        assert!(ok);
    }

    #[test]
    fn clear_makes_next_access_cold() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(9)).unwrap();
        p.clear().unwrap();
        assert!(!p.is_resident(a));
        let before = p.stats().snapshot();
        p.with_page(a, |_| ()).unwrap();
        let delta = p.stats().snapshot().since(&before);
        assert_eq!(delta.physical_reads, 1);
    }

    #[test]
    fn resident_pages_ordered_mru_first() {
        let p = pool(3);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        p.with_page(a, |_| ()).unwrap();
        p.with_page(b, |_| ()).unwrap();
        p.with_page(c, |_| ()).unwrap();
        p.with_page(a, |_| ()).unwrap();
        assert_eq!(p.resident_pages(), vec![a, c, b]);
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let p = pool(3);
        let ids: Vec<_> = (0..3).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.with_page_mut(id, |buf| buf.fill(1)).unwrap();
        }
        p.set_capacity(1).unwrap();
        assert_eq!(p.resident_pages().len(), 1);
        // Dirty evictees must have been written back.
        assert!(p.stats().snapshot().physical_writes >= 2);
        for &id in &ids {
            let ok = p.with_page(id, |buf| buf.iter().all(|&x| x == 1)).unwrap();
            assert!(ok);
        }
    }

    /// Two threads missing on the same page while every frame is pinned
    /// both park in `evict_to`; the wait releases the state lock, so the
    /// loser must dedup against (or re-read after) the winner's install
    /// instead of admitting a stale duplicate frame — either failure
    /// loses one of the increments below.
    #[test]
    fn linear_concurrent_misses_on_same_page_lose_no_updates() {
        use std::sync::mpsc;
        use std::time::Duration;
        let p = linear_pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let t = p.allocate().unwrap();
        p.clear().unwrap();
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (rel_a_tx, rel_a_rx) = mpsc::channel::<()>();
        let (rel_b_tx, rel_b_rx) = mpsc::channel::<()>();
        std::thread::scope(|sc| {
            let p = &p;
            let pa_tx = pinned_tx.clone();
            sc.spawn(move || {
                p.with_page(a, move |_| {
                    pa_tx.send(()).unwrap();
                    let _ = rel_a_rx.recv();
                })
                .unwrap();
            });
            sc.spawn(move || {
                p.with_page(b, move |_| {
                    pinned_tx.send(()).unwrap();
                    let _ = rel_b_rx.recv();
                })
                .unwrap();
            });
            pinned_rx.recv().unwrap();
            pinned_rx.recv().unwrap();
            // Both capacity-2 frames are now pinned: the misses below
            // cannot find a victim until `a` is released.
            let missers: Vec<_> = (0..2)
                .map(|_| sc.spawn(move || p.with_page_mut(t, |buf| buf[0] += 1).unwrap()))
                .collect();
            std::thread::sleep(Duration::from_millis(100));
            rel_a_tx.send(()).unwrap();
            for m in missers {
                m.join().unwrap();
            }
            rel_b_tx.send(()).unwrap();
        });
        assert_eq!(p.resident_pages().iter().filter(|&&id| id == t).count(), 1);
        let v = p.with_page(t, |buf| buf[0]).unwrap();
        assert_eq!(v, 2);
    }

    #[test]
    fn freeing_resident_page_drops_frame() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        p.with_page(a, |_| ()).unwrap();
        p.free(a).unwrap();
        assert!(!p.is_resident(a));
        assert!(p.with_page(a, |_| ()).is_err());
    }

    #[test]
    fn drop_flushes_dirty_frames() {
        // A shared store observed after the pool drops: dirty frames must
        // have been written back by Drop.
        use crate::testing::FaultStore;
        let (store, ctl) = FaultStore::new(MemPageStore::new(128).unwrap(), 0);
        let p = BufferPool::new(store, 2);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(3)).unwrap();
        assert_eq!(ctl.ops().writes, 0);
        drop(p);
        assert_eq!(ctl.ops().writes, 1);
    }

    #[test]
    fn failed_fill_is_never_left_cached_as_valid() {
        use crate::testing::FaultStore;
        let (store, switch) = FaultStore::new(MemPageStore::new(128).unwrap(), 0);
        let p = BufferPool::new(store, 4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(0x42)).unwrap();
        p.clear().unwrap();
        // The fill read fails: no frame may be created for the page.
        switch.fail_after(0);
        assert!(p.with_page(a, |_| ()).is_err());
        assert!(!p.is_resident(a), "failed fill left a frame cached");
        // Nothing dirty was fabricated either: clearing writes nothing.
        switch.stop_failing();
        let before = p.stats().snapshot();
        p.clear().unwrap();
        assert_eq!(p.stats().snapshot().since(&before).physical_writes, 0);
        // And a healthy retry reads the real contents, not zeroes.
        let ok = p
            .with_page(a, |buf| buf.iter().all(|&x| x == 0x42))
            .unwrap();
        assert!(ok);
    }

    #[test]
    fn checksum_mismatch_on_fill_is_counted_and_not_cached() {
        use crate::testing::FaultStore;
        let (store, ctl) = FaultStore::new(MemPageStore::new(128).unwrap(), 5);
        let p = BufferPool::new(store, 4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(9)).unwrap();
        p.clear().unwrap();
        ctl.mark_corrupt(a);
        assert!(matches!(
            p.with_page(a, |_| ()),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert!(!p.is_resident(a));
        assert_eq!(p.stats().snapshot().checksum_failures, 1);
    }

    #[test]
    fn failed_store_free_keeps_the_buffered_copy() {
        use crate::testing::FaultStore;
        let (store, switch) = FaultStore::new(MemPageStore::new(128).unwrap(), 0);
        let p = BufferPool::new(store, 4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(6)).unwrap();
        switch.fail_after(0);
        assert!(p.free(a).is_err());
        switch.stop_failing();
        // The dirty frame survived the failed free and still flushes.
        assert!(p.is_resident(a));
        let ok = p.with_page(a, |buf| buf.iter().all(|&x| x == 6)).unwrap();
        assert!(ok);
        p.free(a).unwrap();
        assert!(!p.is_resident(a));
    }

    /// Regression: `fault_in` used to evict the LRU victim (dirty
    /// write-back included) *before* attempting the replacement read, so
    /// a failed read still cost residents their frames. The read must
    /// come first.
    #[test]
    fn failed_fill_leaves_prior_residents_buffered() {
        use crate::testing::FaultStore;
        let (store, ctl) = FaultStore::new(MemPageStore::new(128).unwrap(), 5);
        let p = BufferPool::new(store, 2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        // Fill the pool: a and b resident, a dirty.
        p.with_page_mut(a, |buf| buf.fill(1)).unwrap();
        p.with_page(b, |_| ()).unwrap();
        let writes_before = p.stats().snapshot().physical_writes;
        // A checksum-failing fault-in of c must not evict anyone.
        ctl.mark_corrupt(c);
        assert!(matches!(
            p.with_page(c, |_| ()),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert!(
            p.is_resident(a),
            "resident a lost its frame to a failed read"
        );
        assert!(
            p.is_resident(b),
            "resident b lost its frame to a failed read"
        );
        assert_eq!(
            p.stats().snapshot().physical_writes,
            writes_before,
            "no dirty write-back may be paid for a read that failed"
        );
        p.check_invariants().unwrap();
        // Once the page heals, the fault-in proceeds and evicts normally.
        ctl.clear_corrupt(c);
        p.with_page(c, |_| ()).unwrap();
        assert!(p.is_resident(c));
        p.check_invariants().unwrap();
    }

    /// Regression: a failed eviction write-back mid-shrink used to leave
    /// the pool claiming the new (smaller) capacity while holding more
    /// resident frames than that. The old capacity must survive the
    /// error.
    #[test]
    fn failed_shrink_restores_capacity() {
        use crate::testing::FaultStore;
        let (store, ctl) = FaultStore::new(MemPageStore::new(128).unwrap(), 5);
        let p = BufferPool::new(store, 3);
        let ids: Vec<_> = (0..3).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.with_page_mut(id, |buf| buf.fill(2)).unwrap();
        }
        // Every store op fails: the first dirty write-back aborts the
        // shrink.
        ctl.set_glitch_rate(1024, 1);
        assert!(p.set_capacity(1).is_err());
        ctl.set_glitch_rate(0, 1);
        assert_eq!(p.capacity(), 3, "failed shrink must keep the old capacity");
        assert!(
            p.resident_pages().len() <= p.capacity(),
            "pool claims fewer frames than it holds"
        );
        p.check_invariants().unwrap();
        // The shrink succeeds once the store recovers, with no data loss.
        p.set_capacity(1).unwrap();
        assert_eq!(p.capacity(), 1);
        p.check_invariants().unwrap();
        for &id in &ids {
            let ok = p.with_page(id, |buf| buf.iter().all(|&x| x == 2)).unwrap();
            assert!(ok);
        }
    }

    #[test]
    fn page_events_attributed_to_open_span() {
        use crate::metrics::PageAccessKind;
        let p = pool(1);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(1)).unwrap();
        let stats = p.stats();
        stats.set_profiling(true);
        {
            let _span = p.stats().span("op");
            p.with_page(b, |_| ()).unwrap(); // evicts dirty a (write), misses b
            p.with_page(b, |_| ()).unwrap(); // hit
        }
        let profiles = stats.take_profiles();
        assert_eq!(profiles.len(), 1);
        let kinds: Vec<PageAccessKind> = profiles[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PageAccessKind::Write,
                PageAccessKind::Miss,
                PageAccessKind::Hit
            ]
        );
        assert_eq!(profiles[0].events[0].page, a);
        assert_eq!(profiles[0].events[1].page, b);
        assert_eq!(profiles[0].data_page_accesses(), 1);
    }

    #[test]
    fn read_uncounted_sees_dirty_frames_without_stats_or_frames() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(7)).unwrap(); // dirty, resident
        p.with_page_mut(b, |buf| buf.fill(8)).unwrap();
        p.clear().unwrap();
        p.with_page_mut(a, |buf| buf.fill(9)).unwrap(); // dirty again
        let before = p.stats().snapshot();
        let mut buf = vec![0u8; 128];
        // Resident dirty frame: latest bytes, no count.
        p.read_uncounted(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 9));
        // Non-resident page: store bytes, no frame created.
        p.read_uncounted(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 8));
        assert!(!p.is_resident(b));
        let delta = p.stats().snapshot().since(&before);
        assert_eq!(delta.physical_reads, 0);
        assert_eq!(delta.buffer_hits, 0);
    }

    #[test]
    fn discard_frames_drops_dirty_state() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(1)).unwrap();
        p.flush_all().unwrap();
        p.with_page_mut(a, |buf| buf.fill(2)).unwrap(); // uncommitted
        p.discard_frames();
        assert!(!p.is_resident(a));
        p.check_invariants().unwrap();
        // The committed bytes survive; the discarded mutation is gone.
        let ok = p.with_page(a, |buf| buf.iter().all(|&x| x == 1)).unwrap();
        assert!(ok);
    }

    #[test]
    fn access_to_never_allocated_page_errors() {
        let p = pool(2);
        assert!(matches!(
            p.with_page(PageId(42), |_| ()),
            Err(StorageError::InvalidPage(_))
        ));
    }

    #[test]
    fn evictions_counted() {
        let p = pool(2);
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap();
        }
        // 4 faults through 2 frames: 2 evictions.
        assert_eq!(p.stats().snapshot().evictions, 2);
        let by_shard: u64 = p.shard_counters().iter().map(|s| s.evictions).sum();
        assert_eq!(by_shard, 2);
    }

    #[test]
    fn shard_counters_sum_to_global_counters() {
        let p = pool(3);
        let ids: Vec<_> = (0..6).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap(); // 6 misses
        }
        for &id in ids.iter().rev().take(3) {
            p.with_page(id, |_| ()).unwrap(); // 3 hits on the resident tail
        }
        let s = p.stats().snapshot();
        let shards = p.shard_counters();
        assert_eq!(shards.len(), p.shard_count());
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), s.buffer_hits);
        assert_eq!(
            shards.iter().map(|s| s.misses).sum::<u64>(),
            s.physical_reads
        );
        assert_eq!(shards.iter().map(|s| s.evictions).sum::<u64>(), s.evictions);
    }

    /// The LRU list stays exact through a long mixed workload (the
    /// intrusive-list rewrite must preserve recency semantics bit for
    /// bit).
    #[test]
    fn lru_order_exact_through_mixed_workload() {
        // Both strategies must preserve recency semantics bit for bit.
        for p in [pool(4), linear_pool(4)] {
            let ids: Vec<_> = (0..8).map(|_| p.allocate().unwrap()).collect();
            // Model: most-recent-first vector.
            let mut model: Vec<PageId> = Vec::new();
            let accesses = [0usize, 1, 2, 3, 0, 4, 2, 5, 6, 1, 7, 3, 3, 0, 6, 2];
            for &i in &accesses {
                let id = ids[i];
                p.with_page(id, |_| ()).unwrap();
                model.retain(|&x| x != id);
                model.insert(0, id);
                model.truncate(4);
                assert_eq!(p.resident_pages(), model, "after access to {}", id.0);
                p.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn strategy_picked_by_capacity() {
        let auto_small = BufferPool::new(MemPageStore::new(128).unwrap(), LINEAR_CAPACITY_MAX);
        assert_eq!(auto_small.strategy(), PoolStrategy::Linear);
        let auto_large = BufferPool::new(MemPageStore::new(128).unwrap(), LINEAR_CAPACITY_MAX + 1);
        assert_eq!(auto_large.strategy(), PoolStrategy::Sharded);
        assert_eq!(auto_small.shard_count(), 1);
        assert_eq!(auto_large.shard_count(), SHARD_COUNT);
    }

    #[test]
    fn linear_read_after_write_and_eviction_write_back() {
        let p = linear_pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(7)).unwrap();
        // Touch b and c: a (LRU-most, dirty) is evicted and written back.
        p.with_page(b, |_| ()).unwrap();
        p.with_page(c, |_| ()).unwrap();
        assert!(!p.is_resident(a));
        let ok = p.with_page(a, |buf| buf.iter().all(|&x| x == 7)).unwrap();
        assert!(ok, "dirty page lost its bytes across eviction");
        let s = p.stats().snapshot();
        assert!(s.physical_writes >= 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn linear_counters_sum_like_sharded() {
        let p = linear_pool(3);
        let ids: Vec<_> = (0..6).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap(); // 6 misses
        }
        for &id in ids.iter().rev().take(3) {
            p.with_page(id, |_| ()).unwrap(); // 3 hits on the resident tail
        }
        let s = p.stats().snapshot();
        let shards = p.shard_counters();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].hits, s.buffer_hits);
        assert_eq!(shards[0].misses, s.physical_reads);
        assert_eq!(shards[0].evictions, s.evictions);
    }

    #[test]
    fn linear_failed_fill_is_never_left_cached_as_valid() {
        use crate::testing::FaultStore;
        let (store, ctl) = FaultStore::new(MemPageStore::new(128).unwrap(), 7);
        let p = BufferPool::with_strategy(store, 2, PoolStrategy::Linear);
        let a = p.allocate().unwrap();
        ctl.mark_corrupt(a);
        assert!(p.with_page(a, |_| ()).is_err());
        assert!(!p.is_resident(a), "failed fill must not cache a frame");
        ctl.clear_corrupt(a);
        p.with_page(a, |_| ()).unwrap();
        p.check_invariants().unwrap();
    }

    #[test]
    fn linear_failed_shrink_restores_capacity() {
        use crate::testing::FaultStore;
        let (store, ctl) = FaultStore::new(MemPageStore::new(128).unwrap(), 7);
        let p = BufferPool::with_strategy(store, 2, PoolStrategy::Linear);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(1)).unwrap();
        p.with_page_mut(b, |buf| buf.fill(2)).unwrap();
        // Every write-back fails: the shrink must fail and leave the old
        // capacity (and both dirty frames) in place.
        ctl.set_glitch_rate(1024, u64::MAX);
        assert!(p.set_capacity(1).is_err());
        assert_eq!(p.capacity(), 2);
        ctl.set_glitch_rate(0, 1);
        p.set_capacity(1).unwrap();
        assert_eq!(p.capacity(), 1);
        assert_eq!(p.resident_pages().len(), 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn linear_read_uncounted_sees_dirty_frames_without_stats() {
        let p = linear_pool(2);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(9)).unwrap();
        let before = p.stats().snapshot();
        let mut buf = vec![0u8; 128];
        p.read_uncounted(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 9));
        let after = p.stats().snapshot();
        assert_eq!(before.physical_reads, after.physical_reads);
        assert_eq!(before.buffer_hits, after.buffer_hits);
    }

    #[test]
    fn linear_discard_frames_drops_dirty_state() {
        let p = linear_pool(2);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf.fill(3)).unwrap();
        p.discard_frames();
        // The dirty bytes never reached the store.
        let clean = p.with_page(a, |buf| buf.iter().all(|&x| x == 0)).unwrap();
        assert!(clean, "discarded dirty frame leaked to the store");
        p.check_invariants().unwrap();
    }

    #[test]
    fn linear_concurrent_hits_agree() {
        let p = std::sync::Arc::new(linear_pool(8));
        let ids: Vec<_> = (0..8).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |buf| buf.fill(i as u8)).unwrap();
        }
        std::thread::scope(|sc| {
            for t in 0..4usize {
                let p = std::sync::Arc::clone(&p);
                let ids = ids.clone();
                sc.spawn(move || {
                    for round in 0..200 {
                        let i = (t * 3 + round) % ids.len();
                        let ok = p
                            .with_page(ids[i], |buf| buf.iter().all(|&x| x == i as u8))
                            .unwrap();
                        assert!(ok);
                    }
                });
            }
        });
        p.check_invariants().unwrap();
    }

    #[test]
    fn prefetch_off_by_default_counts_nothing() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        let _b = p.allocate().unwrap();
        p.with_page(a, |_| ()).unwrap();
        let s = p.stats().snapshot();
        assert_eq!(s.prefetch_issued, 0);
        assert_eq!(s.physical_reads, 1);
    }

    #[test]
    fn prefetch_fills_free_frames_and_counts_honestly() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        p.with_page_mut(b, |buf| buf.fill(0xbb)).unwrap();
        p.with_page_mut(c, |buf| buf.fill(0xcc)).unwrap();
        p.clear().unwrap();
        let before = p.stats().snapshot();
        p.set_prefetcher(Some(Arc::new(move |faulted: PageId| {
            if faulted == a {
                vec![b, c]
            } else {
                vec![]
            }
        })));
        p.with_page(a, |_| ()).unwrap();
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.prefetch_issued, 2);
        assert_eq!(d.physical_reads, 3, "prefetch reads are counted reads");
        assert!(p.is_resident(b) && p.is_resident(c));
        p.check_invariants().unwrap();
        // The prefetched pages now hit without further physical reads.
        let mid = p.stats().snapshot();
        let ok = p
            .with_page(b, |buf| buf.iter().all(|&x| x == 0xbb))
            .unwrap();
        assert!(ok);
        let ok = p
            .with_page(c, |buf| buf.iter().all(|&x| x == 0xcc))
            .unwrap();
        assert!(ok);
        let d2 = p.stats().snapshot().since(&mid);
        assert_eq!(d2.physical_reads, 0);
        assert_eq!(d2.buffer_hits, 2);
    }

    #[test]
    fn prefetch_never_evicts_residents() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        p.with_page(a, |_| ()).unwrap(); // a resident
        p.set_prefetcher(Some(Arc::new(move |_| vec![c])));
        p.with_page(b, |_| ()).unwrap(); // fills the last free frame
        assert!(p.is_resident(a), "prefetch must not evict residents");
        assert!(p.is_resident(b));
        assert!(
            !p.is_resident(c),
            "no free frame was left, so nothing may be prefetched"
        );
        assert_eq!(p.stats().snapshot().prefetch_issued, 0);
        p.check_invariants().unwrap();
    }

    /// Prefetched frames sit at the LRU tail: real misses reclaim them
    /// before any demand-fetched page.
    #[test]
    fn prefetched_frames_are_first_eviction_victims() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        p.set_prefetcher(Some(Arc::new(
            move |faulted: PageId| {
                if faulted == a {
                    vec![b]
                } else {
                    vec![]
                }
            },
        )));
        p.with_page(a, |_| ()).unwrap(); // a demand, b prefetched
        assert_eq!(p.resident_pages(), vec![a, b]);
        p.set_prefetcher(None);
        p.with_page(c, |_| ()).unwrap(); // evicts the prefetched b, not a
        assert!(p.is_resident(a));
        assert!(!p.is_resident(b));
        assert!(p.is_resident(c));
    }

    /// Concurrent readers of distinct pages make progress through the
    /// sharded table (closures run outside any pool-wide lock).
    #[test]
    fn concurrent_readers_on_distinct_pages() {
        use std::sync::Barrier;
        let p = Arc::new(pool(8));
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |buf| buf.fill(i as u8 + 1)).unwrap();
        }
        let barrier = Arc::new(Barrier::new(ids.len()));
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let p = Arc::clone(&p);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..500 {
                        let ok = p
                            .with_page(id, |buf| buf.iter().all(|&x| x == i as u8 + 1))
                            .unwrap();
                        assert!(ok);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        p.check_invariants().unwrap();
        // 4 cold misses, then pure hits.
        let s = p.stats().snapshot();
        assert_eq!(s.physical_reads, 4);
        assert_eq!(s.buffer_hits, 4 * 500);
    }
}
