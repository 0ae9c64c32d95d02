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
//! # Structure (every hot path O(1))
//!
//! * One `meta` mutex guards the page table (`HashMap<PageId, slot>`)
//!   and an intrusive doubly-linked LRU list over a slab of entries. A
//!   hit is one hash probe plus an unlink and relink at the MRU head; an
//!   eviction pops the LRU tail. Recency is exact LRU at every capacity,
//!   from the one-page route buffer (§4.3) to the B⁺-tree index pool.
//! * Each frame's bytes sit behind their own `RwLock`, and the
//!   `with_page` / `with_page_mut` closures run holding only that frame
//!   lock, with the frame *pinned*: a pinned frame is never evicted, so
//!   concurrent readers share the pool without holding `meta`.
//! * Misses and structural operations (shrink, clear, free, flush)
//!   serialise on a `fault` mutex, and the store read of a miss runs
//!   outside `meta`. That keeps the miss path simple and is the right
//!   trade for this workload: the paper's experiments are
//!   miss-*counting*, not miss-*throughput*, and hits stay concurrent.
//! * An evictor that finds every frame pinned parks on a condvar. The
//!   unpin that ends a closure notifies only while an evictor is parked
//!   (`Meta::waiters`), so the hit path makes no wake-up call.
//!
//! Lock order (outermost first): `fault` → `meta` → `store`, and frame
//! buffer → `store`. `meta` and a frame buffer are never held together.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::error::{StorageError, StorageResult};
use crate::metrics::PageAccessKind;
use crate::page::PageId;
use crate::stats::IoStats;
use crate::store::PageStore;

/// Null index in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// A connectivity-aware prefetch hook: maps a faulted page to candidate
/// pages worth reading into free frames.
pub type Prefetcher = Arc<dyn Fn(PageId) -> Vec<PageId> + Send + Sync>;

struct Frame {
    id: PageId,
    /// Index of this frame's entry in the `meta` slab, fixed for the
    /// frame's lifetime. Slab indices are recycled, so `unpin` checks
    /// the entry still holds this frame before touching its pins.
    slot: usize,
    /// Set by `with_page_mut` under the buffer's write lock, cleared by
    /// write-back under its read lock. Atomic so that an evictor holding
    /// `meta` can drop a clean victim on the spot without taking the
    /// buffer lock: a victim is unpinned, and the last writer's `unpin`
    /// took `meta` after its store, so `Relaxed` loads see it.
    dirty: AtomicBool,
    data: RwLock<Box<[u8]>>,
}

/// One slab entry: a resident frame plus its intrusive LRU links.
struct Entry {
    frame: Option<Arc<Frame>>,
    prev: usize,
    next: usize,
    /// Closures currently running over this frame's buffer; pinned
    /// frames are never chosen for eviction.
    pins: u32,
    /// Set while a dirty victim is written back outside `meta`: the page
    /// stays in the table (so uncounted reads see the unwritten bytes)
    /// but takes no new pins.
    evicting: bool,
}

/// Page table + LRU list + slab (and the prefetch hook), guarded by one
/// mutex. Every operation is O(1).
struct Meta {
    /// Resident page → its slab index.
    table: HashMap<PageId, usize>,
    entries: Vec<Entry>,
    free: Vec<usize>,
    /// MRU end of the list.
    head: usize,
    /// LRU end of the list.
    tail: usize,
    /// Resident frames (linked entries).
    len: usize,
    capacity: usize,
    /// Evictors parked on the condvar; unpin notifies only when nonzero.
    waiters: usize,
    /// The installed prefetch hook, taken on each miss.
    prefetcher: Option<Prefetcher>,
}

impl Meta {
    /// Links a freshly read page into the table and list with `pins`
    /// initial pins, at the MRU head or the LRU tail.
    fn install(&mut self, id: PageId, data: Box<[u8]>, pins: u32, mru: bool) -> Arc<Frame> {
        let slot = self.free.pop().unwrap_or(self.entries.len());
        let frame = Arc::new(Frame {
            id,
            slot,
            dirty: AtomicBool::new(false),
            data: RwLock::new(data),
        });
        let entry = Entry {
            frame: Some(Arc::clone(&frame)),
            prev: NIL,
            next: NIL,
            pins,
            evicting: false,
        };
        if slot == self.entries.len() {
            self.entries.push(entry);
        } else {
            self.entries[slot] = entry;
        }
        if mru {
            self.push_head(slot);
        } else {
            self.push_tail(slot);
        }
        self.len += 1;
        self.table.insert(id, slot);
        frame
    }

    /// Unmaps an already unlinked entry and returns its slot to the slab.
    fn release(&mut self, slot: usize) {
        let e = &mut self.entries[slot];
        if let Some(frame) = e.frame.take() {
            self.table.remove(&frame.id);
        }
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

    /// Resident frames, most recently used first.
    fn frames_mru_first(&self) -> impl Iterator<Item = &Arc<Frame>> {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            let e = self.entries.get(slot)?;
            slot = e.next;
            e.frame.as_ref()
        })
    }
}

/// An LRU buffer pool over a [`PageStore`] with counted page accesses.
/// See the module docs for its structure.
pub struct BufferPool<S: PageStore> {
    meta: Mutex<Meta>,
    /// Signalled on unpin while an evictor waits for a pinned frame.
    meta_cv: Condvar,
    /// Serialises misses and structural operations (shrink/clear/free/
    /// flush). Hits never touch it.
    fault: Mutex<()>,
    store: Mutex<S>,
    stats: Arc<IoStats>,
    page_size: usize,
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps `store` with a pool of `capacity` frames (≥ 1).
    pub fn new(store: S, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        BufferPool {
            page_size: store.page_size(),
            meta: Mutex::new(Meta {
                table: HashMap::new(),
                entries: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                len: 0,
                capacity,
                waiters: 0,
                prefetcher: None,
            }),
            meta_cv: Condvar::new(),
            fault: Mutex::new(()),
            store: Mutex::new(store),
            stats: IoStats::new_shared(),
        }
    }

    /// Shared I/O counters (bumped by this pool).
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Page size of the underlying store.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Installs (or with `None` removes) the connectivity-aware prefetch
    /// hook. Off by default; see the module docs for the counting rules.
    pub fn set_prefetcher(&self, hook: Option<Prefetcher>) {
        self.meta.lock().prefetcher = hook;
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
        self.shrink_to(self.meta.lock(), capacity)?.capacity = capacity;
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
        let mut m = self.meta.lock();
        if let Some(&slot) = m.table.get(&id) {
            m.detach(slot);
            m.len -= 1;
            m.release(slot);
        }
        drop(m);
        self.stats.record_free();
        Ok(())
    }

    /// The counted hit path: pins `id` MRU and records one buffer hit,
    /// or returns `None` without counting anything (not resident, or a
    /// dirty victim mid-write-back — the miss path then waits for it on
    /// the fault lock).
    fn hit(&self, id: PageId) -> Option<Arc<Frame>> {
        let frame = {
            let mut m = self.meta.lock();
            let slot = *m.table.get(&id)?;
            let e = &mut m.entries[slot];
            if e.evicting {
                return None;
            }
            e.pins += 1;
            let frame = e.frame.clone().expect("mapped slot occupied");
            m.move_to_head(slot);
            frame
        };
        self.stats.record_hit();
        self.stats.record_page_event(id, PageAccessKind::Hit);
        Some(frame)
    }

    fn unpin(&self, frame: &Arc<Frame>) {
        let mut m = self.meta.lock();
        if let Some(e) = m.entries.get_mut(frame.slot) {
            if e.frame.as_ref().is_some_and(|f| Arc::ptr_eq(f, frame)) {
                e.pins -= 1;
            }
        }
        let wake = m.waiters > 0;
        drop(m);
        if wake {
            self.meta_cv.notify_all();
        }
    }

    /// Runs `f` over the (read-only) contents of page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        let frame = match self.hit(id) {
            Some(frame) => frame,
            None => self.fault_in(id)?,
        };
        let r = f(&frame.data.read());
        self.unpin(&frame);
        Ok(r)
    }

    /// Runs `f` over page `id` only if it is resident — the buffer-first
    /// probe of `Get-A-successor()` ("the buffered data-page should be
    /// searched first", §2.3). A resident page costs exactly one counted
    /// hit and moves to MRU, as [`Self::with_page`] would; a non-resident
    /// page returns `None` having counted nothing and changed no recency.
    /// Residency is decided and the frame pinned in one step, so a
    /// concurrent eviction can never turn the probe into a fault.
    pub fn with_resident_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let frame = self.hit(id)?;
        let r = f(&frame.data.read());
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
            let mut data = frame.data.write();
            frame.dirty.store(true, Ordering::Relaxed);
            f(&mut data)
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
        // The fill happens into a fresh buffer *before* a frame is
        // created: a failed read — I/O error or checksum mismatch — must
        // never leave a frame cached as if it held valid page contents.
        // And it happens *before* any eviction: a failed replacement read
        // must not cost current residents their frames (the LRU victim —
        // dirty write-back included — is only paid for once the new page
        // is actually in hand).
        let mut data = vec![0u8; self.page_size].into_boxed_slice();
        self.read_from_store(id, &mut data)?;
        let (frame, prefetcher) = {
            let m = self.meta.lock();
            let room = m.capacity - 1;
            let mut m = self.shrink_to(m, room)?;
            (m.install(id, data, 1, true), m.prefetcher.clone())
        };
        self.stats.record_read();
        self.stats.record_page_event(id, PageAccessKind::Miss);
        if let Some(hook) = prefetcher {
            self.prefetch_after_miss(id, &hook);
        }
        Ok(frame)
    }

    /// Reads live page `id` from the store, counting a checksum failure.
    fn read_from_store(&self, id: PageId, data: &mut [u8]) -> StorageResult<()> {
        let store = self.store.lock();
        if !store.is_live(id) {
            return Err(StorageError::InvalidPage(id));
        }
        store.read(id, data).inspect_err(|e| {
            if matches!(e, StorageError::ChecksumMismatch { .. }) {
                self.stats.record_checksum_failure();
                crate::trace_event!("buffer", "checksum failure on page {}", id.0);
            }
        })
    }

    /// Evicts LRU-most unpinned frames until at most `target` remain and
    /// hands `meta` back still locked, so the caller can use the room
    /// made. A clean victim is dropped under the held lock; a dirty one
    /// is unlinked and marked `evicting`, written back with `meta`
    /// released, and reinstated at the LRU tail if the write-back fails
    /// (the error propagates — the pool never loses dirty bytes). Parks
    /// on the condvar while every resident frame is pinned. Caller holds
    /// the fault lock.
    fn shrink_to<'a>(
        &'a self,
        mut m: MutexGuard<'a, Meta>,
        target: usize,
    ) -> StorageResult<MutexGuard<'a, Meta>> {
        while m.len > target {
            let Some(slot) = m.pick_victim() else {
                m.waiters += 1;
                self.meta_cv.wait(&mut m);
                m.waiters -= 1;
                continue;
            };
            let frame = Arc::clone(m.entries[slot].frame.as_ref().expect("victim occupied"));
            m.detach(slot);
            m.len -= 1;
            if frame.dirty.load(Ordering::Relaxed) {
                m.entries[slot].evicting = true;
                drop(m);
                let written = self.write_back(&frame);
                m = self.meta.lock();
                if let Err(e) = written {
                    m.entries[slot].evicting = false;
                    m.push_tail(slot);
                    m.len += 1;
                    return Err(e);
                }
            }
            crate::trace_event!("buffer", "evict page {}", frame.id.0);
            self.stats.record_eviction();
            m.release(slot);
        }
        Ok(m)
    }

    /// Writes `frame` back if it is dirty and marks it clean, counting one
    /// physical write. The buffer's read lock is held across the store
    /// write, so a concurrent `with_page_mut` cannot slip a change in
    /// between the write and the clean mark.
    fn write_back(&self, frame: &Frame) -> StorageResult<()> {
        let data = frame.data.read();
        if !frame.dirty.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.store.lock().write(frame.id, &data)?;
        frame.dirty.store(false, Ordering::Relaxed);
        drop(data);
        self.stats.record_write();
        self.stats
            .record_page_event(frame.id, PageAccessKind::Write);
        Ok(())
    }

    /// Best-effort prefetch after a miss on `id`: reads hook-suggested
    /// pages into *free* frames (never evicting), inserted at the LRU
    /// tail so real misses reclaim them first. Caller holds the fault
    /// lock. Each successful read is counted (physical read + prefetch).
    fn prefetch_after_miss(&self, id: PageId, hook: &Prefetcher) {
        for pid in hook(id) {
            {
                let m = self.meta.lock();
                if m.len >= m.capacity {
                    break;
                }
                if pid == id || m.table.contains_key(&pid) {
                    continue;
                }
            }
            let mut data = vec![0u8; self.page_size].into_boxed_slice();
            if self.read_from_store(pid, &mut data).is_err() {
                continue;
            }
            self.stats.record_read();
            self.stats.record_prefetch();
            self.stats.record_page_event(pid, PageAccessKind::Prefetch);
            crate::trace_event!("buffer", "prefetch page {}", pid.0);
            self.meta.lock().install(pid, data, 0, false);
        }
    }

    /// True when `id` is resident. Uncounted and recency-neutral; a
    /// caller that goes on to read the page uses
    /// [`Self::with_resident_page`] instead, which cannot race an
    /// eviction in between.
    pub fn is_resident(&self, id: PageId) -> bool {
        self.meta.lock().table.contains_key(&id)
    }

    /// Ids of currently resident pages, most recently used first.
    /// Uncounted and recency-neutral: a diagnostic and test aid (the
    /// LRU-model property tests compare it with their model). No access
    /// path scans it to resolve a record.
    pub fn resident_pages(&self) -> Vec<PageId> {
        self.meta.lock().frames_mru_first().map(|f| f.id).collect()
    }

    /// Writes back every dirty frame in ascending page-id order (frames
    /// stay resident and are marked clean). Stops at the first error —
    /// a `WalStore` beneath only commits on `sync()`, so a partial
    /// write-back is never made durable. Caller holds the fault lock.
    fn write_back_dirty(&self) -> StorageResult<()> {
        let mut frames: Vec<Arc<Frame>> = self.meta.lock().frames_mru_first().cloned().collect();
        frames.sort_unstable_by_key(|f| f.id);
        frames.iter().try_for_each(|frame| self.write_back(frame))
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
        drop(self.shrink_to(self.meta.lock(), 0)?);
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
    /// and checkpoint paths use to drive its log
    /// ([`PageStore::durable_mut`]) without going through the frame cache.
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.store.lock())
    }

    /// Drops every frame *without* writing dirty contents back — the
    /// abort path: in-flight (uncommitted) page mutations live only in
    /// dirty frames, so discarding them and rolling back the store
    /// returns the file to its last committed state.
    pub fn discard_frames(&self) {
        let _fault = self.fault.lock();
        let mut m = self.meta.lock();
        m.table.clear();
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
        let resident = {
            let m = self.meta.lock();
            m.table
                .get(&id)
                .and_then(|&slot| m.entries[slot].frame.clone())
        };
        match resident {
            Some(frame) => {
                buf.copy_from_slice(&frame.data.read());
                Ok(())
            }
            None => self.store.lock().read(id, buf),
        }
    }

    /// Verifies page-table ↔ LRU-list agreement, the capacity bound and
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
            if frame.slot != slot {
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
        // The page table must agree with the list exactly.
        if m.table != listed {
            return Err("page table disagrees with the LRU list".into());
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
impl<S: PageStore> Drop for BufferPool<S> {
    fn drop(&mut self) {
        let _ = self.write_back_dirty();
        let _ = self.store.lock().sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;

    fn pool(cap: usize) -> BufferPool<MemPageStore> {
        BufferPool::new(MemPageStore::new(128).unwrap(), cap)
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

    /// Two threads missing on the same page while every frame is pinned:
    /// the first parks in `shrink_to` holding the fault lock, the second
    /// queues on it and must then pin the winner's frame instead of
    /// admitting a stale duplicate — either failure loses one of the
    /// increments below.
    #[test]
    fn concurrent_misses_on_same_page_lose_no_updates() {
        use std::sync::mpsc;
        use std::time::Duration;
        let p = pool(2);
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

    /// Pins the only frame of a one-frame pool — through
    /// `with_resident_page`, or through `with_page_mut` — parks a missing
    /// reader behind it, then ends the pinning closure: that last unpin
    /// must wake the parked evictor. `unpin` notifies only while
    /// `waiters` is nonzero, so a lost notify would leave the reader
    /// parked forever; the bounded wait turns that into a failure, and
    /// the test then wakes the reader itself so the scope can join.
    fn last_unpin_wakes_parked_evictor(pin_mut: bool) {
        use std::sync::mpsc;
        use std::time::{Duration, Instant};
        let p = pool(1);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page(a, |_| ()).unwrap();
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|sc| {
            let p = &p;
            sc.spawn(move || {
                let hold = move || {
                    pinned_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                };
                if pin_mut {
                    p.with_page_mut(a, |_| hold()).unwrap();
                } else {
                    p.with_resident_page(a, |_| hold()).unwrap();
                }
            });
            pinned_rx.recv().unwrap();
            sc.spawn(move || {
                p.with_page(b, |_| ()).unwrap();
                done_tx.send(()).unwrap();
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            while p.meta.lock().waiters == 0 {
                assert!(Instant::now() < deadline, "the reader never parked");
                std::thread::sleep(Duration::from_millis(1));
            }
            release_tx.send(()).unwrap();
            let woke = done_rx.recv_timeout(Duration::from_secs(10));
            if woke.is_err() {
                p.meta_cv.notify_all();
            }
            assert!(
                woke.is_ok(),
                "the last unpin did not wake the parked evictor"
            );
        });
        assert_eq!(p.resident_pages(), vec![b]);
        p.check_invariants().unwrap();
    }

    #[test]
    fn last_unpin_wakes_parked_evictor_from_resident_probe() {
        last_unpin_wakes_parked_evictor(false);
    }

    #[test]
    fn last_unpin_wakes_parked_evictor_from_mutation() {
        last_unpin_wakes_parked_evictor(true);
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
    }

    /// The LRU list stays exact through a long mixed workload (the
    /// intrusive-list rewrite must preserve recency semantics bit for
    /// bit).
    #[test]
    fn lru_order_exact_through_mixed_workload() {
        let p = pool(4);
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

    #[test]
    fn concurrent_hits_on_shared_pages_agree() {
        let p = std::sync::Arc::new(pool(8));
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

    /// Concurrent readers of distinct pages make progress (closures run
    /// outside any pool-wide lock).
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
