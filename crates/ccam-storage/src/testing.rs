//! Test-support stores: seeded fault injection and deterministic
//! workloads.
//!
//! A disk-based access method must surface I/O failures as typed errors,
//! never panics or silent corruption. [`FaultStore`] wraps any
//! [`PageStore`] and injects every fault class the tests need, driven by
//! one shared [`FaultController`]:
//!
//! * **I/O failure** — [`FaultController::fail_after`]: the next `ops`
//!   operations succeed, every later one fails with an I/O error until
//!   [`FaultController::stop_failing`]. Walks higher layers' error paths.
//! * **Power cut** — [`FaultController::crash_after`]: the next `ops`
//!   mutations succeed, then the store dies, optionally tearing the page
//!   write it dies on ([`TornWrite`]). A dead store fails every page
//!   operation, reads included, until [`FaultController::revive`]. For
//!   crash-recovery tests, which put the injector *under* a `WalStore`:
//!   the log's own hooks ([`PageStore::durable_mut`]) are not page I/O
//!   and pass through an injector stacked above it unfaulted.
//! * **Full disk** — [`FaultController::fill_after`]: the next `ops`
//!   mutations succeed, then allocate / write / sync / ensure fail with
//!   [`StorageError::NoSpace`] (the filling write optionally landing a
//!   half-page prefix) until [`FaultController::drain`]. Reads, `free`
//!   and `rollback` keep working: they release space. For graceful-abort
//!   tests.
//! * **Glitches and rot** — [`FaultController::set_glitch_rate`] starts
//!   seeded bursts of transient I/O errors that a [`crate::RetryStore`]
//!   with more attempts than the burst absorbs;
//!   [`FaultController::mark_corrupt`] makes every read of a page fail
//!   with [`StorageError::ChecksumMismatch`] until a full-page write
//!   restamps it.
//! * **Latency** — [`FaultController::set_stall_rate`] stalls seeded
//!   reads and writes with a real sleep.
//!
//! [`FaultController::ops`] counts raw store traffic (below the buffer
//! pool, unlike [`crate::IoStats`]) whatever is armed.
//!
//! Everything random is drawn from xorshift streams seeded at
//! construction, in a fixed order per operation: stall, corruption
//! check, glitch, `ENOSPC` tick, inner call, heal. No wall clock or OS
//! randomness is consulted, so a failing schedule replays exactly.
//!
//! [`SweepRng`] is the deterministic generator crash-sweep harnesses
//! derive their workloads from: same seed, same workload, same crash
//! schedule — a failing sweep round replays exactly.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::durable::Durable;
use crate::error::{StorageError, StorageResult};
use crate::page::PageId;
use crate::retry::xorshift64_star;
use crate::store::PageStore;

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// How the page write a [`FaultStore`] crashes or fills on lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornWrite {
    /// The write never reaches the page (clean power cut between writes).
    None,
    /// Only the first half of the buffer lands; the rest of the page
    /// keeps its old contents (torn sector write).
    Partial,
    /// The page is zero-filled (drive wrote garbage/zeros on power loss).
    Zeroed,
}

/// Raw operation counts of a [`FaultStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// Raw page reads.
    pub reads: u64,
    /// Raw page writes.
    pub writes: u64,
    /// Page allocations (`allocate` and `ensure_allocated`).
    pub allocs: u64,
    /// Page frees.
    pub frees: u64,
    /// Sync (commit-point) calls — makes commit frequency observable in
    /// experiments comparing WAL and non-WAL configurations.
    pub syncs: u64,
}

/// A budgeted store operation (`ensure_allocated` counts as `Allocate`).
#[derive(Clone, Copy)]
enum Op {
    Allocate,
    Read(PageId),
    Write,
    Free,
    Sync,
}

/// Countdown value of a disarmed budget.
const NEVER: u64 = u64::MAX;

/// Ticks a countdown; true once it has run out (and on every tick after).
fn expired(left: &mut u64) -> bool {
    match *left {
        NEVER => false,
        0 => true,
        n => {
            *left = n - 1;
            false
        }
    }
}

fn io_error(msg: &'static str) -> StorageError {
    StorageError::Io(std::io::Error::other(msg))
}

fn power_failure() -> StorageError {
    io_error("simulated power failure")
}

/// An injected failure and how the write it strikes lands.
struct Fault {
    err: StorageError,
    tear: TornWrite,
}

impl From<StorageError> for Fault {
    fn from(err: StorageError) -> Fault {
        Fault {
            err,
            tear: TornWrite::None,
        }
    }
}

impl From<Fault> for StorageError {
    fn from(f: Fault) -> StorageError {
        f.err
    }
}

/// The fault plan behind a [`FaultController`].
#[derive(Debug)]
struct Plan {
    /// Operations left before every operation fails.
    fail_in: u64,
    /// Mutations left before the power cut.
    crash_in: u64,
    crash_tear: TornWrite,
    dead: bool,
    /// Mutations left before the disk fills.
    fill_in: u64,
    fill_tear: TornWrite,
    full: bool,
    glitch_rng: u64,
    /// Per-1024 chance that an operation starts a glitch (0 = off).
    glitch_per_1024: u64,
    /// Consecutive failures per glitch (≥ 1).
    glitch_burst: u64,
    /// Failures still owed from the glitch in progress.
    glitch_pending: u64,
    stall_rng: u64,
    /// Per-1024 chance that a read or write stalls (0 = off).
    stall_per_1024: u64,
    stall_us: u64,
    /// Pages that fail checksum verification on read.
    corrupt: BTreeSet<u32>,
    /// Glitches and `NoSpace` errors injected so far.
    injected: u64,
    stalls: u64,
    ops: OpCounts,
}

impl Plan {
    /// Everything decided before the stall: the op counters, the I/O
    /// failure budget, the power cut, and the stall draw itself.
    fn before_stall(&mut self, op: Op) -> Result<Option<Duration>, Fault> {
        let c = &mut self.ops;
        match op {
            Op::Allocate => c.allocs += 1,
            Op::Read(_) => c.reads += 1,
            Op::Write => c.writes += 1,
            Op::Free => c.frees += 1,
            Op::Sync => c.syncs += 1,
        }
        if expired(&mut self.fail_in) {
            return Err(io_error("injected I/O failure").into());
        }
        if self.dead {
            return Err(power_failure().into());
        }
        if !matches!(op, Op::Read(_)) && expired(&mut self.crash_in) {
            self.dead = true;
            return Err(Fault {
                err: power_failure(),
                tear: self.crash_tear,
            });
        }
        let stalls = matches!(op, Op::Read(_) | Op::Write)
            && self.stall_per_1024 > 0
            && xorshift64_star(&mut self.stall_rng) % 1024 < self.stall_per_1024;
        if !stalls {
            return Ok(None);
        }
        self.stalls += 1;
        Ok(Some(Duration::from_micros(self.stall_us)))
    }

    /// Everything decided after the stall: page rot, the glitch draw and
    /// the `ENOSPC` budget.
    fn after_stall(&mut self, op: Op) -> Result<(), Fault> {
        if let Op::Read(id) = op {
            if self.corrupt.contains(&id.0) {
                // Deterministic fabricated checksums: what a real v2
                // file would report, minus the actual bit pattern.
                let stored = 0xBAD0_0000 | id.0;
                return Err(StorageError::ChecksumMismatch {
                    page: id,
                    stored,
                    computed: stored ^ 1,
                }
                .into());
            }
        }
        if self.glitch_pending > 0 {
            self.glitch_pending -= 1;
            self.injected += 1;
            return Err(io_error("injected transient fault (burst)").into());
        }
        if self.glitch_per_1024 > 0
            && xorshift64_star(&mut self.glitch_rng) % 1024 < self.glitch_per_1024
        {
            self.glitch_pending = self.glitch_burst - 1;
            self.injected += 1;
            return Err(io_error("injected transient fault").into());
        }
        if matches!(op, Op::Read(_) | Op::Free) {
            return Ok(());
        }
        if self.full {
            self.injected += 1;
            return Err(StorageError::NoSpace.into());
        }
        if expired(&mut self.fill_in) {
            self.full = true;
            self.injected += 1;
            return Err(Fault {
                err: StorageError::NoSpace,
                tear: self.fill_tear,
            });
        }
        Ok(())
    }
}

/// The fault plan shared by a [`FaultStore`] and the test driving it
/// (see the module docs). Every fault class starts disarmed.
#[derive(Debug)]
pub struct FaultController {
    plan: Mutex<Plan>,
}

impl FaultController {
    fn new(seed: u64) -> FaultController {
        FaultController {
            plan: Mutex::new(Plan {
                fail_in: NEVER,
                crash_in: NEVER,
                crash_tear: TornWrite::None,
                dead: false,
                fill_in: NEVER,
                fill_tear: TornWrite::None,
                full: false,
                // xorshift needs a nonzero state; the stall stream is
                // offset so it differs from the glitch stream.
                glitch_rng: seed | 1,
                glitch_per_1024: 0,
                glitch_burst: 1,
                glitch_pending: 0,
                stall_rng: seed.wrapping_add(0x9E37_79B9) | 1,
                stall_per_1024: 0,
                stall_us: 0,
                corrupt: BTreeSet::new(),
                injected: 0,
                stalls: 0,
                ops: OpCounts::default(),
            }),
        }
    }

    /// The next `ops` operations succeed; every later one fails with an
    /// I/O error.
    pub fn fail_after(&self, ops: u64) {
        self.plan.lock().fail_in = ops;
    }

    /// Cancels [`FaultController::fail_after`]: operations succeed again.
    pub fn stop_failing(&self) {
        self.plan.lock().fail_in = NEVER;
    }

    /// Schedules a power cut: `ops` more mutations (allocate / write /
    /// free / sync / ensure) succeed, then the store dies. `torn` picks
    /// what happens if the dying operation is a page write.
    pub fn crash_after(&self, ops: u64, torn: TornWrite) {
        let mut p = self.plan.lock();
        p.crash_in = ops;
        p.crash_tear = torn;
        p.dead = false;
    }

    /// Cancels any scheduled crash and clears the dead state ("plugs the
    /// machine back in") — used between crash rounds in sweeps.
    pub fn revive(&self) {
        let mut p = self.plan.lock();
        p.crash_in = NEVER;
        p.dead = false;
    }

    /// True once the scheduled crash has fired.
    pub fn is_dead(&self) -> bool {
        self.plan.lock().dead
    }

    /// Schedules a full disk: `ops` more mutations (allocate / write /
    /// sync / ensure) succeed, then the device is full. With
    /// `short_write`, the write that fills it lands a half-page prefix
    /// before failing, the way `write(2)` reports a filling device.
    pub fn fill_after(&self, ops: u64, short_write: bool) {
        let mut p = self.plan.lock();
        p.fill_in = ops;
        p.fill_tear = if short_write {
            TornWrite::Partial
        } else {
            TornWrite::None
        };
        p.full = false;
    }

    /// Frees up space: mutations succeed again.
    pub fn drain(&self) {
        let mut p = self.plan.lock();
        p.fill_in = NEVER;
        p.full = false;
    }

    /// True once the scheduled fill has fired.
    pub fn is_full(&self) -> bool {
        self.plan.lock().full
    }

    /// Arms transient glitches: roughly `per_1024` out of every 1024
    /// operations start a glitch of `burst` consecutive failures
    /// (`burst` ≥ 1). Zero disarms.
    pub fn set_glitch_rate(&self, per_1024: u64, burst: u64) {
        let mut p = self.plan.lock();
        p.glitch_burst = burst.max(1);
        p.glitch_per_1024 = per_1024;
        if per_1024 == 0 {
            p.glitch_pending = 0;
        }
    }

    /// Arms latency stalls: roughly `per_1024` out of every 1024 reads
    /// and writes sleep for `micros`. Zero disarms.
    pub fn set_stall_rate(&self, per_1024: u64, micros: u64) {
        let mut p = self.plan.lock();
        p.stall_per_1024 = per_1024;
        p.stall_us = micros;
    }

    /// Marks `id` as bit-rotted: reads fail with a checksum mismatch.
    pub fn mark_corrupt(&self, id: PageId) {
        self.plan.lock().corrupt.insert(id.0);
    }

    /// Heals `id` without a write.
    pub fn clear_corrupt(&self, id: PageId) {
        self.plan.lock().corrupt.remove(&id.0);
    }

    /// Pages currently marked corrupt, ascending.
    pub fn corrupt_pages(&self) -> Vec<PageId> {
        self.plan
            .lock()
            .corrupt
            .iter()
            .map(|&p| PageId(p))
            .collect()
    }

    /// Ambient faults injected so far: glitches, `NoSpace` errors and
    /// stalls. A chaos harness subtracts these from its error budget —
    /// an injected fault surfacing as a typed error is the system
    /// working. Targeted failures (I/O failure, power cut, rotted pages)
    /// are not counted.
    pub fn injected_faults(&self) -> u64 {
        let p = self.plan.lock();
        p.injected + p.stalls
    }

    /// Latency stalls injected so far.
    pub fn injected_stalls(&self) -> u64 {
        self.plan.lock().stalls
    }

    /// Raw operations issued to the store so far.
    pub fn ops(&self) -> OpCounts {
        self.plan.lock().ops
    }

    /// Decides one operation. The stall sleeps with the plan unlocked.
    fn admit(&self, op: Op) -> Result<(), Fault> {
        let stall = self.plan.lock().before_stall(op)?;
        if let Some(stall) = stall {
            std::thread::sleep(stall);
        }
        self.plan.lock().after_stall(op)
    }
}

/// A [`PageStore`] wrapper injecting the faults its [`FaultController`]
/// schedules; with nothing armed it is transparent.
///
/// Stacks under a [`crate::RetryStore`] the way production does, so
/// short glitch bursts are absorbed by the retry budget; crash-recovery
/// tests put it under a `WalStore`, kill it mid-operation, then reopen
/// the file and assert the WAL replay restores every invariant; `ENOSPC`
/// tests put it over a `WalStore`, so the refusal bites before the log.
pub struct FaultStore<S: PageStore> {
    inner: S,
    controller: Arc<FaultController>,
}

impl<S: PageStore> FaultStore<S> {
    /// Wraps `inner` with every random stream seeded by `seed`; returns
    /// the store (disarmed) and its controller.
    pub fn new(inner: S, seed: u64) -> (Self, Arc<FaultController>) {
        let controller = Arc::new(FaultController::new(seed));
        (
            FaultStore {
                inner,
                controller: Arc::clone(&controller),
            },
            controller,
        )
    }

    /// Consumes the wrapper, returning the inner store (reopening after
    /// the "reboot").
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> PageStore for FaultStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> StorageResult<PageId> {
        self.controller.admit(Op::Allocate)?;
        self.inner.allocate()
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.controller.admit(Op::Read(id))?;
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> StorageResult<()> {
        if let Err(fault) = self.controller.admit(Op::Write) {
            let torn = match fault.tear {
                TornWrite::None => None,
                TornWrite::Partial => {
                    let mut page = vec![0u8; buf.len()];
                    self.inner.read(id, &mut page).ok().map(|()| {
                        page[..buf.len() / 2].copy_from_slice(&buf[..buf.len() / 2]);
                        page
                    })
                }
                TornWrite::Zeroed => Some(vec![0u8; buf.len()]),
            };
            if let Some(page) = torn {
                let _ = self.inner.write(id, &page);
            }
            return Err(fault.err);
        }
        self.inner.write(id, buf)?;
        // A full-page write restamps the page, healing the rot — the
        // same semantics a checksummed file store has.
        self.controller.clear_corrupt(id);
        Ok(())
    }

    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.controller.admit(Op::Free)?;
        self.inner.free(id)?;
        self.controller.clear_corrupt(id);
        Ok(())
    }

    fn is_live(&self, id: PageId) -> bool {
        self.inner.is_live(id)
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.controller.admit(Op::Sync)?;
        self.inner.sync()
    }

    fn live_pages(&self) -> Vec<PageId> {
        self.inner.live_pages()
    }

    fn ensure_allocated(&mut self, id: PageId) -> StorageResult<()> {
        self.controller.admit(Op::Allocate)?;
        self.inner.ensure_allocated(id)
    }

    fn durable(&self) -> Option<&dyn Durable> {
        self.inner.durable()
    }

    fn durable_mut(&mut self) -> Option<&mut dyn Durable> {
        self.inner.durable_mut()
    }
}

// ---------------------------------------------------------------------------
// Deterministic workload generation
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, high-quality deterministic generator for seeded
/// test workloads (crash sweeps, property tests). No OS entropy, no wall
/// clock — two instances with the same seed produce identical streams.
#[derive(Debug, Clone)]
pub struct SweepRng {
    state: u64,
}

impl SweepRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SweepRng {
        SweepRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n` > 0).
    pub fn gen_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Bernoulli draw: true with probability `num`/`denom`.
    pub fn gen_bool(&mut self, num: u64, denom: u64) -> bool {
        self.gen_range(denom) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;
    use crate::BufferPool;

    fn mem() -> MemPageStore {
        MemPageStore::new(64).unwrap()
    }

    #[test]
    fn disarmed_fault_store_is_transparent() {
        let (mut s, _ctl) = FaultStore::new(mem(), 0);
        let p = s.allocate().unwrap();
        s.write(p, &[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        s.read(p, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn io_failures_start_after_budget() {
        let (mut s, ctl) = FaultStore::new(mem(), 0);
        let p = s.allocate().unwrap();
        ctl.fail_after(2);
        let mut buf = [0u8; 64];
        s.read(p, &mut buf).unwrap(); // 1
        s.read(p, &mut buf).unwrap(); // 2
        assert!(matches!(s.read(p, &mut buf), Err(StorageError::Io(_))));
        assert!(matches!(s.write(p, &buf), Err(StorageError::Io(_))));
        ctl.stop_failing();
        s.read(p, &mut buf).unwrap();
    }

    #[test]
    fn buffer_pool_propagates_injected_errors() {
        let (s, ctl) = FaultStore::new(mem(), 0);
        let pool = BufferPool::new(s, 2);
        let p = pool.allocate().unwrap();
        pool.with_page_mut(p, |b| b.fill(7)).unwrap();
        pool.clear().unwrap();
        ctl.fail_after(0);
        assert!(pool.with_page(p, |_| ()).is_err());
        ctl.stop_failing();
        let ok = pool.with_page(p, |b| b[0]).unwrap();
        assert_eq!(ok, 7);
    }

    #[test]
    fn op_counters_count_raw_store_traffic() {
        let (s, ctl) = FaultStore::new(mem(), 0);
        let pool = BufferPool::new(s, 1);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        pool.with_page_mut(a, |x| x.fill(1)).unwrap();
        pool.with_page_mut(b, |x| x.fill(2)).unwrap(); // evicts dirty a
        pool.flush_all().unwrap();
        let ops = ctl.ops();
        assert_eq!(ops.allocs, 2);
        assert_eq!(ops.reads, 2);
        assert!(ops.writes >= 2);
        assert_eq!(ops.syncs, 1);
    }

    #[test]
    fn op_counters_count_syncs_directly() {
        let (mut s, ctl) = FaultStore::new(mem(), 0);
        s.sync().unwrap();
        s.sync().unwrap();
        assert_eq!(ctl.ops().syncs, 2);
    }

    #[test]
    fn io_failures_strike_sync() {
        let (mut s, ctl) = FaultStore::new(mem(), 0);
        s.sync().unwrap();
        ctl.fail_after(0);
        assert!(matches!(s.sync(), Err(StorageError::Io(_))));
        ctl.stop_failing();
        s.sync().unwrap();
    }

    #[test]
    fn marked_pages_fail_checksum_until_rewritten() {
        let (mut s, ctl) = FaultStore::new(mem(), 42);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        s.write(b, &[2u8; 64]).unwrap();
        ctl.mark_corrupt(a);
        let mut buf = [0u8; 64];
        assert!(matches!(
            s.read(a, &mut buf),
            Err(StorageError::ChecksumMismatch { page, .. }) if page == a
        ));
        // Unmarked pages read fine; a full-page rewrite heals the rot.
        s.read(b, &mut buf).unwrap();
        assert_eq!(ctl.corrupt_pages(), vec![a]);
        s.write(a, &[3u8; 64]).unwrap();
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);
        assert!(ctl.corrupt_pages().is_empty());
    }

    #[test]
    fn glitches_are_seeded_and_bursty() {
        // Same seed ⇒ same fault schedule.
        let run = |seed: u64| {
            let (mut s, ctl) = FaultStore::new(mem(), seed);
            let p = s.allocate().unwrap();
            s.write(p, &[9u8; 64]).unwrap();
            ctl.set_glitch_rate(512, 2); // ~half the ops glitch, 2 fails each
            let mut buf = [0u8; 64];
            let outcomes: Vec<bool> = (0..32).map(|_| s.read(p, &mut buf).is_ok()).collect();
            (outcomes, ctl.injected_faults())
        };
        let (a, fa) = run(7);
        let (b, fb) = run(7);
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        assert!(fa > 0, "a 50% rate over 32 ops must fire at least once");
        // A different seed produces a different schedule (with these
        // parameters the chance of collision is negligible).
        let (c, _) = run(1234);
        assert_ne!(a, c);
    }

    #[test]
    fn fault_classes_compose_and_disarm_independently() {
        let (mut s, ctl) = FaultStore::new(mem(), 7);
        // Disarmed: clean build phase.
        let p = s.allocate().unwrap();
        s.write(p, &[3u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        s.read(p, &mut buf).unwrap();
        assert_eq!(ctl.injected_faults(), 0);

        // Armed: glitches fire (rate 1024/1024 = always).
        ctl.set_glitch_rate(1024, 1);
        assert!(matches!(s.read(p, &mut buf), Err(StorageError::Io(_))));
        assert!(ctl.injected_faults() > 0);
        ctl.set_glitch_rate(0, 1);
        s.read(p, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);

        // Targeted corruption survives disarm and heals on write.
        ctl.mark_corrupt(p);
        assert!(matches!(
            s.read(p, &mut buf),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        s.write(p, &[4u8; 64]).unwrap();
        s.read(p, &mut buf).unwrap();

        // Disk-full pulses surface the typed NoSpace on mutations while
        // reads keep working; draining recovers.
        ctl.fill_after(0, false);
        assert!(matches!(s.write(p, &[5u8; 64]), Err(StorageError::NoSpace)));
        s.read(p, &mut buf).unwrap();
        ctl.drain();
        s.write(p, &[6u8; 64]).unwrap();
    }

    #[test]
    fn stall_schedule_is_seed_deterministic() {
        let run = |seed: u64| {
            let (mut s, ctl) = FaultStore::new(mem(), seed);
            // Build before arming.
            let p = s.allocate().unwrap();
            s.write(p, &[1u8; 64]).unwrap();
            // ~25% of reads stall, for zero time: schedule only.
            ctl.set_stall_rate(256, 0);
            let mut buf = [0u8; 64];
            for _ in 0..64 {
                s.read(p, &mut buf).unwrap();
            }
            ctl.injected_stalls()
        };
        assert_eq!(run(11), run(11), "same seed, same stall schedule");
        assert!(run(11) > 0, "a 25% rate must stall at least once in 64");
    }

    #[test]
    fn retry_store_absorbs_glitch_bursts() {
        use crate::retry::{RetryPolicy, RetryStore};
        let (s, ctl) = FaultStore::new(mem(), 99);
        let mut s = RetryStore::new(
            s,
            RetryPolicy {
                // Comfortably above the burst length of 2, so even a
                // glitch that chains straight into another one is
                // absorbed within the budget.
                max_attempts: 8,
                base_delay_ticks: 1,
                max_delay_ticks: 4,
                jitter_seed: None,
            },
        );
        let p = s.allocate().unwrap();
        s.write(p, &[5u8; 64]).unwrap();
        ctl.set_glitch_rate(128, 2);
        let mut buf = [0u8; 64];
        for _ in 0..64 {
            s.read(p, &mut buf).unwrap();
        }
        assert_eq!(buf, [5u8; 64]);
        // Every injected fault was retried through.
        assert_eq!(s.stats().snapshot().retries, ctl.injected_faults());
    }

    #[test]
    fn sweep_rng_is_deterministic_and_varies_with_seed() {
        let mut a = SweepRng::new(42);
        let mut b = SweepRng::new(42);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(sa, sb);
        let mut c = SweepRng::new(43);
        let sc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_ne!(sa, sc);
        let mut d = SweepRng::new(7);
        for _ in 0..100 {
            assert!(d.gen_range(10) < 10);
        }
    }

    #[test]
    fn full_disk_fails_mutations_with_no_space_until_drained() {
        let (mut s, ctl) = FaultStore::new(mem(), 0);
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        ctl.fill_after(1, false);
        s.write(a, &[2u8; 64]).unwrap(); // last op that fits
        assert!(matches!(s.write(a, &[3u8; 64]), Err(StorageError::NoSpace)));
        assert!(ctl.is_full());
        assert!(matches!(s.allocate(), Err(StorageError::NoSpace)));
        assert!(matches!(s.sync(), Err(StorageError::NoSpace)));
        // Reads still work on a full disk.
        let mut buf = [0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        ctl.drain();
        s.write(a, &[4u8; 64]).unwrap();
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [4u8; 64]);
        assert!(ctl.injected_faults() >= 3);
    }

    #[test]
    fn full_disk_short_write_lands_a_prefix() {
        let (mut s, ctl) = FaultStore::new(mem(), 0);
        let a = s.allocate().unwrap();
        s.write(a, &[0xaa; 64]).unwrap();
        ctl.fill_after(0, true);
        assert!(matches!(
            s.write(a, &[0xbb; 64]),
            Err(StorageError::NoSpace)
        ));
        ctl.drain();
        let mut buf = [0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert!(buf[..32].iter().all(|&x| x == 0xbb));
        assert!(buf[32..].iter().all(|&x| x == 0xaa));
    }

    #[test]
    fn durable_reaches_the_wal_through_every_wrapper() {
        use crate::durable::{ReplFeed, WalStore};
        use crate::retry::{RetryPolicy, RetryStore};
        use crate::snapshot::SnapshotStore;
        use crate::store::FilePageStore;
        let path = |tag: &str| {
            std::env::temp_dir().join(format!("ccam-testing-durable-{}-{tag}", std::process::id()))
        };
        let wal = |tag: &str| WalStore::create(mem(), &path(tag)).unwrap();

        let mut boxed: Box<dyn PageStore> = Box::new(wal("boxed.wal"));
        let (mut faulty, _ctl) = FaultStore::new(wal("fault.wal"), 0);
        let mut retried = RetryStore::new(wal("retry.wal"), RetryPolicy::default());
        for s in [&mut boxed as &mut dyn PageStore, &mut faulty, &mut retried] {
            let a = s.allocate().unwrap();
            s.write(a, &[1u8; 64]).unwrap();
            s.sync().unwrap();
            assert_eq!(s.wal_info().unwrap().commits, 1);
            // An uncommitted allocation is undone through the accessor.
            let b = s.allocate().unwrap();
            let d = s.durable_mut().expect("a WalStore sits in this stack");
            d.rollback().unwrap();
            d.checkpoint().unwrap();
            assert!(d.info().checkpoints >= 1);
            assert!(matches!(
                d.repl_records_after(0).unwrap(),
                ReplFeed::NotRetained { .. }
            ));
            let versions = d.enable_snapshots().unwrap();
            assert!(d.page_versions().is_some());
            assert!(!s.is_live(b));
            // A pinned snapshot is a plain store again.
            let snap = SnapshotStore::pin(&versions);
            assert!(snap.durable().is_none());
            assert!(snap.wal_info().is_none());
        }

        // Stores without a log report none, wrapped or not.
        let file = FilePageStore::create(&path("plain.db"), 64).unwrap();
        let (faulty_plain, _c) = FaultStore::new(mem(), 0);
        assert!(mem().durable().is_none());
        assert!(file.durable().is_none());
        assert!(faulty_plain.durable().is_none());
        assert!(file.wal_info().is_none());
        for tag in ["boxed.wal", "fault.wal", "retry.wal", "plain.db"] {
            std::fs::remove_file(path(tag)).ok();
        }
    }

    #[test]
    fn crash_dies_at_scheduled_op_and_stays_dead() {
        let (mut s, ctl) = FaultStore::new(mem(), 0);
        let a = s.allocate().unwrap();
        s.write(a, &[1u8; 64]).unwrap();
        ctl.crash_after(1, TornWrite::None);
        s.write(a, &[2u8; 64]).unwrap(); // last surviving mutation
        assert!(s.write(a, &[3u8; 64]).is_err()); // the crash
        assert!(ctl.is_dead());
        // Everything fails until revived — including reads and syncs.
        let mut buf = [0u8; 64];
        assert!(s.read(a, &mut buf).is_err());
        assert!(s.sync().is_err());
        assert!(s.allocate().is_err());
        ctl.revive();
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]); // the dying write never landed
    }

    #[test]
    fn crash_tears_the_dying_write() {
        // Partial: first half new, second half old.
        let (mut s, ctl) = FaultStore::new(mem(), 0);
        let a = s.allocate().unwrap();
        s.write(a, &[0xaa; 64]).unwrap();
        ctl.crash_after(0, TornWrite::Partial);
        assert!(s.write(a, &[0xbb; 64]).is_err());
        ctl.revive();
        let mut buf = [0u8; 64];
        s.read(a, &mut buf).unwrap();
        assert!(buf[..32].iter().all(|&x| x == 0xbb));
        assert!(buf[32..].iter().all(|&x| x == 0xaa));

        // Zeroed: the page comes back blank.
        let (mut s, ctl) = FaultStore::new(mem(), 0);
        let a = s.allocate().unwrap();
        s.write(a, &[0xaa; 64]).unwrap();
        ctl.crash_after(0, TornWrite::Zeroed);
        assert!(s.write(a, &[0xbb; 64]).is_err());
        ctl.revive();
        s.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
    }
}
