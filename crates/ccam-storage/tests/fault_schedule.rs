//! Golden fault schedules.
//!
//! Seeded fault injection is only useful if a seed names one schedule
//! forever: `chaos_serve --seed 42`, the fault sweep and every crash
//! sweep replay a failing round by re-running its seed. These tests pin
//! the exact Ok/Err sequence the fault-injecting store produces for a
//! fixed mixed workload, so any change to the order in which the fault
//! classes draw from their seeded streams (stall, corruption check,
//! glitch, `ENOSPC` tick, inner call, heal) or to which operations count
//! toward a budget fails here.

use ccam_storage::{
    FaultStore, MemPageStore, PageId, PageStore, StorageError, SweepRng, TornWrite,
};

const PAGE: usize = 64;
const OPS: usize = 256;

/// The clean build phase: four written pages, before any fault is armed.
fn build(s: &mut impl PageStore) -> Vec<PageId> {
    (0..4u8)
        .map(|i| {
            let p = s.allocate().unwrap();
            s.write(p, &[i; PAGE]).unwrap();
            p
        })
        .collect()
}

/// One outcome character per result: `.` ok, `E` I/O error, `C`
/// checksum mismatch, `N` no space.
fn outcome(r: Result<(), StorageError>) -> char {
    match r {
        Ok(()) => '.',
        Err(StorageError::Io(_)) => 'E',
        Err(StorageError::ChecksumMismatch { .. }) => 'C',
        Err(StorageError::NoSpace) => 'N',
        Err(e) => panic!("unexpected error kind: {e}"),
    }
}

/// Runs `OPS` seeded mixed operations (allocate, read, write, free,
/// sync, ensure) over `live`, calling `at(i)` before operation `i`.
fn run(
    s: &mut impl PageStore,
    seed: u64,
    live: &mut Vec<PageId>,
    mut at: impl FnMut(usize, &[PageId]),
) -> String {
    let mut rng = SweepRng::new(seed);
    let mut buf = [0u8; PAGE];
    (0..OPS)
        .map(|i| {
            at(i, live);
            let k = rng.gen_range(live.len() as u64) as usize;
            let r = match rng.gen_range(8) {
                0 => s.allocate().map(|p| live.push(p)),
                1..=3 => s.read(live[k], &mut buf),
                4 => s.write(live[k], &[i as u8; PAGE]),
                5 if live.len() > 1 => s.free(live[k]).map(|()| {
                    live.swap_remove(k);
                }),
                6 => s.ensure_allocated(live[k]),
                _ => s.sync(),
            };
            outcome(r)
        })
        .collect()
}

#[test]
fn seeded_chaos_schedules_replay_exactly() {
    let golden = [
        (
            7,
            concat!(
                "................................................................",
                ".....C............C..........EE.......................N.N.NN....",
                "NNCN..N.N...NN.CCNN...N........N................................",
                "....................EE....EE.EE.................................",
            ),
            23,
            0,
        ),
        (
            42,
            concat!(
                "....EE..EE................................EE....................",
                "......C..........................................EE............N",
                "NN.NN.N.NN......NNN.NN.N.NN.N.NN................................",
                "............................................................EE..",
            ),
            30,
            1,
        ),
        (
            99,
            concat!(
                "................................................................",
                "....C..C..C.....................................................",
                "......N.NN.NEENN.NN.N.N.NN.NNNN.................................",
                ".EE.............................................................",
            ),
            20,
            0,
        ),
    ];
    for (seed, want, faults, stalls) in golden {
        let (mut s, ctl) = FaultStore::new(MemPageStore::new(PAGE).unwrap(), seed);
        let mut live = build(&mut s);
        ctl.set_glitch_rate(12, 2);
        ctl.set_stall_rate(8, 0);
        let got = run(&mut s, seed, &mut live, |i, live| match i {
            64 => ctl.mark_corrupt(live[0]),
            96 => ctl.fill_after(16, true),
            160 => ctl.drain(),
            _ => {}
        });
        assert_eq!(got, want, "seed {seed}: outcome sequence drifted");
        assert_eq!(ctl.injected_faults(), faults, "seed {seed}: faults");
        assert_eq!(ctl.injected_stalls(), stalls, "seed {seed}: stalls");
    }
}

#[test]
fn crash_and_fill_points_replay_exactly() {
    let (mut s, ctl) = FaultStore::new(MemPageStore::new(PAGE).unwrap(), 0);
    let mut live = build(&mut s);
    ctl.crash_after(37, TornWrite::Partial);
    let got = run(&mut s, 7, &mut live, |_, _| {});
    assert_eq!(got.find(|c| c != '.'), Some(61), "crash point drifted");
    assert!(
        got[61..].chars().all(|c| c == 'E'),
        "a dead store fails everything"
    );
    assert!(ctl.is_dead());

    let (mut s, ctl) = FaultStore::new(MemPageStore::new(PAGE).unwrap(), 0);
    let mut live = build(&mut s);
    ctl.fill_after(41, true);
    let got = run(&mut s, 42, &mut live, |_, _| {});
    let want = concat!(
        "................................................................",
        ".................N..N.N.NNNN..NNNN.NNN.....NNNN.N..NN.NNNN.NNNNN",
        "NN.NN.NNNN.N.N..NNN.NN.N.NN.N.NNNN.N.NNNNNNNNN.N.N..N....N...N.N",
        ".NNNN.NNN.NNN.NN..NNN..NN.NNNN..N.N.NN.N.NN..NN.NN.NNN...N...NNN",
    );
    assert_eq!(got.find('N'), Some(81), "fill point drifted");
    assert_eq!(
        got, want,
        "a full disk refuses mutations, serves reads and frees"
    );
    assert!(ctl.is_full());
}
