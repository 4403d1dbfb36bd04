//! Seeded property test for the snoop filter's two per-block bitmasks in
//! main memory. After every bus transaction both must be **exact**, on
//! every protocol: the holder mask has bit `i` set iff cache `i` holds a
//! frame (valid *or invalid copy*) for the block, and the stale mask has
//! bit `i` set iff that frame is an invalid copy.
//!
//! Two layers enforce this:
//!
//! 1. With the `debug-checks` feature (on by default, and always on for
//!    tests), [`System`] asserts per-transaction exactness of both masks
//!    for the block a transaction touched, and checks that every invalid
//!    copy the snoop loop skipped would have ignored the transaction. So
//!    merely *running* the scripts here sweeps those invariants after every
//!    bus transaction.
//! 2. This test additionally calls the whole-state check
//!    `assert_snoop_filter_exact` after each run, which cross-checks every
//!    block in every cache against both mask maps in both directions
//!    (no extra bits, no missing bits).
//!
//! The masks are word arrays, one 64-bit word per 64 caches, and there is
//! one snoop path at every processor count. Besides small systems, the
//! suite runs a 130-processor script whose processors sit on both sides of
//! each word boundary, and a 256-processor lock run.

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::{Addr, BlockAddr, ProcId, ProcOp, Rng64, Word};
use mcs_sim::{ScriptWorkload, System, SystemConfig};
use mcs_sync::LockSchemeKind;
use mcs_workloads::CriticalSectionWorkload;

/// A random script over the processors in `procs` and a deliberately tight
/// address range (forcing evictions through the 8-block caches below),
/// mixing every access flavor so installs, invalidations, flushes and
/// evictions all exercise the mask maintenance.
fn random_ops(rng: &mut Rng64, procs: &[usize], len: usize) -> Vec<(ProcId, ProcOp)> {
    let mut serial = 0u64;
    (0..len)
        .map(|_| {
            serial += 1;
            let proc = ProcId(procs[rng.gen_range_usize(0..procs.len())]);
            let addr = Addr(rng.gen_range_u64(0..96));
            let op = match rng.gen_range_u64(0..4) {
                0 => ProcOp::read(addr),
                1 => ProcOp::write(addr, Word(serial)),
                2 => ProcOp::rmw(addr, Word(serial)),
                _ => ProcOp::read_for_write(addr),
            };
            (proc, op)
        })
        .collect()
}

fn words_for(kind: ProtocolKind) -> usize {
    if kind.requires_word_blocks() {
        1
    } else {
        4
    }
}

/// Tiny 2-way caches, so the address range forces evictions (the one
/// residency-clearing transition) alongside installs.
fn tiny_cache(kind: ProtocolKind) -> CacheConfig {
    CacheConfig::set_associative(4, 2, words_for(kind)).expect("valid cache")
}

/// Runs one seeded script on one protocol, then applies the whole-state
/// exactness check.
fn run_and_check(kind: ProtocolKind, ops: &[(ProcId, ProcOp)], procs: usize) {
    with_protocol!(kind, p => {
        let cfg = SystemConfig::new(procs).with_cache(tiny_cache(kind));
        let mut sys = System::new(p, cfg).expect("valid system");
        sys.run(&mut ScriptWorkload::new(ops.to_vec()), 2_000_000)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        sys.assert_snoop_filter_exact();
    });
}

/// Holder bitmasks stay exact after every bus transaction across random
/// scripts on all 10 protocols.
#[test]
fn holder_bitmask_exact_after_every_txn() {
    for case in 0..12u64 {
        let mut rng = Rng64::seed_from_u64(0x5F00_B175 ^ case);
        let len = 40 + rng.gen_range_usize(0..160);
        let ops = random_ops(&mut rng, &[0, 1, 2], len);
        for kind in ProtocolKind::ALL {
            run_and_check(kind, &ops, 3);
        }
    }
}

/// One round of [`run_io_rounds`]: a script, then an I/O transfer at a word
/// address (0: input, 1: output, 2: paging output).
type IoRound = (Vec<(ProcId, ProcOp)>, u64, u64);

/// Six random rounds over the processors in `procs`.
fn io_rounds(rng: &mut Rng64, procs: &[usize]) -> Vec<IoRound> {
    (0..6)
        .map(|_| {
            let len = 10 + rng.gen_range_usize(0..30);
            (random_ops(rng, procs, len), rng.gen_range_u64(0..96), rng.gen_range_u64(0..3))
        })
        .collect()
}

/// Runs `rounds` on a `procs`-processor system of every protocol, checking
/// both masks over the whole state after each I/O transfer.
fn run_io_rounds(procs: usize, rounds: &[IoRound]) {
    for kind in ProtocolKind::ALL {
        let words = words_for(kind);
        with_protocol!(kind, p => {
            let cfg = SystemConfig::new(procs).with_cache(tiny_cache(kind));
            let mut sys = System::new(p, cfg).expect("valid system");
            for (round, (ops, word, io)) in rounds.iter().enumerate() {
                sys.run(&mut ScriptWorkload::new(ops.clone()), 2_000_000)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
                let block = BlockAddr(word / words as u64);
                let io_result = match io {
                    0 => sys.io_input(block, &vec![Word(1000 + round as u64); words]),
                    1 => sys.io_output(block, false).map(drop),
                    // A paged-out block is paged straight back in: its
                    // memory copy is dead until then.
                    _ => sys.io_output(block, true).and_then(|data| sys.io_input(block, &data)),
                };
                io_result.unwrap_or_else(|e| panic!("{kind} I/O: {e}"));
                sys.assert_snoop_filter_exact();
            }
        });
    }
}

/// I/O input and output snoop through the same filter as processor
/// transactions: random scripts interleaved with I/O transfers keep both
/// masks exact on every protocol.
#[test]
fn masks_exact_across_io_transfers() {
    for case in 0..6u64 {
        let mut rng = Rng64::seed_from_u64(0x10_F117E5 ^ case);
        run_io_rounds(3, &io_rounds(&mut rng, &[0, 1, 2]));
    }
}

/// At 130 processors each mask spans three words. Scripts from processors
/// on both sides of every word boundary, with I/O transfers between them,
/// keep every word exact on every protocol.
#[test]
fn masks_exact_across_word_boundaries_at_130_processors() {
    const PROCS: [usize; 7] = [0, 63, 64, 65, 127, 128, 129];
    for case in 0..3u64 {
        let mut rng = Rng64::seed_from_u64(0x130_B0DE ^ case);
        run_io_rounds(130, &io_rounds(&mut rng, &PROCS));
    }
}

fn lock_workload(
    kind: ProtocolKind,
    scheme: LockSchemeKind,
    iterations: usize,
) -> CriticalSectionWorkload {
    CriticalSectionWorkload::builder()
        .scheme(scheme)
        .words_per_block(words_for(kind))
        .locks(2)
        .payload_blocks(2)
        .payload_reads(3)
        .payload_writes(3)
        .think_cycles(5)
        .iterations(iterations)
        .build()
}

/// Contended critical sections (lock traffic, busy-wait broadcasts,
/// unlock-wakeups) also preserve mask exactness on every protocol.
#[test]
fn holder_bitmask_exact_under_lock_contention() {
    for kind in ProtocolKind::ALL {
        with_protocol!(kind, p => {
            let mut w = lock_workload(kind, LockSchemeKind::paired_with(&p), 5);
            let cfg = SystemConfig::new(4).with_cache(tiny_cache(kind));
            let mut sys = System::new(p, cfg).expect("valid system");
            sys.run(&mut w, 2_000_000).unwrap_or_else(|e| panic!("{kind}: {e}"));
            sys.assert_snoop_filter_exact();
        });
    }
}

/// The paper's cache-state lock at 256 processors, four mask words: every
/// processor passes the lock once, and both masks end exact.
#[test]
fn cache_lock_completes_with_exact_masks_at_256_processors() {
    let kind = ProtocolKind::BitarDespain;
    let mut w = lock_workload(kind, LockSchemeKind::CacheLock, 1);
    let cfg = SystemConfig::new(256).with_cache(tiny_cache(kind));
    let mut sys = System::new(mcs_core::BitarDespain, cfg).expect("valid system");
    let report = sys.run(&mut w, 20_000_000).expect("healthy run");
    assert!(report.completed, "256 processors must all finish");
    assert!(report.stats.locks.acquires >= 256, "every processor takes the lock");
    sys.assert_snoop_filter_exact();
}
