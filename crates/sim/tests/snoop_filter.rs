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
//! Both the filter-enabled and filter-disabled configurations are covered:
//! the masks are *maintained* whenever `processors <= 64`, regardless of
//! whether lookups consult them, so exactness must hold in both.

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::{Addr, BlockAddr, ProcId, ProcOp, Rng64, Word};
use mcs_sim::{System, SystemConfig};

/// A random script over `procs` processors and a deliberately tight address
/// range (forcing evictions through the 8-block caches below), mixing every
/// access flavor so installs, invalidations, flushes and evictions all
/// exercise the mask maintenance.
fn random_ops(rng: &mut Rng64, procs: usize, len: usize) -> Vec<(ProcId, ProcOp)> {
    let mut serial = 0u64;
    (0..len)
        .map(|_| {
            serial += 1;
            let proc = ProcId(rng.gen_range_usize(0..procs));
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

/// Runs one seeded script on one protocol with the filter enabled or
/// disabled, then applies the whole-state exactness check.
fn run_and_check(kind: ProtocolKind, ops: &[(ProcId, ProcOp)], procs: usize, filter: bool) {
    let words = if kind.requires_word_blocks() { 1 } else { 4 };
    // Tiny 2-way caches so the address range forces evictions (the one
    // residency-clearing transition) alongside installs.
    let cache = CacheConfig::set_associative(4, 2, words).expect("valid cache");
    with_protocol!(kind, p => {
        let cfg = SystemConfig::new(procs).with_cache(cache).with_snoop_filter(filter);
        let mut sys = System::new(p, cfg).expect("valid system");
        sys.run_script(ops.to_vec(), 2_000_000)
            .unwrap_or_else(|e| panic!("{kind} (filter={filter}): {e}"));
        sys.assert_snoop_filter_exact();
    });
}

/// Holder bitmasks stay exact after every bus transaction across random
/// scripts on all 10 protocols, with the snoop filter on and off.
#[test]
fn holder_bitmask_exact_after_every_txn() {
    const PROCS: usize = 3;
    for case in 0..12u64 {
        let mut rng = Rng64::seed_from_u64(0x5F00_B175 ^ case);
        let len = 40 + rng.gen_range_usize(0..160);
        let ops = random_ops(&mut rng, PROCS, len);
        for kind in ProtocolKind::ALL {
            run_and_check(kind, &ops, PROCS, true);
            run_and_check(kind, &ops, PROCS, false);
        }
    }
}

/// I/O input and output snoop through the same filter as processor
/// transactions: random scripts interleaved with I/O transfers keep both
/// masks exact on every protocol, with the filter on and off.
#[test]
fn masks_exact_across_io_transfers() {
    const PROCS: usize = 3;
    for case in 0..6u64 {
        let mut rng = Rng64::seed_from_u64(0x10_F117E5 ^ case);
        // Per round: a script, then an I/O transfer at a word address
        // (0: input, 1: output, 2: paging output).
        let rounds: Vec<_> = (0..6)
            .map(|_| {
                let len = 10 + rng.gen_range_usize(0..30);
                (random_ops(&mut rng, PROCS, len), rng.gen_range_u64(0..96), rng.gen_range_u64(0..3))
            })
            .collect();
        for kind in ProtocolKind::ALL {
            let words = if kind.requires_word_blocks() { 1 } else { 4 };
            let cache = CacheConfig::set_associative(4, 2, words).expect("valid cache");
            for filter in [true, false] {
                with_protocol!(kind, p => {
                    let cfg = SystemConfig::new(PROCS).with_cache(cache).with_snoop_filter(filter);
                    let mut sys = System::new(p, cfg).expect("valid system");
                    for (round, (ops, word, io)) in rounds.iter().enumerate() {
                        sys.run_script(ops.clone(), 2_000_000)
                            .unwrap_or_else(|e| panic!("{kind} (filter={filter}): {e}"));
                        let block = BlockAddr(word / words as u64);
                        let io_result = match io {
                            0 => sys.io_input(block, &vec![Word(1000 + round as u64); words]),
                            1 => sys.io_output(block, false).map(drop),
                            // A paged-out block is paged straight back in:
                            // its memory copy is dead until then.
                            _ => sys.io_output(block, true).and_then(|data| sys.io_input(block, &data)),
                        };
                        io_result.unwrap_or_else(|e| panic!("{kind} (filter={filter}) I/O: {e}"));
                        sys.assert_snoop_filter_exact();
                    }
                });
            }
        }
    }
}

/// Contended critical sections (lock traffic, busy-wait broadcasts,
/// unlock-wakeups) also preserve mask exactness on every protocol.
#[test]
fn holder_bitmask_exact_under_lock_contention() {
    use mcs_sync::LockSchemeKind;
    use mcs_workloads::CriticalSectionWorkload;

    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        let scheme = if kind == ProtocolKind::BitarDespain {
            LockSchemeKind::CacheLock
        } else {
            LockSchemeKind::TestAndSet
        };
        for filter in [true, false] {
            let mut w = CriticalSectionWorkload::builder()
                .scheme(scheme)
                .words_per_block(words)
                .locks(2)
                .payload_blocks(2)
                .payload_reads(3)
                .payload_writes(3)
                .think_cycles(5)
                .iterations(5)
                .build();
            let cache = CacheConfig::set_associative(4, 2, words).expect("valid cache");
            with_protocol!(kind, p => {
                let cfg = SystemConfig::new(4).with_cache(cache).with_snoop_filter(filter);
                let mut sys = System::new(p, cfg).expect("valid system");
                sys.run_workload(&mut w, 2_000_000)
                    .unwrap_or_else(|e| panic!("{kind} (filter={filter}): {e}"));
                sys.assert_snoop_filter_exact();
            });
        }
    }
}
