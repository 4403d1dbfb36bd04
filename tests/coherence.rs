//! Cross-protocol coherence soak: for **every** protocol in the
//! reproduction, randomized concurrent access patterns must satisfy the
//! paper's two requirements (Section C.1), enforced by the simulator's
//! oracles on every commit:
//!
//! * *serialize conflicting accesses* — single writer / single lock holder;
//! * *provide the latest version of the data* — every read sees the latest
//!   serialized write.

use mcs::cache::CacheConfig;
use mcs::core::{with_protocol, ProtocolKind};
use mcs::model::{Addr, ProcId, ProcOp, Rng64, Word};
use mcs::sim::{ScriptWorkload, System, SystemConfig};

/// Builds a random script exercising reads, writes, RMWs and (for the lock
/// protocol) lock pairs, over a small contended address range. A script
/// runs strictly in order, so a processor only ever requests a lock no
/// other processor holds: waiting on a held one would deadlock the script.
fn random_script(
    seed: u64,
    procs: usize,
    ops: usize,
    words_per_block: u64,
    with_locks: bool,
) -> Vec<(ProcId, ProcOp)> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut script = Vec::with_capacity(ops);
    let mut serial = 1u64;
    // Lock blocks live apart from the data blocks.
    let lock_base = 64 * words_per_block;
    let mut held: Vec<Option<Addr>> = vec![None; procs];
    let mut lock: Addr;
    for _ in 0..ops {
        let p = rng.gen_range_usize(0..procs);
        // A processor holding a lock either works inside it or releases.
        if let Some(lock) = held[p] {
            if rng.gen_bool(0.5) {
                serial += 1;
                script.push((ProcId(p), ProcOp::unlock_write(lock, Word(serial))));
                held[p] = None;
            } else {
                serial += 1;
                let inside = Addr(lock.0 + rng.gen_range_u64(1..words_per_block.max(2)));
                script.push((ProcId(p), ProcOp::write(inside, Word(serial))));
            }
            continue;
        }
        let addr = Addr(rng.gen_range_u64(0..24));
        serial += 1;
        let op = match rng.gen_range_u64(0..6) {
            0 | 1 => ProcOp::read(addr),
            2 => ProcOp::write(addr, Word(serial)),
            3 => ProcOp::rmw(addr, Word(serial)),
            4 => ProcOp::read_for_write(addr),
            // The lock is drawn in the guard: a held one falls through to the
            // plain write below, and scripts without locks draw nothing.
            _ if with_locks && rng.gen_bool(0.4) && {
                lock = Addr(lock_base + rng.gen_range_u64(0..2) * words_per_block);
                !held.contains(&Some(lock))
            } => {
                held[p] = Some(lock);
                ProcOp::lock_read(lock)
            }
            _ => ProcOp::write_no_fetch(Addr(32 * words_per_block), Word(serial)),
        };
        script.push((ProcId(p), op));
    }
    // Release any dangling locks.
    for (p, lock) in held.into_iter().enumerate() {
        if let Some(lock) = lock {
            serial += 1;
            script.push((ProcId(p), ProcOp::unlock_write(lock, Word(serial))));
        }
    }
    script
}

#[test]
fn every_protocol_survives_randomized_soak() {
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        let with_locks = kind == ProtocolKind::BitarDespain;
        for seed in 0..4u64 {
            let script = random_script(0xC0FFEE ^ seed, 3, 400, words as u64, with_locks);
            with_protocol!(kind, p => {
                let cache = CacheConfig::fully_associative(32, words).unwrap();
                let mut sys =
                    System::new(p, SystemConfig::new(3).with_cache(cache)).unwrap();
                let mut w = ScriptWorkload::new(script);
                let report = sys
                    .run(&mut w, 1_000_000)
                    .unwrap_or_else(|e| panic!("{kind} seed {seed}: oracle violation: {e}"));
                assert!(report.completed && w.finished(), "{kind} seed {seed}: script stalled");
            });
        }
    }
}

#[test]
fn every_protocol_is_deterministic() {
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        let script = random_script(0xDE7E12, 3, 300, words as u64, false);
        let run = |script: Vec<(ProcId, ProcOp)>| {
            with_protocol!(kind, p => {
                let cache = CacheConfig::fully_associative(32, words).unwrap();
                let mut sys = System::new(p, SystemConfig::new(3).with_cache(cache)).unwrap();
                sys.run(&mut ScriptWorkload::new(script), 1_000_000).unwrap().stats
            })
        };
        assert_eq!(run(script.clone()), run(script), "{kind} must be deterministic");
    }
}

#[test]
fn tiny_caches_with_evictions_stay_coherent() {
    // Two-frame caches: every protocol constantly evicts and writes back.
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        let script = random_script(0xE71C7, 3, 400, words as u64, false);
        with_protocol!(kind, p => {
            let cache = CacheConfig::fully_associative(2, words).unwrap();
            let mut sys = System::new(p, SystemConfig::new(3).with_cache(cache)).unwrap();
            let mut w = ScriptWorkload::new(script);
            let report = sys
                .run(&mut w, 2_000_000)
                .unwrap_or_else(|e| panic!("{kind} with tiny cache: {e}"));
            assert!(report.completed && w.finished(), "{kind} with tiny cache: script stalled");
        });
    }
}

#[test]
fn set_associative_caches_stay_coherent() {
    for kind in [ProtocolKind::BitarDespain, ProtocolKind::Illinois, ProtocolKind::Berkeley] {
        let script = random_script(0x5E7A, 4, 500, 4, false);
        with_protocol!(kind, p => {
            let cache = CacheConfig::set_associative(4, 2, 4).unwrap();
            let mut sys = System::new(p, SystemConfig::new(4).with_cache(cache)).unwrap();
            let mut w = ScriptWorkload::new(script);
            let report = sys
                .run(&mut w, 2_000_000)
                .unwrap_or_else(|e| panic!("{kind} set-associative: {e}"));
            assert!(report.completed && w.finished(), "{kind} set-associative: script stalled");
        });
    }
}

#[test]
fn io_transfers_stay_coherent() {
    use mcs::model::BlockAddr;
    for kind in [ProtocolKind::BitarDespain, ProtocolKind::Illinois, ProtocolKind::Goodman] {
        with_protocol!(kind, p => {
            let mut sys = System::new(p, SystemConfig::new(2)).unwrap();
            sys.run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::write(Addr(0), Word(1))),
                (ProcId(1), ProcOp::read(Addr(4))),
            ]), 100_000)
            .unwrap();
            // Output sees the dirty value; input replaces it everywhere.
            let out = sys.io_output(BlockAddr(0), false).unwrap();
            assert_eq!(out[0], Word(1), "{kind}: I/O output must see the latest version");
            sys.io_input(BlockAddr(0), &[Word(9), Word(9), Word(9), Word(9)]).unwrap();
            let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]);
            sys.run(&mut script, 100_000).unwrap();
            assert_eq!(script.results()[0].2.value, Some(Word(9)), "{kind}: input must invalidate");
        });
    }
}
