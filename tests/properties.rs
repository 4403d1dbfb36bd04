//! Property-style tests (seeded random generation): arbitrary operation
//! sequences preserve the coherence oracles on every protocol; structural
//! invariants of the cache hold for arbitrary inputs; the engine's
//! busy-wait register keeps its protocol on seeded lock workloads.
//!
//! These were originally proptest properties; the workspace now builds
//! fully offline, so the same invariants are exercised over many fixed
//! seeds with the in-tree [`Rng64`] generator. Failures print the seed so
//! a case can be replayed exactly.

use mcs::cache::{Cache, CacheConfig};
use mcs::core::{with_protocol, BitarDespain, ProtocolKind};
use mcs::model::{
    line_states, Addr, BlockAddr, BusOp, CacheId, Event, LineState, Privilege, ProcId, ProcOp,
    Rng64, Word,
};
use mcs::sim::{ScriptWorkload, System, SystemConfig};
use mcs::sync::LockSchemeKind;
use mcs::workloads::CriticalSectionWorkload;
use std::collections::HashSet;

/// Generates a random script of `len` ops over 3 processors and a small
/// address range, mixing reads, writes, RMWs and read-for-writes.
fn random_ops(rng: &mut Rng64, len: usize) -> Vec<(ProcId, ProcOp)> {
    let mut serial = 0u64;
    (0..len)
        .map(|_| {
            serial += 1;
            let proc = ProcId(rng.gen_range_usize(0..3));
            let addr = Addr(rng.gen_range_u64(0..24));
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

/// The coherence oracle holds for arbitrary op sequences on every
/// protocol (the engine checks latest-version reads, single writer and
/// single source on every commit).
#[test]
fn arbitrary_sequences_stay_coherent() {
    for case in 0..24u64 {
        let mut rng = Rng64::seed_from_u64(0x5EC ^ case);
        let len = 1 + rng.gen_range_usize(0..119);
        let ops = random_ops(&mut rng, len);
        for kind in ProtocolKind::ALL {
            let words = if kind.requires_word_blocks() { 1 } else { 4 };
            let script = ops.clone();
            with_protocol!(kind, p => {
                let cache = CacheConfig::fully_associative(16, words).unwrap();
                let mut sys = System::new(p, SystemConfig::new(3).with_cache(cache)).unwrap();
                sys.run(&mut ScriptWorkload::new(script), 2_000_000)
                    .unwrap_or_else(|e| panic!("case {case}, {kind}: {e}"));
            });
        }
    }
}

/// Determinism: the same script yields identical statistics.
#[test]
fn runs_are_deterministic() {
    for case in 0..12u64 {
        let mut rng = Rng64::seed_from_u64(0xD7E ^ case);
        let len = 1 + rng.gen_range_usize(0..59);
        let ops = random_ops(&mut rng, len);
        for kind in [ProtocolKind::BitarDespain, ProtocolKind::Dragon] {
            let words = if kind.requires_word_blocks() { 1 } else { 4 };
            let stats = |script: Vec<(ProcId, ProcOp)>| with_protocol!(kind, p => {
                let cache = CacheConfig::fully_associative(16, words).unwrap();
                let mut sys = System::new(p, SystemConfig::new(3).with_cache(cache)).unwrap();
                sys.run(&mut ScriptWorkload::new(script), 2_000_000).unwrap().stats
            });
            assert_eq!(stats(ops.clone()), stats(ops.clone()), "case {case}, {kind}");
        }
    }
}

/// Cache structural invariants: residency never exceeds capacity, a tag
/// appears at most once, and the inserted block is always resident in the
/// state just written.
#[test]
fn cache_structure_invariants() {
    line_states! {
        enum Tiny {
            Invalid = "I",
            Valid = "V" (Read),
        }
    }

    for case in 0..16u64 {
        let mut rng = Rng64::seed_from_u64(0xCAC4E ^ case);
        let len = 1 + rng.gen_range_usize(0..199);
        let config = CacheConfig::set_associative(4, 2, 4).unwrap();
        let mut cache: Cache<Tiny> = Cache::new(config);
        for _ in 0..len {
            let b = rng.gen_range_u64(0..64);
            cache.ensure_frame_with(BlockAddr(b), false, &mut Vec::new()).unwrap();
            assert!(cache.set_state(BlockAddr(b), Tiny::Valid));
            assert!(cache.resident() <= 8, "case {case}");
            assert!(cache.is_resident(BlockAddr(b)), "case {case}");
            assert_eq!(cache.state_of(BlockAddr(b)), Tiny::Valid, "case {case}");
        }
        // No duplicate tags.
        let mut tags: Vec<_> = cache.lines().collect();
        let before = tags.len();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), before, "case {case}: duplicate tags");
    }
}

/// The busy-wait register's contract (Section E.4), read off the trace of
/// seeded cache-lock runs on Bitar-Despain: a register wakes only when it
/// is armed on the block and that block's unlock broadcast went out in the
/// same cycle; every high-priority transaction comes from a woken
/// register, on its block; and a woken register that lost the race to
/// another cache's lock fetch stays off the bus until it is woken again.
#[test]
fn busy_wait_register_protocol() {
    /// What the trace says cache `c`'s register is doing.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Reg {
        Idle,
        Armed(BlockAddr),
        Woken(BlockAddr),
    }
    let (mut wakes, mut lost, mut hi_grants) = (0u64, 0u64, 0u64);
    for case in 0..24u64 {
        let mut rng = Rng64::seed_from_u64(0xB5_1A17 ^ case);
        let procs = rng.gen_range_usize(2..9);
        let mut builder = CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::CacheLock)
            .words_per_block(4)
            .locks(rng.gen_range_usize(1..3))
            .payload_blocks(rng.gen_range_usize(1..4))
            .payload_reads(rng.gen_range_usize(0..3))
            .payload_writes(rng.gen_range_usize(0..3))
            .think_cycles(rng.gen_range_u64(0..40))
            .iterations(rng.gen_range_usize(2..6));
        if rng.gen_range_u64(0..2) == 0 {
            builder = builder.work_while_waiting(rng.gen_range_u64(1..30));
        }
        // Every third case runs in a 2-set direct-mapped cache, where
        // locked blocks spill their lock bits to memory.
        let cache = if case % 3 == 2 {
            CacheConfig::set_associative(2, 1, 4).unwrap()
        } else {
            CacheConfig::fully_associative(64, 4).unwrap()
        };
        let cfg = SystemConfig::new(procs).with_cache(cache).with_trace(true);
        let mut sys = System::new(BitarDespain, cfg).unwrap();
        let report = sys.run(&mut builder.build(), 5_000_000).unwrap();
        assert!(report.completed, "case {case}");

        let trace = sys.trace();
        let unlocks: HashSet<(u64, BlockAddr)> = trace
            .iter()
            .filter_map(|(t, e)| match e {
                Event::Bus { txn, .. } if txn.op == BusOp::UnlockBroadcast => Some((*t, txn.block)),
                _ => None,
            })
            .collect();
        let mut regs = vec![Reg::Idle; procs];
        let grants_before = hi_grants;
        for (t, event) in trace.iter() {
            match *event {
                Event::WaiterArmed { cache, block } => {
                    assert_eq!(regs[cache.0], Reg::Idle, "case {case} cycle {t}: {event}");
                    regs[cache.0] = Reg::Armed(block);
                }
                Event::WaiterWoken { cache, block } => {
                    assert_eq!(regs[cache.0], Reg::Armed(block), "case {case} cycle {t}: {event}");
                    assert!(unlocks.contains(&(*t, block)), "case {case} cycle {t}: {event}: no unlock broadcast");
                    regs[cache.0] = Reg::Woken(block);
                    wakes += 1;
                }
                Event::WaiterTimeout { cache, block, .. } => {
                    assert_eq!(regs[cache.0], Reg::Armed(block), "case {case} cycle {t}: {event}");
                    regs[cache.0] = Reg::Idle;
                }
                Event::Bus { txn, .. } => {
                    let Some(CacheId(r)) = txn.requester.cache() else { continue };
                    if txn.high_priority {
                        assert_eq!(regs[r], Reg::Woken(txn.block), "case {case} cycle {t}: {event}");
                        regs[r] = Reg::Idle;
                        hi_grants += 1;
                    }
                    // Another cache's lock fetch of the block: the woken
                    // losers go back to sleep.
                    if let BusOp::Fetch { privilege: Privilege::Lock, .. } = txn.op {
                        for (c, reg) in regs.iter_mut().enumerate() {
                            if c != r && *reg == Reg::Woken(txn.block) {
                                *reg = Reg::Armed(txn.block);
                                lost += 1;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        let grants = report.stats.bus.high_priority_grants;
        assert_eq!(hi_grants - grants_before, grants, "case {case}");
    }
    assert!(wakes > 0 && lost > 0 && hi_grants > 0, "{wakes} wakes, {lost} lost, {hi_grants} grants");
}

/// Every protocol's proc_access is total and consistent: a Hit is only
/// ever returned from a state that can satisfy the access locally.
#[test]
fn proc_access_hits_require_privilege() {
    use mcs::model::{AccessKind, ProcAction, Protocol};
    for kind in ProtocolKind::ALL {
        with_protocol!(kind, p => {
            fn states_of<P: Protocol>(_: &P) -> &'static [P::State] {
                <P::State as LineState>::all()
            }
            for &state in states_of(&p) {
                for access in [
                    AccessKind::Read,
                    AccessKind::Write,
                    AccessKind::ReadForWrite,
                    AccessKind::LockRead,
                    AccessKind::UnlockWrite,
                    AccessKind::Rmw,
                    AccessKind::WriteNoFetch,
                ] {
                    if let ProcAction::Hit { next } = p.proc_access(state, access) {
                        let d = state.descriptor();
                        assert!(d.is_valid(), "{kind}: hit from invalid state on {access}");
                        if access.is_write() {
                            assert!(
                                d.can_write(),
                                "{kind}: write hit without write privilege from {state}"
                            );
                        }
                        // Writes dirty the line or keep a locked/dirty one.
                        let nd = next.descriptor();
                        assert!(nd.is_valid(), "{kind}: hit must stay valid");
                    }
                }
            }
        });
    }
}
