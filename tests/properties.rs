//! Property-style tests (seeded random generation): arbitrary operation
//! sequences preserve the coherence oracles on every protocol; structural
//! invariants of the cache and the busy-wait register hold for arbitrary
//! inputs.
//!
//! These were originally proptest properties; the workspace now builds
//! fully offline, so the same invariants are exercised over many fixed
//! seeds with the in-tree [`Rng64`] generator. Failures print the seed so
//! a case can be replayed exactly.

use mcs::cache::{BusyWaitRegister, BwPhase, Cache, CacheConfig};
use mcs::core::{with_protocol, ProtocolKind};
use mcs::model::{
    Addr, BlockAddr, LineState, Privilege, ProcId, ProcOp, Rng64, StateDescriptor, Word,
};
use mcs::sim::{ScriptWorkload, System, SystemConfig};

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
/// appears at most once, and lookups always return the inserted tag.
#[test]
fn cache_structure_invariants() {
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Tiny(bool);
    impl std::fmt::Display for Tiny {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(self.name())
        }
    }
    impl LineState for Tiny {
        fn invalid() -> Self {
            Tiny(false)
        }
        fn descriptor(&self) -> StateDescriptor {
            if self.0 {
                StateDescriptor {
                    privilege: Some(Privilege::Read),
                    source: false,
                    dirty: false,
                    waiter: false,
                }
            } else {
                StateDescriptor::INVALID
            }
        }
        fn all() -> &'static [Self] {
            &[Tiny(false), Tiny(true)]
        }
        fn name(&self) -> &'static str {
            if self.0 {
                "V"
            } else {
                "I"
            }
        }
    }

    for case in 0..16u64 {
        let mut rng = Rng64::seed_from_u64(0xCAC4E ^ case);
        let len = 1 + rng.gen_range_usize(0..199);
        let config = CacheConfig::set_associative(4, 2, 4).unwrap();
        let mut cache: Cache<Tiny> = Cache::new(config);
        for _ in 0..len {
            let b = rng.gen_range_u64(0..64);
            cache.ensure_frame(BlockAddr(b)).unwrap();
            assert!(cache.set_state(BlockAddr(b), Tiny(true)));
            assert!(cache.resident() <= 8, "case {case}");
            assert_eq!(cache.lookup(BlockAddr(b)).map(|l| l.tag), Some(BlockAddr(b)));
        }
        // No duplicate tags.
        let mut tags: Vec<_> = cache.lines().map(|l| l.tag).collect();
        let before = tags.len();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), before, "case {case}: duplicate tags");
    }
}

/// The busy-wait register never wants the bus unless it was armed and
/// saw the matching unlock, and relocks always return it to armed.
#[test]
fn busy_wait_register_protocol() {
    for case in 0..32u64 {
        let mut rng = Rng64::seed_from_u64(0xB5_1A17 ^ case);
        let len = rng.gen_range_usize(0..60);
        let mut reg = BusyWaitRegister::new();
        let mut armed_on: Option<BlockAddr> = None;
        let mut woken = false;
        for step in 0..len {
            let kind = rng.gen_range_u64(0..4);
            let block = BlockAddr(rng.gen_range_u64(0..4));
            match kind {
                0 => {
                    reg.arm(block);
                    armed_on = Some(block);
                    woken = false;
                }
                1 => {
                    let was = reg.observe_unlock(block);
                    if was {
                        assert_eq!(armed_on, Some(block), "case {case} step {step}");
                        woken = true;
                    }
                }
                2 => {
                    reg.observe_relock(block);
                    if woken && armed_on == Some(block) {
                        woken = false;
                    }
                }
                _ => {
                    reg.disarm();
                    armed_on = None;
                    woken = false;
                }
            }
            assert_eq!(
                reg.wants_bus(),
                woken && armed_on.is_some(),
                "case {case} step {step}"
            );
            match reg.phase() {
                BwPhase::Idle => assert!(armed_on.is_none(), "case {case} step {step}"),
                BwPhase::Armed | BwPhase::Woken => {
                    assert!(armed_on.is_some(), "case {case} step {step}")
                }
            }
        }
    }
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
