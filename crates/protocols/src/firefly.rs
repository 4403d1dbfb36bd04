//! The DEC **Firefly** protocol (reported by Archibald & Baer) — Section
//! D.1; Table 2, "Write-In/Write-Through Schemes".
//!
//! Like Dragon, write-through for actively shared data and write-in
//! otherwise, with sharing determined dynamically by the bus hit line. The
//! difference: Firefly's shared-write updates **main memory as well as the
//! other caches**, so shared blocks are always clean and there is no
//! shared-modified state.

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, Privilege, ProcAction, Protocol,
    SnoopOutcome, SnoopReply, SnoopSummary,
};

line_states! {
    /// Cache-line states of the Firefly protocol.
    pub enum FireflyState {
        /// Meaningless.
        Invalid = "I",
        /// Exclusive clean.
        Exclusive = "E" (Write),
        /// Shared (always clean: shared writes go through to memory).
        Shared = "S" (Read),
        /// Dirty: modified sole copy.
        Dirty = "D" (Write, source, dirty),
    }
}

/// The Firefly update protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct Firefly;

use FireflyState as S;

impl Protocol for Firefly {
    type State = FireflyState;

    fn name(&self) -> &'static str {
        "Firefly (DEC)"
    }

    fn proc_access(&self, state: S, kind: AccessKind) -> ProcAction<S> {
        use AccessKind::*;
        match kind {
            Read | ReadForWrite | LockRead => match state {
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
                },
                s => ProcAction::Hit { next: s },
            },
            WriteNoFetch => ProcAction::Bus { op: BusOp::ClaimNoFetch },
            _ => match state {
                S::Exclusive | S::Dirty => ProcAction::Hit { next: S::Dirty },
                S::Shared => ProcAction::Bus { op: BusOp::UpdateWord { to_memory: true } },
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
                },
            },
        }
    }

    fn snoop(&self, state: S, txn: &BusTxn) -> SnoopOutcome<S> {
        if state == S::Invalid {
            return SnoopOutcome::ignore(state);
        }
        match txn.op {
            BusOp::Fetch { .. } | BusOp::IoOutput { paging: false } => match state {
                // The dirty owner supplies and memory is updated in the
                // same transfer; everyone ends up Shared and clean.
                S::Dirty => SnoopOutcome {
                    next: S::Shared,
                    reply: SnoopReply {
                        hit: true,
                        source: true,
                        dirty_status: Some(true),
                        supplies_data: true,
                        inhibit_memory: true,
                        flushes: true,
                        ..Default::default()
                    },
                },
                _ => SnoopOutcome {
                    next: S::Shared,
                    reply: SnoopReply { hit: true, ..Default::default() },
                },
            },
            BusOp::UpdateWord { .. } => SnoopOutcome {
                next: S::Shared,
                reply: SnoopReply { hit: true, ..Default::default() },
            },
            BusOp::ClaimNoFetch | BusOp::IoInput | BusOp::MemoryRmw => SnoopOutcome {
                next: S::Invalid,
                reply: SnoopReply { hit: true, ..Default::default() },
            },
            BusOp::IoOutput { paging: true } => match state {
                S::Dirty => SnoopOutcome {
                    next: S::Invalid,
                    reply: SnoopReply {
                        hit: true,
                        supplies_data: true,
                        inhibit_memory: true,
                        flushes: true,
                        ..Default::default()
                    },
                },
                _ => SnoopOutcome {
                    next: S::Invalid,
                    reply: SnoopReply { hit: true, ..Default::default() },
                },
            },
            _ => SnoopOutcome::ignore(state),
        }
    }

    fn complete(
        &self,
        state: S,
        kind: AccessKind,
        txn: &BusTxn,
        summary: &SnoopSummary,
    ) -> CompleteOutcome<S> {
        match txn.op {
            BusOp::Fetch { .. } => {
                let landed = if summary.any_hit { S::Shared } else { S::Exclusive };
                if kind.is_write() {
                    CompleteOutcome::InstalledRetryOp { next: landed }
                } else {
                    CompleteOutcome::Installed { next: landed }
                }
            }
            BusOp::UpdateWord { .. } => {
                // Memory was updated too, so even regaining exclusivity the
                // block is clean.
                let next = if summary.any_hit { S::Shared } else { S::Exclusive };
                CompleteOutcome::Installed { next }
            }
            BusOp::ClaimNoFetch => CompleteOutcome::Installed { next: S::Dirty },
            _ => CompleteOutcome::Installed { next: state },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{Addr, BlockAddr, CacheId, ProcId, ProcOp, Word};
    use mcs_sim::{ScriptWorkload, System, SystemConfig};

    fn sys(n: usize) -> System<Firefly> {
        System::new(Firefly, SystemConfig::new(n)).unwrap()
    }

    #[test]
    fn shared_write_updates_caches_and_memory() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(0))),
            (ProcId(0), ProcOp::write(Addr(0), Word(7))),
            (ProcId(1), ProcOp::read(Addr(0))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert!(script.results()[3].2.hit);
        assert_eq!(script.results()[3].2.value, Some(Word(7)));
        assert_eq!(stats.bus.count("update-word-mem"), 1);
        // Shared stays clean: both copies Shared, writer did not dirty it.
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Shared);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Shared);
    }

    #[test]
    fn shared_writes_stay_clean_so_eviction_is_silent() {
        let mut s = sys(2);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(0))),
                (ProcId(1), ProcOp::read(Addr(0))),
                (ProcId(0), ProcOp::write(Addr(0), Word(1))),
            ]), 10_000).unwrap().stats;
        assert_eq!(stats.sources.flushes, 0);
        // Memory already has the value.
        let data = s.io_output(BlockAddr(0), false).unwrap();
        assert_eq!(data[0], Word(1));
    }

    #[test]
    fn exclusive_writes_are_local_and_dirty() {
        let mut s = sys(1);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(4))),
                (ProcId(0), ProcOp::write(Addr(4), Word(1))),
                (ProcId(0), ProcOp::write(Addr(4), Word(2))),
            ]), 10_000).unwrap().stats;
        assert_eq!(stats.bus.count("update-word-mem"), 0);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(1)), S::Dirty);
    }

    #[test]
    fn dirty_transfer_flushes_and_shares() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(8))),
            (ProcId(0), ProcOp::write(Addr(8), Word(3))), // Dirty
            (ProcId(1), ProcOp::read(Addr(8))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[2].2.value, Some(Word(3)));
        assert!(stats.sources.flushes >= 1);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(2)), S::Shared);
    }

    #[test]
    fn update_regains_clean_exclusivity_when_alone() {
        use mcs_cache::CacheConfig;
        let config =
            SystemConfig::new(2).with_cache(CacheConfig::fully_associative(1, 4).unwrap());
        let mut s = System::new(Firefly, config).unwrap();
        s.run(&mut ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(4))), // evict C1's copy
            (ProcId(0), ProcOp::write(Addr(0), Word(1))),
        ]), 10_000)
        .unwrap();
        // Firefly lands Exclusive (clean) — memory was written through.
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Exclusive);
    }
}
