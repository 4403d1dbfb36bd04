//! The Xerox **Dragon** protocol (McCreight 1984) — Section D.1; Table 2,
//! "Write-In/Write-Through Schemes".
//!
//! Write-through **to other caches** for actively shared data, write-in for
//! unshared data. A block is *shared* if it currently resides in more than
//! one cache, determined dynamically from the bus hit line. A write to a
//! shared block broadcasts a one-word update to the other caches (but not
//! to memory — the writer becomes *shared-modified* and owns the flush
//! responsibility); a write to an exclusive block is purely local.

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, Privilege, ProcAction, Protocol,
    SnoopOutcome, SnoopReply, SnoopSummary,
};

line_states! {
    /// Cache-line states of the Dragon protocol.
    pub enum DragonState {
        /// Meaningless.
        Invalid = "I",
        /// Exclusive clean: sole copy, memory current.
        Exclusive = "E" (Write),
        /// Shared clean: other copies may exist; writes broadcast updates.
        SharedClean = "Sc" (Read),
        /// Shared modified: other copies may exist; this cache owns the dirty
        /// data (supplies it and flushes on eviction).
        SharedModified = "Sm" (Read, source, dirty),
        /// Dirty: modified sole copy.
        Dirty = "D" (Write, source, dirty),
    }
}

/// The Dragon update protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct Dragon;

use DragonState as S;

impl Protocol for Dragon {
    type State = DragonState;

    fn name(&self) -> &'static str {
        "Dragon (McCreight 1984)"
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
            // Write / UnlockWrite / Rmw: update path for shared lines.
            _ => match state {
                S::Exclusive | S::Dirty => ProcAction::Hit { next: S::Dirty },
                S::SharedClean | S::SharedModified => {
                    ProcAction::Bus { op: BusOp::UpdateWord { to_memory: false } }
                }
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
                // The owner supplies dirty data; everyone downgrades to
                // shared.
                S::Dirty | S::SharedModified => SnoopOutcome {
                    next: S::SharedModified,
                    reply: SnoopReply {
                        hit: true,
                        source: true,
                        dirty_status: Some(true),
                        supplies_data: true,
                        inhibit_memory: true,
                        ..Default::default()
                    },
                },
                _ => SnoopOutcome {
                    next: S::SharedClean,
                    reply: SnoopReply { hit: true, ..Default::default() },
                },
            },
            // A word update: our copy is refreshed in place by the engine;
            // the writer becomes the modified owner, we drop to clean.
            BusOp::UpdateWord { .. } => SnoopOutcome {
                next: S::SharedClean,
                reply: SnoopReply { hit: true, ..Default::default() },
            },
            BusOp::ClaimNoFetch | BusOp::IoInput | BusOp::MemoryRmw => SnoopOutcome {
                next: S::Invalid,
                reply: SnoopReply { hit: true, ..Default::default() },
            },
            BusOp::IoOutput { paging: true } => match state {
                S::Dirty | S::SharedModified => SnoopOutcome {
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
                let landed = if summary.any_hit { S::SharedClean } else { S::Exclusive };
                if kind.is_write() {
                    // Write miss: fetch first, then re-present the write
                    // (which becomes an update if shared, local if not).
                    CompleteOutcome::InstalledRetryOp { next: landed }
                } else {
                    CompleteOutcome::Installed { next: landed }
                }
            }
            BusOp::UpdateWord { .. } => {
                // Still shared? The hit line tells us.
                let next = if summary.any_hit { S::SharedModified } else { S::Dirty };
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

    fn sys(n: usize) -> System<Dragon> {
        System::new(Dragon, SystemConfig::new(n)).unwrap()
    }

    #[test]
    fn shared_write_updates_other_copies_in_place() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(0))),
            (ProcId(0), ProcOp::write(Addr(0), Word(42))),
            (ProcId(1), ProcOp::read(Addr(0))), // still a HIT: copy was updated
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[3].2.value, Some(Word(42)));
        assert!(script.results()[3].2.hit, "updated copy must still hit");
        assert_eq!(stats.bus.invalidations, 0);
        assert_eq!(stats.bus.updates, 1);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::SharedModified);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::SharedClean);
    }

    #[test]
    fn unshared_write_is_local() {
        let mut s = sys(2);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(4))), // alone -> Exclusive
                (ProcId(0), ProcOp::write(Addr(4), Word(1))),
                (ProcId(0), ProcOp::write(Addr(4), Word(2))),
            ]), 10_000).unwrap().stats;
        assert_eq!(stats.bus.count("update-word"), 0);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(1)), S::Dirty);
    }

    #[test]
    fn every_shared_write_takes_the_bus() {
        // The cost Section D.2 analyses: k writes to a shared block = k
        // bus updates.
        let mut s = sys(2);
        let mut script = vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(0))),
        ];
        for i in 0..10 {
            script.push((ProcId(0), ProcOp::write(Addr(0), Word(i))));
        }
        let stats = s.run(&mut ScriptWorkload::new(script), 100_000).unwrap().stats;
        assert_eq!(stats.bus.count("update-word"), 10);
    }

    #[test]
    fn write_miss_to_shared_block_fetches_then_updates() {
        let mut s = sys(3);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(8))),
                (ProcId(1), ProcOp::read(Addr(8))),
                (ProcId(2), ProcOp::write(Addr(8), Word(5))),
            ]), 10_000).unwrap().stats;
        // Fetch + update, no invalidations.
        assert_eq!(stats.bus.count("update-word"), 1);
        assert_eq!(stats.bus.invalidations, 0);
        assert_eq!(s.state_of(CacheId(2), BlockAddr(2)), S::SharedModified);
        // Sharers see the new value without refetching.
        let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(8)))]);
        s.run(&mut script, 10_000).unwrap();
        assert!(script.results()[0].2.hit);
        assert_eq!(script.results()[0].2.value, Some(Word(5)));
    }

    #[test]
    fn owner_supplies_dirty_data_without_flush() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(12))),
            (ProcId(0), ProcOp::write(Addr(12), Word(9))), // Dirty
            (ProcId(1), ProcOp::read(Addr(12))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[2].2.value, Some(Word(9)));
        assert_eq!(stats.sources.from_cache, 1);
        assert_eq!(stats.sources.flushes, 0);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(3)), S::SharedModified);
    }

    #[test]
    fn update_writer_regains_exclusivity_when_alone() {
        use mcs_cache::CacheConfig;
        // C1's copy is evicted; C0's next shared write sees no hit and
        // becomes Dirty (write-in again) — the dynamic part of the scheme.
        let config =
            SystemConfig::new(2).with_cache(CacheConfig::fully_associative(1, 4).unwrap());
        let mut s = System::new(Dragon, config).unwrap();
        s.run(&mut ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(4))), // evicts C1's block 0
            (ProcId(0), ProcOp::write(Addr(0), Word(1))), // update sees no hit
        ]), 10_000)
        .unwrap();
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Dirty);
    }
}
