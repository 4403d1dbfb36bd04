//! The **Illinois** protocol of Papamarcos & Patel (1984) — Section F.2;
//! Table 1 column 3.
//!
//! Properties reproduced:
//!
//! * the clean-exclusive state used for **fetching unshared data for write
//!   privilege on a read miss**, determined *dynamically* from the
//!   open-collector hit line (Features 1 and 5);
//! * if **any** cache has the block, it is fetched from a cache rather than
//!   memory — every valid copy is a potential source, so read-shared blocks
//!   require **source arbitration** before the transfer (Feature 8 = ARB;
//!   the simulator charges `TimingConfig::source_arbitration` when more
//!   than one sharer responds);
//! * dirty blocks are flushed to memory while transferred (Feature 7 = F);
//! * atomic RMW by fetching for sole access and holding the cache
//!   (Feature 6, method 2 variant).

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, Privilege, ProcAction, Protocol,
    RmwMethod, SnoopOutcome, SnoopReply, SnoopSummary,
};

line_states! {
    /// Cache-line states of the Illinois protocol. Under Illinois "if a
    /// cache has a block, it also has source status for the block"
    /// (Section F.2), so every valid state is a source.
    pub enum IllinoisState {
        /// Meaningless.
        Invalid = "I",
        /// Shared: clean, read privilege; a potential (arbitrating) source.
        Shared = "S" (Read, source),
        /// Valid-exclusive: clean, sole copy, write privilege on the cheap.
        Exclusive = "E" (Write, source),
        /// Dirty: modified sole copy.
        Dirty = "D" (Write, source, dirty),
    }
    declares {
        atomic_rmw: Some(RmwMethod::FetchAndHoldCache),
    }
}

/// The Papamarcos & Patel (Illinois / MESI ancestor) protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct Illinois;

use IllinoisState as S;

impl Protocol for Illinois {
    type State = IllinoisState;

    fn name(&self) -> &'static str {
        "Papamarcos-Patel 1984 (Illinois)"
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
            _ => match state {
                S::Dirty => ProcAction::Hit { next: S::Dirty },
                // Silent upgrade: exclusivity means no bus needed.
                S::Exclusive => ProcAction::Hit { next: S::Dirty },
                S::Shared => ProcAction::Bus { op: BusOp::Invalidate },
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Write, need_data: true },
                },
            },
        }
    }

    fn snoop(&self, state: S, txn: &BusTxn) -> SnoopOutcome<S> {
        if state == S::Invalid {
            return SnoopOutcome::ignore(state);
        }
        match txn.op {
            // Every valid copy supplies: clean ones arbitrate among
            // themselves (the engine keeps one winner), a dirty one is
            // flushed while transferred.
            BusOp::Fetch { privilege: Privilege::Read, .. } | BusOp::IoOutput { paging: false } => {
                let dirty = state == S::Dirty;
                SnoopOutcome {
                    next: S::Shared,
                    reply: SnoopReply {
                        hit: true,
                        source: true,
                        dirty_status: Some(dirty),
                        supplies_data: true,
                        inhibit_memory: true,
                        flushes: dirty,
                        ..Default::default()
                    },
                }
            }
            BusOp::Fetch { .. } | BusOp::IoOutput { paging: true } => match state {
                S::Dirty => SnoopOutcome {
                    next: S::Invalid,
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
                    next: S::Invalid,
                    reply: SnoopReply {
                        hit: true,
                        supplies_data: true,
                        inhibit_memory: true,
                        ..Default::default()
                    },
                },
            },
            BusOp::Invalidate | BusOp::ClaimNoFetch | BusOp::IoInput | BusOp::MemoryRmw => {
                SnoopOutcome {
                    next: S::Invalid,
                    reply: SnoopReply { hit: true, ..Default::default() },
                }
            }
            _ => SnoopOutcome::ignore(state),
        }
    }

    fn complete(
        &self,
        state: S,
        _kind: AccessKind,
        txn: &BusTxn,
        summary: &SnoopSummary,
    ) -> CompleteOutcome<S> {
        let next = match txn.op {
            BusOp::Fetch { privilege: Privilege::Read, .. } => {
                // Dynamic sharing determination via the hit line: alone ->
                // Exclusive (write privilege for free), else Shared.
                if summary.any_hit {
                    S::Shared
                } else {
                    S::Exclusive
                }
            }
            BusOp::Fetch { .. } | BusOp::Invalidate => S::Dirty,
            _ => state,
        };
        CompleteOutcome::Installed { next }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{Addr, BlockAddr, CacheId, ProcId, ProcOp, Word};
    use mcs_sim::{ScriptWorkload, System, SystemConfig};

    fn sys(n: usize) -> System<Illinois> {
        System::new(Illinois, SystemConfig::new(n)).unwrap()
    }

    #[test]
    fn lone_read_miss_fetches_exclusive() {
        let mut s = sys(2);
        s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]), 10_000).unwrap();
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Exclusive);
        // Subsequent write is silent (no bus).
        let script = vec![(ProcId(0), ProcOp::write(Addr(0), Word(1)))];
        let stats = s.run(&mut ScriptWorkload::new(script), 10_000).unwrap().stats;
        assert_eq!(stats.bus.count("invalidate"), 0);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Dirty);
    }

    #[test]
    fn second_reader_gets_shared_from_cache_not_memory() {
        let mut s = sys(2);
        let script = vec![(ProcId(0), ProcOp::read(Addr(0))), (ProcId(1), ProcOp::read(Addr(0)))];
        let stats = s.run(&mut ScriptWorkload::new(script), 10_000).unwrap().stats;
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Shared);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Shared);
        // Illinois fetches from a cache whenever one has the block.
        assert_eq!(stats.sources.from_cache, 1);
        assert_eq!(stats.sources.from_memory, 1); // only the first miss
    }

    #[test]
    fn dirty_transfer_flushes_to_memory() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(4), Word(7))),
            (ProcId(1), ProcOp::read(Addr(4))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[1].2.value, Some(Word(7)));
        assert!(stats.sources.flushes >= 1);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(1)), S::Shared);
    }

    #[test]
    fn write_to_shared_invalidates_others() {
        let mut s = sys(3);
        s.run(&mut ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(8))),
            (ProcId(1), ProcOp::read(Addr(8))),
            (ProcId(2), ProcOp::read(Addr(8))),
            (ProcId(1), ProcOp::write(Addr(8), Word(2))),
        ]), 10_000)
        .unwrap();
        assert_eq!(s.state_of(CacheId(0), BlockAddr(2)), S::Invalid);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(2)), S::Dirty);
        assert_eq!(s.state_of(CacheId(2), BlockAddr(2)), S::Invalid);
    }

    #[test]
    fn shared_source_arbitration_slows_transfer() {
        use mcs_model::TimingConfig;
        // With two sharers, the third reader pays source arbitration.
        let timing = TimingConfig { source_arbitration: 5, ..Default::default() };
        let config = SystemConfig::new(3).with_timing(timing);
        let mut s = System::new(Illinois, config).unwrap();
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(0))),
            (ProcId(2), ProcOp::read(Addr(0))),
        ]);
        s.run(&mut script, 10_000).unwrap();
        let single_source = script.results()[1].2.latency; // one potential source
        let multi_source = script.results()[2].2.latency; // two potential sources
        assert_eq!(multi_source, single_source + 5);
    }

    #[test]
    fn rmw_acquires_sole_access() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::rmw(Addr(0), Word(1))),
            (ProcId(1), ProcOp::rmw(Addr(0), Word(1))),
            (ProcId(0), ProcOp::rmw(Addr(0), Word(1))),
        ]);
        s.run(&mut script, 10_000).unwrap();
        assert_eq!(script.results()[0].2.value, Some(Word(0)));
        assert_eq!(script.results()[1].2.value, Some(Word(1)));
        assert_eq!(script.results()[2].2.value, Some(Word(1)));
    }
}
