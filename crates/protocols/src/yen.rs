//! The **Yen, Yen & Fu** protocol (1985) — Section F.2; Table 1 column 4.
//!
//! The states are Goodman's (the paper: "The states here are those of
//! Goodman"), but with the explicit bus invalidate signal (Feature 4) and a
//! *static* determination of unshared data: the compiler emits a
//! read-for-write instruction for reads of unshared data, which fetches the
//! block with write privilege on a miss (Feature 5 = S), landing it in the
//! non-source clean write state.

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, Privilege, ProcAction, Protocol,
    SnoopOutcome, SnoopReply, SnoopSummary,
};

line_states! {
    /// Cache-line states of the Yen-Yen-Fu protocol.
    pub enum YenState {
        /// Meaningless.
        Invalid = "I",
        /// Valid: clean, potentially shared, read privilege.
        Valid = "V" (Read),
        /// Write-clean: exclusive and clean (entered by a read-for-write miss);
        /// **non-source** — memory stays current and services requests.
        WriteClean = "WC" (Write),
        /// Dirty: modified sole copy; the source.
        Dirty = "D" (Write, source, dirty),
    }
}

/// The Yen, Yen & Fu protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct Yen;

use YenState as S;

impl Protocol for Yen {
    type State = YenState;

    fn name(&self) -> &'static str {
        "Yen-Yen-Fu 1985"
    }

    fn proc_access(&self, state: S, kind: AccessKind) -> ProcAction<S> {
        use AccessKind::*;
        match kind {
            Read | LockRead => match state {
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
                },
                s => ProcAction::Hit { next: s },
            },
            // The static read-for-write instruction: only affects misses.
            ReadForWrite => match state {
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Write, need_data: true },
                },
                s => ProcAction::Hit { next: s },
            },
            // Sole-access copies serialize the RMW locally; memory would
            // be stale for a Dirty block.
            Rmw => match state {
                S::WriteClean | S::Dirty => ProcAction::Hit { next: S::Dirty },
                _ => ProcAction::Bus { op: BusOp::MemoryRmw },
            },
            _ => match state {
                S::Dirty => ProcAction::Hit { next: S::Dirty },
                S::WriteClean => ProcAction::Hit { next: S::Dirty },
                S::Valid => ProcAction::Bus { op: BusOp::Invalidate },
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
            BusOp::Fetch { privilege: Privilege::Read, .. } | BusOp::IoOutput { paging: false } => {
                match state {
                    S::Dirty => SnoopOutcome {
                        next: S::Valid,
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
                    // Write-clean is non-source and clean: memory supplies.
                    _ => SnoopOutcome {
                        next: S::Valid,
                        reply: SnoopReply { hit: true, ..Default::default() },
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
                    reply: SnoopReply { hit: true, ..Default::default() },
                },
            },
            // As for Goodman: copies are refreshed in place by the engine,
            // dirty data flushes first, exclusivity is lost.
            BusOp::MemoryRmw => SnoopOutcome {
                next: S::Valid,
                reply: SnoopReply { hit: true, flushes: state == S::Dirty, ..Default::default() },
            },
            BusOp::Invalidate | BusOp::ClaimNoFetch | BusOp::IoInput => SnoopOutcome {
                next: S::Invalid,
                reply: SnoopReply { hit: true, ..Default::default() },
            },
            _ => SnoopOutcome::ignore(state),
        }
    }

    fn complete(
        &self,
        state: S,
        kind: AccessKind,
        txn: &BusTxn,
        _summary: &SnoopSummary,
    ) -> CompleteOutcome<S> {
        let next = match txn.op {
            BusOp::Fetch { privilege: Privilege::Read, .. } => S::Valid,
            BusOp::Fetch { .. } => {
                // A read-for-write miss lands clean; a write miss dirty.
                if kind == AccessKind::ReadForWrite {
                    S::WriteClean
                } else {
                    S::Dirty
                }
            }
            BusOp::Invalidate => S::Dirty,
            BusOp::MemoryRmw => S::Invalid,
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

    fn sys(n: usize) -> System<Yen> {
        System::new(Yen, SystemConfig::new(n)).unwrap()
    }

    #[test]
    fn plain_read_miss_is_shared_not_exclusive() {
        let mut s = sys(1);
        s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]), 10_000).unwrap();
        // Static determination: a plain read never gets write privilege.
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Valid);
    }

    #[test]
    fn read_for_write_miss_gets_write_clean() {
        let mut s = sys(1);
        s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::read_for_write(Addr(0)))]), 10_000)
            .unwrap();
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::WriteClean);
        // Subsequent write is silent (no additional bus transactions).
        let txns_before = s.stats().bus.txns;
        s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::write(Addr(0), Word(1)))]), 10_000)
            .unwrap();
        assert_eq!(s.stats().bus.txns, txns_before);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Dirty);
    }

    #[test]
    fn read_for_write_only_affects_misses() {
        let mut s = sys(2);
        s.run(&mut ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(0), ProcOp::read_for_write(Addr(0))), // hit: no effect
        ]), 10_000)
        .unwrap();
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Valid);
    }

    #[test]
    fn write_clean_not_source_memory_supplies() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read_for_write(Addr(4))),
            (ProcId(1), ProcOp::read(Addr(4))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[1].2.value, Some(Word(0)));
        assert_eq!(stats.sources.from_cache, 0);
        assert_eq!(stats.sources.from_memory, 2);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(1)), S::Valid);
    }

    #[test]
    fn dirty_block_supplied_and_flushed() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(8), Word(6))),
            (ProcId(1), ProcOp::read(Addr(8))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[1].2.value, Some(Word(6)));
        assert_eq!(stats.sources.from_cache, 1);
        assert!(stats.sources.flushes >= 1);
    }
}
