//! The classic (pre-1978) write-through scheme (Table 2, "Early Schemes";
//! Section F.1).
//!
//! Identical dual directories; every write goes through to main memory and
//! broadcasts its address so other caches invalidate their copies. As
//! Censier & Feautrier observed, this alone does not serialize conflicting
//! accesses to hard atoms — atomic read-modify-writes must go to the memory
//! module (the requester's own copy is dropped so it re-reads the latest
//! version).

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, DistributedState, Privilege,
    ProcAction, Protocol, SnoopOutcome, SnoopReply, SnoopSummary, UpdateTarget,
};

line_states! {
    /// Cache-line states of the classic write-through scheme.
    pub enum WriteThroughState {
        /// Meaningless.
        Invalid = "I",
        /// A valid (clean, shared-access) copy; memory is always current.
        Valid = "V" (Read),
    }
    // Read validity is the only distributed state.
    declares {
        distributed: DistributedState {
            read: true,
            write: false,
            lock: false,
            dirty: false,
            source: false,
        },
    }
}

/// The classic write-through-with-invalidation-broadcast protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClassicWriteThrough;

use WriteThroughState as S;

impl Protocol for ClassicWriteThrough {
    type State = WriteThroughState;

    fn name(&self) -> &'static str {
        "classic write-through"
    }

    fn proc_access(&self, state: S, kind: AccessKind) -> ProcAction<S> {
        match kind {
            AccessKind::Read | AccessKind::ReadForWrite | AccessKind::LockRead => match state {
                S::Valid => ProcAction::Hit { next: S::Valid },
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
                },
            },
            AccessKind::Rmw => ProcAction::Bus { op: BusOp::MemoryRmw },
            // All writes go through to memory and invalidate other copies.
            _ => ProcAction::Bus { op: BusOp::WriteWord { target: UpdateTarget::Invalidate } },
        }
    }

    fn snoop(&self, state: S, txn: &BusTxn) -> SnoopOutcome<S> {
        if state == S::Invalid {
            return SnoopOutcome::ignore(state);
        }
        match txn.op {
            // Another processor's write-through or memory RMW invalidates
            // this copy.
            BusOp::WriteWord { .. } | BusOp::MemoryRmw | BusOp::IoInput => SnoopOutcome {
                next: S::Invalid,
                reply: SnoopReply { hit: true, ..Default::default() },
            },
            BusOp::Fetch { .. } | BusOp::IoOutput { .. } => {
                // Memory is always current; just signal the hit.
                SnoopOutcome { next: S::Valid, reply: SnoopReply { hit: true, ..Default::default() } }
            }
            _ => SnoopOutcome::ignore(state),
        }
    }

    fn complete(
        &self,
        state: S,
        _kind: AccessKind,
        txn: &BusTxn,
        _summary: &SnoopSummary,
    ) -> CompleteOutcome<S> {
        let next = match txn.op {
            BusOp::Fetch { .. } => S::Valid,
            // No write-allocate: a write miss updates memory only; a write
            // hit keeps the (now updated) copy valid.
            BusOp::WriteWord { .. } => state,
            // Drop our copy around a memory RMW so the next read refetches.
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

    fn sys(n: usize) -> System<ClassicWriteThrough> {
        System::new(ClassicWriteThrough, SystemConfig::new(n)).unwrap()
    }

    #[test]
    fn every_write_reaches_the_bus() {
        let mut s = sys(1);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(0))),
                (ProcId(0), ProcOp::write(Addr(0), Word(1))),
                (ProcId(0), ProcOp::write(Addr(0), Word(2))),
                (ProcId(0), ProcOp::write(Addr(0), Word(3))),
            ]), 10_000).unwrap().stats;
        assert_eq!(stats.bus.count("write-word-inv"), 3);
        // The copy stays valid through its own writes.
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Valid);
    }

    #[test]
    fn remote_write_invalidates_copy() {
        let mut s = sys(2);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(0))),
                (ProcId(1), ProcOp::write(Addr(0), Word(9))),
            ]), 10_000).unwrap().stats;
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Invalid);
        assert_eq!(stats.bus.invalidations, 1);
    }

    #[test]
    fn reads_after_remote_write_see_latest() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(4))),
            (ProcId(1), ProcOp::write(Addr(4), Word(7))),
            (ProcId(0), ProcOp::read(Addr(4))),
        ]);
        s.run(&mut script, 10_000).unwrap();
        assert_eq!(script.results()[2].2.value, Some(Word(7)));
    }

    #[test]
    fn rmw_serializes_at_memory() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::rmw(Addr(8), Word(1))), // test-and-set: old 0
            (ProcId(1), ProcOp::rmw(Addr(8), Word(1))), // old 1 -> busy
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[0].2.value, Some(Word(0)));
        assert_eq!(script.results()[1].2.value, Some(Word(1)));
        assert_eq!(stats.bus.count("memory-rmw"), 2);
    }

    #[test]
    fn no_write_allocate_on_miss() {
        let mut s = sys(1);
        s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::write(Addr(12), Word(5)))]), 10_000)
            .unwrap();
        assert_eq!(s.state_of(CacheId(0), BlockAddr(3)), S::Invalid);
        // Value still readable (from memory).
        let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(12)))]);
        s.run(&mut script, 10_000).unwrap();
        assert_eq!(script.results()[0].2.value, Some(Word(5)));
    }
}
