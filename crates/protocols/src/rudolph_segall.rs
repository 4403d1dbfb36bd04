//! The **Rudolph & Segall** dynamic decentralized cache scheme (1984) —
//! Sections D.1 and E.4; Table 2.
//!
//! A hybrid write-through/write-in scheme oriented around efficient busy
//! wait:
//!
//! * a block is *unshared* once a processor writes it twice with no
//!   intervening access by another processor;
//! * the **first** write after an external access is a write-through that
//!   **updates other copies — including invalid ones**, which requires
//!   one-word blocks (the paper, Section E.4). Updating an invalid copy
//!   revalidates it, which is how a waiter whose lock word was invalidated
//!   still observes the unlock;
//! * the **second** consecutive write invalidates other copies (write-in)
//!   and goes local thereafter;
//! * atomic read-modify-writes hold the memory module (Feature 6, method 1).
//!
//! Use with [`CacheConfig`](mcs_cache::CacheConfig) geometries of **one
//! word per block**; larger blocks would make update-invalid-copies unsound
//! (exactly the area/performance objection the paper raises).

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, Privilege, ProcAction, Protocol,
    RmwMethod, SnoopOutcome, SnoopReply, SnoopSummary, UpdateTarget,
};

line_states! {
    /// Cache-line states of the Rudolph-Segall scheme.
    pub enum RudolphSegallState {
        /// Meaningless — but the frame's data is still refreshed by other
        /// processors' write-throughs, and such an update *revalidates* it.
        Invalid = "I",
        /// Valid, possibly shared; the next local write is a write-through.
        Shared = "S" (Read),
        /// Written once since the last external access (memory current); the
        /// next consecutive local write invalidates other copies and goes
        /// write-in. Other copies may exist (they were updated), so only read
        /// privilege is claimed: the next write takes the bus.
        WrittenOnce = "W1" (Read),
        /// Unshared and dirty: writes are local.
        Dirty = "D" (Write, source, dirty),
    }
    declares {
        atomic_rmw: Some(RmwMethod::HoldMemory),
    }
}

/// The Rudolph-Segall protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct RudolphSegall;

use RudolphSegallState as S;

impl Protocol for RudolphSegall {
    type State = RudolphSegallState;

    fn name(&self) -> &'static str {
        "Rudolph-Segall 1984"
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
            // A Dirty (write-in mode) copy is the sole copy: the RMW is
            // serialized locally; memory would be stale.
            Rmw => match state {
                S::Dirty => ProcAction::Hit { next: S::Dirty },
                _ => ProcAction::Bus { op: BusOp::MemoryRmw },
            },
            WriteNoFetch => ProcAction::Bus { op: BusOp::ClaimNoFetch },
            _ => match state {
                // First write after an external access: write through,
                // updating all copies — valid and invalid.
                S::Shared => {
                    ProcAction::Bus { op: BusOp::WriteWord { target: UpdateTarget::AllCopies } }
                }
                // Second consecutive write: invalidate and go write-in.
                S::WrittenOnce => ProcAction::Bus { op: BusOp::Invalidate },
                S::Dirty => ProcAction::Hit { next: S::Dirty },
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
                },
            },
        }
    }

    fn snoop(&self, state: S, txn: &BusTxn) -> SnoopOutcome<S> {
        match txn.op {
            // A write-through updates this copy in place (the engine moves
            // the data) — and *revalidates* an invalid copy.
            BusOp::WriteWord { target: UpdateTarget::AllCopies } => SnoopOutcome {
                next: S::Shared,
                reply: SnoopReply { hit: state != S::Invalid, ..Default::default() },
            },
            _ if state == S::Invalid => SnoopOutcome::ignore(state),
            BusOp::Fetch { .. } | BusOp::IoOutput { paging: false } => match state {
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
                // An external access resets the written-once counter.
                _ => SnoopOutcome {
                    next: S::Shared,
                    reply: SnoopReply { hit: true, ..Default::default() },
                },
            },
            // A memory-held test-and-set updates the word at memory; the
            // engine refreshes cached copies in place, so they stay valid
            // (the scheme's waiters keep spinning locally). A dirty copy
            // flushes first so the RMW reads current data.
            BusOp::MemoryRmw => SnoopOutcome {
                next: S::Shared,
                reply: SnoopReply { hit: true, flushes: state == S::Dirty, ..Default::default() },
            },
            BusOp::Invalidate | BusOp::ClaimNoFetch | BusOp::IoInput => SnoopOutcome {
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
        _summary: &SnoopSummary,
    ) -> CompleteOutcome<S> {
        let next = match txn.op {
            BusOp::Fetch { .. } => {
                if kind.is_write() {
                    // Write-allocate in two transactions: fetch, then the
                    // write-through that updates the other copies.
                    return CompleteOutcome::InstalledRetryOp { next: S::Shared };
                }
                S::Shared
            }
            BusOp::WriteWord { .. } => S::WrittenOnce,
            BusOp::Invalidate => S::Dirty,
            BusOp::ClaimNoFetch => S::Dirty,
            BusOp::MemoryRmw => S::Invalid,
            _ => state,
        };
        CompleteOutcome::Installed { next }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cache::CacheConfig;
    use mcs_model::{Addr, BlockAddr, CacheId, ProcId, ProcOp, Word};
    use mcs_sim::{ScriptWorkload, System, SystemConfig};

    /// One-word blocks, as the scheme requires.
    fn sys(n: usize) -> System<RudolphSegall> {
        let config =
            SystemConfig::new(n).with_cache(CacheConfig::fully_associative(64, 1).unwrap());
        System::new(RudolphSegall, config).unwrap()
    }

    #[test]
    fn first_write_goes_through_second_invalidates() {
        let mut s = sys(2);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(0))),
                (ProcId(1), ProcOp::read(Addr(0))),
                (ProcId(0), ProcOp::write(Addr(0), Word(1))), // write-through, updates C1
                (ProcId(0), ProcOp::write(Addr(0), Word(2))), // invalidation, goes write-in
                (ProcId(0), ProcOp::write(Addr(0), Word(3))), // local
            ]), 10_000).unwrap().stats;
        assert_eq!(stats.bus.count("write-word-upd-all"), 1);
        assert_eq!(stats.bus.count("invalidate"), 1);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Dirty);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Invalid);
    }

    #[test]
    fn update_refreshes_other_copies_in_place() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(0))),
            (ProcId(0), ProcOp::write(Addr(0), Word(5))),
            (ProcId(1), ProcOp::read(Addr(0))), // HIT with the new value
        ]);
        s.run(&mut script, 10_000).unwrap();
        assert!(script.results()[3].2.hit);
        assert_eq!(script.results()[3].2.value, Some(Word(5)));
    }

    #[test]
    fn update_revalidates_invalid_copies() {
        // This is the scheme's signature move (Section E.4): after an
        // invalidation, a later write-through brings the dead copy back.
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(0))),
            (ProcId(0), ProcOp::write(Addr(0), Word(1))), // through (updates C1)
            (ProcId(0), ProcOp::write(Addr(0), Word(2))), // invalidates C1
            (ProcId(1), ProcOp::read(Addr(0))),           // miss: refetch -> Shared
            (ProcId(0), ProcOp::write(Addr(0), Word(3))), // through again
            (ProcId(1), ProcOp::read(Addr(0))),           // hit, updated in place
        ]);
        s.run(&mut script, 10_000).unwrap();
        assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Shared);
        assert!(script.results()[6].2.hit);
        assert_eq!(script.results()[6].2.value, Some(Word(3)));
    }

    #[test]
    fn invalid_copy_itself_is_revalidated_without_refetch() {
        let mut s = sys(3);
        // C2's copy gets invalidated, then revalidated by C0's next
        // write-through (C2 never touches the bus again).
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(2), ProcOp::read(Addr(0))),
            (ProcId(0), ProcOp::write(Addr(0), Word(1))), // through
            (ProcId(0), ProcOp::write(Addr(0), Word(2))), // invalidates C2
            (ProcId(1), ProcOp::read(Addr(0))),           // external access: C0 D -> S
            (ProcId(0), ProcOp::write(Addr(0), Word(7))), // through, updates ALL copies
            (ProcId(2), ProcOp::read(Addr(0))),           // HIT: copy was revalidated
        ]);
        let stats_before = s.run(&mut script, 10_000).unwrap().stats;
        let fetches_before = stats_before.sources.fetches;
        assert!(script.results()[6].2.hit, "revalidated copy must hit");
        assert_eq!(script.results()[6].2.value, Some(Word(7)));
        // No extra fetch was needed for C2's final read.
        assert_eq!(s.stats().sources.fetches, fetches_before);
    }

    #[test]
    fn rmw_holds_the_memory_module() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::rmw(Addr(4), Word(1))),
            (ProcId(1), ProcOp::rmw(Addr(4), Word(1))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[0].2.value, Some(Word(0)));
        assert_eq!(script.results()[1].2.value, Some(Word(1)));
        assert_eq!(stats.bus.count("memory-rmw"), 2);
    }
}
