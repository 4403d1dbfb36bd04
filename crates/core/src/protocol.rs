//! The Bitar-Despain protocol — the paper's proposal (Sections E, F.2).
//!
//! Eight cache-line states (Section E.1), extending read/write privilege to
//! **lock privilege** and distributing lock status among the caches:
//!
//! ```text
//! Invalid
//! Read                         (non-source)
//! Read,  Source, Clean
//! Read,  Source, Dirty
//! Write, Source, Clean
//! Write, Source, Dirty
//! Lock,  Source, Dirty
//! Lock,  Source, Dirty, Waiter
//! ```
//!
//! Protocol behaviours reproduced (Figures 1–10):
//!
//! * **Fig 1** — a read miss with no other holder fetches *write* privilege
//!   (dynamic unshared determination via the hit line, Feature 5 = D);
//! * **Figs 2–3** — with no source cache, memory provides the block; the
//!   last fetcher always becomes the new source (Feature 8 = LRU,MEM);
//! * **Fig 4** — the source provides the block *and its clean/dirty
//!   status*; no flush on transfer (Feature 7 = NF,S);
//! * **Fig 5** — a write hit on a read-privilege copy requests write
//!   privilege only (a one-cycle transaction, Feature 4);
//! * **Fig 6** — the lock instruction is a special read: locking is
//!   concurrent with fetching, so it costs *zero extra time*;
//! * **Fig 7** — a request to a locked block is denied; the holder records
//!   the waiter (lock-waiter state) and the requester arms its busy-wait
//!   register;
//! * **Fig 8** — unlocking is the final write; it is free unless a waiter
//!   was recorded, in which case the unlock is broadcast;
//! * **Fig 9** — woken lock waiters re-arbitrate at the reserved
//!   highest priority; the winner locks with the waiter state, the losers
//!   stay off the bus;
//! * atomic read-modify-writes use the lock state (Feature 6, method 4),
//!   collapsing lock + operation + unlock into the fetch;
//! * **write-without-fetch** claims a whole block in one signal cycle
//!   (Feature 9).

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, DirectoryDuality, DistributedState,
    LineState, Privilege, ProcAction, Protocol, RmwMethod, SnoopOutcome, SnoopReply, SnoopSummary,
};

line_states! {
    /// The eight cache-line states of the Bitar-Despain protocol (Section E.1).
    #[derive(PartialOrd, Ord)]
    pub enum BitarState {
        /// Meaningless.
        Invalid = "I",
        /// Read-only privilege; some other cache (or memory) is the source.
        Read = "R" (Read),
        /// Read privilege; this cache is the source; memory is current.
        ReadSourceClean = "RSC" (Read, source),
        /// Read privilege; this cache is the source of a dirty block.
        ReadSourceDirty = "RSD" (Read, source, dirty),
        /// Sole-access privilege; source; memory current (unshared fetch that
        /// has not been written yet — Figure 1).
        WriteSourceClean = "WSC" (Write, source),
        /// Sole-access privilege; source; dirty.
        WriteSourceDirty = "WSD" (Write, source, dirty),
        /// Locked by this cache; source; dirty.
        LockSourceDirty = "LSD" (Lock, source, dirty),
        /// Locked, and another processor requested the block while locked —
        /// the unlock must be broadcast (Figure 8).
        LockSourceDirtyWaiter = "LSDW" (Lock, source, dirty, waiter),
    }
    declares {
        distributed: DistributedState::RWLDS,
        directory: DirectoryDuality::NonIdenticalDual,
        atomic_rmw: Some(RmwMethod::LockState),
    }
}

/// The Bitar-Despain lock protocol (the paper's proposal).
#[derive(Debug, Default, Clone, Copy)]
pub struct BitarDespain;

use BitarState as S;

impl BitarDespain {
    fn has_write(state: S) -> bool {
        state.descriptor().can_write()
    }
}

impl Protocol for BitarDespain {
    type State = BitarState;

    fn name(&self) -> &'static str {
        "Bitar-Despain 1986 (proposal)"
    }

    fn proc_access(&self, state: S, kind: AccessKind) -> ProcAction<S> {
        use AccessKind::*;
        match kind {
            // Plain reads (and reads-for-write: sharing is determined
            // dynamically anyway).
            Read | ReadForWrite => match state {
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
                },
                s => ProcAction::Hit { next: s },
            },
            // The lock instruction: a special read that locks the block
            // (Section E.3). With write privilege in hand, locking is
            // zero-time; the lock states carry dirty status (the atom is
            // about to be written).
            LockRead => match state {
                s if s == S::LockSourceDirty || s == S::LockSourceDirtyWaiter => {
                    ProcAction::Hit { next: s }
                }
                s if Self::has_write(s) => ProcAction::Hit { next: S::LockSourceDirty },
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
                },
                // Valid read copy: request lock privilege only (Figure 5).
                _ => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Lock, need_data: false },
                },
            },
            // The unlock is the final write (Figure 8): free unless a
            // waiter was recorded.
            UnlockWrite => match state {
                S::LockSourceDirty => ProcAction::Hit { next: S::WriteSourceDirty },
                S::LockSourceDirtyWaiter => ProcAction::Bus { op: BusOp::UnlockBroadcast },
                // Unlock without a lock degenerates to a plain write.
                s if Self::has_write(s) => ProcAction::Hit { next: S::WriteSourceDirty },
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Write, need_data: true },
                },
                _ => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Write, need_data: false },
                },
            },
            // Atomic read-modify-write via the lock state (method 4):
            // lock + operate + unlock collapse into at most one fetch.
            Rmw => match state {
                // Inside one's own locked section the lock is held across
                // the RMW (it is already serialized by the lock).
                s @ (S::LockSourceDirty | S::LockSourceDirtyWaiter) => ProcAction::Hit { next: s },
                s if Self::has_write(s) => ProcAction::Hit { next: S::WriteSourceDirty },
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
                },
                _ => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Lock, need_data: false },
                },
            },
            // Write-without-fetch (Feature 9): claim the block in one
            // signal cycle; no data moves.
            WriteNoFetch => match state {
                s @ (S::LockSourceDirty | S::LockSourceDirtyWaiter) => ProcAction::Hit { next: s },
                s if Self::has_write(s) => ProcAction::Hit { next: S::WriteSourceDirty },
                _ => ProcAction::Bus { op: BusOp::ClaimNoFetch },
            },
            // Plain writes. A write by the lock holder to its own locked
            // block does NOT unlock it — only the unlock-write does
            // (Section E.3: the block stays locked "until the entire
            // operation is done"). `WriteIfOwned` is resolved by the engine
            // and only reaches a protocol on its hit path.
            Write | WriteIfOwned => match state {
                s @ (S::LockSourceDirty | S::LockSourceDirtyWaiter) => ProcAction::Hit { next: s },
                s if Self::has_write(s) => ProcAction::Hit { next: S::WriteSourceDirty },
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Write, need_data: true },
                },
                // Valid copy: one-cycle request for write privilege only
                // (Figure 5 / Feature 4).
                _ => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Write, need_data: false },
                },
            },
        }
    }

    fn snoop(&self, state: S, txn: &BusTxn) -> SnoopOutcome<S> {
        use BitarState::*;
        if state == Invalid {
            return SnoopOutcome::ignore(state);
        }

        // Locked blocks deny every external request and record the waiter
        // (Figure 7).
        if matches!(state, LockSourceDirty | LockSourceDirtyWaiter)
            && matches!(
                txn.op,
                BusOp::Fetch { .. } | BusOp::ClaimNoFetch | BusOp::IoOutput { paging: true }
            )
        {
            return SnoopOutcome {
                next: LockSourceDirtyWaiter,
                reply: SnoopReply { hit: true, locked: true, ..Default::default() },
            };
        }

        match txn.op {
            BusOp::Fetch { privilege: Privilege::Read, .. } => {
                let d = state.descriptor();
                if d.source {
                    // The source supplies the block and its clean/dirty
                    // status (Figure 4) and cedes source status to the
                    // last fetcher (Feature 8 = LRU).
                    SnoopOutcome {
                        next: Read,
                        reply: SnoopReply {
                            hit: true,
                            source: true,
                            dirty_status: Some(d.dirty),
                            supplies_data: true,
                            inhibit_memory: true,
                            ..Default::default()
                        },
                    }
                } else {
                    SnoopOutcome { next: Read, reply: SnoopReply { hit: true, ..Default::default() } }
                }
            }
            BusOp::Fetch { .. } | BusOp::ClaimNoFetch => {
                // Write or lock privilege requested: invalidate; the source
                // supplies data if data was requested.
                let d = state.descriptor();
                if d.source && matches!(txn.op, BusOp::Fetch { need_data: true, .. }) {
                    SnoopOutcome {
                        next: Invalid,
                        reply: SnoopReply {
                            hit: true,
                            source: true,
                            dirty_status: Some(d.dirty),
                            supplies_data: true,
                            inhibit_memory: true,
                            ..Default::default()
                        },
                    }
                } else {
                    SnoopOutcome {
                        next: Invalid,
                        reply: SnoopReply { hit: true, ..Default::default() },
                    }
                }
            }
            BusOp::IoInput => SnoopOutcome {
                next: Invalid,
                reply: SnoopReply { hit: true, ..Default::default() },
            },
            BusOp::IoOutput { paging } => {
                let d = state.descriptor();
                if d.source {
                    // Non-paging output: the source provides the block but
                    // keeps source status (Section E.2).
                    SnoopOutcome {
                        next: if paging { Invalid } else { state },
                        reply: SnoopReply {
                            hit: true,
                            source: true,
                            dirty_status: Some(d.dirty),
                            supplies_data: true,
                            inhibit_memory: true,
                            flushes: paging && d.dirty,
                            ..Default::default()
                        },
                    }
                } else {
                    SnoopOutcome {
                        next: if paging { Invalid } else { state },
                        reply: SnoopReply { hit: true, ..Default::default() },
                    }
                }
            }
            // Unlock broadcasts carry no state effect for other caches;
            // the engine's busy-wait register observes them.
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
        use BitarState::*;
        // Any fetch or claim that found the block locked busy-waits
        // (Figure 7).
        if summary.locked {
            return CompleteOutcome::LockDenied;
        }
        let next = match txn.op {
            BusOp::Fetch { privilege: Privilege::Read, .. } => {
                if !summary.any_hit {
                    // Figure 1: unshared data fetched with write privilege.
                    WriteSourceClean
                } else if summary.source_dirty == Some(true) {
                    ReadSourceDirty
                } else {
                    // Clean transfer, or no source cache (memory provided,
                    // Figures 2–3): the last fetcher becomes the source.
                    ReadSourceClean
                }
            }
            BusOp::Fetch { privilege: Privilege::Lock, .. } => {
                if kind == AccessKind::Rmw {
                    // Method 4: lock + RMW + unlock collapsed; the engine
                    // notifies any waiters.
                    WriteSourceDirty
                } else if txn.high_priority {
                    // Figure 9: a woken waiter locks with the waiter state,
                    // since more waiters are probably queued.
                    LockSourceDirtyWaiter
                } else {
                    LockSourceDirty
                }
            }
            BusOp::Fetch { .. } | BusOp::ClaimNoFetch => WriteSourceDirty,
            BusOp::UnlockBroadcast => WriteSourceDirty,
            _ => state,
        };
        CompleteOutcome::Installed { next }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::EvictAction;

    #[test]
    fn eight_states_with_paper_descriptors() {
        assert_eq!(BitarState::all().len(), 8);
        let d = BitarState::LockSourceDirtyWaiter.descriptor();
        assert!(d.is_locked() && d.source && d.dirty && d.waiter);
        assert_eq!(d.to_string(), "Lock, Source, Dirty, Waiter");
        assert_eq!(
            BitarState::ReadSourceClean.descriptor().to_string(),
            "Read, Source, Clean"
        );
        assert_eq!(BitarState::Read.descriptor().to_string(), "Read");
    }

    #[test]
    fn zero_time_lock_on_write_privilege() {
        let p = BitarDespain;
        // Figure 6's fast path: holding write privilege, the lock is a hit.
        match p.proc_access(S::WriteSourceDirty, AccessKind::LockRead) {
            ProcAction::Hit { next } => assert_eq!(next, S::LockSourceDirty),
            other => panic!("expected zero-time lock, got {other:?}"),
        }
        match p.proc_access(S::WriteSourceClean, AccessKind::LockRead) {
            ProcAction::Hit { next } => assert_eq!(next, S::LockSourceDirty),
            other => panic!("expected zero-time lock, got {other:?}"),
        }
    }

    #[test]
    fn zero_time_unlock_without_waiter_broadcast_with() {
        let p = BitarDespain;
        match p.proc_access(S::LockSourceDirty, AccessKind::UnlockWrite) {
            ProcAction::Hit { next } => assert_eq!(next, S::WriteSourceDirty),
            other => panic!("expected zero-time unlock, got {other:?}"),
        }
        match p.proc_access(S::LockSourceDirtyWaiter, AccessKind::UnlockWrite) {
            ProcAction::Bus { op } => assert_eq!(op, BusOp::UnlockBroadcast),
            other => panic!("expected unlock broadcast, got {other:?}"),
        }
    }

    #[test]
    fn locked_snoop_denies_and_records_waiter() {
        let p = BitarDespain;
        let txn = BusTxn {
            op: BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
            block: mcs_model::BlockAddr(0),
            requester: mcs_model::AgentId::Cache(mcs_model::CacheId(1)),
            high_priority: false,
        };
        let out = p.snoop(S::LockSourceDirty, &txn);
        assert_eq!(out.next, S::LockSourceDirtyWaiter);
        assert!(out.reply.locked);
        // Already-waiter stays waiter.
        let out = p.snoop(S::LockSourceDirtyWaiter, &txn);
        assert_eq!(out.next, S::LockSourceDirtyWaiter);
    }

    #[test]
    fn source_cedes_to_last_fetcher_on_read() {
        let p = BitarDespain;
        let txn = BusTxn {
            op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
            block: mcs_model::BlockAddr(0),
            requester: mcs_model::AgentId::Cache(mcs_model::CacheId(1)),
            high_priority: false,
        };
        for (state, dirty) in [
            (S::ReadSourceClean, false),
            (S::ReadSourceDirty, true),
            (S::WriteSourceClean, false),
            (S::WriteSourceDirty, true),
        ] {
            let out = p.snoop(state, &txn);
            assert_eq!(out.next, S::Read, "old source becomes plain Read");
            assert!(out.reply.supplies_data);
            assert_eq!(out.reply.dirty_status, Some(dirty), "status travels (NF,S)");
            assert!(!out.reply.flushes, "no flush on transfer");
        }
        // A non-source read copy just raises the hit line.
        let out = p.snoop(S::Read, &txn);
        assert_eq!(out.next, S::Read);
        assert!(out.reply.hit && !out.reply.supplies_data);
    }

    #[test]
    fn read_miss_completion_uses_hit_line() {
        let p = BitarDespain;
        let txn = BusTxn {
            op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
            block: mcs_model::BlockAddr(0),
            requester: mcs_model::AgentId::Cache(mcs_model::CacheId(0)),
            high_priority: false,
        };
        // Alone: write privilege (Figure 1).
        let none = SnoopSummary::default();
        assert_eq!(
            p.complete(S::Invalid, AccessKind::Read, &txn, &none),
            CompleteOutcome::Installed { next: S::WriteSourceClean }
        );
        // Shared, dirty source: inherit dirty source status.
        let dirty = SnoopSummary {
            any_hit: true,
            sharers: 1,
            source_dirty: Some(true),
            data_from_cache: true,
            ..Default::default()
        };
        assert_eq!(
            p.complete(S::Invalid, AccessKind::Read, &txn, &dirty),
            CompleteOutcome::Installed { next: S::ReadSourceDirty }
        );
        // Shared with no source: memory provides, fetcher becomes source
        // (Figures 2-3).
        let no_source = SnoopSummary { any_hit: true, sharers: 2, ..Default::default() };
        assert_eq!(
            p.complete(S::Invalid, AccessKind::Read, &txn, &no_source),
            CompleteOutcome::Installed { next: S::ReadSourceClean }
        );
    }

    #[test]
    fn woken_lock_fetch_installs_waiter_state() {
        let p = BitarDespain;
        let hi = BusTxn {
            op: BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
            block: mcs_model::BlockAddr(0),
            requester: mcs_model::AgentId::Cache(mcs_model::CacheId(0)),
            high_priority: true,
        };
        assert_eq!(
            p.complete(S::Invalid, AccessKind::LockRead, &hi, &SnoopSummary::default()),
            CompleteOutcome::Installed { next: S::LockSourceDirtyWaiter }
        );
    }

    #[test]
    fn lock_denied_when_summary_locked() {
        let p = BitarDespain;
        let txn = BusTxn {
            op: BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
            block: mcs_model::BlockAddr(0),
            requester: mcs_model::AgentId::Cache(mcs_model::CacheId(0)),
            high_priority: false,
        };
        let locked = SnoopSummary { any_hit: true, locked: true, ..Default::default() };
        assert_eq!(
            p.complete(S::Invalid, AccessKind::LockRead, &txn, &locked),
            CompleteOutcome::LockDenied
        );
        // Plain writes are also denied on locked blocks.
        let wtxn = BusTxn {
            op: BusOp::Fetch { privilege: Privilege::Write, need_data: true },
            ..txn
        };
        assert_eq!(
            p.complete(S::Invalid, AccessKind::Write, &wtxn, &locked),
            CompleteOutcome::LockDenied
        );
    }

    #[test]
    fn rmw_collapses_to_unlocked_write_state() {
        let p = BitarDespain;
        let txn = BusTxn {
            op: BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
            block: mcs_model::BlockAddr(0),
            requester: mcs_model::AgentId::Cache(mcs_model::CacheId(0)),
            high_priority: false,
        };
        assert_eq!(
            p.complete(S::Invalid, AccessKind::Rmw, &txn, &SnoopSummary::default()),
            CompleteOutcome::Installed { next: S::WriteSourceDirty }
        );
        // And a held-privilege RMW is entirely local.
        assert_eq!(
            p.proc_access(S::WriteSourceClean, AccessKind::Rmw),
            ProcAction::Hit { next: S::WriteSourceDirty }
        );
    }

    #[test]
    fn write_upgrade_requests_privilege_only() {
        let p = BitarDespain;
        match p.proc_access(S::Read, AccessKind::Write) {
            ProcAction::Bus { op: BusOp::Fetch { privilege: Privilege::Write, need_data } } => {
                assert!(!need_data, "Figure 5: no data transfer on upgrade")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn locked_lines_never_evict_silently_wrong() {
        let p = BitarDespain;
        assert_eq!(p.evict(S::WriteSourceDirty), EvictAction::Writeback);
        assert_eq!(p.evict(S::ReadSourceDirty), EvictAction::Writeback);
        assert_eq!(p.evict(S::WriteSourceClean), EvictAction::Silent);
        assert_eq!(p.evict(S::Read), EvictAction::Silent);
    }
}
