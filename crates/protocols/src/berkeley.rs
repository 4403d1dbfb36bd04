//! The **Berkeley** protocol of Katz, Eggers, Wood, Perkins & Sheldon
//! (1985) — Section F.2; Table 1 column 5.
//!
//! Properties reproduced:
//!
//! * the **dirty read** (shared-dirty / owned) state: when another cache
//!   requests read privilege for a dirty block, the owner supplies it
//!   **without flushing** and keeps the block dirty (Feature 7 = NF,S —
//!   clean/dirty status travels with the block);
//! * a **single source** per block: non-source shared copies never supply;
//!   if the source purges the block, the next fetch is serviced by memory
//!   (Feature 8 = MEM);
//! * static read-for-write (Feature 5 = S) entering the *source* write-clean
//!   state — the inconsistency the paper points out in Section F.3
//!   (Feature 7 discussion);
//! * one dual-ported-read directory (Feature 3 = DPR);
//! * test-and-set executed by the cache, holding the block for sole access
//!   (Feature 6).

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, DirectoryDuality, Privilege,
    ProcAction, Protocol, RmwMethod, SnoopOutcome, SnoopReply, SnoopSummary,
};

line_states! {
    /// Cache-line states of the Berkeley protocol.
    pub enum BerkeleyState {
        /// Meaningless.
        Invalid = "I",
        /// Shared: read privilege, non-source.
        Shared = "S" (Read),
        /// Shared-dirty (the "dirty read" state): read privilege, dirty,
        /// source — entered when another cache reads this cache's dirty block.
        SharedDirty = "SD" (Read, source, dirty),
        /// Write-clean: exclusive clean with source status (via read-for-write);
        /// Table 1 gives the clean write state source status.
        WriteClean = "WC" (Write, source),
        /// Dirty: modified sole copy, source.
        Dirty = "D" (Write, source, dirty),
    }
    declares {
        directory: DirectoryDuality::DualPortedRead,
        atomic_rmw: Some(RmwMethod::FetchAndHoldCache),
    }
}

/// The Katz et al. (Berkeley / SPUR) protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct Berkeley;

use BerkeleyState as S;

impl Protocol for Berkeley {
    type State = BerkeleyState;

    fn name(&self) -> &'static str {
        "Katz et al. 1985 (Berkeley)"
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
            ReadForWrite => match state {
                S::Invalid => ProcAction::Bus {
                    op: BusOp::Fetch { privilege: Privilege::Write, need_data: true },
                },
                s => ProcAction::Hit { next: s },
            },
            _ => match state {
                S::Dirty => ProcAction::Hit { next: S::Dirty },
                S::WriteClean => ProcAction::Hit { next: S::Dirty },
                S::Shared | S::SharedDirty => ProcAction::Bus { op: BusOp::Invalidate },
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
                    // The owner supplies without flushing; the block stays
                    // dirty in the dirty read state.
                    S::Dirty | S::SharedDirty => SnoopOutcome {
                        next: S::SharedDirty,
                        reply: SnoopReply {
                            hit: true,
                            source: true,
                            dirty_status: Some(true),
                            supplies_data: true,
                            inhibit_memory: true,
                            ..Default::default()
                        },
                    },
                    // Write-clean is a source too (Table 1).
                    S::WriteClean => SnoopOutcome {
                        next: S::Shared,
                        reply: SnoopReply {
                            hit: true,
                            source: true,
                            dirty_status: Some(false),
                            supplies_data: true,
                            inhibit_memory: true,
                            ..Default::default()
                        },
                    },
                    // Non-source shared copies never supply (single source).
                    _ => SnoopOutcome {
                        next: S::Shared,
                        reply: SnoopReply { hit: true, ..Default::default() },
                    },
                }
            }
            BusOp::Fetch { .. } | BusOp::IoOutput { paging: true } => match state {
                S::Dirty | S::SharedDirty => SnoopOutcome {
                    next: S::Invalid,
                    reply: SnoopReply {
                        hit: true,
                        source: true,
                        dirty_status: Some(true),
                        supplies_data: true,
                        inhibit_memory: true,
                        ..Default::default()
                    },
                },
                S::WriteClean => SnoopOutcome {
                    next: S::Invalid,
                    reply: SnoopReply {
                        hit: true,
                        source: true,
                        dirty_status: Some(false),
                        supplies_data: true,
                        inhibit_memory: true,
                        ..Default::default()
                    },
                },
                _ => SnoopOutcome {
                    next: S::Invalid,
                    reply: SnoopReply { hit: true, ..Default::default() },
                },
            },
            BusOp::Invalidate | BusOp::ClaimNoFetch | BusOp::IoInput | BusOp::MemoryRmw => {
                // Ownership moves to the invalidator; a dirty owner's data
                // lives on only at the requester, so surrender it silently
                // (the requester has a valid copy it is about to write).
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
        kind: AccessKind,
        txn: &BusTxn,
        summary: &SnoopSummary,
    ) -> CompleteOutcome<S> {
        let next = match txn.op {
            BusOp::Fetch { privilege: Privilege::Read, .. } => S::Shared,
            BusOp::Fetch { .. } => {
                // A read-for-write miss lands clean only if the block
                // arrived clean; Berkeley does not flush on transfer, so a
                // dirty transfer makes the requester the dirty owner — the
                // clean/dirty status travels with the block (Feature 7 =
                // NF,S).
                if kind == AccessKind::ReadForWrite && summary.source_dirty != Some(true) {
                    S::WriteClean
                } else {
                    S::Dirty
                }
            }
            BusOp::Invalidate => S::Dirty,
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

    fn sys(n: usize) -> System<Berkeley> {
        System::new(Berkeley, SystemConfig::new(n)).unwrap()
    }

    #[test]
    fn dirty_read_state_owner_keeps_block_dirty() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(0), Word(5))),
            (ProcId(1), ProcOp::read(Addr(0))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[1].2.value, Some(Word(5)));
        // NO flush: the block stays dirty, owned by C0 in SharedDirty.
        assert_eq!(stats.sources.flushes, 0);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::SharedDirty);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Shared);
    }

    #[test]
    fn owner_services_later_readers() {
        let mut s = sys(3);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::write(Addr(0), Word(5))),
                (ProcId(1), ProcOp::read(Addr(0))),
                (ProcId(2), ProcOp::read(Addr(0))),
            ]), 10_000).unwrap().stats;
        // Both readers served cache-to-cache by the (shared-)dirty owner.
        assert_eq!(stats.sources.from_cache, 2);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::SharedDirty);
    }

    #[test]
    fn source_loss_falls_back_to_memory() {
        // Tiny cache: evicting the shared-dirty owner forces a writeback,
        // and the next fetch comes from memory (Feature 8 = MEM).
        let config =
            SystemConfig::new(3).with_cache(CacheConfig::fully_associative(2, 4).unwrap());
        let mut s = System::new(Berkeley, config).unwrap();
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(0), Word(5))), // owner of block 0
            (ProcId(1), ProcOp::read(Addr(0))),           // shared
            (ProcId(0), ProcOp::write(Addr(16), Word(1))), // fill owner's cache
            (ProcId(0), ProcOp::write(Addr(32), Word(2))), // evicts block 0 (writeback)
            (ProcId(2), ProcOp::read(Addr(0))),            // no source left -> memory
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[4].2.value, Some(Word(5)));
        assert!(stats.sources.source_losses >= 1);
        assert!(stats.sources.flushes >= 1);
    }

    #[test]
    fn write_clean_is_a_source_for_reads() {
        let mut s = sys(2);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read_for_write(Addr(4))), // WriteClean
                (ProcId(1), ProcOp::read(Addr(4))),
            ]), 10_000).unwrap().stats;
        // The inconsistency the paper critiques: WC supplies even though
        // memory is current.
        assert_eq!(stats.sources.from_cache, 1);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(1)), S::Shared);
    }

    #[test]
    fn ownership_transfers_on_write_miss_without_flush() {
        let mut s = sys(2);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::write(Addr(8), Word(1))),
                (ProcId(1), ProcOp::write(Addr(8), Word(2))),
            ]), 10_000).unwrap().stats;
        assert_eq!(stats.sources.flushes, 0);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(2)), S::Invalid);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(2)), S::Dirty);
        // Memory was never updated; a third read must come from the owner.
        let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(8)))]);
        s.run(&mut script, 10_000).unwrap();
        assert_eq!(script.results()[0].2.value, Some(Word(2)));
    }
}

/// The paper's suggested fix for Berkeley's inconsistency (Section F.3,
/// Feature 7 discussion): "the need to transfer clean/dirty status in the
/// Katz et al. protocol can be eliminated by giving their clean write
/// state non-source status. (This state is entered only on a read miss to
/// unshared data.) This eliminates an inconsistency in the protocol as
/// well."
///
/// Behaviourally identical to [`Berkeley`] except that a `WriteClean` line
/// lets memory service read requests instead of supplying the block
/// itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct BerkeleyNonSourceWc;

impl Protocol for BerkeleyNonSourceWc {
    type State = BerkeleyState;

    fn name(&self) -> &'static str {
        "Berkeley (non-source write-clean ablation)"
    }

    fn proc_access(&self, state: BerkeleyState, kind: AccessKind) -> ProcAction<BerkeleyState> {
        Berkeley.proc_access(state, kind)
    }

    fn snoop(&self, state: BerkeleyState, txn: &BusTxn) -> SnoopOutcome<BerkeleyState> {
        // Write-clean keeps quiet on read requests: memory is current and
        // services them; everything else is stock Berkeley.
        if state == BerkeleyState::WriteClean {
            if let BusOp::Fetch { privilege: Privilege::Read, .. } = txn.op {
                return SnoopOutcome {
                    next: BerkeleyState::Shared,
                    reply: SnoopReply { hit: true, ..Default::default() },
                };
            }
        }
        Berkeley.snoop(state, txn)
    }

    fn complete(
        &self,
        state: BerkeleyState,
        kind: AccessKind,
        txn: &BusTxn,
        summary: &SnoopSummary,
    ) -> CompleteOutcome<BerkeleyState> {
        Berkeley.complete(state, kind, txn, summary)
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use mcs_model::{Addr, BlockAddr, CacheId, ProcId, ProcOp, Word};
    use mcs_sim::{ScriptWorkload, System, SystemConfig};

    #[test]
    fn write_clean_no_longer_supplies_reads() {
        let mut s = System::new(BerkeleyNonSourceWc, SystemConfig::new(2)).unwrap();
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read_for_write(Addr(0))), // WC
            (ProcId(1), ProcOp::read(Addr(0))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[1].2.value, Some(Word(0)));
        // Memory supplied — the stock protocol would have had WC supply.
        assert_eq!(stats.sources.from_cache, 0);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), BerkeleyState::Shared);
    }

    #[test]
    fn dirty_paths_unchanged() {
        let mut s = System::new(BerkeleyNonSourceWc, SystemConfig::new(2)).unwrap();
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(0), Word(7))),
            (ProcId(1), ProcOp::read(Addr(0))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[1].2.value, Some(Word(7)));
        assert_eq!(stats.sources.from_cache, 1);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), BerkeleyState::SharedDirty);
    }
}
