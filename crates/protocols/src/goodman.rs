//! Goodman's **write-once** protocol (1983) — the first full-broadcast,
//! write-in scheme (Section F.2; Table 2).
//!
//! Key properties reproduced here:
//!
//! * identical dual directories; fully-distributed R/W/D/S status;
//! * the **first** write to a block goes *through* to memory and
//!   invalidates other copies (the original Multibus had no invalidation
//!   signal concurrent with a fetch), leaving the block *Reserved* (clean,
//!   exclusive);
//! * the **second** write makes the block *Dirty*, at which point the cache
//!   becomes the block's source;
//! * dirty blocks are **flushed** on cache-to-cache transfer, so they
//!   always arrive clean (Feature 7 = F);
//! * a write miss takes two transactions: fetch for read, then the
//!   invalidating write-through (modelled with
//!   [`CompleteOutcome::InstalledRetryOp`]).

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, Privilege, ProcAction, Protocol,
    SnoopOutcome, SnoopReply, SnoopSummary, UpdateTarget,
};

line_states! {
    /// Cache-line states of write-once.
    pub enum GoodmanState {
        /// Meaningless.
        Invalid = "I",
        /// Valid: clean, potentially shared, read privilege.
        Valid = "V" (Read),
        /// Reserved: clean and exclusive (memory current) — entered by the
        /// first, written-through write.
        Reserved = "R" (Write),
        /// Dirty: written at least twice; sole copy; this cache is the source.
        Dirty = "D" (Write, source, dirty),
    }
}

/// Goodman's write-once protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct Goodman;

use GoodmanState as S;

impl Protocol for Goodman {
    type State = GoodmanState;

    fn name(&self) -> &'static str {
        "Goodman 1983 (write-once)"
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
            // An atomic RMW goes to the memory module — unless this cache
            // already has sole access (Reserved/Dirty), in which case the
            // operation is trivially serialized locally (memory would be
            // stale for a Dirty block).
            Rmw => match state {
                S::Reserved | S::Dirty => ProcAction::Hit { next: S::Dirty },
                _ => ProcAction::Bus { op: BusOp::MemoryRmw },
            },
            // Write / UnlockWrite / WriteNoFetch.
            _ => match state {
                // First write: write through, invalidating other copies.
                S::Valid => {
                    ProcAction::Bus { op: BusOp::WriteWord { target: UpdateTarget::Invalidate } }
                }
                // Second and later writes are local (write-in).
                S::Reserved | S::Dirty => ProcAction::Hit { next: S::Dirty },
                // Write miss: fetch for read first (two transactions).
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
            BusOp::Fetch { privilege: Privilege::Read, .. } | BusOp::IoOutput { paging: false } => {
                match state {
                    // The source supplies the dirty block and flushes it,
                    // so it arrives clean; both copies end up Valid.
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
                    // Reserved is clean: memory supplies; downgrade.
                    S::Reserved => SnoopOutcome {
                        next: S::Valid,
                        reply: SnoopReply { hit: true, ..Default::default() },
                    },
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
                        flushes: true, // Goodman flushes on every transfer
                        ..Default::default()
                    },
                },
                _ => SnoopOutcome {
                    next: S::Invalid,
                    reply: SnoopReply { hit: true, ..Default::default() },
                },
            },
            // A memory-module RMW updates the word at memory and the
            // engine refreshes cached copies in place, so valid copies stay
            // valid (otherwise spinning test-and-sets livelock a releaser's
            // fetch-then-write-through sequence). Dirty data flushes first
            // so the RMW reads current memory; exclusivity is lost.
            BusOp::MemoryRmw => SnoopOutcome {
                next: S::Valid,
                reply: SnoopReply { hit: true, flushes: state == S::Dirty, ..Default::default() },
            },
            BusOp::WriteWord { .. } | BusOp::IoInput | BusOp::ClaimNoFetch => SnoopOutcome {
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
        match txn.op {
            BusOp::Fetch { .. } => {
                if kind.is_write() {
                    // Write miss, first half: block fetched for read; now
                    // present the write again to generate the
                    // write-through.
                    CompleteOutcome::InstalledRetryOp { next: S::Valid }
                } else {
                    CompleteOutcome::Installed { next: S::Valid }
                }
            }
            // The write-once write-through leaves the block Reserved.
            BusOp::WriteWord { .. } => CompleteOutcome::Installed { next: S::Reserved },
            BusOp::MemoryRmw => CompleteOutcome::Installed { next: S::Invalid },
            _ => CompleteOutcome::Installed { next: state },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{Addr, BlockAddr, CacheId, ProcId, ProcOp, Word};
    use mcs_sim::{ScriptWorkload, System, SystemConfig};

    fn sys(n: usize) -> System<Goodman> {
        System::new(Goodman, SystemConfig::new(n)).unwrap()
    }

    #[test]
    fn write_once_state_progression() {
        let mut s = sys(1);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(0))),
                (ProcId(0), ProcOp::write(Addr(0), Word(1))), // write-through -> Reserved
                (ProcId(0), ProcOp::write(Addr(0), Word(2))), // local -> Dirty
                (ProcId(0), ProcOp::write(Addr(0), Word(3))), // local
            ]), 10_000).unwrap().stats;
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Dirty);
        // Exactly one write-through: the block was written once to memory.
        assert_eq!(stats.bus.count("write-word-inv"), 1);
    }

    #[test]
    fn first_write_invalidates_sharers() {
        let mut s = sys(2);
        s.run(&mut ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::read(Addr(0))),
            (ProcId(0), ProcOp::write(Addr(0), Word(1))),
        ]), 10_000)
        .unwrap();
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Reserved);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Invalid);
    }

    #[test]
    fn write_miss_takes_two_transactions() {
        let mut s = sys(1);
        let script = vec![(ProcId(0), ProcOp::write(Addr(4), Word(9)))];
        let stats = s.run(&mut ScriptWorkload::new(script), 10_000).unwrap().stats;
        assert_eq!(stats.bus.count("fetch-read"), 1);
        assert_eq!(stats.bus.count("write-word-inv"), 1);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(1)), S::Reserved);
    }

    #[test]
    fn dirty_block_flushed_on_transfer_arrives_clean() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(0), Word(1))),
            (ProcId(0), ProcOp::write(Addr(0), Word(2))), // Dirty
            (ProcId(1), ProcOp::read(Addr(0))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[2].2.value, Some(Word(2)));
        // Both ends Valid (clean), block flushed to memory during transfer.
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Valid);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Valid);
        assert!(stats.sources.flushes >= 1);
        assert_eq!(stats.sources.from_cache, 1);
    }

    #[test]
    fn reserved_block_serviced_by_memory() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(0), Word(5))), // -> Reserved (memory current)
            (ProcId(1), ProcOp::read(Addr(0))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[1].2.value, Some(Word(5)));
        // Memory supplied the data (Reserved is not a source).
        assert_eq!(stats.sources.from_cache, 0);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Valid);
    }

    #[test]
    fn coherence_across_three_caches() {
        let mut s = sys(3);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(8), Word(1))),
            (ProcId(0), ProcOp::write(Addr(8), Word(2))),
            (ProcId(1), ProcOp::read(Addr(8))),
            (ProcId(2), ProcOp::write(Addr(8), Word(3))),
            (ProcId(0), ProcOp::read(Addr(8))),
        ]);
        s.run(&mut script, 10_000).unwrap();
        assert_eq!(script.results()[2].2.value, Some(Word(2)));
        assert_eq!(script.results()[4].2.value, Some(Word(3)));
    }
}
