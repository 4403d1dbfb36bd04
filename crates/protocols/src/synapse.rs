//! Frank's **Synapse** protocol (1984) — Section F.2; Table 1 column 2.
//!
//! Properties reproduced:
//!
//! * a proprietary bus with an explicit **invalidate signal**, enabling
//!   invalidation concurrent with a block fetch (Feature 4), so the clean
//!   write state of write-once is not useful and the states are just
//!   Invalid / Valid / Dirty;
//! * source status is **not** fully distributed: main memory keeps a source
//!   bit (Feature 2 = RWD). We model its observable effect: when a block is
//!   dirty in a cache, memory refuses to supply it;
//! * a source cache supplies data **only for write-privilege requests**
//!   (Table 1, note 1). A *read* request to a dirty block is rejected: the
//!   owner flushes the block to memory and the requester retries —
//!   Synapse's well-known extra-latency path;
//! * no flushing on (write-request) cache-to-cache transfer (Feature 7 = NF);
//! * atomic RMW by fetching the block for sole access and holding the cache
//!   (Feature 6, method 2).

use mcs_model::{
    line_states, AccessKind, BusOp, BusTxn, CompleteOutcome, DistributedState, Privilege,
    ProcAction, Protocol, RmwMethod, SnoopOutcome, SnoopReply, SnoopSummary,
};

line_states! {
    /// Cache-line states of the Synapse protocol.
    pub enum SynapseState {
        /// Meaningless.
        Invalid = "I",
        /// Valid: clean, potentially shared.
        Valid = "V" (Read),
        /// Dirty: sole copy, memory stale; memory's source bit points here.
        Dirty = "D" (Write, source, dirty),
    }
    declares {
        distributed: DistributedState::RWD,
        atomic_rmw: Some(RmwMethod::FetchAndHoldCache),
    }
}

/// The Synapse N+1 coherence protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct Synapse;

use SynapseState as S;

impl Protocol for Synapse {
    type State = SynapseState;

    fn name(&self) -> &'static str {
        "Frank 1984 (Synapse)"
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
            // Writes and atomic RMWs need sole access.
            _ => match state {
                S::Dirty => ProcAction::Hit { next: S::Dirty },
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
                    // Read request to a dirty block: reject, flush, let the
                    // requester retry against memory.
                    S::Dirty => SnoopOutcome {
                        next: S::Valid,
                        reply: SnoopReply {
                            hit: true,
                            inhibit_memory: true,
                            flushes: true,
                            retry: true,
                            ..Default::default()
                        },
                    },
                    _ => SnoopOutcome {
                        next: S::Valid,
                        reply: SnoopReply { hit: true, ..Default::default() },
                    },
                }
            }
            BusOp::Fetch { .. } | BusOp::IoOutput { paging: true } => match state {
                // Write-privilege request: the owner supplies, no flush.
                S::Dirty => SnoopOutcome {
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
                _ => SnoopOutcome {
                    next: S::Invalid,
                    reply: SnoopReply { hit: true, ..Default::default() },
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
        kind: AccessKind,
        txn: &BusTxn,
        summary: &SnoopSummary,
    ) -> CompleteOutcome<S> {
        if summary.retry {
            return CompleteOutcome::Retry;
        }
        let next = match txn.op {
            BusOp::Fetch { privilege: Privilege::Read, .. } => S::Valid,
            BusOp::Fetch { .. } | BusOp::Invalidate => S::Dirty,
            _ => state,
        };
        let _ = kind;
        CompleteOutcome::Installed { next }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{Addr, BlockAddr, CacheId, ProcId, ProcOp, Word};
    use mcs_sim::{ScriptWorkload, System, SystemConfig};

    fn sys(n: usize) -> System<Synapse> {
        System::new(Synapse, SystemConfig::new(n)).unwrap()
    }

    #[test]
    fn read_to_dirty_block_is_rejected_then_retried() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(0), Word(9))), // Dirty in C0
            (ProcId(1), ProcOp::read(Addr(0))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        // The read eventually succeeds with the flushed value...
        assert_eq!(script.results()[1].2.value, Some(Word(9)));
        // ...but it took a rejected transaction plus a retry.
        assert_eq!(stats.bus.retries, 1);
        assert_eq!(script.results()[1].2.retries, 1);
        // Owner downgraded; memory supplied the data on retry.
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Valid);
        assert_eq!(stats.sources.from_memory, 2); // C0's fetch + C1's retry fetch
        assert_eq!(stats.sources.from_cache, 0);
    }

    #[test]
    fn write_request_supplied_cache_to_cache_without_flush() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(0), Word(3))),
            (ProcId(1), ProcOp::write(Addr(0), Word(4))),
        ]);
        let stats = s.run(&mut script, 10_000).unwrap().stats;
        assert_eq!(script.results()[1].2.retries, 0);
        assert_eq!(stats.sources.from_cache, 1);
        // No flush on the write-request transfer; ownership moved.
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Invalid);
        assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Dirty);
    }

    #[test]
    fn invalidate_signal_upgrades_in_one_cycle() {
        let mut s = sys(2);
        let stats = s
            .run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(4))),
                (ProcId(1), ProcOp::read(Addr(4))),
                (ProcId(0), ProcOp::write(Addr(4), Word(1))),
            ]), 10_000).unwrap().stats;
        assert_eq!(stats.bus.count("invalidate"), 1);
        assert_eq!(stats.bus.count("write-word-inv"), 0); // no write-through
        assert_eq!(s.state_of(CacheId(1), BlockAddr(1)), S::Invalid);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(1)), S::Dirty);
    }

    #[test]
    fn rmw_fetches_for_sole_access() {
        let mut s = sys(2);
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::rmw(Addr(8), Word(1))),
            (ProcId(1), ProcOp::rmw(Addr(8), Word(1))),
        ]);
        s.run(&mut script, 10_000).unwrap();
        assert_eq!(script.results()[0].2.value, Some(Word(0)));
        assert_eq!(script.results()[1].2.value, Some(Word(1)));
        assert_eq!(s.state_of(CacheId(1), BlockAddr(2)), S::Dirty);
        assert_eq!(s.state_of(CacheId(0), BlockAddr(2)), S::Invalid);
    }

    #[test]
    fn no_clean_exclusive_state_on_read_miss() {
        let mut s = sys(2);
        s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]), 10_000).unwrap();
        // Sole reader still only gets Valid, not an exclusive state —
        // a subsequent write needs the bus.
        assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Valid);
        let script = vec![(ProcId(0), ProcOp::write(Addr(0), Word(1)))];
        let stats = s.run(&mut ScriptWorkload::new(script), 10_000).unwrap().stats;
        assert_eq!(stats.bus.count("invalidate"), 1);
    }
}
