//! Service-request queues — the paper's second reason for busy wait
//! (Section B.2): when the hardware does not implement queuing, *sleep
//! wait* is built in software, and the queue-manager procedure busy-waits
//! for access to the software-implemented queues.
//!
//! "The manipulations of the sleep-wait and ready queues … may require
//! several block fetches, say three or four, per queue. And … there may be
//! quite a few processes that access each queue, especially a global ready
//! queue, thereby generating high contention for the queue." (Section E.4.)
//!
//! A queue operation is therefore modelled as: lock the queue descriptor
//! atom, touch 3–4 blocks (head, tail, the entry), release. This is a
//! preset of [`CriticalSectionWorkload`] with the paper's parameters.

use crate::critical_section::CriticalSectionWorkload;
use mcs_sync::LockSchemeKind;

/// Builds the global-ready-queue workload: `queues` software queues, each
/// operation locking the descriptor and touching `blocks_per_op` blocks
/// (the paper's three or four), with `ops_per_proc` operations per
/// processor under the given lock scheme.
pub fn workload(
    scheme: LockSchemeKind,
    queues: usize,
    blocks_per_op: usize,
    ops_per_proc: usize,
) -> CriticalSectionWorkload {
    CriticalSectionWorkload::builder()
        .scheme(scheme)
        .locks(queues)
        .payload_blocks(blocks_per_op.clamp(3, 4))
        // One read + one write per touched block: read head/tail/entry,
        // link the entry, update head.
        .payload_reads(blocks_per_op.clamp(3, 4))
        .payload_writes(blocks_per_op.clamp(3, 4))
        .think_cycles(30)
        .iterations(ops_per_proc)
        .build()
}

/// The paper's headline case: a single global ready queue with 3–4 block
/// fetches per operation and high contention.
pub fn global_ready_queue(scheme: LockSchemeKind, ops_per_proc: usize) -> CriticalSectionWorkload {
    workload(scheme, 1, 4, ops_per_proc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::BitarDespain;
    use mcs_protocols::Illinois;
    use mcs_sim::{System, SystemConfig};

    #[test]
    fn global_queue_completes_under_cache_lock() {
        let mut w = global_ready_queue(LockSchemeKind::CacheLock, 6);
        let mut sys = System::new(BitarDespain, SystemConfig::new(5)).unwrap();
        let stats = sys.run(&mut w, 5_000_000).unwrap().stats;
        assert_eq!(w.completed_sections(), 30);
        // High contention on one queue: denials happen, retries never.
        assert_eq!(stats.bus.retries, 0);
    }

    #[test]
    fn global_queue_completes_under_tas() {
        let mut w = global_ready_queue(LockSchemeKind::TestAndSet, 6);
        let mut sys = System::new(Illinois, SystemConfig::new(5)).unwrap();
        sys.run(&mut w, 5_000_000).unwrap();
        assert_eq!(w.completed_sections(), 30);
        assert!(w.scheme_stats().failed_tas > 0);
    }

    #[test]
    fn more_queues_spread_contention() {
        let run = |queues: usize| {
            let mut w = workload(LockSchemeKind::CacheLock, queues, 4, 6);
            let mut sys = System::new(BitarDespain, SystemConfig::new(6)).unwrap();
            let stats = sys.run(&mut w, 5_000_000).unwrap().stats;
            stats.locks.denied
        };
        assert!(run(8) <= run(1));
    }
}
