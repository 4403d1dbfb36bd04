//! One cache's directory traffic (Feature 3), built from the counters that
//! already hold it. [`DirectoryDuality`] explains the three organisations
//! and prices one status update.

use mcs_model::{DirectoryDuality, DirectoryStats, ProcStats};

/// Cache directory traffic for the processor counted by `proc`. Every
/// reference looks up the processor-side directory and every write hit to
/// a clean line updates dirty status, so those two are `proc.refs` and
/// `proc.write_hits_to_clean`. Bus-side lookups and waiter-status updates
/// come from `counted`, the only counters the engine keeps for them. Each
/// status update costs the other port what `duality` charges.
pub fn directory_stats(
    duality: DirectoryDuality,
    proc: &ProcStats,
    counted: &DirectoryStats,
) -> DirectoryStats {
    let updates = proc.write_hits_to_clean + counted.waiter_status_updates;
    DirectoryStats {
        proc_accesses: proc.refs,
        bus_accesses: counted.bus_accesses,
        dirty_status_updates: proc.write_hits_to_clean,
        waiter_status_updates: counted.waiter_status_updates,
        interference_cycles: updates * duality.interference_per_update(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Directory traffic after `dirty` write hits to clean lines and
    /// `waiter` waiter-status updates.
    fn after(duality: DirectoryDuality, dirty: u64, waiter: u64) -> DirectoryStats {
        let proc = ProcStats { write_hits_to_clean: dirty, ..Default::default() };
        let counted = DirectoryStats { waiter_status_updates: waiter, ..Default::default() };
        directory_stats(duality, &proc, &counted)
    }

    #[test]
    fn identical_dual_charges_interference() {
        let d = DirectoryDuality::IdenticalDual;
        assert_eq!(after(d, 1, 0).interference_cycles, 1);
        let s = after(d, 1, 1);
        assert_eq!(s.interference_cycles, 2);
        assert_eq!(s.dirty_status_updates, 1);
        assert_eq!(s.waiter_status_updates, 1);
    }

    #[test]
    fn non_identical_dual_eliminates_interference() {
        let s = after(DirectoryDuality::NonIdenticalDual, 1, 1);
        assert_eq!(s.interference_cycles, 0);
        // Events are still counted even though they cost nothing.
        assert_eq!(s.dirty_status_updates, 1);
    }

    #[test]
    fn dual_ported_read_interferes_on_writes() {
        let d = DirectoryDuality::DualPortedRead;
        assert_eq!(after(d, 1, 0).interference_cycles, 1);
        assert_eq!(after(d, 1, 1).interference_cycles, 2);
    }
}
