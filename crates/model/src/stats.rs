//! Statistics gathered by the simulator.
//!
//! The experiment harness derives every reported number from these
//! counters: bus traffic and its breakdown by transaction code, hit rates,
//! lock behaviour (zero-time acquisitions, denied fetches, wait times,
//! unsuccessful retries), source-policy effectiveness (cache vs. memory
//! fetches), and the directory-interference quantities of Feature 3.

use std::collections::BTreeMap;

/// Per-processor counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Memory references issued.
    pub refs: u64,
    /// Read-class references (including lock-reads and RMW reads).
    pub reads: u64,
    /// Write-class references.
    pub writes: u64,
    /// References satisfied without the bus.
    pub hits: u64,
    /// References that required a bus transaction.
    pub misses: u64,
    /// Cycles doing useful work (including cache-hit accesses).
    pub busy_cycles: u64,
    /// Cycles stalled waiting for the bus/memory.
    pub stall_cycles: u64,
    /// Cycles spent waiting for a lock (from denial/first failed attempt to
    /// acquisition).
    pub lock_wait_cycles: u64,
    /// Of the lock-wait cycles, how many the processor spent doing useful
    /// work (working while waiting, Section E.4).
    pub useful_wait_cycles: u64,
    /// Write hits to a clean block — the dirty-status *change* frequency of
    /// the Feature 3 analysis.
    pub write_hits_to_clean: u64,
}

impl ProcStats {
    /// Hit rate among issued references, in [0, 1]. Returns 1 for an idle
    /// processor.
    pub fn hit_rate(&self) -> f64 {
        if self.refs == 0 {
            1.0
        } else {
            self.hits as f64 / self.refs as f64
        }
    }

    /// Processor utilization: busy cycles over busy+stall.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_cycles + self.stall_cycles;
        if total == 0 {
            1.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }
}

/// Bus-level counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Transactions granted.
    pub txns: u64,
    /// Cycles the bus was busy.
    pub busy_cycles: u64,
    /// Words of data moved (block and word transfers).
    pub words_transferred: u64,
    /// Transactions by mnemonic (see `BusOp::mnemonic`).
    pub by_op: BTreeMap<&'static str, u64>,
    /// Cache lines invalidated in snoopers.
    pub invalidations: u64,
    /// Cache lines updated in place in snoopers (write-through/update
    /// schemes).
    pub updates: u64,
    /// Transactions that had to be retried (rejected by a snooper, or an
    /// RMW/test-and-set that failed to acquire its lock). These are the
    /// "unsuccessful retries" efficient busy wait eliminates (Section E.4).
    pub retries: u64,
    /// Unlock broadcasts issued (lock-waiter state, Figure 8).
    pub unlock_broadcasts: u64,
    /// Transactions issued with the reserved high-priority bit
    /// (woken lock waiters re-acquiring, Figure 9).
    pub high_priority_grants: u64,
    /// Spurious bus NAKs injected by the fault layer. Always zero in
    /// fault-free runs.
    pub naks: u64,
}

impl BusStats {
    /// Bus utilization relative to `total_cycles` of simulated time.
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total_cycles as f64
        }
    }

    /// Count for one transaction mnemonic.
    pub fn count(&self, mnemonic: &str) -> u64 {
        self.by_op.get(mnemonic).copied().unwrap_or(0)
    }
}

/// Lock-behaviour counters (Sections E.3, E.4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Successful lock acquisitions.
    pub acquires: u64,
    /// Lock releases.
    pub releases: u64,
    /// Acquisitions that needed no bus transaction beyond the block fetch
    /// itself — the paper's "locking and unlocking will usually occur in
    /// zero time".
    pub zero_time_acquires: u64,
    /// Releases that needed no bus transaction (no waiter).
    pub zero_time_releases: u64,
    /// Lock fetches denied because the block was locked elsewhere
    /// (Figure 7) — each arms a busy-wait register.
    pub denied: u64,
    /// Waiters woken by an unlock broadcast (Figure 9).
    pub wakeups: u64,
    /// Total cycles processes spent waiting for locks.
    pub total_wait_cycles: u64,
    /// Longest single wait.
    pub max_wait_cycles: u64,
    /// Locked blocks purged from a cache with their lock bit written to
    /// memory (the Section E.3 minor modification for small set sizes).
    pub lock_spills: u64,
}

impl LockStats {
    /// Mean lock-wait cycles per acquisition.
    pub fn mean_wait(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.total_wait_cycles as f64 / self.acquires as f64
        }
    }
}

/// Source-function counters (Features 1, 7, 8).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Block fetches serviced.
    pub fetches: u64,
    /// ... by another cache (cache-to-cache transfer).
    pub from_cache: u64,
    /// ... by main memory.
    pub from_memory: u64,
    /// Blocks flushed to memory (evictions and snoop-forced flushes).
    pub flushes: u64,
    /// Source lines purged while the block was still valid elsewhere —
    /// the "loss of source" of Feature 8.
    pub source_losses: u64,
}

/// Directory-interference counters (Feature 3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Directory accesses from the processor side (one per reference).
    pub proc_accesses: u64,
    /// Directory accesses from the bus side (snoops).
    pub bus_accesses: u64,
    /// Dirty-status updates (write hit to a clean block) — these are the
    /// writes that interfere under identical-dual directories.
    pub dirty_status_updates: u64,
    /// Waiter-status updates by the bus controller (lock-waiter entry).
    pub waiter_status_updates: u64,
    /// Interference stall cycles: the status updates, each priced by
    /// [`crate::DirectoryDuality::interference_per_update`].
    pub interference_cycles: u64,
}

/// All statistics for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Simulated bus cycles elapsed.
    pub cycles: u64,
    /// Per-processor counters, indexed by processor id.
    pub per_proc: Vec<ProcStats>,
    /// Bus counters.
    pub bus: BusStats,
    /// Lock counters.
    pub locks: LockStats,
    /// Source/fetch counters.
    pub sources: SourceStats,
    /// Directory counters.
    pub directory: DirectoryStats,
}

impl Stats {
    /// Creates statistics for `procs` processors.
    pub fn new(procs: usize) -> Self {
        Stats { per_proc: vec![ProcStats::default(); procs], ..Default::default() }
    }

    /// Total references across processors.
    pub fn total_refs(&self) -> u64 {
        self.per_proc.iter().map(|p| p.refs).sum()
    }

    /// Total hits across processors.
    pub fn total_hits(&self) -> u64 {
        self.per_proc.iter().map(|p| p.hits).sum()
    }

    /// Global hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let refs = self.total_refs();
        if refs == 0 {
            1.0
        } else {
            self.total_hits() as f64 / refs as f64
        }
    }

    /// Bus words+signals per memory reference — the paper's "bus traffic"
    /// figure of merit, normalized.
    pub fn bus_cycles_per_ref(&self) -> f64 {
        let refs = self.total_refs();
        if refs == 0 {
            0.0
        } else {
            self.bus.busy_cycles as f64 / refs as f64
        }
    }

    /// Total write hits to clean blocks across processors (Feature 3 /
    /// experiment E4 numerator).
    pub fn write_hits_to_clean(&self) -> u64 {
        self.per_proc.iter().map(|p| p.write_hits_to_clean).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_sane_rates() {
        let s = Stats::new(4);
        assert_eq!(s.per_proc.len(), 4);
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.bus_cycles_per_ref(), 0.0);
        assert_eq!(s.bus.utilization(0), 0.0);
        assert_eq!(s.locks.mean_wait(), 0.0);
        assert_eq!(s.per_proc[0].utilization(), 1.0);
    }

    #[test]
    fn rates_computed() {
        let mut s = Stats::new(2);
        s.per_proc[0].refs = 80;
        s.per_proc[0].hits = 60;
        s.per_proc[1].refs = 20;
        s.per_proc[1].hits = 20;
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        s.bus.busy_cycles = 50;
        assert!((s.bus_cycles_per_ref() - 0.5).abs() < 1e-12);
        assert!((s.bus.utilization(100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lock_mean_wait() {
        let l = LockStats { acquires: 4, total_wait_cycles: 100, ..Default::default() };
        assert!((l.mean_wait() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn bus_by_op_count() {
        let mut b = BusStats::default();
        *b.by_op.entry("fetch-read").or_default() += 3;
        assert_eq!(b.count("fetch-read"), 3);
        assert_eq!(b.count("flush"), 0);
    }

    #[test]
    fn proc_utilization() {
        let p = ProcStats { busy_cycles: 30, stall_cycles: 70, ..Default::default() };
        assert!((p.utilization() - 0.3).abs() < 1e-12);
        let p2 = ProcStats { refs: 10, hits: 9, ..Default::default() };
        assert!((p2.hit_rate() - 0.9).abs() < 1e-12);
    }
}
