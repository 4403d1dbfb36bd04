//! The measured experiments E1–E13 (see `DESIGN.md` §5 for the index and
//! `EXPERIMENTS.md` for paper-vs-measured).
//!
//! Every experiment returns a [`Report`]; its tests
//! assert the *shape* the paper claims (who wins, by what rough factor,
//! where crossovers fall), never absolute cycle counts.

pub mod e1_shared_data;
pub mod e10_rudolph_segall;
pub mod e11_directory;
pub mod e12_rmw_methods;
pub mod e13_berkeley_wc;
pub mod e2_locking;
pub mod e3_busywait;
pub mod e4_dirty_status;
pub mod e5_invalidation_signal;
pub mod e6_read_for_write;
pub mod e7_source_policy;
pub mod e8_write_no_fetch;
pub mod e9_transfer_units;

use crate::harness::RunSpec;
use crate::report::Report;
use mcs_cache::CacheConfig;
use mcs_core::ProtocolKind;
use mcs_model::Stats;
use mcs_sync::{LockSchemeKind, LockSchemeStats};
use mcs_workloads::{CriticalSectionBuilder, RandomSharingConfig, RandomSharingWorkload};

/// Hard ceiling for experiment and observed runs; hitting it means a
/// deadlock.
pub(crate) const MAX_CYCLES: u64 = 30_000_000;

/// An experiment's runner.
type Runner = fn() -> Report;

/// The experiments, E1 first, by CLI id.
const EXPERIMENTS: [(&str, Runner); 13] = [
    ("e1", e1_shared_data::run),
    ("e2", e2_locking::run),
    ("e3", e3_busywait::run),
    ("e4", e4_dirty_status::run),
    ("e5", e5_invalidation_signal::run),
    ("e6", e6_read_for_write::run),
    ("e7", e7_source_policy::run),
    ("e8", e8_write_no_fetch::run),
    ("e9", e9_transfer_units::run),
    ("e10", e10_rudolph_segall::run),
    ("e11", e11_directory::run),
    ("e12", e12_rmw_methods::run),
    ("e13", e13_berkeley_wc::run),
];

/// A critical-section cell: the settings one experiment measures, applied
/// to a builder whose lock scheme and block size are already set.
pub type Cell = fn(CriticalSectionBuilder) -> CriticalSectionBuilder;

/// The contended cells `obsreport --experiment` opens, by CLI id: the same
/// functions E2 and E3 measure with.
pub const OBSERVED_CELLS: [(&str, Cell); 2] =
    [("e2", e2_locking::cell), ("e3", e3_busywait::cell)];

/// The lock scheme a protocol's lock workloads use: cache-state locking on
/// Bitar-Despain, whose lock states it needs, and test-and-set elsewhere.
pub fn paired_scheme(kind: ProtocolKind) -> LockSchemeKind {
    if kind == ProtocolKind::BitarDespain {
        LockSchemeKind::CacheLock
    } else {
        LockSchemeKind::TestAndSet
    }
}

/// A fully associative cache of `blocks` blocks of `words_per_block`
/// words, for the experiments that sweep or shrink the geometry.
fn cache(blocks: usize, words_per_block: usize) -> CacheConfig {
    CacheConfig::fully_associative(blocks, words_per_block).expect("valid cache geometry")
}

/// Outcome of a critical-section run.
#[derive(Debug, Clone)]
pub struct CsOutcome {
    /// Simulator statistics.
    pub stats: Stats,
    /// Completed critical sections.
    pub sections: u64,
    /// Lock-scheme counters.
    pub scheme: LockSchemeStats,
    /// Mean acquire latency in cycles.
    pub mean_acquire: f64,
}

impl CsOutcome {
    /// Bus busy cycles per completed section.
    pub fn bus_cycles_per_section(&self) -> f64 {
        if self.sections == 0 {
            f64::INFINITY
        } else {
            self.stats.bus.busy_cycles as f64 / self.sections as f64
        }
    }

    /// Bus transactions per completed section.
    pub fn bus_txns_per_section(&self) -> f64 {
        if self.sections == 0 {
            f64::INFINITY
        } else {
            self.stats.bus.txns as f64 / self.sections as f64
        }
    }

    /// Unsuccessful lock attempts (failed test-and-sets plus protocol-level
    /// bus retries) per acquisition — the quantity Section E.4's efficient
    /// busy wait drives to zero.
    pub fn failed_attempts_per_acquire(&self) -> f64 {
        let acquires = self.scheme.acquires.max(1);
        (self.scheme.failed_tas + self.stats.bus.retries) as f64 / acquires as f64
    }
}

/// Runs a critical-section workload with the given lock `scheme` on the
/// system `spec` describes, under the experiments' cycle ceiling.
///
/// `cell` sets the rest of the workload (locks, payload, iterations, …),
/// as in [`RunSpec::critical_section`].
pub fn run_cs(
    spec: RunSpec,
    scheme: LockSchemeKind,
    cell: impl FnOnce(CriticalSectionBuilder) -> CriticalSectionBuilder,
) -> CsOutcome {
    let mut workload = spec.critical_section(scheme, cell);
    let stats = spec.max_cycles(MAX_CYCLES).run(&mut workload, None).stats;
    CsOutcome {
        stats,
        sections: workload.completed_sections(),
        scheme: *workload.scheme_stats(),
        mean_acquire: workload.mean_acquire_latency(),
    }
}

/// Runs the Smith-calibrated random-sharing workload on the system `spec`
/// describes, under the experiments' cycle ceiling.
pub fn run_random(spec: RunSpec, cfg: RandomSharingConfig) -> Stats {
    spec.max_cycles(MAX_CYCLES).run(&mut RandomSharingWorkload::new(cfg), None).stats
}

/// All experiment reports, in order, for the `exp` binary.
pub fn all() -> Vec<Report> {
    // Each experiment is an independent deterministic simulation; fan the
    // thirteen runners out over threads, reports returned in E1..E13 order.
    crate::sweep::sweep(&EXPERIMENTS, |_, (_, run)| run())
}

/// Looks up an experiment by id (`e1`…`e13`) and runs it.
pub fn by_id(id: &str) -> Option<Report> {
    EXPERIMENTS.iter().find(|(name, _)| *name == id).map(|(_, run)| run())
}
