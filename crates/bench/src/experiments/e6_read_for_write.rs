//! **E6 — Fetching unshared data for write privilege on a read miss
//! (Section F.3, Feature 5).**
//!
//! A protocol *without* the feature (Synapse) must take an extra bus cycle
//! to gain write privilege when unshared data that was read is later
//! written; Illinois and the proposal avoid it using the hit line. The
//! paper estimates the extra traffic of lacking the feature at "much less
//! than 1/n" for blocks of n words.
//!
//! Workload: private data only (read-mostly with re-writes), so *every*
//! upgrade transaction is attributable to the missing feature.

use super::{cache, run_random};
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_workloads::RandomSharingConfig;

/// Block-size sweep.
pub const N_SWEEP: [usize; 4] = [2, 4, 8, 16];

fn workload() -> RandomSharingConfig {
    RandomSharingConfig {
        refs_per_proc: 4_000,
        shared_fraction: 0.0, // unshared data: the feature's target case
        write_ratio: 0.35,
        ..Default::default()
    }
}

/// Measured pair at block size `n`: (fractional extra bus cycles of the
/// featureless protocol, upgrade transactions it issued).
pub fn measure(n: usize) -> (f64, u64) {
    let without = run_random(RunSpec::new(ProtocolKind::Synapse).cache(cache(128, n)), workload());
    let with = run_random(RunSpec::new(ProtocolKind::Illinois).cache(cache(128, n)), workload());
    let frac = (without.bus.busy_cycles as f64 - with.bus.busy_cycles as f64)
        / with.bus.busy_cycles as f64;
    (frac, without.bus.count("invalidate"))
}

/// Runs the sweep.
pub fn run() -> Report {
    let mut report = Report::new(
        "E6: read-for-write-privilege on read miss - cost of lacking it",
        &["n-words/block", "fractional-increase", "1/n", "upgrade-txns(without)"],
    );
    report.note("Feature 5 claim: the extra traffic without the feature is much less than 1/n");
    for n in N_SWEEP {
        let (frac, upgrades) = measure(n);
        report.row(vec![n.to_string(), f(frac), f(1.0 / n as f64), upgrades.to_string()]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn featureless_protocol_issues_upgrades_featureful_does_not() {
        let without = run_random(RunSpec::new(ProtocolKind::Synapse).cache(cache(128, 4)), workload());
        let with = run_random(RunSpec::new(ProtocolKind::Illinois).cache(cache(128, 4)), workload());
        assert!(without.bus.count("invalidate") > 0, "Synapse must upgrade read copies");
        assert_eq!(
            with.bus.count("invalidate"),
            0,
            "Illinois on private data never needs an upgrade"
        );
    }

    #[test]
    fn extra_traffic_below_one_over_n_for_large_blocks() {
        for n in [8, 16] {
            let (frac, _) = measure(n);
            assert!(
                frac < 1.0 / n as f64,
                "n={n}: extra fraction {frac:.3} must be below {:.3}",
                1.0 / n as f64
            );
        }
    }

    #[test]
    fn report_shape() {
        let r = run();
        assert_eq!(r.rows.len(), N_SWEEP.len());
    }
}
