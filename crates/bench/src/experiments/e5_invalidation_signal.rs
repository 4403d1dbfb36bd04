//! **E5 — The bus invalidate signal (Section F.3, Feature 4).**
//!
//! Goodman invalidates by *writing through* to memory (a word-write
//! transaction); Frank's bus adds an explicit one-cycle invalidate signal.
//! The paper: "the fractional increase in bus traffic due to the
//! write-through is small if cache blocks are reasonably large, say n
//! bus-wide words … the increase appears to be much less than 1/n."
//!
//! We sweep block size `n` and compare total bus cycles of Goodman
//! (write-through invalidation) against Synapse (invalidate signal) on the
//! same workload, reporting the fractional increase next to 1/n.

use super::{cache, run_random};
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_workloads::RandomSharingConfig;

/// Block-size sweep (words per block).
pub const N_SWEEP: [usize; 4] = [2, 4, 8, 16];

fn workload() -> RandomSharingConfig {
    RandomSharingConfig {
        refs_per_proc: 4_000,
        shared_fraction: 0.3,
        shared_words: 128,
        ..Default::default()
    }
}

/// Measures the fractional bus-cycle increase of write-through
/// invalidation over the invalidate signal at block size `n`.
pub fn fraction(n: usize) -> f64 {
    let goodman = run_random(RunSpec::new(ProtocolKind::Goodman).cache(cache(128, n)), workload());
    let synapse = run_random(RunSpec::new(ProtocolKind::Synapse).cache(cache(128, n)), workload());
    (goodman.bus.busy_cycles as f64 - synapse.bus.busy_cycles as f64)
        / synapse.bus.busy_cycles as f64
}

/// Runs the sweep.
pub fn run() -> Report {
    let mut report = Report::new(
        "E5: invalidation write-through overhead vs the invalidate signal",
        &["n-words/block", "fractional-increase", "1/n"],
    );
    report.note("Feature 4 claim: the increase is much less than 1/n for reasonably large blocks");
    for n in N_SWEEP {
        report.row(vec![n.to_string(), f(fraction(n)), f(1.0 / n as f64)]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_below_one_over_n_for_large_blocks() {
        for n in [8, 16] {
            let frac = fraction(n);
            assert!(
                frac < 1.0 / n as f64,
                "n={n}: measured increase {frac:.3} must be below 1/n = {:.3}",
                1.0 / n as f64
            );
        }
    }

    #[test]
    fn overhead_is_positive_somewhere() {
        // Goodman's write-through invalidation does cost something at
        // small blocks.
        let frac = fraction(2);
        assert!(frac > -0.05, "small-block overhead should not be strongly negative: {frac:.3}");
    }

    #[test]
    fn report_shape() {
        let r = run();
        assert_eq!(r.rows.len(), N_SWEEP.len());
        assert!(r.cell_f64(0, "1/n").unwrap() > r.cell_f64(3, "1/n").unwrap());
    }
}
