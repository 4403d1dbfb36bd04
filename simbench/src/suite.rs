//! experiment_suite: one pass of E1-E13 through each `eN::run()`, in
//! order. Running them one after another keeps the live sweep threads at
//! most `available_parallelism`; `experiments::all()` would nest each
//! experiment's own sweep inside a sweep over experiments.

use crate::digest;
use crate::golden;
use mcs_bench::experiments::{
    e10_rudolph_segall, e11_directory, e12_rmw_methods, e13_berkeley_wc, e1_shared_data,
    e2_locking, e3_busywait, e4_dirty_status, e5_invalidation_signal, e6_read_for_write,
    e7_source_policy, e8_write_no_fetch, e9_transfer_units,
};
use mcs_bench::report::Report;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The runners, E1 first.
pub const RUNNERS: [fn() -> Report; 13] = [
    e1_shared_data::run,
    e2_locking::run,
    e3_busywait::run,
    e4_dirty_status::run,
    e5_invalidation_signal::run,
    e6_read_for_write::run,
    e7_source_policy::run,
    e8_write_no_fetch::run,
    e9_transfer_units::run,
    e10_rudolph_segall::run,
    e11_directory::run,
    e12_rmw_methods::run,
    e13_berkeley_wc::run,
];

/// One pass: each experiment's wall seconds (its `run()` span only; the
/// report is rendered and digested after the clock stops) and the
/// failures, as `(experiment index, reason)`.
pub struct Pass {
    /// Wall seconds per experiment, E1 first.
    pub spans: [f64; 13],
    /// Experiments that panicked or whose report differs from the golden
    /// digest.
    pub failures: Vec<(usize, String)>,
}

impl Pass {
    /// Wall seconds of the whole pass.
    pub fn wall(&self) -> f64 {
        self.spans.iter().sum()
    }
}

/// Runs one pass and checks every report against the golden digests.
pub fn run_pass() -> Pass {
    let mut pass = Pass {
        spans: [0.0; 13],
        failures: Vec::new(),
    };
    for (i, run) in RUNNERS.iter().enumerate() {
        let t = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(run));
        pass.spans[i] = t.elapsed().as_secs_f64();
        match report {
            Ok(report) => {
                let got = digest::of_str(&report.render());
                if got != golden::SUITE[i] {
                    pass.failures.push((
                        i,
                        format!("report digest {got:016x}, golden {:016x}", golden::SUITE[i]),
                    ));
                }
            }
            Err(_) => pass.failures.push((i, "panicked".into())),
        }
    }
    pass
}
