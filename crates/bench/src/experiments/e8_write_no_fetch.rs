//! **E8 — Writing without fetch on a write miss (Section F.3, Feature 9).**
//!
//! "If the processor is going to write all of the data in a block, the
//! block need not be fetched on a miss … This may occur in initializing
//! data, but more importantly, in saving state at a process switch."
//!
//! A process migrates around the machine saving/restoring its state
//! blocks; we compare bus words and cycles per hop with and without
//! write-without-fetch.

use super::MAX_CYCLES;
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_model::Stats;
use mcs_workloads::MigrationWorkload;

/// Runs the migration workload; returns `(stats, hops)`.
pub fn measure(use_write_no_fetch: bool, state_blocks: usize) -> (Stats, usize) {
    let mut w = MigrationWorkload::new(4, state_blocks, 12, use_write_no_fetch);
    let spec = RunSpec::new(ProtocolKind::BitarDespain).max_cycles(MAX_CYCLES);
    (spec.run(&mut w, None).stats, w.hops_done())
}

/// Runs the comparison over state sizes.
pub fn run() -> Report {
    let mut report = Report::new(
        "E8: write-without-fetch for process-state saving",
        &["state-blocks", "scheme", "bus-words/hop", "bus-cycles/hop", "claim-no-fetch-txns"],
    );
    report.note("Feature 9: state saves need the bus only to invalidate, not to fetch");
    for blocks in [2usize, 4, 8] {
        for (label, wnf) in [("write-no-fetch", true), ("plain-writes", false)] {
            let (stats, hops) = measure(wnf, blocks);
            report.row(vec![
                blocks.to_string(),
                label.to_string(),
                f(stats.bus.words_transferred as f64 / hops as f64),
                f(stats.bus.busy_cycles as f64 / hops as f64),
                stats.bus.count("claim-no-fetch").to_string(),
            ]);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_no_fetch_moves_fewer_words() {
        let (with, hops_a) = measure(true, 4);
        let (without, hops_b) = measure(false, 4);
        assert_eq!(hops_a, 12);
        assert_eq!(hops_b, 12);
        assert!(
            with.bus.words_transferred < without.bus.words_transferred,
            "WNF words {} must be below plain {}",
            with.bus.words_transferred,
            without.bus.words_transferred
        );
    }

    #[test]
    fn write_no_fetch_cheaper_in_cycles() {
        let (with, _) = measure(true, 8);
        let (without, _) = measure(false, 8);
        assert!(
            with.bus.busy_cycles < without.bus.busy_cycles,
            "WNF cycles {} must beat plain {}",
            with.bus.busy_cycles,
            without.bus.busy_cycles
        );
    }

    #[test]
    fn report_shape() {
        let r = run();
        assert_eq!(r.rows.len(), 6);
        assert!(r.find_row("scheme", "write-no-fetch").is_some());
    }
}
