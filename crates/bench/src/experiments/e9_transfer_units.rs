//! **E9 — Internal fragmentation and transfer units (Section D.3).**
//!
//! Under write-in a block should be devoted to the atom it contains, so
//! large blocks suffer internal fragmentation: "an entire block must be
//! transferred when access is requested to the (possibly smaller) atom on
//! the block. A solution is to transfer smaller transfer units."
//!
//! We hold the block size at 16 words, shrink the transfer unit, and
//! measure bus words per critical section for a small (few-word) atom
//! bouncing between processors.

use super::{cache, run_cs};
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_sync::LockSchemeKind;

/// Transfer-unit sweep, in words (16 = whole block, i.e. units disabled).
pub const UNIT_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Words moved per critical section with the given transfer unit, on 32
/// blocks of 16 words.
pub fn words_per_section(unit: usize) -> f64 {
    let mut geometry = cache(32, 16);
    if unit < 16 {
        geometry = geometry.with_transfer_unit(unit).expect("unit divides the block");
    }
    let spec = RunSpec::new(ProtocolKind::BitarDespain).cache(geometry);
    let out = run_cs(spec, LockSchemeKind::CacheLock, |b| {
        b.locks(1).payload_blocks(1).payload_reads(1).payload_writes(2).think_cycles(20).iterations(15)
    });
    out.stats.bus.words_transferred as f64 / out.sections as f64
}

/// Runs the sweep.
pub fn run() -> Report {
    let mut report = Report::new(
        "E9: transfer units vs internal fragmentation (16-word blocks, few-word atom)",
        &["transfer-unit-words", "bus-words/section"],
    );
    report.note("Section D.3: smaller transfer units avoid moving a whole block for a small atom");
    for unit in UNIT_SWEEP {
        report.row(vec![unit.to_string(), f(words_per_section(unit))]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_units_move_far_fewer_words() {
        let one = words_per_section(1);
        let full = words_per_section(16);
        assert!(
            one * 2.0 < full,
            "1-word units ({one:.1} words/section) must move far less than whole blocks ({full:.1})"
        );
    }

    #[test]
    fn words_monotone_in_unit_size() {
        let mut last = 0.0;
        for unit in UNIT_SWEEP {
            let w = words_per_section(unit);
            assert!(w + 1e-9 >= last, "unit {unit}: words {w:.1} must not shrink from {last:.1}");
            last = w;
        }
    }

    #[test]
    fn report_shape() {
        let r = run();
        assert_eq!(r.rows.len(), UNIT_SWEEP.len());
    }
}
