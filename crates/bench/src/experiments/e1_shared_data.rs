//! **E1 — Write-in vs. write-through for actively shared data (Section D.2).**
//!
//! The paper's analysis: write-through's word-granularity, predictive
//! updates of *all* caches are "inappropriate for an atom whose blocks are
//! written more than a few times while the atom is locked", whereas
//! write-in lets a processor acquire the sole copy and write it any number
//! of times without the bus.
//!
//! We sweep `k`, the number of writes to the atom per lock hold, and
//! measure bus cycles per completed critical section for write-in
//! protocols (the proposal, Illinois) against update/write-through schemes
//! (Dragon, Firefly, classic write-through).

use super::{run_cs, CsOutcome};
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_sync::LockSchemeKind;

/// Writes-per-hold sweep points.
pub const K_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Protocols compared: (kind, lock scheme).
pub const CONTENDERS: [(ProtocolKind, LockSchemeKind); 5] = [
    (ProtocolKind::BitarDespain, LockSchemeKind::CacheLock),
    (ProtocolKind::Illinois, LockSchemeKind::TestAndSet),
    (ProtocolKind::Dragon, LockSchemeKind::TestAndSet),
    (ProtocolKind::Firefly, LockSchemeKind::TestAndSet),
    (ProtocolKind::ClassicWriteThrough, LockSchemeKind::TestAndSet),
];

/// One measured point.
pub fn measure(kind: ProtocolKind, scheme: LockSchemeKind, k: usize) -> CsOutcome {
    run_cs(RunSpec::new(kind), scheme, |b| {
        b.locks(2).payload_blocks(1).payload_reads(1).payload_writes(k).think_cycles(40).iterations(15)
    })
}

/// Runs the sweep.
pub fn run() -> Report {
    let mut report = Report::new(
        "E1: shared data - write-in vs write-through (bus cycles per critical section)",
        &["protocol", "k-writes", "bus-cycles/section", "bus-txns/section"],
    );
    report.note("Section D.2: write-through loses once an atom is written more than a few times per hold");
    let grid: Vec<(ProtocolKind, LockSchemeKind, usize)> = CONTENDERS
        .iter()
        .flat_map(|&(kind, scheme)| K_SWEEP.iter().map(move |&k| (kind, scheme, k)))
        .collect();
    for ((kind, _, k), out) in grid
        .iter()
        .zip(crate::sweep::sweep(&grid, |_, &(kind, scheme, k)| measure(kind, scheme, k)))
    {
        report.row(vec![
            kind.id().to_string(),
            k.to_string(),
            f(out.bus_cycles_per_section()),
            f(out.bus_txns_per_section()),
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycles(kind: ProtocolKind, scheme: LockSchemeKind, k: usize) -> f64 {
        measure(kind, scheme, k).bus_cycles_per_section()
    }

    #[test]
    fn write_through_cost_grows_with_writes_per_hold() {
        // Dragon pays one bus update per shared write: k=16 must cost
        // substantially more than k=1.
        let lo = cycles(ProtocolKind::Dragon, LockSchemeKind::TestAndSet, 1);
        let hi = cycles(ProtocolKind::Dragon, LockSchemeKind::TestAndSet, 16);
        assert!(hi > lo * 1.5, "Dragon: k=16 ({hi:.1}) vs k=1 ({lo:.1}) must grow");
        let lo = cycles(ProtocolKind::ClassicWriteThrough, LockSchemeKind::TestAndSet, 1);
        let hi = cycles(ProtocolKind::ClassicWriteThrough, LockSchemeKind::TestAndSet, 16);
        assert!(hi > lo * 1.5, "classic WT: k=16 ({hi:.1}) vs k=1 ({lo:.1}) must grow");
    }

    #[test]
    fn write_in_cost_stays_flat() {
        let lo = cycles(ProtocolKind::BitarDespain, LockSchemeKind::CacheLock, 1);
        let hi = cycles(ProtocolKind::BitarDespain, LockSchemeKind::CacheLock, 16);
        assert!(
            hi < lo * 1.5,
            "write-in: extra writes are local; k=16 ({hi:.1}) vs k=1 ({lo:.1}) must stay flat"
        );
    }

    #[test]
    fn write_in_wins_at_high_write_counts() {
        // The paper's conclusion: for atoms written more than a few times
        // per hold, write-in beats write-through.
        let write_in = cycles(ProtocolKind::BitarDespain, LockSchemeKind::CacheLock, 16);
        for kind in [ProtocolKind::Dragon, ProtocolKind::Firefly, ProtocolKind::ClassicWriteThrough]
        {
            let wt = cycles(kind, LockSchemeKind::TestAndSet, 16);
            assert!(
                write_in < wt,
                "{kind}: write-through {wt:.1} must exceed write-in {write_in:.1} at k=16"
            );
        }
    }

    #[test]
    fn report_has_full_sweep() {
        let r = run();
        assert_eq!(r.rows.len(), CONTENDERS.len() * K_SWEEP.len());
        assert!(r.find_row("protocol", "dragon").is_some());
        assert!(r.find_row("protocol", "bitar-despain").is_some());
    }
}
