//! **E10 — Rudolph-Segall's efficient busy wait vs the busy-wait register
//! (Sections D.1, E.4).**
//!
//! Rudolph & Segall orient their hybrid write-through/write-in scheme
//! around efficient busy wait: waiters loop on their cached copy of the
//! lock word, the unlock write-through updates (or revalidates) those
//! copies, and only then do waiters retry — at the cost of one-word blocks
//! and memory-held test-and-sets. The paper's proposal reaches the same
//! goal with the lock state and busy-wait register instead.
//!
//! Both systems are run with one-word blocks (Rudolph-Segall's
//! requirement) under rising contention; we report bus cycles per critical
//! section and unsuccessful attempts per acquisition.

use super::{cache, run_cs};
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_sync::LockSchemeKind;

/// Contention sweep.
pub const PROC_SWEEP: [usize; 3] = [2, 4, 8];

/// The contenders: (protocol, scheme, label).
pub const CONTENDERS: [(ProtocolKind, LockSchemeKind, &str); 3] = [
    (ProtocolKind::BitarDespain, LockSchemeKind::CacheLock, "proposal(lock-state)"),
    (ProtocolKind::RudolphSegall, LockSchemeKind::TestAndTestAndSet, "rudolph-segall(ttas)"),
    (ProtocolKind::RudolphSegall, LockSchemeKind::TestAndSet, "rudolph-segall(tas)"),
];

/// A compact outcome of one contention sweep point.
#[derive(Debug, Clone, Copy)]
pub struct ContenderOutcome {
    /// Completed critical sections.
    pub sections: u64,
    /// Bus busy cycles per completed section.
    pub cycles_per_section: f64,
    /// Unsuccessful lock attempts per acquisition.
    pub failed_per_acquire: f64,
}

/// One sweep point on 128 one-word blocks (Rudolph-Segall's requirement;
/// both schemes run the same geometry).
pub fn point(kind: ProtocolKind, scheme: LockSchemeKind, procs: usize) -> ContenderOutcome {
    let spec = RunSpec::new(kind).procs(procs).cache(cache(128, 1));
    let out = run_cs(spec, scheme, |b| {
        b.locks(1).payload_blocks(2).payload_reads(1).payload_writes(2).think_cycles(10).iterations(10)
    });
    ContenderOutcome {
        sections: out.sections,
        cycles_per_section: out.bus_cycles_per_section(),
        failed_per_acquire: out.failed_attempts_per_acquire(),
    }
}

/// Runs the sweep.
pub fn run() -> Report {
    let mut report = Report::new(
        "E10: Rudolph-Segall efficient busy wait vs the busy-wait register (1-word blocks)",
        &["scheme", "processors", "bus-cycles/section", "failed-attempts/acquire"],
    );
    report.note("Both schemes avoid blind re-fetch loops; only the register scheme reaches exactly zero");
    let grid: Vec<(ProtocolKind, LockSchemeKind, &str, usize)> = CONTENDERS
        .iter()
        .flat_map(|&(kind, scheme, label)| {
            PROC_SWEEP.iter().map(move |&procs| (kind, scheme, label, procs))
        })
        .collect();
    for ((_, _, label, procs), out) in grid.iter().zip(crate::sweep::sweep(
        &grid,
        |_, &(kind, scheme, _, procs)| point(kind, scheme, procs),
    )) {
        report.row(vec![
            label.to_string(),
            procs.to_string(),
            f(out.cycles_per_section),
            f(out.failed_per_acquire),
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_schemes_complete_under_contention() {
        for (kind, scheme, _) in CONTENDERS {
            let out = point(kind, scheme, 4);
            assert!(out.sections > 0, "{kind}/{scheme} must make progress");
        }
    }

    #[test]
    fn register_scheme_has_zero_failed_attempts() {
        for procs in PROC_SWEEP {
            let out = point(ProtocolKind::BitarDespain, LockSchemeKind::CacheLock, procs);
            assert_eq!(out.failed_per_acquire, 0.0);
        }
    }

    #[test]
    fn rs_ttas_beats_rs_tas_under_contention() {
        let ttas = point(ProtocolKind::RudolphSegall, LockSchemeKind::TestAndTestAndSet, 8);
        let tas = point(ProtocolKind::RudolphSegall, LockSchemeKind::TestAndSet, 8);
        assert!(
            ttas.failed_per_acquire <= tas.failed_per_acquire,
            "spinning in cache ({:.2}) must not fail more than blind TAS ({:.2})",
            ttas.failed_per_acquire,
            tas.failed_per_acquire
        );
    }

    #[test]
    fn report_shape() {
        let r = run();
        assert_eq!(r.rows.len(), CONTENDERS.len() * PROC_SWEEP.len());
    }
}
