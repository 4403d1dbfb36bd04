//! **E3 — Efficient busy wait (Section E.4).**
//!
//! The two stated purposes:
//!
//! 1. *"Eliminate unsuccessful retries from the bus."* We sweep the number
//!    of contending processors and count unsuccessful lock attempts
//!    (failed test-and-sets, protocol retries) per acquisition. The
//!    busy-wait register scheme must stay at exactly zero while spin
//!    schemes grow with contention.
//! 2. *"Relieve a waiting processor of polling the status of a lock,
//!    allowing it to work while waiting."* With a ready section configured,
//!    we measure how much of the lock-wait time remains useful.

use super::{run_cs, CsOutcome};
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_sync::LockSchemeKind;
use mcs_workloads::CriticalSectionBuilder;

/// Contention sweep: processor counts.
pub const PROC_SWEEP: [usize; 4] = [2, 4, 6, 8];

/// E3's contended cell: one lock, one payload block read once and written
/// twice per section, think 10 cycles, 12 sections per processor.
pub fn cell(b: CriticalSectionBuilder) -> CriticalSectionBuilder {
    b.locks(1).payload_blocks(1).payload_reads(1).payload_writes(2).think_cycles(10).iterations(12)
}

/// One sweep point under heavy contention: `procs` processors on [`cell`].
pub fn measure(kind: ProtocolKind, scheme: LockSchemeKind, procs: usize) -> CsOutcome {
    run_cs(RunSpec::new(kind).procs(procs), scheme, cell)
}

/// The work-while-waiting variant of [`cell`]: waiters run a ready section.
pub fn measure_work_while_waiting(procs: usize) -> CsOutcome {
    let spec = RunSpec::new(ProtocolKind::BitarDespain).procs(procs);
    run_cs(spec, LockSchemeKind::CacheLock, |b| cell(b).work_while_waiting(1_000_000))
}

/// Runs the sweep.
pub fn run() -> Report {
    let mut report = Report::new(
        "E3: efficient busy wait - unsuccessful retries per acquisition",
        &["scheme", "processors", "failed-attempts/acquire", "bus-cycles/section"],
    );
    report.note("Section E.4 purpose 1: eliminate unsuccessful retries from the bus");
    let contenders = [
        (ProtocolKind::BitarDespain, LockSchemeKind::CacheLock),
        (ProtocolKind::Illinois, LockSchemeKind::TestAndSet),
        (ProtocolKind::Illinois, LockSchemeKind::TestAndTestAndSet),
    ];
    // Flatten the scheme x processor-count grid into one parallel sweep;
    // row order stays contender-major exactly as the serial loops emitted.
    let grid: Vec<(ProtocolKind, LockSchemeKind, usize)> = contenders
        .iter()
        .flat_map(|&(kind, scheme)| PROC_SWEEP.iter().map(move |&procs| (kind, scheme, procs)))
        .collect();
    for ((_, scheme, procs), out) in grid
        .iter()
        .zip(crate::sweep::sweep(&grid, |_, &(kind, scheme, procs)| measure(kind, scheme, procs)))
    {
        report.row(vec![
            scheme.id().to_string(),
            procs.to_string(),
            f(out.failed_attempts_per_acquire()),
            f(out.bus_cycles_per_section()),
        ]);
    }
    // Purpose 2: work while waiting.
    let mut pair = crate::sweep::sweep(&[false, true], |_, &ready_section| {
        if ready_section {
            measure_work_while_waiting(6)
        } else {
            measure(ProtocolKind::BitarDespain, LockSchemeKind::CacheLock, 6)
        }
    });
    let work = pair.pop().expect("two sweep points");
    let spin = pair.pop().expect("two sweep points");
    let useful = |o: &CsOutcome| {
        let wait: u64 = o.stats.per_proc.iter().map(|p| p.lock_wait_cycles).sum();
        let useful: u64 = o.stats.per_proc.iter().map(|p| p.useful_wait_cycles).sum();
        if wait == 0 {
            0.0
        } else {
            useful as f64 / wait as f64
        }
    };
    report.note(format!(
        "purpose 2 (6 processors): useful fraction of lock-wait time: spin={:.2}, ready-section={:.2}",
        useful(&spin),
        useful(&work)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_wait_register_eliminates_all_retries() {
        for procs in PROC_SWEEP {
            let out = measure(ProtocolKind::BitarDespain, LockSchemeKind::CacheLock, procs);
            assert_eq!(
                out.failed_attempts_per_acquire(),
                0.0,
                "{procs} processors: the register scheme must produce zero retries"
            );
            assert_eq!(out.stats.bus.retries, 0);
        }
    }

    #[test]
    fn tas_retries_grow_with_contention() {
        let low = measure(ProtocolKind::Illinois, LockSchemeKind::TestAndSet, 2);
        let high = measure(ProtocolKind::Illinois, LockSchemeKind::TestAndSet, 8);
        assert!(
            high.failed_attempts_per_acquire() > low.failed_attempts_per_acquire(),
            "TAS failures must grow with waiters: {:.2} -> {:.2}",
            low.failed_attempts_per_acquire(),
            high.failed_attempts_per_acquire()
        );
        assert!(high.failed_attempts_per_acquire() > 0.5, "TAS must visibly thrash at 8 procs");
    }

    #[test]
    fn ttas_retries_fewer_than_tas() {
        let tas = measure(ProtocolKind::Illinois, LockSchemeKind::TestAndSet, 8);
        let ttas = measure(ProtocolKind::Illinois, LockSchemeKind::TestAndTestAndSet, 8);
        assert!(
            ttas.failed_attempts_per_acquire() <= tas.failed_attempts_per_acquire(),
            "TTAS {:.2} must not exceed TAS {:.2}",
            ttas.failed_attempts_per_acquire(),
            tas.failed_attempts_per_acquire()
        );
    }

    #[test]
    fn waiters_can_work_while_waiting() {
        let work = measure_work_while_waiting(6);
        let useful: u64 = work.stats.per_proc.iter().map(|p| p.useful_wait_cycles).sum();
        let wait: u64 = work.stats.per_proc.iter().map(|p| p.lock_wait_cycles).sum();
        assert!(wait > 0, "contention must cause waiting");
        assert!(
            useful as f64 > 0.9 * wait as f64,
            "nearly all wait time must be useful with a ready section ({useful}/{wait})"
        );
        // And the spin variant wastes it.
        let spin = measure(ProtocolKind::BitarDespain, LockSchemeKind::CacheLock, 6);
        let spin_useful: u64 = spin.stats.per_proc.iter().map(|p| p.useful_wait_cycles).sum();
        assert_eq!(spin_useful, 0);
    }

    #[test]
    fn report_covers_sweep() {
        let r = run();
        assert_eq!(r.rows.len(), 3 * PROC_SWEEP.len());
        assert!(r.notes.iter().any(|n| n.contains("ready-section")));
    }
}
