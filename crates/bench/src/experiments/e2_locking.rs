//! **E2 — Efficient locking (Section E.3).**
//!
//! Claims checked:
//!
//! * cache-state locking makes locking/unlocking "usually occur in zero
//!   time" — no bus transaction beyond the data fetch itself;
//! * compared to a test-and-set bit: no separate lock-bit block is fetched
//!   before the data, so acquisitions cost fewer bus transactions and less
//!   latency;
//! * no blocks are devoted to lock bits under write-in.

use super::{run_cs, CsOutcome};
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_sync::LockSchemeKind;
use mcs_workloads::CriticalSectionBuilder;

/// The compared configurations.
pub const CONTENDERS: [(ProtocolKind, LockSchemeKind); 4] = [
    (ProtocolKind::BitarDespain, LockSchemeKind::CacheLock),
    (ProtocolKind::Illinois, LockSchemeKind::TestAndSet),
    (ProtocolKind::Illinois, LockSchemeKind::TestAndTestAndSet),
    (ProtocolKind::Berkeley, LockSchemeKind::TestAndSet),
];

/// E2's contended cell: one lock, short sections (one payload block read
/// twice and written twice), think 30 cycles, 20 sections per processor.
pub fn cell(b: CriticalSectionBuilder) -> CriticalSectionBuilder {
    b.locks(1).payload_blocks(1).payload_reads(2).payload_writes(2).think_cycles(30).iterations(20)
}

/// Moderate contention: four processors on [`cell`].
pub fn measure(kind: ProtocolKind, scheme: LockSchemeKind) -> CsOutcome {
    run_cs(RunSpec::new(kind), scheme, cell)
}

/// Uncontended repeated re-locking by one processor: the zero-time path.
pub fn measure_uncontended() -> CsOutcome {
    let spec = RunSpec::new(ProtocolKind::BitarDespain).procs(1);
    run_cs(spec, LockSchemeKind::CacheLock, |b| {
        b.locks(1).payload_blocks(1).payload_reads(1).payload_writes(1).think_cycles(5).iterations(30)
    })
}

/// Runs the comparison.
pub fn run() -> Report {
    let mut report = Report::new(
        "E2: locking cost (4 processors, 1 lock)",
        &[
            "protocol",
            "scheme",
            "bus-txns/section",
            "bus-cycles/section",
            "mean-acquire-cycles",
            "zero-time-acquires",
            "zero-time-releases",
        ],
    );
    report.note("Section E.3: cache-state locking and unlocking usually occur in zero time");
    let outcomes =
        crate::sweep::sweep(&CONTENDERS, |_, &(kind, scheme)| (kind, scheme, measure(kind, scheme)));
    for (kind, scheme, out) in outcomes {
        report.row(vec![
            kind.id().to_string(),
            scheme.id().to_string(),
            f(out.bus_txns_per_section()),
            f(out.bus_cycles_per_section()),
            f(out.mean_acquire),
            out.stats.locks.zero_time_acquires.to_string(),
            out.stats.locks.zero_time_releases.to_string(),
        ]);
    }
    let un = measure_uncontended();
    report.note(format!(
        "uncontended re-locking: {} of {} acquires and {} of {} releases were zero-time",
        un.stats.locks.zero_time_acquires,
        un.stats.locks.acquires,
        un.stats.locks.zero_time_releases,
        un.stats.locks.releases,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_lock_beats_tas_on_bus_transactions() {
        let cache_lock = measure(ProtocolKind::BitarDespain, LockSchemeKind::CacheLock);
        let tas = measure(ProtocolKind::Illinois, LockSchemeKind::TestAndSet);
        assert!(
            cache_lock.bus_txns_per_section() < tas.bus_txns_per_section(),
            "cache-lock {:.2} txns/section must beat TAS {:.2}",
            cache_lock.bus_txns_per_section(),
            tas.bus_txns_per_section()
        );
    }

    #[test]
    fn uncontended_lock_unlock_is_zero_time() {
        let out = measure_uncontended();
        // After the first fetch, every lock and unlock is local.
        assert_eq!(out.stats.locks.acquires, 30);
        assert!(
            out.stats.locks.zero_time_acquires >= out.stats.locks.acquires - 1,
            "all but the first acquire must be zero-time (got {}/{})",
            out.stats.locks.zero_time_acquires,
            out.stats.locks.acquires
        );
        assert_eq!(out.stats.locks.zero_time_releases, out.stats.locks.releases);
    }

    #[test]
    fn no_failed_attempts_under_cache_lock() {
        let out = measure(ProtocolKind::BitarDespain, LockSchemeKind::CacheLock);
        assert_eq!(out.failed_attempts_per_acquire(), 0.0);
        assert_eq!(out.sections, 80);
    }

    #[test]
    fn ttas_fewer_bus_txns_than_tas() {
        let tas = measure(ProtocolKind::Illinois, LockSchemeKind::TestAndSet);
        let ttas = measure(ProtocolKind::Illinois, LockSchemeKind::TestAndTestAndSet);
        assert!(
            ttas.scheme.tas_ops <= tas.scheme.tas_ops,
            "TTAS ({}) must not issue more RMWs than TAS ({})",
            ttas.scheme.tas_ops,
            tas.scheme.tas_ops
        );
    }

    #[test]
    fn report_rows_complete() {
        let r = run();
        assert_eq!(r.rows.len(), CONTENDERS.len());
        let i = r.find_row("scheme", "cache-lock").unwrap();
        assert!(r.cell_f64(i, "bus-txns/section").unwrap() > 0.0);
    }
}
