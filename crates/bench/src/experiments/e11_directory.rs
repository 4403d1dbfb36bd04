//! **E11 (ablation) — Directory duality and interference (§F.3, Feature 3).**
//!
//! The paper's analysis: identical dual directories interfere when dirty
//! status is updated (every write hit to a clean block steals a
//! bus-directory cycle), dual-ported-read directories interfere on every
//! status write, and the proposed **non-identical** duals eliminate the
//! interference entirely — and, under the lock protocol, also eliminate
//! the bus controller's *lock-waiter* status updates from the processor
//! directory ("so they may still be warranted in this scheme").
//!
//! We run the same lock-heavy workload under all three organizations and
//! report the status-update counts and interference cycles.

use crate::report::{f, Report};
use mcs_core::BitarDespain;
use mcs_model::DirectoryDuality;
use mcs_sim::{System, SystemConfig};
use mcs_sync::LockSchemeKind;
use mcs_workloads::{CriticalSectionWorkload, RandomSharingConfig, RandomSharingWorkload};

/// The three organizations of Feature 3.
pub const DUALITIES: [(DirectoryDuality, &str); 3] = [
    (DirectoryDuality::IdenticalDual, "ID"),
    (DirectoryDuality::DualPortedRead, "DPR"),
    (DirectoryDuality::NonIdenticalDual, "NID"),
];

/// One measurement under `duality`: a lock ladder (producing lock-waiter
/// status updates) followed by the random-sharing stream (producing
/// dirty-status updates), accumulated on the same system.
pub fn measure(duality: DirectoryDuality) -> mcs_model::Stats {
    let mut sys = System::new(
        BitarDespain,
        SystemConfig::new(6).with_directory(duality),
    )
    .expect("valid system");
    let mut ladder = CriticalSectionWorkload::builder()
        .scheme(LockSchemeKind::CacheLock)
        .locks(2)
        .payload_blocks(1)
        .payload_reads(1)
        .payload_writes(3)
        .think_cycles(10)
        .iterations(15)
        .build();
    sys.run(&mut ladder, 10_000_000).expect("ladder completes");
    let mut random = RandomSharingWorkload::new(RandomSharingConfig {
        refs_per_proc: 2_000,
        ..Default::default()
    });
    sys.run(&mut random, 20_000_000).expect("random stream completes").stats
}

/// Runs the ablation.
pub fn run() -> Report {
    let mut report = Report::new(
        "E11 (ablation): directory duality - status-update interference",
        &["directory", "dirty-updates", "waiter-updates", "interference-cycles"],
    );
    report.note("Feature 3: NID keeps dirty status processor-side and waiter status bus-side, eliminating interference");
    for (duality, label) in DUALITIES {
        let stats = measure(duality);
        report.row(vec![
            label.to_string(),
            stats.directory.dirty_status_updates.to_string(),
            stats.directory.waiter_status_updates.to_string(),
            stats.directory.interference_cycles.to_string(),
        ]);
    }
    let nid = measure(DirectoryDuality::NonIdenticalDual);
    let refs = nid.total_refs();
    report.note(format!(
        "dirty-status change frequency this workload: {} (the quantity Bitar 1985 bounds at 0.2%-1.2%)",
        f(nid.directory.dirty_status_updates as f64 / refs.max(1) as f64)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nid_eliminates_all_interference() {
        let nid = measure(DirectoryDuality::NonIdenticalDual);
        assert_eq!(nid.directory.interference_cycles, 0);
        // The events still happen; they just stop interfering.
        assert!(nid.directory.dirty_status_updates > 0);
        assert!(nid.directory.waiter_status_updates > 0, "lock contention must record waiters");
    }

    #[test]
    fn id_and_dpr_pay_per_update() {
        for duality in [DirectoryDuality::IdenticalDual, DirectoryDuality::DualPortedRead] {
            let stats = measure(duality);
            assert_eq!(
                stats.directory.interference_cycles,
                stats.directory.dirty_status_updates + stats.directory.waiter_status_updates,
                "{duality:?}: one interference cycle per status update"
            );
            assert!(stats.directory.interference_cycles > 0);
        }
    }

    #[test]
    fn same_workload_same_update_counts() {
        // The organization changes the *cost*, not the events.
        let id = measure(DirectoryDuality::IdenticalDual);
        let nid = measure(DirectoryDuality::NonIdenticalDual);
        assert_eq!(id.directory.dirty_status_updates, nid.directory.dirty_status_updates);
        assert_eq!(id.directory.waiter_status_updates, nid.directory.waiter_status_updates);
    }

    #[test]
    fn report_shape() {
        let r = run();
        assert_eq!(r.rows.len(), 3);
        assert!(r.find_row("directory", "NID").is_some());
    }
}
