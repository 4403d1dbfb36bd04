//! Harness smoke tests: every artifact generator the binaries call must
//! produce complete, well-formed output.

use mcs_bench::{experiments, figures};
use mcs_core::{table1, table2, with_protocol, ProtocolKind};

#[test]
fn table1_renders_all_six_columns() {
    let columns: Vec<_> = ProtocolKind::EVOLUTION
        .iter()
        .map(|kind| with_protocol!(*kind, p => table1::column_for(&p)))
        .collect();
    let text = table1::render(&columns);
    assert_eq!(columns.len(), 6);
    for line in ["Invalid", "Lock, Dirty, Waiter", "10 efficient busy wait"] {
        assert!(text.contains(line), "missing `{line}`");
    }
}

#[test]
fn table2_renders() {
    let text = table2::render();
    assert!(text.contains("Innovation Summary"));
    assert!(text.contains("Our proposal"));
}

/// Only Bitar-Despain has the lock states cache-state locking needs; every
/// other protocol's lock workloads spin on test-and-set.
#[test]
fn paired_scheme_is_cache_lock_only_with_lock_states() {
    use mcs_sync::LockSchemeKind;
    for kind in ProtocolKind::ALL {
        let want = if kind == ProtocolKind::BitarDespain {
            LockSchemeKind::CacheLock
        } else {
            LockSchemeKind::TestAndSet
        };
        assert_eq!(experiments::paired_scheme(kind), want, "{kind}");
    }
}

#[test]
fn experiment_lookup_covers_e1_through_e13() {
    for i in 1..=13 {
        let id = format!("e{i}");
        assert!(experiments::by_id(&id).is_some(), "missing experiment {id}");
    }
    assert!(experiments::by_id("e14").is_none());
    assert!(experiments::by_id("nonsense").is_none());
}

#[test]
fn every_experiment_report_is_well_formed() {
    // E2/E4/E7/E11/E13 are cheap enough to run here; the rest have their
    // own module tests.
    for id in ["e2", "e4", "e7", "e11", "e13"] {
        let report = experiments::by_id(id).unwrap();
        assert!(!report.rows.is_empty(), "{id}: empty report");
        for row in &report.rows {
            assert_eq!(row.len(), report.headers.len(), "{id}: ragged row");
        }
        let rendered = report.render();
        assert!(rendered.contains("=="), "{id}: missing title");
    }
}

#[test]
fn figures_produce_nonempty_bodies_with_captions() {
    let figs = figures::all();
    assert_eq!(figs.len(), 11);
    for f in figs {
        assert!(!f.caption.is_empty());
        assert!(f.body.len() > 40, "figure {} body too small", f.number);
    }
}
