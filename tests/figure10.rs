//! Integration test: Figure 10 ("arcs not shown would be bugs") for every
//! protocol. The arc enumeration must be total, deterministic and reach
//! every declared state from Invalid; the proposal's key arcs must match
//! the figure; and Table 1's derived rows must follow the arcs, so a
//! seeded arc defect shows up in the rendered table.

use mcs::core::table1::{column_for, render};
use mcs::core::{with_protocol, BitarDespain, BitarState, ProtocolKind};
use mcs::model::arcs::WOKEN;
use mcs::model::{
    AccessKind, Arcs, BusOp, BusTxn, CompleteOutcome, LineState, Privilege, ProcAction, Protocol,
    SnoopOutcome, SnoopSummary, SourcePolicy,
};
use mcs::protocols::{BerkeleyNonSourceWc, Illinois, IllinoisState};

fn check_arcs<P: Protocol>(protocol: &P) {
    let name = protocol.name();
    let arcs = Arcs::of(protocol);
    let states = P::State::all();

    // Totality: exactly one processor arc per (state, kind) and one snoop
    // arc per (state, observable op).
    assert_eq!(arcs.proc.len(), states.len() * mcs::model::arcs::ALL_KINDS.len(), "{name}");
    assert_eq!(arcs.snoop.len(), states.len() * arcs.observable.len(), "{name}");
    for &s in states {
        for kind in mcs::model::arcs::ALL_KINDS {
            let n = arcs.proc.iter().filter(|a| a.from == s && a.kind == kind).count();
            assert_eq!(n, 1, "{name}: {n} processor arcs for ({s}, {kind})");
        }
        for &op in &arcs.observable {
            let n = arcs.snoop.iter().filter(|a| a.from == s && a.op == op).count();
            assert_eq!(n, 1, "{name}: {n} snoop arcs for ({s}, {op})");
        }
    }
    for io in [BusOp::IoInput, BusOp::IoOutput { paging: true }, BusOp::IoOutput { paging: false }]
    {
        assert!(arcs.observable.contains(&io), "{name}: {io} not observed");
    }

    // Determinism: enumerating twice yields the identical relation.
    assert_eq!(arcs, Arcs::of(protocol), "{name}");

    // Every declared state is reachable from Invalid.
    assert_eq!(arcs.reachable(), states, "{name}: a declared state is unreachable");

    // The engine's allocation-free Feature 8 walk agrees with the arcs.
    assert_eq!(
        SourcePolicy::arbitrated::<P::State>(),
        protocol.features().source_policy == SourcePolicy::Arbitrate,
        "{name}"
    );
}

#[test]
fn every_protocol_is_total_deterministic_and_reachable() {
    for kind in ProtocolKind::ALL {
        with_protocol!(kind, p => check_arcs(&p));
    }
    check_arcs(&BerkeleyNonSourceWc);
}

/// Illinois with one seeded defect: an unshared read miss installs
/// `Shared` instead of `Exclusive`.
struct SharedOnUnsharedMiss;

impl Protocol for SharedOnUnsharedMiss {
    type State = IllinoisState;

    fn name(&self) -> &'static str {
        "Illinois (mutant)"
    }

    fn proc_access(&self, state: IllinoisState, kind: AccessKind) -> ProcAction<IllinoisState> {
        Illinois.proc_access(state, kind)
    }

    fn snoop(&self, state: IllinoisState, txn: &BusTxn) -> SnoopOutcome<IllinoisState> {
        Illinois.snoop(state, txn)
    }

    fn complete(
        &self,
        state: IllinoisState,
        kind: AccessKind,
        txn: &BusTxn,
        summary: &SnoopSummary,
    ) -> CompleteOutcome<IllinoisState> {
        match Illinois.complete(state, kind, txn, summary) {
            CompleteOutcome::Installed { next: IllinoisState::Exclusive }
                if matches!(txn.op, BusOp::Fetch { privilege: Privilege::Read, .. }) =>
            {
                CompleteOutcome::Installed { next: IllinoisState::Shared }
            }
            other => other,
        }
    }
}

#[test]
fn seeded_mutation_flips_feature_5_in_the_rendered_table() {
    let text = render(&[column_for(&Illinois), column_for(&SharedOnUnsharedMiss)]);
    let row = text
        .lines()
        .find(|l| l.starts_with("5 read-for-write"))
        .unwrap_or_else(|| panic!("no Feature 5 row in:\n{text}"));
    let cells: Vec<&str> = row.split_whitespace().skip(2).collect();
    assert_eq!(cells, ["D", "-"], "Feature 5 must follow the read-miss arc:\n{text}");
}

// The proposal's arcs, as Figure 10 draws them.

use BitarState as S;

#[test]
fn bitar_processor_arcs_match_figure() {
    let arcs = Arcs::of(&BitarDespain);
    let find = |from: S, kind: AccessKind| {
        arcs.proc.iter().find(|a| a.from == from && a.kind == kind).unwrap().action
    };
    let hit = |next| ProcAction::Hit { next };
    let bus = |op| ProcAction::Bus { op };
    // Lock on a write-privilege block is local (zero time).
    assert_eq!(find(S::WriteSourceDirty, AccessKind::LockRead), hit(S::LockSourceDirty));
    // Unlock without waiter is local; with waiter broadcasts.
    assert_eq!(find(S::LockSourceDirty, AccessKind::UnlockWrite), hit(S::WriteSourceDirty));
    assert_eq!(
        find(S::LockSourceDirtyWaiter, AccessKind::UnlockWrite),
        bus(BusOp::UnlockBroadcast)
    );
    // Reads hit on every valid state.
    for s in
        [S::Read, S::ReadSourceClean, S::ReadSourceDirty, S::WriteSourceClean, S::WriteSourceDirty]
    {
        assert_eq!(find(s, AccessKind::Read), hit(s));
    }
    // A write on a read copy requests privilege only (Figure 5); from
    // Invalid the request also fetches the block (figure note 2).
    let write = |need_data| bus(BusOp::Fetch { privilege: Privilege::Write, need_data });
    assert_eq!(find(S::Read, AccessKind::Write), write(false));
    assert_eq!(find(S::Invalid, AccessKind::Write), write(true));
}

#[test]
fn bitar_snoop_arcs_match_figure() {
    let arcs = Arcs::of(&BitarDespain);
    let find = |from: S, op: BusOp| {
        arcs.snoop.iter().find(|a| a.from == from && a.op == op).unwrap().outcome
    };
    let read_fetch = BusOp::Fetch { privilege: Privilege::Read, need_data: true };
    let write_fetch = BusOp::Fetch { privilege: Privilege::Write, need_data: true };
    let lock_fetch = BusOp::Fetch { privilege: Privilege::Lock, need_data: true };

    // Sources cede source status to the last fetcher and supply.
    let a = find(S::WriteSourceDirty, read_fetch);
    assert_eq!(a.next, S::Read);
    assert!(a.reply.supplies_data);
    // Write requests invalidate everywhere.
    assert_eq!(find(S::Read, write_fetch).next, S::Invalid);
    assert_eq!(find(S::ReadSourceClean, write_fetch).next, S::Invalid);
    // Locked blocks deny and record the waiter.
    for (from, op) in [(S::LockSourceDirty, lock_fetch), (S::LockSourceDirtyWaiter, write_fetch)] {
        let a = find(from, op);
        assert_eq!(a.next, S::LockSourceDirtyWaiter);
        assert!(a.reply.locked);
    }
    // Unlock broadcasts do not disturb other caches' lines.
    assert_eq!(find(S::Read, BusOp::UnlockBroadcast).next, S::Read);
    // Non-paging I/O output leaves the source in place (Section E.2).
    assert_eq!(
        find(S::WriteSourceDirty, BusOp::IoOutput { paging: false }).next,
        S::WriteSourceDirty
    );
    assert_eq!(find(S::WriteSourceDirty, BusOp::IoOutput { paging: true }).next, S::Invalid);
    // An invalid line never denies or supplies.
    for a in arcs.snoop.iter().filter(|a| a.from == S::Invalid) {
        assert_eq!(a.outcome, SnoopOutcome::ignore(S::Invalid), "{}", a.op);
    }
}

#[test]
fn bitar_completion_arcs_match_figure() {
    let arcs = Arcs::of(&BitarDespain);
    // Read with no hit -> write privilege (Figure 1).
    let a =
        arcs.complete.iter().find(|a| a.kind == AccessKind::Read && a.label == "no-copy").unwrap();
    assert_eq!(a.outcome, CompleteOutcome::Installed { next: S::WriteSourceClean });
    // The locked summary denies every kind of request.
    for a in arcs.complete.iter().filter(|a| a.label == "locked") {
        assert_eq!(a.outcome, CompleteOutcome::LockDenied, "{:?} must deny", a.kind);
    }
    // A woken high-priority lock fetch installs the waiter state (Fig 9).
    let woken: Vec<_> = arcs.complete.iter().filter(|a| a.label == WOKEN).collect();
    assert!(!woken.is_empty());
    for a in woken {
        assert_eq!(a.outcome, CompleteOutcome::Installed { next: S::LockSourceDirtyWaiter });
    }
}

#[test]
fn bitar_render_mentions_every_state() {
    let text = Arcs::of(&BitarDespain).render("Bitar-Despain");
    for state in BitarState::all() {
        assert!(text.contains(&state.to_string()));
    }
    assert!(text.contains("LOCKED"));
    assert!(text.contains("busy wait"));
}
