//! Every arc of any [`Protocol`]'s state machine: the executable form of
//! the paper's **Figure 10** ("arcs not shown would be bugs").
//!
//! * **processor arcs** — what each [`AccessKind`] does to each state: a
//!   zero-time local transition or a bus request;
//! * **snoop arcs** — how each state answers each request another agent can
//!   issue: whatever some processor arc issues, and the three I/O requests;
//! * **completion arcs** — what each bus-taking processor arc installs under
//!   each canonical snoop summary, and under Figure 9's woken
//!   high-priority lock fetch.
//!
//! The arcs are whatever the protocol's entry points answer; nothing is
//! listed per protocol. Table 1's behavioural rows are derived from them
//! ([`FeatureSet::from_arcs`](crate::FeatureSet::from_arcs)).

use crate::bus::{BusOp, BusTxn, SnoopSummary};
use crate::ops::AccessKind;
use crate::protocol::{CompleteOutcome, LineState, ProcAction, Protocol, SnoopOutcome};
use crate::types::{AgentId, BlockAddr, CacheId};
use std::fmt::Write as _;

/// All processor access kinds a protocol answers, for enumeration.
/// (`WriteIfOwned` is resolved by the engine and never reaches a protocol
/// off its hit path.)
pub const ALL_KINDS: [AccessKind; 7] = [
    AccessKind::Read,
    AccessKind::Write,
    AccessKind::ReadForWrite,
    AccessKind::LockRead,
    AccessKind::UnlockWrite,
    AccessKind::Rmw,
    AccessKind::WriteNoFetch,
];

/// A processor-side arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcArc<S> {
    /// Starting state.
    pub from: S,
    /// Processor request.
    pub kind: AccessKind,
    /// Either a zero-time local transition or the bus request issued.
    pub action: ProcAction<S>,
}

/// A snoop arc: reaction to another agent's bus request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopArc<S> {
    /// Starting state.
    pub from: S,
    /// The observed bus request.
    pub op: BusOp,
    /// New state and reply lines driven.
    pub outcome: SnoopOutcome<S>,
}

/// A completion arc: the requester installs a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteArc<S> {
    /// State before the transaction.
    pub from: S,
    /// The processor access that caused the transaction.
    pub kind: AccessKind,
    /// The bus request.
    pub op: BusOp,
    /// Canonical snoop-summary label.
    pub label: &'static str,
    /// What the bus reply lines showed.
    pub summary: SnoopSummary,
    /// Outcome.
    pub outcome: CompleteOutcome<S>,
}

/// Canonical snoop summaries for completion enumeration.
fn canonical_summaries() -> [(&'static str, SnoopSummary); 5] {
    let source = |dirty| SnoopSummary {
        any_hit: true,
        sharers: 1,
        source_dirty: Some(dirty),
        data_from_cache: true,
        memory_inhibited: true,
        ..Default::default()
    };
    [
        ("no-copy", SnoopSummary::default()),
        ("clean-source", source(false)),
        ("dirty-source", source(true)),
        ("shared-no-source", SnoopSummary { any_hit: true, sharers: 2, ..Default::default() }),
        ("locked", SnoopSummary { any_hit: true, sharers: 1, locked: true, ..Default::default() }),
    ]
}

/// The label of the woken high-priority lock fetch's completion arcs.
pub const WOKEN: &str = "woken-hi-pri";

fn txn(op: BusOp, high_priority: bool) -> BusTxn {
    BusTxn { op, block: BlockAddr(0), requester: AgentId::Cache(CacheId(0)), high_priority }
}

/// The state a completion leaves the line in, if it installs one.
pub(crate) fn installed<S: Copy>(outcome: &CompleteOutcome<S>) -> Option<S> {
    match *outcome {
        CompleteOutcome::Installed { next } | CompleteOutcome::InstalledRetryOp { next } => {
            Some(next)
        }
        CompleteOutcome::Retry | CompleteOutcome::LockDenied => None,
    }
}

/// Every arc of one protocol's state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arcs<S> {
    /// One arc per (state, access kind), states in [`LineState::all`] order.
    pub proc: Vec<ProcArc<S>>,
    /// The bus requests another agent can issue, in [`BusOp::ALL`] order.
    pub observable: Vec<BusOp>,
    /// One arc per (state, observable request).
    pub snoop: Vec<SnoopArc<S>>,
    /// One arc per (bus-taking processor arc, canonical summary), then the
    /// woken lock fetches.
    pub complete: Vec<CompleteArc<S>>,
}

impl<S: LineState> Arcs<S> {
    /// Enumerates every arc of `protocol`.
    pub fn of<P: Protocol<State = S> + ?Sized>(protocol: &P) -> Self {
        let proc: Vec<_> = S::all()
            .iter()
            .flat_map(|&from| ALL_KINDS.map(|kind| (from, kind)))
            .map(|(from, kind)| ProcArc { from, kind, action: protocol.proc_access(from, kind) })
            .collect();
        // Another cache issues what these processor arcs issue; the I/O
        // processor issues its input and outputs.
        let issued = |op| proc.iter().any(|a| a.action == ProcAction::Bus { op });
        let observable: Vec<BusOp> = BusOp::ALL
            .into_iter()
            .filter(|&op| matches!(op, BusOp::IoInput | BusOp::IoOutput { .. }) || issued(op))
            .collect();
        let snoop = S::all()
            .iter()
            .flat_map(|&from| observable.iter().map(move |&op| (from, op)))
            .map(|(from, op)| SnoopArc { from, op, outcome: protocol.snoop(from, &txn(op, false)) })
            .collect();

        let mut complete = Vec::new();
        let mut woken = Vec::new();
        for &ProcArc { from, kind, action } in &proc {
            let ProcAction::Bus { op } = action else { continue };
            for (label, summary) in canonical_summaries() {
                let outcome = protocol.complete(from, kind, &txn(op, false), &summary);
                complete.push(CompleteArc { from, kind, op, label, summary, outcome });
            }
            // Figure 9: a denied lock waiter re-issues its fetch at the
            // reserved highest priority once the block is unlocked.
            if kind == AccessKind::LockRead {
                let summary = SnoopSummary::default();
                let outcome = protocol.complete(from, kind, &txn(op, true), &summary);
                woken.push(CompleteArc { from, kind, op, label: WOKEN, summary, outcome });
            }
        }
        complete.append(&mut woken);
        Arcs { proc, observable, snoop, complete }
    }

    /// States reachable from Invalid through any combination of arcs, in
    /// [`LineState::all`] order.
    pub fn reachable(&self) -> Vec<S> {
        let local = self.proc.iter().filter_map(|a| match a.action {
            ProcAction::Hit { next } => Some((a.from, next)),
            ProcAction::Bus { .. } => None,
        });
        let snooped = self.snoop.iter().map(|a| (a.from, a.outcome.next));
        let installs = self.complete.iter().filter_map(|a| Some((a.from, installed(&a.outcome)?)));
        let edges: Vec<(S, S)> = local.chain(snooped).chain(installs).collect();
        let mut reached = vec![S::invalid()];
        while let Some(&(_, next)) =
            edges.iter().find(|(from, next)| reached.contains(from) && !reached.contains(next))
        {
            reached.push(next);
        }
        S::all().iter().copied().filter(|s| reached.contains(s)).collect()
    }

    /// Renders the whole transition relation (the textual Figure 10) under
    /// the heading `Figure 10. Cache State Transitions (<name>)`.
    /// Snoop self-loops without effect are omitted, as in the figure, and a
    /// completion line that several starting states share is printed once.
    pub fn render(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Figure 10. Cache State Transitions ({name})");
        let _ = writeln!(out, "\n-- Processor arcs (state x request -> action) --");
        for a in &self.proc {
            let (from, kind) = (a.from.name(), a.kind);
            let _ = match a.action {
                ProcAction::Hit { next } => writeln!(out, "{from:>5} --{kind}--> {next}  (local)"),
                ProcAction::Bus { op } => writeln!(out, "{from:>5} --{kind}--> [bus: {op}]"),
            };
        }
        let _ = writeln!(out, "\n-- Snoop arcs (state x bus request -> state) --");
        for a in &self.snoop {
            let (next, reply) = (a.outcome.next, a.outcome.reply);
            if a.from == next && !reply.supplies_data && !reply.locked {
                continue;
            }
            let notes = match (reply.supplies_data, reply.locked) {
                (true, true) => "  (supplies, LOCKED)",
                (true, false) => "  (supplies)",
                (false, true) => "  (LOCKED)",
                (false, false) => "",
            };
            let _ = writeln!(out, "{:>5} --{}--> {next}{notes}", a.from.name(), a.op);
        }
        let _ = writeln!(out, "\n-- Completion arcs (request x snoop summary -> state) --");
        let mut lines: Vec<String> = Vec::new();
        for a in &self.complete {
            let result = match a.outcome {
                CompleteOutcome::Installed { next } => next.to_string(),
                CompleteOutcome::InstalledRetryOp { next } => format!("{next} (retry op)"),
                CompleteOutcome::Retry => "RETRY".into(),
                CompleteOutcome::LockDenied => "DENIED -> busy wait".into(),
            };
            let line = format!("{} via {} [{}] -> {result}", a.kind, a.op, a.label);
            if !lines.contains(&line) {
                let _ = writeln!(out, "{line}");
                lines.push(line);
            }
        }
        out
    }
}
