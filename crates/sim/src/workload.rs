//! The [`Workload`] trait: what the processors execute.
//!
//! A workload is a deterministic program driving every processor. The
//! engine asks each *ready* processor for its next [`WorkItem`] and reports
//! completions back, so workloads can be written as per-processor state
//! machines (lock acquire loops, producer/consumer hand-offs, …).

use mcs_model::{BlockAddr, ProcId, ProcOp, Word};

/// What a processor should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkItem {
    /// Issue a memory operation.
    Op(ProcOp),
    /// Compute (stay busy, off the bus) for the given number of cycles.
    Compute(u64),
    /// Nothing to do this cycle; ask again next cycle (e.g. waiting for a
    /// partner process).
    ///
    /// Contract for the event-driven engine: a workload returning plain
    /// `Idle` promises that the call had no side effects and that it has
    /// nothing to do until some *other* system event (a completion or a bus
    /// grant) changes its state — the engine may therefore skip re-polling
    /// it until the next event. A workload whose `next` mutates state and
    /// wants to be re-polled at a specific time must return
    /// [`WorkItem::IdleUntil`] instead.
    Idle,
    /// Nothing to do now, but re-poll at the given absolute cycle (an
    /// *idle hint*). The event-driven engine treats `max(cycle, now + 1)`
    /// as an event time; the cycle-accurate engine re-polls every cycle
    /// regardless, so the two behave identically.
    IdleUntil(u64),
    /// This processor has finished its program.
    Done,
}

/// The result of a completed memory operation, reported to the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The value read, for read-class operations. For an atomic
    /// read-modify-write this is the *old* value (what test-and-set tests).
    pub value: Option<Word>,
    /// Whether the access was satisfied without a bus transaction.
    pub hit: bool,
    /// How many times the underlying bus transaction was retried.
    pub retries: u32,
    /// Cycles from issue to completion.
    pub latency: u64,
    /// Set only for a conditional store (`WriteIfOwned`) whose block was
    /// stolen: the write was **not** performed (optimistic RMW abort).
    pub aborted: bool,
}

/// How a process waits when its lock fetch is denied (Section E.4): spin
/// uselessly, or execute a *ready section* of useful work while the
/// busy-wait register watches the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitBehavior {
    /// The processor idles until the lock is granted.
    Spin,
    /// The processor performs up to this many cycles of useful work while
    /// waiting ("work while waiting").
    WorkFor(u64),
}

/// A deterministic multiprocessor program.
pub trait Workload {
    /// The next thing for `proc` to do. Called when the processor is ready.
    fn next(&mut self, proc: ProcId, now: u64) -> WorkItem;

    /// Reports completion of an operation previously issued via
    /// [`WorkItem::Op`].
    fn complete(&mut self, proc: ProcId, op: &ProcOp, result: &AccessResult, now: u64);

    /// Called when `proc`'s operation was denied because `block` is locked
    /// elsewhere and the busy-wait register has been armed. Decides whether
    /// the processor works while waiting. Defaults to spinning.
    fn on_lock_wait(&mut self, _proc: ProcId, _block: BlockAddr, _now: u64) -> WaitBehavior {
        WaitBehavior::Spin
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next(&mut self, proc: ProcId, now: u64) -> WorkItem {
        (**self).next(proc, now)
    }

    fn complete(&mut self, proc: ProcId, op: &ProcOp, result: &AccessResult, now: u64) {
        (**self).complete(proc, op, result, now)
    }

    fn on_lock_wait(&mut self, proc: ProcId, block: BlockAddr, now: u64) -> WaitBehavior {
        (**self).on_lock_wait(proc, block, now)
    }
}

/// A scripted workload: a fixed sequence of `(processor, operation)` pairs
/// executed strictly in order, each operation completing before the next is
/// issued. Used to drive the paper's figure scenarios and for directed
/// protocol tests.
#[derive(Debug, Clone)]
pub struct ScriptWorkload {
    script: Vec<(ProcId, ProcOp)>,
    cursor: usize,
    in_flight: bool,
    results: Vec<(ProcId, ProcOp, AccessResult)>,
}

impl ScriptWorkload {
    /// Creates a script from `(processor, op)` pairs.
    pub fn new(script: Vec<(ProcId, ProcOp)>) -> Self {
        ScriptWorkload { script, cursor: 0, in_flight: false, results: Vec::new() }
    }

    /// The completed operations with their results, in execution order.
    pub fn results(&self) -> &[(ProcId, ProcOp, AccessResult)] {
        &self.results
    }

    /// Whether every scripted operation has completed.
    pub fn finished(&self) -> bool {
        self.cursor >= self.script.len() && !self.in_flight
    }
}

impl Workload for ScriptWorkload {
    fn next(&mut self, proc: ProcId, _now: u64) -> WorkItem {
        match self.script.get(self.cursor) {
            None => WorkItem::Done,
            Some(&(p, op)) if p == proc && !self.in_flight => {
                self.in_flight = true;
                WorkItem::Op(op)
            }
            Some(_) => WorkItem::Idle,
        }
    }

    fn complete(&mut self, proc: ProcId, op: &ProcOp, result: &AccessResult, _now: u64) {
        self.results.push((proc, *op, *result));
        self.cursor += 1;
        self.in_flight = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::Addr;

    #[test]
    fn script_runs_in_order() {
        let mut w = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),
            (ProcId(1), ProcOp::write(Addr(0), Word(1))),
        ]);
        // Only proc 0's turn.
        assert_eq!(w.next(ProcId(1), 0), WorkItem::Idle);
        let item = w.next(ProcId(0), 0);
        assert!(matches!(item, WorkItem::Op(_)));
        // While in flight everyone idles, including the issuer.
        assert_eq!(w.next(ProcId(0), 1), WorkItem::Idle);
        let r = AccessResult { value: Some(Word(0)), hit: false, retries: 0, latency: 7, aborted: false };
        w.complete(ProcId(0), &ProcOp::read(Addr(0)), &r, 8);
        assert!(!w.finished());
        // Now proc 1's turn.
        assert!(matches!(w.next(ProcId(1), 9), WorkItem::Op(_)));
        assert_eq!(w.next(ProcId(0), 9), WorkItem::Idle);
        w.complete(ProcId(1), &ProcOp::write(Addr(0), Word(1)), &r, 10);
        assert!(w.finished());
        assert_eq!(w.next(ProcId(0), 11), WorkItem::Done);
        assert_eq!(w.results().len(), 2);
    }

    #[test]
    fn default_wait_behavior_is_spin() {
        struct W;
        impl Workload for W {
            fn next(&mut self, _: ProcId, _: u64) -> WorkItem {
                WorkItem::Done
            }
            fn complete(&mut self, _: ProcId, _: &ProcOp, _: &AccessResult, _: u64) {}
        }
        assert_eq!(W.on_lock_wait(ProcId(0), BlockAddr(0), 0), WaitBehavior::Spin);
    }
}

/// A step in a [`ParallelScriptWorkload`] per-processor program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptStep {
    /// Issue a memory operation and wait for it.
    Op(ProcOp),
    /// Compute for the given cycles (used to sequence scenarios).
    Compute(u64),
}

/// Per-processor scripts running concurrently: each processor walks its own
/// list of steps independently. Used for the paper's figure scenarios,
/// where one processor must wait on a lock while another proceeds.
#[derive(Debug, Clone, Default)]
pub struct ParallelScriptWorkload {
    programs: Vec<Vec<ScriptStep>>,
    cursors: Vec<usize>,
    in_flight: Vec<bool>,
    results: Vec<Vec<(ProcOp, AccessResult, u64)>>,
}

impl ParallelScriptWorkload {
    /// Creates an empty workload; add programs with
    /// [`ParallelScriptWorkload::program`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets processor `proc`'s program.
    pub fn program(mut self, proc: ProcId, steps: Vec<ScriptStep>) -> Self {
        while self.programs.len() <= proc.0 {
            self.programs.push(Vec::new());
            self.cursors.push(0);
            self.in_flight.push(false);
            self.results.push(Vec::new());
        }
        self.programs[proc.0] = steps;
        self
    }

    /// The completed `(op, result, completion_cycle)` tuples for `proc`.
    pub fn results_of(&self, proc: ProcId) -> &[(ProcOp, AccessResult, u64)] {
        self.results.get(proc.0).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Whether every program ran to completion.
    pub fn finished(&self) -> bool {
        self.programs.iter().enumerate().all(|(i, prog)| {
            self.cursors[i] >= prog.len() && !self.in_flight[i]
        })
    }
}

impl Workload for ParallelScriptWorkload {
    fn next(&mut self, proc: ProcId, _now: u64) -> WorkItem {
        let Some(program) = self.programs.get(proc.0) else { return WorkItem::Done };
        if self.in_flight[proc.0] {
            return WorkItem::Idle;
        }
        match program.get(self.cursors[proc.0]) {
            None => WorkItem::Done,
            Some(ScriptStep::Compute(c)) => {
                self.cursors[proc.0] += 1;
                WorkItem::Compute(*c)
            }
            Some(ScriptStep::Op(op)) => {
                self.in_flight[proc.0] = true;
                WorkItem::Op(*op)
            }
        }
    }

    fn complete(&mut self, proc: ProcId, op: &ProcOp, result: &AccessResult, now: u64) {
        self.in_flight[proc.0] = false;
        self.cursors[proc.0] += 1;
        self.results[proc.0].push((*op, *result, now));
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use mcs_model::{Addr, Word};

    #[test]
    fn programs_run_independently() {
        let mut w = ParallelScriptWorkload::new()
            .program(ProcId(0), vec![ScriptStep::Op(ProcOp::read(Addr(0)))])
            .program(ProcId(1), vec![
                ScriptStep::Compute(5),
                ScriptStep::Op(ProcOp::write(Addr(4), Word(1))),
            ]);
        // P0 can issue immediately; P1 computes first.
        assert!(matches!(w.next(ProcId(0), 0), WorkItem::Op(_)));
        assert!(matches!(w.next(ProcId(1), 0), WorkItem::Compute(5)));
        // While P0's op is in flight it idles; P1 can proceed.
        assert_eq!(w.next(ProcId(0), 1), WorkItem::Idle);
        assert!(matches!(w.next(ProcId(1), 6), WorkItem::Op(_)));
        let r = AccessResult { value: None, hit: false, retries: 0, latency: 3, aborted: false };
        w.complete(ProcId(0), &ProcOp::read(Addr(0)), &r, 4);
        w.complete(ProcId(1), &ProcOp::write(Addr(4), Word(1)), &r, 9);
        assert!(w.finished());
        assert_eq!(w.results_of(ProcId(0)).len(), 1);
        assert_eq!(w.results_of(ProcId(1))[0].2, 9);
        assert_eq!(w.next(ProcId(0), 10), WorkItem::Done);
        assert_eq!(w.next(ProcId(5), 10), WorkItem::Done);
    }
}
