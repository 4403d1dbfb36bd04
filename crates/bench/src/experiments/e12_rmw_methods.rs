//! **E12 (ablation) — The four atomic read-modify-write methods
//! (§F.3, Feature 6).**
//!
//! 1. hold the memory module through the operation (Rudolph & Segall);
//! 2. fetch the block for sole access and hold the cache (Frank,
//!    Papamarcos & Patel, Katz et al.);
//! 3. optimistic: read, then write; abort the instruction if the block was
//!    stolen between read and write;
//! 4. lock just the target atom with the cache lock state (the proposal).
//!
//! Each processor performs atomic swaps of unique tokens against one
//! contended word. Serialization is *proved* by the swap chain: every
//! observed old value must be distinct, and every non-initial old value
//! must be some other swap's stored token — a lost update breaks the
//! chain. Methods 1, 2 and 4 run as hardware `Rmw` ops on a protocol using
//! that method; method 3 runs the software retry machine of
//! [`mcs_sync::rmw::OptimisticRmw`].

use super::MAX_CYCLES;
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_model::{Addr, ProcId, ProcOp, Word};
use mcs_sim::{AccessResult, WorkItem, Workload};
use mcs_sync::rmw::{OptimisticRmw, RmwStep};
use std::collections::HashSet;

const PROCS: usize = 4;
const SWAPS_PER_PROC: usize = 25;
const COUNTER: Addr = Addr(0);

/// Outcome of one RMW-method run.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Method label.
    pub method: &'static str,
    /// Whether the swap chain proves full serialization.
    pub serialized: bool,
    /// Bus busy cycles per committed swap.
    pub cycles_per_op: f64,
    /// Software aborts (method 3 only).
    pub aborts: u64,
}

/// Drives atomic swaps either as hardware RMW ops or through the
/// optimistic (method 3) machine.
struct SwapWorkload {
    optimistic: bool,
    done: Vec<usize>,
    in_flight: Vec<bool>,
    pending: Vec<Option<ProcOp>>,
    machines: Vec<Option<OptimisticRmw>>,
    pairs: Vec<(u64, u64)>, // (old observed, token stored)
    aborts: u64,
}

impl SwapWorkload {
    fn new(optimistic: bool) -> Self {
        SwapWorkload {
            optimistic,
            done: Vec::new(),
            in_flight: Vec::new(),
            pending: Vec::new(),
            machines: Vec::new(),
            pairs: Vec::new(),
            aborts: 0,
        }
    }

    fn ensure(&mut self, p: usize) {
        while self.done.len() <= p {
            self.done.push(0);
            self.in_flight.push(false);
            self.pending.push(None);
            self.machines.push(None);
        }
    }

    fn token(proc: usize, seq: usize) -> u64 {
        ((proc as u64 + 1) << 32) | (seq as u64 + 1)
    }

    /// The serialization proof: distinct olds, and every non-zero old is
    /// someone's stored token.
    fn chain_is_serial(&self) -> bool {
        let mut olds = HashSet::new();
        let news: HashSet<u64> = self.pairs.iter().map(|&(_, n)| n).collect();
        for &(old, _) in &self.pairs {
            if !olds.insert(old) {
                return false; // duplicate old: two swaps saw the same value
            }
            if old != 0 && !news.contains(&old) {
                return false; // an old value nobody stored: torn update
            }
        }
        self.pairs.len() == PROCS * SWAPS_PER_PROC
    }
}

impl Workload for SwapWorkload {
    fn next(&mut self, proc: ProcId, _now: u64) -> WorkItem {
        self.ensure(proc.0);
        if self.in_flight[proc.0] {
            return WorkItem::Idle;
        }
        if let Some(op) = self.pending[proc.0].take() {
            self.in_flight[proc.0] = true;
            return WorkItem::Op(op);
        }
        if self.done[proc.0] >= SWAPS_PER_PROC {
            return WorkItem::Done;
        }
        let token = Self::token(proc.0, self.done[proc.0]);
        self.in_flight[proc.0] = true;
        if self.optimistic {
            let mut machine = OptimisticRmw::new(COUNTER, Word(token));
            let op = machine.start();
            self.machines[proc.0] = Some(machine);
            WorkItem::Op(op)
        } else {
            WorkItem::Op(ProcOp::rmw(COUNTER, Word(token)))
        }
    }

    fn complete(&mut self, proc: ProcId, _op: &ProcOp, result: &AccessResult, _now: u64) {
        self.ensure(proc.0);
        self.in_flight[proc.0] = false;
        if !self.optimistic {
            let token = Self::token(proc.0, self.done[proc.0]);
            self.pairs.push((result.value.unwrap_or(Word(0)).0, token));
            self.done[proc.0] += 1;
            return;
        }
        let mut machine = self.machines[proc.0].take().expect("optimistic machine");
        let aborts_before = machine.aborts();
        match machine.on_complete(result) {
            RmwStep::Issue(op) => {
                self.aborts += (machine.aborts() - aborts_before) as u64;
                self.pending[proc.0] = Some(op);
                self.machines[proc.0] = Some(machine);
            }
            RmwStep::Done(read) => {
                let token = Self::token(proc.0, self.done[proc.0]);
                self.pairs.push((read.0, token));
                self.done[proc.0] += 1;
            }
        }
    }
}

fn run_method(method: &'static str, kind: ProtocolKind, optimistic: bool) -> MethodOutcome {
    let mut workload = SwapWorkload::new(optimistic);
    let spec = RunSpec::new(kind).procs(PROCS).max_cycles(MAX_CYCLES);
    let stats = spec.run(&mut workload, None).stats;
    MethodOutcome {
        method,
        serialized: workload.chain_is_serial(),
        cycles_per_op: stats.bus.busy_cycles as f64 / workload.pairs.len().max(1) as f64,
        aborts: workload.aborts,
    }
}

/// All four methods.
pub fn outcomes() -> Vec<MethodOutcome> {
    vec![
        run_method("1 hold-memory (Rudolph-Segall)", ProtocolKind::RudolphSegall, false),
        run_method("2 fetch-and-hold-cache (Illinois)", ProtocolKind::Illinois, false),
        run_method("3 optimistic-abort (Illinois)", ProtocolKind::Illinois, true),
        run_method("4 lock-state (proposal)", ProtocolKind::BitarDespain, false),
    ]
}

/// Runs the comparison.
pub fn run() -> Report {
    let mut report = Report::new(
        "E12 (ablation): atomic read-modify-write methods (Feature 6)",
        &["method", "serialized", "bus-cycles/op", "software-aborts"],
    );
    report.note("serialization proved by the swap chain: distinct olds, every old someone's store");
    for out in outcomes() {
        report.row(vec![
            out.method.to_string(),
            out.serialized.to_string(),
            f(out.cycles_per_op),
            out.aborts.to_string(),
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_methods_serialize() {
        for out in outcomes() {
            assert!(out.serialized, "{}: swap chain broken — lost update", out.method);
        }
    }

    #[test]
    fn optimistic_method_aborts_under_contention() {
        let outs = outcomes();
        let optimistic = outs.iter().find(|o| o.method.starts_with('3')).unwrap();
        assert!(
            optimistic.aborts > 0,
            "four processors hammering one word must steal blocks mid-RMW"
        );
        for hw in outs.iter().filter(|o| !o.method.starts_with('3')) {
            assert_eq!(hw.aborts, 0, "{}", hw.method);
        }
    }

    #[test]
    fn hold_memory_pays_the_module_round_trip() {
        let outs = outcomes();
        let mem = outs.iter().find(|o| o.method.starts_with('1')).unwrap();
        let lock = outs.iter().find(|o| o.method.starts_with('4')).unwrap();
        // Every hold-memory op crosses the bus to the module; lock-state
        // ops coalesce into cache hits once the block is resident.
        assert!(
            lock.cycles_per_op < mem.cycles_per_op,
            "lock-state ({:.1}) must beat hold-memory ({:.1})",
            lock.cycles_per_op,
            mem.cycles_per_op
        );
    }

    #[test]
    fn report_shape() {
        let r = run();
        assert_eq!(r.rows.len(), 4);
    }
}
