//! The Aquarius workload (Figure 11; Sections A.1, G.1).
//!
//! Aquarius splits memory traffic over two interconnects: a single
//! **synchronization bus** holding all hard atoms and program
//! synchronization data (the full-broadcast protocol), and a **crossbar**
//! carrying instructions and non-synchronization data (which only needs
//! "the latest version" semantics).
//!
//! Prolog predicates run as many medium-grained lightweight processes:
//! each iteration fetches instructions/terms through the crossbar, then
//! performs a synchronization operation — publishing a variable binding
//! under a lock, or a service-queue interaction — on the sync bus, with
//! frequent process switches saving state via write-without-fetch.

use mcs_model::{Addr, ProcId, ProcOp, Rng64, Word};
use mcs_sim::{AccessResult, Crossbar, WorkItem, Workload};
use mcs_sync::{LockAcquire, LockSchemeKind, LockSchemeStats, LockStep};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration for [`PrologWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct PrologConfig {
    /// Lightweight-process reductions per processor.
    pub reductions_per_proc: usize,
    /// Crossbar accesses (instruction/term fetches) per reduction.
    pub crossbar_accesses_per_reduction: usize,
    /// Fraction of reductions that perform a binding publication
    /// (lock + write + unlock) on the sync bus.
    pub binding_fraction: f64,
    /// Fraction of reductions that end in a process switch (state save via
    /// write-without-fetch).
    pub switch_fraction: f64,
    /// Distinct binding atoms (locks) shared among the processes.
    pub binding_atoms: usize,
    /// Blocks of state saved at each process switch.
    pub switch_state_blocks: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for PrologConfig {
    fn default() -> Self {
        PrologConfig {
            reductions_per_proc: 60,
            crossbar_accesses_per_reduction: 6,
            binding_fraction: 0.5,
            switch_fraction: 0.2,
            binding_atoms: 4,
            switch_state_blocks: 2,
            seed: 0xA9A,
        }
    }
}

#[derive(Debug)]
enum Phase {
    Reduce { xbar_left: usize },
    Acquire(LockAcquire),
    AcquireIssue(LockAcquire, ProcOp),
    AcquireWait(LockAcquire),
    BindWrite,
    BindWait,
    ReleaseIssue(ProcOp),
    ReleaseWait,
    SwitchSave { block: usize },
    SwitchWait { block: usize },
    Done,
}

#[derive(Debug)]
struct Proc {
    phase: Phase,
    reductions_left: usize,
    rng: Rng64,
    current_atom: usize,
}

/// The Aquarius Prolog-like workload. Crossbar traffic is routed through
/// the shared [`Crossbar`]; everything else exercises the sync bus.
pub struct PrologWorkload {
    cfg: PrologConfig,
    crossbar: Rc<RefCell<Crossbar>>,
    procs: Vec<Proc>,
    scheme_stats: LockSchemeStats,
    bindings_published: u64,
    switches: u64,
    value_seq: u64,
    words_per_block: usize,
}

impl PrologWorkload {
    /// Creates the workload over a shared crossbar.
    pub fn new(cfg: PrologConfig, crossbar: Rc<RefCell<Crossbar>>) -> Self {
        PrologWorkload {
            cfg,
            crossbar,
            procs: Vec::new(),
            scheme_stats: LockSchemeStats::default(),
            bindings_published: 0,
            switches: 0,
            value_seq: 0,
            words_per_block: 4,
        }
    }

    /// Bindings published across all processors.
    pub fn bindings_published(&self) -> u64 {
        self.bindings_published
    }

    /// Process switches performed.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Lock scheme counters.
    pub fn scheme_stats(&self) -> &LockSchemeStats {
        &self.scheme_stats
    }

    fn atom_addr(&self, atom: usize) -> Addr {
        // Each binding atom: one lock block + one binding block.
        Addr((atom * 2 * self.words_per_block) as u64)
    }

    fn binding_addr(&self, atom: usize) -> Addr {
        Addr(self.atom_addr(atom).0 + self.words_per_block as u64)
    }

    fn switch_state_addr(&self, proc: usize, block: usize) -> Addr {
        // Per-processor state area, far above the binding atoms.
        Addr((0x4000 + (proc * 16 + block) * self.words_per_block) as u64)
    }

    fn ensure_proc(&mut self, proc: ProcId) {
        while self.procs.len() <= proc.0 {
            let id = self.procs.len() as u64;
            self.procs.push(Proc {
                phase: Phase::Reduce { xbar_left: self.cfg.crossbar_accesses_per_reduction },
                reductions_left: self.cfg.reductions_per_proc,
                rng: Rng64::seed_from_u64(self.cfg.seed ^ (id << 24 | 0x51)),
                current_atom: 0,
            });
        }
    }
}

impl Workload for PrologWorkload {
    fn next(&mut self, proc: ProcId, now: u64) -> WorkItem {
        self.ensure_proc(proc);
        match std::mem::replace(&mut self.procs[proc.0].phase, Phase::Done) {
            Phase::Done => {
                self.procs[proc.0].phase = Phase::Done;
                WorkItem::Done
            }
            Phase::Reduce { xbar_left } => {
                if xbar_left > 0 {
                    // Instruction/term fetch through the crossbar: the
                    // latency comes back as compute time on this processor.
                    let write = self.procs[proc.0].rng.gen_bool(0.25);
                    let addr = Addr(0x100_0000 + self.procs[proc.0].rng.gen_range_u64(0..2048));
                    let latency =
                        self.crossbar.borrow_mut().access(proc.0, addr, write, now).max(1);
                    self.procs[proc.0].phase = Phase::Reduce { xbar_left: xbar_left - 1 };
                    return WorkItem::Compute(latency);
                }
                // Reduction body done; decide what this reduction does.
                let p = &mut self.procs[proc.0];
                if p.reductions_left == 0 {
                    p.phase = Phase::Done;
                    return WorkItem::Done;
                }
                p.reductions_left -= 1;
                let publish = p.rng.gen_bool(self.cfg.binding_fraction);
                let switch = p.rng.gen_bool(self.cfg.switch_fraction);
                if publish {
                    let atom = p.rng.gen_range_usize(0..self.cfg.binding_atoms);
                    p.current_atom = atom;
                    let acquire =
                        LockAcquire::new(LockSchemeKind::CacheLock, self.atom_addr(atom));
                    self.procs[proc.0].phase = Phase::Acquire(acquire);
                } else if switch {
                    self.procs[proc.0].phase = Phase::SwitchSave { block: 0 };
                } else {
                    self.procs[proc.0].phase =
                        Phase::Reduce { xbar_left: self.cfg.crossbar_accesses_per_reduction };
                }
                self.next(proc, now)
            }
            Phase::Acquire(mut acquire) => {
                let op = acquire.start(&mut self.scheme_stats);
                self.procs[proc.0].phase = Phase::AcquireWait(acquire);
                WorkItem::Op(op)
            }
            Phase::AcquireIssue(acquire, op) => {
                self.procs[proc.0].phase = Phase::AcquireWait(acquire);
                WorkItem::Op(op)
            }
            Phase::AcquireWait(acquire) => {
                self.procs[proc.0].phase = Phase::AcquireWait(acquire);
                WorkItem::Idle
            }
            Phase::BindWrite => {
                let atom = self.procs[proc.0].current_atom;
                self.value_seq += 1;
                self.procs[proc.0].phase = Phase::BindWait;
                WorkItem::Op(ProcOp::write(self.binding_addr(atom), Word(self.value_seq)))
            }
            Phase::BindWait => {
                self.procs[proc.0].phase = Phase::BindWait;
                WorkItem::Idle
            }
            Phase::ReleaseIssue(op) => {
                self.procs[proc.0].phase = Phase::ReleaseWait;
                WorkItem::Op(op)
            }
            Phase::ReleaseWait => {
                self.procs[proc.0].phase = Phase::ReleaseWait;
                WorkItem::Idle
            }
            Phase::SwitchSave { block } => {
                self.value_seq += 1;
                let addr = self.switch_state_addr(proc.0, block);
                self.procs[proc.0].phase = Phase::SwitchWait { block };
                WorkItem::Op(ProcOp::write_no_fetch(addr, Word(self.value_seq)))
            }
            Phase::SwitchWait { block } => {
                self.procs[proc.0].phase = Phase::SwitchWait { block };
                WorkItem::Idle
            }
        }
    }

    fn complete(&mut self, proc: ProcId, _op: &ProcOp, result: &AccessResult, _now: u64) {
        self.ensure_proc(proc);
        let fresh_reduce =
            Phase::Reduce { xbar_left: self.cfg.crossbar_accesses_per_reduction };
        match std::mem::replace(&mut self.procs[proc.0].phase, Phase::Done) {
            Phase::AcquireWait(mut acquire) => {
                match acquire.on_complete(result, &mut self.scheme_stats) {
                    LockStep::Issue(op) => {
                        self.procs[proc.0].phase = Phase::AcquireIssue(acquire, op);
                    }
                    LockStep::Acquired(_) => {
                        self.procs[proc.0].phase = Phase::BindWrite;
                    }
                }
            }
            Phase::BindWait => {
                // Release: the unlock is the final write to the lock block.
                self.value_seq += 1;
                let atom = self.procs[proc.0].current_atom;
                let release = LockSchemeKind::CacheLock
                    .release_op(self.atom_addr(atom), Word(self.value_seq));
                self.procs[proc.0].phase = Phase::ReleaseIssue(release);
            }
            Phase::ReleaseWait => {
                self.bindings_published += 1;
                self.procs[proc.0].phase = fresh_reduce;
            }
            Phase::SwitchWait { block } => {
                if block + 1 < self.cfg.switch_state_blocks {
                    self.procs[proc.0].phase = Phase::SwitchSave { block: block + 1 };
                } else {
                    self.switches += 1;
                    self.procs[proc.0].phase = fresh_reduce;
                }
            }
            other => {
                self.procs[proc.0].phase = other;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::BitarDespain;
    use mcs_sim::{CrossbarConfig, System, SystemConfig};

    fn crossbar(procs: usize) -> Rc<RefCell<Crossbar>> {
        Rc::new(RefCell::new(Crossbar::new(procs, CrossbarConfig::default()).unwrap()))
    }

    #[test]
    fn reductions_publish_and_switch() {
        let xbar = crossbar(4);
        let mut w = PrologWorkload::new(PrologConfig::default(), xbar.clone());
        let mut sys = System::new(BitarDespain, SystemConfig::new(4)).unwrap();
        let stats = sys.run(&mut w, 5_000_000).unwrap().stats;
        assert!(w.bindings_published() > 0, "some bindings must be published");
        assert!(w.switches() > 0, "some process switches must happen");
        // The crossbar carried the instruction traffic.
        assert!(xbar.borrow().stats().refs > 0);
        // The sync bus carried lock traffic without retries.
        assert_eq!(stats.bus.retries, 0);
        assert!(stats.locks.acquires >= w.bindings_published());
    }

    #[test]
    fn sync_traffic_is_minority_of_total() {
        // Figure 11's premise: most traffic (instructions, terms) goes to
        // the crossbar; only synchronization uses the single bus.
        let xbar = crossbar(4);
        let mut w = PrologWorkload::new(PrologConfig::default(), xbar.clone());
        let mut sys = System::new(BitarDespain, SystemConfig::new(4)).unwrap();
        let stats = sys.run(&mut w, 5_000_000).unwrap().stats;
        let sync_refs = stats.total_refs();
        let xbar_refs = xbar.borrow().stats().refs;
        assert!(
            xbar_refs > sync_refs,
            "crossbar refs {xbar_refs} must dominate sync refs {sync_refs}"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let xbar = crossbar(3);
            let mut w = PrologWorkload::new(PrologConfig::default(), xbar);
            let mut sys = System::new(BitarDespain, SystemConfig::new(3)).unwrap();
            sys.run(&mut w, 5_000_000).unwrap();
            (w.bindings_published(), w.switches())
        };
        assert_eq!(run(), run());
    }
}
