//! Lock-contention workload: processors repeatedly think, acquire a
//! busy-wait lock, access the atom's payload, and release.
//!
//! Memory layout follows the paper's advice for write-in systems ("no
//! other data should be placed in a block with an atom", Section D.2):
//! each lock's atom occupies its own run of blocks, the first block
//! holding the lock word.

use mcs_model::{Addr, BlockAddr, ProcId, ProcOp, Word};
use mcs_sim::{AccessResult, WaitBehavior, WorkItem, Workload};
use mcs_sync::{LockAcquire, LockSchemeKind, LockSchemeStats, LockStep};
use std::collections::VecDeque;

/// Builder for [`CriticalSectionWorkload`].
#[derive(Debug, Clone)]
pub struct CriticalSectionBuilder {
    scheme: LockSchemeKind,
    locks: usize,
    payload_blocks: usize,
    payload_reads: usize,
    payload_writes: usize,
    think_cycles: u64,
    iterations: usize,
    words_per_block: usize,
    work_while_waiting: Option<u64>,
}

impl Default for CriticalSectionBuilder {
    fn default() -> Self {
        CriticalSectionBuilder {
            scheme: LockSchemeKind::CacheLock,
            locks: 1,
            payload_blocks: 1,
            payload_reads: 2,
            payload_writes: 2,
            think_cycles: 20,
            iterations: 25,
            words_per_block: 4,
            work_while_waiting: None,
        }
    }
}

impl CriticalSectionBuilder {
    /// Selects the lock scheme (default: the paper's cache-state lock).
    pub fn scheme(mut self, scheme: LockSchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Number of distinct locks (1 = maximal contention).
    pub fn locks(mut self, locks: usize) -> Self {
        self.locks = locks.max(1);
        self
    }

    /// Blocks per atom, including the lock block itself.
    pub fn payload_blocks(mut self, blocks: usize) -> Self {
        self.payload_blocks = blocks.max(1);
        self
    }

    /// Reads of the payload inside each critical section.
    pub fn payload_reads(mut self, reads: usize) -> Self {
        self.payload_reads = reads;
        self
    }

    /// Writes to the payload inside each critical section (the paper's
    /// "blocks written more than a few times while the atom is locked").
    pub fn payload_writes(mut self, writes: usize) -> Self {
        self.payload_writes = writes;
        self
    }

    /// Think time between critical sections, in cycles.
    pub fn think_cycles(mut self, cycles: u64) -> Self {
        self.think_cycles = cycles;
        self
    }

    /// Critical sections per processor.
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Words per block, to lay atoms out on block boundaries (must match
    /// the system's geometry).
    pub fn words_per_block(mut self, words: usize) -> Self {
        self.words_per_block = words.max(1);
        self
    }

    /// Lets a denied waiter execute a *ready section* of useful work
    /// (Section E.4) of up to this many cycles.
    pub fn work_while_waiting(mut self, cycles: u64) -> Self {
        self.work_while_waiting = Some(cycles);
        self
    }

    /// Builds the workload.
    pub fn build(self) -> CriticalSectionWorkload {
        CriticalSectionWorkload::new(self)
    }
}

#[derive(Debug)]
enum Phase {
    /// About to think; `iterations_left` checked here.
    Think,
    /// Thinking finished; issue the first acquisition op.
    AcquireStart(LockAcquire),
    /// An acquisition op is in flight.
    AcquireWait(LockAcquire),
    /// The machine asked for another op (retry/spin); issue it.
    AcquireIssue(LockAcquire, ProcOp),
    /// Holding the lock; drain the payload ops, then release.
    Critical(VecDeque<ProcOp>),
    /// The release op is in flight.
    ReleaseWait,
    /// All iterations finished.
    Done,
}

#[derive(Debug)]
struct Proc {
    phase: Phase,
    iterations_left: usize,
    current_lock: usize,
    acquire_started_at: u64,
}

/// The lock-ladder workload. See [`CriticalSectionBuilder`].
///
/// ```
/// use mcs_workloads::CriticalSectionWorkload;
/// use mcs_sync::LockSchemeKind;
///
/// let workload = CriticalSectionWorkload::builder()
///     .scheme(LockSchemeKind::CacheLock)
///     .locks(2)
///     .payload_writes(4)
///     .iterations(10)
///     .build();
/// // Atoms are laid out on disjoint blocks (Section D.2).
/// assert_ne!(workload.lock_addr(0), workload.lock_addr(1));
/// ```
#[derive(Debug)]
pub struct CriticalSectionWorkload {
    cfg: CriticalSectionBuilder,
    procs: Vec<Proc>,
    scheme_stats: LockSchemeStats,
    completed_sections: u64,
    total_acquire_latency: u64,
    value_seq: u64,
}

impl CriticalSectionWorkload {
    /// Start building a workload.
    pub fn builder() -> CriticalSectionBuilder {
        CriticalSectionBuilder::default()
    }

    fn new(cfg: CriticalSectionBuilder) -> Self {
        CriticalSectionWorkload {
            cfg,
            procs: Vec::new(),
            scheme_stats: LockSchemeStats::default(),
            completed_sections: 0,
            total_acquire_latency: 0,
            value_seq: 1,
        }
    }

    /// Scheme-level counters (TAS attempts, failures, spins).
    pub fn scheme_stats(&self) -> &LockSchemeStats {
        &self.scheme_stats
    }

    /// Critical sections completed across all processors.
    pub fn completed_sections(&self) -> u64 {
        self.completed_sections
    }

    /// Mean cycles from the end of thinking to holding the lock.
    pub fn mean_acquire_latency(&self) -> f64 {
        if self.completed_sections == 0 {
            0.0
        } else {
            self.total_acquire_latency as f64 / self.completed_sections as f64
        }
    }

    /// The word address of lock `i`'s lock word (first word of its atom).
    pub fn lock_addr(&self, lock: usize) -> Addr {
        // Atoms are spaced a spare block apart so they never share blocks;
        // test-and-set schemes additionally devote a whole block to the
        // lock bit (one of the costs Section E.3 charges them with).
        let stride = (self.cfg.payload_blocks + 2) as u64;
        Addr(lock as u64 * stride * self.cfg.words_per_block as u64)
    }

    fn payload_addr(&self, lock: usize, i: usize) -> Addr {
        let words = self.cfg.words_per_block;
        // Under cache-state locking the atom's first block holds the lock
        // word and the payload together (Section D.2: blocks devoted to
        // atoms). Under the bit schemes the payload starts after the
        // dedicated lock-bit block.
        let base = match self.cfg.scheme {
            LockSchemeKind::CacheLock => self.lock_addr(lock).0,
            _ => self.lock_addr(lock).0 + words as u64,
        };
        let span = (self.cfg.payload_blocks * words).max(2);
        Addr(base + 1 + ((i * 3) % (span - 1)) as u64)
    }

    fn ensure_proc(&mut self, proc: ProcId) {
        while self.procs.len() <= proc.0 {
            self.procs.push(Proc {
                phase: Phase::Think,
                iterations_left: self.cfg.iterations,
                current_lock: 0,
                acquire_started_at: 0,
            });
        }
    }

    fn pick_lock(&self, proc: ProcId, iteration: usize) -> usize {
        (proc.0 * 31 + iteration * 7) % self.cfg.locks
    }

    fn critical_ops(&mut self, lock: usize) -> VecDeque<ProcOp> {
        let mut ops = VecDeque::new();
        for i in 0..self.cfg.payload_reads {
            ops.push_back(ProcOp::read(self.payload_addr(lock, i)));
        }
        for i in 0..self.cfg.payload_writes {
            self.value_seq += 1;
            ops.push_back(ProcOp::write(
                self.payload_addr(lock, self.cfg.payload_reads + i),
                Word(self.value_seq),
            ));
        }
        ops
    }
}

impl Workload for CriticalSectionWorkload {
    fn next(&mut self, proc: ProcId, now: u64) -> WorkItem {
        self.ensure_proc(proc);
        match std::mem::replace(&mut self.procs[proc.0].phase, Phase::Done) {
            Phase::Done => {
                self.procs[proc.0].phase = Phase::Done;
                WorkItem::Done
            }
            Phase::Think => {
                if self.procs[proc.0].iterations_left == 0 {
                    self.procs[proc.0].phase = Phase::Done;
                    return WorkItem::Done;
                }
                let iteration = self.cfg.iterations - self.procs[proc.0].iterations_left;
                let lock = self.pick_lock(proc, iteration);
                self.procs[proc.0].current_lock = lock;
                let acquire = LockAcquire::new(self.cfg.scheme, self.lock_addr(lock));
                self.procs[proc.0].phase = Phase::AcquireStart(acquire);
                if self.cfg.think_cycles > 0 {
                    WorkItem::Compute(self.cfg.think_cycles)
                } else {
                    self.next(proc, now)
                }
            }
            Phase::AcquireStart(mut acquire) => {
                self.procs[proc.0].acquire_started_at = now;
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
            Phase::Critical(mut ops) => match ops.pop_front() {
                Some(op) => {
                    self.procs[proc.0].phase = Phase::Critical(ops);
                    WorkItem::Op(op)
                }
                None => {
                    let lock = self.procs[proc.0].current_lock;
                    self.value_seq += 1;
                    let release = self.cfg.scheme.release_op(self.lock_addr(lock), Word(self.value_seq));
                    self.procs[proc.0].phase = Phase::ReleaseWait;
                    WorkItem::Op(release)
                }
            },
            Phase::ReleaseWait => {
                self.procs[proc.0].phase = Phase::ReleaseWait;
                WorkItem::Idle
            }
        }
    }

    fn complete(&mut self, proc: ProcId, _op: &ProcOp, result: &AccessResult, now: u64) {
        self.ensure_proc(proc);
        match std::mem::replace(&mut self.procs[proc.0].phase, Phase::Done) {
            Phase::AcquireWait(mut acquire) => {
                match acquire.on_complete(result, &mut self.scheme_stats) {
                    LockStep::Issue(next_op) => {
                        self.procs[proc.0].phase = Phase::AcquireIssue(acquire, next_op);
                    }
                    LockStep::Acquired(_) => {
                        let started = self.procs[proc.0].acquire_started_at;
                        self.total_acquire_latency += now.saturating_sub(started);
                        let lock = self.procs[proc.0].current_lock;
                        let ops = self.critical_ops(lock);
                        self.procs[proc.0].phase = Phase::Critical(ops);
                    }
                }
            }
            Phase::Critical(ops) => {
                self.procs[proc.0].phase = Phase::Critical(ops);
            }
            Phase::ReleaseWait => {
                self.completed_sections += 1;
                self.procs[proc.0].iterations_left -= 1;
                self.procs[proc.0].phase = Phase::Think;
            }
            other => {
                self.procs[proc.0].phase = other;
            }
        }
    }

    fn on_lock_wait(&mut self, _proc: ProcId, _block: BlockAddr, _now: u64) -> WaitBehavior {
        match self.cfg.work_while_waiting {
            Some(cycles) => WaitBehavior::WorkFor(cycles),
            None => WaitBehavior::Spin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::BitarDespain;
    use mcs_protocols::Illinois;
    use mcs_sim::{System, SystemConfig};

    #[test]
    fn cache_lock_ladder_runs_to_completion() {
        let mut w = CriticalSectionWorkload::builder()
            .locks(1)
            .iterations(10)
            .think_cycles(5)
            .build();
        let mut sys = System::new(BitarDespain, SystemConfig::new(4)).unwrap();
        let total = sys.run(&mut w, 500_000).unwrap().stats.locks.acquires;
        // 4 procs x 10 iterations, each acquiring once.
        assert_eq!(total, 40);
        assert_eq!(sys.stats().locks.releases, 40);
    }

    #[test]
    fn cache_lock_produces_zero_bus_retries() {
        let mut w =
            CriticalSectionWorkload::builder().locks(1).iterations(15).think_cycles(3).build();
        let mut sys = System::new(BitarDespain, SystemConfig::new(6)).unwrap();
        let stats = sys.run(&mut w, 2_000_000).unwrap().stats;
        assert_eq!(stats.locks.acquires, 90);
        // Section E.4: the busy-wait register eliminates all unsuccessful
        // retries from the bus.
        assert_eq!(stats.bus.retries, 0);
    }

    #[test]
    fn tas_on_illinois_completes_with_failed_attempts() {
        let w = CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::TestAndSet)
            .locks(1)
            .iterations(8)
            .think_cycles(2)
            .build();
        let mut w = w;
        let _ = &mut w;
        let mut w = CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::TestAndSet)
            .locks(1)
            .iterations(8)
            .think_cycles(2)
            .build();
        let mut sys = System::new(Illinois, SystemConfig::new(4)).unwrap();
        sys.run(&mut w, 5_000_000).unwrap();
        assert_eq!(w.completed_sections(), 32);
        assert!(w.scheme_stats().failed_tas > 0, "contention must cause failed TAS ops");
    }

    #[test]
    fn ttas_spins_in_cache_fewer_tas_than_spin_reads() {
        let mut w = CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::TestAndTestAndSet)
            .locks(1)
            .iterations(8)
            .think_cycles(2)
            .build();
        let mut sys = System::new(Illinois, SystemConfig::new(4)).unwrap();
        sys.run(&mut w, 5_000_000).unwrap();
        assert_eq!(w.completed_sections(), 32);
        assert!(w.scheme_stats().spin_reads >= w.scheme_stats().failed_tas);
    }

    #[test]
    fn multiple_locks_reduce_contention() {
        let mut one = CriticalSectionWorkload::builder().locks(1).iterations(10).think_cycles(2).build();
        let mut sys1 = System::new(BitarDespain, SystemConfig::new(4)).unwrap();
        sys1.run(&mut one, 5_000_000).unwrap();
        let mut four = CriticalSectionWorkload::builder().locks(8).iterations(10).think_cycles(2).build();
        let mut sys4 = System::new(BitarDespain, SystemConfig::new(4)).unwrap();
        sys4.run(&mut four, 5_000_000).unwrap();
        assert!(
            sys4.stats().locks.denied <= sys1.stats().locks.denied,
            "more locks must not increase denials"
        );
    }

    #[test]
    fn atoms_live_on_disjoint_blocks() {
        let w = CriticalSectionWorkload::builder().locks(4).payload_blocks(2).build();
        let stride_words = 4;
        for a in 0..4usize {
            for b in (a + 1)..4usize {
                let block_a = w.lock_addr(a).0 / stride_words;
                let block_b = w.lock_addr(b).0 / stride_words;
                assert!(block_b >= block_a + 3, "atoms must not share blocks");
            }
        }
    }
}
