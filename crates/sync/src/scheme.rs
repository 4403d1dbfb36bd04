//! Lock acquisition/release state machines.

use mcs_model::{Addr, LineState, ProcOp, Protocol, Word};
use mcs_sim::AccessResult;

/// Which busy-wait locking scheme to use (Section E.4, "Basic Approaches",
/// plus the paper's proposal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockSchemeKind {
    /// Cache-state locking with the busy-wait register (the proposal).
    CacheLock,
    /// Spin issuing atomic test-and-set operations; every retry is a bus
    /// transaction.
    TestAndSet,
    /// Test-and-test-and-set: spin on a cached read of the lock word, and
    /// only re-issue the test-and-set when it reads clear.
    TestAndTestAndSet,
}

impl LockSchemeKind {
    /// All schemes, for experiment sweeps.
    pub const ALL: [LockSchemeKind; 3] =
        [LockSchemeKind::CacheLock, LockSchemeKind::TestAndSet, LockSchemeKind::TestAndTestAndSet];

    /// Short identifier for output rows.
    pub fn id(self) -> &'static str {
        match self {
            LockSchemeKind::CacheLock => "cache-lock",
            LockSchemeKind::TestAndSet => "tas",
            LockSchemeKind::TestAndTestAndSet => "ttas",
        }
    }

    /// Parses a CLI identifier (the inverse of [`id`](Self::id)).
    pub fn from_id(id: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.id() == id)
    }

    /// The scheme a lock workload on `protocol` uses: cache-state locking
    /// when one of its states holds the Lock privilege the lock
    /// instruction needs (Bitar-Despain's), test-and-set (a plain atomic
    /// read-modify-write, which every protocol runs) otherwise.
    pub fn paired_with<P: Protocol>(_protocol: &P) -> Self {
        if P::State::all().iter().any(|s| s.descriptor().is_locked()) {
            LockSchemeKind::CacheLock
        } else {
            LockSchemeKind::TestAndSet
        }
    }

    /// The operation releasing the lock at `addr`, storing `value` in the
    /// atom's first word.
    ///
    /// Under cache-state locking the unlock **is** the final data write
    /// (Section E.3); under the bit schemes the release clears the lock
    /// bit.
    pub fn release_op(self, addr: Addr, value: Word) -> ProcOp {
        match self {
            LockSchemeKind::CacheLock => ProcOp::unlock_write(addr, value),
            _ => ProcOp::write(addr, Word(0)),
        }
    }
}

impl std::fmt::Display for LockSchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// What the acquisition machine wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStep {
    /// Issue this operation and report its completion back.
    Issue(ProcOp),
    /// The lock is held; the critical section may proceed. For
    /// [`LockSchemeKind::CacheLock`] the carried value is the word read by
    /// the lock instruction.
    Acquired(Option<Word>),
}

/// Counters a lock scheme accumulates across acquisitions, used by the
/// busy-wait experiments (E2/E3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockSchemeStats {
    /// Successful acquisitions.
    pub acquires: u64,
    /// Atomic test-and-set operations issued (bus transactions).
    pub tas_ops: u64,
    /// Test-and-set operations that failed (found the lock held) — the
    /// "unsuccessful retries" efficient busy wait eliminates.
    pub failed_tas: u64,
    /// Spin reads issued while waiting (cache hits after the first).
    pub spin_reads: u64,
}

/// One in-progress lock acquisition.
///
/// ```
/// use mcs_sync::{LockAcquire, LockSchemeKind, LockSchemeStats, LockStep};
/// use mcs_model::{Addr, ProcOp};
///
/// let mut stats = LockSchemeStats::default();
/// let mut acquire = LockAcquire::new(LockSchemeKind::CacheLock, Addr(16));
/// // The cache-state lock is a single special read; the simulator's
/// // busy-wait register does any waiting before it completes.
/// assert_eq!(acquire.start(&mut stats), ProcOp::lock_read(Addr(16)));
/// ```
#[derive(Debug, Clone)]
pub struct LockAcquire {
    kind: LockSchemeKind,
    addr: Addr,
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    /// A test-and-set is in flight.
    Tas,
    /// Spinning on reads (TTAS).
    Spin,
    Held,
}

impl LockAcquire {
    /// Begins acquiring the lock at `addr` under `kind`.
    pub fn new(kind: LockSchemeKind, addr: Addr) -> Self {
        LockAcquire { kind, addr, phase: Phase::Start }
    }

    /// The scheme in use.
    pub fn kind(&self) -> LockSchemeKind {
        self.kind
    }

    /// The first operation to issue.
    pub fn start(&mut self, stats: &mut LockSchemeStats) -> ProcOp {
        match self.kind {
            LockSchemeKind::CacheLock => {
                self.phase = Phase::Tas;
                ProcOp::lock_read(self.addr)
            }
            LockSchemeKind::TestAndSet | LockSchemeKind::TestAndTestAndSet => {
                self.phase = Phase::Tas;
                stats.tas_ops += 1;
                ProcOp::rmw(self.addr, Word(1))
            }
        }
    }

    /// Feeds back the completion of the previously issued operation and
    /// returns the next step.
    ///
    /// # Panics
    ///
    /// Panics if called before [`LockAcquire::start`] or after the lock was
    /// acquired.
    pub fn on_complete(&mut self, result: &AccessResult, stats: &mut LockSchemeStats) -> LockStep {
        match (self.kind, self.phase) {
            // Cache-state locking: the engine's busy-wait register already
            // waited for us; completion means the block is locked.
            (LockSchemeKind::CacheLock, Phase::Tas) => {
                self.phase = Phase::Held;
                stats.acquires += 1;
                LockStep::Acquired(result.value)
            }
            (LockSchemeKind::TestAndSet, Phase::Tas) => {
                if result.value == Some(Word(0)) {
                    self.phase = Phase::Held;
                    stats.acquires += 1;
                    LockStep::Acquired(None)
                } else {
                    // Busy: immediately retry the test-and-set — another
                    // full bus transaction.
                    stats.failed_tas += 1;
                    stats.tas_ops += 1;
                    LockStep::Issue(ProcOp::rmw(self.addr, Word(1)))
                }
            }
            (LockSchemeKind::TestAndTestAndSet, Phase::Tas) => {
                if result.value == Some(Word(0)) {
                    self.phase = Phase::Held;
                    stats.acquires += 1;
                    LockStep::Acquired(None)
                } else {
                    stats.failed_tas += 1;
                    self.phase = Phase::Spin;
                    stats.spin_reads += 1;
                    LockStep::Issue(ProcOp::read(self.addr))
                }
            }
            (LockSchemeKind::TestAndTestAndSet, Phase::Spin) => {
                if result.value == Some(Word(0)) {
                    // Looks free: try the test-and-set again.
                    self.phase = Phase::Tas;
                    stats.tas_ops += 1;
                    LockStep::Issue(ProcOp::rmw(self.addr, Word(1)))
                } else {
                    stats.spin_reads += 1;
                    LockStep::Issue(ProcOp::read(self.addr))
                }
            }
            (kind, phase) => unreachable!("lock machine misuse: {kind:?} in {phase:?}"),
        }
    }

    /// Whether the lock has been acquired.
    pub fn is_held(&self) -> bool {
        self.phase == Phase::Held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(value: u64) -> AccessResult {
        AccessResult { value: Some(Word(value)), hit: false, retries: 0, latency: 5, aborted: false }
    }

    #[test]
    fn cache_lock_acquires_in_one_op() {
        let mut stats = LockSchemeStats::default();
        let mut m = LockAcquire::new(LockSchemeKind::CacheLock, Addr(8));
        let op = m.start(&mut stats);
        assert_eq!(op, ProcOp::lock_read(Addr(8)));
        match m.on_complete(&done(7), &mut stats) {
            LockStep::Acquired(v) => assert_eq!(v, Some(Word(7))),
            other => panic!("expected acquired, got {other:?}"),
        }
        assert!(m.is_held());
        assert_eq!(stats.acquires, 1);
        assert_eq!(stats.tas_ops, 0);
        assert_eq!(
            LockSchemeKind::CacheLock.release_op(Addr(8), Word(3)),
            ProcOp::unlock_write(Addr(8), Word(3))
        );
    }

    #[test]
    fn tas_retries_until_clear() {
        let mut stats = LockSchemeStats::default();
        let mut m = LockAcquire::new(LockSchemeKind::TestAndSet, Addr(0));
        assert_eq!(m.start(&mut stats), ProcOp::rmw(Addr(0), Word(1)));
        // Busy twice, then free.
        for _ in 0..2 {
            match m.on_complete(&done(1), &mut stats) {
                LockStep::Issue(op) => assert_eq!(op, ProcOp::rmw(Addr(0), Word(1))),
                other => panic!("expected retry, got {other:?}"),
            }
        }
        assert!(matches!(m.on_complete(&done(0), &mut stats), LockStep::Acquired(None)));
        assert_eq!(stats.tas_ops, 3);
        assert_eq!(stats.failed_tas, 2);
        assert_eq!(stats.acquires, 1);
        assert_eq!(LockSchemeKind::TestAndSet.release_op(Addr(0), Word(9)), ProcOp::write(Addr(0), Word(0)));
    }

    #[test]
    fn ttas_spins_on_reads_between_attempts() {
        let mut stats = LockSchemeStats::default();
        let mut m = LockAcquire::new(LockSchemeKind::TestAndTestAndSet, Addr(4));
        assert_eq!(m.start(&mut stats), ProcOp::rmw(Addr(4), Word(1)));
        // Busy: falls back to spinning reads.
        let step = m.on_complete(&done(1), &mut stats);
        assert_eq!(step, LockStep::Issue(ProcOp::read(Addr(4))));
        // Still held: keep reading (cache hits, no bus).
        let step = m.on_complete(&done(1), &mut stats);
        assert_eq!(step, LockStep::Issue(ProcOp::read(Addr(4))));
        // Reads clear: retry the TAS.
        let step = m.on_complete(&done(0), &mut stats);
        assert_eq!(step, LockStep::Issue(ProcOp::rmw(Addr(4), Word(1))));
        // TAS succeeds.
        assert!(matches!(m.on_complete(&done(0), &mut stats), LockStep::Acquired(None)));
        assert_eq!(stats.tas_ops, 2);
        assert_eq!(stats.failed_tas, 1);
        assert_eq!(stats.spin_reads, 2);
    }

    #[test]
    fn ttas_can_lose_the_race_after_spin() {
        let mut stats = LockSchemeStats::default();
        let mut m = LockAcquire::new(LockSchemeKind::TestAndTestAndSet, Addr(4));
        m.start(&mut stats);
        m.on_complete(&done(1), &mut stats); // busy -> spin
        m.on_complete(&done(0), &mut stats); // looks free -> TAS
        // Someone else won: TAS reads 1 again, back to spinning.
        let step = m.on_complete(&done(1), &mut stats);
        assert_eq!(step, LockStep::Issue(ProcOp::read(Addr(4))));
        assert_eq!(stats.failed_tas, 2);
    }

    #[test]
    fn ids_are_stable() {
        assert_eq!(LockSchemeKind::CacheLock.id(), "cache-lock");
        assert_eq!(LockSchemeKind::TestAndSet.id(), "tas");
        assert_eq!(LockSchemeKind::TestAndTestAndSet.id(), "ttas");
        assert_eq!(LockSchemeKind::ALL.len(), 3);
    }
}
