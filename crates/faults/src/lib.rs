//! Deterministic fault injection and liveness watching for the `mcs`
//! simulator.
//!
//! The paper's headline mechanisms — Lock/Lock-Waiter states, the per-cache
//! busy-wait register, and the unlock broadcast (Section E) — are exactly
//! the machinery whose failure modes (a lost unlock broadcast, a dropped
//! snoop reply, a perpetually-NAKed bus transaction, an arbiter that keeps
//! skipping one requester) turn into silent deadlock, livelock, or
//! starvation. This crate provides the two halves of a robustness
//! substrate:
//!
//! * [`FaultPlan`] / [`FaultState`]: a *seeded, deterministic* description
//!   of which faults to inject at the engine's choke points. The same plan
//!   against the same workload reproduces the same fault sequence
//!   bit-for-bit, so every failure a fault uncovers is replayable.
//! * [`Watchdog`]: a forward-progress monitor. A processor with an
//!   outstanding memory operation that retires no reference for longer
//!   than a threshold trips the watchdog, which classifies the stall as
//!   deadlock (nothing moving at all), livelock (the bus is busy but
//!   nobody retires), or starvation (others progress while one is stuck).
//!
//! The crate depends only on `mcs-model` (for the in-tree deterministic
//! RNG and the address types); it knows nothing about caches, protocols,
//! or the engine. The engine decides *where* the choke points are and asks
//! this crate *whether* to fire at each one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test fault code must not panic: the engine asks `FaultState` at its
// choke points on every transaction. Tests keep their unwraps. CI promotes
// these warnings to errors via `cargo clippy -- -D warnings`.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::unreachable, clippy::panic)
)]

use mcs_model::{BlockAddr, Rng64};
use std::fmt;

/// Permille (0..=1000) probability knob. 1000 fires at every opportunity,
/// which is what directed tests use.
pub type Permille = u16;

/// Bus-grant starvation: the arbiter skips `victim` for the next `skips`
/// would-be grants (a bounded model of an unfair service discipline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Starvation {
    /// Processor whose grants are skipped.
    pub victim: usize,
    /// How many grants to deny before behaving fairly again. Use
    /// `u64::MAX` for "forever" (the watchdog is then the only way out).
    pub skips: u64,
}

/// A seeded, deterministic fault-injection plan.
///
/// All probabilities are expressed in permille and drawn from one
/// xoshiro256++ stream seeded by `seed`, so a plan is a pure value: two
/// runs of the same plan over the same workload inject identical faults.
/// A plan with every knob at zero injects nothing and (by the equivalence
/// suite) leaves the simulation bit-identical to a fault-free run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    lost_unlock: Permille,
    dropped_snoop: Permille,
    spurious_nak: Permille,
    delayed_memory: Permille,
    memory_delay_cycles: u64,
    starvation: Option<Starvation>,
    busy_wait_timeout: Option<u64>,
    backoff_base_txns: u64,
    backoff_cap_txns: u64,
}

impl FaultPlan {
    /// An inject-nothing plan drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            lost_unlock: 0,
            dropped_snoop: 0,
            spurious_nak: 0,
            delayed_memory: 0,
            memory_delay_cycles: 0,
            starvation: None,
            busy_wait_timeout: None,
            backoff_base_txns: 1,
            backoff_cap_txns: 64,
        }
    }

    /// Loses each unlock broadcast with probability `permille`/1000:
    /// the lock state still changes, but no busy-wait register observes
    /// the release (Section E.4's wakeup signal vanishes).
    pub fn lose_unlock(mut self, permille: Permille) -> Self {
        self.lost_unlock = permille.min(1000);
        self
    }

    /// Drops each individual snooper's reply with probability
    /// `permille`/1000: the snooper neither updates its state nor
    /// contributes to the aggregated snoop lines for that transaction.
    pub fn drop_snoop(mut self, permille: Permille) -> Self {
        self.dropped_snoop = permille.min(1000);
        self
    }

    /// NAKs each granted bus transaction with probability `permille`/1000
    /// before any snooper sees it; the requester must re-arbitrate
    /// (feeding the engine's retry-bound livelock detection).
    pub fn spurious_nak(mut self, permille: Permille) -> Self {
        self.spurious_nak = permille.min(1000);
        self
    }

    /// Delays each memory-sourced block fetch by `extra_cycles` with
    /// probability `permille`/1000 (a slow memory bank).
    pub fn delay_memory(mut self, permille: Permille, extra_cycles: u64) -> Self {
        self.delayed_memory = permille.min(1000);
        self.memory_delay_cycles = extra_cycles;
        self
    }

    /// Enables bus-grant starvation of one processor. Deterministic — no
    /// RNG draw is involved.
    pub fn starve(mut self, victim: usize, skips: u64) -> Self {
        self.starvation = Some(Starvation { victim, skips });
        self
    }

    /// Enables busy-wait timeout recovery: a waiter whose register has
    /// heard nothing for `cycles` gives up on the broadcast and falls back
    /// to an explicit retry with bounded exponential backoff.
    pub fn busy_wait_timeout(mut self, cycles: u64) -> Self {
        self.busy_wait_timeout = Some(cycles.max(1));
        self
    }

    /// Tunes the timeout-retry backoff, measured in bus signal
    /// transactions: attempt `k` waits `min(base << k, cap)` signal-txn
    /// durations before re-requesting. Defaults to base 1, cap 64.
    pub fn backoff(mut self, base_txns: u64, cap_txns: u64) -> Self {
        self.backoff_base_txns = base_txns.max(1);
        self.backoff_cap_txns = cap_txns.max(base_txns.max(1));
        self
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The starvation configuration, if any.
    pub fn starvation(&self) -> Option<Starvation> {
        self.starvation
    }

    /// The busy-wait timeout in cycles, if recovery is enabled.
    pub fn timeout_cycles(&self) -> Option<u64> {
        self.busy_wait_timeout
    }

    /// Backoff before retry attempt `attempt`, in bus signal transactions:
    /// `min(base << attempt, cap)` (shift saturating).
    pub fn backoff_txns(&self, attempt: u32) -> u64 {
        let shifted = if attempt >= 63 {
            u64::MAX
        } else {
            self.backoff_base_txns.saturating_mul(1u64 << attempt)
        };
        shifted.min(self.backoff_cap_txns)
    }

    /// True when snoop replies can be dropped: every snoop then draws from
    /// the fault stream, so a snooper cannot be skipped unseen.
    pub fn drops_snoops(&self) -> bool {
        self.dropped_snoop > 0
    }

    /// True when no knob can ever fire (the plan is pure configuration).
    pub fn is_inert(&self) -> bool {
        self.lost_unlock == 0
            && self.dropped_snoop == 0
            && self.spurious_nak == 0
            && self.delayed_memory == 0
            && self.starvation.is_none()
            && self.busy_wait_timeout.is_none()
    }
}

/// Counters for every fault injected and every recovery taken, reported in
/// the engine's `RunReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Unlock broadcasts whose wakeup was suppressed.
    pub lost_unlocks: u64,
    /// Individual snooper replies dropped.
    pub dropped_snoops: u64,
    /// Transactions NAKed before execution.
    pub spurious_naks: u64,
    /// Memory-sourced fetches delayed.
    pub delayed_fetches: u64,
    /// Arbitration grants denied to the starvation victim.
    pub starved_grants: u64,
    /// Busy-wait timeouts taken (each falls back to an explicit retry).
    pub busy_wait_timeouts: u64,
}

impl FaultStats {
    /// Total faults injected (recoveries not included).
    pub fn injected(&self) -> u64 {
        self.lost_unlocks
            + self.dropped_snoops
            + self.spurious_naks
            + self.delayed_fetches
            + self.starved_grants
    }
}

/// Runtime state of a [`FaultPlan`]: the RNG stream, the remaining
/// starvation budget, and the injection counters.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: Rng64,
    starve_left: u64,
    stats: FaultStats,
}

impl FaultState {
    /// Instantiates `plan` at the start of a run.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = Rng64::seed_from_u64(plan.seed);
        let starve_left = plan.starvation.map_or(0, |s| s.skips);
        FaultState { plan, rng, starve_left, stats: FaultStats::default() }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    #[inline]
    fn roll(&mut self, permille: Permille) -> bool {
        // Zero-probability knobs never consume the stream, so enabling one
        // fault kind does not perturb the draw sequence of another.
        permille > 0 && self.rng.gen_range_u64(0..1000) < u64::from(permille)
    }

    /// Should this unlock broadcast be lost?
    #[inline]
    pub fn roll_lost_unlock(&mut self) -> bool {
        let hit = self.roll(self.plan.lost_unlock);
        if hit {
            self.stats.lost_unlocks += 1;
        }
        hit
    }

    /// Should this snooper's reply be dropped?
    #[inline]
    pub fn roll_dropped_snoop(&mut self) -> bool {
        let hit = self.roll(self.plan.dropped_snoop);
        if hit {
            self.stats.dropped_snoops += 1;
        }
        hit
    }

    /// Should this granted transaction be NAKed?
    #[inline]
    pub fn roll_spurious_nak(&mut self) -> bool {
        let hit = self.roll(self.plan.spurious_nak);
        if hit {
            self.stats.spurious_naks += 1;
        }
        hit
    }

    /// Extra cycles to add to this memory-sourced fetch, if the delay
    /// fault fires.
    #[inline]
    pub fn roll_memory_delay(&mut self) -> Option<u64> {
        if self.roll(self.plan.delayed_memory) {
            self.stats.delayed_fetches += 1;
            Some(self.plan.memory_delay_cycles)
        } else {
            None
        }
    }

    /// Should the arbiter skip a would-be grant to `proc`? Deterministic:
    /// fires iff `proc` is the victim and skip budget remains.
    #[inline]
    pub fn take_starved_grant(&mut self, proc: usize) -> bool {
        match self.plan.starvation {
            Some(s) if s.victim == proc && self.starve_left > 0 => {
                self.starve_left -= 1;
                self.stats.starved_grants += 1;
                true
            }
            _ => false,
        }
    }

    /// Records one busy-wait timeout recovery.
    #[inline]
    pub fn note_busy_wait_timeout(&mut self) {
        self.stats.busy_wait_timeouts += 1;
    }
}

/// Watchdog thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles between forward-progress checks.
    pub check_interval: u64,
    /// A processor with an outstanding operation that has retired no
    /// reference for more than this many cycles counts as stalled.
    pub stall_threshold: u64,
}

impl Default for WatchdogConfig {
    /// Generous defaults: check every 10 000 cycles, stall after 200 000.
    /// Clean runs of every protocol × workload family stay far below the
    /// threshold (pinned by `tests/faults.rs`).
    fn default() -> Self {
        WatchdogConfig { check_interval: 10_000, stall_threshold: 200_000 }
    }
}

impl WatchdogConfig {
    /// Default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the check interval (clamped to ≥ 1).
    pub fn check_interval(mut self, cycles: u64) -> Self {
        self.check_interval = cycles.max(1);
        self
    }

    /// Sets the stall threshold (clamped to ≥ 1).
    pub fn stall_threshold(mut self, cycles: u64) -> Self {
        self.stall_threshold = cycles.max(1);
        self
    }
}

/// How the watchdog classified a detected stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Every processor with an outstanding operation is stalled and the
    /// bus is idle: nothing can ever move again.
    Deadlock,
    /// Every outstanding operation is stalled but bus transactions keep
    /// flowing: work is happening, progress is not.
    Livelock,
    /// Some processors progress while at least one is stuck.
    Starvation,
}

impl StallKind {
    /// Stable lowercase identifier (used in events and reports).
    pub fn id(self) -> &'static str {
        match self {
            StallKind::Deadlock => "deadlock",
            StallKind::Livelock => "livelock",
            StallKind::Starvation => "starvation",
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Full diagnosis of a watchdog trip, carried inside the engine's typed
/// error so callers see cycle, processor, block, and protocol context
/// instead of a panic or a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogTrip {
    /// Stall classification.
    pub kind: StallKind,
    /// The longest-stalled processor.
    pub proc: usize,
    /// Cycle at which the trip was detected.
    pub cycle: u64,
    /// How long `proc` had retired nothing when the check fired.
    pub stalled_for: u64,
    /// The block `proc`'s outstanding operation targets, when known.
    pub block: Option<BlockAddr>,
    /// Name of the protocol that was running.
    pub protocol: &'static str,
}

impl fmt::Display for WatchdogTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} under {}: processor {} retired nothing for {} cycles (detected at cycle {}",
            self.kind, self.protocol, self.proc, self.stalled_for, self.cycle
        )?;
        match self.block {
            Some(b) => write!(f, ", waiting on {b})"),
            None => write!(f, ")"),
        }
    }
}

/// Summary of a watchdog's observations over a completed (clean) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Forward-progress checks performed.
    pub checks: u64,
    /// Worst no-progress span observed on any outstanding operation.
    pub max_stall: u64,
}

/// Per-processor forward-progress monitor.
///
/// The engine feeds it retirements ([`Watchdog::note_progress`]) and, at
/// [`Watchdog::reset`] and each [`Watchdog::check`], the run's bus
/// transaction count so far; every `check_interval` cycles it scans the
/// processors the engine says have an outstanding operation and trips when
/// one has retired nothing for longer than the stall threshold. The check
/// mutates only the watchdog itself, so enabling it cannot change
/// simulation results — only end them early.
#[derive(Debug, Clone)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    last_progress: Vec<u64>,
    next_check: u64,
    /// The bus transaction count at the last check (or reset).
    txns_at_check: u64,
    checks: u64,
    max_stall: u64,
}

impl Watchdog {
    /// A watchdog over `procs` processors.
    pub fn new(procs: usize, cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            last_progress: vec![0; procs],
            next_check: cfg.check_interval,
            txns_at_check: 0,
            checks: 0,
            max_stall: 0,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Re-arms the watchdog at `now`, when `txns` bus transactions have
    /// been made (a fresh workload over a warm system).
    pub fn reset(&mut self, now: u64, txns: u64) {
        for p in &mut self.last_progress {
            *p = now;
        }
        self.next_check = now.saturating_add(self.cfg.check_interval);
        self.txns_at_check = txns;
    }

    /// Records that `proc` retired a reference at `cycle`.
    #[inline]
    pub fn note_progress(&mut self, proc: usize, cycle: u64) {
        self.last_progress[proc] = cycle;
    }

    /// Is a check due at `now`?
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_check
    }

    /// The cycle of the next scheduled check (an event-driven engine must
    /// wake for it, or a fully-quiet deadlock would only be noticed at the
    /// run deadline).
    #[inline]
    pub fn next_check_at(&self) -> u64 {
        self.next_check
    }

    /// Runs one forward-progress check at `now`, when `txns` bus
    /// transactions have been made; any made since the last check split a
    /// livelock from a deadlock. `outstanding(i)` must return whether
    /// processor `i` currently has an operation in flight (queued, granted,
    /// busy-waiting, or backing off) — processors that are computing,
    /// voluntarily idle, or done cannot stall.
    ///
    /// Returns the stall classification, the longest-stalled processor,
    /// and its no-progress span, or `None` when everything is live.
    pub fn check(
        &mut self,
        now: u64,
        txns: u64,
        outstanding: impl Fn(usize) -> bool,
    ) -> Option<(StallKind, usize, u64)> {
        self.checks += 1;
        self.next_check = now.saturating_add(self.cfg.check_interval);
        let bus_moved = txns > self.txns_at_check;
        self.txns_at_check = txns;

        let mut active = 0usize;
        let mut stalled = 0usize;
        let mut worst: Option<(usize, u64)> = None;
        for (i, &last) in self.last_progress.iter().enumerate() {
            if !outstanding(i) {
                continue;
            }
            active += 1;
            let span = now.saturating_sub(last);
            self.max_stall = self.max_stall.max(span);
            if span > self.cfg.stall_threshold {
                stalled += 1;
                if worst.is_none_or(|(_, w)| span > w) {
                    worst = Some((i, span));
                }
            }
        }
        let (proc, span) = worst?;
        let kind = if stalled == active {
            if bus_moved {
                StallKind::Livelock
            } else {
                StallKind::Deadlock
            }
        } else {
            StallKind::Starvation
        };
        Some((kind, proc, span))
    }

    /// The run summary (checks performed, worst stall seen).
    pub fn report(&self) -> WatchdogReport {
        WatchdogReport { checks: self.checks, max_stall: self.max_stall }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let plan = FaultPlan::new(7).lose_unlock(300).spurious_nak(100);
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for _ in 0..1000 {
            assert_eq!(a.roll_lost_unlock(), b.roll_lost_unlock());
            assert_eq!(a.roll_spurious_nak(), b.roll_spurious_nak());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().lost_unlocks > 0);
        assert!(a.stats().spurious_naks > 0);
    }

    #[test]
    fn zero_rate_knobs_never_fire_and_never_draw() {
        let mut s = FaultState::new(FaultPlan::new(1));
        for _ in 0..100 {
            assert!(!s.roll_lost_unlock());
            assert!(!s.roll_dropped_snoop());
            assert!(!s.roll_spurious_nak());
            assert!(s.roll_memory_delay().is_none());
            assert!(!s.take_starved_grant(0));
        }
        assert_eq!(s.stats().injected(), 0);
        assert!(s.plan().is_inert());
        // The stream was never consumed: a fresh state agrees after the
        // no-op rolls above.
        let mut fresh = FaultState::new(FaultPlan::new(1).lose_unlock(1000));
        let mut used = FaultState::new(FaultPlan::new(1).lose_unlock(1000));
        for _ in 0..10 {
            assert_eq!(fresh.roll_lost_unlock(), used.roll_lost_unlock());
        }
    }

    #[test]
    fn rate_1000_always_fires() {
        let mut s = FaultState::new(FaultPlan::new(9).lose_unlock(1000).delay_memory(1000, 25));
        for _ in 0..50 {
            assert!(s.roll_lost_unlock());
            assert_eq!(s.roll_memory_delay(), Some(25));
        }
        assert_eq!(s.stats().lost_unlocks, 50);
        assert_eq!(s.stats().delayed_fetches, 50);
    }

    #[test]
    fn starvation_budget_is_exact() {
        let mut s = FaultState::new(FaultPlan::new(0).starve(2, 3));
        assert!(!s.take_starved_grant(0), "only the victim is skipped");
        assert!(s.take_starved_grant(2));
        assert!(s.take_starved_grant(2));
        assert!(s.take_starved_grant(2));
        assert!(!s.take_starved_grant(2), "budget exhausted");
        assert_eq!(s.stats().starved_grants, 3);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let plan = FaultPlan::new(0).backoff(2, 32);
        assert_eq!(plan.backoff_txns(0), 2);
        assert_eq!(plan.backoff_txns(1), 4);
        assert_eq!(plan.backoff_txns(3), 16);
        assert_eq!(plan.backoff_txns(4), 32);
        assert_eq!(plan.backoff_txns(40), 32, "capped");
        assert_eq!(plan.backoff_txns(200), 32, "huge attempts saturate");
        assert_eq!(FaultPlan::new(0).backoff_txns(0), 1, "defaults");
    }

    #[test]
    fn permille_is_clamped() {
        let plan = FaultPlan::new(0).lose_unlock(9999);
        let mut s = FaultState::new(plan);
        assert!(s.roll_lost_unlock());
    }

    #[test]
    fn watchdog_clean_when_everyone_progresses() {
        let mut wd = Watchdog::new(2, WatchdogConfig::new().check_interval(10).stall_threshold(50));
        assert!(!wd.due(5));
        assert!(wd.due(10));
        for now in (10..200).step_by(10) {
            wd.note_progress(0, now);
            wd.note_progress(1, now);
            assert_eq!(wd.check(now, 0, |_| true), None);
        }
        let r = wd.report();
        assert!(r.checks > 0);
        assert!(r.max_stall <= 50);
    }

    #[test]
    fn watchdog_classifies_deadlock_livelock_starvation() {
        let cfg = WatchdogConfig::new().check_interval(10).stall_threshold(50);
        // Deadlock: all outstanding procs stalled, no bus traffic.
        let mut wd = Watchdog::new(2, cfg);
        assert_eq!(wd.check(100, 0, |_| true), Some((StallKind::Deadlock, 0, 100)));
        // Livelock: all stalled but the bus kept cycling.
        let mut wd = Watchdog::new(2, cfg);
        assert_eq!(wd.check(100, 1, |_| true), Some((StallKind::Livelock, 0, 100)));
        // The next check sees no new transaction: a deadlock.
        assert_eq!(wd.check(200, 1, |_| true), Some((StallKind::Deadlock, 0, 200)));
        // Starvation: proc 1 progresses, proc 0 does not.
        let mut wd = Watchdog::new(2, cfg);
        wd.note_progress(1, 95);
        assert_eq!(wd.check(100, 0, |_| true), Some((StallKind::Starvation, 0, 100)));
        // Non-outstanding procs never stall.
        let mut wd = Watchdog::new(2, cfg);
        assert_eq!(wd.check(100, 0, |i| i == 1), Some((StallKind::Deadlock, 1, 100)));
        let mut wd = Watchdog::new(2, cfg);
        assert_eq!(wd.check(100, 0, |_| false), None);
    }

    #[test]
    fn watchdog_picks_longest_stalled_proc() {
        let cfg = WatchdogConfig::new().check_interval(10).stall_threshold(10);
        let mut wd = Watchdog::new(3, cfg);
        wd.note_progress(0, 80);
        wd.note_progress(1, 20);
        wd.note_progress(2, 60);
        assert_eq!(wd.check(100, 0, |_| true), Some((StallKind::Deadlock, 1, 80)));
    }

    #[test]
    fn watchdog_reset_rebases_progress() {
        let cfg = WatchdogConfig::new().check_interval(10).stall_threshold(50);
        let mut wd = Watchdog::new(1, cfg);
        wd.reset(1000, 0);
        assert_eq!(wd.next_check_at(), 1010);
        assert_eq!(wd.check(1020, 0, |_| true), None, "20 < threshold after rebase");
        assert!(wd.check(1100, 0, |_| true).is_some());
    }

    #[test]
    fn trip_display_has_context() {
        let t = WatchdogTrip {
            kind: StallKind::Deadlock,
            proc: 3,
            cycle: 120_000,
            stalled_for: 101_000,
            block: Some(BlockAddr(0x40)),
            protocol: "bitar-despain",
        };
        let s = t.to_string();
        assert!(s.contains("deadlock"), "{s}");
        assert!(s.contains("bitar-despain"), "{s}");
        assert!(s.contains("processor 3"), "{s}");
        assert!(s.contains("120000"), "{s}");
        assert!(s.contains("B0x40"), "{s}");
    }
}
