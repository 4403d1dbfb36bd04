//! The full-broadcast single-bus system engine.
//!
//! The engine owns everything that is *not* protocol-specific: processors
//! and their phase machines, the bus (priority arbitration with a reserved
//! high-priority level for a woken busy-wait register, Section E.4), snoop
//! aggregation over the hit / dirty-status / locked / memory-inhibit lines,
//! data movement, main memory, eviction write-backs, each processor's
//! busy-wait register, directory-interference accounting, statistics,
//! tracing, and the coherence oracles.
//!
//! Bus transactions commit atomically at grant time: all snoopers update
//! state, data moves, and the requester installs its new line state; the
//! bus then stays busy for the transaction's computed duration. Because the
//! single bus serializes the system, this is behaviourally faithful while
//! keeping the simulation deterministic.
//!
//! # Request path
//!
//! One decision, `need`, says what a processor's operation needs against
//! its line's current state. It has four answers: a local hit, with the
//! line's next state; a bus request, with its [`BusOp`]; the forced unlock
//! broadcast of a holder whose lock bit was spilled to memory (Section
//! E.3's minor modification); or the abort of a conditional store whose
//! line was stolen (Section F.3, method 3). A ready processor's
//! presentation asks it, and so do the grant (re-evaluating a queued
//! request against what snoops did to the line meanwhile), the end of a
//! busy-wait backoff, and the second half of a two-transaction operation.
//! An operation that misses becomes one `Request` value (the operation,
//! its retries, its lock-wait start and its first presentation cycle),
//! which the queued, lock-waiting and backing-off phases carry from
//! presentation to grant.
//!
//! A hit and a bus completion retire through one helper, `retire`. It
//! installs the line's next state, applies the operation's data effect and
//! does the lock bookkeeping (Section E.3). The two paths differ in what
//! they cost, not in what they do: a bus completion passes the [`BusOp`]
//! that went out, which moves the data over the bus first, and a hit's
//! lock operations count as zero-time.
//!
//! # Time advance
//!
//! The engine runs in one of two [`EngineMode`]s over the same `step`. The
//! cycle-accurate reference mode advances `now` one bus cycle at a time.
//! The event-driven default jumps straight to the next *interesting*
//! cycle: the earliest processor wake, the next arbitration slot (only
//! when a request is queued), or the watchdog's next check. Both modes produce
//! bit-identical [`Stats`] and [`Trace`] output (see
//! `tests/equivalence.rs`); the event-driven mode merely skips the cycles
//! on which nothing can happen.
//!
//! Every phase change goes through `set_phase`, which keeps the scheduling
//! structures of [`crate::sched`] in step, so a step costs work in
//! proportion to what happens in it, not to the processor count:
//!
//! - **Wake heap.** Each processor has at most one wake cycle: the `until`
//!   of a `Computing`/`InFlight`/`Backoff` phase, a sleeping waiter's
//!   busy-wait timeout, or a workload idle hint. A step pops the due ones
//!   and handles them in ascending processor order.
//! - **Processor sets.** Ready processors, pending requests, and armed and
//!   woken lock waiters are bitsets. Arbitration walks them
//!   round-robin from `rr` with `trailing_zeros`, visiting the same
//!   candidates in the same order as a scan of every processor.
//! - **Busy-wait register** (Section E.4). A denied request's
//!   `WaitingLock` phase is the whole register: the phase names the
//!   watched block, the watch set holds the armed waiters, and the woken
//!   set (a subset of it) those that heard their block's unlock broadcast
//!   and want the bus at the reserved priority. `set_phase` is the only
//!   writer of the watch set and clears the woken bit on every phase
//!   change. An unlock broadcast walks the watch set to wake, and another
//!   cache's lock fetch of the block walks the woken set to put the
//!   losers back to sleep.
//! - **Lazy accounting.** A phase's busy/stall/lock-wait/useful-wait cycles
//!   are credited in closed form when it ends (and at the end of a run),
//!   from the cycle it began; its lock-wait span goes to the interval
//!   sampler at the same moment. Per-window sums do not depend on how the
//!   spans are cut, so timelines match per-cycle accounting exactly.
//!
//! # Snoop filter
//!
//! Broadcasts need only visit caches whose snoop can do something. The
//! engine keeps two per-block bitmasks in [`MainMemory`], as wide as the
//! machine, one 64-bit word per 64 caches. The **holder mask** has bit `i`
//! set iff cache `i` has a frame for the block (valid *or invalid copy*);
//! it changes only at frame allocation and eviction. The **stale mask**
//! marks the frames that are invalid copies; every line-state write goes
//! through `set_line_state`, which keeps it exact, and eviction clears it.
//!
//! Snooping follows validity: the snoop loop visits `holders & !stale`,
//! because an invalid copy snoops as a no-op (the [`Protocol::snoop`]
//! contract). Each skipped stale frame is still charged its directory
//! access. Two cases walk every resident frame instead, because only there
//! can an invalid copy's snoop be observed: a `WriteWord { AllCopies }`
//! write-through, which revalidates invalid copies, and a fault plan that
//! drops snoop replies, which draws for every frame it visits. Snooper
//! data updates visit the valid copies or the resident ones as their
//! target asks, and the source-loss check on eviction is one mask test.
//! All of these walk the masks a word at a time and each word's set bits
//! in ascending order, so they visit caches in ascending order, as a scan
//! of every cache would, and ordering-sensitive effects (fault draws,
//! snoop order) are untouched. The watch and woken sets filter unlock and
//! relock broadcasts the same way. There is
//! one snoop path at every processor count and for every requester: the
//! I/O processor's input and output (Section E.2) snoop through the same
//! loop as a granted transaction, with every cache taking part.
//!
//! Skipping a cache is observationally identical to snooping it. Under the
//! `debug-checks` feature every transaction asserts that both masks are
//! exact for its block (holders equal residency, stale equals the invalid
//! copies) and re-runs the snoop of each stale frame it skipped to check
//! that the protocol ignores it; the golden digests pin the same runs
//! across commits.

use crate::config::{EngineMode, SystemConfig};
use crate::error::{OracleViolation, SimError};
use crate::memory::MainMemory;
use crate::oracle::Oracle;
use crate::sched::{Sched, Set};
use crate::workload::{AccessResult, WaitBehavior, WorkItem, Workload};
use mcs_cache::{Cache, EvictedLine};
use mcs_faults::{FaultState, FaultStats, Watchdog, WatchdogReport, WatchdogTrip};
use mcs_obs::{EventSink, IntervalSampler, LatencyHists};
use std::collections::BTreeMap;
use mcs_model::{
    AccessKind, Addr, AgentId, BlockAddr, BlockGeometry, BusOp, BusTxn, CacheId, CompleteOutcome,
    DirectoryDuality, DirectoryStats, EvictAction, Event, LineState, Privilege, ProcAction, ProcId,
    ProcOp, ProcStats, Protocol, SnoopSummary, SourcePolicy, StateCause, Stats, TimingConfig, Trace,
    UpdateTarget, Word,
};

/// Per-processor phase machine.
#[derive(Debug, Clone)]
enum Phase {
    /// Will ask the workload for its next item.
    Ready,
    /// Busy computing until the given cycle.
    Computing { until: u64 },
    /// Has a bus request queued, waiting for a grant. `queued_at` is when
    /// this queue entry was (re-)created, for arbitration-wait latency.
    Pending { req: Request, queued_at: u64 },
    /// Transaction granted; completes (from the processor's view) at `until`.
    InFlight { op: ProcOp, until: u64, result: AccessResult },
    /// Lock fetch denied; busy-wait register armed (Figure 7) on the block
    /// of `req.op.addr`, with the processor in `Set::Watch` (and in
    /// `Set::Woken` once it heard the unlock). The request's `wait_since`
    /// is set. `armed_at` is when the register was armed for *this* wait,
    /// the anchor for the busy-wait timeout so a re-denied waiter gets a
    /// full fresh timeout instead of expiring instantly.
    WaitingLock { req: Request, behavior: WaitBehavior, armed_at: u64 },
    /// Busy-wait timeout taken: holding off the bus until `until` before
    /// re-requesting explicitly (bounded exponential backoff).
    Backoff { req: Request, until: u64 },
    /// Program finished.
    Done,
}

impl Phase {
    /// The processor set this phase belongs to, if any.
    fn set(&self) -> Option<Set> {
        match self {
            Phase::Ready => Some(Set::Ready),
            Phase::Pending { .. } => Some(Set::Pending),
            Phase::WaitingLock { .. } => Some(Set::Watch),
            _ => None,
        }
    }
}

/// A memory operation that missed at presentation, as one value from then
/// until it completes: queued, denied a lock, backing off, granted. The bus
/// op it needs is not kept: every grant decides it afresh.
#[derive(Debug, Clone, Copy)]
struct Request {
    op: ProcOp,
    /// Retries so far (a retried transaction, a first half, a busy-wait
    /// timeout), checked against the retry bound.
    retries: u32,
    /// When the lock wait began (accumulates across re-denials); set once
    /// a lock fetch is denied.
    wait_since: Option<u64>,
    /// When the operation was first presented, for miss-service latency.
    issued_at: u64,
}

impl Request {
    /// Lock wait accumulated by `now`.
    fn waited(&self, now: u64) -> u64 {
        self.wait_since.map_or(0, |s| now.saturating_sub(s))
    }
}

/// What an operation needs against its line's current state.
enum Need<S> {
    /// Completes in the cache, moving the line from `state` to `next`.
    Hit { state: S, next: S },
    /// A bus transaction.
    Bus(BusOp),
    /// The forced unlock broadcast of a holder whose lock bit was spilled
    /// to memory (Section E.3's minor modification): the bit clears and
    /// waiters wake.
    SpilledUnlock,
    /// A conditional store (optimistic RMW, method 3, Section F.3) whose
    /// line is no longer valid: "the block was stolen between the read and
    /// the write, and atomicity is violated", so the store aborts without
    /// touching the bus.
    Abort,
}

/// The access kind the protocol sees for `kind`: a conditional store whose
/// line is still valid proceeds as a plain write (possibly an upgrade).
fn protocol_kind(kind: AccessKind) -> AccessKind {
    if kind == AccessKind::WriteIfOwned {
        AccessKind::Write
    } else {
        kind
    }
}

/// Credits a phase that ran over `[since, now)` to its processor's
/// statistics, in closed form, and its lock-waiter span to the interval
/// sampler. Summing these spans per phase gives exactly what per-cycle
/// accounting of the same phases gives.
fn credit_phase(
    phase: &Phase,
    since: u64,
    now: u64,
    p: &mut ProcStats,
    sampler: Option<&mut IntervalSampler>,
) {
    let span = now - since;
    if span == 0 {
        return;
    }
    let lock_wait = match phase {
        Phase::Done => false,
        Phase::Computing { .. } => {
            p.busy_cycles += span;
            false
        }
        Phase::Ready | Phase::InFlight { .. } => {
            p.stall_cycles += span;
            false
        }
        // Backing off is a stall; the lock wait keeps running.
        Phase::Pending { req, .. } | Phase::Backoff { req, .. } => {
            p.stall_cycles += span;
            req.wait_since.is_some()
        }
        Phase::WaitingLock { behavior, .. } => {
            // Work-while-waiting (Section E.4): the ready section supplies
            // `c` cycles of useful work; the rest of the wait is a stall.
            let work = match behavior {
                WaitBehavior::WorkFor(c) => span.min(*c),
                WaitBehavior::Spin => 0,
            };
            p.busy_cycles += work;
            p.useful_wait_cycles += work;
            p.stall_cycles += span - work;
            true
        }
    };
    if lock_wait {
        p.lock_wait_cycles += span;
        if let Some(s) = sampler {
            s.add_waiter_span(since, span);
        }
    }
}

/// Iterator over the cache indices set in word `w` of a per-cache mask,
/// ascending.
struct Bits {
    bits: u64,
    base: usize,
}

impl Bits {
    #[inline]
    fn word(w: usize, bits: u64) -> Self {
        Bits { bits, base: w * 64 }
    }
}

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let i = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + i)
    }
}

/// Cache `i`'s bit in word `w` of a per-cache mask (zero when `i` lies in
/// another word).
#[inline]
fn bit_in_word(i: usize, w: usize) -> u64 {
    if i / 64 == w {
        1 << (i % 64)
    } else {
        0
    }
}

/// Number of distinct [`BusOp`] mnemonics (one accumulator slot each).
const BUS_OP_SLOTS: usize = BusOp::ALL.len();

/// Slot index of `op` in [`BusOp::ALL`], whose canonical op per slot folds
/// the flat per-transaction counters into the mnemonic-keyed
/// `Stats.bus.by_op` map.
fn op_slot(op: BusOp) -> usize {
    match op {
        BusOp::Fetch { privilege: Privilege::Read, need_data: true } => 0,
        BusOp::Fetch { privilege: Privilege::Read, need_data: false } => 1,
        BusOp::Fetch { privilege: Privilege::Write, need_data: true } => 2,
        BusOp::Fetch { privilege: Privilege::Write, need_data: false } => 3,
        BusOp::Fetch { privilege: Privilege::Lock, need_data: true } => 4,
        BusOp::Fetch { privilege: Privilege::Lock, need_data: false } => 5,
        BusOp::Invalidate => 6,
        BusOp::WriteWord { target: UpdateTarget::Invalidate } => 7,
        BusOp::WriteWord { target: UpdateTarget::ValidCopies } => 8,
        BusOp::WriteWord { target: UpdateTarget::AllCopies } => 9,
        BusOp::UpdateWord { to_memory: false } => 10,
        BusOp::UpdateWord { to_memory: true } => 11,
        BusOp::ClaimNoFetch => 12,
        BusOp::UnlockBroadcast => 13,
        BusOp::MemoryRmw => 14,
        BusOp::IoInput => 15,
        BusOp::IoOutput { paging: true } => 16,
        BusOp::IoOutput { paging: false } => 17,
    }
}

/// Outcome of one executed bus transaction, engine-internal; the bus
/// occupancy of every outcome travels beside it.
enum TxnOut {
    /// Retired over the bus, with the value the op read.
    Completed(Option<Word>),
    Retried,
    Denied,
    /// First transaction of a two-transaction operation done; present the
    /// op again against the installed state.
    InstalledRetry,
}

/// What a transaction's snoop phase reports back to it.
#[derive(Default)]
struct Snooped {
    /// The aggregated hit / dirty-status / locked / inhibit lines.
    summary: SnoopSummary,
    /// The last snooper that supplies the data, if any.
    supplier: Option<usize>,
    /// Snoopers that flushed the block to memory.
    flushes: u32,
    /// Whether the requesting cache had a frame for the block.
    req_resident: bool,
}

/// Outcome of a [`System::run`] call that ended without an error: either
/// every processor finished or the cycle ceiling cut the run off.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Accumulated statistics (also available via [`System::stats`]).
    pub stats: Stats,
    /// Whether every processor reported `Done` before `max_cycles`.
    pub completed: bool,
    /// Injected-fault counters, when the fault layer was on.
    pub faults: Option<FaultStats>,
    /// Watchdog summary, when the watchdog was armed.
    pub watchdog: Option<WatchdogReport>,
}

/// A simulated full-broadcast multiprocessor running protocol `P`.
///
/// See the crate docs for an end-to-end example.
pub struct System<P: Protocol> {
    protocol: P,
    geometry: BlockGeometry,
    timing: TimingConfig,
    retry_bound: u32,
    caches: Vec<Cache<P::State>>,
    /// Feature 3: the directory organisation, which prices each status
    /// update (see [`System::directory_stats`]).
    duality: DirectoryDuality,
    /// Per cache, the two directory counters no other counter holds:
    /// bus-side lookups and waiter-status updates.
    directories: Vec<DirectoryStats>,
    memory: MainMemory,
    oracle: Option<Oracle>,
    /// The protocol arbitrates among several sources (Feature 8): a shared
    /// fetch pays for the arbitration, and dual sources are legal.
    arbitrated_sources: bool,
    stats: Stats,
    trace: Trace,
    /// Attached event sinks; every traced event is dispatched to each, in
    /// trace order, regardless of whether the in-memory trace is enabled.
    sinks: Vec<Box<dyn EventSink>>,
    /// Latency histograms (`None` unless enabled in the config).
    hists: Option<LatencyHists>,
    /// Interval time-series sampler (`None` unless enabled in the config).
    sampler: Option<IntervalSampler>,
    /// Per-processor phase machines; written only by `set_phase` (and
    /// `reset_phases`), which keep `sched` in step.
    phases: Vec<Phase>,
    /// Processor sets, per-processor clocks and the wake heap.
    sched: Sched,
    /// Number of processors in `Phase::Done`.
    done: usize,
    /// Lock bits spilled to memory when a locked block had to be purged
    /// (Section E.3's minor modification): block -> (holder, waiter seen).
    /// Ordered map so iteration order can never make the engine modes (or
    /// two runs) diverge.
    memory_locks: BTreeMap<BlockAddr, (CacheId, bool)>,
    engine: EngineMode,
    now: u64,
    bus_free_at: u64,
    rr: usize,
    /// Cached "anything listening at all" flag (trace, sinks, or sampler);
    /// lets [`System::emit`] return before even constructing the event.
    obs_enabled: bool,
    /// The fault plan drops snoop replies, so every resident frame must be
    /// visited: each visit draws from the fault stream.
    drops_snoops: bool,
    /// Scratch buffer receiving evicted block data; reused across every
    /// eviction so the steady-state miss path allocates nothing.
    evict_buf: Vec<Word>,
    /// Flat per-[`BusOp`] transaction counters, folded into the
    /// mnemonic-keyed `Stats.bus.by_op` map by [`System::stats`] (a
    /// BTreeMap string probe is too slow for the per-transaction path).
    txns_by_op: [u64; BUS_OP_SLOTS],
    /// Fault-injection state (`None` when the layer is off — the
    /// fault-free hot path pays one `is_some` branch per choke point).
    faults: Option<FaultState>,
    /// Cached busy-wait timeout from the fault plan; `None` disables the
    /// timeout-recovery pass entirely.
    bw_timeout: Option<u64>,
    /// Liveness watchdog (`None` when off). Its checks mutate only the
    /// watchdog itself, so arming it can never change simulation output —
    /// only end a stalled run early with a typed error.
    watchdog: Option<Watchdog>,
}

impl<P: Protocol> System<P> {
    /// Builds a system of `config.processors()` processors running
    /// `protocol`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or has no
    /// processors.
    pub fn new(protocol: P, config: SystemConfig) -> Result<Self, SimError> {
        let n = config.processors();
        if n == 0 {
            return Err(SimError::NoProcessors);
        }
        config.timing().validate()?;
        let geometry = config.cache().geometry();
        // Feature 3 is declared beside the states, and Feature 8's one
        // engine-visible answer is a walk over them: neither runs the
        // protocol's arcs.
        let duality = config.directory().unwrap_or(P::State::DIRECTORY);
        let mut sys = System {
            geometry,
            timing: *config.timing(),
            retry_bound: config.retry_bound(),
            caches: (0..n).map(|_| Cache::new(*config.cache())).collect(),
            duality,
            directories: vec![DirectoryStats::default(); n],
            memory: MainMemory::new(geometry, n),
            // Without `debug-checks` the oracles are compiled-out cost:
            // never constructed, even when the config asks for them.
            oracle: if cfg!(feature = "debug-checks") {
                config.oracle().then(Oracle::new)
            } else {
                None
            },
            arbitrated_sources: SourcePolicy::arbitrated::<P::State>(),
            stats: Stats::new(n),
            trace: match (config.trace(), config.trace_capacity()) {
                (false, _) => Trace::disabled(),
                (true, None) => Trace::enabled(),
                (true, Some(cap)) => Trace::bounded(cap),
            },
            sinks: Vec::new(),
            hists: config.histograms().then(LatencyHists::default),
            sampler: config.timeline_window().map(IntervalSampler::new),
            phases: vec![Phase::Ready; n],
            sched: Sched::new(n),
            done: 0,
            memory_locks: BTreeMap::new(),
            engine: config.engine(),
            now: 0,
            bus_free_at: 0,
            rr: 0,
            obs_enabled: false,
            drops_snoops: config.faults().is_some_and(|p| p.drops_snoops()),
            evict_buf: Vec::with_capacity(geometry.words_per_block()),
            txns_by_op: [0; BUS_OP_SLOTS],
            faults: config.faults().cloned().map(FaultState::new),
            bw_timeout: config.faults().and_then(|p| p.timeout_cycles()),
            watchdog: config.watchdog().map(|cfg| Watchdog::new(n, cfg)),
            protocol,
        };
        sys.refresh_obs_flags();
        Ok(sys)
    }

    /// Recomputes the cached observability flags after anything attaches.
    fn refresh_obs_flags(&mut self) {
        self.obs_enabled =
            self.trace.is_enabled() || !self.sinks.is_empty() || self.sampler.is_some();
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The block geometry in use.
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    /// Current statistics, built on each call: the engine's counters with
    /// the elapsed cycles, the flat per-op transaction counts folded into
    /// `bus.by_op` and summed into `bus.txns`, the fault layer's spurious
    /// NAKs (the only NAKs) as `bus.naks`, and the directory counters
    /// summed across caches.
    pub fn stats(&self) -> Stats {
        let mut stats = self.stats.clone();
        stats.cycles = self.now;
        stats.bus.txns = self.bus_txns();
        stats.bus.naks = self.fault_stats().map_or(0, |f| f.spurious_naks);
        for (slot, &count) in self.txns_by_op.iter().enumerate() {
            if count > 0 {
                *stats.bus.by_op.entry(BusOp::ALL[slot].mnemonic()).or_default() += count;
            }
        }
        let agg = &mut stats.directory;
        for c in 0..self.caches.len() {
            let d = self.directory_stats(CacheId(c));
            agg.proc_accesses += d.proc_accesses;
            agg.bus_accesses += d.bus_accesses;
            agg.dirty_status_updates += d.dirty_status_updates;
            agg.waiter_status_updates += d.waiter_status_updates;
            agg.interference_cycles += d.interference_cycles;
        }
        stats
    }

    /// Cache `cache`'s directory traffic (Feature 3), built by
    /// [`mcs_cache::directory_stats`] from its processor's counters and
    /// the two directory counters the engine keeps.
    pub fn directory_stats(&self, cache: CacheId) -> DirectoryStats {
        mcs_cache::directory_stats(
            self.duality,
            &self.stats.per_proc[cache.0],
            &self.directories[cache.0],
        )
    }

    /// Bus transactions so far, granted and I/O alike.
    fn bus_txns(&self) -> u64 {
        self.txns_by_op.iter().sum()
    }

    /// The event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Attaches an event sink; every subsequent traced event is dispatched
    /// to it (even when the in-memory trace is disabled).
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
        self.refresh_obs_flags();
    }

    /// Flushes every attached sink. Call when done driving the system,
    /// then ask [`System::sink_error`] whether every sink kept up.
    pub fn finish_sinks(&mut self) {
        for s in &mut self.sinks {
            s.finish();
        }
    }

    /// The first write error an attached sink latched, as a
    /// [`SimError::Sink`]. Sinks never panic on output errors; they stop
    /// writing and report here.
    pub fn sink_error(&self) -> Option<SimError> {
        let e = self.sinks.iter().find_map(|s| s.error())?;
        Some(SimError::Sink { kind: e.kind(), message: e.to_string() })
    }

    /// The latency histograms, when enabled via
    /// [`SystemConfig::with_histograms`].
    pub fn histograms(&self) -> Option<&LatencyHists> {
        self.hists.as_ref()
    }

    /// The interval time-series, when enabled via
    /// [`SystemConfig::with_timeline`].
    pub fn timeline(&self) -> Option<&IntervalSampler> {
        self.sampler.as_ref()
    }

    /// Records one event: updates the interval sampler, dispatches to every
    /// sink, and appends to the in-memory trace. The sampler derives its
    /// reference and bus-busy integrals from the event stream itself, so
    /// they stay bit-identical across engine modes by construction.
    ///
    /// The event is passed lazily: when nothing is listening (`obs_enabled`
    /// is false — no trace, no sinks, no sampler) this returns before the
    /// event is even constructed, so the benchmark configuration pays one
    /// inlined branch per emit site, not a call.
    #[inline]
    fn emit(&mut self, cycle: u64, event: impl FnOnce() -> Event) {
        if self.obs_enabled {
            self.dispatch(cycle, event());
        }
    }

    /// The listening half of [`System::emit`], kept out of line so every
    /// emit site stays one branch.
    #[inline(never)]
    fn dispatch(&mut self, cycle: u64, event: Event) {
        if let Some(s) = &mut self.sampler {
            match &event {
                Event::ProcAccess { hit, .. } => s.add_ref(cycle, *hit),
                Event::Bus { duration, .. } => s.add_bus_span(cycle, *duration),
                _ => {}
            }
        }
        for sink in &mut self.sinks {
            sink.record(cycle, &event);
        }
        self.trace.push(cycle, event);
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The protocol state cache `cache` holds for `block`.
    pub fn state_of(&self, cache: CacheId, block: BlockAddr) -> P::State {
        self.caches[cache.0].state_of(block)
    }

    /// Runs `workload` until every processor reports
    /// [`WorkItem::Done`](crate::WorkItem::Done) or `max_cycles` elapse,
    /// returning a full [`RunReport`]: statistics, whether the workload
    /// completed, and the fault/watchdog summaries when those layers are
    /// on.
    ///
    /// This is the only way to run a system. A run cut off at `max_cycles`
    /// still returns `Ok`, with [`RunReport::completed`] false, so a caller
    /// that expects the workload to finish must check it. Scripts run as a
    /// [`ScriptWorkload`](crate::ScriptWorkload), which keeps each
    /// operation's result.
    ///
    /// # Errors
    ///
    /// Returns an oracle violation, a livelock, a watchdog trip, a broken
    /// engine invariant, or a cache pinning error — always a typed
    /// [`SimError`], never a panic or a hang.
    pub fn run<W: Workload>(
        &mut self,
        workload: &mut W,
        max_cycles: u64,
    ) -> Result<RunReport, SimError> {
        let completed = self.run_loop(workload, max_cycles)?;
        Ok(RunReport {
            stats: self.stats(),
            completed,
            faults: self.fault_stats().cloned(),
            watchdog: self.watchdog_report(),
        })
    }

    /// Injected-fault counters so far, when the fault layer is on.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// The watchdog's progress-check summary, when the watchdog is armed.
    pub fn watchdog_report(&self) -> Option<WatchdogReport> {
        self.watchdog.as_ref().map(|w| w.report())
    }

    /// The main time loop: step the phase machines, then advance `now` —
    /// by one cycle in [`EngineMode::CycleAccurate`], or straight to the
    /// next event in [`EngineMode::EventDriven`]. Phases are credited as
    /// they end; whatever is still open is credited when the loop exits,
    /// on success or error alike.
    fn run_loop<W: Workload>(&mut self, workload: &mut W, max_cycles: u64) -> Result<bool, SimError> {
        self.reset_phases();
        let result = self.advance(workload, max_cycles);
        self.credit_open_phases();
        result
    }

    /// Steps until every processor is done (`true`) or `max_cycles`
    /// elapse (`false`).
    fn advance<W: Workload>(&mut self, workload: &mut W, max_cycles: u64) -> Result<bool, SimError> {
        let deadline = self.now.saturating_add(max_cycles);
        while self.now < deadline {
            let all_done = self.step(workload)?;
            self.watchdog_check()?;
            self.now = if all_done || self.engine == EngineMode::CycleAccurate {
                self.now + 1
            } else {
                self.next_event(deadline)
            };
            if all_done {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Runs a due forward-progress check. Only processors with an
    /// outstanding memory operation can stall: a `Ready` processor is
    /// voluntarily idle, a `Computing` one is making progress by
    /// definition, and `Done` is finished. On a trip, emits the diagnostic
    /// event and returns the typed error carrying cycle / processor /
    /// block / protocol context.
    fn watchdog_check(&mut self) -> Result<(), SimError> {
        if !self.watchdog.as_ref().is_some_and(|wd| wd.due(self.now)) {
            return Ok(());
        }
        let txns = self.bus_txns();
        let Some(wd) = self.watchdog.as_mut() else { return Ok(()) };
        let phases = &self.phases;
        let tripped = wd.check(self.now, txns, |i| {
            matches!(
                phases[i],
                Phase::Pending { .. }
                    | Phase::InFlight { .. }
                    | Phase::WaitingLock { .. }
                    | Phase::Backoff { .. }
            )
        });
        let Some((kind, proc, stalled_for)) = tripped else { return Ok(()) };
        let block = self.block_waited_on(proc);
        self.emit(self.now, || Event::WatchdogTrip {
            kind: kind.id(),
            proc: ProcId(proc),
            block,
            stalled_for,
        });
        Err(SimError::Watchdog(WatchdogTrip {
            kind,
            proc,
            cycle: self.now,
            stalled_for,
            block,
            protocol: self.protocol.name(),
        }))
    }

    /// The block processor `i`'s outstanding operation targets, if any.
    fn block_waited_on(&self, i: usize) -> Option<BlockAddr> {
        match &self.phases[i] {
            Phase::InFlight { op, .. } => Some(self.geometry.block_of(op.addr)),
            Phase::Pending { req, .. }
            | Phase::WaitingLock { req, .. }
            | Phase::Backoff { req, .. } => Some(self.geometry.block_of(req.op.addr)),
            _ => None,
        }
    }

    /// Hands processor `i`'s retired `op` and its `result` back to the
    /// workload, noting the progress for the watchdog.
    #[inline]
    fn hand_back<W: Workload>(&mut self, i: usize, op: &ProcOp, result: &AccessResult, workload: &mut W) {
        if let Some(w) = &mut self.watchdog {
            w.note_progress(i, self.now);
        }
        workload.complete(ProcId(i), op, result, self.now);
    }

    /// `req` with one more retry, or a livelock once its retries pass the
    /// bound.
    fn retried(&self, i: usize, req: Request) -> Result<Request, SimError> {
        let retries = req.retries + 1;
        if retries > self.retry_bound {
            return Err(SimError::Livelock { proc: i, bound: self.retry_bound });
        }
        Ok(Request { retries, ..req })
    }

    /// Restarts every processor's phase machine so a fresh workload can be
    /// driven over the warm caches and memory.
    fn reset_phases(&mut self) {
        for phase in &mut self.phases {
            *phase = Phase::Ready;
        }
        self.sched.reset(self.now);
        self.done = 0;
        let txns = self.bus_txns();
        if let Some(w) = &mut self.watchdog {
            w.reset(self.now, txns);
        }
    }

    /// Credits every processor's open phase up to `now`.
    fn credit_open_phases(&mut self) {
        for (i, phase) in self.phases.iter().enumerate() {
            let clock = &mut self.sched.clocks[i];
            let p = &mut self.stats.per_proc[i];
            credit_phase(phase, clock.since, self.now, p, self.sampler.as_mut());
            clock.since = self.now;
        }
    }

    /// The only writer of a processor's phase during a run. Credits the
    /// phase being left, then moves the processor between the processor
    /// sets and reschedules its wake for the new phase. Every new phase
    /// starts un-woken, a re-denied waiter's too: a busy-wait register
    /// wakes only on an unlock broadcast it hears while armed.
    #[inline]
    fn set_phase(&mut self, i: usize, new: Phase) {
        let old = &self.phases[i];
        let clock = &mut self.sched.clocks[i];
        let p = &mut self.stats.per_proc[i];
        credit_phase(old, clock.since, self.now, p, self.sampler.as_mut());
        clock.since = self.now;
        let (from, to) = (old.set(), new.set());
        if from != to {
            if let Some(set) = from {
                self.sched.sets.remove(set, i);
            }
            if let Some(set) = to {
                self.sched.sets.insert(set, i);
            }
        }
        // `Done` is final until `reset_phases` restarts every processor.
        self.done += usize::from(matches!(new, Phase::Done));
        self.sched.sets.remove(Set::Woken, i);
        let wake = self.wake_of(i, &new);
        self.phases[i] = new;
        self.sched.set_wake(i, wake, self.now);
    }

    /// The wake processor `i` needs in `phase`: the phase's `until`, or
    /// the busy-wait timeout of a waiter whose register is armed but not
    /// woken.
    fn wake_of(&self, i: usize, phase: &Phase) -> u64 {
        match phase {
            Phase::Computing { until }
            | Phase::InFlight { until, .. }
            | Phase::Backoff { until, .. } => *until,
            Phase::WaitingLock { armed_at, .. } if !self.sched.sets.contains(Set::Woken, i) => {
                self.bw_timeout.map_or(u64::MAX, |t| armed_at.saturating_add(t))
            }
            _ => u64::MAX,
        }
    }

    /// Reschedules processor `i` after its busy-wait register woke or went
    /// back to sleep.
    fn schedule(&mut self, i: usize) {
        let wake = self.wake_of(i, &self.phases[i]);
        self.sched.set_wake(i, wake, self.now);
    }

    /// The block processor `i`'s busy-wait register watches, if `i` is
    /// waiting for it.
    fn watched(&self, i: usize) -> Option<BlockAddr> {
        match &self.phases[i] {
            Phase::WaitingLock { req, .. } => Some(self.geometry.block_of(req.op.addr)),
            _ => None,
        }
    }

    /// Word `w` of the caches the snoop phase of an `op` broadcast on
    /// `block` must visit, and of the stale frames it skips. `others` is
    /// word `w` of the block's holder mask without the requester. The
    /// targets are the valid copies in `others`: an invalid copy ignores
    /// every snoop but a `WriteWord { AllCopies }`, and that one (like a
    /// plan that drops snoops, which draws for every frame it visits) walks
    /// all of `others`.
    #[inline]
    fn snoop_targets(&self, block: BlockAddr, op: BusOp, w: usize, others: u64) -> (u64, u64) {
        if others == 0
            || self.drops_snoops
            || op == (BusOp::WriteWord { target: UpdateTarget::AllCopies })
        {
            return (others, 0);
        }
        let valid = self.memory.valid_word(block, w) & others;
        (valid, others & !valid)
    }

    /// Under `debug-checks`, asserts that each stale frame in word `w`'s
    /// `skipped` ignores `txn`, as the [`Protocol::snoop`] contract
    /// promises, so the snoops the filter left out could not have changed
    /// anything.
    #[inline]
    fn assert_skipped_snoops_ignored(
        &self,
        block: BlockAddr,
        txn: &BusTxn,
        w: usize,
        skipped: u64,
    ) {
        if !cfg!(feature = "debug-checks") {
            return;
        }
        for j in Bits::word(w, skipped) {
            let state = self.caches[j].state_of(block);
            assert_eq!(
                self.protocol.snoop(state, txn),
                mcs_model::SnoopOutcome::ignore(state),
                "{}: the invalid copy of {block} in C{j} must ignore {txn}",
                self.protocol.name()
            );
        }
    }

    /// Writes the state of cache `j`'s resident frame for `block`, from
    /// `before` to `next`; `was_resident` says whether the frame was
    /// resident before this transaction (false for a frame it just
    /// allocated, which is not yet marked stale). Every line-state write
    /// goes through here, so the stale mask stays exact, and a write that
    /// changes nothing is skipped.
    #[inline]
    fn set_line_state(
        &mut self,
        j: usize,
        block: BlockAddr,
        before: P::State,
        was_resident: bool,
        next: P::State,
    ) {
        let was_stale = was_resident && !before.descriptor().is_valid();
        let stale = !next.descriptor().is_valid();
        if stale != was_stale {
            self.memory.set_stale(block, j, stale);
        }
        if before != next {
            self.caches[j].set_state(block, next);
        }
    }

    /// Records that cache `req` holds a frame for `block`, possibly by
    /// evicting `evicted`, in the holder and stale masks.
    #[inline]
    fn note_frame(&mut self, req: usize, block: BlockAddr, evicted: Option<&EvictedLine<P::State>>) {
        self.memory.add_holder(block, req);
        if let Some(ev) = evicted {
            self.memory.remove_holder(ev.tag, req);
            if !ev.state.descriptor().is_valid() {
                self.memory.set_stale(ev.tag, req, false);
            }
        }
    }

    /// Advances the phase machines at the current cycle: delivers due
    /// completions, times out sleeping waiters, arbitrates the bus, and
    /// hands ready processors work. Returns `true` once every processor is
    /// done.
    fn step<W: Workload>(&mut self, workload: &mut W) -> Result<bool, SimError> {
        // 1. Deliver completions whose time has come, in processor order.
        // Every wake lies after the step that set it (an overdue idle hint
        // or re-armed timeout comes due at the next step), and neither
        // engine mode steps past a live wake, so due wakes are all at `now`
        // and pop in processor order.
        while let Some(i) = self.sched.pop_due(self.now) {
            match self.phases[i] {
                Phase::InFlight { op, result, .. } => {
                    self.set_phase(i, Phase::Ready);
                    self.hand_back(i, &op, &result, workload);
                }
                Phase::Computing { .. } => self.set_phase(i, Phase::Ready),
                // The line may have changed while backing off (the lock
                // may even be free locally now).
                Phase::Backoff { req, .. } => {
                    let need = self.need(i, &req.op);
                    self.serve(i, req, need, self.now + 1, workload)?;
                }
                Phase::WaitingLock { .. } => self.sched.sets.insert(Set::Due, i),
                // An idle hint: the ready poll below runs regardless.
                _ => {}
            }
        }

        // 1b. Busy-wait timeout recovery: waiters whose register has heard
        // nothing for the configured budget give up on the (possibly lost)
        // unlock broadcast and fall back to explicit retries.
        if let Some(timeout) = self.bw_timeout {
            let mut due = self.sched.sets.next(Set::Due, 0);
            while let Some(i) = due {
                self.time_out_waiter(i, timeout)?;
                due = self.sched.sets.next(Set::Due, i + 1);
            }
            self.sched.sets.clear(Set::Due);
        }

        // 2. Arbitrate if the bus is free.
        if self.bus_free_at <= self.now {
            self.try_grant(workload)?;
        }

        // 3. Ready processors fetch work, in processor order.
        let mut ready = self.sched.sets.next(Set::Ready, 0);
        while let Some(i) = ready {
            match workload.next(ProcId(i), self.now) {
                WorkItem::Done => self.set_phase(i, Phase::Done),
                // Stays Ready (counted as stall) and is polled again next
                // step; an idle hint is a wake like any other.
                WorkItem::Idle => self.sched.set_wake(i, u64::MAX, self.now),
                WorkItem::IdleUntil(t) => self.sched.set_wake(i, t, self.now),
                WorkItem::Compute(c) => {
                    let until = self.now.saturating_add(c.max(1));
                    self.set_phase(i, Phase::Computing { until });
                }
                WorkItem::Op(op) => self.present_op(i, op, workload)?,
            }
            ready = self.sched.sets.next(Set::Ready, i + 1);
        }

        Ok(self.done == self.phases.len())
    }

    /// The next cycle at which a phase machine can change state: the
    /// earliest live wake (a `Computing`/`InFlight`/`Backoff` completion, a
    /// busy-wait timeout, or a workload idle hint), the next arbitration
    /// slot (only when a request is queued or a woken busy-wait register
    /// wants the bus), or the watchdog's next check — clamped to
    /// `[now + 1, deadline]`.
    ///
    /// Between `now` and the returned cycle, every `step` would be a
    /// no-op: no completion is due, arbitration has no requester (or no
    /// free bus), and ready processors would keep answering `Idle` —
    /// which the [`WorkItem::Idle`] contract guarantees is side-effect
    /// free. Skipping straight there is therefore behaviour-preserving.
    fn next_event(&mut self, deadline: u64) -> u64 {
        let floor = self.now + 1;
        let mut t = deadline;
        if let Some(wake) = self.sched.next_wake() {
            t = t.min(wake.max(floor));
        }
        if self.sched.sets.any_request() {
            t = t.min(self.bus_free_at.max(floor));
        }
        // The watchdog's scheduled check is an event too: a fully quiet
        // deadlock would otherwise only be seen at the run deadline.
        if let Some(wd) = &self.watchdog {
            t = t.min(wd.next_check_at().max(floor));
        }
        t.max(floor)
    }

    /// Times out processor `i`'s busy-wait if its register has been armed
    /// for the configured timeout without hearing an unlock: the waiter
    /// falls back to an explicit retry after a bounded-exponential backoff
    /// (measured in bus signal-transaction durations). The retry counts
    /// against the livelock bound so a permanently-lost lock still
    /// terminates with a typed error.
    fn time_out_waiter(&mut self, i: usize, timeout: u64) -> Result<(), SimError> {
        let Phase::WaitingLock { req, armed_at, .. } = self.phases[i] else {
            return Ok(());
        };
        if self.sched.sets.contains(Set::Woken, i) || self.now < armed_at.saturating_add(timeout) {
            return Ok(());
        }
        let retried = self.retried(i, req)?;
        let block = self.geometry.block_of(req.op.addr);
        self.emit(self.now, || Event::WaiterTimeout { cache: CacheId(i), block, retries: retried.retries });
        let backoff_txns = match &mut self.faults {
            Some(f) => {
                f.note_busy_wait_timeout();
                f.plan().backoff_txns(req.retries)
            }
            None => 1,
        };
        let hold = backoff_txns.saturating_mul(self.timing.signal_txn()).max(1);
        self.set_phase(i, Phase::Backoff { req: retried, until: self.now.saturating_add(hold) });
        Ok(())
    }

    /// What processor `i`'s `op` needs against its line's current state.
    /// Every presentation of an operation asks here: a ready processor's,
    /// a grant's re-evaluation of a queued request, a backoff's end, and
    /// the second half of a two-transaction operation.
    fn need(&self, i: usize, op: &ProcOp) -> Need<P::State> {
        let block = self.geometry.block_of(op.addr);
        if op.kind == AccessKind::UnlockWrite && self.holds_spilled_lock(i, block) {
            return Need::SpilledUnlock;
        }
        let state = self.caches[i].state_of(block);
        if op.kind == AccessKind::WriteIfOwned && !state.descriptor().is_valid() {
            return Need::Abort;
        }
        match self.protocol.proc_access(state, protocol_kind(op.kind)) {
            ProcAction::Hit { next } => Need::Hit { state, next },
            ProcAction::Bus { op } => Need::Bus(op),
        }
    }

    /// Whether cache `i` holds `block`'s lock bit spilled to memory.
    fn holds_spilled_lock(&self, i: usize, block: BlockAddr) -> bool {
        self.memory_locks.get(&block).is_some_and(|(holder, _)| *holder == CacheId(i))
    }

    /// A ready processor presents `op` to its cache.
    fn present_op<W: Workload>(
        &mut self,
        i: usize,
        op: ProcOp,
        workload: &mut W,
    ) -> Result<(), SimError> {
        let pstats = &mut self.stats.per_proc[i];
        pstats.refs += 1;
        if op.kind.is_read() {
            pstats.reads += 1;
        }
        if op.kind.is_write() {
            pstats.writes += 1;
        }
        let req = Request { op, retries: 0, wait_since: None, issued_at: self.now };
        match self.need(i, &op) {
            Need::Hit { state, next } => {
                self.stats.per_proc[i].hits += 1;
                self.emit(self.now, || Event::ProcAccess { proc: ProcId(i), op, hit: true });
                self.complete_locally(i, req, state, next, self.now + 1, workload)
            }
            need => {
                self.stats.per_proc[i].misses += 1;
                self.emit(self.now, || Event::ProcAccess { proc: ProcId(i), op, hit: false });
                self.serve(i, req, need, self.now + 1, workload)
            }
        }
    }

    /// Acts on what request `req` of processor `i` needs: queues it for
    /// the bus, or settles it in the cache by `until`, where a hit
    /// completes and a stolen conditional store aborts. A settled request
    /// records its miss-service latency from its first presentation.
    fn serve<W: Workload>(
        &mut self,
        i: usize,
        req: Request,
        need: Need<P::State>,
        until: u64,
        workload: &mut W,
    ) -> Result<(), SimError> {
        if let Need::Bus(_) | Need::SpilledUnlock = need {
            self.set_phase(i, Phase::Pending { req, queued_at: self.now });
            return Ok(());
        }
        if let Some(h) = &mut self.hists {
            h.miss_service.record(until - req.issued_at);
        }
        match need {
            Need::Hit { state, next } => self.complete_locally(i, req, state, next, until, workload),
            // An abort: the cache raises an exception and drops the store.
            _ => {
                let result =
                    AccessResult { value: None, hit: false, retries: 0, latency: 1, aborted: true };
                self.hand_back(i, &req.op, &result, workload);
                self.set_phase(i, Phase::Computing { until });
                Ok(())
            }
        }
    }

    /// Completes a cache hit, moving the line from `state` to `next`, then
    /// computes until `until`. The lock wait `req` accumulated before
    /// completing locally (nonzero only when a queued or woken request
    /// turned into a hit) is recorded against the lock-acquire-wait
    /// histogram.
    fn complete_locally<W: Workload>(
        &mut self,
        i: usize,
        req: Request,
        state: P::State,
        next: P::State,
        until: u64,
        workload: &mut W,
    ) -> Result<(), SimError> {
        let op = req.op;
        // A dirty-status update (Feature 3 / experiments E4 and E11).
        if op.kind.is_write() && !state.descriptor().dirty && next.descriptor().dirty {
            self.stats.per_proc[i].write_hits_to_clean += 1;
        }
        let value = self.retire(i, op, state, next, true, req.waited(self.now), None)?;
        let result = AccessResult { value, hit: true, retries: 0, latency: 1, aborted: false };
        self.hand_back(i, &op, &result, workload);
        self.set_phase(i, Phase::Computing { until });
        Ok(())
    }

    /// Retires processor `i`'s `op` against its line, the same for a cache
    /// hit (`bus_op` is `None`) and a bus completion: writes the line's new
    /// state `next` over `state`, applies the op's data effect, and does
    /// the lock bookkeeping (Section E.3). `was_resident` says whether the
    /// frame was resident before the op and `waited` is the lock wait it
    /// accumulated. Returns the value the op read.
    ///
    /// A hit's line is resident; on the bus path a non-allocating
    /// write-through or a spilled lock's unlock has no frame, so reads and
    /// writes fall back to memory.
    ///
    /// Inlined into its two callers, as the two copies it replaces were:
    /// out of line, the extra calls cost dense_sharing and lock_handoff
    /// about a tenth of their throughput.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn retire(
        &mut self,
        i: usize,
        op: ProcOp,
        state: P::State,
        next: P::State,
        was_resident: bool,
        waited: u64,
        bus_op: Option<BusOp>,
    ) -> Result<Option<Word>, SimError> {
        let block = self.geometry.block_of(op.addr);
        let zero_time = bus_op.is_none();
        let cause = if zero_time { StateCause::ProcAccess } else { StateCause::Complete };
        self.install_state(i, block, state, was_resident, next, cause);

        // The data effect.
        let v = op.value.unwrap_or(Word(0));
        let mut value = None;
        if op.kind == AccessKind::WriteNoFetch {
            // The processor overwrites the whole block. Without Feature 9
            // (any bus op but a claim) it writes through whatever path it
            // got, and memory too, so clean-state protocols (write-through,
            // write-once) stay coherent.
            let to_memory = bus_op.is_some_and(|b| b != BusOp::ClaimNoFetch);
            for addr in self.geometry.words_of(block) {
                self.caches[i].write_word(addr, v);
                if to_memory {
                    self.memory.write_word(addr, v);
                }
                self.commit_write(addr, v);
            }
        } else {
            // A memory-module RMW (Feature 6, method 1) reads and writes
            // the word at memory.
            let at_memory = bus_op == Some(BusOp::MemoryRmw);
            if op.kind.is_read() {
                let old = if at_memory {
                    self.memory.rmw_word(op.addr, v)
                } else {
                    self.caches[i].read_word(op.addr).unwrap_or_else(|| self.memory.read_word(op.addr))
                };
                self.check_read(CacheId(i), op.addr, old)?;
                value = Some(old);
            }
            if op.kind.is_write() {
                if !at_memory && !self.caches[i].write_word(op.addr, v) {
                    self.memory.write_word(op.addr, v);
                }
                self.commit_write(op.addr, v);
            }
        }

        // Lock bookkeeping. A lock on a line held with write privilege
        // and an unlock with no waiter take zero time.
        let (before, after) = (state.descriptor(), next.descriptor());
        if op.kind == AccessKind::LockRead && after.is_locked() && !before.is_locked() {
            self.stats.locks.acquires += 1;
            self.stats.locks.zero_time_acquires += u64::from(zero_time);
            if let Some(h) = &mut self.hists {
                h.lock_acquire_wait.record(waited);
            }
            self.lock_oracle_acquire(block, CacheId(i))?;
            self.emit(self.now, || Event::LockAcquired { cache: CacheId(i), block, zero_time });
        }
        // The unlock broadcast of a holder whose lock bit was spilled to
        // memory clears the bit: it releases without re-fetching the block.
        let broadcast = bus_op == Some(BusOp::UnlockBroadcast);
        let spilled = broadcast && self.holds_spilled_lock(i, block);
        if spilled
            || op.kind == AccessKind::UnlockWrite && before.is_locked() && !after.is_locked()
        {
            if spilled {
                self.memory_locks.remove(&block);
            }
            self.stats.locks.releases += 1;
            self.stats.locks.zero_time_releases += u64::from(zero_time);
            self.lock_oracle_release(block, CacheId(i))?;
            self.emit(self.now, || Event::LockReleased { cache: CacheId(i), block, broadcast });
        }
        // A holder re-fetching its own spilled lock moves the bit back
        // into cache state (preserving any recorded waiter).
        if !zero_time && after.is_locked() && self.holds_spilled_lock(i, block) {
            self.memory_locks.remove(&block);
        }
        Ok(value)
    }

    /// Writes `next` over `state` as cache `i`'s line state for `block`,
    /// with its `cause`, and makes the line most recently used, when a
    /// frame holds it. A frame allocated by this transaction starts
    /// invalid but is not yet marked stale, which `was_resident` says; a
    /// frame resident before it still is.
    #[inline(always)]
    fn install_state(
        &mut self,
        i: usize,
        block: BlockAddr,
        state: P::State,
        was_resident: bool,
        next: P::State,
        cause: StateCause,
    ) {
        if was_resident || self.caches[i].is_resident(block) {
            if state != next {
                self.push_state_change(CacheId(i), block, &state, &next, cause);
            }
            self.set_line_state(i, block, state, was_resident, next);
            self.caches[i].touch(block);
        }
    }

    /// Processor `i`'s request at the given priority, if it has one, with
    /// the cycle it joined the queue: a `Pending` request, or (`hi`) the
    /// lock fetch of a woken busy-wait register, which re-arbitrates from
    /// its wakeup cycle.
    fn request_of(&self, i: usize, hi: bool) -> Option<(u64, Request)> {
        match (hi, &self.phases[i]) {
            (false, &Phase::Pending { req, queued_at }) => Some((queued_at, req)),
            (true, &Phase::WaitingLock { req, .. }) => Some((self.sched.clocks[i].woken_at, req)),
            _ => None,
        }
    }

    /// Round-robin arbitration over `set`: the first member holding a
    /// request at priority `hi`, starting from `rr` and wrapping around.
    /// Returns `(proc, hi, queued_at, request)`.
    fn pick(&mut self, set: Set, hi: bool) -> Option<(usize, bool, u64, Request)> {
        let n = self.phases.len();
        let (mut from, mut end) = (self.rr, n);
        loop {
            match self.sched.sets.next(set, from).filter(|&i| i < end) {
                Some(i) => {
                    from = i + 1;
                    let Some((queued_at, req)) = self.request_of(i, hi) else { continue };
                    // Fault choke point: an unfair arbiter skips its victim.
                    if self.faults.as_mut().is_some_and(|f| f.take_starved_grant(i)) {
                        continue;
                    }
                    return Some((i, hi, queued_at, req));
                }
                None if end == n && self.rr > 0 => (from, end) = (0, self.rr),
                None => return None,
            }
        }
    }

    /// Picks and executes at most one bus transaction.
    fn try_grant<W: Workload>(&mut self, workload: &mut W) -> Result<(), SimError> {
        if !self.sched.sets.any_request() {
            return Ok(());
        }
        // Reserved high-priority level: woken lock waiters
        // (Figure 9). Then normal requests, round-robin fair.
        let Some((i, hi, queued_at, req)) =
            self.pick(Set::Woken, true).or_else(|| self.pick(Set::Pending, false))
        else {
            return Ok(());
        };
        self.rr = (i + 1) % self.phases.len();
        // A woken register stays in the watch and woken sets until the
        // grant's `set_phase` below; every broadcast leaves its own
        // requester out, and nothing else reads the sets in between.
        if hi {
            self.stats.locks.wakeups += 1;
        }
        // Lock wait accumulated so far and arbitration wait for this grant;
        // both are pure functions of grant cycles, hence identical across
        // engine modes.
        let waited = req.waited(self.now);
        let arb_wait = self.now.saturating_sub(queued_at);

        // Re-evaluate the access against the *current* line state: while
        // the request was queued, snooped transactions may have invalidated
        // the copy (an upgrade must become a full fetch, a conditional
        // store must abort) or even granted the needed privilege. Replaying
        // the stale request would read stale words or lock a stolen block.
        let op = req.op;
        let (bus_op, forced) = match self.need(i, &op) {
            Need::Bus(bus_op) => (bus_op, false),
            Need::SpilledUnlock => (BusOp::UnlockBroadcast, true),
            need => return self.serve(i, req, need, self.now + 1, workload),
        };

        let (out, duration) = self.execute_txn(i, op, bus_op, hi, waited, arb_wait)?;
        self.stats.bus.busy_cycles += duration;
        self.bus_free_at = self.now + duration;
        match out {
            TxnOut::Completed(value) => {
                if req.wait_since.is_some() {
                    self.stats.locks.max_wait_cycles = self.stats.locks.max_wait_cycles.max(waited);
                    self.stats.locks.total_wait_cycles += waited;
                    if let Some(h) = &mut self.hists {
                        h.busy_wait.record(waited);
                    }
                }
                if let Some(h) = &mut self.hists {
                    h.miss_service.record(self.now + duration - req.issued_at);
                }
                let result = AccessResult {
                    value,
                    hit: false,
                    retries: req.retries,
                    latency: duration,
                    aborted: false,
                };
                self.set_phase(i, Phase::InFlight { op, until: self.now + duration, result });
            }
            // The engine guarantees a spilled lock's unlock completes.
            _ if forced => {
                return Err(SimError::EngineInvariant {
                    context: "spilled-lock unlock broadcast did not complete",
                    cycle: self.now,
                    cache: CacheId(i),
                    block: self.geometry.block_of(op.addr),
                })
            }
            TxnOut::InstalledRetry => {
                // Counted against the retry bound so a protocol whose
                // second half keeps being undone by snoops is detected as
                // a livelock instead of spinning forever.
                let req = self.retried(i, req)?;
                // Present the op again against the installed state; its
                // second half rarely completes locally.
                let need = self.need(i, &op);
                self.serve(i, req, need, self.now + duration, workload)?;
            }
            TxnOut::Retried => {
                self.stats.bus.retries += 1;
                let req = self.retried(i, req)?;
                self.set_phase(i, Phase::Pending { req, queued_at: self.now });
            }
            TxnOut::Denied => {
                let block = self.geometry.block_of(op.addr);
                self.stats.locks.denied += 1;
                self.emit(self.now, || Event::WaiterArmed { cache: CacheId(i), block });
                let behavior = workload.on_lock_wait(ProcId(i), block, self.now);
                let wait_since = req.wait_since.or(Some(self.now));
                self.set_phase(i, Phase::WaitingLock {
                    req: Request { wait_since, ..req },
                    behavior,
                    armed_at: self.now,
                });
            }
        }
        Ok(())
    }

    /// Executes one bus transaction atomically and returns its outcome and
    /// how many cycles it holds the bus. `waited` is the requester's
    /// accumulated lock wait (for acquire-latency histograms); `arb_wait`
    /// is how long this request sat in the arbitration queue before the
    /// grant.
    fn execute_txn(
        &mut self,
        req: usize,
        op: ProcOp,
        bus_op: BusOp,
        hi: bool,
        waited: u64,
        arb_wait: u64,
    ) -> Result<(TxnOut, u64), SimError> {
        let block = self.geometry.block_of(op.addr);
        let txn = BusTxn { op: bus_op, block, requester: AgentId::Cache(CacheId(req)), high_priority: hi };

        if let Some(h) = &mut self.hists {
            h.bus_arb_wait.record(arb_wait);
        }
        self.txns_by_op[op_slot(bus_op)] += 1;
        if hi {
            self.stats.bus.high_priority_grants += 1;
        }

        // Fault choke point: a spurious NAK rejects the granted transaction
        // before any snooper sees it; the requester must re-arbitrate.
        // Unlock broadcasts are exempt — the engine guarantees they
        // complete (the spilled-lock path relies on it).
        if let Some(f) = &mut self.faults {
            if !matches!(bus_op, BusOp::UnlockBroadcast) && f.roll_spurious_nak() {
                let duration = self.timing.signal_txn();
                self.emit(self.now, || Event::FaultInjected {
                    kind: "spurious-nak",
                    cache: CacheId(req),
                    block,
                });
                self.emit(self.now, || Event::Bus {
                    txn,
                    summary: SnoopSummary { retry: true, ..SnoopSummary::default() },
                    duration,
                });
                return Ok((TxnOut::Retried, duration));
            }
        }

        // --- Snoop phase ---
        // The memory lock bit (a spilled lock) denies every request from a
        // non-holder just as a locked cache line would, and before any
        // cache snoops it: a denied request must leave the holder's copy
        // as it was.
        let spill_lock = self.memory_locks.get(&block).copied().filter(|(holder, _)| {
            *holder != CacheId(req)
                && matches!(bus_op, BusOp::Fetch { .. } | BusOp::ClaimNoFetch | BusOp::Invalidate)
        });
        let Snooped { summary, supplier, flushes: snoop_flush_count, req_resident } =
            match spill_lock {
                Some((holder, waiter)) => {
                    if !waiter {
                        self.memory_locks.insert(block, (holder, true));
                    }
                    let summary = SnoopSummary { locked: true, ..SnoopSummary::default() };
                    Snooped { summary, ..Snooped::default() }
                }
                None => self.snoop_phase(&txn)?,
            };

        // --- Busy-wait register observations ---
        match bus_op {
            BusOp::UnlockBroadcast => self.broadcast_unlock(block, req),
            BusOp::Fetch { privilege: Privilege::Lock, .. } => {
                // A woken register that lost the race sleeps again; its
                // busy-wait timeout (if any) is scheduled again.
                let mut next = self.sched.sets.next(Set::Woken, 0);
                while let Some(j) = next {
                    if j != req && self.watched(j) == Some(block) {
                        self.sched.sets.remove(Set::Woken, j);
                        self.schedule(j);
                    }
                    next = self.sched.sets.next(Set::Woken, j + 1);
                }
            }
            _ => {}
        }

        // --- Engine-level data updates in snoopers (write-through/update) ---
        // The valid copies, or every resident frame, as the target asks.
        if let Some(target) = update_target(bus_op) {
            let value = op.value.unwrap_or(Word(0));
            for w in 0..self.memory.mask_words() {
                let copies = if target == UpdateTarget::ValidCopies {
                    self.memory.valid_word(block, w)
                } else {
                    self.memory.holders_word(block, w)
                };
                for j in Bits::word(w, copies & !bit_in_word(req, w)) {
                    if self.caches[j].write_word(op.addr, value) {
                        self.stats.bus.updates += 1;
                    }
                }
            }
        }

        // --- Completion phase ---
        let state = self.caches[req].state_of(block);
        let outcome = self.protocol.complete(state, protocol_kind(op.kind), &txn, &summary);

        let flush_extra = self.timing.nonconcurrent_flush_penalty * snoop_flush_count as u64;

        let out = match outcome {
            CompleteOutcome::Retry => {
                let duration = if snoop_flush_count > 0 {
                    self.timing.flush(self.geometry.words_per_block())
                } else {
                    self.timing.signal_txn()
                };
                self.emit(self.now, || Event::Bus { txn, summary, duration });
                Ok((TxnOut::Retried, duration))
            }
            CompleteOutcome::LockDenied => {
                let duration = self.timing.signal_txn();
                self.emit(self.now, || Event::Bus { txn, summary, duration });
                self.emit(self.now, || Event::LockDenied { cache: CacheId(req), block });
                Ok((TxnOut::Denied, duration))
            }
            CompleteOutcome::Installed { next } | CompleteOutcome::InstalledRetryOp { next } => {
                let mut duration = self.install(req, op, bus_op, state, &summary, supplier)?;
                let out = if let CompleteOutcome::Installed { .. } = outcome {
                    let value =
                        self.retire(req, op, state, next, req_resident, waited, Some(bus_op))?;
                    duration += self.collapse_unlock(req, op, bus_op, next);
                    TxnOut::Completed(value)
                } else {
                    // The first half of a two-transaction operation moves
                    // the line only; the op is presented again.
                    self.install_state(req, block, state, req_resident, next, StateCause::Complete);
                    TxnOut::InstalledRetry
                };
                let duration = duration + flush_extra;
                self.emit(self.now, || Event::Bus { txn, summary, duration });
                self.check_block_invariants(block)?;
                Ok((out, duration))
            }
        };
        #[cfg(feature = "debug-checks")]
        {
            self.assert_snoop_filter_exact_for(block);
            for cache in &self.caches {
                cache.assert_replacement_consistent();
            }
        }
        out
    }

    /// The snoop phase of `txn`, the same for every requester: each cache
    /// with a frame for the block, the requesting cache aside, snoops it in
    /// ascending order and updates its line state, and a flushing snooper
    /// writes the block to memory. Each looks the block up in its bus-side
    /// directory. A non-resident cache's snoop is a no-op, and so is an
    /// invalid copy's outside the cases `snoop_targets` walks, so filtering
    /// changes nothing observable.
    fn snoop_phase(&mut self, txn: &BusTxn) -> Result<Snooped, SimError> {
        let block = txn.block;
        let req = txn.requester.cache().map(|c| c.0);
        let mut out = Snooped::default();
        for w in 0..self.memory.mask_words() {
            let resident = self.memory.holders_word(block, w);
            let req_bit = req.map_or(0, |r| bit_in_word(r, w));
            out.req_resident |= resident & req_bit != 0;
            let (targets, skipped) = self.snoop_targets(block, txn.op, w, resident & !req_bit);
            self.assert_skipped_snoops_ignored(block, txn, w, skipped);
            // A skipped snooper's directory still looked the block up.
            for j in Bits::word(w, skipped) {
                self.directories[j].bus_accesses += 1;
            }
            for j in Bits::word(w, targets) {
                let Some(before) = self.caches[j].state_if_resident(block) else { continue };
                // Fault choke point: this snooper's reply is dropped — it
                // neither updates its state nor drives the aggregated snoop
                // lines for this transaction.
                if let Some(f) = &mut self.faults {
                    if f.roll_dropped_snoop() {
                        self.emit(self.now, || Event::FaultInjected {
                            kind: "dropped-snoop",
                            cache: CacheId(j),
                            block,
                        });
                        continue;
                    }
                }
                let outcome = self.protocol.snoop(before, txn);
                let bd = before.descriptor();
                self.set_line_state(j, block, before, true, outcome.next);
                if outcome.reply.flushes {
                    let Some(data) = self.caches[j].data_of(block) else {
                        return Err(SimError::EngineInvariant {
                            context: "snoop flush from a cache with no data for the line",
                            cycle: self.now,
                            cache: CacheId(j),
                            block,
                        });
                    };
                    self.memory.write_block(block, data);
                    self.caches[j].clear_unit_dirty(block);
                    self.stats.sources.flushes += 1;
                    out.flushes += 1;
                    self.emit(self.now, || Event::Flush { cache: CacheId(j), block });
                }
                self.directories[j].bus_accesses += 1;
                out.summary.absorb(&outcome.reply);
                if outcome.reply.supplies_data {
                    out.supplier = Some(j);
                }
                let ad = outcome.next.descriptor();
                if bd.is_valid() && !ad.is_valid() {
                    self.stats.bus.invalidations += 1;
                }
                if !bd.waiter && ad.waiter {
                    self.directories[j].waiter_status_updates += 1;
                }
                if before != outcome.next {
                    self.push_state_change(CacheId(j), block, &before, &outcome.next, StateCause::Snoop);
                }
            }
        }
        Ok(out)
    }

    /// Moves a successful transaction's data over the bus (fetch and
    /// copy, eviction write-back, word write-through, flush) and returns
    /// how many cycles it holds the bus. `state` is the requester's line
    /// state before the transaction; `retire` then applies the op. Kept
    /// out of line: inlined, its bulk slowed `execute_txn`'s common path.
    #[inline(never)]
    fn install(
        &mut self,
        req: usize,
        op: ProcOp,
        bus_op: BusOp,
        state: P::State,
        summary: &SnoopSummary,
        supplier: Option<usize>,
    ) -> Result<u64, SimError> {
        let block = self.geometry.block_of(op.addr);
        let had_valid = state.descriptor().is_valid();
        let words = self.geometry.words_per_block();
        let unit_words =
            self.caches[req].config().transfer_unit_words().unwrap_or(words);
        let mut evict_extra = 0u64;
        let duration;

        match bus_op {
            BusOp::Fetch { need_data, .. } => {
                // Allocate a frame (evicting if necessary) and move data —
                // straight cache-to-cache / memory-to-cache copies, no
                // intermediate allocation.
                let mut mem_delay = 0u64;
                let fetch_units =
                    supplier.map(|j| self.caches[j].dirty_units_of(block).max(1)).unwrap_or(1);
                let evicted =
                    self.caches[req].ensure_frame_with(block, true, &mut self.evict_buf)?;
                self.note_frame(req, block, evicted.as_ref());
                if let Some(ev) = evicted {
                    evict_extra += self.writeback_evicted(req, ev)?;
                }
                if need_data && !had_valid {
                    self.stats.sources.fetches += 1;
                    match supplier {
                        Some(j) => {
                            self.stats.sources.from_cache += 1;
                            let dirty = summary.source_dirty.unwrap_or(false);
                            self.emit(self.now, || Event::CacheProvides {
                                cache: CacheId(j),
                                block,
                                dirty,
                            });
                            if !copy_between(&mut self.caches, req, j, block) {
                                return Err(SimError::EngineInvariant {
                                    context: "cache-to-cache supply without a frame on each side",
                                    cycle: self.now,
                                    cache: CacheId(j),
                                    block,
                                });
                            }
                        }
                        None => {
                            if summary.memory_inhibited {
                                return Err(SimError::NoDataSource { block });
                            }
                            // Fault choke point: a slow memory bank delays
                            // this memory-sourced fetch.
                            if let Some(f) = &mut self.faults {
                                if let Some(extra) = f.roll_memory_delay() {
                                    mem_delay = extra;
                                    self.emit(self.now, || Event::FaultInjected {
                                        kind: "delayed-memory",
                                        cache: CacheId(req),
                                        block,
                                    });
                                }
                            }
                            self.stats.sources.from_memory += 1;
                            self.emit(self.now, || Event::MemoryProvides { block });
                            match self.memory.read_block_ref(block) {
                                Some(data) => {
                                    self.caches[req].fill_block(block, data);
                                }
                                None => {
                                    self.caches[req].zero_block(block);
                                }
                            }
                        }
                    }
                }
                // Duration: transfer-unit-aware word count.
                let moved_words = if self.caches[req].config().transfer_unit_words().is_some() {
                    (fetch_units * unit_words).min(words)
                } else {
                    words
                };
                let moved_words = if need_data && !had_valid { moved_words } else { 0 };
                let arb_source = self.arbitrated_sources && supplier.is_some() && summary.sharers > 1;
                duration = if moved_words == 0 {
                    self.timing.signal_txn()
                } else if supplier.is_some() {
                    self.stats.bus.words_transferred += moved_words as u64;
                    self.timing.fetch_from_cache(moved_words, arb_source)
                } else {
                    self.stats.bus.words_transferred += moved_words as u64;
                    self.timing.fetch_from_memory(moved_words) + mem_delay
                };
            }
            BusOp::Invalidate => {
                duration = self.timing.signal_txn();
            }
            BusOp::ClaimNoFetch => {
                let evicted =
                    self.caches[req].ensure_frame_with(block, true, &mut self.evict_buf)?;
                self.note_frame(req, block, evicted.as_ref());
                if let Some(ev) = evicted {
                    evict_extra += self.writeback_evicted(req, ev)?;
                }
                duration = self.timing.signal_txn();
            }
            BusOp::WriteWord { .. } => {
                self.memory.write_word(op.addr, op.value.unwrap_or(Word(0)));
                self.stats.bus.words_transferred += 1;
                duration = self.timing.word_txn(true);
            }
            BusOp::UpdateWord { to_memory } => {
                if to_memory {
                    self.memory.write_word(op.addr, op.value.unwrap_or(Word(0)));
                }
                self.stats.bus.words_transferred += 1;
                duration = self.timing.word_txn(to_memory);
            }
            BusOp::UnlockBroadcast => {
                self.stats.bus.unlock_broadcasts += 1;
                duration = self.timing.signal_txn();
            }
            BusOp::MemoryRmw => {
                self.stats.bus.words_transferred += 1;
                duration = self.timing.memory_rmw();
            }
            BusOp::IoInput | BusOp::IoOutput { .. } => {
                // I/O transactions are issued through `io_input`/`io_output`,
                // never as processor ops.
                duration = self.timing.fetch_from_memory(words);
            }
        }

        Ok(duration + evict_extra)
    }

    /// A lock-state RMW woken from busy wait collapses lock, op and unlock
    /// into one fetch; it notifies any remaining waiters (Section E.3's
    /// zero-time unlock still broadcasts when waiters may exist) and
    /// returns the extra bus cycles.
    fn collapse_unlock(&mut self, req: usize, op: ProcOp, bus_op: BusOp, next: P::State) -> u64 {
        if op.kind != AccessKind::Rmw
            || !matches!(bus_op, BusOp::Fetch { privilege: Privilege::Lock, .. })
            || next.descriptor().is_locked()
        {
            return 0;
        }
        let block = self.geometry.block_of(op.addr);
        let watch = |from| self.sched.sets.next(Set::Watch, from);
        let any_armed = std::iter::successors(watch(0), |&j| watch(j + 1))
            .any(|j| j != req && self.watched(j) == Some(block));
        if !any_armed {
            return 0;
        }
        self.stats.bus.unlock_broadcasts += 1;
        self.broadcast_unlock(block, req);
        self.timing.signal_txn()
    }

    /// Wakes every busy-wait register armed on `block`: the watching
    /// processors not yet woken whose waiting phase is on that block.
    /// Only the watch set can react, so the broadcast visits just it.
    fn broadcast_unlock(&mut self, block: BlockAddr, req: usize) {
        // Fault choke point: the broadcast is lost. The lock state still
        // changed, but no busy-wait register hears the release — Section
        // E.4's wakeup signal vanishes, leaving waiters asleep until the
        // busy-wait timeout (if configured) or the watchdog catches it.
        if let Some(f) = &mut self.faults {
            if f.roll_lost_unlock() {
                self.emit(self.now, || Event::FaultInjected {
                    kind: "lost-unlock",
                    cache: CacheId(req),
                    block,
                });
                return;
            }
        }
        let mut next = self.sched.sets.next(Set::Watch, 0);
        while let Some(j) = next {
            let armed = !self.sched.sets.contains(Set::Woken, j);
            if j != req && armed && self.watched(j) == Some(block) {
                self.sched.clocks[j].woken_at = self.now;
                self.sched.sets.insert(Set::Woken, j);
                // Awake, the register wants the bus; no timeout applies.
                self.schedule(j);
                self.emit(self.now, || Event::WaiterWoken { cache: CacheId(j), block });
            }
            next = self.sched.sets.next(Set::Watch, j + 1);
        }
    }

    /// Writes back an evicted line if the protocol requires it; returns the
    /// extra bus cycles consumed. The evicted block's data sits in
    /// `self.evict_buf` (deposited by `ensure_frame_with`); the caller must
    /// invoke this before the next eviction overwrites the buffer.
    fn writeback_evicted(
        &mut self,
        req: usize,
        ev: EvictedLine<P::State>,
    ) -> Result<u64, SimError> {
        let d = ev.state.descriptor();
        // Feature 8: purging a source line while the block lives elsewhere
        // loses the source. The evicted frame has already left the masks.
        if d.source && self.memory.has_valid_copy(ev.tag) {
            self.stats.sources.source_losses += 1;
        }
        // The minor modification of Section E.3: purging a locked block
        // writes its lock bit to memory; the holder keeps the lock, other
        // requesters keep being denied, and the eventual unlock broadcasts.
        if d.is_locked() {
            self.memory_locks.insert(ev.tag, (CacheId(req), d.waiter));
            self.stats.locks.lock_spills += 1;
            self.emit(self.now, || {
                Event::Note(format!("C{req} spills lock bit for {} to memory", ev.tag))
            });
        }
        let action = self.protocol.evict(ev.state);
        let writeback = action == EvictAction::Writeback || d.is_locked();
        self.emit(self.now, || Event::Eviction { cache: CacheId(req), block: ev.tag, writeback });
        if writeback {
            self.memory.write_block(ev.tag, &self.evict_buf);
            self.stats.sources.flushes += 1;
            let words = match self.caches[req].config().transfer_unit_words() {
                Some(unit) => (ev.dirty_units * unit).max(unit),
                None => self.geometry.words_per_block(),
            };
            self.stats.bus.words_transferred += words as u64;
            Ok(self.timing.flush(words))
        } else {
            Ok(0)
        }
    }

    /// I/O input (Section E.2): the I/O processor writes `data` to memory
    /// and invalidates the block in all caches.
    ///
    /// # Errors
    ///
    /// Propagates oracle violations.
    pub fn io_input(&mut self, block: BlockAddr, data: &[Word]) -> Result<(), SimError> {
        let (txn, snooped) = self.io_snoop(BusOp::IoInput, block)?;
        self.memory.write_block(block, data);
        for (idx, addr) in self.geometry.words_of(block).enumerate() {
            self.commit_write(addr, data[idx]);
        }
        let duration = self.timing.flush(self.geometry.words_per_block());
        self.io_done(txn, snooped.summary, duration);
        Ok(())
    }

    /// I/O output (Section E.2): fetch the latest version of `block`;
    /// `paging` invalidates cache copies, non-paging leaves source status
    /// alone. Returns the block contents seen by the I/O processor.
    ///
    /// # Errors
    ///
    /// Propagates oracle violations.
    pub fn io_output(&mut self, block: BlockAddr, paging: bool) -> Result<Box<[Word]>, SimError> {
        let (txn, snooped) = self.io_snoop(BusOp::IoOutput { paging }, block)?;
        let data = match snooped.supplier {
            Some(j) => match self.caches[j].data_of(block) {
                Some(d) => Box::from(d),
                None => {
                    return Err(SimError::EngineInvariant {
                        context: "I/O output supplier has no data for the line",
                        cycle: self.now,
                        cache: CacheId(j),
                        block,
                    })
                }
            },
            None => match self.memory.read_block_ref(block) {
                Some(d) => Box::from(d),
                None => vec![Word(0); self.geometry.words_per_block()].into(),
            },
        };
        let duration = self.timing.fetch_from_memory(self.geometry.words_per_block());
        self.io_done(txn, snooped.summary, duration);
        Ok(data)
    }

    /// Counts the I/O processor's `op` on `block` as a bus transaction and
    /// runs its snoop phase, which every cache with a frame joins.
    fn io_snoop(&mut self, op: BusOp, block: BlockAddr) -> Result<(BusTxn, Snooped), SimError> {
        let txn = BusTxn { op, block, requester: AgentId::Io, high_priority: false };
        self.txns_by_op[op_slot(op)] += 1;
        Ok((txn, self.snoop_phase(&txn)?))
    }

    /// Ends an I/O transaction: emits it and holds the bus for `duration`.
    fn io_done(&mut self, txn: BusTxn, summary: SnoopSummary, duration: u64) {
        self.emit(self.now, || Event::Bus { txn, summary, duration });
        self.stats.bus.busy_cycles += duration;
        self.bus_free_at = self.now.max(self.bus_free_at) + duration;
        #[cfg(feature = "debug-checks")]
        self.assert_snoop_filter_exact_for(txn.block);
    }

    /// Checks single-writer / single-source invariants on `block`.
    fn check_block_invariants(&mut self, block: BlockAddr) -> Result<(), SimError> {
        let Some(oracle) = &self.oracle else { return Ok(()) };
        let mut holders = Vec::with_capacity(self.caches.len());
        for (j, cache) in self.caches.iter().enumerate() {
            let d = cache.state_of(block).descriptor();
            if d.is_valid() || d.source {
                holders.push((CacheId(j), d.can_write(), d.source));
            }
        }
        let check = oracle.check_exclusivity(block, &holders);
        match check {
            Ok(()) => Ok(()),
            Err(OracleViolation::DualSources { .. }) if self.arbitrated_sources => Ok(()),
            Err(v) => Err(v.into()),
        }
    }

    fn check_read(&mut self, cache: CacheId, addr: Addr, got: Word) -> Result<(), SimError> {
        if let Some(oracle) = &mut self.oracle {
            oracle.check_read(cache, addr, got)?;
        }
        Ok(())
    }

    fn commit_write(&mut self, addr: Addr, value: Word) {
        if let Some(oracle) = &mut self.oracle {
            oracle.commit_write(addr, value);
        }
    }

    fn lock_oracle_acquire(&mut self, block: BlockAddr, cache: CacheId) -> Result<(), SimError> {
        if let Some(oracle) = &mut self.oracle {
            oracle.acquire_lock(block, cache)?;
        }
        Ok(())
    }

    fn lock_oracle_release(&mut self, block: BlockAddr, cache: CacheId) -> Result<(), SimError> {
        if let Some(oracle) = &mut self.oracle {
            oracle.release_lock(block, cache)?;
        }
        Ok(())
    }

    fn push_state_change(
        &mut self,
        cache: CacheId,
        block: BlockAddr,
        from: &P::State,
        to: &P::State,
        cause: StateCause,
    ) {
        // State names are static, so building the event is free; `emit`'s
        // one check skips it when nothing listens.
        self.emit(self.now, || Event::StateChange {
            cache,
            block,
            from: from.name(),
            to: to.name(),
            cause,
        });
    }

    /// Asserts the holder bitmask for `block` exactly matches residency,
    /// and the stale bitmask exactly the resident invalid copies, word by
    /// word. Runs after every bus transaction when the `debug-checks`
    /// feature is on.
    fn assert_snoop_filter_exact_for(&self, block: BlockAddr) {
        // Per mask word: (resident frames, invalid frames).
        let mut frames = vec![(0u64, 0u64); self.memory.mask_words()];
        for (j, cache) in self.caches.iter().enumerate() {
            if let Some(state) = cache.state_if_resident(block) {
                let (resident, invalid) = &mut frames[j / 64];
                *resident |= 1 << (j % 64);
                if !state.descriptor().is_valid() {
                    *invalid |= 1 << (j % 64);
                }
            }
        }
        for (w, (resident, invalid)) in frames.into_iter().enumerate() {
            let mask = self.memory.holders_word(block, w);
            let stale = self.memory.stale_word(block, w);
            assert_eq!(
                mask, resident,
                "holder mask word {w} for {block} diverged from residency (mask {mask:#b}, resident {resident:#b})"
            );
            assert_eq!(
                stale, invalid,
                "stale mask word {w} for {block} diverged from the invalid copies (mask {stale:#b}, invalid {invalid:#b})"
            );
        }
    }

    /// Verifies the holder and stale bitmasks against true residency and
    /// validity for **every** block any cache or either mask tracks, so a
    /// mask can neither miss a frame nor list one that is gone. Test hook
    /// for the snoop-filter property suite; not part of the public API.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first divergence found.
    #[doc(hidden)]
    pub fn assert_snoop_filter_exact(&self) {
        let mut blocks = self.memory.masked_blocks();
        for cache in &self.caches {
            blocks.extend(cache.lines());
        }
        for block in blocks {
            self.assert_snoop_filter_exact_for(block);
        }
    }
}

/// Copies `block`'s data from cache `src` into cache `dst` without an
/// intermediate allocation. Returns `false` (and copies nothing) when the
/// two are the same cache or either lacks a frame for the block.
fn copy_between<S: LineState>(
    caches: &mut [Cache<S>],
    dst: usize,
    src: usize,
    block: BlockAddr,
) -> bool {
    if dst < src {
        let (lo, hi) = caches.split_at_mut(src);
        lo[dst].copy_block_from(&hi[0], block)
    } else if dst > src {
        let (lo, hi) = caches.split_at_mut(dst);
        hi[0].copy_block_from(&lo[src], block)
    } else {
        false
    }
}

/// The snooper copies whose word `op` writes in place: the valid copies
/// or every resident frame, or none.
fn update_target(op: BusOp) -> Option<UpdateTarget> {
    match op {
        BusOp::WriteWord { target: target @ (UpdateTarget::ValidCopies | UpdateTarget::AllCopies) } => {
            Some(target)
        }
        // UpdateWord always updates valid copies.
        BusOp::UpdateWord { .. } => Some(UpdateTarget::ValidCopies),
        // A memory-module RMW writes the word at memory; tag-matching
        // copies are refreshed so protocols that keep them valid
        // (Rudolph-Segall) stay coherent, and protocols that invalidate
        // just refresh a dead copy harmlessly.
        BusOp::MemoryRmw => Some(UpdateTarget::AllCopies),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_slots_follow_the_canonical_order() {
        for (slot, op) in BusOp::ALL.into_iter().enumerate() {
            assert_eq!(op_slot(op), slot, "{op}");
        }
    }
}
