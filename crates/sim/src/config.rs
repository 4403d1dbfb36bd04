//! System-level configuration.

use mcs_cache::CacheConfig;
use mcs_faults::{FaultPlan, WatchdogConfig};
use mcs_model::{DirectoryDuality, TimingConfig};

/// How the engine advances simulated time.
///
/// Both modes produce **bit-identical** [`Stats`](mcs_model::Stats) and
/// [`Trace`](mcs_model::Trace) output; the event-driven mode merely skips
/// bus cycles on which nothing can happen. The cycle-accurate mode is kept
/// as the reference implementation for the differential equivalence tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Jump `now` from event to event (next compute/transaction completion,
    /// next arbitration slot, next idle-hint wakeup) and account the
    /// intervening cycles as an interval. The default.
    #[default]
    EventDriven,
    /// Advance one bus cycle at a time, re-scanning every processor each
    /// cycle. Reference semantics for the equivalence tests.
    CycleAccurate,
}

/// Configuration of one simulated full-broadcast system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    processors: usize,
    cache: CacheConfig,
    timing: TimingConfig,
    directory: Option<DirectoryDuality>,
    trace: bool,
    trace_capacity: Option<usize>,
    oracle: bool,
    retry_bound: u32,
    engine: EngineMode,
    histograms: bool,
    timeline_window: Option<u64>,
    faults: Option<FaultPlan>,
    watchdog: Option<WatchdogConfig>,
}

impl SystemConfig {
    /// A system of `processors` processors with default cache geometry and
    /// timing, the oracle enabled, and tracing disabled.
    pub fn new(processors: usize) -> Self {
        SystemConfig {
            processors,
            cache: CacheConfig::default(),
            timing: TimingConfig::default(),
            directory: None,
            trace: false,
            trace_capacity: None,
            oracle: true,
            retry_bound: 10_000,
            engine: EngineMode::default(),
            histograms: false,
            timeline_window: None,
            faults: None,
            watchdog: None,
        }
    }

    /// Sets the number of processors.
    pub fn with_processors(mut self, processors: usize) -> Self {
        self.processors = processors;
        self
    }

    /// Sets the per-processor cache geometry.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the bus/memory timing.
    pub fn with_timing(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the directory organization (defaults to the protocol's own
    /// Table 1 feature).
    pub fn with_directory(mut self, duality: DirectoryDuality) -> Self {
        self.directory = Some(duality);
        self
    }

    /// Enables or disables event tracing.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Enables or disables the coherence/lock oracles (on by default; turn
    /// off only for very long benchmark runs). Only honored when the
    /// `debug-checks` feature of `mcs-sim` is compiled in (the default);
    /// without it the oracles are never constructed.
    pub fn with_oracle(mut self, oracle: bool) -> Self {
        self.oracle = oracle;
        self
    }

    /// Sets the per-operation retry bound used for livelock detection.
    pub fn with_retry_bound(mut self, bound: u32) -> Self {
        self.retry_bound = bound;
        self
    }

    /// Selects the time-advance engine (event-driven by default).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Bounds the trace to a ring buffer of `capacity` events (implies
    /// nothing about enabling — combine with [`Self::with_trace`]).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Enables latency histograms (lock-acquire wait, busy-wait sleep,
    /// bus-arbitration wait, miss service). Off by default.
    pub fn with_histograms(mut self, histograms: bool) -> Self {
        self.histograms = histograms;
        self
    }

    /// Enables the interval time-series sampler with the given window in
    /// cycles (clamped to ≥ 1). Off by default.
    pub fn with_timeline(mut self, window_cycles: u64) -> Self {
        self.timeline_window = Some(window_cycles.max(1));
        self
    }

    /// Installs a deterministic fault-injection plan. Off by default; an
    /// absent (or [inert](FaultPlan::is_inert)) plan leaves every run
    /// bit-identical to a fault-free build.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arms the liveness watchdog. Off by default. The watchdog never
    /// mutates simulation state: enabling it can only end a stalled run
    /// early with [`SimError::Watchdog`](crate::SimError::Watchdog).
    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Cache geometry.
    pub fn cache(&self) -> &CacheConfig {
        &self.cache
    }

    /// Bus/memory timing.
    pub fn timing(&self) -> &TimingConfig {
        &self.timing
    }

    /// Directory override, if any.
    pub fn directory(&self) -> Option<DirectoryDuality> {
        self.directory
    }

    /// Whether tracing is enabled.
    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Whether the oracles are enabled.
    pub fn oracle(&self) -> bool {
        self.oracle
    }

    /// Livelock retry bound.
    pub fn retry_bound(&self) -> u32 {
        self.retry_bound
    }

    /// The time-advance engine mode.
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// The trace ring-buffer capacity, or `None` for unbounded.
    pub fn trace_capacity(&self) -> Option<usize> {
        self.trace_capacity
    }

    /// Whether latency histograms are recorded.
    pub fn histograms(&self) -> bool {
        self.histograms
    }

    /// The interval-sampler window, or `None` when the timeline is off.
    pub fn timeline_window(&self) -> Option<u64> {
        self.timeline_window
    }

    /// The fault-injection plan, or `None` when the layer is off.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The watchdog configuration, or `None` when the watchdog is off.
    pub fn watchdog(&self) -> Option<WatchdogConfig> {
        self.watchdog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = SystemConfig::new(2)
            .with_processors(8)
            .with_trace(true)
            .with_oracle(false)
            .with_retry_bound(5)
            .with_directory(DirectoryDuality::NonIdenticalDual);
        assert_eq!(c.processors(), 8);
        assert!(c.trace());
        assert!(!c.oracle());
        assert_eq!(c.retry_bound(), 5);
        assert_eq!(c.directory(), Some(DirectoryDuality::NonIdenticalDual));
    }

    #[test]
    fn defaults() {
        let c = SystemConfig::new(2);
        assert!(!c.trace());
        assert!(c.oracle());
        assert!(c.directory().is_none());
        assert_eq!(c.cache().capacity_blocks(), 64);
        assert_eq!(c.engine(), EngineMode::EventDriven);
    }

    #[test]
    fn engine_override() {
        let c = SystemConfig::new(2).with_engine(EngineMode::CycleAccurate);
        assert_eq!(c.engine(), EngineMode::CycleAccurate);
    }

    #[test]
    fn fault_and_watchdog_knobs() {
        let c = SystemConfig::new(2);
        assert!(c.faults().is_none());
        assert!(c.watchdog().is_none());
        let plan = FaultPlan::new(7).lose_unlock(1000);
        let wd = WatchdogConfig::new().check_interval(500).stall_threshold(4_000);
        let c = c.with_faults(plan.clone()).with_watchdog(wd);
        assert_eq!(c.faults(), Some(&plan));
        assert_eq!(c.watchdog().map(|w| w.check_interval), Some(500));
    }

    #[test]
    fn observability_knobs() {
        let c = SystemConfig::new(2);
        assert!(!c.histograms());
        assert_eq!(c.timeline_window(), None);
        assert_eq!(c.trace_capacity(), None);
        let c = c.with_histograms(true).with_timeline(0).with_trace_capacity(128);
        assert!(c.histograms());
        assert_eq!(c.timeline_window(), Some(1), "window is clamped to >= 1");
        assert_eq!(c.trace_capacity(), Some(128));
    }
}
