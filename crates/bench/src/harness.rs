//! Shared run harness: one place that builds a system from a compact spec,
//! runs a workload on it, and collects every observability output.
//!
//! The experiment runners ([`crate::experiments`]), the fault matrix, the
//! observed-run library ([`crate::obsrun`]) and the simbench benchmark all
//! build their systems through [`RunSpec`], so a change to how systems are
//! constructed (a new config knob, a different default geometry) lands in
//! one place, and every run's configuration is visible at its call site.
//!
//! A [`RunSpec`] is a protocol, a cycle ceiling and the [`SystemConfig`] it
//! builds with: its setters write into that config, and
//! [`RunSpec::try_run`] hands it to [`System::new`] unchanged.

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::Stats;
use mcs_obs::{EventSink, IntervalSampler, LatencyHists};
use mcs_sim::faults::{FaultPlan, FaultStats, WatchdogConfig, WatchdogReport};
use mcs_sim::{SimError, System, SystemConfig, Workload};

/// Compact description of one benchmark/observed system: protocol, scale,
/// cache geometry, cycle ceiling, fault and watchdog layers, and which
/// observability outputs to record. Runs use the default (event-driven)
/// engine.
#[derive(Debug, Clone)]
pub struct RunSpec {
    kind: ProtocolKind,
    config: SystemConfig,
    max_cycles: u64,
}

/// Everything one harness run produces. Statistics are collected even when
/// the run aborted (`error` set), covering the simulated prefix.
#[derive(Debug, Clone)]
pub struct HarnessRun {
    /// Scalar statistics.
    pub stats: Stats,
    /// Whether every processor finished before the cycle ceiling (false on
    /// an abort or a deadline cut-off).
    pub completed: bool,
    /// Latency histograms, when the spec enabled them.
    pub hists: Option<LatencyHists>,
    /// Interval time-series, when the spec enabled it.
    pub timeline: Option<IntervalSampler>,
    /// Injected-fault counters, when the spec armed the fault layer.
    pub faults: Option<FaultStats>,
    /// Watchdog summary, when the spec armed the watchdog.
    pub watchdog: Option<WatchdogReport>,
    /// Events kept in the bounded trace, when the spec enabled it.
    pub trace_len: usize,
    /// Events the bounded trace ring dropped.
    pub trace_dropped: u64,
    /// The typed error that ended the run early, if any.
    pub error: Option<SimError>,
}

impl RunSpec {
    /// A 4-processor system on `kind` with the benchmark default geometry
    /// (64 fully-associative blocks, word blocks where the protocol needs
    /// them), the default engine, no observability, and a generous cycle
    /// ceiling (hitting it means a deadlock).
    pub fn new(kind: ProtocolKind) -> Self {
        let words_per_block = if kind.requires_word_blocks() { 1 } else { 4 };
        let cache = CacheConfig::fully_associative(64, words_per_block)
            .expect("64 fully associative 1- or 4-word blocks is a valid geometry");
        RunSpec {
            kind,
            config: SystemConfig::new(4).with_cache(cache),
            max_cycles: 300_000_000,
        }
    }

    /// Sets the number of processors.
    pub fn procs(mut self, procs: usize) -> Self {
        self.config = self.config.with_processors(procs);
        self
    }

    /// Replaces the default cache geometry.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.config = self.config.with_cache(cache);
        self
    }

    /// Enables latency histograms.
    pub fn histograms(mut self) -> Self {
        self.config = self.config.with_histograms(true);
        self
    }

    /// Enables the interval time-series with the given window.
    pub fn timeline(mut self, window_cycles: u64) -> Self {
        self.config = self.config.with_timeline(window_cycles);
        self
    }

    /// Caps the run at `max_cycles` simulated cycles.
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config = self.config.with_faults(plan);
        self
    }

    /// Arms the liveness watchdog.
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.config = self.config.with_watchdog(cfg);
        self
    }

    /// Enables the in-memory trace bounded to a ring of `capacity` events.
    pub fn bounded_trace(mut self, capacity: usize) -> Self {
        self.config = self.config.with_trace(true).with_trace_capacity(capacity);
        self
    }

    /// The words-per-block of this spec's cache: the protocol's default
    /// unless [`Self::cache`] replaced the geometry. Workloads that lay out
    /// data by block read it from here.
    pub fn words_per_block(&self) -> usize {
        self.config.cache().geometry().words_per_block()
    }

    /// Builds the system, attaches `sink` if given, runs `workload` and
    /// collects the outputs — **never panicking**: a spec that cannot be
    /// built (no processors), a simulation abort (a watchdog trip, an
    /// oracle violation, an unrecoverable fault) or a sink that failed to
    /// write ([`SimError::Sink`]) lands in [`HarnessRun::error`], with the
    /// statistics of the simulated prefix.
    pub fn try_run<W: Workload>(
        &self,
        workload: &mut W,
        sink: Option<Box<dyn EventSink>>,
    ) -> HarnessRun {
        with_protocol!(self.kind, p => {
            let mut sys = match System::new(p, self.config.clone()) {
                Ok(sys) => sys,
                Err(e) => return self.unbuilt(e),
            };
            if let Some(sink) = sink {
                sys.add_sink(sink);
            }
            let (stats, completed, error) = match sys.run(workload, self.max_cycles) {
                Ok(report) => (report.stats, report.completed, None),
                Err(e) => (sys.stats(), false, Some(e)),
            };
            sys.finish_sinks();
            let error = error.or_else(|| sys.sink_error());
            HarnessRun {
                stats,
                completed,
                hists: sys.histograms().cloned(),
                timeline: sys.timeline().cloned(),
                faults: sys.fault_stats().cloned(),
                watchdog: sys.watchdog_report(),
                trace_len: sys.trace().len(),
                trace_dropped: sys.trace().dropped(),
                error,
            }
        })
    }

    /// The outcome of a run whose system could not be built: nothing was
    /// simulated.
    fn unbuilt(&self, error: SimError) -> HarnessRun {
        HarnessRun {
            stats: Stats::new(self.config.processors()),
            completed: false,
            hists: None,
            timeline: None,
            faults: None,
            watchdog: None,
            trace_len: 0,
            trace_dropped: 0,
            error: Some(error),
        }
    }

    /// [`Self::try_run`], panicking on simulation errors — for benchmarks
    /// and observed runs where a failure is a bug, not a condition to
    /// handle.
    pub fn run<W: Workload>(&self, workload: &mut W, sink: Option<Box<dyn EventSink>>) -> HarnessRun {
        let run = self.try_run(workload, sink);
        if let Some(e) = &run.error {
            panic!("{} harness run failed: {e}", self.kind);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_obs::{JsonlSink, RunMeta};
    use mcs_sync::LockSchemeKind;
    use mcs_workloads::CriticalSectionWorkload;
    use std::io;

    fn tiny_cs() -> CriticalSectionWorkload {
        CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::CacheLock)
            .words_per_block(4)
            .locks(1)
            .payload_blocks(1)
            .payload_reads(2)
            .payload_writes(2)
            .think_cycles(10)
            .iterations(3)
            .build()
    }

    #[test]
    fn spec_defaults_resolve_block_size_from_protocol() {
        assert_eq!(RunSpec::new(ProtocolKind::BitarDespain).words_per_block(), 4);
        assert_eq!(RunSpec::new(ProtocolKind::RudolphSegall).words_per_block(), 1);
        let sixteen = CacheConfig::fully_associative(32, 16).unwrap();
        assert_eq!(RunSpec::new(ProtocolKind::BitarDespain).cache(sixteen).words_per_block(), 16);
        let one = CacheConfig::fully_associative(128, 1).unwrap();
        assert_eq!(RunSpec::new(ProtocolKind::BitarDespain).cache(one).words_per_block(), 1);
    }

    #[test]
    fn run_collects_requested_outputs() {
        let base = RunSpec::new(ProtocolKind::BitarDespain);
        let plain = base.clone().run(&mut tiny_cs(), None);
        assert!(plain.stats.cycles > 0);
        assert!(plain.hists.is_none());
        assert!(plain.timeline.is_none());
        let observed = base.histograms().timeline(100).run(&mut tiny_cs(), None);
        assert_eq!(observed.stats, plain.stats, "observability must not change behaviour");
        assert!(observed.hists.is_some());
        assert!(observed.timeline.is_some());
    }

    #[test]
    fn try_run_surfaces_typed_errors_instead_of_panicking() {
        // Every unlock lost, no recovery: the watchdog must end the run
        // with a typed error and the harness must hand it back.
        let run = RunSpec::new(ProtocolKind::BitarDespain)
            .procs(2)
            .faults(FaultPlan::new(0xDEAD).lose_unlock(1000))
            .watchdog(WatchdogConfig::new().check_interval(1_000).stall_threshold(10_000))
            .bounded_trace(64)
            .try_run(&mut tiny_cs(), None);
        assert!(!run.completed);
        assert!(matches!(run.error, Some(SimError::Watchdog(_))), "got: {:?}", run.error);
        assert!(run.faults.expect("fault layer on").lost_unlocks > 0);
        assert!(run.watchdog.expect("watchdog armed").checks > 0);
        assert!(run.trace_len > 0, "prefix trace must be available post-mortem");
        assert!(run.stats.cycles > 0, "prefix stats must be available post-mortem");
    }

    /// A writer whose third `write` fails as a closed pipe does.
    struct BreaksOnThirdWrite(u32);

    impl io::Write for BreaksOnThirdWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0 += 1;
            if self.0 >= 3 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn try_run_reports_a_failing_sink_as_an_error() {
        let mut cs = CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::CacheLock)
            .words_per_block(4)
            .locks(1)
            .payload_blocks(1)
            .payload_reads(2)
            .payload_writes(2)
            .think_cycles(30)
            .iterations(20)
            .build();
        let sink = JsonlSink::new(BreaksOnThirdWrite(0), &RunMeta::new());
        let run = RunSpec::new(ProtocolKind::BitarDespain).try_run(&mut cs, Some(Box::new(sink)));
        assert!(run.completed, "a failing sink must not stop the simulation");
        assert!(
            matches!(run.error, Some(SimError::Sink { kind: io::ErrorKind::BrokenPipe, .. })),
            "got: {:?}",
            run.error
        );
    }

    #[test]
    fn try_run_reports_an_unbuildable_spec_as_an_error() {
        let run = RunSpec::new(ProtocolKind::BitarDespain)
            .procs(0)
            .try_run(&mut tiny_cs(), None);
        assert_eq!(run.error, Some(SimError::NoProcessors));
        assert!(!run.completed);
        assert_eq!(run.stats.cycles, 0, "nothing was simulated");
    }
}
