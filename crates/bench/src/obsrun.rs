//! Observed experiment runs: the library behind the `obsreport` binary and
//! the observability smoke tests.
//!
//! An *observed run* is one deterministic critical-section simulation with
//! the full observability stack attached — a JSONL event sink, the latency
//! histograms, and the interval time-series — plus the scalar [`Stats`]
//! the harness has always produced. Workload presets mirror the measured
//! experiments (E2 locking cost, E3 efficient busy wait) so a JSONL trace
//! or timeline can be read side by side with the corresponding report row.

use crate::harness::RunSpec;
use mcs_core::ProtocolKind;
use mcs_model::Stats;
use mcs_obs::{EventSink, IntervalSampler, JsonlSink, LatencyHists, RunMeta, SharedBuf, DEFAULT_WINDOW};
use mcs_sim::faults::{WatchdogConfig, WatchdogReport};
use mcs_sim::SimError;
use mcs_sync::LockSchemeKind;
use mcs_workloads::CriticalSectionWorkload;

/// Hard ceiling for observed runs; hitting it means a deadlock.
const MAX_CYCLES: u64 = 30_000_000;

/// Ring capacity for the in-memory diagnostic trace kept by every observed
/// run: recent history for post-mortems at bounded memory, with the drop
/// count surfaced in the summary.
const TRACE_RING: usize = 16_384;

/// Workload preset for an observed run, named after the experiment whose
/// settings it reuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsPreset {
    /// E2 locking-cost settings: moderate contention, 1 lock, short
    /// sections, think 30, 20 iterations.
    E2,
    /// E3 efficient-busy-wait settings: heavy contention, 1 lock, think
    /// 10, 12 iterations.
    E3,
}

impl ObsPreset {
    /// CLI identifier.
    pub fn id(self) -> &'static str {
        match self {
            ObsPreset::E2 => "e2",
            ObsPreset::E3 => "e3",
        }
    }

    /// Parses a CLI identifier.
    pub fn from_id(id: &str) -> Option<Self> {
        match id {
            "e2" => Some(ObsPreset::E2),
            "e3" => Some(ObsPreset::E3),
            _ => None,
        }
    }
}

/// Configuration for one observed run.
#[derive(Debug, Clone)]
pub struct ObsSpec {
    /// Protocol under observation.
    pub kind: ProtocolKind,
    /// Lock scheme the workload uses.
    pub scheme: LockSchemeKind,
    /// Contending processors.
    pub procs: usize,
    /// Workload preset.
    pub preset: ObsPreset,
    /// Interval-sampler window in cycles.
    pub window: u64,
    /// Capture the JSONL event stream (costs memory proportional to the
    /// event count; histograms and timeline are always captured).
    pub json_trace: bool,
}

impl ObsSpec {
    /// The default observed run: the E2 configuration for `kind` with the
    /// scheme that experiment pairs it with.
    pub fn new(kind: ProtocolKind) -> Self {
        let scheme = if kind == ProtocolKind::BitarDespain {
            LockSchemeKind::CacheLock
        } else {
            LockSchemeKind::TestAndSet
        };
        ObsSpec {
            kind,
            scheme,
            procs: 4,
            preset: ObsPreset::E2,
            window: DEFAULT_WINDOW,
            json_trace: false,
        }
    }

    /// The run-metadata header describing this spec. Contains no
    /// timestamps or host details, so the JSONL stream stays byte-stable.
    pub fn meta(&self) -> RunMeta {
        RunMeta::new()
            .with_str("experiment", self.preset.id())
            .with_str("protocol", self.kind.id())
            .with_str("scheme", self.scheme.id())
            .with_u64("procs", self.procs as u64)
            .with_u64("window_cycles", self.window)
    }

    /// The preset's workload, laid out on `run`'s block size.
    fn workload(&self, run: &RunSpec) -> CriticalSectionWorkload {
        let b = CriticalSectionWorkload::builder()
            .scheme(self.scheme)
            .words_per_block(run.words_per_block())
            .locks(1)
            .payload_blocks(1);
        match self.preset {
            ObsPreset::E2 => {
                b.payload_reads(2).payload_writes(2).think_cycles(30).iterations(20)
            }
            ObsPreset::E3 => {
                b.payload_reads(1).payload_writes(2).think_cycles(10).iterations(12)
            }
        }
        .build()
    }
}

/// Everything one observed run produces.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The spec that was run.
    pub spec: ObsSpec,
    /// Scalar statistics.
    pub stats: Stats,
    /// Completed critical sections.
    pub sections: u64,
    /// Latency histograms.
    pub hists: LatencyHists,
    /// Interval time-series.
    pub timeline: IntervalSampler,
    /// The JSONL event stream (header line + one line per event), when
    /// `spec.json_trace` was set.
    pub jsonl: Option<String>,
    /// Events kept in the bounded in-memory trace ring.
    pub trace_kept: usize,
    /// Events the bounded trace ring dropped.
    pub trace_dropped: u64,
    /// Liveness-watchdog summary (the watchdog is armed on every observed
    /// run; a healthy run reports its checks, a stalled run aborts).
    pub watchdog: Option<WatchdogReport>,
    /// The typed error that ended the run early, if any.
    pub error: Option<SimError>,
}

/// Executes `spec` and collects every observability output. Observed runs
/// always arm the liveness watchdog and keep a bounded diagnostic trace;
/// an aborted run is returned with [`ObservedRun::error`] set rather than
/// panicking.
pub fn run_observed(spec: &ObsSpec) -> ObservedRun {
    let buf = SharedBuf::new();
    let sink: Option<Box<dyn EventSink>> = spec
        .json_trace
        .then(|| Box::new(JsonlSink::new(buf.clone(), &spec.meta())) as Box<dyn EventSink>);
    let run_spec = RunSpec::new(spec.kind)
        .procs(spec.procs)
        .histograms()
        .timeline(spec.window)
        .max_cycles(MAX_CYCLES)
        .watchdog(WatchdogConfig::default())
        .bounded_trace(TRACE_RING);
    let mut workload = spec.workload(&run_spec);
    let run = run_spec.try_run(&mut workload, sink);
    let jsonl = spec.json_trace.then(|| buf.contents());
    ObservedRun {
        spec: spec.clone(),
        stats: run.stats,
        sections: workload.completed_sections(),
        hists: run.hists.expect("histograms enabled"),
        timeline: run.timeline.expect("timeline enabled"),
        jsonl,
        trace_kept: run.trace_len,
        trace_dropped: run.trace_dropped,
        watchdog: run.watchdog,
        error: run.error,
    }
}

impl ObservedRun {
    /// A one-screen plain-text summary of the run.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let s = &self.stats;
        let refs = s.total_refs();
        let hits: u64 = s.per_proc.iter().map(|p| p.hits).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "observed run: {} / {} / {} procs / preset {}",
            self.spec.kind.id(),
            self.spec.scheme.id(),
            self.spec.procs,
            self.spec.preset.id(),
        );
        let _ = writeln!(
            out,
            "  {} cycles, {} sections, {} refs ({} hits), bus {} txns / {} busy cycles ({:.1}% util)",
            s.cycles,
            self.sections,
            refs,
            hits,
            s.bus.txns,
            s.bus.busy_cycles,
            100.0 * s.bus.utilization(s.cycles),
        );
        let _ = writeln!(
            out,
            "  locks: {} acquires ({} zero-time), {} denied, {} wait cycles total",
            s.locks.acquires, s.locks.zero_time_acquires, s.locks.denied, s.locks.total_wait_cycles,
        );
        let _ = writeln!(
            out,
            "  trace: {} events kept, {} dropped by the {}-event ring",
            self.trace_kept, self.trace_dropped, TRACE_RING,
        );
        match (&self.watchdog, &self.error) {
            (Some(wd), None) => {
                let _ = writeln!(
                    out,
                    "  watchdog: clean ({} checks, max stall {} cycles)",
                    wd.checks, wd.max_stall,
                );
            }
            (_, Some(e)) => {
                let _ = writeln!(out, "  run ABORTED at cycle {}: {e}", s.cycles);
            }
            (None, None) => {}
        }
        for (name, h) in self.hists.named() {
            match (h.p50(), h.p90(), h.p99()) {
                (Some(p50), Some(p90), Some(p99)) => {
                    let _ = writeln!(
                        out,
                        "  {name:<17} n={:<6} mean={:<8.1} p50={p50:<6} p90={p90:<6} p99={p99:<6} max={}",
                        h.count(),
                        h.mean(),
                        h.max().unwrap_or(0),
                    );
                }
                _ => {
                    let _ = writeln!(out, "  {name:<17} n=0");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_run_is_deterministic() {
        let mut spec = ObsSpec::new(ProtocolKind::BitarDespain);
        spec.json_trace = true;
        let a = run_observed(&spec);
        let b = run_observed(&spec);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.jsonl, b.jsonl, "JSONL stream must be byte-stable");
        assert_eq!(a.summary(), b.summary());
        assert!(a.sections > 0);
    }

    #[test]
    fn presets_and_ids_roundtrip() {
        for p in [ObsPreset::E2, ObsPreset::E3] {
            assert_eq!(ObsPreset::from_id(p.id()), Some(p));
        }
        assert_eq!(ObsPreset::from_id("e99"), None);
    }

    #[test]
    fn summary_mentions_the_run_shape() {
        let run = run_observed(&ObsSpec::new(ProtocolKind::Illinois));
        let text = run.summary();
        assert!(text.contains("illinois"));
        assert!(text.contains("tas"));
        assert!(text.contains("lock_acquire_wait"));
        assert!(run.jsonl.is_none(), "json_trace off by default");
    }

    #[test]
    fn summary_reports_watchdog_verdict_and_trace_budget() {
        let run = run_observed(&ObsSpec::new(ProtocolKind::BitarDespain));
        assert!(run.error.is_none());
        assert!(run.trace_kept > 0, "observed runs keep a diagnostic trace");
        let text = run.summary();
        assert!(text.contains("watchdog: clean"), "summary:\n{text}");
        assert!(text.contains("events kept"), "summary:\n{text}");
        assert!(!text.contains("ABORTED"), "summary:\n{text}");
    }
}
