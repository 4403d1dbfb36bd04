//! Observed experiment runs: the library behind the `obsreport` binary and
//! the observability smoke tests.
//!
//! An *observed run* is one deterministic critical-section simulation with
//! the full observability stack attached — a JSONL event sink, the latency
//! histograms, and the interval time-series — plus the scalar
//! [`mcs_model::Stats`] the harness has always produced. The workload is a
//! cell of [`OBSERVED_CELLS`], the very function E2 (locking cost) or E3
//! (efficient busy wait) measures with, so a JSONL trace or timeline reads
//! side by side with the corresponding report row.

use crate::experiments::{paired_scheme, Cell, MAX_CYCLES, OBSERVED_CELLS};
use crate::harness::{HarnessRun, RunSpec};
use mcs_core::ProtocolKind;
use mcs_obs::{EventSink, JsonlSink, LatencyHists, RunMeta, SharedBuf, DEFAULT_WINDOW};
use mcs_sim::faults::WatchdogConfig;
use mcs_sync::LockSchemeKind;

/// Ring capacity for the in-memory diagnostic trace kept by every observed
/// run: recent history for post-mortems at bounded memory, with the drop
/// count surfaced in the summary.
const TRACE_RING: usize = 16_384;

/// Configuration for one observed run.
#[derive(Debug, Clone)]
pub struct ObsSpec {
    /// Protocol under observation.
    pub kind: ProtocolKind,
    /// Lock scheme the workload uses.
    pub scheme: LockSchemeKind,
    /// Contending processors.
    pub procs: usize,
    /// The experiment cell run, a row of [`OBSERVED_CELLS`]: its id and
    /// the function that experiment measures with.
    pub cell: (&'static str, Cell),
    /// Interval-sampler window in cycles.
    pub window: u64,
    /// Capture the JSONL event stream (costs memory proportional to the
    /// event count; histograms and timeline are always captured).
    pub json_trace: bool,
}

impl ObsSpec {
    /// The default observed run: E2's cell for `kind` with the scheme
    /// [`paired_scheme`] gives it.
    pub fn new(kind: ProtocolKind) -> Self {
        ObsSpec {
            kind,
            scheme: paired_scheme(kind),
            procs: 4,
            cell: OBSERVED_CELLS[0],
            window: DEFAULT_WINDOW,
            json_trace: false,
        }
    }

    /// The run-metadata header describing this spec. Contains no
    /// timestamps or host details, so the JSONL stream stays byte-stable.
    pub fn meta(&self) -> RunMeta {
        RunMeta::new()
            .with_str("experiment", self.cell.0)
            .with_str("protocol", self.kind.id())
            .with_str("scheme", self.scheme.id())
            .with_u64("procs", self.procs as u64)
            .with_u64("window_cycles", self.window)
    }
}

/// Everything one observed run produces.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The spec that was run.
    pub spec: ObsSpec,
    /// What the harness returned: statistics, histograms, timeline, the
    /// trace ring's counts, the watchdog summary and any error that ended
    /// the run early.
    pub run: HarnessRun,
    /// Completed critical sections.
    pub sections: u64,
    /// The JSONL event stream (header line + one line per event), when
    /// `spec.json_trace` was set.
    pub jsonl: Option<String>,
}

/// Executes `spec` and collects every observability output. Observed runs
/// always arm the liveness watchdog and keep a bounded diagnostic trace;
/// an aborted run is returned with its [`HarnessRun::error`] set rather
/// than panicking.
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
    let mut workload = run_spec.critical_section(spec.scheme, spec.cell.1);
    let run = run_spec.try_run(&mut workload, sink);
    ObservedRun {
        spec: spec.clone(),
        run,
        sections: workload.completed_sections(),
        jsonl: spec.json_trace.then(|| buf.contents()),
    }
}

impl ObservedRun {
    /// A one-screen plain-text summary of the run.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let run = &self.run;
        let s = &run.stats;
        let refs = s.total_refs();
        let hits: u64 = s.per_proc.iter().map(|p| p.hits).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "observed run: {} / {} / {} procs / preset {}",
            self.spec.kind.id(),
            self.spec.scheme.id(),
            self.spec.procs,
            self.spec.cell.0,
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
            run.trace_len, run.trace_dropped, TRACE_RING,
        );
        match (&run.watchdog, &run.error) {
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
        for (name, h) in run.hists.iter().flat_map(LatencyHists::named) {
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
        assert_eq!(a.run.stats, b.run.stats);
        assert_eq!(a.jsonl, b.jsonl, "JSONL stream must be byte-stable");
        assert_eq!(a.summary(), b.summary());
        assert!(a.sections > 0);
    }

    #[test]
    fn observed_cells_are_the_cells_their_experiments_measure() {
        use crate::experiments::{e2_locking, e3_busywait};
        for kind in [ProtocolKind::BitarDespain, ProtocolKind::Illinois] {
            let scheme = paired_scheme(kind);
            let e2 = run_observed(&ObsSpec::new(kind));
            assert_eq!(e2.spec.cell.0, "e2");
            assert_eq!(e2.run.stats, e2_locking::measure(kind, scheme).stats, "{kind}");
            let e3 = ObsSpec { cell: OBSERVED_CELLS[1], ..ObsSpec::new(kind) };
            assert_eq!(e3.cell.0, "e3");
            assert_eq!(run_observed(&e3).run.stats, e3_busywait::measure(kind, scheme, 4).stats);
        }
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
        assert!(run.run.error.is_none());
        assert!(run.run.trace_len > 0, "observed runs keep a diagnostic trace");
        let text = run.summary();
        assert!(text.contains("watchdog: clean"), "summary:\n{text}");
        assert!(text.contains("events kept"), "summary:\n{text}");
        assert!(!text.contains("ABORTED"), "summary:\n{text}");
    }
}
