//! The traced run: wrappers around each layer's public trait that time
//! every call from outside the simulator, aggregated in memory.
//!
//! Each boundary keeps a count, total nanoseconds and a log2 histogram of
//! call durations; the runs make millions of calls, so no per-call record
//! is kept. A layer's self time is its span minus the child spans it
//! covers: `System::run` minus the protocol, workload and sink calls made
//! inside it.

use crate::workloads::{RunOutput, Single, MAX_CYCLES};
use mcs_core::BitarDespain;
use mcs_model::{
    AccessKind, BlockAddr, BusTxn, CompleteOutcome, Event, EvictAction, FeatureSet, ProcAction,
    ProcId, ProcOp, Protocol, SnoopOutcome, SnoopReply, SnoopSummary,
};
use mcs_obs::EventSink;
use mcs_sim::{AccessResult, System, WaitBehavior, WorkItem, Workload};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Count, total time and log2 duration histogram of one boundary's calls.
/// Atomic because `Protocol: Sync`; the counters publish no other data.
pub struct Probe {
    calls: AtomicU64,
    ns: AtomicU64,
    hist: [AtomicU64; 64],
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Probe {
    #[inline]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
        self.hist[(64 - ns.leading_zeros() as usize).min(63)].fetch_add(1, Relaxed);
        r
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Seconds spent inside the calls.
    pub fn secs(&self) -> f64 {
        self.ns.load(Relaxed) as f64 / 1e9
    }

    /// The histogram as `bucket:count` pairs; bucket `b` holds durations
    /// in `[2^(b-1), 2^b)` ns.
    pub fn hist(&self) -> String {
        self.hist
            .iter()
            .enumerate()
            .filter_map(|(b, c)| match c.load(Relaxed) {
                0 => None,
                c => Some(format!("{b}:{c}")),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Every boundary of one traced system.
#[derive(Default)]
pub struct Probes {
    /// `Protocol::proc_access`.
    pub proc_access: Probe,
    /// `Protocol::snoop`.
    pub snoop: Probe,
    /// `Protocol::complete`.
    pub complete: Probe,
    /// `Protocol::evict`.
    pub evict: Probe,
    useful_snoops: AtomicU64,
    /// `Workload::next`.
    pub next: Probe,
    /// `Workload::complete`.
    pub retire: Probe,
    /// `Workload::on_lock_wait`.
    pub lock_wait: Probe,
    /// `EventSink::record`.
    pub record: Probe,
}

impl Probes {
    /// Snoops that changed the line's state or drove a reply line.
    pub fn useful_snoops(&self) -> u64 {
        self.useful_snoops.load(Relaxed)
    }

    /// Seconds inside protocol calls.
    pub fn protocol_secs(&self) -> f64 {
        self.proc_access.secs() + self.snoop.secs() + self.complete.secs() + self.evict.secs()
    }

    /// Seconds inside workload calls (the lock-scheme state machines run
    /// inside them).
    pub fn workload_secs(&self) -> f64 {
        self.next.secs() + self.retire.secs() + self.lock_wait.secs()
    }

    /// Every boundary's count and histogram, one line each.
    pub fn describe(&self) -> Vec<String> {
        [
            ("protocol.proc_access", &self.proc_access),
            ("protocol.snoop", &self.snoop),
            ("protocol.complete", &self.complete),
            ("protocol.evict", &self.evict),
            ("workload.next", &self.next),
            ("workload.complete", &self.retire),
            ("workload.on_lock_wait", &self.lock_wait),
            ("sink.record", &self.record),
        ]
        .iter()
        .filter(|(_, p)| p.calls() > 0)
        .map(|(name, p)| {
            format!(
                "{name}: calls={} total_ns={} log2_ns_hist=[{}]",
                p.calls(),
                p.ns.load(Relaxed),
                p.hist()
            )
        })
        .collect()
    }
}

/// A protocol whose four entry points are timed.
pub struct TracedProtocol<P> {
    inner: P,
    probes: Arc<Probes>,
}

impl<P: Protocol> Protocol for TracedProtocol<P> {
    type State = P::State;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn features(&self) -> FeatureSet {
        self.inner.features()
    }

    fn proc_access(&self, state: P::State, kind: AccessKind) -> ProcAction<P::State> {
        self.probes
            .proc_access
            .time(|| self.inner.proc_access(state, kind))
    }

    fn snoop(&self, state: P::State, txn: &BusTxn) -> SnoopOutcome<P::State> {
        let out = self.probes.snoop.time(|| self.inner.snoop(state, txn));
        if out.next != state || out.reply != SnoopReply::default() {
            self.probes.useful_snoops.fetch_add(1, Relaxed);
        }
        out
    }

    fn complete(
        &self,
        state: P::State,
        kind: AccessKind,
        txn: &BusTxn,
        summary: &SnoopSummary,
    ) -> CompleteOutcome<P::State> {
        self.probes
            .complete
            .time(|| self.inner.complete(state, kind, txn, summary))
    }

    fn evict(&self, state: P::State) -> EvictAction {
        self.probes.evict.time(|| self.inner.evict(state))
    }
}

/// A workload whose calls are timed.
pub struct TracedWorkload<W> {
    inner: W,
    probes: Arc<Probes>,
}

impl<W: Workload> Workload for TracedWorkload<W> {
    fn next(&mut self, proc: ProcId, now: u64) -> WorkItem {
        self.probes.next.time(|| self.inner.next(proc, now))
    }

    fn complete(&mut self, proc: ProcId, op: &ProcOp, result: &AccessResult, now: u64) {
        self.probes
            .retire
            .time(|| self.inner.complete(proc, op, result, now))
    }

    fn on_lock_wait(&mut self, proc: ProcId, block: BlockAddr, now: u64) -> WaitBehavior {
        self.probes
            .lock_wait
            .time(|| self.inner.on_lock_wait(proc, block, now))
    }
}

/// An event sink whose `record` calls are timed.
struct TracedSink {
    inner: Box<dyn EventSink>,
    probes: Arc<Probes>,
}

impl EventSink for TracedSink {
    fn record(&mut self, cycle: u64, event: &Event) {
        self.probes.record.time(|| self.inner.record(cycle, event))
    }

    fn finish(&mut self) {
        self.inner.finish()
    }
}

/// One traced single run.
pub struct TracedRun {
    /// The same outputs the untraced path collects.
    pub out: RunOutput,
    /// The boundary probes.
    pub probes: Arc<Probes>,
    /// `System::new` span, seconds.
    pub new_s: f64,
    /// `System::run` span, seconds.
    pub run_s: f64,
    /// Construction through output collection, comparable with the
    /// untraced wall time.
    pub wall_s: f64,
}

impl TracedRun {
    /// `mcs-sim`'s self time: the run span minus the protocol, workload
    /// and sink calls inside it.
    pub fn sim_self_s(&self) -> f64 {
        self.run_s
            - self.probes.protocol_secs()
            - self.probes.workload_secs()
            - self.probes.record.secs()
    }

    /// Checks that the wrapper call counts reconcile with `Stats`: one
    /// protocol `complete` per granted bus transaction, and one workload
    /// `complete` per retired reference.
    pub fn reconcile(&self) -> Result<(), String> {
        let s = &self.out.stats;
        let (complete, txns) = (self.probes.complete.calls(), s.bus.txns);
        if complete != txns {
            return Err(format!(
                "protocol complete calls {complete} != bus txns {txns}"
            ));
        }
        let (retired, refs) = (self.probes.retire.calls(), s.total_refs());
        if retired != refs {
            return Err(format!(
                "workload complete calls {retired} != retired refs {refs}"
            ));
        }
        Ok(())
    }
}

/// Runs `single` with every boundary wrapped, on the configuration the
/// harness would build for it.
pub fn run_traced(single: &Single) -> TracedRun {
    let probes = Arc::new(Probes::default());
    let mut workload = TracedWorkload {
        inner: single.program(),
        probes: probes.clone(),
    };
    let (sink, stream) = single.sink().unzip();
    let protocol = TracedProtocol {
        inner: BitarDespain,
        probes: probes.clone(),
    };
    let start = Instant::now();
    let mut sys = System::new(protocol, single.system_config()).expect("valid system");
    let new_s = start.elapsed().as_secs_f64();
    if let Some(sink) = sink {
        sys.add_sink(Box::new(TracedSink {
            inner: sink,
            probes: probes.clone(),
        }));
    }
    let run_start = Instant::now();
    let result = sys.run(&mut workload, MAX_CYCLES);
    let run_s = run_start.elapsed().as_secs_f64();
    sys.finish_sinks();
    let (completed, error) = match &result {
        Ok(report) => (report.completed, None),
        Err(e) => (false, Some(e.to_string())),
    };
    let out = RunOutput {
        program: workload.inner,
        stats: sys.stats().clone(),
        completed,
        error,
        stream: stream.map(|s| s.summary()),
        trace_len: sys.trace().len(),
        trace_dropped: sys.trace().dropped(),
        watchdog_checks: sys.watchdog_report().map_or(0, |w| w.checks),
    };
    let wall_s = start.elapsed().as_secs_f64();
    TracedRun {
        out,
        probes,
        new_s,
        run_s,
        wall_s,
    }
}
