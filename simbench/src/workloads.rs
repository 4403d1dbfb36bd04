//! The four benchmark workloads: how each is built from the seed, run
//! untraced through the shared harness, set up, and checked.

use crate::digest::{self, DigestWriter, StreamSummary};
use mcs_bench::harness::{HarnessRun, RunSpec};
use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, BitarDespain, ProtocolKind};
use mcs_model::{BlockAddr, ProcId, ProcOp, Stats};
use mcs_obs::{EventSink, JsonlSink, RunMeta, DEFAULT_WINDOW};
use mcs_sim::faults::WatchdogConfig;
use mcs_sim::{AccessResult, EngineMode, System, SystemConfig, WaitBehavior, WorkItem, Workload};
use mcs_sync::LockSchemeKind;
use mcs_workloads::{CriticalSectionWorkload, RandomSharingConfig, RandomSharingWorkload};

/// Seed of the golden-digest configuration every untraced run checks first.
pub const REFERENCE_SEED: u64 = 1;

/// Cycle ceiling of every single run (the harness default); reaching it
/// means a deadlock and fails the run.
pub const MAX_CYCLES: u64 = 300_000_000;

/// Ring capacity of observed_locks' in-memory trace (obsreport's value).
pub const TRACE_RING: usize = 16_384;

/// Cache geometry shared by every single-run workload: 64 blocks of 4
/// words, fully associative (the harness default).
const CACHE_BLOCKS: usize = 64;
const WORDS_PER_BLOCK: usize = 4;

/// dense_sharing: references per processor. One run takes ~0.06-0.1 s on
/// a 2-core x86-64 host, lock_handoff and observed_locks ~0.1 s.
const DENSE_REFS_PER_PROC: usize = 40_000;
/// lock_handoff: critical sections in a run, split evenly over the
/// processors, so every processor count does the same total work.
const LOCK_SECTIONS: usize = 64 * 240;
const LOCK_PROCS: usize = 64;
const LOCK_THINK: u64 = 3_000;
/// observed_locks: obsreport's stack on a scaled-up E2-like run.
const OBS_PROCS: usize = 16;
const OBS_THINK: u64 = 300;
const OBS_ITERATIONS: usize = 1_200;

/// Simulated work of one pass of E1-E13, in the units the single runs
/// report. The experiments build their systems internally, so the
/// benchmark cannot count this from outside; it was counted once by
/// summing `Stats` at every `System::run`/`run_script` exit of a pass. It
/// is a property of the suite's content, which the golden report digests
/// pin: a change that alters the counts alters a report and fails the
/// gate before these can go stale unnoticed.
pub const SUITE_WORK: Work = Work {
    refs: 574_137,
    txns: 224_001,
    cycles: 2_308_173,
};

/// The workload names, as given to `--workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Random sharing with a working set larger than the cache.
    DenseSharing,
    /// 64 processors handing one cache-state lock around.
    LockHandoff,
    /// A lock run with the full observability stack attached.
    ObservedLocks,
    /// One pass of experiments E1-E13.
    ExperimentSuite,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::DenseSharing,
        Kind::LockHandoff,
        Kind::ObservedLocks,
        Kind::ExperimentSuite,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DenseSharing => "dense_sharing",
            Kind::LockHandoff => "lock_handoff",
            Kind::ObservedLocks => "observed_locks",
            Kind::ExperimentSuite => "experiment_suite",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Simulated work: retired references, granted bus transactions, cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Retired memory references.
    pub refs: u64,
    /// Granted bus transactions.
    pub txns: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

impl Work {
    /// The work recorded in `stats`.
    pub fn of(stats: &Stats) -> Work {
        Work {
            refs: stats.total_refs(),
            txns: stats.bus.txns,
            cycles: stats.cycles,
        }
    }
}

/// One of the two workload programs the single runs use. A closed enum
/// rather than a trait object, so every run is monomorphic like the
/// repository's own binaries.
pub enum Program {
    /// dense_sharing's reference stream.
    Random(RandomSharingWorkload),
    /// The critical-section loop of lock_handoff and observed_locks.
    Locks(CriticalSectionWorkload),
}

impl Workload for Program {
    fn next(&mut self, proc: ProcId, now: u64) -> WorkItem {
        match self {
            Program::Random(w) => w.next(proc, now),
            Program::Locks(w) => w.next(proc, now),
        }
    }

    fn complete(&mut self, proc: ProcId, op: &ProcOp, result: &AccessResult, now: u64) {
        match self {
            Program::Random(w) => w.complete(proc, op, result, now),
            Program::Locks(w) => w.complete(proc, op, result, now),
        }
    }

    fn on_lock_wait(&mut self, proc: ProcId, block: BlockAddr, now: u64) -> WaitBehavior {
        match self {
            Program::Random(w) => w.on_lock_wait(proc, block, now),
            Program::Locks(w) => w.on_lock_wait(proc, block, now),
        }
    }
}

impl Program {
    /// Lock-scheme failures (failed test-and-sets plus bus retries) per
    /// acquisition; 0 for the lock-free program.
    pub fn failed_per_acquire(&self, stats: &Stats) -> f64 {
        match self {
            Program::Random(_) => 0.0,
            Program::Locks(w) => {
                let s = w.scheme_stats();
                (s.failed_tas + stats.bus.retries) as f64 / s.acquires.max(1) as f64
            }
        }
    }
}

/// A single-`System` workload instance, fully determined by its fields.
#[derive(Debug, Clone, Copy)]
pub struct Single {
    /// Which workload.
    pub kind: Kind,
    /// The seed its inputs derive from.
    pub seed: u64,
    /// Processors.
    pub procs: usize,
}

impl Single {
    /// The workload `kind` (not the suite) at its standard size.
    pub fn new(kind: Kind, seed: u64) -> Single {
        let procs = match kind {
            Kind::DenseSharing => 4,
            Kind::LockHandoff => LOCK_PROCS,
            Kind::ObservedLocks => OBS_PROCS,
            Kind::ExperimentSuite => unreachable!("the suite is not a single run"),
        };
        Single { kind, seed, procs }
    }

    /// lock_handoff at `procs` processors, same total work as standard.
    pub fn lock_handoff_at(procs: usize, seed: u64) -> Single {
        Single {
            kind: Kind::LockHandoff,
            seed,
            procs,
        }
    }

    fn iterations(&self) -> usize {
        match self.kind {
            Kind::LockHandoff => LOCK_SECTIONS / self.procs,
            _ => OBS_ITERATIONS,
        }
    }

    /// Builds the workload program from the seed. dense_sharing seeds its
    /// reference stream; the lock workloads have no random choices, so the
    /// seed perturbs their think time by at most 1%, which moves every
    /// handoff's timing without changing how much work a run does.
    pub fn program(&self) -> Program {
        match self.kind {
            Kind::DenseSharing => {
                Program::Random(RandomSharingWorkload::new(RandomSharingConfig {
                    refs_per_proc: DENSE_REFS_PER_PROC,
                    seed: self.seed,
                    ..RandomSharingConfig::default()
                }))
            }
            Kind::LockHandoff | Kind::ObservedLocks => {
                let think = match self.kind {
                    Kind::LockHandoff => LOCK_THINK + self.seed % 16,
                    _ => OBS_THINK + self.seed % 4,
                };
                Program::Locks(
                    CriticalSectionWorkload::builder()
                        .scheme(LockSchemeKind::CacheLock)
                        .words_per_block(WORDS_PER_BLOCK)
                        .locks(1)
                        .payload_blocks(1)
                        .payload_reads(2)
                        .payload_writes(2)
                        .think_cycles(think)
                        .iterations(self.iterations())
                        .build(),
                )
            }
            Kind::ExperimentSuite => unreachable!("the suite is not a single run"),
        }
    }

    fn observed(&self) -> bool {
        self.kind == Kind::ObservedLocks
    }

    /// The harness spec the untraced runs go through.
    pub fn spec(&self) -> RunSpec {
        let spec = RunSpec::new(ProtocolKind::BitarDespain)
            .procs(self.procs)
            .max_cycles(MAX_CYCLES);
        if self.observed() {
            spec.histograms()
                .timeline(DEFAULT_WINDOW)
                .watchdog(WatchdogConfig::default())
                .bounded_trace(TRACE_RING)
        } else {
            spec
        }
    }

    /// The `SystemConfig` [`Self::spec`] builds, for the runs that must
    /// construct the system themselves (set-up timing, the traced run).
    /// The traced run's digests equal the untraced ones only if the two
    /// agree.
    pub fn system_config(&self) -> SystemConfig {
        let cache = CacheConfig::fully_associative(CACHE_BLOCKS, WORDS_PER_BLOCK)
            .expect("64 fully associative 4-word blocks is a valid geometry");
        let cfg = SystemConfig::new(self.procs)
            .with_cache(cache)
            .with_engine(EngineMode::default());
        if self.observed() {
            cfg.with_histograms(true)
                .with_timeline(DEFAULT_WINDOW)
                .with_watchdog(WatchdogConfig::default())
                .with_trace(true)
                .with_trace_capacity(TRACE_RING)
        } else {
            cfg
        }
    }

    /// observed_locks' JSONL sink, writing into a digesting discard
    /// writer; `None` for the other workloads.
    pub fn sink(&self) -> Option<(Box<dyn EventSink>, DigestWriter)> {
        self.observed().then(|| {
            let out = DigestWriter::default();
            let meta = RunMeta::new()
                .with_str("workload", self.kind.name())
                .with_str("protocol", ProtocolKind::BitarDespain.id())
                .with_str("scheme", LockSchemeKind::CacheLock.id())
                .with_u64("procs", self.procs as u64)
                .with_u64("seed", self.seed);
            (
                Box::new(JsonlSink::new(out.clone(), &meta)) as Box<dyn EventSink>,
                out,
            )
        })
    }

    /// Builds everything a run needs before its first simulated cycle —
    /// program, system and sink — and drops it: the set-up cost.
    pub fn set_up(&self) {
        let program = self.program();
        let sink = self.sink();
        let mut sys = System::new(BitarDespain, self.system_config()).expect("valid system");
        if let Some((sink, _)) = sink {
            sys.add_sink(sink);
        }
        std::hint::black_box((&sys, &program));
    }

    /// Checks a finished run against what the workload must do, whatever
    /// the seed.
    pub fn check(&self, out: &RunOutput) -> Result<(), String> {
        if let Some(e) = &out.error {
            return Err(format!("simulation error: {e}"));
        }
        if !out.completed {
            return Err("run did not complete before the cycle ceiling".into());
        }
        let s = &out.stats;
        match &out.program {
            Program::Random(_) => {
                let want = (self.procs * DENSE_REFS_PER_PROC) as u64;
                if s.total_refs() != want {
                    return Err(format!(
                        "retired {} references, expected {want}",
                        s.total_refs()
                    ));
                }
            }
            Program::Locks(w) => {
                let want = (self.procs * self.iterations()) as u64;
                if w.completed_sections() != want
                    || s.locks.acquires != want
                    || s.locks.releases != want
                {
                    return Err(format!(
                        "sections/acquires/releases {}/{}/{}, expected {want} each",
                        w.completed_sections(),
                        s.locks.acquires,
                        s.locks.releases
                    ));
                }
                // Section E.4: with the busy-wait register no unsuccessful
                // retry ever reaches the bus.
                if s.bus.retries != 0 {
                    return Err(format!(
                        "{} bus retries under the cache-state lock",
                        s.bus.retries
                    ));
                }
            }
        }
        if self.observed() {
            let stream = out
                .stream
                .as_ref()
                .ok_or("observed run has no JSONL stream")?;
            // Header line plus one line per event; the trace ring saw the
            // same events, kept or dropped.
            if stream.lines != 1 + out.trace_len as u64 + out.trace_dropped {
                return Err(format!(
                    "JSONL has {} lines but the trace ring saw {} events",
                    stream.lines,
                    out.trace_len as u64 + out.trace_dropped
                ));
            }
            if out.watchdog_checks == 0 {
                return Err("watchdog armed but never checked".into());
            }
        }
        Ok(())
    }
}

/// What one single run produced, from either the untraced or the traced
/// path.
pub struct RunOutput {
    /// The workload program after the run.
    pub program: Program,
    /// Final statistics.
    pub stats: Stats,
    /// Whether every processor finished.
    pub completed: bool,
    /// The error that ended the run, if any.
    pub error: Option<String>,
    /// The JSONL stream's digest and counts (observed_locks only).
    pub stream: Option<StreamSummary>,
    /// Events kept by the trace ring.
    pub trace_len: usize,
    /// Events the trace ring dropped.
    pub trace_dropped: u64,
    /// Watchdog checks performed.
    pub watchdog_checks: u64,
}

impl RunOutput {
    /// Digest of the run's outputs: `Stats`, plus the JSONL stream when
    /// there is one.
    pub fn digest(&self) -> u64 {
        let stats = digest::of_debug(&self.stats);
        match &self.stream {
            Some(s) => digest::of_str(&format!("{stats:016x}{:016x}", s.digest)),
            None => stats,
        }
    }
}

/// One untraced run through [`RunSpec::try_run`], and its wall seconds
/// (system construction, simulation and output collection; the program
/// and sink are built before the clock starts).
pub fn run_untraced(single: &Single) -> (RunOutput, f64) {
    let spec = single.spec();
    let mut program = single.program();
    let (sink, stream) = single.sink().unzip();
    let (run, wall): (HarnessRun, f64) = crate::measure::timed(|| spec.try_run(&mut program, sink));
    let out = RunOutput {
        program,
        stats: run.stats,
        completed: run.completed,
        error: run.error.map(|e| e.to_string()),
        stream: stream.map(|s| s.summary()),
        trace_len: run.trace_len,
        trace_dropped: run.trace_dropped,
        watchdog_checks: run.watchdog.map_or(0, |w| w.checks),
    };
    (out, wall)
}

/// The suite's set-up: one system per protocol, at the geometry and
/// processor count most of its cells use, with the critical-section
/// program they run. This is the run-construction cost the suite pays per
/// cell, ten times over.
pub fn set_up_suite() {
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() {
            1
        } else {
            WORDS_PER_BLOCK
        };
        let cache =
            CacheConfig::fully_associative(CACHE_BLOCKS, words).expect("valid cache geometry");
        let program = CriticalSectionWorkload::builder()
            .words_per_block(words)
            .build();
        with_protocol!(kind, p => {
            let sys = System::new(p, SystemConfig::new(4).with_cache(cache)).expect("valid system");
            std::hint::black_box((&sys, &program));
        });
    }
}
