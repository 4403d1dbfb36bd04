//! Benchmark of the mcs simulator: four workloads through the public API,
//! end-to-end metrics untraced, per-layer metrics from a separate traced
//! run. See `README.md` beside this crate for the workloads, metrics and
//! output; `run.py` builds this binary and runs it.
//!
//! Usage: `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Every line but the last is a human-readable report (prefixed `#`); the
//! last line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod digest;
mod golden;
mod heap;
mod measure;
mod suite;
mod traced;
mod workloads;

use measure::{median, timed, Calibrator, HostSample, NoiseRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use traced::TracedRun;
use workloads::{run_untraced, Kind, Single, Work, REFERENCE_SEED, SUITE_WORK};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-up is timed this many times per run; `setup_s` is the median.
const SETUP_SAMPLES: usize = 21;
/// Wall seconds one set-up sample aims for. A set-up takes microseconds,
/// so a sample times a batch of them, long enough for its own
/// calibration to be meaningful.
const SETUP_SAMPLE_S: f64 = 0.01;
/// Timed repetitions a run makes even when `--seconds` is already used up.
const MIN_REPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Operations attempted and failed, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one operation: its value when it succeeded; otherwise
    /// prints the reason.
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                println!("# FAILED {what}: {why}");
                None
            }
        }
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("panicked: {msg}")
    })
}

/// Requires `got` to equal the first value seen in `first`.
fn same_as_first(first: &mut Option<u64>, got: u64, what: &str) -> Result<(), String> {
    match *first {
        None => {
            *first = Some(got);
            Ok(())
        }
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "{what} digest {got:016x} differs from the run's first {want:016x}"
        )),
    }
}

/// Metric values in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// `n / d`, or 0 when nothing was counted.
fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

/// Times [`SETUP_SAMPLES`] batches of set-ups, each calibrated on its
/// own; calibrated seconds per set-up.
fn setup_samples(cal: &mut Calibrator, set_up: impl Fn()) -> Vec<f64> {
    const PROBE: u32 = 16;
    set_up();
    let probe = timed(|| (0..PROBE).for_each(|_| set_up())).1 / f64::from(PROBE);
    let batch = (SETUP_SAMPLE_S / probe.max(1e-9)).clamp(1.0, 1e6) as u32;
    (0..SETUP_SAMPLES)
        .map(|_| {
            let (wall, f) = cal.around(|| timed(|| (0..batch).for_each(|_| set_up())).1);
            wall * f / f64::from(batch)
        })
        .collect()
}

/// Loops `rep` until `budget` has passed and at least [`MIN_REPS`]
/// repetitions were made.
fn repeat_for(budget: Duration, mut rep: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed() < budget {
        rep();
        reps += 1;
    }
}

/// Timed repetitions of an untraced run: calibrated and raw wall
/// seconds, and peak live heap.
#[derive(Default)]
struct Walls {
    calibrated: Vec<f64>,
    raw: Vec<f64>,
    heap_mb: Vec<f64>,
}

impl Walls {
    fn push(&mut self, wall: f64, factor: f64, heap_mb: f64) {
        self.calibrated.push(wall * factor);
        self.raw.push(wall);
        self.heap_mb.push(heap_mb);
    }
}

fn end_to_end(m: &mut Metrics, work: Work, walls: &Walls, setups: &[f64], tally: &Tally) {
    let wall = median(&walls.calibrated);
    let heap_mb = median(&walls.heap_mb);
    println!("# {}", measure::describe("raw wall_s", &walls.raw));
    println!("# {}", measure::describe("wall_s", &walls.calibrated));
    println!("# {}", measure::describe("setup_s", setups));
    let walls = &walls.calibrated;
    if let Some((p, slow)) = measure::tail(walls) {
        println!(
            "# refs_per_s at the p{p} wall time: {:.0} (median {:.0}); rates are work per median wall",
            work.refs as f64 / slow,
            work.refs as f64 / wall
        );
    }
    println!(
        "# work per repetition: refs={} bus_txns={} cycles={}",
        work.refs, work.txns, work.cycles
    );
    m.put("refs_per_s", work.refs as f64 / wall, "1/s");
    m.put("bus_txns_per_s", work.txns as f64 / wall, "1/s");
    m.put("sim_cycles_per_s", work.cycles as f64 / wall, "1/s");
    m.put("wall_s", wall, "s");
    m.put("setup_s", median(setups), "s");
    m.put("peak_heap_mb", heap_mb, "MiB");
    m.put(
        "ok_frac",
        1.0 - ratio(tally.failed as f64, tally.attempted as f64),
        "frac",
    );
}

/// dense_sharing, lock_handoff or observed_locks, untraced.
fn single_end_to_end(args: &Args, cal: &mut Calibrator, tally: &mut Tally, m: &mut Metrics) {
    let single = Single::new(args.kind, args.seed);
    let setups = setup_samples(cal, || single.set_up());

    // The golden check doubles as the warm-up repetition.
    let reference = Single::new(args.kind, REFERENCE_SEED);
    let golden = golden::single(args.kind);
    tally.record(
        "golden check",
        guarded(|| run_untraced(&reference)).and_then(|(out, _)| {
            reference.check(&out)?;
            match out.digest() {
                d if d == golden => Ok(()),
                d => Err(format!(
                    "digest {d:016x} at seed {REFERENCE_SEED}, golden {golden:016x}"
                )),
            }
        }),
    );

    let mut walls = Walls::default();
    let mut noise = NoiseRecord::default();
    let mut first = None;
    let mut work = Work::default();
    repeat_for(args.seconds, || {
        let ((result, delta, heap_mb), f) = cal.around(|| {
            let before = HostSample::now();
            let (result, heap_mb) = heap::peak_during(|| guarded(|| run_untraced(&single)));
            (result, HostSample::now().since(&before), heap_mb)
        });
        let checked = result.and_then(|(out, wall)| {
            single.check(&out)?;
            same_as_first(&mut first, out.digest(), "output")?;
            Ok((Work::of(&out.stats), wall))
        });
        if let Some((w, wall)) = tally.record("repetition", checked) {
            work = w;
            walls.push(wall, f, heap_mb);
            noise.push(wall, delta);
        }
    });
    println!("# {}", noise.describe());
    if let Some(d) = first {
        println!("# output digest at seed {}: {d:016x}", args.seed);
    }
    end_to_end(m, work, &walls, &setups, tally);
}

/// Counts one suite pass's experiments; true when all passed.
fn tally_pass(tally: &mut Tally, pass: &suite::Pass) -> bool {
    for (i, why) in &pass.failures {
        tally.record::<()>(&format!("E{}", i + 1), Err(why.clone()));
    }
    for _ in pass.failures.len()..suite::RUNNERS.len() {
        tally.record("experiment", Ok(()));
    }
    pass.failures.is_empty()
}

/// experiment_suite, untraced.
fn suite_end_to_end(args: &Args, cal: &mut Calibrator, tally: &mut Tally, m: &mut Metrics) {
    let setups = setup_samples(cal, workloads::set_up_suite);
    // Warm-up pass, checked like the others.
    tally_pass(tally, &suite::run_pass());
    let mut walls = Walls::default();
    let mut noise = NoiseRecord::default();
    repeat_for(args.seconds, || {
        let ((pass, delta, heap_mb), f) = cal.around(|| {
            let before = HostSample::now();
            let (pass, heap_mb) = heap::peak_during(suite::run_pass);
            (pass, HostSample::now().since(&before), heap_mb)
        });
        if tally_pass(tally, &pass) {
            walls.push(pass.wall(), f, heap_mb);
            noise.push(pass.wall(), delta);
        }
    });
    println!(
        "# {} (thread_* is the main thread; sweep workers show in process_cpu_ticks)",
        noise.describe()
    );
    end_to_end(m, SUITE_WORK, &walls, &setups, tally);
}

/// Medians of the traced repetitions of one workload.
#[derive(Default)]
struct TracedSamples {
    wall: Vec<f64>,
    new: Vec<f64>,
    sim_self: Vec<f64>,
    protocol: Vec<f64>,
    workload: Vec<f64>,
    record: Vec<f64>,
}

impl TracedSamples {
    /// Records `t`'s times, scaled to calibrated seconds by `f`.
    fn push(&mut self, t: &TracedRun, f: f64) {
        self.wall.push(t.wall_s * f);
        self.new.push(t.new_s * f);
        self.sim_self.push(t.sim_self_s() * f);
        self.protocol.push(t.probes.protocol_secs() * f);
        self.workload.push(t.probes.workload_secs() * f);
        self.record.push(t.probes.record.secs() * f);
    }
}

/// Call counts of every boundary, to require identical counts across
/// repetitions.
fn call_counts(t: &TracedRun) -> u64 {
    let p = &t.probes;
    let counts = [
        p.proc_access.calls(),
        p.snoop.calls(),
        p.complete.calls(),
        p.evict.calls(),
        p.useful_snoops(),
        p.next.calls(),
        p.retire.calls(),
        p.lock_wait.calls(),
        p.record.calls(),
    ];
    digest::of_debug(&counts)
}

/// Traced section of one single-run workload: untraced and traced
/// repetitions alternate, so `trace.overhead_frac` compares like with
/// like.
fn traced_single(
    kind: Kind,
    seed: u64,
    budget: Duration,
    cal: &mut Calibrator,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let single = Single::new(kind, seed);
    let name = kind.name();
    let mut untraced_walls = Vec::new();
    let mut samples = TracedSamples::default();
    let mut first = None;
    let mut first_counts = None;
    let mut last: Option<TracedRun> = None;
    repeat_for(budget, || {
        let (untraced, f) = cal.around(|| guarded(|| run_untraced(&single)));
        let untraced = untraced.and_then(|(out, wall)| {
            single.check(&out)?;
            same_as_first(&mut first, out.digest(), "untraced output")?;
            Ok(wall * f)
        });
        if let Some(wall) = tally.record(&format!("{name} untraced"), untraced) {
            untraced_walls.push(wall);
        }
        let (traced, f) = cal.around(|| guarded(|| traced::run_traced(&single)));
        let traced = traced.and_then(|t| {
            single.check(&t.out)?;
            same_as_first(&mut first, t.out.digest(), "traced output")?;
            t.reconcile()?;
            same_as_first(&mut first_counts, call_counts(&t), "call counts")?;
            Ok(t)
        });
        if let Some(t) = tally.record(&format!("{name} traced"), traced) {
            samples.push(&t, f);
            last = Some(t);
        }
    });
    let Some(t) = last else { return };
    for line in t.probes.describe() {
        println!("# {name} {line}");
    }
    println!(
        "# {name} {}",
        measure::describe("traced wall_s", &samples.wall)
    );
    let s = &t.out.stats;
    let p = &t.probes;
    let (refs, txns) = (s.total_refs() as f64, s.bus.txns as f64);
    let sim_self = median(&samples.sim_self);
    let mut put = |metric: &str, value: f64, unit: &'static str| {
        m.put(format!("{name}.{metric}"), value, unit)
    };
    put("sim.self_s", sim_self, "s");
    put("sim.self_ns_per_ref", ratio(sim_self * 1e9, refs), "ns");
    put("sim.self_ns_per_txn", ratio(sim_self * 1e9, txns), "ns");
    put("sim.setup_s", median(&samples.new), "s");
    put(
        "protocols.proc_access.calls",
        p.proc_access.calls() as f64,
        "count",
    );
    put("protocols.snoop.calls", p.snoop.calls() as f64, "count");
    put(
        "protocols.complete.calls",
        p.complete.calls() as f64,
        "count",
    );
    put("protocols.evict.calls", p.evict.calls() as f64, "count");
    put("protocols.self_s", median(&samples.protocol), "s");
    put(
        "protocols.snoops_per_txn",
        ratio(p.snoop.calls() as f64, txns),
        "ratio",
    );
    put(
        "protocols.snoop_useful_frac",
        ratio(p.useful_snoops() as f64, p.snoop.calls() as f64),
        "frac",
    );
    put("workloads.next.calls", p.next.calls() as f64, "count");
    put("workloads.complete.calls", p.retire.calls() as f64, "count");
    put("workloads.self_s", median(&samples.workload), "s");
    put(
        "sync.failed_per_acquire",
        t.out.program.failed_per_acquire(s),
        "ratio",
    );
    put("cache.hit_rate", s.hit_rate(), "frac");
    put(
        "cache.misses",
        s.per_proc.iter().map(|p| p.misses).sum::<u64>() as f64,
        "count",
    );
    put("cache.flushes", s.sources.flushes as f64, "count");
    put("cache.invalidations", s.bus.invalidations as f64, "count");
    put("bus.txns", txns, "count");
    put("bus.utilization", s.bus.utilization(s.cycles), "frac");
    put("bus.txns_per_ref", ratio(txns, refs), "ratio");
    put("bus.retries", s.bus.retries as f64, "count");
    put(
        "bus.unlock_broadcasts",
        s.bus.unlock_broadcasts as f64,
        "count",
    );
    put("locks.acquires", s.locks.acquires as f64, "count");
    put(
        "locks.zero_time_frac",
        ratio(s.locks.zero_time_acquires as f64, s.locks.acquires as f64),
        "frac",
    );
    put("locks.denied", s.locks.denied as f64, "count");
    put("locks.mean_wait_cycles", s.locks.mean_wait(), "cycles");
    put(
        "trace.overhead_frac",
        median(&samples.wall) / median(&untraced_walls) - 1.0,
        "frac",
    );
    if kind == Kind::ObservedLocks {
        let events = p.record.calls() as f64;
        let record_s = median(&samples.record);
        let bytes = t.out.stream.as_ref().map_or(0, |s| s.bytes) as f64;
        put("obs.events", events, "count");
        put("obs.record_s", record_s, "s");
        put("obs.ns_per_event", ratio(record_s * 1e9, events), "ns");
        put("obs.bytes_per_event", ratio(bytes, events), "B");
        put("obs.trace_dropped", t.out.trace_dropped as f64, "count");
        put(
            "faults.watchdog_checks",
            t.out.watchdog_checks as f64,
            "count",
        );
    }
}

/// Traced lock_handoff at 4, 16 and 64 processors, equal total work.
fn traced_scaling(
    seed: u64,
    budget: Duration,
    cal: &mut Calibrator,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    for procs in [4, 16, 64] {
        let single = Single::lock_handoff_at(procs, seed);
        let mut per_ref = Vec::new();
        repeat_for(budget / 3, || {
            let (traced, f) = cal.around(|| guarded(|| traced::run_traced(&single)));
            let traced = traced.and_then(|t| {
                single.check(&t.out)?;
                t.reconcile()?;
                Ok(t)
            });
            if let Some(t) = tally.record(&format!("lock_handoff p{procs} traced"), traced) {
                per_ref.push(t.sim_self_s() * f * 1e9 / t.out.stats.total_refs() as f64);
            }
        });
        m.put(
            format!("lock_handoff.sim.self_ns_per_ref.p{procs}"),
            median(&per_ref),
            "ns",
        );
    }
}

/// One span per `eN::run()` over repeated suite passes.
fn traced_suite(budget: Duration, cal: &mut Calibrator, tally: &mut Tally, m: &mut Metrics) {
    let mut spans: Vec<Vec<f64>> = vec![Vec::new(); suite::RUNNERS.len()];
    repeat_for(budget, || {
        let (pass, f) = cal.around(suite::run_pass);
        if tally_pass(tally, &pass) {
            for (i, s) in pass.spans.iter().enumerate() {
                spans[i].push(s * f);
            }
        }
    });
    for (i, s) in spans.iter().enumerate() {
        m.put(format!("suite.e{}_s", i + 1), median(s), "s");
    }
}

/// The traced run: every section, whatever `--workload` names, so every
/// per-layer metric is measured in every traced run; the named workload's
/// section gets half of `--seconds`, the other four share the rest.
fn traced_run(args: &Args, cal: &mut Calibrator, tally: &mut Tally, m: &mut Metrics) {
    let share = |focus: bool| args.seconds.mul_f64(if focus { 0.5 } else { 0.125 });
    for kind in [Kind::DenseSharing, Kind::LockHandoff, Kind::ObservedLocks] {
        traced_single(kind, args.seed, share(args.kind == kind), cal, tally, m);
    }
    traced_suite(share(args.kind == Kind::ExperimentSuite), cal, tally, m);
    traced_scaling(args.seed, share(false), cal, tally, m);
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!("usage: simbench --workload <dense_sharing|lock_handoff|observed_locks|experiment_suite> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# simbench workload={} seed={} seconds={} trace={} nproc={nproc} cpu=\"{}\"",
        args.kind.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        cpu_model()
    );
    let mut cal = Calibrator::default();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let (_, total) = timed(|| match (args.trace, args.kind) {
        (true, _) => traced_run(&args, &mut cal, &mut tally, &mut metrics),
        (false, Kind::ExperimentSuite) => {
            suite_end_to_end(&args, &mut cal, &mut tally, &mut metrics)
        }
        (false, _) => single_end_to_end(&args, &mut cal, &mut tally, &mut metrics),
    });
    println!("# {}", cal.describe());
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            tally.record::<()>(name, Err("metric is not a finite number".into()));
        }
    }
    println!(
        "# finished in {total:.1}s: {} operations, {} failed",
        tally.attempted, tally.failed
    );
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
