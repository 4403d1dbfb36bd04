//! Engine benchmark: measures what the event-driven time-skipping engine
//! and the threaded sweep runner buy over the original configuration
//! (cycle-accurate stepping, serial grid loops), and writes the numbers to
//! `BENCH_engine.json`.
//!
//! Two kinds of measurement:
//!
//! * **Workload throughput** — simulated cycles per wall second for one
//!   representative run of each workload family (critical-section,
//!   random-sharing, producer-consumer), before (cycle-accurate) and
//!   after (event-driven). Both modes produce bit-identical statistics
//!   (asserted here and in `crates/sim/tests/equivalence.rs`); only wall
//!   time differs. Dense-event workloads (random sharing, in-cache spin
//!   loops) see little gain — the engine targets compute- and
//!   wait-dominated phases, where it skips straight between events.
//! * **Sweep wall-clock** — the E2 (locking cost) and E3 (efficient busy
//!   wait) experiment grids at benchmark scale: the same contenders and
//!   sweep axes, with think time and iterations raised so every grid
//!   point simulates ~0.5M cycles and the compute/synchronization ratio
//!   resembles real critical-section code rather than the deliberately
//!   contention-heavy test settings. "Before" runs the grid serially on
//!   the cycle-accurate engine; "after" runs it on the event-driven
//!   engine fanned out over `sweep` threads.
//! * **Observability overhead** — the critical-section throughput run
//!   with the observability stack disabled, with histograms + timeline
//!   enabled, and with full JSONL event serialization; written to
//!   `BENCH_obs.json`. The disabled configuration must stay within noise
//!   of the pre-observability engine.
//! * **Hot path** — event-driven throughput of each workload family
//!   against the recorded pre-overhaul (PR 3) numbers, written to
//!   `BENCH_hotpath.json`. This is the benchmark for the SoA cache
//!   arrays, the holder-bitmask snoop filter, lazy event construction
//!   and the compiled-out debug checks (build this crate alone —
//!   `-p mcs-bench` — so the `debug-checks` feature stays off).
//!
//! Reproduce with `cargo run --release -p mcs-bench --bin bench_engine`.
//! With `--smoke [path]` it instead runs a quick perf smoke against the
//! committed `BENCH_hotpath.json`: re-measures the event-dense
//! random-sharing workload and exits nonzero if throughput falls below
//! **half** the recorded figure (a generous floor — it catches order-of-
//! magnitude regressions, not machine-to-machine noise).

use mcs_bench::experiments::{e2_locking, e3_busywait, run_cs};
use mcs_bench::harness::{time, RunSpec};
use mcs_bench::sweep;
use mcs_core::ProtocolKind;
use mcs_obs::{EventSink, JsonlSink, RunMeta};
use mcs_sim::faults::{FaultPlan, WatchdogConfig};
use mcs_sim::EngineMode;
use mcs_sync::LockSchemeKind;
use mcs_workloads::{
    CriticalSectionWorkload, ProducerConsumerWorkload, RandomSharingConfig, RandomSharingWorkload,
};

/// Think time for benchmark-scale critical sections. The stock E2/E3 test
/// settings (think 10-30) maximize contention to make the paper's claims
/// visible; for engine throughput we want sections embedded in realistic
/// stretches of compute, which is exactly the regime time skipping serves.
const BENCH_THINK: u64 = 3_000;

struct Measurement {
    name: &'static str,
    detail: String,
    sim_cycles: u64,
    before_s: f64,
    after_s: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.before_s / self.after_s
    }
}

// ---- workload throughput ------------------------------------------------

/// The throughput critical-section workload (also the obs-overhead one).
fn cs_bench_workload() -> CriticalSectionWorkload {
    CriticalSectionWorkload::builder()
        .scheme(LockSchemeKind::CacheLock)
        .words_per_block(4)
        .locks(1)
        .payload_blocks(1)
        .payload_reads(2)
        .payload_writes(2)
        .think_cycles(BENCH_THINK)
        .iterations(500)
        .build()
}

fn critical_section(mode: EngineMode) -> u64 {
    let mut w = cs_bench_workload();
    RunSpec::new(ProtocolKind::BitarDespain).engine(mode).run(&mut w, None).stats.cycles
}

fn random_sharing_workload(refs_per_proc: usize) -> RandomSharingWorkload {
    RandomSharingWorkload::new(RandomSharingConfig { refs_per_proc, ..Default::default() })
}

fn random_sharing(mode: EngineMode) -> u64 {
    let mut w = random_sharing_workload(100_000);
    RunSpec::new(ProtocolKind::BitarDespain).engine(mode).run(&mut w, None).stats.cycles
}

fn producer_consumer(mode: EngineMode) -> u64 {
    let mut w = ProducerConsumerWorkload::new(10_000, 3, 100);
    RunSpec::new(ProtocolKind::BitarDespain).engine(mode).run(&mut w, None).stats.cycles
}

fn measure_workload(
    name: &'static str,
    detail: &str,
    run: impl Fn(EngineMode) -> u64,
) -> Measurement {
    let (before_cycles, before_s) = time(|| run(EngineMode::CycleAccurate));
    let (after_cycles, after_s) = time(|| run(EngineMode::EventDriven));
    assert_eq!(before_cycles, after_cycles, "{name}: engine modes must agree on cycles");
    Measurement { name, detail: detail.to_string(), sim_cycles: after_cycles, before_s, after_s }
}

// ---- sweep wall-clock ---------------------------------------------------

/// One E2-shaped grid point at benchmark scale; returns simulated cycles.
fn e2_point(&(kind, scheme): &(ProtocolKind, LockSchemeKind), mode: EngineMode) -> u64 {
    run_cs(RunSpec::new(kind).engine(mode), scheme, |b| {
        b.locks(1)
            .payload_blocks(1)
            .payload_reads(2)
            .payload_writes(2)
            .think_cycles(BENCH_THINK)
            .iterations(400)
    })
    .stats
    .cycles
}

/// One E3-shaped grid point at benchmark scale; returns simulated cycles.
fn e3_point(&(kind, scheme, procs): &(ProtocolKind, LockSchemeKind, usize), mode: EngineMode) -> u64 {
    run_cs(RunSpec::new(kind).procs(procs).engine(mode), scheme, |b| {
        b.locks(1)
            .payload_blocks(1)
            .payload_reads(1)
            .payload_writes(2)
            .think_cycles(BENCH_THINK)
            .iterations(150)
    })
    .stats
    .cycles
}

/// The E3 scheme x processor grid.
fn e3_grid() -> Vec<(ProtocolKind, LockSchemeKind, usize)> {
    let contenders = [
        (ProtocolKind::BitarDespain, LockSchemeKind::CacheLock),
        (ProtocolKind::Illinois, LockSchemeKind::TestAndSet),
        (ProtocolKind::Illinois, LockSchemeKind::TestAndTestAndSet),
    ];
    contenders
        .iter()
        .flat_map(|&(kind, scheme)| {
            e3_busywait::PROC_SWEEP.iter().map(move |&procs| (kind, scheme, procs))
        })
        .collect()
}

/// Times a grid twice: "before" is the original configuration (a serial
/// loop on the cycle-accurate engine), "after" the event-driven engine
/// fanned out over `sweep` threads. Both sum the points' simulated cycles.
fn measure_sweep<P: Sync>(
    name: &'static str,
    detail: &str,
    grid: &[P],
    point: impl Fn(&P, EngineMode) -> u64 + Sync,
) -> Measurement {
    let (before_cycles, before_s) =
        time(|| grid.iter().map(|p| point(p, EngineMode::CycleAccurate)).sum::<u64>());
    let (after_cycles, after_s) = time(|| {
        sweep::sweep(grid, |_, p| point(p, EngineMode::EventDriven)).into_iter().sum::<u64>()
    });
    assert_eq!(before_cycles, after_cycles, "{name}: engine modes must agree on cycles");
    Measurement { name, detail: detail.to_string(), sim_cycles: after_cycles, before_s, after_s }
}

// ---- observability overhead ---------------------------------------------

/// One observability configuration for the overhead benchmark.
#[derive(Clone, Copy)]
enum ObsConfig {
    /// No sinks, no histograms, no timeline — the default simulator path.
    Disabled,
    /// Histograms + interval timeline, no event serialization.
    HistogramsOnly,
    /// Full JSONL serialization of every event (written to a discarding
    /// sink, so this times serialization, not the filesystem).
    JsonlSink,
}

impl ObsConfig {
    fn name(self) -> &'static str {
        match self {
            ObsConfig::Disabled => "disabled",
            ObsConfig::HistogramsOnly => "histograms_timeline",
            ObsConfig::JsonlSink => "jsonl_sink",
        }
    }
}

/// The critical-section throughput workload under one obs configuration.
fn obs_workload(config: ObsConfig) -> u64 {
    let mut w = cs_bench_workload();
    let mut spec = RunSpec::new(ProtocolKind::BitarDespain);
    if matches!(config, ObsConfig::HistogramsOnly | ObsConfig::JsonlSink) {
        spec = spec.histograms().timeline(1_000);
    }
    let sink: Option<Box<dyn EventSink>> = matches!(config, ObsConfig::JsonlSink)
        .then(|| Box::new(JsonlSink::new(std::io::sink(), &RunMeta::new())) as Box<dyn EventSink>);
    spec.run(&mut w, sink).stats.cycles
}

struct ObsMeasurement {
    name: &'static str,
    sim_cycles: u64,
    wall_s: f64,
}

/// Times each observability configuration over `reps` runs, keeping the
/// fastest wall time (minimum is the standard robust estimator for
/// CPU-bound microbenchmarks).
fn measure_obs_overhead(reps: usize) -> Vec<ObsMeasurement> {
    let configs =
        [ObsConfig::Disabled, ObsConfig::HistogramsOnly, ObsConfig::JsonlSink];
    configs
        .iter()
        .map(|&config| {
            let mut best = f64::INFINITY;
            let mut cycles = 0;
            for _ in 0..reps {
                let (c, s) = time(|| obs_workload(config));
                cycles = c;
                best = best.min(s);
            }
            ObsMeasurement { name: config.name(), sim_cycles: cycles, wall_s: best }
        })
        .collect()
}

fn obs_json_entry(m: &ObsMeasurement, baseline_s: f64) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{}\",\n",
            "      \"sim_cycles\": {},\n",
            "      \"wall_s\": {:.6},\n",
            "      \"cycles_per_wall_s\": {:.0},\n",
            "      \"overhead_vs_disabled\": {:.4}\n",
            "    }}"
        ),
        m.name,
        m.sim_cycles,
        m.wall_s,
        m.sim_cycles as f64 / m.wall_s,
        m.wall_s / baseline_s - 1.0,
    )
}

// ---- hot path vs recorded baseline --------------------------------------

/// Event-driven throughput recorded by the PR 3 binary (the
/// `after_cycles_per_wall_s` column of its committed `BENCH_engine.json`),
/// before the SoA cache arrays, the holder-bitmask snoop filter, lazy
/// event construction and the compiled-out debug checks.
const HOTPATH_BASELINE: [(&str, f64); 3] = [
    ("critical_section", 862_902_976.0),
    ("random_sharing", 4_958_493.0),
    ("producer_consumer", 6_840_910.0),
];

struct HotpathMeasurement {
    name: &'static str,
    sim_cycles: u64,
    wall_s: f64,
    baseline: f64,
}

impl HotpathMeasurement {
    fn throughput(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_s
    }

    fn speedup(&self) -> f64 {
        self.throughput() / self.baseline
    }
}

/// Times `run` on the event-driven engine over `reps` repetitions, keeping
/// the fastest wall time.
fn measure_hotpath(
    name: &'static str,
    reps: usize,
    run: impl Fn(EngineMode) -> u64,
) -> HotpathMeasurement {
    let baseline = HOTPATH_BASELINE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, b)| b)
        .expect("baseline recorded for every hotpath workload");
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..reps {
        let (c, s) = time(|| run(EngineMode::EventDriven));
        cycles = c;
        best = best.min(s);
    }
    HotpathMeasurement { name, sim_cycles: cycles, wall_s: best, baseline }
}

fn hotpath_json_entry(m: &HotpathMeasurement) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{}\",\n",
            "      \"sim_cycles\": {},\n",
            "      \"wall_s\": {:.6},\n",
            "      \"cycles_per_wall_s\": {:.0},\n",
            "      \"baseline_cycles_per_wall_s\": {:.0},\n",
            "      \"speedup_vs_baseline\": {:.2}\n",
            "    }}"
        ),
        m.name,
        m.sim_cycles,
        m.wall_s,
        m.throughput(),
        m.baseline,
        m.speedup(),
    )
}

/// The critical-section throughput run with the robustness layer off vs
/// armed-but-inert (an all-zero fault plan plus the default watchdog):
/// `(off_wall_s, armed_wall_s)` over `reps`, fastest each. The armed run
/// is bit-identical (pinned by the equivalence suite); this measures that
/// it is also free, within noise.
fn measure_fault_layer_overhead(reps: usize) -> (f64, f64) {
    let run = |robust: bool| {
        let mut w = cs_bench_workload();
        let mut spec = RunSpec::new(ProtocolKind::BitarDespain);
        if robust {
            spec = spec.faults(FaultPlan::new(0)).watchdog(WatchdogConfig::default());
        }
        spec.run(&mut w, None).stats.cycles
    };
    let mut off = f64::INFINITY;
    let mut armed = f64::INFINITY;
    for _ in 0..reps {
        off = off.min(time(|| run(false)).1);
        armed = armed.min(time(|| run(true)).1);
    }
    (off, armed)
}

fn run_hotpath_section(path: &str) {
    let measurements = vec![
        measure_hotpath("critical_section", 5, critical_section),
        measure_hotpath("random_sharing", 3, random_sharing),
        measure_hotpath("producer_consumer", 3, producer_consumer),
    ];
    for m in &measurements {
        println!(
            "  hotpath  {:>18}: {:>9} cycles  wall {:.3}s  {:>12.0} cycles/s  vs PR3 {:.2}x",
            m.name,
            m.sim_cycles,
            m.wall_s,
            m.throughput(),
            m.speedup(),
        );
    }
    let (off_s, armed_s) = measure_fault_layer_overhead(5);
    let overhead = armed_s / off_s - 1.0;
    println!(
        "  faults   {:>18}: off {:.3}s  inert+watchdog {:.3}s  overhead {:+.2}%",
        "critical_section", off_s, armed_s, 100.0 * overhead,
    );
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"baseline\": \"PR 3 event-driven engine (BENCH_engine.json after_cycles_per_wall_s)\",\n",
    );
    out.push_str(
        "  \"reproduce\": \"cargo run --release -p mcs-bench --bin bench_engine\",\n",
    );
    out.push_str("  \"workloads\": [\n");
    let entries: Vec<String> = measurements.iter().map(hotpath_json_entry).collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        concat!(
            "  \"fault_layer\": {{\n",
            "    \"workload\": \"critical_section\",\n",
            "    \"off_wall_s\": {:.6},\n",
            "    \"inert_armed_wall_s\": {:.6},\n",
            "    \"overhead\": {:.4}\n",
            "  }}\n"
        ),
        off_s, armed_s, overhead,
    ));
    out.push_str("}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

// ---- perf smoke ----------------------------------------------------------

/// Pulls `"cycles_per_wall_s"` for the named workload out of a
/// `BENCH_hotpath.json` (hand-rolled to keep the workspace free of a JSON
/// dependency; the file is generated by this same binary, so the shape is
/// known).
fn recorded_throughput(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let key = "\"cycles_per_wall_s\": ";
    let rest = &json[at..];
    let tail = &rest[rest.find(key)? + key.len()..];
    let end = tail.find(|c: char| !c.is_ascii_digit() && c != '.')?;
    tail[..end].parse().ok()
}

/// Quick perf smoke for CI: re-measure the event-dense random-sharing
/// workload and fail if throughput drops below half the recorded
/// `BENCH_hotpath.json` figure. Exits the process.
fn run_smoke(path: &str) -> ! {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("smoke: cannot read {path}: {e}"));
    let recorded = recorded_throughput(&json, "random_sharing")
        .unwrap_or_else(|| panic!("smoke: no random_sharing cycles_per_wall_s in {path}"));
    let floor = recorded / 2.0;
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..3 {
        let (c, s) = time(|| random_sharing(EngineMode::EventDriven));
        cycles = c;
        best = best.min(s);
    }
    let measured = cycles as f64 / best;
    println!(
        "perf smoke: random_sharing {measured:.0} cycles/wall-s (recorded {recorded:.0}, floor {floor:.0})"
    );
    if measured < floor {
        eprintln!("perf smoke FAILED: event-dense throughput below half the recorded baseline");
        std::process::exit(1);
    }
    println!("perf smoke passed");
    std::process::exit(0);
}

// ---- report -------------------------------------------------------------

fn json_entry(m: &Measurement) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{}\",\n",
            "      \"detail\": \"{}\",\n",
            "      \"sim_cycles\": {},\n",
            "      \"before_wall_s\": {:.6},\n",
            "      \"after_wall_s\": {:.6},\n",
            "      \"before_cycles_per_wall_s\": {:.0},\n",
            "      \"after_cycles_per_wall_s\": {:.0},\n",
            "      \"speedup\": {:.2}\n",
            "    }}"
        ),
        m.name,
        m.detail,
        m.sim_cycles,
        m.before_s,
        m.after_s,
        m.sim_cycles as f64 / m.before_s,
        m.sim_cycles as f64 / m.after_s,
        m.speedup(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--smoke") {
        let path = args.get(2).cloned().unwrap_or_else(|| "BENCH_hotpath.json".to_string());
        run_smoke(&path);
    }

    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!("engine benchmark: before = cycle-accurate + serial sweep, after = event-driven + {threads}-thread sweep");

    let workloads = vec![
        measure_workload(
            "critical_section",
            "Bitar-Despain cache lock, 4 procs, think 3000, 500 iterations",
            critical_section,
        ),
        measure_workload(
            "random_sharing",
            "Smith-calibrated random sharing, 4 procs, 100k refs/proc (event-dense)",
            random_sharing,
        ),
        measure_workload(
            "producer_consumer",
            "binding passing, 2 pairs, 10k rounds, produce 100 (consumer spins in cache)",
            producer_consumer,
        ),
    ];
    for m in &workloads {
        println!(
            "  workload {:>18}: {:>9} cycles  before {:.3}s  after {:.3}s  speedup {:.1}x",
            m.name, m.sim_cycles, m.before_s, m.after_s, m.speedup()
        );
    }

    let sweeps = vec![
        measure_sweep(
            "e2_locking_sweep",
            "E2 contender grid (4 points), benchmark scale: think 3000, 400 iterations",
            &e2_locking::CONTENDERS,
            e2_point,
        ),
        measure_sweep(
            "e3_busywait_sweep",
            "E3 scheme x processor grid (12 points), benchmark scale: think 3000, 150 iterations",
            &e3_grid(),
            e3_point,
        ),
    ];
    for m in &sweeps {
        println!(
            "  sweep    {:>18}: {:>9} cycles  before {:.3}s  after {:.3}s  speedup {:.1}x",
            m.name, m.sim_cycles, m.before_s, m.after_s, m.speedup()
        );
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(
        "  \"before\": \"cycle-accurate engine, serial grid\",\n  \"after\": \"event-driven engine, threaded sweep\",\n",
    );
    out.push_str(
        "  \"reproduce\": \"cargo run --release -p mcs-bench --bin bench_engine\",\n",
    );
    out.push_str("  \"workloads\": [\n");
    let entries: Vec<String> = workloads.iter().map(json_entry).collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ],\n  \"sweeps\": [\n");
    let entries: Vec<String> = sweeps.iter().map(json_entry).collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ]\n}\n");

    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_engine.json".to_string());
    std::fs::write(&path, out).expect("write BENCH_engine.json");
    println!("wrote {path}");

    // Observability overhead: the same critical-section throughput run with
    // the obs stack disabled, with histograms + timeline, and with full
    // JSONL serialization. The disabled configuration is the guarded-out
    // path every normal experiment takes; it must stay within noise of the
    // pre-observability engine (the guards are an empty-Vec check and two
    // `Option` branches per event).
    let obs = measure_obs_overhead(3);
    let baseline_s = obs[0].wall_s;
    for m in &obs {
        println!(
            "  obs      {:>18}: {:>9} cycles  wall {:.3}s  {:>12.0} cycles/s  overhead {:+.2}%",
            m.name,
            m.sim_cycles,
            m.wall_s,
            m.sim_cycles as f64 / m.wall_s,
            100.0 * (m.wall_s / baseline_s - 1.0),
        );
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"workload\": \"Bitar-Despain cache lock, 4 procs, think 3000, 500 iterations, event-driven engine\",\n",
    );
    out.push_str(
        "  \"reproduce\": \"cargo run --release -p mcs-bench --bin bench_engine\",\n",
    );
    out.push_str("  \"configs\": [\n");
    let entries: Vec<String> = obs.iter().map(|m| obs_json_entry(m, baseline_s)).collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ]\n}\n");
    let obs_path = std::env::args().nth(2).unwrap_or_else(|| "BENCH_obs.json".to_string());
    std::fs::write(&obs_path, out).expect("write BENCH_obs.json");
    println!("wrote {obs_path}");

    // Hot path: event-driven throughput of each workload family against
    // the recorded PR 3 figures (this section is what `--smoke` checks a
    // committed result of).
    let hotpath_path =
        std::env::args().nth(3).unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    run_hotpath_section(&hotpath_path);
}
