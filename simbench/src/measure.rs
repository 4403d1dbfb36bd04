//! Sample summaries and the per-run host noise record.

use std::time::Instant;

/// Times a closure: its result and the elapsed wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median seconds [`calibration_kernel`] takes on the reference host (the
/// 2-core x86-64 host the bounds in `BENCHMARK.json` were set on, when
/// quiet). Calibrated seconds read as seconds on that host.
pub const CALIBRATION_REF_S: f64 = 0.0066;

/// A fixed computation compiled into the benchmark: ordered-map and
/// hash-map updates plus float formatting, from the standard library. Like
/// the simulator it spreads its time over a large amount of branchy code,
/// but it shares none of the simulator's code, so no change to the
/// repository can change its cost. It measures how fast the host is right
/// now. Shared hosts drift by tens of percent over tens of seconds with no
/// steal and no run-queue wait (the noise record shows both); code-heavy
/// programs slow down alike, so the ratio holds still. Kernels built from
/// tight loops (a toy snooping simulation, random array walks) tracked the
/// drift markedly worse.
pub fn calibration_kernel() -> f64 {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, HashMap};
    use std::fmt::Write as _;
    use std::hash::BuildHasherDefault;
    let start = Instant::now();
    let mut ordered = BTreeMap::new();
    // Fixed hash keys: the same table layout in every process.
    let mut hashed: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut text = String::new();
    let mut x: u64 = std::hint::black_box(0x1234_5677);
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 2048;
        *ordered.entry(key).or_insert(0u64) += 1;
        if i % 3 == 0 {
            ordered.remove(&(key ^ 7));
        }
        *hashed.entry(key ^ 3).or_insert(0) += i;
        if i % 4 == 0 {
            text.clear();
            let _ = write!(text, "{:.3} {key}", (x % 1000) as f64 / 7.0);
        }
    }
    std::hint::black_box((ordered.len(), hashed.len(), text.len()));
    start.elapsed().as_secs_f64()
}

/// Turns wall seconds into calibrated seconds: each timed piece of work
/// is bracketed by [`calibration_kernel`] runs, and its wall time scaled
/// by `CALIBRATION_REF_S / mean(kernel before, kernel after)`. Consecutive
/// pieces share the kernel run between them.
#[derive(Debug, Default)]
pub struct Calibrator {
    last: Option<f64>,
    kernels: Vec<f64>,
}

impl Calibrator {
    fn kernel(&mut self) -> f64 {
        let k = calibration_kernel();
        self.kernels.push(k);
        k
    }

    /// Runs `f`; returns its result and the factor that turns wall
    /// seconds measured inside it into calibrated seconds.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = match self.last.take() {
            Some(k) => k,
            None => self.kernel(),
        };
        let r = f();
        let after = self.kernel();
        self.last = Some(after);
        (r, CALIBRATION_REF_S / (0.5 * (before + after)))
    }

    /// One line: the kernel's median time against the reference.
    pub fn describe(&self) -> String {
        let k = median(&self.kernels);
        format!(
            "calibration: kernel median={:.3}ms n={} reference={:.3}ms host speed={:.3}x reference",
            k * 1e3,
            self.kernels.len(),
            CALIBRATION_REF_S * 1e3,
            CALIBRATION_REF_S / k
        )
    }
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest percentile of `xs` that has at least ten samples beyond it,
/// as `(percentile, value)`; `None` with fewer than eleven samples. Used
/// for the slow tail of wall-time samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let pct = (100 * (n - 10) / n) as u32;
    let s = sorted(xs);
    // Nearest-rank: the smallest sample with at least pct% at or below it.
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some((pct, s[rank - 1]))
}

/// One line summarising wall-time samples: median, tail and count.
pub fn describe(name: &str, xs: &[f64]) -> String {
    let tail = match tail(xs) {
        Some((p, v)) => format!("p{p}={v:.6}s"),
        None => "tail n/a (<11 samples)".to_string(),
    };
    format!("{name}: median={:.6}s {tail} n={}", median(xs), xs.len())
}

/// Host counters read around each timed repetition, to tell scheduler
/// noise (steal, run-queue wait) from noise inside the thread's own
/// on-CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// Steal ticks of all CPUs (`/proc/stat`, USER_HZ).
    pub steal_ticks: u64,
    /// Nanoseconds this thread ran on a CPU (`/proc/thread-self/schedstat`).
    pub oncpu_ns: u64,
    /// Nanoseconds this thread waited on a run queue.
    pub runq_ns: u64,
    /// User plus system ticks of the whole process, dead threads included
    /// (`/proc/self/stat`).
    pub process_ticks: u64,
}

impl HostSample {
    /// Reads the counters now; unreadable ones stay 0.
    pub fn now() -> Self {
        let mut s = HostSample::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            if let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) {
                s.steal_ticks = cpu
                    .split_whitespace()
                    .nth(8)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
            }
        }
        if let Ok(sched) = std::fs::read_to_string("/proc/thread-self/schedstat") {
            let mut f = sched
                .split_whitespace()
                .map(|v| v.parse::<u64>().unwrap_or(0));
            s.oncpu_ns = f.next().unwrap_or(0);
            s.runq_ns = f.next().unwrap_or(0);
        }
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            if let Some(rest) = stat.rsplit(')').next() {
                let f: Vec<u64> = rest
                    .split_whitespace()
                    .map(|v| v.parse().unwrap_or(0))
                    .collect();
                s.process_ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
            }
        }
        s
    }

    /// Counter increase from `earlier` to `self`.
    pub fn since(&self, earlier: &HostSample) -> HostSample {
        HostSample {
            steal_ticks: self.steal_ticks.saturating_sub(earlier.steal_ticks),
            oncpu_ns: self.oncpu_ns.saturating_sub(earlier.oncpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
            process_ticks: self.process_ticks.saturating_sub(earlier.process_ticks),
        }
    }
}

/// Noise record of one timed phase: per-repetition host counters beside
/// the wall time they were taken around.
#[derive(Debug, Default)]
pub struct NoiseRecord {
    walls: Vec<f64>,
    samples: Vec<HostSample>,
}

impl NoiseRecord {
    /// Records one repetition.
    pub fn push(&mut self, wall_s: f64, delta: HostSample) {
        self.walls.push(wall_s);
        self.samples.push(delta);
    }

    /// One line: total steal ticks and process CPU over the phase, and the
    /// median per-repetition wall, on-CPU and run-queue time of the
    /// measuring thread.
    pub fn describe(&self) -> String {
        let steal: u64 = self.samples.iter().map(|s| s.steal_ticks).sum();
        let ticks: u64 = self.samples.iter().map(|s| s.process_ticks).sum();
        let ms = |f: fn(&HostSample) -> u64| {
            median(
                &self
                    .samples
                    .iter()
                    .map(|s| f(s) as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        format!(
            "noise: reps={} steal_ticks={steal} process_cpu_ticks={ticks} (USER_HZ) \
             per-rep median wall={:.3}ms thread_oncpu={:.3}ms thread_runq_wait={:.3}ms",
            self.samples.len(),
            median(&self.walls) * 1e3,
            ms(|s| s.oncpu_ns),
            ms(|s| s.runq_ns),
        )
    }
}
