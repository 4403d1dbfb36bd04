//! Differential tests for the event-driven time-skipping engine: for every
//! protocol and a representative set of workloads, the event-driven mode
//! must produce **bit-identical** [`Stats`], an identical [`Trace`] event
//! sequence, identical latency histograms, and an identical interval
//! time-series to the cycle-accurate reference mode.
//!
//! The skipping argument: between two events no phase machine can change
//! state, so every skipped `step` would have been a no-op and the per-cycle
//! accounting over the interval is a closed-form sum. These tests pin that
//! argument against the implementation — the histograms pin the latency
//! *endpoints* (queue, wake, grant, completion cycles), and the interval
//! series pins that skipped spans are attributed to the right windows.

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::{Event, Stats};
use mcs_sim::faults::{FaultPlan, WatchdogConfig};
use mcs_sim::obs::{LatencyHists, Window};
use mcs_sim::{EngineMode, ScriptWorkload, System, SystemConfig, Workload};
use mcs_sync::LockSchemeKind;
use mcs_workloads::{
    CriticalSectionWorkload, ProducerConsumerWorkload, RandomSharingConfig, RandomSharingWorkload,
};

const MAX_CYCLES: u64 = 2_000_000;

/// Interval-sampler window for the differential runs: deliberately not a
/// divisor or multiple of any timing constant, so event-driven skips
/// straddle window boundaries and exercise span splitting.
const WINDOW: u64 = 300;

/// Everything one engine-mode run produces.
struct RunOutput {
    stats: Stats,
    trace: Vec<(u64, Event)>,
    hists: LatencyHists,
    timeline: Vec<Window>,
}

/// The default geometry: 64 fully-associative blocks of one word where the
/// protocol requires word blocks, four words otherwise.
fn default_cache(kind: ProtocolKind) -> CacheConfig {
    let words = if kind.requires_word_blocks() { 1 } else { 4 };
    CacheConfig::fully_associative(64, words).expect("valid cache")
}

/// Runs a fresh workload from `make` on `kind` under `mode`, returning the
/// final statistics, the full trace event sequence, the latency
/// histograms, and the interval time-series. `robust` arms the watchdog
/// and installs an inert fault plan, which must change nothing.
fn run_mode_with<W: Workload>(
    kind: ProtocolKind,
    mode: EngineMode,
    procs: usize,
    cache: CacheConfig,
    robust: bool,
    make: impl FnOnce() -> W,
) -> RunOutput {
    let mut w = make();
    with_protocol!(kind, p => {
        let mut cfg = SystemConfig::new(procs)
            .with_cache(cache)
            .with_trace(true)
            .with_histograms(true)
            .with_timeline(WINDOW)
            .with_engine(mode);
        if robust {
            cfg = cfg
                .with_faults(FaultPlan::new(0xFA_017))
                .with_watchdog(WatchdogConfig::new().check_interval(777));
        }
        let mut sys = System::new(p, cfg).expect("valid system");
        let report = sys
            .run(&mut w, MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{kind} ({mode:?}): {e}"));
        assert!(report.completed, "{kind} ({mode:?}): run hit the {MAX_CYCLES}-cycle ceiling");
        sys.assert_snoop_filter_exact();
        RunOutput {
            stats: report.stats,
            trace: sys.trace().to_vec(),
            hists: sys.histograms().expect("histograms enabled").clone(),
            timeline: sys.timeline().expect("timeline enabled").windows().to_vec(),
        }
    })
}

/// `run_mode_with` without the robustness layer.
fn run_mode<W: Workload>(
    kind: ProtocolKind,
    mode: EngineMode,
    procs: usize,
    cache: CacheConfig,
    make: impl FnOnce() -> W,
) -> RunOutput {
    run_mode_with(kind, mode, procs, cache, false, make)
}

/// Asserts one run matches the cycle-accurate reference, with a label for
/// which leg diverged.
fn assert_matches_reference(kind: ProtocolKind, label: &str, reference: &RunOutput, run: &RunOutput) {
    assert_eq!(
        reference.trace.len(),
        run.trace.len(),
        "{kind} ({label}): trace length diverged"
    );
    for (i, (r, e)) in reference.trace.iter().zip(&run.trace).enumerate() {
        assert_eq!(r, e, "{kind} ({label}): trace event {i} diverged");
    }
    assert_eq!(reference.stats, run.stats, "{kind} ({label}): stats diverged");
    for ((name, r), (_, e)) in reference.hists.named().iter().zip(run.hists.named().iter()) {
        assert_eq!(r, e, "{kind} ({label}): `{name}` histogram diverged");
    }
    assert_eq!(
        reference.timeline, run.timeline,
        "{kind} ({label}): interval time-series diverged"
    );
}

/// Asserts both engine modes agree on `kind` for the workload `make`, on
/// the default geometry.
fn assert_equivalent<W: Workload>(kind: ProtocolKind, procs: usize, make: impl Fn() -> W) {
    assert_equivalent_on(kind, procs, default_cache(kind), make);
}

/// [`assert_equivalent`] on the cache geometry `cache`.
fn assert_equivalent_on<W: Workload>(
    kind: ProtocolKind,
    procs: usize,
    cache: CacheConfig,
    make: impl Fn() -> W,
) {
    let reference = run_mode(kind, EngineMode::CycleAccurate, procs, cache, &make);
    let event = run_mode(kind, EngineMode::EventDriven, procs, cache, &make);
    assert_matches_reference(kind, "event-driven", &reference, &event);
    // An armed watchdog plus an inert fault plan must be invisible: the
    // watchdog only reads engine state and an all-zero plan never draws.
    let robust = run_mode_with(kind, EngineMode::EventDriven, procs, cache, true, &make);
    assert_matches_reference(kind, "inert faults + watchdog", &reference, &robust);
    assert!(reference.stats.total_refs() > 0, "{kind}: workload must do real work");
}

/// The lock scheme each protocol can run: the paper's cache-state lock on
/// Bitar-Despain, a test-and-set loop (plain RMW, supported everywhere)
/// otherwise.
fn scheme_for(kind: ProtocolKind) -> LockSchemeKind {
    with_protocol!(kind, p => LockSchemeKind::paired_with(&p))
}

#[test]
fn critical_section_equivalent_on_all_protocols() {
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        assert_equivalent(kind, 4, || {
            CriticalSectionWorkload::builder()
                .scheme(scheme_for(kind))
                .words_per_block(words)
                .locks(2)
                .payload_blocks(2)
                .payload_reads(2)
                .payload_writes(2)
                .think_cycles(15)
                .iterations(6)
                .build()
        });
    }
}

#[test]
fn critical_section_with_ready_sections_equivalent() {
    // Work-while-waiting exercises the WaitingLock interval split (the
    // ready section running dry mid-interval).
    assert_equivalent(ProtocolKind::BitarDespain, 4, || {
        CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::CacheLock)
            .words_per_block(4)
            .locks(1)
            .payload_blocks(2)
            .payload_reads(4)
            .payload_writes(4)
            .think_cycles(3)
            .iterations(8)
            .work_while_waiting(5)
            .build()
    });
}

#[test]
fn lock_handoff_equivalent_at_64_and_130_processors() {
    // The processor sets and the holder and stale masks are word arrays:
    // 130 processors span three words, so round-robin arbitration from
    // `rr` wraps across word boundaries, and snoops and unlock broadcasts
    // walk the masks and the watch set one word at a time.
    for procs in [64, 130] {
        for kind in [ProtocolKind::BitarDespain, ProtocolKind::Illinois] {
            assert_equivalent(kind, procs, || {
                CriticalSectionWorkload::builder()
                    .scheme(scheme_for(kind))
                    .words_per_block(4)
                    .locks(1)
                    .payload_blocks(1)
                    .payload_reads(1)
                    .payload_writes(1)
                    .think_cycles(40)
                    .iterations(1)
                    .build()
            });
        }
    }
}

#[test]
fn e10_word_blocks_ttas_equivalent() {
    // The E10 cell: Rudolph-Segall on 128 fully-associative one-word
    // blocks, spinning in cache under test-and-test-and-set.
    let cache = CacheConfig::fully_associative(128, 1).expect("valid cache");
    assert_equivalent_on(ProtocolKind::RudolphSegall, 4, cache, || {
        CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::TestAndTestAndSet)
            .words_per_block(1)
            .locks(1)
            .payload_blocks(2)
            .payload_reads(1)
            .payload_writes(2)
            .think_cycles(10)
            .iterations(10)
            .build()
    });
}

#[test]
fn random_sharing_equivalent_on_all_protocols() {
    for kind in ProtocolKind::ALL {
        assert_equivalent(kind, 4, || {
            RandomSharingWorkload::new(RandomSharingConfig {
                refs_per_proc: 400,
                seed: 0xE0_5EED,
                ..Default::default()
            })
        });
    }
}

#[test]
fn producer_consumer_equivalent_on_all_protocols() {
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        assert_equivalent(kind, 4, || {
            ProducerConsumerWorkload::new(6, 3, 5).with_words_per_block(words)
        });
    }
}

#[test]
fn producer_consumer_zero_produce_cycles_equivalent() {
    // produce_cycles == 0 makes the producer return an IdleUntil hint
    // (its poll mutates the phase machine), the one workload path that
    // needs the idle-hint API for the two modes to agree.
    for kind in [ProtocolKind::BitarDespain, ProtocolKind::Illinois, ProtocolKind::Dragon] {
        assert_equivalent(kind, 4, || ProducerConsumerWorkload::new(5, 2, 0));
    }
}

#[test]
fn deadline_cutoff_equivalent() {
    // A run that hits max_cycles mid-flight (no all-done exit) must also
    // agree — including the final jump straight to the deadline.
    for kind in [ProtocolKind::BitarDespain, ProtocolKind::Goodman] {
        let make = || {
            CriticalSectionWorkload::builder()
                .scheme(scheme_for(kind))
                .words_per_block(4)
                .locks(1)
                .think_cycles(50)
                .iterations(100_000)
                .build()
        };
        let cache = CacheConfig::fully_associative(64, 4).unwrap();
        let run = |mode| {
            let mut w = make();
            with_protocol!(kind, p => {
                let cfg = SystemConfig::new(3).with_cache(cache).with_engine(mode);
                let mut sys = System::new(p, cfg).unwrap();
                sys.run(&mut w, 20_000).unwrap()
            })
        };
        let reference = run(EngineMode::CycleAccurate);
        let event = run(EngineMode::EventDriven);
        assert!(!reference.completed, "{kind}: the deadline must cut the cycle-accurate run off");
        assert!(!event.completed, "{kind}: the deadline must cut the event-driven run off");
        assert_eq!(reference.stats.cycles, 20_000, "{kind}: run must hit the deadline");
        assert_eq!(reference, event, "{kind}: deadline-bounded runs diverged");
    }
}

/// Regression for the interval form of work-while-waiting: a processor in
/// `WaitingLock` with `WorkFor(c)` must accrue **exactly** `c` useful-wait
/// cycles per denial under skipping, when every wait outlasts the ready
/// section.
#[test]
fn ready_section_accrues_exactly_c_useful_cycles() {
    const READY_SECTION: u64 = 5;
    let make = || {
        CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::CacheLock)
            .words_per_block(4)
            .locks(1)
            .payload_blocks(2)
            .payload_reads(6)
            .payload_writes(6)
            .think_cycles(0)
            .iterations(6)
            .work_while_waiting(READY_SECTION)
            .build()
    };
    let cache = default_cache(ProtocolKind::BitarDespain);
    let ev_stats = run_mode(ProtocolKind::BitarDespain, EngineMode::EventDriven, 2, cache, make).stats;
    let ref_stats =
        run_mode(ProtocolKind::BitarDespain, EngineMode::CycleAccurate, 2, cache, make).stats;
    assert_eq!(ev_stats, ref_stats, "modes diverged");
    let useful: u64 = ev_stats.per_proc.iter().map(|p| p.useful_wait_cycles).sum();
    assert!(ev_stats.locks.denied > 0, "workload must contend");
    // Critical sections here span several multi-cycle bus transactions, so
    // every wait outlasts the 5-cycle ready section: each denial episode
    // contributes exactly READY_SECTION useful cycles.
    assert_eq!(
        useful,
        READY_SECTION * ev_stats.locks.denied,
        "each of the {} denials must contribute exactly {READY_SECTION} useful cycles",
        ev_stats.locks.denied
    );
    let lock_wait: u64 = ev_stats.per_proc.iter().map(|p| p.lock_wait_cycles).sum();
    assert!(lock_wait > useful, "waits must outlast the ready section");
}

#[test]
fn event_mode_skips_cycles_not_behaviour() {
    // Sanity on the mechanism itself: a long pure-compute workload reaches
    // the same final cycle in both modes (time is skipped, not lost).
    use mcs_model::{Addr, ProcId, ProcOp, Word};
    let script = vec![
        (ProcId(0), ProcOp::write(Addr(0), Word(1))),
        (ProcId(1), ProcOp::read(Addr(0))),
        (ProcId(0), ProcOp::read(Addr(8))),
    ];
    let run = |mode| {
        let cfg = SystemConfig::new(2).with_engine(mode);
        let mut sys = System::new(mcs_core::BitarDespain, cfg).unwrap();
        sys.run(&mut ScriptWorkload::new(script.clone()), 100_000).unwrap().stats
    };
    assert_eq!(run(EngineMode::CycleAccurate), run(EngineMode::EventDriven));
}
