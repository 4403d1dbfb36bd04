//! Fault-injection and liveness-watchdog integration tests.
//!
//! The contract under test: **no run may hang or panic**. Every seeded
//! fault scenario must end in one of exactly two ways — the system
//! recovers (timeout + bounded backoff, starvation bound exhausted, retry
//! absorbed) and the run completes, or the run aborts with a *typed*
//! [`SimError`] carrying processor/block/cycle context. Both outcomes must
//! be deterministic for a given seed and identical across the two engine
//! modes.

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::Event;
use mcs_sim::faults::{FaultPlan, StallKind, WatchdogConfig};
use mcs_sim::{EngineMode, RunReport, SimError, System, SystemConfig, Workload};
use mcs_sync::LockSchemeKind;
use mcs_workloads::{
    CriticalSectionWorkload, ProducerConsumerWorkload, RandomSharingConfig, RandomSharingWorkload,
};

const MAX_CYCLES: u64 = 4_000_000;

/// Runs a fresh workload on `kind` with the config hook applied, returning
/// the full run outcome (never panicking on simulation errors).
fn run_case<W: Workload>(
    kind: ProtocolKind,
    mode: EngineMode,
    procs: usize,
    words: usize,
    cfg_hook: impl FnOnce(SystemConfig) -> SystemConfig,
    make: impl FnOnce() -> W,
) -> Result<RunReport, SimError> {
    let cache = CacheConfig::fully_associative(64, words).expect("valid cache");
    let mut w = make();
    with_protocol!(kind, p => {
        let cfg = cfg_hook(SystemConfig::new(procs).with_cache(cache).with_engine(mode));
        let mut sys = System::new(p, cfg).expect("valid system");
        sys.run(&mut w, MAX_CYCLES)
    })
}

fn scheme_for(kind: ProtocolKind) -> LockSchemeKind {
    if kind == ProtocolKind::BitarDespain {
        LockSchemeKind::CacheLock
    } else {
        LockSchemeKind::TestAndSet
    }
}

fn contended_lock_workload(kind: ProtocolKind, iterations: usize) -> CriticalSectionWorkload {
    let words = if kind.requires_word_blocks() { 1 } else { 4 };
    CriticalSectionWorkload::builder()
        .scheme(scheme_for(kind))
        .words_per_block(words)
        .locks(1)
        .payload_blocks(2)
        .payload_reads(2)
        .payload_writes(2)
        .think_cycles(5)
        .iterations(iterations)
        .build()
}

/// The watchdog must never trip on a healthy run, and arming it must not
/// perturb the simulation: every protocol, three workload families, both
/// engine modes, statistics bit-identical to a watchdog-off run.
#[test]
fn watchdog_is_clean_and_invisible_on_healthy_runs() {
    let wd = WatchdogConfig::new().check_interval(250);
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        type Maker<'a> = &'a dyn Fn() -> Box<dyn Workload>;
        let cs = || -> Box<dyn Workload> { Box::new(contended_lock_workload(kind, 4)) };
        let rs = || -> Box<dyn Workload> {
            Box::new(RandomSharingWorkload::new(RandomSharingConfig {
                refs_per_proc: 300,
                seed: 0xFA_B1E,
                ..Default::default()
            }))
        };
        let pc =
            || -> Box<dyn Workload> { Box::new(ProducerConsumerWorkload::new(6, 3, 5).with_words_per_block(words)) };
        let families: [(&str, Maker); 3] = [("cs", &cs), ("rs", &rs), ("pc", &pc)];
        for (family, make) in families {
            for mode in [EngineMode::EventDriven, EngineMode::CycleAccurate] {
                let plain = run_case(kind, mode, 4, words, |c| c, make)
                    .unwrap_or_else(|e| panic!("{kind}/{family} ({mode:?}) baseline: {e}"));
                let watched = run_case(kind, mode, 4, words, |c| c.with_watchdog(wd), make)
                    .unwrap_or_else(|e| panic!("{kind}/{family} ({mode:?}) watchdog tripped: {e}"));
                assert!(watched.completed, "{kind}/{family} ({mode:?}): did not complete");
                assert_eq!(
                    plain.stats, watched.stats,
                    "{kind}/{family} ({mode:?}): arming the watchdog changed the simulation"
                );
                let report = watched.watchdog.expect("watchdog armed");
                if watched.stats.cycles > 250 {
                    assert!(report.checks > 0, "{kind}/{family} ({mode:?}): watchdog never checked");
                }
            }
        }
    }
}

/// A lost unlock broadcast with no recovery configured leaves the waiter
/// asleep forever; the watchdog must detect the stall and report it with
/// processor/block/cycle context — identically in both engine modes.
#[test]
fn lost_unlock_deadlock_is_detected_by_watchdog() {
    let kind = ProtocolKind::BitarDespain;
    let trip_for = |mode| {
        let err = run_case(
            kind,
            mode,
            2,
            4,
            |c| {
                c.with_faults(FaultPlan::new(0xDEAD).lose_unlock(1000))
                    .with_watchdog(WatchdogConfig::new().check_interval(1_000).stall_threshold(20_000))
            },
            || contended_lock_workload(kind, 3),
        )
        .expect_err("every unlock is lost: the waiter can never wake");
        match err {
            SimError::Watchdog(trip) => trip,
            other => panic!("expected a watchdog trip, got: {other}"),
        }
    };
    let trip = trip_for(EngineMode::EventDriven);
    assert_eq!(trip, trip_for(EngineMode::CycleAccurate), "engine modes saw different trips");
    assert_eq!(trip.kind, StallKind::Deadlock, "a lone sleeping waiter is a deadlock");
    assert!(trip.block.is_some(), "trip must name the lock block being waited on");
    assert!(trip.stalled_for >= 20_000, "trip below the stall threshold");
    assert!(trip.cycle <= 60_000, "detection blew the configured cycle budget: {}", trip.cycle);
    assert!(trip.protocol.contains("Bitar-Despain"), "protocol context: {}", trip.protocol);
    let shown = trip.to_string();
    assert!(shown.contains("deadlock") && shown.contains("waiting on"), "diagnostic: {shown}");
}

/// With the busy-wait timeout armed, a lost unlock is *recovered*: the
/// sleeper times out, backs off, and re-requests the lock explicitly. The
/// run completes, deterministically, identically in both modes.
#[test]
fn lost_unlock_recovers_via_timeout_and_backoff() {
    let kind = ProtocolKind::BitarDespain;
    let run = |mode| {
        run_case(
            kind,
            mode,
            2,
            4,
            |c| {
                c.with_faults(
                    FaultPlan::new(0xDEAD)
                        .lose_unlock(1000)
                        .busy_wait_timeout(2_000)
                        .backoff(2, 64),
                )
                .with_watchdog(WatchdogConfig::default())
            },
            || contended_lock_workload(kind, 3),
        )
        .unwrap_or_else(|e| panic!("({mode:?}) recovery failed: {e}"))
    };
    let ev = run(EngineMode::EventDriven);
    let ca = run(EngineMode::CycleAccurate);
    assert!(ev.completed, "run must complete despite every unlock being lost");
    assert_eq!(ev.stats, ca.stats, "engine modes diverged under fault recovery");
    let faults = ev.faults.expect("fault layer on");
    assert!(faults.lost_unlocks > 0, "the fault never fired");
    assert!(faults.busy_wait_timeouts > 0, "recovery never engaged");
    assert_eq!(ev.stats, run(EngineMode::EventDriven).stats, "recovery is not deterministic");
}

/// The recovery path must leave a diagnostic trail: injected faults and
/// waiter timeouts appear in the event trace.
#[test]
fn recovery_leaves_trace_events() {
    let kind = ProtocolKind::BitarDespain;
    let cache = CacheConfig::fully_associative(64, 4).expect("valid cache");
    let cfg = SystemConfig::new(2)
        .with_cache(cache)
        .with_trace(true)
        .with_faults(FaultPlan::new(0xDEAD).lose_unlock(1000).busy_wait_timeout(2_000));
    let mut sys = System::new(mcs_core::BitarDespain, cfg).expect("valid system");
    let mut w = contended_lock_workload(kind, 3);
    let report = sys.run(&mut w, MAX_CYCLES).expect("recovers");
    assert!(report.completed);
    let mut injected = 0;
    let mut timeouts = 0;
    for (_, e) in sys.trace().iter() {
        match e {
            Event::FaultInjected { kind, .. } => {
                assert_eq!(*kind, "lost-unlock");
                injected += 1;
            }
            Event::WaiterTimeout { retries, .. } => {
                assert!(*retries >= 1);
                timeouts += 1;
            }
            _ => {}
        }
    }
    assert!(injected > 0, "no FaultInjected event in the trace");
    assert!(timeouts > 0, "no WaiterTimeout event in the trace");
}

/// A bounded unfair arbiter (victim skipped K times) delays but does not
/// kill the run: the victim eventually wins arbitration and completes.
#[test]
fn bounded_bus_starvation_recovers() {
    let kind = ProtocolKind::Illinois;
    let report = run_case(
        kind,
        EngineMode::EventDriven,
        4,
        4,
        |c| {
            c.with_faults(FaultPlan::new(1).starve(0, 400))
                .with_watchdog(WatchdogConfig::new().check_interval(500))
        },
        || contended_lock_workload(kind, 4),
    )
    .expect("bounded starvation must recover");
    assert!(report.completed, "victim never finished");
    let faults = report.faults.expect("fault layer on");
    assert_eq!(faults.starved_grants, 400, "arbiter must consume every configured skip");
    assert!(report.watchdog.expect("armed").checks > 0);
}

/// An unbounded unfair arbiter starves the victim forever; the watchdog
/// must name the victim.
#[test]
fn unbounded_bus_starvation_trips_watchdog() {
    let kind = ProtocolKind::Illinois;
    let err = run_case(
        kind,
        EngineMode::EventDriven,
        4,
        4,
        |c| {
            c.with_faults(FaultPlan::new(1).starve(0, u64::MAX))
                .with_watchdog(WatchdogConfig::new().check_interval(500).stall_threshold(5_000))
        },
        || contended_lock_workload(kind, 100),
    )
    .expect_err("the victim can never be granted the bus");
    match err {
        SimError::Watchdog(trip) => {
            assert_eq!(trip.proc, 0, "trip must name the starved processor");
            assert_eq!(
                trip.kind,
                StallKind::Starvation,
                "others were still retiring work, so this is starvation"
            );
            assert!(trip.stalled_for >= 5_000);
        }
        other => panic!("expected a watchdog trip, got: {other}"),
    }
}

/// Every transaction NAKed forever exhausts the per-operation retry bound:
/// a typed livelock error, not a hang — identically in both modes.
#[test]
fn persistent_naks_exhaust_retry_bound() {
    let kind = ProtocolKind::Goodman;
    let err_for = |mode| {
        run_case(
            kind,
            mode,
            2,
            4,
            |c| c.with_faults(FaultPlan::new(9).spurious_nak(1000)).with_retry_bound(8),
            || contended_lock_workload(kind, 2),
        )
        .expect_err("nothing can ever complete a bus transaction")
    };
    let err = err_for(EngineMode::EventDriven);
    assert_eq!(err, err_for(EngineMode::CycleAccurate), "engine modes saw different errors");
    match err {
        SimError::Livelock { bound, .. } => assert_eq!(bound, 8),
        other => panic!("expected a typed livelock, got: {other}"),
    }
}

/// A modest NAK rate is absorbed by retries: the run completes, the NAKs
/// are visible in the bus statistics, and the outcome is deterministic.
#[test]
fn modest_naks_are_absorbed_and_counted() {
    let kind = ProtocolKind::Synapse;
    let run = |mode| {
        run_case(
            kind,
            mode,
            4,
            4,
            |c| c.with_faults(FaultPlan::new(0xBAD).spurious_nak(60)),
            || {
                RandomSharingWorkload::new(RandomSharingConfig {
                    refs_per_proc: 300,
                    seed: 0xFA_B1E,
                    ..Default::default()
                })
            },
        )
        .unwrap_or_else(|e| panic!("({mode:?}): {e}"))
    };
    let ev = run(EngineMode::EventDriven);
    assert!(ev.completed);
    assert!(ev.stats.bus.naks > 0, "seeded NAKs never fired");
    assert_eq!(
        ev.stats.bus.naks,
        ev.faults.as_ref().expect("fault layer on").spurious_naks,
        "bus counter and fault counter disagree"
    );
    assert_eq!(ev.stats, run(EngineMode::EventDriven).stats, "not deterministic");
    assert_eq!(ev.stats, run(EngineMode::CycleAccurate).stats, "engine modes diverged");
}

/// Dropped snoop replies corrupt coherence on purpose. The outcome is not
/// specified (the run may survive or a runtime oracle may object) but it
/// must be *structured* — a normal report or a typed error, never a panic —
/// and bit-identical run to run.
#[test]
fn dropped_snoops_end_in_a_structured_deterministic_outcome() {
    let kind = ProtocolKind::Illinois;
    let run = || {
        run_case(
            kind,
            EngineMode::EventDriven,
            4,
            4,
            |c| c.with_faults(FaultPlan::new(0x5EED).drop_snoop(80)),
            || {
                RandomSharingWorkload::new(RandomSharingConfig {
                    refs_per_proc: 400,
                    seed: 0xE0_5EED,
                    ..Default::default()
                })
            },
        )
    };
    let first = run();
    assert_eq!(first, run(), "same seed must reproduce the same outcome");
    if let Ok(report) = &first {
        assert!(report.faults.as_ref().expect("fault layer on").dropped_snoops > 0);
    }
}

/// Delayed memory responses stretch the run but never wedge it.
#[test]
fn delayed_memory_slows_but_completes() {
    let kind = ProtocolKind::Berkeley;
    let run = |plan: Option<FaultPlan>| {
        run_case(
            kind,
            EngineMode::EventDriven,
            2,
            4,
            |c| match plan {
                Some(p) => c.with_faults(p),
                None => c,
            },
            || contended_lock_workload(kind, 4),
        )
        .expect("delays must not wedge the run")
    };
    let baseline = run(None);
    let delayed = run(Some(FaultPlan::new(3).delay_memory(1000, 40)));
    assert!(delayed.completed);
    assert!(delayed.faults.as_ref().expect("fault layer on").delayed_fetches > 0);
    assert!(
        delayed.stats.cycles > baseline.stats.cycles,
        "every memory fetch 40 cycles late must lengthen the run ({} vs {})",
        delayed.stats.cycles,
        baseline.stats.cycles
    );
}

/// With the robustness layer off, the run report says so.
#[test]
fn report_reflects_disabled_layers() {
    let kind = ProtocolKind::BitarDespain;
    let report = run_case(kind, EngineMode::EventDriven, 2, 4, |c| c, || {
        contended_lock_workload(kind, 2)
    })
    .expect("healthy run");
    assert!(report.completed);
    assert!(report.faults.is_none());
    assert!(report.watchdog.is_none());
    assert_eq!(report.stats.bus.naks, 0, "no NAKs without the fault layer");
}

/// A woken busy-wait register that loses the lock to another cache goes
/// back to sleep. If its timeout deadline (`armed_at + timeout`) passed
/// while it was awake, it must time out on the very next step — the
/// deadline has to be rescheduled on the woken → armed edge, not only when
/// the register is first armed. Identical in both engine modes.
#[test]
fn relocked_register_past_its_deadline_times_out_next_step() {
    use mcs_model::{Addr, AgentId, BusOp, CacheId, Privilege, ProcId, ProcOp, Word};
    use mcs_sim::ParallelScriptWorkload;
    use mcs_sim::ScriptStep::{Compute, Op};

    // P0 holds the lock for ~100 cycles. P2, then P1, are denied and
    // sleep. P0's unlock wakes both; P1 wins the high-priority round robin
    // (it follows P0) and re-locks the block, sending P2 back to sleep.
    let lock = Addr(0);
    let run = |mode, timeout: Option<u64>| {
        let critical = |before: u64, value: u64| {
            vec![
                Compute(before),
                Op(ProcOp::lock_read(lock)),
                Op(ProcOp::unlock_write(lock, Word(value))),
            ]
        };
        let mut w = ParallelScriptWorkload::new()
            .program(
                ProcId(0),
                vec![
                    Op(ProcOp::lock_read(lock)),
                    Compute(100),
                    Op(ProcOp::unlock_write(lock, Word(1))),
                ],
            )
            .program(ProcId(1), critical(20, 2))
            .program(ProcId(2), critical(10, 3));
        let mut cfg = SystemConfig::new(3)
            .with_cache(CacheConfig::fully_associative(64, 4).expect("valid cache"))
            .with_engine(mode)
            .with_trace(true);
        if let Some(t) = timeout {
            cfg = cfg.with_faults(FaultPlan::new(1).busy_wait_timeout(t));
        }
        let mut sys = System::new(mcs_core::BitarDespain, cfg).expect("valid system");
        let report = sys.run(&mut w, MAX_CYCLES).expect("the run completes");
        assert!(
            report.completed && w.finished(),
            "({mode:?}) scripts did not finish"
        );
        (report.stats, sys.trace().to_vec())
    };
    // The cycle of the first event at or after `from` matching `pred`.
    let first_from = |trace: &[(u64, Event)], from: u64, pred: &dyn Fn(&Event) -> bool| {
        trace
            .iter()
            .find(|(c, e)| *c >= from && pred(e))
            .map(|(c, _)| *c)
            .expect("event in trace")
    };
    let first = |trace: &[(u64, Event)], pred: &dyn Fn(&Event) -> bool| first_from(trace, 0, pred);
    let p2 = CacheId(2);
    let armed = |e: &Event| matches!(e, Event::WaiterArmed { cache, .. } if *cache == p2);
    let woken = |e: &Event| matches!(e, Event::WaiterWoken { cache, .. } if *cache == p2);
    let relock = |e: &Event| {
        matches!(e, Event::Bus { txn, .. }
            if txn.requester == AgentId::Cache(CacheId(1))
                && matches!(txn.op, BusOp::Fetch { privilege: Privilege::Lock, .. }))
    };

    // Learn the schedule without a timeout, then set the timeout so P2's
    // deadline falls one cycle after its wakeup, while it is still awake.
    let (_, dry) = run(EngineMode::EventDriven, None);
    let deadline = first(&dry, &woken) + 1;
    let timeout = deadline - first(&dry, &armed);

    let (stats, trace) = run(EngineMode::EventDriven, Some(timeout));
    let (ca_stats, ca_trace) = run(EngineMode::CycleAccurate, Some(timeout));
    assert_eq!(stats, ca_stats, "engine modes diverged");
    assert_eq!(trace, ca_trace, "engine modes traced different events");
    let woken_at = first(&trace, &woken);
    assert!(woken_at < deadline, "P2 must wake before its deadline");
    let relocked_at = first_from(&trace, woken_at, &relock);
    assert!(
        relocked_at >= deadline,
        "the relock must come at or after the deadline"
    );
    let timed_out = first(
        &trace,
        &|e| matches!(e, Event::WaiterTimeout { cache, .. } if *cache == p2),
    );
    assert_eq!(
        timed_out,
        relocked_at + 1,
        "a relocked register past its deadline times out on the next step"
    );
}
