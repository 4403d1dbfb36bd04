//! Fault-matrix smoke: every seeded fault scenario, on several protocols,
//! must terminate in a *structured* way — the run completes (possibly
//! after recovering), or it ends with a typed error — never a panic and
//! never a hang (the CI wrapper adds a wall-clock `timeout` on top, and
//! every cell bounds its simulated cycles and arms the watchdog).
//!
//! Each cell runs **twice** and both runs must agree exactly: the fault
//! layer is seeded, so recovery and detection are deterministic.
//!
//! Exits nonzero on any violated expectation. Run via
//! `cargo run --release -p mcs-bench --bin faultmatrix`.

use mcs_bench::experiments::paired_scheme;
use mcs_bench::harness::RunSpec;
use mcs_core::ProtocolKind;
use mcs_sim::faults::{FaultPlan, WatchdogConfig};
use mcs_sim::SimError;
use mcs_sync::LockSchemeKind;

const PROTOCOLS: [ProtocolKind; 3] =
    [ProtocolKind::BitarDespain, ProtocolKind::Illinois, ProtocolKind::Dragon];

/// What a scenario is allowed to end as.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    /// The run must complete (no fault fired, or recovery absorbed it).
    Completes,
    /// The run must end in a typed error (the watchdog or an oracle).
    Errors,
    /// Either structured ending is acceptable; determinism still required.
    Either,
}

struct Scenario {
    name: &'static str,
    plan: fn() -> FaultPlan,
    /// Expectation on the paper's protocol (cache-lock scheme, where every
    /// fault choke point is reachable).
    on_cache_lock: Expect,
    /// Expectation on test-and-set protocols (no unlock broadcasts, so
    /// lost-unlock scenarios degrade to fault-free runs).
    on_tas: Expect,
}

const SCENARIOS: [Scenario; 7] = [
    Scenario {
        name: "none",
        plan: || FaultPlan::new(0),
        on_cache_lock: Expect::Completes,
        on_tas: Expect::Completes,
    },
    Scenario {
        name: "lost-unlock",
        plan: || FaultPlan::new(0xDEAD).lose_unlock(1000),
        on_cache_lock: Expect::Errors,
        on_tas: Expect::Completes,
    },
    Scenario {
        name: "lost-unlock+timeout",
        plan: || FaultPlan::new(0xDEAD).lose_unlock(1000).busy_wait_timeout(2_000).backoff(2, 64),
        on_cache_lock: Expect::Completes,
        on_tas: Expect::Completes,
    },
    Scenario {
        name: "drop-snoop-30",
        plan: || FaultPlan::new(0x5EED).drop_snoop(30),
        on_cache_lock: Expect::Either,
        on_tas: Expect::Either,
    },
    Scenario {
        name: "nak-100",
        plan: || FaultPlan::new(0xBAD).spurious_nak(100),
        on_cache_lock: Expect::Completes,
        on_tas: Expect::Completes,
    },
    Scenario {
        name: "starve-p0-4k",
        plan: || FaultPlan::new(1).starve(0, 4_000),
        on_cache_lock: Expect::Completes,
        on_tas: Expect::Completes,
    },
    Scenario {
        name: "slow-memory",
        plan: || FaultPlan::new(3).delay_memory(1000, 20),
        on_cache_lock: Expect::Either,
        on_tas: Expect::Either,
    },
];

/// One cell outcome: a short classification plus the exact stats for the
/// determinism comparison.
fn run_cell(kind: ProtocolKind, scenario: &Scenario) -> (String, mcs_model::Stats) {
    let spec = RunSpec::new(kind)
        .faults((scenario.plan)())
        .watchdog(WatchdogConfig::new().check_interval(5_000).stall_threshold(100_000))
        .max_cycles(10_000_000);
    let mut workload = spec.critical_section(paired_scheme(kind), |b| {
        b.locks(1).payload_blocks(2).payload_reads(2).payload_writes(2).think_cycles(5).iterations(6)
    });
    let run = spec.try_run(&mut workload, None);
    let label = match (&run.error, run.completed) {
        (Some(SimError::Watchdog(trip)), _) => format!("watchdog({})", trip.kind.id()),
        (Some(SimError::Oracle(_)), _) => "oracle".to_string(),
        (Some(SimError::Livelock { .. }), _) => "livelock".to_string(),
        (Some(e), _) => format!("error({e})"),
        (None, false) => "deadline".to_string(),
        (None, true) => {
            let injected = run.faults.as_ref().map_or(0, |f| f.injected());
            if injected > 0 {
                format!("recovered({injected})")
            } else {
                "ok".to_string()
            }
        }
    };
    (label, run.stats)
}

fn main() {
    let mut failures = 0;
    println!("fault matrix: {} protocols x {} scenarios, each cell run twice", PROTOCOLS.len(), SCENARIOS.len());
    println!("{:>14} {:>20} {:>16}", "protocol", "scenario", "outcome");
    for kind in PROTOCOLS {
        for scenario in &SCENARIOS {
            let (label, stats) = run_cell(kind, scenario);
            let (again, stats2) = run_cell(kind, scenario);
            let mut verdict = String::new();
            if label != again || stats != stats2 {
                verdict = format!("  NOT DETERMINISTIC (second run: {again})");
                failures += 1;
            }
            let expect = if paired_scheme(kind) == LockSchemeKind::CacheLock {
                scenario.on_cache_lock
            } else {
                scenario.on_tas
            };
            let structured = label != "deadline";
            let satisfied = structured
                && match expect {
                    Expect::Completes => label == "ok" || label.starts_with("recovered"),
                    Expect::Errors => {
                        label.starts_with("watchdog")
                            || label == "oracle"
                            || label == "livelock"
                            || label.starts_with("error")
                    }
                    Expect::Either => true,
                };
            if !satisfied {
                verdict.push_str("  UNEXPECTED OUTCOME");
                failures += 1;
            }
            println!("{:>14} {:>20} {:>16}{verdict}", kind.id(), scenario.name, label);
        }
    }
    if failures > 0 {
        eprintln!("fault matrix FAILED: {failures} violated expectation(s)");
        std::process::exit(1);
    }
    println!("fault matrix passed");
}
