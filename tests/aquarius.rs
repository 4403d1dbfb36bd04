//! Figure 11 integration tests: the Aquarius two-interconnect system.
//!
//! The architectural premises checked here (Section G.1):
//!
//! * all hard atoms live in the upper (single-bus) system, which runs the
//!   full lock protocol;
//! * the lower (crossbar) system carries the bulk of the traffic but needs
//!   only "the latest version of each block";
//! * lightweight-process switching is frequent, so state saves use
//!   write-without-fetch.

use mcs::core::BitarDespain;
use mcs::sim::{Crossbar, CrossbarConfig, System, SystemConfig};
use mcs::workloads::{PrologConfig, PrologWorkload};
use std::cell::RefCell;
use std::rc::Rc;

fn run(procs: usize, cfg: PrologConfig) -> (mcs::model::Stats, mcs::sim::CrossbarStats, u64, u64) {
    let xbar = Rc::new(RefCell::new(Crossbar::new(procs, CrossbarConfig::default()).unwrap()));
    let mut w = PrologWorkload::new(cfg, xbar.clone());
    let mut sys = System::new(BitarDespain, SystemConfig::new(procs)).unwrap();
    let stats = sys.run(&mut w, 50_000_000).unwrap().stats;
    let xstats = xbar.borrow().stats().clone();
    (stats, xstats, w.bindings_published(), w.switches())
}

#[test]
fn crossbar_carries_the_majority_of_references() {
    let (stats, xstats, _, _) = run(4, PrologConfig::default());
    let sync_share =
        stats.total_refs() as f64 / (stats.total_refs() + xstats.refs) as f64;
    assert!(
        sync_share < 0.5,
        "synchronization traffic must be the minority ({:.1}%)",
        100.0 * sync_share
    );
    assert!(xstats.module_requests > 0);
}

#[test]
fn sync_bus_never_sees_unsuccessful_retries() {
    let (stats, _, bindings, _) = run(6, PrologConfig::default());
    assert!(bindings > 0);
    assert_eq!(stats.bus.retries, 0);
    assert!(stats.locks.acquires >= bindings);
}

#[test]
fn process_switches_use_write_without_fetch() {
    let (stats, _, _, switches) = run(4, PrologConfig::default());
    assert!(switches > 0);
    // Saves are claim-no-fetch signals; once a processor holds its save
    // area with write privilege, later saves are free local hits, so the
    // count is positive but bounded by switches x blocks.
    let claims = stats.bus.count("claim-no-fetch");
    assert!(claims > 0, "some saves must claim their blocks");
    assert!(claims <= switches * PrologConfig::default().switch_state_blocks as u64);
}

#[test]
fn contention_scales_with_binding_atoms() {
    // Fewer atoms => more lock contention on the sync bus.
    let few = PrologConfig { binding_atoms: 1, ..Default::default() };
    let many = PrologConfig { binding_atoms: 8, ..Default::default() };
    let (stats_few, _, _, _) = run(6, few);
    let (stats_many, _, _, _) = run(6, many);
    assert!(
        stats_few.locks.denied >= stats_many.locks.denied,
        "one shared atom ({}) must contend at least as much as eight ({})",
        stats_few.locks.denied,
        stats_many.locks.denied
    );
}

#[test]
fn crossbar_queueing_grows_with_processors() {
    let (_, x2, _, _) = run(2, PrologConfig::default());
    let (_, x8, _, _) = run(8, PrologConfig::default());
    assert!(
        x8.conflict_wait_cycles >= x2.conflict_wait_cycles,
        "more processors must not reduce module conflicts ({} vs {})",
        x8.conflict_wait_cycles,
        x2.conflict_wait_cycles
    );
}

#[test]
fn deterministic_end_to_end() {
    let a = run(4, PrologConfig::default());
    let b = run(4, PrologConfig::default());
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}
