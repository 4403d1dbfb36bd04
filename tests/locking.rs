//! Lock-semantics integration tests: mutual exclusion, progress,
//! starvation-freedom under the fair high-priority arbitration, and the
//! paper's headline busy-wait properties, across lock schemes.

use mcs::core::BitarDespain;
use mcs::model::{ProcId, Protocol};
use mcs::prelude::*;
use mcs::sync::LockSchemeKind;
use mcs::workloads::service_queue;

fn run_cs<P: Protocol>(
    protocol: P,
    procs: usize,
    scheme: LockSchemeKind,
    iterations: usize,
) -> (mcs::model::Stats, u64, mcs::sync::LockSchemeStats) {
    let mut w = CriticalSectionWorkload::builder()
        .scheme(scheme)
        .locks(1)
        .payload_blocks(1)
        .payload_reads(1)
        .payload_writes(2)
        .think_cycles(8)
        .iterations(iterations)
        .build();
    let mut sys = System::new(protocol, SystemConfig::new(procs)).unwrap();
    let stats = sys.run(&mut w, 20_000_000).unwrap().stats;
    (stats, w.completed_sections(), *w.scheme_stats())
}

#[test]
fn mutual_exclusion_holds_under_heavy_contention() {
    // The lock oracle inside the engine panics the run on any violation;
    // completing is the proof.
    let (stats, sections, _) = run_cs(BitarDespain, 8, LockSchemeKind::CacheLock, 15);
    assert_eq!(sections, 8 * 15);
    assert_eq!(stats.locks.acquires, 8 * 15);
    assert_eq!(stats.locks.releases, 8 * 15);
}

#[test]
fn no_unsuccessful_retries_ever_reach_the_bus() {
    for procs in [2, 4, 8, 12] {
        let (stats, sections, scheme) = run_cs(BitarDespain, procs, LockSchemeKind::CacheLock, 10);
        assert_eq!(sections as usize, procs * 10);
        assert_eq!(stats.bus.retries, 0, "{procs} procs");
        assert_eq!(scheme.failed_tas, 0, "{procs} procs");
    }
}

#[test]
fn starvation_freedom_every_processor_finishes() {
    // With fair round-robin among woken waiters, every processor must
    // complete all its sections even at maximal contention.
    let (_, sections, _) = run_cs(BitarDespain, 10, LockSchemeKind::CacheLock, 8);
    assert_eq!(sections, 80);
}

#[test]
fn tas_and_ttas_work_on_every_write_in_protocol() {
    let (_, s1, sch1) = run_cs(Illinois, 4, LockSchemeKind::TestAndSet, 8);
    assert_eq!(s1, 32);
    assert!(sch1.failed_tas > 0);
    let (_, s2, sch2) = run_cs(Berkeley, 4, LockSchemeKind::TestAndTestAndSet, 8);
    assert_eq!(s2, 32);
    assert!(sch2.spin_reads > 0);
    let (_, s3, _) = run_cs(Synapse, 4, LockSchemeKind::TestAndSet, 8);
    assert_eq!(s3, 32);
    let (_, s4, _) = run_cs(Goodman, 4, LockSchemeKind::TestAndSet, 8);
    assert_eq!(s4, 32);
}

#[test]
fn waiters_wake_in_bounded_time() {
    let (stats, _, _) = run_cs(BitarDespain, 6, LockSchemeKind::CacheLock, 10);
    // Max wait bounded by (waiters x section length); generously: no wait
    // exceeded the whole run's mean section spacing by 100x.
    assert!(stats.locks.max_wait_cycles > 0, "contention must cause waits");
    assert!(
        stats.locks.max_wait_cycles < stats.cycles / 2,
        "a waiter must not starve for half the run ({} of {})",
        stats.locks.max_wait_cycles,
        stats.cycles
    );
}

#[test]
fn global_ready_queue_scenario_from_the_paper() {
    // Section E.4: the sleep-wait substrate — one global ready queue,
    // 3-4 block fetches per operation, high contention.
    let mut w = service_queue::global_ready_queue(LockSchemeKind::CacheLock, 8);
    let mut sys = System::new(BitarDespain, SystemConfig::new(8)).unwrap();
    let stats = sys.run(&mut w, 30_000_000).unwrap().stats;
    assert_eq!(w.completed_sections(), 64);
    assert_eq!(stats.bus.retries, 0);
    assert!(stats.locks.denied > 0, "high contention must cause waiting");
    assert!(stats.bus.unlock_broadcasts > 0);
}

#[test]
fn lock_state_rmw_serializes_counter_increments() {
    // A shared counter incremented via test-and-set-protected sections on
    // the lock protocol: the final value proves serialization.
    use mcs::model::{Addr, ProcOp, Word};
    use mcs::sim::{AccessResult, ScriptWorkload, WorkItem};

    struct Incr {
        per_proc: usize,
        state: Vec<(usize, Option<u64>)>, // (done, pending read value)
        in_flight: Vec<bool>,
    }
    impl mcs::sim::Workload for Incr {
        fn next(&mut self, proc: ProcId, _now: u64) -> WorkItem {
            while self.state.len() <= proc.0 {
                self.state.push((0, None));
                self.in_flight.push(false);
            }
            let (done, pending) = self.state[proc.0];
            if done >= self.per_proc {
                return WorkItem::Done;
            }
            if self.in_flight[proc.0] {
                return WorkItem::Idle;
            }
            self.in_flight[proc.0] = true;
            match pending {
                // Lock the counter's block (atomic section), read it.
                None => WorkItem::Op(ProcOp::lock_read(Addr(0))),
                // Unlock with the incremented value.
                Some(v) => WorkItem::Op(ProcOp::unlock_write(Addr(0), Word(v + 1))),
            }
        }
        fn complete(&mut self, proc: ProcId, op: &ProcOp, result: &AccessResult, _now: u64) {
            self.in_flight[proc.0] = false;
            let entry = &mut self.state[proc.0];
            match op.kind {
                mcs::model::AccessKind::LockRead => {
                    entry.1 = Some(result.value.unwrap().0);
                }
                mcs::model::AccessKind::UnlockWrite => {
                    entry.0 += 1;
                    entry.1 = None;
                }
                _ => {}
            }
        }
    }

    let mut sys = System::new(BitarDespain, SystemConfig::new(6)).unwrap();
    sys.run(&mut Incr { per_proc: 20, state: Vec::new(), in_flight: Vec::new() }, 10_000_000)
        .unwrap();
    let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]);
    sys.run(&mut script, 100_000).unwrap();
    assert_eq!(
        script.results()[0].2.value,
        Some(Word(6 * 20)),
        "every increment must be serialized by the lock state"
    );
}
