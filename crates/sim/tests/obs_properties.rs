//! Reconciliation properties: the observability layer's histograms and
//! interval time-series must agree *bit-exactly* with the scalar [`Stats`]
//! counters the simulator has always kept. Each invariant is structural —
//! the histogram is sampled at exactly the program points where the scalar
//! counter is incremented — so any divergence means an instrumentation
//! point was missed or double-counted.

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::Stats;
use mcs_sim::obs::{IntervalSampler, LatencyHists};
use mcs_sim::{System, SystemConfig, Workload};
use mcs_sync::LockSchemeKind;
use mcs_workloads::{
    CriticalSectionWorkload, ProducerConsumerWorkload, RandomSharingConfig, RandomSharingWorkload,
};

const MAX_CYCLES: u64 = 2_000_000;
const WINDOW: u64 = 250;

fn scheme_for(kind: ProtocolKind) -> LockSchemeKind {
    with_protocol!(kind, p => LockSchemeKind::paired_with(&p))
}

/// Runs `make`'s workload to completion on `kind` with full observability,
/// returning stats, histograms, and the timeline.
fn run<W: Workload>(
    kind: ProtocolKind,
    procs: usize,
    words: usize,
    make: impl FnOnce() -> W,
) -> (Stats, LatencyHists, IntervalSampler) {
    let cache = CacheConfig::fully_associative(64, words).expect("valid cache");
    let mut w = make();
    with_protocol!(kind, p => {
        let cfg = SystemConfig::new(procs)
            .with_cache(cache)
            .with_histograms(true)
            .with_timeline(WINDOW);
        let mut sys = System::new(p, cfg).expect("valid system");
        let stats =
            sys.run(&mut w, MAX_CYCLES).unwrap_or_else(|e| panic!("{kind}: {e}")).stats;
        assert!(
            stats.cycles < MAX_CYCLES,
            "{kind}: workload must complete (miss-service reconciliation needs \
             every in-flight op delivered)"
        );
        (stats, sys.histograms().unwrap().clone(), sys.timeline().unwrap().clone())
    })
}

/// All the reconciliation invariants for one completed run.
#[allow(clippy::cognitive_complexity)]
fn check(label: &str, stats: &Stats, hists: &LatencyHists, timeline: &IntervalSampler) {
    // Lock-acquire wait: one sample per successful acquisition.
    assert_eq!(
        hists.lock_acquire_wait.count(),
        stats.locks.acquires,
        "{label}: lock_acquire_wait count != acquires"
    );
    // Busy-wait episodes: the recorded waits are exactly the cycles added
    // to `total_wait_cycles`.
    assert_eq!(
        hists.busy_wait.sum(),
        stats.locks.total_wait_cycles,
        "{label}: busy_wait sum != total_wait_cycles"
    );
    assert_eq!(
        hists.busy_wait.max().unwrap_or(0),
        stats.locks.max_wait_cycles,
        "{label}: busy_wait max != max_wait_cycles"
    );
    // Arbitration wait: one sample per cache-initiated bus transaction
    // (these workloads do no I/O, so that is every transaction).
    assert_eq!(
        hists.bus_arb_wait.count(),
        stats.bus.txns,
        "{label}: bus_arb_wait count != bus txns"
    );
    // Miss service: on a completed run every miss's service latency was
    // recorded exactly once.
    let misses: u64 = stats.per_proc.iter().map(|p| p.misses).sum();
    assert_eq!(
        hists.miss_service.count(),
        misses,
        "{label}: miss_service count != misses"
    );
    // Interval integrals must tile the scalar totals exactly.
    let win_refs: u64 = timeline.windows().iter().map(|w| w.refs).sum();
    let win_hits: u64 = timeline.windows().iter().map(|w| w.hits).sum();
    let win_bus: u64 = timeline.windows().iter().map(|w| w.bus_busy).sum();
    let win_wait: u64 = timeline.windows().iter().map(|w| w.waiter_cycles).sum();
    let hits: u64 = stats.per_proc.iter().map(|p| p.hits).sum();
    let lock_wait: u64 = stats.per_proc.iter().map(|p| p.lock_wait_cycles).sum();
    assert_eq!(win_refs, stats.total_refs(), "{label}: timeline refs != total refs");
    assert_eq!(win_hits, hits, "{label}: timeline hits != total hits");
    assert_eq!(win_bus, stats.bus.busy_cycles, "{label}: timeline bus != busy_cycles");
    assert_eq!(win_wait, lock_wait, "{label}: timeline waiters != lock_wait_cycles");
}

#[test]
fn critical_section_reconciles_on_all_protocols() {
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        let (stats, hists, timeline) = run(kind, 4, words, || {
            CriticalSectionWorkload::builder()
                .scheme(scheme_for(kind))
                .words_per_block(words)
                .locks(2)
                .payload_blocks(2)
                .payload_reads(3)
                .payload_writes(3)
                .think_cycles(10)
                .iterations(8)
                .build()
        });
        if scheme_for(kind) == LockSchemeKind::CacheLock {
            // Only the cache-state lock scheme surfaces acquisitions to the
            // system's LockStats; test-and-set spins via plain RMWs.
            assert!(stats.locks.acquires > 0, "{kind}: lock workload must acquire");
        }
        check(&format!("{kind}/cs"), &stats, &hists, &timeline);
    }
}

#[test]
fn random_sharing_reconciles_on_all_protocols_and_seeds() {
    for kind in ProtocolKind::ALL {
        for seed in [0xE0_5EED_u64, 0xBAD_CAFE, 7] {
            let (stats, hists, timeline) = run(kind, 4, 4, || {
                RandomSharingWorkload::new(RandomSharingConfig {
                    refs_per_proc: 300,
                    seed,
                    ..Default::default()
                })
            });
            check(&format!("{kind}/rs/{seed:#x}"), &stats, &hists, &timeline);
        }
    }
}

#[test]
fn producer_consumer_reconciles_on_all_protocols() {
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        let (stats, hists, timeline) =
            run(kind, 4, words, || ProducerConsumerWorkload::new(6, 3, 5).with_words_per_block(words));
        check(&format!("{kind}/pc"), &stats, &hists, &timeline);
    }
}

#[test]
fn never_denied_acquisitions_record_zero_wait() {
    // One processor, no contention: every acquire waits 0 cycles, and the
    // busy-wait histogram stays empty.
    let (stats, hists, _) = run(ProtocolKind::BitarDespain, 1, 4, || {
        CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::CacheLock)
            .words_per_block(4)
            .locks(1)
            .payload_blocks(1)
            .payload_reads(2)
            .payload_writes(2)
            .think_cycles(5)
            .iterations(5)
            .build()
    });
    assert!(stats.locks.acquires >= 5);
    assert_eq!(stats.locks.denied, 0);
    assert_eq!(hists.lock_acquire_wait.count(), stats.locks.acquires);
    assert_eq!(hists.lock_acquire_wait.max(), Some(0), "uncontended acquires wait 0");
    assert_eq!(hists.busy_wait.count(), 0, "no denial, no busy-wait episode");
}

#[test]
fn contended_lock_wait_distribution_is_nonzero() {
    // Heavy contention on one lock: the acquire-wait distribution must
    // show real waiting and its quantiles must be ordered.
    let (stats, hists, timeline) = run(ProtocolKind::BitarDespain, 6, 4, || {
        CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::CacheLock)
            .words_per_block(4)
            .locks(1)
            .payload_blocks(2)
            .payload_reads(4)
            .payload_writes(4)
            .think_cycles(0)
            .iterations(10)
            .build()
    });
    assert!(stats.locks.denied > 0, "6 procs on one lock must contend");
    assert!(hists.busy_wait.count() > 0);
    assert!(hists.busy_wait.max().unwrap() > 0);
    let p50 = hists.lock_acquire_wait.p50().unwrap();
    let p90 = hists.lock_acquire_wait.p90().unwrap();
    let p99 = hists.lock_acquire_wait.p99().unwrap();
    assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotone: {p50} {p90} {p99}");
    let waited: u64 = timeline.windows().iter().map(|w| w.waiter_cycles).sum();
    assert!(waited > 0, "timeline must see the waiters");
    check("bd/contended", &stats, &hists, &timeline);
}
