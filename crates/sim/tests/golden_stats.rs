//! Cross-commit pin on the engine's statistics.
//!
//! The equivalence suite compares the two engine modes of one build, so a
//! change that alters both modes the same way (the shared `step`, interval
//! accounting, arbitration order) passes it. This test pins the outputs
//! themselves: an FNV-1a digest of `format!("{:?}", stats)` for every cell
//! of a fixed grid, recorded on an earlier commit. Any digest change is a
//! behaviour change and must be justified, then re-recorded here.
//!
//! The grid covers every protocol on three workload families at 4
//! processors, the paper's cache-state lock at 64 and 130 processors (130
//! spans three 64-bit processor-set words), a test-and-set lock at 64
//! processors, work-while-waiting, and busy-wait timeout recovery.

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::Stats;
use mcs_sim::faults::FaultPlan;
use mcs_sim::{System, SystemConfig, Workload};
use mcs_sync::LockSchemeKind;
use mcs_workloads::{
    CriticalSectionWorkload, ProducerConsumerWorkload, RandomSharingConfig, RandomSharingWorkload,
};

const MAX_CYCLES: u64 = 20_000_000;

/// Digests recorded for each grid cell, by label.
const GOLDEN: &[(&str, u64)] = &[
    ("classic-wt/cs/4", 0x06502fbf7171123e),
    ("classic-wt/rs/4", 0xd1216d3c845cd68d),
    ("classic-wt/pc/4", 0x7a5cc8ae395aca60),
    ("goodman/cs/4", 0xad990bf48f673763),
    ("goodman/rs/4", 0x382bdfde650a1cf3),
    ("goodman/pc/4", 0xb4bf8f7845739476),
    ("synapse/cs/4", 0x1505a39f6fec462a),
    ("synapse/rs/4", 0x5efa044a650f558a),
    ("synapse/pc/4", 0xee63a92488b56985),
    ("illinois/cs/4", 0x5c4ec2c734a373d8),
    ("illinois/rs/4", 0x7a15166931ef28bf),
    ("illinois/pc/4", 0xe6e985879b151b91),
    ("yen/cs/4", 0x2fe810ca0b0ec7a1),
    ("yen/rs/4", 0x0a31e76065ebdfaa),
    ("yen/pc/4", 0x5d30e5e93fc7f109),
    ("berkeley/cs/4", 0x3439d1a785e91f86),
    ("berkeley/rs/4", 0x4698a69345f88ff0),
    ("berkeley/pc/4", 0x8c009123d43f07b2),
    ("dragon/cs/4", 0x118620169bf8c83d),
    ("dragon/rs/4", 0x925f58129445067d),
    ("dragon/pc/4", 0x49952416550497b4),
    ("firefly/cs/4", 0xa7fc6ffb315cfae2),
    ("firefly/rs/4", 0xcf989319868916be),
    ("firefly/pc/4", 0x96fb906048dfd031),
    ("rudolph-segall/cs/4", 0xaaba48efe6d03fa3),
    ("rudolph-segall/rs/4", 0xbb7f3994f6ae6007),
    ("rudolph-segall/pc/4", 0x78928e22778edd2f),
    ("bitar-despain/cs/4", 0xf7ff02374c1c3a40),
    ("bitar-despain/rs/4", 0xd311316ab8a2eb07),
    ("bitar-despain/pc/4", 0xe7f6bdc05bf8b821),
    ("bitar-despain/cache-lock/64", 0x86ef527b3e8ee95b),
    ("bitar-despain/cache-lock/130", 0x75e30ffca6cb7ab5),
    ("illinois/tas/64", 0x3e88161c78a0501e),
    ("bitar-despain/ready-sections/4", 0x2f19ff9bc16953a6),
    ("bitar-despain/lost-unlock-timeouts/8", 0xa0573341195212a8),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn words_for(kind: ProtocolKind) -> usize {
    if kind.requires_word_blocks() {
        1
    } else {
        4
    }
}

fn scheme_for(kind: ProtocolKind) -> LockSchemeKind {
    if kind == ProtocolKind::BitarDespain {
        LockSchemeKind::CacheLock
    } else {
        LockSchemeKind::TestAndSet
    }
}

fn run<W: Workload>(
    kind: ProtocolKind,
    procs: usize,
    cfg_hook: impl FnOnce(SystemConfig) -> SystemConfig,
    mut workload: W,
) -> Stats {
    let cache = CacheConfig::fully_associative(64, words_for(kind)).expect("valid cache");
    with_protocol!(kind, p => {
        let cfg = cfg_hook(SystemConfig::new(procs).with_cache(cache));
        let mut sys = System::new(p, cfg).expect("valid system");
        let report = sys.run(&mut workload, MAX_CYCLES).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(report.completed, "{kind} on {procs} processors did not complete");
        report.stats
    })
}

fn lock_workload(
    scheme: LockSchemeKind,
    words: usize,
    iterations: usize,
) -> CriticalSectionWorkload {
    CriticalSectionWorkload::builder()
        .scheme(scheme)
        .words_per_block(words)
        .locks(1)
        .payload_blocks(2)
        .payload_reads(2)
        .payload_writes(2)
        .think_cycles(40)
        .iterations(iterations)
        .build()
}

/// Every grid cell's label and statistics, in table order.
fn grid() -> Vec<(String, Stats)> {
    let mut cells = Vec::new();
    for kind in ProtocolKind::ALL {
        let words = words_for(kind);
        let id = kind.id();
        let cs = CriticalSectionWorkload::builder()
            .scheme(scheme_for(kind))
            .words_per_block(words)
            .locks(2)
            .payload_blocks(2)
            .payload_reads(2)
            .payload_writes(2)
            .think_cycles(15)
            .iterations(6)
            .build();
        cells.push((format!("{id}/cs/4"), run(kind, 4, |c| c, cs)));
        let rs = RandomSharingWorkload::new(RandomSharingConfig {
            refs_per_proc: 400,
            seed: 0x601D,
            ..Default::default()
        });
        cells.push((format!("{id}/rs/4"), run(kind, 4, |c| c, rs)));
        let pc = ProducerConsumerWorkload::new(6, 3, 5).with_words_per_block(words);
        cells.push((format!("{id}/pc/4"), run(kind, 4, |c| c, pc)));
    }
    let bd = ProtocolKind::BitarDespain;
    for procs in [64, 130] {
        let w = lock_workload(LockSchemeKind::CacheLock, 4, 2);
        cells.push((
            format!("bitar-despain/cache-lock/{procs}"),
            run(bd, procs, |c| c, w),
        ));
    }
    let tas = ProtocolKind::Illinois;
    let w = lock_workload(LockSchemeKind::TestAndSet, 4, 2);
    cells.push(("illinois/tas/64".to_string(), run(tas, 64, |c| c, w)));
    let ready = CriticalSectionWorkload::builder()
        .scheme(LockSchemeKind::CacheLock)
        .words_per_block(4)
        .locks(1)
        .payload_blocks(2)
        .payload_reads(4)
        .payload_writes(4)
        .think_cycles(3)
        .iterations(8)
        .work_while_waiting(5)
        .build();
    cells.push((
        "bitar-despain/ready-sections/4".to_string(),
        run(bd, 4, |c| c, ready),
    ));
    let timeouts = lock_workload(LockSchemeKind::CacheLock, 4, 3);
    let plan = FaultPlan::new(0xDEAD)
        .lose_unlock(500)
        .busy_wait_timeout(700)
        .backoff(2, 64);
    cells.push((
        "bitar-despain/lost-unlock-timeouts/8".to_string(),
        run(bd, 8, |c| c.with_faults(plan), timeouts),
    ));
    cells
}

#[test]
fn stats_digests_match_the_recorded_grid() {
    let cells = grid();
    let actual: Vec<(String, u64)> = cells
        .iter()
        .map(|(label, stats)| (label.clone(), fnv1a(format!("{stats:?}").as_bytes())))
        .collect();
    let table: String = actual
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n"))
        .collect();
    let labels: Vec<&str> = actual.iter().map(|(l, _)| l.as_str()).collect();
    let golden: Vec<&str> = GOLDEN.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels, golden,
        "grid cells changed; recorded table should read:\n{table}"
    );
    let diverged: Vec<&str> = actual
        .iter()
        .zip(GOLDEN)
        .filter(|((_, a), (_, g))| a != g)
        .map(|((label, _), _)| label.as_str())
        .collect();
    assert!(
        diverged.is_empty(),
        "stats diverged for {diverged:?}; actual table:\n{table}"
    );
}

/// Digest of the interval time-series (bus, references and the
/// lock-waiter integral per window) of a work-while-waiting lock run,
/// recorded on the same earlier commit as [`GOLDEN`].
const GOLDEN_TIMELINE: u64 = 0x6845be658f7aee19;

#[test]
fn timeline_digest_matches_the_recorded_run() {
    let mut w = CriticalSectionWorkload::builder()
        .scheme(LockSchemeKind::CacheLock)
        .words_per_block(4)
        .locks(1)
        .payload_blocks(2)
        .payload_reads(3)
        .payload_writes(3)
        .think_cycles(20)
        .iterations(4)
        .work_while_waiting(7)
        .build();
    let cache = CacheConfig::fully_associative(64, 4).expect("valid cache");
    let cfg = SystemConfig::new(16).with_cache(cache).with_timeline(300);
    let mut sys = System::new(mcs_core::BitarDespain, cfg).expect("valid system");
    let report = sys.run(&mut w, MAX_CYCLES).expect("healthy run");
    assert!(report.completed && report.stats.locks.denied > 0);
    let windows = sys.timeline().expect("timeline enabled").windows();
    let digest = fnv1a(format!("{windows:?}").as_bytes());
    assert_eq!(digest, GOLDEN_TIMELINE, "timeline diverged: {digest:#018x}");
}
