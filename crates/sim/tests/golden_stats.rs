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
//! processors, the paper's cache-state lock and a test-and-set lock at 64
//! and 130 processors (130 spans three 64-bit words of every per-processor
//! bitset), work-while-waiting, and busy-wait timeout recovery. A few
//! cells pin more than `Stats`: the per-cache directory counters of the 64-
//! and 130-processor lock runs, the fault counters of dropped-snoop runs at
//! 16 and 130 processors, and the data and line states an I/O script
//! leaves behind. Together with Rudolph-Segall's revalidation of invalid
//! copies at 16 and 130 processors, these are the cases where an invalid
//! frame's snoop can be observed. The last cells pin replacement within a
//! set: random sharing on an 8-set, 4-way cache (Goodman's invalid copies
//! are taken before valid lines), and lock runs on 2-set caches where the
//! holder's locked line is skipped as a victim (2 ways) or spilled to
//! memory (1 way).

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::{Addr, BlockAddr, CacheId, DirectoryStats, ProcId, ProcOp, Stats, Word};
use mcs_sim::faults::{FaultPlan, FaultStats};
use mcs_sim::{ScriptWorkload, System, SystemConfig, Workload};
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
    ("illinois/tas/130", 0xf97f3fb4106fa339),
    ("bitar-despain/ready-sections/4", 0x2f19ff9bc16953a6),
    ("bitar-despain/lost-unlock-timeouts/8", 0xa0573341195212a8),
    ("rudolph-segall/rs/16", 0xaec498350168abdc),
    ("rudolph-segall/rs/130", 0xdb2f936235f20c8d),
    ("bitar-despain/cache-lock/64/directories", 0x5e9dfb5d5827e341),
    ("bitar-despain/cache-lock/130/directories", 0x2e66805620e7ca85),
    ("bitar-despain/cache-lock/16/dropped-snoops", 0x2346a368a175ca63),
    ("bitar-despain/cache-lock/130/dropped-snoops", 0xea7165081c7bb388),
    ("io-script/4", 0x12c34b949434840f),
    ("bitar-despain/rs/4/8x4", 0xe1d61096f6ae4905),
    ("goodman/rs/4/8x4", 0x4e6acbaa1614f95c),
    ("bitar-despain/cache-lock/4/2x2", 0x3b6e3768af4b134b),
    ("bitar-despain/cache-lock/4/2x1", 0x05cd0f37a75ad29f),
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
    with_protocol!(kind, p => LockSchemeKind::paired_with(&p))
}

/// What a finished run leaves behind: its statistics, fault counters and
/// per-cache directory counters.
struct Outcome {
    stats: Stats,
    faults: Option<FaultStats>,
    directories: Vec<DirectoryStats>,
}

fn run<W: Workload>(
    kind: ProtocolKind,
    procs: usize,
    cfg_hook: impl FnOnce(SystemConfig) -> SystemConfig,
    workload: W,
) -> Outcome {
    let cache = CacheConfig::fully_associative(64, words_for(kind)).expect("valid cache");
    run_on(kind, procs, cache, cfg_hook, workload)
}

/// [`run`] on a given cache geometry.
fn run_on<W: Workload>(
    kind: ProtocolKind,
    procs: usize,
    cache: CacheConfig,
    cfg_hook: impl FnOnce(SystemConfig) -> SystemConfig,
    mut workload: W,
) -> Outcome {
    with_protocol!(kind, p => {
        let cfg = cfg_hook(SystemConfig::new(procs).with_cache(cache));
        let mut sys = System::new(p, cfg).expect("valid system");
        let report = sys.run(&mut workload, MAX_CYCLES).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(report.completed, "{kind} on {procs} processors did not complete");
        assert_counter_laws(kind, &report.stats);
        Outcome {
            stats: report.stats,
            faults: report.faults,
            directories: (0..procs).map(|c| sys.directory_stats(CacheId(c))).collect(),
        }
    })
}

/// Laws every run's counters keep: each reference is a hit or a miss, and
/// zero-time (cache-hit) lock operations are a subset of all of them, as
/// releases are of acquires.
fn assert_counter_laws(kind: ProtocolKind, stats: &Stats) {
    for (i, p) in stats.per_proc.iter().enumerate() {
        assert_eq!(p.refs, p.hits + p.misses, "{kind}: P{i} refs != hits + misses");
    }
    let l = &stats.locks;
    assert!(l.zero_time_acquires <= l.acquires, "{kind}: zero-time acquires exceed acquires: {l:?}");
    assert!(l.zero_time_releases <= l.releases, "{kind}: zero-time releases exceed releases: {l:?}");
    assert!(l.releases <= l.acquires, "{kind}: releases exceed acquires: {l:?}");
}

/// An I/O script on every protocol: copies spread and go stale under
/// processor traffic while input, paging output and non-paging output
/// snoop them. Renders each protocol's statistics, the blocks the I/O
/// processor read, and every cache's final line states. The I/O
/// transfers snoop through the same loop as granted transactions, so each
/// charges the bus-side directory of every cache with a frame for its
/// block, and `stats()` read right after one already counts it.
fn io_script() -> String {
    let mut text = String::new();
    for kind in ProtocolKind::ALL {
        let words = words_for(kind);
        let cache = CacheConfig::fully_associative(16, words).expect("valid cache");
        with_protocol!(kind, p => {
            let mut sys =
                System::new(p, SystemConfig::new(4).with_cache(cache)).expect("valid system");
            let block = |b: u64| BlockAddr(b);
            let addr = |b: u64| Addr(b * words as u64);
            let script = |sys: &mut System<_>, ops: Vec<(usize, ProcOp)>| {
                let ops = ops.into_iter().map(|(i, op)| (ProcId(i), op)).collect();
                sys.run(&mut ScriptWorkload::new(ops), MAX_CYCLES)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
            };
            script(&mut sys, vec![
                (0, ProcOp::read(addr(0))),
                (1, ProcOp::read(addr(0))),
                (2, ProcOp::read(addr(0))),
                (3, ProcOp::write(addr(0), Word(7))),
                (1, ProcOp::read(addr(1))),
                (2, ProcOp::write(addr(1), Word(8))),
            ]);
            let mut seen = vec![sys.io_output(block(0), false).expect("io output")];
            script(&mut sys, vec![(0, ProcOp::read(addr(0))), (1, ProcOp::write(addr(0), Word(9)))]);
            let input: Vec<Word> = (20..20 + words as u64).map(Word).collect();
            sys.io_input(block(0), &input).expect("io input");
            sys.io_input(block(5), &input).expect("io input");
            script(&mut sys, vec![
                (2, ProcOp::read(addr(0))),
                (3, ProcOp::read(addr(1))),
                (0, ProcOp::write(addr(1), Word(11))),
            ]);
            // A paged-out block's memory copy is dead until it is paged in.
            seen.push(sys.io_output(block(1), true).expect("io output"));
            sys.io_input(block(1), &input).expect("io input");
            seen.push(sys.io_output(block(0), false).expect("io output"));
            script(&mut sys, vec![(1, ProcOp::read(addr(1))), (2, ProcOp::write(addr(0), Word(12)))]);
            seen.push(sys.io_output(block(0), true).expect("io output"));
            let states: Vec<String> = (0..4)
                .flat_map(|c| (0..2).map(move |b| (c, b)))
                .map(|(c, b)| sys.state_of(CacheId(c), block(b)).to_string())
                .collect();
            text += &format!("{kind}: {:?} {seen:?} {states:?}\n", sys.stats());
        });
    }
    text
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

/// Every grid cell's label and the text its digest covers (the `Stats`
/// debug rendering unless noted), in table order.
fn grid() -> Vec<(String, String)> {
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
        cells.push((format!("{id}/cs/4"), stats_text(run(kind, 4, |c| c, cs))));
        let rs = RandomSharingWorkload::new(RandomSharingConfig {
            refs_per_proc: 400,
            seed: 0x601D,
            ..Default::default()
        });
        cells.push((format!("{id}/rs/4"), stats_text(run(kind, 4, |c| c, rs))));
        let pc = ProducerConsumerWorkload::new(6, 3, 5).with_words_per_block(words);
        cells.push((format!("{id}/pc/4"), stats_text(run(kind, 4, |c| c, pc))));
    }
    let bd = ProtocolKind::BitarDespain;
    let mut directories = Vec::new();
    for procs in [64, 130] {
        let w = lock_workload(LockSchemeKind::CacheLock, 4, 2);
        let out = run(bd, procs, |c| c, w);
        directories.push((procs, format!("{:?}", out.directories)));
        cells.push((format!("bitar-despain/cache-lock/{procs}"), stats_text(out)));
    }
    // Test-and-set leaves many invalid copies of the lock block behind
    // every write; at 130 processors they span three mask words.
    let tas = ProtocolKind::Illinois;
    for procs in [64, 130] {
        let w = lock_workload(LockSchemeKind::TestAndSet, 4, 2);
        cells.push((format!("illinois/tas/{procs}"), stats_text(run(tas, procs, |c| c, w))));
    }
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
        stats_text(run(bd, 4, |c| c, ready)),
    ));
    let timeouts = lock_workload(LockSchemeKind::CacheLock, 4, 3);
    let plan = FaultPlan::new(0xDEAD)
        .lose_unlock(500)
        .busy_wait_timeout(700)
        .backoff(2, 64);
    cells.push((
        "bitar-despain/lost-unlock-timeouts/8".to_string(),
        stats_text(run(bd, 8, |c| c.with_faults(plan), timeouts)),
    ));
    // Rudolph-Segall's write-through updates every copy and revalidates
    // invalid ones, so its writes must still reach stale frames.
    let rs = RandomSharingWorkload::new(RandomSharingConfig {
        refs_per_proc: 300,
        seed: 0x5A1E,
        ..Default::default()
    });
    cells.push((
        "rudolph-segall/rs/16".to_string(),
        stats_text(run(ProtocolKind::RudolphSegall, 16, |c| c, rs)),
    ));
    let rs = RandomSharingWorkload::new(RandomSharingConfig {
        refs_per_proc: 60,
        seed: 0x5A1E,
        ..Default::default()
    });
    cells.push((
        "rudolph-segall/rs/130".to_string(),
        stats_text(run(ProtocolKind::RudolphSegall, 130, |c| c, rs)),
    ));
    for (procs, text) in directories {
        cells.push((format!("bitar-despain/cache-lock/{procs}/directories"), text));
    }
    // Every resident frame a dropped-snoop plan visits draws from the
    // fault stream, invalid copies included. Digests Stats and FaultStats.
    // At 130 processors a dropped reply from the lock holder lets a second
    // cache take the lock, which the oracle would stop, so the oracle is
    // off there: that cell pins where the draws fall, not exclusion.
    for procs in [16, 130] {
        let w = lock_workload(LockSchemeKind::CacheLock, 4, 2);
        let plan = FaultPlan::new(0xD809).drop_snoop(DROP_PERMILLE);
        let out = run(bd, procs, |c| c.with_faults(plan).with_oracle(procs == 16), w);
        let faults = out.faults.clone().expect("fault layer on");
        assert!(faults.dropped_snoops > 0, "the plan must drop snoops");
        cells.push((
            format!("bitar-despain/cache-lock/{procs}/dropped-snoops"),
            format!("{:?} {faults:?}", out.stats),
        ));
    }
    cells.push(("io-script/4".to_string(), io_script()));
    // Set-associative replacement: 8 sets of 4 ways, so victims are chosen
    // within a set. Goodman's write-once leaves invalid copies, which are
    // taken before any valid line.
    let sa = CacheConfig::set_associative(8, 4, 4).expect("valid cache");
    for kind in [ProtocolKind::BitarDespain, ProtocolKind::Goodman] {
        let rs = RandomSharingWorkload::new(RandomSharingConfig {
            refs_per_proc: 400,
            seed: 0x5E75,
            ..Default::default()
        });
        cells.push((format!("{}/rs/4/8x4", kind.id()), stats_text(run_on(kind, 4, sa, |c| c, rs))));
    }
    // Locked ways are never victims while an unlocked way remains: with 2
    // ways and six payload blocks per atom, the holder's locked line is
    // often its set's least recently used. With 1 way, allocating payload
    // into the locked line's set spills its lock bit to memory (Section
    // E.3).
    for (ways, payload_blocks) in [(2, 6), (1, 4)] {
        let cs = CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::CacheLock)
            .words_per_block(4)
            .locks(3)
            .payload_blocks(payload_blocks)
            .payload_reads(3)
            .payload_writes(3)
            .think_cycles(10)
            .iterations(6)
            .build();
        let small = CacheConfig::set_associative(2, ways, 4).expect("valid cache");
        let out = run_on(bd, 4, small, |c| c, cs);
        if ways == 1 {
            assert!(out.stats.locks.lock_spills > 0, "the 1-way cell must spill lock bits");
        }
        cells.push((format!("bitar-despain/cache-lock/4/2x{ways}"), stats_text(out)));
    }
    cells
}

/// Dropped-snoop rate of the fault cell, per mille.
const DROP_PERMILLE: u16 = 20;

fn stats_text(out: Outcome) -> String {
    format!("{:?}", out.stats)
}

#[test]
fn stats_digests_match_the_recorded_grid() {
    let cells = grid();
    let actual: Vec<(String, u64)> = cells
        .iter()
        .map(|(label, text)| (label.clone(), fnv1a(text.as_bytes())))
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
