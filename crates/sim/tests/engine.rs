//! Engine validation against a minimal MSI protocol.
//!
//! These tests exercise the bus engine's mechanics — snooping, data
//! movement, invalidation, flushes, evictions, oracles, determinism —
//! independent of the paper's richer protocols.

use mcs_cache::CacheConfig;
use mcs_model::{
    line_states, AccessKind, Addr, BlockAddr, BusOp, BusTxn, CacheId, CompleteOutcome, Event,
    Privilege, ProcAction, ProcId, ProcOp, Protocol, SnoopOutcome, SnoopReply,
    SnoopSummary, Word,
};
use mcs_protocols::{Illinois, IllinoisState};
use mcs_sim::ScriptStep::{self, Compute, Op};
use mcs_sim::{ParallelScriptWorkload, ScriptWorkload, System, SystemConfig};

line_states! {
    enum Msi {
        I = "I",
        S = "S" (Read),
        M = "M" (Write, source, dirty),
    }
}

/// A three-state write-invalidate protocol, just rich enough to drive the
/// engine.
#[derive(Debug, Default, Clone, Copy)]
struct MiniMsi;

impl Protocol for MiniMsi {
    type State = Msi;

    fn name(&self) -> &'static str {
        "mini-msi"
    }

    fn proc_access(&self, state: Msi, kind: AccessKind) -> ProcAction<Msi> {
        use AccessKind::*;
        match (state, kind) {
            (Msi::M, _) => ProcAction::Hit { next: Msi::M },
            (Msi::S, Read | LockRead | ReadForWrite) => ProcAction::Hit { next: Msi::S },
            (Msi::S, _) if kind.is_write() => ProcAction::Bus { op: BusOp::Invalidate },
            (_, WriteNoFetch) => ProcAction::Bus { op: BusOp::ClaimNoFetch },
            (Msi::I, Read) => {
                ProcAction::Bus { op: BusOp::Fetch { privilege: Privilege::Read, need_data: true } }
            }
            (Msi::I, _) => ProcAction::Bus {
                op: BusOp::Fetch { privilege: Privilege::Write, need_data: true },
            },
            (s, _) => ProcAction::Hit { next: s },
        }
    }

    fn snoop(&self, state: Msi, txn: &BusTxn) -> SnoopOutcome<Msi> {
        match (state, txn.op) {
            (Msi::M, BusOp::Fetch { privilege: Privilege::Read, .. }) => SnoopOutcome {
                next: Msi::S,
                reply: SnoopReply {
                    hit: true,
                    source: true,
                    dirty_status: Some(true),
                    supplies_data: true,
                    inhibit_memory: true,
                    flushes: true,
                    ..Default::default()
                },
            },
            (Msi::M, BusOp::Fetch { .. }) => SnoopOutcome {
                next: Msi::I,
                reply: SnoopReply {
                    hit: true,
                    source: true,
                    dirty_status: Some(true),
                    supplies_data: true,
                    inhibit_memory: true,
                    ..Default::default()
                },
            },
            (Msi::S, BusOp::Fetch { privilege: Privilege::Read, .. }) => {
                SnoopOutcome { next: Msi::S, reply: SnoopReply { hit: true, ..Default::default() } }
            }
            (Msi::S, BusOp::Fetch { .. } | BusOp::Invalidate | BusOp::ClaimNoFetch) => {
                SnoopOutcome { next: Msi::I, reply: SnoopReply { hit: true, ..Default::default() } }
            }
            (Msi::M, BusOp::ClaimNoFetch) => SnoopOutcome {
                next: Msi::I,
                reply: SnoopReply { hit: true, flushes: true, ..Default::default() },
            },
            (Msi::M | Msi::S, BusOp::IoInput) => {
                SnoopOutcome { next: Msi::I, reply: SnoopReply { hit: true, ..Default::default() } }
            }
            (Msi::M, BusOp::IoOutput { paging }) => SnoopOutcome {
                next: if paging { Msi::I } else { Msi::M },
                reply: SnoopReply {
                    hit: true,
                    supplies_data: true,
                    inhibit_memory: true,
                    flushes: true,
                    ..Default::default()
                },
            },
            (s, _) => SnoopOutcome::ignore(s),
        }
    }

    fn complete(
        &self,
        _state: Msi,
        _kind: AccessKind,
        txn: &BusTxn,
        _summary: &SnoopSummary,
    ) -> CompleteOutcome<Msi> {
        let next = match txn.op {
            BusOp::Fetch { privilege: Privilege::Read, .. } => Msi::S,
            BusOp::Fetch { .. } | BusOp::Invalidate | BusOp::ClaimNoFetch => Msi::M,
            _ => Msi::I,
        };
        CompleteOutcome::Installed { next }
    }
}

fn sys(procs: usize) -> System<MiniMsi> {
    System::new(MiniMsi, SystemConfig::new(procs).with_trace(true)).unwrap()
}

#[test]
fn write_then_remote_read_sees_value() {
    let mut s = sys(2);
    let mut script = ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::write(Addr(0), Word(7))),
        (ProcId(1), ProcOp::read(Addr(0))),
    ]);
    let stats = s.run(&mut script, 10_000).unwrap().stats;
    assert_eq!(script.results()[1].2.value, Some(Word(7)));
    // The dirty block was supplied cache-to-cache and flushed.
    assert_eq!(stats.sources.from_cache, 1);
    assert_eq!(stats.sources.flushes, 1);
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), Msi::S);
    assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), Msi::S);
}

#[test]
fn read_sharing_generates_no_invalidations() {
    let mut s = sys(3);
    let stats = s
        .run(&mut ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(4))),
            (ProcId(1), ProcOp::read(Addr(4))),
            (ProcId(2), ProcOp::read(Addr(4))),
        ]), 10_000).unwrap().stats;
    assert_eq!(stats.bus.invalidations, 0);
    assert_eq!(stats.sources.from_memory, 3);
    for c in 0..3 {
        assert_eq!(s.state_of(CacheId(c), BlockAddr(1)), Msi::S);
    }
}

#[test]
fn write_hit_on_shared_invalidates_others() {
    let mut s = sys(2);
    let stats = s
        .run(&mut ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(8))),
            (ProcId(1), ProcOp::read(Addr(8))),
            (ProcId(0), ProcOp::write(Addr(8), Word(3))),
        ]), 10_000).unwrap().stats;
    assert_eq!(s.state_of(CacheId(0), BlockAddr(2)), Msi::M);
    assert_eq!(s.state_of(CacheId(1), BlockAddr(2)), Msi::I);
    assert_eq!(stats.bus.invalidations, 1);
    assert_eq!(stats.bus.count("invalidate"), 1);
}

#[test]
fn rmw_returns_old_value_atomically() {
    let mut s = sys(2);
    let mut script = ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::write(Addr(0), Word(5))),
        (ProcId(1), ProcOp::rmw(Addr(0), Word(1))),
        (ProcId(0), ProcOp::read(Addr(0))),
    ]);
    s.run(&mut script, 10_000).unwrap();
    assert_eq!(script.results()[1].2.value, Some(Word(5))); // old value
    assert_eq!(script.results()[2].2.value, Some(Word(1))); // new value visible
}

#[test]
fn eviction_writes_back_dirty_blocks() {
    // Two frames only: the third distinct block evicts the first.
    let config = SystemConfig::new(1)
        .with_cache(CacheConfig::fully_associative(2, 4).unwrap());
    let mut s = System::new(MiniMsi, config).unwrap();
    let mut script = ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::write(Addr(0), Word(11))),  // block 0
        (ProcId(0), ProcOp::write(Addr(4), Word(22))),  // block 1
        (ProcId(0), ProcOp::write(Addr(8), Word(33))),  // block 2, evicts block 0
        (ProcId(0), ProcOp::read(Addr(0))),             // re-fetch block 0 from memory
    ]);
    let stats = s.run(&mut script, 10_000).unwrap().stats;
    assert!(stats.sources.flushes >= 1);
    assert_eq!(script.results()[3].2.value, Some(Word(11)));
}

#[test]
fn write_no_fetch_claims_whole_block() {
    let mut s = sys(2);
    let mut script = ScriptWorkload::new(vec![
        (ProcId(1), ProcOp::read(Addr(12))), // someone shares the block
        (ProcId(0), ProcOp::write_no_fetch(Addr(12), Word(9))),
        (ProcId(0), ProcOp::read(Addr(15))), // any word of block 3 reads 9
    ]);
    let stats = s.run(&mut script, 10_000).unwrap().stats;
    assert_eq!(script.results()[2].2.value, Some(Word(9)));
    assert_eq!(s.state_of(CacheId(1), BlockAddr(3)), Msi::I);
    assert_eq!(stats.bus.count("claim-no-fetch"), 1);
    // No data words moved for the claim itself.
    assert_eq!(stats.sources.fetches, 1); // only proc 1's read
}

#[test]
fn io_input_invalidates_and_updates_memory() {
    let mut s = sys(2);
    s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]), 10_000).unwrap();
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), Msi::S);
    s.io_input(BlockAddr(0), &[Word(1), Word(2), Word(3), Word(4)]).unwrap();
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), Msi::I);
    let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(2)))]);
    s.run(&mut script, 10_000).unwrap();
    assert_eq!(script.results()[0].2.value, Some(Word(3)));
}

#[test]
fn io_output_reads_latest_version_from_cache() {
    let mut s = sys(1);
    s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::write(Addr(1), Word(77)))]), 10_000)
        .unwrap();
    let data = s.io_output(BlockAddr(0), false).unwrap();
    assert_eq!(data[1], Word(77));
    // Non-paging output leaves the copy in place.
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), Msi::M);
    let data = s.io_output(BlockAddr(0), true).unwrap();
    assert_eq!(data[1], Word(77));
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), Msi::I);
}

/// I/O transfers are bus transactions like any other (Section E.2): a
/// dirty copy's flush is emitted and counted, and every resident frame's
/// bus-side directory looks the block up, a skipped stale one included.
#[test]
fn io_transfers_snoop_like_every_bus_transaction() {
    let mut s = sys(2);
    // P1's shared copy goes stale when P0 writes the block.
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(1), ProcOp::read(Addr(0))),
        (ProcId(0), ProcOp::write(Addr(0), Word(5))),
    ]), 10_000).unwrap();
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), Msi::M);
    assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), Msi::I);
    let bus_accesses = |s: &System<MiniMsi>| {
        [0, 1].map(|c| s.directory_stats(CacheId(c)).bus_accesses)
    };
    let flushes = s.stats().sources.flushes;
    let [c0, c1] = bus_accesses(&s);
    let events = s.trace().len();

    let data = s.io_output(BlockAddr(0), true).unwrap();
    assert_eq!(data[0], Word(5));
    let new_flushes: Vec<_> = s
        .trace()
        .iter()
        .skip(events)
        .filter(|(_, e)| matches!(e, Event::Flush { .. }))
        .map(|(_, e)| e.clone())
        .collect();
    assert_eq!(new_flushes, [Event::Flush { cache: CacheId(0), block: BlockAddr(0) }]);
    assert_eq!(s.stats().sources.flushes, flushes + 1);
    assert_eq!(bus_accesses(&s), [c0 + 1, c1 + 1]);
    // `stats()` holds the I/O's directory and per-op counts without a run.
    assert_eq!(s.stats().directory.bus_accesses, c0 + c1 + 2);
    assert_eq!(s.stats().bus.count("io-output-paging"), 1);

    // Both copies are stale now; the input still charges both directories.
    s.io_input(BlockAddr(0), &[Word(1), Word(2), Word(3), Word(4)]).unwrap();
    assert_eq!(bus_accesses(&s), [c0 + 2, c1 + 2]);
    assert_eq!(s.stats().bus.count("io-input"), 1);
}

/// A cycle count of `u64::MAX` means "no limit": a run ceiling of
/// `u64::MAX` on a warm system, and a workload computing for `u64::MAX`
/// cycles, saturate at the end of time instead of overflowing
/// `now + cycles`.
#[test]
fn u64_max_cycle_counts_saturate() {
    let mut s = sys(2);
    for run in 0..2 {
        let mut w = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]);
        let report = s.run(&mut w, u64::MAX).unwrap_or_else(|e| panic!("run {run}: {e}"));
        assert!(report.completed, "run {run} did not complete");
    }
    let start = s.now();
    let mut forever = ParallelScriptWorkload::new().program(ProcId(0), vec![Compute(u64::MAX)]);
    let report = s.run(&mut forever, 1_000).unwrap();
    assert!(!report.completed, "the computation outlasts the ceiling");
    assert_eq!(s.now(), start + 1_000);
}

#[test]
fn determinism_same_script_same_stats() {
    let script = vec![
        (ProcId(0), ProcOp::write(Addr(0), Word(1))),
        (ProcId(1), ProcOp::read(Addr(0))),
        (ProcId(2), ProcOp::write(Addr(0), Word(2))),
        (ProcId(0), ProcOp::read(Addr(0))),
    ];
    let a = sys(3).run(&mut ScriptWorkload::new(script.clone()), 10_000).unwrap().stats;
    let b = sys(3).run(&mut ScriptWorkload::new(script), 10_000).unwrap().stats;
    assert_eq!(a, b);
}

#[test]
fn stats_account_hits_and_misses() {
    let mut s = sys(1);
    let stats = s
        .run(&mut ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::read(Addr(0))),  // miss
            (ProcId(0), ProcOp::read(Addr(1))),  // hit (same block)
            (ProcId(0), ProcOp::write(Addr(0), Word(1))), // miss (upgrade)
            (ProcId(0), ProcOp::write(Addr(1), Word(2))), // hit
        ]), 10_000).unwrap().stats;
    assert_eq!(stats.total_refs(), 4);
    assert_eq!(stats.per_proc[0].hits, 2);
    assert_eq!(stats.per_proc[0].misses, 2);
    assert!(stats.cycles > 0);
    assert!(stats.bus.busy_cycles > 0);
}

#[test]
fn trace_records_bus_and_state_changes() {
    let mut s = sys(2);
    let script = vec![(ProcId(0), ProcOp::write(Addr(0), Word(1))), (ProcId(1), ProcOp::read(Addr(0)))];
    s.run(&mut ScriptWorkload::new(script), 10_000).unwrap();
    let rendered = s.trace().render();
    assert!(rendered.contains("fetch-write"));
    assert!(rendered.contains("fetch-read"));
    assert!(rendered.contains("M -> S"));
    assert!(rendered.contains("provides"));
}

#[test]
fn random_soak_against_oracle() {
    use mcs_model::Rng64;
    let mut rng = Rng64::seed_from_u64(0xB17A);
    for round in 0..8 {
        let procs = 2 + (round % 3);
        let mut script = Vec::new();
        let mut serial = 1u64;
        #[allow(clippy::explicit_counter_loop)]
        for _ in 0..300 {
            let p = ProcId(rng.gen_range_usize(0..procs));
            let addr = Addr(rng.gen_range_u64(0..24));
            let op = match rng.gen_range_u64(0..4) {
                0 => ProcOp::read(addr),
                1 => ProcOp::write(addr, Word(serial)),
                2 => ProcOp::rmw(addr, Word(serial)),
                _ => ProcOp::read_for_write(addr),
            };
            serial += 1;
            script.push((p, op));
        }
        // The oracle inside `run` validates every read.
        sys(procs).run(&mut ScriptWorkload::new(script), 200_000).expect("oracle must hold");
    }
}

/// Runs per-processor programs on a traced Illinois system.
fn run_illinois(programs: Vec<Vec<ScriptStep>>) -> (System<Illinois>, ParallelScriptWorkload) {
    let procs = programs.len();
    let mut w = ParallelScriptWorkload::new();
    for (p, steps) in programs.into_iter().enumerate() {
        w = w.program(ProcId(p), steps);
    }
    let mut s = System::new(Illinois, SystemConfig::new(procs).with_trace(true)).unwrap();
    assert!(s.run(&mut w, 10_000).unwrap().completed);
    (s, w)
}

/// A conditional store (Section F.3, method 3) presented after another
/// processor's write invalidated its line aborts on the spot: no bus
/// transaction of its own.
#[test]
fn conditional_store_aborts_at_presentation_when_its_line_was_stolen() {
    let (s, w) = run_illinois(vec![
        vec![
            Op(ProcOp::read(Addr(0))),
            Compute(100),
            Op(ProcOp::write_if_owned(Addr(0), Word(5))),
        ],
        vec![Compute(30), Op(ProcOp::write(Addr(0), Word(9)))],
    ]);
    // Presented at 111, after P1's write took the line at 31, and
    // aborted in the same cycle rather than queued for a grant.
    let (op, result, at) = w.results_of(ProcId(0))[1];
    assert_eq!(op.kind, AccessKind::WriteIfOwned);
    assert!(result.aborted);
    assert_eq!(at, 111);
    assert!(s.trace().render().contains("[   111] P0 write-if-owned @0x0"));
    assert!(!result.hit);
    assert_eq!(result.latency, 1);
    // P0's read fetch and P1's write fetch; nothing for the store.
    let stats = s.stats();
    assert_eq!(stats.bus.txns, 2);
    assert_eq!(stats.per_proc[0].misses, 2);
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), IllinoisState::Invalid);
}

/// A conditional store that queued against a valid line, then lost the
/// line to a snooped invalidate before its grant, aborts at the grant
/// instead of turning into a full fetch.
#[test]
fn conditional_store_aborts_at_grant_when_its_line_was_stolen_while_queued() {
    let (s, w) = run_illinois(vec![
        vec![Op(ProcOp::read(Addr(0))), Compute(100), Op(ProcOp::write(Addr(0), Word(7)))],
        vec![
            Compute(30),
            Op(ProcOp::read(Addr(0))),
            Compute(64),
            Op(ProcOp::write_if_owned(Addr(0), Word(5))),
        ],
        vec![Compute(101), Op(ProcOp::read(Addr(400)))],
    ]);
    // P1's store is presented at 101 against its Shared copy and queues
    // behind P2's fetch; P0's invalidate wins the next grant at 112 and
    // the store, granted at 114, finds its line gone.
    let (op, result, at) = w.results_of(ProcId(1))[1];
    assert_eq!(op.kind, AccessKind::WriteIfOwned);
    assert!(result.aborted);
    assert_eq!(at, 114);
    let stats = s.stats();
    assert_eq!(stats.bus.count("invalidate"), 1);
    // Three fetches and P0's invalidate; the store never used the bus.
    assert_eq!(stats.bus.txns, 4);
    let trace = s.trace().render();
    let line = |needle: &str| {
        trace.lines().position(|l| l.contains(needle)).unwrap_or_else(|| panic!("{needle}: {trace}"))
    };
    assert!(trace.contains("[   101] P1 write-if-owned @0x0"), "{trace}");
    assert!(trace.contains("[   112] bus: C0 invalidate B0x0"), "{trace}");
    assert!(line("P1 write-if-owned") < line("C1 B0x0: S -> I"), "{trace}");
}
