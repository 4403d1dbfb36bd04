//! The Section E.3 "minor modification": when a locked block must be
//! purged from a small (set-associative) cache, its lock bit is written to
//! memory. The holder keeps the lock, other requesters keep being denied,
//! and the eventual unlock is broadcast so waiters wake — all checked by
//! the engine's lock oracle.

use mcs::cache::CacheConfig;
use mcs::core::{BitarDespain, BitarState};
use mcs::model::{Addr, BlockAddr, CacheId, Event, ProcId, ProcOp, Word};
use mcs::sim::{ParallelScriptWorkload, ScriptStep, ScriptWorkload, System, SystemConfig};

/// A one-frame cache: any second block forces the locked block out.
fn tiny_system(procs: usize) -> System<BitarDespain> {
    let cache = CacheConfig::fully_associative(1, 4).unwrap();
    System::new(BitarDespain, SystemConfig::new(procs).with_cache(cache).with_trace(true)).unwrap()
}

#[test]
fn locked_block_spills_its_lock_bit_to_memory() {
    let mut s = tiny_system(1);
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::lock_read(Addr(0))),
        // Touching another block purges the locked one: the lock bit
        // spills instead of being lost.
        (ProcId(0), ProcOp::read(Addr(16))),
    ]), 10_000)
    .unwrap();
    assert_eq!(s.stats().locks.lock_spills, 1);
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), BitarState::Invalid);
    // The lock is still held (the oracle would reject a second holder).
    assert!(s.trace().render().contains("spills lock bit"));
}

#[test]
fn spilled_lock_still_denies_other_requesters() {
    let mut s = tiny_system(2);
    let mut w = ParallelScriptWorkload::new()
        .program(ProcId(0), vec![
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Op(ProcOp::read(Addr(16))), // spill the lock bit
            ScriptStep::Compute(120),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(7))),
        ])
        .program(ProcId(1), vec![
            ScriptStep::Compute(40),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))), // denied by the memory bit
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(8))),
        ]);
    s.run(&mut w, 50_000).unwrap();
    let stats = s.stats();
    assert_eq!(stats.locks.lock_spills, 1);
    assert_eq!(stats.locks.denied, 1, "the memory lock bit must deny P1");
    assert_eq!(stats.locks.acquires, 2);
    assert_eq!(stats.locks.releases, 2);
    assert!(stats.bus.unlock_broadcasts >= 1, "the spilled unlock must broadcast");
    assert_eq!(stats.bus.retries, 0);
}

#[test]
fn spilled_unlock_value_reaches_memory() {
    let mut s = tiny_system(1);
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::lock_read(Addr(0))),
        (ProcId(0), ProcOp::read(Addr(16))), // spill
        (ProcId(0), ProcOp::unlock_write(Addr(0), Word(42))),
        (ProcId(0), ProcOp::read(Addr(0))), // refetch: oracle checks 42
    ]), 10_000)
    .unwrap();
    let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]);
    s.run(&mut script, 10_000).unwrap();
    assert_eq!(script.results()[0].2.value, Some(Word(42)));
}

#[test]
fn holder_relocking_moves_the_bit_back_into_cache() {
    let mut s = tiny_system(2);
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::lock_read(Addr(0))),
        (ProcId(0), ProcOp::read(Addr(16))),    // spill
        (ProcId(0), ProcOp::lock_read(Addr(0))), // re-fetch: bit returns
    ]), 10_000)
    .unwrap();
    // The line is locked in cache again...
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), BitarState::LockSourceDirty);
    // ...and the zero-time unlock path works once more.
    let unlock = vec![(ProcId(0), ProcOp::unlock_write(Addr(0), Word(1)))];
    s.run(&mut ScriptWorkload::new(unlock), 10_000).unwrap();
    assert_eq!(s.stats().locks.releases, 1);
    assert_eq!(s.stats().locks.zero_time_releases, 1);
}

#[test]
fn spill_contention_remains_mutually_exclusive() {
    // Three processors cycling locks through a one-frame cache: every
    // acquisition spills; the oracle enforces exclusivity throughout.
    let mut s = tiny_system(3);
    let prog = |delay: u64, val: u64| {
        vec![
            ScriptStep::Compute(delay),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Op(ProcOp::read(Addr(16))), // force the spill
            ScriptStep::Compute(30),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(val))),
            ScriptStep::Compute(10),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(val + 100))),
        ]
    };
    let mut w = ParallelScriptWorkload::new()
        .program(ProcId(0), prog(0, 1))
        .program(ProcId(1), prog(7, 2))
        .program(ProcId(2), prog(13, 3));
    s.run(&mut w, 200_000).unwrap();
    let stats = s.stats();
    assert_eq!(stats.locks.acquires, 6);
    assert_eq!(stats.locks.releases, 6);
    assert!(stats.locks.lock_spills >= 3);
    assert_eq!(stats.bus.retries, 0);
}

#[test]
fn spilled_lock_denies_before_the_holder_snoops() {
    // C0 spills its lock bit, then re-reads and writes the block, holding
    // it write-source-dirty while the bit stays in memory. The bit denies
    // C1's lock fetch before any cache snoops it, just as a locked line
    // would, so C0 keeps its dirty copy through the denial.
    let mut s = tiny_system(2);
    let mut w = ParallelScriptWorkload::new()
        .program(ProcId(0), vec![
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Op(ProcOp::read(Addr(16))), // spill the lock bit
            ScriptStep::Op(ProcOp::read(Addr(0))),
            ScriptStep::Op(ProcOp::write(Addr(1), Word(5))),
            ScriptStep::Compute(200),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(7))),
        ])
        .program(ProcId(1), vec![
            ScriptStep::Compute(100),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))), // denied by the memory bit
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(8))),
        ]);
    assert!(s.run(&mut w, 50_000).unwrap().completed);
    assert_eq!(s.stats().locks.lock_spills, 1);
    assert_eq!(s.stats().locks.denied, 1);

    // C0's state for block 0 as the trace tells it, at the start of each
    // cycle and at the denial.
    let (mut state, mut at_cycle_start, mut cycle) = ("I", "I", 0);
    let mut at_denial = None;
    for (t, event) in s.trace().iter() {
        if *t != cycle {
            (cycle, at_cycle_start) = (*t, state);
        }
        match *event {
            Event::StateChange { cache: CacheId(0), block: BlockAddr(0), to, .. } => state = to,
            Event::LockDenied { cache: CacheId(1), block: BlockAddr(0) } => {
                at_denial = Some((at_cycle_start, state));
            }
            _ => {}
        }
    }
    assert_eq!(at_denial, Some(("WSD", "WSD")), "C0's copy must survive C1's denied fetch");

    let mut script = ScriptWorkload::new(vec![(ProcId(1), ProcOp::read(Addr(1)))]);
    s.run(&mut script, 10_000).unwrap();
    assert_eq!(script.results()[0].2.value, Some(Word(5)));
}
