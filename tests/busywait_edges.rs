//! Edge cases of the busy-wait machinery (Sections E.3–E.4) beyond the
//! figures: non-lock requests hitting locked blocks, multiple recorded
//! waiters, priority of woken waiters over normal requests, and the
//! zero-time paths interleaved with contention.

use mcs::core::{BitarDespain, BitarState};
use mcs::model::{Addr, BlockAddr, CacheId, ProcId, ProcOp, Word};
use mcs::sim::{ParallelScriptWorkload, ScriptStep, ScriptWorkload, System, SystemConfig};

fn sys(procs: usize) -> System<BitarDespain> {
    System::new(BitarDespain, SystemConfig::new(procs).with_trace(true)).unwrap()
}

#[test]
fn plain_write_to_locked_block_waits_and_completes() {
    // Any request for a locked block is denied, not just lock requests;
    // the requester busy-waits and its original operation completes after
    // the unlock.
    let mut s = sys(2);
    let mut w = ParallelScriptWorkload::new()
        .program(ProcId(0), vec![
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Compute(100),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(1))),
        ])
        .program(ProcId(1), vec![
            ScriptStep::Compute(20),
            ScriptStep::Op(ProcOp::write(Addr(1), Word(9))), // same block, plain write
        ]);
    s.run(&mut w, 50_000).unwrap();
    let stats = s.stats();
    assert_eq!(stats.locks.denied, 1);
    assert_eq!(stats.locks.acquires, 1);
    // P1's write landed after the unlock; the oracle verified the data.
    assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), BitarState::WriteSourceDirty);
    let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(1)))]);
    s.run(&mut script, 10_000).unwrap();
    assert_eq!(script.results()[0].2.value, Some(Word(9)));
}

#[test]
fn plain_read_to_locked_block_waits_and_completes() {
    let mut s = sys(2);
    let w = ParallelScriptWorkload::new()
        .program(ProcId(0), vec![
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Op(ProcOp::write(Addr(1), Word(77))), // payload, same block
            ScriptStep::Compute(80),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(1))),
        ])
        .program(ProcId(1), vec![
            ScriptStep::Compute(30),
            ScriptStep::Op(ProcOp::read(Addr(1))),
        ]);
    let mut w2 = w;
    s.run(&mut w2, 50_000).unwrap();
    // The waiting read observed the post-unlock value.
    assert_eq!(w2.results_of(ProcId(1))[0].1.value, Some(Word(77)));
    assert_eq!(s.stats().locks.denied, 1);
}

#[test]
fn chain_of_three_waiters_drains_in_bounded_broadcasts() {
    let mut s = sys(4);
    let holder = vec![
        ScriptStep::Op(ProcOp::lock_read(Addr(0))),
        ScriptStep::Compute(90),
        ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(1))),
    ];
    let waiter = |d: u64, v: u64| {
        vec![
            ScriptStep::Compute(d),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Compute(25),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(v))),
        ]
    };
    let mut w = ParallelScriptWorkload::new()
        .program(ProcId(0), holder)
        .program(ProcId(1), waiter(10, 2))
        .program(ProcId(2), waiter(14, 3))
        .program(ProcId(3), waiter(18, 4));
    s.run(&mut w, 100_000).unwrap();
    let stats = s.stats();
    assert_eq!(stats.locks.acquires, 4);
    assert_eq!(stats.locks.releases, 4);
    // Each handoff broadcasts at most once; the final release may also
    // broadcast (the waiter state is conservative).
    assert!(stats.bus.unlock_broadcasts >= 3);
    assert!(stats.bus.unlock_broadcasts <= 4);
    assert_eq!(stats.bus.retries, 0);
    assert_eq!(stats.locks.wakeups, 3);
}

#[test]
fn woken_register_beats_normal_requests_to_the_bus() {
    // While a waiter is woken, a third processor hammers unrelated blocks;
    // the waiter must still acquire promptly (reserved priority), bounded
    // by a couple of transaction durations.
    let mut s = sys(3);
    let mut hammer = Vec::new();
    hammer.push(ScriptStep::Compute(5));
    for i in 0..40u64 {
        hammer.push(ScriptStep::Op(ProcOp::write(Addr(400 + i * 4), Word(i + 1))));
    }
    let w = ParallelScriptWorkload::new()
        .program(ProcId(0), vec![
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Compute(60),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(1))),
        ])
        .program(ProcId(1), vec![
            ScriptStep::Compute(15),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(2))),
        ])
        .program(ProcId(2), hammer);
    let mut w = w;
    s.run(&mut w, 100_000).unwrap();
    assert_eq!(s.stats().bus.high_priority_grants, 1);
    // The waiter's lock completed within ~3 transactions of the unlock.
    let unlock_time = w.results_of(ProcId(0))[1].2;
    let acquire_time = w.results_of(ProcId(1))[0].2;
    assert!(
        acquire_time <= unlock_time + 40,
        "woken waiter acquired at {acquire_time}, unlock at {unlock_time}"
    );
}

#[test]
fn work_while_waiting_credit_expires_into_spinning() {
    use mcs::prelude::*;

    // Long critical sections, but each waiter only has a 20-cycle ready
    // section: most of the wait becomes useless spinning again.
    let mut w = CriticalSectionWorkload::builder()
        .locks(1)
        .payload_blocks(2)
        .payload_reads(20)
        .payload_writes(20)
        .think_cycles(5)
        .iterations(6)
        .work_while_waiting(20)
        .build();
    let mut s = System::new(BitarDespain, SystemConfig::new(4)).unwrap();
    let stats = s.run(&mut w, 5_000_000).unwrap().stats;
    assert_eq!(w.completed_sections(), 24);
    let useful: u64 = stats.per_proc.iter().map(|p| p.useful_wait_cycles).sum();
    let waited: u64 = stats.per_proc.iter().map(|p| p.lock_wait_cycles).sum();
    assert!(useful > 0, "ready sections must run");
    assert!(
        useful < waited / 2,
        "with long holds most wait time must exceed the 20-cycle credit ({useful} of {waited})"
    );
}
