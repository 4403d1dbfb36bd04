//! Timing-exactness tests: each bus transaction must consume exactly the
//! cycles the `TimingConfig` formulas prescribe — the experiments' traffic
//! comparisons depend on these costs being right.

use mcs_cache::CacheConfig;
use mcs_core::BitarDespain;
use mcs_model::{Addr, ProcId, ProcOp, TimingConfig, Word};
use mcs_protocols::{ClassicWriteThrough, Dragon, Goodman, Illinois, RudolphSegall};
use mcs_sim::{ScriptWorkload, System, SystemConfig};

const WORDS: usize = 4;

fn timing() -> TimingConfig {
    TimingConfig {
        arbitration: 1,
        address: 1,
        word_transfer: 1,
        memory_latency: 4,
        source_arbitration: 2,
        signal: 1,
        nonconcurrent_flush_penalty: 0,
    }
}

fn config(procs: usize) -> SystemConfig {
    SystemConfig::new(procs)
        .with_timing(timing())
        .with_cache(CacheConfig::fully_associative(64, WORDS).unwrap())
}

#[test]
fn memory_fetch_costs_arb_addr_mem_and_words() {
    let mut s = System::new(BitarDespain, config(1)).unwrap();
    let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]);
    s.run(&mut script, 10_000).unwrap();
    // arbitration(1) + address(1) + memory(4) + 4 words = 10.
    assert_eq!(script.results()[0].2.latency, 10);
}

#[test]
fn cache_to_cache_fetch_skips_memory_latency() {
    let mut s = System::new(BitarDespain, config(2)).unwrap();
    let mut script =
        ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0))), (ProcId(1), ProcOp::read(Addr(0)))]);
    s.run(&mut script, 10_000).unwrap();
    // arbitration(1) + address(1) + 4 words = 6.
    assert_eq!(script.results()[1].2.latency, 6);
}

#[test]
fn privilege_upgrade_costs_one_signal() {
    let mut s = System::new(BitarDespain, config(2)).unwrap();
    let mut script = ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::read(Addr(0))),
        (ProcId(1), ProcOp::read(Addr(0))),
        (ProcId(0), ProcOp::write(Addr(0), Word(1))),
    ]);
    s.run(&mut script, 10_000).unwrap();
    // arbitration(1) + signal(1) = 2.
    assert_eq!(script.results()[2].2.latency, 2);
}

#[test]
fn claim_no_fetch_costs_one_signal() {
    let mut s = System::new(BitarDespain, config(1)).unwrap();
    let mut script =
        ScriptWorkload::new(vec![(ProcId(0), ProcOp::write_no_fetch(Addr(0), Word(1)))]);
    s.run(&mut script, 10_000).unwrap();
    assert_eq!(script.results()[0].2.latency, 2);
}

#[test]
fn word_write_through_pays_memory() {
    let mut s = System::new(ClassicWriteThrough, config(1)).unwrap();
    let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::write(Addr(0), Word(1)))]);
    s.run(&mut script, 10_000).unwrap();
    // arbitration(1) + address(1) + memory(4) + 1 word = 7.
    assert_eq!(script.results()[0].2.latency, 7);
}

#[test]
fn dragon_update_word_skips_memory() {
    let mut s = System::new(Dragon, config(2)).unwrap();
    let mut script = ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::read(Addr(0))),
        (ProcId(1), ProcOp::read(Addr(0))),
        (ProcId(0), ProcOp::write(Addr(0), Word(1))),
    ]);
    s.run(&mut script, 10_000).unwrap();
    // Dragon's update: arbitration(1) + address(1) + 1 word = 3 (no memory).
    assert_eq!(script.results()[2].2.latency, 3);
}

#[test]
fn memory_rmw_holds_the_module_for_read_plus_write() {
    let mut s = System::new(RudolphSegall, SystemConfig::new(1).with_timing(timing()).with_cache(CacheConfig::fully_associative(64, 1).unwrap())).unwrap();
    let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::rmw(Addr(0), Word(1)))]);
    s.run(&mut script, 10_000).unwrap();
    // arbitration(1) + address(1) + 2*memory(8) + 2 words = 12.
    assert_eq!(script.results()[0].2.latency, 12);
}

#[test]
fn illinois_source_arbitration_adds_cycles_only_with_multiple_sharers() {
    let mut s = System::new(Illinois, config(3)).unwrap();
    let mut script = ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::read(Addr(0))),
        (ProcId(1), ProcOp::read(Addr(0))), // one potential source: no ARB cost
        (ProcId(2), ProcOp::read(Addr(0))), // two potential sources: +2
    ]);
    s.run(&mut script, 10_000).unwrap();
    assert_eq!(script.results()[1].2.latency, 6);
    assert_eq!(script.results()[2].2.latency, 8);
}

#[test]
fn eviction_writeback_extends_the_fetch() {
    // Cache of 1 frame: the second fetch evicts a dirty block first.
    let cache = CacheConfig::fully_associative(1, WORDS).unwrap();
    let cfg = SystemConfig::new(1).with_timing(timing()).with_cache(cache);
    let mut s = System::new(Goodman, cfg).unwrap();
    let mut script = ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::write(Addr(0), Word(1))), // fetch + WT
        (ProcId(0), ProcOp::write(Addr(0), Word(2))), // -> Dirty (local)
        (ProcId(0), ProcOp::read(Addr(16))),          // evicts dirty block 0
    ]);
    s.run(&mut script, 10_000).unwrap();
    // Fetch from memory (10) + flush of the dirty victim (1+1+4+4 = 10).
    assert_eq!(script.results()[2].2.latency, 20);
}

#[test]
fn nonconcurrent_flush_penalty_charged_on_snoop_flushes() {
    let slow_flush = TimingConfig { nonconcurrent_flush_penalty: 5, ..timing() };
    let run = |t: TimingConfig| {
        let cfg = SystemConfig::new(2)
            .with_timing(t)
            .with_cache(CacheConfig::fully_associative(64, WORDS).unwrap());
        let mut s = System::new(Illinois, cfg).unwrap();
        let mut script = ScriptWorkload::new(vec![
            (ProcId(0), ProcOp::write(Addr(0), Word(1))), // Dirty in C0
            (ProcId(1), ProcOp::read(Addr(0))),           // snoop-flush + transfer
        ]);
        s.run(&mut script, 10_000).unwrap();
        script.results()[1].2.latency
    };
    assert_eq!(run(slow_flush), run(timing()) + 5);
}

#[test]
fn lock_fetch_costs_no_more_than_plain_fetch() {
    // Section E.3: "locking a block is concurrent with fetching the
    // block, so generates no extra bus traffic, nor delays the processor."
    let mut plain = System::new(BitarDespain, config(1)).unwrap();
    let mut s1 = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]);
    plain.run(&mut s1, 10_000).unwrap();
    let mut locked = System::new(BitarDespain, config(1)).unwrap();
    let mut s2 = ScriptWorkload::new(vec![(ProcId(0), ProcOp::lock_read(Addr(0)))]);
    locked.run(&mut s2, 10_000).unwrap();
    assert_eq!(s1.results()[0].2.latency, s2.results()[0].2.latency);
}

#[test]
fn unlock_broadcast_costs_one_signal() {
    use mcs_sim::{ParallelScriptWorkload, ScriptStep};
    let mut s = System::new(BitarDespain, config(2)).unwrap();
    let mut w = ParallelScriptWorkload::new()
        .program(ProcId(0), vec![
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Compute(50),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(1))),
        ])
        .program(ProcId(1), vec![
            ScriptStep::Compute(15),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(2))),
        ]);
    s.run(&mut w, 10_000).unwrap();
    // The holder's unlock was an arbitration + one signal cycle.
    assert_eq!(s.stats().bus.unlock_broadcasts, 2);
}
