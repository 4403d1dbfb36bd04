//! Cross-protocol traffic-signature matrix: for a fixed canonical script,
//! each protocol must produce exactly its characteristic bus-transaction
//! profile. These pin down the behavioural differences Table 1 describes
//! and guard against regressions that keep coherence but change costs.

use mcs::cache::CacheConfig;
use mcs::core::{with_protocol, ProtocolKind};
use mcs::model::{
    Addr, AgentId, BlockAddr, BusOp, BusTxn, CacheId, LineState, ProcId, ProcOp, Protocol,
    SnoopOutcome, Stats, UpdateTarget, Word,
};
use mcs::sim::{ScriptWorkload, System, SystemConfig};

/// The canonical scenario: P0 reads a block, P1 reads it too, P0 writes it
/// twice, P1 reads it back.
fn canonical_script() -> Vec<(ProcId, ProcOp)> {
    vec![
        (ProcId(0), ProcOp::read(Addr(0))),
        (ProcId(1), ProcOp::read(Addr(0))),
        (ProcId(0), ProcOp::write(Addr(0), Word(1))),
        (ProcId(0), ProcOp::write(Addr(0), Word(2))),
        (ProcId(1), ProcOp::read(Addr(0))),
    ]
}

fn run(kind: ProtocolKind) -> Stats {
    let words = if kind.requires_word_blocks() { 1 } else { 4 };
    with_protocol!(kind, p => {
        let cache = CacheConfig::fully_associative(16, words).unwrap();
        let mut sys = System::new(p, SystemConfig::new(2).with_cache(cache)).unwrap();
        sys.run(&mut ScriptWorkload::new(canonical_script()), 100_000).unwrap().stats
    })
}

#[test]
fn bitar_despain_signature() {
    let s = run(ProtocolKind::BitarDespain);
    // Read alone -> write privilege (Fig 1): P0's writes are silent after
    // the one-cycle upgrade; P1's invalidated copy refetches at the end,
    // served cache-to-cache.
    assert_eq!(s.bus.count("fetch-read"), 3);
    assert_eq!(s.bus.count("req-write"), 1);
    assert_eq!(s.bus.count("fetch-write"), 0);
    assert_eq!(s.sources.from_cache, 2); // both of P1's fetches served by C0
    assert_eq!(s.sources.flushes, 0); // NF,S: never flushed
}

#[test]
fn illinois_signature() {
    let s = run(ProtocolKind::Illinois);
    assert_eq!(s.bus.count("fetch-read"), 3); // P1 refetches after the upgrade
    assert_eq!(s.bus.count("invalidate"), 1); // upgrade from Shared
    assert_eq!(s.sources.from_cache, 2); // Illinois always serves from cache
    assert_eq!(s.sources.flushes, 1); // dirty transfer flushes (F)
}

#[test]
fn goodman_signature() {
    let s = run(ProtocolKind::Goodman);
    // First write goes through to memory (no invalidate signal).
    assert_eq!(s.bus.count("write-word-inv"), 1);
    assert_eq!(s.bus.count("invalidate"), 0);
    // Second write is local (Reserved -> Dirty); P1 refetches the dirty
    // block, which is flushed on transfer.
    assert_eq!(s.bus.count("fetch-read"), 3);
    assert_eq!(s.sources.flushes, 1);
}

#[test]
fn synapse_signature() {
    let s = run(ProtocolKind::Synapse);
    // Upgrade by invalidate signal; P1's read-back hits the dirty block:
    // rejected once (owner flushes), then served by memory.
    assert_eq!(s.bus.count("invalidate"), 1);
    assert_eq!(s.bus.retries, 1);
    assert_eq!(s.sources.from_cache, 0); // no c2c for read requests
    assert_eq!(s.sources.flushes, 1);
}

#[test]
fn berkeley_signature() {
    let s = run(ProtocolKind::Berkeley);
    assert_eq!(s.bus.count("invalidate"), 1);
    // Plain read misses land Shared (non-source): memory serves the first
    // two fetches. The dirty read-back is served by the owner without a
    // flush (the dirty-read state).
    assert_eq!(s.sources.from_cache, 1);
    assert_eq!(s.sources.from_memory, 2);
    assert_eq!(s.sources.flushes, 0);
}

#[test]
fn dragon_signature() {
    let s = run(ProtocolKind::Dragon);
    // Both writes broadcast word updates; P1's read-back HITS in cache.
    assert_eq!(s.bus.count("update-word"), 2);
    assert_eq!(s.bus.invalidations, 0);
    assert_eq!(s.bus.updates, 2);
    assert_eq!(s.sources.fetches, 2); // only the two initial misses
}

#[test]
fn firefly_signature() {
    let s = run(ProtocolKind::Firefly);
    assert_eq!(s.bus.count("update-word-mem"), 2); // memory updated too
    assert_eq!(s.bus.invalidations, 0);
    assert_eq!(s.sources.flushes, 0); // shared lines stay clean
}

#[test]
fn classic_write_through_signature() {
    let s = run(ProtocolKind::ClassicWriteThrough);
    // Every write is a memory word-write that invalidates the other copy.
    assert_eq!(s.bus.count("write-word-inv"), 2);
    assert_eq!(s.bus.invalidations, 1); // P1's copy dies on the first write
    assert_eq!(s.sources.from_cache, 0); // memory always serves
}

#[test]
fn rudolph_segall_signature() {
    let s = run(ProtocolKind::RudolphSegall);
    // First write: write-through updating all copies; second: invalidation.
    assert_eq!(s.bus.count("write-word-upd-all"), 1);
    assert_eq!(s.bus.count("invalidate"), 1);
    assert_eq!(s.bus.updates, 1); // P1's copy updated in place once
}

#[test]
fn yen_signature() {
    let s = run(ProtocolKind::Yen);
    // Like Goodman's states but with the invalidate signal.
    assert_eq!(s.bus.count("invalidate"), 1);
    assert_eq!(s.bus.count("write-word-inv"), 0);
    assert_eq!(s.sources.flushes, 1); // dirty read-back flushed (F)
}

#[test]
fn total_bus_cycles_rank_matches_section_d() {
    // For this write-twice-then-read pattern, write-in protocols must beat
    // the pure write-through scheme, with the update hybrids in between.
    let cycles = |k| run(k).bus.busy_cycles;
    let bitar = cycles(ProtocolKind::BitarDespain);
    let dragon = cycles(ProtocolKind::Dragon);
    let classic = cycles(ProtocolKind::ClassicWriteThrough);
    assert!(bitar < classic, "write-in {bitar} must beat write-through {classic}");
    assert!(dragon < classic, "updates {dragon} must beat full write-through {classic}");
}

/// The `Protocol::snoop` contract the simulator's snoop filter relies on:
/// an invalid copy ignores every transaction (keeps its state, drives no
/// reply line), except a write-through that targets invalid copies too.
fn assert_invalid_copies_ignore_snoops<P: Protocol>(kind: ProtocolKind, p: &P) {
    let invalid = P::State::invalid();
    for op in BusOp::ALL {
        if op == (BusOp::WriteWord { target: UpdateTarget::AllCopies }) {
            continue;
        }
        for high_priority in [false, true] {
            for requester in [AgentId::Cache(CacheId(1)), AgentId::Io] {
                let txn = BusTxn { op, block: BlockAddr(3), requester, high_priority };
                assert_eq!(
                    p.snoop(invalid, &txn),
                    SnoopOutcome::ignore(invalid),
                    "{kind}: an invalid copy must ignore {txn}"
                );
            }
        }
    }
}

#[test]
fn invalid_copies_ignore_every_snoop_but_update_all() {
    for kind in ProtocolKind::ALL {
        with_protocol!(kind, p => assert_invalid_copies_ignore_snoops(kind, &p));
    }
}
