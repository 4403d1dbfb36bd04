//! Section E.2 "I/O Transfer" (and Table 1's Feature 11 note: "a protocol
//! must explicate how I/O is performed"), across protocols:
//!
//! * **input**: the I/O processor writes a block to memory and invalidates
//!   it in all caches;
//! * **non-paging output**: the I/O processor reads the latest version; the
//!   paper's protocol tells the source cache *not* to give up source
//!   status;
//! * **paging output**: the block is fetched for write privilege,
//!   invalidating all cache copies.

use mcs::core::{with_protocol, BitarDespain, BitarState, ProtocolKind};
use mcs::model::{Addr, BlockAddr, CacheId, ProcId, ProcOp, Word};
use mcs::sim::{ScriptWorkload, System, SystemConfig};

#[test]
fn io_input_invalidates_all_copies_everywhere() {
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        with_protocol!(kind, p => {
            let cache = mcs::cache::CacheConfig::fully_associative(16, words).unwrap();
            let mut s = System::new(p, SystemConfig::new(3).with_cache(cache)).unwrap();
            // Three caches share the block in various states.
            s.run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::read(Addr(0))),
                (ProcId(1), ProcOp::read(Addr(0))),
                (ProcId(2), ProcOp::read(Addr(0))),
            ]), 100_000)
            .unwrap();
            let data: Vec<Word> = (10..10 + words as u64).map(Word).collect();
            s.io_input(BlockAddr(0), &data).unwrap();
            // Every subsequent read must see the device's data (the oracle
            // checks it too).
            let mut script = ScriptWorkload::new(vec![(ProcId(1), ProcOp::read(Addr(0)))]);
            s.run(&mut script, 100_000).unwrap();
            assert_eq!(script.results()[0].2.value, Some(Word(10)), "{kind}");
        });
    }
}

#[test]
fn io_output_sees_dirty_data_on_every_protocol() {
    for kind in ProtocolKind::ALL {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        with_protocol!(kind, p => {
            let cache = mcs::cache::CacheConfig::fully_associative(16, words).unwrap();
            let mut s = System::new(p, SystemConfig::new(2).with_cache(cache)).unwrap();
            s.run(&mut ScriptWorkload::new(vec![
                (ProcId(0), ProcOp::write(Addr(0), Word(5))),
                (ProcId(0), ProcOp::write(Addr(0), Word(6))), // ensure dirty under write-once
            ]), 100_000)
            .unwrap();
            let data = s.io_output(BlockAddr(0), false).unwrap();
            assert_eq!(data[0], Word(6), "{kind}: I/O output must see the latest version");
        });
    }
}

#[test]
fn non_paging_output_keeps_the_source_in_place() {
    // The paper's special read: the source cache is told not to give up
    // source status, so a later fetch is still serviced cache-to-cache.
    let mut s = System::new(BitarDespain, SystemConfig::new(2)).unwrap();
    s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::write(Addr(0), Word(9)))]), 100_000)
        .unwrap();
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), BitarState::WriteSourceDirty);
    s.io_output(BlockAddr(0), false).unwrap();
    // Source status retained.
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), BitarState::WriteSourceDirty);
    let before = s.stats().sources.from_cache;
    s.run(&mut ScriptWorkload::new(vec![(ProcId(1), ProcOp::read(Addr(0)))]), 100_000).unwrap();
    assert_eq!(s.stats().sources.from_cache, before + 1, "still served cache-to-cache");
}

#[test]
fn paging_output_invalidates_and_preserves_data() {
    let mut s = System::new(BitarDespain, SystemConfig::new(2)).unwrap();
    s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::write(Addr(0), Word(3)))]), 100_000)
        .unwrap();
    let data = s.io_output(BlockAddr(0), true).unwrap();
    assert_eq!(data[0], Word(3));
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), BitarState::Invalid);
    // The dirty data was flushed, so a refetch still sees it.
    let mut script = ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]);
    s.run(&mut script, 100_000).unwrap();
    assert_eq!(script.results()[0].2.value, Some(Word(3)));
}

#[test]
fn paging_roundtrip_page_out_then_in() {
    // A page's life: written by a processor, paged out by the I/O
    // processor, paged back in with new contents.
    let mut s = System::new(BitarDespain, SystemConfig::new(2)).unwrap();
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::write(Addr(0), Word(1))),
        (ProcId(1), ProcOp::read(Addr(0))),
    ]), 100_000)
    .unwrap();
    let page = s.io_output(BlockAddr(0), true).unwrap();
    assert_eq!(page[0], Word(1));
    for c in 0..2 {
        assert_eq!(s.state_of(CacheId(c), BlockAddr(0)), BitarState::Invalid);
    }
    // Page in fresh contents.
    s.io_input(BlockAddr(0), &[Word(40), Word(41), Word(42), Word(43)]).unwrap();
    let mut script = ScriptWorkload::new(vec![(ProcId(1), ProcOp::read(Addr(2)))]);
    s.run(&mut script, 100_000).unwrap();
    assert_eq!(script.results()[0].2.value, Some(Word(42)));
}
