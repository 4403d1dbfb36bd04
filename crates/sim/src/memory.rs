//! Main memory: a lazily-populated block store.
//!
//! Under full broadcast, main memory is deliberately simple — it keeps no
//! cache state and manages no synchronization (Section A.2); it just
//! services block reads, block writes (flushes) and word writes, and can be
//! inhibited by a source cache.
//!
//! The one concession to speed is a *snoop filter* of two sparse per-block
//! bitmasks, one bit per cache:
//!
//! - the **holder mask** records which caches hold a frame for the block,
//!   valid *or invalid copy*: residency, not validity. The simulator sets
//!   it at frame allocation and clears it at eviction, the only residency
//!   transitions (invalidation keeps the frame resident);
//! - the **stale mask** records which of those frames are invalid copies.
//!   The simulator keeps it at every line-state write and at eviction.
//!
//! Each mask is a word array, as wide as the machine: word `w` covers
//! caches `64w..64w + 63` and lives in its own map, so a machine of up to
//! 64 caches keeps exactly one map per mask. A map holds an entry only for
//! a block with some bit set in its word.
//!
//! Broadcasts visit the valid copies, `holders & !stale`, one word at a
//! time in ascending cache order. A non-resident cache's snoop is always a
//! no-op, and an invalid copy's snoop is a no-op too, by the
//! `Protocol::snoop` contract, except under a write-through that updates
//! invalid copies (`WriteWord { AllCopies }`); that one, like a fault plan
//! that drops snoop replies, walks the holder mask. The stale mask lives in
//! its own maps, so blocks with no invalid copy cost it nothing.

use mcs_model::{Addr, BlockAddr, BlockGeometry, FastMap, Word};
use std::collections::BTreeSet;

/// A sparse per-block bitmask over the caches, one map per 64 caches.
#[derive(Debug, Clone)]
struct BlockMasks(Vec<FastMap<BlockAddr, u64>>);

impl BlockMasks {
    fn new(caches: usize) -> Self {
        BlockMasks((0..caches.div_ceil(64)).map(|_| FastMap::default()).collect())
    }

    /// Sets cache `cache`'s bit for `block`.
    #[inline]
    fn set(&mut self, block: BlockAddr, cache: usize) {
        *self.0[cache / 64].entry(block).or_insert(0) |= 1u64 << (cache % 64);
    }

    /// Clears cache `cache`'s bit for `block`, dropping the entry once its
    /// word is empty.
    #[inline]
    fn clear(&mut self, block: BlockAddr, cache: usize) {
        let map = &mut self.0[cache / 64];
        if let Some(mask) = map.get_mut(&block) {
            *mask &= !(1u64 << (cache % 64));
            if *mask == 0 {
                map.remove(&block);
            }
        }
    }

    /// Word `w` of `block`'s mask. Does no lookup while the word's map is
    /// empty.
    #[inline]
    fn word(&self, block: BlockAddr, w: usize) -> u64 {
        let map = &self.0[w];
        if map.is_empty() {
            return 0;
        }
        map.get(&block).copied().unwrap_or(0)
    }

    /// Every block with an entry in some word.
    fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.0.iter().flat_map(|map| map.keys().copied())
    }
}

/// Main memory, holding blocks of words. Unwritten blocks read as zero.
#[derive(Debug, Clone)]
pub struct MainMemory {
    geometry: BlockGeometry,
    blocks: FastMap<BlockAddr, Box<[Word]>>,
    holders: BlockMasks,
    stale: BlockMasks,
}

impl MainMemory {
    /// An empty memory with the given geometry, tracking the frames of
    /// `caches` caches.
    pub fn new(geometry: BlockGeometry, caches: usize) -> Self {
        MainMemory {
            geometry,
            blocks: FastMap::default(),
            holders: BlockMasks::new(caches),
            stale: BlockMasks::new(caches),
        }
    }

    /// Reads a whole block without copying. Returns `None` when the block
    /// was never written (reads as zero); the caller zero-fills.
    pub fn read_block_ref(&self, block: BlockAddr) -> Option<&[Word]> {
        self.blocks.get(&block).map(|d| &**d)
    }

    /// Writes a whole block (a flush), reusing the existing allocation when
    /// the block was written before.
    pub fn write_block(&mut self, block: BlockAddr, data: &[Word]) {
        debug_assert_eq!(data.len(), self.geometry.words_per_block());
        match self.blocks.get_mut(&block) {
            Some(entry) => entry.copy_from_slice(data),
            None => {
                self.blocks.insert(block, data.into());
            }
        }
    }

    /// Marks cache `cache` as holding a frame for `block`.
    #[inline]
    pub fn add_holder(&mut self, block: BlockAddr, cache: usize) {
        self.holders.set(block, cache);
    }

    /// Clears cache `cache`'s holder bit for `block` (frame evicted).
    #[inline]
    pub fn remove_holder(&mut self, block: BlockAddr, cache: usize) {
        self.holders.clear(block, cache);
    }

    /// Marks (`stale`) or clears cache `cache`'s frame for `block` as an
    /// invalid copy.
    #[inline]
    pub fn set_stale(&mut self, block: BlockAddr, cache: usize, stale: bool) {
        if stale {
            self.stale.set(block, cache);
        } else {
            self.stale.clear(block, cache);
        }
    }

    /// Number of 64-cache words in each mask.
    #[inline]
    pub fn mask_words(&self) -> usize {
        self.holders.0.len()
    }

    /// Word `w` of the holder mask for `block`: bit `i` set iff cache
    /// `64w + i` holds a frame for the block (valid or invalid copy).
    #[inline]
    pub fn holders_word(&self, block: BlockAddr, w: usize) -> u64 {
        self.holders.word(block, w)
    }

    /// Word `w` of the stale mask for `block`: bit `i` set iff cache
    /// `64w + i` holds an invalid copy of the block.
    #[inline]
    pub fn stale_word(&self, block: BlockAddr, w: usize) -> u64 {
        self.stale.word(block, w)
    }

    /// Word `w` of the valid-copy mask for `block`: bit `i` set iff cache
    /// `64w + i` holds a valid copy of the block (`holders & !stale`).
    /// Reads the stale word only when the holder word is nonzero.
    #[inline]
    pub fn valid_word(&self, block: BlockAddr, w: usize) -> u64 {
        let holders = self.holders_word(block, w);
        if holders == 0 {
            return 0;
        }
        holders & !self.stale_word(block, w)
    }

    /// Whether any cache holds a valid copy of `block`.
    #[inline]
    pub fn has_valid_copy(&self, block: BlockAddr) -> bool {
        (0..self.mask_words()).any(|w| self.valid_word(block, w) != 0)
    }

    /// Every block with a bit set in either mask (exactness-test support).
    pub fn masked_blocks(&self) -> BTreeSet<BlockAddr> {
        self.holders.blocks().chain(self.stale.blocks()).collect()
    }

    /// Reads one word.
    pub fn read_word(&self, addr: Addr) -> Word {
        let block = self.geometry.block_of(addr);
        let offset = self.geometry.offset_of(addr);
        self.blocks.get(&block).map(|d| d[offset]).unwrap_or(Word(0))
    }

    /// Writes one word (a write-through or update).
    pub fn write_word(&mut self, addr: Addr, value: Word) {
        let block = self.geometry.block_of(addr);
        let offset = self.geometry.offset_of(addr);
        let words = self.geometry.words_per_block();
        let entry = self
            .blocks
            .entry(block)
            .or_insert_with(|| vec![Word(0); words].into_boxed_slice());
        entry[offset] = value;
    }

    /// Atomic read-modify-write of one word at the memory module
    /// (Feature 6, method 1). Returns the old value.
    pub fn rmw_word(&mut self, addr: Addr, new: Word) -> Word {
        let old = self.read_word(addr);
        self.write_word(addr, new);
        old
    }

    /// The geometry this memory uses.
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memory tracking 130 caches: three mask words.
    fn mem() -> MainMemory {
        MainMemory::new(BlockGeometry::new(4).unwrap(), 130)
    }

    /// Every word of one of `block`'s masks.
    fn words(
        m: &MainMemory,
        block: BlockAddr,
        word: fn(&MainMemory, BlockAddr, usize) -> u64,
    ) -> Vec<u64> {
        (0..m.mask_words()).map(|w| word(m, block, w)).collect()
    }

    #[test]
    fn unwritten_reads_zero() {
        let m = mem();
        assert_eq!(m.read_word(Addr(100)), Word(0));
        assert!(m.read_block_ref(BlockAddr(9)).is_none(), "an unwritten block is not stored");
    }

    #[test]
    fn word_write_read_roundtrip() {
        let mut m = mem();
        m.write_word(Addr(5), Word(42));
        assert_eq!(m.read_word(Addr(5)), Word(42));
        assert_eq!(m.read_word(Addr(4)), Word(0));
        let block = m.read_block_ref(BlockAddr(1)).unwrap();
        assert_eq!(block, [Word(0), Word(42), Word(0), Word(0)]);
    }

    #[test]
    fn block_write_overwrites() {
        let mut m = mem();
        m.write_word(Addr(0), Word(1));
        m.write_block(BlockAddr(0), &[Word(9), Word(8), Word(7), Word(6)]);
        assert_eq!(m.read_word(Addr(0)), Word(9));
        assert_eq!(m.read_word(Addr(3)), Word(6));
    }

    #[test]
    fn rmw_returns_old_value() {
        let mut m = mem();
        m.write_word(Addr(2), Word(5));
        assert_eq!(m.rmw_word(Addr(2), Word(1)), Word(5));
        assert_eq!(m.read_word(Addr(2)), Word(1));
        // Test-and-set semantics on a fresh word: old is 0.
        assert_eq!(m.rmw_word(Addr(50), Word(1)), Word(0));
    }

    #[test]
    fn block_ref_read_matches_copying_read() {
        let mut m = mem();
        assert!(m.read_block_ref(BlockAddr(3)).is_none(), "unwritten block");
        m.write_block(BlockAddr(3), &[Word(1), Word(2), Word(3), Word(4)]);
        let via_words: Vec<Word> = (12..16).map(|a| m.read_word(Addr(a))).collect();
        assert_eq!(m.read_block_ref(BlockAddr(3)).unwrap(), &via_words[..]);
    }

    #[test]
    fn holder_mask_tracks_add_and_remove() {
        let mut m = mem();
        assert_eq!(m.holders_word(BlockAddr(7), 0), 0);
        m.add_holder(BlockAddr(7), 0);
        m.add_holder(BlockAddr(7), 3);
        m.add_holder(BlockAddr(7), 3); // idempotent
        assert_eq!(m.holders_word(BlockAddr(7), 0), 0b1001);
        m.remove_holder(BlockAddr(7), 0);
        assert_eq!(m.holders_word(BlockAddr(7), 0), 0b1000);
        m.remove_holder(BlockAddr(7), 1); // absent bit: no-op
        m.remove_holder(BlockAddr(7), 3);
        assert_eq!(m.holders_word(BlockAddr(7), 0), 0);
        m.remove_holder(BlockAddr(9), 5); // never-held block: no-op
        assert_eq!(m.holders_word(BlockAddr(9), 0), 0);
    }

    #[test]
    fn stale_mask_tracks_set_and_clear() {
        let mut m = mem();
        assert_eq!(m.stale_word(BlockAddr(4), 0), 0);
        m.set_stale(BlockAddr(4), 2, true);
        m.set_stale(BlockAddr(4), 5, true);
        m.set_stale(BlockAddr(4), 5, true); // idempotent
        assert_eq!(m.stale_word(BlockAddr(4), 0), 0b10_0100);
        assert_eq!(m.stale_word(BlockAddr(6), 0), 0, "other blocks unaffected");
        m.set_stale(BlockAddr(4), 2, false);
        m.set_stale(BlockAddr(4), 3, false); // absent bit: no-op
        assert_eq!(m.stale_word(BlockAddr(4), 0), 0b10_0000);
        m.set_stale(BlockAddr(4), 5, false);
        assert_eq!(m.stale_word(BlockAddr(4), 0), 0);
        assert!(m.masked_blocks().is_empty(), "an emptied mask drops its entry");
        assert_eq!(m.holders_word(BlockAddr(4), 0), 0, "holder masks are separate");
    }

    #[test]
    fn mask_words_are_independent_across_boundaries() {
        let mut m = mem();
        let b = BlockAddr(7);
        assert_eq!(m.mask_words(), 3);
        for cache in [0, 63, 64, 129] {
            m.add_holder(b, cache);
        }
        assert_eq!(words(&m, b, MainMemory::holders_word), [1 | 1 << 63, 1, 1 << 1]);
        m.set_stale(b, 63, true);
        m.set_stale(b, 64, true);
        assert_eq!(words(&m, b, MainMemory::stale_word), [1 << 63, 1, 0]);
        assert_eq!(words(&m, b, MainMemory::valid_word), [1, 0, 1 << 1]);
        // Cache 64 shares bit 0 with cache 0, one word up.
        m.set_stale(b, 64, false);
        m.remove_holder(b, 64);
        assert_eq!(words(&m, b, MainMemory::holders_word), [1 | 1 << 63, 0, 1 << 1]);
        assert_eq!(words(&m, b, MainMemory::stale_word), [1 << 63, 0, 0]);
        m.remove_holder(b, 0);
        m.remove_holder(b, 129);
        assert!(!m.has_valid_copy(b), "only the invalid copy in C63 is left");
        m.set_stale(b, 63, false);
        assert!(m.has_valid_copy(b));
        m.remove_holder(b, 63);
        assert_eq!(words(&m, b, MainMemory::holders_word), [0, 0, 0]);
        assert!(m.masked_blocks().is_empty(), "emptied words drop their entries");
    }
}
