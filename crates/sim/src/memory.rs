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
//! Broadcasts visit the valid copies, `holders & !stale`. A non-resident
//! cache's snoop is always a no-op, and an invalid copy's snoop is a no-op
//! too, by the `Protocol::snoop` contract, except under a write-through
//! that updates invalid copies (`WriteWord { AllCopies }`); that one, like
//! a fault plan that drops snoop replies, walks the holder mask. The stale
//! mask lives in its own map, so blocks with no invalid copy cost it
//! nothing.

use mcs_model::{Addr, BlockAddr, BlockGeometry, FastMap, Word};

/// Main memory, holding blocks of words. Unwritten blocks read as zero.
#[derive(Debug, Clone)]
pub struct MainMemory {
    geometry: BlockGeometry,
    blocks: FastMap<BlockAddr, Box<[Word]>>,
    holders: FastMap<BlockAddr, u64>,
    stale: FastMap<BlockAddr, u64>,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    /// An empty memory with the given geometry.
    pub fn new(geometry: BlockGeometry) -> Self {
        MainMemory {
            geometry,
            blocks: FastMap::default(),
            holders: FastMap::default(),
            stale: FastMap::default(),
            reads: 0,
            writes: 0,
        }
    }

    fn zero_block(&self) -> Box<[Word]> {
        vec![Word(0); self.geometry.words_per_block()].into_boxed_slice()
    }

    /// Reads a whole block.
    pub fn read_block(&mut self, block: BlockAddr) -> Box<[Word]> {
        self.reads += 1;
        match self.blocks.get(&block) {
            Some(data) => data.clone(),
            None => self.zero_block(),
        }
    }

    /// Reads a whole block without copying. Returns `None` when the block
    /// was never written (reads as zero); the caller zero-fills.
    pub fn read_block_ref(&mut self, block: BlockAddr) -> Option<&[Word]> {
        self.reads += 1;
        self.blocks.get(&block).map(|d| &**d)
    }

    /// Writes a whole block (a flush), reusing the existing allocation when
    /// the block was written before.
    pub fn write_block(&mut self, block: BlockAddr, data: &[Word]) {
        debug_assert_eq!(data.len(), self.geometry.words_per_block());
        self.writes += 1;
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
        *self.holders.entry(block).or_insert(0) |= 1u64 << cache;
    }

    /// Clears cache `cache`'s holder bit for `block` (frame evicted).
    #[inline]
    pub fn remove_holder(&mut self, block: BlockAddr, cache: usize) {
        clear_bit(&mut self.holders, block, cache);
    }

    /// Marks (`stale`) or clears cache `cache`'s frame for `block` as an
    /// invalid copy.
    #[inline]
    pub fn set_stale(&mut self, block: BlockAddr, cache: usize, stale: bool) {
        if stale {
            *self.stale.entry(block).or_insert(0) |= 1u64 << cache;
        } else {
            clear_bit(&mut self.stale, block, cache);
        }
    }

    /// The holder bitmask for `block`: bit `i` set iff cache `i` holds a
    /// frame for the block (valid or invalid copy).
    #[inline]
    pub fn holders_mask(&self, block: BlockAddr) -> u64 {
        self.holders.get(&block).copied().unwrap_or(0)
    }

    /// The stale bitmask for `block`: bit `i` set iff cache `i` holds an
    /// invalid copy of the block. Does no lookup while no cache holds an
    /// invalid copy of anything.
    #[inline]
    pub fn stale_mask(&self, block: BlockAddr) -> u64 {
        if self.stale.is_empty() {
            return 0;
        }
        self.stale.get(&block).copied().unwrap_or(0)
    }

    /// The valid-copy bitmask for `block`: bit `i` set iff cache `i` holds a
    /// valid copy of the block (`holders & !stale`). Reads the stale mask
    /// only when some cache holds a frame for the block.
    #[inline]
    pub fn valid_mask(&self, block: BlockAddr) -> u64 {
        let holders = self.holders_mask(block);
        if holders == 0 {
            return 0;
        }
        holders & !self.stale_mask(block)
    }

    /// Every block with a nonzero holder mask (exactness-test support).
    pub fn holder_blocks(&self) -> Vec<BlockAddr> {
        self.holders.keys().copied().collect()
    }

    /// Every block with a nonzero stale mask (exactness-test support).
    pub fn stale_blocks(&self) -> Vec<BlockAddr> {
        self.stale.keys().copied().collect()
    }

    /// Reads one word.
    pub fn read_word(&mut self, addr: Addr) -> Word {
        let block = self.geometry.block_of(addr);
        let offset = self.geometry.offset_of(addr);
        self.reads += 1;
        self.blocks.get(&block).map(|d| d[offset]).unwrap_or(Word(0))
    }

    /// Writes one word (a write-through or update).
    pub fn write_word(&mut self, addr: Addr, value: Word) {
        let block = self.geometry.block_of(addr);
        let offset = self.geometry.offset_of(addr);
        self.writes += 1;
        let entry = self.blocks.entry(block).or_insert_with(|| {
            vec![Word(0); 0].into_boxed_slice() // replaced below; placeholder keeps borrowck simple
        });
        if entry.is_empty() {
            *entry = vec![Word(0); self.geometry.words_per_block()].into_boxed_slice();
        }
        entry[offset] = value;
    }

    /// Atomic read-modify-write of one word at the memory module
    /// (Feature 6, method 1). Returns the old value.
    pub fn rmw_word(&mut self, addr: Addr, new: Word) -> Word {
        let old = self.read_word(addr);
        self.write_word(addr, new);
        old
    }

    /// Number of block/word read operations serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of block/word write operations serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The geometry this memory uses.
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }
}

/// Clears bit `cache` of `block`'s mask, dropping the entry once empty.
#[inline]
fn clear_bit(masks: &mut FastMap<BlockAddr, u64>, block: BlockAddr, cache: usize) {
    if let Some(mask) = masks.get_mut(&block) {
        *mask &= !(1u64 << cache);
        if *mask == 0 {
            masks.remove(&block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MainMemory {
        MainMemory::new(BlockGeometry::new(4).unwrap())
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut m = mem();
        assert_eq!(m.read_word(Addr(100)), Word(0));
        assert!(m.read_block(BlockAddr(9)).iter().all(|w| *w == Word(0)));
    }

    #[test]
    fn word_write_read_roundtrip() {
        let mut m = mem();
        m.write_word(Addr(5), Word(42));
        assert_eq!(m.read_word(Addr(5)), Word(42));
        assert_eq!(m.read_word(Addr(4)), Word(0));
        let block = m.read_block(BlockAddr(1));
        assert_eq!(block[1], Word(42));
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
        let via_copy = m.read_block(BlockAddr(3));
        assert_eq!(m.read_block_ref(BlockAddr(3)).unwrap(), &via_copy[..]);
        assert_eq!(m.reads(), 3);
    }

    #[test]
    fn holder_mask_tracks_add_and_remove() {
        let mut m = mem();
        assert_eq!(m.holders_mask(BlockAddr(7)), 0);
        m.add_holder(BlockAddr(7), 0);
        m.add_holder(BlockAddr(7), 3);
        m.add_holder(BlockAddr(7), 3); // idempotent
        assert_eq!(m.holders_mask(BlockAddr(7)), 0b1001);
        m.remove_holder(BlockAddr(7), 0);
        assert_eq!(m.holders_mask(BlockAddr(7)), 0b1000);
        m.remove_holder(BlockAddr(7), 1); // absent bit: no-op
        m.remove_holder(BlockAddr(7), 3);
        assert_eq!(m.holders_mask(BlockAddr(7)), 0);
        m.remove_holder(BlockAddr(9), 5); // never-held block: no-op
        assert_eq!(m.holders_mask(BlockAddr(9)), 0);
    }

    #[test]
    fn stale_mask_tracks_set_and_clear() {
        let mut m = mem();
        assert_eq!(m.stale_mask(BlockAddr(4)), 0);
        m.set_stale(BlockAddr(4), 2, true);
        m.set_stale(BlockAddr(4), 5, true);
        m.set_stale(BlockAddr(4), 5, true); // idempotent
        assert_eq!(m.stale_mask(BlockAddr(4)), 0b10_0100);
        assert_eq!(m.stale_mask(BlockAddr(6)), 0, "other blocks unaffected");
        m.set_stale(BlockAddr(4), 2, false);
        m.set_stale(BlockAddr(4), 3, false); // absent bit: no-op
        assert_eq!(m.stale_mask(BlockAddr(4)), 0b10_0000);
        m.set_stale(BlockAddr(4), 5, false);
        assert_eq!(m.stale_mask(BlockAddr(4)), 0);
        assert!(m.stale_blocks().is_empty(), "an emptied mask drops its entry");
        assert_eq!(m.holders_mask(BlockAddr(4)), 0, "holder masks are separate");
    }

    #[test]
    fn counts_operations() {
        let mut m = mem();
        m.read_word(Addr(0));
        m.write_word(Addr(0), Word(1));
        m.read_block(BlockAddr(0));
        m.write_block(BlockAddr(0), &[Word(0); 4]);
        assert_eq!(m.reads(), 2);
        // rmw counts one read and one write.
        m.rmw_word(Addr(1), Word(2));
        assert_eq!(m.reads(), 3);
        assert_eq!(m.writes(), 3);
    }
}
