//! The tagged, set-associative cache data store.
//!
//! # Layout
//!
//! The store is a flat structure-of-arrays slab: contiguous tag /
//! occupancy / state / recency-link arrays of `sets × ways` entries, two
//! per-set counters, and two contiguous payload slabs (block data words
//! and per-transfer-unit dirty bits), indexed by
//! `frame = set * ways + way`. Set selection is a single mask (`sets` is a
//! power of two). Probes resolve through a self-verifying MRU hint backed
//! by a block → frame hash index, so neither hits nor misses scan tags.
//!
//! # Replacement
//!
//! Replacement is exact LRU. Each set threads its occupied frames on an
//! intrusive doubly linked ring through one sentinel node, least recently
//! used first; a hit relinks its frame at the most recently used end.
//! Frames are never freed, so the occupied ways are a prefix of the set
//! and allocation into a non-full set takes way `filled` directly. In a
//! full set the victim is the least recently used invalid copy if the
//! set's `invalid` counter says one exists, else the least recently used
//! unlocked line — the ring's head unless a locked line sits there. A set
//! whose lines are all locked refuses the allocation, or gives up its
//! head when the caller spills locked lines.
//!
//! Tags and data persist when a line's state becomes invalid — an *invalid
//! copy* in the paper's vocabulary — until the frame is reused.

use crate::config::CacheConfig;
use crate::error::CacheError;
use mcs_model::{Addr, BlockAddr, FastMap, LineState, Word};

/// Read-only view of one resident cache line.
#[derive(Debug)]
pub struct LineRef<'a, S> {
    /// The block this frame holds (valid or invalid copy).
    pub tag: BlockAddr,
    /// Protocol state.
    pub state: S,
    /// Block data.
    pub data: &'a [Word],
    /// Per-transfer-unit dirty bits (length = `units_per_block`).
    pub unit_dirty: &'a [bool],
}

impl<S> LineRef<'_, S> {
    /// Number of dirty transfer units.
    pub fn dirty_units(&self) -> usize {
        self.unit_dirty.iter().filter(|d| **d).count()
    }
}

/// Mutable view of one resident cache line (data and dirty bits).
///
/// The protocol state is a read-only copy: state transitions go through
/// [`Cache::set_state`], the single choke point that keeps each set's
/// count of invalid copies coherent with the states.
#[derive(Debug)]
pub struct LineMut<'a, S> {
    /// The block this frame holds (valid or invalid copy).
    pub tag: BlockAddr,
    /// Protocol state (read-only — change it via [`Cache::set_state`]).
    pub state: S,
    /// Block data.
    pub data: &'a mut [Word],
    /// Per-transfer-unit dirty bits (length = `units_per_block`).
    pub unit_dirty: &'a mut [bool],
}

impl<S> LineMut<'_, S> {
    /// Number of dirty transfer units.
    pub fn dirty_units(&self) -> usize {
        self.unit_dirty.iter().filter(|d| **d).count()
    }

    /// Clears all unit dirty bits (after a flush).
    pub fn clear_unit_dirty(&mut self) {
        self.unit_dirty.iter_mut().for_each(|d| *d = false);
    }
}

/// A line evicted to make room, handed back to the simulator so it can
/// issue the write-back the protocol requires. The evicted block's data is
/// written into the caller-supplied buffer (see
/// [`Cache::ensure_frame_with`]) so steady-state eviction allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct EvictedLine<S> {
    /// The evicted block.
    pub tag: BlockAddr,
    /// Its state at eviction.
    pub state: S,
    /// How many transfer units were dirty.
    pub dirty_units: usize,
}

/// One node of a set's recency ring, linking frame indices (and the set's
/// sentinel, which sits past the last frame).
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The next more recently used node.
    next: u32,
    /// The next less recently used node.
    prev: u32,
}

/// Per-set replacement counters.
#[derive(Debug, Clone, Copy, Default)]
struct SetCounts {
    /// Occupied ways, always the set's first `filled` ways.
    filled: u32,
    /// Resident invalid copies (frames whose state is not valid).
    invalid: u32,
}

/// A set-associative cache store holding protocol states of type `S`,
/// replaced by exact LRU kept on one recency ring per set (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct Cache<S> {
    config: CacheConfig,
    ways: usize,
    set_mask: u64,
    words: usize,
    units: usize,
    unit_words: usize,
    tags: Box<[BlockAddr]>,
    occupied: Box<[bool]>,
    states: Box<[S]>,
    /// Recency rings: one node per frame, then one sentinel per set at
    /// `frames + set`. A sentinel's `next` is its set's LRU frame and its
    /// `prev` the MRU frame.
    links: Box<[Link]>,
    /// Per-set `filled` and `invalid` counters.
    counts: Box<[SetCounts]>,
    data: Box<[Word]>,
    unit_dirty: Box<[bool]>,
    /// Block → frame index over all resident tags (globally unique: a
    /// block maps to exactly one set, and a set never holds a tag twice).
    /// Turns the miss-path probe — which would otherwise scan every way of
    /// the set to conclude "absent" — into one cheap hash lookup.
    index: FastMap<BlockAddr, u32>,
    /// MRU probe hint: the last block found (or installed) and its frame.
    /// Purely an accelerator — every use re-verifies the tag and occupancy
    /// at the hinted frame, so a stale hint just falls back to the index.
    /// `Cell` because probes are logically read-only (`&self`).
    hint: std::cell::Cell<(BlockAddr, usize)>,
}

impl<S: LineState> Cache<S> {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let frames = sets * config.ways();
        let words = config.geometry().words_per_block();
        let units = config.units_per_block();
        // Every ring starts empty: each sentinel links to itself.
        let links = (0..frames + sets)
            .map(|node| Link { next: node as u32, prev: node as u32 })
            .collect();
        Cache {
            config,
            ways: config.ways(),
            set_mask: (sets - 1) as u64,
            words,
            units,
            unit_words: config.transfer_unit_words().unwrap_or(words),
            tags: vec![BlockAddr(u64::MAX); frames].into_boxed_slice(),
            occupied: vec![false; frames].into_boxed_slice(),
            states: vec![S::invalid(); frames].into_boxed_slice(),
            links,
            counts: vec![SetCounts::default(); sets].into_boxed_slice(),
            data: vec![Word(0); frames * words].into_boxed_slice(),
            unit_dirty: vec![false; frames * units].into_boxed_slice(),
            index: {
                let mut m = FastMap::default();
                m.reserve(frames);
                m
            },
            hint: std::cell::Cell::new((BlockAddr(u64::MAX), 0)),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 & self.set_mask) as usize
    }

    /// Ring node index of `set`'s sentinel.
    #[inline]
    fn sentinel(&self, set: usize) -> usize {
        self.tags.len() + set
    }

    /// Frame index of the way holding `block`, if resident.
    ///
    /// The hot path around one access or bus transaction probes the same
    /// block several times (present, install, state write, LRU touch,
    /// snoop), so the MRU hint short-circuits most calls to a single
    /// verified compare; the first probe of a block — and crucially every
    /// *miss* probe, which a way scan could only answer by exhausting the
    /// set — is one multiplicative-hash index lookup.
    #[inline]
    fn find_way(&self, block: BlockAddr) -> Option<usize> {
        let (hb, hi) = self.hint.get();
        if hb == block && self.tags[hi] == block && self.occupied[hi] {
            return Some(hi);
        }
        let idx = *self.index.get(&block)? as usize;
        self.hint.set((block, idx));
        Some(idx)
    }

    /// Links frame `idx` in at `set`'s most recently used end.
    #[inline]
    fn push_mru(&mut self, set: usize, idx: usize) {
        let s = self.sentinel(set);
        let mru = self.links[s].prev;
        self.links[idx] = Link { next: s as u32, prev: mru };
        self.links[mru as usize].next = idx as u32;
        self.links[s].prev = idx as u32;
    }

    /// Takes frame `idx` off its ring.
    #[inline]
    fn unlink(&mut self, idx: usize) {
        let Link { next, prev } = self.links[idx];
        self.links[prev as usize].next = next;
        self.links[next as usize].prev = prev;
    }

    /// Marks resident frame `idx` of `set` most recently used.
    #[inline]
    fn make_mru(&mut self, set: usize, idx: usize) {
        if self.links[idx].next as usize != self.sentinel(set) {
            self.unlink(idx);
            self.push_mru(set, idx);
        }
    }

    /// The replacement victim in full set `set`: the least recently used
    /// invalid copy when the set holds one (invalid copies are never
    /// locked), else the least recently used unlocked line, else, with
    /// `spill_locked`, the least recently used line. Without invalid copies
    /// this reads only the ring's head unless a locked line sits there.
    fn victim(&self, set: usize, spill_locked: bool) -> Option<usize> {
        let s = self.sentinel(set);
        let lru = self.links[s].next as usize;
        let want_invalid = self.counts[set].invalid > 0;
        let mut idx = lru;
        while idx != s {
            let d = self.states[idx].descriptor();
            let eligible = if want_invalid { !d.is_valid() } else { !d.is_locked() };
            if eligible {
                return Some(idx);
            }
            idx = self.links[idx].next as usize;
        }
        spill_locked.then_some(lru)
    }

    #[inline]
    fn line_ref(&self, idx: usize) -> LineRef<'_, S> {
        LineRef {
            tag: self.tags[idx],
            state: self.states[idx],
            data: &self.data[idx * self.words..(idx + 1) * self.words],
            unit_dirty: &self.unit_dirty[idx * self.units..(idx + 1) * self.units],
        }
    }

    #[inline]
    fn line_mut(&mut self, idx: usize) -> LineMut<'_, S> {
        LineMut {
            tag: self.tags[idx],
            state: self.states[idx],
            data: &mut self.data[idx * self.words..(idx + 1) * self.words],
            unit_dirty: &mut self.unit_dirty[idx * self.units..(idx + 1) * self.units],
        }
    }

    /// Looks up the frame holding `block` (valid **or invalid** copy).
    pub fn lookup(&self, block: BlockAddr) -> Option<LineRef<'_, S>> {
        self.find_way(block).map(|idx| self.line_ref(idx))
    }

    /// Whether a frame (valid or invalid copy) holds `block`.
    #[inline]
    pub fn is_resident(&self, block: BlockAddr) -> bool {
        self.find_way(block).is_some()
    }

    /// The protocol state for `block`; `S::invalid()` when no frame holds
    /// it (or the frame is an invalid copy, whose state *is* invalid).
    #[inline]
    pub fn state_of(&self, block: BlockAddr) -> S {
        match self.find_way(block) {
            Some(idx) => self.states[idx],
            None => S::invalid(),
        }
    }

    /// The protocol state for `block` when a frame holds it, `None` when
    /// nothing is resident (a resident invalid copy returns `Some`).
    #[inline]
    pub fn state_if_resident(&self, block: BlockAddr) -> Option<S> {
        self.find_way(block).map(|idx| self.states[idx])
    }

    /// Sets the protocol state of the resident frame for `block`. Returns
    /// `false` (and does nothing) when no frame holds the block.
    pub fn set_state(&mut self, block: BlockAddr, state: S) -> bool {
        match self.find_way(block) {
            Some(idx) => {
                let was_valid = self.states[idx].descriptor().is_valid();
                let is_valid = state.descriptor().is_valid();
                self.states[idx] = state;
                if was_valid != is_valid {
                    let set = self.set_of(block);
                    if is_valid {
                        self.counts[set].invalid -= 1;
                    } else {
                        self.counts[set].invalid += 1;
                    }
                }
                true
            }
            None => false,
        }
    }

    /// The data words of the resident frame for `block`.
    #[inline]
    pub fn data_of(&self, block: BlockAddr) -> Option<&[Word]> {
        self.find_way(block).map(|idx| &self.data[idx * self.words..(idx + 1) * self.words])
    }

    /// Number of dirty transfer units in the resident frame for `block`
    /// (0 when not resident).
    pub fn dirty_units_of(&self, block: BlockAddr) -> usize {
        match self.find_way(block) {
            Some(idx) => self.unit_dirty[idx * self.units..(idx + 1) * self.units]
                .iter()
                .filter(|d| **d)
                .count(),
            None => 0,
        }
    }

    /// Clears the unit dirty bits of the resident frame for `block` (after
    /// a flush).
    pub fn clear_unit_dirty(&mut self, block: BlockAddr) {
        if let Some(idx) = self.find_way(block) {
            self.unit_dirty[idx * self.units..(idx + 1) * self.units].fill(false);
        }
    }

    /// Overwrites the resident frame's data for `block` with `src` and
    /// clears its dirty bits (a fill from memory or another cache). Returns
    /// `false` when the block is not resident.
    pub fn fill_block(&mut self, block: BlockAddr, src: &[Word]) -> bool {
        match self.find_way(block) {
            Some(idx) => {
                self.data[idx * self.words..(idx + 1) * self.words].copy_from_slice(src);
                self.unit_dirty[idx * self.units..(idx + 1) * self.units].fill(false);
                true
            }
            None => false,
        }
    }

    /// Zero-fills the resident frame's data for `block` and clears its
    /// dirty bits (a fill of a never-written memory block).
    pub fn zero_block(&mut self, block: BlockAddr) -> bool {
        match self.find_way(block) {
            Some(idx) => {
                self.data[idx * self.words..(idx + 1) * self.words].fill(Word(0));
                self.unit_dirty[idx * self.units..(idx + 1) * self.units].fill(false);
                true
            }
            None => false,
        }
    }

    /// Copies `block`'s data from `src`'s resident frame into this cache's
    /// resident frame (cache-to-cache supply without an intermediate
    /// allocation), clearing the destination's dirty bits. Returns `false`
    /// (and copies nothing) unless both caches hold a frame for the block.
    pub fn copy_block_from(&mut self, src: &Cache<S>, block: BlockAddr) -> bool {
        match src.data_of(block) {
            Some(data) => self.fill_block(block, data),
            None => false,
        }
    }

    /// Marks `block` most-recently-used.
    pub fn touch(&mut self, block: BlockAddr) {
        if let Some(idx) = self.find_way(block) {
            self.make_mru(self.set_of(block), idx);
        }
    }

    /// Returns the frame for `block`, allocating one (possibly evicting the
    /// LRU non-locked victim) if none exists. A newly allocated frame
    /// starts in `S::invalid()` with zeroed data. Evicted data is written
    /// into an internal throwaway buffer; the simulator's hot path uses
    /// [`Cache::ensure_frame_with`] with a reused buffer instead.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::AllLinesLocked`] if the set is full and every
    /// resident line is locked (locked blocks are pinned, Section E.3).
    pub fn ensure_frame(
        &mut self,
        block: BlockAddr,
    ) -> Result<(LineMut<'_, S>, Option<EvictedLine<S>>), CacheError> {
        let mut scratch = Vec::new();
        self.ensure_frame_with(block, false, &mut scratch)
    }

    /// Like [`Cache::ensure_frame`], but if `spill_locked` is set and every
    /// resident line is locked, the LRU *locked* line is evicted anyway —
    /// the paper's minor protocol modification where the purged block's
    /// lock bit is written to memory (Section E.3, "Two Concerns"). The
    /// evicted block's data words are copied into `evict_buf` (cleared
    /// first), so the caller can reuse one buffer across evictions.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::AllLinesLocked`] only when `spill_locked` is
    /// false and no unlocked victim exists.
    pub fn ensure_frame_with(
        &mut self,
        block: BlockAddr,
        spill_locked: bool,
        evict_buf: &mut Vec<Word>,
    ) -> Result<(LineMut<'_, S>, Option<EvictedLine<S>>), CacheError> {
        let set = self.set_of(block);
        if let Some(idx) = self.find_way(block) {
            self.make_mru(set, idx);
            return Ok((self.line_mut(idx), None));
        }

        let mut evicted = None;
        let filled = self.counts[set].filled as usize;
        let idx = if filled < self.ways {
            self.counts[set].filled += 1;
            let idx = set * self.ways + filled;
            self.occupied[idx] = true;
            idx
        } else {
            let idx = self.victim(set, spill_locked).ok_or(CacheError::AllLinesLocked { set })?;
            evict_buf.clear();
            evict_buf.extend_from_slice(&self.data[idx * self.words..(idx + 1) * self.words]);
            let state = self.states[idx];
            if !state.descriptor().is_valid() {
                self.counts[set].invalid -= 1;
            }
            evicted = Some(EvictedLine {
                tag: self.tags[idx],
                state,
                dirty_units: self.unit_dirty[idx * self.units..(idx + 1) * self.units]
                    .iter()
                    .filter(|d| **d)
                    .count(),
            });
            self.index.remove(&self.tags[idx]);
            self.unlink(idx);
            idx
        };

        self.tags[idx] = block;
        self.index.insert(block, idx as u32);
        self.states[idx] = S::invalid();
        self.counts[set].invalid += 1;
        self.push_mru(set, idx);
        self.data[idx * self.words..(idx + 1) * self.words].fill(Word(0));
        self.unit_dirty[idx * self.units..(idx + 1) * self.units].fill(false);
        self.hint.set((block, idx));
        Ok((self.line_mut(idx), evicted))
    }

    /// Reads the word at `addr` if its block is resident (regardless of
    /// validity — the caller checks the state).
    #[inline]
    pub fn read_word(&self, addr: Addr) -> Option<Word> {
        let geom = self.config.geometry();
        let idx = self.find_way(geom.block_of(addr))?;
        Some(self.data[idx * self.words + geom.offset_of(addr)])
    }

    /// Writes the word at `addr` (block must be resident) and sets the
    /// containing transfer unit's dirty bit. Returns `true` on success.
    #[inline]
    pub fn write_word(&mut self, addr: Addr, value: Word) -> bool {
        let geom = self.config.geometry();
        let offset = geom.offset_of(addr);
        match self.find_way(geom.block_of(addr)) {
            Some(idx) => {
                self.data[idx * self.words + offset] = value;
                self.unit_dirty[idx * self.units + offset / self.unit_words] = true;
                true
            }
            None => false,
        }
    }

    /// Iterates over all resident lines.
    pub fn lines(&self) -> impl Iterator<Item = LineRef<'_, S>> {
        (0..self.tags.len()).filter(|&idx| self.occupied[idx]).map(|idx| self.line_ref(idx))
    }

    /// Number of resident frames (valid or invalid copies).
    pub fn resident(&self) -> usize {
        self.counts.iter().map(|c| c.filled as usize).sum()
    }

    /// Number of valid lines.
    pub fn valid_lines(&self) -> usize {
        self.counts.iter().map(|c| (c.filled - c.invalid) as usize).sum()
    }

    /// Asserts the invariants replacement relies on: each set's occupied
    /// frames are its first `filled` ways and appear exactly once on its
    /// recency ring, the ring's links are symmetric, `invalid` counts the
    /// set's invalid copies, and the block → frame index is exactly the
    /// set of occupied frames. Test/diagnostic hook.
    pub fn assert_replacement_consistent(&self) {
        let mut occupied_frames = 0;
        for set in 0..self.counts.len() {
            let base = set * self.ways;
            let filled = self.counts[set].filled as usize;
            for way in 0..self.ways {
                assert_eq!(
                    self.occupied[base + way],
                    way < filled,
                    "set {set}: occupied ways are not the first {filled}",
                );
            }
            // With symmetric links, a frame met twice would need two
            // predecessors, so a walk that stays within `filled` frames and
            // returns to the sentinel visits each frame once.
            let s = self.sentinel(set);
            let (mut node, mut len, mut invalid) = (s, 0, 0);
            loop {
                let next = self.links[node].next as usize;
                assert_eq!(
                    self.links[next].prev as usize, node,
                    "set {set}: ring links of node {node} are not symmetric",
                );
                if next == s {
                    break;
                }
                assert!(
                    (base..base + filled).contains(&next),
                    "set {set}: ring reaches node {next}, not an occupied frame of the set",
                );
                len += 1;
                assert!(len <= filled, "set {set}: ring is longer than `filled`");
                invalid += usize::from(!self.states[next].descriptor().is_valid());
                node = next;
            }
            assert_eq!(len, filled, "set {set}: ring length is not `filled`");
            let counted = self.counts[set].invalid as usize;
            assert_eq!(counted, invalid, "set {set}: `invalid` out of sync");
            occupied_frames += filled;
            for idx in base..base + filled {
                assert_eq!(
                    self.index.get(&self.tags[idx]).copied(),
                    Some(idx as u32),
                    "index out of sync at frame {idx} (block {:?})",
                    self.tags[idx],
                );
            }
        }
        assert_eq!(self.index.len(), occupied_frames, "index holds stale entries");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{Privilege, StateDescriptor};
    use std::fmt;

    /// A minimal test state: Invalid / Read / Write / Lock.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum TS {
        I,
        R,
        W,
        L,
    }

    impl fmt::Display for TS {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(self.name())
        }
    }

    impl LineState for TS {
        fn invalid() -> Self {
            TS::I
        }
        fn descriptor(&self) -> StateDescriptor {
            let privilege = match self {
                TS::I => None,
                TS::R => Some(Privilege::Read),
                TS::W => Some(Privilege::Write),
                TS::L => Some(Privilege::Lock),
            };
            StateDescriptor { privilege, source: false, dirty: false, waiter: false }
        }
        fn all() -> &'static [Self] {
            &[TS::I, TS::R, TS::W, TS::L]
        }
        fn name(&self) -> &'static str {
            match self {
                TS::I => "I",
                TS::R => "R",
                TS::W => "W",
                TS::L => "L",
            }
        }
    }

    fn cache(blocks: usize) -> Cache<TS> {
        Cache::new(CacheConfig::fully_associative(blocks, 4).unwrap())
    }

    fn set_state(c: &mut Cache<TS>, block: BlockAddr, s: TS) {
        assert!(c.set_state(block, s), "block must be resident");
    }

    #[test]
    fn miss_then_allocate() {
        let mut c = cache(2);
        assert!(c.lookup(BlockAddr(5)).is_none());
        assert_eq!(c.state_of(BlockAddr(5)), TS::I);
        let (line, evicted) = c.ensure_frame(BlockAddr(5)).unwrap();
        assert!(evicted.is_none());
        assert_eq!(line.tag, BlockAddr(5));
        assert_eq!(line.state, TS::I);
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn lru_eviction_prefers_invalid_then_oldest() {
        let mut c = cache(2);
        c.ensure_frame(BlockAddr(1)).unwrap();
        set_state(&mut c, BlockAddr(1), TS::R);
        c.ensure_frame(BlockAddr(2)).unwrap(); // invalid copy
        // Full; next allocation must evict the invalid copy, not the LRU.
        let (_, evicted) = c.ensure_frame(BlockAddr(3)).unwrap();
        assert_eq!(evicted.unwrap().tag, BlockAddr(2));
        assert!(c.lookup(BlockAddr(1)).is_some());
    }

    #[test]
    fn lru_order_respected_among_valid() {
        let mut c = cache(2);
        c.ensure_frame(BlockAddr(1)).unwrap();
        set_state(&mut c, BlockAddr(1), TS::R);
        c.ensure_frame(BlockAddr(2)).unwrap();
        set_state(&mut c, BlockAddr(2), TS::R);
        c.touch(BlockAddr(1)); // 2 becomes LRU
        let (_, evicted) = c.ensure_frame(BlockAddr(3)).unwrap();
        assert_eq!(evicted.unwrap().tag, BlockAddr(2));
    }

    #[test]
    fn locked_lines_are_pinned() {
        let mut c = cache(2);
        c.ensure_frame(BlockAddr(1)).unwrap();
        set_state(&mut c, BlockAddr(1), TS::L);
        c.ensure_frame(BlockAddr(2)).unwrap();
        set_state(&mut c, BlockAddr(2), TS::L);
        let err = c.ensure_frame(BlockAddr(3)).unwrap_err();
        assert_eq!(err, CacheError::AllLinesLocked { set: 0 });
        // Unlock one; allocation succeeds and evicts it.
        set_state(&mut c, BlockAddr(1), TS::W);
        let (_, evicted) = c.ensure_frame(BlockAddr(3)).unwrap();
        assert_eq!(evicted.unwrap().tag, BlockAddr(1));
        assert!(c.lookup(BlockAddr(2)).is_some());
    }

    #[test]
    fn spill_locked_evicts_lru_locked_line() {
        let mut c = cache(2);
        c.ensure_frame(BlockAddr(1)).unwrap();
        set_state(&mut c, BlockAddr(1), TS::L);
        c.ensure_frame(BlockAddr(2)).unwrap();
        set_state(&mut c, BlockAddr(2), TS::L);
        let mut buf = Vec::new();
        let (_, evicted) = c.ensure_frame_with(BlockAddr(3), true, &mut buf).unwrap();
        let ev = evicted.unwrap();
        assert_eq!(ev.tag, BlockAddr(1));
        assert_eq!(ev.state, TS::L);
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn set_mapping_isolates_sets() {
        let mut c: Cache<TS> = Cache::new(CacheConfig::set_associative(2, 1, 4).unwrap());
        c.ensure_frame(BlockAddr(0)).unwrap(); // set 0
        set_state(&mut c, BlockAddr(0), TS::R);
        c.ensure_frame(BlockAddr(1)).unwrap(); // set 1
        set_state(&mut c, BlockAddr(1), TS::R);
        // Block 2 maps to set 0 and evicts block 0 only.
        let (_, evicted) = c.ensure_frame(BlockAddr(2)).unwrap();
        assert_eq!(evicted.unwrap().tag, BlockAddr(0));
        assert!(c.lookup(BlockAddr(1)).is_some());
    }

    #[test]
    fn data_read_write_and_unit_dirty() {
        let mut c = cache(4);
        c.ensure_frame(BlockAddr(1)).unwrap();
        assert!(c.write_word(Addr(5), Word(42)));
        assert_eq!(c.read_word(Addr(5)), Some(Word(42)));
        assert_eq!(c.read_word(Addr(4)), Some(Word(0)));
        assert!(c.read_word(Addr(100)).is_none());
        assert!(!c.write_word(Addr(100), Word(1)));
        // Whole block is one unit by default.
        assert_eq!(c.lookup(BlockAddr(1)).unwrap().dirty_units(), 1);
        assert_eq!(c.dirty_units_of(BlockAddr(1)), 1);
    }

    #[test]
    fn transfer_units_track_dirty_subblocks() {
        let cfg = CacheConfig::fully_associative(4, 4).unwrap().with_transfer_unit(1).unwrap();
        let mut c: Cache<TS> = Cache::new(cfg);
        c.ensure_frame(BlockAddr(0)).unwrap();
        c.write_word(Addr(1), Word(7));
        c.write_word(Addr(3), Word(8));
        let line = c.lookup(BlockAddr(0)).unwrap();
        assert_eq!(line.dirty_units(), 2);
        assert_eq!(line.unit_dirty, &[false, true, false, true]);
        c.clear_unit_dirty(BlockAddr(0));
        assert_eq!(c.lookup(BlockAddr(0)).unwrap().dirty_units(), 0);
    }

    #[test]
    fn invalid_copy_retains_tag_and_data() {
        let mut c = cache(4);
        c.ensure_frame(BlockAddr(9)).unwrap();
        set_state(&mut c, BlockAddr(9), TS::W);
        c.write_word(Addr(36), Word(5));
        set_state(&mut c, BlockAddr(9), TS::I); // invalidated
        // Still resident: tag matches and data readable (invalid copy).
        assert_eq!(c.read_word(Addr(36)), Some(Word(5)));
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn fill_and_zero_block() {
        let mut c = cache(2);
        c.ensure_frame(BlockAddr(0)).unwrap();
        c.write_word(Addr(0), Word(9));
        assert!(c.fill_block(BlockAddr(0), &[Word(1), Word(2), Word(3), Word(4)]));
        assert_eq!(c.read_word(Addr(2)), Some(Word(3)));
        assert_eq!(c.dirty_units_of(BlockAddr(0)), 0, "fill clears dirty bits");
        assert!(c.zero_block(BlockAddr(0)));
        assert_eq!(c.read_word(Addr(2)), Some(Word(0)));
        assert!(!c.fill_block(BlockAddr(7), &[Word(0); 4]), "absent block");
    }

    #[test]
    fn copy_block_between_caches() {
        let mut a = cache(2);
        let mut b = cache(2);
        a.ensure_frame(BlockAddr(3)).unwrap();
        a.write_word(Addr(13), Word(77));
        b.ensure_frame(BlockAddr(3)).unwrap();
        assert!(b.copy_block_from(&a, BlockAddr(3)));
        assert_eq!(b.read_word(Addr(13)), Some(Word(77)));
        assert_eq!(b.dirty_units_of(BlockAddr(3)), 0);
        b.ensure_frame(BlockAddr(4)).unwrap();
        assert!(!b.copy_block_from(&a, BlockAddr(4)), "source lacks the block");
        assert!(!a.copy_block_from(&b, BlockAddr(4)), "destination lacks a frame");
    }

    #[test]
    fn replacement_state_tracks_descriptors() {
        let mut c = cache(2);
        c.assert_replacement_consistent();
        c.ensure_frame(BlockAddr(1)).unwrap();
        c.assert_replacement_consistent();
        set_state(&mut c, BlockAddr(1), TS::L);
        c.assert_replacement_consistent();
        set_state(&mut c, BlockAddr(1), TS::R);
        c.ensure_frame(BlockAddr(2)).unwrap();
        set_state(&mut c, BlockAddr(2), TS::W);
        c.assert_replacement_consistent();
        // Eviction reuses the frame; `invalid` must count the new line.
        c.ensure_frame(BlockAddr(3)).unwrap();
        c.assert_replacement_consistent();
        assert_eq!(c.valid_lines(), 1, "only the surviving valid line counts");
    }

    #[test]
    fn evict_buf_is_reused_across_evictions() {
        let mut c = cache(1);
        let mut buf = Vec::new();
        c.ensure_frame_with(BlockAddr(0), false, &mut buf).unwrap();
        c.write_word(Addr(1), Word(5));
        let (_, ev) = c.ensure_frame_with(BlockAddr(1), false, &mut buf).unwrap();
        assert_eq!(ev.unwrap().tag, BlockAddr(0));
        assert_eq!(buf, vec![Word(0), Word(5), Word(0), Word(0)]);
        let (_, ev) = c.ensure_frame_with(BlockAddr(2), false, &mut buf).unwrap();
        assert_eq!(ev.unwrap().tag, BlockAddr(1));
        assert_eq!(buf, vec![Word(0); 4], "buffer cleared and refilled");
    }

    /// The replacement rule as the store once implemented it: a global
    /// use stamp per frame, and a scan of the set for the first empty way,
    /// then the unlocked line with the least `(is_valid, stamp)`, then
    /// (when spilling) the line with the least stamp.
    struct ScanModel {
        ways: usize,
        set_mask: u64,
        /// Per frame: `(tag, state, stamp)`.
        frames: Vec<Option<(BlockAddr, TS, u64)>>,
        clock: u64,
    }

    impl ScanModel {
        fn new(sets: usize, ways: usize) -> Self {
            ScanModel { ways, set_mask: sets as u64 - 1, frames: vec![None; sets * ways], clock: 0 }
        }

        fn set_range(&self, block: BlockAddr) -> std::ops::Range<usize> {
            let base = (block.0 & self.set_mask) as usize * self.ways;
            base..base + self.ways
        }

        fn find(&self, block: BlockAddr) -> Option<usize> {
            self.set_range(block).find(|&i| self.frames[i].is_some_and(|(t, _, _)| t == block))
        }

        fn touch(&mut self, block: BlockAddr) {
            self.clock += 1;
            if let Some(i) = self.find(block) {
                if let Some(f) = self.frames[i].as_mut() {
                    f.2 = self.clock;
                }
            }
        }

        fn set_state(&mut self, block: BlockAddr, state: TS) {
            if let Some(i) = self.find(block) {
                if let Some(f) = self.frames[i].as_mut() {
                    f.1 = state;
                }
            }
        }

        /// The evicted tag, if any.
        fn ensure(
            &mut self,
            block: BlockAddr,
            spill: bool,
        ) -> Result<Option<BlockAddr>, CacheError> {
            self.clock += 1;
            if let Some(i) = self.find(block) {
                if let Some(f) = self.frames[i].as_mut() {
                    f.2 = self.clock;
                }
                return Ok(None);
            }
            let range = self.set_range(block);
            let (idx, evicted) = match range.clone().find(|&i| self.frames[i].is_none()) {
                Some(i) => (i, None),
                None => {
                    let resident = range.map(|i| (i, self.frames[i].unwrap()));
                    let victim = resident
                        .clone()
                        .filter(|(_, (_, s, _))| !s.descriptor().is_locked())
                        .min_by_key(|(_, (_, s, stamp))| (s.descriptor().is_valid(), *stamp))
                        .or_else(|| {
                            if spill {
                                resident.min_by_key(|(_, (_, _, stamp))| *stamp)
                            } else {
                                None
                            }
                        });
                    let (i, (tag, _, _)) = victim.ok_or(CacheError::AllLinesLocked {
                        set: (block.0 & self.set_mask) as usize,
                    })?;
                    (i, Some(tag))
                }
            };
            self.frames[idx] = Some((block, TS::I, self.clock));
            Ok(evicted)
        }
    }

    #[test]
    fn recency_ring_matches_the_scan_model() {
        let mut rng = mcs_model::Rng64::seed_from_u64(0x1A5C);
        for (sets, ways) in [(4, 1), (4, 2), (2, 4), (1, 64), (1, 128)] {
            let mut c: Cache<TS> =
                Cache::new(CacheConfig::set_associative(sets, ways, 1).unwrap());
            let mut model = ScanModel::new(sets, ways);
            let (mut evictions, mut refusals) = (0, 0);
            let phase = (40 * ways).max(2_000);
            for step in 0..10 * phase {
                // Alternate phases: one streams through twice the capacity
                // with few locks, the other stays near the capacity and
                // mostly locks lines, so that locked LRU lines and fully
                // locked sets both occur. Eighths of the operations go to
                // allocations, then touches, then state changes.
                let (blocks, lock_p, ensures, touches) = if (step / phase) % 2 == 0 {
                    (2 * sets * ways, 0.05, 4, 2)
                } else {
                    (sets * ways + sets, 1.0, 1, 1)
                };
                let block = BlockAddr(rng.gen_range_u64(0..blocks as u64));
                match rng.gen_range_usize(0..8) {
                    op if op < ensures => {
                        let spill = rng.gen_bool(0.5);
                        let mut buf = Vec::new();
                        let got = c
                            .ensure_frame_with(block, spill, &mut buf)
                            .map(|(_, ev)| ev.map(|e| e.tag));
                        let want = model.ensure(block, spill);
                        assert_eq!(got, want, "{sets}x{ways} step {step}: ensure {block:?}");
                        evictions += usize::from(matches!(got, Ok(Some(_))));
                        refusals += usize::from(got.is_err());
                    }
                    op if op < ensures + touches => {
                        c.touch(block);
                        model.touch(block);
                    }
                    _ => {
                        // Half the state changes go to a resident line,
                        // which may be left over from the other phase.
                        let frame = model.frames[rng.gen_range_usize(0..sets * ways)];
                        let block = match frame {
                            Some((tag, _, _)) if rng.gen_bool(0.5) => tag,
                            _ => block,
                        };
                        let state = if rng.gen_bool(lock_p) {
                            TS::L
                        } else {
                            [TS::I, TS::R, TS::W][rng.gen_range_usize(0..3)]
                        };
                        assert_eq!(c.set_state(block, state), model.find(block).is_some());
                        model.set_state(block, state);
                    }
                }
                c.assert_replacement_consistent();
            }
            assert!(
                evictions > 0 && refusals > 0,
                "{sets}x{ways}: {evictions} evictions, {refusals} refusals",
            );
        }
    }
}
