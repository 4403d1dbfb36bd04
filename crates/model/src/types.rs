//! Identifiers, addresses, and block geometry.
//!
//! Addresses are *word* addresses: the bus of the paper is word-wide, blocks
//! hold `n` bus-wide words, and write-through / update operations move single
//! words (Section D.2 of the paper). [`BlockGeometry`] converts between word
//! addresses and block addresses.

use crate::error::ModelError;
use std::fmt;

/// Identifies a processor (and its private cache — they are paired 1:1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub usize);

/// Identifies a cache. Caches and processors are paired, so the numeric id
/// is shared; the distinct type keeps processor-side and cache-side code
/// honest about which agent it is talking about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheId(pub usize);

/// A bus agent: either a processor cache or the I/O processor
/// (Section E.2, "I/O Transfer").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AgentId {
    /// A processor cache.
    Cache(CacheId),
    /// The I/O processor, which accesses the bus directly without a cache.
    Io,
}

impl AgentId {
    /// Returns the cache id if this agent is a cache.
    pub fn cache(self) -> Option<CacheId> {
        match self {
            AgentId::Cache(id) => Some(id),
            AgentId::Io => None,
        }
    }
}

impl From<CacheId> for AgentId {
    fn from(id: CacheId) -> Self {
        AgentId::Cache(id)
    }
}

/// A word address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

/// A block address (word address divided by words-per-block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

/// A data word. The simulator carries real word values so coherence
/// ("provide the latest version", Section C.1) can be checked, not assumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Word(pub u64);

/// A duration or point in time, in bus cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl std::ops::Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for CacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentId::Cache(c) => write!(f, "{c}"),
            AgentId::Io => write!(f, "IO"),
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:#x}", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{:#x}", self.0)
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// Block geometry: how word addresses map onto cache blocks.
///
/// The paper treats blocks of `n` bus-wide words (Features 4 and 5 estimate
/// traffic fractions as functions of `n`); `words_per_block` must be a power
/// of two so the mapping is a shift/mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockGeometry {
    words_per_block: usize,
    shift: u32,
}

impl BlockGeometry {
    /// Creates a geometry with `words_per_block` words per cache block.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidBlockSize`] unless `words_per_block`
    /// is a nonzero power of two.
    pub fn new(words_per_block: usize) -> Result<Self, ModelError> {
        if words_per_block == 0 || !words_per_block.is_power_of_two() {
            return Err(ModelError::InvalidBlockSize(words_per_block));
        }
        Ok(Self {
            words_per_block,
            shift: words_per_block.trailing_zeros(),
        })
    }

    /// Number of words in a block.
    pub fn words_per_block(&self) -> usize {
        self.words_per_block
    }

    /// The block containing word address `addr`.
    pub fn block_of(&self, addr: Addr) -> BlockAddr {
        BlockAddr(addr.0 >> self.shift)
    }

    /// The word offset of `addr` within its block.
    pub fn offset_of(&self, addr: Addr) -> usize {
        (addr.0 & (self.words_per_block as u64 - 1)) as usize
    }

    /// The word address of the first word of `block`.
    pub fn base_of(&self, block: BlockAddr) -> Addr {
        Addr(block.0 << self.shift)
    }

    /// Iterates over all word addresses inside `block`.
    pub fn words_of(&self, block: BlockAddr) -> impl Iterator<Item = Addr> {
        let base = self.base_of(block).0;
        (0..self.words_per_block as u64).map(move |i| Addr(base + i))
    }
}

impl Default for BlockGeometry {
    /// Four words per block — the paper's running "n bus-wide words" example
    /// at a modest size.
    fn default() -> Self {
        Self { words_per_block: 4, shift: 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_rejects_non_power_of_two() {
        assert!(BlockGeometry::new(0).is_err());
        assert!(BlockGeometry::new(3).is_err());
        assert!(BlockGeometry::new(12).is_err());
        assert!(BlockGeometry::new(1).is_ok());
        assert!(BlockGeometry::new(8).is_ok());
        assert_eq!(BlockGeometry::default(), BlockGeometry::new(4).unwrap());
    }

    #[test]
    fn geometry_maps_addresses() {
        let g = BlockGeometry::new(8).unwrap();
        assert_eq!(g.block_of(Addr(0)), BlockAddr(0));
        assert_eq!(g.block_of(Addr(7)), BlockAddr(0));
        assert_eq!(g.block_of(Addr(8)), BlockAddr(1));
        assert_eq!(g.offset_of(Addr(13)), 5);
        assert_eq!(g.base_of(BlockAddr(2)), Addr(16));
    }

    #[test]
    fn geometry_words_of_covers_block() {
        let g = BlockGeometry::new(4).unwrap();
        let words: Vec<_> = g.words_of(BlockAddr(3)).collect();
        assert_eq!(words, vec![Addr(12), Addr(13), Addr(14), Addr(15)]);
        for w in words {
            assert_eq!(g.block_of(w), BlockAddr(3));
        }
    }

    #[test]
    fn single_word_blocks() {
        // Rudolph-Segall limits block size to one word (Section E.4).
        let g = BlockGeometry::new(1).unwrap();
        assert_eq!(g.block_of(Addr(42)), BlockAddr(42));
        assert_eq!(g.offset_of(Addr(42)), 0);
    }

    #[test]
    fn agent_conversions() {
        let a: AgentId = CacheId(2).into();
        assert_eq!(a.cache(), Some(CacheId(2)));
        assert_eq!(AgentId::Io.cache(), None);
    }

    #[test]
    fn cycles_arithmetic_and_display() {
        let mut c = Cycles(3) + Cycles(4);
        c += Cycles(1);
        assert_eq!(c, Cycles(8));
        assert_eq!(c.to_string(), "8cy");
        assert_eq!(ProcId(1).to_string(), "P1");
        assert_eq!(AgentId::Io.to_string(), "IO");
        assert_eq!(Addr(255).to_string(), "@0xff");
    }
}
