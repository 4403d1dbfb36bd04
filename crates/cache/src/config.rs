//! Cache geometry configuration.

use crate::error::CacheError;
use mcs_model::BlockGeometry;

/// Geometry of one processor cache.
///
/// The paper's lock protocol assumes a *fully associative* cache (Section
/// E.3) so locked blocks are never forced out; set-associative geometries
/// are supported for the replacement experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    sets: usize,
    ways: usize,
    geometry: BlockGeometry,
    transfer_unit_words: Option<usize>,
}

impl CacheConfig {
    /// A fully associative cache of `blocks` block frames of
    /// `words_per_block` words.
    ///
    /// # Errors
    ///
    /// Returns an error if `blocks` is zero or `words_per_block` is not a
    /// nonzero power of two.
    pub fn fully_associative(blocks: usize, words_per_block: usize) -> Result<Self, CacheError> {
        Self::set_associative(1, blocks, words_per_block)
    }

    /// A set-associative cache of `sets` sets × `ways` ways.
    ///
    /// # Errors
    ///
    /// Returns an error unless `sets` is a nonzero power of two, `ways` is
    /// nonzero and `words_per_block` is a nonzero power of two.
    pub fn set_associative(
        sets: usize,
        ways: usize,
        words_per_block: usize,
    ) -> Result<Self, CacheError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(CacheError::InvalidSets(sets));
        }
        if ways == 0 {
            return Err(CacheError::ZeroWays);
        }
        let geometry = BlockGeometry::new(words_per_block)
            .map_err(|_| CacheError::InvalidBlockSize(words_per_block))?;
        Ok(CacheConfig { sets, ways, geometry, transfer_unit_words: None })
    }

    /// Enables sub-block transfer units of `words` words (Section D.3):
    /// fetches and flushes move only the units they must, and per-unit dirty
    /// bits are kept.
    ///
    /// # Errors
    ///
    /// Returns an error unless `words` is a nonzero power of two that
    /// divides the block size.
    pub fn with_transfer_unit(mut self, words: usize) -> Result<Self, CacheError> {
        let block = self.geometry.words_per_block();
        if words == 0 || !words.is_power_of_two() || words > block || !block.is_multiple_of(words) {
            return Err(CacheError::InvalidTransferUnit { unit: words, block });
        }
        self.transfer_unit_words = Some(words);
        Ok(self)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total block frames.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }

    /// Address geometry.
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    /// Transfer-unit size in words, if sub-block transfers are enabled.
    pub fn transfer_unit_words(&self) -> Option<usize> {
        self.transfer_unit_words
    }

    /// Number of transfer units per block (1 when disabled — the whole
    /// block is the unit).
    pub fn units_per_block(&self) -> usize {
        match self.transfer_unit_words {
            Some(u) => self.geometry.words_per_block() / u,
            None => 1,
        }
    }
}

impl Default for CacheConfig {
    /// 64 fully-associative frames of 4 words — small enough to exercise
    /// replacement in tests, associative as the lock protocol prefers.
    fn default() -> Self {
        CacheConfig {
            sets: 1,
            ways: 64,
            geometry: BlockGeometry::default(),
            transfer_unit_words: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert!(CacheConfig::set_associative(0, 2, 4).is_err());
        assert!(CacheConfig::set_associative(3, 2, 4).is_err());
        assert!(CacheConfig::set_associative(4, 0, 4).is_err());
        assert!(CacheConfig::set_associative(4, 2, 3).is_err());
        assert!(CacheConfig::set_associative(4, 2, 4).is_ok());
        assert!(CacheConfig::fully_associative(10, 8).is_ok());
    }

    #[test]
    fn capacity() {
        let c = CacheConfig::set_associative(8, 4, 4).unwrap();
        assert_eq!(c.capacity_blocks(), 32);
        assert_eq!(c.sets(), 8);
        assert_eq!(c.ways(), 4);
    }

    #[test]
    fn transfer_units_validate() {
        let c = CacheConfig::fully_associative(4, 8).unwrap();
        assert!(c.with_transfer_unit(0).is_err());
        assert!(c.with_transfer_unit(3).is_err());
        assert!(c.with_transfer_unit(16).is_err());
        let tu = c.with_transfer_unit(2).unwrap();
        assert_eq!(tu.transfer_unit_words(), Some(2));
        assert_eq!(tu.units_per_block(), 4);
        assert_eq!(c.units_per_block(), 1);
    }

    #[test]
    fn default_is_fully_associative() {
        let c = CacheConfig::default();
        assert_eq!(c, CacheConfig::fully_associative(64, 4).unwrap());
    }
}
