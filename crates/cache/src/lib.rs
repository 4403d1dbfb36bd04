//! Cache organization for the `mcs` simulator: tagged data stores with LRU
//! replacement and optional sub-block *transfer units* (Section D.3). The
//! directory organisation of the paper's Feature 3 is
//! [`DirectoryDuality`](mcs_model::DirectoryDuality), which prices each
//! status update; `mcs-sim` counts the updates and [`directory_stats`]
//! builds each cache's directory traffic from those counts. The busy-wait register
//! of Section E.4 is engine state in `mcs-sim` too: a processor's waiting
//! phase and its watch and woken bits.
//!
//! A cache here is a passive tagged store; all coherence decisions are made
//! by a [`Protocol`](mcs_model::Protocol) and all bus mechanics by
//! `mcs-sim`. Lines keep their tag and data when invalidated (the paper's
//! "invalid copies"), which Rudolph-Segall's update-invalid-copies scheme
//! requires.
//!
//! # Example
//!
//! ```
//! use mcs_cache::CacheConfig;
//!
//! let config = CacheConfig::fully_associative(8, 4)?;
//! assert_eq!(config.capacity_blocks(), 8);
//! let sa = CacheConfig::set_associative(16, 2, 4)?;
//! assert_eq!(sa.capacity_blocks(), 32);
//! # Ok::<(), mcs_cache::CacheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test cache code must not panic: a missing frame or a bad geometry
// is a typed error. Tests keep their unwraps. CI promotes
// these warnings to errors via `cargo clippy -- -D warnings`.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::unreachable, clippy::panic)
)]

mod config;
mod directory;
mod error;
mod organization;

pub use config::CacheConfig;
pub use directory::directory_stats;
pub use error::CacheError;
pub use organization::{Cache, EvictedLine};
