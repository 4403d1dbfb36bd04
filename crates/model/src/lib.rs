//! Foundation types and traits for the `mcs` multiprocessor cache
//! synchronization simulator — a reproduction of Bitar & Despain,
//! *"Multiprocessor Cache Synchronization: Issues, Innovations, Evolution"*,
//! ISCA 1986.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`types`] — identifiers, addresses and block geometry;
//! * [`ops`] — the processor-side access vocabulary ([`AccessKind`]);
//! * [`bus`] — the bus-transaction vocabulary ([`BusOp`], snoop replies);
//! * [`protocol`] — the [`Protocol`] trait each coherence scheme implements;
//! * [`timing`] — the cycle-cost model of the single broadcast bus;
//! * [`arcs`] — every arc of a protocol's state machine (Figure 10);
//! * [`features`] — the Table 1 feature taxonomy ([`FeatureSet`]), derived
//!   from the arcs;
//! * [`stats`] — counters gathered by the simulator;
//! * [`trace`] — the event trace used to regenerate the paper's figures.
//!
//! # Example
//!
//! ```
//! use mcs_model::{Addr, BlockGeometry, Privilege};
//!
//! let geom = BlockGeometry::new(4)?; // 4 words per block
//! let addr = Addr(13);
//! assert_eq!(geom.block_of(addr).0, 3);
//! assert_eq!(geom.offset_of(addr), 1);
//! assert!(Privilege::Write.covers(Privilege::Read));
//! # Ok::<(), mcs_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test model code must not panic: the engine calls it on every
// transaction. Tests keep their unwraps. CI promotes these warnings to
// errors via `cargo clippy -- -D warnings`.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::unreachable, clippy::panic)
)]

pub mod arcs;
pub mod bus;
pub mod error;
pub mod fastmap;
pub mod features;
pub mod ops;
pub mod protocol;
pub mod rng;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod types;

pub use arcs::Arcs;
pub use bus::{BusOp, BusTxn, SnoopReply, SnoopSummary, UpdateTarget};
pub use error::ModelError;
pub use fastmap::{FastMap, FxHasher64};
pub use features::{
    DirectoryDuality, DistributedState, FeatureSet, FlushPolicy, RmwMethod, SharingDetermination,
    SourcePolicy, WritePolicy,
};
pub use ops::{AccessKind, ProcOp};
pub use protocol::{
    CompleteOutcome, EvictAction, LineState, Privilege, ProcAction, Protocol, SnoopOutcome,
    StateDescriptor,
};
pub use rng::Rng64;
pub use stats::{BusStats, DirectoryStats, LockStats, ProcStats, SourceStats, Stats};
pub use timing::TimingConfig;
pub use trace::{Event, StateCause, Trace};
pub use types::{Addr, AgentId, BlockAddr, BlockGeometry, CacheId, Cycles, ProcId, Word};
