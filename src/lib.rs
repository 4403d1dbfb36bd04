//! # mcs — Multiprocessor Cache Synchronization
//!
//! A production-quality reproduction of **Bitar & Despain, "Multiprocessor
//! Cache Synchronization: Issues, Innovations, Evolution" (ISCA 1986)**:
//! a deterministic, cycle-level simulator of full-broadcast (single-bus
//! snooping) multiprocessor cache systems, the complete evolution of
//! write-in coherence protocols the paper analyses (Goodman, Synapse,
//! Illinois, Yen, Berkeley), the write-through/update comparators (classic,
//! Dragon, Firefly, Rudolph-Segall), and the paper's own proposal: the
//! eight-state **lock protocol** with cache-state locking and the
//! **busy-wait register** for efficient busy wait.
//!
//! This facade crate re-exports the whole workspace under stable module
//! names. See `DESIGN.md` for the system inventory and `EXPERIMENTS.md`
//! for the paper-vs-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use mcs::prelude::*;
//!
//! // Four processors contending for one lock under the paper's protocol.
//! let config = SystemConfig::new(4).with_trace(false);
//! let mut workload = CriticalSectionWorkload::builder()
//!     .locks(1)
//!     .payload_blocks(1)
//!     .payload_writes(4)
//!     .think_cycles(20)
//!     .iterations(50)
//!     .build();
//! let mut sim = System::new(BitarDespain::default(), config)?;
//! let report = sim.run(&mut workload, 200_000)?;
//! assert!(report.completed, "every processor finished before the ceiling");
//! assert!(report.stats.locks.acquires >= 200);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcs_cache as cache;
pub use mcs_core as core;
pub use mcs_model as model;
pub use mcs_protocols as protocols;
pub use mcs_sim as sim;
pub use mcs_sync as sync;
pub use mcs_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use mcs_core::BitarDespain;
    pub use mcs_model::{
        AccessKind, Addr, BlockAddr, BlockGeometry, BusOp, FeatureSet, Privilege, ProcId, ProcOp,
        Protocol, Stats, TimingConfig, Word,
    };
    pub use mcs_protocols::{
        Berkeley, ClassicWriteThrough, Dragon, Firefly, Goodman, Illinois, RudolphSegall, Synapse,
        Yen,
    };
    pub use mcs_sim::{System, SystemConfig};
    pub use mcs_sync::{LockAcquire, LockSchemeKind, LockSchemeStats};
    pub use mcs_workloads::{
        CriticalSectionWorkload, ProducerConsumerWorkload, RandomSharingWorkload, Workload,
    };
}
