//! The full-broadcast single-bus multiprocessor simulator of the `mcs`
//! reproduction (Bitar & Despain, ISCA 1986).
//!
//! The central type is [`System`], a deterministic cycle-level engine
//! generic over any [`Protocol`](mcs_model::Protocol): it models the bus
//! with priority arbitration (including the reserved busy-wait-register
//! priority of Section E.4), snoop aggregation, main memory, data movement,
//! evictions, directory interference, and — because the bus serializes the
//! machine — *runtime coherence oracles* that check the paper's two
//! requirements on every commit: serialize conflicting accesses and provide
//! the latest version of the data.
//!
//! [`Crossbar`] models the Aquarius lower switch-memory system (Figure 11).
//!
//! # Example
//!
//! Run a directed two-processor script under any protocol (here a protocol
//! from `mcs-protocols`; see that crate):
//!
//! ```ignore
//! use mcs_sim::{ScriptWorkload, System, SystemConfig};
//! use mcs_model::{ProcId, ProcOp, Addr, Word};
//!
//! let mut sys = System::new(protocol, SystemConfig::new(2))?;
//! let mut script = ScriptWorkload::new(vec![
//!     (ProcId(0), ProcOp::write(Addr(0), Word(1))),
//!     (ProcId(1), ProcOp::read(Addr(0))),
//! ]);
//! let report = sys.run(&mut script, 10_000)?;
//! assert!(report.completed);
//! assert_eq!(script.results()[1].2.value, Some(Word(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test engine code must not panic: every failure is a typed
// `SimError`, including broken engine invariants. Tests keep their unwraps.
// CI promotes these warnings to errors via `cargo clippy -- -D warnings`.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::unreachable, clippy::panic)
)]

mod config;
mod crossbar;
mod error;
mod memory;
mod oracle;
mod sched;
mod system;
mod workload;

pub use config::{EngineMode, SystemConfig};
pub use mcs_faults as faults;
pub use mcs_obs as obs;
pub use crossbar::{Crossbar, CrossbarConfig, CrossbarStats};
pub use error::{OracleViolation, SimError};
pub use memory::MainMemory;
pub use oracle::Oracle;
pub use system::{RunReport, System};
pub use workload::{AccessResult, ParallelScriptWorkload, ScriptStep, ScriptWorkload, WaitBehavior, WorkItem, Workload};
