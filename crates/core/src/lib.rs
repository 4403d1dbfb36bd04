//! The paper's primary contribution: the **Bitar-Despain lock protocol**
//! (ISCA 1986) — eight cache-line states extending snooping coherence with
//! *lock privilege*, cache-state locking that makes lock/unlock usually
//! zero-time, and the lock-waiter state + busy-wait register scheme that
//! eliminates all unsuccessful retries from the bus — plus the machinery
//! that regenerates the paper's Tables 1–2 from the code.
//!
//! * [`BitarDespain`] / [`BitarState`] — the protocol (Section E);
//! * [`table1`] — the evolution matrix, generated from every protocol's
//!   states and the features its arcs implement (the Figure 10
//!   enumeration itself is generic, in `mcs_model::arcs`);
//! * [`table2`] — the innovation summary;
//! * [`ProtocolKind`] / [`with_protocol!`] — the protocol registry used by
//!   the experiment harness.
//!
//! # Example
//!
//! ```
//! use mcs_core::{BitarDespain, BitarState};
//! use mcs_model::{Protocol, AccessKind, ProcAction};
//!
//! // Locking a block already held with write privilege is zero-time.
//! let p = BitarDespain;
//! match p.proc_access(BitarState::WriteSourceDirty, AccessKind::LockRead) {
//!     ProcAction::Hit { next } => assert_eq!(next, BitarState::LockSourceDirty),
//!     _ => unreachable!("the paper's Figure 6 fast path"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test protocol and table code must not panic: the engine calls it on every
// transaction. Tests keep their unwraps. CI promotes these warnings to
// errors via `cargo clippy -- -D warnings`.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::unreachable, clippy::panic)
)]

mod protocol;
mod registry;
pub mod table1;
pub mod table2;

pub use protocol::{BitarDespain, BitarState};
pub use registry::ProtocolKind;
