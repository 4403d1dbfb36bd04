//! The baseline coherence protocols of the paper's evolution analysis
//! (Table 1, Table 2, Section D):
//!
//! | Protocol | Year | Paper's role |
//! |----------|------|--------------|
//! | [`ClassicWriteThrough`] | pre-1978 | the classic dual-directory write-through scheme (Table 2, "Early Schemes") |
//! | [`Goodman`] | 1983 | write-once: first full-broadcast write-in protocol |
//! | [`Synapse`] | 1984 | Frank's protocol; bus invalidate signal, source bit in memory |
//! | [`Illinois`] | 1984 | Papamarcos & Patel; clean source states, dynamic read-for-write, multi-source arbitration |
//! | [`Yen`] | 1985 | Yen, Yen & Fu; static read-for-write |
//! | [`Berkeley`] | 1985 | Katz et al.; dirty-read (owned) state, no flush on transfer |
//! | [`Dragon`] | 1984 | write-through-to-caches for shared data (update protocol) |
//! | [`Firefly`] | 1985 | write-through-to-caches-and-memory for shared data |
//! | [`RudolphSegall`] | 1984 | dynamic write-through/write-in with update-invalid-copies, one-word blocks |
//!
//! Every protocol implements [`mcs_model::Protocol`] and can be dropped
//! into `mcs_sim::System`; the paper's own proposal lives in `mcs-core`.
//!
//! A protocol declares its cache-line states once, as one
//! [`mcs_model::line_states!`] table. Each row is one state: its doc
//! comment, its short name, and its privilege plus the descriptor flags
//! that are set, the invalid state first:
//!
//! ```text
//! Invalid = "I",
//! Shared = "S" (Read, source),
//! Dirty = "D" (Write, source, dirty),
//! ```
//!
//! The macro writes the enum, `Display` and the [`mcs_model::LineState`]
//! impl from that table; a `declares` block sets the Table 1 cells no arc
//! shows (Features 2, 3, 6). No protocol writes `features()`: the arcs do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test protocol code must not panic: the engine calls it on every
// transaction. Tests keep their unwraps. CI promotes these warnings to
// errors via `cargo clippy -- -D warnings`.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::unreachable, clippy::panic)
)]

mod berkeley;
mod dragon;
mod firefly;
mod goodman;
mod illinois;
mod rudolph_segall;
mod synapse;
mod write_through;
mod yen;

pub use berkeley::{Berkeley, BerkeleyNonSourceWc, BerkeleyState};
pub use dragon::{Dragon, DragonState};
pub use firefly::{Firefly, FireflyState};
pub use goodman::{Goodman, GoodmanState};
pub use illinois::{Illinois, IllinoisState};
pub use rudolph_segall::{RudolphSegall, RudolphSegallState};
pub use synapse::{Synapse, SynapseState};
pub use write_through::{ClassicWriteThrough, WriteThroughState};
pub use yen::{Yen, YenState};
