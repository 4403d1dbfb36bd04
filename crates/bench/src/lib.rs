//! The experiment harness of the `mcs` reproduction: one module per table,
//! figure and quantitative claim of Bitar & Despain (ISCA 1986).
//!
//! * [`figures`] — executable versions of Figures 1–11: directed scenarios
//!   on the simulator whose traces and final states are asserted against
//!   the paper's depictions;
//! * [`experiments`] — the measured experiments E1–E13 of `DESIGN.md`,
//!   each regenerating a table of rows/series whose *shape* reproduces a
//!   claim from the paper (who wins, by roughly what factor, where the
//!   crossovers fall);
//! * [`report`] — the plain-text table type the binaries print.
//!
//! Binaries: `table1`, `table2`, `figures`, `exp` (see `README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod harness;
pub mod obsrun;
pub mod report;
pub mod sweep;
