//! Synthetic workload generators for the `mcs` reproduction.
//!
//! Each workload is a deterministic multiprocessor program implementing
//! [`mcs_sim::Workload`], modelled on the sharing patterns the paper
//! motivates (Sections A.1, B.1, B.2, Feature 9, Figure 11):
//!
//! * [`CriticalSectionWorkload`] — processors contending for busy-wait
//!   locks around short critical sections (the lock ladder of experiments
//!   E2/E3), parameterized by lock scheme, payload size and think time;
//! * [`service_queue`] — the software sleep-wait substrate: queue
//!   descriptors locked and 3–4 blocks touched per operation (Section B.2);
//! * [`RandomSharingWorkload`] — Smith-calibrated random references
//!   (~35% writes) over private and shared regions, for the frequency
//!   estimates of Features 3–5;
//! * [`ProducerConsumerWorkload`] — Prolog-style binding passing through a
//!   flag-guarded slot (Section B.1);
//! * [`MigrationWorkload`] — a process migrating between processors,
//!   saving and restoring its state blocks (Feature 9);
//! * [`PrologWorkload`] — the Aquarius two-interconnect picture (Figure
//!   11): lightweight processes computing through a [`mcs_sim::Crossbar`]
//!   and synchronizing over the single-bus system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test workload code must not panic: the engine calls `next` and
// `complete` on every reference. Tests keep their unwraps. CI promotes
// these warnings to errors via `cargo clippy -- -D warnings`.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::unreachable, clippy::panic)
)]

mod critical_section;
mod migration;
mod producer_consumer;
mod prolog;
mod random_sharing;
pub mod service_queue;

pub use critical_section::{CriticalSectionBuilder, CriticalSectionWorkload};
pub use migration::MigrationWorkload;
pub use producer_consumer::ProducerConsumerWorkload;
pub use prolog::{PrologConfig, PrologWorkload};
pub use random_sharing::{RandomSharingConfig, RandomSharingWorkload};

pub use mcs_sim::Workload;
