//! Structured observability for the mcs simulator.
//!
//! Three layers, all zero-dependency and deterministic:
//!
//! - [`sink`]: the [`EventSink`] trait plus a JSONL exporter
//!   ([`JsonlSink`]) that streams every traced [`Event`](mcs_model::Event)
//!   as one cycle-stamped JSON object per line, preceded by a
//!   run-metadata header. Output is byte-stable for a fixed seed.
//! - [`hist`]: log2-bucketed latency histograms ([`Hist64`]) with
//!   p50/p90/p99 accessors, and the standard bundle ([`LatencyHists`])
//!   the simulator fills: lock-acquire wait, busy-wait-register sleep,
//!   bus-arbitration wait, and miss-service latency.
//! - [`timeline`]: an interval time-series sampler ([`IntervalSampler`])
//!   integrating bus utilization, hit rate, and outstanding lock-waiters
//!   per fixed window, with span-splitting so event-driven time-skipping
//!   attributes cycles to the same windows as cycle-accurate stepping.
//!
//! The [`json`] module provides the escaping helpers and a validating
//! parser used to smoke-test the exported streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test sink and histogram code must not panic: a write or parse
// failure is reported, never unwrapped. Tests keep their unwraps. CI promotes
// these warnings to errors via `cargo clippy -- -D warnings`.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::unreachable, clippy::panic)
)]

pub mod hist;
pub mod json;
pub mod sink;
pub mod timeline;

pub use hist::{bucket_bounds, bucket_index, Hist64, LatencyHists, BUCKETS};
pub use json::{escape_into, escaped, validate_line, ValidLine};
pub use sink::{event_json, event_json_into, EventSink, JsonlSink, RunMeta, SharedBuf};
pub use timeline::{IntervalSampler, Window, DEFAULT_WINDOW};
