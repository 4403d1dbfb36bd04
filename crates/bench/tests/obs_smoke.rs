//! Smoke tests for the exported observability streams: every JSONL line
//! must parse under the in-tree validator, cycles must be monotonically
//! non-decreasing, and the whole stream must be byte-stable for a fixed
//! configuration (the `obsreport --json-trace` acceptance criterion).

use mcs_bench::harness::RunSpec;
use mcs_bench::obsrun::{run_observed, ObsPreset, ObsSpec};
use mcs_core::ProtocolKind;
use mcs_obs::{validate_line, EventSink, JsonlSink, RunMeta, SharedBuf};
use mcs_sim::faults::{FaultPlan, WatchdogConfig};
use mcs_sim::SimError;
use mcs_sync::LockSchemeKind;
use mcs_workloads::CriticalSectionWorkload;

fn spec(kind: ProtocolKind, preset: ObsPreset) -> ObsSpec {
    let mut s = ObsSpec::new(kind);
    s.preset = preset;
    s.json_trace = true;
    s
}

/// Validates one JSONL stream: header first, every line parses, cycles
/// monotone. Returns the line count.
fn validate_stream(label: &str, jsonl: &str) -> u64 {
    let mut last_cycle = 0;
    let mut lines = 0;
    for (i, line) in jsonl.lines().enumerate() {
        let parsed = validate_line(line)
            .unwrap_or_else(|e| panic!("{label} line {}: {e}\n{line}", i + 1));
        if i == 0 {
            assert!(parsed.is_meta, "{label}: first line must be the meta header");
        } else {
            let cycle = parsed
                .cycle
                .unwrap_or_else(|| panic!("{label} line {}: event without a cycle", i + 1));
            assert!(
                cycle >= last_cycle,
                "{label} line {}: cycle {cycle} went backwards (previous {last_cycle})",
                i + 1
            );
            last_cycle = cycle;
        }
        lines += 1;
    }
    lines
}

#[test]
fn jsonl_streams_are_valid_and_monotonic() {
    for kind in [ProtocolKind::BitarDespain, ProtocolKind::Illinois, ProtocolKind::Goodman] {
        for preset in [ObsPreset::E2, ObsPreset::E3] {
            let run = run_observed(&spec(kind, preset));
            let jsonl = run.jsonl.as_deref().expect("trace requested");
            let label = format!("{}/{}", kind.id(), preset.id());
            let lines = validate_stream(&label, jsonl);
            assert!(lines > 10, "{label}: suspiciously short trace ({lines} lines)");
            assert!(
                jsonl.contains(&format!("\"protocol\":\"{}\"", kind.id())),
                "{label}: header must name the protocol"
            );
        }
    }
}

#[test]
fn jsonl_stream_is_byte_stable() {
    let s = spec(ProtocolKind::BitarDespain, ObsPreset::E2);
    let a = run_observed(&s).jsonl.expect("trace requested");
    let b = run_observed(&s).jsonl.expect("trace requested");
    assert_eq!(a, b, "same spec must give a byte-identical stream");
}

#[test]
fn histogram_and_timeline_exports_are_valid_json() {
    let run = run_observed(&spec(ProtocolKind::BitarDespain, ObsPreset::E3));
    for json in [run.hists.to_json(), run.timeline.to_json(run.stats.cycles)] {
        validate_line(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
    }
}

/// FNV-1a over the stream's bytes: a digest that pins them across commits.
fn digest(jsonl: &str) -> u64 {
    jsonl
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(protocol, line count, digest)` of every protocol's E2 JSONL stream,
/// recorded from the `write!`-based encoder the allocation-free one
/// replaced. A mismatch means the exported bytes changed.
const E2_STREAMS: [(ProtocolKind, usize, u64); 10] = [
    (ProtocolKind::ClassicWriteThrough, 2992, 0x28f3b688e42d4341),
    (ProtocolKind::Goodman, 3708, 0x4529ecca315f4dc3),
    (ProtocolKind::Synapse, 7834, 0x7f224ee1f8ed2595),
    (ProtocolKind::Illinois, 6274, 0x3d8b613d51182995),
    (ProtocolKind::Yen, 3079, 0x41d738a9d10ac215),
    (ProtocolKind::Berkeley, 5434, 0xe82c47dbbe4f71be),
    (ProtocolKind::Dragon, 3204, 0xb35fb3b46c44566c),
    (ProtocolKind::Firefly, 2086, 0x33c32cd7b5920785),
    (ProtocolKind::RudolphSegall, 5019, 0x0fe36e9f8420041f),
    (ProtocolKind::BitarDespain, 1440, 0xe8ff9beeb1c5f520),
];

#[test]
fn e2_streams_of_every_protocol_match_their_recorded_digests() {
    let mut got = Vec::new();
    for kind in ProtocolKind::ALL {
        let jsonl = run_observed(&spec(kind, ObsPreset::E2)).jsonl.expect("trace requested");
        got.push((kind, jsonl.lines().count(), digest(&jsonl)));
    }
    let table: String = got
        .iter()
        .map(|(k, n, d)| format!("    (ProtocolKind::{k:?}, {n}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, E2_STREAMS, "E2 JSONL streams changed; actual:\n{table}");
}

/// The JSONL stream of a run whose fault plan loses unlocks (recovered by
/// busy-wait timeouts) and starves processor 0 until the watchdog aborts
/// the run, so the three fault event kinds all appear.
fn fault_stream() -> (String, Option<SimError>) {
    let kind = ProtocolKind::BitarDespain;
    let run = RunSpec::new(kind)
        .procs(4)
        .faults(
            FaultPlan::new(0xDEAD).lose_unlock(500).busy_wait_timeout(2_000).starve(0, u64::MAX),
        )
        .watchdog(WatchdogConfig::new().check_interval(1_000).stall_threshold(20_000));
    let mut workload = CriticalSectionWorkload::builder()
        .scheme(LockSchemeKind::CacheLock)
        .words_per_block(run.words_per_block())
        .locks(1)
        .payload_blocks(1)
        .payload_reads(2)
        .payload_writes(2)
        .think_cycles(30)
        .iterations(20)
        .build();
    let buf = SharedBuf::new();
    let meta =
        RunMeta::new().with_str("protocol", kind.id()).with_str("faults", "lost-unlock+starve");
    let sink = Box::new(JsonlSink::new(buf.clone(), &meta)) as Box<dyn EventSink>;
    let error = run.try_run(&mut workload, Some(sink)).error;
    (buf.contents(), error)
}

/// `(line count, digest)` of [`fault_stream`], recorded like
/// [`E2_STREAMS`].
const FAULT_STREAM: (usize, u64) = (744, 0xe2cf7363312f393c);

#[test]
fn fault_stream_matches_its_recorded_digest() {
    let (jsonl, error) = fault_stream();
    assert!(
        matches!(error, Some(SimError::Watchdog(_))),
        "the starved processor must trip the watchdog: {error:?}"
    );
    for kind in ["fault-injected", "waiter-timeout", "watchdog-trip"] {
        assert!(jsonl.contains(&format!("\"type\":\"{kind}\"")), "no {kind} event in the stream");
    }
    validate_stream("faults", &jsonl);
    let got = (jsonl.lines().count(), digest(&jsonl));
    assert_eq!(
        got, FAULT_STREAM,
        "fault JSONL stream changed; actual: ({}, {:#018x})",
        got.0, got.1
    );
}
