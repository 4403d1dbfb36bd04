//! **E7 — Number of sources for a read-privilege block (Section F.3,
//! Feature 8).**
//!
//! Three policies compete:
//!
//! * **ARB** (Papamarcos & Patel): every valid copy is a potential source;
//!   a block is always fetched from a cache, but read-shared transfers pay
//!   a source-arbitration delay;
//! * **MEM** (Katz et al.): single source; when it is purged, memory
//!   services the next fetch;
//! * **LRU,MEM** (the proposal): single source, but the *last fetcher*
//!   becomes the source, so LRU replacement across caches tends to keep a
//!   source alive.
//!
//! Workload: read-shared working set larger than the (small) caches, so
//! purges keep deleting sources.

use super::{cache, run_random};
use crate::harness::RunSpec;
use crate::report::{f, Report};
use mcs_core::ProtocolKind;
use mcs_model::Stats;
use mcs_workloads::RandomSharingConfig;

/// The compared policies: (protocol, policy label).
pub const KINDS: [(ProtocolKind, &str); 3] = [
    (ProtocolKind::Illinois, "ARB"),
    (ProtocolKind::Berkeley, "MEM"),
    (ProtocolKind::BitarDespain, "LRU,MEM"),
];

/// Runs the purge-pressure workload on one protocol.
pub fn measure(kind: ProtocolKind) -> Stats {
    let cfg = RandomSharingConfig {
        refs_per_proc: 4_000,
        shared_fraction: 0.8,
        shared_words: 256, // 64 shared blocks vs 16-block caches: purges
        write_ratio: 0.05, // read-shared emphasis
        ..Default::default()
    };
    run_random(RunSpec::new(kind).cache(cache(16, 4)), cfg)
}

/// Fraction of block fetches serviced by another cache.
pub fn from_cache_fraction(stats: &Stats) -> f64 {
    if stats.sources.fetches == 0 {
        0.0
    } else {
        stats.sources.from_cache as f64 / stats.sources.fetches as f64
    }
}

/// Runs the comparison.
pub fn run() -> Report {
    let mut report = Report::new(
        "E7: source policy for read-shared blocks under purge pressure",
        &["protocol", "policy", "from-cache-fraction", "source-losses", "bus-cycles/ref"],
    );
    report.note("Feature 8: ARB always finds a cache source but pays arbitration; MEM/LRU fall back to memory on loss");
    for (kind, label) in KINDS {
        let stats = measure(kind);
        report.row(vec![
            kind.id().to_string(),
            label.to_string(),
            f(from_cache_fraction(&stats)),
            stats.sources.source_losses.to_string(),
            f(stats.bus_cycles_per_ref()),
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbitration_policy_always_fetches_from_cache_when_shared() {
        let arb = measure(ProtocolKind::Illinois);
        let mem = measure(ProtocolKind::Berkeley);
        assert!(
            from_cache_fraction(&arb) > from_cache_fraction(&mem),
            "ARB ({:.2}) must beat single-source MEM ({:.2}) on cache-service fraction",
            from_cache_fraction(&arb),
            from_cache_fraction(&mem)
        );
    }

    #[test]
    fn single_source_policies_lose_sources_under_purges() {
        for kind in [ProtocolKind::Berkeley, ProtocolKind::BitarDespain] {
            let stats = measure(kind);
            assert!(
                stats.sources.source_losses > 0,
                "{kind}: purge pressure must cause source losses"
            );
            assert!(
                stats.sources.from_memory > 0,
                "{kind}: lost sources must force memory fetches"
            );
        }
    }

    #[test]
    fn every_policy_still_serves_some_transfers_from_cache() {
        for (kind, _) in KINDS {
            let stats = measure(kind);
            assert!(stats.sources.from_cache > 0, "{kind} must do cache-to-cache transfers");
        }
    }

    #[test]
    fn report_shape() {
        let r = run();
        assert_eq!(r.rows.len(), 3);
        assert!(r.find_row("policy", "LRU,MEM").is_some());
    }
}
