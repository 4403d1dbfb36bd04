//! **E13 (ablation) — Berkeley's source write-clean state (§F.3,
//! Feature 7 discussion).**
//!
//! The paper: "the need to transfer clean/dirty status in the Katz et al.
//! protocol can be eliminated by giving their clean write state non-source
//! status … This eliminates an inconsistency in the protocol as well. For
//! the reason for a clean source state is that fetching from another cache
//! is significantly faster than fetching from memory."
//!
//! We run stock Berkeley against the ablated variant on a
//! read-after-read-for-write pattern and sweep the memory latency: with
//! fast memory, giving up the clean source costs nothing; with slow
//! memory, the cost appears — exactly the trade-off the paper describes.

use crate::report::{f, Report};
use mcs_model::{Protocol, Stats, TimingConfig};
use mcs_protocols::{Berkeley, BerkeleyNonSourceWc};
use mcs_sim::{System, SystemConfig};
use mcs_workloads::{RandomSharingConfig, RandomSharingWorkload};

fn workload() -> RandomSharingConfig {
    RandomSharingConfig {
        refs_per_proc: 3_000,
        shared_fraction: 0.5,
        shared_words: 96,
        write_ratio: 0.1, // read-mostly: the clean-source case
        read_for_write_ratio: 0.4, // populate write-clean states
        ..Default::default()
    }
}

fn run_one<P: Protocol>(protocol: P, memory_latency: u64) -> Stats {
    let timing = TimingConfig { memory_latency, ..Default::default() };
    let mut sys =
        System::new(protocol, SystemConfig::new(4).with_timing(timing)).unwrap();
    sys.run(&mut RandomSharingWorkload::new(workload()), 30_000_000).unwrap().stats
}

/// `(stock, ablated)` stats at the given memory latency.
pub fn measure(memory_latency: u64) -> (Stats, Stats) {
    (run_one(Berkeley, memory_latency), run_one(BerkeleyNonSourceWc, memory_latency))
}

/// Runs the ablation.
pub fn run() -> Report {
    let mut report = Report::new(
        "E13 (ablation): Berkeley write-clean source status",
        &["memory-latency", "variant", "from-cache-fraction", "bus-cycles/ref"],
    );
    report.note("Feature 7: a clean source only pays off when memory is much slower than a cache");
    for memory_latency in [2u64, 4, 12] {
        let (stock, ablated) = measure(memory_latency);
        for (label, stats) in [("stock(WC=source)", stock), ("ablated(WC=non-source)", ablated)] {
            let frac = if stats.sources.fetches == 0 {
                0.0
            } else {
                stats.sources.from_cache as f64 / stats.sources.fetches as f64
            };
            report.row(vec![
                memory_latency.to_string(),
                label.to_string(),
                f(frac),
                f(stats.bus_cycles_per_ref()),
            ]);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_reduces_cache_to_cache_service() {
        let (stock, ablated) = measure(4);
        assert!(
            ablated.sources.from_cache < stock.sources.from_cache,
            "non-source WC must answer fewer fetches from caches ({} vs {})",
            ablated.sources.from_cache,
            stock.sources.from_cache
        );
    }

    #[test]
    fn slow_memory_makes_the_clean_source_pay_off() {
        let (stock, ablated) = measure(12);
        assert!(
            stock.bus_cycles_per_ref() <= ablated.bus_cycles_per_ref() + 1e-9,
            "with slow memory, stock Berkeley ({:.3}) must not lose to the ablation ({:.3})",
            stock.bus_cycles_per_ref(),
            ablated.bus_cycles_per_ref()
        );
    }

    #[test]
    fn both_variants_stay_coherent() {
        // Completion without oracle violations is the check.
        let (stock, ablated) = measure(2);
        assert!(stock.total_refs() > 0 && ablated.total_refs() > 0);
    }

    #[test]
    fn report_shape() {
        let r = run();
        assert_eq!(r.rows.len(), 6);
    }
}
