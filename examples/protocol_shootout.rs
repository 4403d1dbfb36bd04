//! Protocol shoot-out: run the same Smith-calibrated random-sharing
//! workload over **every** protocol in the reproduction and compare bus
//! traffic, hit rates, and data movement.
//!
//! Run with: `cargo run --release --example protocol_shootout`

use mcs::cache::CacheConfig;
use mcs::core::{with_protocol, ProtocolKind};
use mcs::sim::{System, SystemConfig};
use mcs::workloads::{RandomSharingConfig, RandomSharingWorkload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = RandomSharingConfig { refs_per_proc: 5_000, ..Default::default() };

    println!(
        "{:<16} {:>9} {:>9} {:>10} {:>12} {:>12} {:>9}",
        "protocol", "hit-rate", "bus-txns", "bus-util", "words-moved", "invalidates", "updates"
    );
    println!("{}", "-".repeat(84));

    for kind in ProtocolKind::ALL {
        // Rudolph-Segall requires one-word blocks; everyone else runs the
        // default 4-word geometry.
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        let cache = CacheConfig::fully_associative(128, words)?;
        let stats = with_protocol!(kind, p => {
            let mut sys = System::new(p, SystemConfig::new(4).with_cache(cache))?;
            sys.run(&mut RandomSharingWorkload::new(cfg), 50_000_000)?.stats
        });
        println!(
            "{:<16} {:>8.1}% {:>9} {:>9.1}% {:>12} {:>12} {:>9}",
            kind.id(),
            100.0 * stats.hit_rate(),
            stats.bus.txns,
            100.0 * stats.bus.utilization(stats.cycles),
            stats.bus.words_transferred,
            stats.bus.invalidations,
            stats.bus.updates,
        );
    }
    println!();
    println!("(same workload everywhere; Rudolph-Segall runs 1-word blocks as its scheme requires)");
    Ok(())
}
