//! Internal fragmentation under write-in (Section D.3): with blocks
//! devoted to atoms, a small atom on a large block drags the whole block
//! across the bus — unless the cache transfers smaller *transfer units*.
//!
//! Run with: `cargo run --release --example transfer_units`

use mcs::cache::CacheConfig;
use mcs::core::BitarDespain;
use mcs::prelude::*;
use mcs::sync::LockSchemeKind;

fn words_per_section(block_words: usize, unit_words: usize) -> (f64, f64) {
    let mut cache = CacheConfig::fully_associative(32, block_words).expect("valid geometry");
    if unit_words < block_words {
        cache = cache.with_transfer_unit(unit_words).expect("unit divides block");
    }
    let mut workload = CriticalSectionWorkload::builder()
        .scheme(LockSchemeKind::CacheLock)
        .locks(1)
        .payload_blocks(1)
        .payload_reads(1)
        .payload_writes(2)
        .think_cycles(20)
        .iterations(20)
        .words_per_block(block_words)
        .build();
    let mut sys = System::new(BitarDespain, SystemConfig::new(4).with_cache(cache))
        .expect("valid system");
    let stats = sys.run(&mut workload, 10_000_000).expect("run completes").stats;
    let sections = workload.completed_sections().max(1) as f64;
    (
        stats.bus.words_transferred as f64 / sections,
        stats.bus.busy_cycles as f64 / sections,
    )
}

fn main() {
    println!("A few-word atom bouncing between 4 processors, 16-word blocks:");
    println!();
    println!("{:>18} {:>18} {:>20}", "transfer-unit", "bus-words/section", "bus-cycles/section");
    println!("{}", "-".repeat(60));
    for unit in [1usize, 2, 4, 8, 16] {
        let (words, cycles) = words_per_section(16, unit);
        let label = if unit == 16 { "16 (whole block)".to_string() } else { unit.to_string() };
        println!("{label:>18} {words:>18.1} {cycles:>20.1}");
    }
    println!();
    println!("Section D.3: \"an entire block must be transferred when access is requested");
    println!("to the (possibly smaller) atom on the block. A solution is to transfer");
    println!("smaller transfer units.\"");
}
