//! The Aquarius architecture (Figure 11): a Prolog-like lightweight-process
//! workload split between the single-bus *synchronization* system (running
//! the paper's lock protocol) and the *crossbar* system carrying
//! instructions and non-synchronization data.
//!
//! Run with: `cargo run --example aquarius`

use mcs::core::BitarDespain;
use mcs::sim::{Crossbar, CrossbarConfig, System, SystemConfig};
use mcs::workloads::{PrologConfig, PrologWorkload};
use std::cell::RefCell;
use std::rc::Rc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let procs = 8;
    let crossbar = Rc::new(RefCell::new(Crossbar::new(
        procs,
        CrossbarConfig { modules: 8, module_latency: 4, cache_blocks: 512, words_per_block: 4 },
    )?));

    let cfg = PrologConfig {
        reductions_per_proc: 150,
        crossbar_accesses_per_reduction: 8,
        binding_fraction: 0.5,
        switch_fraction: 0.25,
        binding_atoms: 6,
        switch_state_blocks: 2,
        seed: 0xAA11,
    };
    let mut workload = PrologWorkload::new(cfg, crossbar.clone());

    let mut sync_system = System::new(BitarDespain, SystemConfig::new(procs))?;
    let stats = sync_system.run(&mut workload, 50_000_000)?.stats;
    let xstats = crossbar.borrow().stats().clone();

    println!("Aquarius two-interconnect simulation ({procs} Prolog processors)");
    println!();
    println!("upper system (synchronization bus, full-broadcast lock protocol):");
    println!("  references        : {}", stats.total_refs());
    println!("  bus transactions  : {}", stats.bus.txns);
    println!("  bus utilization   : {:.1}%", 100.0 * stats.bus.utilization(stats.cycles));
    println!("  lock acquires     : {} ({} zero-time)", stats.locks.acquires, stats.locks.zero_time_acquires);
    println!("  unlock broadcasts : {}", stats.bus.unlock_broadcasts);
    println!("  bus retries       : {} (busy-wait register at work)", stats.bus.retries);
    println!();
    println!("lower system (crossbar, instructions + non-sync data):");
    println!("  references        : {}", xstats.refs);
    println!("  cache hit rate    : {:.1}%", 100.0 * xstats.hit_rate());
    println!("  module requests   : {}", xstats.module_requests);
    println!("  queueing waits    : {} cycles", xstats.conflict_wait_cycles);
    println!("  module utilization: {:.1}%", 100.0 * crossbar.borrow().module_utilization(stats.cycles));
    println!();
    println!("workload:");
    println!("  bindings published: {}", workload.bindings_published());
    println!("  process switches  : {} (state saved by write-without-fetch)", workload.switches());
    println!(
        "  sync share of refs: {:.1}% — the premise of the split architecture",
        100.0 * stats.total_refs() as f64 / (stats.total_refs() + xstats.refs) as f64
    );
    Ok(())
}
