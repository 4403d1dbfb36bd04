//! Quickstart: simulate four processors contending for one busy-wait lock
//! under the paper's protocol, and print what the bus saw.
//!
//! Run with: `cargo run --example quickstart`

use mcs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-processor full-broadcast system running the Bitar-Despain lock
    // protocol with default cache geometry and timing.
    let mut system = System::new(BitarDespain, SystemConfig::new(4))?;

    // Each processor: think, lock the shared atom, read/write its payload,
    // unlock — 50 times (the "lock ladder").
    let mut workload = CriticalSectionWorkload::builder()
        .locks(1)
        .payload_blocks(1)
        .payload_reads(2)
        .payload_writes(4)
        .think_cycles(25)
        .iterations(50)
        .build();

    let stats = system.run(&mut workload, 2_000_000)?.stats;

    println!("critical sections completed : {}", workload.completed_sections());
    println!("simulated bus cycles        : {}", stats.cycles);
    println!("bus utilization             : {:.1}%", 100.0 * stats.bus.utilization(stats.cycles));
    println!("lock acquisitions           : {}", stats.locks.acquires);
    println!("  zero-time acquisitions    : {}", stats.locks.zero_time_acquires);
    println!("  zero-time releases        : {}", stats.locks.zero_time_releases);
    println!("  denied (busy-waited)      : {}", stats.locks.denied);
    println!("  mean wait (cycles)        : {:.1}", stats.locks.mean_wait());
    println!("unsuccessful bus retries    : {} (the paper's scheme: always 0)", stats.bus.retries);
    println!();
    println!("bus transactions by code:");
    for (op, count) in &stats.bus.by_op {
        println!("  {op:<16} {count}");
    }
    Ok(())
}
