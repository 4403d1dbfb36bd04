//! Lock-scheme ladder: sweep the number of contending processors and
//! compare the three busy-wait schemes of Section E.4 — naive test-and-set,
//! test-and-test-and-set, and the paper's cache-state lock with the
//! busy-wait register.
//!
//! Run with: `cargo run --release --example lock_ladder`

use mcs::core::BitarDespain;
use mcs::model::Protocol;
use mcs::prelude::*;
use mcs::sync::LockSchemeKind;

struct Row {
    scheme: &'static str,
    procs: usize,
    cycles_per_section: f64,
    failed_per_acquire: f64,
    mean_wait: f64,
}

fn measure<P: Protocol>(protocol: P, scheme: LockSchemeKind, procs: usize) -> Row {
    let mut w = CriticalSectionWorkload::builder()
        .scheme(scheme)
        .locks(1)
        .payload_blocks(1)
        .payload_reads(1)
        .payload_writes(2)
        .think_cycles(10)
        .iterations(15)
        .build();
    let mut sys = System::new(protocol, SystemConfig::new(procs)).expect("valid system");
    let stats = sys.run(&mut w, 30_000_000).expect("run completes").stats;
    let sections = w.completed_sections().max(1);
    Row {
        scheme: scheme.id(),
        procs,
        cycles_per_section: stats.bus.busy_cycles as f64 / sections as f64,
        failed_per_acquire: (w.scheme_stats().failed_tas + stats.bus.retries) as f64
            / w.scheme_stats().acquires.max(stats.locks.acquires).max(1) as f64,
        mean_wait: stats.locks.mean_wait(),
    }
}

fn main() {
    println!(
        "{:<12} {:>6} {:>20} {:>22} {:>12}",
        "scheme", "procs", "bus-cycles/section", "failed-attempts/acquire", "mean-wait"
    );
    println!("{}", "-".repeat(78));
    for procs in [2usize, 4, 8, 12] {
        for row in [
            measure(BitarDespain, LockSchemeKind::CacheLock, procs),
            measure(Illinois, LockSchemeKind::TestAndSet, procs),
            measure(Illinois, LockSchemeKind::TestAndTestAndSet, procs),
        ] {
            println!(
                "{:<12} {:>6} {:>20.1} {:>22.2} {:>12.1}",
                row.scheme, row.procs, row.cycles_per_section, row.failed_per_acquire, row.mean_wait
            );
        }
        println!();
    }
    println!("cache-lock's failed-attempts column is the paper's Section E.4 claim:");
    println!("the busy-wait register eliminates ALL unsuccessful retries from the bus.");
}
