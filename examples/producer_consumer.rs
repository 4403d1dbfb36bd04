//! Producer/consumer binding passing (Section B.1) across invalidation and
//! update protocols — the Section D trade-off in action: update protocols
//! deliver the new binding into the consumer's cache in place, so the
//! hand-off costs no refetches; invalidation protocols make the consumer
//! miss and refetch.
//!
//! Run with: `cargo run --release --example producer_consumer`

use mcs::core::{with_protocol, ProtocolKind};
use mcs::sim::{System, SystemConfig};
use mcs::workloads::ProducerConsumerWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<16} {:>9} {:>16} {:>14} {:>12}",
        "protocol", "handoffs", "mean-latency", "consumer-hit%", "bus-txns"
    );
    println!("{}", "-".repeat(72));

    for kind in [
        ProtocolKind::BitarDespain,
        ProtocolKind::Illinois,
        ProtocolKind::Berkeley,
        ProtocolKind::Dragon,
        ProtocolKind::Firefly,
        ProtocolKind::ClassicWriteThrough,
    ] {
        let mut w = ProducerConsumerWorkload::new(40, 3, 30);
        let stats = with_protocol!(kind, p => {
            let mut sys = System::new(p, SystemConfig::new(2))?;
            sys.run(&mut w, 20_000_000)?.stats
        });
        let consumer = &stats.per_proc[1];
        println!(
            "{:<16} {:>9} {:>15.1}cy {:>13.1}% {:>12}",
            kind.id(),
            w.handoffs(),
            w.mean_handoff_latency(),
            100.0 * consumer.hit_rate(),
            stats.bus.txns,
        );
    }
    println!();
    println!("update protocols (dragon, firefly) refresh the consumer's copies in place,");
    println!("so its hit rate stays near 100% — exactly the case Section D concedes to");
    println!("write-through; the lock protocol wins instead when atoms are written");
    println!("many times per hold (see `exp e1`).");
    Ok(())
}
