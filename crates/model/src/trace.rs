//! Event tracing, used to regenerate the paper's Figures 1–9 as textual
//! protocol scenarios and to debug protocol implementations.
//!
//! States are recorded by their static names
//! ([`LineState::name`](crate::LineState::name)), so one trace type serves
//! every protocol and recording a state change allocates nothing.

use crate::bus::{BusTxn, SnoopSummary};
use crate::ops::ProcOp;
use crate::types::{BlockAddr, CacheId, ProcId};
use std::collections::VecDeque;
use std::fmt;

/// Why a line changed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateCause {
    /// The local processor accessed the line.
    ProcAccess,
    /// The cache snooped another agent's transaction.
    Snoop,
    /// The cache's own bus transaction completed.
    Complete,
    /// The line was evicted.
    Evict,
}

impl StateCause {
    /// The cause's stable name (`"snoop"`, ...), as displayed and as
    /// traces record it.
    pub fn name(self) -> &'static str {
        match self {
            StateCause::ProcAccess => "proc",
            StateCause::Snoop => "snoop",
            StateCause::Complete => "complete",
            StateCause::Evict => "evict",
        }
    }
}

impl fmt::Display for StateCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One traced simulation event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A processor presented an access to its cache.
    ProcAccess {
        /// Which processor.
        proc: ProcId,
        /// The operation.
        op: ProcOp,
        /// Whether it was satisfied without the bus.
        hit: bool,
    },
    /// A bus transaction was granted and executed.
    Bus {
        /// The transaction.
        txn: BusTxn,
        /// Aggregated snoop lines.
        summary: SnoopSummary,
        /// Bus cycles consumed.
        duration: u64,
    },
    /// A cache line changed state.
    StateChange {
        /// Which cache.
        cache: CacheId,
        /// Which block.
        block: BlockAddr,
        /// Previous state's name.
        from: &'static str,
        /// New state's name.
        to: &'static str,
        /// What caused the change.
        cause: StateCause,
    },
    /// Main memory supplied a block.
    MemoryProvides {
        /// Which block.
        block: BlockAddr,
    },
    /// A source cache supplied a block (cache-to-cache transfer).
    CacheProvides {
        /// The source cache.
        cache: CacheId,
        /// Which block.
        block: BlockAddr,
        /// The clean/dirty status it drove on the bus.
        dirty: bool,
    },
    /// A block was written back to memory.
    Flush {
        /// Which cache flushed.
        cache: CacheId,
        /// Which block.
        block: BlockAddr,
    },
    /// A lock was acquired.
    LockAcquired {
        /// Which cache.
        cache: CacheId,
        /// Which block.
        block: BlockAddr,
        /// True when no bus transaction was needed (zero-time lock).
        zero_time: bool,
    },
    /// A lock fetch was denied; the requester begins busy waiting.
    LockDenied {
        /// The requesting cache.
        cache: CacheId,
        /// Which block.
        block: BlockAddr,
    },
    /// A lock was released.
    LockReleased {
        /// Which cache.
        cache: CacheId,
        /// Which block.
        block: BlockAddr,
        /// Whether an unlock broadcast was required (waiter recorded).
        broadcast: bool,
    },
    /// A busy-wait register was armed.
    WaiterArmed {
        /// Which cache.
        cache: CacheId,
        /// Which block it watches.
        block: BlockAddr,
    },
    /// A busy-wait register observed the unlock and will re-arbitrate.
    WaiterWoken {
        /// Which cache.
        cache: CacheId,
        /// Which block.
        block: BlockAddr,
    },
    /// A line was evicted.
    Eviction {
        /// Which cache.
        cache: CacheId,
        /// Which block.
        block: BlockAddr,
        /// Whether a write-back was required.
        writeback: bool,
    },
    /// The fault-injection layer fired at a choke point.
    FaultInjected {
        /// Stable fault-kind identifier (e.g. `"lost-unlock"`).
        kind: &'static str,
        /// The cache the fault acted on (requester or snooper).
        cache: CacheId,
        /// The block involved.
        block: BlockAddr,
    },
    /// A busy-wait register timed out; the waiter falls back to an
    /// explicit retry with backoff.
    WaiterTimeout {
        /// The waiting cache.
        cache: CacheId,
        /// The block it was watching.
        block: BlockAddr,
        /// Bus retries consumed so far for this access.
        retries: u32,
    },
    /// The liveness watchdog detected a stall and is aborting the run.
    WatchdogTrip {
        /// Stall classification identifier (`"deadlock"` etc.).
        kind: &'static str,
        /// The most-stalled processor.
        proc: ProcId,
        /// The block it was waiting on, when known.
        block: Option<BlockAddr>,
        /// Cycles since that processor last retired a reference.
        stalled_for: u64,
    },
    /// Free-form annotation (used by scenario drivers).
    Note(String),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::ProcAccess { proc, op, hit } => {
                write!(f, "{proc} {op} [{}]", if *hit { "hit" } else { "miss" })
            }
            Event::Bus { txn, summary, duration } => {
                write!(f, "bus: {txn} ({duration}cy)")?;
                if summary.any_hit {
                    write!(f, " hit-line({})", summary.sharers)?;
                }
                if let Some(d) = summary.source_dirty {
                    write!(f, " status={}", if d { "dirty" } else { "clean" })?;
                }
                if summary.locked {
                    write!(f, " LOCKED")?;
                }
                if summary.retry {
                    write!(f, " RETRY")?;
                }
                Ok(())
            }
            Event::StateChange { cache, block, from, to, cause } => {
                write!(f, "{cache} {block}: {from} -> {to} ({cause})")
            }
            Event::MemoryProvides { block } => write!(f, "memory provides {block}"),
            Event::CacheProvides { cache, block, dirty } => {
                write!(f, "{cache} provides {block} ({})", if *dirty { "dirty" } else { "clean" })
            }
            Event::Flush { cache, block } => write!(f, "{cache} flushes {block}"),
            Event::LockAcquired { cache, block, zero_time } => {
                write!(f, "{cache} locks {block}{}", if *zero_time { " (zero-time)" } else { "" })
            }
            Event::LockDenied { cache, block } => write!(f, "{cache} denied lock on {block}"),
            Event::LockReleased { cache, block, broadcast } => write!(
                f,
                "{cache} unlocks {block}{}",
                if *broadcast { " (broadcast)" } else { " (zero-time)" }
            ),
            Event::WaiterArmed { cache, block } => {
                write!(f, "{cache} busy-wait register armed on {block}")
            }
            Event::WaiterWoken { cache, block } => {
                write!(f, "{cache} busy-wait register woken for {block}")
            }
            Event::Eviction { cache, block, writeback } => {
                write!(f, "{cache} evicts {block}{}", if *writeback { " (writeback)" } else { "" })
            }
            Event::FaultInjected { kind, cache, block } => {
                write!(f, "FAULT {kind}: {cache} {block}")
            }
            Event::WaiterTimeout { cache, block, retries } => {
                write!(f, "{cache} busy-wait timeout on {block} (retries={retries})")
            }
            Event::WatchdogTrip { kind, proc, block, stalled_for } => {
                write!(f, "WATCHDOG {kind}: {proc} stalled {stalled_for}cy")?;
                if let Some(b) = block {
                    write!(f, " waiting on {b}")?;
                }
                Ok(())
            }
            Event::Note(s) => write!(f, "-- {s}"),
        }
    }
}

/// An event log with cycle timestamps. Disabled traces cost one branch per
/// event.
///
/// By default the log is unbounded. [`Trace::bounded`] turns it into a
/// ring buffer that keeps only the most recent `capacity` events, counting
/// what it drops — so long sweeps can keep tracing on for the tail of a
/// run without unbounded memory growth.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    events: VecDeque<(u64, Event)>,
    capacity: Option<usize>,
    dropped: u64,
}

impl Trace {
    /// A recording, unbounded trace.
    pub fn enabled() -> Self {
        Trace { enabled: true, ..Trace::default() }
    }

    /// A recording ring-buffer trace keeping the most recent `capacity`
    /// events (clamped to ≥ 1); older events are dropped and counted.
    pub fn bounded(capacity: usize) -> Self {
        Trace { enabled: true, capacity: Some(capacity.max(1)), ..Trace::default() }
    }

    /// A disabled trace that drops every event.
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Is the trace recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Events evicted from the front of a bounded trace so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records `event` at `cycle` (no-op when disabled).
    pub fn push(&mut self, cycle: u64, event: Event) {
        if self.enabled {
            if let Some(cap) = self.capacity {
                if self.events.len() == cap {
                    self.events.pop_front();
                    self.dropped += 1;
                }
            }
            self.events.push_back((cycle, event));
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates the retained events in order.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, Event)> {
        self.events.iter()
    }

    /// The retained events as an owned, ordered vector.
    pub fn to_vec(&self) -> Vec<(u64, Event)> {
        self.events.iter().cloned().collect()
    }

    /// Renders the whole trace, one event per line, as used by the figure
    /// regeneration binary. A bounded trace that has dropped events leads
    /// with a marker line saying how many.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "[... {} earlier events dropped ...]", self.dropped);
        }
        for (cycle, e) in &self.events {
            let _ = writeln!(out, "[{cycle:>6}] {e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusOp;
    use crate::protocol::Privilege;
    use crate::types::AgentId;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(1, Event::Note("x".into()));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.push(1, Event::Note("a".into()));
        t.push(5, Event::MemoryProvides { block: BlockAddr(2) });
        let events = t.to_vec();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].0, 1);
        assert_eq!(events[1].0, 5);
    }

    #[test]
    fn bounded_trace_keeps_most_recent_and_counts_drops() {
        let mut t = Trace::bounded(3);
        for c in 0..5 {
            t.push(c, Event::Note(format!("e{c}")));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<u64> = t.iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        let rendered = t.render();
        assert!(rendered.starts_with("[... 2 earlier events dropped ...]"), "{rendered}");
    }

    #[test]
    fn bounded_capacity_is_clamped_to_one() {
        let mut t = Trace::bounded(0);
        t.push(0, Event::Note("a".into()));
        t.push(1, Event::Note("b".into()));
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.to_vec()[0].0, 1);
    }

    #[test]
    fn render_formats_lines() {
        let mut t = Trace::enabled();
        t.push(
            3,
            Event::Bus {
                txn: BusTxn {
                    op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
                    block: BlockAddr(1),
                    requester: AgentId::Cache(CacheId(0)),
                    high_priority: false,
                },
                summary: SnoopSummary { any_hit: true, sharers: 2, ..Default::default() },
                duration: 7,
            },
        );
        let s = t.render();
        assert!(s.contains("fetch-read"));
        assert!(s.contains("hit-line(2)"));
        assert!(s.contains("[     3]"));
    }

    #[test]
    fn event_display_variants() {
        let e = Event::LockAcquired { cache: CacheId(1), block: BlockAddr(2), zero_time: true };
        assert_eq!(e.to_string(), "C1 locks B0x2 (zero-time)");
        let e = Event::LockReleased { cache: CacheId(1), block: BlockAddr(2), broadcast: true };
        assert_eq!(e.to_string(), "C1 unlocks B0x2 (broadcast)");
        let e = Event::StateChange {
            cache: CacheId(0),
            block: BlockAddr(3),
            from: "Invalid",
            to: "Read",
            cause: StateCause::Complete,
        };
        assert_eq!(e.to_string(), "C0 B0x3: Invalid -> Read (complete)");
    }
}
