//! Event sinks: a streaming counterpart to the in-memory
//! [`Trace`](mcs_model::Trace).
//!
//! The simulator dispatches every [`Event`] to each attached
//! [`EventSink`] at the cycle it occurs, in the exact order the trace
//! records them. [`JsonlSink`] serializes the stream as JSON Lines — one
//! run-metadata header object followed by one cycle-stamped object per
//! event — with a hand-rolled, dependency-free serializer whose output is
//! byte-stable for a fixed seed: no timestamps, no hash iteration, no
//! float formatting in the event path.

use crate::json::escape_into;
use mcs_model::{AgentId, Event, ProcOp};
use std::fmt::Write as _;
use std::io;
use std::sync::{Arc, Mutex};

/// A consumer of the simulator's event stream.
///
/// Sinks are invoked synchronously on the simulation thread; `Send` is
/// required so systems (and the experiment sweeps that build them inside
/// worker threads) stay `Send`.
pub trait EventSink: Send {
    /// Called once per event, in trace order, with the cycle it occurred.
    fn record(&mut self, cycle: u64, event: &Event);

    /// Called when the driver is done with the run; flush buffers here.
    fn finish(&mut self) {}
}

/// A sink that only counts, for overhead measurement and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    /// Events observed.
    pub events: u64,
    /// Cycle of the last event.
    pub last_cycle: u64,
}

impl EventSink for CountingSink {
    fn record(&mut self, cycle: u64, _event: &Event) {
        self.events += 1;
        self.last_cycle = cycle;
    }
}

/// A cheaply clonable in-memory byte buffer implementing [`io::Write`],
/// for capturing JSONL output in tests and in-process tooling.
#[derive(Debug, Default, Clone)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer contents as a string (lossy on invalid UTF-8, which the
    /// JSONL writer never produces).
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("buffer lock")).into_owned()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.0.lock().expect("buffer lock").len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Ordered run metadata for the JSONL header line. Values are strings or
/// integers; insertion order is preserved so the header is byte-stable.
#[derive(Debug, Default, Clone)]
pub struct RunMeta {
    fields: Vec<(String, MetaValue)>,
}

#[derive(Debug, Clone)]
enum MetaValue {
    Str(String),
    U64(u64),
}

impl RunMeta {
    /// An empty metadata set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn with_str(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_string(), MetaValue::Str(value.to_string())));
        self
    }

    /// Adds an integer field.
    pub fn with_u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), MetaValue::U64(value)));
        self
    }

    /// The header line: `{"meta":{...}}` (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{\"meta\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push(':');
            match v {
                MetaValue::Str(s) => escape_into(&mut out, s),
                MetaValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
            }
        }
        out.push_str("}}");
        out
    }
}

/// Streams events as JSON Lines to any [`io::Write`].
///
/// The first line is the run-metadata header; every following line is one
/// event object whose first key is `"cycle"`. Write errors panic — the
/// sink sits inside the deterministic simulation loop where silently
/// dropping output would be worse than aborting the run.
pub struct JsonlSink<W: io::Write + Send> {
    out: W,
    lines: u64,
    buf: String,
}

impl<W: io::Write + Send> JsonlSink<W> {
    /// Creates the sink and immediately writes the metadata header line.
    pub fn new(mut out: W, meta: &RunMeta) -> Self {
        let header = meta.to_json_line();
        writeln!(out, "{header}").expect("jsonl sink: write header");
        JsonlSink { out, lines: 1, buf: String::with_capacity(256) }
    }

    /// Lines written so far (header included).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        self.out.flush().expect("jsonl sink: flush");
        self.out
    }
}

impl<W: io::Write + Send> EventSink for JsonlSink<W> {
    fn record(&mut self, cycle: u64, event: &Event) {
        self.buf.clear();
        event_json_into(&mut self.buf, cycle, event);
        self.buf.push('\n');
        self.out.write_all(self.buf.as_bytes()).expect("jsonl sink: write event");
        self.lines += 1;
    }

    fn finish(&mut self) {
        self.out.flush().expect("jsonl sink: flush");
    }
}

fn agent_json(a: AgentId) -> String {
    match a {
        AgentId::Cache(c) => format!("\"C{}\"", c.0),
        AgentId::Io => "\"io\"".to_string(),
    }
}

fn op_fields(out: &mut String, op: &ProcOp) {
    let _ = write!(out, "\"kind\":\"{}\",\"addr\":{}", op.kind, op.addr.0);
    match op.value {
        Some(v) => {
            let _ = write!(out, ",\"value\":{}", v.0);
        }
        None => out.push_str(",\"value\":null"),
    }
}

/// Serializes one event as a single JSON object appended to `out`.
///
/// Every variant of [`Event`] has an explicit, documented shape; free-form
/// strings (state names, notes) are escaped.
pub fn event_json_into(out: &mut String, cycle: u64, event: &Event) {
    let _ = write!(out, "{{\"cycle\":{cycle},\"type\":");
    match event {
        Event::ProcAccess { proc, op, hit } => {
            let _ = write!(out, "\"proc-access\",\"proc\":{},", proc.0);
            op_fields(out, op);
            let _ = write!(out, ",\"hit\":{hit}");
        }
        Event::Bus { txn, summary, duration } => {
            let _ = write!(
                out,
                "\"bus\",\"op\":\"{}\",\"block\":{},\"requester\":{},\"high_priority\":{},\"duration\":{duration}",
                txn.op.mnemonic(),
                txn.block.0,
                agent_json(txn.requester),
                txn.high_priority,
            );
            let _ = write!(
                out,
                ",\"any_hit\":{},\"sharers\":{},\"source_dirty\":{},\"data_from_cache\":{},\"locked\":{},\"memory_inhibited\":{},\"flushes\":{},\"retry\":{}",
                summary.any_hit,
                summary.sharers,
                summary.source_dirty.map_or("null".to_string(), |d| d.to_string()),
                summary.data_from_cache,
                summary.locked,
                summary.memory_inhibited,
                summary.flushes,
                summary.retry,
            );
        }
        Event::StateChange { cache, block, from, to, cause } => {
            let _ = write!(out, "\"state-change\",\"cache\":{},\"block\":{},\"from\":", cache.0, block.0);
            escape_into(out, from);
            out.push_str(",\"to\":");
            escape_into(out, to);
            let _ = write!(out, ",\"cause\":\"{cause}\"");
        }
        Event::MemoryProvides { block } => {
            let _ = write!(out, "\"memory-provides\",\"block\":{}", block.0);
        }
        Event::CacheProvides { cache, block, dirty } => {
            let _ = write!(
                out,
                "\"cache-provides\",\"cache\":{},\"block\":{},\"dirty\":{dirty}",
                cache.0, block.0
            );
        }
        Event::Flush { cache, block } => {
            let _ = write!(out, "\"flush\",\"cache\":{},\"block\":{}", cache.0, block.0);
        }
        Event::LockAcquired { cache, block, zero_time } => {
            let _ = write!(
                out,
                "\"lock-acquired\",\"cache\":{},\"block\":{},\"zero_time\":{zero_time}",
                cache.0, block.0
            );
        }
        Event::LockDenied { cache, block } => {
            let _ = write!(out, "\"lock-denied\",\"cache\":{},\"block\":{}", cache.0, block.0);
        }
        Event::LockReleased { cache, block, broadcast } => {
            let _ = write!(
                out,
                "\"lock-released\",\"cache\":{},\"block\":{},\"broadcast\":{broadcast}",
                cache.0, block.0
            );
        }
        Event::WaiterArmed { cache, block } => {
            let _ = write!(out, "\"waiter-armed\",\"cache\":{},\"block\":{}", cache.0, block.0);
        }
        Event::WaiterWoken { cache, block } => {
            let _ = write!(out, "\"waiter-woken\",\"cache\":{},\"block\":{}", cache.0, block.0);
        }
        Event::Eviction { cache, block, writeback } => {
            let _ = write!(
                out,
                "\"eviction\",\"cache\":{},\"block\":{},\"writeback\":{writeback}",
                cache.0, block.0
            );
        }
        Event::FaultInjected { kind, cache, block } => {
            let _ = write!(
                out,
                "\"fault-injected\",\"fault\":\"{kind}\",\"cache\":{},\"block\":{}",
                cache.0, block.0
            );
        }
        Event::WaiterTimeout { cache, block, retries } => {
            let _ = write!(
                out,
                "\"waiter-timeout\",\"cache\":{},\"block\":{},\"retries\":{retries}",
                cache.0, block.0
            );
        }
        Event::WatchdogTrip { kind, proc, block, stalled_for } => {
            let _ = write!(out, "\"watchdog-trip\",\"stall\":\"{kind}\",\"proc\":{}", proc.0);
            match block {
                Some(b) => {
                    let _ = write!(out, ",\"block\":{}", b.0);
                }
                None => out.push_str(",\"block\":null"),
            }
            let _ = write!(out, ",\"stalled_for\":{stalled_for}");
        }
        Event::Note(s) => {
            out.push_str("\"note\",\"text\":");
            escape_into(out, s);
        }
    }
    out.push('}');
}

/// One event as a JSON object string.
pub fn event_json(cycle: u64, event: &Event) -> String {
    let mut out = String::with_capacity(128);
    event_json_into(&mut out, cycle, event);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_line;
    use mcs_model::{
        AccessKind, Addr, BlockAddr, BusOp, BusTxn, CacheId, Privilege, ProcId, SnoopSummary,
        StateCause, Word,
    };

    fn sample_events() -> Vec<Event> {
        vec![
            Event::ProcAccess {
                proc: ProcId(1),
                op: ProcOp { kind: AccessKind::LockRead, addr: Addr(12), value: None },
                hit: false,
            },
            Event::ProcAccess {
                proc: ProcId(0),
                op: ProcOp::write(Addr(3), Word(0xdead)),
                hit: true,
            },
            Event::Bus {
                txn: BusTxn {
                    op: BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
                    block: BlockAddr(4),
                    requester: AgentId::Cache(CacheId(2)),
                    high_priority: true,
                },
                summary: SnoopSummary {
                    any_hit: true,
                    sharers: 2,
                    source_dirty: Some(true),
                    ..Default::default()
                },
                duration: 9,
            },
            Event::StateChange {
                cache: CacheId(0),
                block: BlockAddr(7),
                from: "weird \"state\"\\".into(),
                to: "ctrl\u{01}\n".into(),
                cause: StateCause::Snoop,
            },
            Event::MemoryProvides { block: BlockAddr(1) },
            Event::CacheProvides { cache: CacheId(1), block: BlockAddr(1), dirty: false },
            Event::Flush { cache: CacheId(3), block: BlockAddr(9) },
            Event::LockAcquired { cache: CacheId(0), block: BlockAddr(2), zero_time: true },
            Event::LockDenied { cache: CacheId(1), block: BlockAddr(2) },
            Event::LockReleased { cache: CacheId(0), block: BlockAddr(2), broadcast: true },
            Event::WaiterArmed { cache: CacheId(1), block: BlockAddr(2) },
            Event::WaiterWoken { cache: CacheId(1), block: BlockAddr(2) },
            Event::Eviction { cache: CacheId(2), block: BlockAddr(5), writeback: true },
            Event::FaultInjected {
                kind: "lost-unlock",
                cache: CacheId(0),
                block: BlockAddr(2),
            },
            Event::WaiterTimeout { cache: CacheId(1), block: BlockAddr(2), retries: 3 },
            Event::WatchdogTrip {
                kind: "deadlock",
                proc: ProcId(1),
                block: Some(BlockAddr(2)),
                stalled_for: 200_000,
            },
            Event::WatchdogTrip {
                kind: "starvation",
                proc: ProcId(2),
                block: None,
                stalled_for: 64_000,
            },
            Event::Note("quotes \" backslash \\ newline \n bell \u{07} done".into()),
        ]
    }

    #[test]
    fn every_event_variant_serializes_to_valid_json() {
        for (i, e) in sample_events().iter().enumerate() {
            let line = event_json(i as u64, e);
            let v = validate_line(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(v.cycle, Some(i as u64), "cycle must round-trip: {line}");
        }
    }

    #[test]
    fn jsonl_sink_writes_header_then_events() {
        let buf = SharedBuf::new();
        let meta = RunMeta::new()
            .with_str("protocol", "bitar-despain")
            .with_u64("procs", 4)
            .with_str("note", "escaped \"quote\"");
        let mut sink = JsonlSink::new(buf.clone(), &meta);
        sink.record(5, &Event::MemoryProvides { block: BlockAddr(1) });
        sink.record(9, &Event::Note("x".into()));
        sink.finish();
        assert_eq!(sink.lines(), 3);
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = validate_line(lines[0]).expect("header parses");
        assert!(header.is_meta);
        assert!(lines[0].contains("\"protocol\":\"bitar-despain\""));
        assert_eq!(validate_line(lines[1]).unwrap().cycle, Some(5));
        assert_eq!(validate_line(lines[2]).unwrap().cycle, Some(9));
    }
}
