//! Event sinks: a streaming counterpart to the in-memory
//! [`Trace`](mcs_model::Trace).
//!
//! The simulator dispatches every [`Event`] to each attached
//! [`EventSink`] at the cycle it occurs, in the exact order the trace
//! records them. [`JsonlSink`] serializes the stream as JSON Lines — one
//! run-metadata header object followed by one cycle-stamped object per
//! event — with a hand-rolled, dependency-free serializer whose output is
//! byte-stable for a fixed seed: no timestamps, no hash iteration, no
//! float formatting in the event path. Encoding an event allocates
//! nothing and goes through no `fmt` machinery: literals are appended
//! with `push_str`, integers with a small decimal writer.

use crate::json::escape_into;
use mcs_model::{AgentId, BlockAddr, CacheId, Event, ProcOp};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

    /// The output error that stopped this sink, if any. A sink that fails
    /// to write latches the error here and drops the rest of the stream
    /// instead of panicking; the driver reports it once the run ends.
    fn error(&self) -> Option<&io::Error> {
        None
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

    /// The buffer, even if a writer panicked while holding it: the bytes
    /// are plain data and stay meaningful.
    fn bytes(&self) -> MutexGuard<'_, Vec<u8>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The buffer contents as a string (lossy on invalid UTF-8, which the
    /// JSONL writer never produces).
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.bytes()).into_owned()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes().extend_from_slice(buf);
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

    /// Appends the header line, `{"meta":{...}}`, without its newline.
    fn json_line_into(&self, out: &mut String) {
        out.push_str("{\"meta\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(out, k);
            out.push(':');
            match v {
                MetaValue::Str(s) => escape_into(out, s),
                MetaValue::U64(n) => push_u64(out, *n),
            }
        }
        out.push_str("}}");
    }
}

/// Pending output a [`JsonlSink`] gathers before handing it to its writer
/// in one `write_all`.
const BATCH_BYTES: usize = 8 * 1024;

/// Streams events as JSON Lines to any [`io::Write`].
///
/// The first line is the run-metadata header; every following line is one
/// event object whose first key is `"cycle"`. Lines are encoded into one
/// reused buffer, which goes to the writer in one `write_all` per
/// ~8 KiB and once more on [`EventSink::finish`] (or drop), as a
/// `BufWriter` would. A write error never panics: the sink latches it,
/// stops writing, and reports it through [`EventSink::error`].
pub struct JsonlSink<W: io::Write + Send> {
    out: W,
    lines: u64,
    buf: String,
    error: Option<io::Error>,
}

impl<W: io::Write + Send> JsonlSink<W> {
    /// Creates the sink with the metadata header line as its first pending
    /// output. Nothing is written yet, so this cannot fail.
    pub fn new(out: W, meta: &RunMeta) -> Self {
        let mut buf = String::with_capacity(BATCH_BYTES + 512);
        meta.json_line_into(&mut buf);
        buf.push('\n');
        JsonlSink { out, lines: 1, buf, error: None }
    }

    /// Lines encoded so far (header included), whether or not they have
    /// reached the writer yet.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Hands the pending lines to the writer, latching any error.
    fn write_pending(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
                self.error = Some(e);
            }
        }
        self.buf.clear();
    }
}

impl<W: io::Write + Send> EventSink for JsonlSink<W> {
    fn record(&mut self, cycle: u64, event: &Event) {
        if self.error.is_some() {
            return;
        }
        event_json_into(&mut self.buf, cycle, event);
        self.buf.push('\n');
        self.lines += 1;
        if self.buf.len() >= BATCH_BYTES {
            self.write_pending();
        }
    }

    fn finish(&mut self) {
        self.write_pending();
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }

    fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl<W: io::Write + Send> Drop for JsonlSink<W> {
    /// Writes whatever [`EventSink::finish`] did not; an error here has
    /// nowhere to go and is dropped, as `BufWriter` drops it.
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            self.write_pending();
        }
    }
}

/// Appends `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Appends `key` (a literal such as `,"block":`) and then `n`.
fn num(out: &mut String, key: &str, n: u64) {
    out.push_str(key);
    push_u64(out, n);
}

/// Appends `key` and then `true` or `false`.
fn flag(out: &mut String, key: &str, b: bool) {
    out.push_str(key);
    out.push_str(if b { "true" } else { "false" });
}

/// Appends `head` (the literal before the cache field, usually the quoted
/// event type) and `,"cache":N,"block":N`, which most events share.
fn cache_event(out: &mut String, head: &str, cache: CacheId, block: BlockAddr) {
    out.push_str(head);
    num(out, ",\"cache\":", cache.0 as u64);
    num(out, ",\"block\":", block.0);
}

fn agent_json(out: &mut String, a: AgentId) {
    match a {
        AgentId::Cache(c) => {
            out.push_str("\"C");
            push_u64(out, c.0 as u64);
            out.push('"');
        }
        AgentId::Io => out.push_str("\"io\""),
    }
}

fn op_fields(out: &mut String, op: &ProcOp) {
    out.push_str("\"kind\":\"");
    out.push_str(op.kind.name());
    num(out, "\",\"addr\":", op.addr.0);
    match op.value {
        Some(v) => num(out, ",\"value\":", v.0),
        None => out.push_str(",\"value\":null"),
    }
}

/// Serializes one event as a single JSON object appended to `out`.
///
/// Every variant of [`Event`] has an explicit, documented shape; free-form
/// strings (state names, notes) are escaped.
pub fn event_json_into(out: &mut String, cycle: u64, event: &Event) {
    num(out, "{\"cycle\":", cycle);
    out.push_str(",\"type\":");
    match event {
        Event::ProcAccess { proc, op, hit } => {
            num(out, "\"proc-access\",\"proc\":", proc.0 as u64);
            out.push(',');
            op_fields(out, op);
            flag(out, ",\"hit\":", *hit);
        }
        Event::Bus { txn, summary, duration } => {
            out.push_str("\"bus\",\"op\":\"");
            out.push_str(txn.op.mnemonic());
            num(out, "\",\"block\":", txn.block.0);
            out.push_str(",\"requester\":");
            agent_json(out, txn.requester);
            flag(out, ",\"high_priority\":", txn.high_priority);
            num(out, ",\"duration\":", *duration);
            flag(out, ",\"any_hit\":", summary.any_hit);
            num(out, ",\"sharers\":", u64::from(summary.sharers));
            match summary.source_dirty {
                Some(d) => flag(out, ",\"source_dirty\":", d),
                None => out.push_str(",\"source_dirty\":null"),
            }
            flag(out, ",\"data_from_cache\":", summary.data_from_cache);
            flag(out, ",\"locked\":", summary.locked);
            flag(out, ",\"memory_inhibited\":", summary.memory_inhibited);
            num(out, ",\"flushes\":", u64::from(summary.flushes));
            flag(out, ",\"retry\":", summary.retry);
        }
        Event::StateChange { cache, block, from, to, cause } => {
            cache_event(out, "\"state-change\"", *cache, *block);
            out.push_str(",\"from\":");
            escape_into(out, from);
            out.push_str(",\"to\":");
            escape_into(out, to);
            out.push_str(",\"cause\":\"");
            out.push_str(cause.name());
            out.push('"');
        }
        Event::MemoryProvides { block } => num(out, "\"memory-provides\",\"block\":", block.0),
        Event::CacheProvides { cache, block, dirty } => {
            cache_event(out, "\"cache-provides\"", *cache, *block);
            flag(out, ",\"dirty\":", *dirty);
        }
        Event::Flush { cache, block } => cache_event(out, "\"flush\"", *cache, *block),
        Event::LockAcquired { cache, block, zero_time } => {
            cache_event(out, "\"lock-acquired\"", *cache, *block);
            flag(out, ",\"zero_time\":", *zero_time);
        }
        Event::LockDenied { cache, block } => cache_event(out, "\"lock-denied\"", *cache, *block),
        Event::LockReleased { cache, block, broadcast } => {
            cache_event(out, "\"lock-released\"", *cache, *block);
            flag(out, ",\"broadcast\":", *broadcast);
        }
        Event::WaiterArmed { cache, block } => cache_event(out, "\"waiter-armed\"", *cache, *block),
        Event::WaiterWoken { cache, block } => cache_event(out, "\"waiter-woken\"", *cache, *block),
        Event::Eviction { cache, block, writeback } => {
            cache_event(out, "\"eviction\"", *cache, *block);
            flag(out, ",\"writeback\":", *writeback);
        }
        Event::FaultInjected { kind, cache, block } => {
            out.push_str("\"fault-injected\",\"fault\":\"");
            out.push_str(kind);
            cache_event(out, "\"", *cache, *block);
        }
        Event::WaiterTimeout { cache, block, retries } => {
            cache_event(out, "\"waiter-timeout\"", *cache, *block);
            num(out, ",\"retries\":", u64::from(*retries));
        }
        Event::WatchdogTrip { kind, proc, block, stalled_for } => {
            out.push_str("\"watchdog-trip\",\"stall\":\"");
            out.push_str(kind);
            num(out, "\",\"proc\":", proc.0 as u64);
            match block {
                Some(b) => num(out, ",\"block\":", b.0),
                None => out.push_str(",\"block\":null"),
            }
            num(out, ",\"stalled_for\":", *stalled_for);
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
            Event::Bus {
                txn: BusTxn {
                    op: BusOp::Fetch { privilege: Privilege::Read, need_data: true },
                    block: BlockAddr(6),
                    requester: AgentId::Io,
                    high_priority: false,
                },
                summary: SnoopSummary::default(),
                duration: 12,
            },
            Event::StateChange {
                cache: CacheId(0),
                block: BlockAddr(7),
                from: "weird \"state\"\\",
                to: "ctrl\u{01}\n",
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

    /// The exact line of every sample event, recorded from the
    /// `write!`-based encoder this one replaced: the JSONL format is an
    /// interface, so its bytes may not drift.
    #[test]
    fn every_event_variant_serializes_to_its_pinned_line() {
        let want = [
            r#"{"cycle":0,"type":"proc-access","proc":1,"kind":"lock-read","addr":12,"value":null,"hit":false}"#,
            r#"{"cycle":1,"type":"proc-access","proc":0,"kind":"write","addr":3,"value":57005,"hit":true}"#,
            r#"{"cycle":2,"type":"bus","op":"fetch-lock","block":4,"requester":"C2","high_priority":true,"duration":9,"any_hit":true,"sharers":2,"source_dirty":true,"data_from_cache":false,"locked":false,"memory_inhibited":false,"flushes":0,"retry":false}"#,
            r#"{"cycle":3,"type":"bus","op":"fetch-read","block":6,"requester":"io","high_priority":false,"duration":12,"any_hit":false,"sharers":0,"source_dirty":null,"data_from_cache":false,"locked":false,"memory_inhibited":false,"flushes":0,"retry":false}"#,
            r#"{"cycle":4,"type":"state-change","cache":0,"block":7,"from":"weird \"state\"\\","to":"ctrl\u0001\n","cause":"snoop"}"#,
            r#"{"cycle":5,"type":"memory-provides","block":1}"#,
            r#"{"cycle":6,"type":"cache-provides","cache":1,"block":1,"dirty":false}"#,
            r#"{"cycle":7,"type":"flush","cache":3,"block":9}"#,
            r#"{"cycle":8,"type":"lock-acquired","cache":0,"block":2,"zero_time":true}"#,
            r#"{"cycle":9,"type":"lock-denied","cache":1,"block":2}"#,
            r#"{"cycle":10,"type":"lock-released","cache":0,"block":2,"broadcast":true}"#,
            r#"{"cycle":11,"type":"waiter-armed","cache":1,"block":2}"#,
            r#"{"cycle":12,"type":"waiter-woken","cache":1,"block":2}"#,
            r#"{"cycle":13,"type":"eviction","cache":2,"block":5,"writeback":true}"#,
            r#"{"cycle":14,"type":"fault-injected","fault":"lost-unlock","cache":0,"block":2}"#,
            r#"{"cycle":15,"type":"waiter-timeout","cache":1,"block":2,"retries":3}"#,
            r#"{"cycle":16,"type":"watchdog-trip","stall":"deadlock","proc":1,"block":2,"stalled_for":200000}"#,
            r#"{"cycle":17,"type":"watchdog-trip","stall":"starvation","proc":2,"block":null,"stalled_for":64000}"#,
            r#"{"cycle":18,"type":"note","text":"quotes \" backslash \\ newline \n bell \u0007 done"}"#,
        ];
        let got: Vec<String> =
            sample_events().iter().enumerate().map(|(i, e)| event_json(i as u64, e)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn decimal_writer_matches_display() {
        for n in [0, 7, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    /// A writer that counts `write` calls and fails from the `fail_at`-th
    /// on, as a closed pipe does.
    struct FailingWriter {
        writes: Arc<Mutex<u32>>,
        fail_at: u32,
    }

    impl io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut writes = self.writes.lock().unwrap();
            *writes += 1;
            if *writes >= self.fail_at {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_write_error_is_latched_not_panicked() {
        let writes = Arc::new(Mutex::new(0));
        let out = FailingWriter { writes: writes.clone(), fail_at: 2 };
        let mut sink = JsonlSink::new(out, &RunMeta::new());
        assert!(sink.error().is_none(), "the header is buffered, not written");
        let note = Event::Note("x".repeat(100));
        for cycle in 0..1_000 {
            sink.record(cycle, &note);
        }
        sink.finish();
        let err = sink.error().expect("the second write failed");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(*writes.lock().unwrap(), 2, "the sink stops writing once an error is latched");
        assert!(sink.lines() < 1_001, "lines after the error are not encoded");
    }

    #[test]
    fn lines_reach_the_writer_in_batches_and_on_finish() {
        let buf = SharedBuf::new();
        let mut sink = JsonlSink::new(buf.clone(), &RunMeta::new());
        let event = Event::MemoryProvides { block: BlockAddr(1) };
        sink.record(0, &event);
        assert!(buf.is_empty(), "one short line stays pending");
        let mut cycle = 1;
        while buf.is_empty() {
            sink.record(cycle, &event);
            cycle += 1;
        }
        assert!(buf.len() >= BATCH_BYTES, "a batch is written whole");
        sink.finish();
        assert_eq!(buf.contents().lines().count() as u64, sink.lines());
        sink.record(cycle, &event);
        drop(sink);
        assert_eq!(buf.contents().lines().count() as u64, cycle + 2, "drop writes the tail");
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
