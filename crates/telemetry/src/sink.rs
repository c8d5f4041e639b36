//! Sinks: where emitted events go.

use crate::event::{write_json_string, Event};
use crate::metrics::Counter;
use crate::ring::RingBuffer;
use crate::span;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// An event consumer.
///
/// Sinks are passed as `&dyn Sink` through the instrumented stack, so
/// the trait is object-safe and `Sync` (fleet workers and server
/// threads may emit concurrently). Implementations must be strictly
/// observational: recording an event may never influence the
/// computation that emitted it.
pub trait Sink: Sync {
    /// Consumes one event.
    fn record(&self, event: Event);

    /// `false` when recording is a guaranteed no-op ([`NullSink`]) —
    /// lets call sites skip *expensive derived* computations, never
    /// required for plain event emission.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// The default sink: discards everything.
///
/// `record` is an empty inlineable virtual call over `Copy` data, so
/// the instrumented path with a `NullSink` allocates nothing and
/// computes exactly what an uninstrumented run computes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Retains the most recent events in a bounded ring buffer — the sink
/// for tests and in-process inspection — and counts every event it is
/// handed, by kind, exactly: eviction from the ring never loses a count.
#[derive(Debug)]
pub struct MemorySink {
    state: Mutex<MemoryState>,
}

#[derive(Debug)]
struct MemoryState {
    ring: RingBuffer<Event>,
    /// Events recorded since creation or the last clear, by kind.
    totals: Vec<(&'static str, usize)>,
}

impl MemorySink {
    /// Default retention (events).
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A sink retaining the last [`MemorySink::DEFAULT_CAPACITY`]
    /// events.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A sink retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            state: Mutex::new(MemoryState {
                ring: RingBuffer::new(capacity),
                totals: Vec::new(),
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, MemoryState> {
        self.state.lock().expect("memory sink poisoned")
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.state().ring.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.state().ring.to_vec()
    }

    /// Number of *retained* events of the given [`Event::kind`]: events
    /// the ring has evicted are not counted. Use
    /// [`MemorySink::total_kind`] for how many were recorded.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.state()
            .ring
            .iter()
            .filter(|e| e.kind() == kind)
            .count()
    }

    /// Exact number of events of the given [`Event::kind`] recorded since
    /// creation or the last [`MemorySink::clear`], evicted ones included.
    pub fn total_kind(&self, kind: &str) -> usize {
        self.state()
            .totals
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, n)| n)
    }

    /// Drops all retained events and resets the totals.
    pub fn clear(&self) {
        let mut state = self.state();
        state.ring.clear();
        state.totals.clear();
    }
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: Event) {
        let kind = event.kind();
        let mut state = self.state();
        match state.totals.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => state.totals.push((kind, 1)),
        }
        state.ring.push(event);
    }
}

/// Streams events as JSON lines to any writer — the sink behind the
/// `results/*.jsonl` telemetry the experiment bins produce.
///
/// The encode buffer is reused across records, so steady-state
/// recording performs no allocation beyond what the writer itself does.
///
/// Telemetry must never abort the computation it observes, so write
/// errors do not propagate — but they are not invisible either: every
/// record the writer refuses increments [`JsonlSink::dropped_records`],
/// and dropping the sink flushes whatever the writer buffered, so a
/// sink that goes out of scope (a per-request sink on a closed
/// connection, say) leaves neither silent loss nor unflushed tail.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    inner: Mutex<JsonlState<W>>,
    dropped: Counter,
}

#[derive(Debug)]
struct JsonlState<W> {
    /// `None` only after [`JsonlSink::into_inner`] surrendered the
    /// writer (the sink records nothing further and its `Drop` is a
    /// no-op).
    writer: Option<W>,
    buf: String,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) `path` and streams events into it through a
    /// buffered writer.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps the writer.
    pub fn new(writer: W) -> Self {
        Self {
            inner: Mutex::new(JsonlState {
                writer: Some(writer),
                buf: String::with_capacity(256),
            }),
            dropped: Counter::new(),
        }
    }

    /// Records the writer refused (write errors). Lossy telemetry is
    /// observable here instead of silently absorbed.
    pub fn dropped_records(&self) -> u64 {
        self.dropped.get()
    }

    /// Flushes and returns the writer.
    pub fn into_inner(self) -> W {
        let mut state = self.inner.lock().expect("jsonl sink poisoned");
        let mut writer = state
            .writer
            .take()
            .expect("writer only leaves through into_inner");
        let _ = writer.flush();
        drop(state);
        writer
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&self, event: Event) {
        let state = &mut *self.inner.lock().expect("jsonl sink poisoned");
        state.buf.clear();
        event.write_json(&mut state.buf);
        state.buf.push('\n');
        // I/O errors don't propagate (telemetry must never abort the
        // simulation it observes) but each refused record is counted —
        // see `dropped_records`.
        let Some(writer) = state.writer.as_mut() else {
            self.dropped.inc();
            return;
        };
        if writer.write_all(state.buf.as_bytes()).is_err() {
            self.dropped.inc();
        }
    }

    fn flush(&self) {
        if let Some(writer) = self
            .inner
            .lock()
            .expect("jsonl sink poisoned")
            .writer
            .as_mut()
        {
            let _ = writer.flush();
        }
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    /// Best-effort flush, so a sink dropped mid-stream (per-request
    /// sinks, panicking callers) does not strand buffered lines in the
    /// writer.
    fn drop(&mut self) {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(writer) = state.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

/// Streams events in the Chrome Trace Event (JSON Array) format, so a
/// run opens directly in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev).
///
/// * [`Event::SpanStart`] / [`Event::SpanEnd`] become `ph:"B"` /
///   `ph:"E"` duration records; the span's lane becomes the `tid`, so
///   fleet and server worker threads render as separate timeline
///   rows; timestamps are microseconds with nanosecond resolution
///   (fractional `ts`).
/// * Every other event becomes a thread-scoped instant record
///   (`ph:"i"`, `s:"t"`) stamped at record time, with the event's own
///   JSONL object embedded under `args`, so cooling toggles, pool
///   misses and fault injections show up as markers on the timeline.
///
/// [`ChromeTraceSink::finish`] writes the closing `]`. Both Chrome and
/// Perfetto tolerate a missing terminator (the format spec makes the
/// closing bracket optional), so a trace cut short by a crash still
/// loads — but [`finish`](ChromeTraceSink::finish) is what makes the
/// output strictly valid JSON.
#[derive(Debug)]
pub struct ChromeTraceSink<W: Write + Send> {
    inner: Mutex<ChromeState<W>>,
}

#[derive(Debug)]
struct ChromeState<W> {
    writer: W,
    buf: String,
    any: bool,
}

impl ChromeTraceSink<BufWriter<File>> {
    /// Creates (truncating) `path` and streams the trace into it
    /// through a buffered writer.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> ChromeTraceSink<W> {
    /// Wraps the writer.
    pub fn new(writer: W) -> Self {
        Self {
            inner: Mutex::new(ChromeState {
                writer,
                buf: String::with_capacity(256),
                any: false,
            }),
        }
    }

    /// Writes the closing `]`, flushes, and returns the writer. An
    /// empty trace becomes `[]`.
    pub fn finish(self) -> W {
        let mut state = self.inner.into_inner().expect("chrome sink poisoned");
        let _ = if state.any {
            state.writer.write_all(b"\n]\n")
        } else {
            state.writer.write_all(b"[]\n")
        };
        let _ = state.writer.flush();
        state.writer
    }
}

impl<W: Write + Send> Sink for ChromeTraceSink<W> {
    fn record(&self, event: Event) {
        let state = &mut *self.inner.lock().expect("chrome sink poisoned");
        state.buf.clear();
        state.buf.push_str(if state.any { ",\n" } else { "[\n" });
        let buf = &mut state.buf;
        match event {
            Event::SpanStart {
                name, lane, t_ns, ..
            } => {
                buf.push_str("{\"name\":");
                write_json_string(buf, name);
                let _ = write!(
                    buf,
                    ",\"cat\":\"span\",\"ph\":\"B\",\"pid\":1,\"tid\":{lane},\"ts\":{:.3}}}",
                    t_ns as f64 / 1_000.0
                );
            }
            Event::SpanEnd {
                name, lane, t_ns, ..
            } => {
                buf.push_str("{\"name\":");
                write_json_string(buf, name);
                let _ = write!(
                    buf,
                    ",\"cat\":\"span\",\"ph\":\"E\",\"pid\":1,\"tid\":{lane},\"ts\":{:.3}}}",
                    t_ns as f64 / 1_000.0
                );
            }
            other => {
                // Thread-scoped instant marker stamped now, on this
                // thread's lane, carrying the event's fields as args.
                buf.push_str("{\"name\":");
                write_json_string(buf, other.kind());
                let _ = write!(
                    buf,
                    ",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                     \"tid\":{},\"ts\":{:.3},\"args\":",
                    span::lane(),
                    span::now_ns() as f64 / 1_000.0
                );
                other.write_json(buf);
                buf.push('}');
            }
        }
        // I/O errors are swallowed, as in JsonlSink: telemetry must
        // never abort the simulation it observes.
        let _ = state.writer.write_all(state.buf.as_bytes());
        state.any = true;
    }

    fn flush(&self) {
        let _ = self
            .inner
            .lock()
            .expect("chrome sink poisoned")
            .writer
            .flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_discards() {
        let sink = NullSink;
        sink.record(Event::PoolHit);
        assert!(!sink.enabled());
    }

    #[test]
    fn memory_sink_retains_in_order_up_to_capacity() {
        let sink = MemorySink::with_capacity(2);
        sink.record(Event::PoolMiss);
        sink.record(Event::PoolHit);
        sink.record(Event::PoolHit);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events(), vec![Event::PoolHit, Event::PoolHit]);
        assert_eq!(sink.count_kind("pool_hit"), 2);
        assert_eq!(sink.count_kind("pool_miss"), 0);
        // The totals count what the ring evicted.
        assert_eq!(sink.total_kind("pool_hit"), 2);
        assert_eq!(sink.total_kind("pool_miss"), 1);
        assert_eq!(sink.total_kind("span_start"), 0);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.total_kind("pool_miss"), 0);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(Event::PoolHit);
        sink.record(Event::GradientEval { dim: 2 });
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"event\":\"pool_hit\"}");
        assert!(lines[1].starts_with("{\"event\":\"gradient_eval\""));
    }

    /// A writer whose writes always fail, and whose flushes flip a
    /// shared flag — lets the tests observe both the dropped-record
    /// accounting and the flush-on-drop contract.
    struct Probe {
        fail_writes: bool,
        flushed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl Write for Probe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.fail_writes {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "probe"))
            } else {
                Ok(buf.len())
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushed
                .store(true, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_counts_dropped_records() {
        let flushed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sink = JsonlSink::new(Probe {
            fail_writes: true,
            flushed: flushed.clone(),
        });
        assert_eq!(sink.dropped_records(), 0);
        sink.record(Event::PoolHit);
        sink.record(Event::PoolMiss);
        assert_eq!(sink.dropped_records(), 2, "both writes failed");
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let flushed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sink = JsonlSink::new(Probe {
            fail_writes: false,
            flushed: flushed.clone(),
        });
        sink.record(Event::PoolHit);
        assert!(!flushed.load(std::sync::atomic::Ordering::Relaxed));
        drop(sink);
        assert!(
            flushed.load(std::sync::atomic::Ordering::Relaxed),
            "drop must flush the writer"
        );
    }

    #[test]
    fn jsonl_sink_into_inner_disarms_the_drop_flush() {
        let flushed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sink = JsonlSink::new(Probe {
            fail_writes: false,
            flushed: flushed.clone(),
        });
        sink.record(Event::PoolHit);
        let _writer = sink.into_inner();
        assert!(
            flushed.load(std::sync::atomic::Ordering::Relaxed),
            "into_inner flushes before surrendering the writer"
        );
    }

    #[test]
    fn chrome_sink_writes_b_e_pairs_and_instant_markers() {
        let sink = ChromeTraceSink::new(Vec::new());
        sink.record(Event::SpanStart {
            id: 1,
            parent: 0,
            name: "mpc_solve",
            lane: 3,
            t_ns: 1_500,
        });
        sink.record(Event::PoolMiss);
        sink.record(Event::SpanEnd {
            id: 1,
            name: "mpc_solve",
            lane: 3,
            t_ns: 4_500,
            dur_ns: 3_000,
        });
        let text = String::from_utf8(sink.finish()).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(
            text.contains("\"ph\":\"B\",\"pid\":1,\"tid\":3,\"ts\":1.500"),
            "{text}"
        );
        assert!(
            text.contains("\"ph\":\"E\",\"pid\":1,\"tid\":3,\"ts\":4.500"),
            "{text}"
        );
        assert!(
            text.contains("\"name\":\"pool_miss\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\""),
            "{text}"
        );
        assert!(
            text.contains("\"args\":{\"event\":\"pool_miss\"}"),
            "{text}"
        );
    }

    #[test]
    fn empty_chrome_trace_is_an_empty_array() {
        let sink = ChromeTraceSink::new(Vec::new());
        let text = String::from_utf8(sink.finish()).unwrap();
        assert_eq!(text.trim(), "[]");
    }

    #[test]
    fn sinks_are_object_safe() {
        let sinks: Vec<Box<dyn Sink>> = vec![
            Box::new(NullSink),
            Box::new(MemorySink::with_capacity(4)),
            Box::new(JsonlSink::new(Vec::new())),
            Box::new(ChromeTraceSink::new(Vec::new())),
        ];
        for sink in &sinks {
            sink.record(Event::PoolHit);
            sink.flush();
        }
    }
}
