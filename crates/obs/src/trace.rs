//! Structured event traces.
//!
//! Instrumented components publish one record per interesting event (a
//! control-loop phase, an allocation grant, …) through a [`TraceSink`], as
//! one line of compact JSON text. The default [`NoopSink`] reports
//! `enabled() == false`; instrumented code checks that flag before writing
//! the record, so tracing costs one branch when off. When on, a writer
//! reuses one line buffer, so a record costs the sink's own keeping: one
//! allocation per record in [`VecSink`] and [`StreamSink`], none in
//! [`JsonLinesSink`]:
//!
//! ```
//! use dmm_obs::json::{write_str, write_u64};
//! use dmm_obs::{TraceSink, VecSink};
//! let lines = VecSink::new();
//! let mut sink = lines.handle();
//! let mut line = String::new();
//! for interval in 0..2 {
//!     if sink.enabled() {
//!         line.clear();
//!         line.push_str("{\"type\":");
//!         write_str(&mut line, "check");
//!         line.push_str(",\"interval\":");
//!         write_u64(&mut line, interval);
//!         line.push('}');
//!         sink.emit_line(&line);
//!     }
//! }
//! assert_eq!(lines.lines()[1], r#"{"type":"check","interval":1}"#);
//! ```

use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Receiver of structured trace records.
///
/// `Send` so a simulation carrying a sink can move onto a worker thread
/// (parallel replication in the bench helpers).
pub trait TraceSink: Send {
    /// Whether records will be kept. Callers skip writing records when
    /// false.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one record, written as one line of compact JSON text (no
    /// trailing newline). The line is borrowed: a sink that keeps it copies
    /// it, and the caller reuses its buffer for the next record.
    fn emit_line(&mut self, line: &str);

    /// Consumes one record given as a [`Json`] value: serializes it and
    /// hands the text to [`TraceSink::emit_line`].
    fn emit(&mut self, record: &Json) {
        let mut line = String::new();
        record.write(&mut line);
        self.emit_line(&line);
    }

    /// Records this sink has lost (write failure, bounded buffer full, …).
    /// Surfaced as the `obs.sink.dropped_records` counter in metrics
    /// snapshots.
    fn dropped_records(&self) -> u64 {
        0
    }

    /// Write errors this sink has latched. Surfaced as the
    /// `obs.sink.errors` counter in metrics snapshots so a sink that failed
    /// mid-run is diagnosable instead of silently truncating the trace.
    fn write_errors(&self) -> u64 {
        0
    }
}

/// Discards everything; `enabled()` is false. The default sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit_line(&mut self, _line: &str) {}
}

/// Collects serialized records in memory, behind a shared handle so the
/// emitting simulation can own the sink while the test keeps reading.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl VecSink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// A second handle to the same line buffer.
    pub fn handle(&self) -> VecSink {
        VecSink {
            lines: Arc::clone(&self.lines),
        }
    }

    /// The serialized records emitted so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("sink lock").clone()
    }

    /// All records joined into one JSON-lines document.
    pub fn to_jsonl(&self) -> String {
        let lines = self.lines.lock().expect("sink lock");
        let mut out = String::new();
        for line in lines.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for VecSink {
    fn emit_line(&mut self, line: &str) {
        self.lines.lock().expect("sink lock").push(line.to_owned());
    }
}

/// Shared state of a [`StreamSink`]: the bounded line ring plus loss
/// accounting.
#[derive(Debug, Default)]
struct StreamShared {
    ring: VecDeque<String>,
    dropped: u64,
}

/// Bounded in-memory streaming sink for live consumers (`dmm-trace watch`
/// and other tail readers).
///
/// `emit_line` copies the line and pushes it onto a fixed-capacity ring.
/// When the ring is full — the consumer fell behind — the *incoming* record
/// is dropped and counted, so the buffered prefix stays a contiguous,
/// in-order slice of the trace and the simulation hot path never blocks on
/// a slow reader. [`StreamSink::drain`] (on any handle) pops everything
/// buffered so far; [`StreamSink::dropped_records`] reports the loss.
#[derive(Debug, Clone)]
pub struct StreamSink {
    shared: Arc<Mutex<StreamShared>>,
    capacity: usize,
}

impl StreamSink {
    /// A streaming sink buffering at most `capacity` records (≥ 1). The
    /// ring's backing store is pre-reserved (up to a sane bound) so steady
    /// emission never reallocates it.
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        StreamSink {
            shared: Arc::new(Mutex::new(StreamShared {
                ring: VecDeque::with_capacity(capacity.min(1 << 16)),
                dropped: 0,
            })),
            capacity,
        }
    }

    /// A second handle to the same ring (e.g. one for the simulation, one
    /// for the consumer thread).
    pub fn handle(&self) -> StreamSink {
        self.clone()
    }

    /// Pops every buffered record, oldest first.
    pub fn drain(&self) -> Vec<String> {
        let mut shared = self.shared.lock().expect("stream sink lock");
        shared.ring.drain(..).collect()
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("stream sink lock").ring.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped because the ring was full when they arrived.
    pub fn dropped_records(&self) -> u64 {
        self.shared.lock().expect("stream sink lock").dropped
    }
}

impl TraceSink for StreamSink {
    fn emit_line(&mut self, line: &str) {
        // Copy outside the lock, at the line's exact size: the only
        // contended work is one push.
        let line = line.to_owned();
        let mut shared = self.shared.lock().expect("stream sink lock");
        if shared.ring.len() >= self.capacity {
            shared.dropped += 1;
        } else {
            shared.ring.push_back(line);
        }
    }

    fn dropped_records(&self) -> u64 {
        StreamSink::dropped_records(self)
    }
}

/// Writes one compact JSON record per line to an [`io::Write`]r (JSON-lines).
///
/// Write failures degrade gracefully instead of panicking mid-run: the
/// first [`io::Error`] is kept, every record from the failing one onward is
/// dropped (and counted), and [`JsonLinesSink::flush`] surfaces the stored
/// error so batch drivers can report a truncated trace at the end of the
/// run.
pub struct JsonLinesSink {
    writer: BufWriter<Box<dyn Write + Send>>,
    error: Option<io::Error>,
    dropped: u64,
}

impl JsonLinesSink {
    /// Sink over an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonLinesSink {
            writer: BufWriter::new(writer),
            error: None,
            dropped: 0,
        }
    }

    /// Sink writing to a file at `path` (truncating), creating parent
    /// directories as needed.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(JsonLinesSink::new(Box::new(file)))
    }

    /// Flushes buffered lines to the underlying writer, surfacing a write
    /// error recorded by an earlier [`TraceSink::emit_line`] if there was
    /// one.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(err) = &self.error {
            return Err(io::Error::new(err.kind(), err.to_string()));
        }
        let flushed = self.writer.flush();
        if let Err(err) = &flushed {
            self.error = Some(io::Error::new(err.kind(), err.to_string()));
        }
        flushed
    }

    /// The first write error encountered, if the sink has failed.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Number of records dropped because the sink had failed (includes the
    /// record whose write first surfaced the error).
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for JsonLinesSink {
    fn emit_line(&mut self, line: &str) {
        // A sink that has failed (full disk, closed pipe, …) stays failed:
        // keep the first error for the caller, count what was lost, and let
        // the run finish rather than panicking mid-simulation.
        if self.error.is_some() {
            self.dropped += 1;
            return;
        }
        let written = self.writer.write_all(line.as_bytes());
        if let Err(err) = written.and_then(|()| self.writer.write_all(b"\n")) {
            // One warning, at the moment of failure; the latched error and
            // the `obs.sink.errors` / `obs.sink.dropped_records` counters
            // carry the rest of the story.
            eprintln!("dmm-obs: trace sink write failed ({err}); dropping all further records");
            self.error = Some(err);
            self.dropped += 1;
        }
    }

    fn dropped_records(&self) -> u64 {
        self.dropped
    }

    fn write_errors(&self) -> u64 {
        u64::from(self.error.is_some())
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.emit(&Json::Null); // must not panic
    }

    #[test]
    fn vec_sink_shares_lines() {
        let sink = VecSink::new();
        let mut writer = sink.handle();
        writer.emit(&Json::obj().field("a", 1u64));
        writer.emit(&Json::obj().field("b", 2u64));
        assert_eq!(sink.lines(), vec![r#"{"a":1}"#, r#"{"b":2}"#]);
        assert_eq!(sink.to_jsonl(), "{\"a\":1}\n{\"b\":2}\n");
    }

    /// A writer that accepts `limit` bytes, then fails every write.
    struct FailingWriter {
        written: usize,
        limit: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written + buf.len() > self.limit {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_sink_buffers_in_order_and_drops_newest_when_full() {
        let sink = StreamSink::bounded(2);
        let mut writer = sink.handle();
        writer.emit(&Json::obj().field("a", 1u64));
        writer.emit(&Json::obj().field("b", 2u64));
        writer.emit(&Json::obj().field("c", 3u64)); // ring full: dropped
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped_records(), 1);
        assert_eq!(TraceSink::dropped_records(&writer), 1);
        assert_eq!(sink.drain(), vec![r#"{"a":1}"#, r#"{"b":2}"#]);
        assert!(sink.is_empty());
        // Draining frees capacity; the drop counter is cumulative.
        writer.emit(&Json::obj().field("d", 4u64));
        assert_eq!(sink.drain(), vec![r#"{"d":4}"#]);
        assert_eq!(sink.dropped_records(), 1);
    }

    #[test]
    fn jsonl_sink_degrades_gracefully_on_write_error() {
        let mut sink = JsonLinesSink::new(Box::new(FailingWriter {
            written: 0,
            limit: 0,
        }));
        // A record larger than the BufWriter's internal buffer is written
        // through immediately, so the failure surfaces on this emit.
        let big = Json::obj().field("pad", "x".repeat(64 * 1024));
        sink.emit(&big);
        assert!(sink.error().is_some(), "first failing write is recorded");
        assert_eq!(sink.error().unwrap().kind(), io::ErrorKind::WriteZero);
        assert_eq!(sink.dropped_records(), 1);
        // Subsequent records are dropped without touching the dead writer
        // and without panicking.
        sink.emit(&Json::obj().field("a", 1u64));
        sink.emit(&Json::obj().field("b", 2u64));
        assert_eq!(sink.dropped_records(), 3);
        assert_eq!(TraceSink::dropped_records(&sink), 3);
        assert_eq!(sink.write_errors(), 1);
        assert_eq!(sink.error().unwrap().kind(), io::ErrorKind::WriteZero);
        // flush() surfaces the stored error instead of pretending success.
        let err = sink.flush().expect_err("flush must surface the failure");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn jsonl_sink_healthy_path_reports_no_error() {
        let mut sink = JsonLinesSink::new(Box::new(Vec::<u8>::new()));
        sink.emit(&Json::obj().field("ok", true));
        assert!(sink.error().is_none());
        assert_eq!(sink.dropped_records(), 0);
        sink.flush().expect("healthy flush");
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let path = std::env::temp_dir().join("dmm_obs_trace_test.jsonl");
        {
            let mut sink = JsonLinesSink::create(&path).expect("create");
            sink.emit(&Json::obj().field("t", "x"));
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, "{\"t\":\"x\"}\n");
        let _ = std::fs::remove_file(&path);
    }
}
