//! The [`Recorder`] trait and its two stock sinks.
//!
//! [`NullRecorder`] is the default: it reports `enabled() == false`, so
//! instrumentation sites skip event construction entirely — recording off
//! means zero work on the simulator's hot paths, not cheap work.
//! [`JsonlRecorder`] appends one JSON object per event to any
//! [`std::io::Write`] sink and enforces sim-time monotonicity within each
//! run segment (see [`Event::SimStart`]).

use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// A telemetry sink.
///
/// `Send` is a supertrait: recorders live inside a
/// [`SharedRecorder`](crate::SharedRecorder) handle, which sessions carry
/// across threads (experiment cells run on a worker pool), so every sink
/// must be movable with them.
pub trait Recorder: Send {
    /// Whether instrumentation sites should bother constructing events.
    /// Sites must treat `false` as "do nothing at all".
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event.
    fn record(&mut self, ev: &Event);

    /// Flush any buffered output (no-op for most sinks).
    fn flush(&mut self) {}
}

/// The zero-cost disabled sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: &Event) {}
}

/// JSON-lines sink: one event per line, in arrival order.
///
/// # Panics
/// `record` panics if an event's sim-time stamp goes backwards within a run
/// segment — the simulator clock is monotonic, so a backwards stamp means
/// an instrumentation bug, and silently reordered telemetry is worse than a
/// loud failure.
pub struct JsonlRecorder<W: Write + Send> {
    out: W,
    last_t_ns: u64,
    events: u64,
}

impl<W: Write + Send> JsonlRecorder<W> {
    /// Record into `out`.
    pub fn new(out: W) -> Self {
        JsonlRecorder {
            out,
            last_t_ns: 0,
            events: 0,
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Record one event, returning the sink's write error instead of
    /// panicking on it: a sink that can fail mid-run (a client socket)
    /// uses this, [`Recorder::record`] the rest.
    ///
    /// # Panics
    /// Panics if `ev` is earlier than the previous event of the segment.
    pub fn try_record(&mut self, ev: &Event) -> std::io::Result<()> {
        if matches!(ev, Event::SimStart { .. }) {
            self.last_t_ns = 0;
        } else {
            let t = ev.t_ns();
            assert!(
                t >= self.last_t_ns,
                "telemetry time went backwards: {} < {} at {:?}",
                t,
                self.last_t_ns,
                ev
            );
            self.last_t_ns = t;
        }
        self.events += 1;
        let line = ev.to_json();
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")
    }

    /// Finish and hand back the sink.
    pub fn into_inner(mut self) -> W {
        self.out.flush().expect("flush telemetry sink");
        self.out
    }
}

impl JsonlRecorder<std::io::BufWriter<std::fs::File>> {
    /// Record into a freshly created file.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlRecorder::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn record(&mut self, ev: &Event) {
        self.try_record(ev).expect("write telemetry");
    }

    fn flush(&mut self) {
        self.out.flush().expect("flush telemetry");
    }
}

/// A clonable in-memory byte sink, for tests and for callers that want to
/// inspect the JSONL stream after the recorder has been boxed away.
/// Clones share one buffer; the handle is `Send` (`Arc<Mutex<...>>`) so a
/// recorder built on it can travel with its session across threads.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of the bytes written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("shared buffer").clone()
    }

    /// The buffer as UTF-8 (telemetry JSONL is always valid UTF-8).
    pub fn text(&self) -> String {
        String::from_utf8(self.bytes()).expect("JSONL is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("shared buffer").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_at(t_ns: u64) -> Event {
        Event::LinkState {
            t_ns,
            link: 0,
            up: true,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(&ev_at(1)); // no-op, no panic
    }

    #[test]
    fn jsonl_preserves_event_order() {
        let buf = SharedBuf::new();
        let mut r = JsonlRecorder::new(buf.clone());
        r.record(&Event::SimStart { label: "a".into() });
        r.record(&ev_at(5));
        r.record(&ev_at(5)); // equal stamps are fine (same-instant events)
        r.record(&ev_at(9));
        assert_eq!(r.events(), 4);
        let lines: Vec<String> = buf.text().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("sim_start"));
        assert!(lines[1].contains("\"t_ns\":5"));
        assert!(lines[3].contains("\"t_ns\":9"));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn jsonl_rejects_backwards_time() {
        let mut r = JsonlRecorder::new(Vec::new());
        r.record(&ev_at(10));
        r.record(&ev_at(9));
    }

    #[test]
    fn sim_start_resets_the_clock() {
        let mut r = JsonlRecorder::new(Vec::new());
        r.record(&ev_at(10));
        r.record(&Event::SimStart { label: "b".into() });
        r.record(&ev_at(1)); // new segment: earlier stamp is legal
        assert_eq!(r.events(), 3);
    }

    #[test]
    fn jsonl_escapes_labels() {
        let buf = SharedBuf::new();
        let mut r = JsonlRecorder::new(buf.clone());
        r.record(&Event::SimStart {
            label: "quote\" backslash\\ newline\n".into(),
        });
        let text = buf.text();
        assert!(text.contains("quote\\\" backslash\\\\ newline\\n"));
        assert_eq!(text.lines().count(), 1, "escaped newline stays on one line");
    }
}
