//! In-memory event capture for small runs.
//!
//! An [`EventLog`] keeps every event a run emits, so a test or a fuzz
//! oracle can inspect the stream after the run; [`replay`] feeds a captured
//! stream into any other sink. Capture grows with run length, so the
//! experiment runner and `serve` never use it: a runner cell streams its
//! telemetry straight to the cell's own output as it runs.

use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::recorder::Recorder;

/// A clonable in-memory event capture.
///
/// Clones share one buffer (like [`SharedBuf`](crate::SharedBuf)), so a
/// handle can be kept outside the boxed [`Recorder`] a session carries,
/// and the captured events collected after the run with
/// [`take`](EventLog::take). The handle is `Send` (`Arc<Mutex<...>>`): a
/// log can travel with its session to a worker thread and back.
#[derive(Clone, Default)]
pub struct EventLog(Arc<Mutex<Vec<Event>>>);

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.0.lock().expect("event log").len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.0.lock().expect("event log").is_empty()
    }

    /// Copy of the captured events.
    pub fn events(&self) -> Vec<Event> {
        self.0.lock().expect("event log").clone()
    }

    /// Drain the captured events, leaving the log empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.0.lock().expect("event log"))
    }
}

impl Recorder for EventLog {
    fn record(&mut self, ev: &Event) {
        self.0.lock().expect("event log").push(ev.clone());
    }
}

/// Replay a captured stream into any sink (e.g. a
/// [`JsonlRecorder`](crate::JsonlRecorder), which re-checks per-segment
/// sim-time monotonicity, or a [`Registry`](crate::Registry), which
/// aggregates exactly as it would have live).
pub fn replay(events: &[Event], sink: &mut dyn Recorder) {
    for ev in events {
        sink.record(ev);
    }
    sink.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_captures_and_drains() {
        let log = EventLog::new();
        let mut rec: Box<dyn Recorder> = Box::new(log.clone());
        rec.record(&Event::SimStart { label: "a".into() });
        rec.record(&Event::LinkState {
            t_ns: 3,
            link: 0,
            up: false,
        });
        assert_eq!(log.len(), 2);
        let events = log.take();
        assert_eq!(events.len(), 2);
        assert!(log.is_empty(), "take drains the shared buffer");
        assert_eq!(events[1].t_ns(), 3);
    }
}
