//! Shared recorder handles.
//!
//! Simulations are built from several layers (fluid net, routing, transport,
//! collectives, faults) that all want to emit into *one* sink. A
//! [`SharedRecorder`] is a cheaply clonable, `Send`able handle to a single
//! boxed [`Recorder`]; the `enabled` flag is cached in the handle so hot
//! paths decide "skip instrumentation" with one bool load and no lock.
//!
//! The recorder reaches a simulation **explicitly**, through a
//! [`SimCtx`](crate::SimCtx) passed to the session constructor
//! (`ClusterSim::with_ctx`, `Scenario::build_with`). The previous
//! `tracing`-style ambient (thread-local) recorder shims — `install` /
//! `current` / `RecorderScope` — were deprecated when `SimCtx` landed and
//! have now been removed: thread-local state pinned every session to its
//! construction thread, which blocked `Send`-clean sessions, the parallel
//! allocator, and the long-running `serve` workers.

use std::sync::{Arc, Mutex};

use hpn_sim::{NetProbe, SimDuration, SimTime};

use crate::event::Event;
use crate::recorder::{NullRecorder, Recorder};

/// A clonable, `Send`able handle to one shared [`Recorder`].
#[derive(Clone)]
pub struct SharedRecorder {
    inner: Arc<Mutex<Box<dyn Recorder>>>,
    enabled: bool,
}

impl Default for SharedRecorder {
    fn default() -> Self {
        Self::null()
    }
}

impl SharedRecorder {
    /// A handle to a fresh [`NullRecorder`] — disabled, zero-cost.
    pub fn null() -> Self {
        Self::new(Box::new(NullRecorder))
    }

    /// Wrap a recorder in a shared handle. The sink's `enabled()` is
    /// sampled once here and cached.
    pub fn new(rec: Box<dyn Recorder>) -> Self {
        let enabled = rec.enabled();
        SharedRecorder {
            inner: Arc::new(Mutex::new(rec)),
            enabled,
        }
    }

    /// Whether instrumentation sites should construct events at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event, constructing it only when the sink is enabled.
    /// This is the call sites' workhorse: with the [`NullRecorder`]
    /// attached the closure never runs and the lock is never taken.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if self.enabled {
            self.inner.lock().expect("recorder sink").record(&build());
        }
    }

    /// Record an already-built event (when construction is free anyway).
    pub fn record(&self, ev: &Event) {
        if self.enabled {
            self.inner.lock().expect("recorder sink").record(ev);
        }
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        self.inner.lock().expect("recorder sink").flush();
    }

    /// A boxed [`NetProbe`] forwarding fluid-net callbacks into this
    /// recorder, for [`hpn_sim::FlowNet::set_probe`]. Callers should only
    /// attach it when [`SharedRecorder::enabled`] — a probe on a disabled
    /// recorder would pay event construction for nothing.
    pub fn net_probe(&self) -> Box<dyn NetProbe + Send> {
        Box::new(ProbeAdapter(self.clone()))
    }
}

/// Adapter: `hpn-sim` probe callbacks → telemetry events.
struct ProbeAdapter(SharedRecorder);

impl NetProbe for ProbeAdapter {
    fn flow_added(&mut self, t: SimTime, flow: u64, path_links: u32, size_bits: f64) {
        self.0.emit(|| Event::FlowAdd {
            t_ns: t.as_nanos(),
            flow,
            path_links,
            size_bits,
        });
    }

    fn flow_removed(&mut self, t: SimTime, flow: u64, fct: Option<SimDuration>) {
        self.0.emit(|| Event::FlowRemove {
            t_ns: t.as_nanos(),
            flow,
            fct_ns: fct.map(SimDuration::as_nanos),
        });
    }

    fn rate_recompute(
        &mut self,
        t: SimTime,
        flows_touched: u64,
        links_touched: u64,
        flows_active: u64,
    ) {
        self.0.emit(|| Event::RateRecompute {
            t_ns: t.as_nanos(),
            flows_touched,
            links_touched,
            flows_active,
        });
    }

    fn link_state(&mut self, t: SimTime, link: u32, up: bool) {
        self.0.emit(|| Event::LinkState {
            t_ns: t.as_nanos(),
            link,
            up,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{JsonlRecorder, SharedBuf};

    #[test]
    fn shared_recorder_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SharedRecorder>();
    }

    #[test]
    fn null_handle_never_runs_the_closure() {
        let rec = SharedRecorder::null();
        assert!(!rec.enabled());
        rec.emit(|| panic!("closure must not run when disabled"));
    }

    #[test]
    fn clones_share_one_sink() {
        let buf = SharedBuf::new();
        let rec = SharedRecorder::new(Box::new(JsonlRecorder::new(buf.clone())));
        let a = rec.clone();
        let b = rec;
        a.emit(|| Event::SimStart { label: "a".into() });
        b.emit(|| Event::SimStart { label: "b".into() });
        a.flush();
        assert_eq!(buf.text().lines().count(), 2);
    }

    #[test]
    fn probe_adapter_translates_callbacks() {
        let buf = SharedBuf::new();
        let rec = SharedRecorder::new(Box::new(JsonlRecorder::new(buf.clone())));
        let mut probe = rec.net_probe();
        probe.flow_added(SimTime::from_nanos(5), 3, 4, 1e9);
        probe.rate_recompute(SimTime::from_nanos(6), 2, 1, 10);
        probe.flow_removed(SimTime::from_nanos(7), 3, Some(SimDuration::from_nanos(2)));
        probe.link_state(SimTime::from_nanos(8), 9, false);
        rec.flush();
        let text = buf.text();
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| {
                let start = l.find(":\"").expect("ev field") + 2;
                &l[start..l[start..].find('"').expect("close quote") + start]
            })
            .collect();
        assert_eq!(
            kinds,
            ["flow_add", "rate_recompute", "flow_remove", "link_state"]
        );
        assert!(text.contains("\"link\":9,\"up\":false"));
        assert!(text.contains("\"flow\":3,\"fct_ns\":2"));
    }
}
