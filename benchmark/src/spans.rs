//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, request}`; spans of one
//! operation (an iteration, a fabric round, a served request) share the
//! `request` id. A disabled [`Tracer`] records nothing and reads no clock,
//! which is how the untraced runs that produce end-to-end numbers pay
//! nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::quote;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    /// Events this span aggregates (e.g. rate recomputes folded into one
    /// child span per iteration); 1 for an ordinary span.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Nanoseconds since the tracer started (0 when disabled).
    pub fn now(&self) -> u64 {
        self.origin.map_or(0, |o| {
            u64::try_from(o.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Nanoseconds from the tracer's start to `t` (0 when disabled or when
    /// `t` is earlier).
    pub fn at(&self, t: Instant) -> u64 {
        self.origin.map_or(0, |o| {
            u64::try_from(t.saturating_duration_since(o).as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now();
        self.record(name, now, now, parent, request, 1)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
        }
    }

    /// Record a finished span (or an aggregate of `count` events).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
        count: u64,
    ) -> SpanId {
        if self.enabled() {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request,
                count,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the part
    /// of its interval its children cover (overlapping children count
    /// once; a child's time outside its parent does not count).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent.filter(|&p| p < self.spans.len()) {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name).or_insert(0) += s.duration_ns() - covered;
        }
        out
    }

    /// The spans and per-name self times as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"count\":{}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.request,
                s.count
            ));
        }
        out.push_str("\n],\"self_ns\":{");
        for (i, (name, ns)) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n{}:{ns}", quote(name)));
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children_inside_the_parent() {
        let mut t = Tracer::new(true);
        let root = t.record("iteration", 100, 200, None, 0, 1);
        // Two overlapping children cover [110, 150) = 40 ns once.
        t.record("alloc", 110, 140, Some(root), 0, 3);
        t.record("alloc", 120, 150, Some(root), 0, 1);
        // A child sticking out of its parent only counts inside it.
        let late = t.record("stream", 190, 260, Some(root), 0, 1);
        t.record("write", 200, 210, Some(late), 0, 1);
        let st = t.self_times();
        assert_eq!(st["iteration"], 100 - 40 - 10);
        assert_eq!(st["alloc"], 30 + 30);
        assert_eq!(st["stream"], 70 - 10);
        assert_eq!(st["write"], 10);
        let total: u64 = st.values().sum();
        assert!(total >= 100, "self times cover the root at least once");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.start("x", None, 0);
        t.end(id);
        assert_eq!(t.now(), 0);
        assert!(t.spans().is_empty());
        assert!(t.self_times().is_empty());
    }
}
