//! Typed telemetry events with simulated-time stamps.
//!
//! Every event carries the simulation clock (`t_ns`, nanoseconds) of the
//! run segment it belongs to. A run segment starts with [`Event::SimStart`]
//! — experiments routinely build several independent `ClusterSim`s (e.g.
//! Clos vs dual-plane ablations), each starting back at t=0, so sinks that
//! enforce time monotonicity reset at each `SimStart`.

use hpn_sim::SimTime;

/// One telemetry event. Integer ids are the simulator's own handles:
/// `flow` is a flow's id ([`hpn_sim::FlowHandle::id`]), `link` a
/// [`hpn_sim::LinkId`] index into the fluid net, `rlink` a routing-layer
/// [`hpn_topology` `LinkIdx`] index, `conn`/`job` the transport/collective
/// indices.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A new simulation (run segment) attached to the recorder. Resets the
    /// monotonic-clock expectation of sinks.
    SimStart {
        /// Label identifying the segment (e.g. the experiment id).
        label: String,
    },
    /// A flow was injected into the fluid net.
    FlowAdd {
        /// Simulated time in nanoseconds.
        t_ns: u64,
        /// Flow handle.
        flow: u64,
        /// Number of links on the flow's path.
        path_links: u32,
        /// Flow size in bits.
        size_bits: f64,
    },
    /// A flow left the fluid net.
    FlowRemove {
        /// Simulated time in nanoseconds.
        t_ns: u64,
        /// Flow handle.
        flow: u64,
        /// The flow's completion time in nanoseconds, as measured by the
        /// fluid net when the flow completed; `None` when it was killed
        /// (reroute, job teardown). JSONL: `"fct_ns":N` or `"fct_ns":null`.
        fct_ns: Option<u64>,
    },
    /// The rate allocator recomputed fair shares. Scope counters are the
    /// *delta* of this recompute: how many flows/links it touched and how
    /// many flows were active (the dense baseline cost).
    RateRecompute {
        /// Simulated time in nanoseconds.
        t_ns: u64,
        /// Flows whose rate was recomputed.
        flows_touched: u64,
        /// Links whose allocation state was recomputed.
        links_touched: u64,
        /// Flows active at the recompute.
        flows_active: u64,
    },
    /// A fluid-net link changed physical state.
    LinkState {
        /// Simulated time in nanoseconds.
        t_ns: u64,
        /// Fluid-net link index.
        link: u32,
        /// New physical state.
        up: bool,
    },
    /// The routing view of a link converged to a new state (BGP withdrawal
    /// propagated / route restored).
    RouteConverge {
        /// Simulated time in nanoseconds.
        t_ns: u64,
        /// Routing-layer link index.
        rlink: u32,
        /// New routed state.
        up: bool,
    },
    /// A RePaC disjoint-path search ran (connection establishment or route
    /// refresh).
    PathSearch {
        /// Simulated time in nanoseconds.
        t_ns: u64,
        /// Candidate routes evaluated.
        candidates: u64,
        /// Pairwise-disjoint paths selected.
        found: u32,
    },
    /// An in-flight message switched paths after a failure (`rerouted`) or
    /// found no healthy path and stalled.
    PathSwitch {
        /// Simulated time in nanoseconds.
        t_ns: u64,
        /// Transport connection index.
        conn: u32,
        /// True: transparently re-issued over a surviving path. False:
        /// stalled awaiting repair.
        rerouted: bool,
    },
    /// Periodic utilization/queue sample of one link.
    LinkSample {
        /// Simulated time in nanoseconds.
        t_ns: u64,
        /// Fluid-net link index.
        link: u32,
        /// Allocated rate over nominal capacity, in `[0, 1]`.
        utilization: f64,
        /// Queue occupancy in bits.
        queue_bits: f64,
        /// Effective link capacity in bits/s (zero when the link is down);
        /// turns `queue_bits` into a queueing *delay* downstream.
        capacity_bps: f64,
    },
    /// A collective step (one op-graph job) completed.
    CollectiveStep {
        /// Simulated time in nanoseconds (completion instant).
        t_ns: u64,
        /// Job index within its runner.
        job: u32,
        /// Wall-clock duration of the step in nanoseconds.
        dur_ns: u64,
    },
}

impl Event {
    /// The event's sim-time stamp in nanoseconds. `SimStart` marks the
    /// beginning of a fresh clock and reports 0.
    pub fn t_ns(&self) -> u64 {
        match *self {
            Event::SimStart { .. } => 0,
            Event::FlowAdd { t_ns, .. }
            | Event::FlowRemove { t_ns, .. }
            | Event::RateRecompute { t_ns, .. }
            | Event::LinkState { t_ns, .. }
            | Event::RouteConverge { t_ns, .. }
            | Event::PathSearch { t_ns, .. }
            | Event::PathSwitch { t_ns, .. }
            | Event::LinkSample { t_ns, .. }
            | Event::CollectiveStep { t_ns, .. } => t_ns,
        }
    }

    /// The event's sim-time stamp as a [`SimTime`].
    pub fn time(&self) -> SimTime {
        SimTime::from_nanos(self.t_ns())
    }

    /// Stable snake_case tag used as the JSONL `ev` field and as the
    /// registry's event-count key.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SimStart { .. } => "sim_start",
            Event::FlowAdd { .. } => "flow_add",
            Event::FlowRemove { .. } => "flow_remove",
            Event::RateRecompute { .. } => "rate_recompute",
            Event::LinkState { .. } => "link_state",
            Event::RouteConverge { .. } => "route_converge",
            Event::PathSearch { .. } => "path_search",
            Event::PathSwitch { .. } => "path_switch",
            Event::LinkSample { .. } => "link_sample",
            Event::CollectiveStep { .. } => "collective_step",
        }
    }

    /// One JSON object (no trailing newline) — the JSONL wire format.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"ev\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            Event::SimStart { label } => {
                s.push_str(",\"label\":");
                s.push_str(&json_str(label));
            }
            Event::FlowAdd {
                t_ns,
                flow,
                path_links,
                size_bits,
            } => {
                push_t(&mut s, *t_ns);
                s.push_str(&format!(
                    ",\"flow\":{flow},\"path_links\":{path_links},\"size_bits\":{}",
                    json_num(*size_bits)
                ));
            }
            Event::FlowRemove { t_ns, flow, fct_ns } => {
                push_t(&mut s, *t_ns);
                match fct_ns {
                    Some(fct) => s.push_str(&format!(",\"flow\":{flow},\"fct_ns\":{fct}")),
                    None => s.push_str(&format!(",\"flow\":{flow},\"fct_ns\":null")),
                }
            }
            Event::RateRecompute {
                t_ns,
                flows_touched,
                links_touched,
                flows_active,
            } => {
                push_t(&mut s, *t_ns);
                s.push_str(&format!(
                    ",\"flows_touched\":{flows_touched},\"links_touched\":{links_touched},\"flows_active\":{flows_active}"
                ));
            }
            Event::LinkState { t_ns, link, up } => {
                push_t(&mut s, *t_ns);
                s.push_str(&format!(",\"link\":{link},\"up\":{up}"));
            }
            Event::RouteConverge { t_ns, rlink, up } => {
                push_t(&mut s, *t_ns);
                s.push_str(&format!(",\"rlink\":{rlink},\"up\":{up}"));
            }
            Event::PathSearch {
                t_ns,
                candidates,
                found,
            } => {
                push_t(&mut s, *t_ns);
                s.push_str(&format!(",\"candidates\":{candidates},\"found\":{found}"));
            }
            Event::PathSwitch {
                t_ns,
                conn,
                rerouted,
            } => {
                push_t(&mut s, *t_ns);
                s.push_str(&format!(",\"conn\":{conn},\"rerouted\":{rerouted}"));
            }
            Event::LinkSample {
                t_ns,
                link,
                utilization,
                queue_bits,
                capacity_bps,
            } => {
                push_t(&mut s, *t_ns);
                s.push_str(&format!(
                    ",\"link\":{link},\"utilization\":{},\"queue_bits\":{},\"capacity_bps\":{}",
                    json_num(*utilization),
                    json_num(*queue_bits),
                    json_num(*capacity_bps)
                ));
            }
            Event::CollectiveStep { t_ns, job, dur_ns } => {
                push_t(&mut s, *t_ns);
                s.push_str(&format!(",\"job\":{job},\"dur_ns\":{dur_ns}"));
            }
        }
        s.push('}');
        s
    }
}

fn push_t(s: &mut String, t_ns: u64) {
    s.push_str(&format!(",\"t_ns\":{t_ns}"));
}

/// Escape a string as a JSON string literal.
pub(crate) fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an f64 as a JSON number (`{}` on f64 round-trips; non-finite
/// values have no JSON representation and become null).
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let ev = Event::FlowAdd {
            t_ns: 5,
            flow: 1,
            path_links: 3,
            size_bits: 8e9,
        };
        assert_eq!(ev.kind(), "flow_add");
        assert_eq!(ev.t_ns(), 5);
        assert_eq!(ev.time(), SimTime::from_nanos(5));
    }

    #[test]
    fn json_lines_are_self_describing() {
        let ev = Event::RateRecompute {
            t_ns: 1_000_000_000,
            flows_touched: 12,
            links_touched: 4,
            flows_active: 64,
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"rate_recompute\",\"t_ns\":1000000000,\"flows_touched\":12,\
             \"links_touched\":4,\"flows_active\":64}"
        );
        for (fct_ns, tail) in [(Some(503_317), "503317"), (None, "null")] {
            let ev = Event::FlowRemove {
                t_ns: 9,
                flow: 2,
                fct_ns,
            };
            assert_eq!(
                ev.to_json(),
                format!("{{\"ev\":\"flow_remove\",\"t_ns\":9,\"flow\":2,\"fct_ns\":{tail}}}")
            );
        }
    }

    #[test]
    fn labels_are_escaped() {
        let ev = Event::SimStart {
            label: "a\"b\\c\nd\u{1}".into(),
        };
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"sim_start\",\"label\":\"a\\\"b\\\\c\\nd\\u0001\"}"
        );
    }

    #[test]
    fn non_finite_samples_become_null() {
        let ev = Event::LinkSample {
            t_ns: 1,
            link: 0,
            utilization: f64::NAN,
            queue_bits: 0.5,
            capacity_bps: 4e11,
        };
        assert!(ev.to_json().contains("\"utilization\":null"));
        assert!(ev.to_json().contains("\"queue_bits\":0.5"));
        assert!(ev.to_json().contains("\"capacity_bps\":400000000000"));
    }
}
