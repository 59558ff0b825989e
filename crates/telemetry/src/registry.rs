//! Per-link / per-flow metric registries.
//!
//! The [`Registry`] aggregates the event stream into counters and
//! fixed-bin [`Histogram`]s (from `hpn-sim`'s stats module), with
//! [`Ecdf`] snapshots for the distribution views experiments report.
//! It implements [`Recorder`], so it can sit directly behind the shared
//! handle and aggregate while (or instead of) a JSONL sink persists.

use std::collections::BTreeMap;

use hpn_sim::stats::{Ecdf, Histogram};
use hpn_sim::QuantileSketch;

use crate::event::{json_num, json_str, Event};
use crate::recorder::Recorder;

/// Cap on retained raw samples per distribution; beyond it new samples are
/// still counted but not retained (the histograms keep full fidelity).
const MAX_RAW_SAMPLES: usize = 1 << 20;

/// Aggregated per-link counters and distributions.
#[derive(Clone, Debug)]
pub struct LinkMetrics {
    /// Utilization samples observed via [`Event::LinkSample`].
    pub samples: u64,
    /// Histogram of utilization in `[0, 1)` (20 bins of 5%).
    pub utilization: Histogram,
    /// Peak queue occupancy seen, in bits.
    pub peak_queue_bits: f64,
    /// This link's queueing-delay distribution (`queue_bits /
    /// capacity_bps`, seconds) — the per-link attribution of the
    /// aggregate [`LatencyMetrics::queue_delay`] sketch, recorded from the
    /// same samples.
    pub queue_delay: QuantileSketch,
    /// Mean utilization accumulator.
    util_sum: f64,
    /// Physical up/down transitions.
    pub state_changes: u64,
}

impl Default for LinkMetrics {
    fn default() -> Self {
        LinkMetrics {
            samples: 0,
            utilization: Histogram::new(0.0, 1.0, 20),
            peak_queue_bits: 0.0,
            queue_delay: QuantileSketch::default(),
            util_sum: 0.0,
            state_changes: 0,
        }
    }
}

impl LinkMetrics {
    /// Mean of observed utilization samples (0.0 before any sample).
    pub fn mean_utilization(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.util_sum / self.samples as f64
        }
    }
}

/// Aggregated flow-population counters and distributions.
#[derive(Clone, Debug, Default)]
pub struct FlowMetrics {
    /// Flows injected.
    pub added: u64,
    /// Flows that ran to completion.
    pub completed: u64,
    /// Flows killed before completion (reroutes, teardown).
    pub killed: u64,
    /// Retained flow sizes in bits (capped at [`MAX_RAW_SAMPLES`]).
    sizes: Vec<f64>,
}

impl FlowMetrics {
    /// ECDF of flow sizes in bits.
    pub fn size_ecdf(&self) -> Ecdf {
        Ecdf::from_samples(self.sizes.clone())
    }
}

/// Aggregated recompute-scope counters (the telemetry view of
/// [`hpn_sim::RecomputeScope`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecomputeMetrics {
    /// Recompute events.
    pub events: u64,
    /// Cumulative flows touched.
    pub flows_touched: u64,
    /// Cumulative links touched.
    pub links_touched: u64,
    /// Cumulative active flows at each event.
    pub flows_active: u64,
}

/// Streaming latency tails: per-flow FCT and per-link queueing delay,
/// both in seconds, in mergeable [`QuantileSketch`]es (±1% relative
/// error, constant memory — see [`hpn_sim::sketch`]).
#[derive(Clone, Debug, Default)]
pub struct LatencyMetrics {
    /// Flow completion times of *completed* flows, from matching
    /// `FlowAdd`/`FlowRemove{completed: true}` pairs.
    pub fct: QuantileSketch,
    /// Per-link queueing delay (`queue_bits / capacity_bps`) from
    /// `LinkSample` events; samples on down links are skipped.
    pub queue_delay: QuantileSketch,
    /// Flow → `FlowAdd` timestamp, awaiting the matching remove. Flow ids
    /// restart at each `SimStart` (every segment owns its clock and its
    /// fluid net), so the map is cleared there.
    pending: BTreeMap<u64, u64>,
}

/// The registry: event counts plus per-link and per-flow aggregates.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counts: BTreeMap<&'static str, u64>,
    links: BTreeMap<u32, LinkMetrics>,
    flows: FlowMetrics,
    recompute: RecomputeMetrics,
    latency: LatencyMetrics,
    /// Collective step durations in seconds (capped).
    step_durs: Vec<f64>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one event into the aggregates.
    pub fn observe(&mut self, ev: &Event) {
        *self.counts.entry(ev.kind()).or_insert(0) += 1;
        match *ev {
            Event::SimStart { .. } => {
                // A new segment restarts flow ids at 0; in-flight flows of
                // the previous segment can never complete.
                self.latency.pending.clear();
            }
            Event::FlowAdd {
                t_ns,
                flow,
                size_bits,
                ..
            } => {
                self.flows.added += 1;
                if self.flows.sizes.len() < MAX_RAW_SAMPLES {
                    self.flows.sizes.push(size_bits);
                }
                self.latency.pending.insert(flow, t_ns);
            }
            Event::FlowRemove {
                t_ns,
                flow,
                completed,
            } => {
                let start = self.latency.pending.remove(&flow);
                if completed {
                    self.flows.completed += 1;
                    if let Some(start) = start {
                        self.latency
                            .fct
                            .record(t_ns.saturating_sub(start) as f64 / 1e9);
                    }
                } else {
                    self.flows.killed += 1;
                }
            }
            Event::RateRecompute {
                flows_touched,
                links_touched,
                flows_active,
                ..
            } => {
                self.recompute.events += 1;
                self.recompute.flows_touched += flows_touched;
                self.recompute.links_touched += links_touched;
                self.recompute.flows_active += flows_active;
            }
            Event::LinkState { link, .. } => {
                self.links.entry(link).or_default().state_changes += 1;
            }
            Event::LinkSample {
                link,
                utilization,
                queue_bits,
                capacity_bps,
                ..
            } => {
                let m = self.links.entry(link).or_default();
                m.samples += 1;
                m.util_sum += utilization;
                m.utilization.record(utilization.clamp(0.0, 1.0));
                m.peak_queue_bits = m.peak_queue_bits.max(queue_bits);
                if capacity_bps > 0.0 {
                    let delay = queue_bits / capacity_bps;
                    m.queue_delay.record(delay);
                    self.latency.queue_delay.record(delay);
                }
            }
            Event::CollectiveStep { dur_ns, .. } if self.step_durs.len() < MAX_RAW_SAMPLES => {
                self.step_durs.push(dur_ns as f64 / 1e9);
            }
            _ => {}
        }
    }

    /// Fold another registry's aggregates into this one.
    ///
    /// Merging is the reduction step of a parallel run: each worker
    /// aggregates its own cells into a private registry, and the
    /// coordinator merges them **in plan order**. Counters, histograms and
    /// peaks are order-independent; the retained raw-sample vectors
    /// (flow sizes, step durations) are concatenated in merge order under
    /// the same `MAX_RAW_SAMPLES` cap, so a plan-order merge retains
    /// exactly the samples a sequential run would have.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        for (&link, m) in &other.links {
            let mine = self.links.entry(link).or_default();
            mine.samples += m.samples;
            mine.util_sum += m.util_sum;
            mine.utilization.merge(&m.utilization);
            mine.peak_queue_bits = mine.peak_queue_bits.max(m.peak_queue_bits);
            mine.queue_delay.merge(&m.queue_delay);
            mine.state_changes += m.state_changes;
        }
        self.flows.added += other.flows.added;
        self.flows.completed += other.flows.completed;
        self.flows.killed += other.flows.killed;
        // Sketches merge exactly (bucket addition). Pending FlowAdds are
        // per-cell bookkeeping: a cell's unmatched flows were still in
        // flight when its last segment ended, so they contribute no FCT
        // either way and are dropped.
        self.latency.fct.merge(&other.latency.fct);
        self.latency.queue_delay.merge(&other.latency.queue_delay);
        let room = MAX_RAW_SAMPLES.saturating_sub(self.flows.sizes.len());
        self.flows
            .sizes
            .extend(other.flows.sizes.iter().take(room).copied());
        self.recompute.events += other.recompute.events;
        self.recompute.flows_touched += other.recompute.flows_touched;
        self.recompute.links_touched += other.recompute.links_touched;
        self.recompute.flows_active += other.recompute.flows_active;
        let room = MAX_RAW_SAMPLES.saturating_sub(self.step_durs.len());
        self.step_durs
            .extend(other.step_durs.iter().take(room).copied());
    }

    /// Count of events seen for a kind tag (see [`Event::kind`]).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// All `(kind, count)` pairs in lexicographic order.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Per-link aggregates for a fluid-net link, if it ever appeared.
    pub fn link(&self, link: u32) -> Option<&LinkMetrics> {
        self.links.get(&link)
    }

    /// Number of distinct links observed.
    pub fn links_observed(&self) -> usize {
        self.links.len()
    }

    /// Flow-population aggregates.
    pub fn flows(&self) -> &FlowMetrics {
        &self.flows
    }

    /// Recompute-scope aggregates.
    pub fn recompute(&self) -> RecomputeMetrics {
        self.recompute
    }

    /// ECDF of collective step durations (seconds).
    pub fn step_duration_ecdf(&self) -> Ecdf {
        Ecdf::from_samples(self.step_durs.clone())
    }

    /// Latency-tail aggregates (FCT and queue-delay sketches).
    pub fn latency(&self) -> &LatencyMetrics {
        &self.latency
    }

    /// The latency-tail summary alone, as deterministic JSON — the bytes
    /// the CI latency gate fingerprints. Quantiles come from integer
    /// bucket walks, so any plan-order merge grouping yields identical
    /// output (same guarantee as [`Registry::summary_json`]).
    ///
    /// Alongside the aggregate sketches, `queue_delay_links` attributes
    /// the queueing tail to links: the worst links by queue-delay p99
    /// (ties broken by link id), capped at
    /// [`Registry::QUEUE_DELAY_LINKS`] entries so full-scale manifests
    /// stay small. Links whose samples never saw queue are omitted.
    pub fn latency_summary_json(&self) -> String {
        format!(
            "{{\"fct\":{},\"queue_delay\":{},\"queue_delay_links\":{}}}",
            sketch_summary_json(&self.latency.fct),
            sketch_summary_json(&self.latency.queue_delay),
            self.queue_delay_links_json()
        )
    }

    /// Cap on per-link entries in the `queue_delay_links` attribution
    /// block of [`Registry::latency_summary_json`].
    pub const QUEUE_DELAY_LINKS: usize = 8;

    /// The worst links by queue-delay p99 — `(link, p99 seconds)`,
    /// descending, ties broken by ascending link id, at most
    /// [`Registry::QUEUE_DELAY_LINKS`] entries. Links with no positive
    /// queue-delay p99 are excluded.
    pub fn worst_queue_delay_links(&self) -> Vec<(u32, f64)> {
        let mut worst: Vec<(u32, f64)> = self
            .links
            .iter()
            .filter_map(|(&l, m)| match m.queue_delay.quantile(0.99) {
                Some(p99) if p99 > 0.0 => Some((l, p99)),
                _ => None,
            })
            .collect();
        worst.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("p99 is not NaN")
                .then(a.0.cmp(&b.0))
        });
        worst.truncate(Self::QUEUE_DELAY_LINKS);
        worst
    }

    fn queue_delay_links_json(&self) -> String {
        let mut s = String::from("[");
        for (i, (l, _)) in self.worst_queue_delay_links().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let sketch = &self.links[l].queue_delay;
            // Splice the link id into the sketch's own summary object.
            s.push_str(&format!(
                "{{\"link\":{l},{}",
                &sketch_summary_json(sketch)[1..]
            ));
        }
        s.push(']');
        s
    }

    /// Compact JSON summary, embedded in the run manifest.
    pub fn summary_json(&self) -> String {
        let mut s = String::from("{\"event_counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json_str(k)));
        }
        s.push_str("},");
        s.push_str(&format!(
            "\"flows\":{{\"added\":{},\"completed\":{},\"killed\":{}}},",
            self.flows.added, self.flows.completed, self.flows.killed
        ));
        s.push_str(&format!(
            "\"recompute\":{{\"events\":{},\"flows_touched\":{},\"links_touched\":{},\"flows_active\":{}}},",
            self.recompute.events,
            self.recompute.flows_touched,
            self.recompute.links_touched,
            self.recompute.flows_active
        ));
        s.push_str(&format!(
            "\"fct\":{},\"queue_delay\":{},",
            sketch_summary_json(&self.latency.fct),
            sketch_summary_json(&self.latency.queue_delay)
        ));
        let hottest = self
            .links
            .iter()
            .max_by(|a, b| {
                a.1.peak_queue_bits
                    .partial_cmp(&b.1.peak_queue_bits)
                    .expect("peaks are not NaN")
            })
            .map(|(&l, m)| (l, m.peak_queue_bits));
        match hottest {
            Some((l, peak)) => s.push_str(&format!(
                "\"links_observed\":{},\"hottest_link\":{l},\"hottest_peak_queue_bits\":{}}}",
                self.links.len(),
                json_num(peak)
            )),
            None => s.push_str(&format!("\"links_observed\":{}}}", self.links.len())),
        }
        s
    }
}

impl Recorder for Registry {
    fn record(&mut self, ev: &Event) {
        self.observe(ev);
    }
}

/// `{"count":N,"p50":...,"p90":...,"p99":...,"p999":...}` for a sketch
/// of seconds — quantiles are `null` while the sketch is empty.
fn sketch_summary_json(s: &QuantileSketch) -> String {
    let q = |q: f64| match s.quantile(q) {
        Some(v) => json_num(v),
        None => "null".to_string(),
    };
    format!(
        "{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
        s.count(),
        q(0.50),
        q(0.90),
        q(0.99),
        q(0.999)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_aggregates_flows_and_links() {
        let mut r = Registry::new();
        r.observe(&Event::FlowAdd {
            t_ns: 0,
            flow: 0,
            path_links: 2,
            size_bits: 1e9,
        });
        r.observe(&Event::FlowAdd {
            t_ns: 1,
            flow: 1,
            path_links: 2,
            size_bits: 3e9,
        });
        r.observe(&Event::FlowRemove {
            t_ns: 2,
            flow: 0,
            completed: true,
        });
        r.observe(&Event::FlowRemove {
            t_ns: 2,
            flow: 1,
            completed: false,
        });
        for i in 0..4u64 {
            r.observe(&Event::LinkSample {
                t_ns: 3 + i,
                link: 7,
                utilization: 0.25 * i as f64,
                queue_bits: 100.0 * i as f64,
                capacity_bps: 400e9,
            });
        }
        assert_eq!(r.count("flow_add"), 2);
        assert_eq!(r.latency().fct.count(), 1, "only the completed flow");
        assert_eq!(r.latency().queue_delay.count(), 4);
        assert_eq!(r.flows().added, 2);
        assert_eq!(r.flows().completed, 1);
        assert_eq!(r.flows().killed, 1);
        assert_eq!(r.flows().size_ecdf().median(), 1e9);
        let m = r.link(7).expect("link observed");
        assert_eq!(m.samples, 4);
        assert!((m.mean_utilization() - 0.375).abs() < 1e-12);
        assert_eq!(m.peak_queue_bits, 300.0);
        assert_eq!(r.links_observed(), 1);
        assert_eq!(r.link(8).map(|m| m.samples), None);
    }

    #[test]
    fn recompute_counters_accumulate() {
        let mut r = Registry::new();
        r.observe(&Event::RateRecompute {
            t_ns: 0,
            flows_touched: 10,
            links_touched: 3,
            flows_active: 100,
        });
        r.observe(&Event::RateRecompute {
            t_ns: 1,
            flows_touched: 2,
            links_touched: 1,
            flows_active: 100,
        });
        let rc = r.recompute();
        assert_eq!(rc.events, 2);
        assert_eq!(rc.flows_touched, 12);
        assert_eq!(rc.flows_active, 200);
    }

    fn burst(base_t: u64, link: u32) -> Vec<Event> {
        vec![
            Event::SimStart {
                label: format!("seg{link}"),
            },
            Event::FlowAdd {
                t_ns: base_t,
                flow: link as u64,
                path_links: 2,
                size_bits: 1e9 * (link + 1) as f64,
            },
            Event::LinkSample {
                t_ns: base_t + 1,
                link,
                utilization: 0.5,
                queue_bits: 10.0 * link as f64,
                capacity_bps: 100e9,
            },
            Event::FlowRemove {
                t_ns: base_t + 2,
                flow: link as u64,
                completed: link % 2 == 0,
            },
        ]
    }

    #[test]
    fn plan_order_merge_equals_sequential_aggregation() {
        let segments: Vec<Vec<Event>> = (0..4u32).map(|i| burst(100 * i as u64, i)).collect();

        // Sequential: one registry sees every event in plan order.
        let mut seq = Registry::new();
        for ev in segments.iter().flatten() {
            seq.observe(ev);
        }

        // Parallel: one registry per segment, merged in plan order.
        let mut merged = Registry::new();
        for seg in &segments {
            let mut worker = Registry::new();
            for ev in seg {
                worker.observe(ev);
            }
            merged.merge(&worker);
        }

        assert_eq!(
            seq.counts().collect::<Vec<_>>(),
            merged.counts().collect::<Vec<_>>()
        );
        assert_eq!(seq.flows().added, merged.flows().added);
        assert_eq!(seq.flows().completed, merged.flows().completed);
        assert_eq!(seq.flows().killed, merged.flows().killed);
        assert_eq!(
            seq.flows().size_ecdf().curve(&[0.0, 1e9, 2e9, 5e9]),
            merged.flows().size_ecdf().curve(&[0.0, 1e9, 2e9, 5e9])
        );
        assert_eq!(seq.links_observed(), merged.links_observed());
        for l in 0..4 {
            let (a, b) = (seq.link(l).unwrap(), merged.link(l).unwrap());
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.peak_queue_bits, b.peak_queue_bits);
            assert_eq!(a.mean_utilization(), b.mean_utilization());
            assert_eq!(a.utilization.bins(), b.utilization.bins());
        }
        assert_eq!(seq.summary_json(), merged.summary_json());
        assert_eq!(seq.latency_summary_json(), merged.latency_summary_json());
    }

    #[test]
    fn fct_is_measured_per_completed_flow() {
        let mut r = Registry::new();
        // Three flows: 1s, 2s, and a kill at 3s (not an FCT).
        for (flow, add, remove, completed) in [
            (0u64, 0u64, 1_000_000_000u64, true),
            (1, 0, 2_000_000_000, true),
            (2, 0, 3_000_000_000, false),
        ] {
            r.observe(&Event::FlowAdd {
                t_ns: add,
                flow,
                path_links: 1,
                size_bits: 1e9,
            });
            r.observe(&Event::FlowRemove {
                t_ns: remove,
                flow,
                completed,
            });
        }
        let fct = &r.latency().fct;
        assert_eq!(fct.count(), 2);
        let p999 = fct.quantile(0.999).unwrap();
        assert!((p999 - 2.0).abs() / 2.0 <= fct.alpha() + 1e-9, "{p999}");
    }

    #[test]
    fn sim_start_resets_flow_id_space() {
        let mut r = Registry::new();
        r.observe(&Event::FlowAdd {
            t_ns: 5_000_000_000,
            flow: 0,
            path_links: 1,
            size_bits: 1e9,
        });
        // New segment: clocks and flow ids restart. A remove for flow 0
        // at t=1s must not pair with the t=5s add of the old segment
        // (which would yield a bogus "negative" FCT).
        r.observe(&Event::SimStart {
            label: "seg2".into(),
        });
        r.observe(&Event::FlowRemove {
            t_ns: 1_000_000_000,
            flow: 0,
            completed: true,
        });
        assert_eq!(
            r.latency().fct.count(),
            0,
            "unmatched remove records nothing"
        );
        assert_eq!(r.flows().completed, 1, "population counters still tally");
    }

    #[test]
    fn down_link_samples_skip_queue_delay() {
        let mut r = Registry::new();
        r.observe(&Event::LinkSample {
            t_ns: 0,
            link: 1,
            utilization: 0.0,
            queue_bits: 5e9,
            capacity_bps: 0.0,
        });
        r.observe(&Event::LinkSample {
            t_ns: 1,
            link: 1,
            utilization: 0.5,
            queue_bits: 5e9,
            capacity_bps: 100e9,
        });
        let qd = &r.latency().queue_delay;
        assert_eq!(qd.count(), 1, "down-link sample has no finite delay");
        let p50 = qd.quantile(0.5).unwrap();
        assert!((p50 - 0.05).abs() / 0.05 <= qd.alpha() + 1e-9, "{p50}");
    }

    #[test]
    fn queue_delay_links_rank_worst_first_and_are_bounded() {
        let mut r = Registry::new();
        // More links than the cap, each with one sample; link id and delay
        // move in opposite directions so the p99 ordering is the reverse of
        // the id ordering.
        let n = Registry::QUEUE_DELAY_LINKS + 3;
        for i in 0..n {
            r.observe(&Event::LinkSample {
                t_ns: 0,
                link: i as u32,
                utilization: 0.5,
                queue_bits: 1e9 * (n - i) as f64,
                capacity_bps: 100e9,
            });
        }
        // A queue-free link never appears in the attribution.
        r.observe(&Event::LinkSample {
            t_ns: 0,
            link: 99,
            utilization: 0.9,
            queue_bits: 0.0,
            capacity_bps: 100e9,
        });
        let worst = r.worst_queue_delay_links();
        assert_eq!(worst.len(), Registry::QUEUE_DELAY_LINKS);
        let ids: Vec<u32> = worst.iter().map(|&(l, _)| l).collect();
        let expect: Vec<u32> = (0..Registry::QUEUE_DELAY_LINKS as u32).collect();
        assert_eq!(ids, expect, "worst queue delay belongs to lowest ids");
        assert!(
            worst.windows(2).all(|w| w[0].1 >= w[1].1),
            "p99 descending: {worst:?}"
        );
        let json = r.latency_summary_json();
        assert!(
            json.contains("\"queue_delay_links\":[{\"link\":0,"),
            "{json}"
        );
        assert!(!json.contains("\"link\":99"), "{json}");
    }

    #[test]
    fn queue_delay_links_survive_merge() {
        let (mut a, mut b) = (Registry::new(), Registry::new());
        for (reg, bits) in [(&mut a, 2e9), (&mut b, 8e9)] {
            reg.observe(&Event::LinkSample {
                t_ns: 0,
                link: 7,
                utilization: 0.5,
                queue_bits: bits,
                capacity_bps: 100e9,
            });
        }
        let mut seq = Registry::new();
        for bits in [2e9, 8e9] {
            seq.observe(&Event::LinkSample {
                t_ns: 0,
                link: 7,
                utilization: 0.5,
                queue_bits: bits,
                capacity_bps: 100e9,
            });
        }
        a.merge(&b);
        assert_eq!(a.latency_summary_json(), seq.latency_summary_json());
    }

    #[test]
    fn latency_summary_shapes_are_stable() {
        let r = Registry::new();
        assert_eq!(
            r.latency_summary_json(),
            "{\"fct\":{\"count\":0,\"p50\":null,\"p90\":null,\"p99\":null,\"p999\":null},\
             \"queue_delay\":{\"count\":0,\"p50\":null,\"p90\":null,\"p99\":null,\"p999\":null},\
             \"queue_delay_links\":[]}"
        );
        assert!(r.summary_json().contains("\"fct\":{\"count\":0"));
        assert!(r.summary_json().contains("\"queue_delay\":{\"count\":0"));
    }

    #[test]
    fn summary_json_is_well_formed_ish() {
        let mut r = Registry::new();
        r.observe(&Event::SimStart { label: "x".into() });
        let s = r.summary_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"sim_start\":1"));
        assert!(s.contains("\"links_observed\":0"));
    }
}
