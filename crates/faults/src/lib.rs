//! # hpn-faults — failure injection at production rates
//!
//! §2.3's operational statistics drive everything here:
//!
//! * 0.057% of NIC-ToR links fail per month (Fig 5),
//! * 0.051% of ToR switches hit critical errors and crash per month,
//! * 5K–60K link-flapping events per day across the operating clusters,
//! * under those rates a single large training job sees 1–2 crashes a
//!   month on a single-ToR fabric.
//!
//! [`FaultRates`] holds the rates, [`plan`] expands them into a
//! deterministic, seeded event schedule over a concrete fabric, and
//! [`schedule`] arms a schedule as timers on a
//! [`hpn_transport::ClusterSim`], so it replays while the cluster runs.
//! The fig05 experiment also uses the plan generator standalone to
//! regenerate the monthly failure-ratio series.

#![warn(missing_docs)]

use hpn_sim::{SimDuration, SimTime, Xoshiro256};
use hpn_topology::{Fabric, LinkIdx, NodeId};
use hpn_transport::ClusterSim;

/// Production fault rates.
#[derive(Clone, Copy, Debug)]
pub struct FaultRates {
    /// Probability a given NIC-ToR link fails in one month.
    pub link_fail_per_month: f64,
    /// Probability a given ToR crashes in one month.
    pub tor_crash_per_month: f64,
    /// Mean time to repair a failed link.
    pub link_repair: SimDuration,
    /// Mean time to replace/recover a crashed ToR.
    pub tor_repair: SimDuration,
    /// Flapping events per link per day.
    pub flaps_per_link_day: f64,
    /// Duration of one flap (link down then immediately back).
    pub flap_duration: SimDuration,
}

impl FaultRates {
    /// The paper's measured rates (§2.3, Fig 5). The flap rate is the
    /// cluster-wide 5K–60K/day spread over the O(100K) links of a large
    /// deployment — roughly 0.3 flaps per link per day.
    pub fn paper() -> Self {
        FaultRates {
            link_fail_per_month: 0.00057,
            tor_crash_per_month: 0.00051,
            link_repair: SimDuration::from_secs(2 * 3600),
            tor_repair: SimDuration::from_secs(12 * 3600),
            flaps_per_link_day: 0.3,
            flap_duration: SimDuration::from_millis(800),
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// A NIC-ToR cable fails (both directions) and is repaired later.
    LinkFailure {
        /// The NIC→ToR uplink identifying the cable.
        link: LinkIdx,
        /// Repair completes this long after the failure.
        repair_after: SimDuration,
    },
    /// Short flap of a NIC-ToR cable.
    LinkFlap {
        /// The NIC→ToR uplink identifying the cable.
        link: LinkIdx,
        /// Flap duration.
        duration: SimDuration,
    },
    /// A ToR crashes: every cable on it goes down until repair.
    TorCrash {
        /// The crashed switch.
        tor: NodeId,
        /// Repair completes this long after the crash.
        repair_after: SimDuration,
    },
}

/// A fault with its occurrence time.
#[derive(Clone, Copy, Debug)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Total order for schedules: time, then fault class (link failure <
    /// flap < ToR crash), then target id. Same-instant events on different
    /// elements thus sort the same way regardless of generation order —
    /// schedule bytes depend only on the seed, never on container
    /// iteration order. Public so external schedule builders (e.g. the
    /// fuzz harness) can guarantee the same replay determinism.
    pub fn sort_key(&self) -> (SimTime, u8, u32) {
        match self.kind {
            FaultKind::LinkFailure { link, .. } => (self.at, 0, link.0),
            FaultKind::LinkFlap { link, .. } => (self.at, 1, link.0),
            FaultKind::TorCrash { tor, .. } => (self.at, 2, tor.0),
        }
    }

    /// How long the fault lasts: repair delay, or flap duration.
    pub fn duration(&self) -> SimDuration {
        match self.kind {
            FaultKind::LinkFailure { repair_after, .. }
            | FaultKind::TorCrash { repair_after, .. } => repair_after,
            FaultKind::LinkFlap { duration, .. } => duration,
        }
    }
}

/// All NIC→ToR uplinks of a fabric (the single-point-of-failure class).
pub fn access_links(fabric: &Fabric) -> Vec<LinkIdx> {
    let mut v = Vec::new();
    for h in &fabric.hosts {
        for per_nic in &h.nic_up {
            for l in per_nic.iter().flatten() {
                v.push(*l);
            }
        }
    }
    v
}

/// Generate a deterministic fault schedule over `horizon`, Poisson per
/// link/ToR at the configured rates.
pub fn plan(
    fabric: &Fabric,
    rates: &FaultRates,
    horizon: SimDuration,
    seed: u64,
) -> Vec<FaultEvent> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut events: Vec<FaultEvent> = Vec::new();
    let horizon_s = horizon.as_secs_f64();
    const MONTH_S: f64 = 30.0 * 24.0 * 3600.0;

    // Hard link failures on access cables.
    let link_mtbf = MONTH_S / rates.link_fail_per_month.max(1e-12);
    for l in access_links(fabric) {
        let mut t = rng.exponential(link_mtbf);
        while t < horizon_s {
            events.push(FaultEvent {
                at: SimTime::from_secs_f64(t),
                kind: FaultKind::LinkFailure {
                    link: l,
                    repair_after: rates.link_repair,
                },
            });
            t += rates.link_repair.as_secs_f64() + rng.exponential(link_mtbf);
        }
    }
    // Flaps.
    if rates.flaps_per_link_day > 0.0 {
        let flap_mtbf = 24.0 * 3600.0 / rates.flaps_per_link_day;
        for l in access_links(fabric) {
            let mut t = rng.exponential(flap_mtbf);
            while t < horizon_s {
                events.push(FaultEvent {
                    at: SimTime::from_secs_f64(t),
                    kind: FaultKind::LinkFlap {
                        link: l,
                        duration: rates.flap_duration,
                    },
                });
                t += rng.exponential(flap_mtbf);
            }
        }
    }
    // ToR crashes.
    let tor_mtbf = MONTH_S / rates.tor_crash_per_month.max(1e-12);
    for &tor in &fabric.tors {
        let mut t = rng.exponential(tor_mtbf);
        while t < horizon_s {
            events.push(FaultEvent {
                at: SimTime::from_secs_f64(t),
                kind: FaultKind::TorCrash {
                    tor,
                    repair_after: rates.tor_repair,
                },
            });
            t += rates.tor_repair.as_secs_f64() + rng.exponential(tor_mtbf);
        }
    }
    events.sort_unstable_by_key(FaultEvent::sort_key);
    events
}

/// Replay a fault schedule on the simulator's own timeline: every fault
/// becomes cable timers, failing at `at` and repairing after
/// [`FaultEvent::duration`]. The caller then drives the cluster as usual
/// and faults strike mid-run exactly when the schedule says. A ToR crash
/// schedules every cable on the switch; cable events take down both
/// directions, so its out-links cover them all.
///
/// Timers fire in (instant, scheduling) order. At one instant, a repair
/// whose fault comes earlier in `faults` therefore fires before a failure
/// that comes later, even on the same cable. Link state is boolean: the
/// first repair to fire brings a cable back, whatever else failed it.
pub fn schedule(cs: &mut ClusterSim, faults: &[FaultEvent]) {
    for ev in faults {
        let repair_at = ev.at + ev.duration();
        let cables: Vec<LinkIdx> = match ev.kind {
            FaultKind::LinkFailure { link, .. } | FaultKind::LinkFlap { link, .. } => vec![link],
            FaultKind::TorCrash { tor, .. } => cs.fabric.net.out_links(tor).collect(),
        };
        for link in cables {
            cs.schedule_cable_event(ev.at, link, false);
            cs.schedule_cable_event(repair_at, link, true);
        }
    }
}

/// Monthly failure-ratio statistics (Fig 5): fraction of access links that
/// failed in each 30-day month of the schedule.
pub fn monthly_link_failure_ratio(
    schedule: &[FaultEvent],
    total_links: usize,
    months: usize,
) -> Vec<f64> {
    let mut counts = vec![0usize; months];
    for e in schedule {
        if let FaultKind::LinkFailure { .. } = e.kind {
            let m = (e.at.as_secs_f64() / (30.0 * 24.0 * 3600.0)) as usize;
            if m < months {
                counts[m] += 1;
            }
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 / total_links as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpn_routing::HashMode;
    use hpn_topology::HpnConfig;
    use hpn_transport::{ClusterApp, MessageDone};

    struct Nop;
    impl ClusterApp for Nop {
        fn on_message_complete(&mut self, _: &mut ClusterSim, _: MessageDone) {}
    }

    /// Arm `faults` on `cs` and run it, with no traffic, until `until`.
    fn replay_until(cs: &mut ClusterSim, faults: &[FaultEvent], until: SimTime) {
        schedule(cs, faults);
        cs.run(&mut Nop, until);
    }

    /// The JSONL `link_state` line for `link` changing state at `t`.
    fn link_state_line(t: SimTime, link: LinkIdx, up: bool) -> String {
        format!(
            r#"{{"ev":"link_state","t_ns":{},"link":{},"up":{up}}}"#,
            t.as_nanos(),
            link.0
        )
    }

    /// How many `link_state` lines report a link going `up` (or down).
    fn link_state_count(text: &str, up: bool) -> usize {
        let tail = format!(r#""up":{up}}}"#);
        text.lines()
            .filter(|l| l.starts_with(r#"{"ev":"link_state""#) && l.ends_with(&tail))
            .count()
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let f = HpnConfig::tiny().build();
        let horizon = SimDuration::from_secs(90 * 24 * 3600);
        let a = plan(&f, &FaultRates::paper(), horizon, 1);
        let b = plan(&f, &FaultRates::paper(), horizon, 1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.kind, y.kind);
        }
        for w in a.windows(2) {
            assert!(w[0].sort_key() <= w[1].sort_key(), "total order");
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let f = HpnConfig::tiny().build();
        // High rates so both schedules are non-empty with near-certainty.
        let mut rates = FaultRates::paper();
        rates.link_fail_per_month = 0.5;
        let horizon = SimDuration::from_secs(90 * 24 * 3600);
        let a = plan(&f, &rates, horizon, 1);
        let b = plan(&f, &rates, horizon, 2);
        assert!(!a.is_empty() && !b.is_empty());
        let times = |s: &[FaultEvent]| s.iter().map(|e| e.at).collect::<Vec<_>>();
        assert_ne!(times(&a), times(&b), "seed must steer the schedule");
    }

    /// Build a context recording JSONL into the returned shared buffer.
    fn jsonl_ctx() -> (hpn_telemetry::SimCtx, hpn_telemetry::SharedBuf) {
        let buf = hpn_telemetry::SharedBuf::new();
        let ctx = hpn_telemetry::SimCtx::new().with_recorder(hpn_telemetry::SharedRecorder::new(
            Box::new(hpn_telemetry::JsonlRecorder::new(buf.clone())),
        ));
        (ctx, buf)
    }

    /// Run a seeded fault scenario recording into an explicit per-run
    /// context and return the telemetry bytes.
    fn telemetry_of_run(seed: u64) -> String {
        let (ctx, buf) = jsonl_ctx();
        let f = HpnConfig::tiny().build();
        let mut cs = ClusterSim::with_ctx(f, HashMode::Polarized, &ctx);
        let mut rates = FaultRates::paper();
        rates.link_fail_per_month = 0.5;
        rates.link_repair = SimDuration::from_secs(3600);
        let horizon = SimDuration::from_secs(30 * 24 * 3600);
        let sched = plan(&cs.fabric, &rates, horizon, seed);
        replay_until(&mut cs, &sched, SimTime::ZERO + horizon);
        cs.telemetry().flush();
        buf.text()
    }

    #[test]
    fn identical_seeds_produce_identical_telemetry() {
        let a = telemetry_of_run(11);
        let b = telemetry_of_run(11);
        assert!(!a.is_empty());
        assert!(link_state_count(&a, false) > 0, "faults recorded");
        assert!(link_state_count(&a, true) > 0, "repairs recorded");
        assert_eq!(a, b, "same seed must replay byte-identically");
        let c = telemetry_of_run(12);
        assert_ne!(a, c, "different seed must perturb the event stream");
    }

    #[test]
    fn monthly_ratio_matches_configured_rate() {
        // Use a large synthetic link population by scaling rates up on the
        // tiny fabric and checking the mean ratio statistically.
        let f = HpnConfig::tiny().build();
        let links = access_links(&f).len();
        let mut rates = FaultRates::paper();
        rates.flaps_per_link_day = 0.0;
        rates.tor_crash_per_month = 0.0;
        rates.link_fail_per_month = 0.1; // high rate for statistics
        let months = 24usize;
        let horizon = SimDuration::from_secs(months as u64 * 30 * 24 * 3600);
        let sched = plan(&f, &rates, horizon, 7);
        let ratios = monthly_link_failure_ratio(&sched, links, months);
        let mean: f64 = ratios.iter().sum::<f64>() / months as f64;
        assert!(
            (mean - 0.1).abs() < 0.03,
            "mean monthly ratio {mean} vs configured 0.1"
        );
    }

    #[test]
    fn access_links_cover_every_wired_port() {
        let f = HpnConfig::tiny().build();
        // 10 hosts × 2 rails × 2 ports.
        assert_eq!(access_links(&f).len(), 40);
        let mut single = HpnConfig::tiny();
        single.dual_tor = false;
        let f1 = single.build();
        assert_eq!(access_links(&f1).len(), 20);
    }

    #[test]
    fn schedule_fails_and_repairs() {
        let f = HpnConfig::tiny().build();
        let mut cs = ClusterSim::new(f, HashMode::Polarized);
        let link = cs.fabric.hosts[0].nic_up[0][0].unwrap();
        let faults = vec![FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::LinkFailure {
                link,
                repair_after: SimDuration::from_secs(2),
            },
        }];
        replay_until(&mut cs, &faults, SimTime::from_secs(2));
        // Physically down, and routing has converged on it.
        assert!(!cs.net.link(link.flow_link()).up);
        assert!(!cs.health.is_up(link));
        cs.run(&mut Nop, SimTime::from_secs(10));
        assert_eq!(cs.now(), SimTime::from_secs(10));
        // Physically up again and routing view converged.
        assert!(cs.net.link(link.flow_link()).up);
        assert!(cs.health.is_up(link));
    }

    #[test]
    fn tor_crash_downs_every_port_and_repairs() {
        let f = HpnConfig::tiny().build();
        let mut cs = ClusterSim::new(f, HashMode::Polarized);
        let tor = cs.fabric.tors[0];
        let faults = vec![FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::TorCrash {
                tor,
                repair_after: SimDuration::from_secs(3600),
            },
        }];
        let ports: Vec<LinkIdx> = cs
            .fabric
            .net
            .out_links(tor)
            .chain(cs.fabric.net.in_links(tor))
            .collect();
        assert!(!ports.is_empty());
        // Stop while the ToR is still down: every port, both directions.
        replay_until(&mut cs, &faults, SimTime::from_secs(100));
        assert!(ports.iter().all(|&l| !cs.net.link(l.flow_link()).up));
        assert!(ports.iter().all(|&l| !cs.health.is_up(l)));
        // Run past the repair.
        cs.run(&mut Nop, SimTime::from_secs(2 * 3600));
        assert!(ports.iter().all(|&l| cs.net.link(l.flow_link()).up));
        assert!(ports.iter().all(|&l| cs.health.is_up(l)));
    }

    #[test]
    fn zero_duration_repair_leaves_link_up() {
        // A repair_after of zero is a legal degenerate flap: the link must
        // end (and, observably, stay) up, and both the failure and the
        // repair must still be recorded, in order.
        let (ctx, buf) = jsonl_ctx();
        let f = HpnConfig::tiny().build();
        let mut cs = ClusterSim::with_ctx(f, HashMode::Polarized, &ctx);
        let link = cs.fabric.hosts[0].nic_up[0][0].unwrap();
        let at = SimTime::from_secs(1);
        let faults = vec![FaultEvent {
            at,
            kind: FaultKind::LinkFailure {
                link,
                repair_after: SimDuration::from_secs(0),
            },
        }];
        replay_until(&mut cs, &faults, SimTime::from_secs(5));
        cs.telemetry().flush();
        assert!(cs.net.link(link.flow_link()).up, "link must end up");
        assert!(cs.health.is_up(link));
        let text = buf.text();
        let down = text
            .find(&link_state_line(at, link, false))
            .expect("failure recorded");
        let up = text
            .find(&link_state_line(at, link, true))
            .expect("repair recorded");
        assert!(down < up, "failure precedes its repair");
    }

    #[test]
    fn same_tick_fault_and_repair_order_deterministically() {
        // A repair falling on the same sim-time tick as the next fault, on
        // another cable: whichever fires first, the repaired link must end
        // up and the newly failed link down at the deadline.
        let f = HpnConfig::tiny().build();
        let mut cs = ClusterSim::new(f, HashMode::Polarized);
        let l0 = cs.fabric.hosts[0].nic_up[0][0].unwrap();
        let l1 = cs.fabric.hosts[1].nic_up[0][0].unwrap();
        let faults = vec![
            // Fails at 1s, repaired at exactly 2s…
            FaultEvent {
                at: SimTime::from_secs(1),
                kind: FaultKind::LinkFailure {
                    link: l0,
                    repair_after: SimDuration::from_secs(1),
                },
            },
            // …which is also the instant this one fails (never repaired
            // within the deadline).
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::LinkFailure {
                    link: l1,
                    repair_after: SimDuration::from_secs(3600),
                },
            },
        ];
        replay_until(&mut cs, &faults, SimTime::from_secs(10));
        assert!(cs.net.link(l0.flow_link()).up, "repaired link ends up");
        assert!(!cs.net.link(l1.flow_link()).up, "same-tick fault sticks");
        assert_eq!(cs.now(), SimTime::from_secs(10));
    }

    #[test]
    fn refailure_at_the_repair_instant_sticks() {
        // One cable repaired and failed again at the same instant: the
        // earlier fault's repair timer fires first, so the new failure
        // wins and the cable stays down.
        let f = HpnConfig::tiny().build();
        let mut cs = ClusterSim::new(f, HashMode::Polarized);
        let link = cs.fabric.hosts[0].nic_up[0][0].unwrap();
        let fault = |at, repair_after| FaultEvent {
            at: SimTime::from_secs(at),
            kind: FaultKind::LinkFailure {
                link,
                repair_after: SimDuration::from_secs(repair_after),
            },
        };
        // Down at 1s, repaired at 2s; down again at 2s until 3602s.
        let faults = vec![fault(1, 1), fault(2, 3600)];
        replay_until(&mut cs, &faults, SimTime::from_secs(10));
        assert!(!cs.net.link(link.flow_link()).up);
        assert!(!cs.health.is_up(link));
    }

    #[test]
    fn refailing_an_already_down_link_is_idempotent() {
        // Two overlapping failures of one cable: the second hits an
        // already-down link (a flap landing inside a hard-failure window —
        // common at production flap rates). Neither may panic, and link
        // state is boolean (set_link_up, not reference-counted), so the
        // *first* repair to fire resurrects the cable: after the flap
        // repair at 2.5s the link is up, and the hard repair at 3601s is a
        // no-op. This pins the last-writer-wins semantics replay depends
        // on.
        let faults = |link| {
            vec![
                FaultEvent {
                    at: SimTime::from_secs(1),
                    kind: FaultKind::LinkFailure {
                        link,
                        repair_after: SimDuration::from_secs(3600),
                    },
                },
                FaultEvent {
                    at: SimTime::from_secs(2),
                    kind: FaultKind::LinkFlap {
                        link,
                        duration: SimDuration::from_millis(500),
                    },
                },
            ]
        };
        // Check the down window first: between the flap (2s) and its
        // repair (2.5s) the cable is down.
        let mut cs_mid = ClusterSim::new(HpnConfig::tiny().build(), HashMode::Polarized);
        let link_mid = cs_mid.fabric.hosts[0].nic_up[0][0].unwrap();
        replay_until(&mut cs_mid, &faults(link_mid), SimTime::from_secs(2));
        assert!(!cs_mid.health.is_up(link_mid), "down inside the window");

        // Full overlapping schedule: the flap repair at 2.5s brings the
        // boolean link state up even though the hard repair is pending.
        let mut cs = ClusterSim::new(HpnConfig::tiny().build(), HashMode::Polarized);
        let link = cs.fabric.hosts[0].nic_up[0][0].unwrap();
        replay_until(&mut cs, &faults(link), SimTime::from_secs(100));
        assert!(
            cs.health.is_up(link),
            "first repair resurrects a boolean link"
        );
        assert!(cs.net.link(link.flow_link()).up);
        // Running past the (now no-op) hard repair must not panic and must
        // leave the link up.
        cs.run(&mut Nop, SimTime::from_secs(2 * 3600));
        assert!(cs.health.is_up(link));
        assert!(cs.net.link(link.flow_link()).up);
    }

    #[test]
    fn sort_key_makes_shuffled_schedules_replay_identically() {
        // The public sort key is the determinism contract: any generation
        // order, once sorted, must replay to byte-identical telemetry.
        let f = HpnConfig::tiny().build();
        let mut rates = FaultRates::paper();
        rates.link_fail_per_month = 0.5;
        rates.link_repair = SimDuration::from_secs(3600);
        let horizon = SimDuration::from_secs(30 * 24 * 3600);
        let sched = plan(&f, &rates, horizon, 21);
        assert!(sched.len() >= 2, "need a multi-event schedule");

        let replay = |faults: &[FaultEvent]| {
            let (ctx, buf) = jsonl_ctx();
            let fab = HpnConfig::tiny().build();
            let mut cs = ClusterSim::with_ctx(fab, HashMode::Polarized, &ctx);
            replay_until(&mut cs, faults, SimTime::ZERO + horizon);
            cs.telemetry().flush();
            buf.text()
        };

        let baseline = replay(&sched);
        assert!(link_state_count(&baseline, false) > 0, "faults replayed");
        // Reverse (a worst-case "generation order"), then restore the
        // total order via the public key.
        let mut shuffled: Vec<FaultEvent> = sched.iter().rev().copied().collect();
        shuffled.sort_unstable_by_key(FaultEvent::sort_key);
        for (a, b) in sched.iter().zip(&shuffled) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.kind, b.kind);
        }
        assert_eq!(
            baseline,
            replay(&shuffled),
            "sorted replay must be byte-identical"
        );
    }

    #[test]
    fn paper_rates_yield_one_to_two_crashes_a_month_at_job_scale() {
        // §2.3: a large job (thousands of GPUs → thousands of optical
        // links) sees 1–2 failures a month. Expected failures =
        // links × per-link monthly rate + tors × crash rate.
        let links = 2300.0 * 2.0; // ~2300 GPUs, dual-port NICs
        let tors = 48.0;
        let r = FaultRates::paper();
        let expected = links * r.link_fail_per_month + tors * r.tor_crash_per_month;
        assert!(
            (1.0..=4.0).contains(&expected),
            "expected monthly failures {expected}"
        );
    }
}
