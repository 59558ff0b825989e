//! `whatif_serve`: an in-process `serve::Server` (one worker, full scale,
//! memo sharing off) answering a what-if request mix generated from the
//! seed. The simulations are small, so HTTP, queueing, `ArtifactCache`
//! hits and telemetry streaming dominate; it is the only workload with
//! telemetry on.
//!
//! Requests come in decks of [`DECK`]: every deck holds the same kinds in
//! a seeded order, so two seeds load the server alike. 32 of 40 reuse one
//! of four cached fabrics (tiny HPN, tiny DCN+, paper HPN, 2-segment
//! medium HPN); 8 of 40 ask for a fabric the cache has never seen.
//!
//! Set-up is three server start-ups, each warmed with one request of
//! every kind; the third server then takes, in order, an open loop at
//! [`LO_RPS`], an open loop at [`HI_RPS`] and a closed loop over two
//! connections. Every response must be status 200 and byte-equal to
//! `serve::oracle_bytes`, computed in-process before the timed phases.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hpn_bench::serve::{oracle_bytes, ServeConfig, Server, MANIFEST_SEPARATOR};
use hpn_bench::Scale;
use hpn_scenario::{FaultsSpec, Injection, Scenario, TopologySpec};
use hpn_sim::{split_seed, Xoshiro256};

use crate::http;
use crate::load::{drive, poisson_dues, Reply, Sample, Wall};
use crate::outcome::{peak_rss_mb, Outcome};
use crate::stats::{median, tail_percentile};
use crate::Cfg;

/// Open-loop rates (requests/s). `HI_RPS` stays at or below 0.6× the
/// closed-loop throughput measured at calibration (README).
const LO_RPS: f64 = 10.0;
const HI_RPS: f64 = 24.0;
/// Concurrent client connections, one per core of the two-core reference
/// host.
const CLIENTS: usize = 2;
/// Server start-ups in set-up; `setup_s` is their median.
const SETUPS: usize = 3;
/// Distinct fault-injection variants per run.
const FAULT_VARIANTS: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    HpnTrain,
    DcnTrain,
    Faults,
    Moe,
    Inference,
    Trace,
    MultiJob,
    HpnPaper,
    MediumTrain,
    Fresh,
}

use Kind::*;

/// The kinds in every deck of 40 requests. 28 training what-ifs on tiny
/// HPN fabrics (~10–15 ms served) sit between 4 cheaper trace replays and
/// 8 dearer kinds, so the median lands in the middle of one dense cluster
/// of similar requests; at its edge, a handful of samples moves it by 10%.
/// 32 of 40 reuse a cached fabric; the 8 `Fresh` ones never do.
const DECK: [Kind; 40] = [
    Trace,
    Trace,
    Trace,
    Trace,
    HpnTrain,
    HpnTrain,
    HpnTrain,
    HpnTrain,
    HpnTrain,
    HpnTrain,
    HpnTrain,
    HpnTrain,
    HpnTrain,
    HpnTrain,
    Faults,
    Faults,
    Faults,
    Faults,
    Faults,
    Faults,
    Faults,
    Faults,
    Faults,
    Faults,
    Fresh,
    Fresh,
    Fresh,
    Fresh,
    Fresh,
    Fresh,
    Fresh,
    Fresh,
    DcnTrain,
    DcnTrain,
    Moe,
    Moe,
    Inference,
    MultiJob,
    HpnPaper,
    MediumTrain,
];

/// Every kind once: the warm-up that fills the cache.
const WARM_UP: [Kind; 10] = [
    HpnTrain,
    DcnTrain,
    Faults,
    Moe,
    Inference,
    Trace,
    MultiJob,
    HpnPaper,
    MediumTrain,
    Fresh,
];

/// Host counts per segment of the fresh fabrics, each twice per deck.
const FRESH_HOSTS: [u32; 8] = [3, 3, 4, 4, 5, 5, 6, 6];

fn base(kind: Kind) -> &'static str {
    match kind {
        HpnTrain | Faults | Fresh => include_str!("../workloads/serve_hpn_train.toml"),
        DcnTrain => include_str!("../workloads/serve_dcn_train.toml"),
        Moe => include_str!("../workloads/serve_moe.toml"),
        Inference => include_str!("../workloads/serve_inference.toml"),
        Trace => include_str!("../workloads/serve_trace.toml"),
        MultiJob => include_str!("../workloads/serve_multi_job.toml"),
        HpnPaper => include_str!("../workloads/serve_hpn_paper.toml"),
        MediumTrain => include_str!("../workloads/serve_medium_train.toml"),
    }
}

/// Builds request bodies; identical bodies share one oracle entry.
struct Mix {
    seed: u64,
    bodies: Vec<String>,
    index: HashMap<String, usize>,
    fresh: u64,
}

impl Mix {
    fn new(seed: u64) -> Self {
        Mix {
            seed,
            bodies: Vec::new(),
            index: HashMap::new(),
            fresh: 0,
        }
    }

    fn intern(&mut self, body: String) -> usize {
        if let Some(&k) = self.index.get(&body) {
            return k;
        }
        self.bodies.push(body.clone());
        self.index.insert(body, self.bodies.len() - 1);
        self.bodies.len() - 1
    }

    /// One request of `kind`; `rng` picks the variant.
    fn request(
        &mut self,
        kind: Kind,
        fresh_hosts: u32,
        rng: &mut Xoshiro256,
    ) -> Result<usize, String> {
        let mut sc = Scenario::parse_toml(base(kind)).map_err(|e| format!("{kind:?}: {e}"))?;
        match kind {
            Faults => {
                // A small per-seed pool of cable-cut what-ifs on the
                // placed hosts of the tiny job.
                let mut v = Xoshiro256::seed_from_u64(split_seed(
                    self.seed,
                    rng.next_below(FAULT_VARIANTS),
                ));
                let cut = |v: &mut Xoshiro256| Injection {
                    host: v.next_below(4) as u32,
                    rail: v.next_below(2) as usize,
                    port: v.next_below(2) as usize,
                    at_secs: (v.uniform(0.05, 0.5) * 1e3).round() / 1e3,
                    repair_secs: Some(2.0),
                };
                let injections = vec![cut(&mut v), cut(&mut v)];
                sc.faults = Some(FaultsSpec {
                    poisson: None,
                    injections,
                });
                if let Some(w) = sc.workload.as_mut() {
                    w.timeout_factor = Some(4.0);
                }
            }
            Fresh => {
                // A fabric no earlier request built: its size varies per
                // deck and its buffer is unique within the run.
                self.fresh += 1;
                if let TopologySpec::Hpn(cfg) = &mut sc.topology {
                    cfg.hosts_per_segment = fresh_hosts;
                    cfg.switch_buffer_bits += 8.0 * self.fresh as f64;
                }
            }
            _ => {}
        }
        Ok(self.intern(sc.to_toml()))
    }

    /// `decks` decks, each a seeded shuffle of [`DECK`].
    fn decks(&mut self, decks: usize, rng: &mut Xoshiro256) -> Result<Vec<usize>, String> {
        let mut out = Vec::new();
        for _ in 0..decks {
            let mut deck = DECK;
            rng.shuffle(&mut deck);
            let mut hosts = FRESH_HOSTS;
            rng.shuffle(&mut hosts);
            let mut fresh = hosts.into_iter();
            for kind in deck {
                let h = if kind == Fresh {
                    fresh.next().unwrap_or(4)
                } else {
                    4
                };
                out.push(self.request(kind, h, rng)?);
            }
        }
        Ok(out)
    }
}

/// FNV-1a, to fingerprint the oracle bytes of a run.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// POST one request and compare the response with its oracle bytes.
fn send(addr: SocketAddr, origin: Instant, body: &str, oracle: &[u8]) -> Reply {
    let since = |t: Instant| t.saturating_duration_since(origin);
    match http::post(addr, "/scenario/run", body.as_bytes()) {
        Ok(r) => {
            let problem = if r.status != 200 {
                Some(format!("status {}", r.status))
            } else if r.body != oracle {
                Some(format!(
                    "body differs from the oracle ({} vs {} bytes)",
                    r.body.len(),
                    oracle.len()
                ))
            } else {
                None
            };
            Reply {
                first_byte: since(r.first_byte),
                done: since(r.last_byte),
                bytes: r.body.len(),
                problem,
            }
        }
        Err(e) => {
            let now = since(Instant::now());
            Reply {
                first_byte: now,
                done: now,
                bytes: 0,
                problem: Some(format!("request failed: {e}")),
            }
        }
    }
}

fn spawn() -> std::io::Result<Server> {
    Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            jobs: 1,
            scale: Scale::Full,
            share_memo: false,
        },
    )
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut o = Outcome::new(cfg.trace);
    match serve(cfg, &mut o) {
        Ok(()) => o,
        Err(e) => {
            o.check(Some(e));
            o
        }
    }
}

fn serve(cfg: &Cfg, o: &mut Outcome) -> Result<(), String> {
    // Phase sizes in whole decks, scaled to the run length: at 20 s, 120
    // requests at each open-loop rate (12 beyond each p90) and 320 in the
    // closed loop (~5 s, long enough to ride out brief host stalls).
    let decks = |per_second: f64| cfg.ops(per_second) as usize;

    let mut mix = Mix::new(cfg.seed);
    let mut rng = Xoshiro256::seed_from_u64(split_seed(cfg.seed, 1));
    let warm: Vec<usize> = WARM_UP
        .iter()
        .map(|&k| mix.request(k, 4, &mut rng))
        .collect::<Result<_, _>>()?;
    let lo = mix.decks(decks(0.15), &mut rng)?;
    let hi = mix.decks(decks(0.15), &mut rng)?;
    let sat = mix.decks(decks(0.4), &mut rng)?;
    let lo_dues = poisson_dues(&mut rng, lo.len(), LO_RPS);
    let hi_dues = poisson_dues(&mut rng, hi.len(), HI_RPS);

    // The oracle: what each distinct request must answer, byte for byte.
    let sep = format!("{MANIFEST_SEPARATOR}\n");
    let mut oracle = Vec::with_capacity(mix.bodies.len());
    let mut h = 0xcbf2_9ce4_8422_2325;
    for body in &mix.bodies {
        let sc = Scenario::parse_toml(body).map_err(|e| format!("mix: {e}"))?;
        let (jsonl, manifest) = oracle_bytes(&sc, Scale::Full);
        let mut bytes = jsonl;
        bytes.extend_from_slice(sep.as_bytes());
        bytes.extend_from_slice(manifest.as_bytes());
        h = fnv(h, &bytes);
        oracle.push(bytes);
    }
    o.fingerprint = format!(
        "requests={} distinct={} oracle={h:016x}",
        warm.len() + lo.len() + hi.len() + sat.len(),
        oracle.len()
    );

    let phase =
        |o: &mut Outcome, server: &Server, keys: &[usize], dues: Option<&[Duration]>, clients| {
            let origin = Instant::now();
            let addr = server.addr();
            let samples = drive(&Wall(origin), keys.len(), dues, clients, &|i| {
                send(addr, origin, &mix.bodies[keys[i]], &oracle[keys[i]])
            });
            let elapsed = origin.elapsed();
            for s in &samples {
                o.check(s.reply.problem.clone());
            }
            (origin, samples, elapsed)
        };

    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = spawn().map_err(|e| format!("bind: {e}"))?;
        phase(o, &s, &warm, None, 1);
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.stop();
            s.join();
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUPS > 0");
    let before = server.cache_stats();
    let (lo_origin, lo_s, _) = phase(o, &server, &lo, Some(&lo_dues), CLIENTS);
    let (hi_origin, hi_s, _) = phase(o, &server, &hi, Some(&hi_dues), CLIENTS);
    let (sat_origin, sat_s, sat_elapsed) = phase(o, &server, &sat, None, CLIENTS);
    let after = server.cache_stats();
    server.stop();
    server.join();

    let lat = |s: &[Sample]| s.iter().map(Sample::latency_ms).collect::<Vec<_>>();
    // A p90 with too few samples beyond it is left out (reported as 0),
    // which only happens in runs shorter than the default length.
    let p90 = |xs: &[f64]| {
        tail_percentile(xs, 0.9)
            .inspect_err(|e| eprintln!("whatif_serve: {e}"))
            .unwrap_or(0.0)
    };
    let lo_p50 = median(&lat(&lo_s)).unwrap_or(f64::NAN);
    if cfg.trace {
        let mut first_request = 0;
        for (origin, samples) in [(lo_origin, &lo_s), (hi_origin, &hi_s), (sat_origin, &sat_s)] {
            record_spans(o, origin, samples, first_request);
            first_request += samples.len() as u64;
        }
        let ttfb: Vec<f64> = hi_s.iter().map(Sample::ttfb_ms).collect();
        let stream: Vec<f64> = lo_s.iter().map(Sample::stream_ms).collect();
        let late: Vec<f64> = lo_s.iter().chain(&hi_s).map(Sample::late_ms).collect();
        let all: Vec<&Sample> = lo_s.iter().chain(&hi_s).chain(&sat_s).collect();
        let kb = all.iter().map(|s| s.reply.bytes as f64).sum::<f64>() / 1024.0 / all.len() as f64;
        o.set("serve.ttfb_p50_ms", median(&ttfb).unwrap_or(f64::NAN));
        o.set("serve.ttfb_p90_ms", p90(&ttfb));
        o.set("serve.stream_p50_ms", median(&stream).unwrap_or(f64::NAN));
        o.set("serve.response_kb", kb);
        o.set(
            "serve.topology_hit_ratio",
            hit_ratio(
                after.topology_hits - before.topology_hits,
                after.topology_misses - before.topology_misses,
            ),
        );
        o.set(
            "serve.path_hit_ratio",
            hit_ratio(
                after.path_hits - before.path_hits,
                after.path_misses - before.path_misses,
            ),
        );
        o.set("serve.lo_p90_ms", p90(&lat(&lo_s)));
        o.set("serve.hi_p50_ms", median(&lat(&hi_s)).unwrap_or(f64::NAN));
        o.set("serve.hi_p90_ms", p90(&lat(&hi_s)));
        o.set("serve.gen_late_p90_ms", p90(&late));
        o.set("traced.p50_ms", lo_p50);
    } else {
        o.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
        o.set("p50_ms", lo_p50);
        o.set("ops_per_s", sat_s.len() as f64 / sat_elapsed.as_secs_f64());
        o.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    }
    Ok(())
}

/// One span per request (due → last byte) with the client's lateness,
/// the wait for the first body byte and the streaming as children.
fn record_spans(o: &mut Outcome, origin: Instant, samples: &[Sample], first_request: u64) {
    let tr = &mut o.tracer;
    for s in samples {
        let req = first_request + s.index as u64;
        let [due, sent, first, done] =
            [s.due, s.sent, s.reply.first_byte, s.reply.done].map(|d| tr.at(origin + d));
        let root = tr.record("serve.request", due, done, None, req, 1);
        tr.record("client.late", due, sent, Some(root), req, 1);
        tr.record("serve.ttfb", sent, first, Some(root), req, 1);
        tr.record("serve.stream", first, done, Some(root), req, 1);
    }
}
