//! Host-time benchmark for the HPN simulator, end to end and per layer.
//!
//! ```text
//! hpn-perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! hpn-perfbench run --seed N --out DIR [--trace]
//! hpn-perfbench compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer ones traced.
//! `run` runs every workload in a child process of its own and writes
//! `DIR/results.json`; `compare` judges two directories of such runs
//! against the bounds in `BENCHMARK.json`. `probe` is the host-speed
//! probe's child process, which the workloads start themselves (see
//! `probe.rs`). See README.md.

mod alloc;
mod compare;
mod fabric;
mod http;
mod json;
mod load;
mod outcome;
mod probe;
mod run;
mod serve;
mod setup;
mod spans;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::time::Instant;

use json::Json;
use outcome::{Outcome, END_TO_END, PER_LAYER};

pub const WORKLOADS: [&str; 4] = ["train_pod", "moe_a2a", "fabric_build", "whatif_serve"];

/// One run's settings, from the command line.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Cfg {
    /// Operations in a run of `--seconds` at `per_second` (at least one).
    /// `--seconds` sizes the work, at rates measured on the two-vCPU
    /// reference host, instead of being a deadline: under a deadline, how
    /// much work a run did would follow the shared host's speed, and so
    /// would the peak RSS of a workload whose state grows as it runs.
    pub fn ops(&self, per_second: f64) -> u64 {
        ((self.seconds * per_second).round() as u64).max(1)
    }

    /// Whether a measured loop that started at `start` has used up its
    /// time: 1.25× `--seconds`. The shared host has had spells 1.8× slower
    /// than usual; a run caught in one stops here with fewer operations,
    /// so that its length stays bounded.
    pub fn overtime(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() > 1.25 * self.seconds
    }
}

fn run_workload(name: &str, cfg: &Cfg) -> Option<Outcome> {
    let expected = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
    Some(match name {
        // About 1.4 s and 2.5 s per iteration on the reference host.
        "train_pod" => train::run(
            include_str!("../workloads/train_pod.toml"),
            expected.get(name),
            0.7,
            cfg,
        ),
        "moe_a2a" => train::run(
            include_str!("../workloads/moe_a2a.toml"),
            expected.get(name),
            0.4,
            cfg,
        ),
        "fabric_build" => fabric::run(expected.get(name), cfg),
        "whatif_serve" => serve::run(cfg),
        _ => return None,
    })
}

fn usage(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hpn-perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n\
         \x20      hpn-perfbench run --seed N --out DIR [--trace]\n\
         \x20      hpn-perfbench compare PARENT_DIR CHANGE_DIR\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    2
}

/// `--flag value` pairs (a repeated flag keeps its last value); every flag
/// must be one of `known`.
pub fn flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !known.contains(&a.as_str()) {
            return Err(format!("unexpected argument `{a}`"));
        }
        let v = it.next().ok_or(format!("`{a}` needs a value"))?;
        out.insert(a.clone(), v.clone());
    }
    Ok(out)
}

fn single(args: &[String]) -> i32 {
    let parsed = match flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
    ) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    let get = |k: &str| parsed.get(k).map(String::as_str);
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        get("--workload"),
        get("--seed"),
        get("--seconds"),
        get("--trace"),
    ) else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let cfg = match (seed.parse(), seconds.parse::<f64>(), trace) {
        (Ok(seed), Ok(seconds), "0" | "1") if seconds > 0.0 && seconds.is_finite() => Cfg {
            seed,
            seconds,
            trace: trace == "1",
        },
        _ => return usage("--seed takes an integer, --seconds a positive number, --trace 0 or 1"),
    };
    let Some(mut o) = run_workload(workload, &cfg) else {
        return usage(&format!("unknown workload `{workload}`"));
    };
    if let Some(dir) = get("--out").filter(|_| cfg.trace) {
        let path = std::path::Path::new(dir).join(format!("{workload}.trace.json"));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, o.tracer.to_json()))
        {
            eprintln!("error: writing {}: {e}", path.display());
            return 1;
        }
    }
    for f in &o.failures {
        eprintln!("{workload}: FAILED {f}");
    }
    println!("fingerprint {}", o.fingerprint);
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!("{}", o.result_line(defs, cfg.trace));
    0
}

/// Limit glibc malloc to one arena. By default every thread may get its
/// own arena, and which arena each short-lived serve connection thread
/// draws decides how much freed memory stays resident: `whatif_serve`'s
/// peak RSS then swings by ±30% between identical runs. The
/// single-threaded workloads only ever use one arena anyway.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's documented tuning entry point; it takes
    // two plain integers and is called once, before any thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    // Knobs read inside the library crates (`HPN_ALLOCATOR` and friends)
    // would change what is measured; every run measures the defaults.
    // Removed before any thread starts, and inherited by `run`'s children.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("HPN_") {
            std::env::remove_var(k);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("probe") if args.len() == 1 => probe::child_main(),
        _ => single(&args),
    };
    std::process::exit(code);
}
