//! `hpn-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! hpn-experiments list                 # show all experiment ids
//! hpn-experiments all [--quick]        # run everything
//! hpn-experiments fig15 [--quick]      # run one experiment
//! hpn-experiments fig15 --json out.json
//! hpn-experiments topo hpn|dcn|paper   # fabric inventory + blueprint check
//! hpn-experiments gate [--quick] [--update] [--out DIR] [--jobs N]
//!                                      # regression-gate figures vs goldens
//! hpn-experiments run [ids…|all] [--quick] [--jobs N] [--seeds A..B] [--out DIR]
//!                                      # parallel runner / multi-seed sweep
//! hpn-experiments scenario check a.toml b.toml…
//!                                      # validate scenario files (no run);
//!                                      # [workload] kind selects the traffic
//!                                      # shape: training (default), moe,
//!                                      # trace, inference or multi-job
//! hpn-experiments scenario run a.toml… [--quick] [--jobs N] [--out DIR]
//!                               [--latency sim|estimate|both]
//!                                      # execute user-authored scenarios;
//!                                      # --latency adds FCT tail rows
//!                                      # (simulated, estimated, or both
//!                                      # plus relative error)
//! hpn-experiments bench-regression [--baseline FILE] [--current FILE]
//!                                  [--threshold F] [--update-baseline]
//!                                      # compare allocator-churn µs/event
//!                                      # against the checked-in baseline
//! hpn-experiments scenario fuzz [--seeds A..B] [--jobs N]
//!                               [--budget-secs S] [--mutate M] [--out DIR]
//!                               [--serve] [repro.toml…]
//!                                      # property-fuzz the simulator; shrunk
//!                                      # reproducers land in --out (default
//!                                      # target/fuzz); --serve instead POSTs
//!                                      # fuzz-derived scenarios to an
//!                                      # in-process serve instance and
//!                                      # requires bitwise-oracle-equal output
//! hpn-experiments serve [--addr H:P] [--jobs N] [--quick]
//!                                      # long-running what-if server with a
//!                                      # cross-request artifact cache; see
//!                                      # EXPERIMENTS.md "Service mode"
//! ```
//!
//! `--jobs N` runs experiment cells on up to N worker threads; outputs are
//! merged in plan order, so every figure, JSONL stream and manifest is
//! byte-identical to `--jobs 1`. `--seeds A..B` (half-open, or `A..=B`
//! inclusive) sweeps root seeds: one manifest per seed plus an aggregated
//! `variance.json`.
//!
//! `HPN_ALLOCATOR=dense|incremental` selects the rate allocator (default
//! incremental). Any other value, and any flag not listed above, exits 2
//! before anything runs.

use std::io::Write as _;

use hpn_bench::{find, registry, Scale, SimCtx};
use hpn_sim::AllocatorKind;

/// Every flag the CLI understands; any other `--` argument exits 2.
const FLAGS: [&str; 15] = [
    "--addr",
    "--baseline",
    "--budget-secs",
    "--current",
    "--jobs",
    "--json",
    "--latency",
    "--mutate",
    "--out",
    "--quick",
    "--seeds",
    "--serve",
    "--threshold",
    "--update",
    "--update-baseline",
];

/// Value of `--flag` (the following argument), if present.
fn opt_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse `A..B` (half-open), `A..=B` (inclusive) or a single seed.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let parse = |s: &str| {
        s.trim()
            .parse::<u64>()
            .map_err(|_| format!("bad seed '{s}' in '{spec}'"))
    };
    let (lo, hi) = if let Some((a, b)) = spec.split_once("..=") {
        (parse(a)?, parse(b)?.checked_add(1).ok_or("seed overflow")?)
    } else if let Some((a, b)) = spec.split_once("..") {
        (parse(a)?, parse(b)?)
    } else {
        let s = parse(spec)?;
        (s, s + 1)
    };
    if lo >= hi {
        return Err(format!("empty seed range '{spec}'"));
    }
    if hi - lo > 4096 {
        return Err(format!("seed range '{spec}' too large (max 4096 seeds)"));
    }
    Ok((lo..hi).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = AllocatorKind::from_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!("unknown flag '{bad}'; accepted flags: {}", FLAGS.join(" "));
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let json_path = opt_value(&args, "--json");
    let out_dir = opt_value(&args, "--out");
    let jobs_arg = opt_value(&args, "--jobs");
    let seeds_arg = opt_value(&args, "--seeds");
    let budget_arg = opt_value(&args, "--budget-secs");
    let mutate_arg = opt_value(&args, "--mutate");
    let latency_arg = opt_value(&args, "--latency");
    let baseline_arg = opt_value(&args, "--baseline");
    let current_arg = opt_value(&args, "--current");
    let threshold_arg = opt_value(&args, "--threshold");
    let addr_arg = opt_value(&args, "--addr");
    let jobs = match &jobs_arg {
        None => 1,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs wants a positive integer, got '{v}'");
                std::process::exit(2);
            }
        },
    };
    // Positional targets: everything that is neither a flag nor the value
    // consumed by one.
    let option_values: Vec<&str> = [
        &json_path,
        &out_dir,
        &jobs_arg,
        &seeds_arg,
        &budget_arg,
        &mutate_arg,
        &latency_arg,
        &baseline_arg,
        &current_arg,
        &threshold_arg,
        &addr_arg,
    ]
    .iter()
    .filter_map(|o| o.as_deref())
    .collect();
    let targets: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && !option_values.contains(&a.as_str()))
        .cloned()
        .collect();

    let cmd = targets.first().map(String::as_str).unwrap_or("list");
    match cmd {
        "list" => {
            println!("available experiments:");
            for (id, desc, _) in registry() {
                println!("  {id:<8} {desc}");
            }
            println!("\nusage: hpn-experiments <id>|all [--quick] [--json FILE]");
        }
        "topo" => {
            let which = targets.get(1).map(String::as_str).unwrap_or("hpn");
            topo(which);
        }
        "gate" => {
            let update = args.iter().any(|a| a == "--update");
            gate(scale, update, out_dir.as_deref(), jobs);
        }
        "scenario" => {
            let sub = targets.get(1).map(String::as_str).unwrap_or("");
            let files = &targets[2.min(targets.len())..];
            match sub {
                "check" => {
                    if files.is_empty() {
                        eprintln!("usage: hpn-experiments scenario check <file.toml>…");
                        std::process::exit(2);
                    }
                    if !hpn_bench::scenario_cli::check(files) {
                        std::process::exit(2);
                    }
                }
                "run" => {
                    if files.is_empty() {
                        eprintln!(
                            "usage: hpn-experiments scenario run <file.toml>… \
                             [--quick] [--jobs N] [--out DIR] \
                             [--latency sim|estimate|both]"
                        );
                        std::process::exit(2);
                    }
                    let latency = match latency_arg.as_deref() {
                        None => hpn_bench::scenario_cli::LatencyMode::Off,
                        Some(v) => match hpn_bench::scenario_cli::LatencyMode::from_name(v) {
                            Some(m) => m,
                            None => {
                                eprintln!("--latency: unknown mode '{v}' — use sim|estimate|both");
                                std::process::exit(2);
                            }
                        },
                    };
                    scenario_run(files, scale, jobs, out_dir.as_deref(), latency);
                }
                "fuzz" => {
                    let seeds = match seeds_arg.as_deref().map(parse_seeds) {
                        None => None,
                        Some(Ok(s)) => Some(s),
                        Some(Err(e)) => {
                            eprintln!("--seeds: {e}");
                            std::process::exit(2);
                        }
                    };
                    if args.iter().any(|a| a == "--serve") {
                        scenario_fuzz_serve(files, jobs, seeds);
                        return;
                    }
                    let budget_secs = match &budget_arg {
                        None => None,
                        Some(v) => match v.parse::<f64>() {
                            Ok(s) if s > 0.0 => Some(s),
                            _ => {
                                eprintln!("--budget-secs wants a positive number, got '{v}'");
                                std::process::exit(2);
                            }
                        },
                    };
                    let mutation = match &mutate_arg {
                        None => hpn_check::Mutation::None,
                        Some(v) => {
                            match hpn_check::Mutation::from_name(v) {
                                Some(m) => m,
                                None => {
                                    eprintln!("--mutate: unknown mutation '{v}' — use none|rate-overshoot");
                                    std::process::exit(2);
                                }
                            }
                        }
                    };
                    scenario_fuzz(
                        files,
                        jobs,
                        seeds,
                        budget_secs,
                        mutation,
                        out_dir.as_deref(),
                    );
                }
                other => {
                    eprintln!("unknown scenario subcommand '{other}' — use check|run|fuzz");
                    std::process::exit(2);
                }
            }
        }
        "bench-regression" => {
            let threshold = match threshold_arg.as_deref() {
                None => hpn_bench::bench_regression::DEFAULT_THRESHOLD,
                Some(v) => match v.parse::<f64>() {
                    Ok(t) if t > 0.0 && t.is_finite() => t,
                    _ => {
                        eprintln!("--threshold wants a positive fraction (e.g. 0.25), got '{v}'");
                        std::process::exit(2);
                    }
                },
            };
            let update = args.iter().any(|a| a == "--update-baseline");
            bench_regression(
                baseline_arg.as_deref(),
                current_arg.as_deref(),
                threshold,
                update,
            );
        }
        "serve" => {
            let addr = addr_arg.as_deref().unwrap_or("127.0.0.1:7070");
            serve(addr, jobs, scale);
        }
        "run" => {
            let seeds = match seeds_arg.as_deref().map(parse_seeds) {
                None => None,
                Some(Ok(s)) => Some(s),
                Some(Err(e)) => {
                    eprintln!("--seeds: {e}");
                    std::process::exit(2);
                }
            };
            run(&targets[1..], scale, jobs, seeds, out_dir.as_deref());
        }
        "all" => {
            let mut reports = Vec::new();
            for (id, _, f) in registry() {
                eprintln!("... running {id} ({:?})", scale);
                let r = f(&SimCtx::new(), scale);
                r.print();
                reports.push(r);
            }
            if let Some(path) = json_path {
                let blob = format!(
                    "[\n{}\n]",
                    reports
                        .iter()
                        .map(|r| r.to_json())
                        .collect::<Vec<_>>()
                        .join(",\n")
                );
                write_out(&path, &blob);
            }
        }
        id => match find(id) {
            Some(f) => {
                let r = f(&SimCtx::new(), scale);
                r.print();
                if let Some(path) = json_path {
                    write_out(&path, &r.to_json());
                }
            }
            None => {
                eprintln!("unknown experiment '{id}' — try `hpn-experiments list`");
                std::process::exit(2);
            }
        },
    }
}

fn gate(scale: Scale, update: bool, out_dir: Option<&str>, jobs: usize) {
    use hpn_bench::gate::{allocator_label, run_gate, FigureStatus, GATE_FIGURES};
    eprintln!(
        "gate: {} figures, allocator={}, {:?}, jobs={jobs}{}",
        GATE_FIGURES.len(),
        allocator_label(),
        scale,
        if update { ", updating goldens" } else { "" }
    );
    let out = out_dir.map(std::path::Path::new);
    let start = std::time::Instant::now();
    let outcome = match run_gate(&GATE_FIGURES, scale, update, out, jobs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gate failed: {e}");
            std::process::exit(2);
        }
    };
    let wall = start.elapsed();
    for (label, set) in [("", &outcome.figures), (" (latency)", &outcome.latency)] {
        for (id, hash, status) in set {
            match status {
                FigureStatus::Match => println!("  {id:<8} {hash}  ok{label}"),
                FigureStatus::Drift(want, _) => {
                    println!("  {id:<8} {hash}  DRIFT{label} (golden {want})")
                }
                FigureStatus::Missing(_) => {
                    println!("  {id:<8} {hash}  MISSING{label} from golden file")
                }
            }
        }
    }
    let cell_total: std::time::Duration = outcome.timings.iter().map(|(_, d)| *d).sum();
    for (id, d) in &outcome.timings {
        eprintln!("  {id:<8} {:>8.2}s", d.as_secs_f64());
    }
    eprintln!(
        "gate wall-clock {:.2}s (cells sum {:.2}s, jobs={jobs})",
        wall.as_secs_f64(),
        cell_total.as_secs_f64()
    );
    if let Some(dir) = out_dir {
        eprintln!("wrote manifest + telemetry under {dir}/");
    }
    if outcome.updated {
        eprintln!("updated {}", hpn_bench::gate::golden_path().display());
        eprintln!(
            "updated {}",
            hpn_bench::gate::latency_golden_path().display()
        );
    } else if !outcome.passed() {
        eprintln!(
            "gate FAILED: output drifted from tests/golden/figure_hashes.json \
             or tests/golden/latency_hashes.json"
        );
        eprintln!("(if the change is intended: hpn-experiments gate --quick --update)");
        std::process::exit(1);
    } else {
        eprintln!("gate passed");
    }
}

/// The `bench-regression` subcommand: compare a freshly measured
/// `BENCH_alloc.json` against the checked-in baseline (±`threshold`), or
/// promote the current measurement to be the new baseline.
fn bench_regression(baseline: Option<&str>, current: Option<&str>, threshold: f64, update: bool) {
    use hpn_bench::bench_regression::{
        baseline_path, check_events_per_iteration, compare, load, load_text, passed, KeyStatus,
    };

    let default = baseline_path();
    let baseline = baseline
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| default.clone());
    let current = current
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| default.clone());

    if update {
        // Validate before promoting — a truncated bench file must not
        // become the new golden.
        if let Err(e) = load(&current) {
            eprintln!("bench-regression: refusing to promote baseline: {e}");
            std::process::exit(2);
        }
        if baseline != current {
            if let Err(e) = std::fs::copy(&current, &baseline) {
                eprintln!(
                    "bench-regression: copying {} -> {} failed: {e}",
                    current.display(),
                    baseline.display()
                );
                std::process::exit(2);
            }
        }
        eprintln!(
            "bench-regression: baseline updated at {} — commit it",
            baseline.display()
        );
        return;
    }

    let (base, cur) = match (load(&baseline), load(&current)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench-regression: {e}");
            }
            std::process::exit(2);
        }
    };
    // A batch-size drift makes every µs/event figure incomparable, so it
    // fails the gate before any per-key verdict can mislead.
    match (load_text(&baseline), load_text(&current)) {
        (Ok(b), Ok(c)) => {
            if let Err(e) = check_events_per_iteration(&b, &c) {
                eprintln!("bench-regression: {e}");
                std::process::exit(1);
            }
        }
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench-regression: {e}");
            }
            std::process::exit(2);
        }
    }
    let rows = compare(&base, &cur, threshold);
    for r in &rows {
        let fmt = |v: Option<f64>| v.map_or_else(|| "      --".to_string(), |v| format!("{v:8.2}"));
        let delta = match (r.baseline, r.current) {
            (Some(b), Some(c)) if b > 0.0 => format!("{:+6.1}%", (c - b) / b * 100.0),
            _ => "     --".to_string(),
        };
        let tag = match r.status {
            KeyStatus::Ok => "ok",
            KeyStatus::Regressed => "REGRESSED",
            KeyStatus::Improved => "improved (consider --update-baseline)",
            KeyStatus::MissingFromCurrent => "MISSING from current run",
            KeyStatus::MissingFromBaseline => "MISSING from baseline",
        };
        println!(
            "  {:<20} {} -> {} µs/event {delta}  {tag}",
            r.key,
            fmt(r.baseline),
            fmt(r.current)
        );
    }
    if passed(&rows) {
        eprintln!(
            "bench-regression: {} key(s) within ±{:.0}%",
            rows.len(),
            threshold * 100.0
        );
    } else {
        eprintln!(
            "bench-regression: FAILED (threshold {:.0}%) — if the perf change is \
             intended, re-measure on a quiet machine and run with --update-baseline",
            threshold * 100.0
        );
        std::process::exit(1);
    }
}

/// The `run` subcommand: execute a plan of (figure, seed) cells on `jobs`
/// workers, print the reports in plan order, and — for sweeps or when an
/// output directory is given — write per-seed manifests, telemetry streams
/// and an aggregated cross-seed `variance.json`.
fn run(ids: &[String], scale: Scale, jobs: usize, seeds: Option<Vec<u64>>, out_dir: Option<&str>) {
    use hpn_bench::gate::{allocator_label, GATE_FIGURES};
    use hpn_bench::runner::{run_plan, variance_json, write_sweep_outputs, RunPlan};

    let figures: Vec<&str> = if ids.is_empty() {
        GATE_FIGURES.to_vec()
    } else if ids.len() == 1 && ids[0] == "all" {
        registry().iter().map(|(id, _, _)| *id).collect()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let plan = match &seeds {
        None => RunPlan::figures_only(&figures, scale),
        Some(s) => RunPlan::sweep(&figures, scale, s),
    };
    if let Err(e) = plan.validate() {
        eprintln!("{e} — try `hpn-experiments list`");
        std::process::exit(2);
    }
    eprintln!(
        "run: {} figures × {} seed(s) = {} cells, allocator={}, {:?}, jobs={jobs}",
        plan.figures.len(),
        plan.seeds.len(),
        plan.figures.len() * plan.seeds.len(),
        allocator_label(),
        scale,
    );

    let start = std::time::Instant::now();
    let results = run_plan(&plan, jobs);
    let wall = start.elapsed();

    for r in &results {
        if let Some(root) = r.cell.seed {
            println!("-- seed {root}");
        }
        r.report.print();
    }
    let cell_total: std::time::Duration = results.iter().map(|r| r.wall).sum();
    for r in &results {
        eprintln!(
            "  {:<8} seed={:<6} {:>8.2}s",
            r.cell.figure,
            r.cell.seed.map_or("fixed".to_string(), |s| s.to_string()),
            r.wall.as_secs_f64()
        );
    }
    eprintln!(
        "run wall-clock {:.2}s (cells sum {:.2}s, jobs={jobs})",
        wall.as_secs_f64(),
        cell_total.as_secs_f64()
    );

    let out = out_dir.map(std::path::Path::new);
    if out.is_some() || seeds.is_some() {
        if let Some(dir) = out {
            if let Err(e) = write_sweep_outputs(&plan, &results, Some(dir)) {
                eprintln!("writing sweep outputs failed: {e}");
                std::process::exit(2);
            }
            let report = variance_json(&plan, &results);
            let path = dir.join("variance.json");
            if let Err(e) = std::fs::write(&path, report) {
                eprintln!("writing {} failed: {e}", path.display());
                std::process::exit(2);
            }
            eprintln!("wrote manifests + telemetry + variance.json under {dir:?}");
        } else {
            // Sweep without --out: print the aggregate so it isn't lost.
            println!("{}", variance_json(&plan, &results));
        }
    }
}

/// The `scenario run` subcommand: validate every file first (so a typo in
/// the last file cannot waste a long run), then execute each scenario as a
/// cell on the parallel runner, and write the same manifest + telemetry
/// outputs a figure run produces.
fn scenario_run(
    files: &[String],
    scale: Scale,
    jobs: usize,
    out_dir: Option<&str>,
    latency: hpn_bench::scenario_cli::LatencyMode,
) {
    use hpn_bench::gate::allocator_label;
    use hpn_bench::runner::{run_cells, write_sweep_outputs, Cell, RunPlan};
    use hpn_bench::scenario_cli;

    let mut scenarios = Vec::new();
    let mut bad = false;
    for p in files {
        match scenario_cli::load(std::path::Path::new(p)).and_then(|sc| sc.check().map(|()| sc)) {
            Ok(sc) => scenarios.push(sc),
            Err(e) => {
                eprintln!("{e}");
                bad = true;
            }
        }
    }
    if bad {
        std::process::exit(2);
    }

    // Cell labels are the scenario names, disambiguated on collision so
    // per-cell outputs cannot overwrite each other.
    let mut labels: Vec<String> = Vec::new();
    for sc in &scenarios {
        let mut label = sc.name.clone();
        if labels.contains(&label) {
            label = format!("{}#{}", sc.name, labels.len());
        }
        labels.push(label);
    }
    eprintln!(
        "scenario run: {} cell(s), allocator={}, {:?}, jobs={jobs}",
        scenarios.len(),
        allocator_label(),
        scale,
    );

    let tasks: Vec<(Cell, _)> = scenarios
        .into_iter()
        .zip(&labels)
        .enumerate()
        .map(|(index, (sc, label))| {
            let cell = Cell {
                index,
                figure: label.clone(),
                seed: None,
            };
            (cell, move |ctx: &SimCtx, scale| {
                scenario_cli::report_with_latency(ctx, &sc, scale, latency)
            })
        })
        .collect();
    let start = std::time::Instant::now();
    let results = run_cells(tasks, scale, jobs);
    let wall = start.elapsed();

    for r in &results {
        r.report.print();
    }
    for r in &results {
        eprintln!("  {:<24} {:>8.2}s", r.cell.figure, r.wall.as_secs_f64());
    }
    eprintln!(
        "scenario wall-clock {:.2}s (jobs={jobs})",
        wall.as_secs_f64()
    );

    if let Some(dir) = out_dir {
        // Reuse the sweep writer: one `None` seed, figures = cell labels.
        let plan = RunPlan {
            figures: labels,
            seeds: vec![None],
            scale,
        };
        if let Err(e) = write_sweep_outputs(&plan, &results, Some(std::path::Path::new(dir))) {
            eprintln!("writing scenario outputs failed: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote manifest + telemetry under {dir}/");
    }
}

/// The `scenario fuzz` subcommand: property-fuzz the simulator over a seed
/// range (or re-check reproducer files), fanning seeds out over the
/// work-stealing pool. Each seed is a pure function of `(seed, mutation)`,
/// and results are printed in seed order — output is byte-identical at any
/// `--jobs`. Shrunk reproducers are written as `failing_<seed>.toml` under
/// the output directory.
fn scenario_fuzz(
    files: &[String],
    jobs: usize,
    seeds: Option<Vec<u64>>,
    budget_secs: Option<f64>,
    mutation: hpn_check::Mutation,
    out_dir: Option<&str>,
) {
    use hpn_bench::{pool, scenario_cli};
    use hpn_check::{fuzz_seed, recheck, seed_of, SeedOutcome};

    // Work items: reproducer files re-checked under their embedded seed, or
    // a fresh seed range (default 1..=100).
    enum Item {
        Seed(u64),
        File(String, Box<hpn_scenario::Scenario>, u64),
    }
    let items: Vec<Item> = if files.is_empty() {
        seeds
            .unwrap_or_else(|| (1..=100).collect())
            .into_iter()
            .map(Item::Seed)
            .collect()
    } else {
        let mut loaded = Vec::new();
        let mut bad = false;
        for p in files {
            match scenario_cli::load(std::path::Path::new(p)).and_then(|sc| sc.check().map(|()| sc))
            {
                Ok(sc) => {
                    let seed = seed_of(&sc).unwrap_or(0);
                    loaded.push(Item::File(p.clone(), Box::new(sc), seed));
                }
                Err(e) => {
                    eprintln!("{e}");
                    bad = true;
                }
            }
        }
        if bad {
            std::process::exit(2);
        }
        loaded
    };
    eprintln!(
        "scenario fuzz: {} case(s), mutation={}, jobs={jobs}{}",
        items.len(),
        mutation.name(),
        budget_secs.map_or(String::new(), |s| format!(", budget {s}s")),
    );

    let deadline =
        budget_secs.map(|s| std::time::Instant::now() + std::time::Duration::from_secs_f64(s));
    let start = std::time::Instant::now();
    let results: Vec<Option<(String, u64, SeedOutcome)>> =
        pool::run_indexed(jobs, items, move |_, item| {
            // Budget exhaustion skips remaining cases instead of aborting:
            // every completed case still prints, so a partial nightly run
            // reports everything it managed to check.
            if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                return None;
            }
            Some(match item {
                Item::Seed(seed) => (format!("seed {seed}"), seed, fuzz_seed(seed, mutation)),
                Item::File(path, sc, seed) => (path, seed, recheck(*sc, seed, mutation)),
            })
        });
    let wall = start.elapsed();

    let out = std::path::PathBuf::from(out_dir.unwrap_or("target/fuzz"));
    let (mut checked, mut failing, mut skipped) = (0usize, 0usize, 0usize);
    let mut by_invariant: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    for res in results {
        let Some((label, seed, outcome)) = res else {
            skipped += 1;
            continue;
        };
        checked += 1;
        match outcome {
            SeedOutcome::Pass { summary } => println!("  {label:<12} ok    {summary}"),
            SeedOutcome::Fail {
                invariant,
                detail,
                shrunk_toml,
                shrunk_hosts,
            } => {
                failing += 1;
                *by_invariant.entry(invariant.clone()).or_insert(0) += 1;
                println!("  {label:<12} FAIL  invariant={invariant} shrunk_hosts={shrunk_hosts}");
                println!("    {detail}");
                if let Err(e) = std::fs::create_dir_all(&out) {
                    eprintln!("creating {} failed: {e}", out.display());
                    std::process::exit(2);
                }
                let path = out.join(format!("failing_{seed}.toml"));
                if let Err(e) = std::fs::write(&path, &shrunk_toml) {
                    eprintln!("writing {} failed: {e}", path.display());
                    std::process::exit(2);
                }
                println!("    reproducer: {}", path.display());
            }
        }
    }
    eprintln!(
        "fuzz: {checked} checked, {failing} failing, {skipped} skipped (budget), {:.2}s wall (jobs={jobs})",
        wall.as_secs_f64()
    );
    if !by_invariant.is_empty() {
        // Per-invariant counts so a nightly log distinguishes "one oracle
        // tripped everywhere" from "many independent breakages" at a glance.
        let breakdown = by_invariant
            .iter()
            .map(|(inv, n)| format!("{inv}×{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!("fuzz failures by invariant: {breakdown}");
    }
    if failing > 0 {
        eprintln!(
            "re-run one case: hpn-experiments scenario fuzz --seeds <seed> [--mutate {}]",
            mutation.name()
        );
        std::process::exit(1);
    }
}

/// The `serve` subcommand: run the what-if server until `POST /shutdown`.
fn serve(addr: &str, jobs: usize, scale: Scale) {
    use hpn_bench::serve::{ServeConfig, Server};
    let server = match Server::spawn(
        addr,
        ServeConfig {
            jobs,
            scale,
            share_memo: false,
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "serve: listening on http://{} ({:?}, jobs={jobs})",
        server.addr(),
        scale,
    );
    eprintln!("serve: POST /scenario/check | POST /scenario/run | GET /status | POST /shutdown");
    server.join();
    eprintln!("serve: shut down cleanly");
}

/// The `scenario fuzz --serve` leg: POST fuzz-derived scenarios (generated
/// from seeds, or loaded reproducer files) to an in-process serve instance
/// and require each response to be bitwise equal to the in-process,
/// cache-free oracle. Repeats share the server's artifact cache, so this
/// sweeps warm-cache states the unit tests cannot reach.
fn scenario_fuzz_serve(files: &[String], jobs: usize, seeds: Option<Vec<u64>>) {
    use hpn_bench::scenario_cli;
    use hpn_bench::serve::{diff_vs_oracle, ServeConfig, Server};

    let mut cases: Vec<(String, hpn_scenario::Scenario)> = Vec::new();
    if files.is_empty() {
        // Default smaller than the invariant-fuzz range: every case runs
        // the full simulation twice (served + oracle).
        for seed in seeds.unwrap_or_else(|| (1..=10).collect()) {
            cases.push((format!("seed {seed}"), hpn_check::generate(seed)));
        }
    } else {
        let mut bad = false;
        for p in files {
            match scenario_cli::load(std::path::Path::new(p)).and_then(|sc| sc.check().map(|()| sc))
            {
                Ok(sc) => cases.push((p.clone(), sc)),
                Err(e) => {
                    eprintln!("{e}");
                    bad = true;
                }
            }
        }
        if bad {
            std::process::exit(2);
        }
    }
    let server = match Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            jobs,
            scale: Scale::Quick,
            share_memo: false,
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fuzz --serve: cannot bind loopback: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "scenario fuzz --serve: {} case(s) against http://{} (jobs={jobs})",
        cases.len(),
        server.addr()
    );
    let start = std::time::Instant::now();
    let mut failing = 0usize;
    for (label, sc) in &cases {
        match diff_vs_oracle(server.addr(), sc, Scale::Quick) {
            Ok(()) => println!(
                "  {label:<12} ok    serve ≡ oracle (scenario '{}')",
                sc.name
            ),
            Err(e) => {
                failing += 1;
                println!("  {label:<12} FAIL  {e}");
            }
        }
    }
    let stats = server.cache_stats();
    server.stop();
    server.join();
    eprintln!(
        "fuzz --serve: {} checked, {failing} failing, {:.2}s wall \
         (cache: {} topology hits / {} misses)",
        cases.len(),
        start.elapsed().as_secs_f64(),
        stats.topology_hits,
        stats.topology_misses,
    );
    if failing > 0 {
        std::process::exit(1);
    }
}

fn topo(which: &str) {
    use hpn_topology::{wiring, DcnPlusConfig, HpnConfig};
    let fabric = match which {
        "hpn" => HpnConfig::medium().build(),
        "paper" => HpnConfig::paper().build(),
        "dcn" => DcnPlusConfig::paper().build(),
        other => {
            eprintln!("unknown fabric '{other}' — use hpn|paper|dcn");
            std::process::exit(2);
        }
    };
    println!("fabric: {which}");
    println!("  active GPUs : {}", fabric.active_gpu_count());
    println!("  total GPUs  : {}", fabric.total_gpu_count());
    println!("  hosts       : {}", fabric.hosts.len());
    println!("  segments    : {}", fabric.segments);
    println!("  pods        : {}", fabric.pods);
    println!(
        "  ToRs/Aggs/Cores : {}/{}/{}",
        fabric.tors.len(),
        fabric.aggs.len(),
        fabric.cores.len()
    );
    println!(
        "  nodes/links : {}/{}",
        fabric.net.node_count(),
        fabric.net.link_count()
    );
    println!(
        "  features    : dual-ToR={} dual-plane={} rail-optimized={}",
        fabric.dual_tor, fabric.dual_plane, fabric.rail_optimized
    );
    let violations = wiring::validate_blueprint(&fabric);
    if violations.is_empty() {
        println!("  wiring      : blueprint-clean (INT-probe check, §10)");
    } else {
        println!("  wiring      : {} VIOLATIONS", violations.len());
        for v in violations.iter().take(10) {
            println!("    {v:?}");
        }
    }
}

fn write_out(path: &str, blob: &str) {
    let mut f = std::fs::File::create(path).expect("create json output");
    f.write_all(blob.as_bytes()).expect("write json output");
    eprintln!("wrote {path}");
}
