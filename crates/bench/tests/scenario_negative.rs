//! Negative-path tests for the `scenario` CLI: malformed user input must
//! produce exit code 2 with a line-numbered diagnostic on stderr, and must
//! never panic. These run the real `hpn-experiments` binary so the exit
//! code and diagnostic plumbing are tested end-to-end, not just the parser.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hpn-experiments"))
}

fn write_scenario(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpn-scenario-neg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write scenario file");
    path
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_diagnostic_exit(out: &Output, needle: &str) {
    let err = stderr_of(out);
    assert_eq!(
        out.status.code(),
        Some(2),
        "want exit 2, got {:?}; stderr: {err}",
        out.status.code()
    );
    assert!(
        err.contains(needle),
        "stderr should mention {needle:?}; got: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "user input must not panic the CLI: {err}"
    );
}

#[test]
fn duplicate_toml_key_is_a_line_numbered_diagnostic() {
    let path = write_scenario(
        "dup_key.toml",
        "name = \"dup\"\n\
         \n\
         [topology]\n\
         kind = \"hpn\"\n\
         preset = \"tiny\"\n\
         kind = \"fat-tree\"\n",
    );
    let out = bin()
        .args(["scenario", "check"])
        .arg(&path)
        .output()
        .expect("run hpn-experiments");
    // The re-definition is on line 6; the first definition on line 4.
    assert_diagnostic_exit(&out, "duplicate key `kind` (first defined on line 4)");
    assert!(
        stderr_of(&out).contains("line 6") || stderr_of(&out).contains(":6"),
        "diagnostic should carry the offending line: {}",
        stderr_of(&out)
    );
}

#[test]
fn out_of_range_workload_pp_is_rejected_with_field_and_line() {
    let path = write_scenario(
        "pp_zero.toml",
        "name = \"ppzero\"\n\
         \n\
         [topology]\n\
         kind = \"hpn\"\n\
         preset = \"tiny\"\n\
         \n\
         [workload]\n\
         model = \"llama-7b\"\n\
         pp = 0\n\
         dp = 2\n\
         global_batch = 64\n",
    );
    let out = bin()
        .args(["scenario", "check"])
        .arg(&path)
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, "[workload.pp]");
    assert_diagnostic_exit(&out, "must be at least 1");
    // pp = 0 sits on line 9 of the file above.
    assert!(
        stderr_of(&out).contains(":9"),
        "diagnostic should point at line 9: {}",
        stderr_of(&out)
    );
}

#[test]
fn overflowing_workload_spray_is_a_field_diagnostic() {
    // spray × connections per pair must fit in u32, or every chunk of a
    // Send would be infinitely large.
    let smoke =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/tiny_smoke.toml");
    let body = std::fs::read_to_string(smoke).expect("read tiny_smoke.toml");
    let path = write_scenario(
        "spray_overflow.toml",
        &format!("{body}spray = 2147483648\n"),
    );
    for cmd in ["check", "run"] {
        let out = bin()
            .args(["scenario", cmd])
            .arg(&path)
            .args(["--quick", "--out"])
            .arg(std::env::temp_dir().join("hpn-scenario-neg-spray-out"))
            .output()
            .expect("run hpn-experiments");
        assert_diagnostic_exit(&out, "[workload.spray] must be at most 1073741823");
    }
}

#[test]
fn unreadable_scenario_file_is_a_diagnostic_not_a_panic() {
    let out = bin()
        .args(["scenario", "check", "/nonexistent/hpn-no-such-file.toml"])
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, "cannot read scenario");
}

#[test]
fn build_time_scenario_errors_name_the_file() {
    // The file parses; the fabric builder rejects it. With several files
    // on one command line, the diagnostic must say which one failed.
    let bad = write_scenario(
        "zero_cores.toml",
        "name = \"zero-cores\"\n\
         \n\
         [topology]\n\
         kind = \"hpn\"\n\
         preset = \"tiny\"\n\
         cores_per_plane = 0\n",
    );
    let good =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/tiny_smoke.toml");
    let out = bin()
        .args(["scenario", "check"])
        .arg(&bad)
        .arg(&good)
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, "[topology.cores_per_plane] must be at least 1");
    let err = stderr_of(&out);
    assert!(
        err.starts_with(&format!("{}: ", bad.display())),
        "diagnostic should start with the failing file: {err}"
    );
}

#[test]
fn unwritable_json_path_is_a_diagnostic_not_a_panic() {
    let out = bin()
        .args([
            "fig19",
            "--quick",
            "--json",
            "/nonexistent/hpn-no-such-dir/x.json",
        ])
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, "/nonexistent/hpn-no-such-dir/x.json");
}

#[test]
fn reversed_fuzz_seed_range_is_rejected() {
    let out = bin()
        .args(["scenario", "fuzz", "--seeds", "9..=1"])
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, "empty seed range");
}

#[test]
fn last_u64_seed_is_an_overflow_diagnostic() {
    // The single-seed form denotes the range s..s+1, which does not fit
    // in u64 for the largest seed.
    let out = bin()
        .args(["run", "fig19", "--quick", "--seeds", "18446744073709551615"])
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, "seed overflow");
}

#[test]
fn unknown_fuzz_mutation_is_rejected_with_the_menu() {
    let out = bin()
        .args(["scenario", "fuzz", "--seeds", "1..=1", "--mutate", "bitrot"])
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, "use none|rate-overshoot");
}

#[test]
fn unknown_scenario_subcommand_lists_the_valid_ones() {
    let out = bin()
        .args(["scenario", "frob"])
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, "use check|run|fuzz");
}

#[test]
fn unknown_allocator_names_are_rejected_at_startup() {
    // The allocator knob is gone: any value — a stale `dense`, the names of
    // removed allocators, typos — must not silently run incremental.
    for bad in [
        "dense",
        "incremental",
        "surrogate",
        "parallel",
        "surogate",
        "",
    ] {
        let out = bin()
            .env("HPN_ALLOCATOR", bad)
            .arg("list")
            .output()
            .expect("run hpn-experiments");
        assert_diagnostic_exit(&out, "HPN_ALLOCATOR is no longer read");
        assert!(out.stdout.is_empty(), "nothing runs before the check");
    }
    let out = bin()
        .env_remove("HPN_ALLOCATOR")
        .arg("list")
        .output()
        .expect("run hpn-experiments");
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
}

#[test]
fn removed_flags_are_unknown_flags() {
    for flag in ["--share-memo", "--validate-every", "--quik"] {
        let out = bin()
            .args(["list", flag])
            .output()
            .expect("run hpn-experiments");
        assert_diagnostic_exit(&out, &format!("unknown flag '{flag}'"));
    }
}

/// The shipped smallest example scenario.
fn tiny_smoke() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/tiny_smoke.toml")
}

/// A regular file where an output directory is expected.
fn file_in_the_way(name: &str) -> PathBuf {
    write_scenario(name, "not a directory\n")
}

#[test]
fn out_path_that_is_a_file_fails_before_any_cell_runs() {
    let commands: [(&str, Vec<String>); 3] = [
        (
            "scenario-run-out",
            vec![
                "scenario".into(),
                "run".into(),
                tiny_smoke().display().to_string(),
                "--quick".into(),
            ],
        ),
        (
            "run-out",
            vec!["run".into(), "fig01".into(), "--quick".into()],
        ),
        ("gate-out", vec!["gate".into(), "--quick".into()]),
    ];
    for (name, args) in commands {
        let out_path = file_in_the_way(name);
        let out = bin()
            .args(&args)
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("run hpn-experiments");
        assert_diagnostic_exit(&out, &out_path.display().to_string());
        assert!(
            out.stdout.is_empty(),
            "{name}: no report is printed when --out is unusable: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn cell_file_that_cannot_be_created_is_a_diagnostic_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("hpn-scenario-neg-cell-{}", std::process::id()));
    let blocked = dir.join("tiny-smoke.telemetry.jsonl");
    std::fs::create_dir_all(&blocked).expect("pre-create a directory at the cell's file");
    let out = bin()
        .args(["scenario", "run"])
        .arg(tiny_smoke())
        .args(["--quick", "--out"])
        .arg(&dir)
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, &blocked.display().to_string());
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
