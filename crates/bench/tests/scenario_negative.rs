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
fn unreadable_scenario_file_is_a_diagnostic_not_a_panic() {
    let out = bin()
        .args(["scenario", "check", "/nonexistent/hpn-no-such-file.toml"])
        .output()
        .expect("run hpn-experiments");
    assert_diagnostic_exit(&out, "cannot read scenario");
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
    // Stale names of removed allocators and typos must not silently run
    // the default allocator.
    for bad in ["surrogate", "parallel", "surogate", ""] {
        let out = bin()
            .env("HPN_ALLOCATOR", bad)
            .arg("list")
            .output()
            .expect("run hpn-experiments");
        assert_diagnostic_exit(&out, "accepted values: dense, incremental");
        assert!(out.stdout.is_empty(), "nothing runs before the check");
    }
    let out = bin()
        .env("HPN_ALLOCATOR", "dense")
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
