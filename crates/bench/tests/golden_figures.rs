//! The figure and table binaries' stdout, pinned byte for byte.
//!
//! The virtual-time figures are the behavioural spec that makes
//! simplifying the engine safe (ROADMAP): every reproduced figure is a
//! deterministic function of the code, so any diff in `golden/<fig>.md`
//! is a behaviour change. Each test spawns one binary with the optional
//! sidecars off, drops the `... sidecar: <path>` lines (they print the
//! temp dir), and compares the rest with the committed golden.
//!
//! The three slow figures (fig05 22 s, fig12 34 s, fig14 38 s in release)
//! are `#[ignore]`d; CI runs all ten with
//! `cargo test --release --offline -p dedup-bench --test golden_figures -- --include-ignored`.
//!
//! A golden changes only in a PR that means to change behaviour.
//! Regenerate one from the repo root, at the commit whose output is the
//! new spec, with (fig03 shown; the binary names are in the tests below):
//!
//! ```sh
//! cargo build --release --offline -p dedup-bench
//! env -u DEDUP_TRACE_DIR -u DEDUP_EVENTS_DIR \
//!   DEDUP_METRICS_DIR="$(mktemp -d)" target/release/fig03_local_vs_global \
//!   | grep -v ' sidecar: ' > crates/bench/tests/golden/fig03.md
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one binary's sidecars.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `exe` with the metrics sidecar pointed at a scratch directory,
/// the trace sidecar at `trace_dir` when given, and every other optional
/// sidecar off; returns stdout without the sidecar-path lines.
fn figure_stdout(exe: &str, tag: &str, trace_dir: Option<&Path>) -> String {
    let metrics = scratch(tag);
    let mut cmd = Command::new(exe);
    cmd.env("DEDUP_METRICS_DIR", &metrics);
    for var in ["DEDUP_TRACE_DIR", "DEDUP_EVENTS_DIR"] {
        cmd.env_remove(var);
    }
    if let Some(dir) = trace_dir {
        cmd.env("DEDUP_TRACE_DIR", dir);
    }
    let out = cmd.output().expect("spawn figure binary");
    let _ = std::fs::remove_dir_all(&metrics);
    assert!(out.status.success(), "{exe} exited with {}", out.status);
    String::from_utf8(out.stdout)
        .expect("utf-8 stdout")
        .lines()
        .filter(|line| !line.contains(" sidecar: "))
        .map(|line| format!("{line}\n"))
        .collect()
}

fn assert_golden(exe: &str, tag: &str, golden: &str) {
    let got = figure_stdout(exe, tag, None);
    assert!(
        got == golden,
        "{tag} drifted from crates/bench/tests/golden/{tag}.md\n--- golden\n{golden}\n--- got\n{got}"
    );
}

#[test]
fn fig03_local_vs_global() {
    assert_golden(
        env!("CARGO_BIN_EXE_fig03_local_vs_global"),
        "fig03",
        include_str!("golden/fig03.md"),
    );
}

#[test]
fn table1_osd_scaling() {
    assert_golden(
        env!("CARGO_BIN_EXE_table1_osd_scaling"),
        "table1",
        include_str!("golden/table1.md"),
    );
}

/// Also the proof tracing is free of side effects, on a real figure: the
/// same run with a tracer attached must print the same bytes, and the
/// trace it writes must be a well-formed Chrome trace in which the
/// proxied redirection read decomposes into its lookup and chunk-read
/// legs, with queueing and service time separated.
#[test]
#[ignore = "22 s in release; CI runs it with --include-ignored"]
fn fig05_degradation() {
    let exe = env!("CARGO_BIN_EXE_fig05_degradation");
    let golden = include_str!("golden/fig05.md");
    assert_golden(exe, "fig05", golden);
    let traces = scratch("fig05-traces");
    let traced = figure_stdout(exe, "fig05-traced", Some(&traces));
    assert!(
        traced == golden,
        "tracing perturbed fig05\n--- golden\n{golden}\n--- traced\n{traced}"
    );
    let trace = std::fs::read_to_string(traces.join("fig05.trace.json")).expect("trace sidecar");
    let events = dedup_obs::validate_chrome_trace(&trace).expect("well-formed Chrome trace");
    assert!(events > 0, "traced fig05 recorded no events");
    for needle in [
        "\"redirect.lookup\"",
        "\"redirect.chunk_read\"",
        "\"queue\"",
        "\"service\"",
    ] {
        assert!(trace.contains(needle), "traced fig05 has no {needle} span");
    }
    let _ = std::fs::remove_dir_all(&traces);
}

#[test]
fn fig10_small_random() {
    assert_golden(
        env!("CARGO_BIN_EXE_fig10_small_random"),
        "fig10",
        include_str!("golden/fig10.md"),
    );
}

#[test]
fn fig11_sequential() {
    assert_golden(
        env!("CARGO_BIN_EXE_fig11_sequential"),
        "fig11",
        include_str!("golden/fig11.md"),
    );
}

#[test]
fn table2_chunk_size() {
    assert_golden(
        env!("CARGO_BIN_EXE_table2_chunk_size"),
        "table2",
        include_str!("golden/table2.md"),
    );
}

#[test]
#[ignore = "34 s in release; CI runs it with --include-ignored"]
fn fig12_sfs_database() {
    assert_golden(
        env!("CARGO_BIN_EXE_fig12_sfs_database"),
        "fig12",
        include_str!("golden/fig12.md"),
    );
}

#[test]
fn table3_recovery() {
    assert_golden(
        env!("CARGO_BIN_EXE_table3_recovery"),
        "table3",
        include_str!("golden/table3.md"),
    );
}

#[test]
fn fig13_compression() {
    assert_golden(
        env!("CARGO_BIN_EXE_fig13_compression"),
        "fig13",
        include_str!("golden/fig13.md"),
    );
}

#[test]
#[ignore = "38 s in release; CI runs it with --include-ignored"]
fn fig14_rate_control() {
    assert_golden(
        env!("CARGO_BIN_EXE_fig14_rate_control"),
        "fig14",
        include_str!("golden/fig14.md"),
    );
}
