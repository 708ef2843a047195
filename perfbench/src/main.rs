//! `perf` — the repository's one wall-clock benchmark.
//!
//! `perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]`
//!
//! One workload per process. It drives a production-shaped `DedupService`
//! through the named workload for about `--seconds`, checks every byte it
//! reads back, prints a table of metrics and, as the last line of standard
//! output, one JSON object: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run with its layer replay (`--trace 1`).
//! Only the layer crates' public APIs are called. See README.md.

mod closed;
mod data;
mod metrics;
mod paced;
mod replay;
mod run;
mod span;
mod stats;
mod sut;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use data::Scale;
use metrics::{render_ledger, render_result_line, render_table, END_TO_END, PER_LAYER};
use run::{run, RunConfig, Workload};

const USAGE: &str = "usage: perf --workload <ingest-dup|ingest-unique|read-cold|mixed-paced> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::IngestDup,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// The checked-out commit, if the working directory is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if rev.len() >= 12 && rev.bytes().all(|b| b.is_ascii_hexdigit()) {
        rev[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::FULL,
        clients: cores.min(2),
    };
    let result = run(&cfg);
    let (kind, declared) = if cfg.trace {
        ("per-layer (traced run + layer replay)", PER_LAYER)
    } else {
        ("end-to-end", END_TO_END)
    };
    let metrics = result.metrics.in_order(declared);
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = result.failed == 0 && result.unrepeatable == 0 && finite;
    let fail_ratio = result.failed as f64 / result.attempted.max(1) as f64;
    let git_rev = git_rev();

    println!(
        "# perf {} seed {} {} s, {kind}; host cores {cores}, clients {}, git {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.clients,
        git_rev
    );
    print!("{}", render_table(&metrics));
    println!(
        "fail_ratio {fail_ratio} ({} failed of {} attempted); repetitions whose \
         seed-determined counts differed: {}",
        result.failed, result.attempted, result.unrepeatable
    );
    for step in &result.steps {
        println!("{}", step.render());
    }
    if let Some(budget) = &result.budget {
        println!(
            "\n# layer budget of the traced repetition\n{}",
            budget.render()
        );
    }

    // The ledger record and the spans go beside each other; losing them
    // does not fail the run, the result line below is what is gated.
    let stem = format!(
        "{}{}",
        cfg.workload.name(),
        if cfg.trace { "-trace" } else { "" }
    );
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        let ledger = render_ledger(
            cfg.workload.name(),
            cfg.seed,
            cores,
            &git_rev,
            fail_ratio,
            &metrics,
        );
        std::fs::write(args.out.join(format!("perf-{stem}.json")), ledger)?;
        if let Some(recorder) = &result.recorder {
            let path = args.out.join(format!("trace-{}.json", cfg.workload.name()));
            recorder.write_json(&path)?;
            println!("# spans: {} in {}", recorder.spans().len(), path.display());
            println!(
                "{:<16} {:>9} {:>12} {:>12}",
                "span", "count", "total ms", "self ms"
            );
            for (name, t) in recorder.totals_by_name() {
                println!(
                    "{name:<16} {:>9} {:>12.3} {:>12.3}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", args.out.display());
    }

    println!(
        "{}",
        render_result_line(correct, result.attempted, result.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "mixed-paced",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::MixedPaced);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        let d = args(&["--workload", "read-cold"]).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (1, 20.0, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&[]).is_err(), "workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "read-cold", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "read-cold", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "read-cold", "--seed"]).is_err());
        assert!(args(&["--workload", "read-cold", "--frobnicate", "1"]).is_err());
    }
}
