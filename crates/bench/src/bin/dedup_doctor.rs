//! `dedup_doctor` — drive a configurable mixed workload against a fully
//! instrumented dedup stack and print one diagnosis: capacity curve,
//! dedup effectiveness, latency percentiles, slow ops, event timeline,
//! and aggregated health findings.
//!
//! ```text
//! dedup_doctor [--smoke] [--ops N] [--objects N] [--dup PCT] [--read PCT]
//!              [--segments N] [--chunk BYTES] [--inject none|osd-down|bloom-overfill]
//!              [--json PATH]
//! ```
//!
//! The human-readable report goes to stdout; `--json PATH` additionally
//! writes the machine-readable document (default
//! `dedup_doctor.json` when the flag is given without a path via
//! `--json=`). `--smoke` runs the small CI configuration and asserts the
//! report's internal invariants.

use dedup_bench::doctor::{run_doctor, smoke_check, DoctorInjection, DoctorOptions};

fn parse_injection(s: &str) -> DoctorInjection {
    match s {
        "none" => DoctorInjection::None,
        "osd-down" => DoctorInjection::OsdDown,
        "bloom-overfill" => DoctorInjection::BloomOverfill,
        other => panic!("unknown injection: {other} (expected none|osd-down|bloom-overfill)"),
    }
}

fn main() {
    let mut opts = DoctorOptions::default();
    let mut smoke = false;
    let mut json_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => {
                smoke = true;
                let inject = opts.inject;
                opts = DoctorOptions::smoke();
                opts.inject = inject;
            }
            "--ops" => opts.ops = next("--ops").parse().expect("--ops N"),
            "--objects" => opts.objects = next("--objects").parse().expect("--objects N"),
            "--dup" => opts.dup_percent = next("--dup").parse().expect("--dup PCT"),
            "--read" => opts.read_percent = next("--read").parse().expect("--read PCT"),
            "--segments" => opts.segments = next("--segments").parse().expect("--segments N"),
            "--chunk" => opts.chunk_size = next("--chunk").parse().expect("--chunk BYTES"),
            "--inject" => opts.inject = parse_injection(&next("--inject")),
            "--json" => json_out = Some(next("--json")),
            other => {
                if let Some(v) = other.strip_prefix("--inject=") {
                    opts.inject = parse_injection(v);
                } else if let Some(v) = other.strip_prefix("--json=") {
                    json_out = Some(v.to_string());
                } else {
                    panic!("unknown argument: {other}");
                }
            }
        }
    }
    let (report, _system) = run_doctor(&opts);
    print!("{}", report.human());
    if smoke {
        smoke_check(&report);
        println!("\nsmoke invariants hold ✓");
    }
    if let Some(path) = json_out {
        let mut body = report.json();
        body.push('\n');
        std::fs::write(&path, body).expect("write doctor JSON");
        println!("json report: {path}");
    }
}
