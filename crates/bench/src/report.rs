//! Markdown reporting shared by every experiment binary, plus the
//! sidecars (metrics, and on request trace and events) every figure
//! binary drops next to its output.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use dedup_obs::{sample_resources, EventLog, Registry, TraceExport, Tracer};
use dedup_sim::SimTime;

use crate::systems::StorageSystem;

/// Where metrics sidecars go: `$DEDUP_METRICS_DIR`, or `target/metrics`.
pub fn metrics_dir() -> PathBuf {
    std::env::var_os("DEDUP_METRICS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/metrics"))
}

/// Where trace sidecars go, when tracing is on: `$DEDUP_TRACE_DIR`.
/// Unlike metrics there is no default — no env var means no tracing.
pub fn trace_dir() -> Option<PathBuf> {
    std::env::var_os("DEDUP_TRACE_DIR").map(PathBuf::from)
}

/// Handles the figure binaries' `--trace[=DIR]` flag by setting
/// `DEDUP_TRACE_DIR` (default `target/traces`), so the systems built
/// afterwards attach tracers. Call before constructing any system.
pub fn parse_trace_flag() {
    for a in std::env::args().skip(1) {
        if a == "--trace" {
            if std::env::var_os("DEDUP_TRACE_DIR").is_none() {
                std::env::set_var("DEDUP_TRACE_DIR", "target/traces");
            }
        } else if let Some(dir) = a.strip_prefix("--trace=") {
            std::env::set_var("DEDUP_TRACE_DIR", dir);
        }
    }
}

/// Where event-log sidecars go, when events are on: `$DEDUP_EVENTS_DIR`.
/// Like tracing there is no default — no env var means no event log.
pub fn events_dir() -> Option<PathBuf> {
    std::env::var_os("DEDUP_EVENTS_DIR").map(PathBuf::from)
}

/// The tail every sidecar writer shares: creates `dir`, writes `body` to
/// `<dir>/<figure>.<ext>` and prints the path. IO errors are reported on
/// stderr as `<kind> sidecar skipped (...)` but never fatal — a read-only
/// checkout must not kill a figure run.
fn write_sidecar(kind: &str, dir: &Path, figure: &str, ext: &str, body: String) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("{kind} sidecar skipped ({}: {e})", dir.display());
        return;
    }
    let path = dir.join(format!("{figure}.{ext}"));
    match std::fs::write(&path, body) {
        Ok(()) => println!("{kind} sidecar: {}", path.display()),
        Err(e) => eprintln!("{kind} sidecar skipped ({}: {e})", path.display()),
    }
}

/// The sidecars one figure run writes next to its stdout:
/// `<figure>.metrics.jsonl` always (under `$DEDUP_METRICS_DIR`), plus
/// `<figure>.trace.json` (Chrome trace, loadable in Perfetto /
/// `chrome://tracing`) and `<figure>.events.jsonl` when
/// `DEDUP_TRACE_DIR` / `DEDUP_EVENTS_DIR` are set and a captured system
/// has a tracer / event log attached.
///
/// Every metrics line is one metric in the registry's JSON format and
/// every event line one event, each with a `system` label distinguishing
/// the configurations under test.
pub struct Sidecars {
    figure: String,
    metrics: Vec<String>,
    traces: Vec<(String, Tracer)>,
    events: Vec<(String, EventLog)>,
}

impl Sidecars {
    /// Starts the sidecars for `figure` (e.g. `"fig14"`).
    pub fn new(figure: impl Into<String>) -> Self {
        Sidecars {
            figure: figure.into(),
            metrics: Vec::new(),
            traces: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Captures `system` under `label`. Its registry is snapshotted at
    /// virtual time `now`, after sampling per-resource utilisation into it
    /// so the metrics cover the timing plane too. Its tracer and event log,
    /// when attached, are shared handles read at [`Sidecars::write`], so
    /// work run between capture and write still lands in the trace (fig05's
    /// redirection-read probe).
    pub fn capture(&mut self, label: &str, system: &dyn StorageSystem, now: SimTime) {
        let registry = system.registry();
        sample_resources(registry, &system.cluster().perf().pool, now);
        self.capture_registry(label, registry, now);
        if let Some(t) = system.tracer() {
            self.traces.push((label.to_string(), t.clone()));
        }
        if let Some(e) = system.events() {
            self.events.push((label.to_string(), e.clone()));
        }
    }

    /// Snapshots a bare registry (analyses without a storage stack).
    pub fn capture_registry(&mut self, label: &str, registry: &Registry, now: SimTime) {
        let mut snaps = registry.snapshot(now);
        for snap in &mut snaps {
            // Registry labels are sorted by key; keep the injected label in
            // order so sidecar lines are byte-deterministic regardless of
            // each metric's own label set.
            let pos = snap
                .labels
                .binary_search_by(|(k, _)| k.as_str().cmp("system"))
                .unwrap_or_else(|p| p);
            snap.labels
                .insert(pos, ("system".to_string(), label.to_string()));
            self.metrics.push(snap.to_json());
        }
    }

    /// Metrics lines captured so far (one JSON object per metric).
    pub fn lines(&self) -> &[String] {
        &self.metrics
    }

    /// Writes the metrics sidecar, and the trace and event sidecars when
    /// asked for and non-empty, printing each path. IO errors are reported
    /// but not fatal: a read-only checkout must not kill a figure run.
    pub fn write(&self) {
        let mut body = self.metrics.join("\n");
        body.push('\n');
        write_sidecar(
            "metrics",
            &metrics_dir(),
            &self.figure,
            "metrics.jsonl",
            body,
        );

        if let (Some(dir), false) = (trace_dir(), self.traces.is_empty()) {
            let exports: Vec<(String, TraceExport)> = self
                .traces
                .iter()
                .map(|(label, t)| (label.clone(), t.export()))
                .collect();
            let body = dedup_obs::render(&exports);
            write_sidecar("trace", &dir, &self.figure, "trace.json", body);
        }

        let Some(dir) = events_dir() else { return };
        let mut body = String::new();
        for (label, log) in &self.events {
            for e in log.events() {
                // Splice the system label in as the first key; event JSON
                // always starts with `{"seq":`.
                let _ = writeln!(body, "{{\"system\":\"{label}\",{}", &e.to_json()[1..]);
            }
        }
        if !body.is_empty() {
            write_sidecar("event", &dir, &self.figure, "events.jsonl", body);
        }
    }
}

/// Prints an experiment header with the paper reference.
pub fn header(id: &str, title: &str, notes: &str) {
    println!("\n## {id} — {title}\n");
    if !notes.is_empty() {
        println!("{notes}\n");
    }
}

/// Renders a markdown table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Prints a markdown table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(headers, rows));
}

/// Renders a per-second series as a compact `t=..s v` listing, sampling
/// every `step` bins.
pub fn series(name: &str, values: &[f64], step: usize) -> String {
    let mut out = format!("{name}: ");
    for (i, v) in values.iter().enumerate().step_by(step.max(1)) {
        let _ = write!(out, "{i}s={v:.0} ");
    }
    out
}

/// Formats bytes human-readably (GiB/MiB/KiB).
pub fn fmt_bytes(bytes: u64) -> String {
    const GIB: f64 = (1u64 << 30) as f64;
    const MIB: f64 = (1u64 << 20) as f64;
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= GIB {
        format!("{:.2} GiB", b / GIB)
    } else if b >= MIB {
        format!("{:.2} MiB", b / MIB)
    } else if b >= KIB {
        format!("{:.1} KiB", b / KIB)
    } else {
        format!("{bytes} B")
    }
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

/// Formats milliseconds with two decimals.
pub fn ms(x: f64) -> String {
    format!("{x:.2} ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape() {
        let t = table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("| a | b |"));
        assert!(lines[1].contains("---"));
        assert!(lines[2].contains("| 1 | 2 |"));
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(10), "10 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn series_sampling() {
        let s = series("x", &[1.0, 2.0, 3.0, 4.0], 2);
        assert!(s.contains("0s=1"));
        assert!(s.contains("2s=3"));
        assert!(!s.contains("1s=2"));
    }
}
