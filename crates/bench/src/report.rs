//! Markdown reporting shared by every experiment binary, plus the
//! JSON-lines metrics sidecar every figure binary drops next to its
//! output.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use dedup_obs::{sample_resources, TraceExport};
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

/// Where op-dump sidecars go, when op dumping is on: `$DEDUP_OPDUMP_DIR`,
/// or `target/opdumps` when only the `DEDUP_OPDUMP` switch is set.
/// Op dumps ride on the tracer, so they additionally require
/// `DEDUP_TRACE_DIR` (otherwise no tracker exists to dump).
pub fn opdump_dir() -> Option<PathBuf> {
    if let Some(dir) = std::env::var_os("DEDUP_OPDUMP_DIR") {
        return Some(PathBuf::from(dir));
    }
    std::env::var_os("DEDUP_OPDUMP").map(|_| PathBuf::from("target/opdumps"))
}

/// The tail every sidecar writer shares: creates `dir`, writes `body` to
/// `<dir>/<figure>.<ext>` and prints the path. IO errors are reported on
/// stderr as `<kind> sidecar skipped (...)` but never fatal — a read-only
/// checkout must not kill a figure run.
fn write_sidecar(kind: &str, dir: &Path, figure: &str, ext: &str, body: String) -> Option<PathBuf> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("{kind} sidecar skipped ({}: {e})", dir.display());
        return None;
    }
    let path = dir.join(format!("{figure}.{ext}"));
    match std::fs::write(&path, body) {
        Ok(()) => {
            println!("{kind} sidecar: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("{kind} sidecar skipped ({}: {e})", path.display());
            None
        }
    }
}

/// Accumulates labelled registry snapshots from the systems an experiment
/// ran and writes them as one `<figure>.metrics.jsonl` sidecar.
///
/// Every line is one metric in the registry's JSON format, with a
/// `system` label distinguishing the configurations under test.
pub struct MetricsSidecar {
    figure: String,
    lines: Vec<String>,
}

impl MetricsSidecar {
    /// Starts a sidecar for `figure` (e.g. `"fig14"`).
    pub fn new(figure: impl Into<String>) -> Self {
        MetricsSidecar {
            figure: figure.into(),
            lines: Vec::new(),
        }
    }

    /// Snapshots `system`'s registry at virtual time `now`, tagging each
    /// metric with `system=<label>`. Samples per-resource utilisation
    /// into the registry first so the sidecar covers the timing plane
    /// too.
    pub fn capture(&mut self, label: &str, system: &dyn StorageSystem, now: SimTime) {
        let registry = system.registry();
        sample_resources(registry, &system.cluster().perf().pool, now);
        self.capture_registry(label, registry, now);
    }

    /// Snapshots a bare registry (analyses without a storage stack).
    pub fn capture_registry(&mut self, label: &str, registry: &dedup_obs::Registry, now: SimTime) {
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
            self.lines.push(snap.to_json());
        }
    }

    /// Lines captured so far (one JSON object per metric).
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Writes the sidecar, creating the metrics directory if needed, and
    /// prints its path. Errors are reported but not fatal: a read-only
    /// checkout must not kill a figure run.
    pub fn write(&self) -> Option<PathBuf> {
        let dir = metrics_dir();
        let mut body = self.lines.join("\n");
        body.push('\n');
        write_sidecar("metrics", &dir, &self.figure, "metrics.jsonl", body)
    }
}

/// Accumulates labelled [`TraceExport`]s from the systems an experiment
/// ran and writes them as one Chrome-trace `<figure>.trace.json` sidecar
/// (loadable in Perfetto / `chrome://tracing`).
///
/// Does nothing unless `DEDUP_TRACE_DIR` is set: capture is a no-op for
/// untraced systems and [`TraceSidecar::write`] without captures writes
/// no file, so figure binaries can call this unconditionally.
pub struct TraceSidecar {
    figure: String,
    exports: Vec<(String, TraceExport)>,
}

impl TraceSidecar {
    /// Starts a trace sidecar for `figure` (e.g. `"fig05"`).
    pub fn new(figure: impl Into<String>) -> Self {
        TraceSidecar {
            figure: figure.into(),
            exports: Vec::new(),
        }
    }

    /// Captures `system`'s span trees under the `label` track group; no-op
    /// when the system has no tracer attached.
    pub fn capture(&mut self, label: &str, system: &dyn StorageSystem) {
        if let Some(t) = system.tracer() {
            self.exports.push((label.to_string(), t.export()));
        }
    }

    /// Captures from a bare tracer (stacks driven without a
    /// [`StorageSystem`]).
    pub fn capture_tracer(&mut self, label: &str, tracer: &dedup_obs::Tracer) {
        self.exports.push((label.to_string(), tracer.export()));
    }

    /// Writes `<figure>.trace.json` under `DEDUP_TRACE_DIR` and prints its
    /// path. Returns `None` (silently) when tracing is off or nothing was
    /// captured; IO errors are reported but not fatal.
    pub fn write(&self) -> Option<PathBuf> {
        let dir = trace_dir()?;
        if self.exports.is_empty() {
            return None;
        }
        let body = dedup_obs::render(&self.exports);
        write_sidecar("trace", &dir, &self.figure, "trace.json", body)
    }
}

/// Accumulates labelled event-log exports and writes them as one
/// `<figure>.events.jsonl` sidecar (one JSON object per event, each
/// tagged with the system label).
///
/// Does nothing unless `DEDUP_EVENTS_DIR` is set: capture is a no-op for
/// systems without an event log and [`EventSidecar::write`] without
/// captures writes no file, so figure binaries can call this
/// unconditionally.
pub struct EventSidecar {
    figure: String,
    lines: Vec<String>,
}

impl EventSidecar {
    /// Starts an event sidecar for `figure` (e.g. `"fig05"`).
    pub fn new(figure: impl Into<String>) -> Self {
        EventSidecar {
            figure: figure.into(),
            lines: Vec::new(),
        }
    }

    /// Captures `system`'s event log under `label`; no-op when the system
    /// has no event log attached.
    pub fn capture(&mut self, label: &str, system: &dyn StorageSystem) {
        if let Some(ev) = system.events() {
            self.capture_events(label, ev);
        }
    }

    /// Captures from a bare [`dedup_obs::EventLog`].
    pub fn capture_events(&mut self, label: &str, events: &dedup_obs::EventLog) {
        for e in events.events() {
            let line = e.to_json();
            // Splice the system label in as the first key; event JSON
            // always starts with `{"seq":`.
            self.lines
                .push(format!("{{\"system\":\"{label}\",{}", &line[1..]));
        }
    }

    /// Writes `<figure>.events.jsonl` under `DEDUP_EVENTS_DIR` and prints
    /// its path. Returns `None` (silently) when events are off or nothing
    /// was captured; IO errors are reported but not fatal.
    pub fn write(&self) -> Option<PathBuf> {
        let dir = events_dir()?;
        if self.lines.is_empty() {
            return None;
        }
        let mut body = self.lines.join("\n");
        body.push('\n');
        write_sidecar("event", &dir, &self.figure, "events.jsonl", body)
    }
}

/// Accumulates labelled op-tracker dumps (Ceph's `dump_in_flight_ops` /
/// `dump_historic_ops`) and writes them as one `<figure>.ops.json`
/// sidecar.
///
/// Gated on `DEDUP_OPDUMP` / `DEDUP_OPDUMP_DIR` (see [`opdump_dir`]); the
/// dumps come from the tracer, so `DEDUP_TRACE_DIR` must be set too.
pub struct OpDumpSidecar {
    figure: String,
    entries: Vec<String>,
}

impl OpDumpSidecar {
    /// Starts an op-dump sidecar for `figure` (e.g. `"fig05"`).
    pub fn new(figure: impl Into<String>) -> Self {
        OpDumpSidecar {
            figure: figure.into(),
            entries: Vec::new(),
        }
    }

    /// Captures `system`'s op-tracker state under `label`; no-op when op
    /// dumping is off or the system has no tracer attached.
    pub fn capture(&mut self, label: &str, system: &dyn StorageSystem) {
        if opdump_dir().is_none() {
            return;
        }
        if let Some(t) = system.tracer() {
            self.capture_tracer(label, t);
        }
    }

    /// Captures from a bare tracer.
    pub fn capture_tracer(&mut self, label: &str, tracer: &dedup_obs::Tracer) {
        self.entries.push(format!(
            "{{\"system\":\"{label}\",\"in_flight\":{},\"historic\":{}}}",
            tracer.dump_in_flight(),
            tracer.dump_historic()
        ));
    }

    /// Writes `<figure>.ops.json` under the op-dump directory and prints
    /// its path. Returns `None` (silently) when op dumping is off or
    /// nothing was captured; IO errors are reported but not fatal.
    pub fn write(&self) -> Option<PathBuf> {
        let dir = opdump_dir()?;
        if self.entries.is_empty() {
            return None;
        }
        let body = format!("[{}]\n", self.entries.join(","));
        write_sidecar("op-dump", &dir, &self.figure, "ops.json", body)
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
