//! Health findings and aggregated health reports.
//!
//! Each subsystem that can degrade exposes a **probe**: a plain, cheap,
//! read-only function over its own state that returns at most one
//! [`HealthFinding`] (`None` = healthy). Findings carry a machine-readable
//! `code` plus a human-readable `detail`, and roll up into a
//! [`HealthReport`] whose overall [`HealthStatus`] is the worst finding's
//! status — `ok` < `degraded` < `critical`. The stack lists its probes
//! once, with their component names, in one table
//! (`dedup_core::DedupStore::health_report`).
//!
//! Probes are pull-based: nothing runs until someone (the service
//! worker's caller, `dedup_doctor`, a test) asks for a report, so the
//! steady-state cost of having health probes *available* is zero. Probes
//! must not mutate the system or advance virtual time — they observe the
//! same state the metrics gauges are published from.

use std::fmt::Write as _;

use dedup_sim::SimTime;

use crate::registry::json_escape;

/// Aggregate condition of a component (or the whole stack). Ordered so
/// the worst finding wins: `Ok < Degraded < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HealthStatus {
    /// Operating within declared bounds.
    Ok,
    /// Still serving, but outside its comfort zone (overfull bloom
    /// filter, skewed shards, elevated rate band) — worth attention.
    Degraded,
    /// Correctness or availability is at risk (index over its memory
    /// bound, WAL manifest unreadable, half the OSDs down).
    Critical,
}

impl HealthStatus {
    /// Stable lowercase name (`ok`/`degraded`/`critical`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        }
    }
}

/// One concrete reason a component is not (fully) healthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthFinding {
    /// Component the finding is about, e.g. `engine.bloom`, `cluster.wal`.
    pub component: String,
    /// Severity of this finding.
    pub status: HealthStatus,
    /// Machine-readable reason code, e.g. `bloom_overfill`,
    /// `index_over_memory_bound`, `osd_down`.
    pub code: &'static str,
    /// Human-readable explanation with the numbers that triggered it.
    pub detail: String,
}

impl HealthFinding {
    /// Convenience constructor.
    pub fn new(
        component: impl Into<String>,
        status: HealthStatus,
        code: &'static str,
        detail: impl Into<String>,
    ) -> Self {
        HealthFinding {
            component: component.into(),
            status,
            code,
            detail: detail.into(),
        }
    }

    /// Renders the finding as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"component\":\"{}\",\"status\":\"{}\",\"code\":\"{}\",\"detail\":\"{}\"}}",
            json_escape(&self.component),
            self.status.as_str(),
            json_escape(self.code),
            json_escape(&self.detail),
        )
    }
}

/// Aggregated findings from a table of probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Virtual time the report was assembled at.
    pub at: SimTime,
    /// Components that were probed (including healthy ones).
    pub components: Vec<String>,
    /// All findings, in probe order.
    pub findings: Vec<HealthFinding>,
}

impl HealthReport {
    /// Collects `(component, finding)` pairs, in probe order, into a
    /// report stamped `now`.
    pub fn collect<'a>(
        now: SimTime,
        probes: impl IntoIterator<Item = (&'a str, Option<HealthFinding>)>,
    ) -> Self {
        let mut report = HealthReport {
            at: now,
            components: Vec::new(),
            findings: Vec::new(),
        };
        for (component, finding) in probes {
            report.components.push(component.to_string());
            report.findings.extend(finding);
        }
        report
    }

    /// Overall status: the worst finding's status, or `Ok` if none.
    pub fn status(&self) -> HealthStatus {
        self.findings
            .iter()
            .map(|f| f.status)
            .max()
            .unwrap_or(HealthStatus::Ok)
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"at_ns\":{},\"status\":\"{}\",\"components\":[",
            self.at.as_nanos(),
            self.status().as_str(),
        );
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(c));
        }
        out.push_str("],\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&f.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(component: &str, status: HealthStatus, code: &'static str) -> HealthFinding {
        HealthFinding::new(component, status, code, "detail")
    }

    #[test]
    fn worst_finding_wins() {
        let healthy = ("a", None);
        let degraded = ("b", Some(finding("b", HealthStatus::Degraded, "skew")));
        let critical = (
            "c",
            Some(finding("c", HealthStatus::Critical, "wal_manifest")),
        );

        let report =
            HealthReport::collect(SimTime::from_secs(1), [healthy.clone(), degraded.clone()]);
        assert_eq!(report.status(), HealthStatus::Degraded);
        assert_eq!(report.components, vec!["a", "b"]);

        let report = HealthReport::collect(SimTime::from_secs(1), [healthy, degraded, critical]);
        assert_eq!(report.status(), HealthStatus::Critical);
        assert_eq!(report.findings.len(), 2);
    }

    #[test]
    fn empty_report_is_ok() {
        let report = HealthReport::collect(SimTime::ZERO, []);
        assert_eq!(report.status(), HealthStatus::Ok);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn report_json_shape() {
        let bloom = HealthFinding::new(
            "engine.bloom",
            HealthStatus::Degraded,
            "bloom_overfill",
            "fill 0.62 > 0.50",
        );
        let report = HealthReport::collect(SimTime::from_nanos(7), [("engine.bloom", Some(bloom))]);
        let json = report.to_json();
        assert!(json.starts_with("{\"at_ns\":7,\"status\":\"degraded\""));
        assert!(json.contains("\"components\":[\"engine.bloom\"]"));
        assert!(json.contains("\"code\":\"bloom_overfill\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn status_ordering_is_ok_lt_degraded_lt_critical() {
        assert!(HealthStatus::Ok < HealthStatus::Degraded);
        assert!(HealthStatus::Degraded < HealthStatus::Critical);
    }
}
