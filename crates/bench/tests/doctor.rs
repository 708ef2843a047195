//! End-to-end checks for the `dedup_doctor` harness: the reported dedup
//! ratio must agree with the engine's space accounting, injected
//! degradations must surface as health findings *and* matching events,
//! and the JSON document must carry the same numbers.

use dedup_bench::doctor::{run_doctor, smoke_check, DoctorInjection, DoctorOptions};
use dedup_obs::{HealthStatus, Severity};

fn smoke_opts(inject: DoctorInjection) -> DoctorOptions {
    let mut opts = DoctorOptions::smoke();
    opts.inject = inject;
    opts
}

/// Acceptance: the doctor's dedup ratio is the engine's space
/// accounting, not an independent estimate.
#[test]
fn doctor_ratio_matches_space_accounting() {
    let (report, system) = run_doctor(&smoke_opts(DoctorInjection::None));
    smoke_check(&report);

    let space = system.store().space_report().expect("space report");
    assert!(
        (report.dedup_ratio_percent - space.actual_ratio_percent()).abs() < 1e-9,
        "doctor ratio {} != space accounting {}",
        report.dedup_ratio_percent,
        space.actual_ratio_percent()
    );
    assert!(
        (report.ideal_ratio_percent - space.ideal_ratio_percent()).abs() < 1e-9,
        "doctor ideal ratio {} != space accounting {}",
        report.ideal_ratio_percent,
        space.ideal_ratio_percent()
    );

    // The capacity curve's final sample is the same accounting.
    let last = report.capacity.last().expect("capacity samples");
    assert_eq!(last.space.logical_bytes, space.logical_bytes);
    // A 50% duplicate workload must actually deduplicate.
    assert!(
        report.dedup_ratio_percent > 0.0,
        "duplicate-heavy workload saved no space"
    );
}

/// Acceptance: an injected OSD failure surfaces as a degraded/critical
/// health finding and a matching structured event — also when the run
/// has a single segment, whose midpoint is that segment.
#[test]
fn injected_osd_down_surfaces_in_health_and_events() {
    for segments in [DoctorOptions::smoke().segments, 1] {
        let mut opts = smoke_opts(DoctorInjection::OsdDown);
        opts.segments = segments;
        let (report, _system) = run_doctor(&opts);

        assert!(
            report.health.status() >= HealthStatus::Degraded,
            "{segments} segment(s): OSD down did not degrade health: {:?}",
            report.health.findings
        );
        assert!(
            report
                .health
                .findings
                .iter()
                .any(|f| f.code == "osd_down" && f.status >= HealthStatus::Degraded),
            "{segments} segment(s): no osd_down finding: {:?}",
            report.health.findings
        );
        assert!(
            report
                .events
                .iter()
                .any(|e| e.kind == "osd_down" && e.severity >= Severity::Warn),
            "{segments} segment(s): no osd_down event in the timeline"
        );
    }
}

/// Acceptance: an undersized Bloom filter saturates under load and the
/// doctor reports both the health finding and the overfill event.
#[test]
fn injected_bloom_overfill_surfaces_in_health_and_events() {
    let (report, system) = run_doctor(&smoke_opts(DoctorInjection::BloomOverfill));

    assert!(
        system.store().bloom_fill_ratio() > 0.5,
        "injection failed to saturate the bloom filter"
    );
    assert!(
        report.health.status() >= HealthStatus::Degraded,
        "bloom overfill did not degrade health: {:?}",
        report.health.findings
    );
    assert!(
        report
            .health
            .findings
            .iter()
            .any(|f| f.code == "bloom_overfill"),
        "no bloom_overfill finding: {:?}",
        report.health.findings
    );
    assert!(
        report.events.iter().any(|e| {
            e.source == "engine.bloom" && e.kind == "overfill" && e.severity >= Severity::Warn
        }),
        "no bloom overfill event in the timeline"
    );
}

/// The JSON document round-trips the headline numbers and is held
/// together by the same escaping as the event log.
#[test]
fn doctor_json_carries_report_numbers() {
    let (report, _system) = run_doctor(&smoke_opts(DoctorInjection::None));
    let json = report.json();

    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains(&format!("\"ops\":{}", report.ops)));
    assert!(json.contains("\"capacity\":["));
    assert!(json.contains("\"health\":{"));
    assert!(json.contains("\"events\":["));
    assert!(json.contains(&format!(
        "\"status\":\"{}\"",
        report.health.status().as_str()
    )));
    // Every capacity sample, every event, and the health report carry a
    // timestamp.
    assert_eq!(
        json.matches("\"at_ns\":").count(),
        report.capacity.len() + report.events.len() + 1,
        "curve/event timestamps missing from JSON"
    );
}

/// `--objects 0` names no object to spread the workload over; the doctor
/// refuses it up front instead of dividing by zero mid-run.
#[test]
#[should_panic(expected = "--objects must be positive")]
fn zero_objects_are_refused() {
    let mut opts = smoke_opts(DoctorInjection::None);
    opts.objects = 0;
    let _ = run_doctor(&opts);
}
