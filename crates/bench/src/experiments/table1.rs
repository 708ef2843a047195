//! Table 1: local vs global dedup ratio as the OSD count grows.
//!
//! Workload: FIO with 50 % duplicate fraction. Global stays at 50 % while
//! local decays roughly as `1/OSDs` because each duplicate's partner block
//! rarely lands on the same device.

use dedup_core::{global_ratio, local_ratio};
use dedup_obs::Registry;
use dedup_sim::SimTime;
use dedup_workloads::fio::FioSpec;

use crate::report;

/// Paper's local-dedup percentages for 4/8/12/16 OSDs.
const PAPER_LOCAL: &[(usize, f64)] = &[(4, 15.5), (8, 8.1), (12, 5.5), (16, 4.1)];
const PAPER_GLOBAL: f64 = 50.0;

/// Runs the experiment and prints the comparison table.
pub fn run() {
    report::header("Table 1", "Dedup ratio vs OSD count (FIO dedup 50%)", "");
    let dataset = FioSpec::new(48 << 20, 0.5)
        .object_size(256 * 1024)
        .dataset();
    let global = global_ratio(dataset.iter_refs(), 32 * 1024).ratio_percent();
    let registry = Registry::new();
    registry
        .gauge("analysis.global_ratio_pct_x100")
        .set((global * 100.0) as i64);
    let mut rows = Vec::new();
    for &(osds, paper_local) in PAPER_LOCAL {
        let local = local_ratio(dataset.iter_refs(), 32 * 1024, osds).ratio_percent();
        let osds_label = osds.to_string();
        registry
            .gauge_with(
                "analysis.local_ratio_pct_x100",
                &[("osds", osds_label.as_str())],
            )
            .set((local * 100.0) as i64);
        rows.push(vec![
            format!("{osds} OSD"),
            report::pct(local),
            report::pct(paper_local),
            report::pct(global),
            report::pct(PAPER_GLOBAL),
        ]);
    }
    report::print_table(
        &[
            "cluster",
            "local (measured)",
            "local (paper)",
            "global (measured)",
            "global (paper)",
        ],
        &rows,
    );
    let mut sidecar = report::Sidecars::new("table1");
    sidecar.capture_registry("analysis", &registry, SimTime::ZERO);
    sidecar.write();
}
