//! Figure 3: local vs global deduplication ratio across six workloads.
//!
//! Paper setup: 4 nodes × 4 OSDs; local dedup per OSD, global across all
//! 16. Datasets here are scaled (MBs instead of GB/TB); the duplicate
//! structure — which is what determines the ratios — is preserved by the
//! generators.

use dedup_core::{global_ratio, local_ratio};
use dedup_obs::Registry;
use dedup_sim::SimTime;
use dedup_workloads::cloud::CloudSpec;
use dedup_workloads::fio::FioSpec;
use dedup_workloads::sfs::SfsSpec;
use dedup_workloads::Dataset;

use crate::report;

const OSDS: usize = 16;

/// Paper numbers (local %, global %) per workload, from Fig. 3.
const PAPER: &[(&str, f64, f64)] = &[
    ("FIO dedup 50%", 4.20, 50.01),
    ("FIO dedup 80%", 12.98, 80.01),
    ("SFS DB (LD1)", 8.96, 35.96),
    ("SFS DB (LD3)", 32.53, 80.60),
    ("SFS DB (LD10)", 50.02, 92.73),
    ("SKT private cloud", 21.53, 44.80),
];

fn workloads() -> Vec<(&'static str, Dataset, u32)> {
    vec![
        (
            "FIO dedup 50%",
            FioSpec::new(48 << 20, 0.5)
                .object_size(256 * 1024)
                .dataset(),
            32 * 1024,
        ),
        (
            "FIO dedup 80%",
            FioSpec::new(48 << 20, 0.8)
                .object_size(256 * 1024)
                .dataset(),
            32 * 1024,
        ),
        (
            "SFS DB (LD1)",
            SfsSpec::with_load(1).files(12, 2 << 20).dataset(),
            8 * 1024,
        ),
        (
            "SFS DB (LD3)",
            SfsSpec::with_load(3).files(12, 2 << 20).dataset(),
            8 * 1024,
        ),
        (
            "SFS DB (LD10)",
            SfsSpec::with_load(10).files(12, 2 << 20).dataset(),
            8 * 1024,
        ),
        (
            "SKT private cloud",
            CloudSpec::default().dataset(),
            32 * 1024,
        ),
    ]
}

/// Runs the experiment and prints the comparison table.
pub fn run() {
    report::header(
        "Fig. 3",
        "Local vs global deduplication ratio",
        "4 nodes x 4 OSDs; local dedup per OSD, global across all 16. \
         Datasets scaled to laptop size; duplicate structure preserved.",
    );
    let registry = Registry::new();
    let mut rows = Vec::new();
    for (name, dataset, chunk) in workloads() {
        let local = local_ratio(dataset.iter_refs(), chunk, OSDS);
        let global = global_ratio(dataset.iter_refs(), chunk);
        let labels: &[(&str, &str)] = &[("workload", name)];
        registry
            .counter_with("analysis.dataset_bytes", labels)
            .add(dataset.total_bytes());
        registry
            .gauge_with("analysis.local_ratio_pct_x100", labels)
            .set((local.ratio_percent() * 100.0) as i64);
        registry
            .gauge_with("analysis.global_ratio_pct_x100", labels)
            .set((global.ratio_percent() * 100.0) as i64);
        let paper = PAPER
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("paper row");
        rows.push(vec![
            name.to_string(),
            report::pct(local.ratio_percent()),
            report::pct(paper.1),
            report::pct(global.ratio_percent()),
            report::pct(paper.2),
        ]);
    }
    report::print_table(
        &[
            "workload",
            "local (measured)",
            "local (paper)",
            "global (measured)",
            "global (paper)",
        ],
        &rows,
    );
    let mut sidecar = report::Sidecars::new("fig03");
    sidecar.capture_registry("analysis", &registry, SimTime::ZERO);
    sidecar.write();
}
