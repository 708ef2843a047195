//! Metric names, units and the two output shapes: a human table and the
//! one-line JSON result the driver reads. The name lists here are the same
//! lists `BENCHMARK.json` declares (a unit test holds them together).

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (ops for a latency, repetitions for a
    /// throughput, 1 for a count read once).
    pub n: u64,
    /// IQR/median across this run's repetitions (0 with fewer than two).
    pub spread: f64,
}

/// `(name, unit)` of every end-to-end metric, in ledger order. Each
/// workload reports all of them; README.md says what each one measures on
/// each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("space_amp", "ratio"),
    ("put_mibps", "MiB/s"),
    ("put_p50_us", "us"),
    ("dedup_mibps", "MiB/s"),
    ("get_kops", "kops/s"),
    ("get_mid_us", "us"),
    ("slo_rate_ops", "ops/s"),
    ("dirty_end", "objects"),
];

/// `(name, unit)` of every per-layer metric, grouped by layer (= module).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chunk.fixed_mibps", "MiB/s"),
    ("fingerprint.full_mibps", "MiB/s"),
    ("fingerprint.sig_ns", "ns"),
    ("fingerprint.full_calls", "count"),
    ("fingerprint.full_hash_bytes", "bytes"),
    ("fingerprint.skipped_unique", "count"),
    ("compress.compress_mibps", "MiB/s"),
    ("compress.decompress_mibps", "MiB/s"),
    ("compress.ratio", "ratio"),
    ("compress.attempted_chunks", "count"),
    ("compress.raw_fallbacks", "count"),
    ("compress.decompressed_chunks", "count"),
    ("erasure.encode_mibps", "MiB/s"),
    ("placement.acting_set_ns", "ns"),
    ("store.write_rep_us", "us"),
    ("store.write_ec_us", "us"),
    ("store.read_rep_us", "us"),
    ("store.wal_overhead_us", "us"),
    ("store.write_amp", "ratio"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("index.probe_hit_ns", "ns"),
    ("index.probe_miss_ns", "ns"),
    ("index.insert_ns", "ns"),
    ("index.resident_bytes", "bytes"),
    ("index.cold_entries", "count"),
    ("bloom.negative_ratio", "ratio"),
    ("bloom.fill_ppm", "ppm"),
    ("cache.hit_ratio", "ratio"),
    ("cache.promotions", "count"),
    ("cache.hot_skips", "count"),
    ("flush.stage_ms", "ms"),
    ("flush.fingerprint_ms", "ms"),
    ("flush.commit_ms", "ms"),
    ("flush.passes", "count"),
    ("flush.chunks_flushed", "count"),
    ("flush.chunks_deduped", "count"),
    ("flush.chunks_created", "count"),
    ("flush.stage_conflicts", "count"),
    ("flush.lock_held_frac", "ratio"),
    ("engine.write_us", "us"),
    ("engine.read_hit_us", "us"),
    ("engine.read_redirect_us", "us"),
    ("engine.copied_per_user_byte", "ratio"),
    ("engine.gc_ms", "ms"),
    ("service.put_p99_us", "us"),
    ("service.get_p99_us", "us"),
    ("service.put_overhead_us", "us"),
    ("service.shard_wait_read_p99_us", "us"),
    ("service.shard_wait_write_p99_us", "us"),
    ("service.p99_us.r2000", "us"),
    ("service.p99_us.r3500", "us"),
    ("service.p99_us.r5000", "us"),
    ("service.fg_p99_us", "us"),
    ("service.fg_p999_us", "us"),
    ("service.stall_max_ms", "ms"),
    ("service.slow_frac", "ratio"),
    ("service.worker_ticks", "count"),
    ("service.coalesced_ticks", "count"),
    ("rate.admitted", "count"),
    ("rate.denied", "count"),
    ("sim.fp_model_ratio", "ratio"),
    ("sim.compress_model_ratio", "ratio"),
    ("sim.decompress_model_ratio", "ratio"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.lag_max_us", "us"),
    ("loadgen.gen_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("budget.coverage", "ratio"),
];

/// A set of metrics under construction; names are checked against the
/// declared lists so a typo cannot silently drop a number.
#[derive(Debug, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// Adds `name`, whose unit comes from the declared lists.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared or is added twice (a bug here).
    pub fn put(&mut self, name: &'static str, value: f64, n: u64, spread: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(declared, _)| *declared == name)
            .map(|(_, unit)| *unit)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push(Metric {
            name,
            unit,
            value,
            n,
            spread,
        });
    }

    /// A number read once (a count or a ratio of counts).
    pub fn put_value(&mut self, name: &'static str, value: f64) {
        self.put(name, value, 1, 0.0);
    }

    #[cfg(test)]
    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.name).collect()
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics of `declared`, in declared order. A declared metric
    /// the workload has no measurement for reads 0 (per-layer only: every
    /// end-to-end metric is measured on every workload).
    pub fn in_order(&self, declared: &[(&'static str, &'static str)]) -> Vec<Metric> {
        declared
            .iter()
            .map(|&(name, unit)| {
                self.get(name).cloned().unwrap_or(Metric {
                    name,
                    unit,
                    value: 0.0,
                    n: 0,
                    spread: 0.0,
                })
            })
            .collect()
    }
}

/// JSON number with all its digits; non-finite values (a bug) read as 0
/// and are reported through `correct: false` by the caller.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The human table.
pub fn render_table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>16} {:<8} {:>9} {:>8}",
        "metric", "value", "unit", "n", "spread"
    );
    for m in metrics {
        let _ = writeln!(
            out,
            "{:<34} {:>16.4} {:<8} {:>9} {:>7.1}%",
            m.name,
            m.value,
            m.unit,
            m.n,
            m.spread * 100.0
        );
    }
    out
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn render_result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// The ledger record written beside the trace: one object with the run's
/// identity and every metric with its sample count and spread.
pub fn render_ledger(
    workload: &str,
    seed: u64,
    host_cores: usize,
    git_rev: &str,
    fail_ratio: f64,
    metrics: &[Metric],
) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"n\": {}, \"spread\": {}}}",
                m.name,
                m.unit,
                json_number(m.value),
                m.n,
                json_number(m.spread)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"host_cores\": {host_cores},\n  \
         \"git_rev\": \"{git_rev}\",\n  \"fail_ratio\": {},\n  \"metrics\": [\n{body}\n  ]\n}}\n",
        json_number(fail_ratio)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit}");
            assert!(seen.insert(*name), "duplicate name {name}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// Pulls the `"name"` values out of one top-level array of
    /// `BENCHMARK.json` (a flat file; no nested arrays inside the lists).
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value opens") + 1..];
                rest[..rest.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_the_same_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&json, "end_to_end"), declared(END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = crate::run::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must be declared with unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut set = MetricSet::default();
        set.put("setup_s", 0.8127, 3, 0.01);
        set.put_value("dirty_end", 192.0);
        let line = render_result_line(true, 10, 0, &set.in_order(&END_TO_END[..1]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn missing_per_layer_metrics_read_zero() {
        let set = MetricSet::default();
        let all = set.in_order(PER_LAYER);
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all.iter().all(|m| m.value == 0.0 && m.n == 0));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_rejected() {
        MetricSet::default().put_value("made.up", 1.0);
    }
}
