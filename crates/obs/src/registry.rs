//! Lock-cheap metrics registry.
//!
//! A [`Registry`] is a cloneable handle to a shared set of named
//! instruments. Instrument handles themselves are `Arc`-backed and can be
//! cached by hot paths, so recording is one or two atomic operations —
//! the registry mutex is touched only at registration and snapshot time.
//!
//! Four instrument kinds cover the workloads in this repo:
//!
//! - [`Counter`] — monotonic event count (atomic add).
//! - [`Gauge`] — signed instantaneous level, e.g. queue depth (atomic
//!   add/sub/set).
//! - [`Histogram`] — log-scaled value distribution (latencies in
//!   nanoseconds) with `p50`/`p95`/`p99` estimation; atomic buckets with
//!   ≤ 25 % relative bucket error.
//! - [`Meter`] — sliding-window event rate over [`SimTime`], for
//!   "observed IOPS"-style readings in virtual time.
//!
//! [`Registry::snapshot`] walks every instrument in name order and
//! [`Registry::to_jsonl`] renders the result as JSON-lines, one metric per
//! line — the sidecar format the bench drivers write next to each figure's
//! data file.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dedup_sim::{SimDuration, SimTime};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, bytes outstanding, band
/// index).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the level.
    ///
    /// Edge semantics (pinned): `set` is an atomic store and `add` an
    /// atomic read-modify-write on the same cell. Interleaving is
    /// last-writer-wins at the operation level — a `set` overwrites the
    /// effect of every `add` that completed before it, and every `add`
    /// that starts after it applies relative to the new level. Adds are
    /// never lost *between themselves*: N concurrent `add(1)` calls with
    /// no intervening `set` always raise the level by exactly N.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative). See [`Gauge::set`] for the pinned
    /// set/add interleaving semantics.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Log-scaled histogram: 4 sub-buckets per power of two.
///
/// Values 0–3 get exact buckets; larger values land in bucket
/// `4·⌊log2 v⌋ + top-2-mantissa-bits`, bounding relative error at 25 %.
/// That is ample resolution for latency percentiles spanning nanoseconds
/// to minutes, in 256 atomics.
const HIST_BUCKETS: usize = 256;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A distribution of `u64` samples (typically latency nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // >= 2
        let sub = ((v >> (octave - 2)) & 3) as usize;
        (octave - 2) * 4 + sub + 4
    }
}

/// Upper edge of the bucket, used as the quantile representative: a
/// conservative (never understated) latency estimate.
fn bucket_upper(index: usize) -> u64 {
    if index < 4 {
        index as u64
    } else {
        let octave = (index - 4) / 4 + 2;
        let sub = ((index - 4) % 4) as u64;
        (1u64 << octave) + (sub + 1) * (1u64 << (octave - 2)) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let inner = &self.inner;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Estimated value at quantile `q` in `[0, 1]`; 0 when empty.
    ///
    /// The estimate is the upper edge of the bucket holding the q-th
    /// sample, except that the final bucket reports the true maximum.
    ///
    /// Edge semantics (pinned): on an **empty** histogram every quantile
    /// is `0` — as are [`Histogram::min`] and [`Histogram::max`] — so
    /// "no samples" renders as zeros rather than NaNs or sentinels in
    /// reports.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.inner.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let upper = bucket_upper(i);
                return upper.min(self.inner.max.load(Ordering::Relaxed));
            }
        }
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Smallest sample recorded; `0` when empty (pinned — the internal
    /// `u64::MAX` sentinel is never exposed).
    pub fn min(&self) -> u64 {
        let v = self.inner.min.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Largest sample recorded; `0` when empty (pinned).
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct MeterInner {
    window: SimDuration,
    events: VecDeque<(SimTime, u64)>,
    total: u64,
}

impl MeterInner {
    fn prune(&mut self, now: SimTime) {
        let cutoff = now.as_nanos().saturating_sub(self.window.as_nanos());
        while let Some(&(t, _)) = self.events.front() {
            if t.as_nanos() < cutoff {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }
}

/// A sliding-window event-rate meter over virtual time.
///
/// `mark(now, n)` records `n` events at `now`; `rate(now)` is the number of
/// events inside the trailing window divided by the window length, i.e.
/// events per (virtual) second.
#[derive(Debug, Clone)]
pub struct Meter {
    inner: Arc<Mutex<MeterInner>>,
}

impl Meter {
    fn new(window: SimDuration) -> Self {
        Meter {
            inner: Arc::new(Mutex::new(MeterInner {
                window,
                events: VecDeque::new(),
                total: 0,
            })),
        }
    }

    /// Records `n` events at virtual time `now`.
    pub fn mark(&self, now: SimTime, n: u64) {
        let mut inner = self.inner.lock().expect("meter lock");
        inner.total += n;
        match inner.events.back_mut() {
            Some((t, count)) if *t == now => *count += n,
            _ => inner.events.push_back((now, n)),
        }
        inner.prune(now);
    }

    /// Events per virtual second over the trailing window ending at `now`.
    ///
    /// Edge semantics (pinned): the window is **inclusive at its start**.
    /// An event marked at exactly `now - window` still counts toward the
    /// rate at `now`; one nanosecond older and it is pruned. Equivalently
    /// the window covers `[now - window, now]`, so an event never
    /// vanishes from the rate *at* the boundary, only strictly past it.
    pub fn rate(&self, now: SimTime) -> f64 {
        let mut inner = self.inner.lock().expect("meter lock");
        inner.prune(now);
        let in_window: u64 = inner.events.iter().map(|&(_, n)| n).sum();
        let secs = inner.window.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            in_window as f64 / secs
        }
    }

    /// All events ever marked, regardless of window.
    pub fn total(&self) -> u64 {
        self.inner.lock().expect("meter lock").total
    }

    fn window(&self) -> SimDuration {
        self.inner.lock().expect("meter lock").window
    }
}

/// Label set attached to a metric, e.g. `[("pool", "chunk")]`.
pub type Labels = Vec<(String, String)>;

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Meter(Meter),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
            Instrument::Meter(_) => "meter",
        }
    }
}

/// One metric's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name, e.g. `engine.flush_queue_depth`.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// The instrument's current value(s).
    pub value: SnapshotValue,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Monotonic total.
    Counter(u64),
    /// Instantaneous level.
    Gauge(i64),
    /// Distribution summary.
    Histogram {
        /// Sample count.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Smallest sample (0 when empty).
        min: u64,
        /// Largest sample.
        max: u64,
        /// Median estimate.
        p50: u64,
        /// 95th-percentile estimate.
        p95: u64,
        /// 99th-percentile estimate.
        p99: u64,
    },
    /// Sliding-window rate.
    Meter {
        /// Events per virtual second in the trailing window.
        rate_per_sec: f64,
        /// Window length in virtual seconds.
        window_secs: f64,
        /// Events ever marked.
        total: u64,
    },
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<(String, Labels), Instrument>>,
}

/// Cloneable handle to a shared metric set.
///
/// Cloning is an `Arc` bump; all clones observe and mutate the same
/// metrics. Instruments are get-or-create: asking twice for the same
/// name+labels returns handles to the same underlying state.
///
/// # Panics
///
/// Re-registering a name+labels pair as a different instrument kind
/// panics — that is always an instrumentation bug.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn instrument<F: FnOnce() -> Instrument>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: F,
    ) -> Instrument {
        let mut labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let mut metrics = self.inner.metrics.lock().expect("registry lock");
        metrics
            .entry((name.to_string(), labels))
            .or_insert_with(make)
            .clone()
    }

    /// Gets or creates an unlabelled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Gets or creates a labelled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, labels, || Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Gets or creates an unlabelled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Gets or creates a labelled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, labels, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Gets or creates an unlabelled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Gets or creates a labelled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.instrument(name, labels, || Instrument::Histogram(Histogram::default())) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Gets or creates an unlabelled sliding-rate meter.
    ///
    /// The window is fixed at first registration; later callers get the
    /// existing meter regardless of the window they pass.
    pub fn meter(&self, name: &str, window: SimDuration) -> Meter {
        match self.instrument(name, &[], || Instrument::Meter(Meter::new(window))) {
            Instrument::Meter(m) => m,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Snapshots every metric, in (name, labels) order.
    ///
    /// `now` anchors meter windows; counters/gauges/histograms ignore it.
    pub fn snapshot(&self, now: SimTime) -> Vec<MetricSnapshot> {
        let metrics = self.inner.metrics.lock().expect("registry lock");
        metrics
            .iter()
            .map(|((name, labels), instrument)| MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: match instrument {
                    Instrument::Counter(c) => SnapshotValue::Counter(c.get()),
                    Instrument::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SnapshotValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                        p50: h.quantile(0.50),
                        p95: h.quantile(0.95),
                        p99: h.quantile(0.99),
                    },
                    Instrument::Meter(m) => SnapshotValue::Meter {
                        rate_per_sec: m.rate(now),
                        window_secs: m.window().as_secs_f64(),
                        total: m.total(),
                    },
                },
            })
            .collect()
    }

    /// Renders [`Registry::snapshot`] as JSON-lines: one metric object per
    /// line, ready to append to a `.metrics.jsonl` sidecar.
    pub fn to_jsonl(&self, now: SimTime) -> String {
        let mut out = String::new();
        for snap in self.snapshot(now) {
            out.push_str(&snap.to_json());
            out.push('\n');
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal (the escape
/// rules every hand-rolled JSON emitter in this crate shares).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Trim to a stable short form; metric rates don't need 17 digits.
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() {
            "0".to_string()
        } else {
            s.to_string()
        }
    } else {
        "null".to_string()
    }
}

impl MetricSnapshot {
    /// Renders this snapshot as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"metric\":\"{}\"", json_escape(&self.name));
        if !self.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push('}');
        }
        match &self.value {
            SnapshotValue::Counter(v) => {
                let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
            }
            SnapshotValue::Gauge(v) => {
                let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}");
            }
            SnapshotValue::Histogram {
                count,
                sum,
                min,
                max,
                p50,
                p95,
                p99,
            } => {
                let _ = write!(
                    out,
                    ",\"type\":\"histogram\",\"count\":{count},\"sum\":{sum},\
                     \"min\":{min},\"max\":{max},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}"
                );
            }
            SnapshotValue::Meter {
                rate_per_sec,
                window_secs,
                total,
            } => {
                let _ = write!(
                    out,
                    ",\"type\":\"meter\",\"rate_per_sec\":{},\"window_secs\":{},\"total\":{total}",
                    json_f64(*rate_per_sec),
                    json_f64(*window_secs)
                );
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_across_clones() {
        let reg = Registry::new();
        let c1 = reg.counter("ops");
        let c2 = reg.clone().counter("ops");
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4);

        let g = reg.gauge("depth");
        g.set(10);
        g.add(-4);
        assert_eq!(reg.gauge("depth").get(), 6);
    }

    #[test]
    fn labels_distinguish_series() {
        let reg = Registry::new();
        reg.counter_with("pool.ops", &[("pool", "chunk")]).add(5);
        reg.counter_with("pool.ops", &[("pool", "meta")]).add(7);
        let snaps = reg.snapshot(SimTime::ZERO);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].value, SnapshotValue::Counter(5));
        assert_eq!(snaps[1].value, SnapshotValue::Counter(7));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn bucket_mapping_is_monotonic_and_bounded() {
        let mut last = 0usize;
        for shift in 0..63 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2, v + v - 1] {
                let idx = bucket_index(probe);
                assert!(idx < HIST_BUCKETS, "index {idx} for {probe}");
                assert!(idx >= last || probe < 4, "non-monotonic at {probe}");
                last = last.max(idx);
                assert!(
                    bucket_upper(idx) >= probe,
                    "upper {} < value {probe}",
                    bucket_upper(idx)
                );
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_order_of_magnitude_right() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms in ns
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // 25% bucket error bound on each side.
        assert!((375_000..=625_000).contains(&p50), "p50 {p50}");
        assert!((742_500..=1_237_500).contains(&p99), "p99 {p99}");
        assert!(h.max() == 1_000_000 && h.min() == 1000);
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn meter_rate_slides_with_virtual_time() {
        let reg = Registry::new();
        let m = reg.meter("iops", SimDuration::from_secs(1));
        for i in 0..100 {
            m.mark(SimTime::from_nanos(i * 10_000_000), 1); // 100 over 1s
        }
        let at_1s = m.rate(SimTime::from_secs(1));
        assert!((99.0..=101.0).contains(&at_1s), "rate {at_1s}");
        // Two virtual seconds later every event has left the window.
        assert_eq!(m.rate(SimTime::from_secs(3)), 0.0);
        assert_eq!(m.total(), 100);
    }

    #[test]
    fn jsonl_output_is_one_valid_object_per_line() {
        let reg = Registry::new();
        reg.counter("a.ops").add(2);
        reg.gauge_with("b.depth", &[("pool", "chunk\"x")]).set(-3);
        reg.histogram("c.lat").record(12345);
        reg.meter("d.rate", SimDuration::from_secs(10))
            .mark(SimTime::from_secs(1), 50);
        let out = reg.to_jsonl(SimTime::from_secs(2));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with("{\"metric\":\""), "line {line}");
            assert!(line.ends_with('}'), "line {line}");
        }
        assert!(lines[0].contains("\"type\":\"counter\",\"value\":2"));
        assert!(lines[1].contains("\\\"")); // escaped quote in label value
        assert!(lines[2].contains("\"p99\":"));
        assert!(lines[3].contains("\"rate_per_sec\":5"));
    }

    #[test]
    fn snapshots_are_deterministic_across_registration_order() {
        // Two registries with the same instruments registered in opposite
        // orders (and labels given in different orders) must snapshot to
        // byte-identical JSON-lines: diffable sidecars across runs.
        type Step = Box<dyn Fn(&Registry)>;
        let populate = |reg: &Registry, reverse: bool| {
            let mut steps: Vec<Step> = vec![
                Box::new(|r: &Registry| r.counter("z.ops").add(7)),
                Box::new(|r: &Registry| {
                    r.gauge_with("a.depth", &[("pool", "base"), ("node", "0")])
                        .set(4)
                }),
                Box::new(|r: &Registry| {
                    // Same labels, other order: must coalesce identically.
                    r.gauge_with("a.depth", &[("node", "1"), ("pool", "base")])
                        .set(5)
                }),
                Box::new(|r: &Registry| r.histogram("m.lat").record(1000)),
            ];
            if reverse {
                steps.reverse();
            }
            for step in steps {
                step(reg);
            }
        };
        let fwd = Registry::new();
        populate(&fwd, false);
        let rev = Registry::new();
        populate(&rev, true);
        let now = SimTime::from_secs(1);
        assert_eq!(fwd.to_jsonl(now), rev.to_jsonl(now));
        // And the order itself is (name, labels)-sorted.
        let names: Vec<String> = fwd.snapshot(now).into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a.depth", "a.depth", "m.lat", "z.ops"]);
    }

    // --- pinned edge semantics (see the doc comments they mirror) ---

    #[test]
    fn empty_histogram_reports_zeros_not_sentinels() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.min(), 0, "u64::MAX sentinel must not leak");
        assert_eq!(h.max(), 0);
        // One sample flips min/max to that sample, not to garbage.
        h.record(7);
        assert_eq!((h.min(), h.max()), (7, 7));
    }

    #[test]
    fn meter_window_start_is_inclusive() {
        let reg = Registry::new();
        let m = reg.meter("edge", SimDuration::from_secs(1));
        m.mark(SimTime::from_secs(1), 10);
        // Exactly one window later: the event sits at now - window and
        // must still count (inclusive boundary).
        assert_eq!(m.rate(SimTime::from_secs(2)), 10.0);
        // One nanosecond past the boundary it is pruned.
        assert_eq!(m.rate(SimTime::from_nanos(2_000_000_001)), 0.0);
        // Pruning is permanent: asking at the boundary again after the
        // later query still reports 0 (events are gone, not filtered).
        assert_eq!(m.rate(SimTime::from_secs(2)), 0.0);
        assert_eq!(m.total(), 10, "lifetime total survives pruning");
    }

    #[test]
    fn gauge_set_add_interleaving_is_last_writer_wins() {
        let g = Gauge::default();
        g.add(5);
        g.set(100); // overwrites the prior adds entirely
        assert_eq!(g.get(), 100);
        g.add(-30); // applies relative to the new level
        g.add(10);
        assert_eq!(g.get(), 80);
        g.set(0); // reset discards accumulated adds again
        assert_eq!(g.get(), 0);
    }
}
