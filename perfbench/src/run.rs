//! One repetition of a workload, the repetition loop, and the reduction of
//! repetitions to the ledger's metrics.

use std::time::Instant;

use dedup_core::{CachePolicy, DedupService};

use crate::closed::{expected_of, put_pass, random_gets, read_back, Phase};
use crate::data::{DatasetKind, Inputs, Scale, MIB};
use crate::metrics::MetricSet;
use crate::paced::{
    read_back_all, run_steps, PacedInputs, PacedOutcome, StepOutcome, MID_STEP, RATES,
    SLO_LIMIT_NS, STEP_P99_METRICS, WINDOW_NS,
};
use crate::replay::{self, Budget, LayerCosts};
use crate::span::Recorder;
use crate::stats::{interquartile_mean, median, p50_p99, percentile, spread, window_p99s};
use crate::sut::{build_store, end_state, settle, Clock, EndState, Session, Snapshot, SutSpec};

/// Timed repetitions a closed-loop run never goes below, whatever
/// `--seconds` says: three is the fewest a median and a spread mean
/// anything for.
const MIN_REPS: usize = 3;
/// Passes of the read-back where it is the timed GET phase (`ingest-*`).
/// `mixed-paced` reads back once: a second pass would find every object
/// hot and time promotions instead of reads.
const TIMED_READBACK_PASSES: usize = 3;
/// Set-ups `mixed-paced` repeats after its measurement, for a median of
/// three.
const SETUPS_AGAIN: usize = 2;
/// Seconds of a traced run kept back for the layer replay.
const REPLAY_RESERVE_S: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestDup,
    IngestUnique,
    ReadCold,
    MixedPaced,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestDup,
        Workload::IngestUnique,
        Workload::ReadCold,
        Workload::MixedPaced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestDup => "ingest-dup",
            Workload::IngestUnique => "ingest-unique",
            Workload::ReadCold => "read-cold",
            Workload::MixedPaced => "mixed-paced",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn dataset(self) -> DatasetKind {
        match self {
            Workload::IngestUnique => DatasetKind::FioUnique,
            _ => DatasetKind::CloudDup,
        }
    }

    pub fn sut(self) -> SutSpec {
        SutSpec {
            cache_policy: match self {
                Workload::MixedPaced => CachePolicy::HotnessAware,
                _ => CachePolicy::EvictAll,
            },
            ec_chunk_pool: self == Workload::IngestUnique,
        }
    }
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Closed-loop client threads: `min(2, cores)`.
    pub clients: usize,
}

/// The generated inputs of one repetition, and how long they took.
pub struct RepInputs {
    pub inputs: Inputs,
    pub paced: Option<PacedInputs>,
    pub gen_s: f64,
}

impl RepInputs {
    pub fn generate(cfg: &RunConfig) -> RepInputs {
        let start = Instant::now();
        let inputs = Inputs::generate(cfg.workload.dataset(), cfg.seed, &cfg.scale);
        let paced = (cfg.workload == Workload::MixedPaced).then(|| {
            let step_secs = cfg.seconds / RATES.len() as f64;
            PacedInputs::generate(cfg.seed, &cfg.scale, &inputs, step_secs)
        });
        RepInputs {
            inputs,
            paced,
            gen_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// Everything one repetition measured.
pub struct Rep {
    pub gen_s: f64,
    /// Input generation to the first timed op.
    pub setup_s: f64,
    /// The ingest PUT pass (timed on `ingest-*`, set-up elsewhere).
    pub put: Phase,
    /// The first settle, and the counters it moved.
    pub settle_s: f64,
    pub settle_delta: Snapshot,
    /// The workload's GET-bearing closed-loop phase: the read-back on
    /// `ingest-*` and `mixed-paced`, the random GETs on `read-cold`.
    pub get: Phase,
    pub paced: Option<PacedOutcome>,
    /// `dirty_len()` when the last foreground write phase ended.
    pub dirty_end: u64,
    pub logical_bytes: u64,
    pub end: EndState,
    pub totals: Snapshot,
    /// Wall seconds of the phases the workload times.
    pub timed_s: f64,
    /// Σ duration of every `put`/`get` span of the repetition (what the
    /// clients spent inside the service), and of its `settle` spans.
    pub op_span_s: f64,
    pub settle_span_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// What every workload begins with: its dataset written as sequential PUTs
/// with the worker un-ticked, then settled with no foreground.
struct Ingest {
    put: Phase,
    /// `dirty_len()` when the PUT pass ended.
    dirty: u64,
    settle_s: f64,
    settled: bool,
    /// The counters the settle moved.
    settle_delta: Snapshot,
}

fn ingest(session: &mut Session<'_>, inputs: &Inputs, scale: &Scale) -> Ingest {
    let svc = session.svc;
    let put = put_pass(session, inputs, scale);
    let dirty = svc.with_store(|s| s.dirty_len()) as u64;
    let before = svc.with_store(|s| Snapshot::take(s));
    let (settle_s, settled) = settle(session);
    Ingest {
        put,
        dirty,
        settle_s,
        settled,
        settle_delta: svc.with_store(|s| Snapshot::take(s)).since(&before),
    }
}

/// Builds the workload's store and starts its service; returns it with
/// the seconds that took.
fn start_service(workload: Workload) -> (DedupService, f64) {
    let start = Instant::now();
    let svc = DedupService::start(build_store(workload.sut()));
    (svc, start.elapsed().as_secs_f64())
}

/// One set-up on its own: inputs, store, ingest.
pub struct SetUp {
    pub setup_s: f64,
    pub put: Phase,
    /// Whether the settle emptied the backlog (one more checked outcome).
    pub settled: bool,
}

/// `mixed-paced` has one store per run, so its one set-up pays this
/// host's first-touch cost, which is bimodal (a 128 KiB PUT pass at 190 or
/// at 300 MiB/s). It therefore sets up again on fresh stores after the
/// measurement — not before: a heap grown beforehand fattens the paced
/// tails — and reports the median like the closed loops do.
pub fn set_up_again(cfg: &RunConfig) -> SetUp {
    let generated = RepInputs::generate(cfg);
    let (svc, build_s) = start_service(cfg.workload);
    let mut session = Session {
        svc: &svc,
        clock: Clock::default(),
        rec: &mut Recorder::new(false),
        root: 0,
        clients: cfg.clients,
    };
    let Ingest {
        put,
        settle_s,
        settled,
        ..
    } = ingest(&mut session, &generated.inputs, &cfg.scale);
    SetUp {
        setup_s: generated.gen_s + build_s + put.wall_s + settle_s,
        put,
        settled,
    }
}

/// Runs one repetition on a fresh store.
pub fn run_rep(cfg: &RunConfig, generated: &RepInputs, rec: &mut Recorder) -> Rep {
    let w = cfg.workload;
    let inputs = &generated.inputs;
    let (svc, build_s) = start_service(w);
    let root = rec.open("rep", 0);
    let mut session = Session {
        svc: &svc,
        clock: Clock::default(),
        rec,
        root,
        clients: cfg.clients,
    };

    let Ingest {
        put,
        dirty: mut dirty_end,
        settle_s,
        mut settled,
        settle_delta,
    } = ingest(&mut session, inputs, &cfg.scale);
    let ingest_s = put.wall_s + settle_s;
    let mut settle_span_s = settle_s;
    let dataset = expected_of(inputs);

    let mut paced = None;
    // The verification read-back where it is not the timed GET phase.
    let mut verify = Phase::default();
    let (get, end, setup_s, timed_s) = match w {
        Workload::IngestDup | Workload::IngestUnique => {
            let get = read_back(
                &mut session,
                &dataset,
                inputs.block_bytes,
                TIMED_READBACK_PASSES,
            );
            let end = end_state(&mut session, settled);
            let timed = ingest_s + get.wall_s;
            (get, end, generated.gen_s + build_s, timed)
        }
        Workload::ReadCold => {
            let get = random_gets(&mut session, inputs, cfg.scale.cold_gets, cfg.seed);
            verify = read_back(&mut session, &dataset, inputs.block_bytes, 1);
            let end = end_state(&mut session, settled);
            let timed = get.wall_s;
            (get, end, generated.gen_s + build_s + ingest_s, timed)
        }
        Workload::MixedPaced => {
            let steps = generated.paced.as_ref().expect("paced inputs generated");
            let mut shadow: Vec<Vec<u64>> = inputs.objects.iter().map(|o| o.sums.clone()).collect();
            let outcome = run_steps(&mut session, inputs, steps, &mut shadow, cfg.trace);
            dirty_end = outcome.dirty_end;
            let (again_s, settled_again) = settle(&mut session);
            settle_span_s += again_s;
            settled &= settled_again;
            let end = end_state(&mut session, settled);
            let get = read_back_all(&mut session, inputs, &shadow, &outcome.cold);
            let timed = outcome.steps.iter().map(|s| s.wall_s).sum();
            paced = Some(outcome);
            (get, end, generated.gen_s + build_s + ingest_s, timed)
        }
    };
    session.rec.close(root);
    let totals = svc.with_store(|s| Snapshot::take(s));
    drop(svc);

    let paced_ops = paced.as_ref().map_or((0, 0), |p| (p.attempted, p.failed));
    let closed_ns: u64 = [&put, &get, &verify].iter().flat_map(|p| &p.lat_ns).sum();
    let paced_ns: u64 = paced
        .iter()
        .flat_map(|p| &p.steps)
        .flat_map(|s| &s.samples)
        .map(|s| s.done_ns - s.issue_ns)
        .sum();
    Rep {
        op_span_s: (closed_ns + paced_ns) as f64 / 1e9,
        settle_span_s,
        gen_s: generated.gen_s,
        setup_s,
        settle_s,
        settle_delta,
        dirty_end,
        logical_bytes: inputs.total_bytes(),
        attempted: (put.lat_ns.len() + get.lat_ns.len() + verify.lat_ns.len()) as u64
            + paced_ops.0
            + end.checks,
        failed: put.failed + get.failed + verify.failed + paced_ops.1 + end.failed,
        put,
        get,
        paced,
        end,
        totals,
        timed_s,
    }
}

/// The result of a whole invocation.
pub struct RunResult {
    pub metrics: MetricSet,
    pub attempted: u64,
    pub failed: u64,
    /// Repetitions whose order-independent counts differed from the first
    /// repetition's (same seed, so they must not).
    pub unrepeatable: u64,
    pub recorder: Option<Recorder>,
    pub budget: Option<Budget>,
    /// Per-step verdicts of a paced run, for the human output.
    pub steps: Vec<StepStats>,
}

/// Counts that depend only on the inputs, not on thread interleaving: the
/// same seed must reproduce them in every repetition.
fn repeatable_counts(rep: &Rep) -> (u64, u64, u64, u64) {
    (
        rep.totals.get("engine.flush.chunks_flushed"),
        rep.totals.get("engine.flush.chunks_created"),
        rep.totals.get("engine.flush.chunks_deduped"),
        rep.end.space_amp.to_bits(),
    )
}

/// Runs the workload for about `cfg.seconds` and reduces it to metrics.
pub fn run(cfg: &RunConfig) -> RunResult {
    let started = Instant::now();
    let paced = cfg.workload == Workload::MixedPaced;
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut again: Vec<SetUp> = Vec::new();
    // Spans of the latest traced repetition; earlier ones are dropped.
    let mut recorder = Recorder::new(cfg.trace);

    if paced {
        // One store: the paced steps fill `--seconds`.
        let rep = run_rep(cfg, &RepInputs::generate(cfg), &mut recorder);
        if cfg.trace {
            &mut traced
        } else {
            &mut untraced
        }
        .push(rep);
        if !cfg.trace {
            again.extend((0..SETUPS_AGAIN).map(|_| set_up_again(cfg)));
        }
    } else {
        // The warm-up repetition faults the heap in and is thrown away.
        let _ = run_rep(cfg, &RepInputs::generate(cfg), &mut Recorder::new(false));
        let budget = if cfg.trace {
            cfg.seconds - REPLAY_RESERVE_S
        } else {
            cfg.seconds
        };
        let first = Instant::now();
        loop {
            untraced.push(run_rep(
                cfg,
                &RepInputs::generate(cfg),
                &mut Recorder::new(false),
            ));
            if cfg.trace {
                recorder = Recorder::new(true);
                traced.push(run_rep(cfg, &RepInputs::generate(cfg), &mut recorder));
            }
            let rounds = untraced.len();
            let per_round = first.elapsed().as_secs_f64() / rounds as f64;
            let enough = if cfg.trace { 1 } else { MIN_REPS };
            if rounds >= enough && started.elapsed().as_secs_f64() + per_round > budget {
                break;
            }
        }
    }

    let all = || untraced.iter().chain(&traced);
    let attempted = all().map(|r| r.attempted).sum::<u64>()
        + again
            .iter()
            .map(|s| s.put.lat_ns.len() as u64 + 1)
            .sum::<u64>();
    let failed = all().map(|r| r.failed).sum::<u64>()
        + again
            .iter()
            .map(|s| s.put.failed + u64::from(!s.settled))
            .sum::<u64>();
    let reference = repeatable_counts(all().next().expect("at least one repetition"));
    let unrepeatable = all().filter(|r| repeatable_counts(r) != reference).count() as u64;

    // One store per paced run, so these are its three steps.
    let steps: Vec<StepStats> = all()
        .filter_map(|r| r.paced.as_ref())
        .flat_map(|p| p.steps.iter().map(step_stats))
        .collect();

    let mut metrics = MetricSet::default();
    let mut budget = None;
    if cfg.trace {
        let costs = replay::layer_costs(cfg, &mut recorder);
        let overhead = trace_overhead(&untraced, &traced);
        let rep = traced.last().expect("a traced repetition");
        let every: Vec<&Rep> = all().collect();
        let stats = LayerStats {
            costs: &costs,
            overhead,
            steps: &steps,
        };
        budget = Some(per_layer(cfg, rep, &every, &stats, &mut metrics));
    } else {
        end_to_end(cfg, &untraced, &again, &steps, &mut metrics);
    }
    RunResult {
        metrics,
        attempted,
        failed,
        unrepeatable,
        recorder: cfg.trace.then_some(recorder),
        budget,
        steps,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median and spread of one number per repetition.
fn across(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> (f64, f64) {
    let values: Vec<f64> = reps.iter().map(f).collect();
    (median(&values), spread(&values))
}

/// p50 as the median of per-repetition p50s; p99 pooled over repetitions,
/// with the spread of the per-repetition p99s.
struct Latency {
    p50_ns: f64,
    p50_spread: f64,
    /// Median of the per-repetition interquartile means.
    mid_ns: f64,
    mid_spread: f64,
    p99_ns: u64,
    p99_spread: f64,
    n: u64,
}

fn latency<'a>(per_rep: impl Iterator<Item = &'a Vec<u64>>) -> Latency {
    let mut pooled = Vec::new();
    let (mut p50s, mut mids, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for samples in per_rep {
        let mut samples = samples.clone();
        let (p50, p99) = p50_p99(&mut samples);
        p50s.push(p50 as f64);
        mids.push(interquartile_mean(&samples));
        p99s.push(p99 as f64);
        pooled.extend(samples);
    }
    pooled.sort_unstable();
    Latency {
        p50_ns: median(&p50s),
        p50_spread: spread(&p50s),
        mid_ns: median(&mids),
        mid_spread: spread(&mids),
        p99_ns: percentile(&pooled, 0.99),
        p99_spread: spread(&p99s),
        n: pooled.len() as u64,
    }
}

/// A paced step boiled down.
pub struct StepStats {
    pub rate: u32,
    /// Median of the step's per-window p99s, from due time.
    pub p99_ns: f64,
    pub windows: u64,
    /// p99 over the whole step, pooled (one long stall can own it).
    pub pooled_p99_ns: u64,
    /// Median generator lag over the last tenth of the step's ops.
    pub end_lag_ns: f64,
    pub meets_slo: bool,
}

impl StepStats {
    pub fn render(&self) -> String {
        format!(
            "step {:>5} ops/s: p99 from due {:>9.1} us (median of {} one-second windows; pooled \
             {:.1} us), end-of-step generator lag {:.1} us -> {}",
            self.rate,
            self.p99_ns / 1e3,
            self.windows,
            self.pooled_p99_ns as f64 / 1e3,
            self.end_lag_ns / 1e3,
            if self.meets_slo {
                "meets the limit"
            } else {
                "misses the limit"
            }
        )
    }
}

pub fn step_stats(step: &StepOutcome) -> StepStats {
    let from_due: Vec<(u64, u64)> = step
        .samples
        .iter()
        .map(|s| (s.due_ns, s.since_due_ns()))
        .collect();
    let window_p99s: Vec<f64> = window_p99s(&from_due, WINDOW_NS)
        .into_iter()
        .map(|p| p as f64)
        .collect();
    let p99_ns = median(&window_p99s);
    let mut pooled: Vec<u64> = from_due.iter().map(|s| s.1).collect();
    let pooled_p99_ns = p50_p99(&mut pooled).1;
    // A backlog that grows leaves the whole tail of the step late; one
    // stall near the end does not.
    let tail = &step.samples[step.samples.len() - step.samples.len().div_ceil(10)..];
    let end_lag_ns = median(&tail.iter().map(|s| s.lag_ns() as f64).collect::<Vec<_>>());
    StepStats {
        rate: step.rate,
        p99_ns,
        windows: window_p99s.len() as u64,
        pooled_p99_ns,
        end_lag_ns,
        meets_slo: p99_ns <= SLO_LIMIT_NS as f64 && end_lag_ns <= SLO_LIMIT_NS as f64,
    }
}

/// Highest fixed rate whose step met the limit (0 if none).
pub fn slo_rate(steps: &[StepStats]) -> u32 {
    steps
        .iter()
        .filter(|s| s.meets_slo)
        .map(|s| s.rate)
        .max()
        .unwrap_or(0)
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of an untraced run. PUT metrics come from the
/// ingest pass and GET metrics from the workload's closed-loop GET phase on
/// every workload; `mixed-paced` takes five from its paced steps instead
/// (README.md has the table).
fn end_to_end(
    cfg: &RunConfig,
    reps: &[Rep],
    again: &[SetUp],
    steps: &[StepStats],
    m: &mut MetricSet,
) {
    let n = reps.len() as u64;
    let setups: Vec<f64> = reps
        .iter()
        .map(|r| r.setup_s)
        .chain(again.iter().map(|s| s.setup_s))
        .collect();
    let put_passes = || {
        reps.iter()
            .map(|r| &r.put)
            .chain(again.iter().map(|s| &s.put))
    };
    let put_mibps: Vec<f64> = put_passes()
        .map(|p| p.bytes as f64 / MIB / p.wall_s)
        .collect();
    let passes = setups.len() as u64;
    m.put("setup_s", median(&setups), passes, spread(&setups));
    m.put_value("peak_rss_mib", peak_rss_mib());
    let (amp, amp_spread) = across(reps, |r| r.end.space_amp);
    m.put("space_amp", amp, n, amp_spread);
    m.put("put_mibps", median(&put_mibps), passes, spread(&put_mibps));
    let get = latency(reps.iter().map(|r| &r.get.lat_ns));
    m.put("get_mid_us", get.mid_ns / 1e3, get.n, get.mid_spread);
    let (dirty, dirty_spread) = across(reps, |r| r.dirty_end as f64);
    m.put("dirty_end", dirty, n, dirty_spread);

    if let Some(paced) = &reps[0].paced {
        // One repetition; these five are measured while the worker runs.
        let steps_wall: f64 = paced.steps.iter().map(|s| s.wall_s).sum();
        let mut mid_puts: Vec<u64> = paced.steps[MID_STEP]
            .samples
            .iter()
            .filter(|s| !s.is_get)
            .map(|s| s.since_due_ns())
            .collect();
        let put_p50 = p50_p99(&mut mid_puts).0;
        m.put("put_p50_us", us(put_p50), mid_puts.len() as u64, 0.0);
        let gets = paced
            .steps
            .iter()
            .flat_map(|s| &s.samples)
            .filter(|s| s.is_get)
            .count();
        m.put("get_kops", gets as f64 / 1e3 / steps_wall, gets as u64, 0.0);
        let flushed = paced.delta.get("engine.flush.chunks_flushed");
        let flushed_mib = flushed as f64 * cfg.scale.block_bytes as f64 / MIB;
        m.put("dedup_mibps", flushed_mib / steps_wall, flushed, 0.0);
        let rate = f64::from(slo_rate(steps));
        m.put("slo_rate_ops", rate, RATES.len() as u64, 0.0);
        return;
    }

    let put = latency(reps.iter().map(|r| &r.put.lat_ns));
    m.put("put_p50_us", put.p50_ns / 1e3, put.n, put.p50_spread);
    let (dedup, dedup_spread) = across(reps, |r| r.logical_bytes as f64 / MIB / r.settle_s);
    m.put("dedup_mibps", dedup, n, dedup_spread);
    let (kops, kops_spread) = across(reps, |r| r.get.ops_per_s() / 1e3);
    m.put("get_kops", kops, n, kops_spread);
    // A closed loop has one rate, the one it reached: the workload's own
    // op (GETs on `read-cold`, PUTs on `ingest-*`) per second of its phase.
    // It counts while that op's p99 stays inside the limit.
    let reads = cfg.workload == Workload::ReadCold;
    let (rate, rate_spread) = across(reps, |r| {
        let phase = if reads { &r.get } else { &r.put };
        phase.ops_per_s()
    });
    let p99_ns = if reads { get.p99_ns } else { put.p99_ns };
    let rate = if p99_ns <= SLO_LIMIT_NS { rate } else { 0.0 };
    m.put("slo_rate_ops", rate, n, rate_spread);
}

/// (traced − untraced) / untraced. Closed-loop runs compare the timed wall
/// of alternating repetitions; the paced run compares the mean service
/// time of its alternating windows (its wall is pinned by the schedule).
fn trace_overhead(untraced: &[Rep], traced: &[Rep]) -> f64 {
    if let Some(paced) = traced.last().and_then(|r| r.paced.as_ref()) {
        let mean = |want: bool| {
            let v: Vec<f64> = paced
                .steps
                .iter()
                .flat_map(|s| &s.samples)
                .filter(|s| s.traced == want)
                .map(|s| (s.done_ns - s.issue_ns) as f64)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let base = mean(false);
        return if base > 0.0 {
            (mean(true) - base) / base
        } else {
            0.0
        };
    }
    let base = median(&untraced.iter().map(|r| r.timed_s).collect::<Vec<_>>());
    let with = median(&traced.iter().map(|r| r.timed_s).collect::<Vec<_>>());
    if base > 0.0 {
        (with - base) / base
    } else {
        0.0
    }
}

/// Per-layer metrics that are one registry counter read after the traced
/// repetition: `(metric, series)`.
const REGISTRY_COUNTS: &[(&str, &str)] = &[
    ("fingerprint.full_calls", "engine.fp.full_calls"),
    ("fingerprint.full_hash_bytes", "engine.fp.full_hash_bytes"),
    ("fingerprint.skipped_unique", "engine.fp.skipped_unique"),
    (
        "compress.attempted_chunks",
        "engine.compress.attempted_chunks",
    ),
    ("compress.raw_fallbacks", "engine.compress.raw_fallbacks"),
    (
        "compress.decompressed_chunks",
        "engine.compress.decompressed_chunks",
    ),
    ("cache.promotions", "engine.promotions"),
    ("cache.hot_skips", "engine.hot_skips"),
    ("flush.passes", "service.worker.flushes"),
    ("flush.chunks_flushed", "engine.flush.chunks_flushed"),
    ("flush.chunks_deduped", "engine.flush.chunks_deduped"),
    ("flush.chunks_created", "engine.flush.chunks_created"),
    ("flush.stage_conflicts", "engine.flush.stage_conflicts"),
    ("service.worker_ticks", "service.worker.ticks"),
    ("service.coalesced_ticks", "service.worker.coalesced_ticks"),
    ("rate.admitted", "rate.admitted"),
    ("rate.denied", "rate.denied"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What a traced run measured beside its repetitions.
struct LayerStats<'a> {
    costs: &'a LayerCosts,
    overhead: f64,
    /// The paced steps' verdicts (empty on closed-loop workloads).
    steps: &'a [StepStats],
}

/// The per-layer metrics of a traced run: counts from the traced
/// repetition's registry, unit costs from the replay, the budget from both.
fn per_layer(
    cfg: &RunConfig,
    rep: &Rep,
    every_rep: &[&Rep],
    stats: &LayerStats<'_>,
    m: &mut MetricSet,
) -> Budget {
    let LayerStats {
        costs,
        overhead,
        steps,
    } = *stats;
    let t = &rep.totals;
    let user_bytes = t.get("engine.write_bytes");
    costs.report(m);

    for &(metric, series) in REGISTRY_COUNTS {
        m.put_value(metric, t.get(series) as f64);
    }
    m.put_value(
        "store.write_amp",
        ratio(t.get("cluster.write_bytes"), user_bytes),
    );
    m.put_value(
        "store.wal_bytes_per_user_byte",
        ratio(t.get("wal.append_bytes"), user_bytes),
    );
    m.put_value("index.resident_bytes", rep.end.index_resident_bytes as f64);
    m.put_value("index.cold_entries", rep.end.index_cold_entries as f64);
    let (bloom_hits, bloom_misses) = (
        t.get("engine.chunkmap.bloom_hits"),
        t.get("engine.chunkmap.bloom_misses"),
    );
    m.put_value(
        "bloom.negative_ratio",
        ratio(bloom_hits, bloom_hits + bloom_misses),
    );
    m.put_value("bloom.fill_ppm", rep.end.bloom_fill_ppm);
    let (hits, redirects) = (
        t.get("engine.cache_hit_chunks"),
        t.get("engine.redirected_chunks"),
    );
    m.put_value("cache.hit_ratio", ratio(hits, hits + redirects));

    let ms = |name: &str| t.get(name) as f64 / 1e6;
    m.put_value("flush.stage_ms", ms("engine.flush.stage_wall_ns"));
    m.put_value(
        "flush.fingerprint_ms",
        ms("engine.flush.fingerprint_wall_ns"),
    );
    m.put_value("flush.commit_ms", ms("engine.flush.commit_wall_ns"));
    // Share of the worker's running phase the store-wide lock was held:
    // the paced steps on `mixed-paced`, the first settle elsewhere.
    let (worker, worker_wall_s) = match &rep.paced {
        Some(paced) => (&paced.delta, paced.steps.iter().map(|s| s.wall_s).sum()),
        None => (&rep.settle_delta, rep.settle_s),
    };
    let held_ns =
        worker.get("engine.flush.stage_wall_ns") + worker.get("engine.flush.commit_wall_ns");
    m.put_value("flush.lock_held_frac", held_ns as f64 / 1e9 / worker_wall_s);

    m.put_value(
        "engine.copied_per_user_byte",
        ratio(t.get("engine.bytes_copied"), user_bytes),
    );
    m.put_value("engine.gc_ms", rep.end.gc_ms);
    // Closed-loop tails, pooled over every repetition of this run: the
    // ingest's PUT pass and the workload's closed-loop GET phase.
    let put = latency(every_rep.iter().map(|r| &r.put.lat_ns));
    m.put("service.put_p99_us", us(put.p99_ns), put.n, put.p99_spread);
    let get = latency(every_rep.iter().map(|r| &r.get.lat_ns));
    m.put("service.get_p99_us", us(get.p99_ns), get.n, get.p99_spread);
    let mut put_lat = rep.put.lat_ns.clone();
    let service_put_p50 = p50_p99(&mut put_lat).0;
    m.put(
        "service.put_overhead_us",
        us(service_put_p50) - costs.engine_write_us,
        put_lat.len() as u64,
        0.0,
    );
    m.put_value(
        "service.shard_wait_read_p99_us",
        us(rep.end.shard_wait_read_p99_ns),
    );
    m.put_value(
        "service.shard_wait_write_p99_us",
        us(rep.end.shard_wait_write_p99_ns),
    );
    m.put_value("loadgen.gen_s", rep.gen_s);

    if let Some(paced) = &rep.paced {
        for ((step, stats), name) in paced.steps.iter().zip(steps).zip(STEP_P99_METRICS) {
            m.put(
                name,
                us(stats.pooled_p99_ns),
                step.samples.len() as u64,
                0.0,
            );
        }
        let mid = &paced.steps[MID_STEP];
        m.put(
            "service.fg_p99_us",
            steps[MID_STEP].p99_ns / 1e3,
            mid.samples.len() as u64,
            0.0,
        );
        let mut from_due: Vec<u64> = mid.samples.iter().map(|s| s.since_due_ns()).collect();
        from_due.sort_unstable();
        let n = from_due.len() as u64;
        m.put(
            "service.fg_p999_us",
            us(percentile(&from_due, 0.999)),
            n,
            0.0,
        );
        let all: Vec<_> = paced.steps.iter().flat_map(|s| &s.samples).collect();
        let worst = all.iter().map(|s| s.since_due_ns()).max().unwrap_or(0);
        m.put(
            "service.stall_max_ms",
            worst as f64 / 1e6,
            all.len() as u64,
            0.0,
        );
        let slow = all
            .iter()
            .filter(|s| s.since_due_ns() > SLO_LIMIT_NS)
            .count();
        m.put(
            "service.slow_frac",
            slow as f64 / all.len().max(1) as f64,
            all.len() as u64,
            0.0,
        );
        let mut lags: Vec<u64> = all.iter().map(|s| s.lag_ns()).collect();
        lags.sort_unstable();
        m.put(
            "loadgen.lag_p99_us",
            us(percentile(&lags, 0.99)),
            lags.len() as u64,
            0.0,
        );
        m.put(
            "loadgen.lag_max_us",
            us(percentile(&lags, 1.0)),
            lags.len() as u64,
            0.0,
        );
    }

    m.put_value("trace.overhead_frac", overhead);
    let budget = replay::budget(cfg, rep, costs);
    m.put_value("budget.coverage", budget.coverage());
    budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn tiny(workload: Workload, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            seed: 1,
            seconds: 0.6,
            trace,
            scale: Scale::TINY,
            clients: 2,
        }
    }

    /// Per-layer metrics only a paced run has a measurement for.
    const PACED_ONLY: &[&str] = &[
        "service.p99_us.r2000",
        "service.p99_us.r3500",
        "service.p99_us.r5000",
        "service.fg_p99_us",
        "service.fg_p999_us",
        "service.stall_max_ms",
        "service.slow_frac",
        "loadgen.lag_p99_us",
        "loadgen.lag_max_us",
    ];

    #[test]
    fn every_workload_reports_every_end_to_end_metric_and_no_failure() {
        for workload in Workload::ALL {
            let result = run(&tiny(workload, false));
            let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
            let mut got = result.metrics.names();
            got.sort_by_key(|n| declared.iter().position(|d| d == n));
            assert_eq!(got, declared, "{}", workload.name());
            assert_eq!(result.failed, 0, "{}", workload.name());
            assert_eq!(result.unrepeatable, 0, "{}", workload.name());
            assert!(result.attempted > 0);
            for m in result.metrics.in_order(END_TO_END) {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }

    #[test]
    fn traced_runs_report_the_per_layer_table_a_budget_and_spans() {
        for workload in Workload::ALL {
            let result = run(&tiny(workload, true));
            assert_eq!(result.failed, 0, "{}", workload.name());
            let got = result.metrics.names();
            for (name, _) in PER_LAYER {
                let paced_only = PACED_ONLY.contains(name);
                let expected = !paced_only || workload == Workload::MixedPaced;
                assert_eq!(got.contains(name), expected, "{} {name}", workload.name());
            }
            assert_eq!(result.metrics.in_order(PER_LAYER).len(), PER_LAYER.len());
            let budget = result.budget.expect("traced runs carry a budget");
            assert!(budget.coverage() > 0.0 && budget.measured_s > 0.0);
            // Every op span hangs off a phase root, every phase off the rep.
            let recorder = result.recorder.expect("traced runs keep their spans");
            let spans = recorder.spans();
            let by_id = |id| spans.iter().find(|s| s.id == id).expect("parent recorded");
            let rep = spans.iter().find(|s| s.name == "rep").expect("rep root");
            let ops: Vec<_> = spans
                .iter()
                .filter(|s| s.name == "put" || s.name == "get")
                .collect();
            assert!(!ops.is_empty());
            for op in ops {
                let phase = by_id(op.parent);
                assert!(
                    phase.name.starts_with("phase.") || phase.name == "step",
                    "{} under {}",
                    op.name,
                    phase.name
                );
                assert_eq!(phase.parent, rep.id);
                assert!(phase.start_ns <= op.start_ns && op.end_ns <= phase.end_ns);
            }
            assert!(spans.iter().any(|s| s.name == "replay.store"));
        }
    }

    #[test]
    fn each_workload_loads_or_bypasses_the_layers_it_claims() {
        let value = |r: &RunResult, name: &str| r.metrics.get(name).expect(name).value;
        let unique = run(&tiny(Workload::IngestUnique, true));
        let flushed = value(&unique, "flush.chunks_flushed");
        assert_eq!(value(&unique, "fingerprint.skipped_unique"), flushed);
        assert_eq!(value(&unique, "fingerprint.full_calls"), 0.0);
        assert_eq!(
            value(&unique, "compress.raw_fallbacks"),
            value(&unique, "compress.attempted_chunks")
        );
        assert_eq!(value(&unique, "flush.chunks_deduped"), 0.0);
        let dup = run(&tiny(Workload::IngestDup, true));
        assert!(value(&dup, "flush.chunks_deduped") > 0.0);
        assert!(value(&dup, "fingerprint.full_calls") > 0.0);
        assert!(value(&dup, "compress.ratio") > 1.1);
        let cold = run(&tiny(Workload::ReadCold, true));
        assert_eq!(value(&cold, "cache.hit_ratio"), 0.0);
        assert!(value(&cold, "compress.decompressed_chunks") > 0.0);
        let mixed = run(&tiny(Workload::MixedPaced, true));
        assert!(value(&mixed, "cache.hit_ratio") > 0.0);
        assert!(value(&mixed, "cache.hot_skips") > 0.0);
        assert!(value(&mixed, "rate.denied") > 0.0);
    }

    #[test]
    fn a_wrong_byte_raises_the_failure_count() {
        for workload in Workload::ALL {
            let cfg = tiny(workload, false);
            let mut generated = RepInputs::generate(&cfg);
            // The oracle now expects one block to read back differently
            // from what is written: exactly what a corrupted byte looks like.
            generated.inputs.objects[3].sums[1] ^= 1;
            let rep = run_rep(&cfg, &generated, &mut Recorder::new(false));
            assert!(rep.failed >= 1, "{}", workload.name());
            assert!(rep.failed < rep.attempted / 4, "only that block fails");
        }
    }

    #[test]
    fn slo_rate_is_the_highest_step_that_meets_the_limit() {
        let step = |rate, meets_slo| StepStats {
            rate,
            p99_ns: 0.0,
            windows: 1,
            pooled_p99_ns: 0,
            end_lag_ns: 0.0,
            meets_slo,
        };
        assert_eq!(
            slo_rate(&[step(2000, true), step(4000, true), step(6000, false)]),
            4000
        );
        assert_eq!(
            slo_rate(&[step(2000, true), step(4000, false), step(6000, true)]),
            6000
        );
        assert_eq!(slo_rate(&[step(2000, false)]), 0);
    }
}
