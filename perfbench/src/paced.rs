//! The open-loop part of `mixed-paced`: one client replays a Zipf GET/PUT
//! schedule against the wall clock at a few fixed rates, the background
//! worker flushing throughout.
//!
//! Open loop: an op is sent when it is *due*, whatever the previous one
//! did, and its latency runs from the due time — so a stall charges every
//! op that queued behind it. How late the generator itself ran (issue time
//! minus due time) is reported beside the latencies.

use std::time::Duration;

use bytes::Bytes;
use dedup_sim::SimTime;
use dedup_store::{ClientId, ObjectName};
use dedup_workloads::zipf::{OpKind, OpenLoopSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::closed::{read_back, Expected, Phase};
use crate::data::{checksum, overwrite_pool, Inputs, Scale};
use crate::span::Recorder;
use crate::sut::{Session, Snapshot};

/// The fixed offered rates, ops/s, run back to back. The issue's top rate
/// of 8 000 is past what one pacing client sustains beside the worker on
/// two cores: some runs collapse into tens of milliseconds of lag and some
/// do not, so its verdict flipped between runs of one seed. 6 000 held in
/// 40 of 40 runs but lost 6 of 20 once the process had built two more
/// stores first (a larger heap); 5 000 leaves that headroom. The steps
/// are 30 % and more apart, so losing one moves `slo_rate_ops` past its
/// bound of 0.25.
pub const RATES: [u32; 3] = [2000, 3500, 5000];
/// The per-layer metric holding each step's pooled p99, in step order.
pub const STEP_P99_METRICS: [&str; 3] = [
    "service.p99_us.r2000",
    "service.p99_us.r3500",
    "service.p99_us.r5000",
];
/// The step whose latencies the end-to-end metrics quote.
pub const MID_STEP: usize = 1;
/// Latency limit of the SLO verdict, from due time.
pub const SLO_LIMIT_NS: u64 = 10_000_000;
/// Width of the windows whose p99s are medianed into a step's p99.
pub const WINDOW_NS: u64 = 1_000_000_000;
/// The client sends `tick(due)` after every this many ops.
const TICK_EVERY: usize = 16;
/// Every this-many-th PUT writes a fresh object instead of overwriting a
/// Zipf-chosen one. Zipf(0.99) over 192 objects at ≥ 2 000 ops/s touches
/// every object every second, so the HitSet holds all of them hot and the
/// worker flushes nothing; the fresh objects are the cold stream that
/// gives it work while the hot set is being served.
const COLD_EVERY: usize = 4;
/// Zipf skew and GET share of the schedule.
const THETA: f64 = 0.99;
const GET_FRACTION: f64 = 0.7;

#[derive(Debug, Clone)]
pub enum PacedKind {
    Get {
        object: u32,
        block: u32,
    },
    /// Overwrite one block of a dataset object with pool block `pool`.
    Put {
        object: u32,
        block: u32,
        pool: u32,
    },
    /// Write pool block `pool` as the only block of a new object.
    ColdPut {
        name: ObjectName,
        pool: u32,
    },
}

#[derive(Debug, Clone)]
pub struct PacedOp {
    /// Due time since the step began.
    pub due_ns: u64,
    pub kind: PacedKind,
}

/// Everything the paced phase sends, generated from the seed up front.
#[derive(Debug, Clone)]
pub struct PacedInputs {
    pub pool: Vec<(Bytes, u64)>,
    pub steps: Vec<Vec<PacedOp>>,
    pub step_ns: u64,
}

impl PacedInputs {
    /// One schedule per rate, `step_secs` long each.
    pub fn generate(seed: u64, scale: &Scale, inputs: &Inputs, step_secs: f64) -> PacedInputs {
        let pool = overwrite_pool(seed, scale);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9ACE_D000);
        let mut puts = 0usize;
        let steps = RATES
            .iter()
            .enumerate()
            .map(|(step, &rate)| {
                let spec = OpenLoopSpec {
                    tenants: 1,
                    rate_per_tenant: f64::from(rate),
                    ops_per_tenant: (f64::from(rate) * step_secs) as u64,
                    objects: inputs.objects.len(),
                    theta: THETA,
                    get_fraction: GET_FRACTION,
                    seed: seed.wrapping_mul(RATES.len() as u64) + step as u64,
                };
                spec.tenant_schedule(0)
                    .into_iter()
                    .map(|op| {
                        let object = op.object as u32;
                        let blocks = inputs.objects[op.object].sums.len() as u32;
                        let block = rng.gen_range(0..blocks);
                        let kind = match op.kind {
                            OpKind::Get => PacedKind::Get { object, block },
                            OpKind::Put => {
                                puts += 1;
                                let pool = rng.gen_range(0..pool.len() as u32);
                                if puts.is_multiple_of(COLD_EVERY) {
                                    PacedKind::ColdPut {
                                        name: ObjectName::new(format!("cold-{puts:07}")),
                                        pool,
                                    }
                                } else {
                                    PacedKind::Put {
                                        object,
                                        block,
                                        pool,
                                    }
                                }
                            }
                        };
                        PacedOp {
                            due_ns: op.at.as_nanos(),
                            kind,
                        }
                    })
                    .collect()
            })
            .collect();
        PacedInputs {
            pool,
            steps,
            step_ns: (step_secs * 1e9) as u64,
        }
    }
}

/// One completed paced op, all times on the recorder's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub due_ns: u64,
    pub issue_ns: u64,
    pub done_ns: u64,
    pub is_get: bool,
    /// Whether this op's span was recorded (trace runs record alternate
    /// windows).
    pub traced: bool,
}

impl Sample {
    pub fn since_due_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    pub fn lag_ns(&self) -> u64 {
        self.issue_ns - self.due_ns
    }
}

#[derive(Debug, Clone, Default)]
pub struct StepOutcome {
    pub rate: u32,
    pub samples: Vec<Sample>,
    /// First due time to last completion.
    pub wall_s: f64,
}

#[derive(Debug, Clone, Default)]
pub struct PacedOutcome {
    pub steps: Vec<StepOutcome>,
    pub attempted: u64,
    pub failed: u64,
    /// Fresh objects written, with the checksum each must read back as.
    pub cold: Vec<(ObjectName, u64)>,
    /// Registry counters moved during the steps.
    pub delta: Snapshot,
    /// `dirty_len()` when the last step ended.
    pub dirty_end: u64,
}

/// Sleeps, then spins, until the recorder's clock reaches `target_ns`;
/// returns the time it saw, which is never before the target.
pub fn wait_until(rec: &Recorder, target_ns: u64) -> u64 {
    /// Below this the OS timer is too coarse to trust; spin instead.
    const SPIN_BELOW_NS: u64 = 200_000;
    loop {
        let now = rec.now_ns();
        if now >= target_ns {
            return now;
        }
        let remaining = target_ns - now;
        if remaining > SPIN_BELOW_NS {
            std::thread::sleep(Duration::from_nanos(remaining - SPIN_BELOW_NS / 2));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Replays every step. `shadow` holds the expected checksum of each block
/// of each dataset object and follows the overwrites. With
/// `alternate_trace`, spans are recorded only in every other window, so
/// one run yields traced and untraced service times on the same store.
pub fn run_steps(
    session: &mut Session<'_>,
    inputs: &Inputs,
    paced: &PacedInputs,
    shadow: &mut [Vec<u64>],
    alternate_trace: bool,
) -> PacedOutcome {
    let Session {
        svc,
        clock,
        rec,
        root: parent,
        ..
    } = session;
    let client = ClientId(0);
    let block_bytes = inputs.block_bytes as u64;
    let before = svc.with_store(|s| Snapshot::take(s));
    let mut out = PacedOutcome::default();
    for (ops, &rate) in paced.steps.iter().zip(&RATES) {
        let root = rec.open("step", *parent);
        let virtual_base = clock.reserve(1, paced.step_ns);
        let mut samples = Vec::with_capacity(ops.len());
        // A little lead so the first op is not born late.
        let wall_base = rec.now_ns() + 1_000_000;
        for (k, op) in ops.iter().enumerate() {
            let due = wall_base + op.due_ns;
            let stamp = SimTime::from_nanos(virtual_base + op.due_ns);
            let traced = !alternate_trace || (op.due_ns / WINDOW_NS).is_multiple_of(2);
            let issue = wait_until(rec, due);
            let done;
            let (span_name, is_get, ok) = match &op.kind {
                PacedKind::Get { object, block } => {
                    let o = &inputs.objects[*object as usize];
                    let offset = u64::from(*block) * block_bytes;
                    let result = svc.read(client, &o.name, offset, block_bytes, stamp);
                    done = rec.now_ns();
                    // Checksum after the stamp: the oracle is not latency.
                    let expected = shadow[*object as usize][*block as usize];
                    let ok = result.is_ok_and(|r| checksum(&r.value) == expected);
                    ("get", true, ok)
                }
                PacedKind::Put {
                    object,
                    block,
                    pool,
                } => {
                    let (payload, sum) = &paced.pool[*pool as usize];
                    let o = &inputs.objects[*object as usize];
                    let offset = u64::from(*block) * block_bytes;
                    let result = svc.write(client, &o.name, offset, payload.clone(), stamp);
                    done = rec.now_ns();
                    shadow[*object as usize][*block as usize] = *sum;
                    ("put", false, result.is_ok())
                }
                PacedKind::ColdPut { name, pool } => {
                    let (payload, sum) = &paced.pool[*pool as usize];
                    let result = svc.write(client, name, 0, payload.clone(), stamp);
                    done = rec.now_ns();
                    out.cold.push((name.clone(), *sum));
                    ("put", false, result.is_ok())
                }
            };
            samples.push(Sample {
                due_ns: due,
                issue_ns: issue,
                done_ns: done,
                is_get,
                traced,
            });
            if traced {
                rec.record(span_name, root, issue, done);
            }
            out.attempted += 1;
            if !ok {
                out.failed += 1;
            }
            if k % TICK_EVERY == TICK_EVERY - 1 {
                let t0 = rec.now_ns();
                svc.tick(stamp);
                if traced {
                    let t1 = rec.now_ns();
                    rec.record("tick", root, t0, t1);
                }
            }
        }
        rec.close(root);
        let last_done = samples.last().map(|s| s.done_ns).unwrap_or(wall_base);
        out.steps.push(StepOutcome {
            rate,
            samples,
            wall_s: (last_done - wall_base) as f64 / 1e9,
        });
    }
    out.dirty_end = svc.with_store(|s| s.dirty_len()) as u64;
    out.delta = svc.with_store(|s| Snapshot::take(s)).since(&before);
    out
}

/// Reads back every dataset block against the shadow model and every
/// fresh object against the pool block it was written from.
pub fn read_back_all(
    session: &mut Session<'_>,
    inputs: &Inputs,
    shadow: &[Vec<u64>],
    cold: &[(ObjectName, u64)],
) -> Phase {
    let cold_sums: Vec<[u64; 1]> = cold.iter().map(|(_, sum)| [*sum]).collect();
    let expected: Vec<Expected<'_>> = inputs
        .objects
        .iter()
        .zip(shadow)
        .map(|(o, sums)| Expected {
            name: &o.name,
            len: o.data.len(),
            sums,
        })
        .chain(
            cold.iter()
                .zip(&cold_sums)
                .map(|((name, _), sums)| Expected {
                    name,
                    len: inputs.block_bytes,
                    sums,
                }),
        )
        .collect();
    read_back(session, &expected, inputs.block_bytes, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DatasetKind;

    #[test]
    fn generator_never_issues_early_and_reports_lag() {
        let rec = Recorder::new(false);
        let start = rec.now_ns();
        // Targets 300 µs apart exercise both the sleep and the spin path.
        for k in 1..=20u64 {
            let target = start + k * 300_000;
            let seen = wait_until(&rec, target);
            assert!(seen >= target, "issued {} ns early", target - seen);
            let sample = Sample {
                due_ns: target,
                issue_ns: seen,
                done_ns: seen + 5,
                is_get: true,
                traced: false,
            };
            assert_eq!(sample.lag_ns(), seen - target);
            assert_eq!(sample.since_due_ns(), sample.lag_ns() + 5);
        }
        // A target already in the past is issued at once, and its lag shows.
        let late = wait_until(&rec, start);
        assert!(late - start >= 20 * 300_000);
    }

    #[test]
    fn schedule_is_seeded_mixed_and_paced() {
        let inputs = Inputs::generate(DatasetKind::CloudDup, 1, &Scale::TINY);
        let a = PacedInputs::generate(1, &Scale::TINY, &inputs, 0.25);
        let b = PacedInputs::generate(1, &Scale::TINY, &inputs, 0.25);
        assert_eq!(a.steps.len(), RATES.len());
        for ((step, again), &rate) in a.steps.iter().zip(&b.steps).zip(&RATES) {
            assert_eq!(step.len(), (f64::from(rate) * 0.25) as usize);
            assert!(step.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            assert!(step.last().expect("ops").due_ns < 250_000_000);
            let dues = |s: &[PacedOp]| s.iter().map(|o| o.due_ns).collect::<Vec<_>>();
            assert_eq!(dues(step), dues(again), "same seed, same schedule");
            let gets = step
                .iter()
                .filter(|o| matches!(o.kind, PacedKind::Get { .. }))
                .count();
            let share = gets as f64 / step.len() as f64;
            assert!((0.6..0.8).contains(&share), "GET share {share}");
        }
        let all = a.steps.iter().flatten();
        let cold = all
            .clone()
            .filter(|o| matches!(o.kind, PacedKind::ColdPut { .. }))
            .count();
        let puts = all
            .filter(|o| !matches!(o.kind, PacedKind::Get { .. }))
            .count();
        assert_eq!(
            cold,
            puts / COLD_EVERY,
            "every fourth PUT is a fresh object"
        );
    }
}
