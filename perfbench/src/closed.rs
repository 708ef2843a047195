//! Closed-loop foreground phases: the sequential PUT pass, the sequential
//! read-back and the random cold GETs. Each client sends its next request
//! only after the previous one completed; `clients` threads run side by
//! side. Payloads, op lists and latency buffers are built before the
//! barrier, so the timed region holds only calls into the service.

use std::sync::Barrier;

use bytes::Bytes;
use dedup_core::DedupService;
use dedup_sim::SimTime;
use dedup_store::{ClientId, ObjectName};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::{checksum, Inputs, Scale};
use crate::span::{Recorder, SpanId};
use crate::sut::{Session, OP_GAP_NS};

/// What one foreground phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Per-op latency, nanoseconds, all clients pooled: one per op sent.
    pub lat_ns: Vec<u64>,
    /// Barrier release to last client done.
    pub wall_s: f64,
    pub clients: usize,
    /// Ops that returned an error or the wrong bytes.
    pub failed: u64,
    /// User bytes moved.
    pub bytes: u64,
}

impl Phase {
    /// Closed-loop throughput in ops/s with the oracle's checksum time
    /// left out: each client completes one op per mean latency.
    pub fn ops_per_s(&self) -> f64 {
        let busy_s: f64 = self.lat_ns.iter().sum::<u64>() as f64 / 1e9;
        if busy_s == 0.0 {
            return 0.0;
        }
        self.clients as f64 * self.lat_ns.len() as f64 / busy_s
    }
}

/// One client thread of a phase: its id, its recorder under the phase
/// root, and what it has measured so far.
struct Client<'a> {
    svc: &'a DedupService,
    id: ClientId,
    rec: Recorder,
    root: SpanId,
    lat_ns: Vec<u64>,
    failed: u64,
    bytes: u64,
}

impl Client<'_> {
    fn put(&mut self, name: &ObjectName, offset: u64, payload: Bytes, stamp: u64) {
        let len = payload.len() as u64;
        let t0 = self.rec.now_ns();
        let result = self
            .svc
            .write(self.id, name, offset, payload, SimTime::from_nanos(stamp));
        let t1 = self.rec.now_ns();
        self.rec.record("put", self.root, t0, t1);
        self.lat_ns.push(t1 - t0);
        match result {
            Ok(_) => self.bytes += len,
            Err(_) => self.failed += 1,
        }
    }

    /// One GET, checked against `expected` after the latency stamp.
    fn get(&mut self, name: &ObjectName, offset: u64, len: u64, expected: u64, stamp: u64) {
        let t0 = self.rec.now_ns();
        let result = self
            .svc
            .read(self.id, name, offset, len, SimTime::from_nanos(stamp));
        let t1 = self.rec.now_ns();
        self.rec.record("get", self.root, t0, t1);
        self.lat_ns.push(t1 - t0);
        match result {
            Ok(read) if read.value.len() as u64 == len && checksum(&read.value) == expected => {
                self.bytes += len;
            }
            _ => self.failed += 1,
        }
    }
}

/// Runs `work(thread, client)` on `session.clients` threads released
/// together; each performs that client's ops.
fn run_clients<W>(
    name: &'static str,
    session: &mut Session<'_>,
    ops_per_client: usize,
    work: W,
) -> Phase
where
    W: Fn(usize, &mut Client<'_>) + Sync,
{
    let rec = &mut *session.rec;
    let root = rec.open(name, session.root);
    let clients: Vec<Client<'_>> = (0..session.clients)
        .map(|t| Client {
            svc: session.svc,
            id: ClientId(t as u32),
            rec: rec.fork(ops_per_client),
            root,
            lat_ns: Vec::with_capacity(ops_per_client),
            failed: 0,
            bytes: 0,
        })
        .collect();
    let barrier = Barrier::new(clients.len() + 1);
    let (clients, wall_ns) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut client)| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    barrier.wait();
                    work(t, &mut client);
                    client
                })
            })
            .collect();
        barrier.wait();
        let start = rec.now_ns();
        let clients: Vec<Client<'_>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (clients, rec.now_ns() - start)
    });
    let mut phase = Phase {
        wall_s: wall_ns as f64 / 1e9,
        clients: clients.len(),
        ..Phase::default()
    };
    for client in clients {
        phase.failed += client.failed;
        phase.bytes += client.bytes;
        phase.lat_ns.extend(client.lat_ns);
        rec.absorb(client.rec);
    }
    rec.close(root);
    phase
}

/// Sequential `put_bytes` PUTs over every object, objects dealt round-robin
/// to the clients. The worker is not ticked, so everything stays dirty.
pub fn put_pass(session: &mut Session<'_>, inputs: &Inputs, scale: &Scale) -> Phase {
    let clients = session.clients;
    // (virtual stamp, object, offset, payload) per client, in issue order.
    let mut plans: Vec<Vec<(u64, &ObjectName, u64, Bytes)>> = vec![Vec::new(); clients];
    let puts: usize = inputs
        .objects
        .iter()
        .map(|o| o.data.len().div_ceil(scale.put_bytes))
        .sum();
    let base = session.clock.reserve(puts as u64, OP_GAP_NS);
    let mut k = 0u64;
    for (i, object) in inputs.objects.iter().enumerate() {
        for start in (0..object.data.len()).step_by(scale.put_bytes) {
            let end = (start + scale.put_bytes).min(object.data.len());
            plans[i % clients].push((
                base + k * OP_GAP_NS,
                &object.name,
                start as u64,
                object.data.slice(start..end),
            ));
            k += 1;
        }
    }
    let per_client = plans.iter().map(Vec::len).max().unwrap_or(0);
    run_clients("phase.put", session, per_client, |t, client| {
        for (stamp, name, offset, payload) in &plans[t] {
            client.put(name, *offset, payload.clone(), *stamp);
        }
    })
}

/// The objects a read-back covers: name, length, and the expected
/// checksum of each block (the dataset's own, or the shadow model's).
pub struct Expected<'a> {
    pub name: &'a ObjectName,
    pub len: usize,
    pub sums: &'a [u64],
}

/// Reads every block of every object back in order, `passes` times over,
/// and checks it. One pass verifies; the `ingest-*` workloads, where this
/// is the timed GET phase, make several so that the phase is long enough
/// to time (one pass over raw chunks takes each client under 0.1 s).
pub fn read_back(
    session: &mut Session<'_>,
    objects: &[Expected<'_>],
    block_bytes: usize,
    passes: usize,
) -> Phase {
    let clients = session.clients;
    let blocks: usize = objects.iter().map(|o| o.sums.len()).sum();
    let base = session.clock.reserve((blocks * passes) as u64, OP_GAP_NS);
    let mut first_block = Vec::with_capacity(objects.len());
    let mut k = 0u64;
    for object in objects {
        first_block.push(k);
        k += object.sums.len() as u64;
    }
    let per_client = blocks.div_ceil(clients) * passes;
    run_clients("phase.readback", session, per_client, |t, client| {
        let mine = || objects.iter().enumerate().skip(t).step_by(clients);
        for (pass, (i, object)) in (0..passes).flat_map(|p| mine().map(move |o| (p, o))) {
            for (b, &expected) in object.sums.iter().enumerate() {
                let offset = b * block_bytes;
                let len = block_bytes.min(object.len - offset) as u64;
                let k = (pass * blocks) as u64 + first_block[i] + b as u64;
                let stamp = base + k * OP_GAP_NS;
                client.get(object.name, offset as u64, len, expected, stamp);
            }
        }
    })
}

/// The dataset's objects with their generated checksums.
pub fn expected_of(inputs: &Inputs) -> Vec<Expected<'_>> {
    inputs
        .objects
        .iter()
        .map(|o| Expected {
            name: &o.name,
            len: o.data.len(),
            sums: &o.sums,
        })
        .collect()
}

/// `gets` block-sized GETs at uniformly random block offsets over the
/// whole dataset, split evenly between the clients.
pub fn random_gets(session: &mut Session<'_>, inputs: &Inputs, gets: usize, seed: u64) -> Phase {
    let clients = session.clients;
    let per_client = gets / clients;
    let base = session
        .clock
        .reserve((per_client * clients) as u64, OP_GAP_NS);
    // Flat (object, block) list to draw from.
    let blocks: Vec<(u32, u32)> = inputs
        .objects
        .iter()
        .enumerate()
        .flat_map(|(i, o)| (0..o.sums.len()).map(move |b| (i as u32, b as u32)))
        .collect();
    let plans: Vec<Vec<(u32, u32)>> = (0..clients)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xC01D_u64 << 32) ^ t as u64);
            (0..per_client)
                .map(|_| blocks[rng.gen_range(0..blocks.len())])
                .collect()
        })
        .collect();
    let block_bytes = inputs.block_bytes;
    run_clients("phase.get", session, per_client, |t, client| {
        for (j, &(i, b)) in plans[t].iter().enumerate() {
            let object = &inputs.objects[i as usize];
            let offset = b as usize * block_bytes;
            let len = block_bytes.min(object.data.len() - offset) as u64;
            let stamp = base + (j * clients + t) as u64 * OP_GAP_NS;
            client.get(
                &object.name,
                offset as u64,
                len,
                object.sums[b as usize],
                stamp,
            );
        }
    })
}
