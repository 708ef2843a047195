//! Figure 11: sequential read/write throughput and latency at 32/64/128 KiB
//! block sizes (32 KiB chunks), three 10 GbE clients.
//!
//! Expected shape: writes track the original closely (post-processing +
//! rate control); reads drop (~half at small blocks) because of redirection
//! to the chunk pool, recovering at 128 KiB where four chunk reads proceed
//! in parallel.

use dedup_core::{CachePolicy, DedupConfig};
use dedup_store::{ClientId, PoolConfig};
use dedup_workloads::fio::FioSpec;

use crate::drivers::{run_closed_loop_with_background, OpSpec, RunStats};
use crate::report;
use crate::systems::{preload, settle, BackgroundMode, DedupSystem, OriginalSystem};

const CHUNK: u32 = 32 * 1024;
const OBJECT_SIZE: u64 = 1 << 20;
const OBJECTS: usize = 48;
const STREAMS: usize = 3; // three clients
const OPS: u64 = 4_000;

fn seq_op(i: u64, block: u64, write: bool) -> OpSpec {
    let per_obj = OBJECT_SIZE / block;
    let obj = (i / per_obj) as usize % OBJECTS;
    OpSpec {
        object: format!("fio-{obj}"),
        offset: (i % per_obj) * block,
        data: write.then(|| vec![(i % 251) as u8; block as usize]),
        len: block,
        client: ClientId((i % 3) as u32),
        class: 0,
    }
}

fn fmt(st: &RunStats) -> (String, String) {
    (
        format!("{:.0} MB/s", st.throughput_mbps()),
        report::ms(st.latency.mean().as_millis_f64()),
    )
}

/// Runs the experiment and prints both tables.
pub fn run() {
    report::header(
        "Fig. 11",
        "Sequential throughput/latency vs block size (32 KiB chunks)",
        "Three clients; reads run after all data is flushed to the chunk pool.",
    );
    let data = FioSpec::new(OBJECTS as u64 * OBJECT_SIZE, 0.5)
        .object_size(OBJECT_SIZE as u32)
        .dataset();

    let mut sidecar = report::Sidecars::new("fig11");
    let mut write_rows = Vec::new();
    let mut read_rows = Vec::new();
    for block in [32u64 * 1024, 64 * 1024, 128 * 1024] {
        let kib = block / 1024;
        // Writes to fresh systems.
        let mut orig = OriginalSystem::new("Original", PoolConfig::replicated("data", 2));
        let ow = run_closed_loop_with_background(&mut orig, STREAMS, OPS, 5, false, |i, _| {
            seq_op(i, block, true)
        });
        let mut prop = DedupSystem::new(
            "Proposed",
            DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::EvictAll),
        )
        .background(BackgroundMode::RateControlled);
        let pw = run_closed_loop_with_background(&mut prop, STREAMS, OPS, 5, true, |i, _| {
            seq_op(i, block, true)
        });
        sidecar.capture(&format!("write-{kib}k-original"), &orig, ow.elapsed);
        sidecar.capture(&format!("write-{kib}k-proposed"), &prop, pw.elapsed);
        let (ot, ol) = fmt(&ow);
        let (pt, pl) = fmt(&pw);
        write_rows.push(vec![format!("{} KiB", block / 1024), ot, ol, pt, pl]);

        // Reads over preloaded data (Proposed fully flushed).
        let mut orig = OriginalSystem::new("Original", PoolConfig::replicated("data", 2));
        preload(&mut orig, &data);
        let or = run_closed_loop_with_background(&mut orig, STREAMS, OPS, 6, false, |i, _| {
            seq_op(i, block, false)
        });
        let mut prop = DedupSystem::new(
            "Proposed",
            DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::EvictAll),
        )
        .background(BackgroundMode::Off);
        preload(&mut prop, &data);
        settle(&mut prop);
        let pr = run_closed_loop_with_background(&mut prop, STREAMS, OPS, 6, false, |i, _| {
            seq_op(i, block, false)
        });
        sidecar.capture(&format!("read-{kib}k-original"), &orig, or.elapsed);
        sidecar.capture(&format!("read-{kib}k-proposed"), &prop, pr.elapsed);
        let (ot, ol) = fmt(&or);
        let (pt, pl) = fmt(&pr);
        read_rows.push(vec![format!("{} KiB", block / 1024), ot, ol, pt, pl]);
    }

    println!("### Sequential write\n");
    report::print_table(
        &[
            "block",
            "Original MB/s",
            "Original lat",
            "Proposed MB/s",
            "Proposed lat",
        ],
        &write_rows,
    );
    println!("\n### Sequential read (data flushed to chunk pool)\n");
    report::print_table(
        &[
            "block",
            "Original MB/s",
            "Original lat",
            "Proposed MB/s",
            "Proposed lat",
        ],
        &read_rows,
    );
    println!(
        "\npaper shape: write within rate-control budget of Original at every \
         block size; read ~halves at 32 KiB (redirection) and recovers at \
         128 KiB (4 parallel chunk reads).\n"
    );
    sidecar.write();
}
