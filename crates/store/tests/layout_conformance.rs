//! Layout conformance: a transaction means the same thing whichever way
//! the cluster commits it — in place on plain replicated pools, rebuilt on
//! compressed, erasure-coded and misplaced ones. The store-level
//! counterpart of the golden figures.

use std::collections::BTreeMap;

use bytes::Bytes;
use dedup_placement::{FailureDomain, OsdId};
use dedup_store::{
    crc32, Cluster, ClusterBuilder, IoCtx, ObjectName, PoolConfig, StoreError, TxOp,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const OBJECTS: usize = 3;

/// One object of the reference model: bytes, a per-byte hole map, metadata.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    data: Vec<u8>,
    holes: Vec<bool>,
    xattrs: BTreeMap<String, Bytes>,
    omap: BTreeMap<String, Bytes>,
}

impl Model {
    /// What `TxOp`'s documentation says each op does. `Remove` is the
    /// caller's: a transaction containing one deletes the object.
    fn apply(&mut self, op: &TxOp) {
        match op {
            TxOp::WriteFull(d) => {
                self.data = d.to_vec();
                self.holes = vec![false; d.len()];
            }
            TxOp::Write { offset, data } => {
                let (start, end) = (*offset as usize, *offset as usize + data.len());
                let len = self.data.len().max(end);
                self.data.resize(len, 0);
                self.holes.resize(len, false);
                self.data[start..end].copy_from_slice(data);
                self.holes[start..end].fill(false);
            }
            TxOp::Truncate(len) => {
                self.data.resize(*len as usize, 0);
                self.holes.resize(*len as usize, true);
            }
            TxOp::PunchHole { offset, len } => {
                let end = offset.saturating_add(*len).min(self.data.len() as u64) as usize;
                let start = (*offset as usize).min(end);
                self.data[start..end].fill(0);
                self.holes[start..end].fill(true);
            }
            TxOp::SetXattr(k, v) => drop(self.xattrs.insert(k.clone(), v.clone())),
            TxOp::RemoveXattr(k) => drop(self.xattrs.remove(k)),
            TxOp::SetOmap(k, v) => drop(self.omap.insert(k.clone(), v.clone())),
            TxOp::RemoveOmap(k) => drop(self.omap.remove(k)),
            TxOp::Remove => {}
        }
    }

    /// Maximal `(start, end, resident)` runs, as `resident_ranges` reports.
    fn ranges(&self) -> Vec<(u64, u64, bool)> {
        let mut out: Vec<(u64, u64, bool)> = Vec::new();
        for (i, &hole) in self.holes.iter().enumerate() {
            match out.last_mut() {
                Some(last) if last.2 != hole => last.1 = i as u64 + 1,
                _ => out.push((i as u64, i as u64 + 1, !hole)),
            }
        }
        out
    }
}

fn bytes(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn key(prefix: &'static str) -> impl Strategy<Value = String> {
    (0u8..3).prop_map(move |i| format!("{prefix}{i}"))
}

/// All nine variants; sizes small enough that ops overlap and clip.
fn op() -> impl Strategy<Value = TxOp> {
    prop_oneof![
        3 => bytes(96).prop_map(TxOp::WriteFull),
        6 => (0u64..128, bytes(48)).prop_map(|(offset, data)| TxOp::Write { offset, data }),
        2 => (0u64..160).prop_map(TxOp::Truncate),
        3 => (key("x"), bytes(8)).prop_map(|(k, v)| TxOp::SetXattr(k, v)),
        1 => key("x").prop_map(TxOp::RemoveXattr),
        3 => (key("o"), bytes(8)).prop_map(|(k, v)| TxOp::SetOmap(k, v)),
        1 => key("o").prop_map(TxOp::RemoveOmap),
        4 => (0u64..160, 0u64..96).prop_map(|(offset, len)| TxOp::PunchHole { offset, len }),
        1 => Just(TxOp::Remove),
    ]
}

/// A run of transactions, each on one of the objects.
fn transactions() -> impl Strategy<Value = Vec<(usize, Vec<TxOp>)>> {
    let tx = (0..OBJECTS, proptest::collection::vec(op(), 1..4));
    proptest::collection::vec(tx, 1..40)
}

fn name(obj: usize) -> ObjectName {
    ObjectName::new(format!("obj-{obj}"))
}

fn small_cluster() -> Cluster {
    ClusterBuilder::new().nodes(4).osds_per_node(1).build()
}

fn pool(c: &mut Cluster, config: PoolConfig) -> IoCtx {
    IoCtx::new(c.create_pool(config.with_failure_domain(FailureDomain::Osd)))
}

/// The four layouts, every object holding `seed` bytes: replicated,
/// replicated + compressed, EC 2+1, and replicated on a cluster whose
/// placement has since moved, so holders ≠ acting until a transaction (a
/// rebuild) re-places the object.
fn layouts(seed: &[u8]) -> Vec<(&'static str, Cluster, IoCtx)> {
    let mut plain = small_cluster();
    let rep = pool(&mut plain, PoolConfig::replicated("rep", 2));
    let mut compressed = small_cluster();
    let comp = pool(
        &mut compressed,
        PoolConfig::replicated("comp", 2).with_compression(),
    );
    let mut erasure = small_cluster();
    let ec = pool(&mut erasure, PoolConfig::erasure("ec", 2, 1));
    let mut moved = small_cluster();
    let mv = pool(&mut moved, PoolConfig::replicated("moved", 2));
    let mut all = vec![
        ("replicated", plain, rep),
        ("compressed", compressed, comp),
        ("erasure", erasure, ec),
        ("moved", moved, mv),
    ];
    for (_, c, ctx) in &all {
        for obj in 0..OBJECTS {
            let _ = c.write_full(ctx, &name(obj), seed.to_vec()).expect("seed");
        }
    }
    let (_, moved, mv) = &mut all[3];
    for node in 0..4 {
        let node = moved.map().osd(OsdId(node)).node;
        moved.add_osd(node, 4.0);
    }
    let misplaced = moved.scrub(mv.pool).expect("scrub");
    assert!(!misplaced.is_empty(), "add_osd moved no object");
    all
}

/// Everything a client can observe of one object just transacted on, plus
/// the metadata of every replica or shard: all of it must match the model.
fn assert_matches(layout: &str, c: &Cluster, ctx: &IoCtx, obj: usize, model: Option<&Model>) {
    let name = name(obj);
    let Some(model) = model else {
        assert_eq!(c.stat(ctx.pool, &name), Ok(None), "{layout}");
        let gone = StoreError::NoSuchObject(ctx.pool, name.clone());
        assert_eq!(c.read_full(ctx, &name).err(), Some(gone), "{layout}");
        return;
    };
    let data = c.read_full(ctx, &name).expect("read").value;
    assert_eq!(&data[..], &model.data[..], "{layout}: data of {name}");
    let ranges = c.resident_ranges(ctx.pool, &name, 0, u64::MAX);
    assert_eq!(ranges.expect("ranges"), model.ranges(), "{layout}: {name}");
    let omap = c.omap_entries(ctx, &name).expect("omap").value;
    assert_eq!(omap, model.omap, "{layout}: omap of {name}");
    let mut holders = 0;
    for osd in 0..c.map().osd_count() {
        let store = c.osd_objects(OsdId(osd as u32)).expect("osd");
        for (_, _, replica) in store
            .iter()
            .filter(|(p, n, _)| *p == ctx.pool && **n == name)
        {
            holders += 1;
            assert_eq!(
                replica.xattrs, model.xattrs,
                "{layout}: xattrs on osd.{osd}"
            );
            assert_eq!(replica.omap, model.omap, "{layout}: omap on osd.{osd}");
        }
    }
    assert!(holders >= 2, "{layout}: {name} on {holders} devices");
    // Whatever the object sat on before, it now sits on its acting set.
    let findings = c.scrub(ctx.pool).expect("scrub");
    let stray: Vec<_> = findings.iter().filter(|f| f.name == name).collect();
    assert!(stray.is_empty(), "{layout}: {stray:?}");
    for (k, v) in &model.xattrs {
        let got = c.get_xattr(ctx, &name, k).expect("xattr").value;
        assert_eq!(got.as_ref(), Some(v), "{layout}: xattr {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layout_conformance(txs in transactions(), seed in bytes(64)) {
        let layouts = layouts(&seed);
        let mut seeded = Model::default();
        seeded.apply(&TxOp::WriteFull(seed));
        let mut models: Vec<Option<Model>> = vec![Some(seeded); OBJECTS];
        for (obj, ops) in txs {
            if ops.contains(&TxOp::Remove) {
                models[obj] = None;
            } else {
                let model = models[obj].get_or_insert_with(Model::default);
                ops.iter().for_each(|op| model.apply(op));
            }
            for (layout, c, ctx) in &layouts {
                let _ = c.transact(ctx, &name(obj), ops.clone()).expect("transact");
                assert_matches(layout, c, ctx, obj, models[obj].as_ref());
            }
        }
    }
}

/// The plain replicated pool commits in place or by rebuild depending on
/// the ops; both must charge and store what the two hand-written paths
/// before them did. The literals were captured from this same test at the
/// commit that still had `try_fast_replicated_tx`.
///
/// One input is left out: a `PunchHole` that clips to nothing, which that
/// commit billed 16 metadata bytes on one path and none on the other.
#[test]
fn layout_conformance_costs_are_pinned() {
    let mut c = small_cluster();
    let ctx = pool(&mut c, PoolConfig::replicated("rep", 2));
    let mut lens = [0u64; OBJECTS];
    let mut costs = String::new();
    for case in 0..8 {
        let mut rng = TestRng::for_case("layout_conformance_costs_are_pinned", case);
        for (obj, mut ops) in transactions().generate(&mut rng) {
            let mut len = lens[obj];
            ops.retain(|op| {
                match op {
                    TxOp::WriteFull(d) => len = d.len() as u64,
                    TxOp::Write { offset, data } => len = len.max(offset + data.len() as u64),
                    TxOp::Truncate(l) => len = *l,
                    TxOp::PunchHole { offset, len: l } => return *l > 0 && *offset < len,
                    _ => {}
                }
                true
            });
            lens[obj] = if ops.contains(&TxOp::Remove) { 0 } else { len };
            let t = c.transact(&ctx, &name(obj), ops).expect("transact");
            costs.push_str(&format!("{:?}\n", t.cost));
        }
    }
    let usage = format!("{:?}", c.usage(ctx.pool).expect("usage"));
    assert_eq!((costs.len(), crc32(costs.as_bytes())), PINNED_COSTS);
    assert_eq!(usage, PINNED_USAGE);
}

const PINNED_COSTS: (usize, u32) = (62_659, 3_625_848_422);
const PINNED_USAGE: &str = "PoolUsage { logical_bytes: 194, stored_bytes: 174, \
    metadata_bytes: 86, overhead_bytes: 3072, objects: 3 }";
