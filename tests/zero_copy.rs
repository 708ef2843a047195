//! Zero-copy data plane tests: copy accounting on the foreground hot
//! path, pointer-level aliasing across replication/EC fan-out, and
//! property tests pinning the [`bytes::Bytes`] shim to `Vec` semantics.
//!
//! The counters under test are `engine.bytes_copied` (payload bytes that
//! still cross a memcpy anywhere in the stack) and `engine.bytes_shared`
//! (bytes moved by refcount bump where the old design copied). The
//! aliasing tests go below the counters and check `Bytes::as_ptr`
//! identity directly: every replica's pieces must alias the callers'
//! allocations, a punched range must leave them, and every EC shard must
//! alias one striped encode buffer.

use bytes::Bytes;
use global_dedup::core::{CachePolicy, DedupConfig, DedupStore};
use global_dedup::sim::SimTime;
use global_dedup::store::{
    ClientId, ClusterBuilder, IoCtx, ObjectName, Payload, PoolConfig, StoredObject, TxOp,
};
use proptest::prelude::*;

/// Deterministic pseudo-random bytes.
fn patterned(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// The foreground read hot path (cached object, replicated metadata pool)
/// must perform zero deep copies: the client gets a refcounted view of
/// the stored replica, before *and* after the object is flushed.
#[test]
fn foreground_read_hot_path_is_zero_copy() {
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
    let config = DedupConfig::with_chunk_size(64 * 1024);
    let store = DedupStore::with_default_pools(cluster, config);
    let copied = store.registry().counter("engine.bytes_copied");
    let shared = store.registry().counter("engine.bytes_shared");

    let name = ObjectName::new("hot");
    let data = Bytes::from(patterned(256 * 1024, 1));
    let _ = store
        .write(ClientId(0), &name, 0, data.clone(), SimTime::ZERO)
        .expect("write");

    // Cached read: multi-chunk, but every chunk slices the same replica.
    let before = copied.get();
    let r = store
        .read(
            ClientId(0),
            &name,
            0,
            data.len() as u64,
            SimTime::from_secs(1),
        )
        .expect("cached read");
    assert_eq!(r.value, data);
    assert_eq!(
        copied.get(),
        before,
        "cached foreground read performed a deep copy"
    );
    assert!(shared.get() > 0, "zero-copy moves must be accounted");

    // Post-flush read: cached chunks remain resident under the default
    // cache policy, so the hot path must stay copy-free.
    let _ = store.flush_all(SimTime::from_secs(3600)).expect("flush");
    let before = copied.get();
    let r = store
        .read(
            ClientId(0),
            &name,
            0,
            data.len() as u64,
            SimTime::from_secs(7200),
        )
        .expect("post-flush read");
    assert_eq!(r.value, data);
    assert_eq!(
        copied.get(),
        before,
        "post-flush cached read performed a deep copy"
    );
}

/// Over a whole write → cached read → flush → redirected read cycle the
/// refcounted buffers must carry at least half of all payload byte
/// movement: `bytes_shared / (bytes_shared + bytes_copied) >= 0.5`.
#[test]
fn data_plane_cycle_shares_at_least_half_its_bytes() {
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
    let config = DedupConfig::with_chunk_size(64 * 1024).cache_policy(CachePolicy::EvictAll);
    let store = DedupStore::with_default_pools(cluster, config);
    let copied = store.registry().counter("engine.bytes_copied");
    let shared = store.registry().counter("engine.bytes_shared");

    // Unique content per object so every chunk is actually stored.
    let objects: Vec<(ObjectName, Bytes)> = (0..8)
        .map(|i| {
            let data = Bytes::from(patterned(4 * 64 * 1024, 10 + i));
            (ObjectName::new(format!("cycle-{i}")), data)
        })
        .collect();
    let read_all = |store: &DedupStore, at: u64| {
        for (name, data) in &objects {
            let r = store
                .read(
                    ClientId(0),
                    name,
                    0,
                    data.len() as u64,
                    SimTime::from_secs(at),
                )
                .expect("read");
            assert_eq!(r.value, *data);
        }
    };

    for (name, data) in &objects {
        let _ = store
            .write(ClientId(0), name, 0, data.clone(), SimTime::ZERO)
            .expect("write");
    }
    read_all(&store, 1);
    let _ = store.flush_all(SimTime::from_secs(3600)).expect("flush");
    let redirected = store.stats().redirected_chunks;
    read_all(&store, 7200);
    assert!(
        store.stats().redirected_chunks > redirected,
        "post-flush reads must be served from the chunk pool"
    );

    let (shared, copied) = (shared.get(), copied.get());
    assert!(
        shared * 2 >= shared + copied,
        "zero-copy plane moved {shared} B by refcount vs {copied} B by memcpy (< 50% shared)"
    );
}

/// Collects what every OSD holds for `name` in `pool`.
fn holdings(
    cluster: &global_dedup::store::Cluster,
    pool: global_dedup::placement::PoolId,
    name: &ObjectName,
) -> Vec<StoredObject> {
    cluster
        .map()
        .osds()
        .iter()
        .filter_map(|info| {
            let guard = cluster.osd_objects(info.id).ok()?;
            guard.get(pool, name).cloned()
        })
        .collect()
}

/// A replicated write fans out by refcount bump: all copies — and the
/// caller's buffer — share one allocation (pointer identity).
#[test]
fn replicated_fanout_aliases_one_buffer() {
    let mut cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
    let pool = cluster.create_pool(PoolConfig::replicated("r3", 3));
    let ctx = IoCtx::new(pool);
    let name = ObjectName::new("fan");
    let data = Bytes::from(patterned(128 * 1024, 2));

    let _ = cluster
        .write_full(&ctx, &name, data.clone())
        .expect("replicated write");

    let copies = holdings(&cluster, pool, &name);
    assert_eq!(copies.len(), 3, "expected one copy per replica");
    for obj in &copies {
        let pieces = full_pieces(obj);
        assert_eq!(pieces.len(), 1, "a whole write is one piece");
        let (offset, b) = &pieces[0];
        assert_eq!(*offset, 0);
        assert!(
            b.same_parent(&data),
            "replica does not share the writer's allocation"
        );
        assert_eq!(b.as_ptr(), data.as_ptr(), "replica was deep-copied");
    }
}

/// A replica's pieces as owned `(offset, view)` pairs.
fn full_pieces(obj: &StoredObject) -> Vec<(u64, Bytes)> {
    match &obj.payload {
        Payload::Full(data) => data.pieces().map(|(at, b)| (at, b.clone())).collect(),
        Payload::Shard { .. } => panic!("replicated pool stored a shard"),
    }
}

/// Sequential partial writes commit in place on every replica by
/// splicing the caller's buffer in as a piece: each replica's pieces are
/// the caller's allocations, pointer for pointer, and nothing is copied.
#[test]
fn in_place_appends_alias_the_callers_buffers() {
    let mut cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
    let pool = cluster.create_pool(PoolConfig::replicated("r3", 3));
    let ctx = IoCtx::new(pool);
    let name = ObjectName::new("appended");
    let copied = cluster.registry().counter("engine.bytes_copied");
    const PUT: usize = 128 * 1024;

    // One allocation per PUT, so no two writes could share a parent.
    let puts: Vec<Bytes> = (0..8)
        .map(|i| Bytes::from(patterned(PUT, 20 + i)))
        .collect();
    let before = copied.get();
    for (i, put) in puts.iter().enumerate() {
        let _ = cluster
            .write_at(&ctx, &name, (i * PUT) as u64, put.clone())
            .expect("append");
    }
    assert_eq!(copied.get(), before, "an in-place append copied payload");

    let copies = holdings(&cluster, pool, &name);
    assert_eq!(copies.len(), 3, "expected one copy per replica");
    for obj in &copies {
        let pieces = full_pieces(obj);
        assert_eq!(pieces.len(), puts.len(), "one piece per PUT");
        for (i, ((offset, piece), put)) in pieces.iter().zip(&puts).enumerate() {
            assert_eq!(*offset, (i * PUT) as u64);
            assert!(
                piece.same_parent(put),
                "piece {i} is not the caller's buffer"
            );
            assert_eq!(piece.as_ptr(), put.as_ptr(), "piece {i} was deep-copied");
            assert_eq!(piece.len(), PUT);
        }
        assert_eq!(obj.stored_bytes, (puts.len() * PUT) as u64);
    }
    let whole = cluster.read_full(&ctx, &name).expect("read").value;
    assert_eq!(whole, puts.concat());
}

/// A punched range leaves every replica's piece list: no piece aliases
/// the punched bytes any more, so their memory is released once nothing
/// else holds it, and the space accounting is the old `len - holes`.
#[test]
fn punched_range_is_released() {
    let mut cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
    let pool = cluster.create_pool(PoolConfig::replicated("r3", 3));
    let ctx = IoCtx::new(pool);
    let name = ObjectName::new("punched");
    let data = Bytes::from(patterned(256 * 1024, 4));
    let _ = cluster
        .write_full(&ctx, &name, data.clone())
        .expect("write");
    let (start, len) = (64 * 1024u64, 96 * 1024u64);
    let punch = TxOp::PunchHole { offset: start, len };
    let _ = cluster.transact(&ctx, &name, vec![punch]).expect("punch");

    let punched =
        data.as_ptr() as usize + start as usize..data.as_ptr() as usize + (start + len) as usize;
    let copies = holdings(&cluster, pool, &name);
    assert_eq!(copies.len(), 3, "expected one copy per replica");
    for obj in &copies {
        for (offset, piece) in full_pieces(obj) {
            assert!(
                offset + piece.len() as u64 <= start || offset >= start + len,
                "piece at {offset} overlaps the hole"
            );
            let at = piece.as_ptr() as usize..piece.as_ptr() as usize + piece.len();
            assert!(
                at.end <= punched.start || at.start >= punched.end,
                "piece at {offset} aliases punched bytes"
            );
        }
        let object_len = obj.payload.object_len();
        assert_eq!(
            obj.stored_bytes,
            object_len - obj.holes.total().min(object_len)
        );
        assert_eq!(obj.stored_bytes, data.len() as u64 - len);
    }
    let read = cluster.read_full(&ctx, &name).expect("read").value;
    assert!(read[start as usize..(start + len) as usize]
        .iter()
        .all(|&b| b == 0));
    assert_eq!(read[..start as usize], data[..start as usize]);
    assert_eq!(
        read[(start + len) as usize..],
        data[(start + len) as usize..]
    );
}

/// An EC write stripes all k+m shards into one contiguous encode buffer;
/// every stored shard is a slice of that single parent allocation.
#[test]
fn ec_fanout_shards_share_one_parent() {
    let mut cluster = ClusterBuilder::new().nodes(8).osds_per_node(2).build();
    let pool = cluster.create_pool(PoolConfig::erasure("ec42", 4, 2));
    let ctx = IoCtx::new(pool);
    let name = ObjectName::new("striped");
    let data = patterned(96 * 1024, 3);

    let _ = cluster
        .write_full(&ctx, &name, data.clone())
        .expect("EC write");

    let shards = holdings(&cluster, pool, &name);
    assert_eq!(shards.len(), 6, "expected k+m = 6 shards");
    let mut views = Vec::new();
    let mut indices = Vec::new();
    for obj in &shards {
        match &obj.payload {
            Payload::Shard {
                index,
                object_len,
                bytes,
            } => {
                assert_eq!(*object_len, data.len() as u64);
                indices.push(*index);
                views.push(bytes.clone());
            }
            Payload::Full(_) => panic!("EC pool stored a full copy"),
        }
    }
    indices.sort_unstable();
    assert_eq!(indices, [0, 1, 2, 3, 4, 5]);
    for pair in views.windows(2) {
        assert!(
            pair[0].same_parent(&pair[1]),
            "EC shards do not share the striped encode buffer"
        );
    }

    // Round trip still holds through the shared buffer.
    let t = cluster
        .read_at(&ctx, &name, 0, data.len() as u64)
        .expect("EC read");
    assert_eq!(&t.value[..], &data[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Bytes::slice` agrees with `Vec` range indexing for every
    /// in-bounds range.
    #[test]
    fn bytes_slice_matches_vec(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        a in 0usize..512,
        b in 0usize..512,
    ) {
        let (a, b) = (a.min(data.len()), b.min(data.len()));
        let (a, b) = (a.min(b), a.max(b));
        let bytes = Bytes::from(data.clone());
        let view = bytes.slice(a..b);
        prop_assert_eq!(&view[..], &data[a..b]);
        prop_assert_eq!(view.len(), b - a);
        // Slicing is aliasing, never copying.
        if b > a {
            prop_assert!(view.same_parent(&bytes));
        }
    }

    /// `split_to`/`split_off` partition the buffer exactly like splitting
    /// a `Vec` at the same index, and both halves alias the parent.
    #[test]
    fn bytes_split_matches_vec(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        at in 0usize..512,
    ) {
        let at = at.min(data.len());

        let mut tail = Bytes::from(data.clone());
        let head = tail.split_to(at);
        prop_assert_eq!(&head[..], &data[..at]);
        prop_assert_eq!(&tail[..], &data[at..]);

        let mut head2 = Bytes::from(data.clone());
        let tail2 = head2.split_off(at);
        prop_assert_eq!(&head2[..], &data[..at]);
        prop_assert_eq!(&tail2[..], &data[at..]);

        // Adjacent halves of one parent rejoin without copying.
        if let Some(joined) = head.try_join(&tail) {
            prop_assert_eq!(&joined[..], &data[..]);
        } else {
            prop_assert!(false, "adjacent split halves must rejoin");
        }
    }

    /// `truncate` matches `Vec::truncate`; copy-on-write mutation of one
    /// view never disturbs its siblings.
    #[test]
    fn bytes_cow_isolates_siblings(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        at in 0usize..256,
        poke in any::<u8>(),
    ) {
        let at = at.min(data.len() - 1);
        let parent = Bytes::from(data.clone());
        let mut view = parent.slice(at..);
        // CoW: the sibling and the parent both survive the mutation.
        view.make_mut()[0] = poke;
        prop_assert_eq!(view[0], poke);
        prop_assert_eq!(&parent[..], &data[..]);

        let mut trunc = parent.clone();
        trunc.truncate(at);
        let mut model = data.clone();
        model.truncate(at);
        prop_assert_eq!(&trunc[..], &model[..]);
    }
}
