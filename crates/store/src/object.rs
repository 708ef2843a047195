//! Self-contained objects: data payload plus xattr/omap metadata.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Fixed per-object metadata overhead in bytes, matching the paper's note
/// that "Ceph's object has its own metadata at least 512 bytes" (§5).
pub const PER_OBJECT_OVERHEAD: u64 = 512;

/// An object name within a pool.
///
/// Backed by `Arc<str>`: names travel through dirty queues, hitsets, and
/// flush batches and get cloned on every hop, so cloning is a refcount
/// bump, not a heap copy. Ordering, hashing, and equality all delegate to
/// the underlying string, as they did when this was a plain `String`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectName(std::sync::Arc<str>);

impl ObjectName {
    /// Creates a name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "object names must be non-empty");
        ObjectName(name.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The name as bytes (hash input for placement).
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectName {
    fn from(s: &str) -> Self {
        ObjectName::new(s)
    }
}

impl From<String> for ObjectName {
    fn from(s: String) -> Self {
        ObjectName::new(s)
    }
}

/// What one OSD physically holds for an object: a full copy (replicated
/// pools) or one erasure-coded shard.
///
/// Payload bytes are [`Bytes`]: replicas and shards produced by one write
/// fan-out all share the writer's parent allocation, and reads hand back
/// refcounted sub-views instead of fresh vectors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// Entire object data.
    Full(Bytes),
    /// One Reed–Solomon shard of the object.
    Shard {
        /// Shard index in `[0, k + m)`.
        index: u8,
        /// Logical length of the whole object (shards are padded).
        object_len: u64,
        /// Shard bytes.
        bytes: Bytes,
    },
}

impl Payload {
    /// Bytes physically occupied by this payload before compression.
    pub fn stored_len(&self) -> u64 {
        match self {
            Payload::Full(b) => b.len() as u64,
            Payload::Shard { bytes, .. } => bytes.len() as u64,
        }
    }

    /// Logical object length this payload implies.
    pub fn object_len(&self) -> u64 {
        match self {
            Payload::Full(b) => b.len() as u64,
            Payload::Shard { object_len, .. } => *object_len,
        }
    }
}

/// A set of non-overlapping byte ranges, used to track punched holes in
/// sparse objects. Hole bytes read as zero and occupy no physical space.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RangeSet {
    /// Maps range start → range end (exclusive); ranges never overlap or
    /// touch.
    ranges: BTreeMap<u64, u64>,
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `[start, end)`, merging with overlapping/adjacent ranges.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn insert(&mut self, start: u64, end: u64) {
        assert!(start <= end, "inverted range {start}..{end}");
        if start == end {
            return;
        }
        let mut new_start = start;
        let mut new_end = end;
        // Absorb any range overlapping or adjacent to [start, end).
        let overlapping: Vec<(u64, u64)> = self
            .ranges
            .range(..=end)
            .filter(|&(_, &e)| e >= start)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in overlapping {
            self.ranges.remove(&s);
            new_start = new_start.min(s);
            new_end = new_end.max(e);
        }
        self.ranges.insert(new_start, new_end);
    }

    /// Removes `[start, end)` from the set, splitting ranges as needed.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn remove(&mut self, start: u64, end: u64) {
        assert!(start <= end, "inverted range {start}..{end}");
        if start == end {
            return;
        }
        let affected: Vec<(u64, u64)> = self
            .ranges
            .range(..end)
            .filter(|&(_, &e)| e > start)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in affected {
            self.ranges.remove(&s);
            if s < start {
                self.ranges.insert(s, start);
            }
            if e > end {
                self.ranges.insert(end, e);
            }
        }
    }

    /// Drops everything at or beyond `at` (object truncation).
    pub fn truncate(&mut self, at: u64) {
        self.remove(at, u64::MAX);
    }

    /// Removes all ranges.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    /// Total bytes covered.
    pub fn total(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Whether `offset` falls inside a range.
    pub fn contains(&self, offset: u64) -> bool {
        self.ranges
            .range(..=offset)
            .next_back()
            .is_some_and(|(_, &e)| e > offset)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterates `(start, end)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &e)| (s, e))
    }
}

/// One object replica/shard as stored on an OSD: payload + metadata.
///
/// The metadata maps (`xattrs`, `omap`) are carried on **every** replica, so
/// whatever a layer above stores there enjoys the same redundancy as the
/// data — the paper's *self-contained object* (§3.2, Fig. 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredObject {
    /// Data payload (full copy or EC shard).
    pub payload: Payload,
    /// Small named attributes (chunk-map headers, reference counts...).
    /// Values are shared buffers: metadata reads alias them for free.
    pub xattrs: BTreeMap<String, Bytes>,
    /// Sorted key-value metadata (chunk-map entries, back references...).
    pub omap: BTreeMap<String, Bytes>,
    /// Punched holes in the logical object: ranges that read as zero and
    /// occupy no space (cache eviction uses this).
    pub holes: RangeSet,
    /// Physical bytes after sparseness and at-rest compression; at most the
    /// raw payload size.
    pub stored_bytes: u64,
}

/// Total bytes of keys and values across an object's two metadata maps.
pub(crate) fn metadata_bytes(
    xattrs: &BTreeMap<String, Bytes>,
    omap: &BTreeMap<String, Bytes>,
) -> u64 {
    let entries = xattrs.iter().chain(omap);
    entries.map(|(k, v)| (k.len() + v.len()) as u64).sum()
}

impl StoredObject {
    /// Creates an object with the given payload and no metadata.
    pub fn new(payload: Payload) -> Self {
        let stored_bytes = payload.stored_len();
        StoredObject {
            payload,
            xattrs: BTreeMap::new(),
            omap: BTreeMap::new(),
            holes: RangeSet::new(),
            stored_bytes,
        }
    }

    /// Total bytes of xattr and omap metadata (keys + values).
    pub fn metadata_bytes(&self) -> u64 {
        metadata_bytes(&self.xattrs, &self.omap)
    }

    /// Physical footprint of this replica: stored payload + metadata +
    /// fixed per-object overhead.
    pub fn footprint(&self) -> u64 {
        self.stored_bytes + self.metadata_bytes() + PER_OBJECT_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_round_trips() {
        let n = ObjectName::new("obj-1");
        assert_eq!(n.as_str(), "obj-1");
        assert_eq!(n.as_bytes(), b"obj-1");
        assert_eq!(n.to_string(), "obj-1");
        assert_eq!(ObjectName::from("x"), ObjectName::new("x"));
    }

    #[test]
    fn name_clone_shares_the_allocation() {
        let n = ObjectName::new("shared");
        let c = n.clone();
        assert_eq!(n, c);
        // Same pointer: a clone is a refcount bump, not a copy.
        assert!(std::ptr::eq(n.as_str(), c.as_str()));
    }

    #[test]
    fn name_ordering_and_hashing_match_strings() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = ObjectName::new("aardvark");
        let b = ObjectName::new("bobcat");
        assert!(a < b, "Ord delegates to the string");
        let hash = |n: &ObjectName| {
            let mut h = DefaultHasher::new();
            n.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&ObjectName::new("aardvark")));
        let mut set = std::collections::HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&ObjectName::new("aardvark")));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_name_rejected() {
        ObjectName::new("");
    }

    #[test]
    fn payload_lengths() {
        let full = Payload::Full(vec![0; 10].into());
        assert_eq!(full.stored_len(), 10);
        assert_eq!(full.object_len(), 10);
        let shard = Payload::Shard {
            index: 1,
            object_len: 100,
            bytes: vec![0; 50].into(),
        };
        assert_eq!(shard.stored_len(), 50);
        assert_eq!(shard.object_len(), 100);
    }

    #[test]
    fn metadata_bytes_counts_keys_and_values() {
        let mut o = StoredObject::new(Payload::Full(vec![1, 2, 3].into()));
        assert_eq!(o.metadata_bytes(), 0);
        o.xattrs.insert("ab".into(), vec![0; 8].into());
        o.omap.insert("key".into(), vec![0; 5].into());
        assert_eq!(o.metadata_bytes(), 2 + 8 + 3 + 5);
    }

    #[test]
    fn footprint_includes_overhead() {
        let o = StoredObject::new(Payload::Full(vec![0; 100].into()));
        assert_eq!(o.footprint(), 100 + PER_OBJECT_OVERHEAD);
    }

    #[test]
    fn rangeset_insert_merges() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        r.insert(30, 40);
        assert_eq!(r.total(), 20);
        r.insert(15, 35); // bridges both
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(10, 40)]);
        r.insert(40, 50); // adjacent merges
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(10, 50)]);
    }

    #[test]
    fn rangeset_remove_splits() {
        let mut r = RangeSet::new();
        r.insert(0, 100);
        r.remove(40, 60);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(0, 40), (60, 100)]);
        assert_eq!(r.total(), 80);
        r.remove(0, 1000);
        assert!(r.is_empty());
    }

    #[test]
    fn rangeset_contains_and_truncate() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(!r.contains(9));
        r.insert(50, 80);
        r.truncate(60);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(10, 20), (50, 60)]);
    }

    #[test]
    fn rangeset_empty_insert_is_noop() {
        let mut r = RangeSet::new();
        r.insert(5, 5);
        assert!(r.is_empty());
        r.remove(1, 1);
        assert!(r.is_empty());
    }
}

#[cfg(test)]
mod rangeset_proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64),
        Remove(u64, u64),
        Truncate(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..256, 0u64..256).prop_map(|(a, b)| Op::Insert(a.min(b), a.max(b))),
            (0u64..256, 0u64..256).prop_map(|(a, b)| Op::Remove(a.min(b), a.max(b))),
            (0u64..256).prop_map(Op::Truncate),
        ]
    }

    proptest! {
        /// RangeSet agrees with a per-byte reference model through any
        /// sequence of inserts, removes, and truncates, and keeps its
        /// internal ranges disjoint and sorted.
        #[test]
        fn matches_bitset_model(ops in proptest::collection::vec(op_strategy(), 0..40)) {
            let mut set = RangeSet::new();
            let mut model = [false; 256];
            for op in ops {
                match op {
                    Op::Insert(a, b) => {
                        set.insert(a, b);
                        for bit in model.iter_mut().take(b as usize).skip(a as usize) {
                            *bit = true;
                        }
                    }
                    Op::Remove(a, b) => {
                        set.remove(a, b);
                        for bit in model.iter_mut().take(b as usize).skip(a as usize) {
                            *bit = false;
                        }
                    }
                    Op::Truncate(at) => {
                        set.truncate(at);
                        for bit in model.iter_mut().skip(at as usize) {
                            *bit = false;
                        }
                    }
                }
                // Contains agrees byte by byte.
                for (i, &bit) in model.iter().enumerate() {
                    prop_assert_eq!(set.contains(i as u64), bit, "byte {}", i);
                }
                // Total agrees.
                let expect = model.iter().filter(|&&b| b).count() as u64;
                prop_assert_eq!(set.total(), expect);
                // Ranges disjoint, sorted, non-adjacent.
                let ranges: Vec<_> = set.iter().collect();
                for w in ranges.windows(2) {
                    prop_assert!(w[0].1 < w[1].0, "overlapping/adjacent ranges");
                }
                for &(s, e) in &ranges {
                    prop_assert!(s < e, "empty range stored");
                }
            }
        }
    }
}
