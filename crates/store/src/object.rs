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

/// Most pieces an [`ExtentList`] keeps: a mutation that would leave more
/// compacts it into one buffer, bounding splice work and pinned parents.
pub(crate) const MAX_PIECES: usize = 64;

/// A whole object's bytes: sorted, non-overlapping, non-empty
/// `(offset, Bytes)` pieces plus a logical length; bytes no piece covers
/// read as zero. A write adopts the caller's buffer as a piece, splitting
/// what it overlaps by `slice`; a punch or a shrinking truncate drops or
/// splits pieces, freeing the range once no other view holds its parent.
/// The one copy is compaction past 64 pieces; until then a piece pins its
/// whole parent allocation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExtentList {
    pieces: Vec<(u64, Bytes)>,
    len: u64,
}

impl ExtentList {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pieces in offset order.
    pub fn pieces(&self) -> impl Iterator<Item = (u64, &Bytes)> + '_ {
        self.pieces.iter().map(|(offset, b)| (*offset, b))
    }

    /// Writes `data` at `offset`, growing the length to its end; returns
    /// the bytes compaction copied.
    pub fn write(&mut self, offset: u64, data: Bytes) -> u64 {
        let end = offset + data.len() as u64;
        self.len = self.len.max(end);
        if data.is_empty() {
            return 0;
        }
        self.splice(offset, end, Some(data))
    }

    /// Drops `[start, end)`, within the length, so it reads as zero;
    /// returns the bytes compaction copied.
    pub fn punch(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        self.splice(start, end, None)
    }

    /// Sets the length: shrinking drops what lies beyond (never a copy),
    /// growing adds zeros that occupy no piece.
    pub fn truncate(&mut self, len: u64) {
        if len < self.len {
            self.splice(len, self.len, None);
        }
        self.len = len;
    }

    /// `[offset, offset + len)`, within the length, and the bytes memcpy'd
    /// to produce it: a range inside one piece, or across adjacent views of
    /// one parent, is a view; anything else is gathered, gaps zero.
    pub fn read(&self, offset: u64, len: u64) -> (Bytes, u64) {
        let end = offset + len;
        debug_assert!(end <= self.len, "read {offset}+{len} past {}", self.len);
        let views = self.pieces[self.overlapping(offset, end)]
            .iter()
            .map(|p @ (at, b)| {
                let (s, e) = (offset.max(*at), end.min(piece_end(p)));
                (s, b.slice((s - at) as usize..(e - at) as usize))
            });
        let mut joined = Some(Bytes::new());
        for (s, view) in views.clone() {
            let next = |j: Bytes| j.try_join(&view).filter(|_| offset + j.len() as u64 == s);
            joined = joined.and_then(next);
        }
        if let Some(view) = joined.filter(|j| j.len() as u64 == len) {
            return (view, 0);
        }
        let (mut out, mut copied) = (vec![0u8; len as usize], 0);
        for (s, view) in views {
            let at = (s - offset) as usize;
            out[at..at + view.len()].copy_from_slice(&view);
            copied += view.len() as u64;
        }
        (out.into(), copied)
    }

    /// The whole object as contiguous bytes and the bytes memcpy'd to
    /// produce it (none for one piece spanning it).
    pub fn flatten(&self) -> (Bytes, u64) {
        self.read(0, self.len)
    }

    /// Index range of the pieces overlapping `[start, end)`.
    fn overlapping(&self, start: u64, end: u64) -> std::ops::Range<usize> {
        let first = self.pieces.partition_point(|p| piece_end(p) <= start);
        first..self.pieces.partition_point(|(at, _)| *at < end)
    }

    /// Replaces `[start, end)` with `with` (or a gap), keeping what the
    /// overlapped pieces hold outside it; returns what compaction copied.
    fn splice(&mut self, start: u64, end: u64, with: Option<Bytes>) -> u64 {
        let range = self.overlapping(start, end);
        let overlapped = &self.pieces[range.clone()];
        let head = (overlapped.first())
            .filter(|(at, _)| *at < start)
            .map(|(at, b)| (*at, b.slice(..(start - at) as usize)));
        let tail = (overlapped.last())
            .filter(|p| piece_end(p) > end)
            .map(|(at, b)| (end, b.slice((end - at) as usize..)));
        let mid = range.start + usize::from(head.is_some());
        let added = with.is_some();
        let new = [head, with.map(|b| (start, b)), tail];
        self.pieces.splice(range, new.into_iter().flatten());
        if added {
            self.join(mid + 1);
            self.join(mid);
        }
        if self.pieces.len() <= MAX_PIECES {
            return 0;
        }
        let first = self.pieces[0].0;
        let end = self.pieces.last().map_or(first, piece_end);
        let (buf, copied) = self.read(first, end - first);
        self.pieces = vec![(first, buf)];
        copied
    }

    /// Merges pieces `i - 1` and `i` if they are adjacent views of one
    /// parent.
    fn join(&mut self, i: usize) {
        let Some([prev, (at, next)]) = i.checked_sub(1).and_then(|p| self.pieces.get(p..=i)) else {
            return;
        };
        if let Some(joined) = prev.1.try_join(next).filter(|_| piece_end(prev) == *at) {
            self.pieces[i - 1].1 = joined;
            self.pieces.remove(i);
        }
    }
}

/// Where a piece ends.
fn piece_end((at, b): &(u64, Bytes)) -> u64 {
    at + b.len() as u64
}

impl PartialEq for ExtentList {
    /// Same bytes, whatever the piece boundaries. Only scrub, repair and
    /// tests compare payloads, so gathering several pieces is fine.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.flatten().0 == other.flatten().0
    }
}

impl Eq for ExtentList {}

impl From<Bytes> for ExtentList {
    /// One piece spanning the object: adopts the buffer.
    fn from(data: Bytes) -> Self {
        let len = data.len() as u64;
        let pieces = Some((0, data)).filter(|(_, b)| !b.is_empty());
        let pieces = pieces.into_iter().collect();
        ExtentList { pieces, len }
    }
}

impl From<Vec<u8>> for ExtentList {
    fn from(data: Vec<u8>) -> Self {
        Bytes::from(data).into()
    }
}

/// What one OSD physically holds for an object: a full copy (replicated
/// pools) or one erasure-coded shard.
///
/// Payload bytes are [`Bytes`]: a full copy's pieces are the writers'
/// buffers, one write's EC shards slice one stripe buffer, and reads hand
/// back refcounted sub-views instead of fresh vectors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// Entire object data.
    Full(ExtentList),
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
            Payload::Full(data) => data.len(),
            Payload::Shard { bytes, .. } => bytes.len() as u64,
        }
    }

    /// Logical object length this payload implies.
    pub fn object_len(&self) -> u64 {
        match self {
            Payload::Full(data) => data.len(),
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

    /// `(offset, len, pointer)` of every piece.
    fn layout(e: &ExtentList) -> Vec<(u64, usize, *const u8)> {
        e.pieces()
            .map(|(at, b)| (at, b.len(), b.as_ptr()))
            .collect()
    }

    #[test]
    fn writes_adopt_buffers_and_rejoin_adjacent_views() {
        let parent = Bytes::from(vec![7u8; 300]);
        let mut e = ExtentList::from(parent.slice(..100));
        // Adjacent views of one parent merge into one piece.
        assert_eq!(e.write(100, parent.slice(100..200)), 0);
        assert_eq!(layout(&e), vec![(0, 200, parent.as_ptr())]);
        // Another parent splits what it overlaps, by slicing.
        let other = Bytes::from(vec![9u8; 50]);
        assert_eq!(e.write(75, other.clone()), 0);
        let ptr = parent.as_ptr();
        assert_eq!(
            layout(&e),
            vec![
                (0, 75, ptr),
                (75, 50, other.as_ptr()),
                (125, 75, ptr.wrapping_add(125))
            ]
        );
        // Past the end: the gap is no piece, and reads zero.
        assert_eq!(e.write(250, other.slice(..10)), 0);
        assert_eq!((e.len(), e.pieces().count()), (260, 4));
        assert_eq!(e.read(200, 50), (Bytes::from(vec![0u8; 50]), 0));
    }

    #[test]
    fn punch_and_truncate_drop_pieces() {
        let mut e = ExtentList::from(vec![1u8; 100]);
        assert_eq!(e.punch(20, 40), 0);
        assert_eq!(
            e.pieces().map(|(at, b)| (at, b.len())).collect::<Vec<_>>(),
            [(0, 20), (40, 60)]
        );
        e.truncate(30);
        assert_eq!(
            e.pieces().map(|(at, b)| (at, b.len())).collect::<Vec<_>>(),
            [(0, 20)]
        );
        e.truncate(1000); // zero-extension stays sparse
        assert_eq!((e.len(), e.pieces().count()), (1000, 1));
        e.truncate(0);
        assert!(e.is_empty() && e.pieces().next().is_none());
    }

    #[test]
    fn equality_compares_bytes_not_layout() {
        let whole = ExtentList::from(vec![0, 0, 5, 6, 0]);
        let mut pieces = ExtentList::new();
        let _ = pieces.write(3, vec![6].into());
        let _ = pieces.write(2, vec![5].into());
        pieces.truncate(5);
        assert_eq!(whole, pieces, "resident zeros equal a gap");
        let _ = pieces.write(4, vec![1].into());
        assert_ne!(whole, pieces);
        assert_ne!(ExtentList::from(vec![0; 4]), ExtentList::from(vec![0; 5]));
    }

    /// Every memcpy an extent list makes is returned to the caller, which
    /// counts it in `engine.bytes_copied`.
    #[test]
    fn copies_are_reported() {
        let parent = Bytes::from((0..=255).collect::<Vec<u8>>());
        let mut e = ExtentList::from(parent.slice(..64));
        let _ = e.write(64, Bytes::from(vec![1u8; 64]));
        // A read inside one piece, or a flatten of one piece, is a view.
        let (view, copied) = e.read(8, 16);
        assert_eq!(
            (copied, view.as_ptr()),
            (0, parent.as_ptr().wrapping_add(8))
        );
        let single = ExtentList::from(parent.clone());
        assert_eq!(single.flatten().1, 0);
        assert_eq!(single.flatten().0.as_ptr(), parent.as_ptr());
        // Adjacent views of one parent join; unrelated parents gather.
        let mut joined = ExtentList::new();
        let _ = joined.write(0, parent.slice(..10));
        let _ = joined.punch(5, 10);
        let _ = joined.write(5, parent.slice(5..10));
        assert_eq!(joined.read(0, 10).1, 0);
        assert_eq!(e.read(60, 8).1, 8, "read gather across parents");
        assert_eq!(e.flatten().1, 128, "flatten of more than one piece");
        // Gaps are zero-filled, not copied.
        e.truncate(200);
        assert_eq!(e.read(100, 100).1, 28);
    }

    #[test]
    fn compaction_bounds_the_piece_count() {
        let mut e = ExtentList::new();
        for i in 0..MAX_PIECES as u64 {
            assert_eq!(e.write(2 * i, vec![i as u8 + 1].into()), 0);
        }
        assert_eq!(e.pieces().count(), MAX_PIECES);
        // One piece more compacts: one buffer, every resident byte copied.
        let before = e.clone();
        assert_eq!(e.write(1000, vec![9].into()), MAX_PIECES as u64 + 1);
        assert_eq!(layout(&e).len(), 1);
        assert_eq!(
            e.pieces().next().map(|(at, b)| (at, b.len())),
            Some((0, 1001))
        );
        let mut expect = before;
        let _ = expect.write(1000, vec![9].into());
        assert_eq!(e, expect);
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
mod extent_list_proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// `len` bytes at `offset`: a view of the shared parent at `src`
        /// (adjacent writes can rejoin) or a fresh buffer.
        Write {
            offset: u64,
            src: usize,
            len: usize,
            fresh: bool,
        },
        Punch(u64, u64),
        Truncate(u64),
        Read(u64, u64),
    }

    /// Short writes and punches over a few hundred bytes, so lists often
    /// fragment past [`MAX_PIECES`].
    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            10 => (0u64..512, 0usize..504, 0usize..8, any::<bool>())
                .prop_map(|(offset, src, len, fresh)| Op::Write { offset, src, len, fresh }),
            2 => (0u64..512, 0u64..24).prop_map(|(a, w)| Op::Punch(a, a + w)),
            1 => (0u64..520).prop_map(Op::Truncate),
            2 => (0u64..520, 0u64..520).prop_map(|(a, b)| Op::Read(a.min(b), a.max(b))),
        ]
    }

    /// Piece `(offset, len)` pairs.
    fn spans(e: &ExtentList) -> Vec<(u64, u64)> {
        e.pieces().map(|(at, b)| (at, b.len() as u64)).collect()
    }

    proptest! {
        /// An extent list agrees with a byte vector plus a hole bitmap
        /// through any sequence of writes (also past the end), punches,
        /// truncates both ways, reads and flattens; it keeps its pieces
        /// sorted, disjoint, non-empty and within [`MAX_PIECES`]; a punch
        /// that did not compact leaves no piece over the punched range;
        /// and it equals a one-piece list of the same bytes.
        #[test]
        fn matches_vec_and_hole_bitmap_model(
            seed in any::<u8>(),
            ops in proptest::collection::vec(op_strategy(), 1..400),
        ) {
            let parent: Bytes = (0..512u32).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
            let mut e = ExtentList::new();
            let (mut bytes, mut hole) = (Vec::<u8>::new(), Vec::<bool>::new());
            for op in ops {
                let mut copied = 0;
                match op {
                    Op::Write { offset, src, len, fresh } => {
                        let data = match fresh {
                            true => Bytes::from(parent[src..src + len].to_vec()),
                            false => parent.slice(src..src + len),
                        };
                        let (at, end) = (offset as usize, offset as usize + len);
                        // A gap before `at` is a hole.
                        bytes.resize(bytes.len().max(end), 0);
                        hole.resize(bytes.len(), true);
                        bytes[at..end].copy_from_slice(&data);
                        hole[at..end].fill(false);
                        copied = e.write(offset, data);
                    }
                    Op::Punch(a, b) => {
                        let b = b.min(e.len());
                        if a < b {
                            bytes[a as usize..b as usize].fill(0);
                            hole[a as usize..b as usize].fill(true);
                        }
                        copied = e.punch(a, b);
                        if copied == 0 && a < b {
                            let over = spans(&e).into_iter().any(|(at, n)| at < b && at + n > a);
                            prop_assert!(!over, "punched [{}, {}) still held", a, b);
                        }
                    }
                    Op::Truncate(n) => {
                        bytes.resize(n as usize, 0);
                        hole.resize(n as usize, true);
                        e.truncate(n);
                    }
                    Op::Read(a, b) => {
                        let (a, b) = (a.min(e.len()), b.min(e.len()));
                        let (read, gathered) = e.read(a, b - a);
                        prop_assert_eq!(&read[..], &bytes[a as usize..b as usize]);
                        prop_assert!(gathered <= b - a);
                    }
                }
                // A compaction leaves one buffer.
                if copied > 0 {
                    prop_assert_eq!(e.pieces().count(), 1);
                }
                prop_assert_eq!(e.len(), bytes.len() as u64);
                let spans = spans(&e);
                prop_assert!(spans.len() <= MAX_PIECES);
                prop_assert!(spans.iter().all(|&(at, n)| n > 0 && at + n <= e.len()));
                prop_assert!(spans.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0));
                // Every written byte is held by a piece; holes read zero.
                let held = |i: u64| spans.iter().any(|&(at, n)| at <= i && i < at + n);
                for (i, &h) in hole.iter().enumerate() {
                    prop_assert!(h || held(i as u64), "written byte {} not held", i);
                    prop_assert!(!h || bytes[i] == 0);
                }
                let (flat, _) = e.flatten();
                prop_assert_eq!(&flat[..], &bytes[..]);
                // Content equality ignores layout.
                let twin = ExtentList::from(flat.to_vec());
                prop_assert_eq!(&twin, &e);
                prop_assert_eq!(&e, &twin);
                if let Some(&last) = bytes.last() {
                    let mut other = twin;
                    let _ = other.write(e.len() - 1, vec![last ^ 1].into());
                    prop_assert_ne!(&other, &e);
                }
            }
        }
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
