//! One object storage device: an object map with capacity statistics.

use std::collections::HashMap;

use dedup_placement::PoolId;
use serde::{Deserialize, Serialize};

use crate::object::{ObjectName, StoredObject};

/// Capacity statistics for one OSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OsdStats {
    /// Number of object replicas/shards held.
    pub objects: u64,
    /// Physical payload bytes (post-compression).
    pub stored_bytes: u64,
    /// Metadata bytes (xattr + omap).
    pub metadata_bytes: u64,
}

/// One storage device's local object store.
///
/// An OSD knows nothing about placement: the cluster routes to it, it
/// stores whatever it is told. This mirrors the shared-nothing split in the
/// real system.
///
/// Objects are keyed pool-first so hot-path lookups borrow the caller's
/// [`ObjectName`] instead of cloning it into a composite key.
#[derive(Debug, Clone, Default)]
pub struct Osd {
    pools: HashMap<PoolId, HashMap<ObjectName, StoredObject>>,
}

impl Osd {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces an object replica, returning the previous one.
    pub fn put(
        &mut self,
        pool: PoolId,
        name: ObjectName,
        object: StoredObject,
    ) -> Option<StoredObject> {
        self.pools.entry(pool).or_default().insert(name, object)
    }

    /// Borrows an object replica.
    pub fn get(&self, pool: PoolId, name: &ObjectName) -> Option<&StoredObject> {
        self.pools.get(&pool)?.get(name)
    }

    /// Mutably borrows an object replica.
    pub fn get_mut(&mut self, pool: PoolId, name: &ObjectName) -> Option<&mut StoredObject> {
        self.pools.get_mut(&pool)?.get_mut(name)
    }

    /// Mutably borrows an object replica, storing `make()` first if the
    /// device holds none.
    pub(crate) fn get_or_insert_with(
        &mut self,
        pool: PoolId,
        name: &ObjectName,
        make: impl FnOnce() -> StoredObject,
    ) -> &mut StoredObject {
        let objects = self.pools.entry(pool).or_default();
        objects.entry(name.clone()).or_insert_with(make)
    }

    /// Removes an object replica.
    pub fn remove(&mut self, pool: PoolId, name: &ObjectName) -> Option<StoredObject> {
        let objects = self.pools.get_mut(&pool)?;
        let removed = objects.remove(name);
        if objects.is_empty() {
            self.pools.remove(&pool);
        }
        removed
    }

    /// Whether the device holds a replica of the object.
    pub fn contains(&self, pool: PoolId, name: &ObjectName) -> bool {
        self.pools
            .get(&pool)
            .is_some_and(|objects| objects.contains_key(name))
    }

    /// Iterates over everything on the device.
    pub fn iter(&self) -> impl Iterator<Item = (PoolId, &ObjectName, &StoredObject)> {
        self.pools
            .iter()
            .flat_map(|(&pool, objects)| objects.iter().map(move |(n, o)| (pool, n, o)))
    }

    /// Object names this device holds for one pool.
    pub fn names_in_pool(&self, pool: PoolId) -> Vec<ObjectName> {
        self.pools
            .get(&pool)
            .map(|objects| objects.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Wipes the device (simulates losing the disk).
    pub fn wipe(&mut self) {
        self.pools.clear();
    }

    /// Computes capacity statistics.
    pub fn stats(&self) -> OsdStats {
        let mut s = OsdStats::default();
        for objects in self.pools.values() {
            for obj in objects.values() {
                s.objects += 1;
                s.stored_bytes += obj.stored_bytes;
                s.metadata_bytes += obj.metadata_bytes();
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Payload;

    fn pool() -> PoolId {
        PoolId(1)
    }

    #[test]
    fn put_get_remove_round_trip() {
        let mut osd = Osd::new();
        let name = ObjectName::new("a");
        let obj = StoredObject::new(Payload::Full(vec![1, 2, 3].into()));
        assert!(osd.put(pool(), name.clone(), obj.clone()).is_none());
        assert_eq!(osd.get(pool(), &name), Some(&obj));
        assert!(osd.contains(pool(), &name));
        assert_eq!(osd.remove(pool(), &name), Some(obj));
        assert!(!osd.contains(pool(), &name));
    }

    #[test]
    fn pools_are_namespaced() {
        let mut osd = Osd::new();
        let name = ObjectName::new("same");
        osd.put(
            PoolId(1),
            name.clone(),
            StoredObject::new(Payload::Full(vec![1].into())),
        );
        osd.put(
            PoolId(2),
            name.clone(),
            StoredObject::new(Payload::Full(vec![2, 2].into())),
        );
        assert_eq!(osd.get(PoolId(1), &name).map(|o| o.stored_bytes), Some(1));
        assert_eq!(osd.get(PoolId(2), &name).map(|o| o.stored_bytes), Some(2));
        assert_eq!(osd.names_in_pool(PoolId(1)).len(), 1);
    }

    #[test]
    fn stats_sum_objects() {
        let mut osd = Osd::new();
        let mut a = StoredObject::new(Payload::Full(vec![0; 100].into()));
        a.xattrs.insert("k".into(), vec![0; 10].into());
        osd.put(pool(), ObjectName::new("a"), a);
        osd.put(
            pool(),
            ObjectName::new("b"),
            StoredObject::new(Payload::Full(vec![0; 50].into())),
        );
        let s = osd.stats();
        assert_eq!(s.objects, 2);
        assert_eq!(s.stored_bytes, 150);
        assert_eq!(s.metadata_bytes, 11);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut osd = Osd::new();
        osd.put(
            pool(),
            ObjectName::new("a"),
            StoredObject::new(Payload::Full(vec![1].into())),
        );
        osd.wipe();
        assert_eq!(osd.stats().objects, 0);
    }

    #[test]
    fn empty_pool_map_is_pruned_on_remove() {
        let mut osd = Osd::new();
        let name = ObjectName::new("only");
        osd.put(
            pool(),
            name.clone(),
            StoredObject::new(Payload::Full(vec![1].into())),
        );
        osd.remove(pool(), &name);
        assert_eq!(osd.iter().count(), 0);
        assert!(osd.names_in_pool(pool()).is_empty());
    }
}
