//! Cluster maps: devices, failure-domain nodes, and acting-set selection.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hash::hash_words;
use crate::pg::PgId;
use crate::straw::straw2_draw;

/// Identifier of an object storage device (OSD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OsdId(pub u32);

impl fmt::Display for OsdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "osd.{}", self.0)
    }
}

/// Identifier of a failure-domain node (host) containing OSDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node.{}", self.0)
    }
}

/// Identifier of a rack (a failure domain above nodes: shared power/switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RackId(pub u32);

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack.{}", self.0)
    }
}

/// Static + liveness description of one OSD.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OsdInfo {
    /// This OSD's id (its index in the map).
    pub id: OsdId,
    /// The failure-domain node hosting it.
    pub node: NodeId,
    /// Relative capacity weight; zero removes it from placement.
    pub weight: f64,
    /// Whether the OSD is currently serving I/O.
    pub up: bool,
}

/// Which topology level replicas must not share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureDomain {
    /// Replicas may share a node but not a device.
    Osd,
    /// Replicas must land on distinct nodes (falls back to distinct OSDs if
    /// there are fewer nodes than replicas).
    Node,
    /// Replicas must land on distinct racks (falls back to distinct nodes,
    /// then distinct OSDs, when the topology is too small).
    Rack,
}

/// How many devices to select for a placement group and how to spread them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlacementRule {
    /// Acting-set size: replica count, or `k + m` for erasure coding.
    pub replicas: usize,
    /// Spread constraint.
    pub failure_domain: FailureDomain,
}

impl PlacementRule {
    /// Rule placing `replicas` copies on distinct nodes.
    pub fn spread_nodes(replicas: usize) -> Self {
        PlacementRule {
            replicas,
            failure_domain: FailureDomain::Node,
        }
    }
}

/// The versioned device map every participant shares.
///
/// This plays the role of Ceph's OSDMap: placement is a pure function of
/// `(map, pg, rule)`, so any client computes the same acting set with no
/// metadata server.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterMap {
    osds: Vec<OsdInfo>,
    nodes: u32,
    /// Rack of each node, indexed by `NodeId`.
    node_racks: Vec<RackId>,
    racks: u32,
    epoch: u64,
}

impl ClusterMap {
    /// Creates an empty map at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a new (empty) rack.
    pub fn add_rack(&mut self) -> RackId {
        let id = RackId(self.racks);
        self.racks += 1;
        self.epoch += 1;
        id
    }

    /// Adds a new (empty) node in its own implicit rack.
    pub fn add_node(&mut self) -> NodeId {
        let rack = self.add_rack();
        self.add_node_in_rack(rack)
    }

    /// Adds a new (empty) node under an existing rack.
    ///
    /// # Panics
    ///
    /// Panics if `rack` does not exist.
    pub fn add_node_in_rack(&mut self, rack: RackId) -> NodeId {
        assert!(rack.0 < self.racks, "unknown rack {rack}");
        let id = NodeId(self.nodes);
        self.nodes += 1;
        self.node_racks.push(rack);
        self.epoch += 1;
        id
    }

    /// The rack hosting a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.node_racks[node.0 as usize]
    }

    /// Adds an OSD with `weight` under `node` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist or `weight` is negative/not finite.
    pub fn add_osd(&mut self, node: NodeId, weight: f64) -> OsdId {
        assert!(node.0 < self.nodes, "unknown node {node}");
        assert!(weight.is_finite() && weight >= 0.0, "bad weight {weight}");
        let id = OsdId(u32::try_from(self.osds.len()).expect("too many OSDs"));
        self.osds.push(OsdInfo {
            id,
            node,
            weight,
            up: true,
        });
        self.epoch += 1;
        id
    }

    /// Marks an OSD up or down. Down OSDs are excluded from acting sets, so
    /// placement recomputation after a failure drives recovery.
    ///
    /// # Panics
    ///
    /// Panics if `osd` does not exist.
    pub fn set_up(&mut self, osd: OsdId, up: bool) {
        self.osds[osd.0 as usize].up = up;
        self.epoch += 1;
    }

    /// Changes an OSD's weight (zero removes it from placement).
    ///
    /// # Panics
    ///
    /// Panics if `osd` does not exist or `weight` is negative/not finite.
    pub fn set_weight(&mut self, osd: OsdId, weight: f64) {
        assert!(weight.is_finite() && weight >= 0.0, "bad weight {weight}");
        self.osds[osd.0 as usize].weight = weight;
        self.epoch += 1;
    }

    /// Map version; bumped by every mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// All OSDs, including down and zero-weight ones.
    pub fn osds(&self) -> &[OsdInfo] {
        &self.osds
    }

    /// Looks up one OSD.
    ///
    /// # Panics
    ///
    /// Panics if `osd` does not exist.
    pub fn osd(&self, osd: OsdId) -> &OsdInfo {
        &self.osds[osd.0 as usize]
    }

    /// Number of registered OSDs (including down ones).
    pub fn osd_count(&self) -> usize {
        self.osds.len()
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// Ids of OSDs currently up with positive weight.
    pub fn up_osds(&self) -> Vec<OsdId> {
        self.osds
            .iter()
            .filter(|o| o.up && o.weight > 0.0)
            .map(|o| o.id)
            .collect()
    }

    /// Computes the acting set for `pg` under `rule`: the ordered devices
    /// holding the PG's data (index 0 is the primary).
    ///
    /// Selection is straw2 over all eligible OSDs with greedy
    /// failure-domain distinctness; if the domain constraint cannot fill the
    /// set (fewer nodes than replicas) it relaxes to distinct OSDs. Fewer
    /// than `rule.replicas` devices are returned only when the cluster
    /// itself is too small or too degraded.
    pub fn acting_set(&self, pg: PgId, rule: &PlacementRule) -> Vec<OsdId> {
        let key = pg.seed();
        let mut draws: Vec<(OsdId, NodeId, f64)> = self
            .osds
            .iter()
            .filter(|o| o.up && o.weight > 0.0)
            .map(|o| (o.id, o.node, straw2_draw(key, o.id.0 as u64, o.weight)))
            .collect();
        draws.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));

        let mut chosen: Vec<OsdId> = Vec::with_capacity(rule.replicas);
        // Greedy distinctness at the requested level, degrading one level
        // at a time when the topology cannot satisfy it.
        if rule.failure_domain == FailureDomain::Rack {
            let mut used_racks: Vec<RackId> = Vec::new();
            for &(osd, node, _) in &draws {
                if chosen.len() == rule.replicas {
                    break;
                }
                let rack = self.rack_of(node);
                if !used_racks.contains(&rack) {
                    used_racks.push(rack);
                    chosen.push(osd);
                }
            }
        }
        if chosen.len() < rule.replicas
            && matches!(
                rule.failure_domain,
                FailureDomain::Node | FailureDomain::Rack
            )
        {
            let mut used_nodes: Vec<NodeId> = chosen.iter().map(|&o| self.osd(o).node).collect();
            for &(osd, node, _) in &draws {
                if chosen.len() == rule.replicas {
                    break;
                }
                if !used_nodes.contains(&node) {
                    used_nodes.push(node);
                    chosen.push(osd);
                }
            }
        }
        if chosen.len() < rule.replicas {
            for &(osd, _, _) in &draws {
                if chosen.len() == rule.replicas {
                    break;
                }
                if !chosen.contains(&osd) {
                    chosen.push(osd);
                }
            }
        }
        chosen
    }

    /// The primary OSD for `pg`, if any device is eligible.
    pub fn primary(&self, pg: PgId, rule: &PlacementRule) -> Option<OsdId> {
        self.acting_set(pg, rule).first().copied()
    }
}

/// A placement-group movement implied by a map change.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PgMove {
    /// The placement group that changed devices.
    pub pg: PgId,
    /// Acting set under the old map.
    pub from: Vec<OsdId>,
    /// Acting set under the new map.
    pub to: Vec<OsdId>,
}

/// Computes which of `pgs` change acting sets between two maps — the work a
/// rebalance or recovery must perform.
pub fn moved_pgs(
    old: &ClusterMap,
    new: &ClusterMap,
    pgs: impl IntoIterator<Item = PgId>,
    rule: &PlacementRule,
) -> Vec<PgMove> {
    pgs.into_iter()
        .filter_map(|pg| {
            let from = old.acting_set(pg, rule);
            let to = new.acting_set(pg, rule);
            (from != to).then_some(PgMove { pg, from, to })
        })
        .collect()
}

impl PgId {
    /// Deterministic straw2 key for this PG.
    pub fn seed(&self) -> u64 {
        hash_words(&[self.pool.0 as u64, self.index as u64], 0x9e3779b9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg::{PgMap, PoolId};

    fn four_by_four() -> ClusterMap {
        let mut map = ClusterMap::new();
        for _ in 0..4 {
            let n = map.add_node();
            for _ in 0..4 {
                map.add_osd(n, 1.0);
            }
        }
        map
    }

    fn rule3() -> PlacementRule {
        PlacementRule::spread_nodes(3)
    }

    #[test]
    fn acting_set_is_deterministic_and_distinct() {
        let map = four_by_four();
        let pgs = PgMap::new(PoolId(1), 64);
        for i in 0..64 {
            let pg = pgs.pg(i);
            let a = map.acting_set(pg, &rule3());
            let b = map.acting_set(pg, &rule3());
            assert_eq!(a, b);
            assert_eq!(a.len(), 3);
            let mut dedup = a.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "devices must be distinct");
        }
    }

    #[test]
    fn node_failure_domain_spreads_across_nodes() {
        let map = four_by_four();
        let pgs = PgMap::new(PoolId(1), 128);
        for i in 0..128 {
            let acting = map.acting_set(pgs.pg(i), &rule3());
            let mut nodes: Vec<_> = acting.iter().map(|&o| map.osd(o).node).collect();
            nodes.sort();
            nodes.dedup();
            assert_eq!(nodes.len(), 3, "replicas share a node");
        }
    }

    #[test]
    fn falls_back_when_nodes_insufficient() {
        let mut map = ClusterMap::new();
        let n = map.add_node();
        for _ in 0..4 {
            map.add_osd(n, 1.0);
        }
        let pg = PgMap::new(PoolId(1), 8).pg(3);
        let acting = map.acting_set(pg, &rule3());
        assert_eq!(acting.len(), 3, "single node still fills the set");
    }

    #[test]
    fn down_osd_is_replaced_and_restored() {
        let mut map = four_by_four();
        let pgs = PgMap::new(PoolId(1), 256);
        let rule = rule3();
        let before: Vec<_> = (0..256).map(|i| map.acting_set(pgs.pg(i), &rule)).collect();
        let victim = before[0][0];
        map.set_up(victim, false);
        for (i, old) in before.iter().enumerate() {
            let new = map.acting_set(pgs.pg(i as u32), &rule);
            assert!(!new.contains(&victim), "down OSD still mapped");
            if !old.contains(&victim) {
                // PGs not touching the failed OSD keep their devices
                // (ordering may differ only if the victim was involved).
                assert_eq!(old, &new, "unrelated PG moved");
            }
        }
        map.set_up(victim, true);
        for (i, old) in before.iter().enumerate() {
            assert_eq!(old, &map.acting_set(pgs.pg(i as u32), &rule));
        }
    }

    #[test]
    fn placement_balances_by_weight() {
        let mut map = ClusterMap::new();
        // Two nodes: one with double-weight OSDs.
        let a = map.add_node();
        let b = map.add_node();
        let heavy = map.add_osd(a, 2.0);
        let light = map.add_osd(b, 1.0);
        let rule = PlacementRule {
            replicas: 1,
            failure_domain: FailureDomain::Osd,
        };
        let pgs = PgMap::new(PoolId(9), 4096);
        let mut heavy_hits = 0u32;
        for i in 0..4096 {
            match map.acting_set(pgs.pg(i), &rule)[0] {
                o if o == heavy => heavy_hits += 1,
                o => assert_eq!(o, light),
            }
        }
        let frac = heavy_hits as f64 / 4096.0;
        assert!((frac - 2.0 / 3.0).abs() < 0.03, "heavy fraction {frac}");
    }

    #[test]
    fn moved_pgs_limited_to_failed_device() {
        let mut before = four_by_four();
        let pgs = PgMap::new(PoolId(1), 512);
        let rule = rule3();
        let mut after = before.clone();
        let victim = OsdId(5);
        after.set_up(victim, false);
        let moves = moved_pgs(&before, &after, (0..512).map(|i| pgs.pg(i)), &rule);
        assert!(!moves.is_empty());
        for m in &moves {
            assert!(
                m.from.contains(&victim),
                "PG {:?} moved without involving the failed OSD",
                m.pg
            );
        }
        // Sanity: roughly 3/16 of PGs touch any one OSD.
        let frac = moves.len() as f64 / 512.0;
        assert!(frac < 0.35, "too much movement: {frac}");
        // Restoring the OSD undoes every move.
        before.set_up(victim, false);
        before.set_up(victim, true);
        after.set_up(victim, true);
        assert!(moved_pgs(&before, &after, (0..512).map(|i| pgs.pg(i)), &rule).is_empty());
    }

    #[test]
    fn rack_domain_spreads_across_racks() {
        // 2 racks x 2 nodes x 2 OSDs.
        let mut map = ClusterMap::new();
        for _ in 0..2 {
            let rack = map.add_rack();
            for _ in 0..2 {
                let n = map.add_node_in_rack(rack);
                for _ in 0..2 {
                    map.add_osd(n, 1.0);
                }
            }
        }
        let rule = PlacementRule {
            replicas: 2,
            failure_domain: FailureDomain::Rack,
        };
        let pgs = PgMap::new(PoolId(3), 64);
        for i in 0..64 {
            let acting = map.acting_set(pgs.pg(i), &rule);
            assert_eq!(acting.len(), 2);
            let racks: Vec<_> = acting
                .iter()
                .map(|&o| map.rack_of(map.osd(o).node))
                .collect();
            assert_ne!(racks[0], racks[1], "replicas share rack on pg {i}");
        }
    }

    #[test]
    fn rack_domain_degrades_to_nodes_then_osds() {
        // One rack, two nodes, 3 replicas requested: distinct racks are
        // impossible; fall back to distinct nodes, then distinct OSDs.
        let mut map = ClusterMap::new();
        let rack = map.add_rack();
        for _ in 0..2 {
            let n = map.add_node_in_rack(rack);
            for _ in 0..2 {
                map.add_osd(n, 1.0);
            }
        }
        let rule = PlacementRule {
            replicas: 3,
            failure_domain: FailureDomain::Rack,
        };
        let pg = PgMap::new(PoolId(3), 8).pg(1);
        let acting = map.acting_set(pg, &rule);
        assert_eq!(acting.len(), 3, "set filled despite tiny topology");
        let nodes: std::collections::HashSet<_> = acting.iter().map(|&o| map.osd(o).node).collect();
        assert_eq!(nodes.len(), 2, "both nodes used before doubling up");
    }

    #[test]
    fn implicit_racks_keep_node_semantics() {
        // add_node() without racks: Rack domain behaves like Node domain.
        let map = {
            let mut m = ClusterMap::new();
            for _ in 0..4 {
                let n = m.add_node();
                for _ in 0..2 {
                    m.add_osd(n, 1.0);
                }
            }
            m
        };
        let rack_rule = PlacementRule {
            replicas: 3,
            failure_domain: FailureDomain::Rack,
        };
        let node_rule = PlacementRule::spread_nodes(3);
        let pgs = PgMap::new(PoolId(5), 32);
        for i in 0..32 {
            assert_eq!(
                map.acting_set(pgs.pg(i), &rack_rule),
                map.acting_set(pgs.pg(i), &node_rule)
            );
        }
    }

    #[test]
    fn epoch_bumps_on_mutation() {
        let mut map = ClusterMap::new();
        let e0 = map.epoch();
        let n = map.add_node();
        let o = map.add_osd(n, 1.0);
        map.set_weight(o, 2.0);
        map.set_up(o, false);
        // add_node = rack + node (2 bumps), add_osd, set_weight, set_up.
        assert_eq!(map.epoch(), e0 + 5);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn add_osd_requires_existing_node() {
        ClusterMap::new().add_osd(NodeId(3), 1.0);
    }

    #[test]
    fn up_osds_reflect_state() {
        let mut map = four_by_four();
        assert_eq!(map.up_osds().len(), 16);
        map.set_up(OsdId(0), false);
        map.set_weight(OsdId(1), 0.0);
        assert_eq!(map.up_osds().len(), 14);
    }
}

#[cfg(test)]
mod placement_proptests {
    use super::*;
    use crate::pg::{PgMap, PoolId};
    use proptest::prelude::*;

    fn map_with(osds_per_node: &[u8]) -> ClusterMap {
        let mut map = ClusterMap::new();
        for &count in osds_per_node {
            let n = map.add_node();
            for _ in 0..count.clamp(1, 8) {
                map.add_osd(n, 1.0);
            }
        }
        map
    }

    proptest! {
        /// Acting sets are deterministic, duplicate-free, and as large as
        /// the topology allows, for arbitrary topologies.
        #[test]
        fn acting_sets_well_formed(
            nodes in proptest::collection::vec(1u8..5, 1..6),
            replicas in 1usize..5,
            pg_index in 0u32..64,
        ) {
            let map = map_with(&nodes);
            let rule = PlacementRule {
                replicas,
                failure_domain: FailureDomain::Node,
            };
            let pg = PgMap::new(PoolId(1), 64).pg(pg_index);
            let a = map.acting_set(pg, &rule);
            prop_assert_eq!(a.clone(), map.acting_set(pg, &rule));
            let mut uniq = a.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), a.len(), "duplicate device");
            prop_assert_eq!(a.len(), replicas.min(map.osd_count()));
        }

        /// Downing one OSD only moves PGs that used it — the rendezvous
        /// minimal-movement property, for arbitrary topologies.
        #[test]
        fn failure_moves_only_affected_pgs(
            nodes in proptest::collection::vec(2u8..5, 2..5),
            victim_seed in any::<u64>(),
        ) {
            let mut map = map_with(&nodes);
            let rule = PlacementRule::spread_nodes(2);
            let pgs = PgMap::new(PoolId(1), 64);
            let before: Vec<_> = pgs.iter().map(|pg| map.acting_set(pg, &rule)).collect();
            let victim = OsdId((victim_seed % map.osd_count() as u64) as u32);
            map.set_up(victim, false);
            for (pg, old) in pgs.iter().zip(&before) {
                let new = map.acting_set(pg, &rule);
                if !old.contains(&victim) {
                    prop_assert_eq!(old, &new, "unrelated PG moved");
                }
                prop_assert!(!new.contains(&victim));
            }
        }
    }
}
