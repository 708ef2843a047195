//! Store-layer health probes: OSD availability and WAL durable-state
//! sanity, listed in the stack-wide probe table
//! (`dedup_core::DedupStore::health_report`).

use dedup_obs::{HealthFinding, HealthStatus};

use crate::cluster::Cluster;

/// OSD availability probe (`cluster.osd`): any down OSD is `degraded`
/// (the pools still serve from survivors); half or more down is
/// `critical` (replicated ×2 pools can no longer place full acting sets
/// reliably).
pub fn osd_health(cluster: &Cluster) -> Option<HealthFinding> {
    let osds = cluster.map().osds();
    let down: Vec<String> = osds
        .iter()
        .filter(|o| !o.up)
        .map(|o| o.id.0.to_string())
        .collect();
    if down.is_empty() {
        return None;
    }
    let status = if down.len() * 2 >= osds.len() {
        HealthStatus::Critical
    } else {
        HealthStatus::Degraded
    };
    Some(HealthFinding::new(
        "cluster.osd",
        status,
        "osd_down",
        format!(
            "{} of {} OSDs down (ids: {})",
            down.len(),
            osds.len(),
            down.join(",")
        ),
    ))
}

/// WAL durable-state probe (`cluster.wal`): the MANIFEST must decode and
/// every segment it names must be present and clean
/// ([`Cluster::wal_manifest_check`]). Corruption here means a crash right
/// now would be unrecoverable, so any failure is `critical`. A cluster
/// without an attached WAL is healthy (durability was never promised).
pub fn wal_health(cluster: &Cluster) -> Option<HealthFinding> {
    let detail = cluster.wal_manifest_check()?.err()?;
    Some(HealthFinding::new(
        "cluster.wal",
        HealthStatus::Critical,
        "wal_manifest",
        detail,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;
    use dedup_placement::OsdId;

    #[test]
    fn osd_health_tracks_down_devices() {
        let mut c = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
        assert!(osd_health(&c).is_none());

        c.mark_down(OsdId(0));
        let finding = osd_health(&c).expect("one OSD down");
        assert_eq!(finding.status, HealthStatus::Degraded);
        assert_eq!(finding.code, "osd_down");
        assert!(finding.detail.contains("1 of 8"));

        for i in 1..4 {
            c.mark_down(OsdId(i));
        }
        assert_eq!(
            osd_health(&c).expect("half down").status,
            HealthStatus::Critical
        );

        for i in 0..4 {
            c.revive_osd(OsdId(i));
        }
        assert!(osd_health(&c).is_none());
    }

    #[test]
    fn wal_health_is_quiet_without_a_wal() {
        let c = ClusterBuilder::new().build();
        assert!(wal_health(&c).is_none());
    }
}
