//! Probes that sample simulator state into a [`Registry`].
//!
//! The simulator crate stays free of metric plumbing: instead of
//! `dedup-sim` depending on this crate, this free function reads the
//! public introspection surface of [`ResourcePool`] and publishes it as
//! labelled gauges. Call it at snapshot points (the end of an experiment,
//! as the figure sidecars do).

use dedup_sim::{ResourcePool, SimTime};

use crate::registry::Registry;

/// Publishes `sim.resource.utilization_ppm` for every resource in `pool`,
/// labelled by its spec name: busy time over wall time up to `until`, in
/// parts per million (gauges are integers).
pub fn sample_resources(registry: &Registry, pool: &ResourcePool, until: SimTime) {
    for (_, resource) in pool.iter() {
        registry
            .gauge_with(
                "sim.resource.utilization_ppm",
                &[("resource", resource.spec().name.as_str())],
            )
            .set((resource.utilization(until) * 1_000_000.0) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SnapshotValue;
    use dedup_sim::{ResourceSpec, SimDuration};

    #[test]
    fn resource_probe_publishes_each_resource() {
        let mut pool = ResourcePool::new();
        let disk = pool.register(ResourceSpec::disk("osd.0/disk", 1 << 20, 1000));
        let _nic = pool.register(ResourceSpec::nic("node.0/nic", 1 << 30, 500));
        // Busy the disk for half of the first virtual second.
        pool.get_mut(disk)
            .serve_for(SimTime::ZERO, SimDuration::from_millis(500));

        let registry = Registry::new();
        sample_resources(&registry, &pool, SimTime::from_secs(1));
        let snaps = registry.snapshot(SimTime::from_secs(1));
        // One gauge per resource.
        assert_eq!(snaps.len(), 2);
        let util = snaps
            .iter()
            .find(|s| {
                s.name == "sim.resource.utilization_ppm"
                    && s.labels == vec![("resource".into(), "osd.0/disk".into())]
            })
            .expect("disk utilization gauge");
        match util.value {
            SnapshotValue::Gauge(v) => assert!((490_000..=510_000).contains(&v), "ppm {v}"),
            ref other => panic!("unexpected kind {other:?}"),
        }
    }
}
