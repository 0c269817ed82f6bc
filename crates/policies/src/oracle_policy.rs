//! A playback policy for precomputed placement decisions.
//!
//! The clairvoyant oracle from `byom-solver` produces per-job decisions
//! offline; [`OraclePolicy`] replays those decisions through the simulator so
//! oracle curves are measured with exactly the same accounting (spillover,
//! savings summary) as the online policies. It also replays the ML
//! baseline's admissions, predicted once per trace by
//! [`LifetimeMlBaseline::playback`](crate::LifetimeMlBaseline::playback).

use byom_cost::JobCost;
use byom_sim::{Device, PlacementPolicy, SystemState};
use byom_trace::{JobId, ShuffleJob};
use std::collections::BTreeMap;

/// Replays a precomputed mapping from job ID to placement decision.
#[derive(Debug, Clone)]
pub struct OraclePolicy {
    name: String,
    decisions: BTreeMap<JobId, Device>,
    /// Device used for jobs absent from the decision map.
    default_device: Device,
}

impl OraclePolicy {
    /// Create a playback policy from per-job decisions. Jobs not present in
    /// the map are placed on HDD.
    pub fn new(name: impl Into<String>, decisions: BTreeMap<JobId, Device>) -> Self {
        OraclePolicy {
            name: name.into(),
            decisions,
            default_device: Device::Hdd,
        }
    }

    /// Build a playback policy from a parallel `on_ssd` vector (as returned
    /// by the oracle solver) aligned with `job_ids`.
    ///
    /// # Panics
    /// Panics if the two slices have different lengths.
    pub fn from_selection(name: impl Into<String>, job_ids: &[JobId], on_ssd: &[bool]) -> Self {
        assert_eq!(
            job_ids.len(),
            on_ssd.len(),
            "selection arrays must be parallel"
        );
        let decisions = job_ids
            .iter()
            .zip(on_ssd)
            .map(|(&id, &ssd)| (id, if ssd { Device::Ssd } else { Device::Hdd }))
            .collect();
        OraclePolicy::new(name, decisions)
    }
}

impl PlacementPolicy for OraclePolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn place(&mut self, job: &ShuffleJob, _cost: &JobCost, _state: &SystemState) -> Device {
        *self.decisions.get(&job.id).unwrap_or(&self.default_device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::{IoProfile, JobFeatures};

    fn job(id: u64) -> ShuffleJob {
        ShuffleJob {
            id: JobId(id),
            cluster: 0,
            arrival: 0.0,
            lifetime: 1.0,
            size_bytes: 1,
            io: IoProfile::default(),
            features: JobFeatures::default(),
            archetype: 0,
        }
    }

    fn cost() -> JobCost {
        JobCost {
            id: JobId(0),
            arrival: 0.0,
            lifetime: 1.0,
            size_bytes: 1,
            tcio_hdd: 0.0,
            tco_hdd: 0.0,
            tco_ssd: 0.0,
            io_density: 0.0,
        }
    }

    fn state() -> SystemState {
        SystemState {
            now: 0.0,
            ssd_occupancy_bytes: 0,
            ssd_capacity_bytes: 100,
        }
    }

    #[test]
    fn replays_recorded_decisions() {
        let ids = vec![JobId(0), JobId(1), JobId(2)];
        let on_ssd = vec![true, false, true];
        let mut p = OraclePolicy::from_selection("Oracle TCO", &ids, &on_ssd);
        assert_eq!(p.decisions.len(), 3);
        assert_eq!(p.place(&job(0), &cost(), &state()), Device::Ssd);
        assert_eq!(p.place(&job(1), &cost(), &state()), Device::Hdd);
        assert_eq!(p.place(&job(2), &cost(), &state()), Device::Ssd);
    }

    #[test]
    fn unknown_jobs_default_to_hdd() {
        let mut p = OraclePolicy::new("Oracle", BTreeMap::new());
        assert_eq!(p.place(&job(42), &cost(), &state()), Device::Hdd);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_selection_lengths_panic() {
        let _ = OraclePolicy::from_selection("x", &[JobId(0)], &[]);
    }

    #[test]
    fn name_reflects_construction() {
        let p = OraclePolicy::new("Oracle TCIO", BTreeMap::new());
        assert_eq!(p.name(), "Oracle TCIO");
    }
}
