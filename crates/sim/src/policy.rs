//! The placement-policy interface and the outcome/feedback types shared
//! between the simulator and policies.

use crate::result::ResilienceReport;
use byom_cost::JobCost;
use byom_trace::{JobId, ShuffleJob};

/// The device a policy schedules a job onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// Schedule the job's intermediate files onto SSD.
    Ssd,
    /// Schedule the job's intermediate files onto HDD.
    Hdd,
}

/// Online system state visible to a policy at placement-decision time.
///
/// Only information that a production storage layer would actually have at
/// decision time is included: current occupancy, capacity, and the clock.
/// Clairvoyant information (future arrivals, true job lifetimes) is *not*
/// exposed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemState {
    /// Current simulation time (the arriving job's arrival time).
    pub now: f64,
    /// Bytes currently resident on SSD.
    pub ssd_occupancy_bytes: u64,
    /// Configured SSD capacity in bytes.
    pub ssd_capacity_bytes: u64,
}

impl SystemState {
    /// Free SSD capacity in bytes.
    pub fn ssd_free_bytes(&self) -> u64 {
        self.ssd_capacity_bytes
            .saturating_sub(self.ssd_occupancy_bytes)
    }
}

/// The realized outcome of one job's placement, reported back to policies
/// after the simulator resolves capacity and spillover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// The job this outcome describes.
    pub job_id: JobId,
    /// Arrival time of the job.
    pub arrival: f64,
    /// End time of the job.
    pub end: f64,
    /// The device the policy scheduled the job onto.
    pub scheduled: Device,
    /// Fraction of the job's footprint actually served from SSD (0 for jobs
    /// scheduled to HDD; may be < 1 for SSD-scheduled jobs that spilled).
    pub ssd_fraction: f64,
    /// The job's TCIO if it had run on HDD (used for spillover feedback).
    pub tcio_hdd: f64,
    /// The job's peak footprint in bytes.
    pub size_bytes: u64,
}

impl JobOutcome {
    /// Whether the job was scheduled onto SSD but did not fully fit. With
    /// the constant-footprint model a spill is detected at admission, so it
    /// begins at the job's arrival.
    pub fn spilled(&self) -> bool {
        self.scheduled == Device::Ssd && self.ssd_fraction < 1.0
    }
}

/// A storage-placement policy: decides SSD vs HDD for each arriving job.
///
/// Policies may keep internal state (admission sets, models, feedback
/// windows); the simulator calls [`PlacementPolicy::observe`] after each
/// job's outcome is known so adaptive policies can react to spillover.
pub trait PlacementPolicy {
    /// Human-readable policy name used in reports and figures.
    fn name(&self) -> &str;

    /// Decide where to schedule `job`. `cost` carries the *precomputed*
    /// offline cost quantities; online policies must only rely on fields
    /// that would be available at decision time (the adaptive policies in
    /// `byom-policies`/`byom-core` only use model features and feedback).
    fn place(&mut self, job: &ShuffleJob, cost: &JobCost, state: &SystemState) -> Device;

    /// Observe the realized outcome of a previously placed job. Default: no-op.
    fn observe(&mut self, outcome: &JobOutcome) {
        let _ = outcome;
    }

    /// Contribute policy-side degradation accounting (e.g. the ladder's
    /// per-rung occupancy) to the run's resilience report. The simulator
    /// calls this once at the end of every run. Default: no-op, so plain
    /// policies keep the all-zero report.
    fn fill_resilience(&self, report: &mut ResilienceReport) {
        let _ = report;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_state_helpers() {
        let s = SystemState {
            now: 0.0,
            ssd_occupancy_bytes: 30,
            ssd_capacity_bytes: 100,
        };
        assert_eq!(s.ssd_free_bytes(), 70);
        let full = SystemState {
            ssd_occupancy_bytes: 200,
            ..s
        };
        assert_eq!(full.ssd_free_bytes(), 0);
    }

    fn outcome(scheduled: Device, fraction: f64) -> JobOutcome {
        JobOutcome {
            job_id: JobId(0),
            arrival: 10.0,
            end: 110.0,
            scheduled,
            ssd_fraction: fraction,
            tcio_hdd: 2.0,
            size_bytes: 100,
        }
    }

    #[test]
    fn spilled_detection() {
        assert!(outcome(Device::Ssd, 0.5).spilled());
        assert!(!outcome(Device::Ssd, 1.0).spilled());
        assert!(!outcome(Device::Hdd, 0.0).spilled());
    }
}
