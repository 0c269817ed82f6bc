//! The placement-policy interface and the outcome/feedback types shared
//! between the simulator and policies.

use crate::result::ResilienceReport;
use byom_cost::JobCost;
use byom_trace::{JobId, ShuffleJob};
use serde::{Deserialize, Serialize};

/// The device a policy schedules a job onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// Time at which spillover began, if any. With the constant-footprint
    /// model spillover is detected at admission, so this equals `arrival`.
    pub spillover_time: Option<f64>,
    /// The job's TCIO if it had run on HDD (used for spillover feedback).
    pub tcio_hdd: f64,
    /// The job's peak footprint in bytes.
    pub size_bytes: u64,
}

impl JobOutcome {
    /// Whether the job was scheduled onto SSD but did not fully fit.
    pub fn spilled(&self) -> bool {
        self.scheduled == Device::Ssd && self.ssd_fraction < 1.0
    }

    /// The paper's `SPILLOVER_TCIO(x, t)`: the portion of the job's intended
    /// TCIO savings not realized because of spillover, evaluated at time `t`.
    ///
    /// Returns 0 for jobs scheduled to HDD, jobs that fully fit, or `t`
    /// before the spillover started.
    pub fn spillover_tcio(&self, t: f64) -> f64 {
        let Some(ts) = self.spillover_time else {
            return 0.0;
        };
        if self.scheduled != Device::Ssd || t <= self.arrival || t < ts {
            return 0.0;
        }
        // Fraction of the observation window [arrival, t] spent spilled,
        // weighted by the portion of the job that spilled.
        let window = (t - self.arrival).max(1e-9);
        let spilled_window = (t.min(self.end).max(ts) - ts).max(0.0);
        (spilled_window / window) * (1.0 - self.ssd_fraction) * self.tcio_hdd
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

    fn outcome(scheduled: Device, fraction: f64, spill: Option<f64>) -> JobOutcome {
        JobOutcome {
            job_id: JobId(0),
            arrival: 10.0,
            end: 110.0,
            scheduled,
            ssd_fraction: fraction,
            spillover_time: spill,
            tcio_hdd: 2.0,
            size_bytes: 100,
        }
    }

    #[test]
    fn spilled_detection() {
        assert!(outcome(Device::Ssd, 0.5, Some(10.0)).spilled());
        assert!(!outcome(Device::Ssd, 1.0, None).spilled());
        assert!(!outcome(Device::Hdd, 0.0, None).spilled());
    }

    #[test]
    fn spillover_tcio_zero_without_spill_or_for_hdd() {
        assert_eq!(outcome(Device::Ssd, 1.0, None).spillover_tcio(50.0), 0.0);
        assert_eq!(
            outcome(Device::Hdd, 0.0, Some(10.0)).spillover_tcio(50.0),
            0.0
        );
    }

    #[test]
    fn spillover_tcio_full_spill_from_arrival_equals_tcio() {
        // Job fully spilled from its arrival: at any t within its life, the
        // full TCIO counts as spilled.
        let o = outcome(Device::Ssd, 0.0, Some(10.0));
        assert!((o.spillover_tcio(60.0) - 2.0).abs() < 1e-9);
        assert!((o.spillover_tcio(110.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn spillover_tcio_partial_spill_scales_with_fraction() {
        let o = outcome(Device::Ssd, 0.75, Some(10.0));
        assert!((o.spillover_tcio(60.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn spillover_tcio_before_arrival_is_zero() {
        let o = outcome(Device::Ssd, 0.0, Some(10.0));
        assert_eq!(o.spillover_tcio(10.0), 0.0);
        assert_eq!(o.spillover_tcio(5.0), 0.0);
    }
}
