//! Simulation results: per-job outcomes, aggregate savings, and the
//! derived spillover statistics used by feedback-driven policies and by
//! the Figure 16 dynamics plots.

use crate::policy::{Device, JobOutcome};
use byom_cost::{JobCost, SavingsSummary};

/// Fault and degradation accounting for one simulator run.
///
/// A fault-free run of a plain policy carries the all-zero default report,
/// so results from unfaulted runs are byte-identical with and without a
/// zero-fault plan. Trace- and model-level counts are merged in by the
/// fault-injection layer (`byom_chaos`); device-level counts come from the
/// [`DeviceModel`](crate::device::DeviceModel) driving the run; degradation
/// policies contribute their rung occupancy through
/// [`PlacementPolicy::fill_resilience`](crate::policy::PlacementPolicy::fill_resilience).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceReport {
    /// Jobs removed from the trace by drop faults.
    pub jobs_dropped: u64,
    /// Jobs re-submitted by duplication faults.
    pub jobs_duplicated: u64,
    /// Jobs whose size/lifetime metadata was corrupted.
    pub jobs_corrupted: u64,
    /// Jobs whose feature columns were blanked.
    pub features_blanked: u64,
    /// Placement decisions made while the model was blacked out.
    pub model_blackouts: u64,
    /// Model predictions flipped to a wrong category.
    pub labels_flipped: u64,
    /// SSD capacity step-down/recovery transitions observed.
    pub capacity_steps: u64,
    /// Distinct transient admission outages triggered.
    pub admission_outages: u64,
    /// SSD admissions rejected while the device was unavailable.
    pub admission_failures: u64,
    /// Placement decisions made by each rung of the degradation ladder
    /// (model, hash, heuristic, first-fit). Empty for non-ladder policies.
    pub fallback_occupancy: Vec<u64>,
}

impl ResilienceReport {
    /// Total faults injected across the trace, model, and device surfaces.
    pub fn faults_injected(&self) -> u64 {
        self.jobs_dropped
            + self.jobs_duplicated
            + self.jobs_corrupted
            + self.features_blanked
            + self.model_blackouts
            + self.labels_flipped
            + self.capacity_steps
            + self.admission_failures
    }
}

/// The output of one simulator run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// The policy that produced this result.
    pub policy_name: String,
    /// The SSD quota the run used, in bytes.
    pub ssd_capacity_bytes: u64,
    /// Per-job realized outcomes, in arrival order.
    pub outcomes: Vec<JobOutcome>,
    /// Per-job cost quantities, parallel to `outcomes`.
    pub costs: Vec<JobCost>,
    /// Aggregate savings relative to the all-on-HDD baseline.
    pub savings: SavingsSummary,
    /// Peak SSD occupancy observed during the run.
    pub peak_ssd_occupancy_bytes: u64,
    /// Fault and degradation accounting (all-zero for fault-free runs).
    pub resilience: ResilienceReport,
}

impl SimulationResult {
    /// TCO savings percent (convenience forward to the summary).
    pub fn tco_savings_percent(&self) -> f64 {
        self.savings.tco_savings_percent()
    }

    /// TCIO savings percent (convenience forward to the summary).
    pub fn tcio_savings_percent(&self) -> f64 {
        self.savings.tcio_savings_percent()
    }

    /// Number of jobs the policy scheduled onto SSD (whether or not they fit).
    pub fn jobs_scheduled_to_ssd(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.scheduled == Device::Ssd)
            .count()
    }

    /// Number of jobs that spilled over (scheduled to SSD but not fully fit).
    pub fn jobs_spilled(&self) -> usize {
        self.outcomes.iter().filter(|o| o.spilled()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::JobId;

    fn outcome(id: u64, scheduled: Device, fraction: f64) -> JobOutcome {
        JobOutcome {
            job_id: JobId(id),
            arrival: 0.0,
            end: 100.0,
            scheduled,
            ssd_fraction: fraction,
            tcio_hdd: 1.0,
            size_bytes: 10,
        }
    }

    fn cost(id: u64) -> JobCost {
        JobCost {
            id: JobId(id),
            arrival: 0.0,
            lifetime: 100.0,
            size_bytes: 10,
            tcio_hdd: 1.0,
            tco_hdd: 2.0,
            tco_ssd: 1.0,
            io_density: 1.0,
        }
    }

    fn result(outcomes: Vec<JobOutcome>) -> SimulationResult {
        let costs: Vec<JobCost> = (0..outcomes.len() as u64).map(cost).collect();
        SimulationResult {
            policy_name: "test".into(),
            ssd_capacity_bytes: 100,
            outcomes,
            costs,
            savings: SavingsSummary::default(),
            peak_ssd_occupancy_bytes: 0,
            resilience: ResilienceReport::default(),
        }
    }

    #[test]
    fn counts_scheduled_and_spilled() {
        let r = result(vec![
            outcome(0, Device::Ssd, 1.0),
            outcome(1, Device::Ssd, 0.5),
            outcome(2, Device::Hdd, 0.0),
        ]);
        assert_eq!(r.jobs_scheduled_to_ssd(), 2);
        assert_eq!(r.jobs_spilled(), 1);
    }

    #[test]
    fn resilience_report_sums_fault_counts() {
        let report = ResilienceReport {
            jobs_dropped: 1,
            jobs_duplicated: 2,
            jobs_corrupted: 3,
            features_blanked: 4,
            model_blackouts: 5,
            labels_flipped: 6,
            capacity_steps: 7,
            admission_outages: 100, // outages are not themselves fault events
            admission_failures: 8,
            fallback_occupancy: vec![1, 2, 3, 4],
        };
        assert_eq!(report.faults_injected(), 36);
        assert_eq!(ResilienceReport::default().faults_injected(), 0);
    }
}
