//! Application run-time savings model (Appendix C.1.2, Figure 14).
//!
//! The paper measures workload execution time in its prototype and observes
//! that jobs whose intermediate files land on SSD finish somewhat faster,
//! with the improvement depending on the job's compute-to-I/O ratio. We model
//! this with a simple queueing-free approximation: a job's lifetime consists
//! of its HDD disk-busy time (TCIO × lifetime, capped at the lifetime) plus
//! everything else (compute, network, framework overhead). The portion served
//! from SSD completes its I/O faster by a fixed service-time ratio.

use crate::result::SimulationResult;

/// How much faster SSD serves a unit of I/O relative to HDD in this model
/// (service-time ratio). 8× is a conservative figure for random I/O.
pub const SSD_SPEEDUP: f64 = 8.0;

/// Aggregate application run-time savings percentage for a simulation run:
/// the reduction in summed job run time relative to running every job on HDD.
///
/// Returns 0 for an empty run.
pub fn application_runtime_savings_percent(result: &SimulationResult) -> f64 {
    let mut baseline = 0.0;
    let mut saved = 0.0;
    for (o, c) in result.outcomes.iter().zip(&result.costs) {
        let lifetime = c.lifetime.max(0.0);
        baseline += lifetime;
        // Disk-busy time on HDD, bounded by the job's lifetime.
        let io_time_hdd = (c.tcio_hdd * lifetime).min(lifetime);
        // The SSD-resident fraction of the I/O completes SSD_SPEEDUP× faster.
        let io_time_saved = o.ssd_fraction * io_time_hdd * (1.0 - 1.0 / SSD_SPEEDUP);
        saved += io_time_saved;
    }
    if baseline <= 0.0 {
        0.0
    } else {
        saved / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Device, JobOutcome};
    use byom_cost::{JobCost, SavingsSummary};
    use byom_trace::JobId;

    fn run(fraction: f64, tcio: f64) -> SimulationResult {
        SimulationResult {
            policy_name: "test".into(),
            ssd_capacity_bytes: 0,
            outcomes: vec![JobOutcome {
                job_id: JobId(0),
                arrival: 0.0,
                end: 100.0,
                scheduled: if fraction > 0.0 {
                    Device::Ssd
                } else {
                    Device::Hdd
                },
                ssd_fraction: fraction,
                tcio_hdd: tcio,
                size_bytes: 1,
            }],
            costs: vec![JobCost {
                id: JobId(0),
                arrival: 0.0,
                lifetime: 100.0,
                size_bytes: 1,
                tcio_hdd: tcio,
                tco_hdd: 1.0,
                tco_ssd: 1.0,
                io_density: 1.0,
            }],
            savings: SavingsSummary::default(),
            peak_ssd_occupancy_bytes: 0,
            resilience: crate::result::ResilienceReport::default(),
        }
    }

    #[test]
    fn hdd_only_run_has_zero_runtime_savings() {
        assert_eq!(application_runtime_savings_percent(&run(0.0, 0.5)), 0.0);
    }

    #[test]
    fn ssd_run_saves_runtime_proportional_to_io_share() {
        // Half of the lifetime is disk-busy; on SSD it shrinks by 7/8.
        let s = application_runtime_savings_percent(&run(1.0, 0.5));
        assert!((s - 50.0 * (1.0 - 1.0 / SSD_SPEEDUP)).abs() < 1e-9);
    }

    #[test]
    fn io_time_is_capped_at_lifetime() {
        // TCIO of 4 would imply 400s of disk time in a 100s lifetime; the
        // model caps it so savings cannot exceed the speedup bound.
        let s = application_runtime_savings_percent(&run(1.0, 4.0));
        assert!(s <= 100.0 * (1.0 - 1.0 / SSD_SPEEDUP) + 1e-9);
    }

    #[test]
    fn partial_placement_scales_savings() {
        let full = application_runtime_savings_percent(&run(1.0, 0.5));
        let half = application_runtime_savings_percent(&run(0.5, 0.5));
        assert!((half - full / 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_zero() {
        let r = SimulationResult {
            policy_name: "x".into(),
            ssd_capacity_bytes: 0,
            outcomes: vec![],
            costs: vec![],
            savings: SavingsSummary::default(),
            peak_ssd_occupancy_bytes: 0,
            resilience: crate::result::ResilienceReport::default(),
        };
        assert_eq!(application_runtime_savings_percent(&r), 0.0);
    }
}
