//! The tiering simulator: replays a trace against a placement policy under a
//! fixed SSD quota, resolving capacity and spillover.

use crate::device::{DeviceModel, IdealDevice};
use crate::error::SimError;
use crate::policy::{Device, JobOutcome, PlacementPolicy, SystemState};
use crate::result::SimulationResult;
use byom_cost::{savings_summary, CostModel, Placement};
use byom_trace::Trace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// SSD space quota in bytes. The paper expresses quotas as a fraction of
    /// the trace's peak space usage ([`byom_trace::Trace::peak_space_usage`]).
    pub ssd_capacity_bytes: u64,
}

impl SimConfig {
    /// Convenience constructor: a quota expressed as a fraction of a trace's
    /// peak space usage.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidQuota`] if `fraction` is negative, NaN, or
    /// infinite.
    pub fn try_from_quota_fraction(trace: &Trace, fraction: f64) -> Result<Self, SimError> {
        if !fraction.is_finite() || fraction < 0.0 {
            return Err(SimError::InvalidQuota { fraction });
        }
        Ok(SimConfig {
            ssd_capacity_bytes: (trace.peak_space_usage() as f64 * fraction) as u64,
        })
    }
}

/// Event-driven SSD/HDD tiering simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
    cost_model: CostModel,
}

/// Ordered-by-end-time entry for the SSD residency heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Resident {
    end: f64,
    bytes: u64,
}

impl Eq for Resident {}
impl PartialOrd for Resident {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Resident {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.end
            .total_cmp(&other.end)
            .then(self.bytes.cmp(&other.bytes))
    }
}

impl Simulator {
    /// Create a simulator with the given configuration and cost model.
    pub fn new(config: SimConfig, cost_model: CostModel) -> Self {
        Simulator { config, cost_model }
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replay `trace` against `policy` and return per-job outcomes plus the
    /// aggregate savings summary.
    ///
    /// Jobs are processed in arrival order. For each job the policy decides a
    /// device; jobs scheduled to SSD take as much of their footprint as fits
    /// under the quota at admission time, and the remainder spills to HDD
    /// (mirroring the paper's simulation methodology). SSD space is released
    /// when jobs end.
    pub fn run<P: PlacementPolicy + ?Sized>(
        &self,
        trace: &Trace,
        policy: &mut P,
    ) -> SimulationResult {
        self.run_with_device(trace, policy, &mut IdealDevice)
    }

    /// Like [`Simulator::run`], but with an explicit [`DeviceModel`] driving
    /// the SSD's effective capacity and admission path over simulated time.
    ///
    /// With [`IdealDevice`] this is exactly [`Simulator::run`]; fault models
    /// (see `byom_chaos`) introduce capacity step-downs and transient
    /// admission failures here. An admission rejected by the device is
    /// recorded as a fully spilled SSD-scheduled job, so adaptive policies
    /// observe the miss through their normal spillover feedback.
    pub fn run_with_device<P, D>(
        &self,
        trace: &Trace,
        policy: &mut P,
        device: &mut D,
    ) -> SimulationResult
    where
        P: PlacementPolicy + ?Sized,
        D: DeviceModel + ?Sized,
    {
        let costs = self.cost_model.cost_trace(trace);
        let base_capacity = self.config.ssd_capacity_bytes;

        // Min-heap of SSD residents by end time.
        let mut residents: BinaryHeap<Reverse<Resident>> = BinaryHeap::new();
        let mut occupancy: u64 = 0;
        let mut peak_occupancy: u64 = 0;

        let mut outcomes = Vec::with_capacity(trace.len());
        let mut placements = Vec::with_capacity(trace.len());

        for (job, cost) in trace.iter().zip(&costs) {
            let now = job.arrival;
            // Release residents that ended before this arrival.
            while let Some(Reverse(r)) = residents.peek() {
                if r.end <= now {
                    occupancy = occupancy.saturating_sub(r.bytes);
                    residents.pop();
                } else {
                    break;
                }
            }

            let capacity = device.capacity_at(now, base_capacity);
            let state = SystemState {
                now,
                ssd_occupancy_bytes: occupancy,
                ssd_capacity_bytes: capacity,
            };
            let decision = policy.place(job, cost, &state);

            let ssd_fraction = match decision {
                Device::Hdd => 0.0,
                Device::Ssd if !device.try_admit(now, job) => {
                    // Transient admission failure: scheduled to SSD but
                    // nothing placed — a full spill from arrival.
                    0.0
                }
                Device::Ssd => {
                    let free = capacity.saturating_sub(occupancy);
                    let placed = free.min(job.size_bytes);
                    if placed > 0 {
                        occupancy += placed;
                        peak_occupancy = peak_occupancy.max(occupancy);
                        residents.push(Reverse(Resident {
                            end: job.end(),
                            bytes: placed,
                        }));
                    }
                    if job.size_bytes == 0 {
                        0.0
                    } else {
                        placed as f64 / job.size_bytes as f64
                    }
                }
            };

            let outcome = JobOutcome {
                job_id: job.id,
                arrival: job.arrival,
                end: job.end(),
                scheduled: decision,
                ssd_fraction,
                tcio_hdd: cost.tcio_hdd,
                size_bytes: job.size_bytes,
            };
            policy.observe(&outcome);
            outcomes.push(outcome);
            placements.push(Placement::partial(ssd_fraction.clamp(0.0, 1.0)));
        }

        let savings = savings_summary(&costs, &placements);
        let mut result = SimulationResult {
            policy_name: policy.name().to_string(),
            ssd_capacity_bytes: base_capacity,
            outcomes,
            costs,
            savings,
            peak_ssd_occupancy_bytes: peak_occupancy,
            resilience: Default::default(),
        };
        device.fill_report(&mut result.resilience);
        policy.fill_resilience(&mut result.resilience);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_cost::{CostRates, JobCost};
    use byom_trace::{ClusterSpec, IoProfile, JobFeatures, JobId, ShuffleJob, TraceGenerator};

    /// Policy scheduling every job to SSD.
    #[derive(Debug)]
    struct AlwaysSsd;
    impl PlacementPolicy for AlwaysSsd {
        fn name(&self) -> &str {
            "always-ssd"
        }
        fn place(&mut self, _: &ShuffleJob, _: &JobCost, _: &SystemState) -> Device {
            Device::Ssd
        }
    }

    /// Policy scheduling every job to HDD.
    #[derive(Debug)]
    struct AlwaysHdd;
    impl PlacementPolicy for AlwaysHdd {
        fn name(&self) -> &str {
            "always-hdd"
        }
        fn place(&mut self, _: &ShuffleJob, _: &JobCost, _: &SystemState) -> Device {
            Device::Hdd
        }
    }

    fn job(id: u64, arrival: f64, lifetime: f64, size: u64) -> ShuffleJob {
        ShuffleJob {
            id: JobId(id),
            cluster: 0,
            arrival,
            lifetime,
            size_bytes: size,
            io: IoProfile {
                read_bytes: size * 2,
                written_bytes: size,
                read_ops: 100,
                write_ops: 100,
                dram_hit_fraction: 0.0,
                mean_read_size: 64 * 1024,
            },
            features: JobFeatures::default(),
            archetype: 0,
        }
    }

    fn model() -> CostModel {
        CostModel::new(CostRates::default())
    }

    #[test]
    fn all_hdd_policy_yields_zero_savings() {
        let trace = TraceGenerator::new(1).generate(&ClusterSpec::balanced(0), 3_600.0);
        let config = SimConfig::try_from_quota_fraction(&trace, 0.1).unwrap();
        let result = Simulator::new(config, model()).run(&trace, &mut AlwaysHdd);
        assert_eq!(result.savings.tco_savings_percent(), 0.0);
        assert_eq!(result.savings.tcio_savings_percent(), 0.0);
        assert!(result.outcomes.iter().all(|o| o.ssd_fraction == 0.0));
        assert_eq!(result.peak_ssd_occupancy_bytes, 0);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let trace = TraceGenerator::new(2).generate(&ClusterSpec::balanced(0), 7_200.0);
        let config = SimConfig::try_from_quota_fraction(&trace, 0.05).unwrap();
        let result = Simulator::new(config, model()).run(&trace, &mut AlwaysSsd);
        assert!(result.peak_ssd_occupancy_bytes <= config.ssd_capacity_bytes);
    }

    #[test]
    fn unlimited_capacity_means_no_spillover() {
        let trace = TraceGenerator::new(3).generate(&ClusterSpec::balanced(0), 3_600.0);
        let config = SimConfig {
            ssd_capacity_bytes: u64::MAX,
        };
        let result = Simulator::new(config, model()).run(&trace, &mut AlwaysSsd);
        assert!(result.outcomes.iter().all(|o| o.ssd_fraction == 1.0));
        assert!(result.outcomes.iter().all(|o| !o.spilled()));
        assert!(result.savings.tcio_savings_percent() > 99.9);
    }

    #[test]
    fn spillover_happens_when_capacity_is_tight() {
        // Two overlapping jobs of 100 bytes each, capacity 150: the second
        // only half fits.
        let trace = Trace::new(vec![job(0, 0.0, 100.0, 100), job(1, 10.0, 100.0, 100)]);
        let config = SimConfig {
            ssd_capacity_bytes: 150,
        };
        let result = Simulator::new(config, model()).run(&trace, &mut AlwaysSsd);
        assert_eq!(result.outcomes[0].ssd_fraction, 1.0);
        assert!((result.outcomes[1].ssd_fraction - 0.5).abs() < 1e-9);
        assert!(result.outcomes[1].spilled());
    }

    #[test]
    fn capacity_is_released_when_jobs_end() {
        // Sequential jobs that do not overlap should all fit.
        let trace = Trace::new(vec![
            job(0, 0.0, 50.0, 100),
            job(1, 60.0, 50.0, 100),
            job(2, 120.0, 50.0, 100),
        ]);
        let config = SimConfig {
            ssd_capacity_bytes: 100,
        };
        let result = Simulator::new(config, model()).run(&trace, &mut AlwaysSsd);
        assert!(result.outcomes.iter().all(|o| o.ssd_fraction == 1.0));
    }

    #[test]
    fn zero_capacity_spills_everything() {
        let trace = Trace::new(vec![job(0, 0.0, 50.0, 100)]);
        let config = SimConfig {
            ssd_capacity_bytes: 0,
        };
        let result = Simulator::new(config, model()).run(&trace, &mut AlwaysSsd);
        assert_eq!(result.outcomes[0].ssd_fraction, 0.0);
        assert!(result.outcomes[0].spilled());
    }

    #[test]
    fn policy_observe_receives_every_outcome() {
        #[derive(Debug, Default)]
        struct Counting {
            observed: usize,
        }
        impl PlacementPolicy for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn place(&mut self, _: &ShuffleJob, _: &JobCost, _: &SystemState) -> Device {
                Device::Ssd
            }
            fn observe(&mut self, _: &JobOutcome) {
                self.observed += 1;
            }
        }
        let trace = Trace::new(vec![job(0, 0.0, 10.0, 10), job(1, 5.0, 10.0, 10)]);
        let mut policy = Counting::default();
        let _ = Simulator::new(
            SimConfig {
                ssd_capacity_bytes: 100,
            },
            model(),
        )
        .run(&trace, &mut policy);
        assert_eq!(policy.observed, 2);
    }

    #[test]
    fn invalid_quota_fractions_are_typed_errors() {
        let trace = Trace::new(vec![job(0, 0.0, 10.0, 10)]);
        for bad in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = SimConfig::try_from_quota_fraction(&trace, bad);
            assert!(
                matches!(err, Err(SimError::InvalidQuota { .. })),
                "fraction {bad} should be rejected"
            );
        }
        assert!(SimConfig::try_from_quota_fraction(&trace, 0.0).is_ok());
        assert!(SimConfig::try_from_quota_fraction(&trace, 1.5).is_ok());
    }

    #[test]
    fn run_with_ideal_device_matches_run() {
        let trace = TraceGenerator::new(9).generate(&ClusterSpec::balanced(0), 3_600.0);
        let config = SimConfig::try_from_quota_fraction(&trace, 0.05).unwrap();
        let sim = Simulator::new(config, model());
        let plain = sim.run(&trace, &mut AlwaysSsd);
        let with_device = sim.run_with_device(&trace, &mut AlwaysSsd, &mut IdealDevice);
        assert_eq!(plain, with_device);
        assert_eq!(plain.resilience, Default::default());
    }
}
