//! Device-surface fault injection: SSD capacity step-downs/recoveries and
//! transient admission failures with deterministic retry-after windows.

use crate::plan::DeviceFaults;
use crate::{mix, salt};
use byom_sim::{DeviceModel, ResilienceReport};
use byom_trace::ShuffleJob;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A [`DeviceModel`] that applies a [`DeviceFaults`] schedule.
///
/// Capacity steps are a deterministic piecewise-constant multiplier over the
/// configured base capacity. Admission faults are two-phase: a per-job
/// seeded draw triggers an *outage*, after which every SSD admission fails
/// deterministically until `admission_retry_after_secs` of simulated time
/// have elapsed — modelling a device that NAKs writes and tells clients when
/// to retry.
#[derive(Debug, Clone)]
pub struct FaultyDevice {
    faults: DeviceFaults,
    seed: u64,
    active_step: Option<usize>,
    busy_until: Option<f64>,
    capacity_steps: u64,
    admission_outages: u64,
    admission_failures: u64,
}

impl FaultyDevice {
    /// Build a device from a fault schedule and the plan seed.
    pub fn new(faults: DeviceFaults, seed: u64) -> Self {
        FaultyDevice {
            faults,
            seed,
            active_step: None,
            busy_until: None,
            capacity_steps: 0,
            admission_outages: 0,
            admission_failures: 0,
        }
    }

    /// Distinct outages triggered so far.
    pub fn admission_outages(&self) -> u64 {
        self.admission_outages
    }

    /// SSD admissions rejected so far.
    pub fn admission_failures(&self) -> u64 {
        self.admission_failures
    }
}

impl DeviceModel for FaultyDevice {
    fn capacity_at(&mut self, now: f64, base_capacity_bytes: u64) -> u64 {
        if self.faults.capacity_steps.is_empty() {
            return base_capacity_bytes;
        }
        let mut active = None;
        for (i, step) in self.faults.capacity_steps.iter().enumerate() {
            if step.at_secs <= now {
                active = Some(i);
            }
        }
        if active != self.active_step {
            self.capacity_steps += 1;
            self.active_step = active;
        }
        let factor = active
            .and_then(|i| self.faults.capacity_steps.get(i))
            .map(|s| s.factor)
            .unwrap_or(1.0);
        (base_capacity_bytes as f64 * factor).max(0.0) as u64
    }

    fn try_admit(&mut self, now: f64, job: &ShuffleJob) -> bool {
        if let Some(until) = self.busy_until {
            if now < until {
                self.admission_failures += 1;
                return false;
            }
            self.busy_until = None;
        }
        let p = self.faults.admission_failure_probability;
        if p > 0.0 {
            let mut rng = StdRng::seed_from_u64(mix(self.seed, job.id.0, salt::DEVICE));
            if rng.gen_bool(p) {
                self.admission_outages += 1;
                self.admission_failures += 1;
                self.busy_until = Some(now + self.faults.admission_retry_after_secs);
                return false;
            }
        }
        true
    }

    fn fill_report(&self, report: &mut ResilienceReport) {
        report.capacity_steps = self.capacity_steps;
        report.admission_outages = self.admission_outages;
        report.admission_failures = self.admission_failures;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CapacityStep;
    use byom_trace::{IoProfile, JobFeatures, JobId};

    fn job(id: u64, arrival: f64) -> ShuffleJob {
        ShuffleJob {
            id: JobId(id),
            cluster: 0,
            arrival,
            lifetime: 10.0,
            size_bytes: 100,
            io: IoProfile::default(),
            features: JobFeatures::default(),
            archetype: 0,
        }
    }

    #[test]
    fn fault_free_device_is_transparent() {
        let mut d = FaultyDevice::new(DeviceFaults::default(), 42);
        assert_eq!(d.capacity_at(0.0, 12_345), 12_345);
        assert_eq!(d.capacity_at(1e9, 12_345), 12_345);
        for i in 0..100 {
            assert!(d.try_admit(i as f64, &job(i, i as f64)));
        }
        let mut report = ResilienceReport::default();
        d.fill_report(&mut report);
        assert_eq!(report, ResilienceReport::default());
    }

    #[test]
    fn capacity_steps_down_and_recovers() {
        let faults = DeviceFaults {
            capacity_steps: vec![
                CapacityStep {
                    at_secs: 100.0,
                    factor: 0.5,
                },
                CapacityStep {
                    at_secs: 200.0,
                    factor: 1.0,
                },
            ],
            ..Default::default()
        };
        let mut d = FaultyDevice::new(faults, 42);
        assert_eq!(d.capacity_at(50.0, 1_000), 1_000);
        assert_eq!(d.capacity_at(100.0, 1_000), 500);
        assert_eq!(d.capacity_at(150.0, 1_000), 500);
        assert_eq!(d.capacity_at(250.0, 1_000), 1_000);
        let mut report = ResilienceReport::default();
        d.fill_report(&mut report);
        assert_eq!(report.capacity_steps, 2, "down + recovery");
    }

    #[test]
    fn outage_blocks_admissions_until_retry_after() {
        let faults = DeviceFaults {
            admission_failure_probability: 1.0,
            admission_retry_after_secs: 100.0,
            ..Default::default()
        };
        let mut d = FaultyDevice::new(faults, 42);
        assert!(!d.try_admit(0.0, &job(1, 0.0)), "outage triggers");
        assert!(!d.try_admit(50.0, &job(2, 50.0)), "still in retry window");
        // At t=100 the window has elapsed; with p=1 a fresh outage triggers
        // immediately, so the admission still fails but a new outage counts.
        assert!(!d.try_admit(100.0, &job(3, 100.0)));
        assert_eq!(d.admission_outages(), 2);
        assert_eq!(d.admission_failures(), 3);
    }

    #[test]
    fn retry_after_lets_traffic_through_when_probability_drops() {
        // Trigger once, then verify a job after the window with a seed that
        // draws "no outage" is admitted.
        let faults = DeviceFaults {
            admission_failure_probability: 0.5,
            admission_retry_after_secs: 10.0,
            ..Default::default()
        };
        let mut d = FaultyDevice::new(faults, 42);
        let mut admitted = 0;
        let mut rejected = 0;
        for i in 0..200u64 {
            let t = i as f64 * 20.0; // spaced beyond the retry window
            if d.try_admit(t, &job(i, t)) {
                admitted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(admitted > 0, "some jobs pass");
        assert!(rejected > 0, "some outages trigger");
        assert_eq!(d.admission_failures(), rejected);
    }

    #[test]
    fn determinism_per_seed() {
        let faults = DeviceFaults {
            admission_failure_probability: 0.3,
            admission_retry_after_secs: 50.0,
            ..Default::default()
        };
        let run = |seed| {
            let mut d = FaultyDevice::new(faults.clone(), seed);
            (0..500u64)
                .map(|i| d.try_admit(i as f64, &job(i, i as f64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(1337));
    }
}
