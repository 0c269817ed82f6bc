//! The ML lifetime-prediction baseline (Section 3.4), following the
//! SSD/HDD-tiering case study of Zhou & Maas (MLSys'21).
//!
//! A model predicts the distribution of a file's lifetime from application-
//! level features; jobs whose predicted `μ + σ` lifetime is below a
//! time-to-live (TTL) threshold are admitted to SSD, everything else goes to
//! HDD. We realize the distribution prediction with the same GBDT substrate
//! used elsewhere: lifetimes are bucketed into logarithmically spaced classes
//! and the classifier's class distribution yields `μ` and `σ` over bucket
//! midpoints. A prediction depends only on the job's features, so
//! [`LifetimeMlBaseline::playback`] predicts a trace once for experiments
//! that replay it at several quotas.

use crate::oracle_policy::OraclePolicy;
use byom_cost::JobCost;
use byom_gbdt::{Dataset, GbdtError, GbdtParams, GradientBoostedTrees};
use byom_sim::{Device, PlacementPolicy, SystemState};
use byom_trace::{FeatureEncoder, JobId, ShuffleJob, Trace};

/// Configuration of the lifetime-prediction baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModelConfig {
    /// Number of logarithmically spaced lifetime buckets.
    pub num_buckets: usize,
    /// Shortest lifetime bucket edge in seconds.
    pub min_lifetime_secs: f64,
    /// Longest lifetime bucket edge in seconds.
    pub max_lifetime_secs: f64,
    /// Admit jobs whose predicted `μ + σ` lifetime is below this TTL.
    pub ttl_secs: f64,
    /// Boosting parameters for the underlying classifier.
    pub gbdt: GbdtParams,
}

impl Default for LifetimeModelConfig {
    fn default() -> Self {
        LifetimeModelConfig {
            num_buckets: 8,
            min_lifetime_secs: 10.0,
            max_lifetime_secs: 7.0 * 86_400.0,
            ttl_secs: 2.0 * 3600.0,
            gbdt: GbdtParams {
                num_classes: 8,
                num_trees: 60,
                ..GbdtParams::default()
            },
        }
    }
}

impl LifetimeModelConfig {
    /// Bucket index of a lifetime value (log-spaced buckets).
    fn bucket_of(&self, lifetime: f64) -> usize {
        let clamped = lifetime.clamp(self.min_lifetime_secs, self.max_lifetime_secs);
        let log_span = (self.max_lifetime_secs / self.min_lifetime_secs).ln();
        let pos = (clamped / self.min_lifetime_secs).ln() / log_span;
        ((pos * self.num_buckets as f64) as usize).min(self.num_buckets - 1)
    }

    /// Geometric midpoint of a bucket in seconds.
    fn bucket_midpoint(&self, bucket: usize) -> f64 {
        let log_span = (self.max_lifetime_secs / self.min_lifetime_secs).ln();
        let lo =
            self.min_lifetime_secs * (log_span * bucket as f64 / self.num_buckets as f64).exp();
        let hi = self.min_lifetime_secs
            * (log_span * (bucket + 1) as f64 / self.num_buckets as f64).exp();
        (lo * hi).sqrt()
    }
}

/// The trained lifetime-prediction baseline policy.
#[derive(Debug, Clone)]
pub struct LifetimeMlBaseline {
    config: LifetimeModelConfig,
    encoder: FeatureEncoder,
    model: GradientBoostedTrees,
    /// `config.bucket_midpoint(b)` for every bucket `b`, computed once.
    midpoints: Vec<f64>,
}

impl LifetimeMlBaseline {
    /// Train the baseline on a historical trace.
    ///
    /// # Errors
    /// Returns an error if the training trace is empty or model training
    /// fails.
    pub fn train(config: LifetimeModelConfig, train: &Trace) -> Result<Self, GbdtError> {
        let encoder = FeatureEncoder::default();
        let rows: Vec<Vec<f64>> = train.iter().map(|j| encoder.encode(&j.features)).collect();
        let labels: Vec<usize> = train.iter().map(|j| config.bucket_of(j.lifetime)).collect();
        let data = Dataset::from_rows(rows, labels)?;
        let params = GbdtParams {
            num_classes: config.num_buckets,
            ..config.gbdt
        };
        let model = GradientBoostedTrees::train(&params, &data, None)?;
        let midpoints = (0..config.num_buckets)
            .map(|b| config.bucket_midpoint(b))
            .collect();
        Ok(LifetimeMlBaseline {
            config,
            encoder,
            model,
            midpoints,
        })
    }

    /// Predicted mean and standard deviation of the job's lifetime (seconds).
    pub fn predict_lifetime(&self, job: &ShuffleJob) -> (f64, f64) {
        let probs = self
            .model
            .predict_proba(&self.encoder.encode(&job.features));
        let mut mean = 0.0;
        for (p, m) in probs.iter().zip(&self.midpoints) {
            mean += p * m;
        }
        let mut var = 0.0;
        for (p, m) in probs.iter().zip(&self.midpoints) {
            let d = m - mean;
            var += p * d * d;
        }
        (mean, var.sqrt())
    }

    /// The baseline's admission rule: SSD if the job's predicted `μ + σ`
    /// lifetime is at most the TTL.
    fn admits(&self, job: &ShuffleJob) -> bool {
        let (mean, std) = self.predict_lifetime(job);
        mean + std <= self.config.ttl_secs
    }

    /// Predict every job of `trace` once and return a policy, named like
    /// this one, that replays the admissions: on `trace` it places every
    /// job where [`place`](PlacementPolicy::place) would.
    pub fn playback(&self, trace: &Trace) -> OraclePolicy {
        let ids: Vec<JobId> = trace.iter().map(|job| job.id).collect();
        let admitted: Vec<bool> = trace.iter().map(|job| self.admits(job)).collect();
        OraclePolicy::from_selection(self.name(), &ids, &admitted)
    }
}

impl PlacementPolicy for LifetimeMlBaseline {
    fn name(&self) -> &str {
        "ML Baseline"
    }

    fn place(&mut self, job: &ShuffleJob, _cost: &JobCost, _state: &SystemState) -> Device {
        if self.admits(job) {
            Device::Ssd
        } else {
            Device::Hdd
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::{ClusterSpec, TraceGenerator};

    fn config() -> LifetimeModelConfig {
        LifetimeModelConfig {
            gbdt: GbdtParams {
                num_classes: 8,
                num_trees: 15,
                ..GbdtParams::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn bucket_mapping_is_monotone_and_in_range() {
        let c = config();
        let mut last = 0;
        for lifetime in [1.0, 15.0, 100.0, 1000.0, 10_000.0, 100_000.0, 1e7] {
            let b = c.bucket_of(lifetime);
            assert!(b < c.num_buckets);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn bucket_midpoints_increase() {
        let c = config();
        for b in 1..c.num_buckets {
            assert!(c.bucket_midpoint(b) > c.bucket_midpoint(b - 1));
        }
    }

    #[test]
    fn trains_and_predicts_plausible_lifetimes() {
        let trace = TraceGenerator::new(21).generate(&ClusterSpec::balanced(0), 14_400.0);
        let baseline = LifetimeMlBaseline::train(config(), &trace).unwrap();
        for job in trace.iter().take(50) {
            let (mean, std) = baseline.predict_lifetime(job);
            assert!(mean > 0.0 && mean.is_finite());
            assert!(std >= 0.0 && std.is_finite());
        }
    }

    #[test]
    fn cached_midpoints_predict_bit_identically() {
        let trace = TraceGenerator::new(23).generate(&ClusterSpec::balanced(0), 14_400.0);
        let baseline = LifetimeMlBaseline::train(config(), &trace).unwrap();
        // The pre-cache computation: one `bucket_midpoint` call per bucket.
        let reference = |job: &ShuffleJob| {
            let probs = baseline
                .model
                .predict_proba(&baseline.encoder.encode(&job.features));
            let mut mean = 0.0;
            for (bucket, p) in probs.iter().enumerate() {
                mean += p * baseline.config.bucket_midpoint(bucket);
            }
            let mut var = 0.0;
            for (bucket, p) in probs.iter().enumerate() {
                let d = baseline.config.bucket_midpoint(bucket) - mean;
                var += p * d * d;
            }
            (mean, var.sqrt())
        };
        assert!(!trace.is_empty());
        for job in trace.iter() {
            let (mean, std) = baseline.predict_lifetime(job);
            let (ref_mean, ref_std) = reference(job);
            assert_eq!(mean.to_bits(), ref_mean.to_bits(), "job {:?}", job.id);
            assert_eq!(std.to_bits(), ref_std.to_bits(), "job {:?}", job.id);
        }
    }

    #[test]
    fn playback_replays_what_the_live_policy_places() {
        use byom_cost::{CostModel, CostRates};
        use byom_sim::{SimConfig, Simulator};
        let train = TraceGenerator::new(24).generate(&ClusterSpec::balanced(0), 14_400.0);
        let test = TraceGenerator::new(25).generate(&ClusterSpec::balanced(0), 7_200.0);
        let baseline = LifetimeMlBaseline::train(config(), &train).unwrap();
        let playback = baseline.playback(&test);
        assert!(!test.is_empty());
        for quota in [0.01, 0.05, 1.0] {
            let sim = Simulator::new(
                SimConfig::try_from_quota_fraction(&test, quota).unwrap(),
                CostModel::new(CostRates::default()),
            );
            assert_eq!(
                sim.run(&test, &mut playback.clone()),
                sim.run(&test, &mut baseline.clone()),
                "quota {quota}"
            );
        }
    }

    #[test]
    fn short_lived_workloads_are_admitted_more_often_than_long_lived() {
        let trace = TraceGenerator::new(22).generate(&ClusterSpec::balanced(0), 28_800.0);
        let mut baseline = LifetimeMlBaseline::train(config(), &trace).unwrap();
        let state = SystemState {
            now: 0.0,
            ssd_occupancy_bytes: 0,
            ssd_capacity_bytes: u64::MAX,
        };
        let cost = JobCost {
            id: byom_trace::JobId(0),
            arrival: 0.0,
            lifetime: 0.0,
            size_bytes: 0,
            tcio_hdd: 0.0,
            tco_hdd: 0.0,
            tco_ssd: 0.0,
            io_density: 0.0,
        };
        let mut short_admit = 0usize;
        let mut short_total = 0usize;
        let mut long_admit = 0usize;
        let mut long_total = 0usize;
        for job in trace.iter() {
            let admitted = baseline.place(job, &cost, &state) == Device::Ssd;
            if job.lifetime < 600.0 {
                short_total += 1;
                short_admit += usize::from(admitted);
            } else if job.lifetime > 6.0 * 3600.0 {
                long_total += 1;
                long_admit += usize::from(admitted);
            }
        }
        if short_total > 0 && long_total > 0 {
            let short_rate = short_admit as f64 / short_total as f64;
            let long_rate = long_admit as f64 / long_total as f64;
            assert!(
                short_rate >= long_rate,
                "short {short_rate} should be admitted at least as often as long {long_rate}"
            );
        }
    }
}
