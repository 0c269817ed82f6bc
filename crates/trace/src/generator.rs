//! The synthetic trace generator.
//!
//! Turns a [`ClusterSpec`] into a concrete sequence of [`ShuffleJob`]s. Jobs
//! arrive according to a non-homogeneous Poisson process (modulated by the
//! cluster's diurnal pattern), or periodically for archetypes with a
//! `periodicity_secs` (modelling cron-like production pipelines). Each job is
//! attributed to a synthetic pipeline; pipelines have persistent identity, so
//! repeated runs of the same pipeline produce correlated job characteristics
//! and populate the "historical system metrics" feature group.

use crate::archetype::{Archetype, ArchetypeParams};
use crate::cluster::{ClusterSpec, PipelineSpec};
use crate::distributions::{exponential_gap, LogNormal};
use crate::features::JobFeatures;
use crate::job::{IoProfile, JobId, ShuffleJob};
use crate::metadata::PipelineMetadata;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Assumed sustainable operations per second of one standard HDD, used only
/// to scale the *historical TCIO feature*; the authoritative TCIO computation
/// lives in `byom-cost`.
const FEATURE_HDD_OPS_PER_SEC: f64 = 150.0;

/// Deterministic, seedable generator of synthetic cluster traces.
#[derive(Debug)]
pub struct TraceGenerator {
    seed: u64,
}

/// Persistent identity of one synthetic pipeline.
#[derive(Debug, Clone)]
struct Pipeline {
    archetype: Archetype,
    metadata: PipelineMetadata,
    /// Per-pipeline multiplicative scale on job size, so that different
    /// pipelines of the same archetype occupy different size regimes.
    size_scale: f64,
    /// Per-pipeline multiplicative scale on read amplification.
    read_scale: f64,
    /// Allocated-resource features are sticky per pipeline (the scheduler
    /// allocates similar resources to repeated runs).
    num_workers: u32,
    num_worker_threads: u32,
    requested_num_shards: u32,
    initial_num_stripes: u32,
}

/// Running history of a pipeline's previous executions, used to fill the
/// historical-system-metrics feature group.
#[derive(Debug, Clone, Copy, Default)]
struct PipelineHistory {
    runs: u32,
    sum_tcio: f64,
    sum_size: f64,
    sum_lifetime: f64,
    sum_io_density: f64,
}

impl PipelineHistory {
    fn features(&self) -> (f64, f64, f64, f64) {
        if self.runs == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let n = f64::from(self.runs);
        (
            self.sum_tcio / n,
            self.sum_size / n,
            self.sum_lifetime / n,
            self.sum_io_density / n,
        )
    }

    fn record(&mut self, tcio: f64, size: f64, lifetime: f64, density: f64) {
        self.runs += 1;
        self.sum_tcio += tcio;
        self.sum_size += size;
        self.sum_lifetime += lifetime;
        self.sum_io_density += density;
    }
}

impl TraceGenerator {
    /// Create a generator with the given seed. The same seed and spec always
    /// produce the same trace.
    pub fn new(seed: u64) -> Self {
        TraceGenerator { seed }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generate a trace for one cluster covering `duration_secs` of simulated
    /// time starting at t = 0 (midnight, Monday).
    ///
    /// # Panics
    /// Panics if `duration_secs` is not positive or the spec has no pipelines
    /// with positive weight.
    pub fn generate(&self, spec: &ClusterSpec, duration_secs: f64) -> Trace {
        assert!(duration_secs > 0.0, "duration must be positive");
        let total_weight = spec.total_weight();
        let mut rng = StdRng::seed_from_u64(self.seed ^ (u64::from(spec.id) << 32));

        // Materialize pipeline populations.
        let mut pipelines: Vec<(usize, Pipeline)> = Vec::new();
        for (spec_idx, pspec) in spec.pipelines.iter().enumerate() {
            for user in 0..pspec.num_users {
                for p in 0..pspec.pipelines_per_user {
                    pipelines.push((spec_idx, Self::make_pipeline(&mut rng, pspec, user, p)));
                }
            }
        }
        assert!(!pipelines.is_empty(), "cluster spec produced no pipelines");

        let mut history: BTreeMap<usize, PipelineHistory> = BTreeMap::new();
        let mut jobs: Vec<ShuffleJob> = Vec::new();
        let mut next_id: u64 = 0;

        // Poisson arrivals for each pipeline spec (aperiodic archetypes), with
        // diurnal thinning; periodic archetypes run on their schedule.
        for (spec_idx, pspec) in spec.pipelines.iter().enumerate() {
            let params = pspec.archetype.params();
            let members: Vec<usize> = pipelines
                .iter()
                .enumerate()
                .filter(|(_, (s, _))| *s == spec_idx)
                .map(|(i, _)| i)
                .collect();
            if members.is_empty() {
                continue;
            }
            let rate =
                spec.base_arrival_rate * pspec.weight / total_weight * params.relative_arrival_rate;

            match params.periodicity_secs {
                Some(period) => {
                    // Each member pipeline runs periodically with phase jitter.
                    for &pidx in &members {
                        let mut t = rng.gen_range(0.0..period);
                        while t < duration_secs {
                            let runs = pspec.shuffles_per_run.max(1);
                            for shuffle_idx in 0..runs {
                                let arrival = t + rng.gen_range(0.0..60.0);
                                if arrival >= duration_secs {
                                    break;
                                }
                                #[expect(
                                    clippy::indexing_slicing,
                                    reason = "archetype/pipeline picks index arrays sized in the same function"
                                )]
                                let job = Self::make_job(
                                    &mut rng,
                                    spec,
                                    &pipelines[pidx].1,
                                    &params,
                                    &mut history,
                                    pidx,
                                    shuffle_idx,
                                    arrival,
                                    &mut next_id,
                                );
                                jobs.push(job);
                            }
                            t += period * rng.gen_range(0.9..1.1);
                        }
                    }
                }
                None => {
                    // Non-homogeneous Poisson via thinning against the peak
                    // diurnal factor.
                    if rate <= 0.0 {
                        continue;
                    }
                    let peak = 1.0 + spec.diurnal.daily_amplitude;
                    let mut t = 0.0;
                    while t < duration_secs {
                        t += exponential_gap(&mut rng, rate * peak);
                        if t >= duration_secs {
                            break;
                        }
                        let accept = spec.diurnal.load_factor(t) / peak;
                        if rng.gen::<f64>() > accept {
                            continue;
                        }
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "archetype/pipeline picks index arrays sized in the same function"
                        )]
                        let pidx = members[rng.gen_range(0..members.len())];
                        let shuffle_idx = rng.gen_range(0..pspec.shuffles_per_run.max(1));
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "archetype/pipeline picks index arrays sized in the same function"
                        )]
                        let job = Self::make_job(
                            &mut rng,
                            spec,
                            &pipelines[pidx].1,
                            &params,
                            &mut history,
                            pidx,
                            shuffle_idx,
                            t,
                            &mut next_id,
                        );
                        jobs.push(job);
                    }
                }
            }
        }

        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        // Re-assign IDs in arrival order so IDs are monotone in time.
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = JobId(i as u64);
        }
        Trace::new(jobs)
    }

    fn make_pipeline<R: Rng + ?Sized>(
        rng: &mut R,
        pspec: &PipelineSpec,
        user_idx: u32,
        pipeline_idx: u32,
    ) -> Pipeline {
        let metadata = PipelineMetadata::synthesize(rng, pspec.archetype, user_idx, pipeline_idx);
        let size_scale = LogNormal::from_median_spread(1.0, 2.5).sample(rng);
        let read_scale = LogNormal::from_median_spread(1.0, 1.5).sample(rng);
        let num_workers = rng.gen_range(4..512);
        Pipeline {
            archetype: pspec.archetype,
            metadata,
            size_scale,
            read_scale,
            num_workers,
            num_worker_threads: rng.gen_range(1..16),
            requested_num_shards: num_workers * rng.gen_range(1..8),
            initial_num_stripes: rng.gen_range(1..64),
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "private helper that threads the generator's loop state"
    )]
    fn make_job<R: Rng + ?Sized>(
        rng: &mut R,
        spec: &ClusterSpec,
        pipeline: &Pipeline,
        params: &ArchetypeParams,
        history: &mut BTreeMap<usize, PipelineHistory>,
        pipeline_idx: usize,
        shuffle_idx: u32,
        arrival: f64,
        next_id: &mut u64,
    ) -> ShuffleJob {
        let size = (params.size_bytes.sample(rng) * pipeline.size_scale).max(4096.0);
        let lifetime = params.lifetime_secs.sample(rng).max(1.0);
        let read_amp = (params.read_amplification.sample(rng) * pipeline.read_scale).max(0.01);
        let written = size * params.write_amplification;
        let read = size * read_amp;
        let mean_read_size = params.mean_read_size.max(512.0);
        let read_ops = (read / mean_read_size).ceil().max(1.0);
        // Writes are issued in stripes roughly sized by records; model an
        // average raw write op of 128 KiB before coalescing.
        let write_ops = (written / (128.0 * 1024.0)).ceil().max(1.0);
        let dram_hit = (params.dram_hit_fraction + rng.gen_range(-0.05..0.05)).clamp(0.0, 0.95);

        let io = IoProfile {
            written_bytes: written as u64,
            read_bytes: read as u64,
            write_ops: write_ops as u64,
            read_ops: read_ops as u64,
            dram_hit_fraction: dram_hit,
            mean_read_size: mean_read_size as u64,
        };

        let hist = history.entry(pipeline_idx).or_default();
        let (avg_tcio, avg_size, avg_lifetime, avg_density) = hist.features();

        let day_secs = arrival.rem_euclid(86_400.0);
        let weekday = ((arrival / 86_400.0).floor() as i64).rem_euclid(7) as u8;
        let num_buckets = (pipeline.requested_num_shards as f64 * rng.gen_range(0.5..1.5)) as u32;

        let features = JobFeatures {
            average_tcio: avg_tcio,
            average_size: avg_size,
            average_lifetime: avg_lifetime,
            average_io_density: avg_density,
            bucket_sizing_initial_num_stripes: pipeline.initial_num_stripes,
            bucket_sizing_num_shards: pipeline.requested_num_shards,
            bucket_sizing_num_worker_threads: pipeline.num_worker_threads,
            bucket_sizing_num_workers: pipeline.num_workers,
            initial_num_buckets: pipeline.requested_num_shards,
            num_buckets: num_buckets.max(1),
            records_written: (written / 256.0) as u64,
            requested_num_shards: pipeline.requested_num_shards,
            open_time_day_hour: (day_secs / 3600.0) as u8,
            open_time_seconds: day_secs as u32,
            open_time_weekday: weekday,
            build_target_name: pipeline.metadata.build_target_name.clone(),
            execution_name: pipeline.metadata.execution_name.clone(),
            pipeline_name: pipeline.metadata.pipeline_name.clone(),
            step_name: pipeline.metadata.step_name(rng, shuffle_idx),
            user_name: pipeline.metadata.user_name.clone(),
        };

        // Update the pipeline history with a simple TCIO estimate so that the
        // *next* run of this pipeline sees correlated historical features.
        let effective_ops = read_ops * (1.0 - dram_hit) + written / (1024.0 * 1024.0);
        let tcio_estimate = effective_ops / lifetime / FEATURE_HDD_OPS_PER_SEC;
        let density = (written + read) / size;
        hist.record(tcio_estimate, size, lifetime, density);

        let id = JobId(*next_id);
        *next_id += 1;
        ShuffleJob {
            id,
            cluster: spec.id,
            arrival,
            lifetime,
            size_bytes: size as u64,
            io,
            features,
            archetype: pipeline.archetype.index(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;

    #[test]
    fn generation_is_deterministic() {
        let spec = ClusterSpec::balanced(0);
        let a = TraceGenerator::new(7).generate(&spec, 6_000.0);
        let b = TraceGenerator::new(7).generate(&spec, 6_000.0);
        assert_eq!(a.jobs(), b.jobs());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = ClusterSpec::balanced(0);
        let a = TraceGenerator::new(1).generate(&spec, 6_000.0);
        let b = TraceGenerator::new(2).generate(&spec, 6_000.0);
        assert_ne!(a.jobs(), b.jobs());
    }

    #[test]
    fn jobs_are_sorted_and_within_duration() {
        let spec = ClusterSpec::balanced(0);
        let trace = TraceGenerator::new(3).generate(&spec, 12_000.0);
        assert!(!trace.jobs().is_empty());
        assert!(trace
            .jobs()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        assert!(trace
            .jobs()
            .iter()
            .all(|j| j.arrival >= 0.0 && j.arrival < 12_000.0));
        assert!(trace
            .jobs()
            .iter()
            .all(|j| j.lifetime > 0.0 && j.size_bytes > 0));
    }

    #[test]
    fn ids_are_monotone_and_unique() {
        let spec = ClusterSpec::balanced(1);
        let trace = TraceGenerator::new(4).generate(&spec, 8_000.0);
        for (i, j) in trace.jobs().iter().enumerate() {
            assert_eq!(j.id.0, i as u64);
        }
    }

    #[test]
    fn historical_features_appear_for_repeated_pipelines() {
        // Over a long enough window, periodic pipelines re-run and later jobs
        // should carry non-zero historical averages.
        let spec = ClusterSpec::balanced(0);
        let trace = TraceGenerator::new(5).generate(&spec, 86_400.0);
        let with_history = trace
            .jobs()
            .iter()
            .filter(|j| j.features.average_size > 0.0)
            .count();
        assert!(
            with_history > 0,
            "expected some jobs with populated historical features"
        );
    }

    #[test]
    fn workload_diversity_across_archetypes() {
        // Figure 1 of the paper: workloads differ by orders of magnitude.
        let spec = ClusterSpec::balanced(0);
        let trace = TraceGenerator::new(6).generate(&spec, 43_200.0);
        let mut by_archetype: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
        for j in trace.jobs() {
            by_archetype
                .entry(j.archetype)
                .or_default()
                .push(j.io_density());
        }
        assert!(
            by_archetype.len() >= 4,
            "expected several archetypes present"
        );
        let means: Vec<f64> = by_archetype
            .values()
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.5, "archetypes should differ in I/O density");
    }

    #[test]
    fn fleet_generation_covers_all_clusters() {
        let specs = ClusterSpec::evaluation_fleet();
        for s in &specs[..3] {
            let t = TraceGenerator::new(1).generate(s, 3_600.0);
            assert!(t.jobs().iter().all(|j| j.cluster == s.id));
        }
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_panics() {
        let spec = ClusterSpec::balanced(0);
        let _ = TraceGenerator::new(1).generate(&spec, 0.0);
    }
}
