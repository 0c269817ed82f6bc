//! The adaptive per-category admission heuristic (Section 3.3), modelled
//! after CacheSack (Yang et al., USENIX ATC'22) and adapted from cache
//! admission to placement, as the paper does.
//!
//! The policy groups storage requests into categories — we use the pipeline
//! and step identity, the stable per-workload "ID" the paper refers to — and
//! measures each category's historical space usage and TCO savings. It ranks
//! categories by their savings and admits the top categories whose cumulative
//! historical space usage fits within the SSD capacity. An arriving job is
//! placed on SSD iff its category is in the admission set.

use byom_cost::JobCost;
use byom_sim::{Device, PlacementPolicy, SystemState};
use byom_trace::ShuffleJob;
use std::collections::{BTreeMap, BTreeSet};

/// Configuration for [`CategoryHeuristic`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicConfig {
    /// Rebuild the admission set every this many observed jobs.
    pub rebuild_every_jobs: usize,
    /// When sizing the admission set, scale the SSD capacity by this factor
    /// to account for categories not being simultaneously resident.
    pub capacity_headroom: f64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            rebuild_every_jobs: 200,
            capacity_headroom: 1.0,
        }
    }
}

/// Per-category running statistics.
#[derive(Debug, Clone, Copy, Default)]
struct CategoryStats {
    total_savings: f64,
    /// Running mean of the category's job footprints (bytes): the space
    /// one of its jobs is expected to take when the admission set is
    /// rebuilt against the SSD budget.
    mean_space: f64,
    observations: u64,
}

/// The CacheSack-style adaptive per-category admission heuristic.
#[derive(Debug, Clone)]
pub struct CategoryHeuristic {
    config: HeuristicConfig,
    stats: BTreeMap<String, CategoryStats>,
    admitted: BTreeSet<String>,
    jobs_since_rebuild: usize,
}

impl CategoryHeuristic {
    /// Create a heuristic with the given configuration.
    pub fn new(config: HeuristicConfig) -> Self {
        CategoryHeuristic {
            config,
            stats: BTreeMap::new(),
            admitted: BTreeSet::new(),
            jobs_since_rebuild: 0,
        }
    }

    /// The category key of a job: its pipeline plus step identity.
    fn category_of(job: &ShuffleJob) -> String {
        format!(
            "{}::{}",
            job.features.pipeline_name, job.features.execution_name
        )
    }

    /// Fold one job's measured cost into the category statistics and
    /// periodically rebuild the admission set. [`PlacementPolicy::place`]
    /// calls this on every arrival; composite policies (the degradation
    /// ladder in `byom_core`) call it directly to keep the heuristic warm
    /// while another rung is making the decisions.
    pub fn record(&mut self, job: &ShuffleJob, cost: &JobCost, capacity_bytes: u64) {
        // Update historical statistics. In production these measurements come
        // from completed executions; here the arriving job's measured cost
        // stands in for the category's history from the next job onward.
        let category = Self::category_of(job);
        let entry = self.stats.entry(category).or_default();
        entry.total_savings += cost.tco_savings();
        entry.observations += 1;
        let n = entry.observations as f64;
        entry.mean_space += (job.size_bytes as f64 - entry.mean_space) / n;

        self.jobs_since_rebuild += 1;
        if self.admitted.is_empty() || self.jobs_since_rebuild >= self.config.rebuild_every_jobs {
            self.rebuild_admission_set(capacity_bytes);
            self.jobs_since_rebuild = 0;
        }
    }

    /// Whether the job's category is in the current admission set.
    pub fn admits(&self, job: &ShuffleJob) -> bool {
        self.admitted.contains(&Self::category_of(job))
    }

    fn rebuild_admission_set(&mut self, capacity_bytes: u64) {
        let mut ranked: Vec<(&String, &CategoryStats)> = self
            .stats
            .iter()
            .filter(|(_, s)| s.total_savings > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.total_savings.total_cmp(&a.1.total_savings));
        let budget = capacity_bytes as f64 * self.config.capacity_headroom;
        let mut used = 0.0;
        self.admitted.clear();
        for (category, stats) in ranked {
            let space = stats.mean_space;
            if used + space > budget && !self.admitted.is_empty() {
                break;
            }
            used += space;
            self.admitted.insert(category.clone());
        }
    }
}

impl Default for CategoryHeuristic {
    fn default() -> Self {
        CategoryHeuristic::new(HeuristicConfig::default())
    }
}

impl PlacementPolicy for CategoryHeuristic {
    fn name(&self) -> &str {
        "Heuristic"
    }

    fn place(&mut self, job: &ShuffleJob, cost: &JobCost, state: &SystemState) -> Device {
        self.record(job, cost, state.ssd_capacity_bytes);
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
    use byom_trace::{IoProfile, JobFeatures, JobId};

    fn job(pipeline: &str, size: u64) -> ShuffleJob {
        ShuffleJob {
            id: JobId(0),
            cluster: 0,
            arrival: 0.0,
            lifetime: 10.0,
            size_bytes: size,
            io: IoProfile::default(),
            features: JobFeatures {
                pipeline_name: pipeline.to_string(),
                execution_name: "main".to_string(),
                ..Default::default()
            },
            archetype: 0,
        }
    }

    fn cost(savings: f64) -> JobCost {
        JobCost {
            id: JobId(0),
            arrival: 0.0,
            lifetime: 10.0,
            size_bytes: 0,
            tcio_hdd: 1.0,
            tco_hdd: savings.max(0.0) + 1.0,
            tco_ssd: 1.0 - savings.min(0.0),
            io_density: 1.0,
        }
    }

    fn state(capacity: u64) -> SystemState {
        SystemState {
            now: 0.0,
            ssd_occupancy_bytes: 0,
            ssd_capacity_bytes: capacity,
        }
    }

    #[test]
    fn high_savings_category_gets_admitted() {
        let mut p = CategoryHeuristic::new(HeuristicConfig {
            rebuild_every_jobs: 1,
            ..Default::default()
        });
        // Teach the policy that pipeline "good" saves money.
        for _ in 0..5 {
            let _ = p.place(&job("good", 10), &cost(5.0), &state(1000));
        }
        assert_eq!(
            p.place(&job("good", 10), &cost(5.0), &state(1000)),
            Device::Ssd
        );
        assert!(!p.admitted.is_empty());
    }

    #[test]
    fn negative_savings_category_is_rejected() {
        let mut p = CategoryHeuristic::new(HeuristicConfig {
            rebuild_every_jobs: 1,
            ..Default::default()
        });
        for _ in 0..5 {
            let _ = p.place(&job("bad", 10), &cost(-3.0), &state(1000));
        }
        assert_eq!(
            p.place(&job("bad", 10), &cost(-3.0), &state(1000)),
            Device::Hdd
        );
    }

    #[test]
    fn admission_set_respects_capacity() {
        let mut p = CategoryHeuristic::new(HeuristicConfig {
            rebuild_every_jobs: 1,
            ..Default::default()
        });
        // Three categories with decreasing savings, each ~100 bytes of space;
        // capacity 150 admits the best category (and possibly the second,
        // since the first admission is always kept).
        for (name, savings) in [("a", 9.0), ("b", 5.0), ("c", 1.0)] {
            for _ in 0..3 {
                let _ = p.place(&job(name, 100), &cost(savings), &state(150));
            }
        }
        let _ = p.place(&job("a", 100), &cost(9.0), &state(150));
        assert!(p.admitted.len() <= 2);
        assert_eq!(
            p.place(&job("a", 100), &cost(9.0), &state(150)),
            Device::Ssd
        );
        assert_eq!(
            p.place(&job("c", 100), &cost(1.0), &state(150)),
            Device::Hdd
        );
    }

    #[test]
    fn categories_are_tracked_separately() {
        let mut p = CategoryHeuristic::default();
        let _ = p.place(&job("x", 10), &cost(1.0), &state(100));
        let _ = p.place(&job("y", 10), &cost(1.0), &state(100));
        assert_eq!(p.stats.len(), 2);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(CategoryHeuristic::default().name(), "Heuristic");
    }
}
