//! Categorizers: ways of turning an arriving job into an importance-ranking
//! category for the adaptive selection algorithm.
//!
//! Three categorizers are used in the paper's evaluation:
//!
//! * the learned [`CategoryModel`](crate::model::CategoryModel) (Adaptive
//!   Ranking, the paper's method);
//! * [`HashCategorizer`] — the non-ML ablation (Adaptive Hash), which spreads
//!   pipelines uniformly over the positive categories by hashing their
//!   identity;
//! * [`TrueCategoryOracle`] — replays the ground-truth category computed from
//!   the job's measured cost, used for Figure 11's "True category" line.
//!
//! [`Predictions`](crate::model::Predictions) replays a category model's
//! answers on one trace from a table, so the experiments that replay a model
//! many times predict each job once.

use crate::labels::CategoryLabeler;
use byom_cost::CostModel;
use byom_trace::ShuffleJob;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Maps an arriving job to a predicted importance-ranking category.
pub trait Categorizer {
    /// Short name used to build policy names (e.g. "Ranking", "Hash").
    fn name(&self) -> &str;

    /// Predict the category of a job from information available before it
    /// executes, or `None` if no prediction is available at the job's
    /// arrival (in fault-injection runs, a blackout window). What a missing
    /// prediction means is the caller's decision: see
    /// [`AdaptivePolicy`](crate::policy::AdaptivePolicy) and
    /// [`LadderPolicy`](crate::ladder::LadderPolicy).
    fn categorize(&self, job: &ShuffleJob) -> Option<usize>;

    /// Predict the category together with the categorizer's confidence in
    /// `[0, 1]`. Deterministic categorizers (hash, oracle) are fully
    /// confident; learned models override this with their predicted class
    /// probability. Fault-injection layers use the confidence to calibrate
    /// label-flip faults.
    fn categorize_with_confidence(&self, job: &ShuffleJob) -> Option<(usize, f64)> {
        self.categorize(job).map(|c| (c, 1.0))
    }

    /// Number of categories this categorizer produces.
    fn num_categories(&self) -> usize;
}

/// The non-ML ablation: hash the job's pipeline identity into one of the
/// positive categories `1..N-1`. This preserves the adaptive algorithm's
/// structure while removing any learned notion of importance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashCategorizer {
    num_categories: usize,
}

impl HashCategorizer {
    /// Create a hash categorizer with `num_categories` categories.
    ///
    /// # Panics
    /// Panics if `num_categories < 2`.
    pub fn new(num_categories: usize) -> Self {
        assert!(num_categories >= 2, "need at least 2 categories");
        HashCategorizer { num_categories }
    }
}

impl Categorizer for HashCategorizer {
    fn name(&self) -> &str {
        "Hash"
    }

    fn categorize(&self, job: &ShuffleJob) -> Option<usize> {
        let mut hasher = DefaultHasher::new();
        job.features.pipeline_name.hash(&mut hasher);
        job.features.execution_name.hash(&mut hasher);
        let positive = self.num_categories - 1;
        Some(1 + (hasher.finish() % positive as u64) as usize)
    }

    fn num_categories(&self) -> usize {
        self.num_categories
    }
}

/// Ground-truth categorizer: computes the job's *actual* category from its
/// measured cost using the fitted labeler (100% accurate "prediction").
/// Only usable in simulation, where post-execution measurements exist.
#[derive(Debug, Clone)]
pub struct TrueCategoryOracle {
    labeler: CategoryLabeler,
    cost_model: CostModel,
}

impl TrueCategoryOracle {
    /// Create a ground-truth categorizer from a fitted labeler and the cost
    /// model used to measure jobs.
    pub fn new(labeler: CategoryLabeler, cost_model: CostModel) -> Self {
        TrueCategoryOracle {
            labeler,
            cost_model,
        }
    }
}

impl Categorizer for TrueCategoryOracle {
    fn name(&self) -> &str {
        "TrueCategory"
    }

    fn categorize(&self, job: &ShuffleJob) -> Option<usize> {
        Some(self.labeler.label(&self.cost_model.cost_job(job)))
    }

    fn num_categories(&self) -> usize {
        self.labeler.num_categories()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_cost::CostRates;
    use byom_trace::{ClusterSpec, TraceGenerator};

    #[test]
    fn hash_categorizer_is_deterministic_and_in_range() {
        let trace = TraceGenerator::new(31).generate(&ClusterSpec::balanced(0), 3_600.0);
        let cat = HashCategorizer::new(15);
        for job in trace.iter() {
            let c = cat.categorize(job).expect("hash always predicts");
            assert!((1..15).contains(&c));
            assert_eq!(Some(c), cat.categorize(job));
        }
        assert_eq!(cat.num_categories(), 15);
        assert_eq!(cat.name(), "Hash");
    }

    #[test]
    fn hash_categorizer_spreads_pipelines_across_categories() {
        let trace = TraceGenerator::new(32).generate(&ClusterSpec::balanced(0), 14_400.0);
        let cat = HashCategorizer::new(8);
        let distinct: std::collections::BTreeSet<usize> =
            trace.iter().filter_map(|j| cat.categorize(j)).collect();
        assert!(distinct.len() >= 4, "expected spread, got {distinct:?}");
    }

    #[test]
    #[should_panic(expected = "at least 2 categories")]
    fn hash_categorizer_rejects_one_category() {
        let _ = HashCategorizer::new(1);
    }

    #[test]
    fn true_category_oracle_matches_labeler() {
        let trace = TraceGenerator::new(33).generate(&ClusterSpec::balanced(0), 7_200.0);
        let cost_model = CostModel::new(CostRates::default());
        let costs = cost_model.cost_trace(&trace);
        let labeler = CategoryLabeler::fit(&costs, 5);
        let oracle = TrueCategoryOracle::new(labeler.clone(), cost_model);
        for (job, cost) in trace.iter().zip(&costs) {
            assert_eq!(oracle.categorize(job), Some(labeler.label(cost)));
        }
        assert_eq!(oracle.num_categories(), 5);
    }
}
