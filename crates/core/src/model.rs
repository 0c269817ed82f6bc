//! The application-layer category model.
//!
//! A [`CategoryModel`] is the small, interpretable model each workload
//! "brings": a gradient-boosted-tree classifier over the features of Table 2
//! that predicts a job's importance-ranking category. The paper trains one
//! model per cluster (jointly over that cluster's workloads); nothing in this
//! API prevents finer or coarser granularity.
//!
//! A prediction depends only on the model and the job's pre-execution
//! features, so an experiment that replays one model on one trace many
//! times predicts every job once with [`CategoryModel::predict_trace`] and
//! replays from the resulting [`Predictions`].

use crate::categorize::Categorizer;
use crate::labels::CategoryLabeler;
use byom_cost::JobCost;
use byom_exec::prelude::*;
use byom_gbdt::{
    auc_drop_importance, importance::group_importance, top_k_accuracy, Dataset, GbdtError,
    GbdtParams, GradientBoostedTrees,
};
use byom_trace::{FeatureEncoder, FeatureGroup, JobFeatures, JobId, ShuffleJob, Trace};
use std::collections::BTreeMap;

/// The categorizer name of a category model and of its [`Predictions`].
const NAME: &str = "Ranking";

/// Configuration for training a [`CategoryModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryModelConfig {
    /// Number of importance categories N (the paper's default is 15).
    pub num_categories: usize,
    /// Boosting parameters (the `num_classes` field is overridden by
    /// `num_categories`).
    pub gbdt: GbdtParams,
    /// Feature encoder (numeric pass-through + metadata hashing).
    pub encoder: FeatureEncoder,
    /// Fraction of the training data held out for early stopping; 0 disables
    /// the validation split.
    pub valid_fraction: f64,
}

impl Default for CategoryModelConfig {
    fn default() -> Self {
        CategoryModelConfig {
            num_categories: 15,
            gbdt: GbdtParams::paper_default(15),
            encoder: FeatureEncoder::default(),
            valid_fraction: 0.2,
        }
    }
}

/// Evaluation summary of a trained category model on a labelled dataset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelEvaluation {
    /// Top-1 classification accuracy.
    pub top1_accuracy: f64,
    /// Top-3 classification accuracy.
    pub top3_accuracy: f64,
    /// Number of evaluated examples.
    pub num_examples: usize,
    /// Number of training examples the model was fit on.
    pub training_size: usize,
}

/// A trained per-cluster (or per-workload) category model.
#[derive(Debug, Clone)]
pub struct CategoryModel {
    encoder: FeatureEncoder,
    model: GradientBoostedTrees,
    num_categories: usize,
    training_size: usize,
}

impl CategoryModel {
    /// Train a category model on a historical trace whose per-job costs and
    /// labels come from `costs` and `labeler`. Encoding the trace runs under
    /// the ambient `byom_exec` budget, and training under
    /// `config.gbdt.parallelism` within it.
    ///
    /// # Errors
    /// Returns an error if the trace is empty or model training fails.
    ///
    /// # Panics
    /// Panics if `trace` and `costs` have different lengths.
    pub fn train(
        config: &CategoryModelConfig,
        trace: &Trace,
        costs: &[JobCost],
        labeler: &CategoryLabeler,
    ) -> Result<Self, GbdtError> {
        assert_eq!(trace.len(), costs.len(), "trace and costs must be parallel");
        let data = encode_dataset(&config.encoder, trace, labeler.label_all(costs))?;

        let params = GbdtParams {
            num_classes: config.num_categories,
            ..config.gbdt
        };
        let model = if config.valid_fraction > 0.0 && data.len() >= 20 {
            let mut rng = rand_seed(params.seed);
            let (train, valid) = data.split(&mut rng, config.valid_fraction);
            GradientBoostedTrees::train(&params, &train, Some(&valid))?
        } else {
            GradientBoostedTrees::train(&params, &data, None)?
        };
        Ok(CategoryModel {
            encoder: config.encoder,
            model,
            num_categories: config.num_categories,
            training_size: trace.len(),
        })
    }

    /// Predict the importance category of a job from its pre-execution
    /// features.
    pub fn predict_category(&self, features: &JobFeatures) -> usize {
        self.model.predict(&self.encoder.encode(features))
    }

    /// Predicted probability distribution over categories.
    pub fn predict_proba(&self, features: &JobFeatures) -> Vec<f64> {
        self.model.predict_proba(&self.encoder.encode(features))
    }

    /// Predict every job of `trace` once, in parallel under the ambient
    /// `byom_exec` budget. The returned [`Predictions`] answer, for each job
    /// of `trace`, exactly what this model's [`Categorizer`] methods answer.
    pub fn predict_trace(&self, trace: &Trace) -> Predictions {
        let by_job = trace
            .jobs()
            .par_iter()
            .map(|job| {
                let (category, proba) = self
                    .model
                    .predict_with_proba(&self.encoder.encode(&job.features));
                let prediction = Prediction {
                    category,
                    most_likely: most_likely(&proba),
                };
                (job.id, prediction)
            })
            .collect();
        Predictions {
            num_categories: self.num_categories,
            by_job,
        }
    }

    /// Evaluate top-1/top-3 accuracy on a labelled test trace.
    ///
    /// # Panics
    /// Panics if `trace` and `costs` have different lengths.
    pub fn evaluate(
        &self,
        trace: &Trace,
        costs: &[JobCost],
        labeler: &CategoryLabeler,
    ) -> ModelEvaluation {
        assert_eq!(trace.len(), costs.len(), "trace and costs must be parallel");
        if trace.is_empty() {
            return ModelEvaluation {
                training_size: self.training_size,
                ..Default::default()
            };
        }
        let truth = labeler.label_all(costs);
        let mut predictions = Vec::with_capacity(trace.len());
        let mut probabilities = Vec::with_capacity(trace.len());
        for job in trace.iter() {
            let p = self.predict_proba(&job.features);
            predictions.push(argmax(&p));
            probabilities.push(p);
        }
        ModelEvaluation {
            top1_accuracy: byom_gbdt::accuracy(&predictions, &truth),
            top3_accuracy: top_k_accuracy(&probabilities, &truth, 3),
            num_examples: trace.len(),
            training_size: self.training_size,
        }
    }

    /// Per-category feature-*group* importance (Figure 9c): for each
    /// category, the AUC decrease attributable to each of the four feature
    /// groups (A: historical metrics, B: execution metadata, C: allocated
    /// resources, T: timestamp), normalized within the category.
    ///
    /// # Errors
    /// Returns an error if the evaluation data cannot be assembled.
    ///
    /// # Panics
    /// Panics if `trace` and `costs` have different lengths.
    pub fn feature_group_importance(
        &self,
        trace: &Trace,
        costs: &[JobCost],
        labeler: &CategoryLabeler,
        seed: u64,
    ) -> Result<Vec<Vec<f64>>, GbdtError> {
        assert_eq!(trace.len(), costs.len(), "trace and costs must be parallel");
        let data = encode_dataset(&self.encoder, trace, labeler.label_all(costs))?;
        let per_feature = auc_drop_importance(&self.model, &data, seed);
        let group_of: Vec<usize> = self
            .encoder
            .feature_groups()
            .iter()
            .map(|g| group_index(*g))
            .collect();
        Ok(group_importance(&per_feature, &group_of, 4))
    }

    /// Number of categories the model predicts.
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// Number of training examples the model was fit on.
    pub fn training_size(&self) -> usize {
        self.training_size
    }

    /// The underlying boosted-tree ensemble.
    pub fn gbdt(&self) -> &GradientBoostedTrees {
        &self.model
    }

    /// The feature encoder used at training time.
    pub fn encoder(&self) -> &FeatureEncoder {
        &self.encoder
    }
}

impl Categorizer for CategoryModel {
    fn name(&self) -> &str {
        NAME
    }

    fn categorize(&self, job: &ShuffleJob) -> Option<usize> {
        Some(self.predict_category(&job.features))
    }

    fn categorize_with_confidence(&self, job: &ShuffleJob) -> Option<(usize, f64)> {
        Some(most_likely(&self.predict_proba(&job.features)))
    }

    fn num_categories(&self) -> usize {
        self.num_categories
    }
}

/// One job's answers under a [`CategoryModel`].
#[derive(Debug, Clone)]
struct Prediction {
    /// What [`Categorizer::categorize`] answers.
    category: usize,
    /// What [`Categorizer::categorize_with_confidence`] answers.
    most_likely: (usize, f64),
}

/// A category model's answers for every job of one trace, computed once by
/// [`CategoryModel::predict_trace`] and looked up by [`JobId`].
///
/// As a [`Categorizer`] it carries the model's name and category count, so
/// an [`AdaptivePolicy`](crate::policy::AdaptivePolicy) over it is named
/// "Adaptive Ranking" and replays that trace exactly as one over the model
/// would. A job that is not in the table answers `None`; it is never
/// predicted afresh.
#[derive(Debug, Clone)]
pub struct Predictions {
    num_categories: usize,
    by_job: BTreeMap<JobId, Prediction>,
}

impl Categorizer for Predictions {
    fn name(&self) -> &str {
        NAME
    }

    fn categorize(&self, job: &ShuffleJob) -> Option<usize> {
        self.by_job.get(&job.id).map(|p| p.category)
    }

    fn categorize_with_confidence(&self, job: &ShuffleJob) -> Option<(usize, f64)> {
        self.by_job.get(&job.id).map(|p| p.most_likely)
    }

    fn num_categories(&self) -> usize {
        self.num_categories
    }
}

/// The canonical index of a feature group in Figure 9c order (A, B, C, T).
pub fn group_index(group: FeatureGroup) -> usize {
    match group {
        FeatureGroup::HistoricalSystemMetrics => 0,
        FeatureGroup::ExecutionMetadata => 1,
        FeatureGroup::AllocatedResources => 2,
        FeatureGroup::JobTimestamp => 3,
    }
}

/// Encode every job of `trace` into a dataset with `labels`, in parallel
/// under the ambient `byom_exec` budget (see [`Dataset::from_fn`]).
fn encode_dataset(
    encoder: &FeatureEncoder,
    trace: &Trace,
    labels: Vec<usize>,
) -> Result<Dataset, GbdtError> {
    let jobs = trace.jobs();
    Dataset::from_fn(encoder.num_features(), labels, |i, row| {
        if let Some(job) = jobs.get(i) {
            encoder.encode_into(&job.features, row);
        }
    })
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The most likely category of a predicted distribution and its
/// probability.
fn most_likely(proba: &[f64]) -> (usize, f64) {
    let category = argmax(proba);
    (category, proba.get(category).copied().unwrap_or(0.0))
}

fn rand_seed(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_cost::{CostModel, CostRates};
    use byom_trace::{ClusterSpec, TraceGenerator};

    fn small_config(categories: usize) -> CategoryModelConfig {
        CategoryModelConfig {
            num_categories: categories,
            gbdt: GbdtParams {
                num_classes: categories,
                num_trees: 15,
                ..GbdtParams::default()
            },
            encoder: FeatureEncoder::default(),
            valid_fraction: 0.2,
        }
    }

    fn setup(seed: u64, hours: f64, categories: usize) -> (Trace, Vec<JobCost>, CategoryLabeler) {
        let trace = TraceGenerator::new(seed).generate(&ClusterSpec::balanced(0), hours * 3600.0);
        let costs = CostModel::new(CostRates::default()).cost_trace(&trace);
        let labeler = CategoryLabeler::fit(&costs, categories);
        (trace, costs, labeler)
    }

    #[test]
    fn trains_and_predicts_valid_categories() {
        let (trace, costs, labeler) = setup(41, 6.0, 5);
        let model = CategoryModel::train(&small_config(5), &trace, &costs, &labeler).unwrap();
        for job in trace.iter().take(100) {
            let c = model.predict_category(&job.features);
            assert!(c < 5);
            let p = model.predict_proba(&job.features);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert_eq!(model.num_categories(), 5);
        assert_eq!(model.training_size(), trace.len());
    }

    #[test]
    fn beats_random_guessing_on_held_out_data() {
        let (train, train_costs, labeler) = setup(42, 10.0, 5);
        let (test, test_costs, _) = setup(43, 4.0, 5);
        let model = CategoryModel::train(&small_config(5), &train, &train_costs, &labeler).unwrap();
        let eval = model.evaluate(&test, &test_costs, &labeler);
        assert!(eval.num_examples > 0);
        assert!(
            eval.top1_accuracy > 1.0 / 5.0,
            "top-1 accuracy {} not better than random",
            eval.top1_accuracy
        );
        assert!(eval.top3_accuracy >= eval.top1_accuracy);
    }

    #[test]
    fn group_importance_has_expected_shape_and_normalization() {
        let (trace, costs, labeler) = setup(44, 5.0, 3);
        let model = CategoryModel::train(&small_config(3), &trace, &costs, &labeler).unwrap();
        let (test, test_costs, _) = setup(45, 2.0, 3);
        let gi = model
            .feature_group_importance(&test, &test_costs, &labeler, 1)
            .unwrap();
        assert_eq!(gi.len(), 3);
        for row in &gi {
            assert_eq!(row.len(), 4);
            assert!(row.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn categorizer_trait_is_consistent_with_predict() {
        let (trace, costs, labeler) = setup(46, 4.0, 4);
        let model = CategoryModel::train(&small_config(4), &trace, &costs, &labeler).unwrap();
        for job in trace.iter().take(20) {
            assert_eq!(
                model.categorize(job),
                Some(model.predict_category(&job.features))
            );
        }
        assert_eq!(Categorizer::num_categories(&model), 4);
        assert_eq!(model.name(), "Ranking");
    }

    #[test]
    fn predictions_answer_what_the_model_answers() {
        let (trace, costs, labeler) = setup(49, 4.0, 5);
        let model = CategoryModel::train(&small_config(5), &trace, &costs, &labeler).unwrap();
        let (test, _, _) = setup(50, 2.0, 5);
        let predictions = model.predict_trace(&test);
        assert!(!test.is_empty());
        for job in test.iter() {
            assert_eq!(predictions.categorize(job), model.categorize(job));
            let (category, confidence) = predictions.categorize_with_confidence(job).unwrap();
            let (live_category, live_confidence) = model.categorize_with_confidence(job).unwrap();
            assert_eq!(category, live_category, "job {:?}", job.id);
            assert_eq!(
                confidence.to_bits(),
                live_confidence.to_bits(),
                "job {:?}",
                job.id
            );
        }
        assert_eq!(predictions.name(), model.name());
        assert_eq!(
            Categorizer::num_categories(&predictions),
            Categorizer::num_categories(&model)
        );
        // The training trace runs longer, so its last job's id is not in
        // the test trace's table.
        let unseen = trace.jobs().last().unwrap();
        assert!(unseen.id.0 >= test.len() as u64);
        assert_eq!(predictions.categorize(unseen), None);
        assert_eq!(predictions.categorize_with_confidence(unseen), None);
    }

    #[test]
    fn evaluate_on_empty_trace_is_zero() {
        let (trace, costs, labeler) = setup(47, 4.0, 3);
        let model = CategoryModel::train(&small_config(3), &trace, &costs, &labeler).unwrap();
        let empty = Trace::default();
        let eval = model.evaluate(&empty, &[], &labeler);
        assert_eq!(eval.num_examples, 0);
        assert_eq!(eval.top1_accuracy, 0.0);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_costs_panics() {
        let (trace, costs, labeler) = setup(48, 3.0, 3);
        let _ = CategoryModel::train(&small_config(3), &trace, &costs[..1], &labeler);
    }
}
