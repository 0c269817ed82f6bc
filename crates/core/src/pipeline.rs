//! End-to-end BYOM pipeline: offline training → ready-to-run policies.
//!
//! Mirrors the paper's deployment flow (Figure 3, right): analyze a
//! historical window of production workloads offline, fit the category
//! labeler and the per-cluster category model, and hand the storage layer a
//! policy that combines the model's predictions with the adaptive category
//! selection algorithm. The policies minted here run that algorithm with
//! [`AdaptiveConfig::default`]; a storage layer that wants other settings
//! builds its own with [`AdaptivePolicy::new`].

use crate::adaptive::AdaptiveConfig;
use crate::categorize::{HashCategorizer, TrueCategoryOracle};
use crate::labels::CategoryLabeler;
use crate::ladder::{LadderConfig, LadderPolicy};
use crate::model::{CategoryModel, CategoryModelConfig};
use crate::policy::AdaptivePolicy;
use byom_cost::CostModel;
use byom_gbdt::{GbdtError, GbdtParams};
use byom_trace::Trace;

/// Builder for a [`ByomPipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByomPipelineBuilder {
    num_categories: usize,
    gbdt_trees: usize,
    valid_fraction: f64,
    parallelism: usize,
}

impl Default for ByomPipelineBuilder {
    fn default() -> Self {
        ByomPipelineBuilder {
            num_categories: 15,
            gbdt_trees: 300,
            valid_fraction: 0.2,
            parallelism: 0,
        }
    }
}

impl ByomPipelineBuilder {
    /// Number of importance categories N (paper default: 15).
    pub fn num_categories(mut self, n: usize) -> Self {
        self.num_categories = n;
        self
    }

    /// Maximum number of boosting rounds (paper default: 300).
    pub fn gbdt_trees(mut self, trees: usize) -> Self {
        self.gbdt_trees = trees;
        self
    }

    /// Fraction of training data held out for early stopping.
    pub fn valid_fraction(mut self, fraction: f64) -> Self {
        self.valid_fraction = fraction;
        self
    }

    /// Thread budget used while training the category model: the per-class
    /// trees of each boosting round are fitted concurrently, one thread per
    /// tree, so a budget above the category count leaves threads idle. `0`
    /// (the default) inherits the ambient budget (`BYOM_THREADS` or all
    /// cores); `1` trains strictly sequentially at every nesting level. The
    /// trained model is bit-identical regardless of this setting.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }

    /// Finalize the configuration.
    pub fn build(self) -> ByomPipeline {
        ByomPipeline { builder: self }
    }
}

/// An untrained BYOM pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByomPipeline {
    builder: ByomPipelineBuilder,
}

impl ByomPipeline {
    /// Start building a pipeline.
    pub fn builder() -> ByomPipelineBuilder {
        ByomPipelineBuilder::default()
    }

    /// The category-model configuration this pipeline will train with.
    pub fn model_config(&self) -> CategoryModelConfig {
        let b = &self.builder;
        CategoryModelConfig {
            num_categories: b.num_categories,
            gbdt: GbdtParams {
                num_classes: b.num_categories,
                num_trees: b.gbdt_trees,
                parallelism: b.parallelism,
                ..GbdtParams::default()
            },
            encoder: byom_trace::FeatureEncoder::default(),
            valid_fraction: b.valid_fraction,
        }
    }

    /// Train the labeler and category model on a historical trace, producing
    /// a [`TrainedByom`] that can mint policies.
    ///
    /// # Errors
    /// Returns an error if the trace is empty or model training fails.
    pub fn train(&self, train: &Trace, cost_model: &CostModel) -> Result<TrainedByom, GbdtError> {
        if train.is_empty() {
            return Err(GbdtError::EmptyDataset);
        }
        // Pin the pipeline's thread budget for the whole training flow, so
        // labeling and every nested level of model training share it.
        byom_exec::install(self.builder.parallelism, || {
            let costs = cost_model.cost_trace(train);
            let labeler = CategoryLabeler::fit(&costs, self.builder.num_categories);
            let model = CategoryModel::train(&self.model_config(), train, &costs, &labeler)?;
            Ok(TrainedByom {
                labeler,
                model,
                cost_model: *cost_model,
            })
        })
    }
}

/// A trained BYOM deployment: labeler and category model, ready to mint
/// placement policies.
#[derive(Debug, Clone)]
pub struct TrainedByom {
    labeler: CategoryLabeler,
    model: CategoryModel,
    cost_model: CostModel,
}

impl TrainedByom {
    /// The paper's method: model predictions + adaptive category selection.
    pub fn adaptive_ranking_policy(&self) -> AdaptivePolicy<CategoryModel> {
        AdaptivePolicy::new(self.model.clone(), AdaptiveConfig::default())
    }

    /// The non-ML ablation: hashed categories + adaptive category selection.
    pub fn adaptive_hash_policy(&self) -> AdaptivePolicy<HashCategorizer> {
        AdaptivePolicy::new(
            HashCategorizer::new(self.model.num_categories()),
            AdaptiveConfig::default(),
        )
    }

    /// The perfect-prediction upper bound: ground-truth categories + adaptive
    /// category selection (Figure 11's "True category").
    pub fn true_category_policy(&self) -> AdaptivePolicy<TrueCategoryOracle> {
        AdaptivePolicy::new(
            TrueCategoryOracle::new(self.labeler.clone(), self.cost_model),
            AdaptiveConfig::default(),
        )
    }

    /// The graceful-degradation ladder with the trained model as its top
    /// rung: model → hash → heuristic → first-fit, with default demotion and
    /// probing settings (see [`LadderConfig`]).
    pub fn ladder_policy(&self) -> LadderPolicy<CategoryModel> {
        LadderPolicy::new(self.model.clone(), LadderConfig::default())
    }

    /// The fitted category labeler.
    pub fn labeler(&self) -> &CategoryLabeler {
        &self.labeler
    }

    /// The trained category model.
    pub fn model(&self) -> &CategoryModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::Categorizer;
    use byom_cost::CostRates;
    use byom_sim::{PlacementPolicy, SimConfig, Simulator};
    use byom_trace::{ClusterSpec, TraceGenerator};

    fn quick_pipeline() -> ByomPipeline {
        ByomPipeline::builder()
            .num_categories(5)
            .gbdt_trees(15)
            .build()
    }

    fn cost_model() -> CostModel {
        CostModel::new(CostRates::default())
    }

    #[test]
    fn builder_round_trips_configuration() {
        let p = ByomPipeline::builder()
            .num_categories(7)
            .gbdt_trees(50)
            .valid_fraction(0.1)
            .build();
        let cfg = p.model_config();
        assert_eq!(cfg.num_categories, 7);
        assert_eq!(cfg.gbdt.num_trees, 50);
        assert_eq!(cfg.valid_fraction, 0.1);
    }

    #[test]
    fn trains_and_mints_all_three_policies() {
        let train = TraceGenerator::new(61).generate(&ClusterSpec::balanced(0), 8.0 * 3600.0);
        let trained = quick_pipeline().train(&train, &cost_model()).unwrap();
        let ranking = trained.adaptive_ranking_policy();
        let hash = trained.adaptive_hash_policy();
        let truth = trained.true_category_policy();
        assert_eq!(ranking.name(), "Adaptive Ranking");
        assert_eq!(hash.name(), "Adaptive Hash");
        assert_eq!(truth.name(), "Adaptive TrueCategory");
        assert_eq!(trained.labeler().num_categories(), 5);
        assert_eq!(trained.model().num_categories(), 5);
        assert_eq!(hash.categorizer().num_categories(), 5);
    }

    #[test]
    fn mints_a_ladder_policy_starting_at_the_model_rung() {
        let train = TraceGenerator::new(64).generate(&ClusterSpec::balanced(0), 8.0 * 3600.0);
        let trained = quick_pipeline().train(&train, &cost_model()).unwrap();
        let ladder = trained.ladder_policy();
        assert_eq!(ladder.name(), "Ladder Ranking");
        assert_eq!(ladder.health().active_rung(), 0);
        assert_eq!(ladder.rung_occupancy(), [0; crate::ladder::LADDER_RUNGS]);
    }

    #[test]
    fn empty_training_trace_is_an_error() {
        let err = quick_pipeline().train(&Trace::default(), &cost_model());
        assert!(err.is_err());
    }

    #[test]
    fn end_to_end_ranking_beats_hash_at_tight_quota() {
        // The headline qualitative claim: with a tight SSD quota, the learned
        // ranking categorizer saves more TCO than the non-ML hash ablation.
        let generator = TraceGenerator::new(62);
        let spec = ClusterSpec::balanced(0);
        let train = generator.generate(&spec, 16.0 * 3600.0);
        let test = TraceGenerator::new(63).generate(&spec, 8.0 * 3600.0);
        let cm = cost_model();
        let trained = ByomPipeline::builder()
            .num_categories(8)
            .gbdt_trees(40)
            .build()
            .train(&train, &cm)
            .unwrap();

        let sim = Simulator::new(
            SimConfig::try_from_quota_fraction(&test, 0.01).expect("valid quota fraction"),
            cm,
        );
        let ranking = sim.run(&test, &mut trained.adaptive_ranking_policy());
        let hash = sim.run(&test, &mut trained.adaptive_hash_policy());
        assert!(
            ranking.tco_savings_percent() >= hash.tco_savings_percent(),
            "ranking {:.3}% should be >= hash {:.3}%",
            ranking.tco_savings_percent(),
            hash.tco_savings_percent()
        );
    }
}
