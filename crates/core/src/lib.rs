//! The BYOM ("bring your own model") cross-layer storage placement approach.
//!
//! This crate implements the paper's primary contribution (Section 4):
//!
//! 1. **Category labels** ([`labels`]): the oracle-inspired importance
//!    ranking — category 0 for jobs whose SSD placement would *lose* money
//!    (negative TCO savings), and categories `1..N-1` formed by
//!    equal-frequency I/O-density quantiles of the training set.
//! 2. **Application-layer category models** ([`model`]): per-cluster (or
//!    per-workload) gradient-boosted-tree classifiers that rank an arriving
//!    job's importance from features available *before* it executes.
//! 3. **The adaptive category selection algorithm** ([`adaptive`],
//!    Algorithm 1): the storage-layer heuristic that slides an admission
//!    category threshold (ACT) in response to the observed spillover-TCIO
//!    percentage, so the same model adapts to whatever SSD capacity happens
//!    to be available.
//! 4. **Placement policies** ([`policy`]): `Adaptive Ranking` (the paper's
//!    method) and `Adaptive Hash` (the non-ML ablation), both implementing
//!    [`byom_sim::PlacementPolicy`].
//! 5. **An end-to-end pipeline** ([`pipeline`]): train per-cluster models on
//!    a historical week of data and produce ready-to-run policies, mirroring
//!    the paper's offline-train / online-deploy flow.
//!
//! ```
//! use byom_core::ByomPipeline;
//! use byom_cost::{CostModel, CostRates};
//! use byom_trace::{ClusterSpec, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let generator = TraceGenerator::new(7);
//! let spec = ClusterSpec::balanced(0);
//! let train = generator.generate(&spec, 6.0 * 3600.0);
//! let cost_model = CostModel::new(CostRates::default());
//!
//! let pipeline = ByomPipeline::builder()
//!     .num_categories(5)
//!     .gbdt_trees(20)
//!     .build()
//!     .train(&train, &cost_model)?;
//! let mut policy = pipeline.adaptive_ranking_policy();
//!
//! // `policy` now plugs into the simulator like any baseline.
//! # let _ = &mut policy;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod categorize;
pub mod labels;
pub mod ladder;
pub mod model;
pub mod pipeline;
pub mod policy;

pub use adaptive::{AdaptiveConfig, AdaptiveSelector, FeedbackSignal};
pub use categorize::{Categorizer, HashCategorizer, TrueCategoryOracle};
pub use labels::CategoryLabeler;
pub use ladder::{HealthTracker, LadderConfig, LadderPolicy, LADDER_RUNGS, RUNG_NAMES};
pub use model::{CategoryModel, CategoryModelConfig, ModelEvaluation, Predictions};
pub use pipeline::{ByomPipeline, ByomPipelineBuilder, TrainedByom};
pub use policy::AdaptivePolicy;
