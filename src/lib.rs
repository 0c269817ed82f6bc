//! # BYOM storage placement — reproduction facade
//!
//! This crate re-exports the full reproduction of *"A Bring-Your-Own-Model
//! Approach for ML-Driven Storage Placement in Warehouse-Scale Computers"*
//! (MLSys 2025) under a single dependency, so downstream users can write
//! `use byom::prelude::*;` and get the trace generator, cost model,
//! GBDT library, oracle solver, simulator, baseline policies, and the BYOM
//! pipeline itself.
//!
//! The individual crates remain usable on their own:
//!
//! | crate | contents |
//! |---|---|
//! | [`trace`] | synthetic production traces, job model, features, encoder |
//! | [`cost`] | TCIO / TCO cost model and savings accounting |
//! | [`gbdt`] | gradient boosted decision trees (training, inference, importance) |
//! | [`solver`] | clairvoyant temporal-knapsack oracle |
//! | [`sim`] | SSD/HDD tiering simulator with spillover |
//! | [`policies`] | FirstFit, CacheSack-style heuristic, ML lifetime baseline |
//! | [`core`] | category labels, category models, Algorithm 1, BYOM pipeline |
//! | [`chaos`] | seeded fault injection and the graceful-degradation harness |
//! | [`exec`] | deterministic parallel map under one process-wide thread budget |
//!
//! ## Quickstart
//!
//! ```
//! use byom::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A synthetic "historical week" of one cluster's shuffle jobs.
//! let train = TraceGenerator::new(1).generate(&ClusterSpec::balanced(0), 4.0 * 3600.0);
//! let test = TraceGenerator::new(2).generate(&ClusterSpec::balanced(0), 2.0 * 3600.0);
//! let cost_model = CostModel::new(CostRates::default());
//!
//! // 2. Train the BYOM deployment (labeler + per-cluster category model).
//! let trained = ByomPipeline::builder()
//!     .num_categories(5)
//!     .gbdt_trees(10)
//!     .build()
//!     .train(&train, &cost_model)?;
//!
//! // 3. Replay the online week against the adaptive ranking policy.
//! let sim = Simulator::new(SimConfig::try_from_quota_fraction(&test, 0.05).expect("valid quota fraction"), cost_model);
//! let result = sim.run(&test, &mut trained.adaptive_ranking_policy());
//! println!("TCO savings: {:.2}%", result.tco_savings_percent());
//! # Ok(())
//! # }
//! ```
//!
//! ## Running experiments in parallel
//!
//! All parallelism goes through one parallel map ([`exec`]): every layer —
//! per-class tree fitting, feature-parallel histogram fills, cluster/quota
//! sweeps, the resilience sweep — runs on the calling thread plus scoped
//! threads that end with the call. Each of those threads runs its closures
//! under an equal share of the call's budget, so nested fan-outs share a
//! **single thread budget** rather than multiplying:
//!
//! * `0` = inherit the ambient budget (`BYOM_THREADS` if set, otherwise all
//!   available cores),
//! * `n` = cap the subtree at `n` threads: no more than `n` closures run at
//!   once beneath it (budgets only shrink with nesting),
//! * `1` = strictly sequential at every nesting level.
//!
//! Every parallel entry point is **deterministic**: threads claim item
//! indices and results are put back in index order, so any budget or
//! schedule produces bit-identical models and results.
//!
//! * [`ByomPipeline`](byom_core::ByomPipeline) takes a
//!   `.parallelism(n)` builder knob; the per-class trees of each boosting
//!   round are fitted concurrently and large tree nodes fill their
//!   per-feature histograms column-parallel
//!   ([`GbdtParams::parallelism`](byom_gbdt::GbdtParams)).
//! * `byom_bench::run_clusters_parallel` fans a per-cluster experiment
//!   out, `byom_bench::run_quotas_parallel` sweeps the quota
//!   operating points of one prepared context, and
//!   `byom_bench::run_resilience_sweep` fans out its fault intensities —
//!   each returns exactly what the sequential loop it replaces would.
//! * [`exec::install`]`(n, f)` pins the budget for everything `f` does; the
//!   `par_iter()` surface composes freely beneath it.
//!
//! ```
//! use byom::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ClusterSpec::balanced(0);
//! let train = TraceGenerator::new(1).generate(&spec, 4.0 * 3600.0);
//! let cost_model = CostModel::new(CostRates::default());
//! // Train across all cores; the model is identical to a sequential run.
//! let trained = ByomPipeline::builder()
//!     .num_categories(5)
//!     .gbdt_trees(10)
//!     .parallelism(0)
//!     .build()
//!     .train(&train, &cost_model)?;
//! # let _ = trained;
//! # Ok(())
//! # }
//! ```
//!
//! The `perfbench` benchmark (`BENCHMARK.json`, `perfbench/README.md`)
//! reports training and sweep wall-clock times together with the process's
//! CPU utilisation during each.
//!
//! ## The histogram engine
//!
//! GBDT training runs on a histogram engine ([`gbdt::histogram`]): features
//! are pre-binned into a column-major
//! [`BinnedMatrix`](byom_gbdt::BinnedMatrix) so
//! per-node fills stream contiguous columns, per-node buffers are pooled,
//! and each split builds only the smaller child's histogram and derives the
//! sibling as `parent − child`. Fits are bit-identical across thread counts
//! and repeated runs. Against the pre-engine algorithm, frozen in
//! `byom_bench::legacy_tree`, they choose the same splits, and leaf values
//! differ only in the last ULPs because subtraction changes the float
//! accumulation order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use byom_chaos as chaos;
pub use byom_core as core;
pub use byom_cost as cost;
pub use byom_exec as exec;
pub use byom_gbdt as gbdt;
pub use byom_policies as policies;
pub use byom_sim as sim;
pub use byom_solver as solver;
pub use byom_trace as trace;

/// Commonly used types from across the workspace.
pub mod prelude {
    pub use byom_chaos::{FaultPlan, FaultyCategorizer, FaultyDevice};
    pub use byom_core::{
        AdaptiveConfig, AdaptivePolicy, ByomPipeline, CategoryLabeler, CategoryModel,
        CategoryModelConfig, HashCategorizer, LadderConfig, LadderPolicy, TrainedByom,
    };
    pub use byom_cost::{CostModel, CostRates, JobCost, Placement, SavingsSummary};
    pub use byom_gbdt::{BinnedMatrix, Dataset, GbdtParams, GradientBoostedTrees, TreeParams};
    pub use byom_policies::{CategoryHeuristic, FirstFit, LifetimeMlBaseline, OraclePolicy};
    pub use byom_sim::{
        application_runtime_savings_percent, Device, JobOutcome, PlacementPolicy, SimConfig,
        SimulationResult, Simulator, SystemState,
    };
    pub use byom_solver::{Oracle, OracleObjective, OracleSolution};
    pub use byom_trace::{
        Archetype, ClusterSpec, FeatureEncoder, JobFeatures, JobId, ShuffleJob, Trace,
        TraceGenerator,
    };
}
