//! Experiment setup and the compared-methods runner.

use byom_core::{AdaptiveConfig, AdaptivePolicy, ByomPipeline, Predictions, TrainedByom};
use byom_cost::{CostModel, CostRates};
use byom_exec::prelude::*;
use byom_policies::{
    CategoryHeuristic, FirstFit, LifetimeMlBaseline, LifetimeModelConfig, OraclePolicy,
};
use byom_sim::{PlacementPolicy, SimConfig, SimulationResult, Simulator};
use byom_solver::{Oracle, OracleObjective};
use byom_trace::{ClusterSpec, JobId, Trace, TraceGenerator};

/// Parameters shared by most experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentParams {
    /// RNG seed for the training trace.
    pub train_seed: u64,
    /// RNG seed for the test trace.
    pub test_seed: u64,
    /// Training trace duration in hours (the paper uses one week; the
    /// default here is scaled down so experiments finish in minutes).
    pub train_hours: f64,
    /// Test trace duration in hours.
    pub test_hours: f64,
    /// Number of importance categories N.
    pub num_categories: usize,
    /// Maximum boosting rounds for the category model.
    pub gbdt_trees: usize,
    /// Thread budget for model training and the parallel sweep helpers
    /// ([`run_clusters_parallel`], [`run_quotas_parallel`],
    /// `run_resilience_sweep`). It is one budget for the whole experiment
    /// rather than a per-level multiplier: each thread of a fan-out
    /// (clusters × per-class trees) runs its share of it, so no more than
    /// this many closures run at once; each tree fits on one thread. `0`
    /// means "inherit the ambient budget" (`BYOM_THREADS` or all cores at
    /// top level); `1` forces strictly sequential execution at every nesting
    /// level. Results are bit-identical regardless of this setting.
    pub parallelism: usize,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            train_seed: 1001,
            test_seed: 2002,
            train_hours: 12.0,
            test_hours: 6.0,
            num_categories: 15,
            gbdt_trees: 50,
            parallelism: 0,
        }
    }
}

/// A fully prepared experiment: train/test traces, cost model, and a trained
/// BYOM deployment for one cluster.
#[derive(Debug)]
pub struct ExperimentContext {
    /// The cluster specification the traces were generated from.
    pub spec: ClusterSpec,
    /// Training trace (the "historical week").
    pub train: Trace,
    /// Test trace (the "online week").
    pub test: Trace,
    /// The cost model.
    pub cost_model: CostModel,
    /// The trained BYOM deployment (labeler + category model).
    pub trained: TrainedByom,
    /// Parameters used to build the context.
    pub params: ExperimentParams,
}

/// One method's savings at one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method name as used in the paper's figures.
    pub method: String,
    /// TCO savings percent relative to all-on-HDD.
    pub tco_savings_percent: f64,
    /// TCIO savings percent relative to all-on-HDD.
    pub tcio_savings_percent: f64,
}

impl ExperimentContext {
    /// Build an experiment context for one cluster.
    ///
    /// # Panics
    /// Panics if model training fails (which would indicate an empty or
    /// degenerate generated trace).
    pub fn prepare(spec: ClusterSpec, params: ExperimentParams) -> Self {
        // Pin the experiment's thread budget for everything preparation does
        // (trace generation, labeling, model training): nested parallel
        // calls inherit it instead of falling back to "all cores".
        byom_exec::install(params.parallelism, || {
            let train =
                TraceGenerator::new(params.train_seed).generate(&spec, params.train_hours * 3600.0);
            let test =
                TraceGenerator::new(params.test_seed).generate(&spec, params.test_hours * 3600.0);
            let cost_model = CostModel::new(CostRates::default());
            let trained = ByomPipeline::builder()
                .num_categories(params.num_categories)
                .gbdt_trees(params.gbdt_trees)
                .parallelism(params.parallelism)
                .build()
                .train(&train, &cost_model)
                .expect("training the category model on a generated trace should succeed");
            ExperimentContext {
                spec,
                train,
                test,
                cost_model,
                trained,
                params,
            }
        })
    }

    /// Convenience: a balanced single-cluster context with default parameters.
    pub fn default_cluster() -> Self {
        ExperimentContext::prepare(ClusterSpec::balanced(0), ExperimentParams::default())
    }

    /// The simulator for a given SSD quota (fraction of the test trace's peak
    /// space usage).
    pub fn simulator(&self, quota_fraction: f64) -> Simulator {
        Simulator::new(
            SimConfig::try_from_quota_fraction(&self.test, quota_fraction)
                .expect("valid quota fraction"),
            self.cost_model,
        )
    }

    /// Run one policy on the test trace at the given quota.
    pub fn run_policy<P: PlacementPolicy + ?Sized>(
        &self,
        quota_fraction: f64,
        policy: &mut P,
    ) -> SimulationResult {
        self.simulator(quota_fraction).run(&self.test, policy)
    }

    /// Run the clairvoyant oracle (as a playback policy) on the test trace.
    pub fn run_oracle(&self, quota_fraction: f64, objective: OracleObjective) -> SimulationResult {
        self.run_oracle_on(&self.simulator(quota_fraction), objective)
    }

    /// Solve the oracle at `sim`'s quota and replay it through `sim`.
    fn run_oracle_on(&self, sim: &Simulator, objective: OracleObjective) -> SimulationResult {
        let costs = self.cost_model.cost_trace(&self.test);
        let solution = Oracle::new(objective, sim.config().ssd_capacity_bytes).solve(&costs);
        let ids: Vec<JobId> = self.test.iter().map(|j| j.id).collect();
        let name = match objective {
            OracleObjective::Tco => "Oracle TCO",
            OracleObjective::Tcio => "Oracle TCIO",
        };
        let mut policy = OraclePolicy::from_selection(name, &ids, &solution.on_ssd);
        sim.run(&self.test, &mut policy)
    }

    /// Run every compared method at the given quota and return one
    /// [`MethodResult`] per method, in the paper's usual order.
    ///
    /// `include_oracles` controls whether the clairvoyant bounds are included
    /// (they are the slowest part for large traces). Everything runs under
    /// `params.parallelism`, so a budget of 1 is strictly sequential at every
    /// nesting level. It trains the ML baseline and predicts each test job
    /// once, then replays from those predictions. To sweep several quotas,
    /// call [`run_quotas_parallel`]: it does that once for all of them.
    pub fn run_all_methods(&self, quota_fraction: f64, include_oracles: bool) -> Vec<MethodResult> {
        byom_exec::install(self.params.parallelism, || {
            self.run_methods_with(quota_fraction, include_oracles, &self.predict_test())
        })
    }

    /// Train the ML baseline and predict every test job once with it and
    /// with the category model. None of it depends on the quota.
    fn predict_test(&self) -> TestPredictions {
        TestPredictions {
            ml_baseline: self.train_ml_baseline().playback(&self.test),
            ranking: self.trained.model().predict_trace(&self.test),
        }
    }

    /// Train the ML lifetime baseline. It reads only the training trace and
    /// `params.gbdt_trees`, so one trained baseline serves every quota.
    fn train_ml_baseline(&self) -> LifetimeMlBaseline {
        let ml_config = LifetimeModelConfig {
            gbdt: byom_gbdt::GbdtParams {
                num_classes: 8,
                num_trees: self.params.gbdt_trees.min(40),
                ..byom_gbdt::GbdtParams::default()
            },
            ..LifetimeModelConfig::default()
        };
        LifetimeMlBaseline::train(ml_config, &self.train)
            .expect("lifetime baseline training should succeed")
    }

    /// Every compared method at one quota, through one simulator. The ML
    /// baseline and Adaptive Ranking replay `predictions`; Adaptive Ranking
    /// runs Algorithm 1 with the settings of
    /// [`TrainedByom::adaptive_ranking_policy`].
    fn run_methods_with(
        &self,
        quota_fraction: f64,
        include_oracles: bool,
        predictions: &TestPredictions,
    ) -> Vec<MethodResult> {
        let sim = self.simulator(quota_fraction);
        let run = |policy: &mut dyn PlacementPolicy| self.to_result(sim.run(&self.test, policy));
        let mut results = vec![
            run(&mut FirstFit::new()),
            run(&mut CategoryHeuristic::default()),
            run(&mut predictions.ml_baseline.clone()),
            run(&mut self.trained.adaptive_hash_policy()),
            run(&mut AdaptivePolicy::new(
                predictions.ranking.clone(),
                AdaptiveConfig::default(),
            )),
        ];
        if include_oracles {
            for objective in [OracleObjective::Tcio, OracleObjective::Tco] {
                results.push(self.to_result(self.run_oracle_on(&sim, objective)));
            }
        }
        results
    }

    /// Convert a simulation result into a [`MethodResult`] row.
    pub fn to_result(&self, result: SimulationResult) -> MethodResult {
        MethodResult {
            method: result.policy_name.clone(),
            tco_savings_percent: result.tco_savings_percent(),
            tcio_savings_percent: result.tcio_savings_percent(),
        }
    }
}

/// The quota-independent inputs of the compared methods: the ML baseline's
/// admissions and the category model's predictions on the test trace.
struct TestPredictions {
    ml_baseline: OraclePolicy,
    ranking: Predictions,
}

/// Evaluate `run` for every cluster spec on up to `parallelism` threads
/// (`0` = inherit the ambient budget, `1` = the old sequential loop, at
/// every nesting level).
///
/// Results come back in spec order, and every experiment is deterministic
/// given its spec, so the output is identical to mapping `run` over `specs`
/// sequentially. The closure receives the spec's position as well, since
/// per-cluster experiments often derive seeds or labels from it.
pub fn run_clusters_parallel<T, F>(specs: &[ClusterSpec], parallelism: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &ClusterSpec) -> T + Sync,
{
    (0..specs.len())
        .into_par_iter()
        .with_max_threads(parallelism)
        .map(|i| run(i, &specs[i]))
        .collect()
}

/// Run the compared-methods sweep of one prepared context across several
/// quotas on up to `parallelism` threads (`0` = inherit the ambient
/// budget, `1` = strictly sequential at every nesting level). Returns one
/// `Vec<MethodResult>` per quota, in quota order — identical to calling
/// [`ExperimentContext::run_all_methods`] in a loop.
///
/// The ML baseline and both models' predictions do not depend on the
/// quota, so the sweep trains the baseline and predicts each test job once,
/// on its whole budget, before fanning out; each quota replays from those
/// predictions. An empty `quotas` slice trains and predicts nothing.
pub fn run_quotas_parallel(
    ctx: &ExperimentContext,
    quotas: &[f64],
    include_oracles: bool,
    parallelism: usize,
) -> Vec<Vec<MethodResult>> {
    if quotas.is_empty() {
        return Vec::new();
    }
    let predictions = byom_exec::install(ctx.params.parallelism, || {
        byom_exec::install(parallelism, || ctx.predict_test())
    });
    quotas
        .par_iter()
        .with_max_threads(parallelism)
        .map(|&q| {
            byom_exec::install(ctx.params.parallelism, || {
                ctx.run_methods_with(q, include_oracles, &predictions)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> ExperimentParams {
        ExperimentParams {
            train_hours: 6.0,
            test_hours: 3.0,
            num_categories: 5,
            gbdt_trees: 10,
            ..Default::default()
        }
    }

    #[test]
    fn context_prepares_and_runs_all_methods() {
        let ctx = ExperimentContext::prepare(ClusterSpec::balanced(0), quick_params());
        assert!(!ctx.train.is_empty());
        assert!(!ctx.test.is_empty());
        let results = ctx.run_all_methods(0.05, true);
        assert_eq!(results.len(), 7);
        let names: Vec<&str> = results.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "FirstFit",
                "Heuristic",
                "ML Baseline",
                "Adaptive Hash",
                "Adaptive Ranking",
                "Oracle TCIO",
                "Oracle TCO"
            ]
        );
        // The oracle TCO bound should be at least as good as every online
        // method, up to the oracle's greedy approximation gap: the Oracle
        // solver is a multi-ordering greedy (see byom_solver::exact), so an
        // online method can edge past it by a fraction of a percentage point
        // on some traces.
        let oracle_tco = results.last().unwrap().tco_savings_percent;
        for r in &results[..5] {
            assert!(
                r.tco_savings_percent <= oracle_tco + 0.5,
                "{} ({:.3}%) exceeded the oracle bound ({:.3}%)",
                r.method,
                r.tco_savings_percent,
                oracle_tco
            );
        }
    }

    #[test]
    fn oracle_runner_matches_objective_names() {
        let ctx = ExperimentContext::prepare(ClusterSpec::balanced(1), quick_params());
        let tco = ctx.run_oracle(0.1, OracleObjective::Tco);
        let tcio = ctx.run_oracle(0.1, OracleObjective::Tcio);
        assert_eq!(tco.policy_name, "Oracle TCO");
        assert_eq!(tcio.policy_name, "Oracle TCIO");
        // The TCIO oracle saves at least as much TCIO as the TCO oracle.
        assert!(tcio.tcio_savings_percent() >= tco.tcio_savings_percent() - 1e-6);
    }
}
