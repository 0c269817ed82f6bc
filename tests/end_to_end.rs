//! Cross-crate integration tests: the full BYOM pipeline (generate → cost →
//! label → train → simulate) and the qualitative orderings the paper's
//! evaluation rests on.

use byom::prelude::*;

/// Shared fixture: one balanced cluster, a trained deployment, and a test trace.
struct Fixture {
    train: Trace,
    test: Trace,
    cost_model: CostModel,
    trained: TrainedByom,
}

fn fixture(seed: u64) -> Fixture {
    let spec = ClusterSpec::balanced(0);
    let train = TraceGenerator::new(seed).generate(&spec, 10.0 * 3600.0);
    let test = TraceGenerator::new(seed + 1).generate(&spec, 5.0 * 3600.0);
    let cost_model = CostModel::new(CostRates::default());
    let trained = ByomPipeline::builder()
        .num_categories(8)
        .gbdt_trees(25)
        .build()
        .train(&train, &cost_model)
        .expect("training succeeds");
    Fixture {
        train,
        test,
        cost_model,
        trained,
    }
}

fn run(f: &Fixture, quota: f64, policy: &mut dyn PlacementPolicy) -> SimulationResult {
    let sim = Simulator::new(
        SimConfig::try_from_quota_fraction(&f.test, quota).expect("valid quota fraction"),
        f.cost_model,
    );
    sim.run(&f.test, policy)
}

#[test]
fn pipeline_trains_on_generated_traces() {
    let f = fixture(1000);
    assert!(f.train.len() > 100, "training trace too small");
    assert!(f.test.len() > 50, "test trace too small");
    assert_eq!(f.trained.model().num_categories(), 8);
    // The model predicts valid categories on unseen jobs.
    for job in f.test.iter().take(50) {
        assert!(f.trained.model().predict_category(&job.features) < 8);
    }
}

#[test]
fn adaptive_ranking_beats_first_fit_at_tight_quota() {
    let f = fixture(1100);
    let quota = 0.01;
    let ff = run(&f, quota, &mut FirstFit::new());
    let ar = run(&f, quota, &mut f.trained.adaptive_ranking_policy());
    assert!(
        ar.tco_savings_percent() > ff.tco_savings_percent(),
        "Adaptive Ranking ({:.3}%) should beat FirstFit ({:.3}%) at a 1% quota",
        ar.tco_savings_percent(),
        ff.tco_savings_percent()
    );
}

#[test]
fn adaptive_ranking_at_least_matches_adaptive_hash() {
    let f = fixture(1200);
    let quota = 0.01;
    let hash = run(&f, quota, &mut f.trained.adaptive_hash_policy());
    let ranking = run(&f, quota, &mut f.trained.adaptive_ranking_policy());
    assert!(
        ranking.tco_savings_percent() >= hash.tco_savings_percent() - 1e-9,
        "ranking {:.3}% vs hash {:.3}%",
        ranking.tco_savings_percent(),
        hash.tco_savings_percent()
    );
}

#[test]
fn oracle_bounds_every_online_policy() {
    let f = fixture(1300);
    let quota = 0.05;
    let costs = f.cost_model.cost_trace(&f.test);
    let capacity = (f.test.peak_space_usage() as f64 * quota) as u64;
    let solution = Oracle::new(OracleObjective::Tco, capacity).solve(&costs);
    let ids: Vec<JobId> = f.test.iter().map(|j| j.id).collect();
    let oracle = run(
        &f,
        quota,
        &mut OraclePolicy::from_selection("Oracle TCO", &ids, &solution.on_ssd),
    );

    let ff = run(&f, quota, &mut FirstFit::new());
    let heuristic = run(&f, quota, &mut CategoryHeuristic::default());
    let ranking = run(&f, quota, &mut f.trained.adaptive_ranking_policy());
    for r in [&ff, &heuristic, &ranking] {
        assert!(
            r.tco_savings_percent() <= oracle.tco_savings_percent() + 1e-6,
            "{} ({:.3}%) exceeded the oracle ({:.3}%)",
            r.policy_name,
            r.tco_savings_percent(),
            oracle.tco_savings_percent()
        );
    }
}

#[test]
fn ssd_occupancy_never_exceeds_quota_for_any_policy() {
    let f = fixture(1400);
    for quota in [0.005, 0.05, 0.5] {
        let capacity = SimConfig::try_from_quota_fraction(&f.test, quota)
            .expect("valid quota fraction")
            .ssd_capacity_bytes;
        for result in [
            run(&f, quota, &mut FirstFit::new()),
            run(&f, quota, &mut f.trained.adaptive_ranking_policy()),
            run(&f, quota, &mut f.trained.adaptive_hash_policy()),
        ] {
            assert!(
                result.peak_ssd_occupancy_bytes <= capacity,
                "{} exceeded the quota at {quota}",
                result.policy_name
            );
        }
    }
}

#[test]
fn larger_quota_never_reduces_adaptive_ranking_tcio_savings() {
    let f = fixture(1500);
    let mut last = -1.0;
    for quota in [0.01, 0.05, 0.2, 0.5, 1.0] {
        let r = run(&f, quota, &mut f.trained.adaptive_ranking_policy());
        let tcio = r.tcio_savings_percent();
        assert!(
            tcio >= last - 2.0,
            "TCIO savings dropped sharply from {last:.2}% to {tcio:.2}% at quota {quota}"
        );
        last = tcio;
    }
}

#[test]
fn model_generalizes_to_a_different_seed_of_the_same_cluster() {
    // Train on one synthetic week, evaluate accuracy on another: the model
    // must do better than chance on unseen data (RQ4, qualitative).
    let f = fixture(1700);
    let costs = f.cost_model.cost_trace(&f.test);
    let eval = f
        .trained
        .model()
        .evaluate(&f.test, &costs, f.trained.labeler());
    assert!(
        eval.top1_accuracy > 1.0 / 8.0,
        "top-1 accuracy {:.3} is no better than random",
        eval.top1_accuracy
    );
    assert!(eval.top3_accuracy >= eval.top1_accuracy);
}
