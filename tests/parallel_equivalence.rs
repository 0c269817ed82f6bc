//! Parallel execution must never change results: training with any
//! `parallelism` setting produces bit-identical models, and the harness
//! fan-out helpers return exactly what the sequential loops they replace
//! would. These tests pin that contract.

use byom::prelude::*;
use byom_bench::{
    legacy_tree, run_clusters_parallel, run_quotas_parallel, ExperimentContext, ExperimentParams,
};
use byom_gbdt::{RowSample, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded synthetic multi-class dataset whose label depends on two
/// features plus noise.
fn synthetic_dataset(n: usize, num_features: usize, k: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..num_features)
            .map(|_| rng.gen_range(-10.0..10.0))
            .collect();
        // Label depends on a couple of features plus noise, so trees have
        // real structure to find.
        let score = row[0] + 0.5 * row[1 % num_features] + rng.gen_range(-2.0..2.0);
        let label = (((score + 12.0) / 24.0 * k as f64) as usize).min(k - 1);
        rows.push(row);
        labels.push(label);
    }
    Dataset::from_rows(rows, labels).unwrap()
}

#[test]
fn gbdt_training_is_identical_for_any_parallelism() {
    // A round updates its scores in blocks of 1,024 rows. 1,500 training
    // rows make one full block and a part; 3,500 make three and a ragged
    // tail of 428, and 3,300 validation rows three and a tail of 228.
    let small = (
        synthetic_dataset(1500, 6, 4, 10),
        synthetic_dataset(300, 6, 4, 11),
    );
    let large = (
        synthetic_dataset(3500, 6, 4, 12),
        synthetic_dataset(3300, 6, 4, 13),
    );
    for (train, valid) in [&small, &large] {
        for valid in [None, Some(valid)] {
            let case = format!(
                "{} rows, validation {:?}",
                train.len(),
                valid.map(Dataset::len)
            );
            let base = GbdtParams {
                num_classes: 4,
                num_trees: 12,
                parallelism: 1,
                ..Default::default()
            };
            let sequential = GradientBoostedTrees::train(&base, train, valid).unwrap();
            // 3 leaves one class waiting for a thread; 4 is the class count,
            // so every class fits on its own thread with none left over; 8
            // is above it: each class's tree still fits on one thread, and
            // the score update spreads over every thread.
            for threads in [2, 3, 4, 8, 0] {
                let params = GbdtParams {
                    parallelism: threads,
                    ..base
                };
                let parallel = GradientBoostedTrees::train(&params, train, valid).unwrap();
                // Bit-identical trees, reports, and therefore predictions.
                assert_eq!(
                    sequential, parallel,
                    "{case}: parallelism={threads} diverged"
                );
                for i in 0..50 {
                    assert_eq!(
                        sequential.predict_proba(train.row(i)),
                        parallel.predict_proba(train.row(i)),
                        "{case}: prediction {i} diverged at parallelism={threads}"
                    );
                }
            }
        }
    }
}

/// Fit one tree with the histogram engine and one with the frozen
/// pre-engine algorithm (`legacy_tree`, which rebuilds every node's
/// histogram from its rows) and require the same splits — features,
/// thresholds, topology — with leaf values within 1e-9. Subtraction
/// legitimately changes the float accumulation order, so the values may
/// drift by ULPs.
fn assert_engine_matches_legacy(case: &str, data: &Dataset, grad: &[f64], hess: &[f64]) {
    let mapper = byom_gbdt::BinMapper::fit(data, 64);
    let binned = mapper.bin_dataset(data);
    let row_major = legacy_tree::bin_dataset_row_major(&mapper, data);
    let rows: Vec<usize> = (0..data.len()).collect();
    let params = byom_gbdt::TreeParams::default();
    let sample = RowSample::new(&rows, data.len());
    let engine = Tree::fit_scored(&binned, &mapper, grad, hess, &sample, params).tree;
    let legacy = legacy_tree::fit_legacy(
        &row_major,
        data.num_features(),
        &mapper,
        grad,
        hess,
        &rows,
        params,
    );
    assert_eq!(
        engine.num_nodes(),
        legacy.len(),
        "{case}: node count diverged"
    );
    for (i, (a, b)) in engine.nodes().iter().zip(&legacy).enumerate() {
        assert_eq!(
            a.feature, b.feature,
            "{case}: node {i} split feature diverged"
        );
        assert_eq!(
            a.threshold, b.threshold,
            "{case}: node {i} threshold diverged"
        );
        assert_eq!(a.left, b.left, "{case}: node {i} topology diverged");
        assert_eq!(a.right, b.right, "{case}: node {i} topology diverged");
        assert!(
            (a.value - b.value).abs() < 1e-9,
            "{case}: node {i} leaf value drifted: {} vs {}",
            a.value,
            b.value
        );
    }
}

#[test]
fn subtraction_and_rebuild_agree_on_structure_with_close_leaf_values() {
    // Seeded three-class dataset with softmax-style one-vs-rest statistics.
    let train = synthetic_dataset(1200, 6, 3, 22);
    let probs = 1.0 / 3.0f64;
    let grad: Vec<f64> = train
        .labels()
        .iter()
        .map(|&l| probs - if l == 0 { 1.0 } else { 0.0 })
        .collect();
    let hess = vec![probs * (1.0 - probs); train.len()];
    assert_engine_matches_legacy("3-class softmax", &train, &grad, &hess);

    // Small periodic regression target (squared loss: grad = -y, hess = 1)
    // on two features with many tied values.
    let xs: Vec<Vec<f64>> = (0..300)
        .map(|i| vec![(i % 37) as f64, (i % 11) as f64])
        .collect();
    let ys: Vec<f64> = (0..300)
        .map(|i| ((i % 37) as f64 * 0.3 - (i % 11) as f64).tanh())
        .collect();
    let data = Dataset::from_rows(xs, vec![0; ys.len()]).unwrap();
    let grad: Vec<f64> = ys.iter().map(|y| -y).collect();
    assert_engine_matches_legacy("300x2 regression", &data, &grad, &vec![1.0; ys.len()]);
}

fn quick_params() -> ExperimentParams {
    ExperimentParams {
        train_hours: 3.0,
        test_hours: 1.5,
        num_categories: 4,
        gbdt_trees: 6,
        ..Default::default()
    }
}

#[test]
fn cluster_fanout_matches_sequential_loop() {
    let specs = vec![ClusterSpec::balanced(30), ClusterSpec::balanced(31)];
    let run = |i: usize, spec: &ClusterSpec| {
        let ctx = ExperimentContext::prepare(spec.clone(), quick_params());
        (i, ctx.run_all_methods(0.05, false))
    };
    let sequential: Vec<_> = specs.iter().enumerate().map(|(i, s)| run(i, s)).collect();
    let parallel = run_clusters_parallel(&specs, 2, run);
    assert_eq!(sequential, parallel);
}

#[test]
fn quota_fanout_matches_sequential_loop() {
    // The sweep trains the ML baseline and predicts the test trace once
    // under its whole budget and shares them across quotas;
    // `run_all_methods` does its own per quota.
    // `sweep_replays_match_live_per_arrival_replays` pins both to the live
    // per-arrival path.
    let ctx = ExperimentContext::prepare(ClusterSpec::balanced(32), quick_params());
    let quotas = [0.02, 0.1, 0.5];
    let sequential: Vec<_> = quotas
        .iter()
        .map(|&q| ctx.run_all_methods(q, true))
        .collect();
    for parallelism in [1, 2, 3] {
        let parallel = run_quotas_parallel(&ctx, &quotas, true, parallelism);
        assert_eq!(sequential, parallel, "parallelism={parallelism}");
    }
}

#[test]
fn sweep_replays_match_live_per_arrival_replays() {
    // The sweep predicts each test job once per model and replays the ML
    // baseline and Adaptive Ranking from those predictions, as
    // `run_all_methods` does too. Each row must equal a live replay that
    // predicts every job at its arrival.
    let ctx = ExperimentContext::prepare(ClusterSpec::balanced(39), quick_params());
    let ml_config = byom::policies::LifetimeModelConfig {
        gbdt: GbdtParams {
            num_classes: 8,
            num_trees: ctx.params.gbdt_trees.min(40),
            ..GbdtParams::default()
        },
        ..Default::default()
    };
    let ml_baseline = LifetimeMlBaseline::train(ml_config, &ctx.train).unwrap();
    let quotas = [0.01, 0.05, 1.0];
    let sweep = run_quotas_parallel(&ctx, &quotas, false, 2);
    for (&q, rows) in quotas.iter().zip(&sweep) {
        let row = |method: &str| rows.iter().find(|r| r.method == method).unwrap();
        let live_ml = ctx.to_result(ctx.run_policy(q, &mut ml_baseline.clone()));
        let live_ranking =
            ctx.to_result(ctx.run_policy(q, &mut ctx.trained.adaptive_ranking_policy()));
        assert_eq!(row("ML Baseline"), &live_ml, "quota {q}");
        assert_eq!(row("Adaptive Ranking"), &live_ranking, "quota {q}");
    }
}

#[test]
fn one_quota_sweep_matches_run_all_methods() {
    let ctx = ExperimentContext::prepare(ClusterSpec::balanced(37), quick_params());
    for parallelism in [1, 2] {
        assert_eq!(
            run_quotas_parallel(&ctx, &[0.05], true, parallelism),
            vec![ctx.run_all_methods(0.05, true)],
            "parallelism={parallelism}"
        );
    }
}

#[test]
fn empty_quota_sweep_returns_nothing() {
    let ctx = ExperimentContext::prepare(ClusterSpec::balanced(38), quick_params());
    assert!(run_quotas_parallel(&ctx, &[], true, 2).is_empty());
}

#[test]
fn nested_cluster_quota_fanout_matches_sequential_loops() {
    // Clusters fan out in parallel and each cluster sweeps its quotas in
    // parallel, with each cluster's thread running its share of the budget.
    // The nested sweep must still be byte-identical to two sequential loops.
    let specs = vec![ClusterSpec::balanced(33), ClusterSpec::balanced(34)];
    let quotas = [0.05, 0.2];
    let sequential: Vec<_> = specs
        .iter()
        .map(|spec| {
            let ctx = ExperimentContext::prepare(spec.clone(), quick_params());
            quotas
                .iter()
                .map(|&q| ctx.run_all_methods(q, false))
                .collect::<Vec<_>>()
        })
        .collect();
    let nested = run_clusters_parallel(&specs, 2, |_, spec| {
        let ctx = ExperimentContext::prepare(spec.clone(), quick_params());
        run_quotas_parallel(&ctx, &quotas, false, 2)
    });
    assert_eq!(sequential, nested);
}

#[test]
fn resilience_sweep_is_identical_for_any_parallelism() {
    let sweep_at = |parallelism: usize| {
        let params = ExperimentParams {
            train_hours: 6.0,
            test_hours: 6.0,
            num_categories: 4,
            gbdt_trees: 6,
            parallelism,
            ..Default::default()
        };
        let ctx = ExperimentContext::prepare(ClusterSpec::balanced(35), params);
        byom_bench::run_resilience_sweep(&ctx, 0.05, 42, &[0.0, 0.5, 1.0])
    };
    let sequential = sweep_at(1);
    let parallel = sweep_at(4);
    assert_eq!(sequential.unfaulted, parallel.unfaulted);
    assert_eq!(sequential.points, parallel.points);
}

#[test]
fn parallelism_one_is_strictly_sequential_at_every_nesting_level() {
    // The old shim resolved `0` to "all cores" inside nested calls even when
    // the experiment asked for 1 thread. With the unified executor, a budget
    // of 1 must hold all the way down: every nested closure runs on the
    // calling thread.
    use byom::exec::prelude::*;
    let caller = std::thread::current().id();
    let ids = byom::exec::install(1, || {
        run_clusters_parallel(&[ClusterSpec::balanced(36)], 0, |_, _| {
            (0..8)
                .into_par_iter()
                .with_max_threads(4)
                .map(|_| {
                    let inner: Vec<std::thread::ThreadId> = (0..4)
                        .into_par_iter()
                        .with_max_threads(4)
                        .map(|_| std::thread::current().id())
                        .collect();
                    (std::thread::current().id(), inner)
                })
                .collect::<Vec<_>>()
        })
    });
    for per_cluster in ids {
        for (outer, inner) in per_cluster {
            assert_eq!(outer, caller);
            for id in inner {
                assert_eq!(id, caller);
            }
        }
    }
}
