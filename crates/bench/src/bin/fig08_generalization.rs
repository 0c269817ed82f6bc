//! Figure 8: workload generalization across clusters.
//!
//! Trains one category model per cluster C0..C3 and evaluates each of them on
//! C0's test trace across an SSD-quota sweep. C3 is the specialized cluster
//! that runs workloads rare elsewhere, so its model is expected to transfer
//! worst.

use byom_bench::report::f2;
use byom_bench::{run_clusters_parallel, ExperimentContext, ExperimentParams, Table};
use byom_core::{AdaptivePolicy, ByomPipeline};
use byom_policies::CategoryHeuristic;
use byom_trace::{ClusterSpec, TraceGenerator};

fn main() {
    let params = ExperimentParams {
        train_hours: 10.0,
        test_hours: 5.0,
        gbdt_trees: 40,
        ..ExperimentParams::default()
    };
    // The evaluation cluster (C0) provides the test trace and cost model.
    let ctx = ExperimentContext::prepare(ClusterSpec::balanced(0), params);

    // Train one model per source cluster.
    let sources = [
        ClusterSpec::balanced(0),
        ClusterSpec::skewed(1, byom_trace::Archetype::QueryJoin),
        ClusterSpec::skewed(2, byom_trace::Archetype::LogProcessing),
        ClusterSpec::specialized(3),
    ];
    // Each source cluster's model is independent; train them across cores.
    let trained = run_clusters_parallel(&sources, params.parallelism, |_, spec| {
        let train = TraceGenerator::new(1001 + u64::from(spec.id))
            .generate(spec, params.train_hours * 3600.0);
        ByomPipeline::builder()
            .num_categories(params.num_categories)
            .gbdt_trees(params.gbdt_trees)
            .parallelism(params.parallelism)
            .build()
            .train(&train, &ctx.cost_model)
            .expect("training succeeds")
    });

    let quotas = [0.01, 0.05, 0.1, 0.2, 0.4, 0.8];
    let mut table = Table::new(
        "Figure 8: TCO savings % on cluster C0, models trained on C0..C3",
        &[
            "quota",
            "train C0",
            "train C1",
            "train C2",
            "train C3",
            "best baseline (Heuristic)",
        ],
    );
    for quota in quotas {
        let mut row = vec![format!("{:.0}%", quota * 100.0)];
        for t in &trained {
            let mut policy: AdaptivePolicy<_> = t.adaptive_ranking_policy();
            let result = ctx.run_policy(quota, &mut policy);
            row.push(f2(result.tco_savings_percent()));
        }
        let mut heuristic = CategoryHeuristic::default();
        row.push(f2(ctx
            .run_policy(quota, &mut heuristic)
            .tco_savings_percent()));
        table.row(&row);
    }
    println!("{}", table.render());
    println!("Expected shape: models trained on C0-C2 transfer to C0; the specialized");
    println!("cluster C3's model is the outlier, as in the paper.");
}
