//! Figure 10: generalization to new users and new pipelines.
//!
//! For each of several clusters, pick the user (and, separately, the
//! pipeline) with the second-largest TCO footprint, train the category model
//! once *with* and once *without* that user's/pipeline's jobs, and compare
//! the TCO savings achieved on the full test trace. Matching curves indicate
//! the method handles previously unseen users/pipelines.

use byom_bench::report::f2;
use byom_bench::{ExperimentContext, ExperimentParams, Table};
use byom_core::{AdaptiveConfig, AdaptivePolicy, ByomPipeline};
use byom_trace::{ClusterSpec, Trace};
use std::collections::BTreeMap;

/// The key of the entity with the second-largest total HDD TCO.
fn second_largest_by<F: Fn(&byom_trace::ShuffleJob) -> String>(
    ctx: &ExperimentContext,
    key: F,
) -> Option<String> {
    let costs = ctx.cost_model.cost_trace(&ctx.train);
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for (job, cost) in ctx.train.iter().zip(&costs) {
        *totals.entry(key(job)).or_default() += cost.tco_hdd;
    }
    let mut ranked: Vec<(String, f64)> = totals.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked.get(1).map(|(k, _)| k.clone())
}

fn savings_with_and_without(
    ctx: &ExperimentContext,
    excluded: &str,
    key: impl Fn(&byom_trace::ShuffleJob) -> String,
    quotas: &[f64],
) -> Vec<(f64, f64, f64)> {
    let full_train = ctx.train.clone();
    let without: Trace = ctx.train.filter(|j| key(j) != excluded);
    let with_model = ByomPipeline::builder()
        .num_categories(ctx.params.num_categories)
        .gbdt_trees(ctx.params.gbdt_trees)
        .build()
        .train(&full_train, &ctx.cost_model)
        .expect("training with entity succeeds");
    let without_model = ByomPipeline::builder()
        .num_categories(ctx.params.num_categories)
        .gbdt_trees(ctx.params.gbdt_trees)
        .build()
        .train(&without, &ctx.cost_model)
        .expect("training without entity succeeds");

    let predictions = [&with_model, &without_model].map(|t| t.model().predict_trace(&ctx.test));
    quotas
        .iter()
        .map(|&q| {
            let [a, b] = predictions.each_ref().map(|p| {
                let mut ranking = AdaptivePolicy::new(p.clone(), AdaptiveConfig::default());
                ctx.run_policy(q, &mut ranking).tco_savings_percent()
            });
            (q, a, b)
        })
        .collect()
}

fn main() {
    let quotas = [0.01, 0.1, 0.3, 0.6, 1.0];
    let params = ExperimentParams {
        train_hours: 10.0,
        test_hours: 5.0,
        gbdt_trees: 40,
        ..ExperimentParams::default()
    };

    let mut user_table = Table::new(
        "Figure 10 (upper): TCO savings % with vs without the held-out user in training",
        &["cluster", "quota", "train with user", "train without user"],
    );
    let mut pipe_table = Table::new(
        "Figure 10 (lower): TCO savings % with vs without the held-out pipeline in training",
        &[
            "cluster",
            "quota",
            "train with pipeline",
            "train without pipeline",
        ],
    );

    for spec in ClusterSpec::evaluation_fleet().into_iter().take(3) {
        let id = spec.id;
        let ctx = ExperimentContext::prepare(
            spec,
            ExperimentParams {
                train_seed: 1001 + u64::from(id),
                test_seed: 2002 + u64::from(id),
                ..params
            },
        );
        if let Some(user) = second_largest_by(&ctx, |j| j.features.user_name.clone()) {
            for (q, with, without) in
                savings_with_and_without(&ctx, &user, |j| j.features.user_name.clone(), &quotas)
            {
                user_table.row(&[
                    format!("C{id}"),
                    format!("{:.0}%", q * 100.0),
                    f2(with),
                    f2(without),
                ]);
            }
        }
        if let Some(pipeline) = second_largest_by(&ctx, |j| j.features.pipeline_name.clone()) {
            for (q, with, without) in savings_with_and_without(
                &ctx,
                &pipeline,
                |j| j.features.pipeline_name.clone(),
                &quotas,
            ) {
                pipe_table.row(&[
                    format!("C{id}"),
                    format!("{:.0}%", q * 100.0),
                    f2(with),
                    f2(without),
                ]);
            }
        }
    }
    println!("{}", user_table.render());
    println!("{}", pipe_table.render());
    println!("Expected shape: the with/without curves track each other closely, as in the paper.");
}
