//! Ablation: category label spacing.
//!
//! The paper chooses equal-frequency (quantile) I/O-density categories because
//! linear or logarithmic spacing produces heavily imbalanced classes. This
//! ablation compares the class balance of all three label designs. Only the
//! quantile design trains Adaptive Ranking and reports model accuracy and
//! end-to-end TCO savings at a 10% quota; the linear and logarithmic rows
//! print "-" for both (ROADMAP direction 9 plans real models for them).

use byom_bench::report::f2;
use byom_bench::{ExperimentContext, Table};
use byom_core::{
    AdaptiveConfig, AdaptivePolicy, CategoryLabeler, CategoryModel, CategoryModelConfig,
};
use byom_cost::JobCost;
use byom_gbdt::GbdtParams;

/// Alternative labelers: assign categories 1..N-1 by linear or logarithmic
/// density thresholds instead of quantiles.
fn label_with_thresholds(costs: &[JobCost], thresholds: &[f64]) -> Vec<usize> {
    costs
        .iter()
        .map(|c| {
            if c.tco_savings() < 0.0 {
                0
            } else {
                let mut cat = 1;
                for &t in thresholds {
                    if c.io_density > t {
                        cat += 1;
                    }
                }
                cat.min(thresholds.len() + 1)
            }
        })
        .collect()
}

fn class_imbalance(labels: &[usize], n: usize) -> f64 {
    let mut counts = vec![0usize; n];
    for &l in labels {
        counts[l] += 1;
    }
    let max = *counts.iter().max().unwrap_or(&0) as f64;
    let nonzero = counts.iter().filter(|&&c| c > 0).count().max(1);
    let mean = labels.len() as f64 / nonzero as f64;
    max / mean.max(1.0)
}

fn main() {
    let ctx = ExperimentContext::default_cluster();
    let n = 8usize;
    let quota = 0.1;
    let train_costs = ctx.cost_model.cost_trace(&ctx.train);
    let test_costs = ctx.cost_model.cost_trace(&ctx.test);

    let positive: Vec<f64> = train_costs
        .iter()
        .filter(|c| c.tco_savings() >= 0.0)
        .map(|c| c.io_density)
        .collect();
    let max_density = positive.iter().cloned().fold(1.0, f64::max);
    let min_density = positive
        .iter()
        .cloned()
        .fold(max_density, f64::min)
        .max(1e-3);

    // Quantile (paper), linear, and logarithmic threshold designs.
    let quantile = CategoryLabeler::fit(&train_costs, n);
    let linear: Vec<f64> = (1..n - 1)
        .map(|k| min_density + (max_density - min_density) * k as f64 / (n - 1) as f64)
        .collect();
    let log: Vec<f64> = (1..n - 1)
        .map(|k| min_density * (max_density / min_density).powf(k as f64 / (n - 1) as f64))
        .collect();

    let mut table = Table::new(
        "Label-design ablation (N = 8, 10% quota)",
        &[
            "design",
            "class imbalance (max/mean)",
            "top-1 accuracy",
            "TCO savings %",
        ],
    );

    let config = CategoryModelConfig {
        num_categories: n,
        gbdt: GbdtParams {
            num_classes: n,
            num_trees: ctx.params.gbdt_trees,
            ..GbdtParams::default()
        },
        ..Default::default()
    };

    // Quantile design uses the real pipeline.
    {
        let model = CategoryModel::train(&config, &ctx.train, &train_costs, &quantile)
            .expect("training succeeds");
        let eval = model.evaluate(&ctx.test, &test_costs, &quantile);
        let labels = quantile.label_all(&train_costs);
        let savings = ctx
            .run_policy(
                quota,
                &mut AdaptivePolicy::new(model, AdaptiveConfig::default()),
            )
            .tco_savings_percent();
        table.row(&[
            "quantile (paper)".into(),
            f2(class_imbalance(&labels, n)),
            f2(eval.top1_accuracy),
            f2(savings),
        ]);
    }

    // Linear / logarithmic designs: class balance only, from a
    // threshold-based labeler implemented inline; no model is trained.
    for (name, thresholds) in [("linear", &linear), ("logarithmic", &log)] {
        let labels = label_with_thresholds(&train_costs, thresholds);
        table.row(&[
            name.into(),
            f2(class_imbalance(&labels, n)),
            "-".into(),
            "-".into(),
        ]);
    }

    println!("{}", table.render());
    println!("Quantile labels keep classes balanced (imbalance near 1); linear and logarithmic");
    println!(
        "spacing concentrate most jobs in a few classes, which is why the paper rejects them."
    );
}
