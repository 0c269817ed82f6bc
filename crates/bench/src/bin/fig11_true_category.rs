//! Figure 11: predicted category vs ground-truth category.
//!
//! Compares the Adaptive Ranking policy driven by the learned model against
//! the same adaptive algorithm driven by the *true* category (computed from
//! each job's measured cost — 100% prediction accuracy). The paper's insight:
//! beyond a point, end-to-end savings do not benefit from a more accurate
//! model; the category design and the adaptive algorithm dominate.

use byom_bench::report::f2;
use byom_bench::{ExperimentContext, Table};
use byom_core::{AdaptiveConfig, AdaptivePolicy};

fn main() {
    let ctx = ExperimentContext::default_cluster();
    let quotas = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0];
    let predictions = ctx.trained.model().predict_trace(&ctx.test);

    let mut table = Table::new(
        "Figure 11: TCO savings % — predicted vs true category",
        &[
            "quota",
            "Predicted category (Adaptive Ranking)",
            "True category",
        ],
    );
    for quota in quotas {
        let mut ranking = AdaptivePolicy::new(predictions.clone(), AdaptiveConfig::default());
        let predicted = ctx.run_policy(quota, &mut ranking).tco_savings_percent();
        let truth = ctx
            .run_policy(quota, &mut ctx.trained.true_category_policy())
            .tco_savings_percent();
        table.row(&[format!("{:.0}%", quota * 100.0), f2(predicted), f2(truth)]);
    }
    println!("{}", table.render());
    println!("Expected shape: the two curves are close — perfect prediction accuracy adds little,");
    println!("because the adaptive algorithm and the category design carry most of the benefit.");
}
