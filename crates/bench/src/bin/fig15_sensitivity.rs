//! Figure 15: sensitivity of the adaptive algorithm to its hyperparameters.
//!
//! Sweeps the spillover tolerance range, the look-back window length, and the
//! admission-decision interval over the paper's grid and reports the band
//! (min/max) of TCO savings across all combinations at each SSD quota, plus
//! an ablation of the feedback signal: the paper's spillover TCIO against
//! spillover bytes.

use byom_bench::report::f2;
use byom_bench::{ExperimentContext, Table};
use byom_core::{AdaptiveConfig, AdaptivePolicy, FeedbackSignal, Predictions};
use byom_exec::prelude::*;

/// TCO savings % of Adaptive Ranking under `config` at `quota`.
fn savings(
    ctx: &ExperimentContext,
    predictions: &Predictions,
    quota: f64,
    config: AdaptiveConfig,
) -> f64 {
    let mut policy = AdaptivePolicy::new(predictions.clone(), config);
    ctx.run_policy(quota, &mut policy).tco_savings_percent()
}

fn main() {
    let ctx = ExperimentContext::default_cluster();
    let predictions = ctx.trained.model().predict_trace(&ctx.test);
    let tolerances = [(0.005, 0.03), (0.01, 0.15), (0.05, 0.25)];
    let windows = [600.0, 900.0, 1800.0];
    let intervals = [600.0, 900.0, 1800.0];
    let quotas = [0.01, 0.1, 0.3, 0.6, 1.0];

    let mut configs = Vec::new();
    for &(lo, hi) in &tolerances {
        for &tw in &windows {
            for &tl in &intervals {
                configs.push(AdaptiveConfig {
                    lookback_window_secs: tw,
                    decision_interval_secs: tl,
                    spillover_tolerance: (lo, hi),
                    initial_act: 1,
                    signal: FeedbackSignal::SpilloverTcio,
                });
            }
        }
    }
    let grid: Vec<(f64, AdaptiveConfig)> = quotas
        .iter()
        .flat_map(|&quota| configs.iter().map(move |&config| (quota, config)))
        .collect();
    let grid_savings: Vec<f64> = grid
        .par_iter()
        .with_max_threads(ctx.params.parallelism)
        .map(|&(quota, config)| savings(&ctx, &predictions, quota, config))
        .collect();

    let mut table = Table::new(
        "Figure 15: Adaptive Ranking TCO savings % band across 27 hyperparameter combinations",
        &["quota", "min", "max", "spread"],
    );
    for (quota, per_config) in quotas.iter().zip(grid_savings.chunks(configs.len())) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &savings in per_config {
            min = min.min(savings);
            max = max.max(savings);
        }
        table.row(&[
            format!("{:.0}%", quota * 100.0),
            f2(min),
            f2(max),
            f2(max - min),
        ]);
    }
    println!("{}", table.render());

    // Ablation: spillover-TCIO feedback vs spillover-bytes feedback.
    let mut ablation = Table::new(
        "Ablation: feedback signal (spillover TCIO vs spillover bytes)",
        &["quota", "SpilloverTcio", "SpilloverBytes"],
    );
    for quota in [0.01, 0.1, 0.5] {
        let mut row = vec![format!("{:.0}%", quota * 100.0)];
        for signal in [
            FeedbackSignal::SpilloverTcio,
            FeedbackSignal::SpilloverBytes,
        ] {
            let config = AdaptiveConfig {
                signal,
                ..AdaptiveConfig::default()
            };
            row.push(f2(savings(&ctx, &predictions, quota, config)));
        }
        ablation.row(&row);
    }
    println!("{}", ablation.render());
    println!("Expected shape: a narrow band — the method is not sensitive to the adaptive");
    println!("algorithm's hyperparameters (paper Figure 15).");
}
