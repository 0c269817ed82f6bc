//! Figure 15: sensitivity of the adaptive algorithm to its hyperparameters.
//!
//! Sweeps the spillover tolerance range, the look-back window length, and the
//! admission-decision interval over the paper's grid and reports the band
//! (min/max) of TCO savings across all combinations at each SSD quota, plus
//! an ablation of the feedback signal: the paper's spillover TCIO against
//! spillover bytes.

use byom_bench::report::f2;
use byom_bench::{ExperimentContext, Table};
use byom_core::{AdaptiveConfig, AdaptivePolicy, FeedbackSignal};

fn main() {
    let ctx = ExperimentContext::default_cluster();
    let tolerances = [(0.005, 0.03), (0.01, 0.15), (0.05, 0.25)];
    let windows = [600.0, 900.0, 1800.0];
    let intervals = [600.0, 900.0, 1800.0];
    let quotas = [0.01, 0.1, 0.3, 0.6, 1.0];

    let mut table = Table::new(
        "Figure 15: Adaptive Ranking TCO savings % band across 27 hyperparameter combinations",
        &["quota", "min", "max", "spread"],
    );
    for quota in quotas {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &(lo, hi) in &tolerances {
            for &tw in &windows {
                for &tl in &intervals {
                    let config = AdaptiveConfig {
                        lookback_window_secs: tw,
                        decision_interval_secs: tl,
                        spillover_tolerance: (lo, hi),
                        initial_act: 1,
                        signal: FeedbackSignal::SpilloverTcio,
                    };
                    let mut policy = AdaptivePolicy::new(ctx.trained.model().clone(), config);
                    let savings = ctx.run_policy(quota, &mut policy).tco_savings_percent();
                    min = min.min(savings);
                    max = max.max(savings);
                }
            }
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
            let mut policy = AdaptivePolicy::new(ctx.trained.model().clone(), config);
            row.push(f2(ctx.run_policy(quota, &mut policy).tco_savings_percent()));
        }
        ablation.row(&row);
    }
    println!("{}", ablation.render());
    println!("Expected shape: a narrow band — the method is not sensitive to the adaptive");
    println!("algorithm's hyperparameters (paper Figure 15).");
}
