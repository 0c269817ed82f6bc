//! Figure 16: dynamics of the adaptive category selection algorithm.
//!
//! Runs Adaptive Ranking on one workload at four SSD quotas and prints the
//! admission category threshold (ACT) and observed spillover-TCIO percentage
//! over time, showing the threshold settling high when the SSD is scarce and
//! low when it is plentiful.

use byom_bench::report::f2;
use byom_bench::{ExperimentContext, ExperimentParams, Table};
use byom_core::{AdaptiveConfig, AdaptivePolicy};
use byom_trace::ClusterSpec;

fn main() {
    let params = ExperimentParams {
        test_hours: 24.0,
        ..ExperimentParams::default()
    };
    let ctx = ExperimentContext::prepare(ClusterSpec::balanced(0), params);
    let predictions = ctx.trained.model().predict_trace(&ctx.test);

    for quota in [0.0001, 0.01, 0.1, 0.5] {
        let mut policy = AdaptivePolicy::new(predictions.clone(), AdaptiveConfig::default());
        let result = ctx.run_policy(quota, &mut policy);
        let trace = policy.adaptation_trace();
        let mut table = Table::new(
            format!(
                "Figure 16: ACT dynamics at quota {:.2}% (final TCO savings {:.2}%)",
                quota * 100.0,
                result.tco_savings_percent()
            ),
            &["time (h)", "ACT", "spillover TCIO %"],
        );
        // Sample at most ~16 rows evenly over the adaptation trace.
        let step = (trace.len() / 16).max(1);
        for (t, act, spill) in trace.iter().step_by(step) {
            table.row(&[f2(t / 3600.0), act.to_string(), f2(*spill)]);
        }
        println!("{}", table.render());
        let mean_act: f64 =
            trace.iter().map(|(_, a, _)| *a as f64).sum::<f64>() / trace.len().max(1) as f64;
        println!("mean ACT at this quota: {:.2}\n", mean_act);
    }
    println!("Expected shape: tighter quotas hold the ACT in a higher range (fewer categories");
    println!(
        "admitted); plentiful quotas let it settle at the floor, as in the paper's Figure 16."
    );
}
