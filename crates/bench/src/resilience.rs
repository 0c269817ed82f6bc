//! Shared sweep logic for the resilience experiment (`fig_resilience`):
//! fault intensity × policy, producing the savings-retention curve.
//!
//! The sweep lives here (rather than in the binary) so the facade's
//! integration tests and the `fig_resilience` binary run the exact same
//! code: one prepared context, one unfaulted twin run, and per intensity a
//! degradation-ladder run plus a no-fallback ablation run under the same
//! [`FaultPlan`].

use crate::harness::{ExperimentContext, ExperimentParams};
use byom_chaos::{run_ladder, run_no_fallback, run_unfaulted, FaultPlan};
use byom_exec::prelude::*;
use byom_sim::SimulationResult;
use byom_trace::ClusterSpec;

/// The fixed seed the resilience figure (and its CI smoke run) uses.
pub const RESILIENCE_SEED: u64 = 42;

/// The canonical fault-intensity grid, from fault-free to full intensity.
pub const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The SSD quota (fraction of the test trace's peak space usage) the
/// resilience experiment runs at: tight enough that placement quality —
/// and therefore model availability — matters.
pub const RESILIENCE_QUOTA: f64 = 0.05;

/// Whether quick mode is enabled (`BYOM_BENCH_QUICK=1`), shrinking the
/// workload so CI smoke runs finish fast.
pub fn quick_mode() -> bool {
    std::env::var("BYOM_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Experiment parameters for the resilience sweep. The test window must
/// reach past the canonical fault plan's last device recovery (hour 4), so
/// even quick mode keeps a six-hour test trace and shrinks the training
/// side instead.
pub fn resilience_params(quick: bool) -> ExperimentParams {
    if quick {
        ExperimentParams {
            train_hours: 6.0,
            test_hours: 6.0,
            num_categories: 5,
            gbdt_trees: 15,
            ..Default::default()
        }
    } else {
        ExperimentParams::default()
    }
}

/// Prepare the resilience experiment's context (balanced cluster 0).
pub fn resilience_context(quick: bool) -> ExperimentContext {
    ExperimentContext::prepare(ClusterSpec::balanced(0), resilience_params(quick))
}

/// Both policies' results at one fault intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePoint {
    /// Fault intensity in `[0, 1]` (see [`FaultPlan::at_intensity`]).
    pub intensity: f64,
    /// The degradation ladder's run under the plan.
    pub ladder: SimulationResult,
    /// The no-fallback ablation's run under the same plan.
    pub no_fallback: SimulationResult,
}

/// The full sweep: the unfaulted twin plus one [`ResiliencePoint`] per
/// intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceSweep {
    /// The unfaulted Adaptive Ranking run every point is compared against.
    pub unfaulted: SimulationResult,
    /// Per-intensity results, in the order the intensities were given.
    pub points: Vec<ResiliencePoint>,
}

impl ResilienceSweep {
    /// Percentage of the unfaulted run's TCO savings a result retains
    /// (100 = no loss). Returns 100 when the unfaulted baseline saved
    /// nothing, since there was nothing to lose.
    pub fn retention_percent(&self, result: &SimulationResult) -> f64 {
        let base = self.unfaulted.tco_savings_percent();
        if base <= 0.0 {
            100.0
        } else {
            result.tco_savings_percent() / base * 100.0
        }
    }
}

/// Run the resilience sweep: one unfaulted twin, then per intensity a
/// ladder run and a no-fallback run under `FaultPlan::at_intensity(seed, i)`.
/// [`ResilienceSweep::retention_percent`] compares each run with the twin.
/// Deterministic for a given context and seed.
///
/// Intensities fan out in parallel under the context's thread budget:
/// every point is a pure function of `(ctx, seed,
/// intensity)` and results come back in intensity order, so the sweep is
/// bit-identical to the old sequential loop.
pub fn run_resilience_sweep(
    ctx: &ExperimentContext,
    quota_fraction: f64,
    seed: u64,
    intensities: &[f64],
) -> ResilienceSweep {
    let sim = ctx.simulator(quota_fraction);
    let unfaulted = run_unfaulted(&ctx.trained, &sim, &ctx.test);
    let points = intensities
        .par_iter()
        .with_max_threads(ctx.params.parallelism)
        .map(|&intensity| {
            let plan = FaultPlan::at_intensity(seed, intensity);
            ResiliencePoint {
                intensity,
                ladder: run_ladder(&ctx.trained, &sim, &ctx.test, &plan),
                no_fallback: run_no_fallback(&ctx.trained, &sim, &ctx.test, &plan),
            }
        })
        .collect();
    ResilienceSweep { unfaulted, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_anchored_by_the_unfaulted_twin() {
        let ctx = resilience_context(true);
        let a = run_resilience_sweep(&ctx, RESILIENCE_QUOTA, RESILIENCE_SEED, &[0.0, 1.0]);
        let b = run_resilience_sweep(&ctx, RESILIENCE_QUOTA, RESILIENCE_SEED, &[0.0, 1.0]);
        assert_eq!(a, b);
        let zero = a.points.first().expect("two points");
        assert_eq!(
            zero.no_fallback.savings, a.unfaulted.savings,
            "zero-fault ablation run matches the twin"
        );
        assert!((a.retention_percent(&zero.no_fallback) - 100.0).abs() < 1e-9);
    }
}
