//! Facade-level resilience properties: fault-plan determinism, zero-fault
//! equivalence, ladder monotonicity under nested blackouts, and the headline
//! savings-retention claim of the `fig_resilience` experiment.
//!
//! These run the exact sweep code the `fig_resilience` binary uses (in its
//! quick configuration), so CI and the figure can never drift apart.

use std::sync::OnceLock;

use byom::chaos::{run_ladder, run_no_fallback, run_unfaulted};
use byom::prelude::*;
use byom::sim::ResilienceReport;
use byom_bench::resilience::{
    resilience_context, run_resilience_sweep, RESILIENCE_QUOTA, RESILIENCE_SEED,
};
use byom_bench::ExperimentContext;
use byom_chaos::BlackoutWindow;

/// One shared quick-mode experiment context: training the deployment is by
/// far the most expensive step, and every property here reads it immutably.
fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| resilience_context(true))
}

/// A blackout-only plan: the nested-window knob isolated from every other
/// fault surface, which is what makes the monotonicity property exact.
fn blackout_only(seed: u64, intensity: f64) -> FaultPlan {
    let mut plan = FaultPlan::none(seed);
    plan.model.blackout = Some(BlackoutWindow {
        start_secs: 3_600.0,
        duration_secs: 3.0 * 3_600.0 * intensity,
    });
    plan
}

#[test]
fn zero_fault_plan_is_byte_identical_to_plan_free_runs() {
    let ctx = ctx();
    let sim = ctx.simulator(RESILIENCE_QUOTA);
    let plan = FaultPlan::none(RESILIENCE_SEED);
    assert!(plan.is_fault_free());

    let plain = run_unfaulted(&ctx.trained, &sim, &ctx.test);
    let faulted = run_no_fallback(&ctx.trained, &sim, &ctx.test, &plan);
    assert_eq!(
        format!("{plain:?}"),
        format!("{faulted:?}"),
        "zero-fault no-fallback run must reproduce the plan-free run byte for byte"
    );

    let mut ladder = ctx.trained.ladder_policy();
    let plain_ladder = sim.run(&ctx.test, &mut ladder);
    let faulted_ladder = run_ladder(&ctx.trained, &sim, &ctx.test, &plan);
    assert_eq!(
        format!("{plain_ladder:?}"),
        format!("{faulted_ladder:?}"),
        "zero-fault ladder run must reproduce the plan-free ladder run byte for byte"
    );
}

#[test]
fn same_seed_produces_identical_resilience_reports() {
    let ctx = ctx();
    let sim = ctx.simulator(RESILIENCE_QUOTA);
    for intensity in [0.25, 1.0] {
        let plan = FaultPlan::at_intensity(RESILIENCE_SEED, intensity);
        let a = run_ladder(&ctx.trained, &sim, &ctx.test, &plan);
        let b = run_ladder(&ctx.trained, &sim, &ctx.test, &plan);
        assert_eq!(a.resilience, b.resilience, "intensity {intensity}");
        assert_eq!(a, b, "full results agree, not just the report");
        assert!(
            a.resilience.faults_injected() > 0,
            "the determinism check must exercise real faults"
        );
    }
    // A different seed draws a different fault stream (the reports are free
    // to collide in principle, but not for this plan at this intensity).
    let other = FaultPlan::at_intensity(RESILIENCE_SEED + 1, 1.0);
    let a = run_ladder(
        &ctx.trained,
        &sim,
        &ctx.test,
        &FaultPlan::at_intensity(RESILIENCE_SEED, 1.0),
    );
    let b = run_ladder(&ctx.trained, &sim, &ctx.test, &other);
    assert_ne!(
        a.resilience, b.resilience,
        "seed must steer the fault stream"
    );
}

/// Model-rung occupancy out of a resilience report (decisions made by the
/// learned model, rung 0).
fn model_rung(report: &ResilienceReport) -> u64 {
    report.fallback_occupancy.first().copied().unwrap_or(0)
}

#[test]
fn longer_blackouts_never_increase_model_rung_occupancy() {
    let ctx = ctx();
    let sim = ctx.simulator(RESILIENCE_QUOTA);
    for seed in [RESILIENCE_SEED, 7] {
        let mut previous: Option<u64> = None;
        for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let plan = blackout_only(seed, intensity);
            let result = run_ladder(&ctx.trained, &sim, &ctx.test, &plan);
            let occupancy = model_rung(&result.resilience);
            if let Some(prev) = previous {
                assert!(
                    occupancy <= prev,
                    "seed {seed}: intensity {intensity} put MORE decisions on the \
                     model rung ({occupancy} > {prev}) despite a strictly wider blackout"
                );
            }
            previous = Some(occupancy);
        }
    }
}

#[test]
fn ladder_retains_savings_where_the_ablation_goes_dark() {
    let ctx = ctx();
    let sweep = run_resilience_sweep(ctx, RESILIENCE_QUOTA, RESILIENCE_SEED, &[0.0, 1.0]);
    let base = sweep.unfaulted.tco_savings_percent();
    assert!(base > 0.0, "the unfaulted deployment must be saving money");

    let zero = sweep.points.first().expect("two points");
    assert!(
        (sweep.retention_percent(&zero.ladder) - 100.0).abs() < 1e-9,
        "zero-fault ladder retains everything"
    );

    let max = sweep.points.last().expect("two points");
    let ladder_retention = sweep.retention_percent(&max.ladder);
    let ablation_retention = sweep.retention_percent(&max.no_fallback);
    assert!(
        ladder_retention >= 50.0,
        "ladder must retain at least half the unfaulted savings at full \
         intensity, got {ladder_retention:.2}%"
    );
    assert!(
        ablation_retention < ladder_retention,
        "the no-fallback ablation must do strictly worse \
         ({ablation_retention:.2}% vs {ladder_retention:.2}%)"
    );
    assert!(
        max.ladder.resilience.model_blackouts > 0,
        "full intensity must actually exercise the blackout path"
    );
    assert!(
        ladder_retention <= 100.0,
        "faults never raise the ladder's savings above the unfaulted twin's"
    );
}
