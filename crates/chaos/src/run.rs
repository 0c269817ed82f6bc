//! Twin-run helpers: wire a fault plan through the trace, model, and device
//! surfaces, run the simulator, and merge every fault count into the
//! result's [`ResilienceReport`].

use crate::device::FaultyDevice;
use crate::inject::{apply_trace_faults, TraceFaultCounts};
use crate::model::FaultyCategorizer;
use crate::plan::FaultPlan;
use byom_core::{AdaptiveConfig, AdaptivePolicy, LadderConfig, LadderPolicy, TrainedByom};
use byom_sim::{ResilienceReport, SimulationResult, Simulator};
use byom_trace::Trace;

fn merge_counts(
    report: &mut ResilienceReport,
    trace_counts: &TraceFaultCounts,
    blackouts: u64,
    flips: u64,
) {
    report.jobs_dropped = trace_counts.jobs_dropped;
    report.jobs_duplicated = trace_counts.jobs_duplicated;
    report.jobs_corrupted = trace_counts.jobs_corrupted;
    report.features_blanked = trace_counts.features_blanked;
    report.model_blackouts = blackouts;
    report.labels_flipped = flips;
}

/// Run the plain (unfaulted) Adaptive Ranking policy: the twin against which
/// faulted runs are compared.
pub fn run_unfaulted(trained: &TrainedByom, sim: &Simulator, test: &Trace) -> SimulationResult {
    sim.run(test, &mut trained.adaptive_ranking_policy())
}

/// Run the degradation ladder, with default ladder settings, under a fault
/// plan: the trace is perturbed, the trained model is wrapped in a
/// [`FaultyCategorizer`] (whose blackouts the ladder detects and degrades
/// around), and the run executes on a [`FaultyDevice`]. All fault counts,
/// the ladder's rung occupancy, and the device accounting end up in the
/// result's [`ResilienceReport`].
///
/// Under a zero-fault plan the result is byte-identical to
/// `sim.run(test, &mut trained.ladder_policy())`.
pub fn run_ladder(
    trained: &TrainedByom,
    sim: &Simulator,
    test: &Trace,
    plan: &FaultPlan,
) -> SimulationResult {
    let (faulted, trace_counts) = apply_trace_faults(test.clone(), plan);
    let faulty = FaultyCategorizer::new(trained.model().clone(), plan.model, plan.seed);
    let mut policy = LadderPolicy::new(faulty, LadderConfig::default());
    let mut device = FaultyDevice::new(plan.device.clone(), plan.seed);
    let mut result = sim.run_with_device(&faulted, &mut policy, &mut device);
    merge_counts(
        &mut result.resilience,
        &trace_counts,
        policy.model().blackouts(),
        policy.model().labels_flipped(),
    );
    result
}

/// Run the **no-fallback ablation** under a fault plan: the same faulty
/// model, trace, and device as [`run_ladder`], but behind the plain
/// adaptive policy, which has no fallback — it reads every missing
/// prediction as category 0 and loses its savings for the duration of a
/// blackout. The gap between this run and the ladder run is the value of
/// graceful degradation.
///
/// Under a zero-fault plan the result is byte-identical to
/// `sim.run(test, &mut trained.adaptive_ranking_policy())`.
pub fn run_no_fallback(
    trained: &TrainedByom,
    sim: &Simulator,
    test: &Trace,
    plan: &FaultPlan,
) -> SimulationResult {
    let (faulted, trace_counts) = apply_trace_faults(test.clone(), plan);
    let faulty = FaultyCategorizer::new(trained.model().clone(), plan.model, plan.seed);
    let mut policy = AdaptivePolicy::new(faulty, AdaptiveConfig::default());
    let mut device = FaultyDevice::new(plan.device.clone(), plan.seed);
    let mut result = sim.run_with_device(&faulted, &mut policy, &mut device);
    merge_counts(
        &mut result.resilience,
        &trace_counts,
        policy.categorizer().blackouts(),
        policy.categorizer().labels_flipped(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_core::ByomPipeline;
    use byom_cost::{CostModel, CostRates};
    use byom_sim::SimConfig;
    use byom_trace::{ClusterSpec, TraceGenerator};

    fn setup() -> (TrainedByom, Simulator, Trace) {
        let spec = ClusterSpec::balanced(0);
        let train = TraceGenerator::new(71).generate(&spec, 8.0 * 3_600.0);
        let test = TraceGenerator::new(72).generate(&spec, 6.0 * 3_600.0);
        let cost_model = CostModel::new(CostRates::default());
        let trained = ByomPipeline::builder()
            .num_categories(5)
            .gbdt_trees(15)
            .build()
            .train(&train, &cost_model)
            .unwrap();
        let config = SimConfig::try_from_quota_fraction(&test, 0.05).expect("valid quota");
        (trained, Simulator::new(config, cost_model), test)
    }

    #[test]
    fn zero_fault_no_fallback_run_is_byte_identical_to_plain_run() {
        let (trained, sim, test) = setup();
        let faulted = run_no_fallback(&trained, &sim, &test, &FaultPlan::none(42));
        let plain = run_unfaulted(&trained, &sim, &test);
        assert_eq!(format!("{faulted:?}"), format!("{plain:?}"));
    }

    #[test]
    fn zero_fault_ladder_run_is_byte_identical_to_plain_ladder_run() {
        let (trained, sim, test) = setup();
        let faulted = run_ladder(&trained, &sim, &test, &FaultPlan::none(42));
        let plain = sim.run(&test, &mut trained.ladder_policy());
        assert_eq!(format!("{faulted:?}"), format!("{plain:?}"));
    }

    #[test]
    fn same_seed_gives_identical_resilience_reports() {
        let (trained, sim, test) = setup();
        let plan = FaultPlan::at_intensity(42, 0.75);
        let a = run_ladder(&trained, &sim, &test, &plan);
        let b = run_ladder(&trained, &sim, &test, &plan);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a, b, "entire results match, not just the report");
        assert!(a.resilience.faults_injected() > 0, "faults actually fired");
    }

    #[test]
    fn ladder_occupancy_is_reported() {
        let (trained, sim, test) = setup();
        let plan = FaultPlan::at_intensity(42, 1.0);
        let faulted = run_ladder(&trained, &sim, &test, &plan);
        let occupancy = &faulted.resilience.fallback_occupancy;
        assert_eq!(occupancy.len(), byom_core::LADDER_RUNGS);
        assert_eq!(
            occupancy.iter().sum::<u64>(),
            faulted.outcomes.len() as u64,
            "every placement is attributed to a rung"
        );
        assert!(
            occupancy.iter().skip(1).sum::<u64>() > 0,
            "full-intensity faults push decisions off the model rung"
        );
    }
}
