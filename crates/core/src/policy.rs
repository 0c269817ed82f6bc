//! The cross-layer placement policies built from a categorizer plus the
//! adaptive category selection algorithm.
//!
//! * **Adaptive Ranking** = [`CategoryModel`](crate::model::CategoryModel)
//!   + [`AdaptiveSelector`] — the paper's method.
//! * **Adaptive Hash** = [`HashCategorizer`](crate::categorize::HashCategorizer)
//!   + [`AdaptiveSelector`] — the non-ML ablation.
//! * **True Category** = [`TrueCategoryOracle`](crate::categorize::TrueCategoryOracle)
//!   + [`AdaptiveSelector`] — the perfect-prediction upper bound of Figure 11.

use crate::adaptive::{AdaptiveConfig, AdaptiveSelector};
use crate::categorize::Categorizer;
use byom_cost::JobCost;
use byom_sim::{Device, JobOutcome, PlacementPolicy, SystemState};
use byom_trace::ShuffleJob;

/// A placement policy pairing a categorizer (application layer) with the
/// adaptive category selection algorithm (storage layer).
#[derive(Debug, Clone)]
pub struct AdaptivePolicy<C: Categorizer> {
    name: String,
    categorizer: C,
    selector: AdaptiveSelector,
}

impl<C: Categorizer> AdaptivePolicy<C> {
    /// Build a policy from a categorizer and an adaptive-algorithm
    /// configuration. The selector's category count is the categorizer's.
    ///
    /// # Panics
    /// Panics if `config` is invalid for the categorizer's category count
    /// (see [`AdaptiveConfig::validate`]).
    pub fn new(categorizer: C, config: AdaptiveConfig) -> Self {
        let name = format!("Adaptive {}", categorizer.name());
        AdaptivePolicy {
            name,
            selector: AdaptiveSelector::new(config, categorizer.num_categories()),
            categorizer,
        }
    }

    /// Run Algorithm 1 for a job of `category` arriving at `now`: SSD if the
    /// category is at or above the ACT, which is re-evaluated first when the
    /// previous decision has expired.
    pub(crate) fn admit(&mut self, now: f64, category: usize) -> Device {
        if self.selector.admit(now, category) {
            Device::Ssd
        } else {
            Device::Hdd
        }
    }

    /// The current admission category threshold.
    pub fn act(&self) -> usize {
        self.selector.act()
    }

    /// The recorded `(time, ACT, spillover_percent)` adaptation trace
    /// (Figure 16 of the paper).
    pub fn adaptation_trace(&self) -> &[(f64, usize, f64)] {
        self.selector.adaptation_trace()
    }

    /// The categorizer in use.
    pub fn categorizer(&self) -> &C {
        &self.categorizer
    }
}

impl<C: Categorizer> PlacementPolicy for AdaptivePolicy<C> {
    fn name(&self) -> &str {
        &self.name
    }

    /// A missing prediction is category 0, which Algorithm 1 never admits.
    /// The selector still runs for it, so the ACT keeps its update schedule.
    fn place(&mut self, job: &ShuffleJob, _cost: &JobCost, _state: &SystemState) -> Device {
        let category = self.categorizer.categorize(job).unwrap_or(0);
        self.admit(job.arrival, category)
    }

    fn observe(&mut self, outcome: &JobOutcome) {
        self.selector.observe(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::HashCategorizer;
    use byom_cost::{CostModel, CostRates};
    use byom_sim::{SimConfig, Simulator};
    use byom_trace::{ClusterSpec, TraceGenerator};

    fn config() -> AdaptiveConfig {
        AdaptiveConfig {
            lookback_window_secs: 900.0,
            decision_interval_secs: 600.0,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn adaptive_hash_policy_runs_end_to_end() {
        let trace = TraceGenerator::new(51).generate(&ClusterSpec::balanced(0), 6.0 * 3600.0);
        let model = CostModel::new(CostRates::default());
        let sim = Simulator::new(
            SimConfig::try_from_quota_fraction(&trace, 0.05).expect("valid quota fraction"),
            model,
        );
        let mut policy = AdaptivePolicy::new(HashCategorizer::new(15), config());
        assert_eq!(policy.name(), "Adaptive Hash");
        let result = sim.run(&trace, &mut policy);
        assert_eq!(result.outcomes.len(), trace.len());
        // The policy adapts: its trace records at least a couple of updates.
        assert!(policy.adaptation_trace().len() >= 2);
        assert!(policy.act() >= 1 && policy.act() <= 14);
    }

    /// A categorizer that gives every job the same answer.
    #[derive(Debug)]
    struct Constant(Option<usize>);

    impl Categorizer for Constant {
        fn name(&self) -> &str {
            "Constant"
        }
        fn categorize(&self, _: &ShuffleJob) -> Option<usize> {
            self.0
        }
        fn num_categories(&self) -> usize {
            5
        }
    }

    fn half_quota_run(policy: &mut AdaptivePolicy<Constant>) -> byom_sim::SimulationResult {
        let trace = TraceGenerator::new(52).generate(&ClusterSpec::balanced(0), 3_600.0);
        let model = CostModel::new(CostRates::default());
        let sim = Simulator::new(
            SimConfig::try_from_quota_fraction(&trace, 0.5).expect("valid quota fraction"),
            model,
        );
        sim.run(&trace, policy)
    }

    #[test]
    fn category_zero_jobs_are_never_admitted() {
        let mut policy = AdaptivePolicy::new(Constant(Some(0)), config());
        let result = half_quota_run(&mut policy);
        assert_eq!(result.jobs_scheduled_to_ssd(), 0);
        assert_eq!(result.savings.tco_savings_percent(), 0.0);
    }

    #[test]
    fn a_missing_prediction_is_category_zero() {
        let mut missing = AdaptivePolicy::new(Constant(None), config());
        let mut zero = AdaptivePolicy::new(Constant(Some(0)), config());
        let result = half_quota_run(&mut missing);
        let _ = half_quota_run(&mut zero);
        assert_eq!(result.jobs_scheduled_to_ssd(), 0);
        assert!(
            missing.adaptation_trace().len() >= 2,
            "the ACT keeps updating without predictions"
        );
        assert_eq!(missing.adaptation_trace(), zero.adaptation_trace());
    }

    #[test]
    fn act_rises_under_a_tiny_quota() {
        let trace = TraceGenerator::new(53).generate(&ClusterSpec::balanced(0), 12.0 * 3600.0);
        let model = CostModel::new(CostRates::default());
        // Quota of 0.1% of peak: heavy spillover expected.
        let sim = Simulator::new(
            SimConfig::try_from_quota_fraction(&trace, 0.001).expect("valid quota fraction"),
            model,
        );
        let mut policy = AdaptivePolicy::new(HashCategorizer::new(15), config());
        let _ = sim.run(&trace, &mut policy);
        let max_act = policy
            .adaptation_trace()
            .iter()
            .map(|(_, act, _)| *act)
            .max()
            .unwrap_or(1);
        assert!(max_act > 1, "ACT should rise under a tiny quota");
    }

    #[test]
    fn plentiful_quota_keeps_act_low() {
        let trace = TraceGenerator::new(54).generate(&ClusterSpec::balanced(0), 6.0 * 3600.0);
        let model = CostModel::new(CostRates::default());
        let sim = Simulator::new(
            SimConfig {
                ssd_capacity_bytes: u64::MAX,
            },
            model,
        );
        let mut policy = AdaptivePolicy::new(HashCategorizer::new(15), config());
        let _ = sim.run(&trace, &mut policy);
        assert_eq!(
            policy.act(),
            1,
            "no spillover should keep the ACT at its floor"
        );
    }
}
