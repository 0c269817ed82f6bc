//! The fault plan: what to break, how often, and with which seed.

/// Trace-surface faults: flaky metadata-collection pipelines.
///
/// Each probability is evaluated independently per job from a seeded,
/// job-id-keyed stream; all values must lie in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceFaults {
    /// Probability a job is silently dropped from the trace.
    pub drop_probability: f64,
    /// Probability a job is re-submitted (duplicated with a fresh id and a
    /// slightly later arrival).
    pub duplicate_probability: f64,
    /// Probability a job's size and lifetime metadata are corrupted by a
    /// random factor in `[0.5, 2)`.
    pub corrupt_probability: f64,
    /// Probability one of the job's feature groups is blanked, as when an
    /// upstream feature pipeline fails to deliver a column set.
    pub feature_blank_probability: f64,
}

impl TraceFaults {
    /// Whether no trace fault can ever fire.
    pub fn is_fault_free(&self) -> bool {
        self.drop_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.corrupt_probability == 0.0
            && self.feature_blank_probability == 0.0
    }
}

/// A contiguous window of simulated time during which the prediction
/// service cannot answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlackoutWindow {
    /// Start of the blackout, in simulated seconds.
    pub start_secs: f64,
    /// Length of the blackout, in simulated seconds.
    pub duration_secs: f64,
}

impl BlackoutWindow {
    /// Whether simulated time `t` falls inside the blackout.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_secs && t < self.start_secs + self.duration_secs
    }
}

/// Model-surface faults: blackouts and label corruption.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelFaults {
    /// Prediction blackout window, if any.
    pub blackout: Option<BlackoutWindow>,
    /// Target label-flip error rate in `[0, 1]`. The realized per-job flip
    /// probability is calibrated by the model's confidence: confident
    /// predictions flip less often than uncertain ones
    /// (`rate × (1.5 − confidence)`, clamped to `[0, 1]`).
    pub label_flip_rate: f64,
}

impl ModelFaults {
    /// Whether no model fault can ever fire.
    pub fn is_fault_free(&self) -> bool {
        self.blackout.is_none() && self.label_flip_rate == 0.0
    }
}

/// One SSD capacity transition: at `at_secs`, the usable capacity becomes
/// `factor ×` the configured base capacity (a factor of `1.0` models a
/// recovery; factors below `1.0` model step-downs from failed drives or
/// reclaimed quota).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityStep {
    /// Simulated time at which the step takes effect.
    pub at_secs: f64,
    /// Capacity multiplier from this time onward (until the next step).
    pub factor: f64,
}

/// Device-surface faults: capacity steps and transient admission failures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceFaults {
    /// Capacity transitions in ascending `at_secs` order.
    pub capacity_steps: Vec<CapacityStep>,
    /// Probability an SSD admission triggers a transient outage.
    pub admission_failure_probability: f64,
    /// After an outage triggers, every SSD admission fails deterministically
    /// until this many simulated seconds have elapsed.
    pub admission_retry_after_secs: f64,
}

impl DeviceFaults {
    /// Whether no device fault can ever fire.
    pub fn is_fault_free(&self) -> bool {
        self.capacity_steps.is_empty() && self.admission_failure_probability == 0.0
    }
}

/// A fault plan describes every fault the run injects. Zero probabilities,
/// no blackout, and no capacity steps mean "inject nothing", and a
/// zero-fault plan is guaranteed to reproduce the plan-free run bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision in the run.
    pub seed: u64,
    /// Trace-surface faults.
    pub trace: TraceFaults,
    /// Model-surface faults.
    pub model: ModelFaults,
    /// Device-surface faults.
    pub device: DeviceFaults,
}

impl FaultPlan {
    /// The zero-fault plan: nothing ever fires. Running under this plan is
    /// bit-identical to running with no plan at all.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            trace: TraceFaults::default(),
            model: ModelFaults::default(),
            device: DeviceFaults::default(),
        }
    }

    /// A canonical all-surface plan scaled by `intensity` in `[0, 1]`
    /// (clamped). Intensity 0 equals [`FaultPlan::none`]; higher intensities
    /// strictly widen every fault: probabilities grow linearly and the model
    /// blackout window grows from the same fixed start, so the faults at a
    /// lower intensity are a subset of those at a higher one. This nesting is
    /// what makes the savings-retention curve (and the ladder-monotonicity
    /// property test) meaningful.
    pub fn at_intensity(seed: u64, intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        if i == 0.0 {
            return FaultPlan::none(seed);
        }
        FaultPlan {
            seed,
            trace: TraceFaults {
                drop_probability: 0.05 * i,
                duplicate_probability: 0.05 * i,
                corrupt_probability: 0.10 * i,
                feature_blank_probability: 0.10 * i,
            },
            model: ModelFaults {
                // Nested windows: all intensities black out from hour 1, the
                // window just lasts longer at higher intensity (up to 3 h).
                blackout: Some(BlackoutWindow {
                    start_secs: 3_600.0,
                    duration_secs: 3.0 * 3_600.0 * i,
                }),
                label_flip_rate: 0.30 * i,
            },
            device: DeviceFaults {
                // Step down at hour 2, recover at hour 4. Device faults are
                // kept milder than the model faults on purpose: no rung can
                // route around a device outage, so past a point they only
                // flatten every policy equally instead of separating them.
                capacity_steps: vec![
                    CapacityStep {
                        at_secs: 2.0 * 3_600.0,
                        factor: 1.0 - 0.3 * i,
                    },
                    CapacityStep {
                        at_secs: 4.0 * 3_600.0,
                        factor: 1.0,
                    },
                ],
                admission_failure_probability: 0.005 * i,
                admission_retry_after_secs: 60.0,
            },
        }
    }

    /// Whether this plan can never inject any fault.
    pub fn is_fault_free(&self) -> bool {
        self.trace.is_fault_free() && self.model.is_fault_free() && self.device.is_fault_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_fault_free() {
        let plan = FaultPlan::none(42);
        assert!(plan.is_fault_free());
        assert_eq!(plan, FaultPlan::at_intensity(42, 0.0));
    }

    #[test]
    fn intensity_plans_are_nested() {
        let lo = FaultPlan::at_intensity(42, 0.25);
        let hi = FaultPlan::at_intensity(42, 1.0);
        assert!(!lo.is_fault_free());
        let (lo_w, hi_w) = (lo.model.blackout.unwrap(), hi.model.blackout.unwrap());
        assert_eq!(lo_w.start_secs, hi_w.start_secs, "windows share a start");
        assert!(lo_w.duration_secs < hi_w.duration_secs, "windows nest");
        assert!(lo.trace.drop_probability < hi.trace.drop_probability);
        assert_eq!(FaultPlan::at_intensity(42, 7.0), hi, "clamped");
    }

    #[test]
    fn blackout_window_containment() {
        let w = BlackoutWindow {
            start_secs: 100.0,
            duration_secs: 50.0,
        };
        assert!(!w.contains(99.9));
        assert!(w.contains(100.0));
        assert!(w.contains(149.9));
        assert!(!w.contains(150.0));
    }
}
