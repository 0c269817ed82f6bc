//! Model-surface fault injection: prediction blackouts and
//! confidence-calibrated label flips.

use crate::plan::ModelFaults;
use crate::{mix, salt};
use byom_core::Categorizer;
use byom_trace::ShuffleJob;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::Cell;

/// Wraps a categorizer with model faults.
///
/// During a blackout [`Categorizer::categorize`] answers `None`. The wrapper
/// only reports the outage; the policy consuming it decides what it means.
/// The degradation ladder counts it as a failure of its model rung and falls
/// back. A plain [`AdaptivePolicy`](byom_core::AdaptivePolicy), the
/// **no-fallback ablation**, reads it as category 0 (the "loses money on
/// SSD" category) and sends everything to HDD for the duration.
///
/// Label flips are calibrated by the wrapped model's confidence: a flip
/// fires with probability `rate × (1.5 − confidence)` (clamped to `[0, 1]`),
/// so uncertain predictions corrupt more readily than confident ones, and
/// the flipped label is a *neighboring* category — the plausible kind of
/// error a miscalibrated ranking model makes.
///
/// All decisions are keyed by `mix(seed, job.id, MODEL_SALT)`:
/// order-independent and bit-reproducible. Fault counters use [`Cell`]
/// because [`Categorizer::categorize`] takes `&self`.
#[derive(Debug, Clone)]
pub struct FaultyCategorizer<C: Categorizer> {
    inner: C,
    faults: ModelFaults,
    seed: u64,
    blackouts: Cell<u64>,
    flips: Cell<u64>,
}

impl<C: Categorizer> FaultyCategorizer<C> {
    /// Wrap `inner` with the given model faults and seed.
    pub fn new(inner: C, faults: ModelFaults, seed: u64) -> Self {
        FaultyCategorizer {
            inner,
            faults,
            seed,
            blackouts: Cell::new(0),
            flips: Cell::new(0),
        }
    }

    /// Decisions requested while the model was blacked out.
    pub fn blackouts(&self) -> u64 {
        self.blackouts.get()
    }

    /// Predictions flipped to a wrong category.
    pub fn labels_flipped(&self) -> u64 {
        self.flips.get()
    }

    /// Whether the prediction service is dark at simulated time `t`.
    pub fn in_blackout(&self, t: f64) -> bool {
        self.faults.blackout.is_some_and(|w| w.contains(t))
    }

    /// The (possibly flipped) prediction outside a blackout. With a zero
    /// flip rate this is exactly `inner.categorize(job)` — no RNG is built
    /// and no extra float path runs, so zero-fault runs are bit-identical to
    /// unwrapped ones.
    fn predicted(&self, job: &ShuffleJob) -> Option<usize> {
        let rate = self.faults.label_flip_rate;
        if rate <= 0.0 {
            return self.inner.categorize(job);
        }
        let (category, confidence) = self.inner.categorize_with_confidence(job)?;
        let p = (rate * (1.5 - confidence)).clamp(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(mix(self.seed, job.id.0, salt::MODEL));
        if p > 0.0 && rng.gen_bool(p) {
            let n = self.inner.num_categories();
            let up = rng.gen_bool(0.5);
            let flipped = if up && category + 1 < n {
                category + 1
            } else if category > 0 {
                category - 1
            } else if category + 1 < n {
                category + 1
            } else {
                category
            };
            if flipped != category {
                self.flips.set(self.flips.get() + 1);
                return Some(flipped);
            }
        }
        Some(category)
    }
}

impl<C: Categorizer> Categorizer for FaultyCategorizer<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn categorize(&self, job: &ShuffleJob) -> Option<usize> {
        if self.in_blackout(job.arrival) {
            self.blackouts.set(self.blackouts.get() + 1);
            None
        } else {
            self.predicted(job)
        }
    }

    fn num_categories(&self) -> usize {
        self.inner.num_categories()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::BlackoutWindow;
    use byom_core::HashCategorizer;
    use byom_trace::{ClusterSpec, Trace, TraceGenerator};

    fn trace() -> Trace {
        TraceGenerator::new(21).generate(&ClusterSpec::balanced(0), 2.0 * 3_600.0)
    }

    fn blackout(start: f64, duration: f64) -> ModelFaults {
        ModelFaults {
            blackout: Some(BlackoutWindow {
                start_secs: start,
                duration_secs: duration,
            }),
            label_flip_rate: 0.0,
        }
    }

    #[test]
    fn zero_faults_delegate_exactly() {
        let inner = HashCategorizer::new(8);
        let faulty = FaultyCategorizer::new(inner, ModelFaults::default(), 42);
        for job in trace().iter() {
            assert_eq!(Categorizer::categorize(&faulty, job), inner.categorize(job));
        }
        assert_eq!(faulty.blackouts(), 0);
        assert_eq!(faulty.labels_flipped(), 0);
        assert_eq!(Categorizer::num_categories(&faulty), 8);
        assert_eq!(Categorizer::name(&faulty), "Hash");
    }

    #[test]
    fn blackout_answers_none_and_counts_every_call() {
        let faulty = FaultyCategorizer::new(HashCategorizer::new(8), blackout(0.0, 1e12), 42);
        let t = trace();
        for (calls, job) in t.iter().take(5).enumerate() {
            assert_eq!(Categorizer::categorize(&faulty, job), None);
            assert_eq!(faulty.blackouts(), calls as u64 + 1, "one count per call");
        }
        let job = t.iter().next().unwrap();
        assert_eq!(faulty.categorize_with_confidence(job), None);
        assert_eq!(faulty.blackouts(), 6);
    }

    #[test]
    fn blackout_window_is_time_scoped() {
        let faulty = FaultyCategorizer::new(HashCategorizer::new(8), blackout(1_000.0, 500.0), 42);
        assert!(!faulty.in_blackout(999.0));
        assert!(faulty.in_blackout(1_000.0));
        assert!(faulty.in_blackout(1_499.0));
        assert!(!faulty.in_blackout(1_500.0));
    }

    #[test]
    fn label_flips_hit_roughly_the_target_rate_and_stay_adjacent() {
        let faults = ModelFaults {
            blackout: None,
            label_flip_rate: 0.4,
        };
        let inner = HashCategorizer::new(8);
        let faulty = FaultyCategorizer::new(inner, faults, 42);
        let t = trace();
        let mut flipped = 0usize;
        for job in t.iter() {
            let clean = inner.categorize(job).expect("hash always predicts");
            let noisy = Categorizer::categorize(&faulty, job).expect("no blackout");
            if noisy != clean {
                flipped += 1;
                assert_eq!(
                    noisy.abs_diff(clean),
                    1,
                    "flips move to a neighboring category"
                );
            }
        }
        assert_eq!(flipped as u64, faulty.labels_flipped());
        // Hash is fully confident, so p = 0.4 × 0.5 = 0.2 per job.
        let rate = flipped as f64 / t.len() as f64;
        assert!(
            (0.1..=0.3).contains(&rate),
            "flip rate {rate:.3} far from calibrated 0.2"
        );
    }

    #[test]
    fn flips_are_deterministic_per_seed() {
        let faults = ModelFaults {
            blackout: None,
            label_flip_rate: 0.5,
        };
        let t = trace();
        let a = FaultyCategorizer::new(HashCategorizer::new(8), faults, 7);
        let b = FaultyCategorizer::new(HashCategorizer::new(8), faults, 7);
        for job in t.iter() {
            assert_eq!(
                Categorizer::categorize(&a, job),
                Categorizer::categorize(&b, job)
            );
        }
        assert_eq!(a.labels_flipped(), b.labels_flipped());
    }
}
