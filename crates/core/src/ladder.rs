//! The graceful-degradation ladder: a placement policy that falls back
//! through progressively simpler rungs when the learned model misbehaves.
//!
//! The ladder's rungs, from most to least capable:
//!
//! 0. **Model** — the (possibly fallible) category model behind an
//!    [`AdaptivePolicy`]; a missing prediction is a failure of this rung.
//! 1. **Hash** — the non-ML hash categorizer behind an independent
//!    [`AdaptivePolicy`]; survives model blackouts and label corruption.
//! 2. **Heuristic** — the CacheSack-style per-category admission heuristic;
//!    survives broken feature pipelines (it only needs the pipeline
//!    identity and measured costs).
//! 3. **FirstFit** — the static production baseline; needs nothing but the
//!    job's size.
//!
//! A spillover-fed [`HealthTracker`] demotes to the next rung after `K`
//! consecutive failures or misses attributed to the active rung (a failure
//! is a model blackout; a miss is an SSD-scheduled job that *fully*
//! spilled — partial spillover is the adaptive selector's signal), and
//! probes the rung above for recovery: after a demotion cooldown elapses,
//! or early once the active rung builds a `K`-long success streak (evidence
//! that whatever flooded the ladder with failures has passed). All
//! bookkeeping runs in *simulated* time — the tracker never consults a wall
//! clock, so ladder runs stay bit-reproducible.
//!
//! Every rung is kept warm regardless of which rung is deciding: both
//! adaptive rungs keep observing outcomes and the heuristic keeps folding
//! costs into its category statistics, so a demotion hands control to a rung
//! with up-to-date state rather than a cold start. Both adaptive rungs run
//! Algorithm 1 with [`AdaptiveConfig::default`].

use crate::adaptive::AdaptiveConfig;
use crate::categorize::{Categorizer, HashCategorizer};
use crate::policy::AdaptivePolicy;
use byom_cost::JobCost;
use byom_policies::{CategoryHeuristic, FirstFit};
use byom_sim::{Device, JobOutcome, PlacementPolicy, SystemState};
use byom_trace::ShuffleJob;

/// Number of rungs in the degradation ladder.
pub const LADDER_RUNGS: usize = 4;

/// Rung names, top (most capable) first.
pub const RUNG_NAMES: [&str; LADDER_RUNGS] = ["model", "hash", "heuristic", "first-fit"];

/// Configuration of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderConfig {
    /// Demote to the next rung after this many consecutive failures/misses
    /// attributed to the active rung (values below 1 behave as 1).
    pub demote_after: usize,
    /// Simulated seconds to wait after a demotion (or a failed probe)
    /// before probing the rung above for recovery.
    pub probe_after_secs: f64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            demote_after: 10,
            probe_after_secs: 1_800.0,
        }
    }
}

/// The spillover-fed health state machine driving rung transitions.
///
/// Failures and successes are *attributed*: only events produced by the
/// currently active rung move the consecutive-failure counter, so a fallback
/// rung's good outcomes do not mask a blacked-out model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthTracker {
    demote_after: usize,
    probe_after_secs: f64,
    active: usize,
    consecutive_failures: usize,
    consecutive_successes: usize,
    /// Start of the current probe cooldown (simulated time), if demoted.
    cooldown_start: Option<f64>,
}

impl HealthTracker {
    /// Create a tracker starting at the top rung.
    pub fn new(demote_after: usize, probe_after_secs: f64) -> Self {
        HealthTracker {
            demote_after: demote_after.max(1),
            probe_after_secs,
            active: 0,
            consecutive_failures: 0,
            consecutive_successes: 0,
            cooldown_start: None,
        }
    }

    /// The currently active rung (0 = model .. 3 = first-fit).
    pub fn active_rung(&self) -> usize {
        self.active
    }

    /// Record a failure/miss attributed to the active rung at simulated
    /// time `now`; demotes when the consecutive streak reaches the limit.
    pub fn record_failure(&mut self, now: f64) {
        self.consecutive_successes = 0;
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.demote_after && self.active + 1 < LADDER_RUNGS {
            self.active += 1;
            self.consecutive_failures = 0;
            self.cooldown_start = Some(now);
        }
    }

    /// Record a success attributed to the active rung, resetting the failure
    /// streak and extending the success streak.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.consecutive_successes = self.consecutive_successes.saturating_add(1);
    }

    /// Whether the rung above should be probed at simulated time `now`:
    /// either the probe cooldown has elapsed, or the active rung has built a
    /// success streak of `K` (the demotion threshold, symmetrically) — a
    /// healthy fallback is evidence the condition that forced the demotion
    /// (e.g. a device outage flooding every rung with full spills) has
    /// passed, so recovery should not wait out the full cooldown.
    pub fn probe_due(&self, now: f64) -> bool {
        self.active > 0
            && (self.consecutive_successes >= self.demote_after
                || self
                    .cooldown_start
                    .is_none_or(|t| now >= t + self.probe_after_secs))
    }

    /// A probe succeeded: move one rung up and restart the cooldown (unless
    /// back at the top).
    pub fn promote(&mut self, now: f64) {
        if self.active > 0 {
            self.active -= 1;
            self.consecutive_failures = 0;
            self.consecutive_successes = 0;
            self.cooldown_start = if self.active == 0 { None } else { Some(now) };
        }
    }

    /// A probe failed: restart the cooldown (and the success streak) from
    /// `now`.
    pub fn probe_failed(&mut self, now: f64) {
        self.consecutive_successes = 0;
        self.cooldown_start = Some(now);
    }
}

/// The graceful-degradation placement policy: model → hash → heuristic →
/// first-fit, with health-driven demotion and recovery probing.
#[derive(Debug, Clone)]
pub struct LadderPolicy<M: Categorizer> {
    name: String,
    model: AdaptivePolicy<M>,
    hash: AdaptivePolicy<HashCategorizer>,
    heuristic: CategoryHeuristic,
    first_fit: FirstFit,
    health: HealthTracker,
    occupancy: [u64; LADDER_RUNGS],
    /// Rung that decided the most recent placement (observe() attributes the
    /// outcome to it; the simulator interleaves place/observe per job).
    last_decider: usize,
    /// Whether the most recent decision spoke for the active rung's health.
    last_attributed: bool,
}

impl<M: Categorizer> LadderPolicy<M> {
    /// Build a ladder from a (possibly fallible) model-rung categorizer,
    /// whose `None` from [`Categorizer::categorize`] is a failure of the
    /// model rung. The hash rung gets the categorizer's category count.
    ///
    /// # Panics
    /// Panics if the categorizer produces fewer than two categories.
    pub fn new(model: M, config: LadderConfig) -> Self {
        let name = format!("Ladder {}", model.name());
        let hash = HashCategorizer::new(model.num_categories());
        LadderPolicy {
            name,
            model: AdaptivePolicy::new(model, AdaptiveConfig::default()),
            hash: AdaptivePolicy::new(hash, AdaptiveConfig::default()),
            heuristic: CategoryHeuristic::default(),
            first_fit: FirstFit::new(),
            health: HealthTracker::new(config.demote_after, config.probe_after_secs),
            occupancy: [0; LADDER_RUNGS],
            last_decider: 0,
            last_attributed: false,
        }
    }

    /// The model-rung categorizer.
    pub fn model(&self) -> &M {
        self.model.categorizer()
    }

    /// The health tracker's current state.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Placement decisions made by each rung, top rung first.
    pub fn rung_occupancy(&self) -> [u64; LADDER_RUNGS] {
        self.occupancy
    }

    /// Decide via the model rung if it answers; `None` means blackout.
    fn model_decision(&mut self, job: &ShuffleJob) -> Option<Device> {
        let category = self.model.categorizer().categorize(job)?;
        Some(self.model.admit(job.arrival, category))
    }

    /// Decide via a fallback rung (1..=3).
    fn fallback_decision(
        &mut self,
        rung: usize,
        job: &ShuffleJob,
        cost: &JobCost,
        state: &SystemState,
    ) -> Device {
        match rung {
            1 => {
                // The hash categories carry no cost signal (they are
                // pseudo-random buckets), so the rung additionally gates on
                // the job's measured costs: a job whose SSD TCO exceeds its
                // HDD TCO can never pay for its admission, and Algorithm 1
                // does not run for it.
                if cost.tco_ssd < cost.tco_hdd {
                    self.hash.place(job, cost, state)
                } else {
                    Device::Hdd
                }
            }
            2 => {
                if self.heuristic.admits(job) {
                    Device::Ssd
                } else {
                    Device::Hdd
                }
            }
            _ => self.first_fit.place(job, cost, state),
        }
    }
}

impl<M: Categorizer> PlacementPolicy for LadderPolicy<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn place(&mut self, job: &ShuffleJob, cost: &JobCost, state: &SystemState) -> Device {
        let now = job.arrival;
        // Keep the lower rungs warm no matter who decides.
        self.heuristic.record(job, cost, state.ssd_capacity_bytes);

        let active = self.health.active_rung();
        let (decider, decision) = if active == 0 {
            match self.model_decision(job) {
                Some(d) => (0, d),
                None => {
                    // Blackout while the model is the authority: a failure.
                    self.health.record_failure(now);
                    let rung = self.health.active_rung().max(1);
                    (rung, self.fallback_decision(rung, job, cost, state))
                }
            }
        } else if self.health.probe_due(now) {
            if active == 1 {
                // The rung above is the model: the probe succeeds only if it
                // answers.
                match self.model_decision(job) {
                    Some(d) => {
                        self.health.promote(now);
                        (0, d)
                    }
                    None => {
                        self.health.probe_failed(now);
                        (1, self.fallback_decision(1, job, cost, state))
                    }
                }
            } else {
                // Non-model rungs always answer: climb one rung.
                self.health.promote(now);
                let rung = self.health.active_rung();
                (rung, self.fallback_decision(rung, job, cost, state))
            }
        } else {
            (active, self.fallback_decision(active, job, cost, state))
        };

        if let Some(slot) = self.occupancy.get_mut(decider) {
            *slot += 1;
        }
        self.last_decider = decider;
        self.last_attributed = decider == self.health.active_rung();
        decision
    }

    fn fill_resilience(&self, report: &mut byom_sim::ResilienceReport) {
        report.fallback_occupancy = self.occupancy.to_vec();
    }

    fn observe(&mut self, outcome: &JobOutcome) {
        // Both adaptive rungs keep learning from every outcome.
        self.model.observe(outcome);
        self.hash.observe(outcome);
        // Spillover feedback: only outcomes decided by the active rung speak
        // for its health (a fallback's good outcome must not mask a
        // blacked-out model). Only *full* spills count as misses — partial
        // spillover is routine at tight quotas and is the adaptive
        // selector's feedback signal, not a rung-health event.
        if outcome.scheduled == Device::Ssd && self.last_attributed {
            if outcome.ssd_fraction == 0.0 {
                self.health.record_failure(outcome.arrival);
            } else {
                self.health.record_success();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::{IoProfile, JobFeatures, JobId};

    /// A fallible categorizer that is blacked out inside a time window.
    #[derive(Debug, Clone)]
    struct WindowedModel {
        blackout: (f64, f64),
        categories: usize,
    }

    impl Categorizer for WindowedModel {
        fn name(&self) -> &str {
            "Windowed"
        }
        fn categorize(&self, job: &ShuffleJob) -> Option<usize> {
            let (start, end) = self.blackout;
            // Outside the blackout: always the top category.
            (job.arrival < start || job.arrival >= end).then_some(self.categories - 1)
        }
        fn num_categories(&self) -> usize {
            self.categories
        }
    }

    fn job(id: u64, arrival: f64, size: u64) -> ShuffleJob {
        ShuffleJob {
            id: JobId(id),
            cluster: 0,
            arrival,
            lifetime: 50.0,
            size_bytes: size,
            io: IoProfile {
                read_bytes: size * 4,
                written_bytes: size,
                read_ops: 10,
                write_ops: 10,
                dram_hit_fraction: 0.0,
                mean_read_size: 4096,
            },
            features: JobFeatures::default(),
            archetype: 0,
        }
    }

    fn cost(id: u64, arrival: f64) -> JobCost {
        JobCost {
            id: JobId(id),
            arrival,
            lifetime: 50.0,
            size_bytes: 100,
            tcio_hdd: 1.0,
            tco_hdd: 2.0,
            tco_ssd: 1.0,
            io_density: 1.0,
        }
    }

    fn state(now: f64) -> SystemState {
        SystemState {
            now,
            ssd_occupancy_bytes: 0,
            ssd_capacity_bytes: 10_000,
        }
    }

    fn ladder_config(demote_after: usize, probe_after: f64) -> LadderConfig {
        LadderConfig {
            demote_after,
            probe_after_secs: probe_after,
        }
    }

    #[test]
    fn healthy_model_keeps_the_top_rung() {
        let model = WindowedModel {
            blackout: (-1.0, -1.0),
            categories: 5,
        };
        let mut ladder = LadderPolicy::new(model, ladder_config(3, 600.0));
        assert_eq!(ladder.name(), "Ladder Windowed");
        for i in 0..50u64 {
            let t = i as f64 * 10.0;
            let _ = ladder.place(&job(i, t, 100), &cost(i, t), &state(t));
        }
        assert_eq!(ladder.health().active_rung(), 0);
        assert_eq!(ladder.rung_occupancy(), [50, 0, 0, 0]);
    }

    #[test]
    fn blackout_demotes_and_recovery_promotes() {
        // Blackout covers [100, 400): with K=3 the ladder demotes to the
        // hash rung, then probes its way back after the blackout ends.
        let model = WindowedModel {
            blackout: (100.0, 400.0),
            categories: 5,
        };
        let mut ladder = LadderPolicy::new(model, ladder_config(3, 50.0));
        let mut demoted_during_blackout = false;
        for i in 0..100u64 {
            let t = i as f64 * 10.0;
            let _ = ladder.place(&job(i, t, 100), &cost(i, t), &state(t));
            if (100.0..400.0).contains(&t) && ladder.health().active_rung() > 0 {
                demoted_during_blackout = true;
            }
        }
        assert!(demoted_during_blackout, "K consecutive blackouts demote");
        assert_eq!(
            ladder.health().active_rung(),
            0,
            "the ladder probes back to the model after the blackout"
        );
        assert!(ladder.rung_occupancy()[1] > 0, "hash rung covered the gap");
    }

    #[test]
    fn fallback_successes_do_not_mask_model_failures() {
        // During a blackout the hash rung's decisions may succeed; the
        // health tracker must still demote on the model's failures.
        let model = WindowedModel {
            blackout: (0.0, f64::MAX),
            categories: 5,
        };
        let mut ladder = LadderPolicy::new(model, ladder_config(5, 1e12));
        for i in 0..20u64 {
            let t = i as f64;
            let d = ladder.place(&job(i, t, 100), &cost(i, t), &state(t));
            // Feed perfect outcomes for every decision.
            ladder.observe(&JobOutcome {
                job_id: JobId(i),
                arrival: t,
                end: t + 50.0,
                scheduled: d,
                ssd_fraction: if d == Device::Ssd { 1.0 } else { 0.0 },
                tcio_hdd: 1.0,
                size_bytes: 100,
            });
        }
        assert!(
            ladder.health().active_rung() >= 1,
            "permanent blackout must demote even with healthy fallbacks"
        );
    }

    #[test]
    fn persistent_misses_walk_down_the_ladder() {
        let model = WindowedModel {
            blackout: (-1.0, -1.0),
            categories: 5,
        };
        let mut ladder = LadderPolicy::new(model, ladder_config(2, 1e12));
        for i in 0..40u64 {
            let t = i as f64;
            let d = ladder.place(&job(i, t, 100), &cost(i, t), &state(t));
            // Every SSD-scheduled job fully spills.
            ladder.observe(&JobOutcome {
                job_id: JobId(i),
                arrival: t,
                end: t + 50.0,
                scheduled: d,
                ssd_fraction: 0.0,
                tcio_hdd: 1.0,
                size_bytes: 100,
            });
        }
        assert!(
            ladder.health().active_rung() >= 1,
            "spillover misses demote the model rung, got {:?}",
            ladder.health()
        );
        let occupancy = ladder.rung_occupancy();
        assert_eq!(occupancy.iter().sum::<u64>(), 40);
    }

    #[test]
    fn health_tracker_saturates_and_climbs_back() {
        let mut h = HealthTracker::new(0, 10.0); // clamped to 1
        assert_eq!(h.active_rung(), 0);
        for i in 0..10 {
            h.record_failure(i as f64);
        }
        assert_eq!(h.active_rung(), LADDER_RUNGS - 1, "demotion saturates");
        // The last demotion (to the bottom rung) happened at now = 2.0.
        assert!(!h.probe_due(11.0), "cooldown not yet elapsed");
        assert!(h.probe_due(12.0));
        h.promote(20.0);
        assert_eq!(h.active_rung(), LADDER_RUNGS - 2);
        h.record_success();
        // Climb all the way back.
        h.promote(40.0);
        h.promote(60.0);
        assert_eq!(h.active_rung(), 0);
        h.promote(80.0); // no-op at the top
        assert_eq!(h.active_rung(), 0);
        assert!(!h.probe_due(1e9), "no probes at the top rung");
    }
}
