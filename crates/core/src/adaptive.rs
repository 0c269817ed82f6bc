//! The Adaptive Category Selection Algorithm (Algorithm 1 of the paper).
//!
//! The storage layer cannot rely on a fixed SSD capacity — free capacity
//! fluctuates with co-located workloads — so instead of reasoning about
//! bytes it observes a single behavioural signal: the **spillover-TCIO
//! percentage**, the portion of SSD-scheduled jobs' TCIO that failed to be
//! realized because the SSD was full. The algorithm keeps an *admission
//! category threshold* (ACT): arriving jobs whose predicted category is at or
//! above the ACT are scheduled to SSD. When the observed spillover percentage
//! exceeds the tolerance range, the ACT is raised (admit fewer, more
//! important categories); when it falls below the range, the ACT is lowered
//! (admit more categories). Two smoothing mechanisms bound the churn: the
//! tolerance *range* (no change inside it) and a minimum decision interval.

use byom_sim::{Device, JobOutcome};
use std::collections::VecDeque;

/// Which feedback signal drives threshold adaptation.
///
/// The paper uses spillover TCIO; direct SSD-utilization feedback is kept as
/// an ablation option (it requires knowing the capacity, which the paper
/// argues is impractical across heterogeneous clusters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedbackSignal {
    /// The paper's signal: spillover-TCIO percentage over the look-back window.
    SpilloverTcio,
    /// Ablation: jobs' failed-admission byte fraction over the look-back window.
    SpilloverBytes,
}

/// Configuration of the adaptive category selection algorithm. The
/// category count N is not part of it: [`AdaptiveSelector::new`] takes N
/// separately, and an [`AdaptivePolicy`](crate::policy::AdaptivePolicy)
/// passes its categorizer's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Look-back window length `t_w` in seconds (jobs *starting* within the
    /// window are considered, per the paper's design discussion).
    pub lookback_window_secs: f64,
    /// Admission decisions stay in effect for `t_l` seconds before the ACT is
    /// re-evaluated.
    pub decision_interval_secs: f64,
    /// Spillover tolerance range `[T_l, T_u]` as fractions (0.01 = 1%).
    pub spillover_tolerance: (f64, f64),
    /// Initial admission category threshold.
    pub initial_act: usize,
    /// The feedback signal to use.
    pub signal: FeedbackSignal,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            lookback_window_secs: 900.0,
            decision_interval_secs: 900.0,
            spillover_tolerance: (0.01, 0.15),
            initial_act: 1,
            signal: FeedbackSignal::SpilloverTcio,
        }
    }
}

impl AdaptiveConfig {
    /// Validate the configuration for a selector over `num_categories`
    /// categories.
    ///
    /// # Errors
    /// Returns a description of the first invalid field.
    pub fn validate(&self, num_categories: usize) -> Result<(), String> {
        if num_categories < 2 {
            return Err(format!("num_categories must be >= 2, got {num_categories}"));
        }
        if self.lookback_window_secs <= 0.0 || self.decision_interval_secs <= 0.0 {
            return Err("window and decision interval must be positive".into());
        }
        let (lo, hi) = self.spillover_tolerance;
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
            return Err(format!("invalid spillover tolerance range [{lo}, {hi}]"));
        }
        if self.initial_act == 0 || self.initial_act > num_categories - 1 {
            return Err(format!(
                "initial_act must be in [1, {}], got {}",
                num_categories - 1,
                self.initial_act
            ));
        }
        Ok(())
    }
}

/// The adaptive category selection state machine (Algorithm 1).
#[derive(Debug, Clone)]
pub struct AdaptiveSelector {
    config: AdaptiveConfig,
    num_categories: usize,
    act: usize,
    last_decision_time: Option<f64>,
    /// The observation history `X_h`, in arrival order.
    history: VecDeque<JobOutcome>,
    /// Recorded (time, ACT, spillover percentage) samples for analysis
    /// (Figure 16 of the paper).
    trace: Vec<(f64, usize, f64)>,
}

impl AdaptiveSelector {
    /// Create a selector with the given configuration over `num_categories`
    /// categories (the ACT stays within `[1, num_categories - 1]`).
    ///
    /// # Panics
    /// Panics if the configuration is invalid; validate it first with
    /// [`AdaptiveConfig::validate`] to handle errors gracefully.
    pub fn new(config: AdaptiveConfig, num_categories: usize) -> Self {
        #[expect(
            clippy::panic,
            reason = "validation panic in AdaptiveSelector::new; documented under # Panics"
        )]
        if let Err(e) = config.validate(num_categories) {
            panic!("invalid adaptive config: {e}");
        }
        AdaptiveSelector {
            act: config.initial_act,
            config,
            num_categories,
            last_decision_time: None,
            history: VecDeque::new(),
            trace: Vec::new(),
        }
    }

    /// The current admission category threshold.
    pub fn act(&self) -> usize {
        self.act
    }

    /// The recorded `(time, ACT, spillover_percent)` adaptation trace.
    pub fn adaptation_trace(&self) -> &[(f64, usize, f64)] {
        &self.trace
    }

    /// Decide whether a job arriving at `now` with predicted `category`
    /// should be scheduled to SSD. This also performs the periodic ACT
    /// update when the previous decision has expired.
    pub fn admit(&mut self, now: f64, category: usize) -> bool {
        let expired = self
            .last_decision_time
            .is_none_or(|td| now >= td + self.config.decision_interval_secs);
        if expired {
            self.update_act(now);
            self.last_decision_time = Some(now);
        }
        category >= self.act
    }

    /// Record the realized outcome of a job (the simulator's feedback).
    pub fn observe(&mut self, outcome: &JobOutcome) {
        self.history.push_back(*outcome);
    }

    /// The spillover percentage over the current look-back window ending at
    /// `now`, according to the configured feedback signal. Returns 0.0 when
    /// no SSD-scheduled jobs are in the window.
    ///
    /// Under [`FeedbackSignal::SpilloverTcio`] each SSD-scheduled job in the
    /// window contributes the paper's `SPILLOVER_TCIO(x, t)`: the portion of
    /// its TCIO not realized because of spillover. The simulator detects a
    /// spill at admission, so a [spilled](JobOutcome::spilled) job counts
    /// its whole spill once `t = min(now, end)` is past its arrival, and
    /// still counts it after it has ended.
    pub fn spillover_fraction(&mut self, now: f64) -> f64 {
        let window_start = now - self.config.lookback_window_secs;
        // Remove expired observations (jobs that *started* before the window).
        while let Some(front) = self.history.front() {
            if front.arrival < window_start {
                self.history.pop_front();
            } else {
                break;
            }
        }
        let mut spilled = 0.0;
        let mut scheduled = 0.0;
        for o in &self.history {
            if o.scheduled != Device::Ssd {
                continue;
            }
            match self.config.signal {
                FeedbackSignal::SpilloverTcio => {
                    scheduled += o.tcio_hdd;
                    if o.spilled() && now.min(o.end) > o.arrival {
                        spilled += (1.0 - o.ssd_fraction) * o.tcio_hdd;
                    }
                }
                FeedbackSignal::SpilloverBytes => {
                    scheduled += o.size_bytes as f64;
                    spilled += (1.0 - o.ssd_fraction) * o.size_bytes as f64;
                }
            }
        }
        if scheduled <= 0.0 {
            0.0
        } else {
            spilled / scheduled
        }
    }

    fn update_act(&mut self, now: f64) {
        let spill = self.spillover_fraction(now);
        let (lo, hi) = self.config.spillover_tolerance;
        if spill < lo {
            // SSD has headroom: admit more categories (lower the threshold).
            self.act = self.act.saturating_sub(1).max(1);
        } else if spill > hi {
            // SSD is saturated: admit fewer categories (raise the threshold).
            self.act = (self.act + 1).min(self.num_categories - 1);
        }
        self.trace.push((now, self.act, spill * 100.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::JobId;

    fn config() -> AdaptiveConfig {
        AdaptiveConfig {
            lookback_window_secs: 100.0,
            decision_interval_secs: 10.0,
            spillover_tolerance: (0.05, 0.25),
            initial_act: 1,
            signal: FeedbackSignal::SpilloverTcio,
        }
    }

    fn outcome(arrival: f64, scheduled: Device, fraction: f64, tcio: f64) -> JobOutcome {
        JobOutcome {
            job_id: JobId(0),
            arrival,
            end: arrival + 50.0,
            scheduled,
            ssd_fraction: fraction,
            tcio_hdd: tcio,
            size_bytes: 100,
        }
    }

    #[test]
    fn admits_categories_at_or_above_act() {
        let mut s = AdaptiveSelector::new(config(), 5);
        assert_eq!(s.act(), 1);
        assert!(s.admit(0.0, 1));
        assert!(s.admit(0.0, 4));
        assert!(!s.admit(0.0, 0));
    }

    #[test]
    fn act_rises_under_heavy_spillover() {
        let mut s = AdaptiveSelector::new(config(), 5);
        // Feed fully-spilled SSD-scheduled jobs.
        for i in 0..10 {
            s.observe(&outcome(i as f64, Device::Ssd, 0.0, 1.0));
        }
        // Advance decisions over time so the ACT has several chances to move.
        let mut acts = Vec::new();
        for step in 1..=4 {
            let now = 10.0 + step as f64 * 10.0;
            let _ = s.admit(now, 4);
            acts.push(s.act());
        }
        assert!(*acts.last().unwrap() > 1, "ACT should rise, got {acts:?}");
        assert!(*acts.last().unwrap() <= 4);
    }

    #[test]
    fn act_falls_when_spillover_is_low() {
        let mut s = AdaptiveSelector::new(
            AdaptiveConfig {
                initial_act: 4,
                ..config()
            },
            5,
        );
        for i in 0..10 {
            s.observe(&outcome(i as f64, Device::Ssd, 1.0, 1.0));
        }
        for step in 1..=4 {
            let _ = s.admit(10.0 + step as f64 * 10.0, 4);
        }
        assert_eq!(
            s.act(),
            1,
            "ACT should decay to the floor with no spillover"
        );
    }

    #[test]
    fn act_stays_within_bounds() {
        let mut s = AdaptiveSelector::new(config(), 3);
        // Heavy spillover forever: ACT must not exceed N-1 = 2.
        for i in 0..100 {
            s.observe(&outcome(i as f64, Device::Ssd, 0.0, 1.0));
            let _ = s.admit(i as f64, 2);
        }
        assert!(s.act() <= 2 && s.act() >= 1);
    }

    #[test]
    fn act_unchanged_inside_tolerance_range() {
        let mut s = AdaptiveSelector::new(
            AdaptiveConfig {
                initial_act: 2,
                spillover_tolerance: (0.05, 0.5),
                ..config()
            },
            5,
        );
        // ~25% spillover: inside [5%, 50%].
        for i in 0..8 {
            let fraction = if i % 4 == 0 { 0.0 } else { 1.0 };
            s.observe(&outcome(i as f64, Device::Ssd, fraction, 1.0));
        }
        for step in 1..=3 {
            let _ = s.admit(8.0 + step as f64 * 10.0, 4);
        }
        assert_eq!(s.act(), 2);
    }

    #[test]
    fn decision_interval_limits_update_frequency() {
        let mut s = AdaptiveSelector::new(config(), 5);
        for i in 0..5 {
            s.observe(&outcome(i as f64, Device::Ssd, 0.0, 1.0));
        }
        // Many admissions within one decision interval: only the first
        // triggers an update.
        let _ = s.admit(5.0, 4);
        let updates_after_first = s.adaptation_trace().len();
        for _ in 0..10 {
            let _ = s.admit(5.5, 4);
        }
        assert_eq!(s.adaptation_trace().len(), updates_after_first);
    }

    #[test]
    fn lookback_window_drops_old_observations() {
        let mut s = AdaptiveSelector::new(config(), 5);
        // Old, fully-spilled jobs...
        for i in 0..5 {
            s.observe(&outcome(i as f64, Device::Ssd, 0.0, 1.0));
        }
        // ...followed by recent, fully-fitting jobs far in the future.
        for i in 0..5 {
            s.observe(&outcome(1000.0 + i as f64, Device::Ssd, 1.0, 1.0));
        }
        let spill = s.spillover_fraction(1010.0);
        assert!(
            spill < 0.01,
            "old spillover should have aged out, got {spill}"
        );
    }

    #[test]
    fn a_spill_counts_in_full_once_past_its_arrival() {
        let mut s = AdaptiveSelector::new(config(), 5);
        s.observe(&outcome(10.0, Device::Ssd, 0.25, 2.0));
        s.observe(&outcome(10.0, Device::Ssd, 1.0, 2.0));
        assert_eq!(s.spillover_fraction(10.0), 0.0, "not yet past arrival");
        assert_eq!(s.spillover_fraction(10.5), 0.375);
        assert_eq!(
            s.spillover_fraction(100.0),
            0.375,
            "still counted after end"
        );
    }

    #[test]
    fn hdd_scheduled_jobs_do_not_affect_spillover() {
        let mut s = AdaptiveSelector::new(config(), 5);
        for i in 0..5 {
            s.observe(&outcome(i as f64, Device::Hdd, 0.0, 1.0));
        }
        assert_eq!(s.spillover_fraction(10.0), 0.0);
    }

    #[test]
    fn byte_signal_ablation_tracks_fractions() {
        let mut s = AdaptiveSelector::new(
            AdaptiveConfig {
                signal: FeedbackSignal::SpilloverBytes,
                ..config()
            },
            5,
        );
        s.observe(&outcome(0.0, Device::Ssd, 1.0, 1.0));
        s.observe(&outcome(1.0, Device::Ssd, 0.0, 1.0));
        assert!((s.spillover_fraction(2.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn config_validation_catches_errors() {
        assert!(AdaptiveConfig::default().validate(15).is_ok());
        assert!(AdaptiveConfig::default().validate(1).is_err());
        assert!(AdaptiveConfig {
            initial_act: 4,
            ..AdaptiveConfig::default()
        }
        .validate(4)
        .is_err());
        assert!(AdaptiveConfig {
            spillover_tolerance: (0.5, 0.1),
            ..AdaptiveConfig::default()
        }
        .validate(15)
        .is_err());
        assert!(AdaptiveConfig {
            initial_act: 0,
            ..AdaptiveConfig::default()
        }
        .validate(15)
        .is_err());
        assert!(AdaptiveConfig {
            lookback_window_secs: 0.0,
            ..AdaptiveConfig::default()
        }
        .validate(15)
        .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid adaptive config")]
    fn constructor_panics_on_invalid_config() {
        let _ = AdaptiveSelector::new(AdaptiveConfig::default(), 0);
    }
}
