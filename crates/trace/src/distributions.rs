//! Small library of sampling helpers used by the trace generator.
//!
//! The generator needs heavy-tailed distributions (log-normal, bounded
//! Pareto), diurnal arrival modulation, and a few convenience samplers. We
//! implement them directly on top of `rand`'s uniform/normal primitives so we
//! do not pull in `rand_distr`; the formulas are standard inverse-CDF or
//! Box–Muller constructions.

use rand::Rng;

/// Sample a standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid log(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A log-normal distribution parameterized by the underlying normal's
/// mean (`mu`) and standard deviation (`sigma`), i.e. `exp(mu + sigma*Z)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal (log scale).
    pub mu: f64,
    /// Standard deviation of the underlying normal (log scale).
    pub sigma: f64,
}

impl LogNormal {
    /// Construct a log-normal from the *median* and a multiplicative spread
    /// factor: ~68% of samples fall within `[median/spread, median*spread]`.
    ///
    /// # Panics
    /// Panics if `median <= 0` or `spread < 1`.
    pub fn from_median_spread(median: f64, spread: f64) -> Self {
        assert!(median > 0.0, "median must be positive, got {median}");
        assert!(spread >= 1.0, "spread must be >= 1, got {spread}");
        LogNormal {
            mu: median.ln(),
            sigma: spread.ln(),
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// A bounded Pareto distribution on `[min, max]` with shape `alpha`.
///
/// Used for job sizes, which in production span many orders of magnitude but
/// have physical upper bounds (cluster capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    /// Lower bound (inclusive).
    pub min: f64,
    /// Upper bound (inclusive).
    pub max: f64,
    /// Shape parameter; smaller values give heavier tails.
    pub alpha: f64,
}

impl BoundedPareto {
    /// Create a new bounded Pareto distribution.
    ///
    /// # Panics
    /// Panics if `min <= 0`, `max <= min`, or `alpha <= 0`.
    pub fn new(min: f64, max: f64, alpha: f64) -> Self {
        assert!(min > 0.0, "min must be positive");
        assert!(max > min, "max must exceed min");
        assert!(alpha > 0.0, "alpha must be positive");
        BoundedPareto { min, max, alpha }
    }

    /// Draw one sample via inverse-CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let l = self.min.powf(self.alpha);
        let h = self.max.powf(self.alpha);
        // Inverse CDF of the bounded Pareto.
        let x = (-(u * h - u * l - h) / (h * l)).powf(-1.0 / self.alpha);
        x.clamp(self.min, self.max)
    }
}

/// Diurnal (and weekly) load modulation: a multiplicative factor applied to
/// arrival rates as a function of time-of-day and day-of-week.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalPattern {
    /// Amplitude of the daily sinusoid in `[0, 1)`; 0 disables modulation.
    pub daily_amplitude: f64,
    /// Relative load level on weekends (1.0 = same as weekdays).
    pub weekend_factor: f64,
    /// Hour of peak load (0-23).
    pub peak_hour: f64,
}

impl Default for DiurnalPattern {
    fn default() -> Self {
        DiurnalPattern {
            daily_amplitude: 0.4,
            weekend_factor: 0.7,
            peak_hour: 14.0,
        }
    }
}

impl DiurnalPattern {
    /// Load multiplier at time `t` seconds from the trace origin (assumed to
    /// start at midnight on a Monday). Always positive.
    pub fn load_factor(&self, t: f64) -> f64 {
        let hours = (t / 3600.0) % 24.0;
        let day = ((t / 86_400.0).floor() as i64).rem_euclid(7);
        let phase = (hours - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        let daily = 1.0 + self.daily_amplitude * phase.cos();
        let weekly = if day >= 5 { self.weekend_factor } else { 1.0 };
        (daily * weekly).max(1e-3)
    }
}

/// Sample an exponential inter-arrival gap for a Poisson process with the
/// given rate (events per second).
///
/// # Panics
/// Panics if `rate_per_sec` is not positive.
pub fn exponential_gap<R: Rng + ?Sized>(rng: &mut R, rate_per_sec: f64) -> f64 {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn standard_normal_has_reasonable_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut r = rng();
        let d = LogNormal::from_median_spread(100.0, 3.0);
        let mut samples: Vec<f64> = (0..10_001).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!(median > 80.0 && median < 125.0, "median {median}");
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn lognormal_rejects_nonpositive_median() {
        let _ = LogNormal::from_median_spread(0.0, 2.0);
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut r = rng();
        let d = BoundedPareto::new(1e3, 1e9, 0.8);
        for _ in 0..5000 {
            let x = d.sample(&mut r);
            assert!((1e3..=1e9).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let mut r = rng();
        let d = BoundedPareto::new(1.0, 1e6, 0.5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let max = samples.iter().cloned().fold(0.0, f64::max);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[n / 2];
        // Heavy tail: max should be several orders of magnitude above the median.
        assert!(max / median > 100.0, "max {max} median {median}");
    }

    #[test]
    #[should_panic(expected = "max must exceed min")]
    fn bounded_pareto_rejects_bad_bounds() {
        let _ = BoundedPareto::new(10.0, 5.0, 1.0);
    }

    #[test]
    fn diurnal_factor_positive_and_peaks_at_peak_hour() {
        let p = DiurnalPattern::default();
        let peak = p.load_factor(p.peak_hour * 3600.0);
        let trough = p.load_factor((p.peak_hour + 12.0) * 3600.0);
        assert!(peak > trough);
        for h in 0..48 {
            assert!(p.load_factor(h as f64 * 3600.0) > 0.0);
        }
    }

    #[test]
    fn diurnal_weekend_reduces_load() {
        let p = DiurnalPattern::default();
        // Same hour on Monday (day 0) vs Saturday (day 5).
        let monday = p.load_factor(12.0 * 3600.0);
        let saturday = p.load_factor(5.0 * 86_400.0 + 12.0 * 3600.0);
        assert!(saturday < monday);
    }

    #[test]
    fn exponential_gap_mean_matches_rate() {
        let mut r = rng();
        let rate = 0.5; // mean gap 2s
        let n = 20_000;
        let mean = (0..n).map(|_| exponential_gap(&mut r, rate)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }
}
