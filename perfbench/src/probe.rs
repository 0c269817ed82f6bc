//! Measurement helpers: the timing wrapper around placement policies,
//! process counters from `/proc`, order statistics, and placement digests.

use byom_cost::JobCost;
use byom_sim::{
    Device, JobOutcome, PlacementPolicy, ResilienceReport, SimulationResult, SystemState,
};
use byom_trace::ShuffleJob;
use std::time::Instant;

/// A thin wrapper that times every `place` and `observe` call of a policy.
///
/// With `detail` on it also keeps each call's start and end, so the traced
/// run can turn them into per-call spans.
#[derive(Debug)]
pub struct Timed<P> {
    pub inner: P,
    pub place_ns: Vec<u64>,
    pub observe_ns: u64,
    pub calls: Vec<(&'static str, Instant, Instant)>,
    detail: bool,
}

impl<P: PlacementPolicy> Timed<P> {
    pub fn new(inner: P, jobs: usize, detail: bool) -> Self {
        Timed {
            inner,
            place_ns: Vec::with_capacity(jobs),
            observe_ns: 0,
            calls: Vec::with_capacity(if detail { 2 * jobs } else { 0 }),
            detail,
        }
    }

    /// Total time spent inside the wrapped policy.
    pub fn policy_ns(&self) -> u64 {
        self.place_ns.iter().sum::<u64>() + self.observe_ns
    }
}

impl<P: PlacementPolicy> PlacementPolicy for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&mut self, job: &ShuffleJob, cost: &JobCost, state: &SystemState) -> Device {
        let start = Instant::now();
        let device = self.inner.place(job, cost, state);
        let end = Instant::now();
        self.place_ns.push((end - start).as_nanos() as u64);
        if self.detail {
            self.calls.push(("policy.place", start, end));
        }
        device
    }

    fn observe(&mut self, outcome: &JobOutcome) {
        let start = Instant::now();
        self.inner.observe(outcome);
        let end = Instant::now();
        self.observe_ns += (end - start).as_nanos() as u64;
        if self.detail {
            self.calls.push(("policy.observe", start, end));
        }
    }

    fn fill_resilience(&self, report: &mut ResilienceReport) {
        self.inner.fill_resilience(report);
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an already sorted slice.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of many repeated timings of the same work.
///
/// Repeats do identical work on identical input, so what differs between
/// them is load from outside the process, which only ever adds time. On a
/// shared host that load comes and goes for seconds at a time; a median
/// follows it whenever it covers half a run, the fastest repeat only when
/// it covers all of it.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// [`fastest`] for a rate, where higher is faster.
pub fn fastest_rate(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
/// Linux reports these fields in `USER_HZ` ticks, which is 100 per second.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3 (state),
    // so utime (field 14) and stime (field 15) sit at offsets 11 and 12.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a digest of a run's placements: job id, scheduled device and the
/// exact SSD fraction of every outcome.
pub fn placement_digest(result: &SimulationResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in &result.outcomes {
        eat(o.job_id.0);
        eat(u64::from(o.scheduled == Device::Ssd));
        eat(o.ssd_fraction.to_bits());
    }
    h
}

/// Placements of one replay that break a simulator invariant: a missing
/// outcome, an SSD fraction outside `[0, 1]`, or (failing every placement)
/// a peak SSD occupancy above the capacity.
pub fn invalid_placements(result: &SimulationResult, expected_jobs: usize, capacity: u64) -> usize {
    if result.peak_ssd_occupancy_bytes > capacity {
        return expected_jobs.max(result.outcomes.len());
    }
    let bad = result
        .outcomes
        .iter()
        .filter(|o| !(0.0..=1.0).contains(&o.ssd_fraction))
        .count();
    bad + expected_jobs.abs_diff(result.outcomes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest_rate(&[1.0, 4.0, 3.0]), 4.0);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
