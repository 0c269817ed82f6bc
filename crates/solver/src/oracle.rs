//! The clairvoyant oracle solver.
//!
//! The oracle solves the temporal-knapsack ILP of Section 3.1: maximize the
//! summed per-job value of SSD placement subject to the SSD occupancy never
//! exceeding the capacity. Values are either TCO savings (`Oracle TCO`) or
//! TCIO-seconds removed from HDDs (`Oracle TCIO`).
//!
//! The solver is a greedy heuristic for the NP-hard problem: jobs are
//! considered one at a time and admitted if they fit under the capacity
//! across their whole lifetime. It runs that pass under three orderings —
//! decreasing value per SSD byte-second (the LP-relaxation dual-price
//! ordering), decreasing absolute value, and smallest footprint first — and
//! keeps the best. An admitted job is never removed, so occupancy only grows:
//! a job that does not fit when its turn comes would not fit later either.
//! Tests bound the remaining gap against the exact branch-and-bound solver.

use crate::segment_tree::SegmentTree;
use crate::timeline::Timeline;
use byom_cost::JobCost;

/// What the oracle optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleObjective {
    /// Maximize total TCO savings (jobs with negative savings are never
    /// placed on SSD).
    Tco,
    /// Maximize TCIO-seconds removed from HDDs (ignores SSD cost).
    Tcio,
}

impl OracleObjective {
    /// The value the objective assigns to placing `job` on SSD.
    pub fn value(&self, job: &JobCost) -> f64 {
        match self {
            OracleObjective::Tco => job.tco_savings(),
            OracleObjective::Tcio => job.tcio_seconds(),
        }
    }
}

/// The oracle's placement decision for a set of jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleSolution {
    /// `on_ssd[i]` is true if job `i` (in input order) is placed on SSD.
    pub on_ssd: Vec<bool>,
    /// Total objective value achieved.
    pub total_value: f64,
    /// Peak SSD occupancy (bytes) of the chosen placement.
    pub peak_occupancy: u64,
}

impl OracleSolution {
    /// Number of jobs placed on SSD.
    pub fn num_on_ssd(&self) -> usize {
        self.on_ssd.iter().filter(|&&b| b).count()
    }
}

/// The clairvoyant oracle solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oracle {
    objective: OracleObjective,
    capacity_bytes: u64,
}

impl Oracle {
    /// Create an oracle optimizing `objective` under an SSD capacity of
    /// `capacity_bytes`.
    pub fn new(objective: OracleObjective, capacity_bytes: u64) -> Self {
        Oracle {
            objective,
            capacity_bytes,
        }
    }

    /// Solve the placement problem for `jobs`. The result indexes jobs in
    /// their input order. Jobs with non-positive value are never selected.
    ///
    /// The solver runs the greedy admission under three candidate orderings
    /// (value density, absolute value, smallest footprint first) and keeps
    /// the best result; tests compare against the exact solver to bound the
    /// remaining optimality gap.
    pub fn solve(&self, jobs: &[JobCost]) -> OracleSolution {
        if jobs.is_empty() {
            return OracleSolution {
                on_ssd: Vec::new(),
                total_value: 0.0,
                peak_occupancy: 0,
            };
        }
        let timeline = Timeline::new(jobs);
        let capacity = self.capacity_bytes as f64;

        // Candidate jobs with positive value.
        #[expect(
            clippy::indexing_slicing,
            reason = "candidate indices come from 0..jobs.len(); hot greedy loop"
        )]
        let candidates: Vec<usize> = (0..jobs.len())
            .filter(|&i| self.objective.value(&jobs[i]) > 0.0 && jobs[i].size_bytes > 0)
            .collect();

        #[expect(
            clippy::indexing_slicing,
            reason = "candidate indices come from 0..jobs.len(); hot greedy loop"
        )]
        let density =
            |i: usize| self.objective.value(&jobs[i]) / jobs[i].ssd_byte_seconds().max(1e-9);
        #[allow(
            clippy::type_complexity,
            reason = "one local array of boxed comparators"
        )]
        #[expect(
            clippy::indexing_slicing,
            reason = "candidate indices come from 0..jobs.len(); hot greedy loop"
        )]
        let orderings: [Box<dyn Fn(&usize, &usize) -> std::cmp::Ordering>; 3] = [
            Box::new(|&a: &usize, &b: &usize| density(b).total_cmp(&density(a))),
            Box::new(|&a: &usize, &b: &usize| {
                self.objective
                    .value(&jobs[b])
                    .total_cmp(&self.objective.value(&jobs[a]))
            }),
            Box::new(|&a: &usize, &b: &usize| {
                jobs[a]
                    .ssd_byte_seconds()
                    .total_cmp(&jobs[b].ssd_byte_seconds())
            }),
        ];

        let mut best: Option<OracleSolution> = None;
        for ordering in &orderings {
            let mut order = candidates.clone();
            order.sort_by(|a, b| ordering(a, b));

            let mut occupancy = SegmentTree::new(timeline.num_segments());
            let mut on_ssd = vec![false; jobs.len()];
            let mut total_value = 0.0;
            for &i in &order {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "candidate indices come from 0..jobs.len(); hot greedy loop"
                )]
                let job = &jobs[i];
                let (lo, hi) = timeline.segment_range(job);
                if lo >= hi {
                    continue;
                }
                let current = occupancy.range_max(lo, hi).max(0.0);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "candidate indices come from 0..jobs.len(); hot greedy loop"
                )]
                if current + job.size_bytes as f64 <= capacity {
                    occupancy.range_add(lo, hi, job.size_bytes as f64);
                    on_ssd[i] = true;
                    total_value += self.objective.value(job);
                }
            }

            let solution = OracleSolution {
                on_ssd,
                total_value,
                peak_occupancy: occupancy.global_max().max(0.0) as u64,
            };
            if best
                .as_ref()
                .is_none_or(|b| solution.total_value > b.total_value)
            {
                best = Some(solution);
            }
        }
        // Every ordering pass sets `best`; the empty fallback is unreachable
        // but keeps the solver panic-free.
        best.unwrap_or_else(|| OracleSolution {
            on_ssd: vec![false; jobs.len()],
            total_value: 0.0,
            peak_occupancy: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::JobId;

    fn job(id: u64, arrival: f64, lifetime: f64, size: u64, savings: f64, tcio: f64) -> JobCost {
        JobCost {
            id: JobId(id),
            arrival,
            lifetime,
            size_bytes: size,
            tcio_hdd: tcio,
            tco_hdd: savings.max(0.0) + 1.0,
            tco_ssd: 1.0 - savings.min(0.0),
            io_density: 1.0,
        }
    }

    #[test]
    fn empty_input_gives_empty_solution() {
        let s = Oracle::new(OracleObjective::Tco, 100).solve(&[]);
        assert!(s.on_ssd.is_empty());
        assert_eq!(s.total_value, 0.0);
        assert_eq!(s.num_on_ssd(), 0);
    }

    #[test]
    fn never_selects_negative_savings_jobs() {
        let jobs = vec![
            job(0, 0.0, 10.0, 10, 5.0, 1.0),
            job(1, 0.0, 10.0, 10, -5.0, 1.0),
        ];
        let s = Oracle::new(OracleObjective::Tco, 1000).solve(&jobs);
        assert!(s.on_ssd[0]);
        assert!(!s.on_ssd[1]);
    }

    #[test]
    fn respects_capacity_for_overlapping_jobs() {
        // Two overlapping jobs of size 60 with capacity 100: only one fits.
        let jobs = vec![
            job(0, 0.0, 10.0, 60, 10.0, 1.0),
            job(1, 5.0, 10.0, 60, 8.0, 1.0),
        ];
        let s = Oracle::new(OracleObjective::Tco, 100).solve(&jobs);
        assert_eq!(s.num_on_ssd(), 1);
        assert!(s.on_ssd[0], "higher-value job should win");
        assert!(s.peak_occupancy <= 100);
    }

    #[test]
    fn admits_both_when_not_overlapping() {
        let jobs = vec![
            job(0, 0.0, 10.0, 60, 10.0, 1.0),
            job(1, 20.0, 10.0, 60, 8.0, 1.0),
        ];
        let s = Oracle::new(OracleObjective::Tco, 100).solve(&jobs);
        assert_eq!(s.num_on_ssd(), 2);
        assert!((s.total_value - 18.0).abs() < 1e-9);
    }

    #[test]
    fn prefers_dense_small_jobs_under_tight_capacity() {
        // One big job with value 10 vs. many small jobs with total value 20.
        let mut jobs = vec![job(0, 0.0, 10.0, 100, 10.0, 1.0)];
        for i in 1..=10 {
            jobs.push(job(i, 0.0, 10.0, 10, 2.0, 0.5));
        }
        let s = Oracle::new(OracleObjective::Tco, 100).solve(&jobs);
        assert!(!s.on_ssd[0], "small dense jobs should displace the big one");
        assert_eq!(s.num_on_ssd(), 10);
        assert!((s.total_value - 20.0).abs() < 1e-9);
    }

    #[test]
    fn tcio_objective_ignores_negative_tco() {
        // Job with negative TCO savings but high TCIO is selected by the TCIO
        // oracle and rejected by the TCO oracle.
        let jobs = vec![job(0, 0.0, 10.0, 10, -1.0, 5.0)];
        let tco = Oracle::new(OracleObjective::Tco, 100).solve(&jobs);
        let tcio = Oracle::new(OracleObjective::Tcio, 100).solve(&jobs);
        assert!(!tco.on_ssd[0]);
        assert!(tcio.on_ssd[0]);
        assert!((tcio.total_value - 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_selects_nothing() {
        let jobs = vec![job(0, 0.0, 10.0, 10, 5.0, 1.0)];
        let s = Oracle::new(OracleObjective::Tco, 0).solve(&jobs);
        assert_eq!(s.num_on_ssd(), 0);
    }

    #[test]
    fn larger_capacity_never_reduces_value() {
        let jobs: Vec<JobCost> = (0..50)
            .map(|i| {
                job(
                    i,
                    (i % 7) as f64 * 10.0,
                    30.0 + (i % 5) as f64 * 10.0,
                    10 + (i % 13) * 5,
                    (i % 11) as f64 - 2.0,
                    0.1 * (i % 4) as f64,
                )
            })
            .collect();
        let mut last = 0.0;
        for cap in [0u64, 50, 100, 200, 400, 1000, 10_000] {
            let s = Oracle::new(OracleObjective::Tco, cap).solve(&jobs);
            assert!(
                s.total_value >= last - 1e-9,
                "value decreased from {last} to {} at capacity {cap}",
                s.total_value
            );
            last = s.total_value;
        }
    }
}
