//! Discretized time axis shared by a set of jobs.
//!
//! The oracle's capacity constraint must hold at every instant, but
//! occupancy only changes at job arrival and end times, so it suffices to
//! check the constraint on the segments between consecutive event times.
//! [`Timeline`] maps each job's `[arrival, end)` interval to a half-open
//! range of segment indices.

use byom_cost::JobCost;

/// A discretized time axis built from job arrival/end events.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Sorted, deduplicated event times.
    events: Vec<f64>,
}

impl Timeline {
    /// Build a timeline from the given jobs' arrival and end times.
    ///
    /// # Panics
    /// Panics if `jobs` is empty or contains non-finite times.
    pub fn new(jobs: &[JobCost]) -> Self {
        assert!(!jobs.is_empty(), "timeline needs at least one job");
        let mut events = Vec::with_capacity(jobs.len() * 2);
        for j in jobs {
            assert!(
                j.arrival.is_finite() && j.end().is_finite(),
                "job times must be finite"
            );
            events.push(j.arrival);
            events.push(j.end());
        }
        events.sort_by(|a, b| a.total_cmp(b));
        events.dedup();
        Timeline { events }
    }

    /// Number of segments (gaps between consecutive event times).
    pub fn num_segments(&self) -> usize {
        self.events.len().saturating_sub(1).max(1)
    }

    /// Map a job's `[arrival, end)` interval to segment indices `[lo, hi)`.
    /// A zero-length job maps to an empty range.
    pub fn segment_range(&self, job: &JobCost) -> (usize, usize) {
        let lo = self.index_of(job.arrival);
        let hi = self.index_of(job.end());
        (lo, hi)
    }

    /// Index of the segment starting at time `t` (t must be an event time or
    /// between events; the segment containing `t` is returned).
    fn index_of(&self, t: f64) -> usize {
        match self.events.binary_search_by(|e| e.total_cmp(&t)) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
        .min(self.num_segments())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::JobId;

    fn job(id: u64, arrival: f64, lifetime: f64) -> JobCost {
        JobCost {
            id: JobId(id),
            arrival,
            lifetime,
            size_bytes: 1,
            tcio_hdd: 0.0,
            tco_hdd: 0.0,
            tco_ssd: 0.0,
            io_density: 0.0,
        }
    }

    #[test]
    fn builds_sorted_unique_events() {
        let jobs = vec![job(0, 0.0, 10.0), job(1, 5.0, 5.0), job(2, 0.0, 10.0)];
        let t = Timeline::new(&jobs);
        assert_eq!(t.events, [0.0, 5.0, 10.0]);
        assert_eq!(t.num_segments(), 2);
    }

    #[test]
    fn segment_ranges_cover_job_lifetimes() {
        let jobs = vec![job(0, 0.0, 10.0), job(1, 5.0, 10.0), job(2, 20.0, 5.0)];
        let t = Timeline::new(&jobs);
        // Events: 0, 5, 10, 15, 20, 25 -> 5 segments.
        assert_eq!(t.num_segments(), 5);
        assert_eq!(t.segment_range(&jobs[0]), (0, 2));
        assert_eq!(t.segment_range(&jobs[1]), (1, 3));
        assert_eq!(t.segment_range(&jobs[2]), (4, 5));
    }

    #[test]
    fn non_overlapping_jobs_get_disjoint_ranges() {
        let jobs = vec![job(0, 0.0, 10.0), job(1, 10.0, 10.0)];
        let t = Timeline::new(&jobs);
        let (a_lo, a_hi) = t.segment_range(&jobs[0]);
        let (b_lo, b_hi) = t.segment_range(&jobs[1]);
        assert!(
            a_hi <= b_lo,
            "ranges {a_lo}..{a_hi} and {b_lo}..{b_hi} overlap"
        );
        assert!(a_lo < a_hi && b_lo < b_hi);
    }

    #[test]
    fn single_job_timeline() {
        let jobs = vec![job(0, 3.0, 7.0)];
        let t = Timeline::new(&jobs);
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.segment_range(&jobs[0]), (0, 1));
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_jobs_rejected() {
        let _ = Timeline::new(&[]);
    }
}
