//! The [`Trace`] container: an arrival-ordered sequence of shuffle jobs plus
//! the aggregate queries that experiments need (peak space usage, time
//! splits, per-cluster filtering).

use crate::job::ShuffleJob;

/// An arrival-time-ordered sequence of shuffle jobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    jobs: Vec<ShuffleJob>,
}

impl Trace {
    /// Build a trace from a list of jobs. Jobs are sorted by arrival time.
    pub fn new(mut jobs: Vec<ShuffleJob>) -> Self {
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        Trace { jobs }
    }

    /// The jobs, in arrival order.
    pub fn jobs(&self) -> &[ShuffleJob] {
        &self.jobs
    }

    /// Number of jobs in the trace.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the trace contains no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Iterate over the jobs in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, ShuffleJob> {
        self.jobs.iter()
    }

    /// Consume the trace, returning the job vector.
    pub fn into_jobs(self) -> Vec<ShuffleJob> {
        self.jobs
    }

    /// Time span covered by the trace: from the first arrival to the latest
    /// job end. Returns `(0.0, 0.0)` for an empty trace.
    pub fn time_span(&self) -> (f64, f64) {
        if self.jobs.is_empty() {
            return (0.0, 0.0);
        }
        let start = self.jobs.first().map(|j| j.arrival).unwrap_or(0.0);
        let end = self.jobs.iter().map(|j| j.end()).fold(f64::MIN, f64::max);
        (start, end)
    }

    /// Peak simultaneous storage footprint (bytes) if every job's files were
    /// retained for its full lifetime. This is the "peak theoretical SSD
    /// usage limit" against which the paper expresses SSD quotas.
    pub fn peak_space_usage(&self) -> u64 {
        // Sweep over arrival/end events.
        let mut events: Vec<(f64, i64)> = Vec::with_capacity(self.jobs.len() * 2);
        for j in &self.jobs {
            events.push((j.arrival, j.size_bytes as i64));
            events.push((j.end(), -(j.size_bytes as i64)));
        }
        events.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                // Process departures before arrivals at identical timestamps so
                // instantaneous swaps do not double count.
                .then(a.1.cmp(&b.1))
        });
        let mut current: i64 = 0;
        let mut peak: i64 = 0;
        for (_, delta) in events {
            current += delta;
            peak = peak.max(current);
        }
        peak.max(0) as u64
    }

    /// Total bytes across all jobs' peak footprints (not deduplicated in time).
    pub fn total_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.size_bytes).sum()
    }

    /// Keep only jobs satisfying the predicate.
    pub fn filter<F: Fn(&ShuffleJob) -> bool>(&self, pred: F) -> Trace {
        Trace {
            jobs: self.jobs.iter().filter(|j| pred(j)).cloned().collect(),
        }
    }

    /// Largest job id in the trace (0 for an empty trace). Perturbation
    /// layers use this to mint fresh ids for duplicated jobs.
    pub fn max_job_id(&self) -> u64 {
        self.jobs.iter().map(|j| j.id.0).max().unwrap_or(0)
    }

    /// Rewrite the trace job-by-job: the callback receives each job in
    /// arrival order and pushes zero or more replacement jobs into `out`
    /// (push nothing to drop the job, push it twice to duplicate it, or push
    /// an edited copy to corrupt its metadata). The result is re-sorted by
    /// arrival, so replacements may move in time.
    ///
    /// This is the hook fault-injection layers (`byom_chaos`) use to perturb
    /// traces without reaching into the container's internals.
    pub fn perturb<F: FnMut(ShuffleJob, &mut Vec<ShuffleJob>)>(self, mut f: F) -> Trace {
        let mut out = Vec::with_capacity(self.jobs.len());
        for job in self.jobs {
            f(job, &mut out);
        }
        Trace::new(out)
    }
}

impl FromIterator<ShuffleJob> for Trace {
    fn from_iter<T: IntoIterator<Item = ShuffleJob>>(iter: T) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a ShuffleJob;
    type IntoIter = std::slice::Iter<'a, ShuffleJob>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

impl IntoIterator for Trace {
    type Item = ShuffleJob;
    type IntoIter = std::vec::IntoIter<ShuffleJob>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.into_iter()
    }
}

impl Extend<ShuffleJob> for Trace {
    fn extend<T: IntoIterator<Item = ShuffleJob>>(&mut self, iter: T) {
        self.jobs.extend(iter);
        self.jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::JobFeatures;
    use crate::job::{IoProfile, JobId};

    fn job(id: u64, arrival: f64, lifetime: f64, size: u64) -> ShuffleJob {
        ShuffleJob {
            id: JobId(id),
            cluster: 0,
            arrival,
            lifetime,
            size_bytes: size,
            io: IoProfile::default(),
            features: JobFeatures::default(),
            archetype: 0,
        }
    }

    #[test]
    fn new_sorts_by_arrival() {
        let t = Trace::new(vec![job(0, 5.0, 1.0, 1), job(1, 1.0, 1.0, 1)]);
        assert_eq!(t.jobs()[0].arrival, 1.0);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.time_span(), (0.0, 0.0));
        assert_eq!(t.peak_space_usage(), 0);
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    fn peak_space_usage_overlapping_jobs() {
        // Jobs: [0,10] size 100, [5,15] size 200, [20,30] size 50.
        let t = Trace::new(vec![
            job(0, 0.0, 10.0, 100),
            job(1, 5.0, 10.0, 200),
            job(2, 20.0, 10.0, 50),
        ]);
        assert_eq!(t.peak_space_usage(), 300);
        assert_eq!(t.total_bytes(), 350);
    }

    #[test]
    fn peak_space_usage_back_to_back_does_not_double_count() {
        // Second job starts exactly when the first ends.
        let t = Trace::new(vec![job(0, 0.0, 10.0, 100), job(1, 10.0, 10.0, 100)]);
        assert_eq!(t.peak_space_usage(), 100);
    }

    #[test]
    fn filter_keeps_matching_jobs() {
        let t = Trace::new(vec![job(0, 1.0, 1.0, 10), job(1, 2.0, 1.0, 20)]);
        let big = t.filter(|j| j.size_bytes >= 20);
        assert_eq!(big.len(), 1);
        assert_eq!(big.jobs()[0].id, JobId(1));
    }

    #[test]
    fn perturb_can_drop_duplicate_and_edit() {
        let t = Trace::new(vec![
            job(0, 1.0, 1.0, 10),
            job(1, 2.0, 1.0, 20),
            job(2, 3.0, 1.0, 30),
        ]);
        assert_eq!(t.max_job_id(), 2);
        let next_id = t.max_job_id() + 1;
        let p = t.perturb(|j, out| match j.id.0 {
            0 => {} // drop
            1 => {
                let mut twin = j.clone();
                twin.id = JobId(next_id);
                out.push(j);
                out.push(twin);
            }
            _ => {
                let mut edited = j;
                edited.size_bytes *= 2;
                out.push(edited);
            }
        });
        assert_eq!(p.len(), 3);
        assert_eq!(p.jobs()[0].id, JobId(1));
        assert_eq!(p.jobs()[2].size_bytes, 60);
        assert!(p.jobs().windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(Trace::default().max_job_id(), 0);
    }

    #[test]
    fn time_span_covers_latest_end() {
        let t = Trace::new(vec![job(0, 1.0, 100.0, 1), job(1, 50.0, 10.0, 1)]);
        assert_eq!(t.time_span(), (1.0, 101.0));
    }

    #[test]
    fn iterator_impls() {
        let t: Trace = vec![job(0, 2.0, 1.0, 1), job(1, 1.0, 1.0, 1)]
            .into_iter()
            .collect();
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        let mut t2 = t.clone();
        t2.extend(vec![job(2, 0.5, 1.0, 1)]);
        assert_eq!(t2.len(), 3);
        assert_eq!(t2.jobs()[0].arrival, 0.5);
        assert_eq!(t.into_iter().count(), 2);
    }
}
