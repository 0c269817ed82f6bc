//! Precomputed per-job costs and the [`CostModel`] facade.

use crate::rates::CostRates;
use crate::tcio::tcio_on_hdd;
use crate::tco::{tco_hdd, tco_ssd, TcoBreakdown};
use byom_trace::{JobId, ShuffleJob, Trace};

/// All cost quantities of one job, precomputed once so that placement
/// policies, the oracle solver and the simulator can share them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCost {
    /// Job identifier.
    pub id: JobId,
    /// Arrival time in seconds (copied from the job for convenience).
    pub arrival: f64,
    /// Lifetime in seconds.
    pub lifetime: f64,
    /// Peak footprint in bytes.
    pub size_bytes: u64,
    /// TCIO if placed on HDD.
    pub tcio_hdd: f64,
    /// Full TCO if placed on HDD.
    pub tco_hdd: f64,
    /// Full TCO if placed on SSD.
    pub tco_ssd: f64,
    /// I/O density (total I/O bytes / footprint).
    pub io_density: f64,
}

impl JobCost {
    /// TCO saved by placing this job on SSD instead of HDD. Negative when
    /// SSD placement is more expensive.
    pub fn tco_savings(&self) -> f64 {
        self.tco_hdd - self.tco_ssd
    }

    /// TCIO-seconds the job consumes on HDD (`tcio * lifetime`): its total
    /// I/O budget in HDD-seconds. This is the quantity that SSD placement
    /// removes from the HDD fleet.
    pub fn tcio_seconds(&self) -> f64 {
        self.tcio_hdd * self.lifetime
    }

    /// SSD byte-seconds the job would occupy (`size * lifetime`), the
    /// resource the SSD capacity constraint is written over.
    pub fn ssd_byte_seconds(&self) -> f64 {
        self.size_bytes as f64 * self.lifetime
    }

    /// End time (`arrival + lifetime`).
    pub fn end(&self) -> f64 {
        self.arrival + self.lifetime
    }
}

/// The cost model: a set of [`CostRates`] plus the derived per-job
/// computations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    rates: CostRates,
}

impl CostModel {
    /// Create a cost model from validated rates.
    ///
    /// # Panics
    /// Panics if the rates fail [`CostRates::validate`]; construct rates from
    /// the provided presets or validate them first to avoid this.
    pub fn new(rates: CostRates) -> Self {
        #[expect(
            clippy::panic,
            reason = "validation panic in CostModel::new; documented under # Panics"
        )]
        if let Err(e) = rates.validate() {
            panic!("invalid cost rates: {e}");
        }
        CostModel { rates }
    }

    /// Full HDD TCO breakdown for a job.
    pub fn tco_hdd_breakdown(&self, job: &ShuffleJob) -> TcoBreakdown {
        tco_hdd(job, &self.rates)
    }

    /// Full SSD TCO breakdown for a job.
    pub fn tco_ssd_breakdown(&self, job: &ShuffleJob) -> TcoBreakdown {
        tco_ssd(job, &self.rates)
    }

    /// Compute all cost quantities for one job.
    pub fn cost_job(&self, job: &ShuffleJob) -> JobCost {
        JobCost {
            id: job.id,
            arrival: job.arrival,
            lifetime: job.lifetime,
            size_bytes: job.size_bytes,
            tcio_hdd: tcio_on_hdd(job, &self.rates),
            tco_hdd: tco_hdd(job, &self.rates).total(),
            tco_ssd: tco_ssd(job, &self.rates).total(),
            io_density: job.io_density(),
        }
    }

    /// Compute costs for every job in a trace, in the trace's arrival order.
    pub fn cost_trace(&self, trace: &Trace) -> Vec<JobCost> {
        trace.iter().map(|j| self.cost_job(j)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::{ClusterSpec, IoProfile, JobFeatures, TraceGenerator};

    fn sample_trace() -> Trace {
        TraceGenerator::new(11).generate(&ClusterSpec::balanced(0), 7_200.0)
    }

    #[test]
    fn cost_trace_preserves_order_and_ids() {
        let trace = sample_trace();
        let model = CostModel::default();
        let costs = model.cost_trace(&trace);
        assert_eq!(costs.len(), trace.len());
        for (c, j) in costs.iter().zip(trace.iter()) {
            assert_eq!(c.id, j.id);
            assert_eq!(c.size_bytes, j.size_bytes);
        }
    }

    #[test]
    fn savings_have_both_signs_across_a_diverse_trace() {
        // The placement problem is only interesting if some jobs save cost on
        // SSD and others do not; verify our synthetic fleet produces both.
        let trace = sample_trace();
        let model = CostModel::default();
        let costs = model.cost_trace(&trace);
        let positive = costs.iter().filter(|c| c.tco_savings() > 0.0).count();
        let negative = costs.iter().filter(|c| c.tco_savings() < 0.0).count();
        assert!(positive > 0, "no SSD-friendly jobs generated");
        assert!(negative > 0, "no HDD-friendly jobs generated");
    }

    #[test]
    fn tcio_seconds_and_byte_seconds() {
        let c = JobCost {
            id: JobId(0),
            arrival: 0.0,
            lifetime: 100.0,
            size_bytes: 10,
            tcio_hdd: 0.5,
            tco_hdd: 2.0,
            tco_ssd: 1.0,
            io_density: 1.0,
        };
        assert_eq!(c.tcio_seconds(), 50.0);
        assert_eq!(c.ssd_byte_seconds(), 1000.0);
        assert_eq!(c.tco_savings(), 1.0);
        assert_eq!(c.end(), 100.0);
    }

    #[test]
    #[should_panic(expected = "invalid cost rates")]
    fn constructor_rejects_invalid_rates() {
        let bad = CostRates {
            hdd_ops_per_sec: -1.0,
            ..CostRates::default()
        };
        let _ = CostModel::new(bad);
    }

    #[test]
    fn denser_job_has_higher_tcio() {
        let model = CostModel::default();
        let mk = |read_ops: u64| ShuffleJob {
            id: JobId(0),
            cluster: 0,
            arrival: 0.0,
            lifetime: 100.0,
            size_bytes: 1 << 30,
            io: IoProfile {
                read_ops,
                read_bytes: read_ops * 64 * 1024,
                written_bytes: 1 << 30,
                write_ops: 8192,
                dram_hit_fraction: 0.1,
                mean_read_size: 64 * 1024,
            },
            features: JobFeatures::default(),
            archetype: 0,
        };
        let sparse = model.cost_job(&mk(100));
        let dense = model.cost_job(&mk(100_000));
        assert!(dense.tcio_hdd > sparse.tcio_hdd);
        assert!(dense.tco_savings() > sparse.tco_savings());
    }
}
