//! TCO: the monetary cost of a job on HDD or SSD, decomposed per the paper
//! into byte, network, server, and device-specific components.

use crate::rates::CostRates;
use crate::tcio::tcio_on_hdd;
use byom_trace::ShuffleJob;

/// A TCO value decomposed into the paper's four components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TcoBreakdown {
    /// `cost_byte`: storing the job's footprint for its duration.
    pub byte: f64,
    /// `cost_network`: transmitting the job's bytes (device independent).
    pub network: f64,
    /// `cost_server`: server resources serving the job's I/O.
    pub server: f64,
    /// `cost_specific`: HDD devices consumed (HDD) or wear-out (SSD).
    pub device_specific: f64,
}

impl TcoBreakdown {
    /// Total TCO across the four components.
    pub fn total(&self) -> f64 {
        self.byte + self.network + self.server + self.device_specific
    }
}

/// TCO of running the job entirely on HDD.
pub fn tco_hdd(job: &ShuffleJob, rates: &CostRates) -> TcoBreakdown {
    let tcio = tcio_on_hdd(job, rates);
    let duration = job.lifetime.max(0.0);
    let total_bytes = job.io.total_bytes() as f64;
    TcoBreakdown {
        byte: rates.hdd_byte_cost_per_sec * job.size_bytes as f64 * duration,
        network: rates.network_cost_per_byte * total_bytes,
        server: rates.hdd_server_cost_per_tcio_sec * tcio * duration,
        device_specific: rates.hdd_device_cost_per_tcio_sec * tcio * duration,
    }
}

/// TCO of running the job entirely on SSD.
pub fn tco_ssd(job: &ShuffleJob, rates: &CostRates) -> TcoBreakdown {
    let duration = job.lifetime.max(0.0);
    let total_bytes = job.io.total_bytes() as f64;
    TcoBreakdown {
        byte: rates.ssd_byte_cost_per_sec * job.size_bytes as f64 * duration,
        network: rates.network_cost_per_byte * total_bytes,
        // The paper observes SSD server cost correlates with bytes transmitted.
        server: rates.ssd_server_cost_per_byte * total_bytes,
        // SSD-specific cost is wear-out, proportional to bytes written.
        device_specific: rates.ssd_wearout_cost_per_byte * job.io.written_bytes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byom_trace::{IoProfile, JobFeatures, JobId};

    fn job(size: u64, lifetime: f64, read: u64, written: u64, read_ops: u64) -> ShuffleJob {
        ShuffleJob {
            id: JobId(0),
            cluster: 0,
            arrival: 0.0,
            lifetime,
            size_bytes: size,
            io: IoProfile {
                read_bytes: read,
                written_bytes: written,
                read_ops,
                write_ops: written / (128 * 1024),
                dram_hit_fraction: 0.1,
                mean_read_size: if read_ops > 0 {
                    read / read_ops.max(1)
                } else {
                    0
                },
            },
            features: JobFeatures::default(),
            archetype: 0,
        }
    }

    #[test]
    fn network_cost_is_device_independent() {
        let r = CostRates::default();
        let j = job(1 << 30, 1000.0, 5 << 30, 2 << 30, 80_000);
        assert!((tco_hdd(&j, &r).network - tco_ssd(&j, &r).network).abs() < 1e-18);
    }

    #[test]
    fn components_are_nonnegative_and_total_adds_up() {
        let r = CostRates::default();
        let j = job(1 << 30, 1000.0, 5 << 30, 2 << 30, 80_000);
        for b in [tco_hdd(&j, &r), tco_ssd(&j, &r)] {
            assert!(
                b.byte >= 0.0 && b.network >= 0.0 && b.server >= 0.0 && b.device_specific >= 0.0
            );
            assert!(
                (b.total() - (b.byte + b.network + b.server + b.device_specific)).abs() < 1e-18
            );
        }
    }

    #[test]
    fn io_dense_job_is_cheaper_on_ssd() {
        // Small footprint, many small reads over a modest lifetime.
        let r = CostRates::default();
        let size = 1u64 << 30; // 1 GiB
        let j = job(size, 600.0, 20 << 30, 2 << 30, 5_000_000);
        assert!(
            tco_hdd(&j, &r).total() > tco_ssd(&j, &r).total(),
            "hdd {} ssd {}",
            tco_hdd(&j, &r).total(),
            tco_ssd(&j, &r).total()
        );
    }

    #[test]
    fn large_sequential_long_lived_job_is_cheaper_on_hdd() {
        // 1 TiB footprint, read once sequentially, lives 8 hours.
        let r = CostRates::default();
        let size = 1u64 << 40;
        let j = job(size, 8.0 * 3600.0, size, size + size / 2, size / (4 << 20));
        assert!(
            tco_ssd(&j, &r).total() > tco_hdd(&j, &r).total(),
            "hdd {} ssd {}",
            tco_hdd(&j, &r).total(),
            tco_ssd(&j, &r).total()
        );
    }

    #[test]
    fn ssd_wearout_grows_with_written_bytes() {
        let r = CostRates::default();
        let a = job(1 << 30, 100.0, 0, 1 << 30, 0);
        let b = job(1 << 30, 100.0, 0, 4 << 30, 0);
        assert!(tco_ssd(&b, &r).device_specific > tco_ssd(&a, &r).device_specific);
    }

    #[test]
    fn zero_io_job_costs_only_bytes_and_nothing_on_network() {
        let r = CostRates::default();
        let j = job(1 << 30, 100.0, 0, 0, 0);
        let h = tco_hdd(&j, &r);
        assert_eq!(h.network, 0.0);
        assert_eq!(h.server, 0.0);
        assert_eq!(h.device_specific, 0.0);
        assert!(h.byte > 0.0);
    }
}
