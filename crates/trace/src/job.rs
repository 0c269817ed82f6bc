//! The shuffle-job data model.
//!
//! The basic data placement unit in the paper is a *shuffle job*: a set of
//! intermediate files written by workers of a data-processing framework,
//! sorted, and later read back. The placement algorithm sees four primary
//! attributes — start time, lifetime, size, and cost — plus the
//! application-level features of [`crate::features::JobFeatures`].

use crate::features::JobFeatures;
use std::fmt;

/// A unique identifier for a shuffle job within a trace.
///
/// Identifiers are assigned sequentially by the trace generator and are
/// stable across runs with the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl From<u64> for JobId {
    fn from(v: u64) -> Self {
        JobId(v)
    }
}

/// Raw I/O behaviour of a job over its lifetime, before any cost-model
/// adjustments (DRAM caching, write coalescing) are applied.
///
/// The cost model in `byom-cost` converts an [`IoProfile`] into the paper's
/// `TCIO` metric, which expresses disk pressure in units of "one standard
/// HDD's sustainable I/O per second".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IoProfile {
    /// Total bytes written to intermediate files (raw + sorted copies).
    pub written_bytes: u64,
    /// Total bytes read back from intermediate files.
    pub read_bytes: u64,
    /// Number of write operations issued before coalescing.
    pub write_ops: u64,
    /// Number of read operations issued.
    pub read_ops: u64,
    /// Fraction of read operations served from the server-side DRAM cache
    /// (those never reach the disks). In `[0, 1]`.
    pub dram_hit_fraction: f64,
    /// Mean size of a single read operation in bytes (used to model whether
    /// accesses are small/random — SSD-friendly — or large/sequential).
    pub mean_read_size: u64,
}

impl IoProfile {
    /// Total bytes moved (reads + writes).
    pub fn total_bytes(&self) -> u64 {
        self.written_bytes.saturating_add(self.read_bytes)
    }
}

/// A single shuffle job: the unit of data placement.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleJob {
    /// Unique identifier within the trace.
    pub id: JobId,
    /// Cluster the job ran in.
    pub cluster: u16,
    /// Arrival (start) time in seconds from the trace origin.
    pub arrival: f64,
    /// Lifetime in seconds: intermediate files exist from `arrival` to
    /// `arrival + lifetime`.
    pub lifetime: f64,
    /// Peak intermediate-file footprint in bytes.
    pub size_bytes: u64,
    /// Raw I/O profile of the job.
    pub io: IoProfile,
    /// Application-level features available *before* the job executes
    /// (Table 2 of the paper). These are what the category model consumes.
    pub features: JobFeatures,
    /// Index of the workload archetype that generated this job. Retained so
    /// experiments can slice results by workload type; not visible to models.
    pub archetype: u8,
}

impl ShuffleJob {
    /// End time of the job (arrival + lifetime) in seconds.
    pub fn end(&self) -> f64 {
        self.arrival + self.lifetime
    }

    /// I/O density: total I/O bytes across the lifetime divided by the peak
    /// storage footprint. Jobs with high I/O density benefit most from SSD.
    ///
    /// Returns 0.0 for degenerate jobs with zero footprint.
    pub fn io_density(&self) -> f64 {
        if self.size_bytes == 0 {
            return 0.0;
        }
        self.io.total_bytes() as f64 / self.size_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::JobFeatures;

    fn job(size: u64, written: u64, read: u64) -> ShuffleJob {
        ShuffleJob {
            id: JobId(1),
            cluster: 0,
            arrival: 10.0,
            lifetime: 100.0,
            size_bytes: size,
            io: IoProfile {
                written_bytes: written,
                read_bytes: read,
                write_ops: 10,
                read_ops: 20,
                dram_hit_fraction: 0.1,
                mean_read_size: 4096,
            },
            features: JobFeatures::default(),
            archetype: 0,
        }
    }

    #[test]
    fn io_density_is_total_bytes_over_footprint() {
        let j = job(1000, 2000, 3000);
        assert!((j.io_density() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn io_density_zero_footprint_is_zero() {
        let j = job(0, 2000, 3000);
        assert_eq!(j.io_density(), 0.0);
    }

    #[test]
    fn end_is_arrival_plus_lifetime() {
        let j = job(1, 1, 1);
        assert_eq!(j.end(), 110.0);
    }

    #[test]
    fn job_id_display_and_conversion() {
        let id: JobId = 7u64.into();
        assert_eq!(id.to_string(), "job-7");
        assert_eq!(id, JobId(7));
    }

    #[test]
    fn io_profile_totals_saturate() {
        let p = IoProfile {
            written_bytes: u64::MAX,
            read_bytes: 10,
            write_ops: u64::MAX,
            read_ops: 10,
            dram_hit_fraction: 0.0,
            mean_read_size: 1,
        };
        assert_eq!(p.total_bytes(), u64::MAX);
    }
}
