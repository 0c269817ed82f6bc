//! Workload archetypes.
//!
//! A cluster in the paper runs a broad mix of applications — log processing,
//! query/join pipelines, ML training, streaming, video processing — whose
//! shuffle jobs differ by orders of magnitude in size, lifetime, and I/O
//! density (Figure 1). Each [`Archetype`] captures one such application class
//! with its own parameter distributions. The generator composes clusters as
//! weighted mixtures of archetypes.

use crate::distributions::{BoundedPareto, LogNormal};

/// The workload classes used to synthesize clusters.
///
/// The first six are "framework" workloads (written against the distributed
/// data-processing framework the paper targets); the last two model the
/// non-framework workloads of Appendix C.1 (ML checkpointing and a
/// compress-and-upload user workflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archetype {
    /// Batch log-processing pipelines: large, mostly-sequential intermediate
    /// files with modest re-read counts. HDD-leaning.
    LogProcessing,
    /// Query / table-join workloads: many shuffles, small random accesses,
    /// short-lived intermediate data. Strongly SSD-leaning.
    QueryJoin,
    /// Streaming pipelines: small, extremely short-lived, frequently
    /// re-read intermediate files.
    Streaming,
    /// ML data-preparation workloads (feature generation, shuffling training
    /// data): medium size, high read amplification.
    MlDataPrep,
    /// Video / media processing: very large intermediate files with long
    /// sequential reads and few operations per byte.
    VideoProcessing,
    /// Scientific / simulation workloads: long lifetimes, low I/O density.
    Simulation,
    /// Non-framework ML training checkpoints: large files kept for hours,
    /// written once and rarely read. HDD-suitable (Appendix C.1, class 3).
    MlCheckpoint,
    /// Non-framework compress-and-upload workflow: hot, short-lived temporary
    /// files. SSD-suitable (Appendix C.1, class 4).
    CompressUpload,
}

impl Archetype {
    /// All archetypes in a stable order.
    pub fn all() -> [Archetype; 8] {
        [
            Archetype::LogProcessing,
            Archetype::QueryJoin,
            Archetype::Streaming,
            Archetype::MlDataPrep,
            Archetype::VideoProcessing,
            Archetype::Simulation,
            Archetype::MlCheckpoint,
            Archetype::CompressUpload,
        ]
    }

    /// Stable small integer identifier (used in [`crate::ShuffleJob::archetype`]).
    /// Matches the position in [`Archetype::all`] (asserted by a test).
    pub fn index(&self) -> u8 {
        match self {
            Archetype::LogProcessing => 0,
            Archetype::QueryJoin => 1,
            Archetype::Streaming => 2,
            Archetype::MlDataPrep => 3,
            Archetype::VideoProcessing => 4,
            Archetype::Simulation => 5,
            Archetype::MlCheckpoint => 6,
            Archetype::CompressUpload => 7,
        }
    }

    /// Look up an archetype by its [`Archetype::index`].
    pub fn from_index(idx: u8) -> Option<Archetype> {
        Archetype::all().get(idx as usize).copied()
    }

    /// Whether the archetype is written against the data-processing framework
    /// (vs. a "non-framework" workload from Appendix C.1).
    pub fn is_framework(&self) -> bool {
        !matches!(self, Archetype::MlCheckpoint | Archetype::CompressUpload)
    }

    /// A short human-readable name used in metadata strings and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Archetype::LogProcessing => "logproc",
            Archetype::QueryJoin => "queryjoin",
            Archetype::Streaming => "streaming",
            Archetype::MlDataPrep => "mldataprep",
            Archetype::VideoProcessing => "videoproc",
            Archetype::Simulation => "simulation",
            Archetype::MlCheckpoint => "mlcheckpoint",
            Archetype::CompressUpload => "compressupload",
        }
    }

    /// Default generation parameters for this archetype.
    ///
    /// Parameter choices are synthetic but shaped to reproduce the qualitative
    /// spread in the paper's Figure 1: sizes spanning ~6 orders of magnitude,
    /// lifetimes from seconds to a day, and I/O densities from ≪1 to ≫10.
    pub fn params(&self) -> ArchetypeParams {
        match self {
            Archetype::LogProcessing => ArchetypeParams {
                archetype: *self,
                size_bytes: BoundedPareto::new(256.0 * MIB, 512.0 * GIB, 0.95),
                lifetime_secs: LogNormal::from_median_spread(2_400.0, 2.5),
                read_amplification: LogNormal::from_median_spread(1.2, 1.5),
                write_amplification: 2.0,
                mean_read_size: 1.0 * MIB,
                dram_hit_fraction: 0.25,
                relative_arrival_rate: 1.0,
                periodicity_secs: Some(3_600.0),
            },
            Archetype::QueryJoin => ArchetypeParams {
                archetype: *self,
                size_bytes: BoundedPareto::new(16.0 * MIB, 1.0 * TIB, 0.95),
                lifetime_secs: LogNormal::from_median_spread(1_800.0, 2.5),
                read_amplification: LogNormal::from_median_spread(6.0, 2.0),
                write_amplification: 2.2,
                mean_read_size: 64.0 * KIB,
                dram_hit_fraction: 0.15,
                relative_arrival_rate: 3.0,
                periodicity_secs: None,
            },
            Archetype::Streaming => ArchetypeParams {
                archetype: *self,
                size_bytes: BoundedPareto::new(256.0 * KIB, 32.0 * GIB, 1.15),
                lifetime_secs: LogNormal::from_median_spread(600.0, 2.0),
                read_amplification: LogNormal::from_median_spread(8.0, 2.0),
                write_amplification: 2.0,
                mean_read_size: 16.0 * KIB,
                dram_hit_fraction: 0.35,
                relative_arrival_rate: 4.0,
                periodicity_secs: None,
            },
            Archetype::MlDataPrep => ArchetypeParams {
                archetype: *self,
                size_bytes: BoundedPareto::new(128.0 * MIB, 2.0 * TIB, 0.95),
                lifetime_secs: LogNormal::from_median_spread(5_400.0, 2.0),
                read_amplification: LogNormal::from_median_spread(4.0, 2.0),
                write_amplification: 2.0,
                mean_read_size: 256.0 * KIB,
                dram_hit_fraction: 0.2,
                relative_arrival_rate: 1.5,
                periodicity_secs: Some(86_400.0),
            },
            Archetype::VideoProcessing => ArchetypeParams {
                archetype: *self,
                size_bytes: BoundedPareto::new(2.0 * GIB, 1.0 * TIB, 0.9),
                lifetime_secs: LogNormal::from_median_spread(3_600.0, 2.0),
                read_amplification: LogNormal::from_median_spread(1.05, 1.2),
                write_amplification: 1.5,
                mean_read_size: 4.0 * MIB,
                dram_hit_fraction: 0.05,
                relative_arrival_rate: 0.3,
                periodicity_secs: None,
            },
            Archetype::Simulation => ArchetypeParams {
                archetype: *self,
                size_bytes: BoundedPareto::new(16.0 * MIB, 128.0 * GIB, 1.0),
                lifetime_secs: LogNormal::from_median_spread(7_200.0, 2.0),
                read_amplification: LogNormal::from_median_spread(1.5, 1.5),
                write_amplification: 1.8,
                mean_read_size: 512.0 * KIB,
                dram_hit_fraction: 0.1,
                relative_arrival_rate: 0.4,
                periodicity_secs: Some(43_200.0),
            },
            Archetype::MlCheckpoint => ArchetypeParams {
                archetype: *self,
                size_bytes: BoundedPareto::new(1.0 * GIB, 1.0 * TIB, 0.9),
                lifetime_secs: LogNormal::from_median_spread(10_800.0, 1.8),
                read_amplification: LogNormal::from_median_spread(1.02, 1.1),
                write_amplification: 1.0,
                mean_read_size: 8.0 * MIB,
                dram_hit_fraction: 0.02,
                relative_arrival_rate: 0.25,
                periodicity_secs: Some(1_800.0),
            },
            Archetype::CompressUpload => ArchetypeParams {
                archetype: *self,
                size_bytes: BoundedPareto::new(1.0 * MIB, 32.0 * GIB, 1.2),
                lifetime_secs: LogNormal::from_median_spread(600.0, 2.0),
                read_amplification: LogNormal::from_median_spread(5.0, 1.8),
                write_amplification: 2.0,
                mean_read_size: 32.0 * KIB,
                dram_hit_fraction: 0.1,
                relative_arrival_rate: 2.0,
                periodicity_secs: None,
            },
        }
    }
}

const KIB: f64 = 1024.0;
const MIB: f64 = 1024.0 * KIB;
const GIB: f64 = 1024.0 * MIB;
const TIB: f64 = 1024.0 * GIB;

/// Generation parameters for one workload archetype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchetypeParams {
    /// The archetype these parameters belong to.
    pub archetype: Archetype,
    /// Distribution of peak intermediate-file footprint in bytes.
    pub size_bytes: BoundedPareto,
    /// Distribution of job lifetime in seconds.
    pub lifetime_secs: LogNormal,
    /// Distribution of the read amplification factor: bytes read / footprint.
    pub read_amplification: LogNormal,
    /// Write amplification factor: bytes written / footprint (raw + sorted
    /// copies, so typically ≈ 2 for shuffle jobs).
    pub write_amplification: f64,
    /// Mean size of a read operation in bytes.
    pub mean_read_size: f64,
    /// Fraction of reads served by the server-side DRAM cache.
    pub dram_hit_fraction: f64,
    /// Arrival rate of this archetype relative to the cluster base rate.
    pub relative_arrival_rate: f64,
    /// If `Some(p)`, pipelines of this archetype re-run periodically every
    /// `p` seconds (with jitter), which makes historical features available.
    pub periodicity_secs: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for a in Archetype::all() {
            assert_eq!(Archetype::from_index(a.index()), Some(a));
        }
        assert_eq!(Archetype::from_index(200), None);
    }

    #[test]
    fn framework_split_matches_appendix() {
        let fw: Vec<_> = Archetype::all()
            .into_iter()
            .filter(|a| a.is_framework())
            .collect();
        assert_eq!(fw.len(), 6);
        assert!(!Archetype::MlCheckpoint.is_framework());
        assert!(!Archetype::CompressUpload.is_framework());
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<_> =
            Archetype::all().iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), Archetype::all().len());
    }

    #[test]
    fn params_are_self_consistent() {
        for a in Archetype::all() {
            let p = a.params();
            assert_eq!(p.archetype, a);
            assert!(p.write_amplification > 0.0);
            assert!(p.mean_read_size > 0.0);
            assert!((0.0..=1.0).contains(&p.dram_hit_fraction));
            assert!(p.relative_arrival_rate > 0.0);
        }
    }

    #[test]
    fn query_join_is_denser_than_video() {
        // Sanity-check the qualitative shape: query/join workloads should have a
        // higher median read amplification than video processing.
        let q = Archetype::QueryJoin.params();
        let v = Archetype::VideoProcessing.params();
        assert!(q.read_amplification.mu > v.read_amplification.mu);
        assert!(q.mean_read_size < v.mean_read_size);
    }
}
