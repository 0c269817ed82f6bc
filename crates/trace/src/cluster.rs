//! Cluster specifications.
//!
//! The paper evaluates on 10 clusters with thousands of machines each, with
//! uneven application mixes across clusters and one "special" cluster (C3)
//! that runs workloads rare elsewhere. A [`ClusterSpec`] describes one such
//! cluster as a weighted mixture of workload [`Archetype`]s plus arrival-rate
//! and population parameters; the [`crate::TraceGenerator`] turns a spec into
//! a concrete job trace.

use crate::archetype::Archetype;
use crate::distributions::DiurnalPattern;

/// Identifier of a cluster (C0, C1, ... in the paper's figures).
pub type ClusterId = u16;

/// Specification of one pipeline population within a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSpec {
    /// Workload archetype of the pipeline.
    pub archetype: Archetype,
    /// Mixture weight relative to other pipeline specs in the cluster.
    pub weight: f64,
    /// Number of distinct users running pipelines of this archetype.
    pub num_users: u32,
    /// Number of distinct pipelines per user.
    pub pipelines_per_user: u32,
    /// Mean number of shuffle jobs generated per pipeline run.
    pub shuffles_per_run: u32,
}

impl PipelineSpec {
    /// A pipeline spec with a given archetype and weight and default
    /// population sizes.
    pub fn new(archetype: Archetype, weight: f64) -> Self {
        PipelineSpec {
            archetype,
            weight,
            num_users: 8,
            pipelines_per_user: 4,
            shuffles_per_run: 6,
        }
    }
}

/// Specification of one cluster's workload mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster identifier.
    pub id: ClusterId,
    /// Base arrival rate of shuffle jobs across the whole cluster, in jobs
    /// per second (before diurnal modulation and archetype weighting).
    pub base_arrival_rate: f64,
    /// Mixture of pipeline populations.
    pub pipelines: Vec<PipelineSpec>,
    /// Diurnal/weekly load modulation applied to arrivals.
    pub diurnal: DiurnalPattern,
}

impl ClusterSpec {
    /// A balanced cluster running all six framework archetypes with roughly
    /// even weights. Used as the default experimental cluster.
    pub fn balanced(id: ClusterId) -> Self {
        ClusterSpec {
            id,
            base_arrival_rate: 0.5,
            pipelines: vec![
                PipelineSpec::new(Archetype::LogProcessing, 1.0),
                PipelineSpec::new(Archetype::QueryJoin, 1.0),
                PipelineSpec::new(Archetype::Streaming, 1.0),
                PipelineSpec::new(Archetype::MlDataPrep, 1.0),
                PipelineSpec::new(Archetype::VideoProcessing, 0.6),
                PipelineSpec::new(Archetype::Simulation, 0.6),
            ],
            diurnal: DiurnalPattern::default(),
        }
    }

    /// A cluster skewed towards one dominant archetype (70% of load), with
    /// the remaining framework archetypes sharing the rest.
    pub fn skewed(id: ClusterId, dominant: Archetype) -> Self {
        let mut pipelines = vec![PipelineSpec::new(dominant, 7.0)];
        for a in Archetype::all() {
            if a != dominant && a.is_framework() {
                pipelines.push(PipelineSpec::new(a, 3.0 / 5.0));
            }
        }
        ClusterSpec {
            id,
            base_arrival_rate: 0.5,
            pipelines,
            diurnal: DiurnalPattern::default(),
        }
    }

    /// A specialized cluster (the paper's C3) that only runs workloads rare in
    /// other clusters: video processing, simulation, and ML checkpoints.
    pub fn specialized(id: ClusterId) -> Self {
        ClusterSpec {
            id,
            base_arrival_rate: 0.3,
            pipelines: vec![
                PipelineSpec::new(Archetype::VideoProcessing, 1.0),
                PipelineSpec::new(Archetype::Simulation, 1.0),
                PipelineSpec::new(Archetype::MlCheckpoint, 0.5),
            ],
            diurnal: DiurnalPattern {
                daily_amplitude: 0.15,
                weekend_factor: 0.95,
                peak_hour: 3.0,
            },
        }
    }

    /// A mixed framework / non-framework cluster following Appendix C.1: the
    /// framework and non-framework halves contribute roughly equal storage
    /// footprint.
    pub fn mixed_workloads(id: ClusterId) -> Self {
        ClusterSpec {
            id,
            base_arrival_rate: 0.4,
            pipelines: vec![
                // 4 HDD-suitable framework data processing workloads.
                PipelineSpec {
                    archetype: Archetype::LogProcessing,
                    weight: 1.0,
                    num_users: 4,
                    pipelines_per_user: 1,
                    shuffles_per_run: 4,
                },
                // 4 SSD-suitable framework query workloads.
                PipelineSpec {
                    archetype: Archetype::QueryJoin,
                    weight: 1.0,
                    num_users: 4,
                    pipelines_per_user: 1,
                    shuffles_per_run: 12,
                },
                // 10 HDD-suitable non-framework ML checkpointing workloads.
                PipelineSpec {
                    archetype: Archetype::MlCheckpoint,
                    weight: 1.0,
                    num_users: 10,
                    pipelines_per_user: 1,
                    shuffles_per_run: 2,
                },
                // 10 SSD-suitable non-framework compress-and-upload workloads.
                PipelineSpec {
                    archetype: Archetype::CompressUpload,
                    weight: 1.0,
                    num_users: 10,
                    pipelines_per_user: 1,
                    shuffles_per_run: 8,
                },
            ],
            diurnal: DiurnalPattern::default(),
        }
    }

    /// The 10-cluster evaluation fleet used for the paper's Figure 6/7
    /// experiments: uneven application distributions across clusters,
    /// including one specialized cluster.
    pub fn evaluation_fleet() -> Vec<ClusterSpec> {
        vec![
            ClusterSpec::balanced(0),
            ClusterSpec::skewed(1, Archetype::QueryJoin),
            ClusterSpec::skewed(2, Archetype::LogProcessing),
            ClusterSpec::specialized(3),
            ClusterSpec::skewed(4, Archetype::Streaming),
            ClusterSpec::skewed(5, Archetype::MlDataPrep),
            ClusterSpec::balanced(6),
            ClusterSpec::skewed(7, Archetype::VideoProcessing),
            ClusterSpec::skewed(8, Archetype::Simulation),
            ClusterSpec::mixed_workloads(9),
        ]
    }

    /// Total mixture weight across pipeline specs.
    ///
    /// # Panics
    /// Panics if the cluster has no pipelines or all weights are zero, which
    /// would make generation meaningless.
    pub fn total_weight(&self) -> f64 {
        let w: f64 = self.pipelines.iter().map(|p| p.weight).sum();
        assert!(
            w > 0.0,
            "cluster {} has no positive pipeline weights",
            self.id
        );
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_cluster_covers_framework_archetypes() {
        let c = ClusterSpec::balanced(0);
        assert_eq!(c.pipelines.len(), 6);
        assert!(c.pipelines.iter().all(|p| p.archetype.is_framework()));
        assert!(c.total_weight() > 0.0);
    }

    #[test]
    fn skewed_cluster_dominant_weight_is_largest() {
        let c = ClusterSpec::skewed(1, Archetype::Streaming);
        let dominant = c
            .pipelines
            .iter()
            .find(|p| p.archetype == Archetype::Streaming)
            .unwrap();
        assert!(c
            .pipelines
            .iter()
            .all(|p| p.archetype == Archetype::Streaming || p.weight < dominant.weight));
    }

    #[test]
    fn specialized_cluster_avoids_common_archetypes() {
        let c = ClusterSpec::specialized(3);
        assert!(c
            .pipelines
            .iter()
            .all(|p| !matches!(p.archetype, Archetype::QueryJoin | Archetype::Streaming)));
    }

    #[test]
    fn evaluation_fleet_has_ten_unique_clusters() {
        let fleet = ClusterSpec::evaluation_fleet();
        assert_eq!(fleet.len(), 10);
        let ids: std::collections::BTreeSet<_> = fleet.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn mixed_cluster_has_framework_and_non_framework() {
        let c = ClusterSpec::mixed_workloads(9);
        assert!(c.pipelines.iter().any(|p| p.archetype.is_framework()));
        assert!(c.pipelines.iter().any(|p| !p.archetype.is_framework()));
    }

    #[test]
    #[should_panic(expected = "no positive pipeline weights")]
    fn total_weight_rejects_empty_cluster() {
        let c = ClusterSpec {
            id: 0,
            base_arrival_rate: 1.0,
            pipelines: vec![],
            diurnal: DiurnalPattern::default(),
        };
        let _ = c.total_weight();
    }
}
