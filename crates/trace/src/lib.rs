//! Synthetic production traces for warehouse-scale storage placement studies.
//!
//! This crate reproduces the *input side* of the BYOM storage-placement paper:
//! shuffle jobs produced by a distributed data-processing framework, together
//! with the application-level features their models are trained on (Table 2 of
//! the paper). Since the original Google production traces are proprietary,
//! the crate provides a statistical trace generator that models clusters as
//! mixtures of workload *archetypes* (log processing, query/join pipelines,
//! ML training with checkpoints, streaming, video processing, compress-and-
//! upload jobs). The generated traces exhibit the properties the paper's
//! algorithms depend on: heavy-tailed job sizes and lifetimes, diurnal and
//! weekly periodicity, per-pipeline self-similarity, and wide variation in
//! I/O density across workloads (Figure 1 of the paper).
//!
//! # Quick example
//!
//! ```
//! use byom_trace::{ClusterSpec, TraceGenerator};
//!
//! let spec = ClusterSpec::balanced(0);
//! let trace = TraceGenerator::new(42).generate(&spec, 3_600.0);
//! assert!(!trace.jobs().is_empty());
//! // Jobs are sorted by arrival time.
//! assert!(trace.jobs().windows(2).all(|w| w[0].arrival <= w[1].arrival));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod archetype;
pub mod cluster;
pub mod distributions;
pub mod encoding;
pub mod features;
pub mod generator;
pub mod job;
pub mod metadata;
pub mod trace;

pub use archetype::{Archetype, ArchetypeParams};
pub use cluster::{ClusterId, ClusterSpec, PipelineSpec};
pub use encoding::FeatureEncoder;
pub use features::{FeatureGroup, JobFeatures, FEATURE_NAMES, NUMERIC_FEATURE_COUNT};
pub use generator::TraceGenerator;
pub use job::{IoProfile, JobId, ShuffleJob};
pub use trace::Trace;
