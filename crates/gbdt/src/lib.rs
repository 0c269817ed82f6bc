//! A small, self-contained gradient-boosted decision trees (GBDT) library.
//!
//! The BYOM paper trains lightweight, interpretable category models with
//! gradient boosted trees (using Yggdrasil Decision Forests in the original
//! system): 15-class models with at most 300 trees of depth 6. This crate
//! provides an equivalent from-scratch implementation with the properties the
//! paper relies on:
//!
//! * **cheap inference** — about 10 µs per example for a 30-round, 15-class
//!   depth-6 model (perfbench `online`, 2-vCPU x86-64 host), well under the
//!   paper's 4 ms/job budget;
//! * **multiclass pointwise ranking** — softmax objective over N importance
//!   categories;
//! * **interpretability** — permutation/AUC-drop feature importance,
//!   including per-category binary analyses (Figure 9c);
//! * **small models** — every tree of a trained model in one arena of
//!   16-byte nodes, no external runtime.
//!
//! # Example
//!
//! ```
//! use byom_gbdt::{Dataset, GbdtParams, GradientBoostedTrees};
//!
//! // A toy 2-class problem: class is determined by the first feature.
//! let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64, (i % 7) as f64]).collect();
//! let labels: Vec<usize> = (0..200).map(|i| usize::from(i >= 100)).collect();
//! let data = Dataset::from_rows(rows, labels).unwrap();
//! let params = GbdtParams { num_classes: 2, num_trees: 10, ..Default::default() };
//! let model = GradientBoostedTrees::train(&params, &data, None).unwrap();
//! assert_eq!(model.predict(&[150.0, 3.0]), 1);
//! assert_eq!(model.predict(&[10.0, 3.0]), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binning;
pub mod dataset;
pub mod error;
mod forest;
pub mod gbm;
pub mod histogram;
pub mod importance;
pub mod metrics;
pub mod tree;

pub use binning::BinMapper;
pub use dataset::Dataset;
pub use error::GbdtError;
pub use gbm::{GbdtParams, GradientBoostedTrees, TrainReport};
pub use histogram::{BinnedMatrix, FeatureLayout, HistBin, HistogramPool};
pub use importance::auc_drop_importance;
pub use metrics::{accuracy, binary_auc, confusion_matrix, log_loss, top_k_accuracy};
pub use tree::{Node, ScoredFit, Tree, TreeParams};
