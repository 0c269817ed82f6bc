//! Shared experiment harness used by the per-figure binaries and by the
//! `perfbench` benchmark.
//!
//! Each reproduced table and figure of the paper has a binary in `src/bin/`
//! named after it (`fig07_quota_sweep` is Figure 7, `tab04_category_count`
//! is Table 4), and `golden/` holds each binary's output (`fig_resilience`'s
//! at its `BYOM_BENCH_QUICK=1` size, every other one at full size). They
//! all build on the helpers in this crate: generating train/test traces,
//! training a BYOM deployment, and running the full set of compared methods
//! (FirstFit, Heuristic, ML Baseline, Adaptive Hash, Adaptive Ranking, Oracle
//! TCIO, Oracle TCO) through the simulator at a given SSD quota.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;
pub mod legacy_tree;
pub mod report;
pub mod resilience;

pub use harness::{
    run_clusters_parallel, run_quotas_parallel, ExperimentContext, ExperimentParams, MethodResult,
};
pub use report::Table;
pub use resilience::{run_resilience_sweep, ResiliencePoint, ResilienceSweep};
