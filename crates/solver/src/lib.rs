//! Clairvoyant oracle placement: the paper's ILP upper bound.
//!
//! Section 3.1 of the BYOM paper formulates optimal placement as an Integer
//! Linear Program: choose, for each job, whether to place it on SSD so as to
//! maximize total savings subject to the SSD capacity limit holding at every
//! instant of time. This is a *temporal knapsack* problem. The oracle is not
//! implementable online (it requires clairvoyant knowledge of every job's
//! future), but it provides the headroom bound the paper reports (≈5× the
//! savings of the production heuristic) and the "Oracle TCO"/"Oracle TCIO"
//! curves of Figure 7.
//!
//! This crate provides:
//!
//! * [`SegmentTree`]: a lazy range-add / range-max segment tree used to check
//!   and update SSD occupancy over time efficiently;
//! * [`Oracle`]: a greedy solver that keeps the best of three admission
//!   orderings, suitable for traces with tens of thousands of jobs;
//! * [`exact::solve_exact`]: an exact branch-and-bound solver for small
//!   instances, used in tests to bound the greedy solver's optimality gap.
//!
//! ```
//! use byom_cost::{CostModel, CostRates};
//! use byom_solver::{Oracle, OracleObjective};
//! use byom_trace::{ClusterSpec, TraceGenerator};
//!
//! let trace = TraceGenerator::new(3).generate(&ClusterSpec::balanced(0), 3_600.0);
//! let costs = CostModel::new(CostRates::default()).cost_trace(&trace);
//! let capacity = trace.peak_space_usage() / 100; // a 1% SSD quota
//! let solution = Oracle::new(OracleObjective::Tco, capacity).solve(&costs);
//! assert_eq!(solution.on_ssd.len(), costs.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exact;
pub mod oracle;
pub mod segment_tree;
pub mod timeline;

pub use oracle::{Oracle, OracleObjective, OracleSolution};
pub use segment_tree::SegmentTree;
pub use timeline::Timeline;
