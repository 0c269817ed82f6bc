//! `byom_lint` — the workspace's determinism & panic-surface analyzer.
//!
//! The reproduction's value rests on bit-reproducible results: every figure
//! binary must produce the same numbers for the same seeds, at any
//! parallelism. Generic tooling cannot enforce the repo-specific contract
//! ("no unordered-map iteration in crates that feed figure outputs"), so
//! this crate implements it directly as a small, dependency-free static
//! analyzer over a hand-rolled token stream:
//!
//! * [`rules::NO_UNORDERED_ITERATION`] — no `HashMap`/`HashSet` iteration in
//!   result-affecting crates; use `BTreeMap`/`BTreeSet` or collect-and-sort.
//! * [`rules::NO_WALL_CLOCK`] — no `Instant::now`/`SystemTime` outside
//!   `crates/bench`.
//! * [`rules::NO_UNSEEDED_RNG`] — no `thread_rng`/`from_entropy`/
//!   `rand::random` anywhere.
//! * [`rules::PANIC_SURFACE`] — inventory of `unwrap`/`expect`/`panic!`/
//!   slice indexing in non-test library code, held against justified
//!   budgets.
//! * [`rules::FLOAT_REDUCTION_ORDER`] — parallel iterator chains must not
//!   end in an order-sensitive reduction unless justified inline with
//!   `// lint: ordered-reduction`.
//!
//! Scoping and suppressions live in `lint.toml`: each `[[allow]]` entry
//! carries a reason and a `max` budget, and is the only way to accept a
//! finding. Run `cargo run -p byom_lint -- check` (CI does).

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
