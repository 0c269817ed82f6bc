//! Unified parallel executor for the BYOM workspace.
//!
//! Every parallel call site in the workspace — GBDT training, the
//! experiment harness fan-outs, the resilience sweeps, the fig binaries —
//! runs on **one** process-wide, lazily spawned work-stealing pool
//! ([`pool`]). Nested fan-outs (cluster sweep × per-class trees ×
//! feature-parallel split search) cooperate through the shared queues
//! instead of spawning `threads × threads` scoped threads.
//!
//! # Thread budget
//!
//! A single knob controls parallel width everywhere:
//!
//! * [`install`]`(n, f)` pins the budget to `n` for everything `f` does,
//!   including on pool workers executing `f`'s parallel chunks. Budgets
//!   only shrink when nested: `install(4, ..)` inside `install(2, ..)`
//!   still runs on 2.
//! * `.with_max_threads(n)` bounds one parallel call; it combines with the
//!   ambient budget the same way (`min`), and the resolved budget is
//!   inherited by everything the mapped closure runs.
//! * `BYOM_THREADS` (environment) overrides the default budget **and** the
//!   pool size for the whole process.
//! * Budget `1` means *strictly sequential at every nesting level*: the
//!   call runs inline on the caller and every nested parallel call —
//!   whatever it requests — resolves to 1 as well.
//!
//! # Determinism
//!
//! Work is split into fixed index ranges and results are slotted by chunk
//! index, so for any pure closure the output is **byte-identical** to
//! sequential execution — for any budget, worker count, or steal schedule.
//! Panics inside a closure cancel the remaining chunks and propagate to
//! the caller after the job has fully quiesced.
//!
//! # Safety
//!
//! This is the one workspace crate that is not `#![forbid(unsafe_code)]`:
//! scheduling borrowed (non-`'static`) jobs on a persistent pool requires
//! erasing the job's lifetime at the pool boundary. The two `unsafe`
//! blocks live in [`job`] and are guarded by a close protocol documented
//! there; everything above the job layer is safe code.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod job;
mod pool;

use std::cell::Cell;
use std::sync::OnceLock;

/// The traits to import to get `par_iter` / `into_par_iter`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice};
}

/// Parse the `BYOM_THREADS` override (ignored unless a positive integer).
pub(crate) fn env_thread_override() -> Option<usize> {
    std::env::var("BYOM_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

/// Hardware concurrency as reported by the OS.
pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The default thread budget when nothing narrower is in scope:
/// `BYOM_THREADS` if set, otherwise all available cores.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| env_thread_override().unwrap_or_else(hardware_threads))
}

thread_local! {
    /// The thread budget pinned by the nearest enclosing [`install`] or
    /// parallel call on this thread; `0` means "no budget in scope".
    static SCOPE_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with `budget` pinned as this thread's scope budget, restoring
/// the previous budget afterwards (also on panic). `0` leaves the scope
/// untouched.
pub(crate) fn with_scope_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    if budget == 0 {
        return f();
    }
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE_BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(SCOPE_BUDGET.with(|b| b.get()));
    SCOPE_BUDGET.with(|b| b.set(budget));
    f()
}

/// Resolve a user-supplied parallelism knob against the ambient budget.
///
/// `0` means "inherit": the enclosing [`install`] budget if any, otherwise
/// the process default (`BYOM_THREADS` or all cores). A non-zero request
/// is capped by the enclosing budget, so budgets only shrink with nesting.
pub fn resolve_threads(requested: usize) -> usize {
    let scope = SCOPE_BUDGET.with(|b| b.get());
    match (requested, scope) {
        (0, 0) => default_threads(),
        (0, s) => s,
        (n, 0) => n,
        (n, s) => n.min(s),
    }
}

/// The thread budget in effect at this call site (see [`resolve_threads`]).
pub fn current_num_threads() -> usize {
    resolve_threads(0)
}

/// Run `f` with the thread budget pinned to `n` for everything it does —
/// direct parallel calls, nested ones, and work executed on pool workers
/// on its behalf. `n = 0` leaves the ambient budget unchanged; a non-zero
/// `n` is capped by any enclosing budget; `n = 1` forces strictly
/// sequential execution at every nesting level.
pub fn install<R>(n: usize, f: impl FnOnce() -> R) -> R {
    if n == 0 {
        return f();
    }
    with_scope_budget(resolve_threads(n), f)
}

/// Run `a` and `b`, potentially in parallel on the pool, and return both
/// results. `b` is offered to the pool while the caller runs `a`; if no
/// worker is free the caller runs `b` itself, so `join` never blocks on
/// pool availability. Under a budget of 1 both closures run sequentially
/// on the caller. Panics from either closure propagate after both sides
/// have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let budget = resolve_threads(0);
    if budget <= 1 || pool_capacity() <= 1 {
        return with_scope_budget(budget.max(1), || {
            let ra = a();
            let rb = b();
            (ra, rb)
        });
    }
    job::run_join(budget, a, b)
}

/// Total execution slots in the process (pool workers + one caller). The
/// hard ceiling on any single parallel call's width.
pub fn pool_capacity() -> usize {
    pool::capacity()
}

/// Execute `f(0..len)` under the resolved budget for `requested`,
/// returning results in index order.
fn run_map<U, F>(requested: usize, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let budget = resolve_threads(requested);
    let width = budget.min(len).min(pool_capacity());
    if width <= 1 || len < 2 {
        return with_scope_budget(budget.max(1), || (0..len).map(f).collect());
    }
    job::run_chunked(budget, width, len, f)
}

/// Borrowing parallel iterator over a slice (`par_iter`).
#[derive(Debug)]
pub struct ParIter<'a, T> {
    items: &'a [T],
    requested: usize,
}

/// Extension trait providing [`ParallelSlice::par_iter`] on slices and `Vec`s.
pub trait ParallelSlice<T: Sync> {
    /// A parallel iterator borrowing the elements.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter {
            items: self,
            requested: 0,
        }
    }
}

impl<T: Sync> ParallelSlice<T> for Vec<T> {
    fn par_iter(&self) -> ParIter<'_, T> {
        self.as_slice().par_iter()
    }
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Bound this call's thread budget (`1` = strictly sequential including
    /// nested calls, `0` = inherit the ambient budget).
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.requested = n;
        self
    }

    /// Map each element through `f` in parallel, preserving order.
    pub fn map<U: Send, F: Fn(&'a T) -> U + Sync>(self, f: F) -> ParMap<'a, T, F> {
        ParMap {
            items: self.items,
            requested: self.requested,
            f,
        }
    }

    /// Apply `f` to every element in parallel.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        let items = self.items;
        run_map(self.requested, items.len(), |i| {
            if let Some(item) = items.get(i) {
                f(item);
            }
        });
    }
}

/// The result of [`ParIter::map`], ready to collect.
#[derive(Debug)]
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    requested: usize,
    f: F,
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParMap<'a, T, F> {
    /// Execute the parallel map and collect results in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let items = self.items;
        let f = &self.f;
        run_map(self.requested, items.len(), |i| {
            items.get(i).map(f).unwrap_or_else(
                // Unreachable: `run_map` only produces indices `< len`.
                || unreachable!("parallel map index out of bounds"),
            )
        })
        .into_iter()
        .collect()
    }
}

/// Types convertible into an owning parallel iterator (`into_par_iter`).
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The concrete parallel iterator.
    type Iter;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end.max(self.start),
            requested: 0,
        }
    }
}

/// Owning parallel iterator over a `usize` range.
#[derive(Debug)]
pub struct ParRange {
    start: usize,
    end: usize,
    requested: usize,
}

impl ParRange {
    /// Bound this call's thread budget (`1` = strictly sequential including
    /// nested calls, `0` = inherit the ambient budget).
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.requested = n;
        self
    }

    /// Map each index through `f` in parallel, preserving order.
    pub fn map<U: Send, F: Fn(usize) -> U + Sync>(self, f: F) -> ParRangeMap<F> {
        ParRangeMap {
            start: self.start,
            end: self.end,
            requested: self.requested,
            f,
        }
    }

    /// Apply `f` to every index in parallel.
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let start = self.start;
        run_map(self.requested, self.end - start, |i| f(start + i));
    }
}

/// The result of [`ParRange::map`], ready to collect.
#[derive(Debug)]
pub struct ParRangeMap<F> {
    start: usize,
    end: usize,
    requested: usize,
    f: F,
}

impl<U: Send, F: Fn(usize) -> U + Sync> ParRangeMap<F> {
    /// Execute the parallel map and collect results in index order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let start = self.start;
        let f = &self.f;
        run_map(self.requested, self.end - start, |i| f(start + i))
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn map_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input
            .par_iter()
            .with_max_threads(4)
            .map(|&x| x * 2)
            .collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_map_matches_sequential() {
        let par: Vec<usize> = (3..97)
            .into_par_iter()
            .with_max_threads(3)
            .map(|i| i * i)
            .collect();
        let seq: Vec<usize> = (3..97).map(|i| i * i).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn one_thread_runs_inline() {
        let caller = std::thread::current().id();
        let out: Vec<bool> = (0..10)
            .into_par_iter()
            .with_max_threads(1)
            .map(|_| std::thread::current().id() == caller)
            .collect();
        assert_eq!(out, vec![true; 10]);
    }

    #[test]
    fn for_each_visits_every_element_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<u8> = vec![1; 500];
        items.par_iter().with_max_threads(4).for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let out: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn zero_means_inherited_budget() {
        let out: Vec<usize> = (0..64)
            .into_par_iter()
            .with_max_threads(0)
            .map(|i| i)
            .collect();
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn pool_workers_participate() {
        // MIN_POOL_SLOTS guarantees workers exist even on a 1-core machine;
        // the sleeps give parked workers ample time to claim chunks.
        let ids: Vec<std::thread::ThreadId> = (0..64)
            .into_par_iter()
            .with_max_threads(4)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(2));
                std::thread::current().id()
            })
            .collect();
        let mut distinct: Vec<String> = ids.iter().map(|id| format!("{id:?}")).collect();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() > 1,
            "expected pool workers to claim chunks alongside the caller"
        );
    }

    #[test]
    fn budget_one_is_sticky_across_nesting() {
        let caller = std::thread::current().id();
        install(1, || {
            let nested: Vec<Vec<std::thread::ThreadId>> = (0..16)
                .into_par_iter()
                .with_max_threads(4)
                .map(|_| {
                    (0..8)
                        .into_par_iter()
                        .with_max_threads(4)
                        .map(|_| std::thread::current().id())
                        .collect()
                })
                .collect();
            for inner in nested {
                for id in inner {
                    assert_eq!(id, caller, "budget 1 must be sequential at every level");
                }
            }
        });
    }

    #[test]
    fn install_caps_shrink_with_nesting() {
        assert_eq!(install(3, || resolve_threads(0)), 3);
        assert_eq!(install(3, || resolve_threads(2)), 2);
        assert_eq!(install(2, || resolve_threads(5)), 2);
        assert_eq!(install(2, || install(0, || resolve_threads(0))), 2);
        assert_eq!(install(2, || install(6, || resolve_threads(0))), 2);
        assert_eq!(install(2, || install(6, || resolve_threads(4))), 2);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn nested_maps_match_sequential() {
        let par: Vec<Vec<usize>> = (0..24)
            .into_par_iter()
            .with_max_threads(4)
            .map(|i| {
                (0..12)
                    .into_par_iter()
                    .with_max_threads(2)
                    .map(|j| i * 100 + j)
                    .collect()
            })
            .collect();
        let seq: Vec<Vec<usize>> = (0..24)
            .map(|i| (0..12).map(|j| i * 100 + j).collect())
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            (0..128)
                .into_par_iter()
                .with_max_threads(4)
                .map(|i| {
                    if i == 77 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .collect::<Vec<usize>>()
        });
        let payload = result.expect_err("the mapped panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 77"), "payload was: {message:?}");
        // The pool must stay fully usable after a propagated panic.
        let out: Vec<usize> = (0..100)
            .into_par_iter()
            .with_max_threads(4)
            .map(|i| i + 1)
            .collect();
        assert_eq!(out, (1..101).collect::<Vec<_>>());
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = install(4, || join(|| 2 + 2, || "b".to_string()));
        assert_eq!(a, 4);
        assert_eq!(b, "b");
    }

    #[test]
    fn join_is_sequential_under_budget_one() {
        let caller = std::thread::current().id();
        let (a, b) = install(1, || {
            join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            )
        });
        assert_eq!(a, caller);
        assert_eq!(b, caller);
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        let err = std::panic::catch_unwind(|| install(4, || join(|| panic!("left"), || 1)))
            .expect_err("left panic must propagate");
        assert!(err
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("left")));
        let err = std::panic::catch_unwind(|| install(4, || join(|| 1, || panic!("right"))))
            .expect_err("right panic must propagate");
        assert!(err
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("right")));
    }

    #[test]
    fn joins_nest_inside_parallel_maps() {
        let out: Vec<usize> = install(4, || {
            (0..16)
                .into_par_iter()
                .map(|i| {
                    let (a, b) = join(|| i * 2, || i * 3);
                    a + b
                })
                .collect()
        });
        assert_eq!(out, (0..16).map(|i| i * 5).collect::<Vec<_>>());
    }

    #[test]
    fn stress_many_small_maps_stay_deterministic() {
        for round in 0..50 {
            let len = 1 + (round * 7) % 40;
            let par: Vec<usize> = (0..len)
                .into_par_iter()
                .with_max_threads(1 + round % 5)
                .map(|i| i * round)
                .collect();
            let seq: Vec<usize> = (0..len).map(|i| i * round).collect();
            assert_eq!(par, seq, "round {round}");
        }
    }

    #[test]
    fn uneven_workloads_still_slot_in_order() {
        let par: Vec<usize> = (0..40)
            .into_par_iter()
            .with_max_threads(4)
            .map(|i| {
                if i % 7 == 0 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                i
            })
            .collect();
        assert_eq!(par, (0..40).collect::<Vec<_>>());
    }
}
