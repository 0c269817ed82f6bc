//! Deterministic parallel map for the BYOM workspace.
//!
//! Every parallel call site in the workspace — GBDT training, the
//! experiment harness fan-outs, the resilience sweeps, the fig binaries —
//! goes through one index-parallel map ([`ParallelSlice::par_iter`],
//! [`IntoParallelIterator::into_par_iter`]). A call runs on the calling
//! thread plus scoped threads (`std::thread::scope`) that live only as long
//! as the call; there is no persistent pool.
//!
//! # Thread budget
//!
//! A single knob controls parallel width everywhere:
//!
//! * [`install`]`(n, f)` pins the budget to `n` for everything `f` does.
//!   Budgets only shrink when nested: `install(4, ..)` inside
//!   `install(2, ..)` still runs on 2.
//! * `.with_max_threads(n)` bounds one parallel call; it combines with the
//!   ambient budget the same way (`min`).
//! * `BYOM_THREADS` (environment) overrides the default budget for the
//!   whole process.
//! * A parallel call over `len` items with budget `b` runs on
//!   `min(b, len)` threads, and each of them runs its closures under an
//!   equal share of `b` (the remainder goes to the first threads). Nested
//!   calls therefore divide the budget instead of multiplying it: at most
//!   `b` closures run at once anywhere beneath the call.
//! * Budget `1` means *strictly sequential at every nesting level*: the
//!   call runs inline on the caller and every nested parallel call —
//!   whatever it requests — resolves to 1 as well.
//!
//! # Determinism
//!
//! Threads claim item indices from a shared counter, and results are put
//! back in index order, so for any pure closure the output is
//! **byte-identical** to sequential execution for any budget and any
//! schedule. A panic inside a closure stops further claims; the panic is
//! re-raised on the caller once every thread of the call has finished.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The traits to import to get `par_iter` / `into_par_iter`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice};
}

/// The default thread budget when nothing narrower is in scope:
/// `BYOM_THREADS` if it is a positive integer, otherwise all available
/// cores.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("BYOM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    })
}

thread_local! {
    /// The thread budget pinned by the nearest enclosing [`install`] or
    /// parallel call on this thread; `0` means "no budget in scope".
    static SCOPE_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with `budget` pinned as this thread's scope budget, restoring
/// the previous budget afterwards (also on panic). `0` leaves the scope
/// untouched.
fn with_scope_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
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

/// Run `f` with the thread budget pinned to `n` for everything it does,
/// including nested parallel calls and the threads they start. `n = 0`
/// leaves the ambient budget unchanged; a non-zero `n` is capped by any
/// enclosing budget; `n = 1` forces strictly sequential execution at every
/// nesting level.
pub fn install<R>(n: usize, f: impl FnOnce() -> R) -> R {
    if n == 0 {
        return f();
    }
    with_scope_budget(resolve_threads(n), f)
}

/// What one thread of a parallel call hands back: the `(index, result)`
/// pairs it computed, or the payload of the first closure that panicked.
type Claimed<U> = Result<Vec<(usize, U)>, Box<dyn Any + Send>>;

/// Execute `f(0..len)` under the resolved budget for `requested`,
/// returning results in index order.
///
/// The caller and up to `width - 1` scoped threads claim indices from one
/// counter. Participant `p` runs its closures under budget
/// `budget / width`, plus one if `p < budget % width`, so the shares add
/// up to `budget`.
fn run_map<U, F>(requested: usize, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let budget = resolve_threads(requested);
    let width = budget.min(len);
    if width <= 1 {
        return with_scope_budget(budget.max(1), || (0..len).map(f).collect());
    }
    // Both atomics only hand out indices and signal a stop; results reach
    // the caller through the scope's join, which orders every write before
    // the caller reads it, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let claim = |participant: usize| -> Claimed<U> {
        let share = budget / width + usize::from(participant < budget % width);
        with_scope_budget(share, || {
            let mut done = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(value) => done.push((i, value)),
                    Err(payload) => {
                        stop.store(true, Ordering::Relaxed);
                        return Err(payload);
                    }
                }
            }
            Ok(done)
        })
    };
    let claim = &claim;
    let claimed: Vec<Claimed<U>> = std::thread::scope(|s| {
        // A thread that fails to spawn claims nothing; the participants
        // that did start drain the counter without it.
        let helpers: Vec<_> = (1..width)
            .filter_map(|p| {
                std::thread::Builder::new()
                    .spawn_scoped(s, move || claim(p))
                    .ok()
            })
            .collect();
        let mut claimed = vec![claim(0)];
        claimed.extend(helpers.into_iter().map(|h| h.join().unwrap_or_else(Err)));
        claimed
    });
    let mut slots = Vec::with_capacity(len);
    for outcome in claimed {
        match outcome {
            Ok(done) => slots.extend(done),
            Err(payload) => resume_unwind(payload),
        }
    }
    slots.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(slots.len(), len);
    slots.into_iter().map(|(_, value)| value).collect()
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
}

/// The result of [`ParIter::map`], ready to collect.
///
/// [`collect`](ParMap::collect) is the only way to finish the map, and it
/// returns results in input order:
///
/// ```
/// use byom_exec::prelude::*;
/// let v = vec![1.0, 2.0, 3.0];
/// let doubled = v.par_iter().map(|x| x * 2.0).collect::<Vec<f64>>();
/// assert_eq!(doubled, [2.0, 4.0, 6.0]);
/// ```
///
/// There is no parallel `sum`, `reduce` or `fold` (E0599, no such method),
/// so a float reduction cannot depend on which thread finishes first; sum
/// the collected `Vec` instead:
///
/// ```compile_fail
/// use byom_exec::prelude::*;
/// let v = vec![1.0, 2.0, 3.0];
/// let total = v.par_iter().map(|x| x * 2.0).sum::<f64>();
/// ```
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
}

/// The result of [`ParRange::map`], ready to collect. Like [`ParMap`], it
/// has no parallel reduction: `collect` returns results in index order.
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
        // An explicit width of 4 spawns three threads even on a 1-core
        // machine; the sleeps give them ample time to claim indices.
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
            "expected spawned threads to claim indices alongside the caller"
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
    fn nested_maps_never_run_more_closures_than_the_budget() {
        for n in 1..=3 {
            let running = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            install(n, || {
                (0..8)
                    .into_par_iter()
                    .map(|_| {
                        (0..8)
                            .into_par_iter()
                            .map(|_| {
                                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_millis(2));
                                running.fetch_sub(1, Ordering::SeqCst);
                            })
                            .collect::<Vec<()>>()
                    })
                    .collect::<Vec<_>>()
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= n, "install({n}, ..) ran {peak} leaves at once");
        }
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
        // The executor must stay fully usable after a propagated panic.
        let out: Vec<usize> = (0..100)
            .into_par_iter()
            .with_max_threads(4)
            .map(|i| i + 1)
            .collect();
        assert_eq!(out, (1..101).collect::<Vec<_>>());
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
