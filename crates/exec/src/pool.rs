//! The persistent work-stealing pool.
//!
//! One process-wide pool is spawned lazily on first parallel call. Each
//! worker owns a deque of tasks; tasks pushed by a worker go to its own
//! deque (back), tasks pushed by external threads go to a shared injector.
//! An idle worker pops its own deque LIFO, then the injector FIFO, then
//! steals **half** of the first non-empty victim deque it finds. Workers
//! with nothing to do park on a condvar and are woken by pushes.
//!
//! The pool schedules opaque tickets; it knows nothing about jobs, results,
//! or ordering. Determinism is the job layer's responsibility (results are
//! slotted by index there), so *any* steal schedule produces identical
//! output.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// An opaque unit of work. Tickets are always safe to run late or never —
/// the job layer's close protocol neutralizes tickets whose job has already
/// completed, so a ticket stranded in a deque is a cheap no-op.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Even on single-core machines the pool keeps this many execution slots
/// (workers + the calling thread), so explicit `with_max_threads(n)`
/// requests behave like real parallelism everywhere and the scheduling
/// machinery is exercised by tests on any hardware. Results never depend on
/// the worker count.
const MIN_POOL_SLOTS: usize = 4;

thread_local! {
    /// Index of the pool worker running on this thread, if any.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Recover a mutex guard even if a task panicked while holding the lock.
/// All pool state stays consistent under panics: the job layer records the
/// payload and the protocol counters are adjusted before unwinding.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    /// Per-worker deques. Owners pop the back; thieves drain the front.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Queue for tasks pushed by threads outside the pool.
    injector: Mutex<VecDeque<Task>>,
    /// Wake epoch: bumped (under the lock) on every push, so a worker that
    /// re-checked the queues under this lock can never miss a wake-up.
    sleep: Mutex<u64>,
    wake: Condvar,
}

/// The persistent pool: `workers` threads plus any number of calling
/// threads cooperating through the queues.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, spawned on first use.
pub(crate) fn global() -> &'static Pool {
    POOL.get_or_init(Pool::start)
}

/// Total execution slots: pool workers plus the calling thread. This is the
/// hard ceiling on any single job's parallel width.
pub(crate) fn capacity() -> usize {
    global().workers + 1
}

impl Pool {
    fn start() -> Pool {
        let slots = crate::env_thread_override()
            .unwrap_or_else(|| crate::hardware_threads().max(MIN_POOL_SLOTS));
        let workers = slots.saturating_sub(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(0),
            wake: Condvar::new(),
        });
        let mut spawned = 0usize;
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            let spawn = std::thread::Builder::new()
                .name(format!("byom-exec-{index}"))
                .spawn(move || worker_loop(&shared, index));
            if spawn.is_ok() {
                spawned += 1;
            } else {
                // Thread exhaustion: run with however many workers came up;
                // queued tickets are still drained by the survivors and the
                // calling threads, so jobs complete either way.
                break;
            }
        }
        Pool {
            shared,
            workers: spawned,
        }
    }

    /// Enqueue tasks and wake sleeping workers. Tasks pushed from a pool
    /// worker land on its own deque (depth-first locality); external pushes
    /// go through the injector.
    pub(crate) fn push_tasks(&self, tasks: impl IntoIterator<Item = Task>) {
        let own = WORKER_INDEX.with(|w| w.get());
        match own.and_then(|i| self.shared.queues.get(i)) {
            Some(queue) => {
                let mut q = relock(queue.lock());
                q.extend(tasks);
            }
            None => {
                let mut q = relock(self.shared.injector.lock());
                q.extend(tasks);
            }
        }
        let mut epoch = relock(self.shared.sleep.lock());
        *epoch = epoch.wrapping_add(1);
        drop(epoch);
        self.shared.wake.notify_all();
    }
}

/// One attempt to find a task: own deque (LIFO), injector (FIFO), then
/// steal half of the first non-empty victim deque.
fn find_task(shared: &Shared, index: usize) -> Option<Task> {
    if let Some(queue) = shared.queues.get(index) {
        if let Some(task) = relock(queue.lock()).pop_back() {
            return Some(task);
        }
    }
    if let Some(task) = relock(shared.injector.lock()).pop_front() {
        return Some(task);
    }
    steal_half(shared, index)
}

/// Steal the older half of the first non-empty victim deque, keeping one
/// task to run now and parking the rest on our own deque (where other
/// thieves can re-steal them).
fn steal_half(shared: &Shared, index: usize) -> Option<Task> {
    let n = shared.queues.len();
    for offset in 1..n.max(1) {
        let victim = (index + offset) % n.max(1);
        if victim == index {
            continue;
        }
        let Some(queue) = shared.queues.get(victim) else {
            continue;
        };
        let mut stolen: VecDeque<Task> = {
            let mut q = relock(queue.lock());
            if q.is_empty() {
                continue;
            }
            let take = q.len().div_ceil(2);
            q.drain(..take).collect()
        };
        let first = stolen.pop_front();
        if !stolen.is_empty() {
            if let Some(own) = shared.queues.get(index) {
                relock(own.lock()).extend(stolen);
            }
        }
        if first.is_some() {
            return first;
        }
    }
    None
}

fn has_work(shared: &Shared) -> bool {
    if !relock(shared.injector.lock()).is_empty() {
        return true;
    }
    shared.queues.iter().any(|q| !relock(q.lock()).is_empty())
}

fn worker_loop(shared: &Shared, index: usize) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    loop {
        if let Some(task) = find_task(shared, index) {
            // A ticket that panics is a bug in the job layer (user panics
            // are caught per-chunk there), but the worker must survive it:
            // a dead worker would strand queued tickets forever.
            let _ = catch_unwind(AssertUnwindSafe(task));
            continue;
        }
        // Sleep protocol: pushes bump the epoch under `sleep` *after*
        // enqueueing, so re-checking the queues while holding the lock and
        // then waiting for an epoch change can never miss a wake-up.
        let epoch_guard = relock(shared.sleep.lock());
        if has_work(shared) {
            continue;
        }
        let epoch = *epoch_guard;
        let _woken = relock(shared.wake.wait_while(epoch_guard, |e| *e == epoch));
    }
}
