//! A persistent host worker pool (std-only).
//!
//! The execution engine used to spawn fresh OS threads for every kernel
//! launch — scoped threads for the synchronous block fan-out and a detached
//! thread per asynchronous launch. On the simulated-GPU hot path that is a
//! thread creation per MCTS iteration. [`WorkerPool`] replaces both: a
//! fixed set of workers is created once per device (or shared across
//! devices) and serves
//!
//! * [`run_scoped`](WorkerPool::run_scoped) — synchronous fan-out where the
//!   closure may borrow from the caller's stack, and its indexed form
//!   [`map_indexed`](WorkerPool::map_indexed) (the block loop of
//!   `execute_kernel`, the searchers' per-tree host phases), and
//! * [`submit`](WorkerPool::submit) — fire-and-forget `'static` jobs
//!   (asynchronous launches behind `PendingLaunch`).
//!
//! **Determinism.** The pool never decides *what* work is done, only *which
//! thread* does it: `map_indexed` returns results in item order, so
//! `execute_kernel` folds its blocks in block order and results are
//! bit-identical for any pool size.
//!
//! **Deadlock freedom.** `run_scoped(participants, f)` always runs
//! participant 0 on the calling thread, so all work can complete even if no
//! worker ever picks up a queued participant job (e.g. every worker is busy
//! with an asynchronous launch). After its own share the caller *cancels*
//! any of its jobs still sitting unclaimed in the queue and waits only for
//! jobs a worker actually started — a bounded wait on actively executing
//! closures.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A scoped participant closure with its lifetime erased.
///
/// Safety: `run_scoped` guarantees the referent outlives every access — it
/// does not return until each queued job was either executed to completion
/// or removed from the queue unstarted.
struct ScopedFn(*const (dyn Fn(usize) + Sync + 'static));
unsafe impl Send for ScopedFn {}
unsafe impl Sync for ScopedFn {}

/// Shared bookkeeping of one `run_scoped` call.
struct ScopeState {
    run: ScopedFn,
    /// Participant jobs not yet finished (queued or executing).
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by a participant, re-thrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

enum Job {
    /// A detached `'static` job (asynchronous launch).
    Task(Box<dyn FnOnce() + Send + 'static>),
    /// Participant `index` of a synchronous scoped fan-out.
    Scoped {
        scope: Arc<ScopeState>,
        index: usize,
    },
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Detached jobs whose panic the worker caught and dropped.
    swallowed_panics: AtomicUsize,
}

/// A fixed-size pool of persistent worker threads.
///
/// Dropping the pool drains the queue (pending detached jobs still run —
/// preserving the fire-and-forget semantics of dropped async launches) and
/// joins all workers. A detached job may own the last reference to its
/// pool (a dropped `PendingLaunch` whose device is gone too), so the drop
/// can run on one of the pool's own workers: that worker is detached
/// instead of joined, and exits once it is back in its loop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (`0` is treated as 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            swallowed_panics: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gpu-sim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }

    /// Number of worker threads.
    #[inline]
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// How many detached jobs ([`submit`](Self::submit)) panicked. Their
    /// panics have nowhere to surface, so the worker catches and drops
    /// them and counts them here; a healthy pool reads 0.
    pub fn swallowed_panics(&self) -> usize {
        self.shared.swallowed_panics.load(Ordering::Relaxed)
    }

    /// Enqueues a detached `'static` job; some worker eventually runs it.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        queue.push_back(Job::Task(Box::new(job)));
        drop(queue);
        self.shared.available.notify_one();
    }

    /// Runs `f(0), f(1), …, f(participants-1)` concurrently and returns when
    /// all calls have finished. `f(0)` runs on the calling thread; the rest
    /// are offered to the workers, so at most `participants` threads run `f`
    /// at any moment. `f` may borrow from the caller's stack.
    ///
    /// # Panics
    /// Re-raises the first panic any participant raised.
    pub fn run_scoped<F>(&self, participants: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if participants <= 1 {
            f(0);
            return;
        }
        let narrow: &(dyn Fn(usize) + Sync) = &f;
        // Erase the stack lifetime; see `ScopedFn` for the safety argument.
        let erased: &'static (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(narrow) };
        let scope = Arc::new(ScopeState {
            run: ScopedFn(erased as *const _),
            pending: Mutex::new(participants - 1),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for index in 1..participants {
                queue.push_back(Job::Scoped {
                    scope: Arc::clone(&scope),
                    index,
                });
            }
        }
        self.shared.available.notify_all();

        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));

        // Cancel this scope's still-unclaimed jobs: a popped job is owned by
        // a worker, so whatever remains in the queue never started and can
        // be discarded (participant 0 plus the executing workers drain the
        // shared work source — for `map_indexed`, the item counter).
        let cancelled = {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            let before = queue.len();
            queue.retain(
                |job| !matches!(job, Job::Scoped { scope: s, .. } if Arc::ptr_eq(s, &scope)),
            );
            before - queue.len()
        };
        {
            // Wakeup argument: a worker decrements `pending` and notifies
            // `done` while holding the `pending` mutex, and this loop
            // re-checks the count under that mutex before every wait. The
            // last decrement therefore either happens before the check
            // (the loop exits) or finds this thread already waiting.
            let mut pending = scope.pending.lock().expect("scope state poisoned");
            *pending -= cancelled;
            while *pending > 0 {
                pending = scope.done.wait(pending).expect("scope state poisoned");
            }
        }
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        let participant_panic = scope.panic.lock().expect("scope state poisoned").take();
        if let Some(payload) = participant_panic {
            resume_unwind(payload);
        }
    }

    /// Applies `f` to every element of `items` on the pool and returns the
    /// results **in item order**, regardless of which worker ran which item.
    ///
    /// This is the deterministic fan-out primitive behind `execute_kernel`'s
    /// blocks and the searchers' pool-parallel host phases: each item (one
    /// block, one search tree) is claimed by exactly one participant via an
    /// atomic counter, `f` gets exclusive `&mut` access to it, and the
    /// result lands in the slot of the item's index. Because outputs are
    /// keyed by index and the caller folds them in order, results are
    /// bit-identical for any pool size.
    ///
    /// Built on [`run_scoped`](Self::run_scoped), so it inherits its
    /// guarantees: the caller participates (no deadlock when all workers
    /// are busy), at most `min(size, items.len())` threads run `f`, and a
    /// panic in `f` is re-raised here. With one worker (or one item) the
    /// whole map runs inline on the calling thread.
    pub fn map_indexed<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        {
            let items = SendSlice(items.as_mut_ptr());
            let slots = SendSlice(out.as_mut_ptr());
            let next = std::sync::atomic::AtomicUsize::new(0);
            let participants = self.size().min(n);
            self.run_scoped(participants, |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Safety: the atomic counter hands out each index exactly
                // once, so no two participants touch the same element or
                // result slot, and `run_scoped` does not return before
                // every started participant finished.
                let item = unsafe { &mut *items.at(i) };
                let result = f(i, item);
                unsafe { *slots.at(i) = Some(result) };
            });
        }
        out.into_iter()
            .map(|slot| slot.expect("map_indexed: every index was claimed"))
            .collect()
    }
}

/// Raw pointer into a caller-owned slice, shareable across the scoped
/// participants. Safety: see `map_indexed` — indices are claimed uniquely.
struct SendSlice<T>(*mut T);
unsafe impl<T: Send> Send for SendSlice<T> {}
unsafe impl<T: Send> Sync for SendSlice<T> {}

impl<T> SendSlice<T> {
    /// Pointer to element `i`. Going through a method (rather than field
    /// access in the closure) makes the closure capture the whole `Sync`
    /// wrapper instead of the raw pointer field.
    fn at(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Store `shutdown` while holding the queue mutex. A worker checks
        // the flag and goes to sleep on `available` under that same mutex,
        // so it either sees the flag or is already waiting when
        // `notify_all` fires. Storing without the lock loses the wakeup:
        // a worker can read `false`, then `wait` after the notification,
        // sleep forever and hang `join` below.
        {
            let _queue = self.shared.queue.lock().expect("pool queue poisoned");
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        // A worker cannot join itself (`pthread_join` fails with EDEADLK and
        // std panics). When a detached job dropped the last reference, the
        // current thread is one of the workers: dropping its handle detaches
        // it, and it exits on its own — it is back in `worker_loop` as soon
        // as this drop returns, sees `shutdown`, and drains the queue like
        // the others.
        let current = std::thread::current().id();
        for handle in self.workers.drain(..) {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size())
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                // Queue drained: detached jobs submitted before shutdown
                // have been picked up, so exiting here never drops work.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.available.wait(queue).expect("pool queue poisoned");
            }
        };
        match job {
            Job::Task(f) => {
                // A detached job's panic has nowhere to surface (the owner
                // may have dropped its handle); count and drop it so the
                // worker survives. `PendingLaunch` jobs catch their own
                // panics and report them through `wait()`.
                if catch_unwind(AssertUnwindSafe(f)).is_err() {
                    shared.swallowed_panics.fetch_add(1, Ordering::Relaxed);
                }
            }
            Job::Scoped { scope, index } => {
                let run = unsafe { &*scope.run.0 };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(index))) {
                    let mut slot = scope.panic.lock().expect("scope state poisoned");
                    slot.get_or_insert(payload);
                }
                let mut pending = scope.pending.lock().expect("scope state poisoned");
                *pending -= 1;
                if *pending == 0 {
                    scope.done.notify_all();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scoped_fanout_runs_every_participant_work_item() {
        let pool = WorkerPool::new(4);
        let next = AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        pool.run_scoped(4, |_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= 100 {
                break;
            }
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..100).sum());
    }

    #[test]
    fn single_participant_runs_inline() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        pool.run_scoped(1, |idx| {
            assert_eq!(idx, 0);
            assert_eq!(std::thread::current().id(), caller);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn completes_even_when_workers_are_busy() {
        // One worker, blocked on a long detached job: run_scoped must still
        // finish because the caller can do all the work itself.
        let pool = WorkerPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        let done = AtomicUsize::new(0);
        pool.run_scoped(3, |_| {
            done.fetch_add(1, Ordering::Relaxed);
        });
        // Participants 1,2 may have been cancelled; participant 0 always ran.
        assert!(done.load(Ordering::Relaxed) >= 1);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn submitted_jobs_run_before_shutdown() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..16 {
                let ran = Arc::clone(&ran);
                pool.submit(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop joins workers after the queue drains.
        }
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn detached_job_panics_are_counted() {
        let pool = WorkerPool::new(2);
        pool.submit(|| panic!("detached job exploded"));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        // Wait (bounded) for both jobs: the worker survives the panic.
        for _ in 0..10_000 {
            if pool.swallowed_panics() == 1 && ran.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.swallowed_panics(), 1);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dropping_the_last_reference_on_a_worker_detaches_it() {
        // The job owns the only `Arc` once the caller's clone is gone, so
        // the pool drops on its own worker; a self-join would panic there
        // and the channel would never hear back.
        let pool = Arc::new(WorkerPool::new(2));
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done) = std::sync::mpsc::channel();
        let owned = Arc::clone(&pool);
        pool.submit(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            let on_worker = std::thread::current().id();
            drop(owned);
            done_tx.send(on_worker).unwrap();
        });
        started.recv().unwrap();
        drop(pool);
        release.send(()).unwrap();
        let timeout = std::time::Duration::from_secs(60);
        let worker = done
            .recv_timeout(timeout)
            .expect("self-dropping job finished");
        assert_ne!(worker, std::thread::current().id());
    }

    #[test]
    fn participant_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(2, |idx| {
                if idx == 1 {
                    panic!("participant exploded");
                }
                // Give the worker time to claim and run participant 1 so the
                // panic path (not the cancellation path) is exercised.
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool must remain usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.run_scoped(2, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn caller_panic_waits_for_started_participants() {
        // The safety argument of the lifetime-erasing `transmute`: even when
        // participant 0 unwinds, `run_scoped` must not return while a worker
        // still runs a participant that borrows the caller's stack. Here the
        // worker writes into a heap `Vec` the closure borrows after the
        // caller already panicked; a premature return would let that write
        // land after the `Vec` is freed (a heap-use-after-free under ASan)
        // and fail the assertion below.
        let pool = WorkerPool::new(2);
        let slots: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let started = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(2, |idx| {
                if idx == 0 {
                    // Panic only once the worker owns participant 1, so the
                    // scope cannot cancel it unstarted.
                    while !started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    panic!("caller participant exploded");
                }
                started.store(true, Ordering::Release);
                // Widens the window in which a premature return would show.
                std::thread::sleep(std::time::Duration::from_millis(50));
                slots[3].store(7, Ordering::Release);
            });
        }));
        assert!(
            result.is_err(),
            "participant 0's panic must reach the caller"
        );
        assert_eq!(
            slots[3].load(Ordering::Acquire),
            7,
            "run_scoped unwound before its worker participant finished"
        );
        drop(slots);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
    }

    #[test]
    fn map_indexed_returns_results_in_item_order() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let mut items: Vec<usize> = (0..37).collect();
            let results = pool.map_indexed(&mut items, |i, item| {
                *item *= 2;
                i * 10
            });
            assert_eq!(results, (0..37).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(items, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_indexed_gives_exclusive_mutable_access() {
        let pool = WorkerPool::new(4);
        let mut items = vec![0u64; 200];
        // Each item incremented exactly once even under contention.
        let results = pool.map_indexed(&mut items, |_, item| {
            *item += 1;
            *item
        });
        assert!(items.iter().all(|&v| v == 1));
        assert!(results.iter().all(|&v| v == 1));
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        let pool = WorkerPool::new(3);
        let mut empty: Vec<u8> = Vec::new();
        assert!(pool.map_indexed(&mut empty, |_, _| 0u8).is_empty());
        let mut one = vec![7u8];
        assert_eq!(pool.map_indexed(&mut one, |i, v| (i, *v)), vec![(0, 7)]);
    }

    #[test]
    fn map_indexed_panic_propagates() {
        let pool = WorkerPool::new(2);
        let mut items = vec![0u8; 8];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(&mut items, |i, _| {
                if i == 3 {
                    panic!("item exploded");
                }
                i
            })
        }));
        assert!(result.is_err());
        // Pool stays usable.
        let mut items = vec![0u8; 4];
        let results = pool.map_indexed(&mut items, |i, _| i);
        assert_eq!(results, vec![0, 1, 2, 3]);
    }
}
