//! Launch results and asynchronous launches.
//!
//! [`PendingLaunch`] mirrors the CUDA asynchronous-stream pattern the paper's
//! hybrid scheme depends on (its Fig. 4): the host calls the kernel
//! asynchronously, keeps expanding trees on the CPU, and polls for the "gpu
//! ready event". Here the kernel runs on the device's persistent
//! [`WorkerPool`] — no thread is created per
//! launch; readiness is a flag the worker sets just before finishing.

use crate::pool::WorkerPool;
use crate::stats::KernelStats;
use pmcts_util::GpuFault;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The result of a completed kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchResult<O> {
    /// Per-thread outputs in global-thread order.
    pub outputs: Vec<O>,
    /// Cost and utilisation accounting.
    pub stats: KernelStats,
    /// The fault injected into this launch, if any. On [`GpuFault::Hang`]
    /// and [`GpuFault::BlockAbort`] the outputs (or the aborted block's
    /// slice of them) are present but *void* — it is the caller's response
    /// policy that must discard them; on [`GpuFault::Slowdown`] the stats
    /// already carry the inflated device time.
    pub fault: GpuFault,
}

/// The rendezvous slot a pool worker fills when the launch completes.
struct AsyncSlot<O> {
    result: Mutex<Option<std::thread::Result<LaunchResult<O>>>>,
    ready: AtomicBool,
    done: Condvar,
}

/// A kernel in flight on the simulated device.
///
/// Dropping a `PendingLaunch` without calling [`wait`](Self::wait) detaches
/// the computation (it still completes on the pool, its result is
/// discarded) — the same fire-and-forget semantics as an unsynchronised
/// CUDA stream.
pub struct PendingLaunch<O> {
    slot: Arc<AsyncSlot<O>>,
}

impl<O: Send + 'static> PendingLaunch<O> {
    /// Enqueues `job` on `pool` and returns the handle immediately.
    pub(crate) fn spawn_on<F>(pool: &WorkerPool, job: F) -> Self
    where
        F: FnOnce() -> LaunchResult<O> + Send + 'static,
    {
        let slot = Arc::new(AsyncSlot {
            result: Mutex::new(None),
            ready: AtomicBool::new(false),
            done: Condvar::new(),
        });
        let worker_slot = Arc::clone(&slot);
        pool.submit(move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            *worker_slot.result.lock().expect("async slot poisoned") = Some(result);
            worker_slot.ready.store(true, Ordering::Release);
            worker_slot.done.notify_all();
        });
        PendingLaunch { slot }
    }

    /// Whether the kernel has finished (the "GPU ready event" poll).
    pub fn is_ready(&self) -> bool {
        self.slot.ready.load(Ordering::Acquire)
    }

    /// Blocks until the kernel completes and returns its result.
    ///
    /// # Panics
    /// Re-raises the kernel's panic if it panicked.
    pub fn wait(self) -> LaunchResult<O> {
        // Wakeup argument: the worker stores the result while holding the
        // `result` mutex and notifies `done` after storing it. This loop
        // checks for the result under that mutex, and `wait` releases the
        // mutex atomically. So the store either happens before the check
        // (no wait) or finds this thread already waiting on `done`. The
        // job always runs: the pool drains its queue before its workers
        // exit.
        let mut guard = self.slot.result.lock().expect("async slot poisoned");
        while guard.is_none() {
            guard = self.slot.done.wait(guard).expect("async slot poisoned");
        }
        match guard.take().expect("result present") {
            Ok(result) => result,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl<O> std::fmt::Debug for PendingLaunch<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingLaunch")
            .field("ready", &self.slot.ready.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::device::{Device, DeviceSpec};
    use crate::kernel::{Kernel, LaunchConfig, ThreadId};
    use std::sync::Arc;

    /// A lane that spins `n` steps then returns its global id.
    struct Spin {
        n: u32,
    }

    impl Kernel for Spin {
        type ThreadState = u32;
        type Output = u32;
        fn init(&self, _tid: ThreadId) -> u32 {
            self.n
        }
        fn step(&self, s: &mut u32, _tid: ThreadId) -> bool {
            *s -= 1;
            *s == 0
        }
        fn finish(&self, _s: u32, tid: ThreadId) -> u32 {
            tid.global
        }
    }

    #[test]
    fn sync_launch_returns_all_outputs() {
        let dev = Device::new(DeviceSpec::tesla_c2050());
        let r = dev.launch(&Spin { n: 3 }, LaunchConfig::new(4, 64));
        assert_eq!(r.outputs.len(), 256);
        assert_eq!(r.outputs[17], 17);
        assert!(r.stats.elapsed() > pmcts_util::SimTime::ZERO);
    }

    #[test]
    fn async_launch_completes_and_matches_sync() {
        let dev = Device::new(DeviceSpec::tesla_c2050());
        let cfg = LaunchConfig::new(8, 32);
        let sync = dev.launch(&Spin { n: 5 }, cfg);
        let pending = dev.launch_async(Arc::new(Spin { n: 5 }), cfg);
        let async_r = pending.wait();
        assert_eq!(sync.outputs, async_r.outputs);
        assert_eq!(sync.stats, async_r.stats);
    }

    #[test]
    fn is_ready_eventually_true() {
        let dev = Device::new(DeviceSpec::tesla_c2050());
        let pending = dev.launch_async(Arc::new(Spin { n: 2 }), LaunchConfig::new(1, 32));
        // Poll; the pool worker must flip the flag.
        let mut spins = 0u64;
        while !pending.is_ready() {
            std::hint::spin_loop();
            spins += 1;
            assert!(spins < 1_000_000_000, "async launch never became ready");
        }
        let r = pending.wait();
        assert_eq!(r.outputs.len(), 32);
    }

    #[test]
    fn dropping_pending_launch_is_safe() {
        let dev = Device::new(DeviceSpec::tesla_c2050());
        let pending = dev.launch_async(Arc::new(Spin { n: 1 }), LaunchConfig::new(1, 32));
        drop(pending); // must not deadlock or panic
    }

    #[test]
    fn many_async_launches_reuse_the_pool() {
        // Regression for the old spawn-per-launch behaviour: a batch of
        // async launches must all complete on a small fixed pool.
        let dev = Device::new(DeviceSpec::tesla_c2050()).with_host_threads(2);
        let kernel = Arc::new(Spin { n: 2 });
        let pending: Vec<_> = (0..32)
            .map(|_| dev.launch_async(Arc::clone(&kernel), LaunchConfig::new(2, 32)))
            .collect();
        for p in pending {
            assert_eq!(p.wait().outputs.len(), 64);
        }
        assert_eq!(dev.worker_pool().swallowed_panics(), 0);
    }
}
