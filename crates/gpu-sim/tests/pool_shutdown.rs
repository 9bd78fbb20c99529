//! Stress test for `WorkerPool` shutdown.
//!
//! Dropping a pool must wake every worker, even one that is just about to
//! wait on the job queue. A lost wakeup there leaves `drop` blocked in
//! `join` forever. This test creates and drops pools in a tight loop on a
//! helper thread, and a watchdog on the test thread turns a hang into a
//! test failure.

use pmcts_gpu_sim::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Create/drop cycles; each cycle builds one pool of every size in `SIZES`.
const CYCLES: usize = 50_000;
const SIZES: [usize; 3] = [2, 3, 8];
/// Far above the loop's normal run time, even on a loaded machine.
const WATCHDOG: Duration = Duration::from_secs(300);

#[test]
fn pool_create_drop_never_hangs() {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let ran = AtomicUsize::new(0);
        for cycle in 0..CYCLES {
            for size in SIZES {
                let pool = WorkerPool::new(size);
                // Every 64th pool does some scoped work before it is
                // dropped, so shutdown also races with workers that just
                // went back to waiting.
                if cycle % 64 == 0 {
                    pool.run_scoped(size, |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                drop(pool);
            }
        }
        done.send(ran.into_inner()).expect("test thread is waiting");
    });
    match finished.recv_timeout(WATCHDOG) {
        // Participant 0 of every scoped call runs on the calling thread;
        // the others may be cancelled before a worker claims them.
        Ok(ran) => assert!(ran >= CYCLES.div_ceil(64) * SIZES.len()),
        Err(_) => panic!("WorkerPool create/drop loop hung for {WATCHDOG:?}: lost shutdown wakeup"),
    }
}
