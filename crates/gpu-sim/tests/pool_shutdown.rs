//! Stress tests for `WorkerPool` shutdown.
//!
//! Dropping a pool must wake every worker, even one that is just about to
//! wait on the job queue. A lost wakeup there leaves `drop` blocked in
//! `join` forever. The first test creates and drops pools in a tight loop
//! on a helper thread, and a watchdog on the test thread turns a hang into
//! a test failure.
//!
//! The last reference to a pool may also drop on one of its own workers:
//! a detached asynchronous launch owns a clone of its device's pool, so
//! dropping the `PendingLaunch` and the `Device` before the kernel ends
//! leaves the job holding it. The second test drives that path and checks
//! that no worker panics (a worker joining itself does) and every worker
//! exits.

use pmcts_gpu_sim::{Device, DeviceSpec, Kernel, LaunchConfig, ThreadId, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// The two tests count pool threads process-wide, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Create/drop cycles; each cycle builds one pool of every size in `SIZES`.
const CYCLES: usize = 50_000;
const SIZES: [usize; 3] = [2, 3, 8];
/// Far above the loop's normal run time, even on a loaded machine.
const WATCHDOG: Duration = Duration::from_secs(300);

#[test]
fn pool_create_drop_never_hangs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

/// Rounds of: device, detached launch, drop the handle and the device.
const DETACHED_ROUNDS: usize = 1_000;
/// Bound on the wait for the last detached worker to exit.
const EXIT_WAIT: Duration = Duration::from_secs(60);

/// Panics raised on any pool worker thread, caught or not.
static WORKER_PANICS: AtomicUsize = AtomicUsize::new(0);

/// Installs (once) a panic hook that counts panics on pool workers before
/// the default report. A detached job's panic is caught and dropped by the
/// worker, so the hook is the one place that still sees it.
fn count_worker_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().map(str::to_owned);
            if name.is_some_and(|n| n.starts_with("gpu-sim-worker")) {
                WORKER_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            report(info);
        }));
    });
}

/// Live pool worker threads in this process (`None` where the OS does not
/// list threads by name). Thread names are truncated to 15 bytes there.
fn live_pool_workers() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let workers = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("gpu-sim-worker"))
        .count();
    Some(workers)
}

/// Spins `n` steps per lane, long enough that the device usually drops
/// while the kernel still runs.
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
fn detached_launch_outliving_its_device_drops_the_pool_cleanly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    count_worker_panics();
    let panics_before = WORKER_PANICS.load(Ordering::SeqCst);
    let kernel = Arc::new(Spin { n: 64 });
    for _ in 0..DETACHED_ROUNDS {
        let pool = Arc::new(WorkerPool::new(2));
        let device = Device::new_with_pool(DeviceSpec::tesla_c2050(), pool);
        let pending = device.launch_async(Arc::clone(&kernel), LaunchConfig::new(2, 64));
        drop(pending);
        drop(device);
    }
    let deadline = Instant::now() + EXIT_WAIT;
    let mut live = live_pool_workers();
    while live.is_some_and(|n| n > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        live = live_pool_workers();
    }
    assert_eq!(
        WORKER_PANICS.load(Ordering::SeqCst) - panics_before,
        0,
        "a pool worker panicked (e.g. joining itself while dropping its pool)"
    );
    if let Some(live) = live {
        assert_eq!(
            live, 0,
            "pool workers still running {EXIT_WAIT:?} after their pools dropped"
        );
    }
}
