//! Figure 5 — "Block parallelism vs Leaf parallelism, speed".
//!
//! Simulations per (virtual) second as a function of the number of GPU
//! threads, for three configurations of the paper:
//!   * leaf parallelism, block size 64;
//!   * block parallelism, block size 32 (one tree per 32 threads);
//!   * block parallelism, block size 128.
//!
//! Expected shape (paper): throughput rises with thread count and saturates
//! once the grid covers the device (≈9×10⁵ sims/s); block parallelism is
//! slower than leaf parallelism because of the host-sequential per-tree
//! work, and block-32 (4× the trees of block-128) is slowest.
//!
//! A fourth series adds this reproduction's extension past the paper: the
//! device-resident tree (block size 128, DESIGN.md §13) removes the
//! host round-trip and the per-launch lane setup entirely, so its curve
//! keeps the same rising-then-saturating shape but settles *above* the
//! paper's ceiling — the three paper series are computed exactly as
//! before and stay bit-identical.
//!
//! Run: `cargo run --release -p pmcts-bench --bin fig5_speed -- [--full]
//! [--host-threads N]`. `--host-threads` sizes the simulator's host worker
//! pool (default 2); every series is byte-identical for any N.

use pmcts_bench::{midgame_position, print_series, BenchArgs};
use pmcts_core::prelude::*;
use pmcts_util::Series;

fn thread_sweep(full: bool) -> Vec<u32> {
    if full {
        vec![
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 7168, 14336,
        ]
    } else {
        vec![32, 128, 512, 2048, 7168, 14336]
    }
}

/// Grid geometry for a scheme at a total thread count, mirroring the
/// paper's parameterisation.
fn geometry(total_threads: u32, block_size: u32) -> LaunchConfig {
    if total_threads <= block_size {
        LaunchConfig::new(1, total_threads)
    } else {
        LaunchConfig::new(total_threads / block_size, block_size)
    }
}

fn main() {
    let args = BenchArgs::parse();
    let device = Device::c2050().with_host_threads(args.host_threads_or(2));
    let position = midgame_position(args.seed, 20);
    let iters = if args.full { 12 } else { 5 };
    let budget = SearchBudget::Iterations(iters);

    let mut leaf64 = Series::new("leaf parallelism (block size = 64)");
    let mut block32 = Series::new("block parallelism (block size = 32)");
    let mut block128 = Series::new("block parallelism (block size = 128)");
    let mut resident128 = Series::new("device-resident tree (block size = 128)");
    // The measured decomposition behind the saturation story: the fraction
    // of virtual time the host spends *outside* the kernel phase grows with
    // the tree count (select/expand over every tree is sequential).
    let mut host32 = Series::new("block-32 host share (1 - kernel share)");
    let mut host128 = Series::new("block-128 host share (1 - kernel share)");

    for threads in thread_sweep(args.full) {
        let cfg = MctsConfig::default().with_seed(args.seed);

        let r = LeafParallelSearcher::<Reversi>::new(
            cfg.clone(),
            device.clone(),
            geometry(threads, 64),
        )
        .search(position, budget);
        leaf64.push(threads as f64, r.sims_per_second());

        let r = BlockParallelSearcher::<Reversi>::new(
            cfg.clone(),
            device.clone(),
            geometry(threads, 32),
        )
        .search(position, budget);
        block32.push(threads as f64, r.sims_per_second());
        host32.push(threads as f64, 1.0 - r.phases.kernel_share());
        let b32_kernel = r.phases.kernel_share();

        let r = BlockParallelSearcher::<Reversi>::new(
            cfg.clone(),
            device.clone(),
            geometry(threads, 128),
        )
        .search(position, budget);
        block128.push(threads as f64, r.sims_per_second());
        host128.push(threads as f64, 1.0 - r.phases.kernel_share());
        let b128_kernel = r.phases.kernel_share();

        let r = DeviceTreeSearcher::<Reversi>::new(cfg, device.clone(), geometry(threads, 128))
            .search(position, budget);
        resident128.push(threads as f64, r.sims_per_second());

        eprintln!(
            "threads={threads:>6}  leaf64={:>10.0}  block32={:>10.0}  block128={:>10.0}  \
             resident128={:>10.0} sims/s  kernel share: b32={:>5.1}% b128={:>5.1}%",
            leaf64.points.last().unwrap().1,
            block32.points.last().unwrap().1,
            block128.points.last().unwrap().1,
            resident128.points.last().unwrap().1,
            b32_kernel * 100.0,
            b128_kernel * 100.0,
        );
    }

    print_series(
        "fig5_speed",
        "simulations/second vs GPU threads (Rocki & Suda Fig. 5)",
        &[leaf64, block32, block128, resident128],
        &args,
    );
    print_series(
        "fig5_speed_phases",
        "host-sequential share of virtual time vs GPU threads (measured phase ledger)",
        &[host32, host128],
        &args,
    );
}
