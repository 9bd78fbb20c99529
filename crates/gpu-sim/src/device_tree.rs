//! Device-resident MCTS tree: cost constants and launch pricing.
//!
//! The block-parallel scheme (and the paper's Fig. 5 ceiling) round-trips
//! every iteration through the host: selection/expansion/backprop run on
//! the CPU, then one launch simulates a single frontier wave. A
//! device-resident tree inverts that: the node pool lives in GPU global
//! memory and a *persistent* kernel runs complete MCTS iterations — UCB
//! descent, expansion, playout, backprop — without returning to the host.
//! The host only uploads the root-state delta once per search and reads
//! back root-child statistics once per launch (DESIGN.md §13).
//!
//! This module holds the device side of that design:
//!
//! * [`DeviceTreeSpec`] — the cost constants of the in-kernel tree walk.
//! * [`price_resident_launch`] — analytic divergence accounting for one
//!   persistent launch. Lanes report how many tree steps (UCB levels
//!   descended + the expansion + backprop updates) and playout steps
//!   (plies) they executed; each warp is settled and the block costs go
//!   through the executor's one grid fold, so the resident kernel runs on
//!   the same device model as the playout kernels. The crucial difference
//!   from per-iteration launches: warp divergence is settled once over the
//!   *sum* of a lane's iterations (max-of-sums), not once per iteration
//!   (sum-of-maxes) — a lane that finishes a short playout immediately
//!   starts its next iteration instead of idling until the launch drains.
//!
//! The node pool itself is the `pmcts-core` SoA `SearchTree`: its fixed
//! columns and its bump + LIFO free-list arena *are* the device pool
//! (after Ragan et al., *Array-Based MCTS*), so the simulator keeps no
//! second model of them.

use crate::device::DeviceSpec;
use crate::executor::{fold_costs, stretch, BlockCost};
use crate::kernel::LaunchConfig;
use crate::stats::KernelStats;
use pmcts_util::GpuFault;

/// Cost constants of the in-kernel tree walk (DESIGN.md §13).
///
/// Playout plies inside the resident kernel are cheaper than the
/// per-launch playout kernels' calibrated step (`DeviceSpec::
/// cycles_per_warp_step`, 13 500 ≈ 422 cycles/lane): that constant was
/// fitted to the paper's end-to-end Fig. 5 peak and therefore folds the
/// per-launch lane setup — reading the frontier position, seeding the
/// RNG, spilling per-lane game state to Fermi local memory, writing the
/// result array — into every ply. The persistent kernel pays none of
/// that per ply: lane state stays in registers across iterations and
/// results accumulate into the resident node pool, leaving the pure
/// bitboard ALU cost of a ply (≈270 cycles/lane). Tree steps (one UCB
/// child scan or one backprop node update) are a handful of global-memory
/// loads and FMAs per lane (≈75 cycles/lane).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceTreeSpec {
    /// Cycles one warp spends per playout ply (all 32 lanes): pure
    /// move-gen + apply ALU work, no per-launch lane setup.
    pub playout_warp_step_cycles: u64,
    /// Cycles one warp spends per tree step: one UCB level of the descent,
    /// the expansion slot claim, or one backprop node update.
    pub tree_warp_step_cycles: u64,
    /// Bytes read back per root child per launch (4-byte visit count +
    /// 8-byte win sum); the only device→host traffic of a launch.
    pub root_stat_bytes: u64,
}

impl DeviceTreeSpec {
    /// The resident-kernel calibration for the Tesla C2050 (DESIGN.md §13).
    pub fn c2050_resident() -> Self {
        DeviceTreeSpec {
            playout_warp_step_cycles: 8_640,
            tree_warp_step_cycles: 2_400,
            root_stat_bytes: 12,
        }
    }
}

impl Default for DeviceTreeSpec {
    fn default() -> Self {
        Self::c2050_resident()
    }
}

/// Prices one persistent launch on the device model of the playout
/// executor. `lanes[b][l]` holds lane `l` of block `b`'s `(tree_steps,
/// playout_steps)` summed over every iteration it ran in the launch; each
/// row has the launch's `threads_per_block` entries.
///
/// A warp pays for its slowest summed lane per category (the persistent
/// kernel's max-of-sums pipelining): `max(tree) · tree_warp_step_cycles +
/// max(playout) · playout_warp_step_cycles`. Blocks then fold exactly like
/// executor blocks — round-robin onto SMs, device time the busiest SM —
/// and `fault` stretches a slowdown by the executor's rule.
/// `readback_bytes` prices the root-stat readback; upload is *not*
/// charged here — the resident tree's only upload is the per-search root
/// delta, charged by the searcher.
pub fn price_resident_launch(
    lanes: &[Vec<(u64, u64)>],
    tree: &DeviceTreeSpec,
    dev: &DeviceSpec,
    config: &LaunchConfig,
    readback_bytes: u64,
    fault: GpuFault,
) -> KernelStats {
    let block_cost = |row: &Vec<(u64, u64)>| {
        assert_eq!(
            row.len(),
            config.threads_per_block as usize,
            "ragged lane row"
        );
        let mut cost = BlockCost::default();
        for warp in row.chunks(dev.warp_size as usize) {
            let tree_max = warp.iter().map(|&(t, _)| t).max().unwrap_or(0);
            let playout_max = warp.iter().map(|&(_, p)| p).max().unwrap_or(0);
            let useful = warp.iter().map(|&(t, p)| t + p).sum();
            cost.add_warp(
                tree_max * tree.tree_warp_step_cycles + playout_max * tree.playout_warp_step_cycles,
                tree_max + playout_max,
                useful,
                warp.len() as u64,
            );
        }
        cost
    };
    let mut stats = fold_costs(lanes.iter().map(block_cost), config, dev, readback_bytes);
    stretch(&mut stats, fault);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_kernel;
    use crate::kernel::{Kernel, ThreadId};
    use crate::pool::WorkerPool;
    use pmcts_util::SimTime;

    fn price(
        lanes: &[Vec<(u64, u64)>],
        tree: &DeviceTreeSpec,
        dev: &DeviceSpec,
        readback_bytes: u64,
    ) -> KernelStats {
        let cfg = LaunchConfig::new(lanes.len() as u32, lanes[0].len() as u32);
        price_resident_launch(lanes, tree, dev, &cfg, readback_bytes, GpuFault::None)
    }

    #[test]
    fn trace_settles_divergence_over_summed_lanes() {
        // Two lanes in one warp (scalar spec has warp_size 1; use a wider
        // hand-built spec): lane 0 runs 10 tree + 30 playout steps, lane 1
        // 20 + 20. Each category settles over the lanes' summed steps, so
        // the warp pays max(tree) = 20 and max(playout) = 30.
        let mut dev = DeviceSpec::scalar();
        dev.warp_size = 2;
        dev.sm_count = 2;
        let tree = DeviceTreeSpec {
            playout_warp_step_cycles: 100,
            tree_warp_step_cycles: 10,
            root_stat_bytes: 12,
        };
        let stats = price(&[vec![(10, 30), (20, 20)]], &tree, &dev, 24);
        // Warp cost: max tree = 20, max playout = 30.
        assert_eq!(stats.warp_steps, 50);
        assert_eq!(stats.lane_steps, 80);
        assert_eq!(stats.idle_lane_steps, 50 * 2 - 80);
        let cycles = 20 * 10 + 30 * 100;
        assert_eq!(stats.per_sm_cycles, vec![cycles, 0]);
        assert_eq!(stats.device_time, dev.cycles_to_time(cycles));
        assert_eq!(stats.readback_time, dev.transfer_time(24));
    }

    #[test]
    fn max_of_sums_beats_sum_of_maxes() {
        // The pipelining win: two iterations whose per-iteration maxima
        // alternate lanes cost less when settled once over the sums.
        let mut dev = DeviceSpec::scalar();
        dev.warp_size = 2;
        let tree = DeviceTreeSpec {
            playout_warp_step_cycles: 1,
            tree_warp_step_cycles: 0,
            root_stat_bytes: 12,
        };
        // Iteration 1: lane A plays 40, lane B plays 20.
        // Iteration 2: lane A plays 20, lane B plays 40.
        let stats = price(&[vec![(0, 40 + 20), (0, 20 + 40)]], &tree, &dev, 0);
        // max of sums: max(60, 60) = 60 < per-iteration maxima 40 + 40.
        assert_eq!(stats.warp_steps, 60);
        assert_eq!(
            stats.idle_lane_steps, 0,
            "lane never waits at an iteration boundary"
        );
    }

    #[test]
    fn blocks_fold_round_robin_onto_sms() {
        let mut dev = DeviceSpec::scalar();
        dev.sm_count = 2;
        let tree = DeviceTreeSpec {
            playout_warp_step_cycles: 1,
            tree_warp_step_cycles: 1,
            root_stat_bytes: 12,
        };
        let stats = price(&[vec![(0, 5)], vec![(0, 7)], vec![(0, 11)]], &tree, &dev, 0);
        // Blocks 0 and 2 share SM 0 (round robin), block 1 sits on SM 1.
        assert_eq!(stats.per_sm_cycles, vec![16, 7]);
        assert_eq!(stats.device_time, dev.cycles_to_time(16));
        assert_eq!(stats.launch_overhead, dev.launch_overhead);
        assert!(stats.launch_overhead >= SimTime::ZERO);
    }

    #[test]
    fn ragged_lane_rows_are_rejected() {
        let r = std::panic::catch_unwind(|| {
            let cfg = LaunchConfig::new(1, 2);
            let dev = DeviceSpec::scalar();
            price_resident_launch(
                &[vec![(0, 0)]],
                &DeviceTreeSpec::default(),
                &dev,
                &cfg,
                0,
                GpuFault::None,
            );
        });
        assert!(r.is_err());
    }

    #[test]
    fn slowdown_stretches_device_time_like_the_executor() {
        let dev = DeviceSpec::tesla_c2050();
        let lanes = vec![vec![(3, 40); 32]; 4];
        let cfg = LaunchConfig::new(4, 32);
        let tree = DeviceTreeSpec::default();
        let plain = price_resident_launch(&lanes, &tree, &dev, &cfg, 0, GpuFault::None);
        let slow = price_resident_launch(&lanes, &tree, &dev, &cfg, 0, GpuFault::Slowdown(3));
        assert_eq!(slow.device_time, plain.device_time * 3);
        assert_eq!(slow.launch_overhead, plain.launch_overhead);
    }

    /// Lane `global` runs `global % 37 + 1` steps.
    struct Steps;

    impl Kernel for Steps {
        type ThreadState = u32;
        type Output = ();

        fn init(&self, tid: ThreadId) -> u32 {
            tid.global % 37 + 1
        }

        fn step(&self, left: &mut u32, _tid: ThreadId) -> bool {
            *left -= 1;
            *left == 0
        }

        fn finish(&self, _left: u32, _tid: ThreadId) {}
    }

    #[test]
    fn playout_only_pricing_matches_the_executor() {
        // With no tree steps and the playout step priced at the executor's
        // warp step, a resident launch is an executor launch: same warps,
        // same fold, same stats. Only readback differs (root stats vs the
        // output array). 20 blocks over 14 SMs, partial warps of 8 lanes.
        let dev = DeviceSpec::tesla_c2050();
        let cfg = LaunchConfig::new(20, 40);
        let tree = DeviceTreeSpec {
            playout_warp_step_cycles: dev.cycles_per_warp_step,
            ..DeviceTreeSpec::default()
        };
        let lanes: Vec<Vec<(u64, u64)>> = (0..cfg.blocks)
            .map(|b| {
                (0..cfg.threads_per_block)
                    .map(|t| (0, ((b * cfg.threads_per_block + t) % 37 + 1) as u64))
                    .collect()
            })
            .collect();
        let resident = price_resident_launch(&lanes, &tree, &dev, &cfg, 0, GpuFault::None);
        let executed = execute_kernel(&Steps, &cfg, &dev, &WorkerPool::new(2)).stats;
        assert!(executed.idle_lane_steps > 0, "the grid diverges");
        assert_eq!(
            KernelStats {
                readback_time: executed.readback_time,
                ..resident
            },
            executed
        );
    }
}
