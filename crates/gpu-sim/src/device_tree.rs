//! Device-resident MCTS tree state: allocator, layout and cost accounting.
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
//! * [`DeviceAllocator`] — the device node allocator: a bump pointer over
//!   the preallocated node-pool columns plus a LIFO free list. Slot order
//!   is a pure function of the claim/release sequence, never of thread
//!   timing, so the allocator (like the tree it feeds) is deterministic.
//! * [`node_pool_bytes`] / [`DeviceTreeSpec`] — the resident layout and
//!   the cost constants of the in-kernel tree walk.
//! * [`TreeLaunchTrace`] — analytic divergence accounting for one
//!   persistent launch. Lanes record how many tree steps (UCB levels
//!   descended + the expansion + backprop updates) and playout steps
//!   (plies) they executed; `finish` folds them into a [`KernelStats`]
//!   with the same warp-lockstep / SM-round-robin model as the playout
//!   executor. The crucial difference from per-iteration launches: warp
//!   divergence is settled once over the *sum* of a lane's iterations
//!   (max-of-sums), not once per iteration (sum-of-maxes) — a lane that
//!   finishes a short playout immediately starts its next iteration
//!   instead of idling until the launch drains.
//!
//! The tree *contents* (game states, legal-move slabs, LRU links) are the
//! `pmcts-core` SoA `SearchTree`: the simulator executes kernels on host
//! threads, so "device memory" and the host shadow tree are one
//! allocation, mirrored here only by the allocator and the byte model.

use crate::device::DeviceSpec;
use crate::kernel::LaunchConfig;
use crate::stats::KernelStats;

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

/// Bytes one resident node occupies in the device pool: visits (4) +
/// win sum (8) + parent (4) + child range (4+2) + untried range (4+2) +
/// move code (4) + side-to-move flags (1), padded to an 8-byte stride.
pub const NODE_POOL_BYTES: u64 = 40;

/// Device-memory footprint of a resident pool of `nodes` nodes (the
/// node-pool columns only; child/move slab entries are 4 bytes each and
/// proportional to the branching factor — reported separately by callers
/// that know their game).
pub fn node_pool_bytes(nodes: u64) -> u64 {
    nodes * NODE_POOL_BYTES
}

/// The device-side node allocator: bump pointer + LIFO free list.
///
/// Slot order is deterministic: fresh claims advance the bump pointer in
/// sequence; released slots are reused in strict LIFO order. The searcher
/// mirrors every shadow-tree expansion through this allocator and asserts
/// the live count matches, so host bookkeeping and the modelled device
/// pool can never drift.
#[derive(Clone, Debug)]
pub struct DeviceAllocator {
    capacity: u32,
    bump: u32,
    free: Vec<u32>,
    recycled: u64,
}

impl DeviceAllocator {
    /// An empty allocator over `capacity` slots (`u32::MAX` ≈ unbounded).
    pub fn new(capacity: u32) -> Self {
        DeviceAllocator {
            capacity,
            bump: 0,
            free: Vec::new(),
            recycled: 0,
        }
    }

    /// An allocator adopting an already-populated pool of `len` live nodes
    /// in slots `0..len` (used after a re-root compaction).
    pub fn with_live_prefix(capacity: u32, len: u32) -> Self {
        assert!(len <= capacity, "live prefix exceeds capacity");
        DeviceAllocator {
            capacity,
            bump: len,
            free: Vec::new(),
            recycled: 0,
        }
    }

    /// Allocates the deterministically-next slot: the most recently
    /// released slot if any (LIFO), else the bump pointer. `None` when the
    /// pool is exhausted.
    pub fn alloc(&mut self) -> Option<u32> {
        if let Some(slot) = self.free.pop() {
            return Some(slot);
        }
        if self.bump < self.capacity {
            let slot = self.bump;
            self.bump += 1;
            Some(slot)
        } else {
            None
        }
    }

    /// Returns `slot` to the free list (most recently released is reused
    /// first).
    pub fn release(&mut self, slot: u32) {
        debug_assert!(slot < self.bump, "releasing a never-claimed slot");
        debug_assert!(!self.free.contains(&slot), "double release of slot");
        self.free.push(slot);
    }

    /// Claims a specific slot chosen by the (shadow) tree. Matches the
    /// allocator's own order when the tree allocates sequentially; skipped
    /// slots below a forward jump are parked on the free list so the live
    /// count stays exact. Returns `false` if the slot was already live.
    pub fn claim(&mut self, slot: u32) -> bool {
        if slot >= self.capacity {
            return false;
        }
        if slot == self.bump {
            self.bump += 1;
            return true;
        }
        if slot > self.bump {
            while self.bump < slot {
                self.free.push(self.bump);
                self.bump += 1;
            }
            self.bump += 1;
            return true;
        }
        match self.free.iter().rposition(|&s| s == slot) {
            Some(pos) => {
                self.free.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Records that a live slot was recycled in place (bounded-LRU
    /// eviction immediately reused by the next expansion): the live count
    /// is unchanged, only the recycle counter advances.
    pub fn note_recycled(&mut self, n: u64) {
        self.recycled += n;
    }

    /// Live (claimed, unreleased) slots.
    pub fn live(&self) -> u32 {
        self.bump - self.free.len() as u32
    }

    /// Highest slot ever claimed plus one (pool high-water mark).
    pub fn high_water(&self) -> u32 {
        self.bump
    }

    /// Total slots.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// In-place recycles recorded by [`note_recycled`](Self::note_recycled).
    pub fn recycled(&self) -> u64 {
        self.recycled
    }
}

/// Per-lane step counts of one persistent launch: lane `l` of block `b`
/// holds `(tree_steps, playout_steps)` summed over all iterations the
/// lane ran in the launch.
#[derive(Clone, Debug)]
pub struct TreeLaunchTrace {
    threads_per_block: u32,
    blocks: Vec<Vec<(u64, u64)>>,
}

impl TreeLaunchTrace {
    /// An all-zero trace for `blocks × threads_per_block` lanes.
    pub fn new(blocks: u32, threads_per_block: u32) -> Self {
        TreeLaunchTrace {
            threads_per_block,
            blocks: vec![vec![(0, 0); threads_per_block as usize]; blocks as usize],
        }
    }

    /// Builds a trace from per-block lane rows (each row must have the
    /// launch's `threads_per_block` entries).
    pub fn from_lanes(threads_per_block: u32, blocks: Vec<Vec<(u64, u64)>>) -> Self {
        for row in &blocks {
            assert_eq!(row.len(), threads_per_block as usize, "ragged lane row");
        }
        TreeLaunchTrace {
            threads_per_block,
            blocks,
        }
    }

    /// Adds one lane iteration's step counts.
    pub fn add(&mut self, block: u32, lane: u32, tree_steps: u64, playout_steps: u64) {
        let cell = &mut self.blocks[block as usize][lane as usize];
        cell.0 += tree_steps;
        cell.1 += playout_steps;
    }

    /// Folds the trace into launch statistics under the same model as the
    /// playout executor: warp cost is its slowest lane (here: slowest
    /// summed lane, the persistent kernel's max-of-sums pipelining), an
    /// SM's cycles are the sum of its round-robin-assigned blocks, device
    /// time is the busiest SM. `readback_bytes` prices the root-stat
    /// readback; upload is *not* charged here — the resident tree's only
    /// upload is the per-search root delta, charged by the searcher.
    pub fn finish(
        &self,
        tree: &DeviceTreeSpec,
        dev: &DeviceSpec,
        config: &LaunchConfig,
        readback_bytes: u64,
    ) -> KernelStats {
        let mut per_sm_cycles = vec![0u64; dev.sm_count as usize];
        let mut warp_steps = 0u64;
        let mut lane_steps = 0u64;
        let mut idle_lane_steps = 0u64;

        for (b, lanes) in self.blocks.iter().enumerate() {
            let mut block_cycles = 0u64;
            for warp in lanes.chunks(dev.warp_size as usize) {
                let mut tree_max = 0u64;
                let mut playout_max = 0u64;
                let mut useful = 0u64;
                for &(t, p) in warp {
                    tree_max = tree_max.max(t);
                    playout_max = playout_max.max(p);
                    useful += t + p;
                }
                block_cycles += tree_max * tree.tree_warp_step_cycles
                    + playout_max * tree.playout_warp_step_cycles;
                warp_steps += tree_max + playout_max;
                lane_steps += useful;
                idle_lane_steps += (tree_max + playout_max) * warp.len() as u64 - useful;
            }
            per_sm_cycles[b % dev.sm_count as usize] += block_cycles;
        }

        let device_time = dev.cycles_to_time(per_sm_cycles.iter().copied().max().unwrap_or(0));
        KernelStats {
            threads: config.blocks * config.threads_per_block,
            warps: config.blocks * config.warps_per_block(dev),
            launch_overhead: dev.launch_overhead,
            device_time,
            readback_time: dev.transfer_time(readback_bytes),
            warp_steps,
            lane_steps,
            idle_lane_steps,
            per_sm_cycles,
            occupancy: dev.occupancy(config),
        }
    }

    /// Launch geometry the trace was built for.
    pub fn threads_per_block(&self) -> u32 {
        self.threads_per_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_util::SimTime;

    #[test]
    fn allocator_bumps_sequentially() {
        let mut a = DeviceAllocator::new(4);
        assert_eq!(a.alloc(), Some(0));
        assert_eq!(a.alloc(), Some(1));
        assert_eq!(a.alloc(), Some(2));
        assert_eq!(a.alloc(), Some(3));
        assert_eq!(a.alloc(), None, "pool exhausted");
        assert_eq!(a.live(), 4);
        assert_eq!(a.high_water(), 4);
    }

    #[test]
    fn released_slots_are_reused_lifo() {
        let mut a = DeviceAllocator::new(8);
        for _ in 0..5 {
            a.alloc();
        }
        a.release(1);
        a.release(3);
        assert_eq!(a.live(), 3);
        assert_eq!(a.alloc(), Some(3), "most recently released first");
        assert_eq!(a.alloc(), Some(1));
        assert_eq!(a.alloc(), Some(5), "then the bump pointer");
        assert_eq!(a.live(), 6);
    }

    #[test]
    fn claim_follows_the_tree_order() {
        let mut a = DeviceAllocator::new(8);
        assert!(a.claim(0));
        assert!(a.claim(1));
        assert!(!a.claim(1), "double claim rejected");
        // A forward jump parks the skipped slots on the free list.
        assert!(a.claim(4));
        assert_eq!(a.live(), 3);
        assert!(a.claim(3), "skipped slot claimable from the free list");
        assert_eq!(a.live(), 4);
        assert!(!a.claim(100), "beyond capacity");
    }

    #[test]
    fn recycles_keep_live_count_and_advance_counter() {
        let mut a = DeviceAllocator::new(4);
        a.alloc();
        a.alloc();
        a.note_recycled(3);
        assert_eq!(a.live(), 2);
        assert_eq!(a.recycled(), 3);
    }

    #[test]
    fn with_live_prefix_adopts_compacted_pool() {
        let mut a = DeviceAllocator::with_live_prefix(16, 5);
        assert_eq!(a.live(), 5);
        assert_eq!(a.alloc(), Some(5));
    }

    #[test]
    fn node_pool_bytes_scale_linearly() {
        assert_eq!(node_pool_bytes(0), 0);
        assert_eq!(node_pool_bytes(10), 10 * NODE_POOL_BYTES);
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
        let mut trace = TreeLaunchTrace::new(1, 2);
        trace.add(0, 0, 10, 30);
        trace.add(0, 1, 20, 20);
        let cfg = LaunchConfig::new(1, 2);
        let stats = trace.finish(&tree, &dev, &cfg, 24);
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
        let mut resident = TreeLaunchTrace::new(1, 2);
        resident.add(0, 0, 0, 40);
        resident.add(0, 1, 0, 20);
        resident.add(0, 0, 0, 20);
        resident.add(0, 1, 0, 40);
        let cfg = LaunchConfig::new(1, 2);
        let stats = resident.finish(&tree, &dev, &cfg, 0);
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
        let mut trace = TreeLaunchTrace::new(3, 1);
        trace.add(0, 0, 0, 5);
        trace.add(1, 0, 0, 7);
        trace.add(2, 0, 0, 11);
        let cfg = LaunchConfig::new(3, 1);
        let stats = trace.finish(&tree, &dev, &cfg, 0);
        // Blocks 0 and 2 share SM 0 (round robin), block 1 sits on SM 1.
        assert_eq!(stats.per_sm_cycles, vec![16, 7]);
        assert_eq!(stats.device_time, dev.cycles_to_time(16));
        assert_eq!(stats.launch_overhead, dev.launch_overhead);
        assert!(stats.launch_overhead >= SimTime::ZERO);
    }

    #[test]
    fn from_lanes_rejects_ragged_rows() {
        let r = std::panic::catch_unwind(|| {
            TreeLaunchTrace::from_lanes(2, vec![vec![(0, 0)]]);
        });
        assert!(r.is_err());
    }
}
