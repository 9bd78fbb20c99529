//! Device-resident tree search: whole MCTS iterations inside the kernel.
//!
//! The block-parallel scheme (Fig. 2c) keeps the trees on the host and
//! round-trips every iteration through it: select/expand on the CPU, one
//! launch of playouts, backprop on the CPU. That host round-trip is the
//! Fig. 5 ceiling — the sequential part grows with the tree count, and
//! every iteration pays a full launch + transfer wave. The device-resident
//! scheme moves the trees into GPU global memory (DESIGN.md §13): a
//! *persistent* kernel runs complete MCTS iterations per lane — UCB
//! descent, expansion into the tree arena, playout, backprop — and
//! the host's per-iteration work collapses to nothing. Upload is charged
//! once per search (the root-state delta); readback once per launch (the
//! root-child statistics); the `select`/`expand` telemetry phases are
//! legitimately zero because the kernel phase absorbs the tree walk.
//!
//! Layout mirrors block parallelism: `launch.blocks` independent trees,
//! one per block; each of a block's `threads_per_block` lanes runs one
//! full iteration per round against the block's tree, in lane order, so
//! one budget *iteration* (a round) performs `blocks × threads_per_block`
//! simulations — the same budget unit as
//! [`BlockParallelSearcher`](crate::block_parallel::BlockParallelSearcher). The
//! canonical order (rounds outer, lanes inner, sequential tree semantics)
//! makes the result a pure function of the seed. On the host, blocks run
//! in lock-step groups of 8 that fan out over the worker pool: lane `l`
//! of every block in a group descends, the group's frontier states play
//! out as one lane batch, and each block backpropagates its own result.
//! Blocks share nothing, so the interleaving leaves every block's own
//! order intact, and all folding happens in block order — reports are
//! bit-identical for any `--host-threads` (the oracle tests below replay
//! the per-block order with scalar playouts on the host reference path).
//!
//! Launches are priced by [`price_resident_launch`] on the executor's
//! device model: warp divergence settles once over each lane's *summed*
//! steps (a lane finishing a short playout immediately starts its next
//! iteration), tree steps are priced at the cheaper in-kernel tree-walk
//! constant, and the trees never leave the device between rounds or
//! launches. The trees' arenas are the device node pool; nothing mirrors
//! them.
//!
//! Fault policy (matrix row `device_tree`): slowdowns and block aborts take
//! the shared wave overlay — a slowdown stretches device time, an aborted
//! block skips the launch (its tree receives nothing). Only the hang is
//! bespoke: it costs the detection deadline and is retried once — a
//! second hang abandons the device for the move and falls back to the
//! host-driven block-parallel loop on the same resident trees.

use crate::block_parallel::BlockSession;
use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::{BudgetTracker, SearchReport, Searcher};
use crate::tree::SearchTree;
use crate::wave::{charge_serial, void_of, Ledger, WaveDriver};
use pmcts_games::{chunked_playouts, Game, Player, PlayoutResult};
use pmcts_gpu_sim::{
    price_resident_launch, Device, DeviceTreeSpec, GpuFault, KernelStats, LaunchConfig,
};
use pmcts_util::{Rng64, SimTime, Xoshiro256pp};

/// Upper bound on rounds planned into a single persistent launch under a
/// `VirtualTime` budget (keeps hang dry-runs and round cost distribution
/// bounded; iteration budgets run in one launch regardless).
const MAX_PLANNED_ROUNDS: u64 = 65_536;

/// GPU searcher whose kernel owns the trees: one resident tree per block,
/// complete MCTS iterations per lane, host phases collapsed to zero.
#[derive(Clone, Debug)]
pub struct DeviceTreeSearcher<G: Game> {
    config: MctsConfig,
    /// Launch epochs, faults and the host fallback's rounds.
    driver: WaveDriver,
    /// Host RNG, used only by the hang-degradation fallback (expansion
    /// picks + degraded CPU playouts), mirroring the block-parallel
    /// stream so the fallback is the same machine.
    rng: Xoshiro256pp,
    /// Trees left on the device by the previous search (re-rooted on the
    /// next one; `reset` drops them).
    resident: Option<Vec<SearchTree<G>>>,
}

/// Per-block result of one persistent launch, folded in block order.
#[derive(Clone, Debug, Default)]
struct BlockRun {
    /// Per-lane `(tree_steps, playout_steps)` summed over the rounds.
    per_lane: Vec<(u64, u64)>,
    sims: u64,
    expansions: u64,
}

impl<G: Game> DeviceTreeSearcher<G> {
    /// Creates a device-resident tree searcher with `launch.blocks` trees
    /// and `launch.threads_per_block` iterations per tree per round.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        launch.validate(device.spec());
        DeviceTreeSearcher {
            rng: Xoshiro256pp::derive(config.seed, 0xDE1C),
            driver: WaveDriver::new(&config, device, launch, 0),
            config,
            resident: None,
        }
    }

    /// Number of resident trees (= blocks).
    pub fn trees(&self) -> u32 {
        self.driver.launch_config().blocks
    }

    /// Drops the resident trees (e.g. when starting a new game).
    pub fn reset(&mut self) {
        self.resident = None;
    }

    /// Re-roots the resident trees at `root`, falling back to cold trees
    /// where the position is not found.
    fn prepare(&mut self, root: G) -> Vec<SearchTree<G>> {
        let blocks = self.trees() as usize;
        match self.resident.take() {
            Some(old) if old.len() == blocks => old
                .into_iter()
                .map(|t| t.reroot(root, &self.config))
                .collect(),
            _ => (0..blocks)
                .map(|_| SearchTree::for_config(root, &self.config))
                .collect(),
        }
    }

    /// Rounds to plan into the next persistent launch: everything that is
    /// left for iteration budgets; a deadline-derived estimate (one round
    /// short, so the final top-ups are single rounds and overshoot stays
    /// bounded by one round's cost growth) for virtual-time budgets.
    fn planned_rounds(budget: SearchBudget, tracker: &BudgetTracker, last_round: SimTime) -> u64 {
        match budget {
            SearchBudget::Iterations(n) => n.saturating_sub(tracker.iterations).max(1),
            SearchBudget::VirtualTime(t) => {
                if last_round == SimTime::ZERO {
                    1
                } else {
                    let remaining =
                        t.saturating_sub(tracker.elapsed).as_nanos() / last_round.as_nanos().max(1);
                    remaining.saturating_sub(1).clamp(1, MAX_PLANNED_ROUNDS)
                }
            }
        }
    }
}

/// Blocks simulated in lock-step by one pool task: the widest
/// [`LaneBatch`](pmcts_games::LaneBatch), so lane `l` of a full group plays
/// its 8 frontier nodes out as one batch.
const GROUP: usize = 8;

/// Descent half of one in-kernel MCTS iteration for one lane: UCB descent
/// and expansion (pick drawn from the lane RNG) into the tree arena.
/// Returns the frontier node and the lane's tree steps for the iteration —
/// `depth+1` node reads for the descent, one arena slot claim, `depth+1`
/// updates for the backprop walk [`land`] performs.
fn descend<G: Game>(
    tree: &mut SearchTree<G>,
    rng: &mut Xoshiro256pp,
    exploration_c: f64,
    run: &mut BlockRun,
) -> (u32, u64) {
    let sel = tree.select(exploration_c);
    let sel_depth = tree.depth(sel) as u64;
    let untried = tree.untried_len(sel);
    let node = if untried > 0 {
        let pick = rng.next_below(untried as u32);
        run.expansions += 1;
        tree.expand_with_pick(sel, pick)
    } else {
        sel
    };
    let node_depth = tree.depth(node) as u64;
    (node, sel_depth + 1 + 1 + node_depth + 1)
}

/// Landing half of one in-kernel iteration: backprop of the frontier
/// node's playout into the resident tree, and the lane's step counts.
fn land<G: Game>(
    tree: &mut SearchTree<G>,
    node: u32,
    tree_steps: u64,
    playout: &PlayoutResult,
    run: &mut BlockRun,
    lane: usize,
) {
    tree.backprop(node, playout.reward_for(Player::P1), 1);
    let cell = &mut run.per_lane[lane];
    cell.0 += tree_steps;
    cell.1 += (playout.plies as u64).max(1);
    run.sims += 1;
}

/// The oracle: one complete iteration with a scalar
/// [`random_playout`](pmcts_games::random_playout) from the frontier, exactly the canonical per-block order the lock-step
/// groups must reproduce. Only the tests replay it.
#[cfg(test)]
fn lane_iteration<G: Game>(
    tree: &mut SearchTree<G>,
    rng: &mut Xoshiro256pp,
    exploration_c: f64,
    run: &mut BlockRun,
    lane: usize,
) {
    let (node, tree_steps) = descend(tree, rng, exploration_c, run);
    let playout = pmcts_games::random_playout(*tree.state(node), rng);
    land(tree, node, tree_steps, &playout, run, lane);
}

/// Runs `rounds` rounds over one group of up to [`GROUP`] blocks, the first
/// being block `first`, in lock-step: per round and lane, every live block
/// descends, the group's frontier states play out together through
/// [`chunked_playouts`], and every live block lands its playout. Blocks
/// share nothing (own tree, own lane RNG streams, own [`BlockRun`]), so
/// interleaving them leaves each block's canonical order — rounds outer,
/// lanes inner, one iteration at a time — untouched. The voided block
/// sits out, its tree untouched and its run empty.
#[allow(clippy::too_many_arguments)]
fn run_group<G: Game>(
    trees: &mut [SearchTree<G>],
    first: usize,
    tpb: usize,
    rounds: u64,
    seed: u64,
    exploration_c: f64,
    voided: Option<usize>,
) -> Vec<BlockRun> {
    let mut runs: Vec<BlockRun> = trees
        .iter()
        .map(|_| BlockRun {
            per_lane: vec![(0, 0); tpb],
            ..BlockRun::default()
        })
        .collect();
    let live: Vec<usize> = (0..trees.len())
        .filter(|&i| Some(first + i) != voided)
        .collect();
    let width = live.len();
    if width == 0 {
        return runs;
    }
    // Lane RNGs derive exactly like the playout kernel's: one stream per
    // global thread id, fresh per launch. Lane-major, so lane `l`'s streams
    // across the group are one contiguous slice.
    let mut rngs: Vec<Xoshiro256pp> = (0..tpb)
        .flat_map(|l| {
            live.iter()
                .map(move |&i| Xoshiro256pp::derive(seed, ((first + i) * tpb + l) as u64))
        })
        .collect();
    let mut frontier: Vec<(u32, u64)> = Vec::with_capacity(width);
    let mut states: Vec<G> = Vec::with_capacity(width);
    for _ in 0..rounds {
        for (l, lane_rngs) in rngs.chunks_mut(width).enumerate() {
            frontier.clear();
            states.clear();
            for (&i, rng) in live.iter().zip(lane_rngs.iter_mut()) {
                let (node, tree_steps) = descend(&mut trees[i], rng, exploration_c, &mut runs[i]);
                states.push(*trees[i].state(node));
                frontier.push((node, tree_steps));
            }
            let mut landing = live.iter().zip(&frontier);
            chunked_playouts(&states, lane_rngs, |playout| {
                let (&i, &(node, tree_steps)) = landing.next().expect("one landing per playout");
                land(&mut trees[i], node, tree_steps, &playout, &mut runs[i], l);
            });
        }
    }
    runs
}

/// Runs `rounds` rounds of the persistent kernel over every block's tree
/// on `driver`'s device (lock-step groups of [`GROUP`] blocks fan out over
/// its pool; each block is internally sequential: rounds outer, lanes
/// inner). Folds step counts and counters in block order, prices the
/// launch under `fault`, and returns `(stats, simulations, expansions)`.
fn run_rounds<G: Game>(
    trees: &mut [SearchTree<G>],
    driver: &WaveDriver,
    rounds: u64,
    seed: u64,
    exploration_c: f64,
    voided: Option<usize>,
    fault: GpuFault,
) -> (KernelStats, u64, u64) {
    let launch = driver.launch_config();
    let tpb = launch.threads_per_block as usize;
    let mut groups: Vec<&mut [SearchTree<G>]> = trees.chunks_mut(GROUP).collect();
    let runs: Vec<BlockRun> = driver
        .device()
        .worker_pool()
        .map_indexed(&mut groups, |g, group| {
            run_group(group, g * GROUP, tpb, rounds, seed, exploration_c, voided)
        })
        .into_iter()
        .flatten()
        .collect();
    let sims = runs.iter().map(|run| run.sims).sum();
    let expansions = runs.iter().map(|run| run.expansions).sum();
    let lanes: Vec<_> = runs.into_iter().map(|run| run.per_lane).collect();

    let tree_spec = DeviceTreeSpec::c2050_resident();
    let root_children: u64 = trees
        .iter()
        .map(|t| t.children(t.root()).len() as u64)
        .sum();
    let readback_bytes = root_children * tree_spec.root_stat_bytes;
    let spec = driver.device().spec();
    let stats = price_resident_launch(&lanes, &tree_spec, spec, &launch, readback_bytes, fault);
    (stats, sims, expansions)
}

impl<G: Game> Searcher<G> for DeviceTreeSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let mut trees = self.prepare(root);
        let mut ledger = Ledger::new(budget);
        let cpu = self.config.cpu_cost;
        let exploration_c = self.config.exploration_c;

        // The root state delta: uploaded with the first launch only.
        let mut root_delta = Some(
            self.driver
                .device()
                .spec()
                .transfer_time(G::device_state_bytes() as u64),
        );
        let mut last_round_cost = SimTime::ZERO;
        // Hang deadlines accrued before any round could complete; folded
        // into the next charged iteration so the ledger stays exact.
        let mut pending_fault_cost = SimTime::ZERO;
        let mut hang_retried = false;

        let terminal = trees[0].is_terminal(trees[0].root());
        while !terminal && ledger.tracker.may_continue() {
            let rounds = Self::planned_rounds(budget, &ledger.tracker, last_round_cost);
            let (seed, fault) = self.driver.next_launch();
            let phases = &mut ledger.phases;

            if fault == GpuFault::Hang {
                // The persistent launch produced nothing observable. Cost
                // the detection deadline off the launch's nominal elapsed
                // time (computed on clones; the resident trees are
                // untouched), then retry once with a fresh epoch.
                let (stats, _, _) = run_rounds(
                    &mut trees.clone(),
                    &self.driver,
                    rounds,
                    seed,
                    exploration_c,
                    None,
                    fault,
                );
                let deadline = self.config.faults.hang_deadline(stats.elapsed());
                phases.kernel += deadline;
                pending_fault_cost += deadline;
                phases.faults.injected += 1;
                if !hang_retried {
                    hang_retried = true;
                    phases.faults.retried += 1;
                    continue;
                }
                // A second hang abandons the device for this move: the
                // driver runs host block-parallel rounds (select/expand on
                // the CPU, one playout launch, backprop) on the same
                // resident trees, through its own fault ladder.
                phases.faults.degraded += 1;
                let mut engine = BlockSession::resume(
                    &self.config,
                    trees,
                    self.rng.clone(),
                    ledger,
                    self.driver.launch_config().threads_per_block as usize,
                );
                self.driver.run_owing(&mut engine, pending_fault_cost);
                self.rng = engine.rng;
                trees = engine.trees;
                ledger = engine.ledger;
                break;
            }
            hang_retried = false;

            let voided = void_of(fault, phases);
            let (stats, sims, expansions) = run_rounds(
                &mut trees,
                &self.driver,
                rounds,
                seed,
                exploration_c,
                voided,
                fault,
            );

            // Exact ledger: launch prep + (first launch only) the root
            // state delta to the upload phase; overhead + device time to
            // the kernel phase; root-stat readback to the readback phase.
            let mut total = charge_serial(phases, &stats) + cpu.launch_prep + pending_fault_cost;
            pending_fault_cost = SimTime::ZERO;
            phases.upload += cpu.launch_prep;
            if let Some(delta) = root_delta.take() {
                phases.upload += delta;
                total += delta;
            }
            phases.record_launch(&stats);
            phases.simulations += sims;
            phases.expansions += expansions;

            // Charge the tracker round by round: the integer split sums
            // to the launch total exactly, so iterations count rounds and
            // the phase ledger still equals elapsed to the nanosecond.
            let total_ns = total.as_nanos();
            for i in 0..rounds {
                let share = total_ns * (i + 1) / rounds - total_ns * i / rounds;
                ledger.tracker.charge(SimTime::from_nanos(share));
            }
            last_round_cost = SimTime::from_nanos((total_ns / rounds).max(1));
        }

        let report = ledger.report(&self.config, &trees);
        self.resident = Some(trees);
        report
    }

    fn name(&self) -> String {
        let launch = self.driver.launch_config();
        format!(
            "device-resident tree ({} blocks × {} threads)",
            launch.blocks, launch.threads_per_block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_parallel::BlockParallelSearcher;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::DeviceSpec;
    use pmcts_util::FaultPlan;

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    /// Checksummable tree image: per-node (visits, win-sum bits).
    fn tree_image<G: Game>(tree: &SearchTree<G>) -> Vec<(u64, u64)> {
        (0..tree.len() as u32)
            .map(|id| (tree.visits(id), tree.wins(id).to_bits()))
            .collect()
    }

    /// Replays the canonical order on the host for every block — cold
    /// trees, rounds outer, lanes inner, scalar [`lane_iteration`] with
    /// lane RNGs derived from the launch stream seed — skipping the voided
    /// block, and returns the per-block tree images.
    fn reference_images(
        config: &MctsConfig,
        launch: LaunchConfig,
        rounds: u64,
        launch_seed: u64,
        voided: Option<usize>,
    ) -> Vec<Vec<(u64, u64)>> {
        let tpb = launch.threads_per_block as usize;
        (0..launch.blocks as usize)
            .map(|b| {
                let mut reference = SearchTree::for_config(Reversi::initial(), config);
                let mut rngs: Vec<Xoshiro256pp> = (0..tpb)
                    .map(|l| Xoshiro256pp::derive(launch_seed, (b * tpb + l) as u64))
                    .collect();
                let mut run = BlockRun {
                    per_lane: vec![(0, 0); tpb],
                    ..BlockRun::default()
                };
                if Some(b) != voided {
                    for _ in 0..rounds {
                        for (l, rng) in rngs.iter_mut().enumerate() {
                            lane_iteration(&mut reference, rng, config.exploration_c, &mut run, l);
                        }
                    }
                }
                tree_image(&reference)
            })
            .collect()
    }

    #[test]
    fn oracle_matches_host_reference_path() {
        // The searcher's result must be bit-identical to a plain host-side
        // replay of the canonical order. 4 blocks run as one partial
        // lock-step group; 11 as a full group of 8 plus a 3-block tail.
        let seed = 7u64;
        let rounds = 6u64;
        for blocks in [4, 11] {
            let launch = LaunchConfig::new(blocks, 32);
            let mut s = DeviceTreeSearcher::<Reversi>::new(cfg(seed), device(), launch);
            let r = s.search(Reversi::initial(), SearchBudget::Iterations(rounds));
            assert_eq!(r.iterations, rounds);
            let searched = s.resident.as_ref().expect("trees stay resident");
            assert_eq!(searched.len(), blocks as usize);
            // First launch (epoch 1) on sub-stream 0.
            let launch_seed = seed.wrapping_add(0xA076_1D64_78BD_642F);
            let reference = reference_images(&cfg(seed), launch, rounds, launch_seed, None);
            for (b, searched_tree) in searched.iter().enumerate() {
                assert_eq!(
                    tree_image(searched_tree),
                    reference[b],
                    "{blocks} blocks: block {b} diverged from the host reference"
                );
            }
        }
    }

    #[test]
    fn voided_block_matches_host_reference() {
        // A block abort inside the full group of 11 blocks: the voided
        // tree is left out of its group's lane batches (untouched, empty
        // run) while its seven neighbours and the tail still replay the
        // canonical order. At 9 blocks the voided block is the whole
        // 1-block tail group.
        let config = cfg(8);
        let (rounds, launch_seed) = (4u64, 0x5EED);
        for (blocks, voided) in [(11u32, 5usize), (9, 8)] {
            let launch = LaunchConfig::new(blocks, 32);
            let mut trees: Vec<SearchTree<Reversi>> = (0..blocks)
                .map(|_| SearchTree::for_config(Reversi::initial(), &config))
                .collect();
            let dev = Device::new(DeviceSpec::tesla_c2050()).with_host_threads(2);
            let (_, sims, _) = run_rounds(
                &mut trees,
                &WaveDriver::new(&config, dev, launch, 0),
                rounds,
                launch_seed,
                config.exploration_c,
                Some(voided),
                GpuFault::BlockAbort(voided as u32),
            );
            assert_eq!(sims, rounds * (blocks as u64 - 1) * 32, "one block voided");
            let reference = reference_images(&config, launch, rounds, launch_seed, Some(voided));
            for (b, tree) in trees.iter().enumerate() {
                assert_eq!(
                    tree_image(tree),
                    reference[b],
                    "{blocks} blocks: block {b} diverged from the host reference"
                );
            }
            assert_eq!(trees[voided].live_nodes(), 1, "voided tree untouched");
        }
    }

    #[test]
    fn simulations_count_grid_times_rounds_and_host_phases_are_zero() {
        let mut s = DeviceTreeSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        assert_eq!(r.simulations, 5 * 4 * 32);
        // The kernel absorbs the tree walk: no host select/expand time...
        assert_eq!(r.phases.select, SimTime::ZERO);
        assert_eq!(r.phases.expand, SimTime::ZERO);
        // ...yet the ledger still sums to elapsed exactly.
        assert_eq!(r.phases.phase_sum(), r.elapsed);
        assert_eq!(r.phases.kernel_launches, 1, "one persistent launch");
        assert!(r.phases.kernel > SimTime::ZERO);
        assert!(r.phases.readback > SimTime::ZERO);
        assert!(r.phases.upload > SimTime::ZERO, "root delta + prep");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            DeviceTreeSearcher::<Reversi>::new(cfg(seed), device(), LaunchConfig::new(4, 32))
                .search(Reversi::initial(), SearchBudget::Iterations(4))
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).root_stats, run(4).root_stats);
    }

    #[test]
    fn resident_trees_carry_across_searches() {
        let mut s = DeviceTreeSearcher::<Reversi>::new(cfg(2), device(), LaunchConfig::new(2, 32));
        let r1 = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        let r2 = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        // Same position re-searched: every tree re-roots at its old root,
        // so root visits accumulate across the two searches.
        let total: u64 = r2.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, r1.simulations + r2.simulations);
        s.reset();
        let r3 = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        let fresh: u64 = r3.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(fresh, r3.simulations, "reset forgets the resident trees");
    }

    #[test]
    fn bounded_trees_recycle_on_device() {
        let config = cfg(5).with_tree_capacity(64);
        let mut s = DeviceTreeSearcher::<Reversi>::new(config, device(), LaunchConfig::new(2, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(8));
        // 8 rounds × 32 lanes ≈ 256 expansions per tree against cap 64.
        assert!(r.tree_nodes <= 2 * 64, "capacity respected");
        let trees = s.resident.as_ref().unwrap();
        assert!(trees.iter().all(|t| t.evictions() > 0));
        assert_eq!(r.phases.phase_sum(), r.elapsed);
    }

    #[test]
    fn resident_arenas_stay_whole_across_moves_and_faults() {
        // The tree arenas are the device node pool. After every search of a
        // four-move game, each resident bounded tree must stay within its
        // capacity with its LRU list, free list and child links consistent
        // (no slot both live and free). Fault-free, and under the mixed
        // plan of `engine_determinism.rs` (`mixed_plan(68)`: a hang, then
        // a `BlockAbort` on the retry).
        let mixed = FaultPlan {
            seed: 68,
            gpu_slowdown_rate: 0.2,
            gpu_slowdown_factor: 3,
            gpu_hang_rate: 0.2,
            gpu_abort_rate: 0.2,
            net_delay_rate: 0.5,
            net_delay_factor: 3,
            net_drop_rate: 0.3,
            dead_component_rate: 0.3,
            ..FaultPlan::none()
        };
        for plan in [FaultPlan::none(), mixed] {
            let capacity = 64;
            let config = cfg(74).with_tree_capacity(capacity).with_faults(plan);
            let mut s =
                DeviceTreeSearcher::<Reversi>::new(config, device(), LaunchConfig::new(11, 32));
            let mut position = Reversi::initial();
            let (mut reused, mut retried, mut degraded) = (0, 0, 0);
            for _ in 0..4 {
                let r = s.search(position, SearchBudget::Iterations(3));
                retried += r.phases.faults.retried;
                degraded += r.phases.faults.degraded;
                reused +=
                    u64::from(r.root_stats.iter().map(|st| st.visits).sum::<u64>() > r.simulations);
                let trees = s.resident.as_ref().expect("trees stay resident");
                for tree in trees {
                    tree.debug_validate();
                    assert!(
                        tree.live_nodes() <= capacity as usize,
                        "arena over capacity"
                    );
                }
                // Our move and the reply: two plies down tree 0's most
                // visited line, so the next search re-roots into it.
                let tree = &trees[0];
                let most_visited = |id| {
                    tree.children(id)
                        .iter()
                        .copied()
                        .max_by_key(|&c| tree.visits(c))
                };
                let ours = most_visited(tree.root()).expect("root expanded");
                position = *tree.state(most_visited(ours).unwrap_or(ours));
            }
            assert!(
                reused >= 3,
                "the later searches re-root into resident trees"
            );
            assert_eq!(
                (retried > 0, degraded > 0),
                (plan.gpu_active(), plan.gpu_active()),
                "a hang is retried and a block voided under the mixed plan only"
            );
        }
    }

    #[test]
    fn virtual_speedup_over_block_parallel_is_at_least_1_5x() {
        // The acceptance gate, asserted at the throughput bench geometry:
        // same budget, same grid, ≥1.5× virtual simulations/second.
        let launch = LaunchConfig::new(14, 64);
        let budget = SearchBudget::Iterations(8);
        let block = BlockParallelSearcher::<Reversi>::new(cfg(9), device(), launch)
            .search(Reversi::initial(), budget);
        let resident = DeviceTreeSearcher::<Reversi>::new(cfg(9), device(), launch)
            .search(Reversi::initial(), budget);
        assert_eq!(block.simulations, resident.simulations);
        let ratio = resident.sims_per_second() / block.sims_per_second();
        assert!(
            ratio >= 1.5,
            "device-resident speedup {ratio:.2}× below the 1.5× gate"
        );
    }

    #[test]
    fn virtual_time_budget_stops_near_deadline() {
        let budget = SimTime::from_millis(20);
        let mut s = DeviceTreeSearcher::<Reversi>::new(cfg(6), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::VirtualTime(budget));
        assert!(r.iterations > 1, "multiple rounds fit in 20 ms");
        assert_eq!(r.phases.phase_sum(), r.elapsed);
        // Overshoot is bounded by one round's cost growth (the planner
        // undershoots, then tops up with single-round launches).
        let per_round = r.elapsed.as_nanos() / r.iterations;
        assert!(
            r.phases.budget_overshoot.as_nanos() <= per_round,
            "overshoot {} > one round {}",
            r.phases.budget_overshoot.as_nanos(),
            per_round
        );
    }

    #[test]
    fn terminal_root_is_handled() {
        let s = TicTacToe::parse("XXX OO. ...", Player::P2).unwrap();
        let mut searcher =
            DeviceTreeSearcher::<TicTacToe>::new(cfg(6), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
        assert_eq!(r.elapsed, SimTime::ZERO);
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            DeviceTreeSearcher::<TicTacToe>::new(cfg(5), device(), LaunchConfig::new(4, 32));
        let r = searcher.search(s, SearchBudget::Iterations(10));
        assert_eq!(r.best_move, Some(2));
    }
}
