//! Hybrid CPU/GPU processing — paper §III-A, Fig. 4.
//!
//! The paper observes that GPU-built trees are *shallower* than CPU trees:
//! a kernel launch takes long, so the tree receives few (large) updates,
//! while a CPU performs many quick single simulations and grows the tree
//! toward the optimum faster. The fix: launch the kernel **asynchronously**
//! and let the CPU keep running ordinary MCTS iterations on the same trees
//! while the GPU simulates ("CPU can work here!" in Fig. 4), improving both
//! depth and playing strength (paper Fig. 8).
//!
//! Determinism: the amount of CPU shadow work per launch is bounded by the
//! *previous* kernel's virtual duration (an adaptive estimate), not by
//! wall-clock polling, so results are reproducible while the kernel still
//! genuinely executes in the background via
//! [`pmcts_gpu_sim::PendingLaunch`].

use crate::block_parallel::{backprop_outputs, select_and_expand_all};
use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::{BudgetTracker, SearchReport, Searcher};
use crate::sequential::SequentialSearcher;
use crate::telemetry::PhaseBreakdown;
use crate::tree::SearchTree;
use crate::wave::{charge_serial, void_of, Ledger, WaveDriver};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, GpuFault, LaunchConfig};
use pmcts_util::{SimTime, Xoshiro256pp};

/// Hybrid CPU+GPU block-parallel searcher.
#[derive(Clone, Debug)]
pub struct HybridSearcher<G: Game> {
    config: MctsConfig,
    driver: WaveDriver,
    rng: Xoshiro256pp,
    cpu_worker: SequentialSearcher<G>,
}

impl<G: Game> HybridSearcher<G> {
    /// Creates a hybrid searcher: block-parallel GPU search plus CPU
    /// iterations overlapped with every kernel launch.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        HybridSearcher {
            driver: WaveDriver::new(&config, device, launch, 0)
                .with_epoch_mul(0x2545_F491_4F6C_DD1D)
                .with_fault_stream(0x4B1D),
            rng: Xoshiro256pp::derive(config.seed, 0x4B1D),
            cpu_worker: SequentialSearcher::with_stream(config.clone(), 0xC0DE),
            config,
        }
    }
}

/// The CPU side of the overlap: plain sequential MCTS iterations,
/// round-robin over the trees.
struct Shadow<'a, G: Game> {
    worker: &'a mut SequentialSearcher<G>,
    turn: usize,
    /// Rolling estimate of one CPU iteration's cost, so the shadow loop
    /// never overshoots the overlap window (a real CPU would not start a
    /// simulation it cannot finish before the kernel completes). Floored
    /// at 1 ns so a free cost model cannot spin forever.
    est_iter: SimTime,
}

impl<G: Game> Shadow<'_, G> {
    /// Runs iterations from virtual time `start` while the next one is
    /// predicted to end by `limit`, charging them to `scratch`. Returns
    /// the time reached.
    fn run_until(
        &mut self,
        trees: &mut [SearchTree<G>],
        start: SimTime,
        limit: SimTime,
        scratch: &mut PhaseBreakdown,
    ) -> SimTime {
        let mut shadow = BudgetTracker::new(SearchBudget::VirtualTime(limit));
        shadow.elapsed = start;
        while shadow.elapsed + self.est_iter <= limit {
            let before = shadow.elapsed;
            let tree = &mut trees[self.turn % trees.len()];
            self.worker.one_iteration(tree, &mut shadow, scratch);
            self.est_iter = (shadow.elapsed - before).max(SimTime::from_nanos(1));
            self.turn += 1;
        }
        scratch.shadow_iterations += shadow.iterations;
        shadow.elapsed
    }
}

impl<G: Game> Searcher<G> for HybridSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let launch = self.driver.launch_config();
        let blocks = launch.blocks as usize;
        let tpb = launch.threads_per_block as usize;
        let mut trees: Vec<SearchTree<G>> = (0..blocks)
            .map(|_| SearchTree::for_config(root, &self.config))
            .collect();
        let mut ledger = Ledger::new(budget);
        let Ledger { tracker, phases } = &mut ledger;
        let cpu = self.config.cpu_cost;
        let plan = self.config.faults;
        let mut kernel_estimate: Option<SimTime> = None;
        let mut shadow = Shadow {
            worker: &mut self.cpu_worker,
            turn: 0,
            est_iter: (cpu.tree_op(8) + cpu.playout(G::MAX_GAME_LENGTH as u32 / 2))
                .max(SimTime::from_nanos(1)),
        };

        if !trees[0].is_terminal(0) {
            while tracker.may_continue() {
                let (frontier, host_cost) =
                    select_and_expand_all(&mut trees, &mut self.rng, &self.config, phases);
                let positions: Vec<G> = frontier.iter().map(|&(_, s, _)| s).collect();
                let (pending, upload) = self.driver.launch_async(&positions, phases);

                // CPU shadow work while the kernel flies: plain sequential
                // MCTS iterations, round-robin over the same trees, bounded
                // by the previous kernel's virtual duration so accounting
                // stays deterministic. Shadow phase times go into `scratch`
                // first: whether they land in the breakdown depends on which
                // side of the overlap is the critical path.
                let mut shadow_elapsed = SimTime::ZERO;
                let mut scratch = PhaseBreakdown::new();
                if let Some(est) = kernel_estimate {
                    shadow_elapsed = shadow.run_until(&mut trees, SimTime::ZERO, est, &mut scratch);
                }

                let result = pending.wait();
                let kernel_elapsed = result.stats.elapsed();

                // A hung kernel's outputs are void; instead of idling to the
                // virtual deadline the CPU absorbs the stall by *extending*
                // its shadow loop over the same trees, so the window still
                // makes progress. Completed launches (possibly slowed,
                // possibly with one aborted block) read back as usual.
                let hung = result.fault == GpuFault::Hang;
                let gpu_side = if hung {
                    let deadline = plan.hang_deadline(kernel_elapsed);
                    phases.faults.injected += 1;
                    phases.faults.degraded += 1;
                    shadow_elapsed =
                        shadow.run_until(&mut trees, shadow_elapsed, deadline, &mut scratch);
                    deadline
                } else {
                    let voided = void_of(result.fault, phases);
                    backprop_outputs(&mut trees, &frontier, &result.outputs, tpb, voided, phases);
                    phases.record_launch(&result.stats);
                    kernel_elapsed
                };

                // The CPU work overlapped the kernel: charge the longer of
                // the two, plus the non-overlapped host-sequential parts.
                // The breakdown charges the critical side's phases; the
                // hidden side's time is recorded as `overlap_saved`.
                if gpu_side >= shadow_elapsed {
                    if hung {
                        phases.kernel += gpu_side;
                    } else {
                        charge_serial(phases, &result.stats);
                    }
                    phases.overlap_saved += shadow_elapsed;
                } else {
                    phases.select += scratch.select;
                    phases.expand += scratch.expand;
                    phases.kernel += scratch.kernel;
                    phases.overlap_saved += gpu_side;
                }
                phases.shadow_overlap += shadow_elapsed;
                phases.absorb_counters(&scratch);

                let overlapped = gpu_side.max(shadow_elapsed);
                tracker.charge(host_cost + upload + overlapped);
                kernel_estimate = Some(kernel_elapsed);
            }
        }

        ledger.report(&self.config, &trees)
    }

    fn name(&self) -> String {
        let launch = self.driver.launch_config();
        format!(
            "hybrid CPU+GPU ({} blocks × {} threads)",
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

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn runs_and_reports() {
        let mut s = HybridSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        // GPU sims plus CPU shadow sims: at least the pure GPU amount.
        assert!(r.simulations >= 5 * 4 * 32);
        assert!(r.best_move.is_some());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            HybridSearcher::<Reversi>::new(cfg(seed), device(), LaunchConfig::new(2, 32))
                .search(Reversi::initial(), SearchBudget::Iterations(6))
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.root_stats, b.root_stats);
        assert_eq!(a.simulations, b.simulations);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn cpu_overlap_adds_simulations_beyond_block_parallel() {
        let budget = SearchBudget::VirtualTime(SimTime::from_millis(30));
        let cfg_ = cfg(8);
        let launch = LaunchConfig::new(8, 64);
        let hybrid = HybridSearcher::<Reversi>::new(cfg_.clone(), device(), launch)
            .search(Reversi::initial(), budget);
        let block = BlockParallelSearcher::<Reversi>::new(cfg_, device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            hybrid.simulations > block.simulations,
            "hybrid {} should out-simulate block {}",
            hybrid.simulations,
            block.simulations
        );
    }

    #[test]
    fn hybrid_trees_grow_deeper_than_gpu_only() {
        // The paper's Fig. 8 claim: CPU overlap increases tree depth.
        let budget = SearchBudget::VirtualTime(SimTime::from_millis(40));
        let launch = LaunchConfig::new(8, 64);
        let hybrid = HybridSearcher::<Reversi>::new(cfg(9), device(), launch)
            .search(Reversi::initial(), budget);
        let block = BlockParallelSearcher::<Reversi>::new(cfg(9), device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            hybrid.max_depth >= block.max_depth,
            "hybrid depth {} < block depth {}",
            hybrid.max_depth,
            block.max_depth
        );
    }

    #[test]
    fn tactical_sanity() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            HybridSearcher::<TicTacToe>::new(cfg(10), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(40));
        assert_eq!(r.best_move, Some(2));
    }
}
