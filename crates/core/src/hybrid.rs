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
//! The searcher is a driver over a `BlockSession`, the block-parallel
//! round engine: each round its host half selects and expands every tree,
//! the launch flies asynchronously while the CPU runs sequential MCTS
//! iterations on the same trees, and the launch lands through
//! `WaveDriver::land`. The round is priced by `wave::overlap`, the one
//! overlap ledger the pipelined searcher shares: the longer of kernel and
//! CPU work is charged, the shorter recorded as `overlap_saved`.
//!
//! Determinism: the amount of CPU shadow work per launch is bounded by the
//! *previous* kernel's virtual duration (an adaptive estimate), not by
//! wall-clock polling, so results are reproducible while the kernel still
//! genuinely executes in the background via
//! [`pmcts_gpu_sim::PendingLaunch`].
//!
//! Faults: the driver absorbs hangs. A hung kernel's outputs are void and
//! it is neither retried nor degraded to CPU playouts; instead the CPU
//! extends its shadow loop to the hang's detection deadline, so the window
//! still makes progress. A `BlockAbort` voids one tree's readback and a
//! slowdown stretches device time, as for every scheme.

use crate::block_parallel::BlockSession;
use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::{BudgetTracker, SearchReport, Searcher};
use crate::sequential::SequentialSearcher;
use crate::telemetry::PhaseBreakdown;
use crate::tree::SearchTree;
use crate::wave::{overlap, Landing, SessionEngine, WaveDriver};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, LaunchConfig};
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
                .with_fault_stream(0x4B1D)
                .absorbing_hangs(),
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
        let mut engine = BlockSession::new(
            root,
            budget,
            &self.config,
            launch.blocks,
            self.rng.clone(),
            launch.threads_per_block as usize,
        );
        let cpu = self.config.cpu_cost;
        let mut kernel_estimate: Option<SimTime> = None;
        let mut shadow = Shadow {
            worker: &mut self.cpu_worker,
            turn: 0,
            est_iter: (cpu.tree_op(8) + cpu.playout(G::MAX_GAME_LENGTH as u32 / 2))
                .max(SimTime::from_nanos(1)),
        };

        while engine.wants_more() {
            let Some(request) = engine.begin_round() else {
                break;
            };
            let phases = &mut engine.ledger.phases;
            let (pending, upload) = self.driver.launch_async(&request.positions, phases);

            // CPU shadow work while the kernel flies: plain sequential
            // MCTS iterations, round-robin over the same trees, bounded
            // by the previous kernel's virtual duration so accounting
            // stays deterministic. Shadow phase times go into `scratch`:
            // whether they land in the breakdown depends on which side of
            // the overlap is the critical path.
            let mut shadow_elapsed = SimTime::ZERO;
            let mut scratch = PhaseBreakdown::new();
            if let Some(est) = kernel_estimate {
                shadow_elapsed =
                    shadow.run_until(&mut engine.trees, SimTime::ZERO, est, &mut scratch);
            }

            let result = pending.wait();
            kernel_estimate = Some(result.stats.elapsed());
            let landing = self.driver.land(&mut engine, &request.positions, result);
            if let Landing::Absorbed(deadline) = landing {
                // The hung round is lost; the CPU fills the wait for its
                // detection deadline with more shadow iterations.
                engine.drop_round();
                shadow_elapsed =
                    shadow.run_until(&mut engine.trees, shadow_elapsed, deadline, &mut scratch);
            }
            let ledger = &mut engine.ledger;
            let overlapped = overlap(&mut ledger.phases, landing, shadow_elapsed, &scratch);
            ledger
                .tracker
                .charge(request.host_cost + upload + overlapped);
        }

        self.rng = engine.rng.clone();
        engine.finish()
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
