//! Leaf parallelism on the (simulated) GPU — paper §III.5, Fig. 2a.
//!
//! One search tree lives on the CPU. Each iteration selects and expands one
//! node, then launches a kernel in which **every** thread of the whole grid
//! plays an independent playout from that same node; the result array is
//! read back and backpropagated as one batch. "The obtained result is the
//! same as in the basic CPU version except that the number of simulations
//! is greater and the accuracy is better" — but all those simulations
//! sample one node, which is why its playing strength saturates (Fig. 6).
//!
//! The searcher is a `WaveDriver` running a `LeafSession`: the
//! sequential searcher's selection and expansion plus a launch, with
//! faults resolved by the driver's one ladder.

use crate::config::{MctsConfig, SearchBudget};
use crate::cost::CpuCostModel;
use crate::gpu::{aggregate, LaneOutcome};
use crate::searcher::{SearchReport, Searcher};
use crate::sequential::select_and_expand;
use crate::tree::SearchTree;
use crate::wave::{cpu_playouts, Ledger, PlayoutRequest, SessionEngine, WaveDriver};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, LaunchConfig};
use pmcts_util::{SimTime, Xoshiro256pp};

/// Leaf-parallel GPU searcher.
#[derive(Clone, Debug)]
pub struct LeafParallelSearcher<G: Game> {
    config: MctsConfig,
    driver: WaveDriver,
    rng: Xoshiro256pp,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> LeafParallelSearcher<G> {
    /// Creates a leaf-parallel searcher launching `launch` on `device`.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        LeafParallelSearcher {
            rng: Xoshiro256pp::derive(config.seed, 0x1EAF),
            driver: WaveDriver::new(&config, device, launch, 0)
                .with_epoch_mul(0xD134_2543_DE82_EF95),
            config,
            _game: std::marker::PhantomData,
        }
    }
}

/// Single-tree round engine: each round selects and expands one node, and
/// every block of the round's launch simulates it. [`LeafParallelSearcher`]
/// launches the whole grid on that node; the search service gives the
/// session one block of a batched launch.
pub(crate) struct LeafSession<G: Game> {
    config: MctsConfig,
    tree: SearchTree<G>,
    rng: Xoshiro256pp,
    ledger: Ledger,
    threads_per_block: usize,
    /// Frontier node and state between `begin_round` and its completion.
    pending: Option<(u32, G)>,
}

impl<G: Game> LeafSession<G> {
    pub(crate) fn new(
        root: G,
        budget: SearchBudget,
        config: &MctsConfig,
        rng: Xoshiro256pp,
        threads_per_block: usize,
    ) -> Self {
        LeafSession {
            config: config.clone(),
            tree: SearchTree::for_config(root, config),
            rng,
            ledger: Ledger::new(budget),
            threads_per_block,
            pending: None,
        }
    }
}

impl<G: Game> SessionEngine<G> for LeafSession<G> {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn begin_round(&mut self) -> Option<PlayoutRequest<G>> {
        assert!(self.pending.is_none(), "round already begun");
        if self.tree.is_terminal(self.tree.root()) {
            return None;
        }
        let (node, depth) = select_and_expand(
            &mut self.tree,
            &mut self.rng,
            &self.config,
            &mut self.ledger.phases,
        );
        let state = *self.tree.state(node);
        self.pending = Some((node, state));
        Some(PlayoutRequest {
            positions: vec![state],
            host_cost: self.config.cpu_cost.tree_op(depth),
        })
    }

    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>) {
        let (node, _) = self.pending.take().expect("no round in flight");
        let (mut wins_p1, mut n) = (0.0, 0);
        for (b, block) in lanes.chunks(self.threads_per_block).enumerate() {
            if Some(b) != voided {
                let (w, c) = aggregate(block);
                wins_p1 += w;
                n += c;
            }
        }
        self.tree.backprop(node, wins_p1, n);
        self.ledger.phases.simulations += n;
    }

    fn degrade(&mut self, cpu: &CpuCostModel) -> SimTime {
        let (node, state) = self.pending.take().expect("no round in flight");
        let tree = &mut self.tree;
        cpu_playouts(
            &[(node, state, 0)],
            &mut self.rng,
            cpu,
            &mut self.ledger.phases,
            |_, node, reward| tree.backprop(node, reward, 1),
        )
    }

    fn finish(&mut self) -> SearchReport<G::Move> {
        self.ledger
            .report(&self.config, std::slice::from_ref(&self.tree))
    }
}

impl<G: Game> Searcher<G> for LeafParallelSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let tpb = self.driver.launch_config().threads_per_block as usize;
        let mut engine = LeafSession::new(root, budget, &self.config, self.rng.clone(), tpb);
        self.driver.run(&mut engine);
        self.rng = engine.rng.clone();
        engine.finish()
    }

    fn name(&self) -> String {
        let launch = self.driver.launch_config();
        format!(
            "leaf parallelism ({} blocks × {} threads)",
            launch.blocks, launch.threads_per_block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn one_iteration_runs_grid_size_simulations() {
        let mut s =
            LeafParallelSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 64));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        assert_eq!(r.iterations, 3);
        assert_eq!(r.simulations, 3 * 256);
        assert_eq!(r.tree_nodes, 4); // root + one expansion per iteration
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            LeafParallelSearcher::<Reversi>::new(cfg(seed), device(), LaunchConfig::new(2, 32))
                .search(Reversi::initial(), SearchBudget::Iterations(8))
        };
        let a = run(9);
        let b = run(9);
        let c = run(10);
        assert_eq!(a.root_stats, b.root_stats);
        assert_eq!(a.best_move, b.best_move);
        assert_ne!(a.root_stats, c.root_stats);
    }

    #[test]
    fn virtual_time_includes_kernel_cost() {
        let mut s =
            LeafParallelSearcher::<Reversi>::new(cfg(2), device(), LaunchConfig::new(14, 64));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(2));
        // Two launches must cost at least two launch overheads.
        assert!(r.elapsed >= device().spec().launch_overhead * 2);
    }

    #[test]
    fn picks_winning_move_in_tictactoe() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            LeafParallelSearcher::<TicTacToe>::new(cfg(3), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(60));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root_reports_no_move() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher =
            LeafParallelSearcher::<TicTacToe>::new(cfg(4), device(), LaunchConfig::new(1, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }

    #[test]
    fn root_visits_match_simulations() {
        let mut s =
            LeafParallelSearcher::<Reversi>::new(cfg(5), device(), LaunchConfig::new(2, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(10));
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, r.simulations);
    }
}
