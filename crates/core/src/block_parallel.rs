//! Block parallelism — the paper's contribution (§III.6, Fig. 2c).
//!
//! `B` independent trees live on the CPU, one per GPU *block*. Each
//! iteration the host performs selection + expansion on **every** tree
//! (this is the host part that grows with `B` and caps simulations/second —
//! Fig. 5), uploads the `B` frontier positions, and launches a single
//! kernel: block `b`'s threads all simulate tree `b`'s position, a
//! leaf-parallel batch per tree. Results are read back, backpropagated per
//! tree, and at the end root statistics are merged across trees exactly as
//! in root parallelism.
//!
//! The host tree phases are plain loops in block order on the calling
//! thread: selection, expansion picks drawn from the shared RNG, and, after
//! the launch, backpropagation. Virtual time models the paper's single-core
//! host either way. The searcher is a `WaveDriver` running a
//! `BlockSession`, the same engine the search service batches.
//!
//! The scheme matches the hardware hierarchy (Fig. 3): warps stay
//! divergence-coherent because all lanes of a block simulate the same
//! position, while distinct blocks/trees need no communication at all.

use crate::config::{MctsConfig, SearchBudget};
use crate::cost::CpuCostModel;
use crate::gpu::{aggregate, LaneOutcome};
use crate::searcher::{SearchReport, Searcher};
use crate::sequential::select_and_expand;
use crate::telemetry::PhaseBreakdown;
use crate::tree::SearchTree;
use crate::wave::{cpu_playouts, Frontier, Ledger, PlayoutRequest, SessionEngine, WaveDriver};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, LaunchConfig};
use pmcts_util::{SimTime, Xoshiro256pp};

/// Block-parallel GPU searcher: one MCTS tree per GPU block.
#[derive(Clone, Debug)]
pub struct BlockParallelSearcher<G: Game> {
    config: MctsConfig,
    driver: WaveDriver,
    rng: Xoshiro256pp,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> BlockParallelSearcher<G> {
    /// Creates a block-parallel searcher with `launch.blocks` trees and
    /// `launch.threads_per_block` simulations per tree per iteration.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        Self::with_stream(config, device, launch, 0)
    }

    /// Like [`new`](Self::new) but on RNG sub-stream `stream` (one stream
    /// per MPI rank in the multi-GPU setting).
    pub fn with_stream(
        config: MctsConfig,
        device: Device,
        launch: LaunchConfig,
        stream: u64,
    ) -> Self {
        BlockParallelSearcher {
            rng: Xoshiro256pp::derive(config.seed, 0xB10C ^ stream),
            driver: WaveDriver::new(&config, device, launch, stream),
            config,
            _game: std::marker::PhantomData,
        }
    }

    /// Number of trees (= blocks).
    pub fn trees(&self) -> u32 {
        self.driver.launch_config().blocks
    }

    /// Runs the search and returns the finished engine, trees included.
    fn run(&mut self, root: G, budget: SearchBudget) -> BlockSession<G> {
        let launch = self.driver.launch_config();
        let mut engine = BlockSession::new(
            root,
            budget,
            &self.config,
            launch.blocks,
            self.rng.clone(),
            launch.threads_per_block as usize,
        );
        self.driver.run(&mut engine);
        self.rng = engine.rng.clone();
        engine
    }
}

/// Block-parallel round engine: `B` independent trees, one block each per
/// round. [`BlockParallelSearcher`] drives it alone; the search service
/// batches it with other sessions.
pub(crate) struct BlockSession<G: Game> {
    config: MctsConfig,
    pub(crate) trees: Vec<SearchTree<G>>,
    pub(crate) rng: Xoshiro256pp,
    pub(crate) ledger: Ledger,
    threads_per_block: usize,
    pending: Option<Frontier<G>>,
}

impl<G: Game> BlockSession<G> {
    /// `blocks` fresh trees at `root`, drawing picks from `rng`.
    pub(crate) fn new(
        root: G,
        budget: SearchBudget,
        config: &MctsConfig,
        blocks: u32,
        rng: Xoshiro256pp,
        threads_per_block: usize,
    ) -> Self {
        assert!(blocks >= 1, "block session needs ≥ 1 tree");
        let trees = (0..blocks)
            .map(|_| SearchTree::for_config(root, config))
            .collect();
        Self::resume(config, trees, rng, Ledger::new(budget), threads_per_block)
    }

    /// An engine over existing trees and an existing ledger (the
    /// device-resident searcher's host fallback).
    pub(crate) fn resume(
        config: &MctsConfig,
        trees: Vec<SearchTree<G>>,
        rng: Xoshiro256pp,
        ledger: Ledger,
        threads_per_block: usize,
    ) -> Self {
        BlockSession {
            config: config.clone(),
            trees,
            rng,
            ledger,
            threads_per_block,
            pending: None,
        }
    }

    /// Drops the begun round unsimulated: its launch hung and the caller
    /// absorbed the wait ([`Landing::Absorbed`]).
    ///
    /// [`Landing::Absorbed`]: crate::wave::Landing::Absorbed
    pub(crate) fn drop_round(&mut self) {
        self.pending.take().expect("no round in flight");
    }
}

impl<G: Game> SessionEngine<G> for BlockSession<G> {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn begin_round(&mut self) -> Option<PlayoutRequest<G>> {
        assert!(self.pending.is_none(), "round already begun");
        if self.trees[0].is_terminal(self.trees[0].root()) {
            return None;
        }
        let (frontier, host_cost) = select_and_expand_all(
            &mut self.trees,
            &mut self.rng,
            &self.config,
            &mut self.ledger.phases,
        );
        let positions = frontier.iter().map(|&(_, s, _)| s).collect();
        self.pending = Some(frontier);
        Some(PlayoutRequest {
            positions,
            host_cost,
        })
    }

    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>) {
        let frontier = self.pending.take().expect("no round in flight");
        backprop_outputs(
            &mut self.trees,
            &frontier,
            lanes,
            self.threads_per_block,
            voided,
            &mut self.ledger.phases,
        );
    }

    fn degrade(&mut self, cpu: &CpuCostModel) -> SimTime {
        let frontier = self.pending.take().expect("no round in flight");
        let trees = &mut self.trees;
        cpu_playouts(
            &frontier,
            &mut self.rng,
            cpu,
            &mut self.ledger.phases,
            |b, node, reward| trees[b].backprop(node, reward, 1),
        )
    }

    fn finish(&mut self) -> SearchReport<G::Move> {
        self.ledger.report(&self.config, &self.trees)
    }
}

/// The host half of one block-parallel round: the sequential searcher's
/// selection and expansion on every tree, in block order, with expansion
/// picks drawn from the shared RNG. Returns each tree's frontier
/// `(node, state, depth)` plus the summed host tree-op cost.
///
/// The loops are sequential on purpose: a pool fan-out of the selection,
/// expansion and backprop walks measured no wall-clock gain (host phases
/// are 1–2% of a search, DESIGN.md §10).
pub(crate) fn select_and_expand_all<G: Game>(
    trees: &mut [SearchTree<G>],
    rng: &mut Xoshiro256pp,
    config: &MctsConfig,
    phases: &mut PhaseBreakdown,
) -> (Frontier<G>, SimTime) {
    let mut host_cost = SimTime::ZERO;
    let frontier = trees
        .iter_mut()
        .map(|tree| {
            let (node, depth) = select_and_expand(tree, rng, config, phases);
            host_cost += config.cpu_cost.tree_op(depth);
            (node, *tree.state(node), depth)
        })
        .collect();
    (frontier, host_cost)
}

/// The readback half of one block-parallel round: block `b`'s `tpb` lanes
/// are aggregated and backpropagated into tree `b`, in block order. A
/// voided (aborted) block's tree receives nothing.
pub(crate) fn backprop_outputs<G: Game>(
    trees: &mut [SearchTree<G>],
    frontier: &[(u32, G, u32)],
    outputs: &[LaneOutcome],
    tpb: usize,
    voided: Option<usize>,
    phases: &mut PhaseBreakdown,
) {
    for (b, tree) in trees.iter_mut().enumerate() {
        if Some(b) == voided {
            continue;
        }
        let (wins_p1, n) = aggregate(&outputs[b * tpb..(b + 1) * tpb]);
        tree.backprop(frontier[b].0, wins_p1, n);
        phases.simulations += n;
    }
}

impl<G: Game> Searcher<G> for BlockParallelSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        self.run(root, budget).finish()
    }

    fn name(&self) -> String {
        let launch = self.driver.launch_config();
        format!(
            "block parallelism ({} blocks × {} threads)",
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
    fn simulations_equal_grid_times_iterations() {
        let mut s =
            BlockParallelSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        assert_eq!(r.simulations, 5 * 4 * 32);
        // One expansion per tree per iteration: 4 roots + 4*5 nodes.
        assert_eq!(r.tree_nodes, 4 + 20);
    }

    #[test]
    fn root_stats_are_merged_across_trees() {
        let mut s =
            BlockParallelSearcher::<Reversi>::new(cfg(2), device(), LaunchConfig::new(8, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(6));
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, r.simulations);
        // All 4 opening moves should be explored across 8 trees.
        assert_eq!(r.root_stats.len(), 4);
    }

    #[test]
    fn deterministic_per_seed_and_stream() {
        let run = |seed, stream| {
            BlockParallelSearcher::<Reversi>::with_stream(
                cfg(seed),
                device(),
                LaunchConfig::new(4, 32),
                stream,
            )
            .search(Reversi::initial(), SearchBudget::Iterations(4))
        };
        assert_eq!(run(3, 0).root_stats, run(3, 0).root_stats);
        assert_ne!(run(3, 0).root_stats, run(3, 1).root_stats);
        assert_ne!(run(3, 0).root_stats, run(4, 0).root_stats);
    }

    #[test]
    fn more_blocks_cost_more_host_time_per_iteration() {
        // The paper's key observation: more trees ⇒ more sequential CPU
        // work ⇒ fewer simulations per second.
        let sims_per_sec = |blocks| {
            let mut s = BlockParallelSearcher::<Reversi>::new(
                cfg(4),
                device(),
                LaunchConfig::new(blocks, 32),
            );
            let r = s.search(Reversi::initial(), SearchBudget::Iterations(6));
            r.sims_per_second() / (blocks as f64 * 32.0) // per-thread rate
        };
        let few = sims_per_sec(2);
        let many = sims_per_sec(64);
        assert!(
            many < few,
            "per-thread throughput should drop with tree count: {many} !< {few}"
        );
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            BlockParallelSearcher::<TicTacToe>::new(cfg(5), device(), LaunchConfig::new(4, 32));
        let r = searcher.search(s, SearchBudget::Iterations(40));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root_is_handled() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher =
            BlockParallelSearcher::<TicTacToe>::new(cfg(6), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }

    #[test]
    fn trees_develop_independently() {
        let mut s =
            BlockParallelSearcher::<Reversi>::new(cfg(7), device(), LaunchConfig::new(2, 32));
        let trees = s
            .run(Reversi::initial(), SearchBudget::Iterations(10))
            .trees;
        // Two trees with independent randomness almost surely differ in
        // their root statistics after 10 iterations.
        assert_ne!(trees[0].root_stats(), trees[1].root_stats());
    }
}
