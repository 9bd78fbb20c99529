//! WU-UCT: block-parallel search with the "Watch the Unobserved"
//! correction (Liu et al., PAPERS.md) — the fix for parallel-search
//! exploration loss.
//!
//! Plain block parallelism grows `B` *independent* trees precisely because
//! a shared tree selected with uncorrected UCB would send every batch of a
//! wave down the same maximal path: selection acts as if the playouts
//! already dispatched do not exist. WU-UCT repairs that by tracking
//! **unobserved in-flight counts** `O` on the tree: each dispatched batch
//! registers its size on every node of its selection path, and
//! [`SearchTree::select`] scores children with `N + O` in both the
//! exploitation denominator and the `ln(T + O)` term — so an in-flight
//! batch discounts its own path exactly as if its samples had landed with
//! unknown outcome. The counter is the one tree parallelism keeps its
//! virtual loss in.
//!
//! This searcher therefore runs **one shared tree**: per wave it runs the
//! sequential searcher's `select_and_expand` `B` times *in block order*,
//! registering each batch right after its selection (block `b` sees
//! the `O` registered by blocks `0..b` of the same wave — in-flight
//! membership is a pure function of the launch schedule, never of thread
//! timing), expands each frontier, launches one kernel with block `b`
//! simulating frontier `b`, and on readback rolls every block's `O` back
//! exactly before backpropagating its outcomes. The shared tree receives
//! `B` diversified updates per wave instead of one per private tree, which
//! buys back the exploration that width otherwise destroys (charted by the
//! `frontier` bench).
//!
//! At `B = 1` no selection ever observes a nonzero `O` (a wave's counts
//! are registered after its own selection and rolled back before the
//! next), the in-flight terms vanish bit-for-bit from plain UCB, and
//! the whole report is bit-identical to [`BlockParallelSearcher`]'s — the
//! zero-width oracle the tests pin.
//!
//! The searcher is a `WaveDriver` running a
//! `WuUctSession`, the engine the search service batches too. Faults
//! take the driver's one ladder: a hung kernel is charged to its hang
//! deadline and retried once; a second hang degrades the wave to one CPU
//! playout per block. A `BlockAbort` voids the aborted block's
//! backpropagation. In every case — clean, voided, or degraded — each
//! block's in-flight registration is rolled back exactly once, so all `O`
//! counters are zero after every wave (the residue invariant).
//!
//! [`BlockParallelSearcher`]: crate::block_parallel::BlockParallelSearcher

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

/// WU-UCT searcher: one shared tree, `B` in-flight batches per wave,
/// selection corrected by unobserved counts.
#[derive(Clone, Debug)]
pub struct WuUctSearcher<G: Game> {
    config: MctsConfig,
    driver: WaveDriver,
    rng: Xoshiro256pp,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> WuUctSearcher<G> {
    /// Creates a WU-UCT searcher with `launch.blocks` in-flight batches of
    /// `launch.threads_per_block` playouts per wave, all on one tree.
    ///
    /// The RNG derivation matches [`BlockParallelSearcher::new`] exactly so
    /// the width-1 oracle equivalence holds bit-for-bit.
    ///
    /// [`BlockParallelSearcher::new`]: crate::block_parallel::BlockParallelSearcher::new
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        WuUctSearcher {
            rng: Xoshiro256pp::derive(config.seed, 0xB10C),
            driver: WaveDriver::new(&config, device, launch, 0),
            config,
            _game: std::marker::PhantomData,
        }
    }

    /// Searches `root` and returns the report **and** the shared tree, for
    /// callers that analyse the tree afterwards (its in-flight counters
    /// are all zero again).
    pub fn search_with_tree(
        &mut self,
        root: G,
        budget: SearchBudget,
    ) -> (SearchReport<G::Move>, SearchTree<G>) {
        let mut engine = self.run(root, budget);
        (engine.finish(), engine.tree)
    }

    /// Runs the search and returns the finished engine, shared tree
    /// included (the residue tests inspect it).
    fn run(&mut self, root: G, budget: SearchBudget) -> WuUctSession<G> {
        let launch = self.driver.launch_config();
        let mut engine = WuUctSession::new(
            root,
            budget,
            &self.config,
            launch.blocks,
            self.rng.clone(),
            launch.threads_per_block as usize,
        );
        self.driver.run(&mut engine);
        debug_assert_eq!(
            engine.tree.inflight_total(),
            0,
            "in-flight residue after search"
        );
        self.rng = engine.rng.clone();
        engine
    }
}

/// WU-UCT round engine: **one shared tree**, `B` blocks per round,
/// selection corrected by in-flight unobserved counts. Between
/// `begin_round` and `complete_round` (or `degrade`) the wave's `O`
/// registrations are live on the tree; both roll them back exactly, so all
/// counters are zero between rounds.
pub(crate) struct WuUctSession<G: Game> {
    config: MctsConfig,
    pub(crate) tree: SearchTree<G>,
    pub(crate) rng: Xoshiro256pp,
    pub(crate) ledger: Ledger,
    blocks: usize,
    threads_per_block: usize,
    pending: Option<Frontier<G>>,
}

impl<G: Game> WuUctSession<G> {
    pub(crate) fn new(
        root: G,
        budget: SearchBudget,
        config: &MctsConfig,
        blocks: u32,
        rng: Xoshiro256pp,
        threads_per_block: usize,
    ) -> Self {
        assert!(blocks >= 1, "WU-UCT session needs ≥ 1 block");
        WuUctSession {
            config: config.clone(),
            tree: SearchTree::for_config(root, config),
            rng,
            ledger: Ledger::new(budget),
            blocks: blocks as usize,
            threads_per_block,
            pending: None,
        }
    }
}

impl<G: Game> SessionEngine<G> for WuUctSession<G> {
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
        // `B` selections in block order on the shared tree, each expansion
        // followed by registering the batch's `tpb` unobserved playouts on
        // its path — so block `b`'s selection is discounted by the `O` of
        // blocks `0..b`. The loop is deliberately sequential: each
        // selection *depends* on the previous registrations, which is what
        // makes in-flight membership a pure function of the schedule (and
        // host-thread independence trivial). Host cost is charged exactly
        // like block parallelism's host phase.
        let mut host_cost = SimTime::ZERO;
        let frontier: Frontier<G> = (0..self.blocks)
            .map(|_| {
                let phases = &mut self.ledger.phases;
                let (node, depth) =
                    select_and_expand(&mut self.tree, &mut self.rng, &self.config, phases);
                self.tree
                    .add_inflight_path(node, self.threads_per_block as u32);
                host_cost += self.config.cpu_cost.tree_op(depth);
                (node, *self.tree.state(node), depth)
            })
            .collect();
        let positions = frontier.iter().map(|&(_, s, _)| s).collect();
        self.pending = Some(frontier);
        Some(PlayoutRequest {
            positions,
            host_cost,
        })
    }

    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>) {
        let frontier = self.pending.take().expect("no round in flight");
        backprop_wave(
            &mut self.tree,
            &frontier,
            lanes,
            self.threads_per_block,
            voided,
            &mut self.ledger.phases,
        );
        debug_assert_eq!(
            self.tree.inflight_total(),
            0,
            "in-flight residue after round"
        );
    }

    /// The dispatched batches are lost, so their unobserved counts roll
    /// back first; each block then contributes one CPU playout.
    fn degrade(&mut self, cpu: &CpuCostModel) -> SimTime {
        let frontier = self.pending.take().expect("no round in flight");
        for &(node, _, _) in &frontier {
            self.tree
                .sub_inflight_path(node, self.threads_per_block as u32);
        }
        let tree = &mut self.tree;
        cpu_playouts(
            &frontier,
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

/// The readback half of one WU-UCT wave: every block's in-flight
/// registration is rolled back exactly once (voided blocks included — a
/// voided launch still retires its unobserved counts), then each
/// non-voided block's `tpb` lanes aggregate and backpropagate into the
/// shared tree.
fn backprop_wave<G: Game>(
    tree: &mut SearchTree<G>,
    frontier: &[(u32, G, u32)],
    outputs: &[LaneOutcome],
    tpb: usize,
    voided: Option<usize>,
    phases: &mut PhaseBreakdown,
) {
    for (b, &(node, _, _)) in frontier.iter().enumerate() {
        tree.sub_inflight_path(node, tpb as u32);
        if Some(b) == voided {
            continue;
        }
        let (wins_p1, n) = aggregate(&outputs[b * tpb..(b + 1) * tpb]);
        tree.backprop(node, wins_p1, n);
        phases.simulations += n;
    }
}

impl<G: Game> Searcher<G> for WuUctSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        self.run(root, budget).finish()
    }

    fn name(&self) -> String {
        let launch = self.driver.launch_config();
        format!(
            "WU-UCT ({} batches × {} threads, shared tree)",
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
    fn zero_width_oracle_matches_block_parallel_bit_identically() {
        // At one block no selection ever sees a nonzero O, so the corrected
        // search must replay plain block parallelism — the full report,
        // virtual times included, compared field for field.
        for seed in [1u64, 9, 77] {
            let launch = LaunchConfig::new(1, 32);
            let wu = WuUctSearcher::<Reversi>::new(cfg(seed), device(), launch)
                .search(Reversi::initial(), SearchBudget::Iterations(20));
            let block = BlockParallelSearcher::<Reversi>::new(cfg(seed), device(), launch)
                .search(Reversi::initial(), SearchBudget::Iterations(20));
            assert_eq!(
                wu, block,
                "width-1 WU-UCT diverged from plain UCB (seed {seed})"
            );
        }
    }

    #[test]
    fn simulations_equal_grid_times_iterations() {
        let mut s = WuUctSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        assert_eq!(r.simulations, 5 * 4 * 32);
        // One shared tree: root + one expansion per block per wave.
        assert_eq!(r.tree_nodes, 1 + 20);
    }

    #[test]
    fn no_inflight_residue_and_visits_account_exactly() {
        // Mirrors tree parallelism's `no_virtual_loss_residue`: after the
        // search every O counter is zero and the root mass equals the
        // simulations — in-flight corrections never leak into statistics.
        let mut s = WuUctSearcher::<Reversi>::new(cfg(2), device(), LaunchConfig::new(8, 32));
        let engine = s.run(Reversi::initial(), SearchBudget::Iterations(50));
        let (tree, sims) = (&engine.tree, engine.ledger.phases.simulations);
        assert_eq!(tree.inflight_total(), 0, "unobserved counts leaked");
        assert_eq!(tree.visits(tree.root()), sims);
        let root_mass: u64 = tree.root_stats().iter().map(|st| st.visits).sum();
        assert_eq!(root_mass, sims);
    }

    #[test]
    fn waves_diversify_the_frontier() {
        // The point of the correction: within one wave the B batches spread
        // over distinct root children instead of piling onto one path. With
        // 4 opening moves and 8 blocks, the very first wave must already
        // touch all 4 (untried moves are consumed first and O discounts the
        // rest).
        let mut s = WuUctSearcher::<Reversi>::new(cfg(4), device(), LaunchConfig::new(8, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(1));
        let explored = r.root_stats.iter().filter(|st| st.visits > 0).count();
        assert_eq!(explored, 4, "first wave failed to diversify");
    }

    #[test]
    fn shared_tree_grows_deeper_than_independent_trees() {
        // Equal budget, equal width: B batches deepening one tree reach
        // further than B private trees each deepening alone.
        let launch = LaunchConfig::new(32, 32);
        let budget = SearchBudget::Iterations(30);
        let wu = WuUctSearcher::<Reversi>::new(cfg(5), device(), launch)
            .search(Reversi::initial(), budget);
        let block = BlockParallelSearcher::<Reversi>::new(cfg(5), device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            wu.max_depth > block.max_depth,
            "shared corrected tree depth {} should beat private trees' {}",
            wu.max_depth,
            block.max_depth
        );
    }

    #[test]
    fn bounded_capacity_is_respected_with_batches_in_flight() {
        let mut s = WuUctSearcher::<Reversi>::new(
            cfg(6).with_tree_capacity(64),
            device(),
            LaunchConfig::new(8, 32),
        );
        let tree = s.run(Reversi::initial(), SearchBudget::Iterations(60)).tree;
        assert!(tree.live_nodes() <= 64, "arena exceeded its cap");
        assert!(tree.evictions() > 0, "test must actually churn the arena");
        assert_eq!(tree.inflight_total(), 0);
        tree.debug_validate();
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            WuUctSearcher::<TicTacToe>::new(cfg(7), device(), LaunchConfig::new(4, 32));
        let r = searcher.search(s, SearchBudget::Iterations(40));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root_is_handled() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher =
            WuUctSearcher::<TicTacToe>::new(cfg(8), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }
}
