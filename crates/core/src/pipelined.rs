//! Pipelined block parallelism — Mirsoleimani et al.'s pipeline pattern
//! (PAPERS.md) applied to the paper's block-parallel scheme.
//!
//! Plain block parallelism is a lockstep barrier: select/expand wave `k`,
//! launch, wait, backpropagate, repeat — the host is idle while the kernel
//! flies and the device is idle while the host walks trees. The pipeline
//! removes the barrier by running the two stages one wave apart: while the
//! kernel of wave `k−1` executes, the host selects and expands wave `k`
//! from the trees *as they stood before wave `k−1`'s results landed* (the
//! genuine pipeline hazard — selection cannot observe results that have
//! not been read back), then completes wave `k−1` and immediately launches
//! wave `k`.
//!
//! Pricing under the seven-phase ledger: per round the critical path is
//! `max(kernel of wave k−1, select/expand of wave k)`. The hybrid
//! searcher's overlap ledger, `wave::overlap`, prices it: it charges the
//! phases of whichever side is critical and records the hidden side's
//! time as `overlap_saved` (with the host-side overlap also counted in
//! `shadow_overlap`) — the seven phases still sum to `elapsed` to the
//! nanosecond. The final in-flight wave is drained after the budget
//! expires and charged as wait time (`budget_overshoot` reports it), so no
//! launched work is ever dropped.
//!
//! Faults break the pipeline: a hang detected at completion time is
//! handled **serially** by the shared ladder of
//! `WaveDriver::land` — charge the hang
//! deadline, retry once with a fresh stream seed, degrade to one CPU
//! playout per tree on a second hang — and that round's select/expand is
//! charged serially too (no
//! overlap credit; a real pipeline stalls on a fault). `BlockAbort` voids
//! the aborted block's backpropagation as usual. Determinism is untouched:
//! wave composition depends only on the launch schedule, never on thread
//! timing, so reports are bit-identical for any host-thread count.

use crate::block_parallel::{backprop_outputs, select_and_expand_all};
use crate::config::{MctsConfig, SearchBudget};
use crate::cost::CpuCostModel;
use crate::gpu::LaneOutcome;
use crate::searcher::{SearchReport, Searcher};
use crate::telemetry::PhaseBreakdown;
use crate::tree::SearchTree;
use crate::wave::{
    cpu_playouts, overlap, Frontier, Landing, Ledger, PlayoutRequest, SessionEngine, WaveDriver,
};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, LaunchConfig, PendingLaunch};
use pmcts_util::{SimTime, Xoshiro256pp};
use std::collections::VecDeque;

/// Pipelined block-parallel searcher: select/expand of wave `k` overlaps
/// the in-flight kernel of wave `k−1`.
#[derive(Clone, Debug)]
pub struct PipelinedSearcher<G: Game> {
    config: MctsConfig,
    driver: WaveDriver,
    rng: Xoshiro256pp,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> PipelinedSearcher<G> {
    /// Creates a pipelined searcher with `launch.blocks` trees and
    /// `launch.threads_per_block` simulations per tree per wave.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        PipelinedSearcher {
            rng: Xoshiro256pp::derive(config.seed, 0xF1FE),
            driver: WaveDriver::new(&config, device, launch, 0),
            config,
            _game: std::marker::PhantomData,
        }
    }
}

/// Pipelined block-tree round engine: `B` trees with **deferred
/// backpropagation**. A round's outputs land only after the next round
/// has selected, which is the pipeline hazard: selection cannot observe
/// results that have not been read back. [`PipelinedSearcher`] completes
/// wave `k−1` after selecting wave `k`, so its outputs land at once; the
/// search service completes each round before the next one selects, so
/// they wait for the next `begin_round` (or `finish`, so launched work is
/// never dropped).
pub(crate) struct PipelinedSession<G: Game> {
    config: MctsConfig,
    trees: Vec<SearchTree<G>>,
    pub(crate) rng: Xoshiro256pp,
    pub(crate) ledger: Ledger,
    threads_per_block: usize,
    /// Frontiers of begun rounds not yet completed, oldest first.
    launched: VecDeque<Frontier<G>>,
    /// A completed round waiting for the next round's selection.
    deferred: Option<(Frontier<G>, Vec<LaneOutcome>, Option<usize>)>,
}

impl<G: Game> PipelinedSession<G> {
    pub(crate) fn new(
        root: G,
        budget: SearchBudget,
        config: &MctsConfig,
        blocks: u32,
        rng: Xoshiro256pp,
        threads_per_block: usize,
    ) -> Self {
        assert!(blocks >= 1, "pipelined session needs ≥ 1 tree");
        PipelinedSession {
            config: config.clone(),
            trees: (0..blocks)
                .map(|_| SearchTree::for_config(root, config))
                .collect(),
            rng,
            ledger: Ledger::new(budget),
            threads_per_block,
            launched: VecDeque::new(),
            deferred: None,
        }
    }

    fn backprop(
        &mut self,
        frontier: &[(u32, G, u32)],
        lanes: &[LaneOutcome],
        voided: Option<usize>,
    ) {
        backprop_outputs(
            &mut self.trees,
            frontier,
            lanes,
            self.threads_per_block,
            voided,
            &mut self.ledger.phases,
        );
    }

    fn flush_deferred(&mut self) {
        if let Some((frontier, lanes, voided)) = self.deferred.take() {
            self.backprop(&frontier, &lanes, voided);
        }
    }
}

impl<G: Game> SessionEngine<G> for PipelinedSession<G> {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn begin_round(&mut self) -> Option<PlayoutRequest<G>> {
        if self.trees[0].is_terminal(self.trees[0].root()) {
            return None;
        }
        // Pipeline ordering: select from the trees as they stood before the
        // previous round's results landed, *then* apply those results.
        let (frontier, host_cost) = select_and_expand_all(
            &mut self.trees,
            &mut self.rng,
            &self.config,
            &mut self.ledger.phases,
        );
        self.flush_deferred();
        let positions = frontier.iter().map(|&(_, s, _)| s).collect();
        self.launched.push_back(frontier);
        Some(PlayoutRequest {
            positions,
            host_cost,
        })
    }

    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>) {
        let frontier = self.launched.pop_front().expect("no round in flight");
        if self.launched.is_empty() {
            self.deferred = Some((frontier, lanes.to_vec(), voided));
        } else {
            self.backprop(&frontier, lanes, voided);
        }
    }

    fn degrade(&mut self, cpu: &CpuCostModel) -> SimTime {
        let frontier = self.launched.pop_front().expect("no round in flight");
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
        self.flush_deferred();
        self.ledger.report(&self.config, &self.trees)
    }
}

impl<G: Game> Searcher<G> for PipelinedSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let launch = self.driver.launch_config();
        let mut engine = PipelinedSession::new(
            root,
            budget,
            &self.config,
            launch.blocks,
            self.rng.clone(),
            launch.threads_per_block as usize,
        );
        // The wave in flight: its positions plus the pending launch handle.
        let mut in_flight: Option<(Vec<G>, PendingLaunch<LaneOutcome>)> = None;
        while engine.wants_more() {
            // Stage 1 — select/expand wave k while wave k−1 (if any) is
            // still in flight. The engine charges the select/expand phases
            // at once; they are taken back into `host` below, to be charged
            // only if the host side turns out to be the critical path.
            let charged = (engine.ledger.phases.select, engine.ledger.phases.expand);
            let Some(request) = engine.begin_round() else {
                break;
            };

            // Stage 2 — complete wave k−1. An empty pipeline (first wave)
            // has nothing to overlap with, and a fault breaks the pipeline:
            // the ladder resolves the hung wave serially, and this round's
            // select/expand is charged serially too.
            let landing = match in_flight.take() {
                Some((positions, launch)) => {
                    self.driver.land(&mut engine, &positions, launch.wait())
                }
                None => Landing::Recovered(SimTime::ZERO),
            };
            let phases = &mut engine.ledger.phases;
            let mut host = PhaseBreakdown::new();
            host.select = phases.select - charged.0;
            host.expand = phases.expand - charged.1;
            (phases.select, phases.expand) = charged;
            let mut iter_cost = overlap(phases, landing, request.host_cost, &host);

            // Stage 3 — launch wave k asynchronously; it completes at the
            // top of the next round (or in the drain below).
            let (launch, upload) = self
                .driver
                .launch_async(&request.positions, &mut engine.ledger.phases);
            iter_cost += upload;
            in_flight = Some((request.positions, launch));
            engine.ledger.tracker.charge(iter_cost);
        }

        // Drain — the budget expired with one wave still in flight. Its
        // results are not dropped: complete it and charge the time as wait
        // (`budget_overshoot` reports it; `iterations` is unaffected).
        if let Some((positions, launch)) = in_flight {
            let cost = self.driver.settle(&mut engine, &positions, launch.wait());
            engine.ledger.tracker.charge_wait(cost);
        }
        self.rng = engine.rng.clone();
        engine.finish()
    }

    fn name(&self) -> String {
        let launch = self.driver.launch_config();
        format!(
            "pipelined block-parallel ({} trees × {} threads)",
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
    fn runs_and_accounts_exactly() {
        let mut s = PipelinedSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        // Every launched wave lands (the drain completes the last one).
        assert_eq!(r.simulations, 5 * 4 * 32);
        assert_eq!(r.phases.phase_sum(), r.elapsed, "ledger must sum exactly");
    }

    #[test]
    fn overlap_is_recorded_and_saves_time() {
        let budget = SearchBudget::VirtualTime(SimTime::from_millis(20));
        let launch = LaunchConfig::new(8, 64);
        let piped = PipelinedSearcher::<Reversi>::new(cfg(3), device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            piped.phases.overlap_saved > SimTime::ZERO,
            "no overlap recorded"
        );
        assert_eq!(piped.phases.phase_sum(), piped.elapsed);
        // The saved host time buys more waves than the lockstep scheme gets
        // in the same virtual window.
        let lockstep = BlockParallelSearcher::<Reversi>::new(cfg(3), device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            piped.simulations > lockstep.simulations,
            "pipelined {} should out-simulate lockstep {}",
            piped.simulations,
            lockstep.simulations
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            PipelinedSearcher::<Reversi>::new(cfg(7), device(), LaunchConfig::new(4, 32))
                .search(Reversi::initial(), SearchBudget::Iterations(6))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tactical_sanity() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            PipelinedSearcher::<TicTacToe>::new(cfg(5), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(40));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root_is_handled() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher =
            PipelinedSearcher::<TicTacToe>::new(cfg(6), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }
}
