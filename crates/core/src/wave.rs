//! The wave round every GPU scheme shares, and the one solo driver.
//!
//! Every GPU scheme in the paper runs the same round: host selection and
//! expansion, one playout launch, then readback and backpropagation. This
//! module splits that round into a *skeleton* and *operations*, after
//! Mirsoleimani et al., *Structured Parallel Programming for MCTS*
//! (PAPERS.md):
//!
//! * a [`SessionEngine`] supplies the operations of one scheme: the host
//!   half of a round ([`begin_round`](SessionEngine::begin_round)), the
//!   readback half ([`complete_round`](SessionEngine::complete_round)) and
//!   the CPU fallback for a wave the device lost
//!   ([`degrade`](SessionEngine::degrade));
//! * the skeleton runs them. [`SearchService`](crate::service::SearchService)
//!   packs many engines into one batched launch. [`WaveDriver`] runs one
//!   engine alone on a device; it is what `Searcher::search` of the
//!   leaf-, block-, WU-UCT- and pipelined searchers is.
//!
//! The driver owns everything around the engine's tree work: the per-launch
//! stream seed epoch, the launch itself, upload and readback pricing,
//! [`PhaseBreakdown::record_launch`], and the fault ladder. There is one
//! ladder, in [`WaveDriver::land`]: a hung launch costs its detection
//! deadline and is retried once with a fresh epoch; a second hang hands the
//! wave to the engine's `degrade`. A driver built to absorb hangs (the
//! hybrid searcher's) neither retries nor degrades: it hands the deadline
//! back for the host to fill with CPU work. A `BlockAbort` voids one
//! block's outputs, and a slowdown only stretches device time.
//!
//! One function, [`overlap`], prices a launch that ran alongside host
//! work — the hybrid searcher's CPU shadow iterations, the pipelined
//! searcher's next selection — and a serial launch is its special case
//! with no host work.

use crate::config::{MctsConfig, SearchBudget};
use crate::cost::CpuCostModel;
use crate::gpu::{LaneOutcome, PlayoutKernel};
use crate::searcher::{BudgetTracker, SearchReport};
use crate::telemetry::PhaseBreakdown;
use crate::tree::{best_from_stats, merge_root_stats, SearchTree};
use pmcts_games::{random_playout, Game, Player};
use pmcts_gpu_sim::{Device, KernelStats, LaunchConfig, LaunchResult, PendingLaunch};
use pmcts_util::{FaultPlan, GpuFault, SimTime, Xoshiro256pp};
use std::sync::Arc;

/// One round's frontier: `(node, position, depth)` per block.
pub(crate) type Frontier<G> = Vec<(u32, G, u32)>;

/// The budget tracker and phase ledger of one search or session. Reports
/// take their simulation count from `phases.simulations`.
#[derive(Clone, Debug)]
pub(crate) struct Ledger {
    pub(crate) tracker: BudgetTracker,
    pub(crate) phases: PhaseBreakdown,
}

impl Ledger {
    pub(crate) fn new(budget: SearchBudget) -> Self {
        Ledger {
            tracker: BudgetTracker::new(budget),
            phases: PhaseBreakdown::new(),
        }
    }

    /// The final report over `trees`: root statistics merged across them
    /// (additive, as in root parallelism) and the best move by
    /// `config.final_move`.
    pub(crate) fn report<G: Game>(
        &self,
        config: &MctsConfig,
        trees: &[SearchTree<G>],
    ) -> SearchReport<G::Move> {
        let merged = merge_root_stats(&trees.iter().map(|t| t.root_stats()).collect::<Vec<_>>());
        let mut phases = self.phases.clone();
        phases.budget_overshoot = self.tracker.overshoot();
        SearchReport {
            best_move: best_from_stats(&merged, config.final_move),
            simulations: phases.simulations,
            iterations: self.tracker.iterations,
            tree_nodes: trees.iter().map(|t| t.live_nodes() as u64).sum(),
            max_depth: trees.iter().map(|t| t.max_depth()).max().unwrap_or(0),
            elapsed: self.tracker.elapsed,
            root_stats: merged,
            phases,
        }
    }

    /// Charges a round the session sat out: the whole round lands on the
    /// `queue` phase and on the budget, so waiting consumes a latency SLO
    /// without counting as an iteration.
    pub(crate) fn charge_wait(&mut self, wait: SimTime) {
        self.phases.queue += wait;
        self.tracker.charge_wait(wait);
    }
}

/// One engine's playout work for the next round: the positions its blocks
/// simulate and the virtual cost of producing them on the host.
pub(crate) struct PlayoutRequest<G> {
    /// Block roots. A launch block `b` reads `positions[b % len]`.
    pub(crate) positions: Vec<G>,
    /// Virtual cost of this round's selection and expansion. The engine
    /// has already charged it to the `select`/`expand` phases.
    pub(crate) host_cost: SimTime,
}

/// The operations of one scheme's round. Engines do the tree work and
/// charge the `select`/`expand` phases and the simulation and expansion
/// counters; the driver or service charges everything else.
pub(crate) trait SessionEngine<G: Game>: Send {
    /// The engine's budget tracker and phase ledger.
    fn ledger(&self) -> &Ledger;
    /// Mutable access for the driver's charges.
    fn ledger_mut(&mut self) -> &mut Ledger;
    /// Whether the budget admits another round.
    fn wants_more(&self) -> bool {
        self.ledger().tracker.may_continue()
    }
    /// Host half of the next round, or `None` when the root is terminal.
    fn begin_round(&mut self) -> Option<PlayoutRequest<G>>;
    /// Readback half of the oldest begun round: `lanes` are its outputs,
    /// block-major, and the `voided` block's outputs are void.
    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>);
    /// The device lost the oldest begun round: run one CPU playout per
    /// frontier node instead, and return their virtual cost.
    fn degrade(&mut self, cpu: &CpuCostModel) -> SimTime;
    /// Builds the final report.
    fn finish(&mut self) -> SearchReport<G::Move>;
}

/// One CPU playout from every frontier node, in block order, for an
/// engine's [`degrade`](SessionEngine::degrade). `backprop(block, node,
/// reward_p1)` applies each result. Counts the playouts as simulations and
/// degraded work; returns their virtual cost.
pub(crate) fn cpu_playouts<G: Game>(
    frontier: &[(u32, G, u32)],
    rng: &mut Xoshiro256pp,
    cpu: &CpuCostModel,
    phases: &mut PhaseBreakdown,
    mut backprop: impl FnMut(usize, u32, f64),
) -> SimTime {
    let mut cost = SimTime::ZERO;
    for (b, &(node, state, _)) in frontier.iter().enumerate() {
        let playout = random_playout(state, rng);
        cost += cpu.playout(playout.plies);
        backprop(b, node, playout.reward_for(Player::P1));
        phases.simulations += 1;
        phases.faults.degraded += 1;
    }
    cost
}

/// The block a launch fault voids, if any, with the fault counted.
pub(crate) fn void_of(fault: GpuFault, phases: &mut PhaseBreakdown) -> Option<usize> {
    match fault {
        GpuFault::None => None,
        GpuFault::BlockAbort(bad) => {
            phases.faults.injected += 1;
            phases.faults.degraded += 1;
            Some(bad as usize)
        }
        _ => {
            phases.faults.injected += 1;
            None
        }
    }
}

/// Charges a completed launch serially: overhead and device time to the
/// `kernel` phase, readback to `readback`. Returns its elapsed time.
pub(crate) fn charge_serial(phases: &mut PhaseBreakdown, stats: &KernelStats) -> SimTime {
    phases.kernel += stats.launch_overhead + stats.device_time;
    phases.readback += stats.readback_time;
    stats.elapsed()
}

/// How a launch landed (see [`WaveDriver::land`]).
pub(crate) enum Landing {
    /// It completed on the first try and the engine has its outputs. The
    /// caller prices the device time.
    Completed(KernelStats),
    /// It hung and the ladder resolved it, at this virtual cost (already
    /// charged to the phases).
    Recovered(SimTime),
    /// It hung and the driver absorbs hangs: no retry, the hang counted as
    /// injected and degraded, and nothing charged yet. The engine still
    /// holds the lost round; the caller drops it and overlaps this
    /// detection deadline with host work.
    Absorbed(SimTime),
}

/// Prices a launch that ran alongside `host` virtual time of host work and
/// returns the round's critical path, the longer of the two sides.
///
/// The host work's phase times arrive in `host_phases`, uncharged; its
/// counters are always absorbed. The critical side's phases are charged:
/// the launch serially (or its absorbed deadline as `kernel`), or else the
/// host phase times. The hidden side's time is credited to
/// `overlap_saved` and the host side's to `shadow_overlap`, both outside
/// the phase sum. A launch the ladder `Recovered` broke the overlap: it is
/// already charged, so the host phases are charged after it, serially.
pub(crate) fn overlap(
    phases: &mut PhaseBreakdown,
    landing: Landing,
    host: SimTime,
    host_phases: &PhaseBreakdown,
) -> SimTime {
    phases.absorb_counters(host_phases);
    let charge_host = |phases: &mut PhaseBreakdown| {
        phases.select += host_phases.select;
        phases.expand += host_phases.expand;
        phases.kernel += host_phases.kernel;
    };
    let (device, completed) = match landing {
        Landing::Completed(stats) => (stats.elapsed(), Some(stats)),
        Landing::Absorbed(deadline) => (deadline, None),
        Landing::Recovered(cost) => {
            charge_host(phases);
            return cost + host;
        }
    };
    if device >= host {
        match completed {
            Some(stats) => {
                charge_serial(phases, &stats);
            }
            None => phases.kernel += device,
        }
        phases.overlap_saved += host;
    } else {
        charge_host(phases);
        phases.overlap_saved += device;
    }
    phases.shadow_overlap += host;
    device.max(host)
}

/// Runs engines alone on one device (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct WaveDriver {
    device: Device,
    launch: LaunchConfig,
    cpu: CpuCostModel,
    plan: FaultPlan,
    /// Experiment seed mixed with the searcher's sub-stream.
    seed_base: u64,
    epoch_mul: u64,
    /// Key of the fault schedule (the sub-stream, unless overridden).
    fault_stream: u64,
    epoch: u64,
    /// Whether [`land`](Self::land) absorbs hangs instead of retrying.
    absorb_hangs: bool,
}

impl WaveDriver {
    /// A driver for `launch` on `device`, on RNG sub-stream `stream`.
    pub(crate) fn new(
        config: &MctsConfig,
        device: Device,
        launch: LaunchConfig,
        stream: u64,
    ) -> Self {
        WaveDriver {
            device,
            launch,
            cpu: config.cpu_cost,
            plan: config.faults,
            seed_base: config
                .seed
                .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            epoch_mul: 0xA076_1D64_78BD_642F,
            fault_stream: stream,
            epoch: 0,
            absorb_hangs: false,
        }
    }

    /// Overrides the epoch multiplier of the stream seed.
    pub(crate) fn with_epoch_mul(mut self, epoch_mul: u64) -> Self {
        self.epoch_mul = epoch_mul;
        self
    }

    /// Overrides the key of the fault schedule.
    pub(crate) fn with_fault_stream(mut self, fault_stream: u64) -> Self {
        self.fault_stream = fault_stream;
        self
    }

    /// Lands hung launches as [`Landing::Absorbed`] instead of retrying
    /// them: the hybrid searcher's policy, whose CPU fills the wait.
    pub(crate) fn absorbing_hangs(mut self) -> Self {
        self.absorb_hangs = true;
        self
    }

    pub(crate) fn device(&self) -> &Device {
        &self.device
    }

    pub(crate) fn launch_config(&self) -> LaunchConfig {
        self.launch
    }

    /// Starts the next epoch: the launch's lane stream seed and the fault
    /// the plan injects into it.
    pub(crate) fn next_launch(&mut self) -> (u64, GpuFault) {
        self.epoch += 1;
        let seed = self
            .seed_base
            .wrapping_add(self.epoch.wrapping_mul(self.epoch_mul));
        let fault = self
            .plan
            .gpu_fault(self.fault_stream, self.epoch, self.launch.blocks);
        (seed, fault)
    }

    /// The next epoch's kernel over `positions`, its fault, and its launch
    /// preparation plus upload, charged to the `upload` phase.
    fn kernel<G: Game>(
        &mut self,
        positions: &[G],
        phases: &mut PhaseBreakdown,
    ) -> (PlayoutKernel<G>, GpuFault, SimTime) {
        let (seed, fault) = self.next_launch();
        let kernel = PlayoutKernel::new(positions.to_vec(), seed);
        let upload = self.cpu.launch_prep + self.device.spec().transfer_time(kernel.upload_bytes());
        phases.upload += upload;
        (kernel, fault, upload)
    }

    /// Launches `positions` synchronously. Returns the result and the
    /// upload cost.
    fn launch<G: Game>(
        &mut self,
        positions: &[G],
        phases: &mut PhaseBreakdown,
    ) -> (LaunchResult<LaneOutcome>, SimTime) {
        let (kernel, fault, upload) = self.kernel(positions, phases);
        let result = self.device.launch_with_fault(&kernel, self.launch, fault);
        (result, upload)
    }

    /// Launches `positions` asynchronously. Returns the handle and the
    /// upload cost.
    pub(crate) fn launch_async<G: Game>(
        &mut self,
        positions: &[G],
        phases: &mut PhaseBreakdown,
    ) -> (PendingLaunch<LaneOutcome>, SimTime) {
        let (kernel, fault, upload) = self.kernel(positions, phases);
        let pending = self
            .device
            .launch_async_with_fault(Arc::new(kernel), self.launch, fault);
        (pending, upload)
    }

    /// Runs lockstep rounds until the budget or the tree runs out. Each
    /// round is the engine's host half, one launch priced serially, and
    /// the engine's readback half.
    pub(crate) fn run<G: Game, E: SessionEngine<G>>(&mut self, engine: &mut E) {
        self.run_owing(engine, SimTime::ZERO);
    }

    /// [`run`](Self::run), with `owed` virtual time that the owner has not
    /// charged yet folded into the first round's budget charge.
    pub(crate) fn run_owing<G: Game, E: SessionEngine<G>>(
        &mut self,
        engine: &mut E,
        mut owed: SimTime,
    ) {
        while engine.wants_more() {
            let Some(request) = engine.begin_round() else {
                return;
            };
            let (result, upload) = self.launch(&request.positions, &mut engine.ledger_mut().phases);
            let device = self.settle(engine, &request.positions, result);
            let cost = std::mem::take(&mut owed) + request.host_cost + upload + device;
            engine.ledger_mut().tracker.charge(cost);
        }
    }

    /// Lands a launch of `positions` and prices it serially. Returns the
    /// virtual time from launch completion (or hang) to the end of the
    /// round.
    pub(crate) fn settle<G: Game, E: SessionEngine<G>>(
        &mut self,
        engine: &mut E,
        positions: &[G],
        result: LaunchResult<LaneOutcome>,
    ) -> SimTime {
        let landing = self.land(engine, positions, result);
        let phases = &mut engine.ledger_mut().phases;
        overlap(phases, landing, SimTime::ZERO, &PhaseBreakdown::new())
    }

    /// The fault ladder. A launch that completed hands its outputs to the
    /// engine. A hung launch costs its detection deadline and is retried
    /// once with a fresh epoch (upload charged again); a second hang
    /// degrades the wave to the engine's CPU playouts. A driver that
    /// [absorbs hangs](Self::absorbing_hangs) returns the first hang as
    /// [`Landing::Absorbed`] instead.
    pub(crate) fn land<G: Game, E: SessionEngine<G>>(
        &mut self,
        engine: &mut E,
        positions: &[G],
        mut result: LaunchResult<LaneOutcome>,
    ) -> Landing {
        let mut cost = SimTime::ZERO;
        let mut hangs = 0;
        while result.fault == GpuFault::Hang {
            let deadline = self.plan.hang_deadline(result.stats.elapsed());
            let phases = &mut engine.ledger_mut().phases;
            phases.faults.injected += 1;
            if self.absorb_hangs {
                phases.faults.degraded += 1;
                return Landing::Absorbed(deadline);
            }
            phases.kernel += deadline;
            cost += deadline;
            hangs += 1;
            if hangs == 2 {
                let degraded = engine.degrade(&self.cpu);
                engine.ledger_mut().phases.kernel += degraded;
                return Landing::Recovered(cost + degraded);
            }
            phases.faults.retried += 1;
            let (retry, upload) = self.launch(positions, phases);
            cost += upload;
            result = retry;
        }
        let phases = &mut engine.ledger_mut().phases;
        let voided = void_of(result.fault, phases);
        phases.record_launch(&result.stats);
        engine.complete_round(&result.outputs, voided);
        if hangs == 0 {
            Landing::Completed(result.stats)
        } else {
            Landing::Recovered(cost + charge_serial(&mut engine.ledger_mut().phases, &result.stats))
        }
    }
}
