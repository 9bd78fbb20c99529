//! The three workloads: inputs generated from the seed, the request loops,
//! the per-request correctness checks and the single-thread replay.
//!
//! * `gpu_match` — closed loop, one caller: Reversi games in which every
//!   move is one search at the paper grid (112 blocks × 64 threads) under
//!   a fixed virtual budget. Each round plays `block_parallel` vs `hybrid`
//!   and `wu_uct` vs `pipelined`, moves interleaved, colours alternating
//!   by round; each side keeps one searcher for its game.
//! * `resident_tree` — the same loop with `device_tree` on both sides, so
//!   each side's resident trees are re-rooted between its moves.
//! * `fleet_serve` — open loop indexed by fleet wave: seeded arrivals
//!   (a steady rate plus periodic bursts beyond shard + queue capacity)
//!   offered to a four-device `Fleet` as sequential-tree sessions.
//!
//! The amount of work is a function of the seed and `--seconds` only (a
//! number of rounds or waves sized from nominal rates), so a run's
//! results — moves, simulations, virtual time — are bit-identical across
//! repeat runs and pool sizes, and two commits run identical work.

use crate::stats::{progress, Fingerprint, Problems};
use crate::trace::Tracer;
use pmcts_core::prelude::*;
use pmcts_games::{MoveBuf, ReversiMove};
use pmcts_gpu_sim::WorkerPool;
use pmcts_util::{Rng64, SplitMix64};
use std::sync::Arc;
use std::time::Instant;

/// The paper's grid: 112 blocks (8 per SM on 14 SMs) × 64 threads.
pub fn paper_grid() -> LaunchConfig {
    LaunchConfig::new(112, 64)
}

/// Nominal host seconds per match round and per fleet wave on a 2-core
/// x86-64 host; they size the fixed amount of work a run does.
const GPU_MATCH_ROUND_S: f64 = 4.9;
const RESIDENT_ROUND_S: f64 = 5.0;
const FLEET_WAVE_S: f64 = 0.00075;

/// Requests (match) replayed on a one-thread pool and compared.
const MATCH_REPLAY_REQUESTS: usize = 12;
/// Fleet waves replayed on a one-thread pool and compared.
const FLEET_REPLAY_WAVES: u64 = 150;

pub const FLEET_DEVICES: usize = 4;
const FLEET_BUDGET: SimTime = SimTime::from_millis(3);
/// Steady arrivals per wave (uniform in the range), below capacity.
const FLEET_STEADY: (u64, u64) = (2, 8);
/// Every `FLEET_BURST_EVERY` waves, `FLEET_BURST` extra arrivals at once:
/// more than the free shard slots plus the queue can take.
const FLEET_BURST_EVERY: u64 = 64;
const FLEET_BURST: u64 = 96;
/// Waves of the throwaway fleet that warms up `fleet_serve`.
const FLEET_WARM_UP_WAVES: u64 = 200;
/// Distinct seeded mid-game positions the fleet's sessions start from.
const FLEET_POSITIONS: usize = 256;

const OPENING_KEY: u64 = 0x0BE7_1A60;
const ARRIVAL_KEY: u64 = 0xA441_7A15;
const SEARCHER_KEY: u64 = 0x5EA2_C4E2;

/// A workload name on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GpuMatch,
    ResidentTree,
    FleetServe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GpuMatch,
        Workload::ResidentTree,
        Workload::FleetServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GpuMatch => "gpu_match",
            Workload::ResidentTree => "resident_tree",
            Workload::FleetServe => "fleet_serve",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn pairings(self) -> &'static [(Scheme, Scheme)] {
        match self {
            Workload::GpuMatch => &[
                (Scheme::BlockParallel, Scheme::Hybrid),
                (Scheme::WuUct, Scheme::Pipelined),
            ],
            Workload::ResidentTree => &[(Scheme::DeviceTree, Scheme::DeviceTree)],
            Workload::FleetServe => &[],
        }
    }

    /// Virtual budget of one match move; the fleet's scheme probes use
    /// the `gpu_match` budget.
    pub fn move_budget(self) -> SimTime {
        match self {
            Workload::GpuMatch | Workload::FleetServe => SimTime::from_millis(50),
            Workload::ResidentTree => SimTime::from_millis(20),
        }
    }

    fn devices(self) -> usize {
        match self {
            Workload::FleetServe => FLEET_DEVICES,
            _ => 1,
        }
    }
}

/// A search scheme driven at the paper grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    BlockParallel,
    Hybrid,
    WuUct,
    Pipelined,
    DeviceTree,
}

impl Scheme {
    pub const ALL: [Scheme; 5] = [
        Scheme::BlockParallel,
        Scheme::Hybrid,
        Scheme::WuUct,
        Scheme::Pipelined,
        Scheme::DeviceTree,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::BlockParallel => "block_parallel",
            Scheme::Hybrid => "hybrid",
            Scheme::WuUct => "wu_uct",
            Scheme::Pipelined => "pipelined",
            Scheme::DeviceTree => "device_tree",
        }
    }

    /// Span name of this scheme's `Searcher::search`.
    pub fn span(self) -> &'static str {
        match self {
            Scheme::BlockParallel => "core.search.block_parallel",
            Scheme::Hybrid => "core.search.hybrid",
            Scheme::WuUct => "core.search.wu_uct",
            Scheme::Pipelined => "core.search.pipelined",
            Scheme::DeviceTree => "core.search.device_tree",
        }
    }

    /// Search trees the scheme grows (WU-UCT shares one tree).
    fn trees(self) -> u64 {
        match self {
            Scheme::WuUct => 1,
            _ => u64::from(paper_grid().blocks),
        }
    }

    pub fn searcher(self, seed: u64, device: &Device) -> Box<dyn Searcher<Reversi>> {
        let config = MctsConfig::default().with_seed(seed);
        let (device, grid) = (device.clone(), paper_grid());
        match self {
            Scheme::BlockParallel => Box::new(BlockParallelSearcher::new(config, device, grid)),
            Scheme::Hybrid => Box::new(HybridSearcher::new(config, device, grid)),
            Scheme::WuUct => Box::new(WuUctSearcher::new(config, device, grid)),
            Scheme::Pipelined => Box::new(PipelinedSearcher::new(config, device, grid)),
            Scheme::DeviceTree => Box::new(DeviceTreeSearcher::new(config, device, grid)),
        }
    }
}

/// The process's single worker pool and the simulated devices sharing it.
pub struct Env {
    pub pool: Arc<WorkerPool>,
    pub devices: Vec<Device>,
}

impl Env {
    pub fn new(threads: usize, devices: usize) -> Self {
        let pool = Arc::new(WorkerPool::new(threads));
        let devices = (0..devices)
            .map(|_| Device::new_with_pool(DeviceSpec::tesla_c2050(), Arc::clone(&pool)))
            .collect();
        Env { pool, devices }
    }

    pub fn for_workload(workload: Workload, threads: usize) -> Self {
        Self::new(threads, workload.devices())
    }

    pub fn device(&self) -> &Device {
        &self.devices[0]
    }

    /// Drops the devices, then the pool, joining its workers here.
    pub fn shutdown(self) {
        let Env { pool, devices } = self;
        drop(devices);
        assert_eq!(
            Arc::strong_count(&pool),
            1,
            "every device and searcher is gone before the pool"
        );
        drop(pool);
    }
}

/// How much work a run does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Match rounds (games of every pairing, moves interleaved).
    pub rounds: usize,
    /// Fleet waves with arrivals (the fleet then drains).
    pub waves: u64,
}

impl Plan {
    /// Sizes the work so a run measures about `seconds` on the nominal host.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        let rounds = |round_s: f64| ((seconds / round_s).round() as usize).max(1);
        let (rounds, waves) = match workload {
            Workload::GpuMatch => (rounds(GPU_MATCH_ROUND_S), 0),
            Workload::ResidentTree => (rounds(RESIDENT_ROUND_S), 0),
            Workload::FleetServe => (0, ((seconds / FLEET_WAVE_S) as u64).max(FLEET_REPLAY_WAVES)),
        };
        Plan {
            workload,
            seed,
            rounds,
            waves,
        }
    }
}

/// Positions the library receives, generated from the seed.
pub struct Inputs {
    /// Opening position of each match game, by round then pairing.
    pub openings: Vec<Vec<Reversi>>,
    /// Start positions of fleet sessions.
    pub fleet_positions: Vec<Reversi>,
}

/// A non-terminal position `min..=max` uniformly random plies from the
/// initial position, drawn from stream `index` of `seed`.
fn random_position(seed: u64, index: u64, min: u32, max: u32) -> Reversi {
    let mut rng = SplitMix64::derive(seed ^ OPENING_KEY, index);
    loop {
        let plies = min + rng.next_below(max - min + 1);
        let mut state = Reversi::initial();
        for _ in 0..plies {
            match state.random_move(&mut rng) {
                Some(mv) => state.apply(mv),
                None => break,
            }
        }
        if !state.is_terminal() {
            return state;
        }
    }
}

impl Inputs {
    pub fn generate(plan: &Plan) -> Self {
        let games = plan.workload.pairings().len();
        let openings = (0..plan.rounds)
            .map(|r| {
                (0..games)
                    .map(|g| random_position(plan.seed, (r * games + g) as u64, 4, 12))
                    .collect()
            })
            .collect();
        let fleet_positions = if plan.workload == Workload::FleetServe {
            (0..FLEET_POSITIONS)
                .map(|i| random_position(plan.seed, (1 << 32) + i as u64, 16, 40))
                .collect()
        } else {
            Vec::new()
        };
        Inputs {
            openings,
            fleet_positions,
        }
    }
}

/// One served request: a match move or a fleet session.
#[derive(Clone, Debug)]
pub struct Sample {
    pub host_ns: u64,
    pub virtual_ns: u64,
    pub kernel_ns: u64,
    pub queue_ns: u64,
    pub simulations: u64,
    /// Returned a move within its virtual budget (match) or SLO (fleet).
    pub good: bool,
    pub fingerprint: u64,
    pub root: Reversi,
    pub nodes_per_tree: f64,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub samples: Vec<Sample>,
    /// Requests offered (match moves, or fleet sessions incl. rejected).
    pub offered: u64,
    pub wall_ns: u64,
    /// Σ per-move virtual elapsed (match) or the fleet makespan.
    pub virtual_elapsed_ns: u64,
    /// Fingerprints the single-thread replay must reproduce, in order.
    pub replay_prefix: Vec<u64>,
    /// Host ns of each request (match) or wave (fleet), and whether it
    /// ran with spans on — the tracing-overhead comparison.
    pub units: Vec<(u64, bool)>,
}

fn move_code(mv: Option<ReversiMove>) -> u64 {
    mv.map_or(u64::MAX, |m| u64::from(m.0))
}

/// The words of a report that a fingerprint covers.
fn report_words(report: &SearchReport<ReversiMove>) -> [u64; 12] {
    let p = &report.phases;
    [
        move_code(report.best_move),
        report.simulations,
        report.iterations,
        report.tree_nodes,
        u64::from(report.max_depth),
        report.elapsed.as_nanos(),
        p.select.as_nanos(),
        p.expand.as_nanos(),
        p.queue.as_nanos(),
        p.upload.as_nanos(),
        p.kernel.as_nanos(),
        p.kernel_launches,
    ]
}

/// Checks the seven-phase ledger and the returned move of one report.
fn check_report(
    problems: &mut Problems,
    what: &str,
    root: &Reversi,
    report: &SearchReport<ReversiMove>,
) -> bool {
    let ledger = problems.check(report.phases.phase_sum() == report.elapsed, || {
        format!(
            "{what}: phase_sum {:?} != elapsed {:?}",
            report.phases.phase_sum(),
            report.elapsed
        )
    });
    let legal_move = root.is_terminal() || {
        let mut legal = MoveBuf::new();
        root.legal_moves(&mut legal);
        problems.check(report.best_move.is_some_and(|m| legal.contains(&m)), || {
            format!("{what}: best_move {:?} is not legal", report.best_move)
        })
    };
    ledger && legal_move
}

/// Whether request `index` runs with spans on in a traced run: a seeded
/// fair coin, so traced and untraced requests mix evenly.
fn traced(seed: u64, index: u64) -> bool {
    Fingerprint::of(&[seed, index]) & 1 == 1
}

struct LiveGame {
    state: Reversi,
    /// Indexed by `Player::index()` of the side the searcher plays.
    seats: [(Scheme, Box<dyn Searcher<Reversi>>); 2],
}

fn seat_round(plan: &Plan, inputs: &Inputs, round: usize, device: &Device) -> Vec<LiveGame> {
    let pairings = plan.workload.pairings();
    pairings
        .iter()
        .enumerate()
        .map(|(g, &(a, b))| {
            let (black, white) = if (round + g).is_multiple_of(2) {
                (a, b)
            } else {
                (b, a)
            };
            let seed = |side: u64| {
                SplitMix64::derive(
                    plan.seed ^ SEARCHER_KEY,
                    ((round * pairings.len() + g) as u64) * 2 + side,
                )
                .next_u64()
            };
            LiveGame {
                state: inputs.openings[round][g],
                seats: [
                    (black, black.searcher(seed(0), device)),
                    (white, white.searcher(seed(1), device)),
                ],
            }
        })
        .collect()
}

/// Everything a request loop writes to.
struct Recorder<'a> {
    tracer: &'a mut Tracer,
    /// Traced run: spans on for a seeded half of the requests.
    mixed: bool,
    problems: &'a mut Problems,
    out: RunOutput,
}

/// Plays round `round` (its games' moves interleaved, one caller) until
/// the games end or `limit` requests of the whole run were made.
fn play_round(
    plan: &Plan,
    inputs: &Inputs,
    round: usize,
    device: &Device,
    limit: usize,
    rec: &mut Recorder<'_>,
) {
    let budget = plan.workload.move_budget();
    let mut games = seat_round(plan, inputs, round, device);
    loop {
        let mut moved = false;
        for game in games.iter_mut() {
            if game.state.is_terminal() || rec.out.samples.len() >= limit {
                continue;
            }
            moved = true;
            let index = rec.out.samples.len() as u64;
            let root = game.state;
            let (scheme, searcher) = &mut game.seats[root.to_move().index()];
            let spans_on = rec.mixed && traced(plan.seed, index);
            rec.tracer.set_enabled(spans_on);
            let request = rec.tracer.enter("harness.request", index);
            let search = rec.tracer.enter(scheme.span(), index);
            let start = Instant::now();
            let report = searcher.search(root, SearchBudget::VirtualTime(budget));
            let host_ns = start.elapsed().as_nanos() as u64;
            rec.tracer.exit(search);
            let what = format!("{} request {index}", plan.workload.name());
            let ok = check_report(rec.problems, &what, &root, &report);
            let mv = match report.best_move {
                Some(mv) if ok => mv,
                _ => {
                    // Keep the game going on a legal move; the failure is counted.
                    let mut legal = MoveBuf::new();
                    root.legal_moves(&mut legal);
                    legal[0]
                }
            };
            game.state.apply(mv);
            rec.tracer.exit(request);
            let mut words = vec![index];
            words.extend(report_words(&report));
            rec.out.samples.push(Sample {
                host_ns,
                virtual_ns: report.elapsed.as_nanos(),
                kernel_ns: report.phases.kernel.as_nanos(),
                queue_ns: report.phases.queue.as_nanos(),
                simulations: report.simulations,
                good: ok && report.elapsed <= budget,
                fingerprint: Fingerprint::of(&words),
                root,
                nodes_per_tree: report.tree_nodes as f64 / scheme.trees() as f64,
            });
            rec.out.units.push((host_ns, spans_on));
            progress("run", index + 1, false);
        }
        if !moved {
            break;
        }
    }
}

fn run_match(env: &Env, inputs: &Inputs, plan: &Plan, rec: &mut Recorder<'_>) {
    let start = Instant::now();
    for round in 0..plan.rounds {
        play_round(plan, inputs, round, env.device(), usize::MAX, rec);
    }
    rec.out.wall_ns = start.elapsed().as_nanos() as u64;
    rec.out.offered = rec.out.samples.len() as u64;
    rec.out.virtual_elapsed_ns = rec.out.samples.iter().map(|s| s.virtual_ns).sum();
    rec.out.replay_prefix = rec
        .out
        .samples
        .iter()
        .take(MATCH_REPLAY_REQUESTS)
        .map(|s| s.fingerprint)
        .collect();
}

/// Arrivals offered before fleet wave `wave` (1-based).
fn arrivals(seed: u64, wave: u64) -> u64 {
    let (lo, hi) = FLEET_STEADY;
    let steady = lo + SplitMix64::derive(seed ^ ARRIVAL_KEY, wave).next_u64() % (hi - lo + 1);
    steady
        + if wave.is_multiple_of(FLEET_BURST_EVERY) {
            FLEET_BURST
        } else {
            0
        }
}

/// A fleet and the bookkeeping of its offers.
pub struct FleetHarness {
    pub fleet: Fleet<Reversi>,
    /// Root and host offer time (ns since the run started) of every offer,
    /// indexed by fleet session id.
    offers: Vec<(Reversi, u64)>,
    seed: u64,
}

impl FleetHarness {
    pub fn new(devices: Vec<Device>, seed: u64) -> Self {
        let config = FleetConfig::new(SplitMix64::derive(seed, 0xF1EE7).next_u64());
        FleetHarness {
            fleet: Fleet::new(config, devices),
            offers: Vec::new(),
            seed,
        }
    }

    /// Offers wave `wave`'s arrivals, recording `wave_start_ns` as their
    /// host offer time; returns the host ns spent in each `Fleet::offer`.
    pub fn offer_wave(
        &mut self,
        inputs: &Inputs,
        wave: u64,
        wave_start_ns: u64,
        tracer: &mut Tracer,
    ) -> Vec<u64> {
        let mut offer_ns = Vec::new();
        for _ in 0..arrivals(self.seed, wave) {
            let index = self.offers.len() as u64;
            let mut rng = SplitMix64::derive(self.seed ^ ARRIVAL_KEY, (1 << 40) + index);
            let root = inputs.fleet_positions[rng.next_below(FLEET_POSITIONS as u32) as usize];
            let config = MctsConfig::default().with_seed(rng.next_u64());
            let priority = Priority::ALL[(index % 3) as usize];
            let span = tracer.enter("core.fleet.offer", index);
            let start = Instant::now();
            self.fleet.offer(
                root,
                SearchBudget::VirtualTime(FLEET_BUDGET),
                config,
                priority,
                Some(FLEET_BUDGET),
            );
            offer_ns.push(start.elapsed().as_nanos() as u64);
            tracer.exit(span);
            self.offers.push((root, wave_start_ns));
        }
        offer_ns
    }

    /// Checks and records the sessions retired by the last wave.
    pub fn retire(&mut self, now_ns: u64, problems: &mut Problems, out: &mut Vec<Sample>) {
        for c in self.fleet.take_completed() {
            let (root, offered_ns) = self.offers[c.id.0 as usize];
            let what = format!("fleet session {}", c.id);
            let mut ok = check_report(problems, &what, &root, &c.report);
            ok &= problems.check(c.completed_at - c.admitted_at == c.report.elapsed, || {
                format!("{what}: completed_at - admitted_at != elapsed")
            });
            let mut words = vec![c.id.0, c.shard.0 as u64, c.priority.index() as u64];
            words.extend([
                c.admitted_at.as_nanos(),
                c.completed_at.as_nanos(),
                u64::from(c.migrations),
            ]);
            words.extend(report_words(&c.report));
            out.push(Sample {
                host_ns: now_ns - offered_ns,
                virtual_ns: c.report.elapsed.as_nanos(),
                kernel_ns: c.report.phases.kernel.as_nanos(),
                queue_ns: c.report.phases.queue.as_nanos(),
                simulations: c.report.simulations,
                good: ok && c.slo.is_some_and(|slo| c.report.elapsed <= slo),
                fingerprint: Fingerprint::of(&words),
                root,
                nodes_per_tree: c.report.tree_nodes as f64,
            });
        }
    }

    pub fn offered(&self) -> u64 {
        self.offers.len() as u64
    }

    /// Checks the admission identities once the fleet has drained.
    pub fn check_drained(&self, retired: usize, problems: &mut Problems) {
        let s = self.fleet.stats();
        problems.check(s.offered == s.admitted + s.rejected, || {
            format!(
                "fleet: offered {} != admitted {} + rejected {}",
                s.offered, s.admitted, s.rejected
            )
        });
        problems.check(s.offered == self.offered(), || {
            "fleet: offer count drifted".into()
        });
        problems.check(retired as u64 == s.admitted, || {
            format!("fleet: {retired} sessions retired, {} admitted", s.admitted)
        });
    }

    /// A fingerprint of the admission counters.
    pub fn stats_fingerprint(&self) -> u64 {
        let s = self.fleet.stats();
        Fingerprint::of(&[s.offered, s.admitted, s.queued, s.rejected, s.replaced])
    }
}

fn run_fleet(env: &Env, inputs: &Inputs, plan: &Plan, rec: &mut Recorder<'_>) {
    let mut harness = FleetHarness::new(env.devices.clone(), plan.seed);
    let start = Instant::now();
    let mut wave = 0u64;
    loop {
        wave += 1;
        let offering = wave <= plan.waves;
        let spans_on = rec.mixed && traced(plan.seed, wave);
        rec.tracer.set_enabled(spans_on);
        let wave_start = start.elapsed().as_nanos() as u64;
        let span = rec.tracer.enter("harness.wave", wave);
        if offering {
            harness.offer_wave(inputs, wave, wave_start, rec.tracer);
        }
        let step = rec.tracer.enter("core.fleet.step_wave", wave);
        let progressed = harness.fleet.step_wave();
        rec.tracer.exit(step);
        let now = start.elapsed().as_nanos() as u64;
        harness.retire(now, rec.problems, &mut rec.out.samples);
        rec.tracer.exit(span);
        rec.out.units.push((now - wave_start, spans_on));
        if wave == FLEET_REPLAY_WAVES {
            rec.out.replay_prefix = rec.out.samples.iter().map(|s| s.fingerprint).collect();
            rec.out.replay_prefix.push(harness.stats_fingerprint());
        }
        progress("run", harness.offered(), false);
        if !offering && !progressed {
            break;
        }
    }
    rec.out.wall_ns = start.elapsed().as_nanos() as u64;
    harness.check_drained(rec.out.samples.len(), rec.problems);
    rec.out.offered = harness.offered();
    rec.out.virtual_elapsed_ns = harness.fleet.makespan().as_nanos();
}

/// Runs the workload's measured loop. With `mixed`, a seeded half of the
/// requests (fleet: waves) run with spans on.
pub fn run(
    env: &Env,
    inputs: &Inputs,
    plan: &Plan,
    tracer: &mut Tracer,
    mixed: bool,
    problems: &mut Problems,
) -> RunOutput {
    let mut rec = Recorder {
        tracer,
        mixed,
        problems,
        out: RunOutput::default(),
    };
    match plan.workload {
        Workload::FleetServe => run_fleet(env, inputs, plan, &mut rec),
        _ => run_match(env, inputs, plan, &mut rec),
    }
    rec.tracer.set_enabled(mixed);
    rec.out
}

/// Warm-up before timing: one search per scheme the workload runs (fleet:
/// a short throwaway fleet), so code and caches are paged in.
pub fn warm_up(env: &Env, inputs: &Inputs, plan: &Plan, problems: &mut Problems) {
    let mut tracer = Tracer::new(false);
    match plan.workload {
        Workload::FleetServe => {
            let mut harness = FleetHarness::new(env.devices.clone(), plan.seed ^ 0x3A2);
            for wave in 1..=FLEET_WARM_UP_WAVES {
                harness.offer_wave(inputs, wave, 0, &mut tracer);
                harness.fleet.step_wave();
                harness.fleet.take_completed();
            }
        }
        _ => {
            let root = inputs.openings[0][0];
            for &(a, b) in plan.workload.pairings() {
                for scheme in [a, b] {
                    let report = scheme
                        .searcher(plan.seed ^ 0x3A2, env.device())
                        .search(root, SearchBudget::VirtualTime(plan.workload.move_budget()));
                    check_report(problems, "warm-up", &root, &report);
                }
            }
        }
    }
}

/// Replays the run's prefix on a fresh one-thread pool and compares every
/// fingerprint with the run's; returns the requests replayed. The replay
/// pool is dropped here, inside the watched region.
pub fn replay(inputs: &Inputs, plan: &Plan, expected: &[u64], problems: &mut Problems) -> u64 {
    let env = Env::for_workload(plan.workload, 1);
    let mut tracer = Tracer::new(false);
    let mut fresh = Problems::default();
    let got: Vec<u64> = match plan.workload {
        Workload::FleetServe => {
            let mut harness = FleetHarness::new(env.devices.clone(), plan.seed);
            let mut retired = Vec::new();
            for wave in 1..=FLEET_REPLAY_WAVES {
                harness.offer_wave(inputs, wave, 0, &mut tracer);
                harness.fleet.step_wave();
                harness.retire(0, &mut fresh, &mut retired);
                progress("replay", wave, false);
            }
            let mut fps: Vec<u64> = retired.iter().map(|s| s.fingerprint).collect();
            fps.push(harness.stats_fingerprint());
            fps
        }
        _ => {
            let mut rec = Recorder {
                tracer: &mut tracer,
                mixed: false,
                problems: &mut fresh,
                out: RunOutput::default(),
            };
            play_round(plan, inputs, 0, env.device(), expected.len(), &mut rec);
            rec.out.samples.iter().map(|s| s.fingerprint).collect()
        }
    };
    env.shutdown();
    let mismatched = got.len().abs_diff(expected.len())
        + got.iter().zip(expected).filter(|(a, b)| a != b).count();
    for _ in 0..mismatched {
        problems.fail(format!(
            "{}: one-thread replay differs from the run",
            plan.workload.name()
        ));
    }
    for _ in 0..fresh.count() {
        problems.fail("replay request failed its checks");
    }
    got.len() as u64
}
