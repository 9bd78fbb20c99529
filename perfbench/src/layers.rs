//! Per-layer probes of the traced run.
//!
//! Each probe calls one layer's public functions on the run's own
//! positions, inside spans, and reports host time per operation (median
//! over repetitions) plus the layer's work counts. Every probe also checks
//! its results where the layer promises an identity: lane batches equal
//! scalar playouts, and launch outputs do not depend on the pool size.

use crate::stats::{median, progress, Metrics, Problems};
use crate::trace::Tracer;
use crate::workload::{
    paper_grid, Env, FleetHarness, Inputs, Plan, Scheme, Workload, FLEET_DEVICES,
};
use pmcts_core::gpu::PlayoutKernel;
use pmcts_core::prelude::*;
use pmcts_core::tree::SearchTree;
use pmcts_games::{random_playout, LaneBatch, PlayoutResult};
use pmcts_util::Xoshiro256pp;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
const PLAYOUTS_PER_REP: usize = 4096;
const LAUNCH_REPS: u64 = 9;
const SMALL_LAUNCH_REPS: u64 = 60;
const POOL_CALLS_PER_REP: usize = 200;
const POOL_REPS: usize = 15;
const TREE_OPS: usize = 20_000;
const SCHEME_SEARCHES: usize = 3;
const FLEET_PROBE_WAVES: u64 = 400;
/// UCB exploration constant used to grow and walk the probe tree.
const EXPLORATION_C: f64 = std::f64::consts::SQRT_2;

/// What the probes work on, taken from the measured run.
pub struct ProbeInputs {
    /// At least 112 non-terminal positions the run searched.
    pub positions: Vec<Reversi>,
    /// Median nodes per search tree the run's searches grew.
    pub nodes_per_tree: usize,
    pub budget: SimTime,
    pub seed: u64,
}

/// Times `reps` repetitions of `f` inside spans named `span`; returns the
/// median repetition in ns.
fn timed_reps(
    tracer: &mut Tracer,
    span: &'static str,
    reps: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let s = tracer.enter(span, rep as u64);
        let start = Instant::now();
        f(rep);
        times.push(start.elapsed().as_nanos() as f64);
        tracer.exit(s);
    }
    median(&times)
}

fn lane_rng(seed: u64, playout: usize) -> Xoshiro256pp {
    Xoshiro256pp::derive(seed ^ 0x1A9E, playout as u64)
}

fn playout_word(r: &PlayoutResult) -> (u32, Outcome, i32) {
    (r.plies, r.outcome, r.final_score)
}

/// `LaneBatch::run` at width `N` over the positions; returns ns per
/// playout and every result in playout order.
fn lane_playouts<const N: usize>(
    tracer: &mut Tracer,
    span: &'static str,
    p: &ProbeInputs,
) -> (f64, Vec<(u32, Outcome, i32)>) {
    let n = p.positions.len();
    let mut results = Vec::with_capacity(PLAYOUTS_PER_REP);
    let ns = timed_reps(tracer, span, REPS, |rep| {
        for base in (0..PLAYOUTS_PER_REP).step_by(N) {
            let roots: [Reversi; N] = std::array::from_fn(|i| p.positions[(base + i) % n]);
            let rngs = std::array::from_fn(|i| lane_rng(p.seed, base + i));
            let out = black_box(LaneBatch::new(roots, rngs).run());
            if rep == 0 {
                results.extend(out.iter().map(playout_word));
            }
        }
    });
    (ns / PLAYOUTS_PER_REP as f64, results)
}

fn probe_games(tracer: &mut Tracer, p: &ProbeInputs, m: &mut Metrics, problems: &mut Problems) {
    let n = p.positions.len();
    let (lane8, r8) = lane_playouts::<8>(tracer, "games.lane_batch8.run", p);
    let (lane1, r1) = lane_playouts::<1>(tracer, "games.lane_batch1.run", p);
    let mut scalar = Vec::with_capacity(PLAYOUTS_PER_REP);
    let playout_ns = timed_reps(tracer, "games.random_playout", REPS, |rep| {
        for i in 0..PLAYOUTS_PER_REP {
            let r = black_box(random_playout(p.positions[i % n], &mut lane_rng(p.seed, i)));
            if rep == 0 {
                scalar.push(playout_word(&r));
            }
        }
    }) / PLAYOUTS_PER_REP as f64;
    problems.check(r8 == scalar && r1 == scalar, || {
        "games: LaneBatch results differ from scalar random_playout".into()
    });
    let plies: u64 = scalar.iter().map(|r| u64::from(r.0)).sum();
    m.add("games.lane8_playout_ns", lane8, "ns");
    m.add("games.lane1_playout_ns", lane1, "ns");
    m.add("games.playout_ns", playout_ns, "ns");
    m.add(
        "games.plies_per_playout",
        plies as f64 / scalar.len() as f64,
        "count",
    );
    m.add("gap.lane8_speedup_over_lane1", lane1 / lane8, "x");
}

/// `Device::launch` of the playout kernel at `grid`, `reps` times with
/// fresh stream seeds; returns the median launch ns, the lane efficiency
/// and a checksum of every output.
fn launches(
    tracer: &mut Tracer,
    device: &Device,
    grid: LaunchConfig,
    reps: u64,
    p: &ProbeInputs,
) -> (f64, f64, Vec<u8>) {
    let roots: Vec<Reversi> = p
        .positions
        .iter()
        .copied()
        .cycle()
        .take(grid.blocks as usize)
        .collect();
    let (mut useful, mut idle) = (0u64, 0u64);
    let mut outputs = Vec::new();
    let ns = timed_reps(tracer, "gpu_sim.launch", reps as usize, |rep| {
        let kernel = PlayoutKernel::new(roots.clone(), p.seed.wrapping_add(rep as u64));
        let result = device.launch(&kernel, grid);
        useful += result.stats.lane_steps;
        idle += result.stats.idle_lane_steps;
        outputs.extend(result.outputs.iter().map(|o| *o as u8));
    });
    (ns, useful as f64 / (useful + idle).max(1) as f64, outputs)
}

fn probe_gpu_sim(
    tracer: &mut Tracer,
    env: &Env,
    p: &ProbeInputs,
    m: &mut Metrics,
    problems: &mut Problems,
) {
    let grid = paper_grid();
    let (launch_n, efficiency, out_n) = launches(tracer, env.device(), grid, LAUNCH_REPS, p);
    progress("probe.launch_1thread", 0, true);
    let single = Env::new(1, 1);
    let (launch_1, _, out_1) = launches(tracer, single.device(), grid, LAUNCH_REPS, p);
    single.shutdown();
    problems.check(out_n == out_1, || {
        "gpu_sim: launch outputs depend on pool size".into()
    });
    let fleet_grid = LaunchConfig::new(16, 32);
    let (small, _, _) = launches(tracer, env.device(), fleet_grid, SMALL_LAUNCH_REPS, p);
    m.add("gpu_sim.launch_ms", launch_n / 1e6, "ms");
    m.add("gpu_sim.launch_scaling", launch_1 / launch_n, "x");
    m.add("gpu_sim.lane_efficiency", efficiency, "ratio");
    m.add("gpu_sim.small_launch_us", small / 1e3, "us");

    let pool = &env.pool;
    let participants = pool.size();
    let scoped = timed_reps(tracer, "gpu_sim.pool.run_scoped", POOL_REPS, |_| {
        for _ in 0..POOL_CALLS_PER_REP {
            pool.run_scoped(participants, |i| {
                black_box(i);
            });
        }
    }) / POOL_CALLS_PER_REP as f64;
    let mut items: Vec<u64> = (0..u64::from(grid.blocks)).collect();
    let mapped = timed_reps(tracer, "gpu_sim.pool.map_indexed", POOL_REPS, |_| {
        for _ in 0..POOL_CALLS_PER_REP {
            black_box(pool.map_indexed(&mut items, |i, x| {
                *x = x.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                *x
            }));
        }
    }) / POOL_CALLS_PER_REP as f64;
    m.add("gpu_sim.pool.run_scoped_us", scoped / 1e3, "us");
    m.add("gpu_sim.pool.map_indexed_us", mapped / 1e3, "us");
}

fn probe_tree(tracer: &mut Tracer, p: &ProbeInputs, m: &mut Metrics) {
    let mut rng = Xoshiro256pp::new(p.seed ^ 0x7EE);
    let mut tree = SearchTree::new(p.positions[0]);
    let mut i = 0u64;
    while tree.len() < p.nodes_per_tree && i < 4 * p.nodes_per_tree as u64 {
        let id = tree.select(EXPLORATION_C);
        let node = if tree.fully_expanded(id) {
            id
        } else {
            tree.expand(id, &mut rng)
        };
        tree.backprop(node, (i % 3) as f64 / 2.0, 1);
        i += 1;
    }
    let select = timed_reps(tracer, "core.tree.select", REPS, |_| {
        for _ in 0..TREE_OPS {
            black_box(tree.select(EXPLORATION_C));
        }
    }) / TREE_OPS as f64;
    let expandable: Vec<u32> = (0..tree.len() as u32)
        .filter(|&id| tree.untried_len(id) > 0)
        .collect();
    let mut expand_ops = 0;
    let expand = timed_reps(tracer, "core.tree.expand", REPS, |_| {
        let mut t = tree.clone();
        expand_ops = 0;
        for &id in expandable.iter().cycle().take(TREE_OPS) {
            if t.untried_len(id) > 0 {
                black_box(t.expand(id, &mut rng));
                expand_ops += 1;
            }
        }
    });
    let leaf = (0..tree.len() as u32)
        .max_by_key(|&id| tree.depth(id))
        .unwrap_or(0);
    let backprop = timed_reps(tracer, "core.tree.backprop", REPS, |_| {
        let mut t = tree.clone();
        for k in 0..TREE_OPS {
            t.backprop(leaf, (k % 3) as f64 / 2.0, 1);
        }
        black_box(t.visits(leaf));
    }) / TREE_OPS as f64;
    m.add("core.tree.select_ns", select, "ns");
    m.add(
        "core.tree.expand_ns",
        expand / expand_ops.max(1) as f64,
        "ns",
    );
    m.add("core.tree.backprop_ns", backprop, "ns");
    m.add("core.tree.nodes_per_tree", tree.len() as f64, "count");
}

fn probe_schemes(
    tracer: &mut Tracer,
    env: &Env,
    p: &ProbeInputs,
    m: &mut Metrics,
    problems: &mut Problems,
) {
    let mut ns_per_playout = [0.0; Scheme::ALL.len()];
    for (k, scheme) in Scheme::ALL.into_iter().enumerate() {
        progress("probe.schemes", k as u64, true);
        let (mut host, mut sims, mut launches, mut shadow) = (Vec::new(), 0u64, 0u64, 0u64);
        for (i, &root) in p.positions.iter().take(SCHEME_SEARCHES).enumerate() {
            let mut searcher = scheme.searcher(p.seed.wrapping_add(i as u64), env.device());
            let span = tracer.enter(scheme.span(), i as u64);
            let start = Instant::now();
            let report = searcher.search(root, SearchBudget::VirtualTime(p.budget));
            host.push(start.elapsed().as_nanos() as f64);
            tracer.exit(span);
            problems.check(
                report.phases.phase_sum() == report.elapsed && report.best_move.is_some(),
                || format!("probe {}: bad report", scheme.name()),
            );
            sims += report.simulations;
            launches += report.phases.kernel_launches;
            shadow += report.phases.shadow_iterations;
        }
        let searches = host.len() as f64;
        ns_per_playout[k] = host.iter().sum::<f64>() / sims.max(1) as f64;
        let name = scheme.name();
        m.add(format!("core.{name}.search_ms"), median(&host) / 1e6, "ms");
        m.add(
            format!("core.{name}.host_ns_per_playout"),
            ns_per_playout[k],
            "ns",
        );
        m.add(
            format!("core.{name}.kernel_launches"),
            launches as f64 / searches,
            "count",
        );
        if scheme == Scheme::Hybrid {
            m.add(
                "core.hybrid.shadow_iterations",
                shadow as f64 / searches,
                "count",
            );
        }
    }
    let at = |s: Scheme| {
        let k = Scheme::ALL.iter().position(|&x| x == s);
        ns_per_playout[k.expect("every scheme is in Scheme::ALL")]
    };
    m.add(
        "gap.device_tree_over_block_parallel",
        at(Scheme::DeviceTree) / at(Scheme::BlockParallel),
        "x",
    );
}

fn probe_fleet(
    tracer: &mut Tracer,
    env: &Env,
    p: &ProbeInputs,
    m: &mut Metrics,
    problems: &mut Problems,
) {
    // The fleet_serve arrival schedule on four devices sharing the pool.
    let inputs = Inputs::generate(&Plan::new(Workload::FleetServe, p.seed, 1.0));
    let devices = (0..FLEET_DEVICES).map(|_| env.device().clone()).collect();
    let mut harness = FleetHarness::new(devices, p.seed);
    let (mut offer_ns, mut step_ns, mut retired) = (Vec::new(), Vec::new(), Vec::new());
    for wave in 1..=FLEET_PROBE_WAVES {
        offer_ns.extend(
            harness
                .offer_wave(&inputs, wave, 0, tracer)
                .into_iter()
                .map(|n| n as f64),
        );
        let span = tracer.enter("core.fleet.step_wave", wave);
        let start = Instant::now();
        harness.fleet.step_wave();
        step_ns.push(start.elapsed().as_nanos() as f64);
        tracer.exit(span);
        harness.retire(0, problems, &mut retired);
    }
    let stats = harness.fleet.stats();
    let shards = harness.fleet.shards();
    let launches: u64 = shards.iter().map(|s| s.launches).sum();
    let blocks: u64 = shards.iter().map(|s| s.blocks).sum();
    let queue: u64 = retired.iter().map(|s| s.queue_ns).sum();
    let elapsed: u64 = retired.iter().map(|s| s.virtual_ns).sum();
    m.add("core.fleet.step_wave_ms", median(&step_ns) / 1e6, "ms");
    m.add("core.fleet.offer_us", median(&offer_ns) / 1e3, "us");
    m.add(
        "core.fleet.sessions_per_launch",
        blocks as f64 / launches.max(1) as f64,
        "count",
    );
    m.add("core.fleet.queued", stats.queued as f64, "count");
    m.add("core.fleet.rejected", stats.rejected as f64, "count");
    m.add(
        "core.service.queue_share",
        queue as f64 / elapsed.max(1) as f64,
        "ratio",
    );
}

/// Runs every probe, adding its metrics to `m`.
pub fn run_probes(
    tracer: &mut Tracer,
    env: &Env,
    p: &ProbeInputs,
    m: &mut Metrics,
    problems: &mut Problems,
) {
    progress("probe.games", 0, true);
    probe_games(tracer, p, m, problems);
    progress("probe.gpu_sim", 0, true);
    probe_gpu_sim(tracer, env, p, m, problems);
    progress("probe.tree", 0, true);
    probe_tree(tracer, p, m);
    probe_schemes(tracer, env, p, m, problems);
    progress("probe.fleet", 0, true);
    probe_fleet(tracer, env, p, m, problems);
}
