//! Root parallelism on CPU threads — paper Fig. 2b, refs \[3\]\[4\].
//!
//! `n` threads build `n` completely independent trees over the same root
//! (no communication until the end), then root statistics are merged by
//! summation and the most-visited move wins. This is the scheme the authors
//! scaled to thousands of CPU cores in ref \[4\] and the baseline the GPU
//! player is compared against in Fig. 7 ("one GPU can be compared to
//! 100–200 CPU threads").
//!
//! Budget semantics are wall-clock-like: every thread receives the full
//! virtual budget, because the real threads run concurrently.
//!
//! This module also holds the cluster-scale form of the same merge:
//! `search_ranks`, the one MPI rank driver behind
//! [`MultiGpuSearcher`](crate::multi_gpu::MultiGpuSearcher) and
//! [`MultiNodeCpuSearcher`](crate::multi_node_cpu::MultiNodeCpuSearcher).

use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::{empty_report, SearchReport, Searcher};
use crate::sequential::SequentialSearcher;
use crate::telemetry::PhaseBreakdown;
use crate::tree::{best_from_stats, merge_root_stats, RootStat};
use pmcts_games::Game;
use pmcts_gpu_sim::WorkerPool;
use pmcts_mpi_sim::{NetworkModel, World};
use pmcts_util::{FaultCounters, FaultPlan, SimTime};
use std::sync::Arc;

/// Root-parallel CPU searcher: `n` independent trees, one per simulated
/// CPU thread.
///
/// The number of *simulated* CPU threads (= trees) is decoupled from the
/// number of real host worker threads: a 256-"CPU" player works fine on a
/// 8-core machine because every tree's time is virtual. Results are
/// bit-identical regardless of the host worker count.
#[derive(Clone, Debug)]
pub struct RootParallelSearcher<G: Game> {
    config: MctsConfig,
    threads: usize,
    /// Persistent host workers the trees are distributed over — owned by
    /// default, or shared (e.g. with a simulated device) via
    /// [`with_pool`](Self::with_pool).
    pool: Arc<WorkerPool>,
    /// Base stream offset so distinct searchers draw disjoint randomness.
    stream_base: u64,
    /// Bumped every search so consecutive moves explore differently.
    generation: u64,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> RootParallelSearcher<G> {
    /// Creates a root-parallel searcher over `threads` simulated CPU
    /// threads (= trees).
    pub fn new(config: MctsConfig, threads: usize) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(threads.max(1));
        Self::with_stream_on(config, threads, 0, Arc::new(WorkerPool::new(workers)))
    }

    /// Like [`new`](Self::new), with RNG stream base `stream_base` and the
    /// trees run on an existing `pool` (no thread creation).
    pub(crate) fn with_stream_on(
        config: MctsConfig,
        threads: usize,
        stream_base: u64,
        pool: Arc<WorkerPool>,
    ) -> Self {
        assert!(threads > 0, "need at least one thread");
        RootParallelSearcher {
            config,
            threads,
            pool,
            stream_base,
            generation: 0,
            _game: std::marker::PhantomData,
        }
    }

    /// Overrides the number of real host worker threads by rebuilding the
    /// owned pool (virtual timing is unaffected). `0` is treated as 1.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.pool = Arc::new(WorkerPool::new(workers.max(1).min(self.threads)));
        self
    }

    /// Shares an existing worker pool (e.g. a simulated device's) instead
    /// of owning one. Virtual timing and results are unaffected.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }
}

impl<G: Game> Searcher<G> for RootParallelSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        self.generation += 1;
        let config = &self.config;
        let gen = self.generation;
        let base = self.stream_base;

        // Each tree is an independent sequential search with its own RNG
        // stream; trees are distributed over the persistent worker pool and
        // merged at the end (no communication — exactly the paper's
        // scheme). Results are keyed by tree index, so merge order — and
        // hence the report — is identical for any pool size.
        // Dead-tree faults are keyed per (stream base, generation), so each
        // search draws a fresh schedule; tree 0 is never dead, so a merge
        // survivor always exists.
        let plan = config.faults;
        let fault_key = base ^ gen.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut slots = vec![(); self.threads];
        let reports = self.pool.map_indexed(&mut slots, |i, ()| {
            if plan.component_dead(fault_key, i as u64) {
                // A dead tree searches nothing and is excluded from the merge.
                let mut dead = empty_report();
                dead.phases.faults.injected = 1;
                dead.phases.faults.excluded = 1;
                return dead;
            }
            let stream = base
                .wrapping_add(i as u64)
                .wrapping_add(gen.wrapping_mul(0x1000 * 31));
            SequentialSearcher::<G>::with_stream(config.clone(), stream).search(root, budget)
        });

        let merged = merge_root_stats(
            &reports
                .iter()
                .map(|r| r.root_stats.clone())
                .collect::<Vec<_>>(),
        );
        merge_reports(&reports, merged, config, budget, SimTime::ZERO)
    }

    fn name(&self) -> String {
        format!("root parallelism ({} CPU threads)", self.threads)
    }
}

/// The root merge of concurrent component reports (trees or MPI ranks)
/// over their merged root statistics: work counters are summed, the
/// deepest tree is kept, and times fold along the critical component
/// ([`PhaseBreakdown::fold_concurrent`]) plus `merge_cost`.
fn merge_reports<M: Copy>(
    reports: &[SearchReport<M>],
    root_stats: Vec<RootStat<M>>,
    config: &MctsConfig,
    budget: SearchBudget,
    merge_cost: SimTime,
) -> SearchReport<M> {
    let (elapsed, phases) = PhaseBreakdown::fold_concurrent(
        reports.iter().map(|r| (r.elapsed, &r.phases)),
        merge_cost,
        budget,
    );
    SearchReport {
        best_move: best_from_stats(&root_stats, config.final_move),
        simulations: reports.iter().map(|r| r.simulations).sum(),
        iterations: reports.iter().map(|r| r.iterations).sum(),
        tree_nodes: reports.iter().map(|r| r.tree_nodes).sum(),
        max_depth: reports.iter().map(|r| r.max_depth).max().unwrap_or(0),
        elapsed,
        root_stats,
        phases,
    }
}

/// The rank driver of root parallelism across simulated MPI ranks
/// (multi-GPU and multi-node CPU): every live rank runs
/// `search_rank(rank)`, the surviving ranks' root statistics are merged
/// with one sparse allreduce, and the rank reports fold through
/// [`merge_reports`] with the allreduce charged to `merge`.
///
/// Faults are keyed by `gen`. A dead rank produces an empty report; it
/// still joins the collective (via the sparse allreduce) so nothing can
/// hang. A live rank may have its contribution dropped by the network: it
/// searched, but its statistics are excluded from the merge. Either is
/// one injected + one excluded fault. Rank 0 is never dead and never
/// dropped, so a merge always exists.
pub(crate) fn search_ranks<M, F>(
    config: &MctsConfig,
    ranks: usize,
    network: NetworkModel,
    gen: u64,
    budget: SearchBudget,
    search_rank: F,
) -> SearchReport<M>
where
    M: Copy + Eq + Send + 'static,
    F: Fn(u64) -> SearchReport<M> + Sync,
{
    let plan = config.faults;
    let per_rank = World::run(ranks, |comm| {
        let rank = comm.rank() as u64;
        let dead = plan.component_dead(gen, rank);
        let mut report = if dead {
            empty_report()
        } else {
            search_rank(rank)
        };
        let lost = dead || plan.drops_contribution(gen, rank);
        let contribution = (!lost).then(|| report.root_stats.clone());
        report.phases.faults.injected += u64::from(lost);
        report.phases.faults.excluded += u64::from(lost);
        let merged = comm.allreduce_sparse(contribution, |a, b| merge_root_stats(&[a, b]));
        (report, merged, lost)
    });

    let merged = per_rank[0].1.clone().unwrap_or_default();
    // Every rank must agree after the allreduce.
    debug_assert!(per_rank
        .iter()
        .all(|(_, m, _)| m.as_deref() == Some(&merged[..])));
    let failed = per_rank.iter().any(|&(_, _, lost)| lost);
    let stats_bytes = (merged.len() * std::mem::size_of::<RootStat<M>>()) as u64;
    let base = network.allreduce_time(stats_bytes, ranks);
    let mut faults = FaultCounters::default();
    let cost = rank_merge_cost(&plan, gen, failed, base, &mut faults);
    let reports: Vec<_> = per_rank.into_iter().map(|(r, _, _)| r).collect();
    let mut report = merge_reports(&reports, merged, config, budget, cost);
    report.phases.faults.absorb(&faults);
    report
}

/// Prices one cross-rank statistics merge: the detection *timeout* when
/// any rank `failed`, a delay-spiked allreduce (one more injected fault)
/// when the network schedule says so, `base` otherwise. Under
/// [`FaultPlan::none`] this is exactly `base`.
fn rank_merge_cost(
    plan: &FaultPlan,
    key: u64,
    failed: bool,
    base: SimTime,
    faults: &mut FaultCounters,
) -> SimTime {
    match plan.net_delay_spike(key, 0) {
        _ if failed => plan.net_timeout(base),
        Some(factor) => {
            faults.injected += 1;
            base * factor as u64
        }
        None => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{Reversi, TicTacToe};

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn merges_simulations_across_threads() {
        let mut s = RootParallelSearcher::<Reversi>::new(cfg(1), 4);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(100));
        assert_eq!(r.simulations, 400, "each thread runs the full budget");
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn elapsed_is_max_not_sum() {
        let mut s = RootParallelSearcher::<Reversi>::new(cfg(2), 8);
        let budget = pmcts_util::SimTime::from_millis(5);
        let r = s.search(Reversi::initial(), SearchBudget::VirtualTime(budget));
        // Concurrent threads: elapsed is one thread's time, near the budget,
        // not 8x the budget.
        assert!(r.elapsed >= budget / 2);
        assert!(r.elapsed < budget * 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            RootParallelSearcher::<Reversi>::new(cfg(seed), 3)
                .search(Reversi::initial(), SearchBudget::Iterations(50))
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.root_stats, b.root_stats);
        assert_eq!(a.best_move, b.best_move);
    }

    #[test]
    fn threads_explore_distinct_streams() {
        // With 2 threads the merged stats differ from a single tree doubled.
        let single = RootParallelSearcher::<Reversi>::new(cfg(6), 1)
            .search(Reversi::initial(), SearchBudget::Iterations(50));
        let double = RootParallelSearcher::<Reversi>::new(cfg(6), 2)
            .search(Reversi::initial(), SearchBudget::Iterations(50));
        let single_doubled: Vec<u64> = single.root_stats.iter().map(|s| s.visits * 2).collect();
        let merged: Vec<u64> = double.root_stats.iter().map(|s| s.visits).collect();
        assert_ne!(single_doubled, merged);
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher = RootParallelSearcher::<TicTacToe>::new(cfg(7), 4);
        let r = searcher.search(s, SearchBudget::Iterations(500));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn consecutive_searches_use_fresh_randomness() {
        let mut s = RootParallelSearcher::<Reversi>::new(cfg(8), 2);
        let a = s.search(Reversi::initial(), SearchBudget::Iterations(30));
        let b = s.search(Reversi::initial(), SearchBudget::Iterations(30));
        assert_ne!(
            a.root_stats, b.root_stats,
            "generation counter must vary streams between moves"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        RootParallelSearcher::<Reversi>::new(cfg(9), 0);
    }

    #[test]
    fn results_independent_of_host_worker_count() {
        let run = |workers| {
            RootParallelSearcher::<Reversi>::new(cfg(10), 16)
                .with_workers(workers)
                .search(Reversi::initial(), SearchBudget::Iterations(40))
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.root_stats, parallel.root_stats);
        assert_eq!(serial.elapsed, parallel.elapsed);
        assert_eq!(serial.best_move, parallel.best_move);
    }

    #[test]
    fn many_simulated_threads_on_few_workers() {
        // 128 simulated CPU threads must work on a small host.
        let mut s = RootParallelSearcher::<Reversi>::new(cfg(11), 128).with_workers(4);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(10));
        assert_eq!(r.simulations, 128 * 10);
    }
}
