//! Tree parallelism with virtual loss (Chaslot et al., the paper's ref \[3\]).
//!
//! All workers share **one** tree behind a lock; a worker descending the
//! tree applies a *virtual loss* (`vl` extra visits with zero reward) to
//! each node on its path so that concurrent workers are repelled from the
//! same line; after the playout the loss is removed and the real reward
//! added. The paper includes this scheme in its taxonomy precisely because
//! it does *not* map onto GPUs — it needs fine-grained synchronisation that
//! SIMD thread groups cannot afford — so it serves here as the CPU-side
//! contrast and completes the §III scheme inventory.
//!
//! The virtual loss is the tree's in-flight count `O`
//! ([`SearchTree::add_inflight_path`] / [`SearchTree::sub_inflight_path`]),
//! the counter WU-UCT registers its batches on, and [`SearchTree::select`]
//! scores `N + O` in both UCB terms. The locked section is therefore the
//! sequential searcher's `select_and_expand` plus one registration.
//!
//! Unlike the other searchers this one is *not* deterministic: interleaving
//! of workers depends on the OS scheduler. Tests therefore assert
//! statistical properties only.

use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::{SearchReport, Searcher};
use crate::sequential::select_and_expand;
use crate::telemetry::PhaseBreakdown;
use crate::tree::SearchTree;
use pmcts_games::{random_playout, Game, Player};
use pmcts_util::{SimTime, Xoshiro256pp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shared-tree CPU searcher with virtual loss.
#[derive(Clone, Debug)]
pub struct TreeParallelSearcher<G: Game> {
    config: MctsConfig,
    threads: usize,
    /// Virtual-loss weight: how many pretend losses a descending worker
    /// deposits on its path (1 is standard).
    virtual_loss: u32,
    generation: u64,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> TreeParallelSearcher<G> {
    /// Creates a tree-parallel searcher over `threads` workers.
    pub fn new(config: MctsConfig, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        TreeParallelSearcher {
            config,
            threads,
            virtual_loss: 1,
            generation: 0,
            _game: std::marker::PhantomData,
        }
    }

    /// Overrides the virtual-loss weight.
    ///
    /// # Panics
    /// Panics if `vl` does not fit the tree's `u32` in-flight counters.
    pub fn with_virtual_loss(mut self, vl: u64) -> Self {
        self.virtual_loss = u32::try_from(vl).expect("virtual loss exceeds u32");
        self
    }

    /// One worker's loop over the shared tree until the budget is spent;
    /// returns the worker's virtual elapsed time and phase breakdown.
    fn worker(
        &self,
        tree: &Mutex<SearchTree<G>>,
        claimed: &AtomicU64,
        w: usize,
        budget: SearchBudget,
    ) -> (SimTime, PhaseBreakdown) {
        let config = &self.config;
        let vl = self.virtual_loss;
        let mut rng =
            Xoshiro256pp::derive(config.seed, 0x7EEE ^ (w as u64) ^ (self.generation << 32));
        let cpu = config.cpu_cost;
        let mut elapsed = SimTime::ZERO;
        let mut mine = PhaseBreakdown::new();
        loop {
            // An iteration budget is shared: each worker claims slots from
            // one counter, so exactly n are run across workers.
            let spent = match budget {
                SearchBudget::Iterations(n) => claimed.fetch_add(1, Ordering::Relaxed) >= n,
                SearchBudget::VirtualTime(t) => elapsed >= t,
            };
            if spent {
                break;
            }
            // Selection + expansion + virtual loss under the lock: the
            // sequential host half, then `vl` in-flight playouts on the
            // path so concurrent workers are repelled from it.
            let (node, state, depth) = {
                let mut t = tree.lock().expect("tree lock poisoned");
                let (node, depth) = select_and_expand(&mut t, &mut rng, config, &mut mine);
                t.add_inflight_path(node, vl);
                (node, *t.state(node), depth)
            };
            let result = random_playout(state, &mut rng);
            {
                // Remove the virtual loss and apply the real result.
                let mut t = tree.lock().expect("tree lock poisoned");
                t.sub_inflight_path(node, vl);
                t.backprop(node, result.reward_for(Player::P1), 1);
            }
            elapsed += cpu.tree_op(depth) + cpu.playout(result.plies);
            mine.kernel += cpu.playout(result.plies);
            mine.simulations += 1;
        }
        (elapsed, mine)
    }
}

impl<G: Game> Searcher<G> for TreeParallelSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        self.generation += 1;
        let tree = Mutex::new(SearchTree::new(root));
        let slots = AtomicU64::new(0);
        let (this, shared, claimed) = (&*self, &tree, &slots);

        let worker_results: Vec<(SimTime, PhaseBreakdown)> = if root.is_terminal() {
            Vec::new()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..this.threads)
                    .map(|w| scope.spawn(move || this.worker(shared, claimed, w, budget)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("tree-parallel worker panicked"))
                    .collect()
            })
        };

        // Workers run concurrently and fold like root-parallel trees. Like
        // everything else in this searcher the breakdown depends on
        // scheduler interleaving.
        let (elapsed, phases) = PhaseBreakdown::fold_concurrent(
            worker_results.iter().map(|(e, p)| (*e, p)),
            SimTime::ZERO,
            budget,
        );
        let tree = tree.into_inner().expect("tree lock poisoned");
        // Every worker iteration is one simulation.
        let iterations = phases.simulations;
        SearchReport {
            best_move: tree.best_move(self.config.final_move),
            simulations: iterations,
            iterations,
            tree_nodes: tree.len() as u64,
            max_depth: tree.max_depth(),
            elapsed,
            root_stats: tree.root_stats(),
            phases,
        }
    }

    fn name(&self) -> String {
        format!(
            "tree parallelism ({} CPU threads, virtual loss)",
            self.threads
        )
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
    fn iteration_budget_is_exact() {
        let mut s = TreeParallelSearcher::<Reversi>::new(cfg(1), 4);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(200));
        assert_eq!(r.iterations, 200);
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, 200, "virtual losses must all be removed");
    }

    #[test]
    fn no_virtual_loss_residue() {
        let mut s = TreeParallelSearcher::<Reversi>::new(cfg(2), 8).with_virtual_loss(3);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(300));
        // Every node's visits are real simulation counts afterwards; root
        // children sum to the number of simulations.
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn single_thread_matches_sequential_semantics() {
        let mut s = TreeParallelSearcher::<Reversi>::new(cfg(3), 1);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(100));
        assert_eq!(r.simulations, 100);
        assert!(r.best_move.is_some());
        assert!(r.tree_nodes <= 101);
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher = TreeParallelSearcher::<TicTacToe>::new(cfg(4), 4);
        let r = searcher.search(s, SearchBudget::Iterations(2_000));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher = TreeParallelSearcher::<TicTacToe>::new(cfg(5), 4);
        let r = searcher.search(s, SearchBudget::Iterations(10));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }

    #[test]
    fn virtual_time_budget_terminates() {
        let mut s = TreeParallelSearcher::<Reversi>::new(cfg(6), 4);
        let r = s.search(
            Reversi::initial(),
            SearchBudget::VirtualTime(SimTime::from_millis(5)),
        );
        assert!(r.iterations > 0);
        assert!(r.elapsed >= SimTime::from_millis(5));
    }
}
