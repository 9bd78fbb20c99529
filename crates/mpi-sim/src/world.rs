//! World setup: spawn ranks, wire channels, collect results.

use crate::comm::{Comm, Envelope};
use std::sync::mpsc::channel;

/// Entry point of the simulated MPI runtime.
pub struct World;

impl World {
    /// Runs `f` on `size` ranks, each on its own thread, and returns the
    /// per-rank results in rank order (like `mpirun` + a final gather).
    ///
    /// `f` receives the rank's [`Comm`]. The call blocks until every rank
    /// returns; a panic in any rank propagates.
    ///
    /// # Panics
    /// Panics if `size == 0` or if any rank panics.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(size > 0, "world must have at least one rank");
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..size).map(|_| channel::<Envelope>()).unzip();
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, inbox)| {
                    let senders = senders.clone();
                    scope.spawn(move || f(Comm::new(rank, size, senders, inbox)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            comm.allreduce(5u32, |a, b| a + b)
        });
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn allreduce_sums_on_all_ranks() {
        let out = World::run(5, |comm| comm.allreduce(comm.rank() as u64, |a, b| a + b));
        assert_eq!(out, vec![10; 5]);
    }

    #[test]
    fn allreduce_folds_in_rank_order() {
        // Non-commutative fold: string concatenation proves ordering.
        let out = World::run(3, |comm| {
            comm.allreduce(comm.rank().to_string(), |a, b| a + &b)
        });
        assert_eq!(out, vec!["012".to_string(); 3]);
    }

    #[test]
    fn allreduce_sparse_folds_survivors_in_rank_order() {
        // Rank 2 contributes nothing; non-commutative fold proves ordering
        // over exactly the survivors.
        let out = World::run(4, |comm| {
            let v = (comm.rank() != 2).then(|| comm.rank().to_string());
            comm.allreduce_sparse(v, |a, b| a + &b)
        });
        assert_eq!(out, vec![Some("013".to_string()); 4]);
    }

    #[test]
    fn allreduce_sparse_with_all_contributors_matches_allreduce() {
        let out = World::run(5, |comm| {
            let dense = comm.allreduce(comm.rank() as u64, |a, b| a + b);
            let sparse = comm.allreduce_sparse(Some(comm.rank() as u64), |a, b| a + b);
            (dense, sparse)
        });
        for (dense, sparse) in out {
            assert_eq!(sparse, Some(dense));
        }
    }

    #[test]
    fn allreduce_sparse_with_no_contributors_is_none() {
        let out = World::run(3, |comm| comm.allreduce_sparse(None::<u32>, |a, b| a + b));
        assert_eq!(out, vec![None; 3]);
    }

    #[test]
    fn allreduce_sparse_survives_dead_root_contribution() {
        // Rank 0 coordinates the collective but contributes nothing.
        let out = World::run(3, |comm| {
            let v = (comm.rank() != 0).then_some(1u32);
            comm.allreduce_sparse(v, |a, b| a + b)
        });
        assert_eq!(out, vec![Some(2); 3]);
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        let out = World::run(3, |comm| {
            let a = comm.allreduce(1u32, |x, y| x + y);
            let b = comm.allreduce(10u32, |x, y| x + y);
            let c = comm.allreduce(100u32, |x, y| x + y);
            (a, b, c)
        });
        for r in out {
            assert_eq!(r, (3, 30, 300));
        }
    }

    #[test]
    fn many_ranks_stress() {
        let out = World::run(32, |comm| {
            let sum = comm.allreduce(comm.rank() as u64, |a, b| a + b);
            let again = comm.allreduce(comm.rank() as u64, |a, b| a + b);
            assert_eq!(sum, again);
            sum
        });
        assert_eq!(out, vec![(0..32u64).sum::<u64>(); 32]);
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn rank_panic_propagates() {
        World::run(2, |comm| assert_eq!(comm.rank(), 0));
    }
}
