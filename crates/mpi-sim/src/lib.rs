//! A simulated MPI layer.
//!
//! The paper's multi-GPU experiment (its Fig. 9) distributes root-parallel
//! MCTS over GPUs with MPI and merges root statistics with an allreduce.
//! This crate substitutes a faithful in-process model of exactly that: each
//! rank is an OS thread ([`World::run`]), messages are typed values over
//! channels, and [`Comm::allreduce`] / [`Comm::allreduce_sparse`] fold the
//! ranks' values in ascending rank order so results are reproducible.
//!
//! Communication *cost* is modelled, not measured: a [`NetworkModel`]
//! charges per-message latency plus bandwidth, and collectives cost
//! `ceil(log2(ranks))` rounds, the complexity of tree/dissemination
//! algorithms in real MPI implementations. Searchers add these virtual
//! costs to their search budgets the same way they charge simulated kernel
//! time.
//!
//! ```
//! use pmcts_mpi_sim::World;
//!
//! // Sum each rank's id with an allreduce on 4 ranks.
//! let results = World::run(4, |comm| {
//!     comm.allreduce(comm.rank() as u64, |a, b| a + b)
//! });
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! ```

pub mod comm;
pub mod network;
pub mod world;

pub use comm::{Comm, Rank};
pub use network::NetworkModel;
pub use world::World;
