//! The per-rank communicator: the allreduce collectives, built on typed
//! messages between rank threads.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::mpsc::{Receiver, Sender};

/// An envelope travelling between ranks.
pub(crate) struct Envelope {
    src: usize,
    tag: u64,
    payload: Box<dyn Any + Send>,
}

/// A rank identity, `0..world size`.
///
/// Layers *above* the communicator (the fleet sharding in `pmcts-core`
/// uses one simulated device per rank) carry rank identity in this type
/// instead of inventing a parallel id space. Ordering is numeric rank
/// order — the same order every deterministic tie-break in the workspace
/// uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub usize);

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A rank's handle to the simulated MPI world.
///
/// One `Comm` is owned by each rank thread; it is not `Sync` (MPI
/// communicators are per-process too). Messages are typed: a receive must
/// match the type that was sent, otherwise it panics — in real MPI this
/// would be a datatype mismatch, undefined behaviour; here it fails loudly.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Messages received but not yet matched by a `recv` (out-of-order
    /// arrivals with different src/tag).
    stash: RefCell<Vec<Envelope>>,
    /// Per-collective-call sequence number, used as the message tag, so
    /// back-to-back collectives cannot confuse each other's messages.
    coll_seq: Cell<u64>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
    ) -> Self {
        Comm {
            rank,
            size,
            senders,
            inbox,
            stash: RefCell::new(Vec::new()),
            coll_seq: Cell::new(0),
        }
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Sends `value` to `dest` with `tag`. Sends never block.
    fn send<T: Send + 'static>(&self, dest: usize, tag: u64, value: T) {
        self.senders[dest]
            .send(Envelope {
                src: self.rank,
                tag,
                payload: Box::new(value),
            })
            .expect("destination rank hung up");
    }

    /// Receives the next message from `src` with `tag`, blocking.
    ///
    /// Messages from other (src, tag) pairs arriving in between are stashed
    /// and delivered to their own matching `recv` calls later.
    fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        let matches = |e: &Envelope| e.src == src && e.tag == tag;
        let stashed = {
            let mut stash = self.stash.borrow_mut();
            let pos = stash.iter().position(matches);
            pos.map(|pos| stash.swap_remove(pos))
        };
        let env = stashed.unwrap_or_else(|| loop {
            let env = self.inbox.recv().expect("world shut down during recv");
            if matches(&env) {
                break env;
            }
            self.stash.borrow_mut().push(env);
        });
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving from rank {src} tag {tag:#x}: expected {}",
                std::any::type_name::<T>()
            )
        })
    }

    fn next_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        seq
    }

    /// Broadcasts rank 0's value to every rank. Rank 0 must pass
    /// `Some(value)`; other ranks pass `None`.
    fn broadcast<T: Clone + Send + 'static>(&self, value: Option<T>) -> T {
        let tag = self.next_tag();
        if self.rank == 0 {
            let value = value.expect("broadcast root must supply a value");
            for dest in 1..self.size {
                self.send(dest, tag, value.clone());
            }
            value
        } else {
            self.recv(0, tag)
        }
    }

    /// Gathers every rank's `value` to rank 0 in rank order (`None`
    /// elsewhere).
    fn gather<T: Send + 'static>(&self, value: T) -> Option<Vec<T>> {
        let tag = self.next_tag();
        if self.rank == 0 {
            let rest = (1..self.size).map(|src| self.recv(src, tag));
            Some(std::iter::once(value).chain(rest).collect())
        } else {
            self.send(0, tag, value);
            None
        }
    }

    /// Reduce-to-all: every rank receives the rank-ordered fold of all
    /// values (deterministic for non-commutative folds).
    pub fn allreduce<T, F>(&self, value: T, fold: F) -> T
    where
        T: Clone + Send + 'static,
        F: FnMut(T, T) -> T,
    {
        self.allreduce_sparse(Some(value), fold)
            .expect("every rank contributed")
    }

    /// Allreduce over the ranks that have something to contribute.
    ///
    /// Every rank participates in the collective (so no rank can deadlock
    /// waiting for a peer that has nothing to say), but a rank may pass
    /// `None` — a dead rank's stand-in, or a contribution lost in transit.
    /// The surviving values are folded in ascending rank order and the fold
    /// is broadcast back; returns `None` only if *every* rank passed `None`.
    ///
    /// This is the degraded-mode collective behind the fault-tolerant
    /// multi-GPU / multi-node searchers: merged root statistics stay
    /// additive over exactly the surviving contributors.
    pub fn allreduce_sparse<T, F>(&self, value: Option<T>, fold: F) -> Option<T>
    where
        T: Clone + Send + 'static,
        F: FnMut(T, T) -> T,
    {
        let reduced = self.gather(value).map(|parts| {
            let mut iter = parts.into_iter().flatten();
            iter.next().map(|first| iter.fold(first, fold))
        });
        self.broadcast(reduced)
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::World;

    #[test]
    fn out_of_order_tags_are_stashed() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                comm.send(1, 2, 20u32);
                comm.send(1, 1, 10u32);
                0
            } else {
                let first: u32 = comm.recv(0, 1);
                let second: u32 = comm.recv(0, 2);
                assert_eq!((first, second), (10, 20));
                first + second
            }
        });
        assert_eq!(out[1], 30);
    }

    #[test]
    fn type_mismatch_panics_loudly() {
        // Sending u32 but receiving u64 must panic with a clear message.
        let result = std::panic::catch_unwind(|| {
            World::run(2, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, 42u32);
                } else {
                    let _: u64 = comm.recv(0, 1);
                }
            });
        });
        assert!(result.is_err());
    }
}
