//! Random playouts — the Monte Carlo "simulation" step.
//!
//! A playout plays uniformly random legal moves from a starting state until
//! the game ends (paper §II: "a series of random moves which are performed
//! until the end of a game is reached"). The ply count is reported because
//! the simulated GPU charges kernel time proportional to the *longest*
//! playout in each warp — the SIMD divergence effect block-parallelism is
//! designed around.

use crate::game::{Game, MoveBuf, Outcome, Player};
use pmcts_util::{Rng64, Xoshiro256pp};

/// The result of one random playout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlayoutResult {
    /// The terminal outcome.
    pub outcome: Outcome,
    /// Number of plies played from the starting state to the end.
    pub plies: u32,
    /// Terminal score from P1's perspective (e.g. final disc difference).
    pub final_score: i32,
}

impl PlayoutResult {
    /// Reward in `[0, 1]` for `player`.
    #[inline]
    pub fn reward_for(&self, player: Player) -> f64 {
        self.outcome.reward_for(player)
    }
}

/// Runs one uniformly random playout from `state` to the end of the game.
///
/// # Panics
/// Panics if a game exceeds [`Game::MAX_GAME_LENGTH`] plies, which would
/// indicate a rules bug in the engine (e.g. an infinite pass loop).
pub fn random_playout<G: Game, R: Rng64>(mut state: G, rng: &mut R) -> PlayoutResult {
    // One move buffer for the whole playout: [`Game::random_move_with`]
    // reuses it every ply, so the hot loop performs no allocation (and no
    // per-ply buffer zeroing) regardless of the engine. Termination is
    // detected by move generation itself — `legal_moves` is non-empty iff
    // the state is non-terminal — so no separate `outcome()` probe runs per
    // ply. The RNG draw sequence is identical to the per-ply
    // `outcome()`-then-`random_move` formulation this replaces.
    let mut buf = MoveBuf::new();
    let mut plies = 0u32;
    while let Some(mv) = state.random_move_with(rng, &mut buf) {
        state.apply(mv);
        plies += 1;
        assert!(
            plies as usize <= G::MAX_GAME_LENGTH,
            "{} playout exceeded MAX_GAME_LENGTH={}",
            G::NAME,
            G::MAX_GAME_LENGTH
        );
    }
    let outcome = state
        .outcome()
        .expect("state without a legal move is terminal");
    PlayoutResult {
        outcome,
        plies,
        final_score: state.score(),
    }
}

/// A batch of `N` independent playout lanes advanced together.
///
/// This is the wall-clock fast path for the ~10⁵/s playout hot loop: `N`
/// boards, `N` RNG streams, and `N` fixed-capacity move buffers move in
/// lock-step, so game engines with bit-parallel kernels (Reversi) can
/// compute move masks and flip masks for all lanes back-to-back as
/// straight-line u64 code instead of one board at a time.
///
/// **Equivalence contract** (DESIGN.md §15): running a batch is
/// bit-identical to running `N` scalar [`random_playout`] calls, lane `i`
/// on `(roots[i], rngs[i])` — same [`PlayoutResult`]s *and* same final RNG
/// states. Lane batching is invisible to everything above it: virtual
/// time, fingerprints, and `SimTime` ledgers never observe it.
#[derive(Clone, Debug)]
pub struct LaneBatch<G: Game, const N: usize> {
    roots: [G; N],
    rngs: [Xoshiro256pp; N],
}

impl<G: Game, const N: usize> LaneBatch<G, N> {
    /// Builds a batch from per-lane roots and RNG streams.
    pub fn new(roots: [G; N], rngs: [Xoshiro256pp; N]) -> Self {
        Self { roots, rngs }
    }

    /// Runs every lane to completion via the game's lane engine
    /// ([`Game::lane_playouts`] — bit-parallel for Reversi, one scalar
    /// playout per lane otherwise).
    pub fn run(mut self) -> [PlayoutResult; N] {
        G::lane_playouts(&self.roots, &mut self.rngs)
    }

    /// Like [`run`](Self::run), but also returns the final RNG states so
    /// equivalence tests can assert the exact per-lane draw counts.
    pub fn run_with_rngs(mut self) -> ([PlayoutResult; N], [Xoshiro256pp; N]) {
        let results = G::lane_playouts(&self.roots, &mut self.rngs);
        (results, self.rngs)
    }
}

/// Plays one random playout per element, element `i` from `roots[i]`
/// drawing from `rngs[i]`, and hands the results to `emit` in element
/// order.
///
/// The one chunk policy every lane-engine caller shares (the playout
/// kernel's warps, the resident-tree kernel's lock-step block groups):
/// 8-wide [`Game::lane_playouts`] chunks, then one 4-wide chunk, then
/// scalar [`random_playout`] for the remainder. Games without a lane
/// engine play every chunk lane by lane. Bit-identical to per-element
/// [`random_playout`] calls — results *and* final RNG states (DESIGN.md
/// §15).
///
/// # Panics
/// Panics if `roots` and `rngs` differ in length.
pub fn chunked_playouts<G: Game, R: Rng64>(
    roots: &[G],
    rngs: &mut [R],
    mut emit: impl FnMut(PlayoutResult),
) {
    assert_eq!(roots.len(), rngs.len(), "one RNG stream per playout root");
    let mut done = 0;
    while roots.len() - done >= 8 {
        lane_chunk::<G, R, 8>(&roots[done..], &mut rngs[done..], &mut emit);
        done += 8;
    }
    if roots.len() - done >= 4 {
        lane_chunk::<G, R, 4>(&roots[done..], &mut rngs[done..], &mut emit);
        done += 4;
    }
    for (root, rng) in roots[done..].iter().zip(&mut rngs[done..]) {
        emit(random_playout(*root, rng));
    }
}

/// Runs the first `N` elements as one lane batch, in place on the RNGs.
fn lane_chunk<G: Game, R: Rng64, const N: usize>(
    roots: &[G],
    rngs: &mut [R],
    emit: &mut impl FnMut(PlayoutResult),
) {
    let roots: &[G; N] = roots[..N].try_into().expect("chunk of N roots");
    let rngs: &mut [R; N] = (&mut rngs[..N]).try_into().expect("chunk of N RNGs");
    G::lane_playouts(roots, rngs).into_iter().for_each(emit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reversi::Reversi;
    use crate::tictactoe::TicTacToe;
    use pmcts_util::Xoshiro256pp;

    #[test]
    fn reversi_playouts_terminate_and_report_plies() {
        let mut rng = Xoshiro256pp::new(1);
        for _ in 0..50 {
            let r = random_playout(Reversi::initial(), &mut rng);
            // A Reversi game from the start takes at least 50 plies
            // (55 is the shortest possible game; passes may add a few).
            assert!(r.plies >= 50, "suspiciously short game: {} plies", r.plies);
            assert!(r.plies as usize <= Reversi::MAX_GAME_LENGTH);
        }
    }

    #[test]
    fn playout_from_terminal_state_is_zero_plies() {
        let s = TicTacToe::parse("XXX OO. ...", Player::P2).unwrap();
        let mut rng = Xoshiro256pp::new(2);
        let r = random_playout(s, &mut rng);
        assert_eq!(r.plies, 0);
        assert_eq!(r.outcome, Outcome::Win(Player::P1));
        assert_eq!(r.reward_for(Player::P1), 1.0);
    }

    #[test]
    fn playouts_are_deterministic_under_seed() {
        let a = random_playout(Reversi::initial(), &mut Xoshiro256pp::new(3));
        let b = random_playout(Reversi::initial(), &mut Xoshiro256pp::new(3));
        assert_eq!(a, b);
    }

    #[test]
    fn final_score_matches_outcome_sign() {
        let mut rng = Xoshiro256pp::new(4);
        for _ in 0..100 {
            let r = random_playout(Reversi::initial(), &mut rng);
            match r.outcome {
                Outcome::Win(Player::P1) => assert!(r.final_score > 0),
                Outcome::Win(Player::P2) => assert!(r.final_score < 0),
                Outcome::Draw => assert_eq!(r.final_score, 0),
            }
        }
    }
}
