//! Lane-batch equivalence suite (DESIGN.md §15).
//!
//! The contract under test: running a [`LaneBatch`] of `N` playouts is
//! bit-identical to running `N` scalar [`random_playout`] calls, lane `i`
//! on `(roots[i], rngs[i])` — identical [`PlayoutResult`]s (outcome, ply
//! count, final score) *and* identical final RNG states, which pins the
//! exact per-lane draw count and therefore the whole per-lane draw
//! sequence (Xoshiro256++ state is a bijection of the draw history from a
//! fixed seed).
//!
//! Covered engines: Reversi (bit-parallel `lane_playouts` override),
//! Connect-4 / Tic-Tac-Toe / Hex (the per-lane scalar default), at lane
//! widths 1, 4 and 8, from varied playout prefixes, including batches with
//! terminal roots mixed in. The shared chunk policy [`chunked_playouts`]
//! (8-wide chunks, a 4-wide chunk, scalar remainder) is checked at every
//! slice length 0..=19 on Reversi (bit-parallel chunks) and Hex 11×11
//! (default chunks).

use pmcts_games::{
    chunked_playouts, random_playout, Connect4, Game, Hex11, Hex7, LaneBatch, Player, Reversi,
    TicTacToe,
};
use pmcts_util::Xoshiro256pp;
use proptest::prelude::*;

/// Plays `plies` random moves (stopping early at terminal states).
fn advance<G: Game>(mut state: G, plies: u32, seed: u64) -> G {
    let mut rng = Xoshiro256pp::new(seed);
    for _ in 0..plies {
        match state.random_move(&mut rng) {
            Some(mv) => state.apply(mv),
            None => break,
        }
    }
    state
}

/// Asserts the full equivalence contract for one batch: results and final
/// RNG states must match `N` scalar playouts exactly.
fn assert_batch_matches_scalar<G: Game, const N: usize>(roots: [G; N], seeds: [u64; N]) {
    let rngs: [Xoshiro256pp; N] = std::array::from_fn(|i| Xoshiro256pp::new(seeds[i]));
    let (lane_results, lane_rngs) = LaneBatch::new(roots, rngs).run_with_rngs();
    for i in 0..N {
        let mut rng = Xoshiro256pp::new(seeds[i]);
        let scalar = random_playout(roots[i], &mut rng);
        assert_eq!(
            lane_results[i],
            scalar,
            "{} lane {i}/{N}: result diverged from scalar playout",
            G::NAME
        );
        assert_eq!(
            lane_rngs[i],
            rng,
            "{} lane {i}/{N}: final RNG state diverged (draw counts differ)",
            G::NAME
        );
    }
}

/// Runs the contract for one game at all three wired lane widths, each lane
/// from its own prefix of a shared game so batches mix positions.
fn check_game_at_all_widths<G: Game>(base_seed: u64, max_prefix: u32) {
    let roots8: [G; 8] = std::array::from_fn(|i| {
        advance(
            G::initial(),
            (base_seed.wrapping_add(i as u64) % (max_prefix as u64 + 1)) as u32,
            base_seed ^ i as u64,
        )
    });
    let seeds8: [u64; 8] =
        std::array::from_fn(|i| base_seed.wrapping_mul(31).wrapping_add(i as u64));
    assert_batch_matches_scalar::<G, 1>([roots8[0]; 1], [seeds8[0]; 1]);
    assert_batch_matches_scalar::<G, 4>(
        std::array::from_fn(|i| roots8[i]),
        std::array::from_fn(|i| seeds8[i]),
    );
    assert_batch_matches_scalar::<G, 8>(roots8, seeds8);
}

/// Asserts the chunk policy's contract at every slice length 0..=19: the
/// helper's results and final RNG states equal per-element scalar
/// playouts, with roots drawn from mixed prefixes of one game.
fn check_chunked_at_all_lengths<G: Game>(base_seed: u64, max_prefix: u32) {
    for len in 0..=19usize {
        let roots: Vec<G> = (0..len)
            .map(|i| {
                let plies = (base_seed.wrapping_add(i as u64) % (max_prefix as u64 + 1)) as u32;
                advance(G::initial(), plies, base_seed ^ i as u64)
            })
            .collect();
        let seed_of = |i: usize| base_seed.wrapping_mul(17).wrapping_add(i as u64);
        let mut rngs: Vec<Xoshiro256pp> = (0..len).map(|i| Xoshiro256pp::new(seed_of(i))).collect();
        let mut results = Vec::new();
        chunked_playouts(&roots, &mut rngs, |r| results.push(r));
        assert_eq!(
            results.len(),
            len,
            "{} len {len}: one result per root",
            G::NAME
        );
        for i in 0..len {
            let mut rng = Xoshiro256pp::new(seed_of(i));
            let scalar = random_playout(roots[i], &mut rng);
            assert_eq!(
                results[i],
                scalar,
                "{} len {len} element {i}: result diverged from scalar playout",
                G::NAME
            );
            assert_eq!(
                rngs[i],
                rng,
                "{} len {len} element {i}: final RNG state diverged",
                G::NAME
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reversi_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<Reversi>(seed, 50);
    }

    #[test]
    fn connect4_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<Connect4>(seed, 30);
    }

    #[test]
    fn tictactoe_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<TicTacToe>(seed, 8);
    }

    #[test]
    fn hex7_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<Hex7>(seed, 40);
    }

    #[test]
    fn hex11_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<Hex11>(seed, 100);
    }

    #[test]
    fn reversi_batches_with_terminal_roots(seed in any::<u64>()) {
        // Lanes 1, 3, 5, 7 start from finished games (played to the end);
        // they must report 0 plies and draw nothing from their RNGs while
        // the live lanes proceed unperturbed.
        let roots: [Reversi; 8] = std::array::from_fn(|i| {
            let plies = if i % 2 == 1 { u32::MAX } else { (i as u32) * 7 };
            advance(Reversi::initial(), plies, seed ^ i as u64)
        });
        let seeds: [u64; 8] = std::array::from_fn(|i| seed.wrapping_add(1000 + i as u64));
        for (i, root) in roots.iter().enumerate() {
            if i % 2 == 1 {
                prop_assert!(root.is_terminal(), "odd lanes must start terminal");
            }
        }
        assert_batch_matches_scalar::<Reversi, 8>(roots, seeds);
    }
}

#[test]
fn chunked_playouts_match_scalar_at_every_length() {
    for seed in [1u64, 2, 3] {
        check_chunked_at_all_lengths::<Reversi>(seed, 50);
        check_chunked_at_all_lengths::<Hex11>(seed, 100);
    }
}

#[test]
fn all_terminal_batch_draws_nothing() {
    let s = TicTacToe::parse("XXX OO. ...", Player::P2).unwrap();
    let rngs: [Xoshiro256pp; 4] = std::array::from_fn(|i| Xoshiro256pp::new(77 + i as u64));
    let (results, finals) = LaneBatch::new([s; 4], rngs).run_with_rngs();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.plies, 0);
        assert_eq!(
            finals[i],
            Xoshiro256pp::new(77 + i as u64),
            "terminal lanes must not draw"
        );
    }
}
