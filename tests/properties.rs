//! Property-based tests (proptest) over the workspace invariants listed in
//! DESIGN.md §5.

use pmcts::games::reversi::bitboard;
use pmcts::games::{random_playout, Game, MoveBuf, Player, Reversi};
use pmcts::gpu_sim::{Device, DeviceSpec, Kernel, LaunchConfig, ThreadId};
use pmcts::mpi_sim::World;
use pmcts::prelude::SimTime;
use pmcts::util::Xoshiro256pp;
use proptest::prelude::*;

/// Strategy: a random plausible Reversi board (not necessarily reachable —
/// the move generator must be correct on any disjoint bitboard pair).
fn arb_board() -> impl Strategy<Value = (u64, u64)> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(occ1, occ2, own)| {
        let occupied = occ1 & occ2;
        (occupied & own, occupied & !own)
    })
}

/// Strategy: a reachable Reversi position, obtained by playing N random
/// plies from the start.
fn arb_position() -> impl Strategy<Value = Reversi> {
    (any::<u64>(), 0u32..55).prop_map(|(seed, plies)| {
        let mut state = Reversi::initial();
        let mut rng = Xoshiro256pp::new(seed);
        for _ in 0..plies {
            match state.random_move(&mut rng) {
                Some(mv) => state.apply(mv),
                None => break,
            }
        }
        state
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn movegen_fast_equals_naive((own, opp) in arb_board()) {
        prop_assert_eq!(
            bitboard::legal_moves_mask(own, opp),
            bitboard::legal_moves_mask_naive(own, opp)
        );
    }

    #[test]
    fn flips_fast_equals_naive((own, opp) in arb_board(), sq in 0u8..64) {
        prop_assume!((own | opp) & (1u64 << sq) == 0);
        prop_assert_eq!(
            bitboard::flips_for_move(own, opp, sq),
            bitboard::flips_for_move_naive(own, opp, sq)
        );
    }

    #[test]
    fn applying_legal_moves_preserves_disc_invariants(state in arb_position(), pick in any::<u64>()) {
        prop_assume!(!state.is_terminal());
        let mut buf = MoveBuf::new();
        state.legal_moves(&mut buf);
        prop_assert!(!buf.is_empty());
        let mv = buf[(pick % buf.len() as u64) as usize];
        let before_total = state.occupancy();
        let mut after = state;
        after.apply(mv);
        if mv.is_pass() {
            prop_assert_eq!(after.occupancy(), before_total);
            prop_assert_eq!(after.black(), state.black());
            prop_assert_eq!(after.white(), state.white());
        } else {
            // Exactly one disc added; flipped discs change colour only.
            prop_assert_eq!(after.occupancy(), before_total + 1);
            prop_assert_eq!(after.black() & after.white(), 0);
            // The mover cannot lose discs.
            let (own_before, _) = state.own_opp();
            let own_after = match state.to_move() {
                Player::P1 => after.black(),
                Player::P2 => after.white(),
            };
            prop_assert!(own_after.count_ones() >= own_before.count_ones() + 2,
                "a legal move adds the placed disc and flips at least one");
        }
        prop_assert_eq!(after.to_move(), state.to_move().opponent());
    }

    #[test]
    fn playouts_terminate_with_consistent_outcome(state in arb_position(), seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::new(seed);
        let result = random_playout(state, &mut rng);
        prop_assert!(result.plies as usize <= Reversi::MAX_GAME_LENGTH);
        let r1 = result.reward_for(Player::P1);
        let r2 = result.reward_for(Player::P2);
        prop_assert!((0.0..=1.0).contains(&r1));
        prop_assert_eq!(r1 + r2, 1.0);
    }

    #[test]
    fn zobrist_is_stable_and_side_sensitive(state in arb_position()) {
        prop_assert_eq!(state.zobrist(), state.zobrist());
        let flipped = Reversi::from_bitboards(state.black(), state.white(), state.to_move().opponent());
        prop_assert_ne!(state.zobrist(), flipped.zobrist());
    }

    #[test]
    fn simtime_arithmetic_is_monotone(a in 0u64..1 << 40, b in 0u64..1 << 40, k in 1u64..1000) {
        let ta = SimTime::from_nanos(a);
        let tb = SimTime::from_nanos(b);
        prop_assert_eq!(ta + tb, tb + ta);
        prop_assert!((ta + tb) >= ta);
        prop_assert_eq!((ta * k) / k, ta);
        prop_assert_eq!(ta.saturating_sub(ta), SimTime::ZERO);
    }

    #[test]
    fn allreduce_equals_sequential_fold(values in prop::collection::vec(0u64..1 << 30, 1..12)) {
        let n = values.len();
        let expected: u64 = values.iter().sum();
        let vals = values.clone();
        let out = World::run(n, move |comm| {
            comm.allreduce(vals[comm.rank()], |a, b| a + b)
        });
        prop_assert!(out.into_iter().all(|v| v == expected));
    }

    #[test]
    fn warp_accounting_identity(threads in 1u32..96, modulus in 1u32..50, warp in prop::sample::select(vec![1u32, 2, 4, 8, 16, 32])) {
        struct Countdown { modulus: u32 }
        impl Kernel for Countdown {
            type ThreadState = u32;
            type Output = u32;
            fn init(&self, tid: ThreadId) -> u32 { tid.global % self.modulus + 1 }
            fn step(&self, s: &mut u32, _t: ThreadId) -> bool { *s -= 1; *s == 0 }
            fn finish(&self, s: u32, _t: ThreadId) -> u32 { s }
        }
        let mut spec = DeviceSpec::scalar();
        spec.warp_size = warp;
        let device = Device::new(spec).with_host_threads(2);
        let r = device.launch(&Countdown { modulus }, LaunchConfig::new(1, threads));
        // Identity: warp time * lanes = useful + idle lane-steps per warp.
        // Summed over warps with exact lane counts:
        prop_assert_eq!(r.outputs.len(), threads as usize);
        prop_assert!(r.stats.lane_steps >= r.outputs.len() as u64);
        // Each lane took (global % modulus)+1 steps; idle+useful must be
        // consistent with warp_steps accounting.
        let expected_useful: u64 = (0..threads).map(|t| (t % modulus + 1) as u64).sum();
        prop_assert_eq!(r.stats.lane_steps, expected_useful);
        // A warp runs as long as its slowest lane.
        let mut expected_warp_steps = 0u64;
        let mut start = 0u32;
        while start < threads {
            let lanes = warp.min(threads - start);
            let max_in_warp = (start..start + lanes).map(|t| (t % modulus + 1) as u64).max().unwrap();
            expected_warp_steps += max_in_warp;
            start += lanes;
        }
        prop_assert_eq!(r.stats.warp_steps, expected_warp_steps);
    }
}
