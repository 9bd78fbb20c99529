//! Criterion microbenches for the multi-lane playout engine (DESIGN.md §15):
//! scalar `random_playout` vs `LaneBatch` at widths 4 and 8, on Reversi
//! and Hex11. Reversi's `LaneBatch` runs the lane loop's AVX2+BMI2 build
//! (PDEP move select, AVX2 kernels) on hosts that have those features
//! and its portable build elsewhere; the `reversi portable lane batch`
//! benches time the portable build directly. Hex11 runs the default
//! `lane_playouts`, one scalar playout per lane, so its lane numbers
//! should track scalar.
//!
//! Throughput is reported per *playout*, so a lane width is a win exactly
//! when its number beats the scalar bench's.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pmcts_games::{random_playout, Game, Hex11, LaneBatch, Reversi};
use pmcts_util::Xoshiro256pp;

/// A midgame-ish start: `plies` random moves from the initial position.
fn advanced<G: Game>(plies: u32, seed: u64) -> G {
    let mut state = G::initial();
    let mut rng = Xoshiro256pp::new(seed);
    for _ in 0..plies {
        match state.random_move(&mut rng) {
            Some(mv) => state.apply(mv),
            None => break,
        }
    }
    state
}

fn bench_game<G: Game>(c: &mut Criterion, name: &str, prefix: u32) {
    let root: G = advanced(prefix, 7);

    c.bench_function(&format!("{name} scalar playout"), |b| {
        let mut rng = Xoshiro256pp::new(11);
        b.iter(|| random_playout(black_box(root), &mut rng).plies)
    });

    c.bench_function(&format!("{name} lane batch x4 (per 4 playouts)"), |b| {
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            let rngs: [Xoshiro256pp; 4] =
                std::array::from_fn(|i| Xoshiro256pp::derive(11, epoch * 4 + i as u64));
            LaneBatch::new([black_box(root); 4], rngs)
                .run()
                .iter()
                .map(|r| r.plies)
                .sum::<u32>()
        })
    });

    c.bench_function(&format!("{name} lane batch x8 (per 8 playouts)"), |b| {
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            let rngs: [Xoshiro256pp; 8] =
                std::array::from_fn(|i| Xoshiro256pp::derive(11, epoch * 8 + i as u64));
            LaneBatch::new([black_box(root); 8], rngs)
                .run()
                .iter()
                .map(|r| r.plies)
                .sum::<u32>()
        })
    });
}

/// The portable build of the Reversi lane loop at width 8, for
/// comparison with the dispatched `reversi lane batch x8`.
fn bench_reversi_portable(c: &mut Criterion) {
    let root: Reversi = advanced(20, 7);
    c.bench_function("reversi portable lane batch x8 (per 8 playouts)", |b| {
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            let mut rngs: [Xoshiro256pp; 8] =
                std::array::from_fn(|i| Xoshiro256pp::derive(11, epoch * 8 + i as u64));
            Reversi::portable_lane_playouts(&[black_box(root); 8], &mut rngs)
                .iter()
                .map(|r| r.plies)
                .sum::<u32>()
        })
    });
}

fn bench_playout_lanes(c: &mut Criterion) {
    bench_game::<Reversi>(c, "reversi", 20);
    bench_reversi_portable(c);
    bench_game::<Hex11>(c, "hex11", 30);
}

criterion_group!(benches, bench_playout_lanes);
criterion_main!(benches);
