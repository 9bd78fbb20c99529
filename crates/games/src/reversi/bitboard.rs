//! Shift-based Reversi bitboard kernels.
//!
//! These are the primitives a CUDA playout kernel would execute per thread:
//! branch-free 8-direction flood fills over two `u64` boards. The naive
//! square-by-square reference implementations live here too and back the
//! property tests (`fast == naive` on random boards).
//!
//! Direction conventions for bit `row * 8 + col`:
//! east = `+1`, west = `-1`, south = `+8`, north = `-8`, and the four
//! diagonals. A one-step shift that crosses a row boundary lands on the
//! far file, so every kernel masks the *landing* squares with
//! [`Direction::landing`]: `(b & NOT_H) << 1 == (b << 1) & NOT_A`, and
//! likewise for the other wrapping directions. Pre-masking the flooded
//! board (`opp`, and `empty`/`own` for the last step) once per direction
//! turns each flood step into shift, AND, OR — one formulation shared by
//! the scalar, portable lane and AVX2 kernels.
//!
//! The lane kernels come in two builds, one per build of the Reversi lane
//! loop (DESIGN.md §15): the portable
//! [`legal_moves_mask_lanes`]/[`flips_for_moves_lanes`], and on x86-64
//! the 4-boards-per-`__m256i` [`avx2`] kernels, compiled into the loop's
//! AVX2+BMI2 build. Both perform the identical wrapping u64 arithmetic,
//! and the tests hold both to the naive references.

/// Squares not on file `a` (col 0).
const NOT_A_FILE: u64 = 0xFEFE_FEFE_FEFE_FEFE;
/// Squares not on file `h` (col 7).
const NOT_H_FILE: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// The eight compass directions used by the flood fills.
pub const DIRECTIONS: [Direction; 8] = [
    Direction::E,
    Direction::W,
    Direction::S,
    Direction::N,
    Direction::SE,
    Direction::SW,
    Direction::NE,
    Direction::NW,
];

/// A board direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// +1 column.
    E,
    /// −1 column.
    W,
    /// +1 row.
    S,
    /// −1 row.
    N,
    /// +1 row, +1 column.
    SE,
    /// +1 row, −1 column.
    SW,
    /// −1 row, +1 column.
    NE,
    /// −1 row, −1 column.
    NW,
}

impl Direction {
    /// `(d_row, d_col)` offsets for scalar code.
    pub fn offsets(self) -> (i32, i32) {
        match self {
            Direction::E => (0, 1),
            Direction::W => (0, -1),
            Direction::S => (1, 0),
            Direction::N => (-1, 0),
            Direction::SE => (1, 1),
            Direction::SW => (1, -1),
            Direction::NE => (-1, 1),
            Direction::NW => (-1, -1),
        }
    }

    /// Squares a one-step move in this direction may land on: eastward
    /// steps never land on file `a`, westward ones never on file `h`
    /// (anything there wrapped around a row end), vertical steps anywhere.
    #[inline(always)]
    pub const fn landing(self) -> u64 {
        match self {
            Direction::E | Direction::SE | Direction::NE => NOT_A_FILE,
            Direction::W | Direction::SW | Direction::NW => NOT_H_FILE,
            Direction::S | Direction::N => u64::MAX,
        }
    }
}

/// Expands `$body` once per direction in [`DIRECTIONS`] order with `$dir`
/// bound to that direction: a guaranteed unroll, so every `match` on the
/// direction inside the body folds to straight-line code.
macro_rules! for_each_direction {
    (|$dir:ident| $body:block) => {{
        {
            let $dir = Direction::E;
            $body
        }
        {
            let $dir = Direction::W;
            $body
        }
        {
            let $dir = Direction::S;
            $body
        }
        {
            let $dir = Direction::N;
            $body
        }
        {
            let $dir = Direction::SE;
            $body
        }
        {
            let $dir = Direction::SW;
            $body
        }
        {
            let $dir = Direction::NE;
            $body
        }
        {
            let $dir = Direction::NW;
            $body
        }
    }};
}

/// The raw bit shift of a one-step move in `dir`: bits leaving the top or
/// bottom of the board drop out, row-end wraps stay (see
/// [`Direction::landing`]).
#[inline(always)]
fn raw_shift(b: u64, dir: Direction) -> u64 {
    match dir {
        Direction::E => b << 1,
        Direction::W => b >> 1,
        Direction::S => b << 8,
        Direction::N => b >> 8,
        Direction::SE => b << 9,
        Direction::SW => b << 7,
        Direction::NE => b >> 7,
        Direction::NW => b >> 9,
    }
}

/// Shifts a bitboard one step in `dir`, discarding bits that leave the board.
#[inline(always)]
pub fn shift(b: u64, dir: Direction) -> u64 {
    raw_shift(b, dir) & dir.landing()
}

/// Floods from `seed` through the contiguous discs of `opp_d` along `dir`
/// (`opp_d` pre-masked with `dir`'s landing squares): one step plus 5 more,
/// which covers the maximum run of 6 opponent discs.
#[inline(always)]
fn flood(seed: u64, opp_d: u64, dir: Direction) -> u64 {
    let mut t = raw_shift(seed, dir) & opp_d;
    for _ in 0..5 {
        t |= raw_shift(t, dir) & opp_d;
    }
    t
}

/// Bitboard of all legal placement squares for the player owning `own`.
///
/// Classic Dumb7Fill: for each direction, flood from `own` through contiguous
/// `opp` discs, then step once more — any empty square reached is a legal
/// move in that direction.
#[inline]
pub fn legal_moves_mask(own: u64, opp: u64) -> u64 {
    debug_assert_eq!(own & opp, 0, "overlapping boards");
    let empty = !(own | opp);
    let mut moves = 0u64;
    for_each_direction!(|dir| {
        let land = dir.landing();
        let t = flood(own, opp & land, dir);
        moves |= raw_shift(t, dir) & (empty & land);
    });
    moves
}

/// Bitboard of opponent discs flipped by playing on square `sq`.
///
/// Returns 0 if the move flips nothing (i.e. it is illegal).
///
/// Branch-free by design: the per-direction scan is an unrolled flood fill
/// (like [`legal_moves_mask`]) instead of a data-dependent `while` walk —
/// run lengths are random in playouts, so avoiding the mispredicted
/// branches measurably speeds up the hot loop.
#[inline]
pub fn flips_for_move(own: u64, opp: u64, sq: u8) -> u64 {
    debug_assert!(sq < 64);
    let mv = 1u64 << sq;
    debug_assert_eq!(mv & (own | opp), 0, "square occupied");
    let mut flips = 0u64;
    for_each_direction!(|dir| {
        let land = dir.landing();
        let t = flood(mv, opp & land, dir);
        // The run flips iff the square past its far end is ours; interior
        // run squares neighbour only opponent discs, so one test suffices.
        let capped = (raw_shift(t, dir) & (own & land) != 0) as u64;
        flips |= t & capped.wrapping_neg();
    });
    flips
}

/// Selects the `k`-th (0-based) set bit of `mask` and returns its index.
///
/// Used for uniform random move selection directly on the legal-move mask.
/// The lane loop's AVX2+BMI2 build computes the same bit in one
/// instruction, `_pdep_u64(1 << k, mask)`.
///
/// # Panics
/// Debug-panics if `k >= mask.count_ones()`.
#[inline]
pub fn select_bit(mask: u64, k: u32) -> u8 {
    debug_assert!(k < mask.count_ones(), "select_bit out of range");
    let mut m = mask;
    for _ in 0..k {
        m &= m - 1;
    }
    m.trailing_zeros() as u8
}

/// Multi-lane [`legal_moves_mask`]: masks for `N` independent boards
/// computed back-to-back — the portable lane kernel.
///
/// Direction loop outer, lane loop inner: each inner loop body is the same
/// straight-line u64 code over `N` *independent* dependency chains, which
/// keeps the superscalar units busy. All `N` lanes are computed
/// unconditionally — callers with fewer than `N` live boards ignore the
/// spare outputs rather than branching here.
#[inline]
#[allow(clippy::needless_range_loop)] // lane-indexed form mirrors the SIMD shape
pub fn legal_moves_mask_lanes<const N: usize>(own: &[u64; N], opp: &[u64; N]) -> [u64; N] {
    let mut empty = [0u64; N];
    for i in 0..N {
        debug_assert_eq!(own[i] & opp[i], 0, "overlapping boards");
        empty[i] = !(own[i] | opp[i]);
    }
    let mut moves = [0u64; N];
    for_each_direction!(|dir| {
        let land = dir.landing();
        let opp_d: [u64; N] = std::array::from_fn(|i| opp[i] & land);
        let mut t: [u64; N] = std::array::from_fn(|i| raw_shift(own[i], dir) & opp_d[i]);
        for _ in 0..5 {
            for i in 0..N {
                t[i] |= raw_shift(t[i], dir) & opp_d[i];
            }
        }
        for i in 0..N {
            moves[i] |= raw_shift(t[i], dir) & (empty[i] & land);
        }
    });
    moves
}

/// Multi-lane [`flips_for_move`]: flip masks for `N` independent
/// `(own, opp, mv)` triples computed back-to-back, `mv` holding each
/// lane's move as a one-bit board — the portable lane kernel.
///
/// Same lock-step shape as [`legal_moves_mask_lanes`]. Lanes whose `mv`
/// is not a legal empty square (or is 0) produce an unspecified
/// (harmless) mask; callers ignore inactive lanes' outputs instead of
/// branching here.
#[inline]
#[allow(clippy::needless_range_loop)] // lane-indexed form mirrors the SIMD shape
pub fn flips_for_moves_lanes<const N: usize>(
    own: &[u64; N],
    opp: &[u64; N],
    mv: &[u64; N],
) -> [u64; N] {
    let mut flips = [0u64; N];
    for_each_direction!(|dir| {
        let land = dir.landing();
        let opp_d: [u64; N] = std::array::from_fn(|i| opp[i] & land);
        let mut t: [u64; N] = std::array::from_fn(|i| raw_shift(mv[i], dir) & opp_d[i]);
        for _ in 0..5 {
            for i in 0..N {
                t[i] |= raw_shift(t[i], dir) & opp_d[i];
            }
        }
        for i in 0..N {
            let capped = (raw_shift(t[i], dir) & (own[i] & land) != 0) as u64;
            flips[i] |= t[i] & capped.wrapping_neg();
        }
    });
    flips
}

/// AVX2 lane kernels: 4 boards per `__m256i`, `N` a multiple of 4.
///
/// `target_feature` functions, so they are safe to call only from code
/// compiled for the same features: the lane loop's x86 build
/// (`Reversi::lane_playouts`) and tests behind a runtime check. They enable
/// exactly that build's feature set (AVX2, BMI1, BMI2, POPCNT) — LLVM
/// inlines a `target_feature` function only into a caller with matching
/// features. Every operation is the same wrapping u64 shift/AND/OR the
/// scalar kernels perform, in the same pre-masked formulation, so outputs
/// are bit-identical.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::Direction;
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_andnot_si256, _mm256_cmpeq_epi64, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_slli_epi64,
        _mm256_srli_epi64, _mm256_storeu_si256,
    };

    /// [`super::raw_shift`] over 4 boards.
    #[target_feature(enable = "avx2,bmi1,bmi2,popcnt")]
    #[inline]
    fn raw_shift4(b: __m256i, dir: Direction) -> __m256i {
        match dir {
            Direction::E => _mm256_slli_epi64::<1>(b),
            Direction::W => _mm256_srli_epi64::<1>(b),
            Direction::S => _mm256_slli_epi64::<8>(b),
            Direction::N => _mm256_srli_epi64::<8>(b),
            Direction::SE => _mm256_slli_epi64::<9>(b),
            Direction::SW => _mm256_slli_epi64::<7>(b),
            Direction::NE => _mm256_srli_epi64::<7>(b),
            Direction::NW => _mm256_srli_epi64::<9>(b),
        }
    }

    /// [`super::flood`] over 4 boards.
    #[target_feature(enable = "avx2,bmi1,bmi2,popcnt")]
    #[inline]
    fn flood4(seed: __m256i, opp_d: __m256i, dir: Direction) -> __m256i {
        let mut t = _mm256_and_si256(raw_shift4(seed, dir), opp_d);
        for _ in 0..5 {
            t = _mm256_or_si256(t, _mm256_and_si256(raw_shift4(t, dir), opp_d));
        }
        t
    }

    /// [`super::legal_moves_mask`] over 4 boards.
    #[target_feature(enable = "avx2,bmi1,bmi2,popcnt")]
    #[inline]
    fn movegen4(own: __m256i, opp: __m256i) -> __m256i {
        let empty = _mm256_andnot_si256(_mm256_or_si256(own, opp), _mm256_set1_epi64x(-1));
        let mut moves = _mm256_setzero_si256();
        for_each_direction!(|dir| {
            let land = _mm256_set1_epi64x(dir.landing() as i64);
            let t = flood4(own, _mm256_and_si256(opp, land), dir);
            let reach = _mm256_and_si256(raw_shift4(t, dir), _mm256_and_si256(empty, land));
            moves = _mm256_or_si256(moves, reach);
        });
        moves
    }

    /// [`super::flips_for_move`] over 4 boards (`mv` holds the move bits).
    #[target_feature(enable = "avx2,bmi1,bmi2,popcnt")]
    #[inline]
    fn flips4(own: __m256i, opp: __m256i, mv: __m256i) -> __m256i {
        let zero = _mm256_setzero_si256();
        let mut flips = zero;
        for_each_direction!(|dir| {
            let land = _mm256_set1_epi64x(dir.landing() as i64);
            let t = flood4(mv, _mm256_and_si256(opp, land), dir);
            // The run flips iff the square past its far end is ours; the
            // cmpeq mask is all-ones where it is NOT (beyond == 0).
            let beyond = _mm256_and_si256(raw_shift4(t, dir), _mm256_and_si256(own, land));
            flips = _mm256_or_si256(
                flips,
                _mm256_andnot_si256(_mm256_cmpeq_epi64(beyond, zero), t),
            );
        });
        flips
    }

    /// Loads lanes `g..g + 4` of `src`.
    #[target_feature(enable = "avx2,bmi1,bmi2,popcnt")]
    #[inline]
    fn load4<const N: usize>(src: &[u64; N], g: usize) -> __m256i {
        let lanes: &[u64; 4] = src[g..g + 4].try_into().expect("4 lanes");
        // SAFETY: `lanes` is 4 in-bounds u64s (32 bytes); loadu has no
        // alignment requirement.
        unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) }
    }

    /// Stores `v` into lanes `g..g + 4` of `dst`.
    #[target_feature(enable = "avx2,bmi1,bmi2,popcnt")]
    #[inline]
    fn store4<const N: usize>(dst: &mut [u64; N], g: usize, v: __m256i) {
        let lanes: &mut [u64; 4] = (&mut dst[g..g + 4]).try_into().expect("4 lanes");
        // SAFETY: `lanes` is 4 in-bounds u64s (32 bytes) borrowed mutably;
        // storeu has no alignment requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) }
    }

    /// [`super::legal_moves_mask_lanes`] for `N` a multiple of 4.
    ///
    /// # Safety
    /// Callers outside code compiled for these features must make sure
    /// the CPU has AVX2, BMI1, BMI2 and POPCNT.
    ///
    /// # Panics
    /// Panics if `N % 4 != 0`.
    #[target_feature(enable = "avx2,bmi1,bmi2,popcnt")]
    #[inline]
    pub fn legal_moves_mask_lanes<const N: usize>(own: &[u64; N], opp: &[u64; N]) -> [u64; N] {
        assert!(N.is_multiple_of(4), "AVX2 lanes come in groups of 4");
        let mut out = [0u64; N];
        for g in (0..N).step_by(4) {
            store4(&mut out, g, movegen4(load4(own, g), load4(opp, g)));
        }
        out
    }

    /// [`super::flips_for_moves_lanes`] for `N` a multiple of 4.
    ///
    /// # Safety
    /// Callers outside code compiled for these features must make sure
    /// the CPU has AVX2, BMI1, BMI2 and POPCNT.
    ///
    /// # Panics
    /// Panics if `N % 4 != 0`.
    #[target_feature(enable = "avx2,bmi1,bmi2,popcnt")]
    #[inline]
    pub fn flips_for_moves_lanes<const N: usize>(
        own: &[u64; N],
        opp: &[u64; N],
        mv: &[u64; N],
    ) -> [u64; N] {
        assert!(N.is_multiple_of(4), "AVX2 lanes come in groups of 4");
        let mut out = [0u64; N];
        for g in (0..N).step_by(4) {
            let flips = flips4(load4(own, g), load4(opp, g), load4(mv, g));
            store4(&mut out, g, flips);
        }
        out
    }
}

/// Scalar reference implementation of [`legal_moves_mask`].
///
/// O(64 × 8 × 8) and obviously correct; the property tests pit the shift
/// kernels against this on random boards.
pub fn legal_moves_mask_naive(own: u64, opp: u64) -> u64 {
    let mut moves = 0u64;
    for sq in 0..64u8 {
        if (own | opp) & (1u64 << sq) != 0 {
            continue;
        }
        if flips_for_move_naive(own, opp, sq) != 0 {
            moves |= 1u64 << sq;
        }
    }
    moves
}

/// Scalar reference implementation of [`flips_for_move`].
pub fn flips_for_move_naive(own: u64, opp: u64, sq: u8) -> u64 {
    let row = (sq / 8) as i32;
    let col = (sq % 8) as i32;
    let mut flips = 0u64;
    for dir in DIRECTIONS {
        let (dr, dc) = dir.offsets();
        let mut line = 0u64;
        let (mut r, mut c) = (row + dr, col + dc);
        while (0..8).contains(&r) && (0..8).contains(&c) {
            let bit = 1u64 << (r * 8 + c);
            if opp & bit != 0 {
                line |= bit;
            } else if own & bit != 0 {
                flips |= line;
                break;
            } else {
                break;
            }
            r += dr;
            c += dc;
        }
    }
    flips
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_util::{Rng64, SplitMix64};

    /// Generates a random *plausible* board: random occupied mask with
    /// random ownership. Not necessarily reachable, but move-gen correctness
    /// does not depend on reachability.
    fn random_board(rng: &mut SplitMix64) -> (u64, u64) {
        let occupied = rng.next_u64() & rng.next_u64(); // ~25% fill
        let ownership = rng.next_u64();
        (occupied & ownership, occupied & !ownership)
    }

    #[test]
    fn shift_east_drops_h_file() {
        let h1 = 1u64 << 7;
        assert_eq!(shift(h1, Direction::E), 0);
        let a1 = 1u64;
        assert_eq!(shift(a1, Direction::E), 1 << 1);
    }

    #[test]
    fn shift_west_drops_a_file() {
        let a1 = 1u64;
        assert_eq!(shift(a1, Direction::W), 0);
        assert_eq!(shift(1 << 1, Direction::W), 1);
    }

    #[test]
    fn shift_vertical_drops_edges() {
        let a8 = 1u64 << 56;
        assert_eq!(shift(a8, Direction::S), 0);
        let a1 = 1u64;
        assert_eq!(shift(a1, Direction::N), 0);
        assert_eq!(shift(a1, Direction::S), 1 << 8);
    }

    #[test]
    fn shift_diagonals_drop_corners() {
        let h8 = 1u64 << 63;
        assert_eq!(shift(h8, Direction::SE), 0);
        let a1 = 1u64;
        assert_eq!(shift(a1, Direction::NW), 0);
        assert_eq!(shift(a1, Direction::SE), 1 << 9);
    }

    #[test]
    fn all_shifts_stay_on_board() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            let b = rng.next_u64();
            for dir in DIRECTIONS {
                // A shift never increases popcount.
                assert!(shift(b, dir).count_ones() <= b.count_ones());
            }
        }
    }

    #[test]
    fn initial_position_moves() {
        let black = (1u64 << 28) | (1u64 << 35);
        let white = (1u64 << 27) | (1u64 << 36);
        let mask = legal_moves_mask(black, white);
        let expected = (1u64 << 19) | (1 << 26) | (1 << 37) | (1 << 44);
        assert_eq!(mask, expected);
    }

    #[test]
    fn fast_equals_naive_on_random_boards() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..500 {
            let (own, opp) = random_board(&mut rng);
            assert_eq!(
                legal_moves_mask(own, opp),
                legal_moves_mask_naive(own, opp),
                "own={own:#x} opp={opp:#x}"
            );
        }
    }

    #[test]
    fn flips_fast_equals_naive_on_random_boards() {
        let mut rng = SplitMix64::new(43);
        for _ in 0..200 {
            let (own, opp) = random_board(&mut rng);
            let empty = !(own | opp);
            for sq in 0..64u8 {
                if empty & (1u64 << sq) != 0 {
                    assert_eq!(
                        flips_for_move(own, opp, sq),
                        flips_for_move_naive(own, opp, sq),
                        "own={own:#x} opp={opp:#x} sq={sq}"
                    );
                }
            }
        }
    }

    #[test]
    fn legal_moves_have_nonzero_flips() {
        let mut rng = SplitMix64::new(44);
        for _ in 0..200 {
            let (own, opp) = random_board(&mut rng);
            let mut mask = legal_moves_mask(own, opp);
            while mask != 0 {
                let sq = mask.trailing_zeros() as u8;
                assert_ne!(flips_for_move(own, opp, sq), 0);
                mask &= mask - 1;
            }
        }
    }

    #[test]
    fn flips_only_on_opponent_discs() {
        let mut rng = SplitMix64::new(45);
        for _ in 0..200 {
            let (own, opp) = random_board(&mut rng);
            let mut mask = legal_moves_mask(own, opp);
            while mask != 0 {
                let sq = mask.trailing_zeros() as u8;
                let flips = flips_for_move(own, opp, sq);
                assert_eq!(flips & !opp, 0, "flips must be a subset of opp");
                mask &= mask - 1;
            }
        }
    }

    /// Checks one lane-kernel build against the naive references on 8
    /// random boards per round: every lane's legal-move mask, and the
    /// flips of one legal move per lane (move-less lanes pass 0).
    fn check_lane_kernels_against_naive(
        seed: u64,
        legal: impl Fn(&[u64; 8], &[u64; 8]) -> [u64; 8],
        flips: impl Fn(&[u64; 8], &[u64; 8], &[u64; 8]) -> [u64; 8],
    ) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..300 {
            let mut own = [0u64; 8];
            let mut opp = [0u64; 8];
            for i in 0..8 {
                (own[i], opp[i]) = random_board(&mut rng);
            }
            let masks = legal(&own, &opp);
            let mut mv = [0u64; 8];
            for i in 0..8 {
                assert_eq!(masks[i], legal_moves_mask_naive(own[i], opp[i]), "lane {i}");
                if masks[i] != 0 {
                    let k = (rng.next_u64() % masks[i].count_ones() as u64) as u32;
                    mv[i] = 1u64 << select_bit(masks[i], k);
                }
            }
            let out = flips(&own, &opp, &mv);
            for i in 0..8 {
                if mv[i] != 0 {
                    let sq = mv[i].trailing_zeros() as u8;
                    assert_eq!(out[i], flips_for_move_naive(own[i], opp[i], sq), "lane {i}");
                }
            }
        }
    }

    #[test]
    fn portable_lane_kernels_equal_naive() {
        check_lane_kernels_against_naive(46, legal_moves_mask_lanes, flips_for_moves_lanes);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_lane_kernels_equal_naive() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        check_lane_kernels_against_naive(
            47,
            // SAFETY: AVX2 support was just checked at runtime.
            |own, opp| unsafe { avx2::legal_moves_mask_lanes(own, opp) },
            // SAFETY: as above.
            |own, opp, mv| unsafe { avx2::flips_for_moves_lanes(own, opp, mv) },
        );
    }

    #[test]
    fn shift_is_the_landing_masked_raw_shift_of_the_source_masked_board() {
        // The pre-masking identity every kernel relies on, against the
        // source-masked form: (b & NOT_H) << 1 == (b << 1) & NOT_A, etc.
        let source_masked = |b: u64, dir: Direction| match dir {
            Direction::E => (b & NOT_H_FILE) << 1,
            Direction::W => (b & NOT_A_FILE) >> 1,
            Direction::S => b << 8,
            Direction::N => b >> 8,
            Direction::SE => (b & NOT_H_FILE) << 9,
            Direction::SW => (b & NOT_A_FILE) << 7,
            Direction::NE => (b & NOT_H_FILE) >> 7,
            Direction::NW => (b & NOT_A_FILE) >> 9,
        };
        let mut rng = SplitMix64::new(48);
        for _ in 0..1000 {
            let b = rng.next_u64();
            for dir in DIRECTIONS {
                assert_eq!(shift(b, dir), source_masked(b, dir), "{dir:?} b={b:#x}");
            }
        }
    }

    #[test]
    fn select_bit_enumerates_in_order() {
        let mask = 0b1011_0100u64;
        assert_eq!(select_bit(mask, 0), 2);
        assert_eq!(select_bit(mask, 1), 4);
        assert_eq!(select_bit(mask, 2), 5);
        assert_eq!(select_bit(mask, 3), 7);
    }

    #[test]
    fn select_bit_full_board() {
        for k in 0..64 {
            assert_eq!(select_bit(u64::MAX, k), k as u8);
        }
    }
}
