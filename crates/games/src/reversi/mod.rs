//! Reversi (Othello) — the paper's benchmark game.
//!
//! 8×8 board, average branching factor a little over 8, games of at most 60
//! placements plus forced passes. The engine keeps two `u64` bitboards and
//! generates moves with the classic 8-direction shift/flood technique
//! ([`bitboard`]), which is also exactly the data layout a real CUDA playout
//! kernel would use — one state fits in four registers.
//!
//! Square indexing: bit `row * 8 + col`, row 0 = rank 1 (printed first),
//! col 0 = file `a`. The standard initial position is
//! `d4 = White, e4 = Black, d5 = Black, e5 = White`, Black to move.

pub mod bitboard;
pub mod eval;
pub mod notation;
pub mod zobrist;

use crate::game::{Game, MoveBuf, Outcome, Player};
use crate::playout::PlayoutResult;
use pmcts_util::Rng64;

/// A Reversi move: a square index `0..64`, or [`ReversiMove::PASS`].
///
/// Reversi is the only bundled game with forced passes: when the side to move
/// has no placement but the opponent does, the single legal move is `PASS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReversiMove(pub u8);

impl ReversiMove {
    /// The pass move.
    pub const PASS: ReversiMove = ReversiMove(64);

    /// Constructs a placement move from (col, row), both `0..8`.
    pub fn from_coords(col: u8, row: u8) -> Self {
        assert!(col < 8 && row < 8, "coords out of range");
        ReversiMove(row * 8 + col)
    }

    /// Whether this is the pass move.
    #[inline]
    pub fn is_pass(self) -> bool {
        self.0 >= 64
    }

    /// Square index (`None` for pass).
    #[inline]
    pub fn square(self) -> Option<u8> {
        if self.is_pass() {
            None
        } else {
            Some(self.0)
        }
    }
}

/// A Reversi position: two bitboards plus the side to move.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reversi {
    /// Black discs (P1).
    black: u64,
    /// White discs (P2).
    white: u64,
    to_move: Player,
    /// Incremental Zobrist hash, maintained by [`Reversi::apply_counted`]
    /// in O(flipped discs) from the [`zobrist`] key table.
    hash: u64,
}

impl Reversi {
    /// Builds a position from raw bitboards.
    ///
    /// # Panics
    /// Panics if the bitboards overlap.
    pub fn from_bitboards(black: u64, white: u64, to_move: Player) -> Self {
        assert_eq!(black & white, 0, "overlapping bitboards");
        Reversi {
            black,
            white,
            to_move,
            hash: zobrist::hash(black, white, to_move),
        }
    }

    /// Black's disc bitboard.
    #[inline]
    pub fn black(&self) -> u64 {
        self.black
    }

    /// White's disc bitboard.
    #[inline]
    pub fn white(&self) -> u64 {
        self.white
    }

    /// `(own, opponent)` bitboards from the mover's perspective.
    #[inline]
    pub fn own_opp(&self) -> (u64, u64) {
        match self.to_move {
            Player::P1 => (self.black, self.white),
            Player::P2 => (self.white, self.black),
        }
    }

    /// Disc counts `(black, white)`.
    #[inline]
    pub fn counts(&self) -> (u32, u32) {
        (self.black.count_ones(), self.white.count_ones())
    }

    /// Number of discs on the board.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        (self.black | self.white).count_ones()
    }

    /// Bitboard of legal placement squares for the side to move.
    #[inline]
    pub fn legal_mask(&self) -> u64 {
        let (own, opp) = self.own_opp();
        bitboard::legal_moves_mask(own, opp)
    }

    /// Whether the side to move must pass (has no placement but the game is
    /// not over).
    pub fn must_pass(&self) -> bool {
        !self.is_terminal() && self.legal_mask() == 0
    }

    /// Zobrist hash of the position (includes side to move). O(1): the
    /// hash is carried in the state and updated incrementally by
    /// [`Reversi::apply_counted`].
    pub fn zobrist(&self) -> u64 {
        self.hash
    }

    /// Applies a move and returns the number of discs flipped (0 for pass).
    /// Identical to [`Game::apply`] but reports flip information, which the
    /// notation/analysis tooling uses.
    pub fn apply_counted(&mut self, mv: ReversiMove) -> u32 {
        if mv.is_pass() {
            debug_assert_eq!(self.legal_mask(), 0, "pass with placements available");
            self.to_move = self.to_move.opponent();
            self.hash ^= zobrist::side_key();
            return 0;
        }
        let sq = mv.0;
        let (own, opp) = self.own_opp();
        debug_assert!(
            bitboard::legal_moves_mask(own, opp) & (1u64 << sq) != 0,
            "illegal move {mv:?} in position\n{self}"
        );
        let flips = bitboard::flips_for_move(own, opp, sq);
        debug_assert!(flips != 0, "move flips nothing");
        let mover = self.to_move;
        // Incremental Zobrist: the placed disc, one colour swap per
        // flipped disc, and the side-to-move toggle.
        let mut h = self.hash ^ zobrist::square_key(mover, sq) ^ zobrist::side_key();
        let mut f = flips;
        while f != 0 {
            let s = f.trailing_zeros() as u8;
            h ^= zobrist::square_key(Player::P1, s) ^ zobrist::square_key(Player::P2, s);
            f &= f - 1;
        }
        self.hash = h;
        let own = own | flips | (1u64 << sq);
        let opp = opp & !flips;
        match self.to_move {
            Player::P1 => {
                self.black = own;
                self.white = opp;
            }
            Player::P2 => {
                self.white = own;
                self.black = opp;
            }
        }
        self.to_move = self.to_move.opponent();
        flips.count_ones()
    }
}

impl Game for Reversi {
    type Move = ReversiMove;

    const NAME: &'static str = "reversi";

    // 60 placements + interleaved passes; 128 is a safe hard bound used to
    // size simulated-GPU thread state.
    const MAX_GAME_LENGTH: usize = 128;

    fn initial() -> Self {
        // d4 = White, e4 = Black, d5 = Black, e5 = White; Black to move.
        Self::from_bitboards(
            (1u64 << 28) | (1u64 << 35),
            (1u64 << 27) | (1u64 << 36),
            Player::P1,
        )
    }

    #[inline]
    fn to_move(&self) -> Player {
        self.to_move
    }

    fn legal_moves(&self, out: &mut MoveBuf<ReversiMove>) {
        out.clear();
        let mut mask = self.legal_mask();
        if mask == 0 {
            // Pass is legal iff the opponent can still move.
            let (own, opp) = self.own_opp();
            if bitboard::legal_moves_mask(opp, own) != 0 {
                out.push(ReversiMove::PASS);
            }
            return;
        }
        while mask != 0 {
            let sq = mask.trailing_zeros() as u8;
            out.push(ReversiMove(sq));
            mask &= mask - 1;
        }
    }

    #[inline]
    fn apply(&mut self, mv: ReversiMove) {
        self.apply_counted(mv);
    }

    fn is_terminal(&self) -> bool {
        let (own, opp) = self.own_opp();
        bitboard::legal_moves_mask(own, opp) == 0 && bitboard::legal_moves_mask(opp, own) == 0
    }

    fn outcome(&self) -> Option<Outcome> {
        if !self.is_terminal() {
            return None;
        }
        let (b, w) = self.counts();
        Some(match b.cmp(&w) {
            std::cmp::Ordering::Greater => Outcome::Win(Player::P1),
            std::cmp::Ordering::Less => Outcome::Win(Player::P2),
            std::cmp::Ordering::Equal => Outcome::Draw,
        })
    }

    #[inline]
    fn score(&self) -> i32 {
        let (b, w) = self.counts();
        b as i32 - w as i32
    }

    #[inline]
    fn zobrist(&self) -> u64 {
        self.hash
    }

    fn device_state_bytes() -> usize {
        // Everything except the host-only `hash` cache; removing the u64
        // leaves the struct's alignment (8) and padding unchanged.
        std::mem::size_of::<Self>() - std::mem::size_of::<u64>()
    }

    /// Bitboard-native uniform move choice: selects a random set bit of the
    /// legal mask without materialising a move list (`_buf` is unused).
    #[inline]
    fn random_move_with<R: Rng64>(
        &self,
        rng: &mut R,
        _buf: &mut MoveBuf<ReversiMove>,
    ) -> Option<ReversiMove> {
        let mask = self.legal_mask();
        if mask == 0 {
            let (own, opp) = self.own_opp();
            if bitboard::legal_moves_mask(opp, own) != 0 {
                return Some(ReversiMove::PASS);
            }
            return None;
        }
        let n = mask.count_ones();
        let k = rng.next_below(n);
        Some(ReversiMove(bitboard::select_bit(mask, k)))
    }

    /// Bit-parallel lane playouts (DESIGN.md §15): every round computes the
    /// legal-move masks for all `N` lanes back-to-back
    /// ([`bitboard::legal_moves_mask_lanes`]), draws one move per live
    /// lane, then computes all flip masks back-to-back
    /// ([`bitboard::flips_for_moves_lanes`]) — the steady state is
    /// straight-line u64 code with no per-lane branching. Pass and
    /// terminal resolution fall back to scalar per lane (a handful of
    /// plies per game).
    ///
    /// Bit-identical to `N` scalar playouts: each placement ply draws
    /// exactly one `next_below(popcount(mask))` from that lane's stream and
    /// picks the same ascending-order set bit; passes and terminals draw
    /// nothing, exactly like [`Reversi::random_move_with`]. Lane state is
    /// the raw bitboards only — the Zobrist accumulator is deliberately
    /// not maintained, because [`PlayoutResult`] never observes it; that is
    /// pure wall-clock profit with no effect on results.
    #[allow(clippy::needless_range_loop)] // lane-indexed form mirrors the SIMD shape
    fn lane_playouts<R: Rng64, const N: usize>(
        roots: &[Self; N],
        rngs: &mut [R; N],
    ) -> [PlayoutResult; N] {
        // Lane state is mover-relative: `own`/`opp` always belong to the
        // side to move, so applying a ply is swap-free bit arithmetic with
        // no per-lane colour branching; `own_is_black` tracks the mapping
        // back to absolute colours for terminal scoring.
        let mut own = [0u64; N];
        let mut opp = [0u64; N];
        let mut own_is_black = [true; N];
        for i in 0..N {
            let (o, p) = roots[i].own_opp();
            own[i] = o;
            opp[i] = p;
            own_is_black[i] = roots[i].to_move == Player::P1;
        }
        let mut plies = [0u32; N];
        let mut results: [Option<PlayoutResult>; N] = [None; N];
        let mut live = N;
        while live > 0 {
            // Finished lanes are included in the batched kernels — their
            // outputs are unused garbage, which is cheaper than branching
            // inside the bit-parallel code.
            let masks = bitboard::legal_moves_mask_lanes(&own, &opp);
            // One RNG draw per lane with placements; pass/terminal lanes
            // resolve scalar (a rare tail: a few plies per game at most).
            let mut sqs = [0u8; N];
            let mut mover = [false; N];
            let mut any_mover = false;
            for i in 0..N {
                if results[i].is_some() {
                    continue;
                }
                if masks[i] != 0 {
                    let k = rngs[i].next_below(masks[i].count_ones());
                    sqs[i] = bitboard::select_bit(masks[i], k);
                    mover[i] = true;
                    any_mover = true;
                } else if bitboard::legal_moves_mask(opp[i], own[i]) != 0 {
                    // Forced pass: zero RNG draws, side swap, one ply —
                    // exactly the scalar path.
                    std::mem::swap(&mut own[i], &mut opp[i]);
                    own_is_black[i] = !own_is_black[i];
                    plies[i] += 1;
                    assert!(
                        plies[i] as usize <= Self::MAX_GAME_LENGTH,
                        "{} playout exceeded MAX_GAME_LENGTH={}",
                        Self::NAME,
                        Self::MAX_GAME_LENGTH
                    );
                } else {
                    // Terminal: decided by disc count.
                    let (b, w) = if own_is_black[i] {
                        (own[i].count_ones(), opp[i].count_ones())
                    } else {
                        (opp[i].count_ones(), own[i].count_ones())
                    };
                    let outcome = match b.cmp(&w) {
                        std::cmp::Ordering::Greater => Outcome::Win(Player::P1),
                        std::cmp::Ordering::Less => Outcome::Win(Player::P2),
                        std::cmp::Ordering::Equal => Outcome::Draw,
                    };
                    results[i] = Some(PlayoutResult {
                        outcome,
                        plies: plies[i],
                        final_score: b as i32 - w as i32,
                    });
                    live -= 1;
                }
            }
            if !any_mover {
                continue;
            }
            let flips = bitboard::flips_for_moves_lanes(&own, &opp, &sqs);
            for i in 0..N {
                if !mover[i] {
                    continue;
                }
                let f = flips[i];
                debug_assert_ne!(f, 0, "legal move flips nothing");
                // Apply and hand the move to the other side in one step:
                // the next mover's discs are the old opponent's minus the
                // flips; the new opponent is the old mover plus flips and
                // the placed disc.
                let moved = own[i] | f | (1u64 << sqs[i]);
                own[i] = opp[i] & !f;
                opp[i] = moved;
                own_is_black[i] = !own_is_black[i];
                plies[i] += 1;
                assert!(
                    plies[i] as usize <= Self::MAX_GAME_LENGTH,
                    "{} playout exceeded MAX_GAME_LENGTH={}",
                    Self::NAME,
                    Self::MAX_GAME_LENGTH
                );
            }
        }
        results.map(|r| r.expect("all lanes ran to completion"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn initial() -> Reversi {
        Reversi::initial()
    }

    #[test]
    fn initial_position_setup() {
        let s = initial();
        assert_eq!(s.counts(), (2, 2));
        assert_eq!(s.to_move(), Player::P1);
        assert!(!s.is_terminal());
        assert_eq!(s.score(), 0);
    }

    #[test]
    fn initial_legal_moves_are_the_four_classics() {
        let s = initial();
        let mut buf = MoveBuf::new();
        s.legal_moves(&mut buf);
        let mut squares: Vec<u8> = buf.iter().map(|m| m.0).collect();
        squares.sort_unstable();
        // d3, c4, f5, e6 under our row-major layout.
        assert_eq!(squares, vec![19, 26, 37, 44]);
    }

    #[test]
    fn applying_d3_flips_d4() {
        let mut s = initial();
        s.apply(ReversiMove::from_coords(3, 2)); // d3
        let (b, w) = s.counts();
        assert_eq!((b, w), (4, 1));
        assert_eq!(s.to_move(), Player::P2);
        // d4 (bit 27) must now be black.
        assert!(s.black() & (1u64 << 27) != 0);
    }

    #[test]
    fn flip_count_reported() {
        let mut s = initial();
        let flipped = s.apply_counted(ReversiMove(19));
        assert_eq!(flipped, 1);
    }

    #[test]
    fn perft_matches_published_values() {
        // Published Othello perft (FFO): 4, 12, 56, 244, 1396, 8200.
        fn perft(s: Reversi, depth: u32) -> u64 {
            if depth == 0 {
                return 1;
            }
            if s.is_terminal() {
                return 1;
            }
            let mut buf = MoveBuf::new();
            s.legal_moves(&mut buf);
            let mut n = 0;
            for &mv in &buf {
                let mut child = s;
                child.apply(mv);
                n += perft(child, depth - 1);
            }
            n
        }
        let s = initial();
        assert_eq!(perft(s, 1), 4);
        assert_eq!(perft(s, 2), 12);
        assert_eq!(perft(s, 3), 56);
        assert_eq!(perft(s, 4), 244);
        assert_eq!(perft(s, 5), 1396);
        assert_eq!(perft(s, 6), 8200);
    }

    #[test]
    fn pass_moves_are_generated_when_forced() {
        // A lone black disc with no white discs at all: neither side can
        // flip anything, so the game is over and no moves are generated.
        let s = Reversi::from_bitboards(1, 0, Player::P1);
        let mut buf = MoveBuf::new();
        s.legal_moves(&mut buf);
        assert!(s.is_terminal());
        assert!(buf.is_empty());

        // A real pass position: White a1, Black b1. White to move can play
        // c1 (flipping b1); Black to move has no placement and must pass.
        let s = Reversi::from_bitboards(1 << 1, 1 << 0, Player::P2);
        // White to move: white a1, black b1 -> white plays c1 flipping b1.
        let mut buf = MoveBuf::new();
        s.legal_moves(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0], ReversiMove(2));

        // Black to move in the same diagram has no placement but White does:
        // the only legal black move is PASS.
        let s = Reversi::from_bitboards(1 << 1, 1 << 0, Player::P1);
        let mut buf = MoveBuf::new();
        s.legal_moves(&mut buf);
        assert_eq!(buf.len(), 1);
        assert!(buf[0].is_pass());
        assert!(s.must_pass());
    }

    #[test]
    fn pass_toggles_side_only() {
        let mut s = Reversi::from_bitboards(1 << 1, 1 << 0, Player::P1);
        let before = (s.black(), s.white());
        s.apply(ReversiMove::PASS);
        assert_eq!((s.black(), s.white()), before);
        assert_eq!(s.to_move(), Player::P2);
    }

    #[test]
    fn terminal_outcome_by_disc_count() {
        // Disc groups in opposite corners: no square can flip anything, so
        // the positions are terminal and decided by disc count.
        let s = Reversi::from_bitboards(0b111, 0, Player::P1);
        assert!(s.is_terminal());
        assert_eq!(s.outcome(), Some(Outcome::Win(Player::P1)));
        let s = Reversi::from_bitboards(1, 0b111 << 61, Player::P1);
        assert!(s.is_terminal());
        assert_eq!(s.outcome(), Some(Outcome::Win(Player::P2)));
        let s = Reversi::from_bitboards(0b11, 0b11 << 62, Player::P1);
        assert!(s.is_terminal());
        assert_eq!(s.outcome(), Some(Outcome::Draw));
    }

    #[test]
    fn random_move_agrees_with_move_list() {
        use pmcts_util::Xoshiro256pp;
        let mut rng = Xoshiro256pp::new(11);
        let mut s = initial();
        for _ in 0..40 {
            if s.is_terminal() {
                break;
            }
            let mut buf = MoveBuf::new();
            s.legal_moves(&mut buf);
            let mv = s.random_move(&mut rng).expect("non-terminal");
            assert!(buf.contains(&mv), "random move {mv:?} not in legal list");
            s.apply(mv);
        }
    }

    #[test]
    fn move_coords_roundtrip() {
        let m = ReversiMove::from_coords(4, 3); // e4
        assert_eq!(m.square(), Some(28));
        assert!(!m.is_pass());
        assert!(ReversiMove::PASS.is_pass());
        assert_eq!(ReversiMove::PASS.square(), None);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_bitboards_rejected() {
        Reversi::from_bitboards(1, 1, Player::P1);
    }

    #[test]
    fn incremental_zobrist_matches_full_rehash() {
        use pmcts_util::Xoshiro256pp;
        let mut rng = Xoshiro256pp::new(13);
        for _ in 0..20 {
            let mut s = initial();
            while let Some(mv) = s.random_move(&mut rng) {
                s.apply(mv);
                assert_eq!(
                    s.zobrist(),
                    zobrist::hash(s.black(), s.white(), s.to_move()),
                    "incremental hash drifted after {mv:?}\n{s}"
                );
            }
        }
    }

    #[test]
    fn pass_updates_hash_by_side_key_only() {
        let mut s = Reversi::from_bitboards(1 << 1, 1 << 0, Player::P1);
        let before = s.zobrist();
        s.apply(ReversiMove::PASS);
        assert_eq!(s.zobrist(), before ^ zobrist::side_key());
    }

    #[test]
    fn zobrist_distinguishes_positions_and_sides() {
        let a = initial();
        let mut b = initial();
        b.apply(ReversiMove(19));
        assert_ne!(a.zobrist(), b.zobrist());
        let flipped = Reversi::from_bitboards(a.black(), a.white(), Player::P2);
        assert_ne!(a.zobrist(), flipped.zobrist());
        // Deterministic across calls.
        assert_eq!(a.zobrist(), Reversi::initial().zobrist());
    }
}
