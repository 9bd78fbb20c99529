//! The Upper Confidence Bound selection rule (paper §II.1).
//!
//! `UCB_i = S_i / t_i + C · sqrt(ln T / t_i)` where `S_i` is the child's
//! accumulated reward, `t_i` its visit count and `T` the parent's visit
//! count. The first term exploits (average value), the second explores
//! (rarely visited nodes score higher).
//!
//! [`SearchTree::select`](crate::tree::SearchTree::select) counts playouts
//! still in flight as samples of unknown outcome, passing `t_i + O_i` and
//! `ln(T + O_T)`: the WU-UCT correction, and tree parallelism's virtual
//! loss.

/// UCB1 value of a child node.
///
/// `wins` is the child's accumulated reward from the perspective of the
/// player choosing among the children. Unvisited children score `+∞` so
/// they are tried before any re-visit (the caller normally keeps unexpanded
/// moves in a separate untried list, making this a safety net).
#[inline]
pub fn ucb1(parent_visits: u64, child_visits: u64, child_wins: f64, c: f64) -> f64 {
    ucb1_with_ln(
        (parent_visits.max(1) as f64).ln(),
        child_visits,
        child_wins,
        c,
    )
}

/// UCB1 with `ln T` precomputed by the caller.
///
/// `ln T` depends only on the parent, so selection hoists it out of the
/// per-child loop; one `ln` per node instead of one per child. The floating
/// point expression is otherwise identical to [`ucb1`], so values (and
/// therefore every selection decision) are bit-identical.
#[inline]
pub fn ucb1_with_ln(ln_parent_visits: f64, child_visits: u64, child_wins: f64, c: f64) -> f64 {
    if child_visits == 0 {
        return f64::INFINITY;
    }
    let t = child_visits as f64;
    let exploit = child_wins / t;
    let explore = c * (ln_parent_visits / t).sqrt();
    exploit + explore
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unvisited_children_are_infinitely_attractive() {
        assert_eq!(ucb1(10, 0, 0.0, 1.4), f64::INFINITY);
    }

    #[test]
    fn exploitation_term_is_mean_reward() {
        // With c = 0 the value is exactly the mean.
        assert!((ucb1(100, 10, 7.0, 0.0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn exploration_prefers_rarely_visited() {
        // Same mean, fewer visits => higher UCB.
        let rare = ucb1(1000, 10, 5.0, 1.4);
        let frequent = ucb1(1000, 100, 50.0, 1.4);
        assert!(rare > frequent);
    }

    #[test]
    fn exploration_grows_with_parent_visits() {
        let early = ucb1(10, 5, 2.5, 1.4);
        let late = ucb1(10_000, 5, 2.5, 1.4);
        assert!(late > early);
    }

    #[test]
    fn larger_c_explores_more() {
        // A low-mean rarely-visited child overtakes a high-mean child as C
        // increases.
        let weak_rare = |c| ucb1(1000, 40, 10.0, c);
        let strong_common = |c| ucb1(1000, 400, 300.0, c);
        assert!(weak_rare(0.5) < strong_common(0.5));
        assert!(weak_rare(5.0) > strong_common(5.0));
    }

    #[test]
    fn zero_parent_visits_is_safe() {
        let v = ucb1(0, 1, 1.0, 1.4);
        assert!(v.is_finite());
    }

    #[test]
    fn hoisted_ln_is_bit_identical_to_ucb1() {
        for parent in [0u64, 1, 2, 10, 1_000, 123_456_789] {
            let ln = (parent.max(1) as f64).ln();
            for (visits, wins) in [(0u64, 0.0), (1, 0.5), (7, 3.0), (1_000, 420.5)] {
                for c in [0.0, 0.5, 1.4, 5.0] {
                    let a = ucb1(parent, visits, wins, c);
                    let b = ucb1_with_ln(ln, visits, wins, c);
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
