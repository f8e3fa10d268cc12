//! Round-robin arbitration.
//!
//! The paper's crossbar "allows one transaction to each scratchpad bank and
//! to the external memory bus interface per cycle with round-robin
//! arbitration for each resource" (§4), and the frame bus round-robins
//! among the four assist streams. This helper owns the rotating priority
//! pointer for one such resource.

/// Round-robin arbiter over `n` requesters for a single resource.
///
/// Requests arrive as a bitmask: bit *i* set means requester *i* is
/// asking this cycle. Each call to [`RoundRobin::grant`] picks the
/// requesting index closest (cyclically) after the previous winner, so
/// every requester is served within `n` grants of asserting its request.
/// The search is two bit scans, with no loop over idle requesters.
///
/// # Example
///
/// ```
/// use nicsim_sim::RoundRobin;
///
/// let mut rr = RoundRobin::new(3);
/// let all_but_1 = 0b101;
/// assert_eq!(rr.grant(all_but_1), Some(0));
/// assert_eq!(rr.grant(all_but_1), Some(2));
/// assert_eq!(rr.grant(all_but_1), Some(0));
/// assert_eq!(rr.grant(0), None);
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    last: usize,
}

impl RoundRobin {
    /// Most requesters one arbiter can serve: one per bit of the `u64`
    /// request mask.
    pub const MAX_REQUESTERS: usize = u64::BITS as usize;

    /// Create an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`RoundRobin::MAX_REQUESTERS`].
    pub fn new(n: usize) -> RoundRobin {
        assert!(n > 0, "arbiter needs at least one requester");
        assert!(
            n <= Self::MAX_REQUESTERS,
            "arbiter supports at most {} requesters (got {n})",
            Self::MAX_REQUESTERS
        );
        RoundRobin { n, last: n - 1 }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; arbiters are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grant to the first requester in `requests` (bit *i* = requester
    /// *i*) in rotating order after the previous winner: the lowest set
    /// bit above the last winner, else the lowest set bit overall.
    /// Returns the winner, or `None` when the mask is empty. The
    /// priority pointer only advances on a successful grant.
    pub fn grant(&mut self, requests: u64) -> Option<usize> {
        debug_assert!(
            self.n == Self::MAX_REQUESTERS || requests >> self.n == 0,
            "request bit beyond requester {}",
            self.n
        );
        if requests == 0 {
            return None;
        }
        // Two shifts so `last == 63` clears the whole mask instead of
        // overflowing the shift amount.
        let after = requests & (u64::MAX << self.last << 1);
        let pick = if after != 0 { after } else { requests };
        self.last = pick.trailing_zeros() as usize;
        Some(self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mask with the low `n` bits set.
    fn all(n: usize) -> u64 {
        u64::MAX >> (64 - n)
    }

    #[test]
    fn fair_rotation_among_all() {
        let mut rr = RoundRobin::new(4);
        let wins: Vec<_> = (0..8).map(|_| rr.grant(all(4)).unwrap()).collect();
        assert_eq!(wins, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_idle_requesters() {
        let mut rr = RoundRobin::new(4);
        // Only 1 and 3 request.
        let wins: Vec<_> = (0..4).map(|_| rr.grant(0b1010).unwrap()).collect();
        assert_eq!(wins, vec![1, 3, 1, 3]);
    }

    #[test]
    fn none_when_idle() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.grant(0), None);
        // Pointer unchanged: next grant still starts at 0.
        assert_eq!(rr.grant(all(2)), Some(0));
    }

    #[test]
    fn single_requester() {
        let mut rr = RoundRobin::new(1);
        assert_eq!(rr.grant(1), Some(0));
        assert_eq!(rr.grant(1), Some(0));
        assert_eq!(rr.len(), 1);
    }

    #[test]
    fn starvation_freedom_bound() {
        // Any continuously-requesting index is served within n grants.
        let mut rr = RoundRobin::new(5);
        for target in 0..5usize {
            let mut waited = 0;
            loop {
                let w = rr.grant(all(5)).unwrap();
                if w == target {
                    break;
                }
                waited += 1;
                assert!(waited < 5, "requester {target} starved");
            }
        }
    }

    #[test]
    fn full_width_wraps_from_the_top_bit() {
        let mut rr = RoundRobin::new(64);
        assert_eq!(rr.grant(1 << 63), Some(63));
        // `last == 63`: the search wraps to the bottom.
        assert_eq!(rr.grant(1 << 63 | 1 << 5), Some(5));
        assert_eq!(rr.grant(u64::MAX), Some(6));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn more_than_64_requesters_is_rejected() {
        let _ = RoundRobin::new(65);
    }
}
