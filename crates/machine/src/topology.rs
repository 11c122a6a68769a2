//! Interconnect topologies and hop counting.

/// Interconnection network of the simulated machine.
///
/// The topology only affects the per-hop component of message latency (see
/// [`crate::CostModel::hop`]); links are assumed contention-free, which is the
/// same idealization the paper's discussion makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every pair of processors is directly connected (1 hop).
    FullyConnected,
}

impl Topology {
    /// Number of hops between ranks `a` and `b` on a machine of `p` procs.
    ///
    /// `hops(a, a) == 0` for every topology.
    pub fn hops(&self, a: usize, b: usize, p: usize) -> usize {
        assert!(a < p && b < p, "rank out of range: {a}, {b} on {p} procs");
        match *self {
            Topology::FullyConnected => usize::from(a != b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_distance_is_zero() {
        for r in 0..8 {
            assert_eq!(Topology::FullyConnected.hops(r, r, 8), 0);
        }
    }

    #[test]
    fn fully_connected_is_one_hop() {
        let t = Topology::FullyConnected;
        for a in 0..5 {
            for b in (0..5).filter(|&b| b != a) {
                assert_eq!(t.hops(a, b, 5), 1, "{a} {b}");
            }
        }
    }

    #[test]
    fn symmetry() {
        let t = Topology::FullyConnected;
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.hops(a, b, 16), t.hops(b, a, 16), "{a} {b}");
            }
        }
    }
}
