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
    /// Bidirectional ring; distance is the shorter way round.
    Ring,
    /// 2-D mesh with the given extents (row-major rank order);
    /// distance is Manhattan.
    Mesh2d(usize, usize),
    /// 3-D mesh with the given extents (row-major rank order).
    Mesh3d(usize, usize, usize),
    /// Binary hypercube (requires a power-of-two processor count);
    /// distance is Hamming.
    Hypercube,
}

impl Topology {
    /// Number of hops between ranks `a` and `b` on a machine of `p` procs.
    ///
    /// `hops(a, a) == 0` for every topology.
    pub fn hops(&self, a: usize, b: usize, p: usize) -> usize {
        assert!(a < p && b < p, "rank out of range: {a}, {b} on {p} procs");
        if a == b {
            return 0;
        }
        match *self {
            Topology::FullyConnected => 1,
            Topology::Ring => {
                let d = a.abs_diff(b);
                d.min(p - d)
            }
            Topology::Mesh2d(px, py) => {
                debug_assert_eq!(px * py, p, "mesh extents must cover the machine");
                let (ax, ay) = (a / py, a % py);
                let (bx, by) = (b / py, b % py);
                ax.abs_diff(bx) + ay.abs_diff(by)
            }
            Topology::Mesh3d(px, py, pz) => {
                debug_assert_eq!(px * py * pz, p);
                let (ax, r) = (a / (py * pz), a % (py * pz));
                let (ay, az) = (r / pz, r % pz);
                let (bx, r) = (b / (py * pz), b % (py * pz));
                let (by, bz) = (r / pz, r % pz);
                ax.abs_diff(bx) + ay.abs_diff(by) + az.abs_diff(bz)
            }
            Topology::Hypercube => {
                debug_assert!(p.is_power_of_two(), "hypercube needs 2^d processors");
                (a ^ b).count_ones() as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_distance_is_zero() {
        for t in [
            Topology::FullyConnected,
            Topology::Ring,
            Topology::Mesh2d(2, 4),
            Topology::Mesh3d(2, 2, 2),
            Topology::Hypercube,
        ] {
            for r in 0..8 {
                assert_eq!(t.hops(r, r, 8), 0, "{t:?}");
            }
        }
    }

    #[test]
    fn ring_takes_the_short_way() {
        let t = Topology::Ring;
        assert_eq!(t.hops(0, 7, 8), 1);
        assert_eq!(t.hops(0, 4, 8), 4);
        assert_eq!(t.hops(1, 6, 8), 3);
    }

    #[test]
    fn mesh2d_is_manhattan() {
        let t = Topology::Mesh2d(3, 4); // ranks 0..12, rank = x*4 + y
        assert_eq!(t.hops(0, 11, 12), 2 + 3);
        assert_eq!(t.hops(4, 6, 12), 2);
        assert_eq!(t.hops(0, 4, 12), 1);
    }

    #[test]
    fn mesh3d_is_manhattan() {
        let t = Topology::Mesh3d(2, 2, 2);
        assert_eq!(t.hops(0, 7, 8), 3);
        assert_eq!(t.hops(0, 1, 8), 1);
        assert_eq!(t.hops(1, 6, 8), 3);
    }

    #[test]
    fn hypercube_is_hamming() {
        let t = Topology::Hypercube;
        assert_eq!(t.hops(0b000, 0b111, 8), 3);
        assert_eq!(t.hops(0b101, 0b100, 8), 1);
    }

    #[test]
    fn symmetry() {
        for t in [
            Topology::FullyConnected,
            Topology::Ring,
            Topology::Mesh2d(4, 4),
            Topology::Hypercube,
        ] {
            for a in 0..16 {
                for b in 0..16 {
                    assert_eq!(t.hops(a, b, 16), t.hops(b, a, 16), "{t:?} {a} {b}");
                }
            }
        }
    }
}
