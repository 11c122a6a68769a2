//! Communication / computation cost model (LogGP-flavoured).

/// Cost model for the simulated machine, in (virtual) seconds.
///
/// A message of `w` 8-byte words travelling `h` hops arrives
/// `overhead + alpha + beta*w + hop*h` after the send is issued; the sender is
/// occupied for `overhead`, the receiver for another `overhead` on receipt.
/// A floating point operation costs `flop`; a local memory move of one word
/// costs `memop`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message start-up latency (seconds).
    pub alpha: f64,
    /// Per-word (8 bytes) transmission cost (seconds).
    pub beta: f64,
    /// Additional per-hop latency for multi-hop routes (seconds).
    pub hop: f64,
    /// Cost of one floating-point operation (seconds).
    pub flop: f64,
    /// Cost of moving one word through local memory (seconds).
    pub memop: f64,
    /// CPU time consumed on each send and each receive (seconds).
    pub overhead: f64,
}

impl CostModel {
    /// Intel iPSC/2-class node (circa 1989): ~2 Mflop/s scalar nodes,
    /// ~350 µs message start-up, ~2.8 MB/s links, ~30 µs extra per hop.
    ///
    /// These figures reproduce the regime the paper's discussion assumes:
    /// communication start-up costs worth hundreds of flops, so surface/volume
    /// ratios and pipelining decisions dominate performance.
    pub fn ipsc2() -> Self {
        CostModel {
            alpha: 350e-6,
            beta: 2.8e-6,
            hop: 30e-6,
            flop: 0.5e-6,
            memop: 0.05e-6,
            overhead: 25e-6,
        }
    }

    /// Round numbers (α=1, β=0.1, flop=0.001, free hops/overhead/memops);
    /// convenient for hand-checkable unit tests.
    pub fn unit() -> Self {
        CostModel {
            alpha: 1.0,
            beta: 0.1,
            hop: 0.0,
            flop: 1e-3,
            memop: 0.0,
            overhead: 0.0,
        }
    }

    /// Scale communication terms (`alpha`, `beta`, `hop`, `overhead`) by `s`,
    /// leaving computation costs untouched. Used for crossover sweeps.
    pub fn scale_comm(mut self, s: f64) -> Self {
        self.alpha *= s;
        self.beta *= s;
        self.hop *= s;
        self.overhead *= s;
        self
    }

    /// Time for a single message of `words` words over `hops` hops,
    /// excluding sender/receiver overheads.
    pub fn wire_time(&self, words: usize, hops: usize) -> f64 {
        self.alpha + self.beta * words as f64 + self.hop * hops as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::ipsc2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_is_affine_in_words_and_hops() {
        let c = CostModel::unit();
        assert_eq!(c.wire_time(0, 0), 1.0);
        assert_eq!(c.wire_time(10, 0), 2.0);
        let c2 = CostModel {
            hop: 0.5,
            ..CostModel::unit()
        };
        assert_eq!(c2.wire_time(10, 4), 4.0);
    }

    #[test]
    fn scale_comm_leaves_flops_alone() {
        let c = CostModel::ipsc2().scale_comm(10.0);
        assert_eq!(c.alpha, 3500e-6);
        assert_eq!(c.flop, 0.5e-6);
    }

    #[test]
    fn presets_are_sane() {
        for c in [CostModel::ipsc2(), CostModel::unit()] {
            assert!(c.alpha >= 0.0 && c.beta >= 0.0 && c.flop >= 0.0);
        }
        // A message start-up is worth hundreds of flops — the regime in
        // which the paper's pipelining/distribution choices matter.
        let old = CostModel::ipsc2();
        assert!(old.alpha / old.flop > 100.0);
    }
}
