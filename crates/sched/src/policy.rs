//! The execution policy every consumer of the scheduling engine shares.
//!
//! Both drivers of this engine — the KF1 interpreter (`kali-lang`) and
//! the compiled stencil-plan path (`kali-runtime`) — choose between the
//! same independent strategy axes. [`ExecPolicy`] is that choice as
//! one piece of shared data, defined here next to the executor it
//! configures so neither consumer can grow a private variant drifting
//! out of sync with the other.

/// How a communicating `doall` executes. The *answer* never depends on
/// the policy — differential suites pin every combination bitwise —
/// only the virtual timeline and the schedule-construction work do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecPolicy {
    /// Post the exchanged values nonblocking and run the
    /// communication-free interior iterations while they are in transit
    /// (the four-phase post / interior / complete / boundary engine).
    /// `false` exchanges synchronously and runs the iterations in
    /// natural order.
    pub split: bool,
    /// Replay warm exchanges from the cached schedule, with the
    /// replay-consensus vote piggybacked as a one-word header on the
    /// fused value messages (rollback on disagreement). `false` runs the
    /// pre-caching baseline: every trip rebuilds, and the trip driver
    /// ([`crate::Trip`]), which alone reads this, leaves the cache be.
    pub optimistic: bool,
}

impl Default for ExecPolicy {
    /// Split-phase with optimistic replay: the latency-hiding,
    /// schedule-replaying fast path.
    fn default() -> Self {
        ExecPolicy {
            split: true,
            optimistic: true,
        }
    }
}

impl ExecPolicy {
    /// Fully synchronous, rebuild-per-exchange: the differential baseline.
    pub fn blocking() -> Self {
        ExecPolicy {
            split: false,
            optimistic: false,
        }
    }

    /// Split-phase overlap, rebuilding every trip.
    pub fn pessimistic() -> Self {
        ExecPolicy {
            split: true,
            optimistic: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_the_strategy_lattice() {
        let square = |split, optimistic| ExecPolicy { split, optimistic };
        assert_eq!(ExecPolicy::default(), square(true, true));
        assert_eq!(ExecPolicy::pessimistic(), square(true, false));
        assert_eq!(ExecPolicy::blocking(), square(false, false));
    }
}
