//! The execution-backend seam: one machine API, two time semantics.
//!
//! Everything structural about a run — SPMD threads, channel transport,
//! per-`(src, tag)` posting-order message matching, collectives, counter
//! bookkeeping — is shared code in [`crate::Proc`] / [`crate::Machine`].
//! What differs between backends is *what time means*, and that policy
//! lives behind the [`Backend`] trait:
//!
//! * [`BackendKind::Sim`] — the deterministic virtual-time simulator.
//!   Local work and message transit are charged to a scalar virtual
//!   clock from the [`CostModel`] (`α + β·words + hop·distance`, per-flop
//!   and per-word compute costs), so a run reports the timeline of an
//!   iPSC/2-class machine bit-for-bit reproducibly. This backend is the
//!   cost model and the differential oracle: every protocol claim in
//!   this repository is pinned against it.
//! * [`BackendKind::Threads`] — real concurrency. The same processor
//!   threads run the same protocol over the same channels, but nothing
//!   is charged to the virtual clock (it stays at zero): the only
//!   timing a threads run reports is measured wall-clock time
//!   ([`crate::RunReport::wall_seconds`]). Message matching still uses
//!   posting-order tickets per `(src, tag)`, so payload pairing — and
//!   therefore every numerical result and traffic counter — is bitwise
//!   identical to the simulator regardless of OS scheduling.
//!
//! Backend selection is **data**, never a type at a call site:
//! construct machines with [`crate::Machine::build`] (or set
//! [`crate::MachineConfig::backend`]), and pick the kind from
//! [`BackendKind::from_env`] where the `KALI_BACKEND` environment
//! variable should decide.

use crate::cost::CostModel;

/// Which execution backend a machine runs on. Plain data, carried by
/// [`crate::MachineConfig`]; defaults to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Deterministic virtual-time simulator (the differential oracle).
    #[default]
    Sim,
    /// Real OS threads, wall-clock timing, no virtual cost accounting.
    Threads,
}

impl BackendKind {
    /// Read the backend from the `KALI_BACKEND` environment variable
    /// (`sim` or `threads`, case-insensitive); unset or empty means
    /// [`BackendKind::Sim`]. Panics on an unrecognized value — a typo'd
    /// backend silently simulating would invalidate a measurement.
    pub fn from_env() -> Self {
        match std::env::var("KALI_BACKEND") {
            Ok(v) if v.is_empty() => BackendKind::Sim,
            Ok(v) => v
                .parse()
                .unwrap_or_else(|e: String| panic!("KALI_BACKEND: {e}")),
            Err(_) => BackendKind::Sim,
        }
    }

    /// Stable lower-case name (`"sim"` / `"threads"`), used in reports
    /// and archived JSON schemas.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Threads => "threads",
        }
    }

    /// Does this backend account virtual time? `false` means clocks,
    /// busy/idle and every derived virtual quantity are identically zero
    /// and only wall-clock timing is meaningful.
    pub fn virtual_time(self) -> bool {
        matches!(self, BackendKind::Sim)
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sim" | "simulator" | "virtual" => Ok(BackendKind::Sim),
            "threads" | "thread" | "real" => Ok(BackendKind::Threads),
            other => Err(format!(
                "unknown backend {other:?} (expected \"sim\" or \"threads\")"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The time-semantics policy of one backend: how much virtual time each
/// primitive charges and what a message's virtual arrival stamp is.
///
/// [`crate::Proc`] calls these hooks on every `compute`/`memop`/
/// `send`/`recv`; the simulator implements the LogGP-flavoured
/// [`CostModel`] arithmetic, the threads backend returns zero everywhere
/// so the machinery runs at hardware speed with the clock pinned at the
/// origin. Implementations are stateless — per-processor state (clock,
/// counters, tickets) stays in [`crate::Proc`] so both backends share
/// the exact matching semantics.
pub trait Backend: Send + Sync {
    /// Which kind this is (lets shared code brand reports).
    fn kind(&self) -> BackendKind;

    /// Virtual seconds charged for `flops` floating-point operations.
    fn flop_seconds(&self, cost: &CostModel, flops: f64) -> f64;

    /// Virtual seconds charged for moving `words` through local memory.
    fn memop_seconds(&self, cost: &CostModel, words: f64) -> f64;

    /// Virtual seconds of CPU overhead charged on each send and each
    /// receive posting.
    fn overhead_seconds(&self, cost: &CostModel) -> f64;

    /// Virtual arrival stamp for a message of `words` words over `hops`
    /// hops, posted when the sender's clock reads `now`.
    fn arrival(&self, cost: &CostModel, now: f64, words: usize, hops: usize) -> f64;
}

/// The deterministic virtual-time simulator: full [`CostModel`]
/// accounting, exactly the semantics this crate has always had.
pub(crate) struct SimBackend;

impl Backend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn flop_seconds(&self, cost: &CostModel, flops: f64) -> f64 {
        flops * cost.flop
    }

    fn memop_seconds(&self, cost: &CostModel, words: f64) -> f64 {
        words * cost.memop
    }

    fn overhead_seconds(&self, cost: &CostModel) -> f64 {
        cost.overhead
    }

    fn arrival(&self, cost: &CostModel, now: f64, words: usize, hops: usize) -> f64 {
        now + cost.wire_time(words, hops)
    }
}

/// Real threads: no virtual charging at all. A message's virtual arrival
/// is its post instant, so `recv`/`wait` never charge virtual idle —
/// the thread still physically blocks until the payload is delivered,
/// and that real waiting shows up in measured wall-clock time instead.
pub(crate) struct ThreadsBackend;

impl Backend for ThreadsBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Threads
    }

    fn flop_seconds(&self, _cost: &CostModel, _flops: f64) -> f64 {
        0.0
    }

    fn memop_seconds(&self, _cost: &CostModel, _words: f64) -> f64 {
        0.0
    }

    fn overhead_seconds(&self, _cost: &CostModel) -> f64 {
        0.0
    }

    fn arrival(&self, _cost: &CostModel, now: f64, _words: usize, _hops: usize) -> f64 {
        now
    }
}

/// The (stateless) backend implementation for a kind.
pub(crate) fn backend_for(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Sim => &SimBackend,
        BackendKind::Threads => &ThreadsBackend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_and_renders() {
        assert_eq!("sim".parse::<BackendKind>().unwrap(), BackendKind::Sim);
        assert_eq!("SIM".parse::<BackendKind>().unwrap(), BackendKind::Sim);
        assert_eq!(
            "threads".parse::<BackendKind>().unwrap(),
            BackendKind::Threads
        );
        assert_eq!("real".parse::<BackendKind>().unwrap(), BackendKind::Threads);
        assert!("loom".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Threads.to_string(), "threads");
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn sim_backend_charges_cost_model() {
        let c = CostModel::unit();
        let b = SimBackend;
        assert_eq!(b.kind(), BackendKind::Sim);
        assert_eq!(b.flop_seconds(&c, 1000.0), 1.0);
        assert_eq!(b.arrival(&c, 2.0, 10, 0), 2.0 + 1.0 + 1.0);
        assert!(BackendKind::Sim.virtual_time());
    }

    #[test]
    fn threads_backend_charges_nothing() {
        let c = CostModel::ipsc2();
        let b = ThreadsBackend;
        assert_eq!(b.kind(), BackendKind::Threads);
        assert_eq!(b.flop_seconds(&c, 1e9), 0.0);
        assert_eq!(b.memop_seconds(&c, 1e9), 0.0);
        assert_eq!(b.overhead_seconds(&c), 0.0);
        assert_eq!(b.arrival(&c, 3.5, 1 << 20, 9), 3.5);
        assert!(!BackendKind::Threads.virtual_time());
    }
}
