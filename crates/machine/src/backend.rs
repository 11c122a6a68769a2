//! The execution backends: one machine API, one charging path, two price
//! lists.
//!
//! Everything about a run — SPMD threads, channel transport,
//! per-`(src, tag)` posting-order message matching, collectives, counter
//! bookkeeping and the virtual-time arithmetic itself — is shared code in
//! [`crate::Proc`] / [`crate::Machine`]. A backend does not change that
//! code; it picks the [`CostModel`] the code charges from, once, when a
//! processor is built:
//!
//! * [`BackendKind::Sim`] — the deterministic virtual-time simulator.
//!   Local work and message transit are charged to a scalar virtual
//!   clock from the machine's [`CostModel`] (`α + β·words + hop·distance`,
//!   per-flop and per-word compute costs), so a run reports the timeline
//!   of an iPSC/2-class machine bit-for-bit reproducibly. This backend is
//!   the cost model and the differential oracle: every protocol claim in
//!   this repository is pinned against it.
//! * [`BackendKind::Threads`] — real concurrency. The same processor
//!   threads run the same protocol over the same channels and the same
//!   arithmetic, at every price zero: each charge adds `0.0` and each
//!   arrival stamp is its post instant, so every clock stays at zero and
//!   the only timing a threads run reports is measured wall-clock time
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

    /// The price list [`crate::Proc`] charges from on this backend: the
    /// machine's cost model on the simulator, every price zero on
    /// threads.
    pub(crate) fn prices(self, cost: CostModel) -> CostModel {
        match self {
            BackendKind::Sim => cost,
            BackendKind::Threads => CostModel {
                alpha: 0.0,
                beta: 0.0,
                hop: 0.0,
                flop: 0.0,
                memop: 0.0,
                overhead: 0.0,
            },
        }
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

    /// The simulator charges the machine's cost model: a flop and a word
    /// at their prices, a send its overhead, and an arrival stamp of
    /// `α + β·words + hop·distance` after it (dyadic prices, exact sums).
    #[test]
    fn sim_charges_the_machine_cost_model() {
        use crate::{tag, Machine, MachineConfig, Topology, NS_USER};
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.25,
            hop: 0.5,
            flop: 0.125,
            memop: 0.5,
            overhead: 0.25,
        };
        let cfg = MachineConfig::new(4)
            .with_cost(cost)
            .with_topology(Topology::FullyConnected);
        let run = Machine::run(cfg, |proc| match proc.rank() {
            0 => {
                proc.compute(8.0);
                proc.memop(2.0);
                proc.send(2, tag(NS_USER, 1), vec![0.0f64; 4]);
            }
            2 => {
                let _: Vec<f64> = proc.recv(0, tag(NS_USER, 1));
            }
            _ => {}
        });
        let [p0, _, p2, _] = &run.report.procs[..] else {
            unreachable!()
        };
        // 1 (flops) + 1 (words) + 0.25 (send overhead).
        assert_eq!((p0.clock, p0.stats.busy, p0.stats.idle), (2.25, 2.25, 0.0));
        // Arrival 2.25 + 1 + 4·0.25 + 1·0.5 = 4.75, then the receive overhead.
        assert_eq!((p2.clock, p2.stats.busy, p2.stats.idle), (5.0, 0.25, 4.75));
        assert_eq!(run.report.elapsed, 5.0);
    }

    /// The threads backend is the simulator at zero cost: one SPMD body
    /// — sends, blocking and split-phase receives, collectives, `compute`,
    /// `compute_each` and `memop` — run on threads under the iPSC/2 model
    /// and on the sim under an all-zero model leaves equal stats on every
    /// rank, and no virtual time anywhere. A threads charge that kept any
    /// one nonzero price would show in `busy`, `idle` or the clock.
    #[test]
    fn threads_are_the_simulator_at_zero_cost() {
        use crate::{collective, tag, Machine, MachineConfig, Team, NS_USER};
        let body = |proc: &mut crate::Proc| {
            let (me, p) = (proc.rank(), proc.nprocs());
            let (nxt, prv) = ((me + 1) % p, (me + p - 1) % p);
            let t = tag(NS_USER, 48);
            proc.compute(250.0 * (me + 1) as f64);
            proc.memop(64.0);
            let h = proc.irecv::<Vec<f64>>(prv, t);
            proc.send(nxt, t, vec![me as f64; 16]);
            proc.compute_each(&[2.0, 0.5, 7.0], 100);
            let got = proc.wait(h);
            proc.send(prv, t + 1, got[0]);
            let back: f64 = proc.recv(nxt, t + 1);
            let team = Team::all(p);
            let sum = collective::allreduce_sum(proc, &team, back);
            collective::barrier(proc, &team);
            (sum, proc.clock())
        };
        let cfg = MachineConfig::new(4).with_cost(CostModel::ipsc2());
        let zero = CostModel {
            alpha: 0.0,
            beta: 0.0,
            hop: 0.0,
            flop: 0.0,
            memop: 0.0,
            overhead: 0.0,
        };
        let thr = Machine::run(cfg.clone().with_backend(BackendKind::Threads), body);
        let sim = Machine::run(cfg.with_cost(zero), body);
        assert_eq!(thr.results, sim.results);
        for (t, s) in thr.report.procs.iter().zip(&sim.report.procs) {
            assert_eq!(t.stats, s.stats, "rank {}", t.rank);
            assert_eq!(t.clock, 0.0);
            assert_eq!(s.clock, 0.0);
            for v in [t.stats.busy, t.stats.idle, t.stats.overlap_hidden] {
                assert_eq!(v, 0.0, "rank {}", t.rank);
            }
        }
        assert!(thr.report.total_msgs > 0 && thr.report.total_flops > 0.0);
        assert!(BackendKind::Sim.virtual_time() && !BackendKind::Threads.virtual_time());
    }
}
