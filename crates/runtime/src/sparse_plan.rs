//! The declarative sparse-plan API: the [`StencilPlan`]'s sibling for
//! irregular reads.
//!
//! A stencil's read footprint is geometric, so its schedule is derived
//! analytically; a sparse matrix's read footprint *is data* — the column
//! index set — so the schedule comes from the classic inspector instead.
//! Everything downstream of that difference is shared: the same
//! [`ExecPolicy`] axes select blocking vs split-phase and per-trip
//! rebuild vs cached optimistic replay, the same `kali-sched` executor
//! moves the fused value messages, and the same piggybacked vote decides
//! warm replays.
//!
//! ```text
//! ctx.sparse().spmv(&a, &x, &mut y)      // y = A·x, one trip
//! ```
//!
//! Under a split policy the trip posts the x-gather nonblocking, computes
//! the *interior* rows — those whose columns are all owner-local, the
//! sparse analogue of the stencil's interior box — while remote values
//! are in flight, then finishes the boundary rows. Under an optimistic
//! policy the first trip inspects and every later trip against the same
//! pattern replays warm: a CG solve pays the inspector exactly once
//! ([`kali_array::SparseCsr`] for the protocol detail).
//!
//! [`ExecPolicy`]: crate::ExecPolicy
//! [`StencilPlan`]: crate::StencilPlan

use kali_array::{DistArray1, Real, SparseCsr};
use kali_sched::interior_runs;

use crate::Ctx;

/// A sparse plan being built: created by [`Ctx::sparse`], run under
/// the context's [`ExecPolicy`](crate::ExecPolicy) by [`SparsePlan::spmv`].
pub struct SparsePlan<'c, 'p> {
    pub(crate) ctx: &'c mut Ctx<'p>,
}

impl SparsePlan<'_, '_> {
    /// `y = A·x` — one sparse matrix-vector trip under the context's
    /// policy. `x` and `y` must be block-distributed over the matrix's
    /// grid (`y` sharing the row distribution); every owned row of `y`
    /// is rewritten. Bitwise-identical results across every policy
    /// combination: the policy chooses *when* remote x-values arrive,
    /// never the row arithmetic order.
    pub fn spmv<T: Real>(self, a: &SparseCsr<T>, x: &DistArray1<T>, y: &mut DistArray1<T>) {
        let policy = self.ctx.policy();
        let (proc, gather) = self.ctx.proc_and_gather();
        if !a.in_grid() {
            return;
        }
        let pending = a.begin_gather(proc, Some(&mut *gather), policy, x);
        // Whenever values are in flight against a locally known
        // schedule, its interior rows — all columns owner-local — run
        // now; everything else waits for the haul.
        let pre = pending.local_schedule();
        if let Some(sched) = &pre {
            let nnz: usize = interior_runs(&sched.boundary, a.local_rows())
                .map(|rows| a.apply_rows(x, None, y, rows))
                .sum();
            proc.compute(2.0 * nnz as f64);
        }
        let got = a.finish_gather(proc, Some(gather), x, pending);
        let nnz = if pre.is_some() {
            a.apply_positions(x, Some(got.haul()), y, got.boundary())
        } else {
            a.apply_all(x, Some(got.haul()), y)
        };
        proc.compute(2.0 * nnz as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecPolicy;
    use kali_grid::{DistSpec, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    fn band_row(n: usize) -> impl FnMut(usize) -> Vec<(usize, f64)> {
        move |i| {
            [i.checked_sub(2), Some(i), (i + 2 < n).then_some(i + 2)]
                .into_iter()
                .flatten()
                .map(|c| (c, ((i * 7 + c * 3) % 11) as f64 + 1.0))
                .collect()
        }
    }

    fn run_spmv(policy: ExecPolicy, trips: usize) -> kali_machine::MachineRun<Option<Vec<f64>>> {
        let n = 23;
        Machine::run(cfg(4), move |proc| {
            let g = ProcGrid::new_1d(4);
            let a = SparseCsr::from_rows(proc.rank(), &g, n, n, band_row(n));
            let spec = DistSpec::block1();
            let x = DistArray1::from_fn(proc.rank(), &g, &spec, [n], [0], |[i]| {
                (i % 13) as f64 * 0.5 + 1.0
            });
            let mut y = DistArray1::from_fn(proc.rank(), &g, &spec, [n], [0], |_| 0.0);
            let mut ctx = Ctx::with_policy(proc, g, policy);
            for _ in 0..trips {
                ctx.sparse().spmv(&a, &x, &mut y);
            }
            y.gather_to_root(ctx.proc())
        })
    }

    /// Every policy combination must produce the same bits; the cached
    /// policies must inspect once and replay the rest warm.
    #[test]
    fn spmv_is_policy_invariant_bitwise_and_replays_warm() {
        let blocking = run_spmv(ExecPolicy::blocking(), 3);
        let pessimistic = run_spmv(ExecPolicy::pessimistic(), 3);
        let optimistic = run_spmv(ExecPolicy::default(), 3);
        let a = blocking.results[0].as_ref().unwrap();
        for other in [&pessimistic, &optimistic] {
            let b = other.results[0].as_ref().unwrap();
            for (u, v) in a.iter().zip(b) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        // Blocking/pessimistic re-inspect every trip; optimistic once.
        assert_eq!(blocking.report.total_inspector_runs, 3 * 4);
        assert_eq!(pessimistic.report.total_inspector_runs, 3 * 4);
        assert_eq!(optimistic.report.total_inspector_runs, 4);
        assert_eq!(optimistic.report.total_optimistic_hits, 2 * 4);
        assert_eq!(optimistic.report.total_rollbacks, 0);
        // Warm replays also drop the request round, so the sim timeline
        // must be strictly faster than re-inspecting every trip.
        assert!(optimistic.report.elapsed < pessimistic.report.elapsed);
    }

    /// The split-phase trips must overlap gather transit with interior
    /// row compute.
    #[test]
    fn split_spmv_hides_transit_behind_interior_rows() {
        let split = run_spmv(ExecPolicy::default(), 3);
        assert!(split.report.overlap_hidden_seconds > 0.0);
    }
}
