//! # kali-runtime — the KF1 execution model as a library
//!
//! A KF1 compiler (paper §2) lowers three constructs onto a message-passing
//! machine: `doall` loops with `on` clauses (owner computes + strip mining),
//! copy-in/copy-out semantics for arrays modified inside a `doall`, and
//! distributed procedure calls that carry a slice of the processor array
//! alongside slices of data arrays. This crate is the *target* of such a
//! compiler, packaged as an explicit API:
//!
//! * [`Ctx`] — a processor's view of the current processor array
//!   (initially the whole machine; narrowed by [`Ctx::call_on`] for
//!   distributed procedure calls on grid slices), carrying the
//!   [`ExecPolicy`] every communicating loop executes under and the
//!   [`kali_array::HaloCache`] of analytic ghost schedules;
//! * [`Ctx::plan`] — **the** entry point for communicating `doall`s: a
//!   declarative [`StencilPlan`] where the caller states what a stencil
//!   reads ([`Ghosts`]: width + corner policy) and which loop shape runs
//!   ([`PlanRead::update2_rows`] for copy-in/copy-out updates,
//!   [`PlanRead::run2_rows`] for product-range loops writing elsewhere,
//!   [`PlanRead::run_line_runs`] for line `doall`s, with
//!   [`PlanRead::run_lines`] its per-line adaptor,
//!   [`PlanRead::refresh`] for a bare skirt refresh) — and the runtime
//!   derives and executes the communication: split-phase with the
//!   interior overlapping the transit, warm trips replayed from the
//!   schedule cache with a piggybacked consensus vote, all policy-driven
//!   rather than API-driven. The plan hands the policy and the cache to
//!   the array layer's one begin/finish pair, which runs `kali-sched`'s
//!   trip driver — the one place that decides replay. The two product-range
//!   shapes hand the body whole contiguous row runs (`&[T]` in,
//!   `&mut [T]` out) — the form every solver is written in;
//!   [`PlanRead::update2`] is the per-point convenience, an adaptor over
//!   the row-run engine, not a second engine;
//! * [`Ctx::sparse`] — the same contract for *irregular* reads: a
//!   [`SparsePlan`] drives one inspector-executor SpMV against a
//!   [`kali_array::SparseCsr`], overlapping the x-gather transit with
//!   the matrix rows whose columns are all owner-local and replaying
//!   warm iterations from the gather schedule cache;
//! * [`Ctx::lift`] — the paper's tensor-product move, `call sub(a(i, *), …;
//!   owner(a(i, *)))` for every `i`: a lower-dimensional distributed
//!   procedure applied to each slice of an array on the processor-array
//!   slice that owns it ([`kali_grid::ProcGrid::pin`] +
//!   [`DistArrayN::owner_slice`] + [`Ctx::call_on`]);
//! * global reductions over the current grid.
//!
//! There is deliberately **one** name per construct: how an exchange
//! executes (blocking vs split-phase, rebuilt vs cached) is an
//! [`ExecPolicy`], not a second set of entry points. Everything costs
//! virtual time through the usual [`Proc`] accounting, so programs
//! written against this API are directly comparable with the
//! hand-written message-passing baselines in `kali-mp` (paper claim C2).

use kali_array::{DistArrayN, Elem, GatherCache, HaloCache};
use kali_grid::ProcGrid;
use kali_machine::{collective, Proc, Team};

mod plan;
mod sparse_plan;

pub use plan::{ExecPolicy, Ghosts, PlanRead, StencilPlan};
pub use sparse_plan::SparsePlan;

// The interior/boundary partitions live in the shared scheduling crate
// (they are the compiled-path mirror of `CommSchedule::boundary`);
// re-exported here so runtime users keep their import paths.
pub use kali_sched::{SplitBox2, SplitRange1};

/// Execution context: one processor's handle on the machine plus the
/// processor array currently in scope (the `procs` argument of a
/// `parsub`), the [`ExecPolicy`] its communicating loops run under, and
/// the cache of analytic ghost schedules warm exchanges replay from.
pub struct Ctx<'a> {
    proc: &'a mut Proc,
    grid: ProcGrid,
    policy: ExecPolicy,
    halo: HaloCache,
    gather: GatherCache,
}

impl<'a> Ctx<'a> {
    /// Enter a parallel subroutine on the given processor array, under
    /// the default [`ExecPolicy`] (split-phase, optimistic replay).
    pub fn new(proc: &'a mut Proc, grid: ProcGrid) -> Self {
        Ctx {
            proc,
            grid,
            policy: ExecPolicy::default(),
            halo: HaloCache::new(),
            gather: GatherCache::new(),
        }
    }

    /// Enter with an explicit policy (differential baselines, sweeps).
    pub fn with_policy(proc: &'a mut Proc, grid: ProcGrid, policy: ExecPolicy) -> Self {
        let mut ctx = Ctx::new(proc, grid);
        ctx.policy = policy;
        ctx
    }

    /// The policy communicating loops currently execute under.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Cap the total number of cached halo schedules, evicting the
    /// least-recently-used entries if already over. SPMD programs must
    /// set the same budget on every member: evictions keep the vote gate
    /// up, so a divergent choice degrades to a rollback, but matched
    /// budgets keep warm streams replaying. Long-running servers set this
    /// so shape-diverse request streams cannot grow the cache without
    /// bound.
    pub fn set_halo_budget(&mut self, max_entries: usize) {
        self.halo.set_budget(max_entries);
    }

    /// Number of halo schedule entries currently cached.
    pub fn halo_len(&self) -> usize {
        self.halo.len()
    }

    /// The halo cache's global entry budget (`None` if unbounded).
    pub fn halo_budget(&self) -> Option<usize> {
        self.halo.budget()
    }

    /// Build a [`StencilPlan`] under the context's policy: declare what
    /// the loop reads, then run it.
    pub fn plan(&mut self) -> StencilPlan<'_, 'a> {
        StencilPlan { ctx: self }
    }

    /// Build a [`SparsePlan`] under the context's policy — the sparse
    /// sibling of [`Ctx::plan`]: `ctx.sparse().spmv(&a, &x, &mut y)`
    /// runs one inspector-executor SpMV trip (split-phase overlap, warm
    /// replay, rollback-on-repartition all policy-driven).
    pub fn sparse(&mut self) -> SparsePlan<'_, 'a> {
        SparsePlan { ctx: self }
    }

    /// The machine-level processor handle.
    pub fn proc(&mut self) -> &mut Proc {
        self.proc
    }

    /// Split borrow used by the plan executor: the processor handle and
    /// the halo schedule cache, lent whatever the policy (the trip
    /// driver decides whether to replay from it).
    pub(crate) fn proc_and_halo(&mut self) -> (&mut Proc, &mut HaloCache) {
        (self.proc, &mut self.halo)
    }

    /// [`Ctx::proc_and_halo`] for the sparse plan executor and the
    /// gather schedule cache.
    pub(crate) fn proc_and_gather(&mut self) -> (&mut Proc, &mut GatherCache) {
        (self.proc, &mut self.gather)
    }

    /// The processor array in scope.
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Machine rank of this processor.
    pub fn rank(&self) -> usize {
        self.proc.rank()
    }

    /// Is this processor a member of the current processor array?
    pub fn in_grid(&self) -> bool {
        self.grid.contains(self.proc.rank())
    }

    /// The current grid as a machine [`Team`].
    pub fn team(&self) -> Team {
        self.grid.team()
    }

    /// Call a distributed procedure on a slice of the processor array:
    /// `call sub(...; owner(r(i, *)))`. Only members of `slice` execute
    /// `f`; they see a narrowed context that inherits the caller's
    /// [`ExecPolicy`] and *borrows* the caller's halo schedule cache
    /// (keys carry the team, so slice-team entries are distinct and
    /// survive across repeated calls — mg3's per-plane `mg2` solves
    /// replay warm instead of re-deriving every level's halo per
    /// plane). Returns `Some(result)` on members.
    pub fn call_on<R>(&mut self, slice: ProcGrid, f: impl FnOnce(&mut Ctx) -> R) -> Option<R> {
        if !slice.contains(self.proc.rank()) {
            return None;
        }
        let mut sub = Ctx::new(self.proc, slice);
        sub.policy = self.policy;
        sub.halo = std::mem::take(&mut self.halo);
        sub.gather = std::mem::take(&mut self.gather);
        let r = f(&mut sub);
        self.halo = sub.halo;
        self.gather = sub.gather;
        Some(r)
    }

    /// The tensor-product lift: apply a lower-dimensional distributed
    /// procedure to every slice of `a` along `axis`, each on the
    /// processor-array slice that owns it — Listing 7's
    /// `doall i … call tric(u(i, *), r(i, *); owner(r(i, *)))`, Listing 9's
    /// `call mg2(u(*, *, k), …; owner(u(*, *, k)))`. `body(sub, ks)` runs
    /// once per grid member, on the [`Ctx::call_on`] context of *its*
    /// owner slice ([`DistArrayN::owner_slice`]), with `ks` the indices of
    /// `range` it owns along `axis`. Every member of one slice is handed
    /// the same `ks`, so the body may solve them one collective call at a
    /// time, batch them into one pipelined call, or skip some by colour.
    /// `a` fixes the layout only; the body captures whatever aligned
    /// arrays it reads and writes, and cuts its part of slice `k` with
    /// [`DistArrayN::owned_box`]. `axis` must be contiguous (block or
    /// undistributed). `None` off `a`'s grid.
    pub fn lift<T: Elem, const N: usize, R>(
        &mut self,
        a: &DistArrayN<T, N>,
        axis: usize,
        range: std::ops::Range<usize>,
        body: impl FnOnce(&mut Ctx, std::ops::Range<usize>) -> R,
    ) -> Option<R> {
        assert!(
            a.dist(axis).is_contiguous(),
            "lift along non-contiguous axis {axis}: no one slice owns what I own of it"
        );
        let slice = a.owner_slice([axis])?;
        let owned = a.owned_range(axis);
        let ks = range.start.max(owned.start)..range.end.min(owned.end);
        self.call_on(slice, |sub| body(sub, ks))
    }

    /// Global sum over the current grid (replicated result).
    pub fn allreduce_sum(&mut self, v: f64) -> f64 {
        let team = self.team();
        collective::allreduce_sum(self.proc, &team, v)
    }

    /// Global max over the current grid (replicated result).
    pub fn allreduce_max(&mut self, v: f64) -> f64 {
        let team = self.team();
        collective::allreduce_max(self.proc, &team, v)
    }

    /// Barrier over the current grid.
    pub fn barrier(&mut self) {
        let team = self.team();
        collective::barrier(self.proc, &team);
    }
}

/// Squared 2-norm of a distributed array over the current grid
/// (replicated result). Accumulates in `f64` regardless of the element
/// type, so `f32` arrays get a full-precision residual norm — the usual
/// mixed-precision discipline.
pub fn global_norm2<T: Elem, const N: usize>(ctx: &mut Ctx, a: &DistArrayN<T, N>) -> f64 {
    let mut local = 0.0;
    let mut count = 0usize;
    a.for_each_owned(|_, v| {
        let v = v.to_f64();
        local += v * v;
        count += 1;
    });
    ctx.proc().compute(2.0 * count as f64);
    ctx.allreduce_sum(local)
}

/// Max-abs of a distributed array over the current grid (replicated
/// result). Compares in `f64` regardless of the element type.
pub fn global_max_abs<T: Elem, const N: usize>(ctx: &mut Ctx, a: &DistArrayN<T, N>) -> f64 {
    let mut local = 0.0f64;
    let mut count = 0usize;
    a.for_each_owned(|_, v| {
        local = local.max(v.to_f64().abs());
        count += 1;
    });
    ctx.proc().compute(count as f64);
    ctx.allreduce_max(local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kali_array::DistArray2;
    use kali_grid::{DimDist, DimMap, DistSpec};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    #[test]
    fn call_on_narrows_the_grid_and_inherits_the_policy() {
        let run = Machine::run(cfg(4), |proc| {
            let grid = ProcGrid::new_2d(2, 2);
            let row1 = grid.slice(0, 1);
            let mut ctx = Ctx::with_policy(proc, grid, ExecPolicy::blocking());
            ctx.call_on(row1, |sub| {
                assert_eq!(sub.grid().size(), 2);
                assert_eq!(sub.policy(), ExecPolicy::blocking());
                // Within the slice we can run collectives scoped to it.
                sub.allreduce_sum(1.0)
            })
        });
        assert_eq!(run.results[0], None);
        assert_eq!(run.results[2], Some(2.0));
        assert_eq!(run.results[3], Some(2.0));
    }

    /// `in_grid` asks the grid in scope: a narrowed context is inside its
    /// slice, and a context entered on a grid that leaves me out is
    /// outside it.
    #[test]
    fn in_grid_is_membership_of_the_grid_in_scope() {
        let run = Machine::run(cfg(4), |proc| {
            let grid = ProcGrid::new_2d(2, 2);
            let row1 = grid.slice(0, 1);
            let mut ctx = Ctx::new(proc, grid);
            let whole = ctx.in_grid();
            let narrowed = ctx.call_on(row1.clone(), |sub| sub.in_grid());
            let outside = Ctx::new(ctx.proc(), row1).in_grid();
            (whole, narrowed, outside)
        });
        assert_eq!(
            run.results,
            vec![
                (true, None, false),
                (true, None, false),
                (true, Some(true), true),
                (true, Some(true), true)
            ]
        );
    }

    /// Over a whole machine, `lift` must run its body on every grid member
    /// (`FnOnce`: at most once) and never off the grid, on a context
    /// narrowed to that member's owner slice, and hand out every index of
    /// the range to exactly the processors that own part of that slice of
    /// the array.
    fn check_lift<const N: usize>(spec: DistSpec, extents: [usize; N], axis: usize) {
        // A 2 x 2 grid embedded out of order in a machine of five.
        let ranks = vec![4, 2, 0, 3];
        let range = 1..extents[axis] - 1;
        let (grid_ranks, want_range) = (ranks.clone(), range.clone());
        let run = Machine::run(cfg(5), move |proc| {
            let grid = ProcGrid::with_ranks(vec![2, 2], grid_ranks.clone());
            let a = DistArrayN::<f64, N>::new(proc.rank(), &grid, &spec, extents, [0; N]);
            let mut ctx = Ctx::new(proc, grid);
            let seen = ctx.lift(&a, axis, want_range.clone(), |sub, ks| {
                // A collective scoped to the slice counts its members.
                let members = sub.allreduce_sum(1.0) as usize;
                assert_eq!(members, sub.grid().size());
                (sub.grid().ranks().to_vec(), ks)
            });
            // Who owns part of slice k, by brute force over the array.
            let mut owners = vec![Vec::new(); extents[axis]];
            for flat in 0..extents.iter().product::<usize>() {
                let mut idx = [0; N];
                let mut rem = flat;
                for d in (0..N).rev() {
                    idx[d] = rem % extents[d];
                    rem /= extents[d];
                }
                let (k, owner) = (idx[axis], a.owner_rank(idx));
                if !owners[k].contains(&owner) {
                    owners[k].push(owner);
                }
            }
            (seen, owners)
        });
        let owners = &run.results[0].1;
        for (rank, (seen, _)) in run.results.iter().enumerate() {
            assert_eq!(seen.is_some(), ranks.contains(&rank), "rank {rank}");
        }
        for k in 0..extents[axis] {
            let mut visitors = Vec::new();
            for (rank, (seen, _)) in run.results.iter().enumerate() {
                let Some((slice, ks)) = seen else { continue };
                if ks.contains(&k) {
                    visitors.push(rank);
                    let mut want = owners[k].clone();
                    let mut got = slice.clone();
                    want.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, want, "rank {rank} solves slice {k} on its owners");
                }
            }
            let mut want = if range.contains(&k) {
                owners[k].clone()
            } else {
                vec![]
            };
            want.sort_unstable();
            assert_eq!(visitors, want, "axis {axis} index {k}");
        }
    }

    #[test]
    fn lift_hands_each_slice_to_exactly_its_owner_slice() {
        for axis in 0..2 {
            check_lift(DistSpec::block2(), [6, 9], axis);
        }
        // dist (*, block, block): axis 0 is undistributed, so every member
        // visits all of the range on the whole grid.
        for axis in 0..3 {
            check_lift(DistSpec::local_block_block(), [4, 7, 6], axis);
        }
    }

    #[test]
    fn plan_update_has_copy_in_copy_out_semantics() {
        // A shift `x(i) = x(i+1)` done as a 2-D row; without copy-in/copy-out
        // the values would cascade.
        let run = Machine::run(cfg(2), |proc| {
            let grid = ProcGrid::new_1d(2);
            let spec = DistSpec::local_block();
            let mut u =
                DistArray2::from_fn(proc.rank(), &grid, &spec, [1, 8], [0, 1], |[_, j]| j as f64);
            let mut ctx = Ctx::new(proc, grid);
            ctx.plan()
                .reads(&mut u, Ghosts::faces(1))
                .update2(0..1, 0..7, 1.0, |old, i, j| old.at(i, j + 1));
            u.gather_to_root(proc)
        });
        let g = run.results[0].as_ref().unwrap();
        assert_eq!(g, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.0]);
    }

    /// A product-range plan needs owned boxes: a cyclic dimension is
    /// rejected up front, naming the distribution, in release builds too.
    #[test]
    #[should_panic(expected = "not dist (*, cyclic)")]
    fn plan_update_rejects_a_cyclic_dimension() {
        let _ = Machine::run(cfg(2), |proc| {
            let grid = ProcGrid::new_1d(2);
            let spec = DistSpec::new(vec![DimMap::Local, DimMap::Dist(DimDist::Cyclic)]);
            let mut u = DistArray2::from_fn(proc.rank(), &grid, &spec, [2, 6], [0, 0], |[i, j]| {
                (i * 6 + j) as f64
            });
            let mut ctx = Ctx::new(proc, grid);
            ctx.plan()
                .reads(&mut u, Ghosts::faces(0))
                .update2(0..2, 0..6, 1.0, |old, i, j| old.at(i, j));
        });
    }

    /// Every policy combination must produce the same bits; the split
    /// policies must overlap transit and be faster on this latency-bound
    /// cost model.
    #[test]
    fn plan_update_is_policy_invariant_bitwise() {
        let go = |policy: ExecPolicy| {
            Machine::run(cfg(4), move |proc| {
                let grid = ProcGrid::new_2d(2, 2);
                let spec = DistSpec::block2();
                let mut u =
                    DistArray2::from_fn(proc.rank(), &grid, &spec, [10, 10], [1, 1], |[i, j]| {
                        ((i * 31 + j * 17) % 13) as f64 * 0.25
                    });
                let mut ctx = Ctx::with_policy(proc, grid, policy);
                for _ in 0..4 {
                    ctx.plan().reads(&mut u, Ghosts::faces(1)).update2(
                        1..9,
                        1..9,
                        5.0,
                        |old, i, j| {
                            0.25 * (old.at(i + 1, j)
                                + old.at(i - 1, j)
                                + old.at(i, j + 1)
                                + old.at(i, j - 1))
                        },
                    );
                }
                (u.gather_to_root(proc), proc.stats().overlap_hidden)
            })
        };
        let blocking = go(ExecPolicy::blocking());
        let pessimistic = go(ExecPolicy::pessimistic());
        let optimistic = go(ExecPolicy::default());
        let a = blocking.results[0].0.as_ref().unwrap();
        for other in [&pessimistic, &optimistic] {
            let b = other.results[0].0.as_ref().unwrap();
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // The interior updates overlapped the strip transit.
        assert!(pessimistic.results.iter().all(|(_, h)| *h > 0.0));
        assert!(pessimistic.report.elapsed < blocking.report.elapsed);
    }

    #[test]
    fn plan_run2_rows_covers_exactly_the_owned_product_subbox() {
        let policies = [
            ExecPolicy::blocking(),
            ExecPolicy::pessimistic(),
            ExecPolicy::default(),
        ];
        for policy in policies {
            let run = Machine::run(cfg(4), move |proc| {
                let grid = ProcGrid::new_2d(2, 2);
                let spec = DistSpec::block2();
                let mut a = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [8, 8], [1, 1]);
                let mut ctx = Ctx::with_policy(proc, grid, policy);
                let mut seen = Vec::new();
                ctx.plan().reads(&mut a, Ghosts::faces(1)).run2_rows(
                    1..7,
                    1..7,
                    1.0,
                    |_, _, is, js| {
                        let boxed = is.flat_map(|i| js.clone().map(move |j| (i, j)));
                        seen.extend(boxed)
                    },
                );
                seen
            });
            let mut all: Vec<(usize, usize)> = run.results.into_iter().flatten().collect();
            all.sort_unstable();
            let want: Vec<(usize, usize)> =
                (1..7).flat_map(|i| (1..7).map(move |j| (i, j))).collect();
            assert_eq!(all, want, "policy {policy:?}");
        }
    }

    #[test]
    fn plan_run_lines_covers_owned_lines_interior_first() {
        let run = Machine::run(cfg(4), |proc| {
            let grid = ProcGrid::new_1d(4);
            let spec = DistSpec::local_block();
            let mut a = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [4, 16], [0, 1]);
            let mut ctx = Ctx::new(proc, grid);
            let mut seen = Vec::new();
            ctx.plan()
                .reads(&mut a, Ghosts::full(1))
                .run_lines(1, 1..15, |_, _, j| seen.push(j));
            (seen, a.owned_range(1))
        });
        let mut all: Vec<usize> = run
            .results
            .iter()
            .flat_map(|(seen, _)| seen.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (1..15).collect::<Vec<_>>());
        // Interior-first: each member's first lines avoid its block edges.
        for (seen, owned) in &run.results {
            if seen.len() > 2 {
                assert!(seen[0] > owned.start && seen[0] < owned.end - 1);
            }
        }
    }

    #[test]
    fn warm_plan_trips_replay_from_the_schedule_cache() {
        let trips = 6u64;
        let run = Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut u =
                DistArray2::from_fn(proc.rank(), &grid, &spec, [10, 10], [1, 1], |[i, j]| {
                    (i + j) as f64
                });
            let mut ctx = Ctx::new(proc, grid);
            for _ in 0..trips {
                ctx.plan()
                    .reads(&mut u, Ghosts::faces(1))
                    .update2(1..9, 1..9, 5.0, |old, i, j| {
                        0.25 * (old.at(i + 1, j)
                            + old.at(i - 1, j)
                            + old.at(i, j + 1)
                            + old.at(i, j - 1))
                    });
            }
            (
                proc.stats().inspector_runs,
                proc.stats().optimistic_hits,
                proc.stats().rollbacks,
            )
        });
        for (builds, hits, rollbacks) in &run.results {
            assert_eq!(*builds, 1, "one analytic build, then replays");
            assert_eq!(*hits, trips - 1);
            assert_eq!(*rollbacks, 0);
        }
    }

    #[test]
    fn ctx_halo_budget_bounds_shape_diverse_streams() {
        let run = Machine::run(cfg(2), |proc| {
            let grid = ProcGrid::new_1d(2);
            let rank = proc.rank();
            let mut ctx = Ctx::new(proc, grid.clone());
            ctx.set_halo_budget(2);
            let spec = DistSpec::local_block();
            for s in 0..5usize {
                let mut a = DistArray2::<f64>::new(rank, &grid, &spec, [2, 8 + 2 * s], [0, 1]);
                ctx.plan().reads(&mut a, Ghosts::faces(1)).refresh();
            }
            (ctx.halo_len(), ctx.halo_budget())
        });
        for (len, budget) in run.results {
            assert_eq!(budget, Some(2));
            assert_eq!(len, 2, "five distinct shapes must evict down to the budget");
        }
    }

    #[test]
    fn global_reductions_replicate() {
        let run = Machine::run(cfg(4), |proc| {
            let grid = ProcGrid::new_1d(4);
            let a = kali_array::DistArray1::from_fn(
                proc.rank(),
                &grid,
                &DistSpec::block1(),
                [8],
                [0],
                |[i]| if i == 5 { -3.0 } else { 1.0 },
            );
            let mut ctx = Ctx::new(proc, grid);
            let n2 = global_norm2(&mut ctx, &a);
            let mx = global_max_abs(&mut ctx, &a);
            (n2, mx)
        });
        for (n2, mx) in run.results {
            assert_eq!(n2, 7.0 + 9.0);
            assert_eq!(mx, 3.0);
        }
    }
}
