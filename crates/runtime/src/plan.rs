//! The declarative stencil-plan API: one `doall` entry point for the
//! compiled path.
//!
//! The paper's position is that the *program* states what a loop reads
//! and writes, and the compiler/runtime derives all communication. This
//! module is that contract as an API: the caller declares the array a
//! stencil reads (with a ghost width and corner policy — [`Ghosts`]) and
//! runs the loop through one of a small set of entry points; *how* the
//! ghost refresh executes — blocking or split-phase, rebuilt per trip or
//! replayed from the cached analytic schedule with a piggybacked
//! consensus vote — is an [`ExecPolicy`] carried by the [`Ctx`], not a
//! choice of function name. The policy default
//! (`split + optimistic`) makes the latency-hiding, schedule-replaying
//! fast path the normal case everywhere; `ExecPolicy::blocking()` is the
//! fully synchronous differential baseline.
//!
//! ```text
//! ctx.plan()
//!    .reads(&mut u, Ghosts::faces(1))       // what the stencil reads
//!    .update2(1..nx, 1..ny, 5.0, |old, i, j| ...)   // copy-in/copy-out doall
//! ```
//!
//! Entry points (all cover exactly the owned iterations, interior first
//! under a split policy — bodies must not rely on iteration order). The
//! 2-D ones are adaptors over one engine that hands its body *boxes*:
//! one interior box, then at most four boundary-frame boxes, so a body
//! steps its rows with [`DistArray2::rows`]/[`DistArray2::rows_mut`] and
//! pays the row-slice arithmetic once per box, not once per row:
//!
//! * [`PlanRead::update2`] — the copy-in/copy-out stencil update of §2
//!   (Listing 3's one-statement Jacobi `doall`): ghosts are refreshed,
//!   the old array's storage is lent as the snapshot, and every owned
//!   point in the range is rewritten from it — no user-visible temporary
//!   and no copy of the array ([`DistArray2::with_copy_in`]).
//! * [`PlanRead::run2_rows`] — a product-range `doall` that reads the
//!   declared array (fresh ghosts) and writes elsewhere (e.g. a
//!   residual into a second array captured by the body), handed boxes.
//! * [`PlanRead::update2_rows`] — `update2` with the body handed whole
//!   contiguous row runs as slices, the form the solvers are written in
//!   (`update2` loops each run's points).
//! * [`PlanRead::run_line_runs`] / [`PlanRead::run_lines`] — a
//!   one-dimensional `doall` over runs of lines (zebra relaxation) or,
//!   its adaptor, one line at a time (semicoarsening restriction), with
//!   the declared array handed back mutably for in-place line solves.
//! * [`PlanRead::refresh`] — the bare ghost refresh, for consumers that
//!   only need the skirt made current.

use kali_array::{DistArray2, DistArrayN, Elem, PendingHalo};
use kali_sched::{SplitBox2, SplitRange1};

use crate::Ctx;

/// How a plan's communication executes: [`kali_sched::ExecPolicy`],
/// the one strategy type shared with the interpreter's run options.
/// Carried by [`Ctx`] (set once per program with [`Ctx::with_policy`]).
pub use kali_sched::ExecPolicy;

/// What a stencil reads beyond the owned block: the read footprint
/// (`width` cells along each distributed axis) and whether diagonal
/// (corner/edge) ghosts are read at all. 5/7-point stencils are
/// [`Ghosts::faces`]; 9/27-point stencils (and anything reading a
/// corner) are [`Ghosts::full`]. The refresh always fills the array's
/// declared skirt; `width` additionally bounds the interior margin of
/// the split-phase iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ghosts {
    width: usize,
    corners: bool,
}

impl Ghosts {
    /// Face ghosts only: the stencil reads at most `width` away along
    /// each axis *separately* (no diagonal reads).
    pub fn faces(width: usize) -> Self {
        Ghosts {
            width,
            corners: false,
        }
    }

    /// The whole skirt — faces, edges and corners — fetched directly
    /// from each cell's true owner.
    pub fn full(width: usize) -> Self {
        Ghosts {
            width,
            corners: true,
        }
    }

    /// The stencil's read distance.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Does the refresh fill diagonal (corner/edge) ghosts?
    pub fn corners(&self) -> bool {
        self.corners
    }
}

/// A stencil plan being built: created by [`Ctx::plan`], run under the
/// context's [`ExecPolicy`] once [`StencilPlan::reads`] attaches the
/// communicated array.
pub struct StencilPlan<'c, 'p> {
    pub(crate) ctx: &'c mut Ctx<'p>,
}

impl<'c, 'p> StencilPlan<'c, 'p> {
    /// Declare the distributed array this stencil reads beyond its owned
    /// block. The runtime derives the ghost communication from the
    /// declaration; the array is handed back to the loop body (shared
    /// for [`PlanRead::run2_rows`]/[`PlanRead::update2`], mutable for
    /// [`PlanRead::run_lines`]) once its skirt is current.
    ///
    /// Generic over the element type: an `f32` array halves the wire
    /// words of every ghost exchange ([`kali_array::Elem`]) with no
    /// change to the plan, the schedule cache, or the consensus protocol
    /// (the replay vote travels in its own element-independent header
    /// channel).
    pub fn reads<'a, T: Elem, const N: usize>(
        self,
        a: &'a mut DistArrayN<T, N>,
        ghosts: Ghosts,
    ) -> PlanRead<'c, 'p, 'a, T, N> {
        PlanRead {
            ctx: self.ctx,
            a,
            ghosts,
        }
    }
}

/// A stencil plan with its communicated array attached; consumed by one
/// of the run entry points.
pub struct PlanRead<'c, 'p, 'a, T: Elem, const N: usize> {
    ctx: &'c mut Ctx<'p>,
    a: &'a mut DistArrayN<T, N>,
    ghosts: Ghosts,
}

impl<T: Elem, const N: usize> PlanRead<'_, '_, '_, T, N> {
    /// Start the declared ghost refresh under the context's policy: in
    /// flight (`Some`) under a split policy; under a blocking one
    /// already complete — landed in the array itself, ahead of any
    /// copy-in snapshot.
    fn begin(&mut self) -> Option<PendingHalo<T>> {
        let (policy, corners) = (self.ctx.policy(), self.ghosts.corners);
        let (proc, halo) = self.ctx.proc_and_halo();
        if policy.split {
            return Some(self.a.begin_ghosts(proc, Some(halo), policy, corners));
        }
        self.a.refresh_ghosts(proc, Some(halo), policy, corners);
        None
    }

    /// Complete an in-flight refresh into `target` (the declared array,
    /// or a same-layout copy-in snapshot).
    fn finish(ctx: &mut Ctx, target: &mut DistArrayN<T, N>, pending: PendingHalo<T>) {
        let (proc, halo) = ctx.proc_and_halo();
        target.finish_ghosts(proc, Some(halo), pending);
    }

    /// Refresh the declared ghost skirt and stop: the plan form of a bare
    /// ghost exchange, for callers that read the skirt outside a `doall`
    /// (e.g. before a gather or a hand-written sweep).
    pub fn refresh(mut self) {
        if let Some(p) = self.begin() {
            Self::finish(self.ctx, self.a, p);
        }
    }

    /// `doall` over the owned lines of dimension `d` in `range`, with the
    /// refreshed array handed back mutably (in-place line solves — zebra
    /// relaxation, restriction). Under a split policy the lines whose
    /// `width`-neighbourhood is owned run while the ghost lines travel;
    /// block-edge lines run after completion. An adaptor over
    /// [`PlanRead::run_line_runs`].
    pub fn run_lines(
        self,
        d: usize,
        range: std::ops::Range<usize>,
        mut body: impl FnMut(&mut Ctx, &mut DistArrayN<T, N>, usize),
    ) {
        self.run_line_runs(d, range, |ctx, a, js| {
            for j in js {
                body(ctx, a, j);
            }
        });
    }

    /// The line engine: [`PlanRead::run_lines`]' lines in the same order,
    /// as `body(ctx, a, js)` once per non-empty ascending run — under a
    /// split policy the interior, then the low and the high edge.
    pub fn run_line_runs(
        mut self,
        d: usize,
        range: std::ops::Range<usize>,
        mut body: impl FnMut(&mut Ctx, &mut DistArrayN<T, N>, std::ops::Range<usize>),
    ) {
        let refresh = self.begin();
        let PlanRead { ctx, a, ghosts } = self;
        if !a.is_participant() {
            if let Some(p) = refresh {
                Self::finish(ctx, a, p);
            }
            return;
        }
        // Debug builds deny the body reads outside the declared skirt.
        a.set_read_fence(ghosts.width, ghosts.corners);
        // A refresh already complete leaves nothing to wait for: with no
        // margin every owned line is interior.
        let margin = refresh
            .as_ref()
            .map_or(0, |_| ghosts.width.min(a.ghosts()[d]));
        let split = SplitRange1::new(a.owned_range(d), range, margin);
        let mut run = |ctx: &mut Ctx, a: &mut DistArrayN<T, N>, js: std::ops::Range<usize>| {
            if !js.is_empty() {
                body(ctx, a, js);
            }
        };
        run(ctx, a, split.interior());
        if let Some(p) = refresh {
            a.clear_read_fence();
            Self::finish(ctx, a, p);
            a.set_read_fence(ghosts.width, ghosts.corners);
            for js in split.boundary() {
                run(ctx, a, js);
            }
        }
        a.clear_read_fence();
    }
}

impl<T: Elem> PlanRead<'_, '_, '_, T, 2> {
    /// Copy-in/copy-out product-range update (the `doall` semantics of
    /// §2): ghosts are refreshed, the *old* array (owned block + skirt)
    /// is snapshotted, and every owned point of `[r0] × [r1]` is
    /// rewritten as `f(old, i, j)` — so no user-visible temporary is
    /// needed, exactly as in Listing 3. The snapshot is the array's own
    /// storage, lent ([`DistArray2::with_copy_in`]); the copy-in is still
    /// charged as a full `memop`. `flops_per_point` is charged per
    /// updated point; under a split policy the interior flops are
    /// charged *before* completion, so they overlap the transit on the
    /// virtual timeline. An adaptor over [`PlanRead::update2_rows`].
    pub fn update2(
        self,
        r0: std::ops::Range<usize>,
        r1: std::ops::Range<usize>,
        flops_per_point: f64,
        f: impl Fn(&DistArray2<T>, usize, usize) -> T,
    ) {
        self.update2_rows(r0, r1, flops_per_point, |old, i, js, dst| {
            for (d, j) in dst.iter_mut().zip(js) {
                *d = f(old, i, j);
            }
        });
    }

    /// Row-form sibling of [`PlanRead::update2`]: the same copy-in/
    /// copy-out semantics, the same points, the same flop accounting —
    /// but the body is handed whole contiguous *row runs* instead of one
    /// call per point: `f(old, i, js, dst)` must write every
    /// `dst[k] = new value of (i, js.start + k)` (it arrives unspecified)
    /// reading the snapshot's rows ([`DistArrayN::row`]). Because owned
    /// rows and their ghost columns are contiguous in storage
    /// (`stride[1] == 1`), a stencil body written against slices compiles
    /// to an autovectorizable tight loop. An adaptor over the box engine:
    /// each box's `dst` rows come from one [`DistArray2::rows_mut`].
    pub fn update2_rows(
        self,
        r0: std::ops::Range<usize>,
        r1: std::ops::Range<usize>,
        flops_per_point: f64,
        f: impl Fn(&DistArray2<T>, usize, std::ops::Range<usize>, &mut [T]),
    ) {
        self.drive2_rows(r0, r1, flops_per_point, true, |_, a, old, is, js| {
            let old = old.expect("update2_rows always snapshots");
            for (i, dst) in is.clone().zip(a.rows_mut(is, js.clone())) {
                f(old, i, js.clone(), dst);
            }
        });
    }

    /// Product-range `doall` reading the refreshed array and writing
    /// elsewhere: `body(ctx, a, is, js)` runs once per box of the owned
    /// points of `[r0] × [r1]`, interior first under a split policy (one
    /// interior box, then at most four frame boxes). It reads `a`'s rows
    /// as slices ([`DistArray2::rows`]) and writes wherever it captures
    /// (typically [`DistArray2::rows_mut`] of a second array).
    /// `flops_per_point` is charged per point, interior before completion
    /// (overlapping the transit), boundary after.
    pub fn run2_rows(
        self,
        r0: std::ops::Range<usize>,
        r1: std::ops::Range<usize>,
        flops_per_point: f64,
        mut body: impl FnMut(&mut Ctx, &DistArray2<T>, std::ops::Range<usize>, std::ops::Range<usize>),
    ) {
        self.drive2_rows(r0, r1, flops_per_point, false, |ctx, a, _, is, js| {
            body(ctx, a, is, js)
        });
    }

    /// The shared product-range engine behind every 2-D entry point:
    /// refresh under the policy, clamp `[r0] × [r1]` to the owned box,
    /// and run `seg` once per box `(is, js)` of it — the whole box after
    /// a blocking refresh; the interior box, completion, then the frame
    /// boxes around an in-flight one ([`SplitBox2::interior_box`],
    /// [`SplitBox2::boundary_boxes`]). A body pays its row-slice
    /// arithmetic once per box, not once per row. With `snapshot`, the
    /// array lends its storage to a copy-in snapshot after the refresh
    /// packs its sends and before any write, and the refresh completes
    /// *into the snapshot* (its ghosts are the copy-in state, re-packed
    /// from on a rollback, while the live array receives updates);
    /// without it, the refresh completes into the array itself.
    fn drive2_rows(
        mut self,
        r0: std::ops::Range<usize>,
        r1: std::ops::Range<usize>,
        flops_per_point: f64,
        snapshot: bool,
        mut seg: impl FnMut(
            &mut Ctx,
            &mut DistArray2<T>,
            Option<&DistArray2<T>>,
            std::ops::Range<usize>,
            std::ops::Range<usize>,
        ),
    ) {
        let width = self.ghosts.width;
        let corners = self.ghosts.corners;
        let refresh = self.begin();
        let PlanRead { ctx, a, .. } = self;
        if !a.is_participant() {
            if let Some(p) = refresh {
                Self::finish(ctx, a, p);
            }
            return;
        }
        assert!(
            a.dist(0).is_contiguous() && a.dist(1).is_contiguous(),
            "a 2-D plan needs block or undistributed dimensions, not dist {}: \
             what a rank owns is not a box",
            a.spec()
        );
        // Debug builds deny the body reads outside the declared skirt
        // (the copy-in snapshot inherits the armed fence).
        a.set_read_fence(width, corners);
        let g = a.ghosts();
        let owned = [a.owned_range(0), a.owned_range(1)];
        // A refresh already complete leaves nothing to wait for: with no
        // margins every owned point is interior.
        let margins = match refresh {
            Some(_) => [width.min(g[0]), width.min(g[1])],
            None => [0, 0],
        };
        let split = SplitBox2::new(owned, r0.clone(), r1.clone(), margins);
        let run = |ctx: &mut Ctx, a: &mut DistArray2<T>, mut old: Option<&mut DistArray2<T>>| {
            if let Some((is, js)) = split.interior_box() {
                seg(ctx, a, old.as_deref(), is, js);
            }
            ctx.proc()
                .compute(flops_per_point * split.interior_count() as f64);
            if let Some(p) = refresh {
                match old.as_deref_mut() {
                    Some(old) => Self::finish(ctx, old, p),
                    None => Self::finish(ctx, a, p),
                }
                for (is, js) in split.boundary_boxes() {
                    seg(ctx, a, old.as_deref(), is, js);
                }
                ctx.proc()
                    .compute(flops_per_point * split.boundary_count() as f64);
            }
        };
        if snapshot {
            ctx.proc().memop((a.local_len(0) * a.local_len(1)) as f64);
            a.with_copy_in(r0, r1, |a, old| run(ctx, a, Some(old)));
        } else {
            run(ctx, a, None);
        }
        a.clear_read_fence();
    }
}
