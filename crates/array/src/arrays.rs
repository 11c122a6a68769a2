//! The distributed array type and its local index arithmetic.

use std::ops::Range;

use kali_grid::{DimDist, DimMap, Dist1, DistSpec, Layout, ProcGrid};

/// Element types a distributed array can hold — re-exported from
/// `kali-machine`, where the wire width of an element is defined next to
/// the cost model that charges it. The impls are nominal (`f64`, `f32`),
/// not blanket: packing and checksum behaviour are audited per type.
pub use kali_machine::{Elem, Real};

/// The read footprint a stencil plan declared for the current sweep:
/// reads may stray at most `width` cells outside the owned box, and into
/// diagonal (corner) ghosts only when `corners` is set. Debug builds
/// check every element read against it; release builds compile the
/// fence away entirely.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadFence {
    /// Maximum ghost depth a read may reach, per dimension.
    pub width: usize,
    /// Whether diagonal (multi-dimension) ghost reads are declared.
    pub corners: bool,
}

/// One processor's view of an N-dimensional distributed array.
///
/// Every processor of the owning grid constructs the same descriptor
/// (extents, distribution, grid) and stores only its own block. Processors
/// outside the grid may hold the value too; they own nothing and all
/// operations are no-ops for them.
#[derive(Debug, Clone)]
pub struct DistArrayN<T, const N: usize> {
    pub(crate) extents: [usize; N],
    pub(crate) dists: [Dist1; N],
    /// Who owns what: the distribution clause laid onto the grid.
    pub(crate) layout: Layout,
    pub(crate) rank: usize,
    /// Does this processor belong to the grid?
    pub(crate) member: bool,
    /// Per-dimension processor coordinate (0 for undistributed dims).
    pub(crate) qs: [usize; N],
    /// First owned global index per dimension (contiguous patterns).
    pub(crate) lo: [usize; N],
    /// Owned extent per dimension.
    pub(crate) len: [usize; N],
    /// Ghost width per dimension (only block/undistributed dims may be > 0).
    pub(crate) ghost: [usize; N],
    /// Row-major strides of the local storage box.
    pub(crate) stride: [usize; N],
    pub(crate) data: Vec<T>,
    /// Storage kept between copy-in updates ([`DistArray2::with_copy_in`]).
    pub(crate) kept: Kept<T>,
    /// Distribution generation: bumped every time the array's layout
    /// changes (redistribution). Cached communication schedules carry the
    /// generation they were derived under and must be discarded on mismatch.
    pub(crate) generation: u64,
    /// Debug-build read fence (see [`ReadFence`]): while armed, every
    /// element read is checked against the declared stencil footprint.
    #[cfg(debug_assertions)]
    pub(crate) fence: std::cell::Cell<Option<ReadFence>>,
}

/// The second storage of [`DistArray2::with_copy_in`]; a clone has none.
#[derive(Debug)]
pub(crate) struct Kept<T>(Vec<T>);

impl<T> Clone for Kept<T> {
    fn clone(&self) -> Self {
        Kept(Vec::new())
    }
}

/// 1-D distributed array.
pub type DistArray1<T> = DistArrayN<T, 1>;
/// 2-D distributed array.
pub type DistArray2<T> = DistArrayN<T, 2>;
/// 3-D distributed array.
pub type DistArray3<T> = DistArrayN<T, 3>;

impl<T: Elem, const N: usize> DistArrayN<T, N> {
    /// Declare a distributed array of the given global `extents` with ghost
    /// layers of width `ghost[d]` along each dimension, initialized to
    /// `T::default()`.
    ///
    /// `rank` is the machine rank of the calling processor (every member of
    /// the SPMD program calls this with its own rank — the KF1 analogue is
    /// elaborating the same declaration on every processor).
    ///
    /// Ghosts are only meaningful on `block`-distributed dimensions; asking
    /// for ghosts on a cyclic dimension panics.
    pub fn new(
        rank: usize,
        grid: &ProcGrid,
        spec: &DistSpec,
        extents: [usize; N],
        ghost: [usize; N],
    ) -> Self {
        let layout = Layout::new(spec, &extents, grid)
            .unwrap_or_else(|e| panic!("invalid distribution: {e}"));
        let dists: [Dist1; N] = std::array::from_fn(|d| layout.dists()[d]);
        for d in 0..N {
            if ghost[d] > 0 {
                let ok = matches!(spec.map(d), DimMap::Local)
                    || matches!(spec.map(d), DimMap::Dist(DimDist::Block));
                assert!(
                    ok,
                    "ghost layers require a block or undistributed dimension"
                );
            }
        }
        let coords = layout.coords(rank);
        let (member, qs) = (coords.is_some(), coords.unwrap_or([0; N]));
        let (mut lo, mut len) = ([0; N], [0; N]);
        if member {
            for d in 0..N {
                lo[d] = dists[d].lower(qs[d]).unwrap_or(0);
                len[d] = dists[d].local_len(qs[d]);
            }
        }
        let mut stride = [0usize; N];
        let mut total = if member && len.iter().all(|&l| l > 0) {
            1
        } else {
            0
        };
        if total > 0 {
            let mut s = 1;
            for d in (0..N).rev() {
                stride[d] = s;
                s *= len[d] + 2 * ghost[d];
            }
            total = s;
        }
        DistArrayN {
            extents,
            dists,
            layout,
            rank,
            member,
            qs,
            lo,
            len,
            ghost,
            stride,
            data: vec![T::default(); total],
            kept: Kept(Vec::new()),
            generation: 0,
            #[cfg(debug_assertions)]
            fence: std::cell::Cell::new(None),
        }
    }

    /// Arm the debug-build read fence: until [`DistArrayN::clear_read_fence`],
    /// every element read of this array must stay within the owned box
    /// plus a ghost skirt of depth `width`, touching diagonal (corner)
    /// ghosts only if `corners` is set. The compiled stencil path arms
    /// the fence with the footprint the plan *declared*, so a body that
    /// reads beyond its declaration panics in debug builds instead of
    /// silently consuming stale ghost values. No-op in release builds.
    #[inline]
    pub fn set_read_fence(&self, width: usize, corners: bool) {
        #[cfg(debug_assertions)]
        self.fence.set(Some(ReadFence { width, corners }));
        #[cfg(not(debug_assertions))]
        let _ = (width, corners);
    }

    /// Disarm the debug-build read fence. No-op in release builds.
    #[inline]
    pub fn clear_read_fence(&self) {
        #[cfg(debug_assertions)]
        self.fence.set(None);
    }

    /// Debug-build fence check for a single global index (see
    /// [`DistArrayN::set_read_fence`]). Only non-owned dimensions count
    /// against the footprint; a read more than `width` outside the owned
    /// interval, or outside it in two or more dimensions without a
    /// `corners` declaration, is a plan violation.
    #[cfg(debug_assertions)]
    pub(crate) fn check_fence(&self, idx: [usize; N]) {
        let Some(f) = self.fence.get() else { return };
        if !self.is_participant() {
            return;
        }
        let mut outside = 0usize;
        for d in 0..N {
            if !self.dists[d].is_contiguous() {
                continue;
            }
            let g = idx[d];
            let lo = self.lo[d];
            let hi = lo + self.len[d];
            if g >= lo && g < hi {
                continue;
            }
            outside += 1;
            let depth = if g < lo { lo - g } else { g + 1 - hi };
            assert!(
                depth <= f.width,
                "proc {}: read fence violation at {:?} — depth-{} ghost read \
                 exceeds the declared stencil footprint (width {})",
                self.rank,
                idx,
                depth,
                f.width
            );
        }
        assert!(
            outside <= 1 || f.corners,
            "proc {}: read fence violation at {:?} — corner ghost read but \
             the stencil plan declared corners: false",
            self.rank,
            idx
        );
    }

    /// Distribution generation of this descriptor. Monotonically bumped by
    /// layout-changing operations ([`DistArrayN::redistribute`]); equal
    /// generations (on the same array lineage) guarantee an unchanged
    /// ownership map, so communication schedules derived under one
    /// generation may be replayed under the same generation only.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Construct and fill owned elements from a function of global indices.
    pub fn from_fn(
        rank: usize,
        grid: &ProcGrid,
        spec: &DistSpec,
        extents: [usize; N],
        ghost: [usize; N],
        f: impl Fn([usize; N]) -> T,
    ) -> Self {
        let mut a = Self::new(rank, grid, spec, extents, ghost);
        a.fill_with(f);
        a
    }

    /// Overwrite every owned element from a function of global indices.
    pub fn fill_with(&mut self, f: impl Fn([usize; N]) -> T) {
        self.map_owned(|g, _| f(g));
    }

    /// Does this processor belong to the grid *and* own a non-empty block?
    pub fn is_participant(&self) -> bool {
        self.member && self.len.iter().all(|&l| l > 0)
    }

    /// Is this processor a member of the owning grid?
    pub fn in_grid(&self) -> bool {
        self.member
    }

    /// Global extents.
    #[inline]
    pub fn extents(&self) -> [usize; N] {
        self.extents
    }

    /// The distribution clause.
    #[inline]
    pub fn spec(&self) -> &DistSpec {
        self.layout.spec()
    }

    /// The owning processor grid.
    #[inline]
    pub fn grid(&self) -> &ProcGrid {
        self.layout.grid()
    }

    /// Per-dimension index map.
    #[inline]
    pub fn dist(&self, d: usize) -> Dist1 {
        self.dists[d]
    }

    /// Ghost widths per dimension.
    #[inline]
    pub fn ghosts(&self) -> [usize; N] {
        self.ghost
    }

    /// A zeroed array with the same grid, distribution and ghosts.
    pub fn like(&self) -> Self {
        self.with_extents(self.extents)
    }

    /// A zeroed array with the same grid, distribution and ghosts but new
    /// global extents (used for multigrid coarse levels).
    pub fn with_extents(&self, extents: [usize; N]) -> Self {
        Self::new(self.rank, self.grid(), self.spec(), extents, self.ghost)
    }

    /// Machine rank this view belongs to.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// First owned global index along `d` (contiguous dims; `lower` intrinsic).
    #[inline]
    pub fn lower(&self, d: usize) -> usize {
        self.lo[d]
    }

    /// Number of owned indices along `d`.
    #[inline]
    pub fn local_len(&self, d: usize) -> usize {
        self.len[d]
    }

    /// Owned global range along a contiguous dimension `d`.
    pub fn owned_range(&self, d: usize) -> std::ops::Range<usize> {
        debug_assert!(
            self.dists[d].is_contiguous(),
            "owned_range on a non-contiguous dimension"
        );
        self.lo[d]..self.lo[d] + self.len[d]
    }

    /// My part of the global box `lo..hi` (half-open per axis): the box
    /// intersected with what this processor owns — the `a(i, *)` of a
    /// section argument as each member of its owner slice sees it, ready
    /// for [`DistArrayN::box_into`]/[`DistArrayN::box_set`]. Empty, as
    /// `([0; N], [0; N])`, when the two do not meet: on an owner of
    /// nothing and off the grid always. Ownership is a box only along
    /// contiguous dimensions, so a cyclic one is rejected (panics), in
    /// release builds too.
    pub fn owned_box(&self, mut lo: [usize; N], mut hi: [usize; N]) -> ([usize; N], [usize; N]) {
        for d in 0..N {
            assert!(
                self.dists[d].is_contiguous(),
                "owned_box on non-contiguous dimension {d}: what it owns is not a box"
            );
            lo[d] = lo[d].max(self.lo[d]);
            hi[d] = hi[d].min(self.lo[d] + self.len[d]);
        }
        if (0..N).any(|d| hi[d] <= lo[d]) {
            return ([0; N], [0; N]);
        }
        (lo, hi)
    }

    /// The processor-array slice that owns my part of a section pinning
    /// `axes` — `owner(a(i, *))` for `axes = [0]`, `owner(a(*, *, k))` for
    /// `[2]`, seen from a processor owning such an `i` or `k`: the grid
    /// members sharing my coordinate on the grid dimension each pinned
    /// axis is distributed over. An undistributed axis pins nothing (all
    /// of the grid owns every one of its indices). Derived from my grid
    /// coordinates, not from what I own, so a member holding nothing of a
    /// coarse level still finds its slice; `None` off the grid.
    pub fn owner_slice(&self, axes: impl IntoIterator<Item = usize>) -> Option<ProcGrid> {
        self.layout.slice_through(self.rank, axes)
    }

    /// Owned global indices along `d`, in local order (any pattern).
    pub fn owned_indices(&self, d: usize) -> Vec<usize> {
        if !self.member {
            return vec![];
        }
        self.dists[d].owned(self.qs[d]).collect()
    }

    /// Does this processor own global element `idx`?
    pub fn owns(&self, idx: [usize; N]) -> bool {
        self.layout.owner(&idx) == Some(self.rank)
    }

    /// Machine rank of the owner of global element `idx`.
    pub fn owner_rank(&self, idx: [usize; N]) -> usize {
        (self.layout.owner(&idx))
            .unwrap_or_else(|| panic!("element {idx:?} outside {:?}", self.extents))
    }

    /// The global indices machine rank `rank`, a member of the grid, owns
    /// along each dimension, in local order.
    pub(crate) fn owned_lists(&self, rank: usize) -> [Vec<usize>; N] {
        let qs = self.layout.coords::<N>(rank).expect("a grid member");
        std::array::from_fn(|d| self.dists[d].owned(qs[d]).collect())
    }

    /// Storage index of an owned global element (no ghost reasoning).
    #[inline]
    pub(crate) fn storage_index_owned(&self, idx: [usize; N]) -> usize {
        let mut s = 0;
        for d in 0..N {
            let (q, li) = self.dists[d].global_to_local(idx[d]);
            debug_assert_eq!(q, self.qs[d]);
            s += (li + self.ghost[d]) * self.stride[d];
        }
        s
    }

    /// Storage index of a global element visible to this processor (owned or
    /// within a ghost layer); `None` if remote.
    pub(crate) fn storage_index(&self, idx: [usize; N]) -> Option<usize> {
        if !self.is_participant() {
            return None;
        }
        let mut s = 0;
        for d in 0..N {
            let g = idx[d];
            debug_assert!(g < self.extents[d], "index out of global bounds");
            let dist = self.dists[d];
            if dist.is_contiguous() {
                // Owned box plus ghost skirt.
                let lo = self.lo[d];
                let hi = lo + self.len[d];
                let gh = self.ghost[d];
                if g + gh < lo || g >= hi + gh {
                    return None;
                }
                s += (g + gh - lo) * self.stride[d];
            } else {
                let (q, li) = dist.global_to_local(g);
                if q != self.qs[d] {
                    return None;
                }
                s += li * self.stride[d];
            }
        }
        Some(s)
    }

    /// Read a visible (owned or ghost) element; `None` if remote.
    pub fn try_get(&self, idx: [usize; N]) -> Option<T> {
        #[cfg(debug_assertions)]
        self.check_fence(idx);
        self.storage_index(idx).map(|s| self.data[s])
    }

    /// Read a visible element.
    ///
    /// Panics on a remote element: under owner-computes, remote values must
    /// first be brought in by a ghost refresh or `redistribute` — exactly
    /// the communication a KF1 compiler would have scheduled.
    #[inline]
    pub fn get(&self, idx: [usize; N]) -> T {
        self.try_get(idx).unwrap_or_else(|| {
            panic!(
                "proc {}: non-local read of element {:?} (dist {}, owner rank {}); \
                 a ghost exchange or slice transfer must make it visible first",
                self.rank,
                idx,
                self.spec(),
                self.owner_rank(idx)
            )
        })
    }

    /// Write an owned element (ghosts are read-only).
    #[inline]
    pub fn set(&mut self, idx: [usize; N], v: T) {
        assert!(
            self.owns(idx),
            "proc {}: owner-computes violation — write to non-owned element {:?} \
             (owner rank {})",
            self.rank,
            idx,
            self.owner_rank(idx)
        );
        let s = self.storage_index_owned(idx);
        self.data[s] = v;
    }

    /// Copy-in of an array slice: copy the *visible* (owned or ghost)
    /// global box `lo..hi` (half-open per axis) into the head of the
    /// contiguous scratch `out`, row-major over the box.
    ///
    /// A slice pinned on a trailing axis — a column of a 2-D array, a
    /// plane of a 3-D one — is *strided* in row-major storage, so it
    /// cannot be handed out as `&[T]`; gathering it once into contiguous
    /// scratch hoists the per-point index decode out of the consumer's
    /// arithmetic loop, which then vectorizes like any row-form interior
    /// (zebra line solves, semicoarsening transfers and ADI's line
    /// right-hand sides are the consumers). One corner decode per box;
    /// an empty box is a no-op. Panics like [`DistArrayN::get`] if any
    /// element of the box is not visible.
    #[inline]
    pub fn box_into(&self, lo: [usize; N], hi: [usize; N], out: &mut [T]) {
        if (0..N).any(|d| hi[d] <= lo[d]) {
            return;
        }
        let last = hi.map(|h| h - 1);
        #[cfg(debug_assertions)]
        for corner in 0..1usize << N {
            self.check_fence(std::array::from_fn(|d| [lo[d], last[d]][corner >> d & 1]));
        }
        let (Some(s), Some(e)) = (self.storage_index(lo), self.storage_index(last)) else {
            panic!(
                "proc {}: non-local read of box {lo:?}..{hi:?} (dist {}); a ghost \
                 exchange or slice transfer must make it visible first",
                self.rank,
                self.spec()
            )
        };
        debug_assert_eq!(
            e - s,
            (0..N).map(|d| (last[d] - lo[d]) * self.stride[d]).sum(),
            "box must be rectangular in storage"
        );
        let mut filled = 0;
        Self::box_runs(self.stride, lo, hi, s, |start, len, step| {
            for (k, o) in out[filled..filled + len].iter_mut().enumerate() {
                *o = self.data[start + k * step];
            }
            filled += len;
        });
    }

    /// Copy-out, the write side of [`DistArrayN::box_into`]: scatter the
    /// head of `vals` (row-major over the box) into the *owned* global
    /// box `lo..hi`. Writes outside the owned box are an owner-computes
    /// violation, exactly like [`DistArrayN::set`].
    #[inline]
    pub fn box_set(&mut self, lo: [usize; N], hi: [usize; N], vals: &[T]) {
        if (0..N).any(|d| hi[d] <= lo[d]) {
            return;
        }
        assert!(
            self.owns(lo) && self.owns(hi.map(|h| h - 1)),
            "proc {}: owner-computes violation — box_set({lo:?}..{hi:?}) reaches \
             outside the owned box",
            self.rank
        );
        let s = self.storage_index_owned(lo);
        let data = &mut self.data;
        let mut taken = 0;
        Self::box_runs(self.stride, lo, hi, s, |start, len, step| {
            for (k, &v) in vals[taken..taken + len].iter().enumerate() {
                data[start + k * step] = v;
            }
            taken += len;
        });
    }

    /// The one box walker: visit the storage runs `f(start, len, step)`
    /// of the global box `lo..hi`, whose first element is stored at `s`,
    /// in row-major order of the box. The run axis is the last one the
    /// box actually spans, so a box pinned on its trailing axes walks a
    /// few long strided runs instead of many runs of one element.
    #[inline]
    fn box_runs(
        stride: [usize; N],
        lo: [usize; N],
        hi: [usize; N],
        s: usize,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        let run = (0..N).rev().find(|&d| hi[d] - lo[d] > 1).unwrap_or(N - 1);
        let (mut at, mut start) = (lo, s);
        loop {
            f(start, hi[run] - lo[run], stride[run]);
            // Odometer over the axes before the run axis.
            let mut d = run;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                at[d] += 1;
                start += stride[d];
                if at[d] < hi[d] {
                    break;
                }
                start -= (hi[d] - lo[d]) * stride[d];
                at[d] = lo[d];
            }
        }
    }

    /// Apply `f` to every owned element (global index, current value) and
    /// store the result. No communication.
    pub fn map_owned(&mut self, f: impl Fn([usize; N], T) -> T) {
        if !self.is_participant() {
            return;
        }
        cartesian(&self.owned_lists(self.rank), |g| {
            let s = self.storage_index_owned(g);
            self.data[s] = f(g, self.data[s]);
        });
    }

    /// Visit every owned element.
    pub fn for_each_owned(&self, mut f: impl FnMut([usize; N], T)) {
        if !self.is_participant() {
            return;
        }
        cartesian(&self.owned_lists(self.rank), |g| {
            f(g, self.data[self.storage_index_owned(g)])
        });
    }
}

/// Visit the cartesian product of per-dimension index lists in
/// lexicographic order.
pub(crate) fn cartesian<const N: usize>(lists: &[Vec<usize>; N], mut f: impl FnMut([usize; N])) {
    if lists.iter().any(|l| l.is_empty()) {
        return;
    }
    let mut counters = [0usize; N];
    'outer: loop {
        let mut idx = [0usize; N];
        for d in 0..N {
            idx[d] = lists[d][counters[d]];
        }
        f(idx);
        let mut d = N;
        loop {
            if d == 0 {
                break 'outer;
            }
            d -= 1;
            counters[d] += 1;
            if counters[d] < lists[d].len() {
                break;
            }
            counters[d] = 0;
        }
    }
}

impl<T: Elem> DistArray1<T> {
    /// 1-D convenience getter.
    #[inline]
    pub fn at(&self, i: usize) -> T {
        self.get([i])
    }

    /// 1-D convenience setter.
    #[inline]
    pub fn put(&mut self, i: usize, v: T) {
        self.set([i], v)
    }

    /// The owned elements as one slice, in local order — the 1-D
    /// analogue of [`DistArray2::row`]: element `k` is global index
    /// `owned_indices(0)[k]` (`owned_range(0).start + k` on a block
    /// distribution), ghosts excluded. Empty on a rank that is not a grid
    /// member or owns nothing. A kernel that walks it pays the ownership
    /// translation once per call instead of once per [`DistArray1::at`].
    #[inline]
    pub fn owned(&self) -> &[T] {
        // Keep the early return (here and in `owned_mut`): sharing one
        // range helper that selects `0..0` for a non-participant measured
        // 1.23x instead of 0.95x the flat-CSR reference on `cg_sparse`.
        if !self.is_participant() {
            return &[];
        }
        &self.data[self.ghost[0]..self.ghost[0] + self.len[0]]
    }

    /// The write side of [`DistArray1::owned`]: exactly the cells
    /// [`DistArray1::put`] accepts, so no write through it can reach a
    /// ghost.
    #[inline]
    pub fn owned_mut(&mut self) -> &mut [T] {
        if !self.is_participant() {
            return &mut [];
        }
        &mut self.data[self.ghost[0]..self.ghost[0] + self.len[0]]
    }
}

impl<T: Elem> DistArray2<T> {
    /// 2-D convenience getter.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        self.get([i, j])
    }

    /// 2-D convenience setter.
    #[inline]
    pub fn put(&mut self, i: usize, j: usize, v: T) {
        self.set([i, j], v)
    }

    /// A whole contiguous run of row `i` (global indices), columns
    /// `js.start..js.end`, as a slice.
    ///
    /// This is the read side of the row-form stencil interface: because
    /// local storage is row-major with the last dimension innermost
    /// (`stride[1] == 1`), any visible run of a row — owned cells *and*
    /// their ghost-column neighbours — is one contiguous `&[T]`, so a
    /// stencil body can consume three such slices and compile to an
    /// autovectorizable tight loop instead of per-point `at` calls.
    ///
    /// Panics if any element of the run is not visible (owned or ghost)
    /// on this processor, exactly like [`DistArrayN::get`]. The one-row
    /// box of [`DistArray2::rows`], which a body reading many rows of a
    /// box calls instead: it decodes and checks once per box.
    #[inline]
    pub fn row(&self, i: usize, js: Range<usize>) -> &[T] {
        self.rows(i..i + 1, js).next().unwrap_or(&[])
    }

    /// The write side of the row-form interface: a mutable slice of the
    /// *owned* run of row `i`, columns `js`. Writes outside the owned box
    /// are an owner-computes violation, exactly like [`DistArrayN::set`].
    /// The one-row box of [`DistArray2::rows_mut`].
    #[inline]
    pub fn row_mut(&mut self, i: usize, js: Range<usize>) -> &mut [T] {
        self.rows_mut(i..i + 1, js).next().unwrap_or(&mut [])
    }

    /// The rows `is` of the box `is × js`, in order, each a contiguous
    /// visible run as [`DistArray2::row`] describes. Visibility is checked
    /// once, at the box's two corners, with `row`'s panic (release builds
    /// too); the rows are then stepped by the storage stride. A box with
    /// no point yields no row; one that is not one storage box (across a
    /// cyclic dimension) panics.
    pub fn rows(&self, is: Range<usize>, js: Range<usize>) -> impl Iterator<Item = &[T]> {
        let span = self.box_span(&is, &js, |[i, j]| {
            // Debug builds fence both ends of the corner's row, so all
            // four corners of the box.
            #[cfg(debug_assertions)]
            for j in [j, js.start + js.end - 1 - j] {
                self.check_fence([i, j]);
            }
            (self.storage_index([i, j])).unwrap_or_else(|| self.non_visible_row(i, js.clone()))
        });
        let w = js.len();
        self.data[span]
            .chunks(self.stride[0].max(1))
            .map(move |r| &r[..w])
    }

    /// The write side of [`DistArray2::rows`]: each row an owned run,
    /// ownership checked once, at the box's two corners, with
    /// [`DistArrayN::set`]'s owner-computes panic.
    pub fn rows_mut(
        &mut self,
        is: Range<usize>,
        js: Range<usize>,
    ) -> impl Iterator<Item = &mut [T]> {
        let span = self.box_span(&is, &js, |idx| {
            assert!(
                self.owns(idx),
                "proc {}: owner-computes violation — rows_mut({is:?}, {js:?}) reaches \
                 outside the owned box",
                self.rank
            );
            self.storage_index_owned(idx)
        });
        let (w, stride) = (js.len(), self.stride[0].max(1));
        self.data[span].chunks_mut(stride).map(move |r| &mut r[..w])
    }

    /// The storage run of the box `is × js` from its first corner to its
    /// last, each decoded by `at`, checked to hold the box's rows at the
    /// storage stride; empty for an empty box.
    fn box_span(
        &self,
        is: &Range<usize>,
        js: &Range<usize>,
        at: impl Fn([usize; 2]) -> usize,
    ) -> Range<usize> {
        if is.is_empty() || js.is_empty() {
            return 0..0;
        }
        let (s, e) = (at([is.start, js.start]), at([is.end - 1, js.end - 1]));
        assert!(
            e - s == (is.len() - 1) * self.stride[0] + js.len() - 1,
            "proc {}: the box ({is:?}, {js:?}) is not one storage box (dist {})",
            self.rank,
            self.spec()
        );
        s..e + 1
    }

    #[cold]
    fn non_visible_row(&self, i: usize, js: std::ops::Range<usize>) -> usize {
        panic!(
            "proc {}: non-local row read ({i}, {js:?}) (dist {}); a ghost \
             exchange or slice transfer must make it visible first",
            self.rank,
            self.spec()
        )
    }

    /// The column sibling of [`DistArray2::row`], the N = 2 spelling of
    /// [`DistArrayN::box_into`]: copy the visible run of column `j`, rows
    /// `is`, into the head of the contiguous scratch `out`.
    #[inline]
    pub fn col_into(&self, j: usize, is: std::ops::Range<usize>, out: &mut [T]) {
        self.box_into([is.start, j], [is.end, j + 1], out);
    }

    /// Copy-in/copy-out without copying the array: run one update of
    /// the owned points of `[r0] × [r1]` as `f(live, old)`. `old` is lent
    /// the array's own storage: the copy-in state, ghost skirt and armed
    /// read fence included. `live` is the array on a kept second buffer,
    /// onto which only the skirt and the owned points outside the box are
    /// copied, so `f` must write every owned point of the box. When `f`
    /// returns, `old`'s storage becomes the kept buffer: allocated on the
    /// first update, reused while its length fits, never carried by a
    /// clone, [`DistArrayN::like`] or [`DistArrayN::redistribute`]. Panics
    /// on a cyclic dimension, like [`DistArrayN::owned_box`].
    pub fn with_copy_in<R>(
        &mut self,
        r0: std::ops::Range<usize>,
        r1: std::ops::Range<usize>,
        f: impl FnOnce(&mut Self, &mut Self) -> R,
    ) -> R {
        let (lo, hi) = self.owned_box([r0.start, r1.start], [r0.end, r1.end]);
        let mut buf = std::mem::take(&mut self.kept.0);
        if buf.len() != self.data.len() {
            buf = vec![T::default(); self.data.len()];
        }
        // The descriptor is cloned while the array holds no storage.
        let storage = std::mem::take(&mut self.data);
        let mut old = self.clone();
        old.data = storage;
        self.data = buf;
        // Copy the gaps between the box's row runs, in storage order.
        let mut from = 0;
        for i in lo[0]..hi[0] {
            let to = self.storage_index_owned([i, lo[1]]);
            self.data[from..to].copy_from_slice(&old.data[from..to]);
            from = to + hi[1] - lo[1];
        }
        self.data[from..].copy_from_slice(&old.data[from..]);
        let r = f(self, &mut old);
        self.kept.0 = old.data;
        r
    }
}

impl<T: Elem> DistArray3<T> {
    /// 3-D convenience getter.
    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> T {
        self.get([i, j, k])
    }

    /// 3-D convenience setter.
    #[inline]
    pub fn put(&mut self, i: usize, j: usize, k: usize, v: T) {
        self.set([i, j, k], v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2() -> ProcGrid {
        ProcGrid::new_2d(2, 2)
    }

    #[test]
    fn ownership_boxes_partition_the_array() {
        let g = grid2();
        let spec = DistSpec::block2();
        let mut owned_count = 0usize;
        for rank in 0..4 {
            let a: DistArray2<f64> = DistArrayN::new(rank, &g, &spec, [8, 8], [0, 0]);
            assert!(a.is_participant());
            owned_count += a.local_len(0) * a.local_len(1);
            assert_eq!(a.local_len(0), 4);
        }
        assert_eq!(owned_count, 64);
    }

    #[test]
    fn get_set_roundtrip_on_owner() {
        let g = grid2();
        let spec = DistSpec::block2();
        let mut a: DistArray2<f64> = DistArrayN::new(0, &g, &spec, [8, 8], [1, 1]);
        a.put(2, 3, 7.5);
        assert_eq!(a.at(2, 3), 7.5);
        assert_eq!(a.try_get([2, 3]), Some(7.5));
    }

    #[test]
    #[should_panic(expected = "non-local read")]
    fn remote_read_panics() {
        let g = grid2();
        let spec = DistSpec::block2();
        let a: DistArray2<f64> = DistArrayN::new(0, &g, &spec, [8, 8], [0, 0]);
        let _ = a.at(7, 7); // owned by rank 3
    }

    #[test]
    #[should_panic(expected = "owner-computes violation")]
    fn remote_write_panics() {
        let g = grid2();
        let spec = DistSpec::block2();
        let mut a: DistArray2<f64> = DistArrayN::new(0, &g, &spec, [8, 8], [1, 1]);
        a.put(7, 7, 1.0);
    }

    #[test]
    fn ghost_cells_visible_but_not_writable() {
        let g = grid2();
        let spec = DistSpec::block2();
        let a: DistArray2<f64> = DistArrayN::new(0, &g, &spec, [8, 8], [1, 1]);
        // Rank 0 owns [0..4)x[0..4); global (4, 2) is in its ghost skirt.
        assert_eq!(a.try_get([4, 2]), Some(0.0));
        assert_eq!(a.try_get([5, 2]), None);
        assert!(!a.owns([4, 2]));
    }

    #[test]
    fn undistributed_dim_is_fully_local() {
        let g = ProcGrid::new_1d(4);
        let spec = DistSpec::local_block();
        let a: DistArray2<f64> =
            DistArrayN::from_fn(1, &g, &spec, [6, 16], [0, 0], |[i, j]| (i * 100 + j) as f64);
        assert_eq!(a.local_len(0), 6);
        assert_eq!(a.owned_range(1), 4..8);
        for i in 0..6 {
            for j in 4..8 {
                assert_eq!(a.at(i, j), (i * 100 + j) as f64);
            }
        }
    }

    #[test]
    fn owner_rank_matches_owns() {
        let g = grid2();
        let spec = DistSpec::block2();
        let arrays: Vec<DistArray2<f64>> = (0..4)
            .map(|r| DistArrayN::new(r, &g, &spec, [5, 7], [0, 0]))
            .collect();
        for i in 0..5 {
            for j in 0..7 {
                let owner = arrays[0].owner_rank([i, j]);
                for (r, a) in arrays.iter().enumerate() {
                    assert_eq!(a.owns([i, j]), r == owner, "({i},{j}) rank {r}");
                }
            }
        }
    }

    #[test]
    fn cyclic_dim_access() {
        let g = ProcGrid::new_1d(3);
        let spec = DistSpec::new(vec![DimMap::Dist(DimDist::Cyclic)]);
        let a: DistArray1<f64> = DistArrayN::from_fn(1, &g, &spec, [10], [0], |[i]| i as f64);
        assert_eq!(a.owned_indices(0), vec![1, 4, 7]);
        assert_eq!(a.at(4), 4.0);
        assert_eq!(a.try_get([5]), None);
    }

    #[test]
    fn nonmember_holds_empty_view() {
        let g = ProcGrid::with_ranks(vec![2], vec![0, 1]);
        let spec = DistSpec::block1();
        let a: DistArray1<f64> = DistArrayN::new(3, &g, &spec, [8], [0]);
        assert!(!a.in_grid());
        assert!(!a.is_participant());
        assert_eq!(a.try_get([0]), None);
        assert_eq!(a.owned_indices(0), Vec::<usize>::new());
    }

    #[test]
    fn empty_block_when_fewer_elements_than_procs() {
        let g = ProcGrid::new_1d(8);
        let spec = DistSpec::block1();
        // 4 elements over 8 procs: half the procs own nothing.
        let a: DistArray1<f64> = DistArrayN::new(1, &g, &spec, [4], [0]);
        let total: usize = (0..8)
            .map(|r| DistArrayN::<f64, 1>::new(r, &g, &spec, [4], [0]).local_len(0))
            .sum();
        assert_eq!(total, 4);
        assert!(a.in_grid());
    }

    #[test]
    fn map_owned_transforms_in_place() {
        let g = ProcGrid::new_1d(2);
        let spec = DistSpec::block1();
        let mut a: DistArray1<f64> = DistArrayN::from_fn(0, &g, &spec, [8], [0], |[i]| i as f64);
        a.map_owned(|_, v| v * 2.0);
        assert_eq!(a.at(3), 6.0);
    }

    /// `owned`/`owned_mut` are `at`/`put` over `owned_indices(0)`, in that
    /// order, and a write through `owned_mut` leaves every ghost alone.
    #[test]
    fn owned_slices_match_at_and_put_element_for_element() {
        let n = 11;
        let cyclic = DistSpec::new(vec![DimMap::Dist(DimDist::Cyclic)]);
        for p in [1, 3, 4] {
            let g = ProcGrid::new_1d(p);
            for (spec, ghost) in [
                (DistSpec::block1(), 0),
                (cyclic.clone(), 0),
                (DistSpec::block1(), 2),
            ] {
                for rank in 0..p {
                    let a: DistArray1<f64> =
                        DistArrayN::from_fn(rank, &g, &spec, [n], [ghost], |[i]| i as f64 + 0.5);
                    let idx = a.owned_indices(0);
                    assert_eq!(a.owned().len(), idx.len());
                    for (&i, &v) in idx.iter().zip(a.owned()) {
                        assert_eq!(
                            v.to_bits(),
                            a.at(i).to_bits(),
                            "p {p} rank {rank} index {i}"
                        );
                    }
                    // Ghost cells hold a sentinel the owned writes must not disturb.
                    let mut want = numbered(a.clone());
                    let mut got = want.clone();
                    for &i in &idx {
                        want.put(i, want.at(i) + 100.0);
                    }
                    for v in got.owned_mut() {
                        *v += 100.0;
                    }
                    assert_eq!(got.data, want.data, "p {p} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn owned_slices_are_empty_off_the_grid_and_on_an_owner_of_nothing() {
        let spec = DistSpec::block1();
        let g = ProcGrid::with_ranks(vec![2], vec![0, 1]);
        let mut outsider: DistArray1<f64> = DistArrayN::new(3, &g, &spec, [8], [1]);
        assert!(outsider.owned().is_empty() && outsider.owned_mut().is_empty());
        // 4 elements over 8 procs: rank 0 owns nothing under balanced blocks.
        let g = ProcGrid::new_1d(8);
        let mut idle: DistArray1<f64> = DistArrayN::new(0, &g, &spec, [4], [1]);
        assert!(idle.in_grid() && idle.owned_indices(0).is_empty());
        assert!(idle.owned().is_empty() && idle.owned_mut().is_empty());
    }

    /// Give every storage cell — ghosts included — a distinct value, so a
    /// box copy can be checked cell by cell.
    fn numbered<const N: usize>(mut a: DistArrayN<f64, N>) -> DistArrayN<f64, N> {
        for (s, v) in a.data.iter_mut().enumerate() {
            *v = s as f64;
        }
        a
    }

    /// Rank 0 of 2x2 owns [0..4) x [0..4) of an 8x8 array with a full skirt.
    fn skirted2() -> DistArray2<f64> {
        numbered(DistArrayN::new(
            0,
            &grid2(),
            &DistSpec::block2(),
            [8, 8],
            [1, 1],
        ))
    }

    /// `box_into` must read, in row-major order of the box, exactly what
    /// `get` reads; if the box is owned, `box_set` must write it back and
    /// touch nothing else.
    fn check_box<const N: usize>(a: &mut DistArrayN<f64, N>, lo: [usize; N], hi: [usize; N]) {
        let dims: [usize; N] = std::array::from_fn(|d| hi[d] - lo[d]);
        let vol: usize = dims.iter().product();
        let cell = |flat: usize| {
            let (mut rem, mut idx) = (flat, lo);
            for d in (0..N).rev() {
                idx[d] += rem % dims[d];
                rem /= dims[d];
            }
            idx
        };
        let mut out = vec![-1.0; vol + 1];
        a.box_into(lo, hi, &mut out);
        for (flat, &got) in out[..vol].iter().enumerate() {
            assert_eq!(got, a.get(cell(flat)), "{:?}", cell(flat));
        }
        assert_eq!(out[vol], -1.0, "box_into fills only the box");
        if !(a.owns(lo) && a.owns(hi.map(|h| h - 1))) {
            return;
        }
        let before = a.data.clone();
        let vals: Vec<f64> = out.iter().map(|v| v + 1000.0).collect();
        a.box_set(lo, hi, &vals);
        for (flat, &v) in vals[..vol].iter().enumerate() {
            assert_eq!(a.get(cell(flat)), v, "{:?}", cell(flat));
        }
        let changed = a.data.iter().zip(&before).filter(|(x, y)| x != y).count();
        assert_eq!(changed, vol, "box_set writes only the box");
    }

    #[test]
    fn box_pair_matches_get_and_set_in_one_two_and_three_dims() {
        // Rank 0 of two owns 0..4 plus the ghost at 4.
        let (g1, block1) = (ProcGrid::new_1d(2), DistSpec::block1());
        let mut a = numbered(DistArrayN::new(0, &g1, &block1, [8], [1]));
        check_box(&mut a, [2], [5]); // spans the ghost
        check_box(&mut a, [1], [4]);
        check_box(&mut a, [3], [4]);
        let mut a = skirted2();
        check_box(&mut a, [1, 2], [5, 5]); // spans face and corner ghosts
        check_box(&mut a, [0, 2], [4, 3]); // a column: last axis pinned
        check_box(&mut a, [2, 1], [3, 4]); // a row: first axis pinned
        check_box(&mut a, [1, 1], [3, 4]);
        // Rank 3 of the mg3 layout owns all of x and [4..8) in y and z.
        let spec = DistSpec::local_block_block();
        let mut a = numbered(DistArrayN::new(3, &grid2(), &spec, [4, 8, 8], [0, 1, 1]));
        check_box(&mut a, [0, 3, 3], [4, 6, 6]); // spans ghosts in y and z
        check_box(&mut a, [1, 4, 5], [3, 8, 6]); // a plane: last axis pinned
        check_box(&mut a, [2, 4, 4], [3, 8, 8]); // a plane: first axis pinned
        check_box(&mut a, [0, 5, 4], [4, 6, 5]); // a line along x
    }

    /// `owned_box` must keep exactly the cells of the box that `owns`
    /// accepts, and say "none" one way only.
    fn check_owned_box<const N: usize>(a: &DistArrayN<f64, N>, lo: [usize; N], hi: [usize; N]) {
        let (olo, ohi) = a.owned_box(lo, hi);
        let inside = |idx: [usize; N], lo: [usize; N], hi: [usize; N]| {
            (0..N).all(|d| lo[d] <= idx[d] && idx[d] < hi[d])
        };
        let mut kept = 0;
        let all: [Vec<usize>; N] = std::array::from_fn(|d| (0..a.extents()[d]).collect());
        cartesian(&all, |idx| {
            let want = inside(idx, lo, hi) && a.owns(idx);
            assert_eq!(
                inside(idx, olo, ohi),
                want,
                "rank {} box {lo:?}..{hi:?} at {idx:?}",
                a.rank()
            );
            kept += want as usize;
        });
        if kept == 0 {
            assert_eq!((olo, ohi), ([0; N], [0; N]), "one spelling of empty");
        }
    }

    #[test]
    fn owned_box_matches_an_owns_scan_in_one_two_and_three_dims() {
        let g1 = ProcGrid::new_1d(3);
        for rank in 0..3 {
            let a: DistArray1<f64> = DistArrayN::new(rank, &g1, &DistSpec::block1(), [10], [1]);
            for (lo, hi) in [(0, 10), (1, 9), (3, 4), (4, 8), (7, 7), (9, 2)] {
                check_owned_box(&a, [lo], [hi]);
            }
        }
        // Not square, and on ranks that are not 0..p.
        let g2 = ProcGrid::with_ranks(vec![2, 3], vec![8, 1, 6, 3, 0, 5]);
        for &rank in g2.ranks() {
            let a: DistArray2<f64> =
                DistArrayN::new(rank, &g2, &DistSpec::block2(), [5, 11], [1, 1]);
            for (lo, hi) in [
                ([0, 0], [5, 11]),
                ([1, 1], [4, 10]),
                ([2, 0], [3, 11]), // a row
                ([0, 7], [5, 8]),  // a column
                ([3, 4], [3, 9]),  // empty going in
            ] {
                check_owned_box(&a, lo, hi);
            }
        }
        let spec = DistSpec::local_block_block();
        for rank in 0..4 {
            let a: DistArray3<f64> = DistArrayN::new(rank, &grid2(), &spec, [3, 6, 9], [0, 1, 1]);
            for (lo, hi) in [
                ([0, 0, 0], [3, 6, 9]),
                ([1, 1, 1], [2, 5, 8]),
                ([0, 0, 4], [3, 6, 5]), // a z-plane
                ([0, 2, 0], [3, 3, 9]), // a y-plane
                ([1, 0, 0], [2, 6, 9]), // an x-plane: every rank owns part
            ] {
                check_owned_box(&a, lo, hi);
            }
        }
    }

    #[test]
    fn owned_box_is_empty_off_the_grid_and_on_an_owner_of_nothing() {
        let spec = DistSpec::block1();
        let g = ProcGrid::with_ranks(vec![2], vec![0, 1]);
        let outsider: DistArray1<f64> = DistArrayN::new(3, &g, &spec, [8], [1]);
        assert_eq!(outsider.owned_box([0], [8]), ([0], [0]));
        assert_eq!(outsider.owner_slice([0]), None);
        // 4 elements over 8 procs: rank 0 owns nothing under balanced blocks.
        let g = ProcGrid::new_1d(8);
        let idle: DistArray1<f64> = DistArrayN::new(0, &g, &spec, [4], [1]);
        assert!(idle.in_grid() && !idle.is_participant());
        assert_eq!(idle.owned_box([0], [4]), ([0], [0]));
        // ... but it is a grid member and still finds its slice.
        assert_eq!(idle.owner_slice([0]).unwrap().ranks(), &[0]);
    }

    #[test]
    #[should_panic(expected = "what it owns is not a box")]
    fn owned_box_rejects_a_cyclic_dimension() {
        let g = ProcGrid::new_1d(3);
        let spec = DistSpec::new(vec![DimMap::Dist(DimDist::Cyclic)]);
        let a: DistArray1<f64> = DistArrayN::new(1, &g, &spec, [10], [0]);
        let _ = a.owned_box([0], [10]);
    }

    #[test]
    fn owner_slice_pins_the_grid_dim_each_axis_is_distributed_over() {
        // Rank 3 sits at (1, 1) of an embedded 2 x 3 grid.
        let g = ProcGrid::with_ranks(vec![2, 3], vec![8, 1, 6, 3, 0, 5]);
        let a: DistArray2<f64> = DistArrayN::new(0, &g, &DistSpec::block2(), [5, 11], [0, 0]);
        assert_eq!(a.owner_slice([0]).unwrap().ranks(), &[3, 0, 5]); // owner(a(i, *))
        assert_eq!(a.owner_slice([1]).unwrap().ranks(), &[1, 0]); // owner(a(*, j))
        assert_eq!(a.owner_slice([1, 0]).unwrap().ranks(), &[0]);
        assert_eq!(a.owner_slice([]).unwrap(), g);
        // dist (*, block, block): axis 0 pins nothing, axis 2 pins grid dim 1.
        let spec = DistSpec::local_block_block();
        let a: DistArray3<f64> = DistArrayN::new(1, &grid2(), &spec, [3, 6, 9], [0, 0, 0]);
        assert_eq!(a.owner_slice([0]).unwrap(), grid2());
        assert_eq!(a.owner_slice([1]).unwrap().ranks(), &[0, 1]);
        assert_eq!(a.owner_slice([2]).unwrap().ranks(), &[1, 3]);
        assert_eq!(a.owner_slice(0..2), a.owner_slice([1]));
    }

    #[test]
    fn empty_box_is_a_no_op() {
        let mut a = skirted2();
        let before = a.data.clone();
        // Not even visible — but empty, so never decoded.
        a.box_into([7, 7], [8, 7], &mut []);
        a.box_set([7, 7], [7, 8], &[]);
        a.col_into(2, 3..3, &mut []);
        assert_eq!(a.data, before);
    }

    #[test]
    #[should_panic(expected = "non-local read of box")]
    fn box_beyond_the_ghost_skirt_panics_on_read() {
        let a = skirted2();
        a.col_into(2, 0..6, &mut [0.0; 6]); // row 5 is past the ghost row 4
    }

    #[test]
    #[should_panic(expected = "owner-computes violation")]
    fn box_reaching_into_ghosts_panics_on_write() {
        let mut a = skirted2();
        a.box_set([0, 2], [5, 3], &[0.0; 5]); // row 4 is visible but not owned
    }

    /// Random boxes `lo..hi` inside `range`, a tenth of them empty.
    fn random_range(
        next: &mut impl FnMut(usize) -> usize,
        range: &std::ops::Range<usize>,
    ) -> std::ops::Range<usize> {
        let lo = range.start + next(range.len());
        let hi = if next(10) == 0 {
            lo
        } else {
            lo + 1 + next(range.end - lo)
        };
        lo..hi
    }

    #[test]
    fn rows_are_the_row_slices_of_random_boxes() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n.max(1) as u64) as usize
        };
        for p in 1..=6usize {
            let mut layouts = vec![
                (ProcGrid::new_1d(p), DistSpec::block_local()),
                (ProcGrid::new_1d(p), DistSpec::local_block()),
            ];
            for p0 in (1..=p).filter(|p0| p % p0 == 0) {
                layouts.push((ProcGrid::new_2d(p0, p / p0), DistSpec::block2()));
            }
            for ((grid, spec), g, ext) in layouts
                .iter()
                .flat_map(|l| (0..=2).flat_map(move |g| [[11, 13], [5, 7]].map(|e| (l, g, e))))
            {
                for rank in 0..p {
                    let mut a = numbered(DistArray2::<f64>::new(rank, grid, spec, ext, [g, g]));
                    if !a.is_participant() {
                        assert_eq!(a.rows(0..0, 0..0).count(), 0);
                        continue;
                    }
                    let seen = |a: &DistArray2<f64>, d: usize| {
                        let o = a.owned_range(d);
                        o.start.saturating_sub(g)..(o.end + g).min(ext[d])
                    };
                    let (vis, own) = (
                        [seen(&a, 0), seen(&a, 1)],
                        [a.owned_range(0), a.owned_range(1)],
                    );
                    for _ in 0..20 {
                        let (is, js) = (
                            random_range(&mut next, &vis[0]),
                            random_range(&mut next, &vis[1]),
                        );
                        let got: Vec<&[f64]> = a.rows(is.clone(), js.clone()).collect();
                        let n = if js.is_empty() { 0 } else { is.len() };
                        assert_eq!(got.len(), n, "{spec} p={p} rank {rank}: {is:?} x {js:?}");
                        for (i, row) in is.clone().zip(&got) {
                            assert!(std::ptr::eq(*row, a.row(i, js.clone())), "{spec} row {i}");
                        }
                        let (is, js) = (
                            random_range(&mut next, &own[0]),
                            random_range(&mut next, &own[1]),
                        );
                        let got: Vec<(*const f64, usize)> = a
                            .rows_mut(is.clone(), js.clone())
                            .map(|r| (r.as_ptr(), r.len()))
                            .collect();
                        let n = if js.is_empty() { 0 } else { is.len() };
                        assert_eq!(
                            got.len(),
                            n,
                            "{spec} p={p} rank {rank}: mut {is:?} x {js:?}"
                        );
                        for (i, &(ptr, len)) in is.zip(&got) {
                            let row = a.row_mut(i, js.clone());
                            assert_eq!((row.as_ptr(), row.len()), (ptr, len), "{spec} row {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-local row read")]
    fn rows_beyond_the_ghost_skirt_panic_as_row_does() {
        let a = skirted2();
        let _ = a.rows(2..6, 1..3); // row 5 is past the ghost row 4
    }

    #[test]
    #[should_panic(expected = "non-local row read")]
    fn rows_beyond_the_ghost_columns_panic_as_row_does() {
        let a = skirted2();
        let _ = a.rows(0..3, 2..6); // column 5 is past the ghost column 4
    }

    #[test]
    #[should_panic(expected = "owner-computes violation")]
    fn rows_mut_reaching_into_ghosts_panics_as_row_mut_does() {
        let mut a = skirted2();
        let _ = a.rows_mut(1..5, 0..2); // row 4 is visible but not owned
    }

    #[test]
    #[should_panic(expected = "not one storage box")]
    fn rows_across_a_cyclic_dimension_panic() {
        let spec = DistSpec::new(vec![DimMap::Dist(DimDist::Cyclic), DimMap::Local]);
        let a: DistArray2<f64> = DistArrayN::new(0, &ProcGrid::new_1d(2), &spec, [8, 4], [0, 0]);
        let _ = a.rows(0..3, 0..4); // owns rows 0 and 2, not 1
    }

    #[test]
    #[should_panic(expected = "ghost layers require")]
    fn ghosts_on_cyclic_rejected() {
        let g = ProcGrid::new_1d(2);
        let spec = DistSpec::new(vec![DimMap::Dist(DimDist::Cyclic)]);
        let _: DistArray1<f64> = DistArrayN::new(0, &g, &spec, [8], [1]);
    }

    #[test]
    fn three_d_mg3_layout() {
        // dist (*, block, block) over a 2x2 grid — the mg3 declaration.
        let g = grid2();
        let spec = DistSpec::local_block_block();
        let a: DistArray3<f64> = DistArrayN::new(3, &g, &spec, [4, 8, 8], [0, 1, 1]);
        assert_eq!(a.local_len(0), 4);
        assert_eq!(a.owned_range(1), 4..8);
        assert_eq!(a.owned_range(2), 4..8);
        assert!(a.owns([0, 5, 5]));
        assert!(!a.owns([0, 3, 5]));
    }
}
