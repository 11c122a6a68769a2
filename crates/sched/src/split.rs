//! Interior/boundary partitions of owned iteration sets.
//!
//! The split-phase engine's compiled forms partition each processor's
//! owned iterations into an *interior* (whose stencil footprint stays
//! inside the owned block, so it reads no ghost and can run while posted
//! messages are in flight) and a *boundary* (everything else, run after
//! completion). These partitions are schedule-subsystem logic — the
//! compiled-path mirror of [`crate::CommSchedule::boundary`] — so the
//! clamp subtleties live here, once.

/// The interior/boundary partition of a 1-D owned range: the iterations
/// of `range ∩ owned`, split into the indices at least `margin` inside
/// the owned block and the rest.
#[derive(Debug, Clone, Copy)]
pub struct SplitRange1 {
    start: usize,
    end: usize,
    is0: usize,
    is1: usize,
}

impl SplitRange1 {
    pub fn new(
        owned: std::ops::Range<usize>,
        range: std::ops::Range<usize>,
        margin: usize,
    ) -> SplitRange1 {
        let start = range.start.max(owned.start);
        let end = range.end.min(owned.end);
        let is0 = start.max(owned.start + margin);
        let is1 = end.min(owned.end.saturating_sub(margin)).max(is0);
        SplitRange1 {
            start,
            end,
            is0,
            is1,
        }
    }

    /// The interior indices, as one ascending run.
    pub fn interior(&self) -> std::ops::Range<usize> {
        self.is0..self.is1
    }

    /// Every index of `range ∩ owned` (empty when `start ≥ end`).
    fn covered(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// The boundary indices (covered range minus interior) as two
    /// ascending runs, either possibly empty: the low edge, then the high
    /// edge.
    pub fn boundary(&self) -> [std::ops::Range<usize>; 2] {
        [
            self.start..self.is0.min(self.end),
            self.is1.max(self.start)..self.end,
        ]
    }
}

/// The interior/boundary partition of a 2-D owned box: the iterations of
/// `range ∩ owned`, split into the *interior* sub-box (every point at
/// least `margin` inside the owned block, so a `margin`-wide stencil
/// footprint reads no ghost) and the *boundary* frame (everything else).
/// One definition shared by the split-phase `doall` forms,
/// `jacobi_update_split` and the split-phase solvers.
#[derive(Debug, Clone, Copy)]
pub struct SplitBox2 {
    rows: SplitRange1,
    cols: SplitRange1,
}

/// A box of a [`SplitBox2`]'s partition: `(rows, columns)`.
pub type Box2 = (std::ops::Range<usize>, std::ops::Range<usize>);

impl SplitBox2 {
    /// Partition `r0 × r1` clipped to the owned box, with the interior
    /// shrunk by `margin` against the *owned* block edges: the product of
    /// the two dimensions' [`SplitRange1`]s.
    pub fn new(
        owned: [std::ops::Range<usize>; 2],
        r0: std::ops::Range<usize>,
        r1: std::ops::Range<usize>,
        margin: [usize; 2],
    ) -> SplitBox2 {
        let [o0, o1] = owned;
        SplitBox2 {
            rows: SplitRange1::new(o0, r0, margin[0]),
            cols: SplitRange1::new(o1, r1, margin[1]),
        }
    }

    /// Number of interior points.
    pub fn interior_count(&self) -> usize {
        self.rows.interior().len() * self.cols.interior().len()
    }

    /// Number of boundary points.
    pub fn boundary_count(&self) -> usize {
        self.rows.covered().len() * self.cols.covered().len() - self.interior_count()
    }

    /// The interior as one box `(rows, columns)`, if it has a point.
    pub fn interior_box(&self) -> Option<Box2> {
        let b = (self.rows.interior(), self.cols.interior());
        (!b.0.is_empty() && !b.1.is_empty()).then_some(b)
    }

    /// The boundary frame as at most four non-empty boxes: the full rows
    /// above the interior, its rows' low and high column edges, and the
    /// full rows below it.
    pub fn boundary_boxes(&self) -> impl Iterator<Item = Box2> {
        let (inner, cols) = (self.rows.interior(), self.cols.covered());
        let ([above, below], [left, right]) = (self.rows.boundary(), self.cols.boundary());
        [
            (above, cols.clone()),
            (inner.clone(), left),
            (inner, right),
            (below, cols),
        ]
        .into_iter()
        .filter(|(is, js)| !is.is_empty() && !js.is_empty())
    }

    /// The interior as whole-row segments `(i, column range)`, row-major:
    /// contiguous column runs, so row-form stencil bodies can consume
    /// each visit as slices (and per-point bodies loop the run).
    pub fn for_interior_rows(&self, mut f: impl FnMut(usize, std::ops::Range<usize>)) {
        if let Some((is, js)) = self.interior_box() {
            is.for_each(|i| f(i, js.clone()));
        }
    }

    /// The boundary frame (covered box minus interior) as row segments,
    /// row-major: full rows above and below the interior, and the two
    /// [`SplitRange1::boundary`] runs of each interior row.
    pub fn for_boundary_rows(&self, mut f: impl FnMut(usize, std::ops::Range<usize>)) {
        let inner = self.rows.interior();
        let (cols, runs) = (self.cols.covered(), self.cols.boundary());
        for i in self.rows.covered() {
            let segments = if inner.contains(&i) {
                runs.clone()
            } else {
                [cols.clone(), 0..0]
            };
            for run in segments.into_iter().filter(|run| !run.is_empty()) {
                f(i, run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range1_partitions_exactly() {
        for (owned, range, margin) in [
            (4..8, 1..15, 1),
            (0..4, 0..16, 2),
            (3..5, 3..9, 1),
            (0..2, 0..8, 5), // margin swallows the whole block
            (4..8, 9..12, 1),
            (0..9, 2..7, 0),
        ] {
            let s = SplitRange1::new(owned.clone(), range.clone(), margin);
            for i in s.interior() {
                assert!(i >= owned.start + margin && i + margin < owned.end);
            }
            let [lo, hi] = s.boundary();
            let seen: Vec<usize> = lo.chain(s.interior()).chain(hi).collect();
            let want: Vec<usize> = range.filter(|i| owned.contains(i)).collect();
            assert_eq!(seen, want, "each index of range ∩ owned once, ascending");
        }
    }

    /// The points a row walker visits, in visit order.
    fn points(
        walk: impl FnOnce(&mut dyn FnMut(usize, std::ops::Range<usize>)),
    ) -> Vec<(usize, usize)> {
        let mut pts = Vec::new();
        walk(&mut |i, js| pts.extend(js.map(|j| (i, j))));
        pts
    }

    #[test]
    fn box2_interior_plus_boundary_is_the_covered_box() {
        let s = SplitBox2::new([4..8, 0..4], 1..7, 1..7, [1, 1]);
        let mut pts = points(|f| s.for_interior_rows(f));
        assert_eq!(pts.len(), s.interior_count());
        pts.extend(points(|f| s.for_boundary_rows(f)));
        assert_eq!(pts.len(), s.interior_count() + s.boundary_count());
        pts.sort_unstable();
        pts.dedup();
        let want: Vec<(usize, usize)> = (4..7).flat_map(|i| (1..4).map(move |j| (i, j))).collect();
        assert_eq!(pts, want);
    }

    #[test]
    fn box2_row_segments_cover_the_same_points_in_order() {
        // Against the definition, point by point: the covered box in
        // row-major order, interior = at least `margin` inside the owned
        // block on both axes, boundary = the rest.
        for (owned, r0, r1, margin) in [
            ([4..8, 0..4], 1..7, 1..7, [1, 1]),
            ([0..4, 0..4], 0..8, 0..8, [1, 1]),
            ([0..8, 0..8], 1..7, 1..7, [2, 1]),
            ([0..2, 0..2], 0..2, 0..2, [3, 3]), // margin swallows the block
            ([4..8, 4..8], 0..3, 0..3, [1, 1]), // box misses the range
        ] {
            let inside = |d: usize, v: usize| {
                v >= owned[d].start + margin[d] && v + margin[d] < owned[d].end
            };
            let covered: Vec<(usize, usize)> = r0
                .clone()
                .filter(|i| owned[0].contains(i))
                .flat_map(|i| {
                    let owned1 = owned[1].clone();
                    r1.clone()
                        .filter(move |j| owned1.contains(j))
                        .map(move |j| (i, j))
                })
                .collect();
            let (interior, boundary): (Vec<_>, Vec<_>) = covered
                .into_iter()
                .partition(|&(i, j)| inside(0, i) && inside(1, j));
            let s = SplitBox2::new(owned.clone(), r0, r1, margin);
            assert_eq!(
                points(|f| s.for_interior_rows(f)),
                interior,
                "interior segments"
            );
            assert_eq!(
                points(|f| s.for_boundary_rows(f)),
                boundary,
                "boundary segments"
            );
            assert_eq!(s.interior_count(), interior.len());
            assert_eq!(s.boundary_count(), boundary.len());
        }
    }

    /// The points of boxes, box by box, each row-major.
    fn box_points(boxes: impl IntoIterator<Item = Box2>) -> Vec<(usize, usize)> {
        let mut pts = Vec::new();
        for (is, js) in boxes {
            assert!(!is.is_empty() && !js.is_empty(), "an empty box");
            pts.extend(is.flat_map(|i| js.clone().map(move |j| (i, j))));
        }
        pts
    }

    #[test]
    fn box2_boxes_tile_the_row_walkers_points_once() {
        for (owned, r0, r1, margin) in [
            ([4..8, 0..4], 1..7, 1..7, [1, 1]),
            ([0..4, 0..4], 0..8, 0..8, [1, 1]),
            ([0..8, 0..8], 1..7, 1..7, [2, 1]),
            ([0..2, 0..2], 0..2, 0..2, [3, 3]),
            ([4..8, 4..8], 0..3, 0..3, [1, 1]),
            ([0..9, 4..8], 1..8, 1..12, [0, 1]), // `dist (*, block)`: rows all interior
        ] {
            let s = SplitBox2::new(owned, r0, r1, margin);
            let interior = box_points(s.interior_box());
            assert_eq!(interior, points(|f| s.for_interior_rows(f)));
            let mut frame = box_points(s.boundary_boxes());
            assert!(s.boundary_boxes().count() <= 4);
            frame.sort_unstable();
            let mut want = points(|f| s.for_boundary_rows(f));
            want.sort_unstable();
            assert_eq!(frame, want, "the frame, each point once");
        }
        // Under `dist (*, block)` the frame is the two column edges: three
        // boxes, where the row walkers make three visits per row.
        let s = SplitBox2::new([0..9, 4..8], 1..8, 1..12, [0, 1]);
        let boxes: Vec<Box2> = s
            .interior_box()
            .into_iter()
            .chain(s.boundary_boxes())
            .collect();
        assert_eq!(boxes, [(1..8, 5..7), (1..8, 4..5), (1..8, 7..8)]);
    }

    #[test]
    fn box2_interior_keeps_the_margin() {
        let s = SplitBox2::new([0..4, 0..4], 0..8, 0..8, [1, 1]);
        for (i, j) in points(|f| s.for_interior_rows(f)) {
            assert!((1..3).contains(&i) && (1..3).contains(&j));
        }
    }
}
