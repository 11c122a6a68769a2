//! Processor arrays (`processors procs(p, p)`) and their slices.

use kali_machine::Team;

/// An N-dimensional arrangement of machine ranks — the image of a KF1
/// `processors` declaration or of a slice of one (`procs(ip, *)`).
///
/// A `ProcGrid` is a *view*: slicing never communicates, it just selects the
/// machine ranks whose grid coordinate is pinned. The paper's rule that
/// "passing a slice of a distributed array often entails passing a matching
/// slice of the processor array" corresponds to constructing a sliced
/// `ProcGrid` and handing it (as a [`Team`]) to a distributed procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcGrid {
    dims: Vec<usize>,
    /// Machine ranks in row-major order of grid coordinates.
    ranks: Vec<usize>,
}

impl ProcGrid {
    /// A 1-D processor array over machine ranks `0..p`.
    pub fn new_1d(p: usize) -> Self {
        ProcGrid::with_ranks(vec![p], (0..p).collect())
    }

    /// A 2-D `px × py` processor array over machine ranks `0..px*py`,
    /// row-major (`rank = x * py + y`).
    pub fn new_2d(px: usize, py: usize) -> Self {
        ProcGrid::with_ranks(vec![px, py], (0..px * py).collect())
    }

    /// A 3-D `px × py × pz` processor array, row-major.
    pub fn new_3d(px: usize, py: usize, pz: usize) -> Self {
        ProcGrid::with_ranks(vec![px, py, pz], (0..px * py * pz).collect())
    }

    /// A grid over explicit machine ranks (row-major coordinate order).
    pub fn with_ranks(dims: Vec<usize>, ranks: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "grid needs at least one dimension");
        assert!(
            dims.iter().all(|&d| d >= 1),
            "grid extents must be positive"
        );
        let size: usize = dims.iter().product();
        assert_eq!(
            size,
            ranks.len(),
            "rank list must cover the grid exactly: {dims:?} vs {} ranks",
            ranks.len()
        );
        ProcGrid { dims, ranks }
    }

    /// Number of grid dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// All extents.
    #[inline]
    pub fn extents(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of processors in the grid.
    #[inline]
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Machine ranks in row-major coordinate order.
    #[inline]
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    fn flat_index(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.ndims(), "coordinate rank mismatch");
        let mut idx = 0;
        for (d, &c) in coords.iter().enumerate() {
            assert!(
                c < self.dims[d],
                "coordinate {c} out of extent {}",
                self.dims[d]
            );
            idx = idx * self.dims[d] + c;
        }
        idx
    }

    /// Machine rank of the processor at `coords`.
    pub fn rank_at(&self, coords: &[usize]) -> usize {
        self.ranks[self.flat_index(coords)]
    }

    /// Grid coordinates of machine rank `rank`, if it belongs to this grid.
    pub fn coords_of(&self, rank: usize) -> Option<Vec<usize>> {
        let mut idx = self.ranks.iter().position(|&r| r == rank)?;
        let mut coords = vec![0; self.ndims()];
        for d in (0..self.ndims()).rev() {
            coords[d] = idx % self.dims[d];
            idx /= self.dims[d];
        }
        Some(coords)
    }

    /// Does the grid contain this machine rank?
    pub fn contains(&self, rank: usize) -> bool {
        self.ranks.contains(&rank)
    }

    /// Row-major position of machine rank `rank` within the grid.
    pub fn index_of(&self, rank: usize) -> Option<usize> {
        self.ranks.iter().position(|&r| r == rank)
    }

    /// Pin any subset of the grid's dimensions, each `(dim, at)` fixing
    /// dimension `dim` to coordinate `at` — the general processor-array
    /// section: `procs(ip, *)` is `pin(&[(0, ip)])`, `procs(ip, *, kp)` is
    /// `pin(&[(0, ip), (2, kp)])`. The pins may come in any order and
    /// always name dimensions of *this* grid (the caller never renumbers
    /// after a pin); the kept dimensions stay in order, so pinning nothing
    /// returns the grid itself.
    ///
    /// Pinning every dimension produces a singleton 1-D grid (a lone
    /// processor), mirroring how KF1 lets a single processor receive a
    /// "grid" argument.
    pub fn pin(&self, pins: &[(usize, usize)]) -> ProcGrid {
        let mut pinned = vec![None; self.ndims()];
        for &(dim, at) in pins {
            assert!(
                dim < self.ndims(),
                "no dimension {dim} in a {}-d grid",
                self.ndims()
            );
            assert!(
                at < self.dims[dim],
                "slice index {at} out of extent {}",
                self.dims[dim]
            );
            assert!(
                pinned[dim].replace(at).is_none(),
                "dimension {dim} pinned twice"
            );
        }
        let mut new_dims: Vec<usize> = (0..self.ndims())
            .filter(|&d| pinned[d].is_none())
            .map(|d| self.dims[d])
            .collect();
        if new_dims.is_empty() {
            new_dims.push(1);
        }
        let mut new_ranks = Vec::with_capacity(new_dims.iter().product());
        for (idx, &rank) in self.ranks.iter().enumerate() {
            let mut rem = idx;
            let mut keep = true;
            for d in (0..self.ndims()).rev() {
                keep &= pinned[d].is_none_or(|at| at == rem % self.dims[d]);
                rem /= self.dims[d];
            }
            if keep {
                new_ranks.push(rank);
            }
        }
        ProcGrid::with_ranks(new_dims, new_ranks)
    }

    /// Slice the grid by pinning dimension `dim` to coordinate `at`,
    /// producing an (N−1)-dimensional grid — `procs(ip, *)` pins dim 0,
    /// `procs(*, jp)` pins dim 1. [`ProcGrid::pin`] of one dimension.
    pub fn slice(&self, dim: usize, at: usize) -> ProcGrid {
        self.pin(&[(dim, at)])
    }

    /// The grid as a machine [`Team`] (row-major order).
    pub fn team(&self) -> Team {
        Team::new(self.ranks.clone())
    }

    /// Reinterpret the same processors as a 1-D grid (row-major order);
    /// the KF1 idiom of treating a processor slice as a linear pipeline.
    pub fn flatten(&self) -> ProcGrid {
        ProcGrid::with_ranks(vec![self.size()], self.ranks.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_rank_layout() {
        let g = ProcGrid::new_2d(2, 3);
        assert_eq!(g.rank_at(&[0, 0]), 0);
        assert_eq!(g.rank_at(&[0, 2]), 2);
        assert_eq!(g.rank_at(&[1, 0]), 3);
        assert_eq!(g.rank_at(&[1, 2]), 5);
        assert_eq!(g.coords_of(4), Some(vec![1, 1]));
        assert_eq!(g.coords_of(9), None);
    }

    #[test]
    fn slicing_rows_and_columns() {
        let g = ProcGrid::new_2d(2, 3);
        let row1 = g.slice(0, 1); // procs(1, *)
        assert_eq!(row1.ndims(), 1);
        assert_eq!(row1.ranks(), &[3, 4, 5]);
        let col2 = g.slice(1, 2); // procs(*, 2)
        assert_eq!(col2.ranks(), &[2, 5]);
    }

    #[test]
    fn slicing_3d_yields_planes() {
        let g = ProcGrid::new_3d(2, 2, 2);
        let plane = g.slice(2, 1); // procs(*, *, 1)
        assert_eq!(plane.extents(), &[2, 2]);
        assert_eq!(plane.ranks(), &[1, 3, 5, 7]);
    }

    #[test]
    fn slice_of_slice_reaches_single_processor() {
        let g = ProcGrid::new_2d(3, 3);
        let row = g.slice(0, 2);
        let single = row.slice(0, 1);
        assert_eq!(single.size(), 1);
        assert_eq!(single.ranks(), &[7]);
        // Slicing a 1-D grid stays 1-D (singleton), as KF1 permits.
        assert_eq!(single.ndims(), 1);
    }

    /// Every ordering of `items`.
    fn permutations(items: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
        if items.is_empty() {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first);
                out.push(tail);
            }
        }
        out
    }

    /// `pin` is the fold of `slice` over the pins, highest dimension
    /// first so the lower indices stay valid — for every subset of the
    /// dimensions, every coordinate and every order the pins are given in.
    #[test]
    fn pin_equals_the_highest_first_fold_of_slices() {
        let grids = [
            ProcGrid::new_1d(3),
            ProcGrid::new_2d(2, 3),
            ProcGrid::new_3d(2, 3, 2),
            // Ranks that are neither 0..p nor in order.
            ProcGrid::with_ranks(vec![3], vec![7, 2, 5]),
            ProcGrid::with_ranks(vec![2, 2], vec![9, 4, 6, 1]),
            ProcGrid::with_ranks(vec![2, 1, 3], vec![11, 3, 8, 0, 14, 5]),
        ];
        for g in &grids {
            let nd = g.ndims();
            for subset in 0..1usize << nd {
                let dims: Vec<usize> = (0..nd).filter(|d| subset >> d & 1 == 1).collect();
                let combos: usize = dims.iter().map(|&d| g.extent(d)).product();
                for mut combo in 0..combos {
                    // Ascending by dimension; the fold walks it backwards.
                    let mut pins = Vec::new();
                    for &d in &dims {
                        pins.push((d, combo % g.extent(d)));
                        combo /= g.extent(d);
                    }
                    let want = pins
                        .iter()
                        .rev()
                        .fold(g.clone(), |g, &(d, at)| g.slice(d, at));
                    // The same set, straight from the coordinates.
                    let members: Vec<usize> = (g.ranks().iter().copied())
                        .filter(|&r| {
                            let c = g.coords_of(r).unwrap();
                            pins.iter().all(|&(d, at)| c[d] == at)
                        })
                        .collect();
                    assert_eq!(want.ranks(), members, "{g:?} pins {pins:?}");
                    for order in permutations(&pins) {
                        assert_eq!(g.pin(&order), want, "{g:?} pins {order:?}");
                    }
                }
            }
            assert_eq!(&g.pin(&[]), g);
        }
        // Pinning everything leaves a lone processor as a 1-D grid.
        let lone = grids[5].pin(&[(2, 1), (0, 1), (1, 0)]);
        assert_eq!((lone.extents(), lone.ranks()), (&[1][..], &[14][..]));
    }

    #[test]
    #[should_panic(expected = "pinned twice")]
    fn pinning_one_dimension_twice_is_rejected() {
        let _ = ProcGrid::new_2d(2, 2).pin(&[(1, 0), (1, 1)]);
    }

    #[test]
    fn team_matches_ranks() {
        let g = ProcGrid::new_2d(2, 2).slice(1, 0);
        let t = g.team();
        assert_eq!(t.ranks(), &[0, 2]);
    }

    #[test]
    fn flatten_preserves_order() {
        let g = ProcGrid::new_2d(2, 2);
        let f = g.flatten();
        assert_eq!(f.ndims(), 1);
        assert_eq!(f.ranks(), &[0, 1, 2, 3]);
    }

    #[test]
    fn custom_rank_embedding() {
        // A grid living on the odd machine ranks.
        let g = ProcGrid::with_ranks(vec![2, 2], vec![1, 3, 5, 7]);
        assert_eq!(g.rank_at(&[1, 0]), 5);
        assert_eq!(g.index_of(5), Some(2));
        assert!(g.contains(7));
        assert!(!g.contains(0));
    }

    #[test]
    #[should_panic(expected = "rank list must cover")]
    fn mismatched_rank_count_rejected() {
        let _ = ProcGrid::with_ranks(vec![2, 2], vec![0, 1, 2]);
    }
}
