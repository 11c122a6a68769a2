//! N-dimensional distribution specifications — the `dist (...)` clause.

use crate::dist::{DimDist, Dist1};
use crate::grid::ProcGrid;

/// How one dimension of a data array is mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimMap {
    /// Distributed over the next unused processor-grid dimension with the
    /// given pattern.
    Dist(DimDist),
    /// Undistributed (`*` in the paper): every processor stores the whole
    /// extent of this dimension.
    Local,
}

/// Distribution clause for an N-dimensional array: one [`DimMap`] per array
/// dimension, in order. Distributed dimensions are assigned to processor
/// grid dimensions in order of appearance, and their number must equal the
/// grid's rank — the conformance rule stated in §2 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistSpec {
    maps: Vec<DimMap>,
}

impl DistSpec {
    /// Build from explicit per-dimension maps.
    pub fn new(maps: Vec<DimMap>) -> Self {
        assert!(
            !maps.is_empty(),
            "distribution needs at least one dimension"
        );
        DistSpec { maps }
    }

    /// Parse the paper's surface syntax, e.g. `"(block, *, cyclic)"` or
    /// `"block, block"`. Patterns: `block`, `cyclic`, `cyclic(b)`, `*`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let trimmed = text.trim();
        // Strip at most one outer paren pair so `(cyclic(4))` keeps the
        // pattern's own parentheses intact.
        let inner = match (trimmed.strip_prefix('('), trimmed.strip_suffix(')')) {
            _ if !trimmed.starts_with('(') => trimmed,
            (Some(_), Some(_)) => &trimmed[1..trimmed.len() - 1],
            _ => return Err(format!("unbalanced parentheses in {trimmed:?}")),
        };
        let mut maps = Vec::new();
        for part in inner.split(',') {
            let p = part.trim().to_ascii_lowercase();
            let map = if p == "*" {
                DimMap::Local
            } else if p == "block" {
                DimMap::Dist(DimDist::Block)
            } else if p == "cyclic" {
                DimMap::Dist(DimDist::Cyclic)
            } else if let Some(args) = p.strip_prefix("cyclic(").and_then(|s| s.strip_suffix(')')) {
                let b: usize = (args.trim().parse().ok())
                    .filter(|&b| b > 0)
                    .ok_or_else(|| format!("bad cyclic block size: {args:?}"))?;
                DimMap::Dist(DimDist::BlockCyclic(b))
            } else {
                return Err(format!("unknown distribution pattern: {p:?}"));
            };
            maps.push(map);
        }
        if maps.is_empty() {
            return Err("empty distribution clause".into());
        }
        Ok(DistSpec::new(maps))
    }

    /// `dist (block)` for 1-D arrays.
    pub fn block1() -> Self {
        DistSpec::new(vec![DimMap::Dist(DimDist::Block)])
    }

    /// `dist (block, block)` for 2-D arrays.
    pub fn block2() -> Self {
        DistSpec::new(vec![DimMap::Dist(DimDist::Block); 2])
    }

    /// `dist (*, block)` — the layout of the pipelined solver's arrays
    /// (Listing 6) and of `mg2`'s arrays (Listing 11).
    pub fn local_block() -> Self {
        DistSpec::new(vec![DimMap::Local, DimMap::Dist(DimDist::Block)])
    }

    /// `dist (block, *)`.
    pub fn block_local() -> Self {
        DistSpec::new(vec![DimMap::Dist(DimDist::Block), DimMap::Local])
    }

    /// `dist (*, block, block)` — the layout of `mg3`'s arrays (Listing 9).
    pub fn local_block_block() -> Self {
        DistSpec::new(vec![
            DimMap::Local,
            DimMap::Dist(DimDist::Block),
            DimMap::Dist(DimDist::Block),
        ])
    }

    /// Number of array dimensions covered.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.maps.len()
    }

    /// The per-dimension maps.
    #[inline]
    pub fn maps(&self) -> &[DimMap] {
        &self.maps
    }

    /// Map of array dimension `d`.
    #[inline]
    pub fn map(&self, d: usize) -> DimMap {
        self.maps[d]
    }

    /// Number of distributed dimensions.
    pub fn ndistributed(&self) -> usize {
        self.maps
            .iter()
            .filter(|m| matches!(m, DimMap::Dist(_)))
            .count()
    }

    /// Check the §2 conformance rule against a processor grid.
    pub fn validate(&self, grid: &ProcGrid) -> Result<(), String> {
        let nd = self.ndistributed();
        if nd != grid.ndims() {
            return Err(format!(
                "number of distributed array dimensions ({nd}) must match the \
                 processor array rank ({})",
                grid.ndims()
            ));
        }
        Ok(())
    }
}

/// A [`DistSpec`] laid onto a [`ProcGrid`] for given global extents: the
/// one answer to "who owns this index", for the compiled arrays and the
/// KF1 interpreter alike. Each array dimension has its 1-D index map
/// ([`Dist1`]); a distributed one also lands on one grid dimension, in
/// order of appearance, and the owner of an element is the grid processor
/// whose coordinates are the per-dimension owners — the tensor product of
/// the 1-D factors. Every question is O(rank) arithmetic that allocates
/// nothing, except the two that return a [`ProcGrid`].
///
/// A layout without a distributed dimension is *replicated*: every member
/// of the grid holds every element, and no element has a single owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    spec: DistSpec,
    grid: ProcGrid,
    dists: Vec<Dist1>,
    /// Per array dimension: the grid dimension it is distributed over and
    /// that dimension's row-major stride in the grid's rank list; `None`
    /// where undistributed.
    axes: Vec<Option<(usize, usize)>>,
}

impl Layout {
    /// Lay `spec` onto `grid` for an array of global `extents`. Fails when
    /// the clause and the array differ in rank, the clause breaks the §2
    /// conformance rule ([`DistSpec::validate`]), or it names a block size
    /// of 0. An undistributed dimension gets a `Dist1` over one processor
    /// (everything local).
    pub fn new(spec: &DistSpec, extents: &[usize], grid: &ProcGrid) -> Result<Layout, String> {
        if spec.maps.contains(&DimMap::Dist(DimDist::BlockCyclic(0))) {
            return Err("block-cyclic block size must be positive".into());
        }
        if extents.len() != spec.ndims() {
            return Err(format!(
                "distribution rank {} must match array rank {}",
                spec.ndims(),
                extents.len()
            ));
        }
        spec.validate(grid)?;
        Ok(Layout::build(spec.clone(), extents, grid))
    }

    /// Every dimension undistributed: each member of `grid` holds the
    /// whole array.
    pub fn replicated(extents: &[usize], grid: &ProcGrid) -> Layout {
        let maps = vec![DimMap::Local; extents.len()];
        Layout::build(DistSpec { maps }, extents, grid)
    }

    fn build(spec: DistSpec, extents: &[usize], grid: &ProcGrid) -> Layout {
        let mut gd = 0;
        let (dists, axes) = (spec.maps.iter().zip(extents))
            .map(|(m, &n)| match *m {
                DimMap::Local => (Dist1::new(n, 1, DimDist::Block), None),
                DimMap::Dist(kind) => {
                    let stride = grid.extents()[gd + 1..].iter().product();
                    gd += 1;
                    (
                        Dist1::new(n, grid.extent(gd - 1), kind),
                        Some((gd - 1, stride)),
                    )
                }
            })
            .unzip();
        Layout {
            spec,
            grid: grid.clone(),
            dists,
            axes,
        }
    }

    /// The distribution clause.
    #[inline]
    pub fn spec(&self) -> &DistSpec {
        &self.spec
    }

    /// The processor grid.
    #[inline]
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// The per-dimension index maps.
    #[inline]
    pub fn dists(&self) -> &[Dist1] {
        &self.dists
    }

    /// No distributed dimension: every grid member holds every element.
    pub fn is_replicated(&self) -> bool {
        self.axes.iter().all(Option::is_none)
    }

    /// The coordinate along array dimension `d` of the processor at
    /// row-major grid position `at`.
    #[inline]
    fn coord_at(&self, at: usize, d: usize) -> usize {
        self.axes[d].map_or(0, |(_, stride)| at / stride % self.dists[d].nprocs())
    }

    /// Machine rank `rank`'s processor coordinate along array dimension
    /// `d` — its grid coordinate on the grid dimension `d` is distributed
    /// over, 0 along an undistributed one — or `None` off the grid. What
    /// it owns along `d` is `dists()[d]`'s `lower`/`local_len`/`owned` of
    /// that coordinate.
    pub fn coord(&self, rank: usize, d: usize) -> Option<usize> {
        Some(self.coord_at(self.grid.index_of(rank)?, d))
    }

    /// [`Layout::coord`] along every dimension of an `N`-dimensional array.
    pub fn coords<const N: usize>(&self, rank: usize) -> Option<[usize; N]> {
        assert_eq!(N, self.dists.len(), "a rank-{} layout", self.dists.len());
        let at = self.grid.index_of(rank)?;
        Some(std::array::from_fn(|d| self.coord_at(at, d)))
    }

    /// Machine rank owning element `idx` (0-based global indices) — the
    /// paper's `owner` intrinsic. `None` when the layout is replicated or
    /// `idx` lies outside the extents.
    #[inline]
    pub fn owner(&self, idx: &[usize]) -> Option<usize> {
        debug_assert_eq!(idx.len(), self.dists.len(), "index rank");
        let (mut at, mut distributed) = (0, false);
        for ((dist, axis), &i) in self.dists.iter().zip(&self.axes).zip(idx) {
            if i >= dist.len() {
                return None;
            }
            if let Some((_, stride)) = axis {
                at += dist.owner(i) * stride;
                distributed = true;
            }
        }
        distributed.then(|| self.grid.ranks()[at])
    }

    /// Does machine rank `rank` belong to the grid and own a non-empty
    /// block?
    pub fn owns_block(&self, rank: usize) -> bool {
        self.grid.index_of(rank).is_some_and(|at| {
            (0..self.dists.len()).all(|d| self.dists[d].local_len(self.coord_at(at, d)) > 0)
        })
    }

    /// Check a section's pins — per array dimension a 0-based index, or
    /// `None` for `*` — against the extents: `Err(d)` names the first
    /// dimension whose index lies outside.
    fn check_pins(&self, pins: &[Option<usize>]) -> Result<(), usize> {
        debug_assert_eq!(pins.len(), self.dists.len(), "section rank");
        let outside = |(p, dist): (&Option<usize>, &Dist1)| p.is_some_and(|i| i >= dist.len());
        match pins.iter().zip(&self.dists).position(outside) {
            Some(d) => Err(d),
            None => Ok(()),
        }
    }

    /// Is machine rank `rank` one of the owners of the section `pins`
    /// (see [`Layout::section`])? The same answer as membership in that
    /// slice, without building it; the pins are checked first.
    pub fn section_contains(&self, rank: usize, pins: &[Option<usize>]) -> Result<bool, usize> {
        self.check_pins(pins)?;
        let Some(at) = self.grid.index_of(rank) else {
            return Ok(false);
        };
        Ok(
            (pins.iter().enumerate()).all(|(d, p)| match (p, self.axes[d]) {
                (Some(i), Some(_)) => self.dists[d].owner(*i) == self.coord_at(at, d),
                _ => true,
            }),
        )
    }

    /// The processor slice owning the section `pins` (per array dimension
    /// a 0-based index, or `None` for `*`): the grid with the dimension of
    /// every pinned distributed axis fixed at that index's owner — the
    /// whole grid for a replicated layout. `Err(d)`: the index pinned on
    /// dimension `d` lies outside its extent.
    pub fn section(&self, pins: &[Option<usize>]) -> Result<ProcGrid, usize> {
        self.check_pins(pins)?;
        let owners = pins.iter().enumerate();
        Ok(self.pin(owners.filter_map(|(d, p)| Some((d, self.dists[d].owner((*p)?))))))
    }

    /// The processor slice through machine rank `rank` along `axes`: the
    /// grid members sharing its coordinate on the grid dimension each axis
    /// is distributed over (an undistributed axis pins nothing). `None`
    /// off the grid.
    pub fn slice_through(
        &self,
        rank: usize,
        axes: impl IntoIterator<Item = usize>,
    ) -> Option<ProcGrid> {
        let at = self.grid.index_of(rank)?;
        Some(self.pin(axes.into_iter().map(|d| (d, self.coord_at(at, d)))))
    }

    /// The grid with array dimension `d` pinned to coordinate `q` for every
    /// `(d, q)` of `pins`; undistributed dimensions pin nothing.
    fn pin(&self, pins: impl Iterator<Item = (usize, usize)>) -> ProcGrid {
        let pins: Vec<(usize, usize)> = pins
            .filter_map(|(d, q)| Some((self.axes[d]?.0, q)))
            .collect();
        self.grid.pin(&pins)
    }
}

impl std::fmt::Display for DistSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, m) in self.maps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match m {
                DimMap::Local => write!(f, "*")?,
                DimMap::Dist(DimDist::Block) => write!(f, "block")?,
                DimMap::Dist(DimDist::Cyclic) => write!(f, "cyclic")?,
                DimMap::Dist(DimDist::BlockCyclic(b)) => write!(f, "cyclic({b})")?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_clauses() {
        let s = DistSpec::parse("(block, block)").unwrap();
        assert_eq!(s, DistSpec::block2());
        let s = DistSpec::parse("(*, block, block)").unwrap();
        assert_eq!(s, DistSpec::local_block_block());
        let s = DistSpec::parse("block").unwrap();
        assert_eq!(s, DistSpec::block1());
        let s = DistSpec::parse("(cyclic, *)").unwrap();
        assert_eq!(s.map(0), DimMap::Dist(DimDist::Cyclic));
        assert_eq!(s.map(1), DimMap::Local);
        let s = DistSpec::parse("(cyclic(4))").unwrap();
        assert_eq!(s.map(0), DimMap::Dist(DimDist::BlockCyclic(4)));
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(DistSpec::parse("(blok)").is_err());
        assert!(DistSpec::parse("(cyclic(x))").is_err());
        assert!(DistSpec::parse("(cyclic(0))").is_err());
    }

    #[test]
    fn a_block_size_of_zero_is_no_layout() {
        let spec = DistSpec::new(vec![DimMap::Dist(DimDist::BlockCyclic(0))]);
        assert!(Layout::new(&spec, &[8], &ProcGrid::new_1d(2)).is_err());
    }

    #[test]
    fn display_roundtrips() {
        for text in ["(block, block)", "(*, block)", "(cyclic, *)", "(cyclic(3))"] {
            let s = DistSpec::parse(text).unwrap();
            assert_eq!(format!("{s}"), text);
        }
    }

    #[test]
    fn grid_dims_assigned_in_order() {
        let s = DistSpec::local_block_block();
        assert_eq!(s.ndistributed(), 2);
        // Rank 5 sits at grid coordinates (1, 2) of a 2x3 grid: array
        // dimension 1 lands on grid dimension 0, dimension 2 on 1.
        let l = Layout::new(&s, &[4, 6, 6], &ProcGrid::new_2d(2, 3)).unwrap();
        assert_eq!(l.coords::<3>(5), Some([0, 1, 2]));
        assert_eq!(l.coord(5, 2), Some(2));
        assert_eq!(l.coord(6, 0), None);
        assert_eq!(l.owner(&[3, 5, 0]), Some(3));
        assert_eq!(
            l.section(&[None, Some(0), None]).unwrap().ranks(),
            &[0, 1, 2]
        );
        assert_eq!(
            l.section(&[Some(3), None, Some(5)]).unwrap().ranks(),
            &[2, 5]
        );
        assert_eq!(l.slice_through(4, [2]).unwrap().ranks(), &[1, 4]);
        // Pins are checked against the extents on every dimension.
        assert_eq!(l.section(&[Some(4), None, None]), Err(0));
        assert_eq!(l.section_contains(0, &[None, None, Some(6)]), Err(2));
        assert_eq!(l.section_contains(0, &[None, Some(1), None]), Ok(true));
        assert_eq!(l.section_contains(9, &[None, Some(1), None]), Ok(false));
    }

    #[test]
    fn replicated_layouts_have_no_owner() {
        let l = Layout::replicated(&[3, 4], &ProcGrid::new_2d(2, 2));
        assert!(l.is_replicated() && l.owns_block(3) && !l.owns_block(4));
        assert_eq!(l.owner(&[1, 1]), None);
        assert_eq!(l.section(&[Some(1), None]).unwrap(), *l.grid());
        assert_eq!(l.section(&[Some(3), None]), Err(0));
    }

    #[test]
    fn conformance_rule_enforced() {
        let g2 = ProcGrid::new_2d(2, 2);
        assert!(DistSpec::block2().validate(&g2).is_ok());
        assert!(DistSpec::block1().validate(&g2).is_err());
        let g1 = ProcGrid::new_1d(4);
        assert!(DistSpec::local_block().validate(&g1).is_ok());
        // The layout's constructor enforces the rule, and the rank.
        assert!(Layout::new(&DistSpec::block1(), &[8], &g2).is_err());
        assert!(Layout::new(&DistSpec::local_block(), &[8], &g1).is_err());
    }

    #[test]
    fn dist1s_builds_index_maps() {
        let g = ProcGrid::new_2d(2, 4);
        let l = Layout::new(&DistSpec::local_block_block(), &[10, 20, 40], &g).unwrap();
        let ds = l.dists();
        assert_eq!(ds[0].nprocs(), 1);
        assert_eq!(ds[0].local_len(0), 10);
        assert_eq!(ds[1].nprocs(), 2);
        assert_eq!(ds[1].local_len(0), 10);
        assert_eq!(ds[2].nprocs(), 4);
        assert_eq!(ds[2].local_len(3), 10);
    }
}
