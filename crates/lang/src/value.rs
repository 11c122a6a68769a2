//! Runtime values of the KF1 interpreter: scalars, distributed array
//! objects, views (array sections), and bindings. Who owns an element is
//! `kali-grid`'s [`Layout`]; an array object only offsets its subscripts.

use std::cell::RefCell;
use std::rc::Rc;

use kali_grid::{Layout, ProcGrid};

/// Most dimensions an array may have (Fortran 77's limit). Subscripts and
/// base indices of one element access live in `[i64; MAX_RANK]` stack
/// arrays, so touching an element allocates nothing.
pub const MAX_RANK: usize = 7;

/// A KF1 scalar. Fortran implicit typing applies: names starting with
/// `i`–`n` are integers, everything else is real.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(i64),
    Real(f64),
}

impl Value {
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Real(v) => v,
        }
    }

    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Real(v) => v.trunc() as i64,
        }
    }

    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Real(v) => v != 0.0,
        }
    }

    /// Default value under Fortran implicit typing for `name`.
    pub fn implicit_zero(name: &str) -> Value {
        match name.chars().next() {
            Some(c) if ('i'..='n').contains(&c) => Value::Int(0),
            _ => Value::Real(0.0),
        }
    }
}

/// A (possibly distributed) array object. Each simulated processor holds
/// the full-size storage; the *ownership* map plus the interpreter's
/// owner-computes rules decide which entries are authoritative where, and
/// the inspector/executor machinery moves remote values (and charges
/// virtual communication) before they are read.
#[derive(Debug)]
pub struct ArrObj {
    pub name: String,
    /// Inclusive per-dimension bounds, e.g. `0:np`.
    pub bounds: Vec<(i64, i64)>,
    /// Who owns which element: the `dist` clause on the processor array
    /// (replicated over it without one), indexed by offsets `i − lo`.
    pub layout: Layout,
    /// Row-major storage over the full index space.
    pub data: Vec<f64>,
    pub is_real: bool,
    /// Distribution generation: monotonically bumped whenever the
    /// ownership map changes (a `distribute` statement, or a declaration
    /// adopting a host array onto the processor grid). A communication
    /// schedule cached by the interpreter records the generation of every
    /// array it touches; a bumped generation makes the cached key miss, so
    /// a stale schedule can never be replayed.
    pub dist_gen: u64,
}

pub type ArrRef = Rc<RefCell<ArrObj>>;

impl ArrObj {
    pub fn ndims(&self) -> usize {
        self.bounds.len()
    }

    pub fn extent(&self, d: usize) -> usize {
        (self.bounds[d].1 - self.bounds[d].0 + 1) as usize
    }

    pub fn total_len(&self) -> usize {
        (0..self.ndims()).map(|d| self.extent(d)).product()
    }

    /// Is the array replicated (no distributed dimension)?
    pub fn replicated(&self) -> bool {
        self.layout.is_replicated()
    }

    /// Mark the ownership map as changed: every schedule derived under the
    /// previous generation becomes unreplayable.
    pub fn bump_dist_gen(&mut self) {
        self.dist_gen += 1;
    }

    /// Flat storage index of a full index tuple (bounds-checked).
    pub fn flat(&self, idxs: &[i64]) -> Result<usize, String> {
        if idxs.len() != self.ndims() {
            return Err(format!(
                "array {} has rank {}, subscripted with {} indices",
                self.name,
                self.ndims(),
                idxs.len()
            ));
        }
        let mut f = 0usize;
        for (d, &i) in idxs.iter().enumerate() {
            let (lo, hi) = self.bounds[d];
            if i < lo || i > hi {
                return Err(format!(
                    "subscript {} of {} out of bounds {}:{} in dimension {}",
                    i,
                    self.name,
                    lo,
                    hi,
                    d + 1
                ));
            }
            f = f * self.extent(d) + (i - lo) as usize;
        }
        Ok(f)
    }

    /// Inverse of [`ArrObj::flat`], into a stack array; returns the filled
    /// prefix.
    pub fn unflat_into<'o>(&self, mut f: usize, out: &'o mut [i64; MAX_RANK]) -> &'o [i64] {
        for d in (0..self.ndims()).rev() {
            let e = self.extent(d);
            out[d] = self.bounds[d].0 + (f % e) as i64;
            f /= e;
        }
        &out[..self.ndims()]
    }

    /// The layout's offset `i − lo` of subscript `i` in dimension `d`: one
    /// below the bounds lands past every extent, like those above them.
    fn offset(&self, d: usize, i: i64) -> usize {
        usize::try_from(i.wrapping_sub(self.bounds[d].0)).unwrap_or(usize::MAX)
    }

    /// Is machine rank `rank` one of the ranks of
    /// [`ArrObj::owner_grid`]`(subs)`? Same errors, no grid.
    pub fn owner_set_contains(&self, rank: usize, subs: &[Option<i64>]) -> Result<bool, String> {
        self.section(subs, |pins| self.layout.section_contains(rank, pins))
    }

    /// The processor sub-grid owning a pinned selection (`owner(r(i,*))`
    /// used as a processor expression).
    pub fn owner_grid(&self, subs: &[Option<i64>]) -> Result<ProcGrid, String> {
        self.section(subs, |pins| self.layout.section(pins))
    }

    /// Ask the layout about the selection `subs` (`None` entries are `*`)
    /// through its checked pins: a pin it rejects is an owner subscript
    /// out of bounds.
    fn section<T>(
        &self,
        subs: &[Option<i64>],
        ask: impl FnOnce(&[Option<usize>]) -> Result<T, usize>,
    ) -> Result<T, String> {
        let pins: [_; MAX_RANK] = std::array::from_fn(|d| Some(self.offset(d, (*subs.get(d)?)?)));
        ask(&pins[..subs.len()]).map_err(|d| {
            let (name, (lo, hi), i) = (&self.name, self.bounds[d], subs[d].unwrap_or_default());
            format!("owner subscript {i} of {name} out of bounds {lo}:{hi}")
        })
    }

    /// Machine rank owning one fully specified element under `layout`
    /// (replicated arrays and subscripts outside the bounds report `None`).
    pub fn owner_in(&self, layout: &Layout, idxs: &[i64]) -> Option<usize> {
        let offsets: [_; MAX_RANK] =
            std::array::from_fn(|d| idxs.get(d).map_or(0, |&i| self.offset(d, i)));
        layout.owner(&offsets[..idxs.len()])
    }

    /// [`ArrObj::owner_in`] this array's own layout.
    pub fn owner_of(&self, idxs: &[i64]) -> Option<usize> {
        self.owner_in(&self.layout, idxs)
    }

    /// Does machine rank `rank` own (or replicate) element `idxs`? O(rank),
    /// allocation-free — the test every element access makes.
    pub fn owned_by(&self, rank: usize, idxs: &[i64]) -> bool {
        self.owner_of(idxs).is_none_or(|r| r == rank)
    }
}

/// A view of an array: the binding a callee receives for an array or
/// array-section argument.
#[derive(Debug, Clone)]
pub struct View {
    pub base: ArrRef,
    /// One entry per *base* dimension.
    pub map: Vec<ViewDim>,
    /// Callee-side lower bound per *callee* dimension (set when the callee
    /// declares the parameter; defaults to the base bounds for whole-array
    /// views).
    pub callee_lo: Vec<i64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ViewDim {
    Fixed(i64),
    /// Base-index range (inclusive).
    Range(i64, i64),
}

impl View {
    /// Whole-array view.
    pub fn whole(base: ArrRef) -> View {
        let (map, callee_lo) = {
            let b = base.borrow();
            (
                b.bounds
                    .iter()
                    .map(|&(lo, hi)| ViewDim::Range(lo, hi))
                    .collect(),
                b.bounds.iter().map(|&(lo, _)| lo).collect(),
            )
        };
        View {
            base,
            map,
            callee_lo,
        }
    }

    /// Is this the whole base array, subscripted as declared?
    pub(crate) fn is_whole(&self) -> bool {
        let b = self.base.borrow();
        let lows = self.callee_lo.iter().zip(&b.bounds);
        self.map
            .iter()
            .zip(&b.bounds)
            .all(|(m, &(lo, hi))| *m == ViewDim::Range(lo, hi))
            && lows.into_iter().all(|(&c, &(lo, _))| c == lo)
    }

    /// Number of callee-visible dimensions.
    pub fn ndims(&self) -> usize {
        self.map
            .iter()
            .filter(|m| matches!(m, ViewDim::Range(..)))
            .count()
    }

    /// Callee extent of callee dimension `d`.
    pub fn extent(&self, d: usize) -> usize {
        let mut seen = 0;
        for m in &self.map {
            if let ViewDim::Range(lo, hi) = m {
                if seen == d {
                    return (hi - lo + 1) as usize;
                }
                seen += 1;
            }
        }
        panic!("view dimension out of range");
    }

    /// Translate callee indices to base indices, on stack arrays: the
    /// first `n` entries of `idxs` are the callee subscripts (`n` itself
    /// may exceed [`MAX_RANK`] — a rank mismatch, reported as such);
    /// returns the filled prefix of `out`, one entry per base dimension.
    pub fn to_base_into<'o>(
        &self,
        idxs: &[i64; MAX_RANK],
        n: usize,
        out: &'o mut [i64; MAX_RANK],
    ) -> Result<&'o [i64], String> {
        if n != self.ndims() {
            return Err(format!(
                "section of {} has rank {}, subscripted with {} indices",
                self.base.borrow().name,
                self.ndims(),
                n
            ));
        }
        let mut d = 0usize;
        for (bd, m) in self.map.iter().enumerate() {
            out[bd] = match *m {
                ViewDim::Fixed(v) => v,
                ViewDim::Range(lo, hi) => {
                    let i = idxs[d].checked_sub(self.callee_lo[d]);
                    let Some(i) = i
                        .and_then(|o| lo.checked_add(o))
                        .filter(|i| (lo..=hi).contains(i))
                    else {
                        return Err(format!(
                            "section subscript {} out of range {}..{} (callee lower {})",
                            idxs[d], lo, hi, self.callee_lo[d]
                        ));
                    };
                    d += 1;
                    i
                }
            };
        }
        Ok(&out[..self.map.len()])
    }
}

/// What a name is bound to in a frame.
#[derive(Debug, Clone)]
pub enum Binding {
    Scalar(Value),
    Array(View),
    Grid(ProcGrid),
}

#[cfg(test)]
mod tests {
    use super::*;
    use kali_grid::{DimDist, DimMap, DistSpec};

    fn arr2(bounds: Vec<(i64, i64)>, dist: Vec<DimMap>, grid: ProcGrid) -> ArrObj {
        let extents: Vec<usize> = bounds.iter().map(|&(l, h)| (h - l + 1) as usize).collect();
        let layout = match dist.iter().all(|m| *m == DimMap::Local) {
            true => Layout::replicated(&extents, &grid),
            false => Layout::new(&DistSpec::new(dist), &extents, &grid).unwrap(),
        };
        ArrObj {
            name: "x".into(),
            bounds,
            layout,
            data: vec![0.0; extents.iter().product()],
            is_real: true,
            dist_gen: 0,
        }
    }

    #[test]
    fn dist_gen_is_monotone() {
        let mut a = arr2(
            vec![(0, 3)],
            vec![DimMap::Dist(DimDist::Block)],
            ProcGrid::new_1d(2),
        );
        assert_eq!(a.dist_gen, 0);
        a.bump_dist_gen();
        a.bump_dist_gen();
        assert_eq!(a.dist_gen, 2);
    }

    #[test]
    fn flat_respects_declared_bounds() {
        let a = arr2(
            vec![(0, 4), (0, 4)],
            vec![DimMap::Local, DimMap::Local],
            ProcGrid::new_1d(1),
        );
        assert_eq!(a.flat(&[0, 0]).unwrap(), 0);
        assert_eq!(a.flat(&[1, 2]).unwrap(), 7);
        assert!(a.flat(&[5, 0]).is_err());
        assert_eq!(a.unflat_into(7, &mut [0; MAX_RANK]), [1, 2]);
    }

    #[test]
    fn owner_ranks_pin_and_star() {
        let g = ProcGrid::new_2d(2, 2);
        let a = arr2(
            vec![(0, 7), (0, 7)],
            vec![DimMap::Dist(DimDist::Block), DimMap::Dist(DimDist::Block)],
            g,
        );
        // Fully pinned element.
        assert_eq!(a.owner_grid(&[Some(1), Some(6)]).unwrap().ranks(), [1]);
        // Row 6, all columns: grid row 1 -> ranks 2, 3.
        assert_eq!(a.owner_grid(&[Some(6), None]).unwrap().ranks(), [2, 3]);
        assert_eq!(a.owner_of(&[6, 1]), Some(2));
        assert!(a.owned_by(2, &[6, 1]));
        assert!(!a.owned_by(0, &[6, 1]));
    }

    /// Every way of distributing `rank` dimensions of extent 5..7 over
    /// `grid`: which dimensions are distributed, and how (the pattern
    /// rotates with the position so all three kinds meet every slot).
    fn layouts(rank: usize, grid: &ProcGrid) -> Vec<ArrObj> {
        let kinds = [DimDist::Block, DimDist::Cyclic, DimDist::BlockCyclic(2)];
        let mut out = Vec::new();
        for mask in 0u32..1 << rank {
            if mask.count_ones() as usize != grid.ndims() {
                continue;
            }
            for rot in 0..kinds.len() {
                let dist = (0..rank).map(|d| match mask >> d & 1 {
                    1 => DimMap::Dist(kinds[(d + rot) % kinds.len()]),
                    _ => DimMap::Local,
                });
                let bounds = (0..rank).map(|d| (d as i64 - 1, d as i64 + 4 + d as i64 % 2));
                out.push(arr2(bounds.collect(), dist.collect(), grid.clone()));
            }
        }
        out
    }

    #[test]
    fn arithmetic_owner_is_the_enumerated_owner() {
        let grids = [
            ProcGrid::with_ranks(vec![3], vec![2, 0, 1]),
            ProcGrid::new_2d(2, 2),
            ProcGrid::with_ranks(vec![2, 2], vec![3, 1, 0, 2]),
            ProcGrid::with_ranks(vec![2, 3], vec![5, 4, 3, 2, 1, 0]),
        ];
        for grid in &grids {
            for a in (1..=3).flat_map(|rank| layouts(rank, grid)) {
                for flat in 0..a.total_len() {
                    let idxs = a.unflat_into(flat, &mut [0; MAX_RANK]).to_vec();
                    let subs: Vec<Option<i64>> = idxs.iter().map(|&i| Some(i)).collect();
                    let owner = a.owner_of(&idxs).expect("distributed and in bounds");
                    assert_eq!(
                        a.owner_grid(&subs).unwrap().ranks(),
                        [owner],
                        "{}",
                        a.layout.spec()
                    );
                    // Independently: per-dimension owner coordinates,
                    // looked up in the grid.
                    let coords: Vec<usize> = (0..a.ndims())
                        .filter(|&d| a.layout.spec().map(d) != DimMap::Local)
                        .map(|d| a.layout.dists()[d].owner((idxs[d] - a.bounds[d].0) as usize))
                        .collect();
                    assert_eq!(owner, grid.rank_at(&coords));
                    // Starring a dimension widens the set; membership
                    // agrees with the list for every rank of the grid.
                    for star in 0..a.ndims() {
                        let mut subs = subs.clone();
                        subs[star] = None;
                        let set = a.owner_grid(&subs).unwrap();
                        for &r in grid.ranks() {
                            assert!(a.owned_by(r, &idxs) == (r == owner));
                            assert_eq!(
                                a.owner_set_contains(r, &subs).unwrap(),
                                set.ranks().contains(&r)
                            );
                        }
                        assert!(!a.owner_set_contains(99, &subs).unwrap());
                    }
                }
                // Outside a distributed dimension's bounds nobody owns.
                for d in (0..a.ndims()).filter(|&d| a.layout.spec().map(d) != DimMap::Local) {
                    for out in [a.bounds[d].0 - 1, a.bounds[d].1 + 1] {
                        let mut idxs = a.unflat_into(0, &mut [0; MAX_RANK]).to_vec();
                        idxs[d] = out;
                        assert_eq!(a.owner_of(&idxs), None);
                        let subs: Vec<Option<i64>> = idxs.iter().map(|&i| Some(i)).collect();
                        assert!(a.owner_grid(&subs).is_err());
                        assert!(a.owner_set_contains(0, &subs).is_err());
                    }
                }
            }
        }
        // Replicated arrays have no owner and belong to everyone.
        let r = arr2(vec![(0, 3)], vec![DimMap::Local], ProcGrid::new_1d(2));
        assert_eq!(r.owner_of(&[1]), None);
        assert!(r.owned_by(1, &[1]) && r.owner_set_contains(1, &[Some(1)]).unwrap());
    }

    #[test]
    fn stack_forms_agree_with_the_vec_forms() {
        let base = Rc::new(RefCell::new(arr2(
            vec![(0, 4), (2, 9)],
            vec![DimMap::Local, DimMap::Dist(DimDist::Block)],
            ProcGrid::new_1d(2),
        )));
        let v = View {
            base: base.clone(),
            map: vec![ViewDim::Fixed(3), ViewDim::Range(4, 8)],
            callee_lo: vec![1],
        };
        let mut out = [0i64; MAX_RANK];
        let idxs = [2, 0, 0, 0, 0, 0, 0];
        assert_eq!(v.to_base_into(&idxs, 1, &mut out).unwrap(), [3, 5]);
        // A rank mismatch is reported with the caller's count, even
        // beyond MAX_RANK.
        let err = v.to_base_into(&idxs, MAX_RANK + 2, &mut out).unwrap_err();
        assert!(err.contains("subscripted with 9 indices"), "{err}");
        let b = base.borrow();
        assert_eq!(b.unflat_into(13, &mut out), [1, 7]);
    }

    #[test]
    fn star_dims_do_not_pin() {
        let g = ProcGrid::new_1d(4);
        let a = arr2(
            vec![(1, 8), (0, 15)],
            vec![DimMap::Local, DimMap::Dist(DimDist::Block)],
            g,
        );
        // Pinning the star dim selects everyone; pinning dim 1 selects one.
        assert_eq!(a.owner_grid(&[Some(3), None]).unwrap().ranks().len(), 4);
        assert_eq!(a.owner_grid(&[None, Some(0)]).unwrap().ranks(), [0]);
        assert_eq!(a.owner_grid(&[Some(3), Some(15)]).unwrap().ranks(), [3]);
    }

    #[test]
    fn owner_grid_slices() {
        let g = ProcGrid::new_2d(2, 3);
        let a = arr2(
            vec![(0, 7), (0, 8)],
            vec![DimMap::Dist(DimDist::Block), DimMap::Dist(DimDist::Block)],
            g,
        );
        let og = a.owner_grid(&[Some(7), None]).unwrap();
        assert_eq!(og.ranks(), &[3, 4, 5]);
    }

    #[test]
    fn view_translation_with_fixed_dims() {
        let g = ProcGrid::new_1d(2);
        let base = Rc::new(RefCell::new(arr2(
            vec![(0, 4), (0, 9)],
            vec![DimMap::Local, DimMap::Dist(DimDist::Block)],
            g,
        )));
        // v(i, *) with i = 2: a 1-D view of row 2.
        let v = View {
            base: base.clone(),
            map: vec![ViewDim::Fixed(2), ViewDim::Range(0, 9)],
            callee_lo: vec![1], // callee declared x(10): 1-based
        };
        assert_eq!(v.ndims(), 1);
        assert_eq!(v.extent(0), 10);
        let mut out = [0i64; MAX_RANK];
        let mut at = |i| {
            v.to_base_into(&[i; MAX_RANK], 1, &mut out)
                .map(<[i64]>::to_vec)
        };
        assert_eq!(at(1).unwrap(), vec![2, 0]);
        assert_eq!(at(10).unwrap(), vec![2, 9]);
        assert!(at(11).is_err());
        // Near the ends of `i64`, out of range rather than overflowed.
        assert!(at(i64::MIN).unwrap_err().contains("out of range"));
    }

    #[test]
    fn implicit_typing() {
        assert_eq!(Value::implicit_zero("i"), Value::Int(0));
        assert_eq!(Value::implicit_zero("n2"), Value::Int(0));
        assert_eq!(Value::implicit_zero("a0"), Value::Real(0.0));
        assert_eq!(Value::implicit_zero("x"), Value::Real(0.0));
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::Int(7).as_f64(), 7.0);
        assert_eq!(Value::Real(3.9).as_int(), 3);
        assert!(Value::Int(1).truthy());
        assert!(!Value::Real(0.0).truthy());
    }
}
