//! Property-based tests spanning crates: solver correctness and array
//! invariants under randomized shapes, sizes, and distributions.

use std::time::Duration;

use proptest::prelude::*;

use kali::array::HaloCache;
use kali::grid::Layout;
use kali::kernels::tri_dist::tri_dist;
use kali::kernels::tridiag::{thomas, TriDiag};
use kali::lang::value::ArrObj;
use kali::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    Machine::build(
        BackendKind::from_env(),
        Topology::FullyConnected,
        CostModel::unit(),
    )
    .procs(p)
    .watchdog(Duration::from_secs(60))
    .config()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tri_dist_matches_thomas_for_random_systems(
        seed in 0u64..1000,
        logp in 0u32..4,
        extra in 0usize..40,
    ) {
        let p = 1usize << logp;
        let n = 2 * p + 2 * extra + 4;
        let sys = TriDiag::random_dd(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.29).sin()).collect();
        let f = sys.apply(&x_true);
        let x_ref = thomas(&sys.b, &sys.a, &sys.c, &f);
        let run = Machine::run(cfg(p), move |proc| {
            let grid = ProcGrid::new_1d(proc.nprocs());
            let dist = Dist1::block(n, proc.nprocs());
            let me = proc.rank();
            let (lo, hi) = (dist.lower(me).unwrap(), dist.upper(me).unwrap() + 1);
            let mut ctx = Ctx::new(proc, grid);
            tri_dist(&mut ctx, n, &sys.b[lo..hi], &sys.a[lo..hi], &sys.c[lo..hi], &f[lo..hi])
        });
        let x: Vec<f64> = run.results.concat();
        for i in 0..n {
            prop_assert!((x[i] - x_ref[i]).abs() < 1e-7, "n={} p={} i={}", n, p, i);
        }
    }

    #[test]
    fn gather_after_redistribute_is_identity(
        n0 in 2usize..12,
        n1 in 2usize..12,
        p in 1usize..5,
        seed in 0u64..100,
    ) {
        let run = Machine::run(cfg(p), move |proc| {
            let grid = ProcGrid::new_1d(p);
            let a = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &DistSpec::block_local(),
                [n0, n1],
                [0, 0],
                |[i, j]| ((seed as usize + 3 * i + 7 * j) % 101) as f64,
            );
            let b = a.redistribute(proc, &DistSpec::local_block(), [0, 0]);
            let c = b.redistribute(proc, &DistSpec::block_local(), [0, 0]);
            (a.gather_to_root(proc), c.gather_to_root(proc))
        });
        let (ga, gc) = &run.results[0];
        prop_assert_eq!(ga.as_ref().unwrap(), gc.as_ref().unwrap());
    }

    #[test]
    fn collectives_agree_with_scalar_reference(
        p in 1usize..9,
        vals in prop::collection::vec(-100.0f64..100.0, 1..9),
    ) {
        let p = p.min(vals.len());
        let vals2 = vals.clone();
        let run = Machine::run(cfg(p), move |proc| {
            let team = Team::all(proc.nprocs());
            let mine = vals2[proc.rank() % vals2.len()];
            (
                collective::allreduce_sum(proc, &team, mine),
                collective::allreduce_max(proc, &team, mine),
            )
        });
        let expect_sum: f64 = (0..p).map(|r| vals[r % vals.len()]).sum();
        let expect_max = (0..p).map(|r| vals[r % vals.len()]).fold(f64::MIN, f64::max);
        for (s, m) in &run.results {
            prop_assert!((s - expect_sum).abs() < 1e-9);
            prop_assert!((m - expect_max).abs() < 1e-12);
        }
    }
}

/// splitmix64: one draw from `state`.
fn draw(state: &mut u64, below: usize) -> usize {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % below as u64) as usize
}

/// The global index of row-major position `flat` over `extents`.
fn unflat<const N: usize>(mut flat: usize, extents: [usize; N]) -> [usize; N] {
    let mut g = [0usize; N];
    for d in (0..N).rev() {
        g[d] = flat % extents[d];
        flat /= extents[d];
    }
    g
}

/// The interpreter's array object under `spec` on `grid`, declared with
/// lower bounds `lo` and the given extents.
fn interp_array(lo: &[i64], extents: &[usize], spec: &DistSpec, grid: &ProcGrid) -> ArrObj {
    ArrObj {
        name: "u".into(),
        bounds: lo
            .iter()
            .zip(extents)
            .map(|(&l, &e)| (l, l + e as i64 - 1))
            .collect(),
        layout: Layout::new(spec, extents, grid).unwrap(),
        data: vec![0.0; extents.iter().product()],
        is_real: true,
        dist_gen: 0,
    }
}

/// The interpreter and the compiled arrays answer every ownership question
/// about one `dist` clause identically: the owner of each element, who owns
/// it, the owner set of every pinned section and its processor slice.
fn ownership_agrees<const N: usize>(
    lo: [i64; N],
    extents: [usize; N],
    spec: &DistSpec,
    grid: &ProcGrid,
) {
    let a = interp_array(&lo, &extents, spec, grid);
    let compiled: Vec<DistArrayN<f64, N>> = (grid.ranks().iter())
        .map(|&r| DistArrayN::new(r, grid, spec, extents, [0; N]))
        .collect();
    let total: usize = extents.iter().product();
    for flat in 0..total {
        let g = unflat(flat, extents);
        let idxs: Vec<i64> = (0..N).map(|d| lo[d] + g[d] as i64).collect();
        let owner = a.owner_of(&idxs).expect("distributed and in bounds");
        let subs: Vec<Option<i64>> = idxs.iter().map(|&i| Some(i)).collect();
        assert_eq!(
            a.owner_grid(&subs).unwrap().ranks(),
            [owner],
            "{spec} on {grid:?} at {g:?}"
        );
        for c in &compiled {
            assert_eq!(c.owner_rank(g), owner, "{spec} on {grid:?} at {g:?}");
            assert_eq!(
                c.owns(g),
                c.rank() == owner,
                "{spec} on {grid:?} at {g:?} rank {}",
                c.rank()
            );
            assert_eq!(a.owned_by(c.rank(), &idxs), c.rank() == owner);
        }
        // Every section through this element: star each subset of its
        // dimensions.
        for mask in 1..1usize << N {
            let subs: Vec<Option<i64>> = (0..N)
                .map(|d| (mask >> d & 1 == 0).then_some(idxs[d]))
                .collect();
            let set = a.owner_grid(&subs).unwrap();
            for &r in grid.ranks() {
                assert_eq!(
                    a.owner_set_contains(r, &subs).unwrap(),
                    set.ranks().contains(&r),
                    "{spec} on {grid:?} {subs:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random `dist` clauses over block, cyclic, cyclic(k) and `*` in one
    /// to three dimensions, extents the grid does not divide, grids larger
    /// than an extent, and grids over permuted rank lists.
    #[test]
    fn interpreter_and_compiled_arrays_agree_on_ownership(seed in 0u64..u64::MAX) {
        let mut s = seed;
        let rank = 1 + draw(&mut s, 3);
        let ndist = 1 + draw(&mut s, rank);
        // Which dimensions are distributed: a random `ndist`-subset.
        let mut dims: Vec<usize> = (0..rank).collect();
        for i in (1..rank).rev() {
            dims.swap(i, draw(&mut s, i + 1));
        }
        let maps: Vec<DimMap> = (0..rank)
            .map(|d| match dims[..ndist].contains(&d) {
                false => DimMap::Local,
                true => DimMap::Dist(match draw(&mut s, 3) {
                    0 => DimDist::Block,
                    1 => DimDist::Cyclic,
                    _ => DimDist::BlockCyclic(1 + draw(&mut s, 3)),
                }),
            })
            .collect();
        let spec = DistSpec::new(maps);
        let gdims: Vec<usize> = (0..ndist).map(|_| 1 + draw(&mut s, 4)).collect();
        let size: usize = gdims.iter().product();
        let mut ranks: Vec<usize> = (0..size).collect();
        for i in (1..size).rev() {
            ranks.swap(i, draw(&mut s, i + 1));
        }
        let grid = ProcGrid::with_ranks(gdims, ranks);
        let lo: [i64; 3] = std::array::from_fn(|_| draw(&mut s, 5) as i64 - 2);
        let ext: [usize; 3] = std::array::from_fn(|_| 1 + draw(&mut s, 7));
        match rank {
            1 => ownership_agrees([lo[0]], [ext[0]], &spec, &grid),
            2 => ownership_agrees([lo[0], lo[1]], [ext[0], ext[1]], &spec, &grid),
            _ => ownership_agrees(lo, ext, &spec, &grid),
        }
    }
}

/// Row-major over extents below 10, plus one: every cell's value is its
/// own, and none is the 0 a fresh array's ghost cells hold.
fn cell<const N: usize>(idx: [usize; N]) -> f64 {
    idx.iter().fold(0, |f, &i| 10 * f + i) as f64 + 1.0
}

/// The first cell this processor stores with the wrong value, if any:
/// owned cells and the refreshed skirt hold [`cell`], and the corners a
/// face-only refresh skips still hold 0.
fn misplaced<const N: usize>(
    a: &DistArrayN<f64, N>,
    ghost: [usize; N],
    corners: bool,
) -> Option<[usize; N]> {
    let extents = a.extents();
    (0..extents.iter().product()).find_map(|flat| {
        let g = unflat(flat, extents);
        let v = a.try_get(g)?;
        // Only a ghosted dimension stores cells outside the owned block.
        let outside = (0..N)
            .filter(|&d| ghost[d] > 0 && !a.owned_range(d).contains(&g[d]))
            .count();
        let want = if corners || outside <= 1 {
            cell(g)
        } else {
            0.0
        };
        (v != want).then_some(g)
    })
}

/// Refresh an array's ghosts through a fresh [`HaloCache`], then a freshly
/// allocated array of the same geometry through the same cache: both land
/// every ghost, and the second replays the first's schedule (no new
/// inspector run) under an optimistic policy — an entry names the same
/// cell in every array that shares its key.
fn ghosts_land<const N: usize>(
    grid: ProcGrid,
    spec: DistSpec,
    extents: [usize; N],
    ghost: [usize; N],
    corners: bool,
    policy: ExecPolicy,
) {
    let p = grid.size();
    let what =
        format!("{spec} on {grid:?} {extents:?} ghosts {ghost:?} corners {corners} {policy:?}");
    let run = Machine::run(cfg(p), move |proc| {
        let me = proc.rank();
        let fresh = || DistArrayN::from_fn(me, &grid, &spec, extents, ghost, cell);
        let mut cache = HaloCache::new();
        let mut a = fresh();
        a.refresh_ghosts(proc, Some(&mut cache), policy, corners);
        let built = proc.stats().inspector_runs;
        let mut b = fresh();
        b.refresh_ghosts(proc, Some(&mut cache), policy, corners);
        let rebuilt = proc.stats().inspector_runs - built;
        (
            misplaced(&a, ghost, corners),
            misplaced(&b, ghost, corners),
            rebuilt,
        )
    });
    for (rank, (a, b, rebuilt)) in run.results.iter().enumerate() {
        assert_eq!(*a, None, "rank {rank}, first array: {what}");
        assert_eq!(*b, None, "rank {rank}, second array: {what}");
        assert_eq!(
            *rebuilt,
            u64::from(!policy.optimistic),
            "rank {rank}: {what}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random ghost refreshes: one to three dimensions, each block, cyclic
    /// or `*`; ghost widths 0 to 2 on the block and `*` dimensions, wider
    /// than a block where the extent is small; corners on and off; p = 1
    /// to 6 factored over the distributed dimensions, on extents the grid
    /// need not divide; every policy square.
    #[test]
    fn ghost_exchange_provides_correct_neighbours(seed in 0u64..u64::MAX) {
        let mut s = seed;
        let rank = 1 + draw(&mut s, 3);
        let mut kinds: Vec<usize> = (0..rank).map(|_| draw(&mut s, 3)).collect();
        if kinds.iter().all(|&k| k == 2) {
            kinds[0] = 0;
        }
        let maps: Vec<DimMap> = (kinds.iter())
            .map(|&k| match k {
                0 => DimMap::Dist(DimDist::Block),
                1 => DimMap::Dist(DimDist::Cyclic),
                _ => DimMap::Local,
            })
            .collect();
        let ndist = kinds.iter().filter(|&&k| k < 2).count();
        let p = 1 + draw(&mut s, 6);
        let mut gdims = Vec::with_capacity(ndist);
        let mut rest = p;
        for _ in 1..ndist {
            let divisors: Vec<usize> = (1..=rest).filter(|&d| rest.is_multiple_of(d)).collect();
            let d = divisors[draw(&mut s, divisors.len())];
            gdims.push(d);
            rest /= d;
        }
        gdims.push(rest);
        let grid = ProcGrid::with_ranks(gdims, (0..p).collect());
        let spec = DistSpec::new(maps);
        let ext: [usize; 3] = std::array::from_fn(|_| 1 + draw(&mut s, 9));
        let gh: [usize; 3] = std::array::from_fn(|d| match kinds.get(d) {
            Some(1) => 0,
            _ => draw(&mut s, 3),
        });
        let corners = draw(&mut s, 2) == 1;
        let policy = ExecPolicy {
            split: draw(&mut s, 2) == 1,
            optimistic: draw(&mut s, 2) == 1,
        };
        match rank {
            1 => ghosts_land(grid, spec, [ext[0]], [gh[0]], corners, policy),
            2 => ghosts_land(grid, spec, [ext[0], ext[1]], [gh[0], gh[1]], corners, policy),
            _ => ghosts_land(grid, spec, ext, gh, corners, policy),
        }
    }
}
