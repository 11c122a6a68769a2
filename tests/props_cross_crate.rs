//! Property-based tests spanning crates: solver correctness and array
//! invariants under randomized shapes, sizes, and distributions.

use std::time::Duration;

use proptest::prelude::*;

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
    fn ghost_exchange_provides_correct_neighbours(
        n in 4usize..40,
        p in 1usize..7,
    ) {
        let run = Machine::run(cfg(p), move |proc| {
            let grid = ProcGrid::new_1d(p);
            let mut a = DistArray1::from_fn(
                proc.rank(),
                &grid,
                &DistSpec::block1(),
                [n],
                [1],
                |[i]| (i * i) as f64,
            );
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            // Verify every visible neighbour value.
            let mut ok = true;
            if a.is_participant() {
                let r = a.owned_range(0);
                if r.start > 0 {
                    ok &= a.at(r.start - 1) == ((r.start - 1) * (r.start - 1)) as f64;
                }
                if r.end < n {
                    ok &= a.at(r.end) == (r.end * r.end) as f64;
                }
            }
            ok
        });
        prop_assert!(run.results.iter().all(|&ok| ok));
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
        let mut rem = flat;
        let mut g = [0usize; N];
        for d in (0..N).rev() {
            g[d] = rem % extents[d];
            rem /= extents[d];
        }
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
