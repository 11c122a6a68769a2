//! Property-based tests spanning crates: solver correctness and array
//! invariants under randomized shapes, sizes, and distributions.

use std::time::Duration;

use proptest::prelude::*;

use kali::kernels::tri_dist::tri_dist;
use kali::kernels::tridiag::{thomas, TriDiag};
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
