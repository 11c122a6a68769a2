//! Cross-crate integration for the applications: distributed solvers match
//! sequential references, and distribution choices are behaviour-preserving.

use std::time::Duration;

use kali::prelude::*;
use kali::solvers::adi::{adi_run, adi_seq_iteration, suggested_rho};
use kali::solvers::mg2::mg2_vcycle;
use kali::solvers::mg3::mg3_vcycle;
use kali::solvers::seq;

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

#[test]
fn adi_pipelined_on_asymmetric_grid_matches_sequential() {
    let (nx, ny) = (24usize, 16usize);
    let pde = Pde::poisson();
    let us = seq::Grid2::random_interior(nx, ny, 31);
    let f = seq::apply2(&pde, &us);
    let rho = suggested_rho(&pde, nx, ny);
    let iters = 4;
    let mut u_seq = seq::Grid2::zeros(nx, ny);
    for _ in 0..iters {
        adi_seq_iteration(&pde, rho, &mut u_seq, &f);
    }
    let f2 = f.clone();
    let run = Machine::run(cfg(8), move |proc| {
        let grid = ProcGrid::new_2d(4, 2);
        let spec = DistSpec::block2();
        let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [nx + 1, ny + 1], [1, 1]);
        let farr = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [nx + 1, ny + 1],
            [0, 0],
            |[i, j]| f2.at(i, j),
        );
        let mut ctx = Ctx::new(proc, grid);
        adi_run(&mut ctx, &pde, rho, &mut u, &farr, iters, true);
        u.gather_to_root(ctx.proc())
    });
    let got = run.results[0].as_ref().unwrap();
    for i in 0..=nx {
        for j in 0..=ny {
            assert!(
                (got[i * (ny + 1) + j] - u_seq.at(i, j)).abs() < 1e-9,
                "({i},{j})"
            );
        }
    }
}

#[test]
fn mg2_on_eight_processors_matches_sequential_bitwise_tolerance() {
    let (nx, ny) = (16usize, 32usize);
    let pde = Pde::anisotropic(3.0, 1.0, 0.0);
    let us = seq::Grid2::random_interior(nx, ny, 17);
    let f = seq::apply2(&pde, &us);
    let mut u_seq = seq::Grid2::zeros(nx, ny);
    for _ in 0..3 {
        seq::mg2_seq(&pde, &mut u_seq, &f);
    }
    let f2 = f.clone();
    let run = Machine::run(cfg(8), move |proc| {
        let grid = ProcGrid::new_1d(8);
        let spec = DistSpec::local_block();
        let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [nx + 1, ny + 1], [0, 1]);
        let farr = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [nx + 1, ny + 1],
            [0, 1],
            |[i, j]| f2.at(i, j),
        );
        let mut ctx = Ctx::new(proc, grid);
        for _ in 0..3 {
            mg2_vcycle(&mut ctx, &pde, &mut u, &farr);
        }
        u.gather_to_root(ctx.proc())
    });
    let got = run.results[0].as_ref().unwrap();
    for i in 0..=nx {
        for j in 0..=ny {
            assert!(
                (got[i * (ny + 1) + j] - u_seq.at(i, j)).abs() < 1e-10,
                "({i},{j})"
            );
        }
    }
}

#[test]
fn mg2_execution_policy_is_bitwise_invariant_and_split_is_faster() {
    // The zebra and full-weighting halos run split-phase with cached
    // optimistic replay by default; against the fully blocking
    // rebuild-per-exchange baseline the V-cycle must be *bitwise*
    // identical — the ExecPolicy is an optimization of the virtual
    // timeline, never of the answer — and must actually shorten that
    // timeline on a latency-bound cost model.
    let (nx, ny) = (16usize, 32usize);
    let pde = Pde::anisotropic(3.0, 1.0, 0.0);
    let us = seq::Grid2::random_interior(nx, ny, 23);
    let f = seq::apply2(&pde, &us);
    let go = |policy: ExecPolicy, cycles: usize| {
        let f2 = f.clone();
        Machine::run(
            Machine::build(
                BackendKind::from_env(),
                Topology::FullyConnected,
                CostModel::ipsc2(),
            )
            .procs(4)
            .watchdog(Duration::from_secs(60))
            .config(),
            move |proc| {
                let grid = ProcGrid::new_1d(4);
                let spec = DistSpec::local_block();
                let mut u =
                    DistArray2::<f64>::new(proc.rank(), &grid, &spec, [nx + 1, ny + 1], [0, 1]);
                let farr = DistArray2::from_fn(
                    proc.rank(),
                    &grid,
                    &spec,
                    [nx + 1, ny + 1],
                    [0, 1],
                    |[i, j]| f2.at(i, j),
                );
                let mut ctx = Ctx::with_policy(proc, grid, policy);
                for _ in 0..cycles {
                    mg2_vcycle(&mut ctx, &pde, &mut u, &farr);
                }
                u.gather_to_root(ctx.proc())
            },
        )
    };
    let blocking = go(ExecPolicy::blocking(), 3);
    let split = go(ExecPolicy::default(), 3);
    let a = blocking.results[0].as_ref().unwrap();
    let b = split.results[0].as_ref().unwrap();
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "flat {k}: {x} vs {y}");
    }
    if split.report.backend.virtual_time() {
        assert!(
            split.report.overlap_hidden_seconds > 0.0,
            "interior zebra lines must overlap the ghost transit"
        );
        assert!(
            split.report.elapsed < blocking.report.elapsed,
            "split-phase mg2 must be faster: {} vs {}",
            split.report.elapsed,
            blocking.report.elapsed
        );
    }
    assert_eq!(
        split.report.total_rollbacks, 0,
        "a stable mg2 loop must never roll a halo replay back"
    );
    // The coarse levels are reallocated every cycle, but halo schedules
    // are keyed on geometry: the first V-cycle builds every one of them
    // and the warm cycles build none.
    assert_eq!(
        split.report.total_inspector_runs,
        go(ExecPolicy::default(), 1).report.total_inspector_runs,
        "warm V-cycles must replay every halo schedule from the cache"
    );
}

#[test]
fn mg3_converges_to_machine_precision_given_enough_cycles() {
    let n = 8usize;
    let pde = Pde::poisson();
    let us = seq::Grid3::random_interior(n, n, n, 5);
    let f = seq::apply3(&pde, &us);
    let f2 = f.clone();
    let run = Machine::run(cfg(4), move |proc| {
        let grid = ProcGrid::new_2d(2, 2);
        let spec = DistSpec::local_block_block();
        let mut u =
            DistArray3::<f64>::new(proc.rank(), &grid, &spec, [n + 1, n + 1, n + 1], [0, 1, 1]);
        let farr = DistArray3::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [n + 1, n + 1, n + 1],
            [0, 1, 1],
            |[i, j, k]| f2.at(i, j, k),
        );
        let mut ctx = Ctx::new(proc, grid);
        for _ in 0..10 {
            mg3_vcycle(&mut ctx, &pde, &mut u, &farr, 1);
        }
        u.gather_to_root(ctx.proc())
    });
    let got = run.results[0].as_ref().unwrap();
    let mut max_err = 0.0f64;
    for i in 0..=n {
        for j in 0..=n {
            for k in 0..=n {
                max_err =
                    max_err.max((got[(i * (n + 1) + j) * (n + 1) + k] - us.at(i, j, k)).abs());
            }
        }
    }
    assert!(max_err < 1e-9, "mg3 should solve to precision: {max_err}");
}

#[test]
fn jacobi_distribution_choice_does_not_change_semantics() {
    // Claim C3 structurally: same algorithm, three distributions, one answer.
    let n = 16usize;
    let fsrc = |i: usize, j: usize| {
        if i == 0 || i == n || j == 0 || j == n {
            0.0
        } else {
            ((i + 2 * j) % 7) as f64 / 30.0
        }
    };
    let mut outs: Vec<Vec<f64>> = Vec::new();
    let cases: Vec<(DistSpec, ProcGrid, [usize; 2])> = vec![
        (DistSpec::block2(), ProcGrid::new_2d(2, 2), [1, 1]),
        (DistSpec::block_local(), ProcGrid::new_1d(4), [1, 0]),
        (DistSpec::local_block(), ProcGrid::new_1d(4), [0, 1]),
    ];
    for (spec, grid, ghost) in cases {
        let run = Machine::run(cfg(4), move |proc| {
            let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [n + 1, n + 1], ghost);
            let farr = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [n + 1, n + 1],
                [0, 0],
                |[i, j]| fsrc(i, j),
            );
            let mut ctx = Ctx::new(proc, grid.clone());
            for _ in 0..8 {
                kali::solvers::jacobi::jacobi_step(&mut ctx, &mut u, &farr);
            }
            u.gather_to_root(ctx.proc())
        });
        outs.push(run.results[0].clone().unwrap());
    }
    for k in 0..outs[0].len() {
        assert!((outs[0][k] - outs[1][k]).abs() < 1e-13);
        assert!((outs[0][k] - outs[2][k]).abs() < 1e-13);
    }
}
