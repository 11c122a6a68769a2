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

/// Rank 0's virtual clock bits, messages sent and words sent after two
/// V-cycles on the sim, per `(ny, p, policy square)` of the coarse-level
/// differential below. A change to how the operators visit their points
/// must move none of them.
const MG2_COARSE_PINS: [((usize, usize, usize), (u64, u64, u64)); 48] = [
    ((16, 1, 0), (4576807606485720650, 0, 0)),
    ((16, 1, 1), (4576690325545664518, 0, 0)),
    ((16, 1, 2), (4576807606485720650, 0, 0)),
    ((16, 1, 3), (4576690325545664518, 0, 0)),
    ((16, 2, 0), (4583977063273637152, 50, 494)),
    ((16, 2, 1), (4583931825516100142, 50, 525)),
    ((16, 2, 2), (4582736231504304029, 50, 494)),
    ((16, 2, 3), (4582690993746767018, 50, 525)),
    ((16, 3, 0), (4584019591665638340, 62, 578)),
    ((16, 3, 1), (4584159642805410467, 93, 640)),
    ((16, 3, 2), (4583244554595685187, 62, 578)),
    ((16, 3, 3), (4583294692269616776, 93, 640)),
    ((16, 4, 0), (4583993939162160838, 72, 468)),
    ((16, 4, 1), (4584448175823457149, 132, 558)),
    ((16, 4, 2), (4583337624184144576, 72, 468)),
    ((16, 4, 3), (4583451287832980010, 132, 558)),
    ((16, 5, 0), (4584118353804026727, 84, 524)),
    ((16, 5, 1), (4584783207606936479, 174, 644)),
    ((16, 5, 2), (4583536921077734678, 84, 524)),
    ((16, 5, 3), (4583768946530536815, 174, 644)),
    ((16, 6, 0), (4584181288906659459, 84, 312)),
    ((16, 6, 1), (4584980256303592596, 164, 412)),
    ((16, 6, 2), (4583686166766506040, 84, 312)),
    ((16, 6, 3), (4583980507626632171, 164, 412)),
    ((32, 1, 0), (4585588717833408229, 0, 0)),
    ((32, 1, 1), (4585491418464178816, 0, 0)),
    ((32, 1, 2), (4585588717833408229, 0, 0)),
    ((32, 1, 3), (4585491418464178816, 0, 0)),
    ((32, 2, 0), (4587713825985255999, 66, 1050)),
    ((32, 2, 1), (4587620662721924356, 66, 1091)),
    ((32, 2, 2), (4586124840744569224, 66, 1050)),
    ((32, 2, 3), (4586027238733444851, 66, 1091)),
    ((32, 3, 0), (4587212564538090550, 82, 1226)),
    ((32, 3, 1), (4587231825532976876, 123, 1308)),
    ((32, 3, 2), (4586065969690240240, 82, 1226)),
    ((32, 3, 3), (4586011955317749409, 123, 1308)),
    ((32, 4, 0), (4586875601611090980, 96, 1008)),
    ((32, 4, 1), (4587076310833524210, 176, 1128)),
    ((32, 4, 2), (4585885364536543576, 96, 1008)),
    ((32, 4, 3), (4585901519849126878, 176, 1128)),
    ((32, 5, 0), (4586838124456431850, 112, 1096)),
    ((32, 5, 1), (4587270397963065358, 232, 1256)),
    ((32, 5, 2), (4586074782333991075, 112, 1096)),
    ((32, 5, 3), (4586192769438468776, 232, 1256)),
    ((32, 6, 0), (4586751929162443679, 116, 800)),
    ((32, 6, 1), (4587409865436325751, 236, 950)),
    ((32, 6, 2), (4586117584544849602, 116, 800)),
    ((32, 6, 3), (4586318776553162894, 236, 950)),
];

#[test]
fn mg2_coarse_levels_match_sequential_on_every_team_and_policy() {
    // At the coarse levels (down to 5 and 3 points along y) some rank
    // owns 0, 1, 2 or 3 lines; p = 4, 5 and 6 do not divide the extents.
    let pde = Pde::anisotropic(3.0, 1.0, 0.0);
    let squares = [(false, false), (false, true), (true, false), (true, true)];
    let mut pins = Vec::new();
    for (nx, ny) in [(12usize, 16usize), (20, 32)] {
        let us = seq::Grid2::random_interior(nx, ny, 29);
        let f = seq::apply2(&pde, &us);
        let mut want = seq::Grid2::zeros(nx, ny);
        for _ in 0..2 {
            seq::mg2_seq(&pde, &mut want, &f);
        }
        for p in 1..=6usize {
            for (s, &(split, optimistic)) in squares.iter().enumerate() {
                let policy = ExecPolicy { split, optimistic };
                let mut counts = Vec::new();
                for backend in [BackendKind::Sim, BackendKind::Threads] {
                    let f2 = f.clone();
                    let cfg = Machine::build(backend, Topology::FullyConnected, CostModel::ipsc2())
                        .procs(p)
                        .watchdog(Duration::from_secs(60))
                        .config();
                    let run = Machine::run(cfg, move |proc| {
                        let grid = ProcGrid::new_1d(p);
                        let spec = DistSpec::local_block();
                        let ext = [nx + 1, ny + 1];
                        let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, ext, [0, 1]);
                        let farr =
                            DistArray2::from_fn(proc.rank(), &grid, &spec, ext, [0, 1], |[i, j]| {
                                f2.at(i, j)
                            });
                        let mut ctx = Ctx::with_policy(proc, grid, policy);
                        for _ in 0..2 {
                            mg2_vcycle(&mut ctx, &pde, &mut u, &farr);
                        }
                        u.gather_to_root(ctx.proc())
                    });
                    let got = run.results[0].as_ref().unwrap();
                    for (k, (x, y)) in got.iter().zip(&want.v).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{backend:?} ny={ny} p={p} {policy:?}: flat {k}: {x} vs {y}"
                        );
                    }
                    let r0 = &run.report.procs[0];
                    counts.push((r0.stats.msgs_sent, r0.stats.words_sent));
                    if backend == BackendKind::Sim {
                        let (m, w) = (r0.stats.msgs_sent, r0.stats.words_sent);
                        pins.push(((ny, p, s), (r0.clock.to_bits(), m, w)));
                    }
                }
                assert_eq!(
                    counts[0], counts[1],
                    "ny={ny} p={p} {policy:?}: sim vs threads"
                );
            }
        }
    }
    let table: String = pins.iter().map(|pin| format!("    {pin:?},\n")).collect();
    assert_eq!(pins, MG2_COARSE_PINS, "rank 0's pins moved; now:\n{table}");
}
