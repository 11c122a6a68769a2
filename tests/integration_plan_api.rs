//! Differential suite for the declarative `StencilPlan` API: every
//! migrated solver must be bitwise-invariant across execution policies
//! (blocking / split-pessimistic / split-optimistic), must move exactly
//! the same exchange words wherever the ghost schedule is the same, and
//! must pin its pre-redesign behaviour — including *exact* halo-schedule
//! build / piggybacked-vote-hit / rollback counters across a
//! redistribute-mid-loop sequence.

use std::time::Duration;

use kali::prelude::*;
use kali::solvers::adi::{adi_run, adi_seq_iteration, suggested_rho};
use kali::solvers::jacobi::jacobi_step;
use kali::solvers::mg2::mg2_vcycle;
use kali::solvers::seq;
use kali::solvers::transfer::{intrp2, resid2, rest2};

fn cfg(p: usize) -> MachineConfig {
    cfg_cost(p, CostModel::unit())
}

fn cfg_cost(p: usize, cost: CostModel) -> MachineConfig {
    Machine::build(BackendKind::from_env(), Topology::FullyConnected, cost)
        .procs(p)
        .watchdog(Duration::from_secs(60))
        .config()
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} flat {k}: {x} vs {y}");
    }
}

/// The pre-redesign compiled Jacobi sweep, reconstructed: a blocking
/// full-skirt ghost exchange followed by a copy-in/copy-out rewrite of
/// the owned interior in natural order — exactly what `jacobi_update`
/// did before the plan API subsumed it.
fn jacobi_sweep_pre_redesign(proc: &mut Proc, u: &mut DistArray2<f64>, f: &DistArray2<f64>) {
    let [nxp, nyp] = u.extents();
    u.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
    if !u.is_participant() {
        return;
    }
    let old = u.clone();
    proc.memop((u.local_len(0) * u.local_len(1)) as f64);
    let i0 = u.owned_range(0).start.max(1);
    let i1 = u.owned_range(0).end.min(nxp - 1);
    let j0 = u.owned_range(1).start.max(1);
    let j1 = u.owned_range(1).end.min(nyp - 1);
    let mut points = 0usize;
    for i in i0..i1 {
        for j in j0..j1 {
            let v = 0.25
                * (old.at(i + 1, j) + old.at(i - 1, j) + old.at(i, j + 1) + old.at(i, j - 1))
                - f.at(i, j);
            u.put(i, j, v);
            points += 1;
        }
    }
    proc.compute(5.0 * points as f64);
}

fn jacobi_under(
    policy: Option<ExecPolicy>,
    sweeps: usize,
) -> kali::machine::MachineRun<Option<Vec<f64>>> {
    jacobi_on(CostModel::unit(), 16, policy, sweeps)
}

fn jacobi_on(
    cost: CostModel,
    n: usize,
    policy: Option<ExecPolicy>,
    sweeps: usize,
) -> kali::machine::MachineRun<Option<Vec<f64>>> {
    Machine::run(cfg_cost(4, cost), move |proc| {
        let grid = ProcGrid::new_2d(2, 2);
        let spec = DistSpec::block2();
        let mut u = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [n + 1, n + 1],
            [1, 1],
            |[i, j]| {
                if i == 0 || i == n || j == 0 || j == n {
                    0.0
                } else {
                    ((i * 13 + j * 7) % 11) as f64 / 22.0
                }
            },
        );
        let farr = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [n + 1, n + 1],
            [0, 0],
            |[i, j]| ((i + 2 * j) % 5) as f64 / 50.0,
        );
        match policy {
            Some(p) => {
                let mut ctx = Ctx::with_policy(proc, grid, p);
                for _ in 0..sweeps {
                    jacobi_step(&mut ctx, &mut u, &farr);
                }
                u.gather_to_root(ctx.proc())
            }
            None => {
                for _ in 0..sweeps {
                    jacobi_sweep_pre_redesign(proc, &mut u, &farr);
                }
                u.gather_to_root(proc)
            }
        }
    })
}

#[test]
fn jacobi_is_policy_invariant_and_pins_the_pre_redesign_sweep() {
    let sweeps = 6;
    let pre = jacobi_under(None, sweeps);
    let blocking = jacobi_under(Some(ExecPolicy::blocking()), sweeps);
    let pessimistic = jacobi_under(Some(ExecPolicy::pessimistic()), sweeps);
    let optimistic = jacobi_under(Some(ExecPolicy::default()), sweeps);
    let want = pre.results[0].as_ref().unwrap();
    for (run, what) in [
        (&blocking, "blocking"),
        (&pessimistic, "pessimistic"),
        (&optimistic, "optimistic"),
    ] {
        assert_bitwise(want, run.results[0].as_ref().unwrap(), what);
    }
    // Every policy moves the same faces-only value words the plan
    // declares — the blocking baseline no corner more; the optimistic one
    // replays them from the cache without re-deriving.
    for (run, what) in [(&blocking, "blocking"), (&pessimistic, "pessimistic")] {
        assert_eq!(
            run.report.total_exchange_words, optimistic.report.total_exchange_words,
            "{what}: the policy must not change the value traffic"
        );
    }
    assert_eq!(
        optimistic.report.total_rollbacks, 0,
        "a stable loop must never roll back"
    );
    assert_eq!(
        optimistic.report.total_inspector_runs, 4,
        "one analytic build per processor, then cache replays"
    );
    assert_eq!(
        optimistic.report.total_optimistic_hits,
        4 * (sweeps as u64 - 1),
        "every warm sweep must be a piggybacked-vote replay"
    );
    // The pre-redesign sweep paid a blocking full-skirt exchange per
    // trip; the plan's default must not lengthen the virtual timeline.
    assert!(optimistic.report.elapsed <= pre.report.elapsed);
    // Nor may caching lengthen a warm trip — (t(5) − t(2)) / 3 — where
    // latency dominates: the analytic walk it saves must outweigh the
    // piggybacked vote headers.
    if optimistic.report.backend.virtual_time() {
        let warm = |policy: ExecPolicy| {
            let t = |sweeps| {
                jacobi_on(CostModel::ipsc2(), 48, Some(policy), sweeps)
                    .report
                    .elapsed
            };
            (t(5) - t(2)) / 3.0
        };
        let (cached, rebuilt) = (warm(ExecPolicy::default()), warm(ExecPolicy::pessimistic()));
        assert!(
            cached <= rebuilt,
            "cached warm trip {cached:.3e} s vs rebuild {rebuilt:.3e} s"
        );
    }
}

#[test]
fn adi_is_policy_invariant_bitwise() {
    let (nx, ny) = (16usize, 16usize);
    let pde = Pde::poisson();
    let us = seq::Grid2::random_interior(nx, ny, 7);
    let f = seq::apply2(&pde, &us);
    let rho = suggested_rho(&pde, nx, ny);
    let iters = 3;
    // Sequential reference to anchor correctness, not just consistency.
    let mut u_seq = seq::Grid2::zeros(nx, ny);
    for _ in 0..iters {
        adi_seq_iteration(&pde, rho, &mut u_seq, &f);
    }
    let go = |policy: ExecPolicy| {
        let f2 = f.clone();
        Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_2d(2, 2);
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
            let mut ctx = Ctx::with_policy(proc, grid, policy);
            let hist = adi_run(&mut ctx, &pde, rho, &mut u, &farr, iters, true);
            (hist, u.gather_to_root(ctx.proc()))
        })
    };
    let blocking = go(ExecPolicy::blocking());
    let pessimistic = go(ExecPolicy::pessimistic());
    let optimistic = go(ExecPolicy::default());
    let (hist_b, u_b) = &blocking.results[0];
    for run in [&pessimistic, &optimistic] {
        let (hist, u) = &run.results[0];
        assert_bitwise(u_b.as_ref().unwrap(), u.as_ref().unwrap(), "adi field");
        assert_bitwise(hist_b, hist, "adi residual history");
    }
    assert_eq!(
        pessimistic.report.total_exchange_words,
        optimistic.report.total_exchange_words
    );
    assert_eq!(optimistic.report.total_rollbacks, 0);
    // The residual's geometry repeats every half-sweep: replays dominate.
    assert!(optimistic.report.total_optimistic_hits > 0);
    // Anchor: the final field matches the sequential reference.
    let got = optimistic.results[0].1.as_ref().unwrap();
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
fn mg2_vcycle_and_transfers_are_policy_invariant_with_word_parity() {
    // Every policy — the blocking baseline included — refreshes exactly
    // the skirt each plan declares (Ghosts::full for mg2's halos,
    // Ghosts::faces for resid2's), so all three derive the same schedules
    // and must move exactly the same value words.
    let (nx, ny) = (8usize, 16usize);
    let pde = Pde::poisson();
    let us = seq::Grid2::random_interior(nx, ny, 5);
    let f = seq::apply2(&pde, &us);
    let go = |policy: ExecPolicy| {
        let f2 = f.clone();
        Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_1d(4);
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
            let mut ctx = Ctx::with_policy(proc, grid, policy);
            for _ in 0..2 {
                mg2_vcycle(&mut ctx, &pde, &mut u, &farr);
            }
            // The transfer chain on its own: residual, restriction,
            // interpolation — the Listing 10 shapes.
            let mut r = resid2(&mut ctx, &pde, &mut u, &farr);
            let g = rest2(&mut ctx, &mut r);
            let mut v = r.like();
            intrp2(&mut ctx, &mut v, &g);
            (u.gather_to_root(ctx.proc()), v.gather_to_root(ctx.proc()))
        })
    };
    let blocking = go(ExecPolicy::blocking());
    let pessimistic = go(ExecPolicy::pessimistic());
    let optimistic = go(ExecPolicy::default());
    let (u_b, v_b) = &blocking.results[0];
    for (run, what) in [(&pessimistic, "pessimistic"), (&optimistic, "optimistic")] {
        let (u, v) = &run.results[0];
        assert_bitwise(u_b.as_ref().unwrap(), u.as_ref().unwrap(), what);
        assert_bitwise(v_b.as_ref().unwrap(), v.as_ref().unwrap(), what);
    }
    for (run, what) in [(&pessimistic, "pessimistic"), (&optimistic, "optimistic")] {
        assert_eq!(
            blocking.report.total_exchange_words, run.report.total_exchange_words,
            "{what}"
        );
    }
    assert_eq!(optimistic.report.total_rollbacks, 0);
    assert!(
        optimistic.report.total_optimistic_hits > 0,
        "the second V-cycle's levels must replay from the cache"
    );
    assert!(
        optimistic.report.total_inspector_runs < pessimistic.report.total_inspector_runs,
        "caching must eliminate warm analytic rebuilds"
    );
}

#[test]
fn redistribute_mid_loop_pins_exact_hit_and_rollback_counters() {
    // A Jacobi loop interrupted by a redistribution: the generation bump
    // must cost exactly one rollback per processor (the vote disagrees
    // once under the still-gated site), one fresh analytic build, and
    // then replay warm again — with the answer bitwise-equal to the
    // blocking rebuild-per-trip baseline throughout.
    let n = 16usize;
    let (s1, s2) = (3usize, 3usize);
    let go = |policy: ExecPolicy| {
        Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_1d(4);
            let spec = DistSpec::local_block();
            let mut u = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [n + 1, n + 1],
                [0, 1],
                |[i, j]| {
                    if i == 0 || i == n || j == 0 || j == n {
                        0.0
                    } else {
                        ((3 * i + j) % 9) as f64 / 18.0
                    }
                },
            );
            let farr = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [n + 1, n + 1],
                [0, 0],
                |[i, j]| ((i * j) % 7) as f64 / 70.0,
            );
            let mut ctx = Ctx::with_policy(proc, grid, policy);
            for _ in 0..s1 {
                jacobi_step(&mut ctx, &mut u, &farr);
            }
            // Structurally identical layout; the generation still bumps,
            // so every cached route must be invalidated.
            let mut u = u.redistribute(ctx.proc(), &spec, [0, 1]);
            for _ in 0..s2 {
                jacobi_step(&mut ctx, &mut u, &farr);
            }
            (
                u.gather_to_root(ctx.proc()),
                ctx.proc().stats().inspector_runs,
                ctx.proc().stats().optimistic_hits,
                ctx.proc().stats().rollbacks,
            )
        })
    };
    let blocking = go(ExecPolicy::blocking());
    let optimistic = go(ExecPolicy::default());
    assert_bitwise(
        blocking.results[0].0.as_ref().unwrap(),
        optimistic.results[0].0.as_ref().unwrap(),
        "redistribute-mid-loop field",
    );
    for (rank, (_, builds, hits, rollbacks)) in optimistic.results.iter().enumerate() {
        assert_eq!(*builds, 2, "rank {rank}: one build per generation");
        assert_eq!(
            *hits,
            (s1 as u64 - 1) + (s2 as u64 - 1),
            "rank {rank}: every other sweep replays"
        );
        assert_eq!(
            *rollbacks, 1,
            "rank {rank}: the redistribution rolls back once"
        );
    }
    // The blocking baseline rebuilt on every one of the s1+s2 sweeps.
    for (rank, (_, builds, hits, rollbacks)) in blocking.results.iter().enumerate() {
        assert_eq!(*builds, (s1 + s2) as u64, "rank {rank}");
        assert_eq!(*hits, 0, "rank {rank}");
        assert_eq!(*rollbacks, 0, "rank {rank}");
    }
}

/// The point stencil of the partial-box suite: reads its four faces and
/// one corner, clamped at the global edges so that a box may cover them.
fn partial_stencil(old: &DistArray2<f64>, i: usize, j: usize) -> f64 {
    let [n, m] = old.extents();
    let (up, dn) = (i.saturating_sub(1), (i + 1).min(n - 1));
    let (lf, rt) = (j.saturating_sub(1), (j + 1).min(m - 1));
    0.5 * old.at(i, j)
        + 0.125 * (old.at(up, j) + old.at(dn, j) + old.at(i, lf) + old.at(i, rt))
        + 0.0625 * old.at(up, rt)
        + 1.0
}

/// Boxes given per rank, relative to my block (the ghost refresh does
/// not depend on the box, so ranks may pass different ones): strictly
/// inside, across one owned edge along each axis, missing my block,
/// covering it, and inside again on a reused kept buffer.
fn partial_boxes(u: &DistArray2<f64>) -> Vec<[std::ops::Range<usize>; 2]> {
    let [n, m] = u.extents();
    let (r, c) = (u.owned_range(0), u.owned_range(1));
    let inside = [r.start + 1..r.end - 1, c.start + 1..c.end - 1];
    let miss = if r.end < n { r.end..n } else { 0..r.start };
    vec![
        inside.clone(),
        [r.start + 1..(r.end + 2).min(n), c.start + 1..c.end - 1],
        [r.start + 1..r.end - 1, c.start.saturating_sub(2)..c.end - 1],
        [miss, 0..m],
        [0..n, 0..m],
        inside,
    ]
}

/// What `update2`/`update2_rows` over `[r0] × [r1]` did before the kept
/// buffer: a blocking full-skirt refresh into the array, a clone, and
/// every owned point of the box rewritten from the clone.
fn partial_update_by_clone(
    proc: &mut Proc,
    w: &mut DistArray2<f64>,
    r0: std::ops::Range<usize>,
    r1: std::ops::Range<usize>,
) {
    w.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
    let old = w.clone();
    let (lo, hi) = w.owned_box([r0.start, r1.start], [r0.end, r1.end]);
    for i in lo[0]..hi[0] {
        for j in lo[1]..hi[1] {
            w.put(i, j, partial_stencil(&old, i, j));
        }
    }
}

#[test]
fn partial_boxes_keep_everything_outside_them() {
    let go = |backend: BackendKind, grid: ProcGrid, policy: ExecPolicy| {
        let cfg = Machine::build(backend, Topology::FullyConnected, CostModel::unit())
            .procs(4)
            .watchdog(Duration::from_secs(60))
            .config();
        Machine::run(cfg, move |proc| {
            let spec = DistSpec::block2();
            let u = DistArray2::from_fn(proc.rank(), &grid, &spec, [18, 12], [1, 1], |[i, j]| {
                ((i * 31 + j * 17) % 23) as f64 * 0.5 + 1.0
            });
            let (mut rows, mut points, mut want) = (u.clone(), u.clone(), u);
            let mut ctx = Ctx::with_policy(proc, grid.clone(), policy);
            let mut wrong = Vec::new();
            for (k, [r0, r1]) in partial_boxes(&want).into_iter().enumerate() {
                let before = rows.clone();
                ctx.plan().reads(&mut rows, Ghosts::full(1)).update2_rows(
                    r0.clone(),
                    r1.clone(),
                    1.0,
                    |old, i, js, dst| {
                        for (d, j) in dst.iter_mut().zip(js) {
                            *d = partial_stencil(old, i, j);
                        }
                    },
                );
                ctx.plan().reads(&mut points, Ghosts::full(1)).update2(
                    r0.clone(),
                    r1.clone(),
                    1.0,
                    partial_stencil,
                );
                partial_update_by_clone(ctx.proc(), &mut want, r0.clone(), r1.clone());
                // Every visible cell: the box as the oracle wrote it, the
                // rest of my block as it was, and the skirt refreshed under
                // a blocking policy, untouched under a split one.
                let (oi, oj) = (rows.owned_range(0), rows.owned_range(1));
                for i in oi.start.saturating_sub(1)..(oi.end + 1).min(18) {
                    for j in oj.start.saturating_sub(1)..(oj.end + 1).min(12) {
                        let in_box = r0.contains(&i) && r1.contains(&j);
                        let expect = match rows.owns([i, j]) {
                            true if in_box => want.try_get([i, j]),
                            true => before.try_get([i, j]),
                            false if policy.split => before.try_get([i, j]),
                            false => want.try_get([i, j]),
                        };
                        for (form, a) in [("rows", &rows), ("points", &points)] {
                            let got = a.try_get([i, j]);
                            if got.map(f64::to_bits) != expect.map(f64::to_bits) {
                                wrong.push(format!(
                                    "box {k} {form} at ({i}, {j}): {got:?} vs {expect:?}"
                                ));
                            }
                        }
                        if rows.owns([i, j]) && !in_box && want.try_get([i, j]) != expect {
                            wrong.push(format!(
                                "box {k}: the oracle moved ({i}, {j}) outside its box"
                            ));
                        }
                    }
                }
            }
            let gathered = [&rows, &points, &want].map(|a| a.gather_to_root(ctx.proc()));
            (gathered, wrong)
        })
    };
    for backend in [BackendKind::Sim, BackendKind::Threads] {
        for grid in [ProcGrid::new_2d(2, 2), ProcGrid::new_2d(4, 1)] {
            for (split, optimistic) in [(false, false), (false, true), (true, false), (true, true)]
            {
                let policy = ExecPolicy { split, optimistic };
                let run = go(backend, grid.clone(), policy);
                let what = format!("{backend:?} {grid:?} {policy:?}");
                for (rank, (_, wrong)) in run.results.iter().enumerate() {
                    assert!(wrong.is_empty(), "{what} rank {rank}: {wrong:#?}");
                }
                let [rows, points, want] = &run.results[0].0;
                let want = want.as_ref().unwrap();
                assert_bitwise(
                    want,
                    rows.as_ref().unwrap(),
                    &format!("{what} update2_rows"),
                );
                assert_bitwise(want, points.as_ref().unwrap(), &format!("{what} update2"));
            }
        }
    }
}
