//! Differential suite for the element-generic compiled path: `f32`
//! grids answer within tolerance of `f64` while moving exactly half the
//! face-exchange words; the plan's row-run copy-in/copy-out update
//! (`update2_rows`) is bitwise identical to the per-point one
//! (`update2`) on both backends, with the per-point bodies written here;
//! random `f32` stencil loops replay warm with zero rollbacks; optimistic
//! vote headers flow only among the *active* team (ranks whose owned
//! block is non-empty); and debug builds fence reads that stray outside
//! the declared `Ghosts` skirt.

use std::time::Duration;

use proptest::prelude::*;

use kali::machine::MachineRun;
use kali::prelude::*;
use kali::solvers::jacobi::jacobi_step;

fn cfg_on(backend: BackendKind, p: usize) -> MachineConfig {
    Machine::build(backend, Topology::FullyConnected, CostModel::unit())
        .procs(p)
        .watchdog(Duration::from_secs(60))
        .config()
}

fn cfg(p: usize) -> MachineConfig {
    cfg_on(BackendKind::from_env(), p)
}

/// Bitwise comparison through `to_f64` (exact for every `Elem` type —
/// `f32 → f64` is value-preserving, so equal bits there means equal
/// `f32` bits too).
fn assert_bitwise<T: Real>(a: &[T], b: &[T], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_f64().to_bits(),
            y.to_f64().to_bits(),
            "{what} flat {k}: {:?} vs {:?}",
            x,
            y
        );
    }
}

/// Jacobi sweeps on a row-distributed grid, generic over the element
/// type; returns the root-gathered field and the run report. `m + 1`
/// columns is the face-exchange payload length, so an even `m + 1`
/// makes the `f32` wire accounting exact (two elements per word, no
/// odd tail).
fn jacobi_elem<T: Real>(
    backend: BackendKind,
    policy: ExecPolicy,
    n: usize,
    m: usize,
    sweeps: usize,
) -> (Vec<T>, RunReport) {
    let run = Machine::run(cfg_on(backend, 4), move |proc| {
        let grid = ProcGrid::new_1d(4);
        let spec = DistSpec::block_local();
        let mut u = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [n + 1, m + 1],
            [1, 0],
            |[i, j]| {
                if i == 0 || i == n || j == 0 || j == m {
                    T::zero()
                } else {
                    T::from_f64(((i * 13 + j * 7) % 11) as f64 / 22.0)
                }
            },
        );
        let farr = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [n + 1, m + 1],
            [0, 0],
            |[i, j]| T::from_f64(((i + 2 * j) % 5) as f64 / 50.0),
        );
        let mut ctx = Ctx::with_policy(proc, grid, policy);
        for _ in 0..sweeps {
            jacobi_step(&mut ctx, &mut u, &farr);
        }
        u.gather_to_root(ctx.proc())
    });
    (run.results[0].clone().unwrap(), run.report)
}

/// Four copy-in/copy-out 5-point updates of `u` on a 2×2 grid, written
/// per row run (`update2_rows`) or per point (`update2`): the same
/// expressions in the same order, so the two spellings must agree to the
/// bit. Returns the gathered `u` and the report.
fn plan_forms<T: Real>(backend: BackendKind, rows: bool) -> (Vec<T>, RunReport) {
    let (n, m) = (16usize, 15usize);
    let run = Machine::run(cfg_on(backend, 4), move |proc| {
        let grid = ProcGrid::new_2d(2, 2);
        let spec = DistSpec::block2();
        let mut u = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [n + 1, m + 1],
            [1, 1],
            |[i, j]| T::from_f64(((i * 13 + j * 7) % 11) as f64 / 22.0),
        );
        let f = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [n + 1, m + 1],
            [0, 0],
            |[i, j]| T::from_f64(((i + 2 * j) % 5) as f64 / 50.0),
        );
        let quarter = T::from_f64(0.25);
        let mut ctx = Ctx::new(proc, grid);
        for _ in 0..4 {
            let plan = ctx.plan().reads(&mut u, Ghosts::faces(1));
            if rows {
                plan.update2_rows(1..n, 1..m, 5.0, |old, i, js, dst| {
                    let up = old.row(i + 1, js.clone());
                    let dn = old.row(i - 1, js.clone());
                    let rt = old.row(i, js.start + 1..js.end + 1);
                    let lf = old.row(i, js.start - 1..js.end - 1);
                    let fr = f.row(i, js);
                    for k in 0..dst.len() {
                        dst[k] = quarter * (up[k] + dn[k] + rt[k] + lf[k]) - fr[k];
                    }
                });
            } else {
                plan.update2(1..n, 1..m, 5.0, |old, i, j| {
                    quarter
                        * (old.at(i + 1, j)
                            + old.at(i - 1, j)
                            + old.at(i, j + 1)
                            + old.at(i, j - 1))
                        - f.at(i, j)
                });
            }
        }
        u.gather_to_root(ctx.proc())
    });
    (run.results[0].clone().unwrap(), run.report)
}

#[test]
fn f32_results_track_f64_within_tolerance() {
    let backend = BackendKind::from_env();
    let (a64, _) = jacobi_elem::<f64>(backend, ExecPolicy::default(), 16, 15, 10);
    let (a32, _) = jacobi_elem::<f32>(backend, ExecPolicy::default(), 16, 15, 10);
    assert_eq!(a64.len(), a32.len());
    for (k, (x, y)) in a64.iter().zip(&a32).enumerate() {
        assert!((x - *y as f64).abs() < 1e-4, "flat {k}: f64 {x} vs f32 {y}");
    }
}

#[test]
fn f32_face_exchange_words_are_exactly_half_of_f64() {
    // Pessimistic split: pure payload traffic (no vote headers), and
    // every face message is one 16-element row — even, so f32 packs
    // two-per-word with no tail and the halving is *exact*.
    let backend = BackendKind::from_env();
    let (_, r64) = jacobi_elem::<f64>(backend, ExecPolicy::pessimistic(), 16, 15, 4);
    let (_, r32) = jacobi_elem::<f32>(backend, ExecPolicy::pessimistic(), 16, 15, 4);
    assert!(r64.total_exchange_words > 0, "the sweeps must exchange");
    assert_eq!(
        r64.total_exchange_words,
        2 * r32.total_exchange_words,
        "f32 face exchanges must move exactly half the f64 words"
    );
    // The optimistic default piggybacks a one-word vote header on each
    // warm message whatever the element type: the f32 exchange may rise
    // above one half of the f64 one, but never past 0.55.
    let (_, o64) = jacobi_elem::<f64>(backend, ExecPolicy::default(), 16, 15, 4);
    let (_, o32) = jacobi_elem::<f32>(backend, ExecPolicy::default(), 16, 15, 4);
    assert!(o64.total_optimistic_hits > 0, "warm trips must piggyback");
    assert!(
        100 * o32.total_exchange_words <= 55 * o64.total_exchange_words,
        "optimistic f32 wire {} vs f64 {}",
        o32.total_exchange_words,
        o64.total_exchange_words
    );
}

#[test]
fn row_and_point_plan_forms_are_bitwise_identical() {
    /// One element type on one backend; returns the flops charged.
    fn check<T: Real>(backend: BackendKind) -> f64 {
        let (u_rows, rows) = plan_forms::<T>(backend, true);
        let (u_point, point) = plan_forms::<T>(backend, false);
        assert_bitwise(&u_rows, &u_point, "update2 row-vs-point");
        assert_eq!(rows.total_flops, point.total_flops, "flop parity");
        assert!(rows.total_exchange_words > 0, "the loops must exchange");
        assert_eq!(rows.total_exchange_words, point.total_exchange_words);
        rows.total_flops
    }
    for backend in [BackendKind::Sim, BackendKind::Threads] {
        let (flops64, flops32) = (check::<f64>(backend), check::<f32>(backend));
        assert_eq!(flops64, flops32, "flops are element-blind");
    }
}

#[test]
fn sim_and_threads_agree_bitwise_per_element_type() {
    let policy = ExecPolicy::default();
    let (s64, _) = jacobi_elem::<f64>(BackendKind::Sim, policy, 16, 15, 5);
    let (t64, _) = jacobi_elem::<f64>(BackendKind::Threads, policy, 16, 15, 5);
    assert_bitwise(&s64, &t64, "f64 sim-vs-threads");
    let (s32, _) = jacobi_elem::<f32>(BackendKind::Sim, policy, 16, 15, 5);
    let (t32, _) = jacobi_elem::<f32>(BackendKind::Threads, policy, 16, 15, 5);
    assert_bitwise(&s32, &t32, "f32 sim-vs-threads");
}

#[test]
fn vote_headers_flow_only_among_the_active_team() {
    // 3 usable columns over p ranks: with p = 4 the last rank owns an
    // empty block, so the active team is {0, 1, 2} and *all* halo
    // traffic — cold exchanges and warm piggybacked votes — must match
    // a 3-processor machine running the identical grid. Before
    // active-team gating the idle rank paid a bare vote header per
    // warm trip.
    let go = |p: usize| -> MachineRun<(u64, u64)> {
        Machine::run(cfg(p), move |proc| {
            let grid = ProcGrid::new_1d(proc.nprocs());
            let spec = DistSpec::local_block();
            let n = 8usize;
            let mut u =
                DistArray2::from_fn(proc.rank(), &grid, &spec, [n + 1, 3], [0, 1], |[i, j]| {
                    ((i * 5 + j * 3) % 7) as f64 / 7.0
                });
            let farr =
                DistArray2::from_fn(proc.rank(), &grid, &spec, [n + 1, 3], [0, 0], |[i, j]| {
                    ((i + j) % 3) as f64 / 30.0
                });
            let mut ctx = Ctx::new(proc, grid);
            for _ in 0..5 {
                jacobi_step(&mut ctx, &mut u, &farr);
            }
            (
                ctx.proc().stats().rollbacks,
                ctx.proc().stats().optimistic_hits,
            )
        })
    };
    let with_idle_rank = go(4);
    let exact_team = go(3);
    assert_eq!(
        with_idle_rank.report.total_msgs, exact_team.report.total_msgs,
        "the empty-block rank must be silent on the wire"
    );
    assert_eq!(
        with_idle_rank.report.total_words, exact_team.report.total_words,
        "not even a bare vote header may leave the idle rank"
    );
    for (rank, (rollbacks, hits)) in with_idle_rank.results.iter().enumerate() {
        assert_eq!(*rollbacks, 0, "rank {rank}: warm loop must not roll back");
        assert!(
            *hits > 0,
            "rank {rank}: every member — active or gated — replays warm"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random 5-point f32 stencils (random weights, shapes, sweep
    /// counts) under the default optimistic policy: the loop geometry
    /// is stable, so every warm trip must be a piggybacked-vote replay
    /// with zero rollbacks.
    #[test]
    fn random_f32_stencils_replay_with_zero_rollbacks(
        n in 6usize..20,
        m in 6usize..20,
        seed in 0u64..1000,
        sweeps in 2usize..6,
    ) {
        let run = Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut u = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [n + 1, m + 1],
                [1, 1],
                |[i, j]| ((i * 31 + j * 17 + seed as usize) % 13) as f32 / 13.0,
            );
            let w = |k: u64| ((seed * 7 + k) % 9) as f32 / 36.0;
            let (wa, wb, wc, wd) = (w(1), w(2), w(3), w(4));
            let mut ctx = Ctx::new(proc, grid);
            for _ in 0..sweeps {
                ctx.plan()
                    .reads(&mut u, Ghosts::faces(1))
                    .update2(1..n, 1..m, 5.0, |old, i, j| {
                        wa * old.at(i + 1, j)
                            + wb * old.at(i - 1, j)
                            + wc * old.at(i, j + 1)
                            + wd * old.at(i, j - 1)
                    });
            }
            (ctx.proc().stats().rollbacks, ctx.proc().stats().optimistic_hits)
        });
        prop_assert_eq!(run.report.total_rollbacks, 0);
        prop_assert_eq!(
            run.report.total_optimistic_hits,
            4 * (sweeps as u64 - 1),
            "every warm sweep on every rank must replay"
        );
        for (rollbacks, _) in &run.results {
            prop_assert_eq!(*rollbacks, 0);
        }
    }
}

/// Debug builds arm a read fence over the declared skirt: a depth-2
/// ghost read under a width-1 plan must panic even though the ghost
/// storage exists.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "read fence violation")]
fn read_fence_rejects_reads_beyond_the_declared_width() {
    let _ = Machine::run(cfg(2), |proc| {
        let grid = ProcGrid::new_1d(2);
        let spec = DistSpec::block_local();
        // Two ghost rows allocated, but the plan declares width 1.
        let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [9, 5], [2, 0]);
        let mut ctx = Ctx::new(proc, grid);
        let [nxp, nyp] = u.extents();
        ctx.plan().reads(&mut u, Ghosts::faces(1)).run2_rows(
            1..nxp - 1,
            1..nyp - 1,
            1.0,
            |_, u, is, js| {
                for i in is {
                    for j in js.clone() {
                        if i + 2 < nxp && !u.owns([i + 2, j]) {
                            let _ = u.at(i + 2, j); // depth-2 ghost read
                        }
                    }
                }
            },
        );
    });
}

/// The face-only plan also fences diagonal ghosts: a corner read under
/// `Ghosts::faces` must panic in debug builds.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "corner ghost read")]
fn read_fence_rejects_undeclared_corner_reads() {
    let _ = Machine::run(cfg(4), |proc| {
        let grid = ProcGrid::new_2d(2, 2);
        let spec = DistSpec::block2();
        let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [17, 17], [1, 1]);
        let mut ctx = Ctx::new(proc, grid);
        ctx.plan()
            .reads(&mut u, Ghosts::faces(1))
            .run2_rows(1..16, 1..16, 1.0, |_, u, is, js| {
                let (i0, j0) = (u.owned_range(0).start, u.owned_range(1).start);
                if is.contains(&i0) && js.contains(&j0) && i0 > 1 && j0 > 1 {
                    let _ = u.at(i0 - 1, j0 - 1); // diagonal ghost, undeclared
                }
            });
    });
}
