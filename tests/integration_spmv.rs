//! Differential suite for the inspector-executor sparse path: SpMV and
//! full CG are bitwise identical between the sim and real-threads
//! backends; random sparsity patterns replay warm with the exact
//! build/hit/rollback counters; a mid-stream redistribution costs
//! exactly one rollback and one fresh inspection before the stream goes
//! warm again; and the distributed CG answers within tolerance of the
//! sequential reference.

use std::time::Duration;

use proptest::prelude::*;

use kali::prelude::*;
use kali::sched::interior_runs;
use kali::solvers::cg::{cg, cg_seq, CgResult};
use kali::solvers::spmv::spmv_seq;

fn cfg_on(backend: BackendKind, p: usize) -> MachineConfig {
    Machine::build(backend, Topology::FullyConnected, CostModel::unit())
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

/// SplitMix-style hash, the deterministic randomness for sparsity
/// patterns (replicable on every rank and in the sequential reference).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    for v in [a, b] {
        h ^= v.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = h.rotate_left(27).wrapping_mul(0x94d0_49bb_1331_11eb);
    }
    h ^ (h >> 31)
}

/// Random sparsity: every row keeps its diagonal and adds one to three
/// extra columns drawn from the whole index range, so the gather
/// schedule is genuinely data-dependent — no analytic halo covers it.
fn random_row(n: usize, seed: u64) -> impl FnMut(usize) -> Vec<(usize, f64)> {
    move |i| {
        let mut cols = vec![i];
        let extras = 1 + (mix(seed, i as u64, 0) % 3) as usize;
        for k in 1..=extras {
            let c = (mix(seed, i as u64, k as u64) % n as u64) as usize;
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        cols.into_iter()
            .map(|c| {
                let v = if c == i {
                    (n + 4) as f64
                } else {
                    -1.0 - (mix(seed, c as u64, i as u64) % 7) as f64 / 8.0
                };
                (c, v)
            })
            .collect()
    }
}

fn x_entry(n: usize, seed: u64, i: usize) -> f64 {
    ((i * 13 + seed as usize) % (n + 3)) as f64 * 0.25 - 2.0
}

/// `trips` products of one random matrix on 4 workers; optionally calls
/// [`SparseCsr::distribute`] immediately before trip `redistribute_at`.
/// Returns the root-gathered product and the run report.
fn spmv_stream(
    backend: BackendKind,
    policy: ExecPolicy,
    n: usize,
    seed: u64,
    trips: usize,
    redistribute_at: Option<usize>,
) -> (Vec<f64>, RunReport) {
    let p = 4;
    let run = Machine::run(cfg_on(backend, p), move |proc| {
        let grid = ProcGrid::new_1d(p);
        let mut a = SparseCsr::from_rows(proc.rank(), &grid, n, n, random_row(n, seed));
        let spec = DistSpec::block1();
        let x = DistArray1::from_fn(proc.rank(), &grid, &spec, [n], [0], |[i]| {
            x_entry(n, seed, i)
        });
        let mut y = DistArray1::from_fn(proc.rank(), &grid, &spec, [n], [0], |_| 0.0);
        let mut ctx = Ctx::with_policy(proc, grid, policy);
        for t in 0..trips {
            if redistribute_at == Some(t) {
                a.distribute(ctx.proc());
            }
            ctx.sparse().spmv(&a, &x, &mut y);
        }
        y.gather_to_root(ctx.proc())
    });
    let ys = run
        .results
        .iter()
        .find_map(|r| r.clone())
        .expect("root gathered the product");
    (ys, run.report)
}

/// An SPD band (1-D Laplacian at stride 2 plus a diagonal shift) — the
/// CG operator; every block boundary forces remote x fetches.
fn spd_row(n: usize) -> impl FnMut(usize) -> Vec<(usize, f64)> {
    move |i| {
        let mut entries = vec![(i, 5.0)];
        if i >= 2 {
            entries.push((i - 2, -1.0));
        }
        if i + 2 < n {
            entries.push((i + 2, -1.0));
        }
        entries
    }
}

fn b_entry(i: usize) -> f64 {
    (i % 7) as f64 - 2.5
}

/// Full CG solve on 4 workers: returns the root-gathered solution, the
/// solve result, and the run report.
fn cg_solve(backend: BackendKind, n: usize) -> (Vec<f64>, CgResult, RunReport) {
    let p = 4;
    let run = Machine::run(cfg_on(backend, p), move |proc| {
        let grid = ProcGrid::new_1d(p);
        let a = SparseCsr::from_rows(proc.rank(), &grid, n, n, spd_row(n));
        let spec = DistSpec::block1();
        let b = DistArray1::from_fn(proc.rank(), &grid, &spec, [n], [0], |[i]| b_entry(i));
        let mut x = DistArray1::from_fn(proc.rank(), &grid, &spec, [n], [0], |_| 0.0);
        let mut ctx = Ctx::new(proc, grid);
        let res = cg(&mut ctx, &a, &b, &mut x, 100, 1e-10);
        (res, x.gather_to_root(ctx.proc()))
    });
    let (res, xs) = run
        .results
        .iter()
        .find_map(|(res, xs)| xs.clone().map(|v| (*res, v)))
        .expect("root gathered the solution");
    (xs, res, run.report)
}

/// The same SpMV stream on the simulator and on real threads must
/// produce the bitwise-identical product: the protocol (inspection,
/// fused request vectors, piggybacked vote) is backend-agnostic.
#[test]
fn spmv_is_bitwise_identical_across_backends() {
    let (ys, sim_rep) = spmv_stream(BackendKind::Sim, ExecPolicy::default(), 33, 7, 3, None);
    let (yt, thr_rep) = spmv_stream(BackendKind::Threads, ExecPolicy::default(), 33, 7, 3, None);
    assert_bitwise(&ys, &yt, "spmv sim vs threads");
    // Identical protocol counters too, not just identical answers.
    assert_eq!(sim_rep.total_inspector_runs, thr_rep.total_inspector_runs);
    assert_eq!(sim_rep.total_rollbacks, thr_rep.total_rollbacks);
    assert_eq!(sim_rep.total_gather_words, thr_rep.total_gather_words);
}

/// Full CG across backends: same iteration count, bitwise-identical
/// solution and residual.
#[test]
fn cg_is_bitwise_identical_across_backends() {
    let (xs, rs, _) = cg_solve(BackendKind::Sim, 32);
    let (xt, rt, _) = cg_solve(BackendKind::Threads, 32);
    assert_bitwise(&xs, &xt, "cg sim vs threads");
    assert_eq!(rs.iterations, rt.iterations);
    assert_eq!(rs.residual.to_bits(), rt.residual.to_bits());
}

/// A redistribution in the middle of a warm stream costs exactly one
/// rollback and one fresh inspection per worker — and never changes the
/// product.
#[test]
fn redistribute_mid_stream_costs_exactly_one_rollback() {
    let trips = 5;
    let (y, rep) = spmv_stream(
        BackendKind::from_env(),
        ExecPolicy::default(),
        28,
        3,
        trips,
        Some(2),
    );
    let (yref, _) = spmv_stream(
        BackendKind::from_env(),
        ExecPolicy::default(),
        28,
        3,
        trips,
        None,
    );
    assert_bitwise(&y, &yref, "redistribute must not change the product");
    assert_eq!(rep.total_rollbacks, 4, "one rollback per worker, exactly");
    assert_eq!(
        rep.total_inspector_runs,
        2 * 4,
        "cold build + post-rollback rebuild"
    );
    assert_eq!(rep.total_optimistic_hits, 4 * (trips as u64 - 2));
}

/// The distributed CG agrees with the sequential reference and pays the
/// inspector exactly once per worker for the whole solve.
#[test]
fn cg_matches_the_sequential_reference() {
    let n = 32;
    let (xs, res, rep) = cg_solve(BackendKind::from_env(), n);
    assert!(res.converged, "residual {}", res.residual);
    let bs: Vec<f64> = (0..n).map(b_entry).collect();
    let mut xref = vec![0.0; n];
    let rref = cg_seq(n, spd_row(n), &bs, &mut xref, 100, 1e-10);
    assert!(rref.converged);
    for (u, v) in xs.iter().zip(&xref) {
        assert!((u - v).abs() < 1e-8, "{u} vs {v}");
    }
    assert_eq!(rep.total_inspector_runs, 4);
    assert_eq!(rep.total_rollbacks, 0);
    assert!(rep.total_gather_words > 0);
}

/// [`random_row`] in the element type `T` (the `f32` leg casts the values).
fn random_row_in<T: Real>(n: usize, seed: u64) -> impl FnMut(usize) -> Vec<(usize, T)> {
    let mut row = random_row(n, seed);
    move |i| {
        row(i)
            .into_iter()
            .map(|(c, v)| (c, T::from_f64(v)))
            .collect()
    }
}

/// One worker's product as exact bit patterns, plus the nonzeros visited.
type RowForm = (Vec<u64>, usize);

/// The row body three ways on every worker: `apply_rows` over the
/// interior runs (no haul) then `apply_positions` over the boundary;
/// `apply_all`; and the per-element formulation the slice kernel replaced
/// (`x.at` / `haul.get` per nonzero, `y.put` per row, rows regenerated
/// from [`random_row`]), kept here as the oracle.
fn row_forms<T: Real>(backend: BackendKind, p: usize, n: usize) -> Vec<[RowForm; 3]> {
    let seed = 11;
    let run = Machine::run(cfg_on(backend, p), move |proc| {
        let grid = ProcGrid::new_1d(p);
        let a = SparseCsr::from_rows(proc.rank(), &grid, n, n, random_row_in::<T>(n, seed));
        let spec = DistSpec::block1();
        let x = DistArray1::from_fn(proc.rank(), &grid, &spec, [n], [0], |[i]| {
            T::from_f64(x_entry(n, seed, i))
        });
        let pending = a.begin_gather(proc, None, ExecPolicy::blocking(), &x);
        let got = a.finish_gather(proc, None, &x, pending);
        let haul = got.haul();

        let mut y_split = x.like();
        let interior: usize = interior_runs(got.boundary(), a.local_rows())
            .map(|rows| a.apply_rows(&x, None, &mut y_split, rows))
            .sum();
        let nnz_split = interior + a.apply_positions(&x, Some(haul), &mut y_split, got.boundary());

        let mut y_all = x.like();
        let nnz_all = a.apply_all(&x, Some(haul), &mut y_all);

        let mut y_old = x.like();
        let mut nnz_old = 0;
        let mut row = random_row_in::<T>(n, seed);
        for i in y_old.owned_range(0) {
            let mut entries = row(i);
            entries.sort_by_key(|&(c, _)| c);
            let mut sum = T::zero();
            for &(c, v) in &entries {
                let xv = if x.owns([c]) {
                    x.at(c)
                } else {
                    haul.get(c).expect("remote column was gathered")
                };
                sum = sum + v * xv;
            }
            nnz_old += entries.len();
            y_old.put(i, sum);
        }

        let bits = |y: &DistArray1<T>| y.owned().iter().map(|v| v.checksum_bits()).collect();
        [
            (bits(&y_split), nnz_split),
            (bits(&y_all), nnz_all),
            (bits(&y_old), nnz_old),
        ]
    });
    run.results
}

/// Same bits, same nonzero counts, whichever way the rows are walked —
/// in both element types, at 1, 2 and 4 workers, on both backends.
#[test]
fn slice_row_kernel_matches_the_per_element_formulation_bitwise() {
    fn check<T: Real>(backend: BackendKind, p: usize) {
        let n = 37;
        let workers = row_forms::<T>(backend, p, n);
        assert_eq!(workers.iter().map(|w| w[2].0.len()).sum::<usize>(), n);
        for (rank, [split, all, old]) in workers.iter().enumerate() {
            assert_eq!(split, old, "{backend:?} p {p} rank {rank}: runs + boundary");
            assert_eq!(all, old, "{backend:?} p {p} rank {rank}: apply_all");
        }
    }
    for backend in [BackendKind::Sim, BackendKind::Threads] {
        for p in [1, 2, 4] {
            check::<f64>(backend, p);
            check::<f32>(backend, p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random sparsity under the default cached-optimistic policy: the
    /// warm replays are bitwise identical to re-inspecting every trip
    /// (and to the sequential reference), with the exact counters —
    /// one build per worker, every later trip a hit, zero rollbacks.
    #[test]
    fn random_sparsity_replays_warm_with_exact_counters(
        n in 12usize..40,
        seed in 0u64..1000,
        trips in 2usize..5,
    ) {
        let (warm, rep) = spmv_stream(
            BackendKind::from_env(),
            ExecPolicy::default(),
            n,
            seed,
            trips,
            None,
        );
        let (fresh, fresh_rep) = spmv_stream(
            BackendKind::from_env(),
            ExecPolicy::pessimistic(),
            n,
            seed,
            trips,
            None,
        );
        for (u, v) in warm.iter().zip(&fresh) {
            prop_assert_eq!(u.to_bits(), v.to_bits(), "replay equivalence");
        }
        prop_assert_eq!(rep.total_inspector_runs, 4);
        prop_assert_eq!(rep.total_optimistic_hits, 4 * (trips as u64 - 1));
        prop_assert_eq!(rep.total_rollbacks, 0);
        prop_assert_eq!(fresh_rep.total_inspector_runs, 4 * trips as u64);
        // And both match the sequential reference bitwise.
        let xs: Vec<f64> = (0..n).map(|i| x_entry(n, seed, i)).collect();
        let yref = spmv_seq(n, random_row(n, seed), &xs);
        for (u, v) in warm.iter().zip(&yref) {
            prop_assert_eq!(u.to_bits(), v.to_bits(), "sequential reference");
        }
    }
}
