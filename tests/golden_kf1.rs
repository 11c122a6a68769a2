//! KF1 outputs pinned byte for byte in `tests/golden/`: the `kf1_check`
//! report on the shipped listings and the bad corpus, the exact cost of
//! every listing's `kf1_run` run on the simulator, and the exact cost of
//! the compiled solvers the benchmark's workloads drive. A test rewrites
//! its file only under `KALI_BLESS=1`; the diff is the statement of what
//! moved.

use std::time::Duration;

use kali::lang::{check, listing, run_source_with, HostValue, LangRun, RunOptions};
use kali::prelude::*;
use kali::prelude::{DistArray1, SparseCsr};
use kali::solvers::adi::{adi_run, suggested_rho};
use kali::solvers::cg::cg;
use kali::solvers::jacobi::jacobi_step;
use kali::solvers::mg2::mg2_vcycle;
use kali::solvers::seq::{apply2, Grid2};

/// Compare `got` with `tests/golden/{name}` line by line, fields split at
/// tabs, skipping field `skip` if one is named; bless first under
/// `KALI_BLESS=1` unless a field is skipped.
fn golden(name: &str, got: &str, skip: Option<usize>) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if skip.is_none() && std::env::var_os("KALI_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, got).expect("the golden file is writable");
    }
    let want = std::fs::read_to_string(&path).expect("the golden file (bless with KALI_BLESS=1)");
    let fields = |line: &str| -> Vec<String> {
        let mut f: Vec<String> = line.split('\t').map(str::to_string).collect();
        if let Some(k) = skip.filter(|&k| k < f.len()) {
            f[k].clear();
        }
        f
    };
    let (g, w): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    for (k, (a, b)) in g.iter().zip(&w).enumerate() {
        assert_eq!(fields(a), fields(b), "{path}: line {} differs", k + 1);
    }
    assert_eq!(g.len(), w.len(), "{path}: line count differs");
    if skip.is_none() {
        assert!(
            got == want,
            "{path}: differs (bless with KALI_BLESS=1 if meant)"
        );
    }
}

/// `kf1_check --plans` on the five listings, then `kf1_check` on each
/// bad-corpus file, in path order, as CI's lint step runs it from the
/// repository root: stdout for a clean file, stderr for a flagged one.
#[test]
fn kf1_check_report_matches_the_golden_file() {
    let mut out = String::new();
    for name in ["adi", "jacobi", "shift", "spmv", "tri"] {
        let path = format!("crates/lang/programs/{name}.kf1");
        out += &check(&path, listing(name).unwrap(), true).expect("the listing is clean");
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/bad");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.ends_with(".kf1"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 14, "corpus files: {files:?}");
    for f in &files {
        let src = std::fs::read_to_string(format!("{dir}/{f}")).unwrap();
        let path = format!("tests/corpus/bad/{f}");
        out += &check(&path, &src, false).expect_err("the corpus file is flagged");
    }
    golden("kf1_check.txt", &out, None);
}

fn cfg(p: usize) -> MachineConfig {
    Machine::build(
        BackendKind::from_env(),
        Topology::FullyConnected,
        CostModel::ipsc2(),
    )
    .procs(p)
    .watchdog(Duration::from_secs(60))
    .config()
}

fn array(data: Vec<f64>, bounds: &[(i64, i64)]) -> HostValue {
    HostValue::Array {
        data,
        bounds: bounds.to_vec(),
    }
}

/// Run listing `which` at the sizes, grid and inputs of `examples/kf1_run.rs`,
/// under the default policy.
fn run_kf1(which: &str) -> LangRun {
    let (entry, grid, args) = match which {
        "jacobi" => {
            let (np, w) = (16i64, 17usize);
            let f = (0..w * w)
                .map(|k| {
                    let (i, j) = (k / w, k % w);
                    let edge = i == 0 || i == w - 1 || j == 0 || j == w - 1;
                    if !edge && i == w / 2 && j == w / 2 {
                        -0.25
                    } else {
                        0.0
                    }
                })
                .collect();
            let b = [(0, np), (0, np)];
            let args = vec![
                array(vec![0.0; w * w], &b),
                array(f, &b),
                HostValue::Int(np),
                HostValue::Int(30),
            ];
            ("jacobi", vec![2, 2], args)
        }
        "shift" => {
            let x = (1..=16).map(|i| i as f64).collect();
            (
                "shift",
                vec![4],
                vec![array(x, &[(1, 16)]), HostValue::Int(16)],
            )
        }
        "tri" => {
            let n = 64usize;
            let sys = kali::kernels::TriDiag::random_dd(n, 1);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
            let b = [(1, n as i64)];
            let args = vec![
                array(vec![0.0; n], &b),
                array(sys.apply(&x_true), &b),
                array(sys.b.clone(), &b),
                array(sys.a.clone(), &b),
                array(sys.c.clone(), &b),
                HostValue::Int(n as i64),
            ];
            ("tri", vec![4], args)
        }
        "adi" => {
            let (np, w) = (16usize, 17usize);
            let pde = Pde::poisson();
            let f = apply2(&pde, &Grid2::random_interior(np, np, 7));
            let b = [(0, np as i64), (0, np as i64)];
            let args = vec![
                array(vec![0.0; w * w], &b),
                array((0..w * w).map(|k| f.at(k / w, k % w)).collect(), &b),
                array(vec![0.0; w * w], &b),
                HostValue::Int(np as i64),
                HostValue::Real(suggested_rho(&pde, np, np)),
                HostValue::Int(10),
                HostValue::Real(1.0),
                HostValue::Real(1.0),
            ];
            ("adi", vec![2, 2], args)
        }
        "spmv" => {
            let n = 32i64;
            let (mut rp, mut ci, mut av) = (vec![1.0], Vec::new(), Vec::new());
            for i in 1..=n {
                for c in [i - 2, i, i + 2]
                    .into_iter()
                    .filter(|c| (1..=n).contains(c))
                {
                    ci.push(c as f64);
                    av.push(((i * 5 + c * 3) % 7) as f64 + 1.0);
                }
                rp.push((ci.len() + 1) as f64);
            }
            let nz = ci.len() as i64;
            let x0 = (0..n).map(|i| (i % 9) as f64 * 0.75 - 2.0).collect();
            let args = vec![
                array(vec![0.0; n as usize], &[(1, n)]),
                array(x0, &[(1, n)]),
                array(rp, &[(1, n + 1)]),
                array(ci, &[(1, nz)]),
                array(av, &[(1, nz)]),
                HostValue::Int(n),
                HostValue::Int(nz),
                HostValue::Int(8),
            ];
            ("spmvit", vec![4], args)
        }
        other => panic!("unknown listing {other}"),
    };
    let p = grid.iter().product();
    let src = listing(which).unwrap();
    run_source_with(cfg(p), src, entry, &grid, &args, RunOptions::default())
        .unwrap_or_else(|e| panic!("{which}: {e}"))
}

/// FNV-1a over a run's result bits.
fn bits_hash(bits: impl Iterator<Item = u64>) -> u64 {
    bits.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        b.to_le_bytes().iter().fold(h, |h, &byte| {
            (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// One golden line: `name`, the report's exact costs and `hash`.
fn cost_line(name: &str, r: &RunReport, hash: u64) -> String {
    format!(
        "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{:016x}\n",
        r.total_msgs,
        r.total_words,
        r.total_flops,
        r.total_inspector_runs,
        r.total_schedule_replays,
        r.total_rollbacks,
        r.total_schedule_evictions,
        r.total_exchange_words,
        r.total_gather_words,
        r.elapsed.to_bits(),
        hash,
    )
}

/// The column names of a cost table, `first` naming the row.
fn cost_header(first: &str) -> String {
    format!(
        "{first}\tmsgs\twords\tflops\tinspector_runs\tschedule_replays\trollbacks\t\
         schedule_evictions\texchange_words\tgather_words\telapsed_bits\tarrays_hash\n"
    )
}

/// The five listings' exact costs: one line each of messages, words,
/// flops, the schedule counters, exchanged and gathered words, the
/// virtual clock as bits and a hash of every returned array's bits. On
/// the threads backend the clock reads zero, so its column is skipped.
#[test]
fn kf1_listings_cost_exactly_the_golden_values() {
    let mut out = cost_header("listing");
    for which in ["jacobi", "shift", "tri", "adi", "spmv"] {
        let run = run_kf1(which);
        let bits = run
            .arrays
            .iter()
            .flat_map(|(_, a)| a.iter().map(|x| x.to_bits()));
        out += &cost_line(which, &run.report, bits_hash(bits));
    }
    let threads = BackendKind::from_env() == BackendKind::Threads;
    golden("kf1_exact.tsv", &out, threads.then_some(10));
}

/// Run `body` on `p` processors and return the golden line of its
/// costs, hashing the one result a processor returns (the root's gather).
fn compiled_line<F>(name: &str, p: usize, body: F) -> String
where
    F: Fn(&mut Proc) -> Option<Vec<f64>> + Send + Sync,
{
    let run = Machine::run(cfg(p), body);
    let got = run
        .results
        .iter()
        .flatten()
        .next()
        .expect("the root returns its gather");
    cost_line(
        name,
        &run.report,
        bits_hash(got.iter().map(|x| x.to_bits())),
    )
}

/// The compiled solvers the benchmark's workloads time, at test sizes:
/// Jacobi sweeps on 2×2, the 2-D multigrid V-cycle and CG on 1, 2 and 4
/// processors, and one ADI iteration (a `Ctx::lift` per half sweep), one
/// line each in `kf1_exact.tsv`'s columns. On the threads backend the
/// clock column is skipped.
#[test]
fn compiled_solvers_cost_exactly_the_golden_values() {
    let mut out = cost_header("run");
    out += &compiled_line("jacobi_step 2x2", 4, |proc| {
        let (n, grid, spec) = (32usize, ProcGrid::new_2d(2, 2), DistSpec::block2());
        let ext = [n + 1, n + 1];
        let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, ext, [1, 1]);
        let f = DistArray2::from_fn(proc.rank(), &grid, &spec, ext, [0, 0], |[i, j]| {
            ((i * 7 + j * 3) % 11) as f64 * 1e-3
        });
        let mut ctx = Ctx::new(proc, grid);
        for _ in 0..6 {
            jacobi_step(&mut ctx, &mut u, &f);
        }
        u.gather_to_root(ctx.proc())
    });
    for p in [1, 2, 4] {
        out += &compiled_line(&format!("mg2_vcycle p={p}"), p, move |proc| {
            let (n, grid, spec) = (32usize, ProcGrid::new_1d(p), DistSpec::local_block());
            let ext = [n + 1, n + 1];
            let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, ext, [0, 1]);
            let f = DistArray2::from_fn(proc.rank(), &grid, &spec, ext, [0, 1], |[i, j]| {
                let edge = i == 0 || j == 0 || i == n || j == n;
                if edge {
                    0.0
                } else {
                    ((i * 5 + j * 13) % 17) as f64 / 17.0
                }
            });
            let mut ctx = Ctx::new(proc, grid);
            for _ in 0..2 {
                mg2_vcycle(&mut ctx, &Pde::poisson(), &mut u, &f);
            }
            u.gather_to_root(ctx.proc())
        });
    }
    for p in [1, 2, 4] {
        out += &compiled_line(&format!("cg p={p}"), p, move |proc| {
            // The 5-point Laplacian on an m×m grid, rows in natural order.
            let (m, grid, spec) = (8usize, ProcGrid::new_1d(p), DistSpec::block1());
            let n = m * m;
            let a = SparseCsr::from_rows(proc.rank(), &grid, n, n, |i| {
                let mut row = vec![(i, 4.0)];
                let (r, c) = (i / m, i % m);
                for (ok, k) in [(r > 0, i.wrapping_sub(m)), (c > 0, i.wrapping_sub(1))] {
                    if ok {
                        row.push((k, -1.0));
                    }
                }
                for (ok, k) in [(c + 1 < m, i + 1), (r + 1 < m, i + m)] {
                    if ok {
                        row.push((k, -1.0));
                    }
                }
                row.sort_by_key(|&(k, _)| k);
                row
            });
            let b = DistArray1::from_fn(proc.rank(), &grid, &spec, [n], [0], |[i]| {
                (i % 7) as f64 - 2.5
            });
            let mut x = DistArray1::from_fn(proc.rank(), &grid, &spec, [n], [0], |_| 0.0);
            let mut ctx = Ctx::new(proc, grid);
            cg(&mut ctx, &a, &b, &mut x, 12, 0.0);
            x.gather_to_root(ctx.proc())
        });
    }
    out += &compiled_line("adi_run 2x2", 4, |proc| {
        let (n, grid, spec) = (16usize, ProcGrid::new_2d(2, 2), DistSpec::block2());
        let pde = Pde::poisson();
        let f = apply2(&pde, &Grid2::random_interior(n, n, 7));
        let ext = [n + 1, n + 1];
        let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, ext, [1, 1]);
        let farr = DistArray2::from_fn(proc.rank(), &grid, &spec, ext, [0, 0], |[i, j]| f.at(i, j));
        let mut ctx = Ctx::new(proc, grid);
        adi_run(
            &mut ctx,
            &pde,
            suggested_rho(&pde, n, n),
            &mut u,
            &farr,
            1,
            true,
        );
        u.gather_to_root(ctx.proc())
    });
    let threads = BackendKind::from_env() == BackendKind::Threads;
    golden("exact.tsv", &out, threads.then_some(10));
}
