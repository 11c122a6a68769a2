//! KF1 outputs pinned byte for byte in `tests/golden/`: the `kf1_check`
//! report on the shipped listings and the bad corpus, and the exact cost
//! of every listing's `kf1_run` run on the simulator. A test rewrites its
//! file only under `KALI_BLESS=1`; the diff is the statement of what moved.

use std::time::Duration;

use kali::lang::{check, listing, run_source_with, HostValue, LangRun, RunOptions};
use kali::prelude::*;
use kali::solvers::adi::suggested_rho;
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

/// FNV-1a over the bits of every returned array, in parameter order.
fn bits_hash(run: &LangRun) -> u64 {
    let bits = run
        .arrays
        .iter()
        .flat_map(|(_, a)| a.iter().map(|x| x.to_bits()));
    bits.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        b.to_le_bytes().iter().fold(h, |h, &byte| {
            (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// The five listings' exact costs: one line each of messages, words,
/// flops, the schedule counters, exchanged and gathered words, the
/// virtual clock as bits and a hash of every returned array's bits. On
/// the threads backend the clock reads zero, so its column is skipped.
#[test]
fn kf1_listings_cost_exactly_the_golden_values() {
    let mut out = String::from(
        "listing\tmsgs\twords\tflops\tinspector_runs\tschedule_replays\trollbacks\t\
         schedule_evictions\texchange_words\tgather_words\telapsed_bits\tarrays_hash\n",
    );
    for which in ["jacobi", "shift", "tri", "adi", "spmv"] {
        let run = run_kf1(which);
        let r = &run.report;
        out += &format!(
            "{which}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{:016x}\n",
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
            bits_hash(&run),
        );
    }
    let threads = BackendKind::from_env() == BackendKind::Threads;
    golden("kf1_exact.tsv", &out, threads.then_some(10));
}
