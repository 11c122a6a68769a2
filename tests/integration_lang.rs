//! Cross-crate integration for the KF1 front end: interpreted listings
//! versus native library implementations on the same virtual machine.

use std::time::Duration;

use kali::lang::{listing, parse, run_source, run_source_with, HostValue, RunOptions};
use kali::prelude::*;
use kali::solvers::jacobi::jacobi_step;
use kali::solvers::spmv::spmv_seq;

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
fn interpreted_jacobi_equals_native_jacobi_values() {
    let np = 12i64;
    let w = (np + 1) as usize;
    let iters = 8usize;
    let f: Vec<f64> = (0..w * w)
        .map(|k| {
            let (i, j) = (k / w, k % w);
            if i == 0 || i == w - 1 || j == 0 || j == w - 1 {
                0.0
            } else {
                ((3 * i + j) % 9) as f64 / 40.0 - 0.1
            }
        })
        .collect();

    let lang = run_source(
        cfg(4),
        listing("jacobi").unwrap(),
        "jacobi",
        &[2, 2],
        &[
            HostValue::Array {
                data: vec![0.0; w * w],
                bounds: vec![(0, np), (0, np)],
            },
            HostValue::Array {
                data: f.clone(),
                bounds: vec![(0, np), (0, np)],
            },
            HostValue::Int(np),
            HostValue::Int(iters as i64),
        ],
    )
    .unwrap();

    let f2 = f.clone();
    let native = Machine::run(cfg(4), move |proc| {
        let grid = ProcGrid::new_2d(2, 2);
        let spec = DistSpec::block2();
        let n = w - 1;
        let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [n + 1, n + 1], [1, 1]);
        let farr = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [n + 1, n + 1],
            [0, 0],
            |[i, j]| f2[i * w + j],
        );
        let mut ctx = Ctx::new(proc, grid);
        for _ in 0..iters {
            jacobi_step(&mut ctx, &mut u, &farr);
        }
        u.gather_to_root(ctx.proc())
    });
    let native_x = native.results[0].as_ref().unwrap();
    let lang_x = &lang.arrays[0].1;
    for k in 0..w * w {
        assert!(
            (lang_x[k] - native_x[k]).abs() < 1e-12,
            "flat {k}: interpreted {} vs native {}",
            lang_x[k],
            native_x[k]
        );
    }
    // Runtime resolution stays within a small constant factor of the
    // compiled ghost exchange. With executor reuse the replayed schedule
    // fuses each sweep's exchange into one message per peer, so the
    // interpreter may even undercut the per-array halo protocol — the
    // bound below only guards against pathological inflation.
    if lang.report.backend.virtual_time() {
        let inflation = lang.report.elapsed / native.report.elapsed;
        assert!(
            (0.2..10.0).contains(&inflation),
            "virtual inflation out of range: {inflation}"
        );
    }
    assert!(
        lang.report.total_schedule_replays > lang.report.total_inspector_runs,
        "looped jacobi must replay more schedules than it inspects: {} runs, {} replays",
        lang.report.total_inspector_runs,
        lang.report.total_schedule_replays
    );
}

#[test]
fn parse_errors_carry_line_numbers() {
    let src = "parsub f(a; p)\n  processors p(q)\n  doall 1 i = 1, 4\n  1 continue\nend\n";
    // missing `on` clause
    let err = parse(src).unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.message.contains("on"), "{err}");
    assert_eq!(err.code, "P004");
}

#[test]
fn sections_and_teams_compose_in_custom_program() {
    // A program that sums each processor's block edge into a pair array —
    // exercises sections, lower/upper, and remote pulls in one doall.
    let src = r#"
parsub edges(a, e, n; procs)
  processors procs(p)
  real a(n) dist (block)
  real e(2*p) dist (block)
  doall 100 ip = 1, p on procs(ip)
    lo = lower(a, procs(ip))
    hi = upper(a, procs(ip))
    e(2*ip-1) = a(lo)
    e(2*ip) = a(hi)
100 continue
  doall 200 ip = 1, p on procs(ip)
    if (ip .gt. 1) then
      e(2*ip-1) = e(2*ip-1) + e(2*ip-2)
    endif
200 continue
end
"#;
    let n = 16usize;
    let run = run_source(
        cfg(4),
        src,
        "edges",
        &[4],
        &[
            HostValue::Array {
                data: (1..=n).map(|i| i as f64).collect(),
                bounds: vec![(1, n as i64)],
            },
            HostValue::Array {
                data: vec![0.0; 8],
                bounds: vec![(1, 8)],
            },
            HostValue::Int(n as i64),
        ],
    )
    .unwrap();
    let e = &run.arrays[1].1;
    // Blocks of 4: edges (1,4), (5,8), (9,12), (13,16).
    assert_eq!(e[0], 1.0);
    assert_eq!(e[1], 4.0);
    // Second doall adds the previous block's upper edge (remote pull).
    assert_eq!(e[2], 5.0 + 4.0);
    assert_eq!(e[4], 9.0 + 8.0);
    assert_eq!(e[6], 13.0 + 12.0);
}

/// A builtin sees what its own iteration wrote before the call, as an
/// element read does: `a(i) = 2.0` and then `seqtri` on the one-row system
/// `a(i) x(i) = f(i)` gives f / 2 = 3, not f / 1 from the copy-in value —
/// with one iteration per processor (its writes go straight to storage)
/// and with four (they wait in the write log).
#[test]
fn builtins_read_their_own_iterations_writes() {
    let src = r#"
parsub own(x, b, a, c, f, n; procs)
  processors procs(p)
  real x(n), b(n), a(n), c(n), f(n) dist (block)
  doall 100 i = 1, n on owner(x(i))
    a(i) = 2.0
    call seqtri(x(i:i), b(i:i), a(i:i), c(i:i), f(i:i), 1)
100 continue
end
"#;
    for p in [1, 2] {
        for n in [p, 4 * p] {
            let arr = |v: f64| HostValue::Array {
                data: vec![v; n],
                bounds: vec![(1, n as i64)],
            };
            let n_arg = HostValue::Int(n as i64);
            let args = [arr(0.0), arr(0.0), arr(1.0), arr(0.0), arr(6.0), n_arg];
            let run = run_source(cfg(p), src, "own", &[p], &args).unwrap();
            assert_eq!(run.arrays[0].1, vec![3.0; n], "x, p = {p}, n = {n}");
            assert_eq!(run.arrays[2].1, vec![2.0; n], "a, p = {p}, n = {n}");
        }
    }
}

/// A CSR row with no entries — `rp(i) = rp(i + 1)`, so `ci(rp(i):rp(i +
/// 1) - 1)` is the empty section `k:k - 1` — stores +0.0, as `spmv_seq`
/// does: first, middle and last rows empty (the last one's section starts
/// one past the end of `ci`), on one to four processors. `reduce` and
/// `seqtri` given an empty section fail with a runtime error instead.
#[test]
fn spmv_rows_may_be_empty() {
    let n = 11;
    let row = |i: usize| -> Vec<(usize, f64)> {
        match i {
            0 | 5 | 10 => Vec::new(),
            _ => [i - 1, i, (i + 3) % n]
                .into_iter()
                .map(|c| (c, 0.5 + ((i * 3 + c) % 7) as f64))
                .collect(),
        }
    };
    let (mut rp, mut ci, mut av) = (vec![1.0], Vec::new(), Vec::new());
    for i in 0..n {
        for (c, v) in row(i) {
            ci.push(c as f64 + 1.0);
            av.push(v);
        }
        rp.push(ci.len() as f64 + 1.0);
    }
    let x: Vec<f64> = (0..n).map(|k| 1.0 + (k % 4) as f64 * 0.75).collect();
    let want = spmv_seq(n, row, &x);
    assert_eq!(want[10].to_bits(), 0.0f64.to_bits());
    let nz = ci.len();
    let arr = |data: Vec<f64>| HostValue::Array {
        bounds: vec![(1, data.len() as i64)],
        data,
    };
    for p in 1..=4 {
        let args = [
            arr(vec![-1.0; n]),
            arr(x.clone()),
            arr(rp.clone()),
            arr(ci.clone()),
            arr(av.clone()),
            HostValue::Int(n as i64),
            HostValue::Int(nz as i64),
            HostValue::Int(1),
        ];
        let run = run_source(cfg(p), listing("spmv").unwrap(), "spmvit", &[p], &args).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&run.arrays[0].1), bits(&want), "y, p = {p}");
    }
    for call in [
        "call reduce(x(1:0), x(1:1), x(1:1), x(1:1), 1)",
        "call seqtri(x(1:1), x(2:1), x(1:1), x(1:1), x(1:1), 1)",
    ] {
        let src = format!(
            "parsub e(x, n; procs)\n  processors procs(p)\n  real x(n) dist (block)\n  \
             doall 100 i = 1, 1 on owner(x(i))\n    {call}\n100 continue\nend\n"
        );
        let args = [arr(vec![1.0; 4]), HostValue::Int(4)];
        let run = std::panic::catch_unwind(|| run_source(cfg(1), &src, "e", &[1], &args));
        let Err(msg) = run else {
            panic!("{call}: an empty section is a runtime error");
        };
        let msg = msg
            .downcast_ref::<String>()
            .expect("a runtime error's message");
        assert!(
            msg.contains("KF1 runtime error") && msg.contains("section of x is empty"),
            "{call}: {msg}"
        );
    }
}

#[test]
fn adi_listing_matches_native_adi() {
    use kali::solvers::adi::{adi_seq_iteration, suggested_rho};
    use kali::solvers::seq::{apply2, Grid2};

    let np = 16usize;
    let w = np + 1;
    let pde = Pde::poisson();
    let us = Grid2::random_interior(np, np, 77);
    let f = apply2(&pde, &us);
    let rho = suggested_rho(&pde, np, np);
    let iters = 3usize;

    // Sequential reference.
    let mut u_seq = Grid2::zeros(np, np);
    for _ in 0..iters {
        adi_seq_iteration(&pde, rho, &mut u_seq, &f);
    }

    // Listing 7 interpreted on a 2x2 processor array.
    let fdata: Vec<f64> = (0..w * w).map(|k| f.at(k / w, k % w)).collect();
    let run = kali::lang::run_source(
        cfg(4),
        kali::lang::listing("adi").unwrap(),
        "adi",
        &[2, 2],
        &[
            HostValue::Array {
                data: vec![0.0; w * w],
                bounds: vec![(0, np as i64), (0, np as i64)],
            },
            HostValue::Array {
                data: fdata,
                bounds: vec![(0, np as i64), (0, np as i64)],
            },
            HostValue::Array {
                data: vec![0.0; w * w],
                bounds: vec![(0, np as i64), (0, np as i64)],
            },
            HostValue::Int(np as i64),
            HostValue::Real(rho),
            HostValue::Int(iters as i64),
            HostValue::Real(1.0),
            HostValue::Real(1.0),
        ],
    )
    .unwrap();
    let x = &run.arrays[0].1;
    let mut max_err = 0.0f64;
    for i in 0..=np {
        for j in 0..=np {
            max_err = max_err.max((x[i * w + j] - u_seq.at(i, j)).abs());
        }
    }
    assert!(
        max_err < 1e-8,
        "interpreted Listing 7 diverges from native ADI: {max_err}"
    );
}

/// `adi.kf1` with `tric` taking its line's index as a scalar argument:
/// the twin outside the lockstep class, which solves line by line.
fn adi_line_by_line() -> String {
    (listing("adi").unwrap())
        .replace("rho, cy, np; owner", "rho, cy, np, i; owner")
        .replace("rho, cx, np; owner", "rho, cx, np, j; owner")
        .replace(
            "tric(x, g, rho, cc, np; procs)",
            "tric(x, g, rho, cc, np, line; procs)",
        )
}

/// `adi.kf1` as the benchmark runs it (np = 48, 4 iterations): a team
/// solves its lines a batch at a time, so every `tric` doall is one trip —
/// one vote, one fused message per peer — per batch instead of per line.
/// The line-by-line twin keeps the per-line count, and the two agree bit
/// for bit. A batch holds up to `LINES_PER_BATCH` = 64 lines, and its five
/// trips on a two-member team send 12 messages the first time a batch of
/// its size runs (with a request round) and 10 after (one fused message
/// per member per trip). At `procs(2, 1)`, `resid` sends 6 messages the
/// first iteration and 4 after, and the column sweep's 47 lines on a team
/// of both are ⌈47 / 64⌉ = 1 batch: 6 + 3 · 4 + 12 + 3 · 10 = 60. At
/// `procs(2, 2)`, `resid` sends 32 then 24, and each sweep's two teams
/// solve 24 and 23 lines, one batch each: 32 + 3 · 24 + 4 · (12 + 3 · 10)
/// = 272. At np = 80 on `procs(2, 1)` the column sweep's 79 lines are a
/// full batch and a 15-line remainder, a collective of its own that never
/// loses a vote: 6 + 3 · 4 + (12 + 12) + 3 · (10 + 10) = 102. A cold
/// trip's request round is one message per peer, however many arrays it
/// exchanges: `resid`'s cold trip requests `u` and `f` in one message per
/// peer, and so do the twin's cold `tric` trips over several arrays.
#[test]
fn adi_lines_run_in_lockstep_with_pinned_message_counts() {
    let cases = [
        (48, [2, 1], 60, 1900),
        (48, [2, 2], 272, 3872),
        (80, [2, 1], 102, 3180),
    ];
    for (np, grid, batched, per_line) in cases {
        let field = |scale: f64| HostValue::Array {
            data: (0..(np + 1) * (np + 1))
                .map(|k| scale * (k % 7) as f64)
                .collect(),
            bounds: vec![(0, np); 2],
        };
        let args = [
            field(0.0),
            field(0.5),
            field(0.0),
            HostValue::Int(np),
            HostValue::Real(40.0),
            HostValue::Int(4),
            HostValue::Real(1.0),
            HostValue::Real(1.0),
        ];
        let p = grid[0] * grid[1];
        let run = |src: &str| run_source(cfg(p), src, "adi", &grid, &args).unwrap();
        let (lockstep, twin) = (run(listing("adi").unwrap()), run(&adi_line_by_line()));
        let msgs = [lockstep.report.total_msgs, twin.report.total_msgs];
        assert_eq!(msgs, [batched, per_line], "np {np}, procs{grid:?}");
        assert_eq!(lockstep.report.total_rollbacks, 0, "np {np}, procs{grid:?}");
        for ((name, a), (_, b)) in lockstep.arrays.iter().zip(&twin.arrays) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "np {np}, procs{grid:?}: {name}");
        }
    }
}

/// A lifted callee need not keep its doalls at the top level: a doall
/// inside a `do` loop, a `return` below the top level, a replicated
/// dynamic array written at the top level and read in a doall, a doall
/// of many iterations per member (copy-in/copy-out) and a walked loop in
/// one. Each runs once for a batch of lines, as one activation, and
/// computes the bits of a twin whose callee takes the line index as a
/// scalar and so runs line by line, on fewer messages, under every
/// policy square.
#[test]
fn lifted_callees_with_nested_doalls_and_returns_match_line_by_line() {
    let bodies = [
        "  do 10 k = 1, 3\n    doall 100 j = 1, n on owner(t(j))\n      t(j) = x(j) + k\n\
         100 continue\n    if (k .eq. 3) return\n    doall 200 j = 2, n - 1 on owner(y(j))\n      \
         y(j) = y(j) + 0.5*(t(j-1) + t(j+1))\n200 continue\n10 continue",
        "  do 20 k = 1, n\n    s(k) = 0.25*k\n20 continue\n  doall 300 j = 1, n on owner(y(j))\n    \
         y(j) = y(j) + s(j)*x(j)\n300 continue",
        "  doall 400 j = 2, n - 1 on owner(x(j))\n    x(j) = x(j-1) + x(j+1) - y(j)\n400 continue\n  \
         doall 500 j = 1, n on owner(y(j))\n    do 50 m = 1, 2\n      y(j) = y(j) + x(j)*m\n\
         50  continue\n500 continue",
    ];
    let program = |scalar: &str, body: &str| {
        format!(
            "parsub gen(u, v, n; procs)\n  processors procs(p1, p2)\n  \
             real u(n, n), v(n, n) dist (block, block)\n  doall 100 i = 1, n on owner(u(i, *))\n    \
             call line(u(i, *), v(i, *), n{scalar}; owner(u(i, *)))\n100 continue\nend\n\
             parsub line(x, y, n{scalar}; procs)\n  processors procs(q)\n  \
             real x(n), y(n) dist (block)\n  dynamic real t(n) dist (block)\n  \
             dynamic real s(n)\n{body}\n  return\nend\n"
        )
    };
    let n = 13;
    let array = |f: fn(usize) -> f64| HostValue::Array {
        data: (0..n * n).map(f).collect(),
        bounds: vec![(1, n as i64); 2],
    };
    let args = [
        array(|k| (k % 7) as f64 * 0.5),
        array(|k| (k % 5) as f64 - 1.0),
        HostValue::Int(n as i64),
    ];
    for body in bodies {
        let (lifted, twin) = (program("", body), program(", i", body));
        for grid in [[1, 1], [2, 1], [1, 2], [2, 2]] {
            for policy in 0..4 {
                let policy = ExecPolicy {
                    split: policy & 1 == 1,
                    optimistic: policy & 2 == 2,
                };
                let opts = RunOptions {
                    policy,
                    ..RunOptions::default()
                };
                let run = |src: &str| {
                    run_source_with(cfg(grid[0] * grid[1]), src, "gen", &grid, &args, opts).unwrap()
                };
                let (a, b) = (run(&lifted), run(&twin));
                let bits = |arrays: &[(String, Vec<f64>)]| {
                    let bits = arrays.iter().map(|(_, v)| v.iter().map(|x| x.to_bits()));
                    bits.map(Iterator::collect).collect::<Vec<Vec<u64>>>()
                };
                assert_eq!(
                    bits(&a.arrays),
                    bits(&b.arrays),
                    "procs{grid:?} {policy:?}\n{lifted}"
                );
                let msgs = [a.report.total_msgs, b.report.total_msgs];
                assert!(
                    msgs[0] <= msgs[1] && (grid[1] == 1 || msgs[0] < msgs[1]),
                    "{msgs:?}"
                );
            }
        }
    }
}

/// A cold trip's request round is one message per peer, however many
/// arrays the doall reads: `x(i) = a(i) + b(i) + c(i)` with `x` on blocks
/// and `a`, `b`, `c` cyclic, so every member requests from and serves
/// every other. Its one trip sends q − 1 request and q − 1 value messages
/// per member, under both the split-phase round and the blocking
/// all-to-all; a request message per array would make that 4(q − 1).
#[test]
fn a_cold_trip_requests_every_array_in_one_message_per_peer() {
    let src = "parsub sum3(x, a, b, c, n; procs)\n  processors procs(p)\n  \
               real x(n) dist (block)\n  real a(n), b(n), c(n) dist (cyclic)\n  \
               doall 100 i = 1, n on owner(x(i))\n    x(i) = a(i) + b(i) + c(i)\n\
               100 continue\nend\n";
    let n = 16;
    let host = |k: usize| (0..n).map(move |i| ((7 * i + 3 * k) % 11) as f64 / 3.0);
    let array = |data: Vec<f64>| HostValue::Array {
        data,
        bounds: vec![(1, n as i64)],
    };
    let args = [
        array(vec![0.0; n]),
        array(host(1).collect()),
        array(host(2).collect()),
        array(host(3).collect()),
        HostValue::Int(n as i64),
    ];
    let want: Vec<u64> = (host(1).zip(host(2)).zip(host(3)))
        .map(|((a, b), c)| (a + b + c).to_bits())
        .collect();
    for q in [2, 4] {
        for split in [true, false] {
            let options = RunOptions {
                policy: ExecPolicy {
                    split,
                    ..ExecPolicy::default()
                },
                ..RunOptions::default()
            };
            let run = run_source_with(cfg(q), src, "sum3", &[q], &args, options).unwrap();
            let sent: Vec<u64> = run.report.procs.iter().map(|p| p.stats.msgs_sent).collect();
            assert_eq!(
                sent,
                vec![2 * (q as u64 - 1); q],
                "q = {q}, split = {split}"
            );
            let got: Vec<u64> = run.arrays[0].1.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "q = {q}, split = {split}");
        }
    }
}

/// A caller that passes one array under two crossing sections, `u(i, *)`
/// and `u(*, i)`, binds every line's storage to every other's. Such a
/// batch runs line by line, so line 2 reads what line 1 wrote: the same
/// bits as a twin that leaves the lockstep class.
#[test]
fn crossing_sections_run_line_by_line() {
    let src = |scalar: &str| {
        format!(
            "parsub gen(u, n; procs)\n  processors procs(p1, p2)\n  \
             real u(n, n) dist (block, block)\n  doall 200 i = 1, n on owner(u(i, *))\n    \
             call line(u(i, *), u(*, i), n{scalar}; owner(u(i, *)))\n200 continue\nend\n\
             parsub line(x, s, n{scalar}; procs)\n  processors procs(q)\n  \
             real x(n), s(n) dist (block)\n  dynamic real t(n) dist (block)\n  \
             doall 100 k = 1, n on owner(t(k))\n    t(k) = s(k)\n100 continue\n  \
             doall 300 k = 1, n on owner(x(k))\n    x(k) = x(k) + t(k)\n300 continue\nend\n"
        )
    };
    let n = 9;
    let args = [
        HostValue::Array {
            data: (0..n * n).map(|k| (k % 5) as f64 + 0.5).collect(),
            bounds: vec![(1, n as i64); 2],
        },
        HostValue::Int(n as i64),
    ];
    for grid in [[1, 1], [1, 2]] {
        let run = |src: &str| run_source(cfg(grid[1]), src, "gen", &grid, &args).unwrap();
        let (crossing, twin) = (run(&src("")), run(&src(", i")));
        assert_eq!(crossing.arrays, twin.arrays, "procs{grid:?}");
    }
}
