//! Differential suite for executor reuse: every shipped KF1 program runs
//! rebuilding every trip (`ExecPolicy::pessimistic`) and replaying cached
//! schedules (the default, optimistic policy); the final
//! arrays must be *bitwise* identical and the exchange phases must move
//! exactly the same value words. A cached schedule is an optimization of
//! the communication protocol, never of the answer.

use std::time::Duration;

use kali::lang::{listing, run_source_with, HostValue, LangRun, RunOptions};
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

/// Run `src` twice (rebuilding, replaying) and assert the differential
/// invariants; returns (off, on) for workload-specific checks.
fn differential(
    src: &str,
    entry: &str,
    p: usize,
    grid: &[usize],
    args: &[HostValue],
) -> (LangRun, LangRun) {
    let off = run_source_with(
        cfg(p),
        src,
        entry,
        grid,
        args,
        RunOptions {
            policy: ExecPolicy::pessimistic(),
            ..RunOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("{entry} (cache off): {e}"));
    let on = run_source_with(cfg(p), src, entry, grid, args, RunOptions::default())
        .unwrap_or_else(|e| panic!("{entry} (cache on): {e}"));

    for ((name_off, a_off), (name_on, a_on)) in off.arrays.iter().zip(&on.arrays) {
        assert_eq!(name_off, name_on);
        assert_eq!(a_off.len(), a_on.len());
        for (k, (x, y)) in a_off.iter().zip(a_on).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{entry}: array {name_off} diverges at flat {k}: {x} vs {y}"
            );
        }
    }
    assert_eq!(
        off.report.total_exchange_words, on.report.total_exchange_words,
        "{entry}: replayed schedules must move exactly the uncached value words"
    );
    assert_eq!(
        off.report.total_schedule_replays, 0,
        "{entry}: cache off must never replay"
    );
    assert!(
        on.report.total_msgs <= off.report.total_msgs,
        "{entry}: executor reuse must not add traffic ({} vs {} msgs)",
        on.report.total_msgs,
        off.report.total_msgs
    );
    (off, on)
}

fn grid2(np: i64, fill: f64) -> HostValue {
    let w = (np + 1) as usize;
    HostValue::Array {
        data: vec![fill; w * w],
        bounds: vec![(0, np), (0, np)],
    }
}

#[test]
fn differential_jacobi() {
    let np = 12i64;
    let (_, on) = differential(
        listing("jacobi").unwrap(),
        "jacobi",
        4,
        &[2, 2],
        &[
            grid2(np, 0.0),
            grid2(np, 0.03),
            HostValue::Int(np),
            HostValue::Int(6),
        ],
    );
    // Looped workload: replays must dominate inspector runs.
    assert!(
        on.report.total_schedule_replays > on.report.total_inspector_runs,
        "jacobi: {} replays vs {} runs",
        on.report.total_schedule_replays,
        on.report.total_inspector_runs
    );
}

#[test]
fn differential_shift() {
    let n = 12usize;
    let (_, on) = differential(
        listing("shift").unwrap(),
        "shift",
        4,
        &[4],
        &[
            HostValue::Array {
                data: (1..=n).map(|i| i as f64).collect(),
                bounds: vec![(1, n as i64)],
            },
            HostValue::Int(n as i64),
        ],
    );
    // A single doall invocation: nothing to replay, nothing broken.
    assert_eq!(on.report.total_schedule_replays, 0);
}

#[test]
fn differential_tri() {
    let n = 32usize;
    let sys = kali::kernels::TriDiag::random_dd(n, 7);
    let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.31).cos()).collect();
    let f = sys.apply(&x_true);
    let arr = |data: Vec<f64>| HostValue::Array {
        data,
        bounds: vec![(1, n as i64)],
    };
    differential(
        listing("tri").unwrap(),
        "tri",
        4,
        &[4],
        &[
            arr(vec![0.0; n]),
            arr(f),
            arr(sys.b.clone()),
            arr(sys.a.clone()),
            arr(sys.c.clone()),
            HostValue::Int(n as i64),
        ],
    );
}

#[test]
fn differential_adi() {
    let np = 8i64;
    let (_, on) = differential(
        listing("adi").unwrap(),
        "adi",
        4,
        &[2, 2],
        &[
            grid2(np, 0.0),
            grid2(np, 0.1),
            grid2(np, 0.0),
            HostValue::Int(np),
            HostValue::Real(50.0),
            HostValue::Int(2),
            HostValue::Real(1.0),
            HostValue::Real(1.0),
        ],
    );
    // The looped workload of Listings 7/8: the structural (name-based)
    // keys must carry tric's dynamic arrays across trips.
    assert!(
        on.report.total_schedule_replays > on.report.total_inspector_runs,
        "adi: {} replays vs {} runs",
        on.report.total_schedule_replays,
        on.report.total_inspector_runs
    );
}

#[test]
fn differential_redistribution_mid_loop() {
    // A distribute between trips must invalidate the cached schedule (the
    // distribution generation is part of the key), not replay stale
    // routes — differentially checked against the cache-off truth.
    let src = r#"
parsub swap(a, b, n, niter; procs)
  processors procs(p)
  real a(n), b(n) dist (block)
  do 1000 it = 1, niter
    doall 100 i = 1, n - 1 on owner(a(i))
      a(i) = a(i) + 0.5*b(i + 1) + 0.25*b(i)
100 continue
    if (it .eq. 2) then
      distribute b (cyclic)
    endif
1000 continue
end
"#;
    let n = 16usize;
    let args = |niter| {
        [
            HostValue::Array {
                data: vec![0.0; n],
                bounds: vec![(1, n as i64)],
            },
            HostValue::Array {
                data: (0..n).map(|i| (i * i) as f64).collect(),
                bounds: vec![(1, n as i64)],
            },
            HostValue::Int(n as i64),
            HostValue::Int(niter),
        ]
    };
    let (_, on) = differential(src, "swap", 4, &[4], &args(5));
    // Trips 1-2 share a schedule; trip 3 re-inspects under the new
    // distribution; trips 4-5 replay it.
    assert_eq!(on.report.total_inspector_runs, 4 * 2);
    assert_eq!(on.report.total_schedule_replays, 4 * 3);
    // Back to blocks after trip 4: the site is placed (trips 1-2), walked
    // while `b` is cyclic and outside the placed class (trips 3-4), then
    // placed again in the buffers its first placement left (trips 5-8).
    // Each distribution is inspected once, its first trip after a
    // redistribution a lost vote on every rank. (Over six trips those two
    // wasted header rounds outweigh the replays: more messages than
    // rebuilding every trip.)
    let back = src.replace(
        "    endif\n",
        "    endif\n    if (it .eq. 4) then\n      distribute b (block)\n    endif\n",
    );
    let (_, on) = differential(&back, "swap", 4, &[4], &args(8));
    assert_eq!(on.report.total_inspector_runs, 4 * 3);
    assert_eq!(on.report.total_schedule_replays, 4 * 5);
    assert_eq!(on.report.total_rollbacks, 4 * 2);
}

#[test]
fn nested_doall_in_do_in_doall_team_call() {
    // Listing 7 shape: an outer doall whose body is a distributed
    // procedure call (team-call mode), whose callee runs a `do` loop
    // around an inner doall. Exercises doall_depth accounting and shows
    // caching is *correct* under nesting: the inner site replays across
    // the callee's `do` trips, per line, without result divergence.
    let src = r#"
parsub outer(u, r, np, niter; procs)
  processors procs(px, py)
  real u(0:np, 0:np), r(0:np, 0:np) dist (block, block)
  n = np - 1
  doall 100 i = 1, n on owner(r(i, *))
    call inner(u(i, *), r(i, *), np, niter; owner(r(i, *)))
100 continue
  return
end

parsub inner(x, g, np, niter; procs)
  processors procs(q)
  real x(0:np), g(0:np) dist (block)
  n = np - 1
  do 1000 it = 1, niter
    doall 200 j = 1, n on owner(x(j))
      x(j) = x(j) + 0.5*g(j + 1) - 0.125*x(j + 1)
200 continue
1000 continue
  return
end
"#;
    let np = 8i64;
    let niter = 4i64;
    let (_, on) = differential(
        src,
        "outer",
        4,
        &[2, 2],
        &[
            grid2(np, 1.0),
            grid2(np, 0.25),
            HostValue::Int(np),
            HostValue::Int(niter),
        ],
    );
    // Per line, the inner site inspects once and replays niter-1 times;
    // replays must dominate on every processor.
    assert!(
        on.report.total_schedule_replays > on.report.total_inspector_runs,
        "nested: {} replays vs {} runs",
        on.report.total_schedule_replays,
        on.report.total_inspector_runs
    );
    for p in &on.report.procs {
        assert!(
            p.stats.schedule_replays >= p.stats.inspector_runs,
            "proc {}: {} replays vs {} runs",
            p.rank,
            p.stats.schedule_replays,
            p.stats.inspector_runs
        );
    }
}

#[test]
fn same_site_under_intersecting_teams_stays_collective() {
    // Regression: the vote-participation gate must be per (site, team).
    // `line`'s doall site is first cached under the row slice {0, 1}
    // (procs 2, 3 never run those calls), then invoked under the column
    // slice {0, 2} — a team mixing a member that holds entries for the
    // site with one that does not. Gating the vote on the site id alone
    // desynchronized the collectives (f64 vote crossing a Vec<u64>
    // request round: type-mismatch panic / watchdog deadlock).
    let src = r#"
parsub mix(u, np, niter; procs)
  processors procs(px, py)
  real u(0:np, 0:np) dist (block, block)
  do 1000 it = 1, niter
    call line(u(1, *), np; owner(u(1, *)))
1000 continue
  call line(u(*, 1), np; owner(u(*, 1)))
  return
end

parsub line(x, np; procs)
  processors procs(q)
  real x(0:np) dist (block)
  n = np - 1
  doall 100 k = 1, n on owner(x(k))
    x(k) = x(k) + 0.5*x(k + 1)
100 continue
  return
end
"#;
    let np = 8i64;
    let (_, on) = differential(
        src,
        "mix",
        4,
        &[2, 2],
        &[grid2(np, 0.5), HostValue::Int(np), HostValue::Int(3)],
    );
    // The row-slice calls replay after the first trip; the column-slice
    // call must inspect fresh (its team has no entries), not vote.
    assert!(on.report.total_schedule_replays > 0);
}

#[test]
fn stale_read_hazard_is_a_pinned_hard_error() {
    // `ghost` sits in a branch the inspector never takes; the exchange
    // loop used to skip unresolvable names silently. It must be a hard
    // runtime error with a recognizable message.
    let src = r#"
parsub bad(a, n; procs)
  processors procs(p)
  real a(n) dist (block)
  doall 100 i = 1, n on owner(a(i))
    if (i .lt. 0) then
      a(i) = ghost(i)
    endif
100 continue
end
"#;
    for optimistic in [false, true] {
        let res = std::panic::catch_unwind(|| {
            run_source_with(
                cfg(2),
                src,
                "bad",
                &[2],
                &[
                    HostValue::Array {
                        data: vec![0.0; 8],
                        bounds: vec![(1, 8)],
                    },
                    HostValue::Int(8),
                ],
                RunOptions {
                    policy: ExecPolicy {
                        optimistic,
                        ..ExecPolicy::default()
                    },
                    ..RunOptions::default()
                },
            )
        });
        let err = match res {
            Ok(_) => panic!("optimistic={optimistic}: unbound body name must fail the run"),
            Err(e) => e,
        };
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(
            msg.contains("`ghost` is referenced in the loop body but has no binding"),
            "optimistic={optimistic}: unexpected message: {msg}"
        );
        // The error is a rendered diagnostic: stable code, source position,
        // and a caret underlining the offending expression.
        assert!(
            msg.contains("error[A001]"),
            "optimistic={optimistic}: missing code: {msg}"
        );
        assert!(
            msg.contains("--> line") && msg.contains("^"),
            "optimistic={optimistic}: missing span rendering: {msg}"
        );
    }
}
