//! Property tests for executor reuse: randomly generated small `doall`
//! bodies with affine index reads across random 1D/2D distributions must
//! produce bitwise-identical results whether the inspector runs fresh on
//! every trip or the cached schedule is replayed — and a redistribution
//! between trips must invalidate the cache, never replay a stale schedule.

use std::time::Duration;

use proptest::prelude::*;

use kali::lang::{run_source_with, HostValue, LangRun, RunOptions};
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

fn run_pair(
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
    .unwrap_or_else(|e| panic!("cache off: {e}\n{src}"));
    let on = run_source_with(cfg(p), src, entry, grid, args, RunOptions::default())
        .unwrap_or_else(|e| panic!("cache on: {e}\n{src}"));
    (off, on)
}

fn assert_equivalent(src: &str, off: &LangRun, on: &LangRun) {
    for ((_, a_off), (name, a_on)) in off.arrays.iter().zip(&on.arrays) {
        for (k, (x, y)) in a_off.iter().zip(a_on).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "array {name} diverges at flat {k}: {x} vs {y}\n{src}"
            );
        }
    }
    assert_eq!(
        off.report.total_exchange_words, on.report.total_exchange_words,
        "value traffic must be identical\n{src}"
    );
}

fn dist_name(d: usize) -> &'static str {
    if d == 0 {
        "block"
    } else {
        "cyclic"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_1d_stencils_replay_equivalently(
        logp in 0u32..3,
        extra in 0usize..12,
        o1 in -2i64..3,
        o2 in -2i64..3,
        dist_a in 0usize..2,
        dist_b in 0usize..2,
        niter in 2i64..5,
        seed in 0u64..1000,
    ) {
        let p = 1usize << logp;
        let n = (4 * p + extra).max(6);
        let lo = 1 + o1.max(o2).max(0);
        let hi = n as i64 - (-o1.min(o2).min(0));
        let src = format!(
            r#"
parsub gen(a, b, n, niter; procs)
  processors procs(p)
  real a(n) dist ({da})
  real b(n) dist ({db})
  do 1000 it = 1, niter
    doall 100 i = {lo}, {hi} on owner(a(i))
      a(i) = 0.5*a(i) + b(i - {o1}) + 0.25*b(i - {o2}) + it
100 continue
1000 continue
end
"#,
            da = dist_name(dist_a),
            db = dist_name(dist_b),
        );
        let b0: Vec<f64> = (0..n).map(|i| ((i as u64 * 37 + seed) % 101) as f64 / 10.0).collect();
        let args = [
            HostValue::Array { data: vec![0.0; n], bounds: vec![(1, n as i64)] },
            HostValue::Array { data: b0, bounds: vec![(1, n as i64)] },
            HostValue::Int(n as i64),
            HostValue::Int(niter),
        ];
        let (off, on) = run_pair(&src, "gen", p, &[p], &args);
        assert_equivalent(&src, &off, &on);
        // The doall re-enters from the do loop with nothing changed
        // (`it` is a key scalar on trip entry... it changes per trip, so
        // the schedule still replays because `it` only feeds values, not
        // subscripts). Fresh inspection exactly once per processor.
        prop_assert_eq!(on.report.total_inspector_runs, p as u64);
        prop_assert_eq!(
            on.report.total_schedule_replays,
            p as u64 * (niter as u64 - 1)
        );
        // Every replay is served by the piggybacked (optimistic) vote.
        prop_assert_eq!(
            on.report.total_optimistic_hits,
            on.report.total_schedule_replays
        );
        prop_assert_eq!(on.report.total_rollbacks, 0);
    }

    #[test]
    fn random_2d_stencils_replay_equivalently(
        p1 in 1usize..3,
        p2 in 1usize..3,
        o1 in -1i64..2,
        o2 in -1i64..2,
        niter in 2i64..4,
        seed in 0u64..1000,
    ) {
        let p = p1 * p2;
        let np = 8i64;
        let w = (np + 1) as usize;
        let lo1 = 1 + o1.max(0);
        let hi1 = np - 1 + o1.min(0);
        let lo2 = 1 + o2.max(0);
        let hi2 = np - 1 + o2.min(0);
        let src = format!(
            r#"
parsub gen2(a, b, np, niter; procs)
  processors procs(p1, p2)
  real a(0:np, 0:np), b(0:np, 0:np) dist (block, block)
  do 1000 it = 1, niter
    doall 100 (i, j) = [{lo1}, {hi1}] * [{lo2}, {hi2}] on owner(a(i, j))
      a(i, j) = 0.5*a(i, j) + b(i - {o1}, j - {o2}) + 0.125*b(i, j)
100 continue
1000 continue
end
"#
        );
        let b0: Vec<f64> = (0..w * w)
            .map(|k| ((k as u64 * 13 + seed) % 97) as f64 / 8.0)
            .collect();
        let args = [
            HostValue::Array { data: vec![0.0; w * w], bounds: vec![(0, np), (0, np)] },
            HostValue::Array { data: b0, bounds: vec![(0, np), (0, np)] },
            HostValue::Int(np),
            HostValue::Int(niter),
        ];
        let (off, on) = run_pair(&src, "gen2", p, &[p1, p2], &args);
        assert_equivalent(&src, &off, &on);
        prop_assert_eq!(on.report.total_inspector_runs, p as u64);
        prop_assert_eq!(
            on.report.total_schedule_replays,
            p as u64 * (niter as u64 - 1)
        );
        prop_assert_eq!(
            on.report.total_optimistic_hits,
            on.report.total_schedule_replays
        );
        prop_assert_eq!(on.report.total_rollbacks, 0);
    }

    #[test]
    fn redistribution_between_trips_invalidates_not_replays(
        logp in 0u32..3,
        extra in 0usize..10,
        o1 in -2i64..3,
        flip_at in 1i64..4,
        start_cyclic in 0usize..2,
        seed in 0u64..1000,
    ) {
        let p = 1usize << logp;
        let n = (4 * p + extra).max(6);
        let niter = 4i64;
        let lo = 1 + o1.max(0);
        let hi = n as i64 - (-o1.min(0));
        let (d0, d1) = if start_cyclic == 1 {
            ("cyclic", "block")
        } else {
            ("block", "cyclic")
        };
        let src = format!(
            r#"
parsub flip(a, b, n, niter; procs)
  processors procs(p)
  real a(n), b(n) dist ({d0})
  do 1000 it = 1, niter
    doall 100 i = {lo}, {hi} on owner(a(i))
      a(i) = a(i) + b(i - {o1}) + 0.5*it
100 continue
    if (it .eq. {flip_at}) then
      distribute b ({d1})
    endif
1000 continue
end
"#
        );
        let b0: Vec<f64> = (0..n).map(|i| ((i as u64 * 53 + seed) % 89) as f64 / 7.0).collect();
        let args = [
            HostValue::Array { data: vec![0.0; n], bounds: vec![(1, n as i64)] },
            HostValue::Array { data: b0, bounds: vec![(1, n as i64)] },
            HostValue::Int(n as i64),
            HostValue::Int(niter),
        ];
        let (off, on) = run_pair(&src, "flip", p, &[p], &args);
        assert_equivalent(&src, &off, &on);
        // The flip forces exactly one extra inspection per processor
        // (generation bump => key miss); everything else replays.
        prop_assert_eq!(on.report.total_inspector_runs, 2 * p as u64);
        prop_assert_eq!(
            on.report.total_schedule_replays,
            p as u64 * (niter as u64 - 2)
        );
        // Under optimistic voting the invalidated trip is exactly one
        // rollback per processor — the headers disagree, the posted
        // payloads are discarded (never a stale read: bitwise equality
        // above is against the cache-off truth), and every surviving
        // replay was served by the piggybacked vote.
        prop_assert_eq!(on.report.total_rollbacks, p as u64);
        prop_assert_eq!(
            on.report.total_optimistic_hits,
            on.report.total_schedule_replays
        );
        for proc in &on.report.procs {
            prop_assert_eq!(proc.stats.rollbacks, 1);
        }
    }
}
