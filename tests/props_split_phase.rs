//! Property tests for the split-phase machine primitives and the
//! split-phase doall engine.
//!
//! Machine level: a random message pattern executed with
//! `isend`/`irecv`+`wait` must be *equivalent* to the blocking
//! `send`/`recv` execution — bitwise-identical payloads, identical
//! words/messages on the wire, monotone virtual clocks — whenever every
//! post is immediately waited; and under arbitrary compute interleavings
//! the payloads and traffic stay identical while the split-phase
//! timeline never exceeds the blocking one. Language level: random 1-D
//! stencils across random distributions answer bitwise-identically with
//! split-phase replay on and off.

use std::time::Duration;

use proptest::prelude::*;

use kali::lang::{run_source_with, HostValue, RunOptions};
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

const T: Tag = tag(NS_USER, 0x5);

/// Ring exchange: everyone sends `rounds` messages of per-round sizes to
/// the next rank and receives from the previous one, with `work[r]` flops
/// charged between post and completion. Returns (received payload sums,
/// per-proc clock, report stats).
fn ring(
    p: usize,
    sizes: Vec<usize>,
    work: Vec<u64>,
    split: bool,
) -> (Vec<f64>, Vec<f64>, u64, u64) {
    let run = Machine::run(cfg(p), move |proc| {
        let me = proc.rank();
        let nxt = (me + 1) % proc.nprocs();
        let prv = (me + proc.nprocs() - 1) % proc.nprocs();
        let mut sum = 0.0;
        let mut clocks_monotone = true;
        let mut last_clock = proc.clock();
        for (r, &sz) in sizes.iter().enumerate() {
            let payload: Vec<f64> = (0..sz).map(|k| (me * 1000 + r * 10 + k) as f64).collect();
            let got: Vec<f64> = if split {
                proc.isend(nxt, T, payload);
                let h = proc.irecv::<Vec<f64>>(prv, T);
                proc.compute(work[r] as f64);
                proc.wait(h)
            } else {
                proc.send(nxt, T, payload);
                proc.compute(work[r] as f64);
                proc.recv(prv, T)
            };
            sum += got.iter().sum::<f64>();
            clocks_monotone &= proc.clock() >= last_clock;
            last_clock = proc.clock();
        }
        assert!(clocks_monotone, "virtual clock went backwards");
        (sum, proc.clock())
    });
    let sums = run.results.iter().map(|(s, _)| *s).collect();
    let clocks = run.results.iter().map(|(_, c)| *c).collect();
    (sums, clocks, run.report.total_words, run.report.total_msgs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn immediately_waited_interleavings_match_blocking(
        p in 2usize..6,
        sizes in prop::collection::vec(1usize..16, 1..6),
        work in prop::collection::vec(0u64..5000, 6..7),
    ) {
        let (s_block, c_block, w_block, m_block) =
            ring(p, sizes.clone(), work.clone(), false);
        let (s_split, c_split, w_split, m_split) = ring(p, sizes, work, true);
        // Bitwise-identical results and identical wire traffic.
        for (a, b) in s_block.iter().zip(&s_split) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(w_block, w_split);
        prop_assert_eq!(m_block, m_split);
        // The split-phase timeline never exceeds the blocking one (the
        // receive overhead overlaps transit, idle only shrinks).
        for (a, b) in c_block.iter().zip(&c_split) {
            prop_assert!(b <= a, "split clock {} above blocking {}", b, a);
        }
    }

    #[test]
    fn out_of_order_completion_delivers_every_payload(
        p in 2usize..6,
        n_msgs in 1usize..8,
        work in 0u64..20_000,
        rev in 0usize..2,
    ) {
        let reverse = rev == 1;
        // Post n receives, compute, complete in forward or reverse order:
        // matching is by (src, tag) FIFO so payload k always lands in
        // posting slot k, whatever the wait order.
        let run = Machine::run(cfg(p), move |proc| {
            let me = proc.rank();
            let nxt = (me + 1) % proc.nprocs();
            let prv = (me + proc.nprocs() - 1) % proc.nprocs();
            for k in 0..n_msgs {
                proc.isend(nxt, T, vec![(me * 100 + k) as f64; k + 1]);
            }
            let handles: Vec<_> =
                (0..n_msgs).map(|_| proc.irecv::<Vec<f64>>(prv, T)).collect();
            proc.compute(work as f64);
            let mut got = vec![Vec::new(); n_msgs];
            let order: Vec<usize> = if reverse {
                (0..n_msgs).rev().collect()
            } else {
                (0..n_msgs).collect()
            };
            let mut handles: Vec<_> = handles.into_iter().map(Some).collect();
            for k in order {
                got[k] = proc.wait(handles[k].take().expect("each handle waited once"));
            }
            (got, prv)
        });
        for (got, prv) in &run.results {
            for (k, payload) in got.iter().enumerate() {
                prop_assert_eq!(payload.len(), k + 1);
                prop_assert!(payload.iter().all(|&v| v == (prv * 100 + k) as f64));
            }
        }
    }

    #[test]
    fn random_1d_stencils_split_phase_equivalent(
        n in 8usize..24,
        p in 2usize..5,
        offset in 1usize..3,
        niter in 2usize..5,
        dist_kind in 0usize..3,
        seed in 0u64..50,
    ) {
        let clause = match dist_kind {
            0 => "block".to_string(),
            1 => "cyclic".to_string(),
            _ => "cyclic(2)".to_string(),
        };
        let src = format!(
            r#"
parsub s(a, b, n, niter; procs)
  processors procs(p)
  real a(n), b(n) dist ({clause})
  do 1000 it = 1, niter
    doall 100 i = 1, n - {offset} on owner(a(i))
      a(i) = a(i) + 0.5*b(i + {offset}) + 0.25*a(i + {offset})
100 continue
1000 continue
end
"#
        );
        let b0: Vec<f64> = (0..n).map(|i| ((i as u64 * 37 + seed) % 17) as f64).collect();
        let args = [
            HostValue::Array { data: vec![0.0; n], bounds: vec![(1, n as i64)] },
            HostValue::Array { data: b0, bounds: vec![(1, n as i64)] },
            HostValue::Int(n as i64),
            HostValue::Int(niter as i64),
        ];
        let go = |split: bool| {
            run_source_with(
                cfg(p),
                &src,
                "s",
                &[p],
                &args,
                RunOptions { policy: ExecPolicy { split, ..ExecPolicy::default() }, ..RunOptions::default() },
            )
            .unwrap_or_else(|e| panic!("{e}\n{src}"))
        };
        let blocking = go(false);
        let split = go(true);
        for ((_, xs), (name, ys)) in blocking.arrays.iter().zip(&split.arrays) {
            for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "array {} flat {} diverges: {} vs {}\n{}", name, k, x, y, src
                );
            }
        }
        prop_assert_eq!(
            blocking.report.total_exchange_words,
            split.report.total_exchange_words
        );
        prop_assert!(split.report.elapsed <= blocking.report.elapsed);
    }

    #[test]
    fn random_redistributions_roll_back_and_never_read_stale(
        logp in 0u32..3,
        extra in 0usize..10,
        offset in 1usize..3,
        flip_at in 1i64..5,
        flip_to in 0usize..3,
        niter in 2i64..6,
        seed in 0u64..100,
    ) {
        // A random redistribute-mid-loop sequence under optimistic
        // voting: the invalidated trip must *roll back* (one per
        // processor when the flip lands before the last trip), later
        // trips must replay through the piggybacked vote again, and the
        // answers must stay bitwise-identical to the rebuild-every-trip
        // run — a stale-route payload reaching storage would diverge.
        let p = 1usize << logp;
        let n = (4 * p + extra).max(6);
        let clause = match flip_to {
            0 => "cyclic".to_string(),
            1 => "cyclic(2)".to_string(),
            _ => "cyclic(3)".to_string(),
        };
        let src = format!(
            r#"
parsub flip(a, b, n, niter; procs)
  processors procs(p)
  real a(n), b(n) dist (block)
  do 1000 it = 1, niter
    doall 100 i = 1, n - {offset} on owner(a(i))
      a(i) = a(i) + 0.5*b(i + {offset}) + 0.25*a(i + {offset})
100 continue
    if (it .eq. {flip_at}) then
      distribute b ({clause})
    endif
1000 continue
end
"#
        );
        let b0: Vec<f64> = (0..n).map(|i| ((i as u64 * 41 + seed) % 23) as f64).collect();
        let args = [
            HostValue::Array { data: vec![0.0; n], bounds: vec![(1, n as i64)] },
            HostValue::Array { data: b0, bounds: vec![(1, n as i64)] },
            HostValue::Int(n as i64),
            HostValue::Int(niter),
        ];
        let go = |optimistic: bool| {
            run_source_with(
                cfg(p),
                &src,
                "flip",
                &[p],
                &args,
                RunOptions { policy: ExecPolicy { optimistic, ..ExecPolicy::default() }, ..RunOptions::default() },
            )
            .unwrap_or_else(|e| panic!("{e}\n{src}"))
        };
        let pess = go(false);
        let opt = go(true);
        for ((_, xs), (name, ys)) in pess.arrays.iter().zip(&opt.arrays) {
            for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "array {} flat {} diverges: {} vs {}\n{}", name, k, x, y, src
                );
            }
        }
        prop_assert_eq!(
            pess.report.total_exchange_words,
            opt.report.total_exchange_words
        );
        // Exact counter accounting: the baseline inspects on every trip;
        // optimistically trip 1 is cold, a flip before the last trip
        // makes trip flip_at+1 the single rollback, and every other warm
        // trip is a piggybacked-vote hit.
        prop_assert_eq!(pess.report.total_schedule_replays, 0);
        prop_assert_eq!(pess.report.total_inspector_runs, p as u64 * niter as u64);
        let flips = u64::from(flip_at < niter);
        prop_assert_eq!(opt.report.total_rollbacks, p as u64 * flips);
        prop_assert_eq!(
            opt.report.total_optimistic_hits,
            p as u64 * (niter as u64 - 1 - flips)
        );
        prop_assert_eq!(
            opt.report.total_optimistic_hits,
            opt.report.total_schedule_replays
        );
        prop_assert_eq!(pess.report.total_optimistic_hits, 0);
        prop_assert_eq!(pess.report.total_rollbacks, 0);
    }
}
