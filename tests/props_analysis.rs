//! Property tests for the compile-time analyzer: random well-formed
//! stencil programs must come back clean, carry a static communication
//! plan, and — seeded — replay their cold trip bitwise-identically to
//! the inspector path with exact counters; lowered to row kernels, they
//! must compute, communicate and charge exactly what the tree-walker
//! does; random seeded-fault programs must be flagged by the analyzer
//! *and* rejected by the runtime, with the two verdicts agreeing. The
//! checked-in `tests/corpus/bad` files are pinned here too: each must
//! produce the diagnostic code its file name promises, with a usable
//! span.

use std::collections::BTreeSet;
use std::time::Duration;

use proptest::prelude::*;

use kali::lang::token::{lex, Tok};
use kali::lang::{
    analyze, comm_plans, parse, run_source_with, HostValue, LangRun, RunOptions, Span,
};
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

fn dist_name(d: usize) -> &'static str {
    if d == 0 {
        "block"
    } else {
        "cyclic"
    }
}

/// Run `src` on the inspector path and on the statically seeded path;
/// both must succeed with bitwise-identical arrays and value traffic.
fn run_seeded_pair(
    src: &str,
    entry: &str,
    p: usize,
    grid: &[usize],
    args: &[HostValue],
) -> (LangRun, LangRun) {
    let inspect = run_source_with(cfg(p), src, entry, grid, args, RunOptions::default())
        .unwrap_or_else(|e| panic!("inspector path: {e}\n{src}"));
    let seeded = run_source_with(
        cfg(p),
        src,
        entry,
        grid,
        args,
        RunOptions {
            static_seed: true,
            ..RunOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("seeded path: {e}\n{src}"));
    for ((_, a), (name, b)) in inspect.arrays.iter().zip(&seeded.arrays) {
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "array {name} diverges at flat {k}: {x} vs {y}\n{src}"
            );
        }
    }
    assert_eq!(
        inspect.report.total_exchange_words, seeded.report.total_exchange_words,
        "static schedule must move exactly the inspector's value words\n{src}"
    );
    (inspect, seeded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random affine 1D stencils: analyzer clean, plan extracted, and the
    /// seeded run replays every trip — including the cold one — with
    /// zero inspector runs and exact replay/hit counters.
    #[test]
    fn random_stencils_are_clean_and_seed_with_exact_counters(
        logp in 1u32..3,
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
        let prog = parse(&src).expect("generated program parses");
        let diags = analyze(&prog);
        prop_assert!(diags.is_empty(), "well-formed program flagged: {diags:?}\n{src}");
        let plans = comm_plans(&prog);
        prop_assert_eq!(plans.len(), 1, "stencil body must be analyzable\n{}", src);
        prop_assert_eq!(plans.values().next().unwrap().reads.len(), 3);

        let b0: Vec<f64> = (0..n).map(|i| ((i as u64 * 37 + seed) % 101) as f64 / 10.0).collect();
        let args = [
            HostValue::Array { data: vec![0.0; n], bounds: vec![(1, n as i64)] },
            HostValue::Array { data: b0, bounds: vec![(1, n as i64)] },
            HostValue::Int(n as i64),
            HostValue::Int(niter),
        ];
        let (inspect, seeded) = run_seeded_pair(&src, "gen", p, &[p], &args);
        // Inspector path: one cold inspection per processor, niter-1
        // replays each. Seeded path: zero inspections, niter replays.
        prop_assert_eq!(inspect.report.total_inspector_runs, p as u64);
        prop_assert_eq!(seeded.report.total_inspector_runs, 0);
        prop_assert_eq!(seeded.report.total_schedule_replays, p as u64 * niter as u64);
        prop_assert_eq!(seeded.report.total_optimistic_hits, seeded.report.total_schedule_replays);
        prop_assert_eq!(seeded.report.total_rollbacks, 0);
    }

    /// Seeded faults: an undeclared array read (A001) or a provably
    /// non-owned shifted write (A005). The analyzer must flag the exact
    /// code, and the runtime must reject the same program — static and
    /// dynamic verdicts agree.
    #[test]
    fn seeded_faults_flag_statically_and_fail_dynamically(
        logp in 1u32..3,
        extra in 0usize..10,
        fault in 0usize..2,
        seed in 0u64..1000,
    ) {
        let p = 1usize << logp;
        let n = 4 * p + extra;
        // Fault 0 hides the undeclared read in a branch the inspector
        // never takes, so only the exchange-time A001 guard can catch it
        // — the exact hazard the analyzer reports ahead of time.
        let (body, code, runtime_hint) = match fault {
            0 => (
                "if (i .lt. 0) then\n      a(i) = ghost(i)\n    endif",
                "A001",
                "error[A001]",
            ),
            _ => ("a(i + 1) = a(i)", "A005", "owner-computes violation"),
        };
        let src = format!(
            r#"
parsub gen(a, n; procs)
  processors procs(p)
  real a(n) dist (block)
  doall 100 i = 1, n - 1 on owner(a(i))
    {body}
100 continue
end
"#
        );
        let prog = parse(&src).expect("generated program parses");
        let diags = analyze(&prog);
        prop_assert!(
            diags.iter().any(|d| d.code == code),
            "expected {} in {:?}\n{}", code, diags, src
        );
        prop_assert!(!diags[0].span.is_empty(), "diagnostic must carry a span");

        let a0: Vec<f64> = (0..n).map(|i| ((i as u64 * 7 + seed) % 13) as f64).collect();
        let args = [
            HostValue::Array { data: a0, bounds: vec![(1, n as i64)] },
            HostValue::Int(n as i64),
        ];
        let res = std::panic::catch_unwind(|| {
            run_source_with(cfg(p), &src, "gen", &[p], &args, RunOptions::default())
        });
        let msg = match res {
            Ok(_) => panic!("faulty program must fail at runtime\n{src}"),
            Err(e) => e
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into()),
        };
        prop_assert!(
            msg.contains(runtime_hint),
            "runtime verdict disagrees with the analyzer: {msg}\n{src}"
        );
    }
}

/// A small deterministic generator (SplitMix64) for the random stencils
/// below.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// An element read of `x` or `b`, every subscript `var ± c` with
    /// `c` in −2..=2; its offsets are appended to `offs`.
    fn read(&mut self, vars: &[&str], offs: &mut Vec<Vec<i64>>) -> String {
        let array = ["x", "b"][self.below(2) as usize];
        let off: Vec<i64> = vars.iter().map(|_| self.below(5) as i64 - 2).collect();
        let subs: Vec<String> = vars
            .iter()
            .zip(&off)
            .map(|(v, &c)| match c {
                0 => v.to_string(),
                c if c > 0 => format!("{v} + {c}"),
                c => format!("{v} - {}", -c),
            })
            .collect();
        offs.push(off);
        format!("{array}({})", subs.join(", "))
    }

    /// A right-hand side of depth at most `depth` — the one generator of
    /// every random body below: element reads (`read(g, false)`), the six
    /// `leaves` (constants and invariants) and the integer product
    /// `product - c`, under `+ − *`, unary `−`, and `/` by a real constant
    /// or a divisor read (`read(g, true)`, whose values are ≥ 1, so nothing
    /// divides by zero).
    fn expr(
        &mut self,
        depth: usize,
        leaves: &[&str],
        product: &str,
        read: &mut dyn FnMut(&mut Gen, bool) -> String,
    ) -> String {
        match self.below(if depth == 0 { 4 } else { 9 }) {
            0 | 1 => read(self, false),
            2 => leaves[self.below(leaves.len() as u64) as usize].to_string(),
            3 => format!("{product} - {}", self.below(4)),
            4 => format!("-({})", self.expr(depth - 1, leaves, product, read)),
            5 => {
                let num = self.expr(depth - 1, leaves, product, read);
                let den = match self.below(2) {
                    0 => "0.25".to_string(),
                    _ => read(self, true),
                };
                format!("({num}) / {den}")
            }
            op => {
                let l = self.expr(depth - 1, leaves, product, read);
                let r = self.expr(depth - 1, leaves, product, read);
                format!("({l} {} {r})", ["+", "-", "*"][op as usize - 6])
            }
        }
    }

    /// A stencil right-hand side: reads of `x` and `b` at offsets (divisors
    /// read `b`, whose values are ≥ 1), the integer scalars `k` and `it` and
    /// the real `s`.
    fn rhs(&mut self, depth: usize, vars: &[&str], offs: &mut Vec<Vec<i64>>) -> String {
        let mut read = |g: &mut Gen, divisor: bool| {
            let r = g.read(vars, offs);
            if divisor {
                format!("b{}", &r[1..])
            } else {
                r
            }
        };
        self.expr(
            depth,
            &["0.5", "1.25", "k", "it", "s", "3"],
            "k*it",
            &mut read,
        )
    }
}

/// Run `a` and its twin `b` — entry `gen` on `grid` with `args` — on
/// both backends under policy square `policy` (bit 0 split, bit 1
/// optimistic): they agree bit for bit on every array and, `exact`, on
/// every message, word and protocol counter and on the simulator's
/// clocks. Returns the simulator's reports of `a` and `b`.
fn twins_agree(
    a: &str,
    b: &str,
    grid: &[usize],
    args: &[HostValue],
    policy: usize,
    exact: bool,
) -> [RunReport; 2] {
    let opts = RunOptions {
        policy: ExecPolicy {
            split: policy & 1 == 1,
            optimistic: policy & 2 == 2,
        },
        ..RunOptions::default()
    };
    let mut sim = None;
    for backend in [BackendKind::Sim, BackendKind::Threads] {
        let run = |src: &str| {
            let cfg = cfg_on(backend, grid.iter().product());
            run_source_with(cfg, src, "gen", grid, args, opts)
                .unwrap_or_else(|e| panic!("{e}\n{src}"))
        };
        let (x, y) = (run(a), run(b));
        for ((name, u), (_, v)) in x.arrays.iter().zip(&y.arrays) {
            for (s, t) in u.iter().zip(v) {
                assert_eq!(
                    s.to_bits(),
                    t.to_bits(),
                    "{backend:?} {name}: {s} vs {t}\n{a}"
                );
            }
        }
        if exact {
            let counters = |r: &RunReport| {
                [
                    r.total_msgs,
                    r.total_words,
                    r.total_exchange_words,
                    r.total_inspector_runs,
                    r.total_schedule_replays,
                    r.total_optimistic_hits,
                    r.total_rollbacks,
                ]
            };
            assert_eq!(counters(&x.report), counters(&y.report), "{backend:?}\n{a}");
            let clocks = |r: &RunReport| {
                let procs = r.procs.iter().map(|p| p.clock.to_bits());
                let totals = [r.elapsed, r.total_flops, r.overlap_hidden_seconds];
                totals
                    .map(f64::to_bits)
                    .into_iter()
                    .chain(procs)
                    .collect::<Vec<_>>()
            };
            assert_eq!(clocks(&x.report), clocks(&y.report), "{backend:?}\n{a}");
        }
        sim.get_or_insert([x.report, y.report]);
    }
    sim.expect("the simulator ran")
}

fn cfg_on(backend: BackendKind, p: usize) -> MachineConfig {
    Machine::build(backend, Topology::FullyConnected, CostModel::ipsc2())
        .procs(p)
        .watchdog(Duration::from_secs(60))
        .config()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random 1-D and 2-D affine stencils on block grids of one to four
    /// processors, with extents the grid does not divide: the lowered
    /// row kernel and the tree-walker — reached through program text, a
    /// twin whose body goes through a scalar temporary and so has no
    /// plan — agree bit for bit on the result, on every message, word
    /// and protocol counter, and on the simulator's clock.
    #[test]
    fn lowered_stencils_match_the_walker_bitwise(
        seed in 0u64..1_000_000,
        dims in 1usize..3,
        p in 1usize..5,
        policy in 0usize..4,
        niter in 1i64..4,
    ) {
        let mut g = Gen(seed);
        let grid: Vec<usize> = match dims {
            1 => vec![p],
            _ if p == 4 && g.below(2) == 0 => vec![2, 2],
            _ => if g.below(2) == 0 { vec![p, 1] } else { vec![1, p] },
        };
        // Extents the grid does not divide (where it divides at all), and
        // now and then rows longer than the 64 iterations a placed stencil
        // runs at once: up to 3·64 + 7 a rank.
        let long = g.below(3) == 0;
        let extents: Vec<usize> = grid
            .iter()
            .enumerate()
            .map(|(d, &q)| match q {
                _ if long && d + 1 == dims => {
                    q * (1 + g.below(3 * 64 + 7) as usize) + g.below(q as u64) as usize
                }
                1 => 4 + g.below(6) as usize,
                q => q * (3 + g.below(3) as usize) + 1 + g.below(q as u64 - 1) as usize,
            })
            .collect();
        let vars = ["i", "j"];
        let vars = &vars[..dims];
        let mut offs = Vec::new();
        let rhs = g.rhs(3, vars, &mut offs);
        // Loop bounds keep every read inside the arrays, now and then
        // with a little slack.
        let lb = g.below(2) as i64;
        let ranges: Vec<(i64, i64)> = (0..dims)
            .map(|d| {
                let lo = offs.iter().map(|o| -o[d]).fold(0, i64::max);
                let hi = offs.iter().map(|o| o[d]).fold(0, i64::max);
                let slack = g.below(2) as i64;
                (lb + lo + slack, lb + extents[d] as i64 - 1 - hi)
            })
            .collect();
        let decl: Vec<String> = extents.iter().map(|e| format!("{lb}:{}", lb + *e as i64 - 1)).collect();
        let header = match dims {
            1 => format!("doall 100 i = {}, {} on owner(x(i))", ranges[0].0, ranges[0].1),
            _ => format!(
                "doall 100 (i, j) = [{}, {}] * [{}, {}] on owner(x(i, j))",
                ranges[0].0, ranges[0].1, ranges[1].0, ranges[1].1
            ),
        };
        let target = format!("x({})", vars.join(", "));
        let program = |body: &str| {
            format!(
                "parsub gen(x, b, niter; procs)\n  processors procs({procs})\n  \
                 real x({decl}), b({decl}) dist ({dist})\n  k = 3\n  s = 0.375\n  \
                 do 1000 it = 1, niter\n    {header}\n{body}\n100 continue\n1000 continue\nend\n",
                procs = ["p", "q"][..dims].join(", "),
                decl = decl.join(", "),
                dist = vec!["block"; dims].join(", "),
            )
        };
        let lowered = program(&format!("      {target} = {rhs}"));
        let walked = program(&format!("      t = {rhs}\n      {target} = t"));
        let len: usize = extents.iter().product();
        let array = |f: fn(usize) -> f64| HostValue::Array {
            data: (0..len).map(f).collect(),
            bounds: extents.iter().map(|&e| (lb, lb + e as i64 - 1)).collect(),
        };
        let args = [
            array(|k| (k % 13) as f64 * 0.125 - 0.5),
            array(|k| 1.0 + (k % 7) as f64 * 0.25),
            HostValue::Int(niter),
        ];
        twins_agree(&lowered, &walked, &grid, &args, policy, true);
    }
}

/// One random statement list for a compiled `do k` loop: targets first —
/// `x`, `y` or the distributed section `r`, each written at one offset —
/// then right-hand sides over reads `a(k ± c)` of every line array (a
/// written one at its target's offset, the others at any offset in
/// −2..=2), Int and Real invariants (`kk`, `sc`, `kk*ip - 1`, `g(2*ip -
/// 1)`, constants, and `g(1)` and `g(2*q)`, which another processor owns
/// unless `ip` is 1 or `q`) and `+ − *`, unary `−`, and `/` by a constant
/// or by a read of `d` (never written, every value ≥ 1). Returns the
/// targets with their offsets and the right-hand sides.
fn loop_body(g: &mut Gen) -> (Vec<(&'static str, i64)>, Vec<String>) {
    let count = 1 + g.below(4) as usize;
    let mut targets: Vec<(&str, i64)> = Vec::new();
    for _ in 0..count {
        let slot = ["x", "y", "r"][g.below(3) as usize];
        let off = match targets.iter().find(|(s, _)| *s == slot) {
            Some(&(_, off)) => off,
            None => g.below(5) as i64 - 2,
        };
        targets.push((slot, off));
    }
    let sub = |off: i64| match off {
        0 => "k".to_string(),
        c if c > 0 => format!("k + {c}"),
        c => format!("k - {}", -c),
    };
    let mut read = |g: &mut Gen, divisor: bool| {
        let slot = match divisor {
            true => "d",
            false => ["x", "y", "r", "s", "d"][g.below(5) as usize],
        };
        let off = match targets.iter().find(|(s, _)| *s == slot) {
            Some(&(_, off)) => off,
            None => g.below(5) as i64 - 2,
        };
        format!("{slot}({})", sub(off))
    };
    let leaves = [
        "0.5",
        "1.25",
        "kk",
        "sc",
        "3",
        "g(2*ip - 1)",
        "g(1)",
        "g(2*q)",
    ];
    let rhss = (0..count)
        .map(|_| g.expr(3, &leaves, "kk*ip", &mut read))
        .collect();
    (targets, rhss)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random `do` loops of element assignments inside one-iteration
    /// doalls on `procs(ip)`, over whole arrays and `u(i, *)` / `u(*, j)`
    /// sections (one distributed like the arrays, one on a single owner),
    /// on one to four processors, some blocks longer than a compiled chunk:
    /// the loop compiled as a strided kernel
    /// and the tree-walker — reached through program text, a twin whose
    /// statements route each right-hand side through a scalar temporary,
    /// which keeps the loop out of the compiled class — agree bit for bit
    /// on the results, on every message, word and protocol counter, and
    /// on the simulator's clocks.
    #[test]
    fn compiled_loops_match_the_walker_bitwise(
        seed in 0u64..1_000_000,
        p in 1usize..5,
        policy in 0usize..4,
        niter in 1i64..4,
        rows in 0usize..2,
    ) {
        let mut g = Gen(seed);
        // One case in four gives every processor 65..=140 elements: two or
        // three of the compiled loop's 64-iteration chunks.
        let per = match g.below(4) {
            0 => 65 + g.below(76),
            _ => 3 + g.below(4),
        };
        let n = p * per as usize + g.below(p as u64) as usize;
        let (targets, rhss) = loop_body(&mut g);
        let tmin = targets.iter().map(|t| t.1).min().unwrap();
        let tmax = targets.iter().map(|t| t.1).max().unwrap();
        let shifted = |v: &str, c: i64| match c {
            0 => v.to_string(),
            c if c > 0 => format!("{v} + {c}"),
            c => format!("{v} - {}", -c),
        };
        let sub = |off: i64| shifted("k", off);
        // `r` is the section distributed like `x`, `s` the one a single
        // processor owns; both move with the outer iteration. Now and then
        // `s` aliases `x` or `y` instead, which a loop writing them at
        // another offset must not compile.
        let (layout, r, s) = match rows {
            0 => ("(*, block)", "u(it, *)", "u(*, mod(it, n) + 1)"),
            _ => ("(block, *)", "u(*, it)", "u(mod(it, n) + 1, *)"),
        };
        let s = ["x", "y", s, s][g.below(4) as usize];
        let program = |body: &str| {
            format!(
                "parsub gen(x, y, d, u, g, n, niter; procs)\n  processors procs(p)\n  \
                 real x(n), y(n), d(n) dist (block)\n  real u(n, n) dist {layout}\n  \
                 real g(2*p) dist (block)\n  kk = 3\n  sc = 0.375\n  \
                 do 1000 it = 1, niter\n    call line(x, y, d, {r}, {s}, g, n, kk, sc; procs)\n\
                 1000 continue\nend\n\n\
                 parsub line(x, y, d, r, s, g, n, kk, sc; procs)\n  processors procs(q)\n  \
                 real x(n), y(n), d(n), r(n), s(n) dist (block)\n  real g(2*q) dist (block)\n  \
                 integer lo, hi\n  doall 100 ip = 1, q on procs(ip)\n    \
                 lo = lower(x, procs(ip))\n    hi = upper(x, procs(ip))\n    \
                 do 50 k = max({}, 3), min({}, n - 2)\n{body}\n50  continue\n100 continue\nend\n",
                shifted("lo", -tmin),
                shifted("hi", -tmax),
            )
        };
        let assign = |(t, off): &(&str, i64), rhs: &String| format!("{t}({}) = {rhs}", sub(*off));
        let compiled: Vec<String> = targets.iter().zip(&rhss).map(|(t, e)| format!("      {}", assign(t, e))).collect();
        let walked: Vec<String> = targets
            .iter()
            .zip(&rhss)
            .map(|(t, e)| format!("      tmp = {e}\n      {}", assign(t, &"tmp".to_string())))
            .collect();
        let (compiled, walked) = (program(&compiled.join("\n")), program(&walked.join("\n")));
        let vector = |f: fn(usize) -> f64| HostValue::Array {
            data: (0..n).map(f).collect(),
            bounds: vec![(1, n as i64)],
        };
        let args = [
            vector(|k| (k % 13) as f64 * 0.125 - 0.5),
            vector(|k| (k % 5) as f64 * 0.75 + 0.25),
            vector(|k| 1.0 + (k % 7) as f64 * 0.25),
            HostValue::Array {
                data: (0..n * n).map(|k| (k % 11) as f64 * 0.375 - 1.0).collect(),
                bounds: vec![(1, n as i64); 2],
            },
            HostValue::Array {
                data: (0..2 * p).map(|k| 0.5 + k as f64).collect(),
                bounds: vec![(1, 2 * p as i64)],
            },
            HostValue::Int(n as i64),
            HostValue::Int(niter),
        ];
        twins_agree(&compiled, &walked, &[p], &args, policy, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random line solvers — a `do` loop from [`loop_body`] over line
    /// sections, a gathered reduced system, a correction and a stencil
    /// with many iterations a line, six trips in all — called from a team-call doall over the rows or the columns of
    /// 2-D block arrays on every grid of one to four processors, with line
    /// counts the grid does not divide and, one case in four each, teams
    /// that own more lines than a batch holds and blocks longer than a
    /// chunk. In lockstep, and line by line through a twin that
    /// passes the line index as a scalar (which leaves the class): the
    /// same bits on both backends under every policy square, on fewer or
    /// as many messages.
    #[test]
    fn batched_lines_match_line_by_line_bitwise(
        seed in 0u64..1_000_000,
        p in 1usize..5,
        policy in 0usize..4,
        niter in 1i64..3,
        rows in 0usize..2,
    ) {
        let mut g = Gen(seed);
        let grid = match p {
            4 if g.below(2) == 0 => vec![2, 2],
            _ if g.below(2) == 0 => vec![p, 1],
            _ => vec![1, p],
        };
        // One case in four, a team's block is longer than a compiled
        // loop's chunk (64 iterations): its rows cross a chunk seam. One in
        // four, each team owns more lines than a batch holds
        // (`LINES_PER_BATCH` = 64): 65 to 96 of the `teams` · 65 to
        // `teams` · 96 + `teams` − 1, so a full batch and a short
        // remainder, whose schedules have keys of their own.
        let (q, teams) = (grid[1 - rows] as u64, grid[rows] as u64);
        let n = match g.below(4) {
            0 => 64 * q + 1 + g.below(16 * q),
            1 => teams * (65 + g.below(32)) + g.below(teams),
            _ => 8 + g.below(33),
        } as usize;
        let (targets, rhss) = loop_body(&mut g);
        let tmin = targets.iter().map(|t| t.1).min().unwrap();
        let tmax = targets.iter().map(|t| t.1).max().unwrap();
        let shifted = |v: &str, c: i64| match c {
            0 => v.to_string(),
            c if c > 0 => format!("{v} + {c}"),
            c => format!("{v} - {}", -c),
        };
        let (line, cross) = [("i, *", "*, i"), ("*, i", "i, *")][rows];
        // `s` is a third line, or aliases `x`, or crosses the other lines
        // of `y`: sharing a base with another argument, the last two take
        // the call back to line by line. A crossing line is the team's
        // only where one processor spans the lines' dimension; elsewhere
        // the call is an error, on both twins alike.
        let crossing = if grid[rows] == 1 { 4 } else { 3 };
        let s = [("w", line), ("w", line), ("u", line), ("v", cross)][g.below(crossing) as usize];
        let body: Vec<String> = targets
            .iter()
            .zip(&rhss)
            .map(|((t, off), e)| format!("      {t}({}) = {e}", shifted("k", *off)))
            .collect();
        let program = |scalar: &str| {
            format!(
                "parsub gen(u, v, w, dd, n, niter; procs)\n  processors procs(p1, p2)\n  \
                 real u(n, n), v(n, n), w(n, n), dd(n, n) dist (block, block)\n  \
                 kk = 3\n  sc = 0.375\n  do 1000 it = 1, niter\n    \
                 doall 200 i = 1, n on owner(u({line}))\n      \
                 call line(u({line}), v({line}), {}({}), dd({line}), n, kk, sc{scalar}; \
                 owner(u({line})))\n200 continue\n1000 continue\nend\n\n\
                 parsub line(x, y, s, d, n, kk, sc{scalar}; procs)\n  processors procs(q)\n  \
                 real x(n), y(n), s(n), d(n) dist (block)\n  \
                 dynamic real r(n), g(2*q), rb(2*q) dist (block)\n  \
                 dynamic real wb(2*q, q) dist (*, block)\n  integer lo, hi\n  \
                 doall 90 ip = 1, q on procs(ip)\n    g(2*ip - 1) = 0.5 + ip\n    \
                 g(2*ip) = 1.5 + ip\n    lo = lower(x, procs(ip))\n    hi = upper(x, procs(ip))\n    \
                 do 40 k = lo, hi\n      r(k) = 0.25*k\n40  continue\n90 continue\n  \
                 doall 100 ip = 1, q on procs(ip)\n    lo = lower(x, procs(ip))\n    \
                 hi = upper(x, procs(ip))\n    do 50 k = max({}, 3), min({}, n - 2)\n{}\n50  continue\n    \
                 rb(2*ip - 1) = x(lo) + r(lo)\n    rb(2*ip) = y(hi)\n100 continue\n  \
                 doall 300 ip = 1, q on procs(ip)\n    do 250 k = 1, 2*q\n      wb(k, ip) = rb(k)\n\
                 250 continue\n300 continue\n  doall 400 ip = 1, q on procs(ip)\n    \
                 lo = lower(x, procs(ip))\n    x(lo) = x(lo) + wb(1, ip) - 0.5*wb(2*q, ip)\n\
                 400 continue\n  doall 500 k = 2, n - 1 on owner(y(k))\n    \
                 y(k) = 0.5*y(k) + 0.25*(y(k - 1) + y(k + 1))\n500 continue\n  return\nend\n",
                s.0,
                s.1,
                shifted("lo", -tmin),
                shifted("hi", -tmax),
                body.join("\n"),
            )
        };
        let (batched, per_line) = (program(""), program(", i"));
        let array = |f: fn(usize) -> f64| HostValue::Array {
            data: (0..n * n).map(f).collect(),
            bounds: vec![(1, n as i64); 2],
        };
        let args = [
            array(|k| (k % 13) as f64 * 0.125 - 0.5),
            array(|k| (k % 5) as f64 * 0.75 + 0.25),
            array(|k| (k % 11) as f64 * 0.375 - 1.0),
            array(|k| 1.0 + (k % 7) as f64 * 0.25),
            HostValue::Int(n as i64),
            HostValue::Int(niter),
        ];
        let [a, b] = twins_agree(&batched, &per_line, &grid, &args, policy, false);
        prop_assert!(a.total_msgs <= b.total_msgs, "{} > {}\n{}", a.total_msgs, b.total_msgs, batched);
    }
}

/// A right-hand side over `reads`, linear so that every value stays
/// finite: one to three terms — a read, scaled by a constant or the real
/// `sc`, divided by one of `divisors` (never written, every value ≥ 1), or
/// negated, or an Int or Real invariant — under `+` and `−`.
fn linear(g: &mut Gen, reads: &[&str], divisors: &[&str]) -> String {
    let pick = |g: &mut Gen, from: &[&str]| from[g.below(from.len() as u64) as usize].to_string();
    let mut rhs = String::new();
    for t in 0..1 + g.below(3) {
        let read = pick(g, reads);
        let term = match g.below(6) {
            0 => read,
            1 => format!("0.5*{read}"),
            2 => format!("{read} / {}", pick(g, divisors)),
            3 => format!("(-{read})"),
            4 => format!("{read}*sc"),
            _ => pick(g, &["kk", "sc", "1.25", "kk*ip - 1"]),
        };
        rhs = match t {
            0 => term,
            _ => format!("{rhs} {} {term}", ["+", "-"][g.below(2) as usize]),
        };
    }
    rhs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random `tric`-like callees of a team call over the rows or the
    /// columns of 2-D block arrays, on every grid of one to four
    /// processors: runs of one to eight element assignments with scalar
    /// subscripts, on line sections and dynamic arrays (`x(lo)`,
    /// `rb(2*ip)`, `wb(2*q, ip)`), `if`-guarded single assignments, and a
    /// loop over rank-2 references (`wb(k, ip) = rb(k)`). Compiled over the
    /// line axis, they compute, communicate and charge exactly what their
    /// twin does whose right-hand sides are wrapped in `min(…, 1.0e300)` —
    /// the same value and flops, out of the class, so every run and loop is
    /// walked — on both backends under every policy square; and they
    /// compute the bits of line-by-line execution (a line-index argument),
    /// on fewer or as many messages. Now and then a read is subscripted by
    /// elements (`y(hi - abs(mod(8*x(lo), 2)))`, which differs from line to
    /// line), which takes its run back to the walker; reads of another
    /// member's `rb(1)` or `x(1)` do so in the inspector, and so does a
    /// doall of many iterations a rank (`y(k) = …` on `owner(y(k))`), whose
    /// writes are logged, always.
    #[test]
    fn element_runs_match_line_by_line_bitwise(
        seed in 0u64..1_000_000,
        p in 1usize..5,
        policy in 0usize..4,
        niter in 1i64..3,
        rows in 0usize..2,
    ) {
        let mut g = Gen(seed);
        let grid = match p {
            4 if g.below(2) == 0 => vec![2, 2],
            _ if g.below(2) == 0 => vec![p, 1],
            _ => vec![1, p],
        };
        let n = 8 + g.below(33) as usize;
        let line = ["i, *", "*, i"][rows];
        let defeat = g.below(3) == 0;
        let run = |g: &mut Gen, len: u64, targets: &[&str], reads: &[&str]| {
            let mut reads = reads.to_vec();
            if defeat {
                reads.push("y(hi - abs(mod(8*x(lo), 2)))");
            }
            (0..1 + g.below(len))
                .map(|_| {
                    let t = targets[g.below(targets.len() as u64) as usize];
                    (t.to_string(), linear(g, &reads, &["d(lo)", "d(hi)"]))
                })
                .collect::<Vec<_>>()
        };
        let first = run(
            &mut g,
            8,
            &["x(lo)", "x(hi)", "y(lo)", "r(lo)", "r(hi)", "rb(2*ip - 1)", "rb(2*ip)", "ra(2*ip)"],
            &["x(lo)", "x(hi)", "y(lo)", "y(hi)", "r(lo)", "r(hi)", "rb(2*ip - 1)", "rb(2*ip)", "rb(1)", "x(1)"],
        );
        let guarded = run(&mut g, 2, &["x(lo)", "y(hi)", "rb(2*ip)"], &["x(lo)", "y(hi)", "r(lo)"]);
        let gather = run(&mut g, 3, &["wb(k, ip)", "wc(k, ip)"], &["rb(k)", "ra(k)", "rb(2*ip)"]);
        let last = run(
            &mut g,
            8,
            &["x(lo)", "x(hi)", "y(hi)"],
            &["wb(1, ip)", "wb(2*q, ip)", "wb(2*ip - 1, ip)", "wc(2*ip, ip)", "x(lo)", "y(lo)"],
        );
        let program = |walk: bool, scalar: &str| {
            let assign = |(t, rhs): &(String, String)| match walk {
                true => format!("{t} = min({rhs}, 1.0e300)"),
                false => format!("{t} = {rhs}"),
            };
            let block = |stmts: &[(String, String)], indent: &str| {
                let lines: Vec<String> = stmts.iter().map(|s| format!("{indent}{}", assign(s))).collect();
                lines.join("\n")
            };
            let guards = ["lo .eq. 1", "hi .eq. n"];
            let guarded: Vec<String> = (guarded.iter().zip(guards))
                .map(|(s, c)| format!("    if ({c}) {}", assign(s)))
                .collect();
            format!(
                "parsub gen(u, v, dd, n, niter; procs)\n  processors procs(p1, p2)\n  \
                 real u(n, n), v(n, n), dd(n, n) dist (block, block)\n  \
                 kk = 3\n  sc = 0.375\n  do 1000 it = 1, niter\n    \
                 doall 200 i = 1, n on owner(u({line}))\n      \
                 call line(u({line}), v({line}), dd({line}), n, kk, sc{scalar}; owner(u({line})))\n\
                 200 continue\n1000 continue\nend\n\n\
                 parsub line(x, y, d, n, kk, sc{scalar}; procs)\n  processors procs(q)\n  \
                 real x(n), y(n), d(n) dist (block)\n  \
                 dynamic real r(n), rb(2*q), ra(2*q) dist (block)\n  \
                 dynamic real wb(2*q, q), wc(2*q, q) dist (*, block)\n  integer lo, hi\n  \
                 doall 100 ip = 1, q on procs(ip)\n    lo = lower(x, procs(ip))\n    \
                 hi = upper(x, procs(ip))\n    do 40 k = lo, hi\n      r(k) = 0.25*k + x(k)\n\
                 40  continue\n{}\n{}\n100 continue\n  doall 300 ip = 1, q on procs(ip)\n    \
                 do 250 k = 1, 2*q\n{}\n250 continue\n300 continue\n  \
                 doall 400 ip = 1, q on procs(ip)\n    lo = lower(x, procs(ip))\n    \
                 hi = upper(x, procs(ip))\n{}\n400 continue\n  \
                 doall 600 k = 2, n - 1 on owner(y(k))\n    {}\n    {}\n600 continue\n  \
                 return\nend\n",
                block(&first, "    "),
                guarded.join("\n"),
                block(&gather, "      "),
                block(&last, "    "),
                assign(&("y(k)".into(), "0.5*y(k) + 0.25*(y(k - 1) + y(k + 1))".into())),
                assign(&("r(k)".into(), "y(k) - sc*x(k)".into())),
            )
        };
        let (compiled, walked, per_line) = (program(false, ""), program(true, ""), program(false, ", i"));
        let array = |f: fn(usize) -> f64| HostValue::Array {
            data: (0..n * n).map(f).collect(),
            bounds: vec![(1, n as i64); 2],
        };
        let args = [
            array(|k| (k % 13) as f64 * 0.125 - 0.5),
            array(|k| (k % 5) as f64 * 0.75 + 0.25),
            array(|k| 1.0 + (k % 7) as f64 * 0.25),
            HostValue::Int(n as i64),
            HostValue::Int(niter),
        ];
        twins_agree(&compiled, &walked, &grid, &args, policy, true);
        let [a, b] = twins_agree(&compiled, &per_line, &grid, &args, policy, false);
        prop_assert!(a.total_msgs <= b.total_msgs, "{} > {}\n{}", a.total_msgs, b.total_msgs, compiled);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random CSR matrices — band rows, random columns unsorted and
    /// repeated within a row, empty rows — on one to four processors with
    /// orders the grid does not divide, `spmv.kf1`'s iteration over a
    /// random row range: the row doall run as CSR rows and the tree-walker
    /// — reached through program text, a twin whose body adds a dead
    /// scalar assignment and so leaves the class — agree bit for bit on
    /// the results, on every message, word and protocol counter, and on
    /// the simulator's clocks, under every policy square. An `x` that is
    /// `y` itself, or cyclic, is outside the bindings the rows accept, so
    /// both twins walk it.
    #[test]
    fn spmv_rows_match_the_walker_bitwise(
        seed in 0u64..1_000_000,
        p in 1usize..5,
        policy in 0usize..4,
        niter in 1i64..4,
    ) {
        let mut g = Gen(seed);
        let n = p * (2 + g.below(6) as usize) + g.below(p as u64) as usize;
        let (mut rp, mut ci) = (vec![1.0], Vec::new());
        for i in 1..=n as u64 {
            let cols: Vec<u64> = match g.below(4) {
                0 => Vec::new(),
                1 => [i.wrapping_sub(2), i, i + 2].into_iter().filter(|c| (1..=n as u64).contains(c)).collect(),
                2 => (0..1 + g.below(5)).map(|_| 1 + g.below(n as u64)).collect(),
                _ => [i + 1, i, i - 1].into_iter().filter(|c| (1..=n as u64).contains(c)).collect(),
            };
            ci.extend(cols.iter().map(|&c| c as f64));
            rp.push(ci.len() as f64 + 1.0);
        }
        // At least one entry, so that `av` and `ci` can be declared.
        if ci.is_empty() {
            ci.push(1.0);
            *rp.last_mut().unwrap() += 1.0;
        }
        let nz = ci.len();
        let av: Vec<f64> = (0..nz).map(|k| 0.25 + (k % 7) as f64 * 0.5 - (k % 3) as f64).collect();
        let (lo, hi) = (1 + g.below(2), n as u64 - g.below(2));
        let xdist = ["block", "block", "block", "cyclic"][g.below(4) as usize];
        let xsec = ["x(1:n)", "x(1:n)", "x(*)", "y(1:n)"][g.below(4) as usize];
        let program = |dead: &str| {
            format!(
                "parsub gen(y, x, rp, ci, av, n, nz, niter; procs)\n  processors procs(p)\n  \
                 real y(n) dist (block)\n  real x(n) dist ({xdist})\n  real av(nz)\n  \
                 integer rp(n + 1), ci(nz)\n  do 200 t = 1, niter\n    \
                 doall 100 i = {lo}, {hi} on owner(y(i))\n{dead}      \
                 call spmv(y(i:i), ci(rp(i):rp(i + 1) - 1), av(rp(i):rp(i + 1) - 1), {xsec})\n\
                 100 continue\n    doall 150 i = 1, n on owner(x(i))\n      x(i) = y(i) / 10.0 + 0.5\n\
                 150 continue\n200 continue\nend\n"
            )
        };
        let (rows, walked) = (program(""), program("      t0 = 0.5\n"));
        let array = |data: Vec<f64>| HostValue::Array {
            bounds: vec![(1, data.len() as i64)],
            data,
        };
        let args = [
            array(vec![-1.0; n]),
            array((0..n).map(|k| 1.0 + (k % 5) as f64 * 0.75).collect()),
            array(rp),
            array(ci),
            array(av),
            HostValue::Int(n as i64),
            HostValue::Int(nz as i64),
            HostValue::Int(niter),
        ];
        twins_agree(&rows, &walked, &[p], &args, policy, true);
    }
}

/// Every diagnostic of every `tests/corpus/bad` file, exactly:
/// `(file stem, code, line, col, message)`, in report order. The table
/// pins where each diagnostic points, not only which code it carries.
const BAD_CORPUS: &[(&str, &str, usize, usize, &str)] = &[
    (
        "a001_undeclared_array",
        "A001",
        5,
        12,
        "`ghost` is not a declared array or intrinsic",
    ),
    (
        "a002_bad_arity",
        "A002",
        4,
        7,
        "intrinsic `mod` takes 2 arguments, got 1",
    ),
    (
        "a003_rank_mismatch",
        "A003",
        4,
        7,
        "`a` has rank 1 but is referenced with 2 subscripts",
    ),
    (
        "a004_out_of_bounds",
        "A004",
        4,
        9,
        "subscript 9 of `a` is outside dimension 1's bounds 1:8",
    ),
    (
        "a005_nonowned_write",
        "A005",
        5,
        5,
        "write to `a` is offset by 1 from the owner() subscript in distributed dimension 1",
    ),
    (
        "a006_divergent_guard",
        "A006",
        4,
        7,
        "collective guarded by a distributed-array element read: processors \
         disagreeing on this value diverge on the collective",
    ),
    (
        "a007_dead_distribute",
        "A007",
        4,
        3,
        "dead distribute: `a` is redistributed again before any use",
    ),
    (
        "a008_remote_steering",
        "A008",
        11,
        14,
        "`idx` read 1 away from the owner() element in distributed dimension 1 steers \
         communication",
    ),
    (
        "l001_bad_literal",
        "L001",
        4,
        7,
        "bad real literal \"1.2e+\"",
    ),
    ("l002_bad_label", "L002", 4, 1, "bad label \"99999999999\""),
    ("l004_bad_char", "L004", 4, 12, "unexpected character '@'"),
    (
        "p002_bad_dist",
        "P002",
        3,
        19,
        "expected block, cyclic, cyclic(k) or * in dist clause",
    ),
    (
        "p003_bad_termination",
        "P003",
        4,
        3,
        "do loop terminated by End",
    ),
    (
        "p004_doall_missing_on",
        "P004",
        4,
        3,
        "doall requires an `on` clause",
    ),
];

/// Every checked-in bad-corpus program produces at least one diagnostic
/// whose code matches the file-name prefix (`a005_...` must flag A005),
/// carrying a non-degenerate span that renders with a caret — and its
/// whole report is exactly the one [`BAD_CORPUS`] lists.
#[test]
fn bad_corpus_files_flag_their_advertised_code() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/bad");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(dir).expect("corpus directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("kf1") {
            continue;
        }
        seen += 1;
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let want = stem.split('_').next().unwrap().to_uppercase();
        let src = std::fs::read_to_string(&path).unwrap();
        let all = match parse(&src) {
            Err(d) => vec![d],
            Ok(prog) => {
                let ds = analyze(&prog);
                assert!(!ds.is_empty(), "{stem}: analyzer found nothing");
                ds
            }
        };
        let got: Vec<_> = all
            .iter()
            .map(|d| (d.code, d.line, d.col, d.message.as_str()))
            .collect();
        let pinned = BAD_CORPUS.iter().filter(|row| row.0 == stem);
        let pinned: Vec<_> = pinned.map(|&(_, c, l, col, m)| (c, l, col, m)).collect();
        assert_eq!(got, pinned, "{stem}: report differs from the pinned table");
        let diag = &all[0];
        assert_eq!(diag.code, want, "{stem}: flagged {} instead", diag.code);
        assert!(
            !diag.span.is_empty() || diag.span.lo > 0,
            "{stem}: degenerate span"
        );
        let rendered = diag.render(&src);
        assert!(
            rendered.contains("-->"),
            "{stem}: no position line\n{rendered}"
        );
        assert!(rendered.contains('^'), "{stem}: no caret\n{rendered}");
    }
    assert!(seen >= 12, "corpus unexpectedly small: {seen} files");
    let pinned_files: BTreeSet<_> = BAD_CORPUS.iter().map(|row| row.0).collect();
    assert_eq!(seen, pinned_files.len(), "every corpus file is pinned");
}

/// The front-end inputs the totality property mutates: the five shipped
/// listings and every bad-corpus file.
fn front_end_sources() -> Vec<String> {
    let names = ["jacobi", "shift", "tri", "adi", "spmv"];
    let mut out: Vec<String> = names
        .iter()
        .map(|n| kali::lang::listing(n).unwrap().to_string())
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/bad");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("kf1"))
        .collect();
    paths.sort();
    out.extend(paths.iter().map(|p| std::fs::read_to_string(p).unwrap()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The front end is total: a listing or corpus file with a byte range
    /// deleted, duplicated or swapped with its neighbour goes through
    /// `parse` (which resolves), `analyze` and `comm_plans` to an `Ok`, an
    /// `Err` or a report — never a panic.
    #[test]
    fn mutated_sources_never_panic_the_front_end(
        which in 0usize..18,
        op in 0usize..3,
        at in 0.0f64..1.0,
        len in 1usize..48,
        len2 in 1usize..48,
    ) {
        let sources = front_end_sources();
        let mut bytes = sources[which % sources.len()].clone().into_bytes();
        let n = bytes.len();
        let a = ((at * n as f64) as usize).min(n);
        let b = (a + len).min(n);
        let c = (b + len2).min(n);
        match op {
            0 => {
                bytes.drain(a..b);
            }
            1 => {
                let dup = bytes[a..b].to_vec();
                bytes.splice(b..b, dup);
            }
            _ => bytes[a..c].rotate_left(b - a),
        }
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let run = std::panic::catch_unwind(|| {
            if let Ok(prog) = parse(&src) {
                analyze(&prog);
                comm_plans(&prog);
            }
        });
        prop_assert!(run.is_ok(), "the front end panicked on:\n{}", src);
    }
}

/// The byte ranges of `src` that hold code, one per line: lines that are
/// not comment lines, each up to its `!` comment.
fn code_ranges(src: &str) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for line in src.split('\n') {
        let mut chars = line.chars();
        let comment = match (chars.next(), chars.next()) {
            (Some('c' | 'C'), None) => true,
            (Some('c' | 'C' | '*'), Some(w)) => w.is_whitespace(),
            _ => false,
        };
        if !comment {
            out.push(start..start + line.find('!').unwrap_or(line.len()));
        }
        start += line.len() + 1;
    }
    out
}

/// What the lexer makes of `src`, each span replaced by the text it
/// slices, lower-cased: the tokens, or the error's code, message and text.
type Lexed = Result<Vec<(Tok, String)>, (&'static str, String, String)>;

fn lexed(src: &str) -> Lexed {
    let text = |s: Span| s.slice(src).to_ascii_lowercase();
    match lex(src) {
        Ok(toks) => Ok(toks.into_iter().map(|t| (t.tok, text(t.span))).collect()),
        Err(d) => Err((d.code, d.message, text(d.span))),
    }
}

/// One rewrite the lexer must see through, at a random place: `&` and an
/// indented new line where a token ends and another follows on its line
/// (0), a blank or comment line (1), or flipped letter case in code (2).
fn rewrite(src: &str, kind: u64, g: &mut Gen) -> String {
    let code = code_ranges(src);
    let b = src.as_bytes();
    match kind {
        0 => {
            let ends: BTreeSet<usize> = match lex(src) {
                Ok(toks) => toks.iter().map(|t| t.span.hi as usize).collect(),
                Err(_) => BTreeSet::new(),
            };
            let cuts: Vec<usize> = code
                .iter()
                .flat_map(|r| (r.start + 1..r.end).map(move |p| (p, r.end)))
                .filter(|&(p, end)| {
                    !b[p - 1].is_ascii_whitespace()
                        && (b[p].is_ascii_whitespace() || ends.contains(&p))
                        && !src[p..end].trim().is_empty()
                })
                .map(|(p, _)| p)
                .collect();
            if cuts.is_empty() {
                return src.to_string();
            }
            let p = cuts[g.below(cuts.len() as u64) as usize];
            let indent = " ".repeat(1 + g.below(6) as usize);
            format!("{}&\n{indent}{}", &src[..p], &src[p..])
        }
        1 => {
            let starts: Vec<usize> = (0..=b.len())
                .filter(|&p| p == 0 || b[p - 1] == b'\n')
                .collect();
            let p = starts[g.below(starts.len() as u64) as usize];
            let lines = [
                "\n",
                "   \n",
                "c comment\n",
                "C\n",
                "* star\n",
                "! note\n",
                "  ! note\n",
            ];
            let line = lines[g.below(lines.len() as u64) as usize];
            format!("{}{line}{}", &src[..p], &src[p..])
        }
        _ => {
            let mut out = b.to_vec();
            for p in code.into_iter().flatten() {
                if out[p].is_ascii_alphabetic() && g.below(2) == 0 {
                    out[p] ^= 0x20;
                }
            }
            String::from_utf8(out).unwrap()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Continuations, blank and comment lines, and letter case are not
    /// tokens: every listing and corpus file, put through a few random
    /// rewrites, lexes to the same tokens (or the same error), each span
    /// slicing the same text up to case.
    #[test]
    fn continuations_comments_and_case_leave_the_tokens_alone(seed in 0u64..1_000_000) {
        let mut g = Gen(seed);
        for src in front_end_sources() {
            let want = lexed(&src);
            let mut new = src.clone();
            for _ in 0..1 + g.below(4) {
                let kind = g.below(3);
                new = rewrite(&new, kind, &mut g);
            }
            prop_assert_eq!(lexed(&new), want, "rewritten source:\n{}", new);
        }
    }
}
