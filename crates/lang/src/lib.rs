//! # kali-lang — a front end for the KF1 (Kali Fortran 1) subset
//!
//! This crate implements the *language* side of the paper: a lexer, parser,
//! static analyzer and SPMD interpreter for the constructs of §2 —
//! `parsub`, `processors` declarations, `dist (block, cyclic, *)` clauses,
//! `dynamic` arrays, `doall ... on owner(...)` loops with copy-in/copy-out
//! semantics, the intrinsics `lower`/`upper`/`log2`, array sections, and
//! distributed procedure calls carrying processor-array slices.
//!
//! The front end is one chain over one tree, `parse → analyze →
//! interpret`: [`parse`] reads the text straight into the resolved tree,
//! names as frame slots, and [`analyze`], [`comm_plans`] and the
//! interpreter all read it.
//!
//! Programs run on the `kali-machine` simulator: communication is never
//! written by the programmer; the interpreter's inspector/executor pass
//! derives it from data ownership at run time (the Kali runtime-resolution
//! scheme the paper cites), and charges it to the virtual clock. The
//! inspector's output is cached across invocations (executor reuse): a
//! `doall` re-entered from a sequential `do` loop with unchanged
//! distributions replays its communication schedule instead of
//! re-inspecting — see the [`interp`] module docs and [`RunOptions`].
//!
//! The paper's listings, adapted to this subset, ship under
//! `programs/` and are accessible through [`listing`].

pub mod analysis;
pub mod ast;
pub mod diag;
pub mod interp;
mod lower;
pub mod parser;
mod resolve;
pub mod token;
pub mod value;

use std::cell::RefCell;
use std::rc::Rc;

use kali_grid::{Layout, ProcGrid};
use kali_machine::{Machine, MachineConfig, RunReport};

use interp::Interp;
use value::{ArrObj, Binding, Value, View, MAX_RANK};

pub use analysis::{analyze, comm_plans, StaticCommPlan};
pub use diag::{Diagnostic, Span};
pub use kali_sched::ExecPolicy;
pub use parser::{parse, ParseError};

/// The paper's listings, adapted to the implemented subset.
pub fn listing(name: &str) -> Option<&'static str> {
    match name {
        "jacobi" => Some(include_str!("../programs/jacobi.kf1")),
        "shift" => Some(include_str!("../programs/shift.kf1")),
        "tri" => Some(include_str!("../programs/tri.kf1")),
        "adi" => Some(include_str!("../programs/adi.kf1")),
        "spmv" => Some(include_str!("../programs/spmv.kf1")),
        _ => None,
    }
}

/// The `kf1_check` lint's report on one file, each line prefixed with
/// `path`. A file with a lexer, parser or analysis diagnostic is an
/// `Err` holding every diagnostic rendered against the source. A clean
/// file is `Ok`: with `plans`, one line per doall site that carries a
/// [`StaticCommPlan`], in site order; without it, nothing.
pub fn check(path: &str, src: &str, plans: bool) -> Result<String, String> {
    let prog = parse(src).map_err(|d| format!("{path}: {}", d.render(src)))?;
    let diags = analyze(&prog);
    if !diags.is_empty() {
        return Err(diags
            .iter()
            .map(|d| format!("{path}: {}", d.render(src)))
            .collect());
    }
    if !plans {
        return Ok(String::new());
    }
    let mut sites: Vec<_> = comm_plans(&prog).into_values().collect();
    sites.sort_by_key(|p| p.site);
    Ok(sites
        .iter()
        .map(|p| {
            format!(
                "{path}: site {} ({}): static plan with {} read(s)\n",
                p.site,
                p.subroutine,
                p.reads.len()
            )
        })
        .collect())
}

/// A host-side argument for [`run_source`].
#[derive(Debug, Clone)]
pub enum HostValue {
    Int(i64),
    Real(f64),
    /// A (to-be-distributed) array with declared bounds, row-major data.
    Array {
        data: Vec<f64>,
        bounds: Vec<(i64, i64)>,
    },
}

/// Result of running a KF1 program.
pub struct LangRun {
    pub report: RunReport,
    /// Final global contents of each array argument of the entry routine,
    /// in parameter order (name, row-major data).
    pub arrays: Vec<(String, Vec<f64>)>,
}

/// Interpreter knobs for [`run_source_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Execution strategy for communicating doalls — the same
    /// [`ExecPolicy`] the compiled stencil-plan path runs under.
    /// `policy.split` runs the exchange engine split-phase (post the
    /// fused value exchange nonblocking, execute the interior iterations
    /// while messages are in flight, then complete the boundary — on
    /// replays *and* on cold inspector invocations); `policy.optimistic`
    /// caches inspector schedules across doall invocations (executor
    /// reuse) and replays them with the replay-consensus vote
    /// piggybacked on the fused value messages. With it off every
    /// invocation runs a fresh inspector pass — the differential-testing
    /// baseline. Both on by default.
    pub policy: ExecPolicy,
    /// Pre-seed the schedule cache at the doall sites with a
    /// compile-time communication plan ([`analysis::comm_plans`]): before
    /// a site's first trip each processor runs the inspector once per
    /// team member, locally, so the *cold* trip replays — zero inspector
    /// runs — with bitwise-identical results. Off by default so counter
    /// expectations of inspector-path tests stay exact; requires
    /// `policy.optimistic`.
    pub static_seed: bool,
}

/// Parse and run `src` on a simulated machine: the entry `parsub` receives
/// the host arguments and a processor array of shape `grid_dims`
/// (`cfg.nprocs` must equal the product). Executor reuse is on; see
/// [`run_source_with`] to control it.
///
/// Returns the timing/traffic report and the final global state of every
/// array argument (assembled from the owning processors).
pub fn run_source(
    cfg: MachineConfig,
    src: &str,
    entry: &str,
    grid_dims: &[usize],
    args: &[HostValue],
) -> Result<LangRun, String> {
    run_source_with(cfg, src, entry, grid_dims, args, RunOptions::default())
}

/// [`run_source`] with explicit [`RunOptions`]. The host arrays are read
/// in place: each processor copies them once, into its own storage.
pub fn run_source_with(
    cfg: MachineConfig,
    src: &str,
    entry: &str,
    grid_dims: &[usize],
    args: &[HostValue],
    opts: RunOptions,
) -> Result<LangRun, String> {
    let prog = parse(src).map_err(|e| e.to_string())?;
    let entry_sub = prog
        .code
        .iter()
        .position(|s| s.name == entry)
        .ok_or_else(|| format!("no subroutine named {entry}"))?;
    let sub = &prog.code[entry_sub];
    if sub.params.len() != args.len() {
        return Err(format!(
            "{entry} takes {} arguments, {} supplied",
            sub.params.len(),
            args.len()
        ));
    }
    if sub.proc_param.is_none() {
        return Err(format!("{entry} is not a parallel subroutine"));
    }
    let grid_size: usize = grid_dims.iter().product();
    if grid_size != cfg.nprocs {
        return Err(format!(
            "grid {grid_dims:?} needs {grid_size} processors, machine has {}",
            cfg.nprocs
        ));
    }
    let grid_dims = grid_dims.to_vec();
    let mut array_params = Vec::new();
    for (&p, a) in sub.params.iter().zip(args) {
        if let HostValue::Array { data, bounds } = a {
            let name = &sub.names[p];
            if bounds.len() > MAX_RANK {
                return Err(format!(
                    "array {name}: rank {} exceeds the supported maximum of {MAX_RANK}",
                    bounds.len()
                ));
            }
            let len = bounds.iter().try_fold(1usize, |n, &(lo, hi)| {
                let extent = usize::try_from(hi.checked_sub(lo)?).ok()?;
                n.checked_mul(extent.checked_add(1)?)
            });
            if len != Some(data.len()) {
                return Err(format!(
                    "array {name}: {} values do not fill bounds {bounds:?}",
                    data.len()
                ));
            }
            array_params.push(name.clone());
        }
    }

    let prog = &prog;
    let run = Machine::run(cfg, move |proc| {
        let grid = ProcGrid::with_ranks(grid_dims.clone(), (0..grid_size).collect());
        // Host arrays start replicated on a sentinel grid; the entry
        // subroutine's declarations adopt them into the real distribution.
        let mut bindings = Vec::new();
        let mut handles = Vec::new();
        for (&p, a) in sub.params.iter().zip(args) {
            let b = match a {
                HostValue::Int(v) => Binding::Scalar(Value::Int(*v)),
                HostValue::Real(v) => Binding::Scalar(Value::Real(*v)),
                HostValue::Array { data, bounds } => {
                    let extents: Vec<usize> =
                        bounds.iter().map(|&(l, h)| (h - l + 1) as usize).collect();
                    let arr = Rc::new(RefCell::new(ArrObj {
                        name: sub.names[p].clone(),
                        bounds: bounds.clone(),
                        layout: Layout::replicated(&extents, &ProcGrid::new_1d(1)),
                        data: data.clone(),
                        is_real: true,
                        dist_gen: 0,
                    }));
                    handles.push(arr.clone());
                    Binding::Array(View::whole(arr))
                }
            };
            bindings.push((p, b));
        }
        if let Some(pp) = sub.proc_param {
            bindings.push((pp, Binding::Grid(grid.clone())));
        }
        let rank = proc.rank();
        Interp::new(proc, prog, opts)
            .call_sub(entry_sub, bindings, grid)
            .unwrap_or_else(|e| panic!("KF1 runtime error on processor {rank}: {e}"));
        // Export final per-processor state, moved out: the call is over
        // and nothing reads the array again. The layout is the same on
        // every processor, so processor 0 alone hands it over. Export
        // copies on every processor would make the call's heap
        // high-water mark depend on how the processors' exports overlap.
        handles
            .into_iter()
            .map(|arr| {
                let mut a = arr.borrow_mut();
                let layout = (rank == 0).then(|| a.layout.clone());
                (std::mem::take(&mut a.data), layout)
            })
            .collect::<Vec<_>>()
    });

    // Combine: processor 0's copy, with every run along the last dimension
    // another processor owns — a processor coordinate's indices — copied
    // from that processor's.
    let mut results = run.results;
    let mut arrays = Vec::new();
    for (ai, name) in array_params.iter().enumerate() {
        let (mut combined, layout) = std::mem::take(&mut results[0][ai]);
        let layout = layout.expect("processor 0 exports the layout");
        if let Some((last, lead)) = layout.dists().split_last() {
            let (width, mut idx) = (last.len(), vec![0; lead.len() + 1]);
            for (row, out) in combined.chunks_exact_mut(width).enumerate() {
                let mut r = row;
                for (i, d) in idx.iter_mut().zip(lead).rev() {
                    (*i, r) = (r % d.len(), r / d.len());
                }
                for q in 0..last.nprocs() {
                    let Some(lo) = last.lower(q) else { continue };
                    idx[lead.len()] = lo;
                    let Some(owner @ 1..) = layout.owner(&idx) else {
                        continue;
                    };
                    let from = &results[owner][ai].0[row * width..][..width];
                    if last.is_contiguous() {
                        let run = lo..=last.upper(q).expect("q owns indices");
                        out[run.clone()].copy_from_slice(&from[run]);
                    } else {
                        last.owned(q).for_each(|j| out[j] = from[j]);
                    }
                }
            }
        }
        arrays.push((name.clone(), combined));
    }
    Ok(LangRun {
        report: run.report,
        arrays,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kali_machine::{BackendKind, CostModel};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(30))
    }

    /// Round-trip guard for the shipped program corpus: every `.kf1` file
    /// behind [`listing`] must lex, parse, and *execute* on a small
    /// machine — not merely ship as text.
    #[test]
    fn every_shipped_listing_parses_and_runs() {
        for name in ["jacobi", "shift", "tri", "adi"] {
            let src = listing(name).unwrap_or_else(|| panic!("{name} not shipped"));
            let prog = parse(src).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            assert!(
                prog.code.iter().any(|s| s.name == name),
                "{name}.kf1 must define a `{name}` entry subroutine"
            );
            let run = match name {
                "jacobi" => run_source(
                    cfg(4),
                    src,
                    name,
                    &[2, 2],
                    &[
                        HostValue::Array {
                            data: vec![0.0; 9 * 9],
                            bounds: vec![(0, 8), (0, 8)],
                        },
                        HostValue::Array {
                            data: vec![0.01; 9 * 9],
                            bounds: vec![(0, 8), (0, 8)],
                        },
                        HostValue::Int(8),
                        HostValue::Int(2),
                    ],
                ),
                "shift" => run_source(
                    cfg(2),
                    src,
                    name,
                    &[2],
                    &[
                        HostValue::Array {
                            data: (1..=8).map(f64::from).collect(),
                            bounds: vec![(1, 8)],
                        },
                        HostValue::Int(8),
                    ],
                ),
                "tri" => {
                    let sys = kali_kernels::TriDiag::random_dd(16, 42);
                    let f = sys.apply(&[1.0; 16]);
                    run_source(
                        cfg(2),
                        src,
                        name,
                        &[2],
                        &[
                            HostValue::Array {
                                data: vec![0.0; 16],
                                bounds: vec![(1, 16)],
                            },
                            HostValue::Array {
                                data: f,
                                bounds: vec![(1, 16)],
                            },
                            HostValue::Array {
                                data: sys.b.clone(),
                                bounds: vec![(1, 16)],
                            },
                            HostValue::Array {
                                data: sys.a.clone(),
                                bounds: vec![(1, 16)],
                            },
                            HostValue::Array {
                                data: sys.c.clone(),
                                bounds: vec![(1, 16)],
                            },
                            HostValue::Int(16),
                        ],
                    )
                }
                "adi" => run_source(
                    cfg(4),
                    src,
                    name,
                    &[2, 2],
                    &[
                        HostValue::Array {
                            data: vec![0.0; 9 * 9],
                            bounds: vec![(0, 8), (0, 8)],
                        },
                        HostValue::Array {
                            data: vec![0.1; 9 * 9],
                            bounds: vec![(0, 8), (0, 8)],
                        },
                        HostValue::Array {
                            data: vec![0.0; 9 * 9],
                            bounds: vec![(0, 8), (0, 8)],
                        },
                        HostValue::Int(8),
                        HostValue::Real(50.0),
                        HostValue::Int(1),
                        HostValue::Real(1.0),
                        HostValue::Real(1.0),
                    ],
                ),
                _ => unreachable!(),
            };
            let run = run.unwrap_or_else(|e| panic!("{name} failed to run: {e}"));
            assert!(run.report.elapsed > 0.0, "{name} must charge virtual time");
        }
    }

    #[test]
    fn shift_has_copy_in_copy_out_semantics() {
        let n = 12;
        let data: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let run = run_source(
            cfg(4),
            listing("shift").unwrap(),
            "shift",
            &[4],
            &[
                HostValue::Array {
                    data,
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Int(n as i64),
            ],
        )
        .unwrap();
        let a = &run.arrays[0].1;
        let want: Vec<f64> = (2..=n).chain([n]).map(|v| v as f64).collect();
        assert_eq!(a, &want, "values must shift, not cascade");
        assert!(run.report.total_msgs > 0, "block edges must travel");
    }

    #[test]
    fn jacobi_listing_matches_native_sweeps() {
        let np = 8i64;
        let w = (np + 1) as usize;
        let f: Vec<f64> = (0..w * w)
            .map(|k| {
                let (i, j) = (k / w, k % w);
                if i == 0 || i == w - 1 || j == 0 || j == w - 1 {
                    0.0
                } else {
                    ((i * 13 + j * 7) % 5) as f64 / 10.0 - 0.2
                }
            })
            .collect();
        // Native sequential reference (Listing 1 semantics).
        let mut want = vec![0.0; w * w];
        for _ in 0..6 {
            let tmp = want.clone();
            for i in 1..w - 1 {
                for j in 1..w - 1 {
                    want[i * w + j] = 0.25
                        * (tmp[(i + 1) * w + j]
                            + tmp[(i - 1) * w + j]
                            + tmp[i * w + j + 1]
                            + tmp[i * w + j - 1])
                        - f[i * w + j];
                }
            }
        }
        let run = run_source(
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
                    data: f,
                    bounds: vec![(0, np), (0, np)],
                },
                HostValue::Int(np),
                HostValue::Int(6),
            ],
        )
        .unwrap();
        let x = &run.arrays[0].1;
        for k in 0..w * w {
            assert!(
                (x[k] - want[k]).abs() < 1e-12,
                "flat {k}: {} vs {}",
                x[k],
                want[k]
            );
        }
    }

    fn run_tri_listing(n: usize, p: usize, seed: u64) {
        let sys = kali_kernels::TriDiag::random_dd(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() + 1.0).collect();
        let f = sys.apply(&x_true);
        let run = run_source(
            cfg(p),
            listing("tri").unwrap(),
            "tri",
            &[p],
            &[
                HostValue::Array {
                    data: vec![0.0; n],
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: f,
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: sys.b.clone(),
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: sys.a.clone(),
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: sys.c.clone(),
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Int(n as i64),
            ],
        )
        .unwrap();
        let x = &run.arrays[0].1;
        for i in 0..n {
            assert!(
                (x[i] - x_true[i]).abs() < 1e-8,
                "n={n} p={p} i={i}: {} vs {}",
                x[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn tri_listing_solves_block_distributed_system() {
        run_tri_listing(32, 4, 77);
    }

    #[test]
    fn tri_listing_on_two_and_eight_procs() {
        run_tri_listing(48, 2, 5);
        run_tri_listing(48, 8, 9);
    }

    #[test]
    fn owner_computes_violation_is_reported() {
        let src = r#"
parsub bad(a, n; procs)
  processors procs(p)
  real a(n) dist (block)
  doall 100 i = 1, n on procs(1)
    a(i) = 1.0
100 continue
end
"#;
        let res = std::panic::catch_unwind(|| {
            run_source(
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
            )
        });
        assert!(res.is_err(), "writing another processor's block must fail");
    }

    #[test]
    fn fortran_integer_division_and_implicit_typing() {
        // `m = 7/2` must truncate (integer variable, integral division);
        // `x = 7.0/2.0` stays real; `y = m + x` mixes.
        let src = r#"
parsub semantics(a; procs)
  processors procs(p)
  real a(8) dist (block)
  m = 7/2
  x = 7.0/2.0
  y = m + x
  doall 100 i = 1, 8 on owner(a(i))
    a(i) = y
100 continue
end
"#;
        let run = run_source(
            cfg(2),
            src,
            "semantics",
            &[2],
            &[HostValue::Array {
                data: vec![0.0; 8],
                bounds: vec![(1, 8)],
            }],
        )
        .unwrap();
        assert!(run.arrays[0].1.iter().all(|&v| v == 6.5));
    }

    /// A one-array program on `p` processors: `body` follows the
    /// declarations of `parsub t(a, n; procs)` with `real a(n) dist (block)`.
    fn run_body(p: usize, n: usize, body: &str) -> Vec<f64> {
        let src = format!(
            "parsub t(a, n; procs)\n  processors procs(p)\n  real a(n) dist (block)\n{body}\nend\n"
        );
        let args = [
            HostValue::Array {
                data: vec![0.0; n],
                bounds: vec![(1, n as i64)],
            },
            HostValue::Int(n as i64),
        ];
        let run = run_source(cfg(p), &src, "t", &[p], &args).unwrap();
        run.arrays.into_iter().next().unwrap().1
    }

    // Runtime errors surface as the rank-carrying panic of `run_source`
    // (they become `Err` assertions when runtime errors are returned).

    #[test]
    #[should_panic(expected = "integer division by zero")]
    fn integer_division_by_zero_is_a_kf1_runtime_error() {
        run_body(1, 4, "  k = n / 0");
    }

    #[test]
    #[should_panic(expected = "mod by zero")]
    fn mod_by_zero_is_a_kf1_runtime_error() {
        run_body(1, 4, "  k = mod(n, 0)");
    }

    #[test]
    #[should_panic(expected = "integer overflow")]
    fn integer_overflow_is_a_kf1_runtime_error() {
        run_body(1, 4, "  k = n * 4611686018427387904");
    }

    /// Loops whose counter would step past the end of `i64` run exactly
    /// their iterations.
    #[test]
    fn a_do_loop_up_to_the_end_of_i64_runs_its_iterations() {
        let body = "  doall 20 j = 1, 1 on procs(1)
    do 10 i = 9223372036854775806, 9223372036854775807
      a(i - 9223372036854775805) = 1.0
10  continue
20 continue";
        assert_eq!(run_body(1, 4, body), [1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn a_do_loop_down_to_the_end_of_i64_runs_its_iterations() {
        let body = "  doall 20 j = 1, 1 on procs(1)
    do 10 i = -9223372036854775807, -9223372036854775807 - 1, -1
      a(-9223372036854775806 - i) = 1.0
10  continue
20 continue";
        assert_eq!(run_body(1, 4, body), [1.0, 1.0, 0.0, 0.0]);
    }

    /// A compiled loop over every `i64` is not placed, and the walker
    /// reports its first subscript, without an overflow of its own.
    #[test]
    #[should_panic(expected = "out of range")]
    fn a_compiled_loop_over_all_of_i64_is_a_kf1_runtime_error() {
        let body = "  doall 20 j = 1, 1 on procs(1)
    do 10 i = -9223372036854775807 - 1, 9223372036854775807
      a(i) = 1.0
10  continue
20 continue";
        run_body(1, 4, body);
    }

    #[test]
    fn a_doall_up_to_the_end_of_i64_runs_its_iterations() {
        let body = "  doall 10 i = 9223372036854775806, 9223372036854775807 on procs(1)
    a(i - 9223372036854775805) = 1.0
10 continue";
        assert_eq!(run_body(2, 4, body), [1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_element_subscript_near_the_end_of_i64_is_a_kf1_runtime_error() {
        run_body(1, 4, "  k = -9223372036854775807 - 1\n  y = a(k)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_section_bound_near_the_end_of_i64_is_a_kf1_runtime_error() {
        run_body(
            1,
            4,
            "  k = -9223372036854775807 - 1\n  call reduce(a(k:3), a(1:3), a(1:3), a(1:3), 3)",
        );
    }

    #[test]
    #[should_panic(expected = "builtin reduce: section of a is not local to processor")]
    fn a_builtin_section_another_processor_owns_is_a_kf1_runtime_error() {
        run_body(2, 8, "  call reduce(a(1:8), a(1:8), a(1:8), a(1:8), 8)");
    }

    /// The message of the KF1 runtime error `run` ends in, which must be
    /// one.
    fn runtime_error(run: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let msg = std::panic::catch_unwind(run).expect_err("a runtime error");
        let msg = msg
            .downcast_ref::<String>()
            .expect("a runtime error's message");
        assert!(msg.contains("KF1 runtime error"), "{msg}");
        msg.clone()
    }

    /// Builtin sections that do not conform are a runtime error naming
    /// the builtin and the lengths — not a kernel's panic, nor a `seqtri`
    /// storing three results through a two-element `x`, past its section
    /// (at p = 2 into an element another processor owns): `tri.kf1` with
    /// a one-row block, and direct calls.
    #[test]
    fn builtin_sections_that_do_not_conform_are_a_kf1_runtime_error() {
        let msg = runtime_error(|| run_tri_listing(7, 4, 3));
        assert!(
            msg.contains("builtin reduce: bad section lengths [1, 1, 1, 1]"),
            "{msg}"
        );
        for (p, call, lens) in [
            (
                1,
                "reduce(a(1:2), a(1:3), a(1:3), a(1:3), 3)",
                "reduce: bad section lengths [2, 3, 3, 3]",
            ),
            (
                1,
                "seqtri(a(1:3), a(1:3), a(1:2), a(1:3), a(1:3), 3)",
                "seqtri: bad section lengths [3, 3, 2, 3, 3]",
            ),
            (
                1,
                "seqtri(a(1:2), c(1:3), c(1:3), c(1:3), c(1:3), 3)",
                "seqtri: bad section lengths [2, 3, 3, 3, 3]",
            ),
            (
                2,
                "seqtri(a(1:2), c(1:3), c(1:3), c(1:3), c(1:3), 3)",
                "seqtri: bad section lengths [2, 3, 3, 3, 3]",
            ),
        ] {
            let body = format!(
                "  real c(3)\n  c(1) = 2.0\n  c(2) = 4.0\n  c(3) = 2.0\n  \
                 doall 100 i = 1, 1 on procs(1)\n    call {call}\n100 continue"
            );
            let msg = runtime_error(|| drop(run_body(p, 4, &body)));
            assert!(msg.contains(lens), "{call}, p = {p}: {msg}");
        }
    }

    /// A declared array whose extent or element count overflows, or that
    /// cannot be allocated, is a runtime error.
    #[test]
    fn an_array_too_large_to_declare_is_a_kf1_runtime_error() {
        for (bounds, err) in [
            ("1:4294967296, 1:4294967296", "does not fit in memory"),
            ("1:9223372036854775807", "does not fit in memory"),
            (
                "-9223372036854775807:9223372036854775807",
                "does not fit in memory",
            ),
            ("-9223372036854775807 - 1:9223372036854775807", "bad bounds"),
        ] {
            let msg = runtime_error(|| drop(run_body(1, 4, &format!("  real b({bounds})"))));
            assert!(
                msg.contains("array b: ") && msg.contains(err),
                "{bounds}: {msg}"
            );
        }
    }

    /// `t(u, n)` on two processors: `n` activations in all, down a chain
    /// of sequential calls `s(k - 1)` or, with `team`, of team-call doalls
    /// each calling `t(u, k - 1)` on both processors.
    fn nest(n: i64, team: bool) {
        let call = match team {
            true => {
                "doall 100 i = 1, 1 on owner(u(*))\n    call t(u, k - 1; owner(u(*)))\n100 continue"
            }
            false => "call s(k - 1)",
        };
        let src = format!(
            "parsub t(u, k; procs)\n  processors procs(p)\n  real u(4) dist (block)\n  \
             if (k .le. 1) return\n  {call}\nend\n\
             subroutine s(k)\n  if (k .le. 1) return\n  call s(k - 1)\nend\n"
        );
        let u = HostValue::Array {
            data: vec![0.0; 4],
            bounds: vec![(1, 4)],
        };
        run_source(cfg(2), &src, "t", &[2], &[u, HostValue::Int(n)]).unwrap();
    }

    /// Calls nest up to `MAX_CALL_DEPTH` deep, through team calls too;
    /// one deeper is a runtime error on every processor, not a stack
    /// overflow that aborts the process.
    #[test]
    fn calls_nest_up_to_the_cap_and_no_deeper() {
        let cap = interp::MAX_CALL_DEPTH as i64;
        nest(cap, true);
        nest(cap, false);
        for team in [true, false] {
            let msg = runtime_error(|| nest(cap + 1, team));
            assert!(
                msg.contains("calls nest deeper than 64"),
                "team {team}: {msg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot assign scalar to processor array procs")]
    fn assigning_to_a_processor_array_is_a_kf1_runtime_error() {
        run_body(1, 4, "  procs = 1");
    }

    /// `call s(n; owner(on))` on two processors, `on` naming an element of
    /// `u(0:8, 0:8) dist {dist}`.
    fn call_on_owner(dist: &str, on: &str) {
        let src = format!(
            "parsub t(n; procs)\n  processors procs(p)\n  real u(0:n, 0:n) dist {dist}\n  \
             call s(n; owner({on}))\nend\n\
             parsub s(k; procs)\n  processors procs(q)\n  k = k\nend\n"
        );
        run_source(cfg(2), &src, "t", &[2], &[HostValue::Int(8)]).unwrap();
    }

    #[test]
    #[should_panic(expected = "owner subscript 13 of u out of bounds 0:8")]
    fn owner_subscript_above_a_block_dimension_is_a_kf1_runtime_error() {
        call_on_owner("(block, *)", "u(n+5, *)");
    }

    #[test]
    #[should_panic(expected = "owner subscript -9223372036854775808 of a out of bounds 1:4")]
    fn owner_subscript_at_the_end_of_i64_is_a_kf1_runtime_error() {
        let body = "  k = -9223372036854775807 - 1
  doall 10 i = 1, 1 on owner(a(k))
    a(1) = 1.0
10 continue";
        run_body(1, 4, body);
    }

    #[test]
    #[should_panic(expected = "owner subscript -1 of u out of bounds 0:8")]
    fn negative_owner_subscript_on_a_cyclic_dimension_is_a_kf1_runtime_error() {
        call_on_owner("(*, cyclic)", "u(*, -1)");
    }

    /// A scalar a doall body defines implicitly is private to the
    /// iteration that defined it: iteration 2 must not see iteration 1's.
    #[test]
    #[should_panic(expected = "undefined variable t")]
    fn body_local_scalars_are_undefined_at_the_start_of_every_iteration() {
        let body = "  doall 100 i = 1, n on owner(a(i))
    if (i .eq. 1) t = 5.0
    a(i) = t
100 continue";
        run_body(1, 4, body);
    }

    /// ... and after the loop, while a doall variable that shadows an
    /// outer scalar leaves the outer value intact.
    #[test]
    fn doall_variables_shadow_and_body_scalars_do_not_leak() {
        let body = "  i = 42
  doall 100 i = 1, n on owner(a(i))
    t = 1.0*i
    a(i) = t
100 continue
  doall 200 j = 1, n on owner(a(j))
    a(j) = a(j) + i
200 continue";
        let a = run_body(2, 6, body);
        assert_eq!(a, [43.0, 44.0, 45.0, 46.0, 47.0, 48.0]);
        let leak = format!("{body}\n  s = t");
        let res = std::panic::catch_unwind(|| run_body(2, 6, &leak));
        let msg = res.expect_err("t is undefined after the loop");
        let msg = msg.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("undefined variable t"), "{msg}");
    }

    /// A section view passed through two call levels — `u(i, *)` to a
    /// distributed procedure, a clipped `x(lo:hi)` of that to a
    /// sequential one — reads and writes the base elements it names.
    #[test]
    fn section_views_compose_through_two_call_levels() {
        let src = r#"
parsub top(u, n; procs)
  processors procs(p, q)
  real u(0:n, 0:n) dist (block, block)
  doall 100 i = 1, n - 1 on owner(u(i, *))
    call mid(u(i, *), n; owner(u(i, *)))
100 continue
end

parsub mid(x, n; procs)
  processors procs(q)
  real x(0:n) dist (block)
  integer lo, hi
  doall 100 ip = 1, q on procs(ip)
    lo = max(lower(x, procs(ip)), 1)
    hi = min(upper(x, procs(ip)), n - 1)
    call leaf(x(lo:hi), hi - lo + 1)
100 continue
end

subroutine leaf(y, m)
  real y(m)
  do 10 k = 1, m
    y(k) = y(k) + 10.0*k
10 continue
end
"#;
        let n = 8usize;
        let w = n + 1;
        let u0: Vec<f64> = (0..w * w).map(|k| (100 * (k / w) + k % w) as f64).collect();
        let args = [
            HostValue::Array {
                data: u0.clone(),
                bounds: vec![(0, n as i64); 2],
            },
            HostValue::Int(n as i64),
        ];
        let run = run_source(cfg(4), src, "top", &[2, 2], &args).unwrap();
        // Nine columns over two processors: 0..=3 and 4..=8, clipped to
        // the interior as 1..=3 and 4..=7; `leaf` counts from 1 in each.
        for (k, (got, old)) in run.arrays[0].1.iter().zip(&u0).enumerate() {
            let (i, j) = (k / w, k % w);
            let interior = (1..n).contains(&i) && (1..n).contains(&j);
            let add = if interior {
                10.0 * if j <= 3 { j } else { j - 3 } as f64
            } else {
                0.0
            };
            assert_eq!(*got, old + add, "u({i}, {j})");
        }
    }

    #[test]
    fn looped_doall_replays_cached_schedules() {
        // Listing 3 shape: one doall inside a do — the schedule must be
        // discovered once and replayed on every later trip.
        let niter = 6i64;
        let np = 8i64;
        let w = (np + 1) as usize;
        let run = run_source(
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
                    data: vec![0.02; w * w],
                    bounds: vec![(0, np), (0, np)],
                },
                HostValue::Int(np),
                HostValue::Int(niter),
            ],
        )
        .unwrap();
        let r = &run.report;
        // 4 procs, 1 site, niter trips: one inspector run each, the rest
        // replayed.
        assert_eq!(r.total_inspector_runs, 4);
        assert_eq!(r.total_schedule_replays, 4 * (niter as u64 - 1));
        assert!(r.inspector_seconds > 0.0);
        assert!(r.total_exchange_words > 0);
    }

    #[test]
    fn a_non_optimistic_policy_rebuilds_every_trip() {
        let np = 8i64;
        let w = (np + 1) as usize;
        let args = [
            HostValue::Array {
                data: vec![0.0; w * w],
                bounds: vec![(0, np), (0, np)],
            },
            HostValue::Array {
                data: vec![0.02; w * w],
                bounds: vec![(0, np), (0, np)],
            },
            HostValue::Int(np),
            HostValue::Int(5),
        ];
        let off = run_source_with(
            cfg(4),
            listing("jacobi").unwrap(),
            "jacobi",
            &[2, 2],
            &args,
            RunOptions {
                policy: ExecPolicy::pessimistic(),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(off.report.total_schedule_replays, 0);
        assert_eq!(off.report.total_inspector_runs, 4 * 5);
    }

    #[test]
    fn host_arrays_must_fill_their_bounds() {
        let src = r#"
parsub fill(a, n; procs)
  processors procs(p)
  real a(n) dist (block)
end
"#;
        let run = |data: Vec<f64>, bounds| {
            let args = [HostValue::Array { data, bounds }, HostValue::Int(8)];
            run_source_with(cfg(2), src, "fill", &[2], &args, RunOptions::default())
        };
        let err = run(vec![0.0; 3], vec![(1, 8)]).err().unwrap();
        assert_eq!(err, "array a: 3 values do not fill bounds [(1, 8)]");
        assert!(run(vec![], vec![(8, 1)]).is_err());
        assert!(run(vec![0.0; 8], vec![(1, 8)]).is_ok());
    }

    #[test]
    fn distribute_moves_data_and_invalidates_schedules() {
        // The doall's schedule is cached on trip 1; the distribute between
        // trips bumps b's generation, so trip 2 must re-inspect (and read
        // the values from their *new* owners, not replay stale routes).
        let src = r#"
parsub redist(a, b, n; procs)
  processors procs(p)
  real a(n), b(n) dist (block)
  do 1000 it = 1, 2
    doall 100 i = 1, n - 1 on owner(a(i))
      a(i) = a(i) + b(i + 1)
100 continue
    if (it .eq. 1) then
      distribute b (cyclic)
    endif
1000 continue
end
"#;
        let n = 8usize;
        let b0: Vec<f64> = (0..n).map(|i| (i + 1) as f64 * 10.0).collect();
        let run = run_source(
            cfg(2),
            src,
            "redist",
            &[2],
            &[
                HostValue::Array {
                    data: vec![0.0; n],
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: b0.clone(),
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Int(n as i64),
            ],
        )
        .unwrap();
        let a = &run.arrays[0].1;
        for i in 0..n - 1 {
            assert_eq!(a[i], 2.0 * b0[i + 1], "i = {i}");
        }
        // Both trips ran a fresh inspection: generation bump ⇒ key miss.
        assert_eq!(run.report.total_schedule_replays, 0);
        assert_eq!(run.report.total_inspector_runs, 2 * 2);
    }

    // The pinned-message test for the exchange phase's unbound-name hard
    // error lives in tests/integration_schedule_cache.rs, which covers
    // both policies.

    #[test]
    fn block_cyclic_ownership_round_trips_through_exchange() {
        // dist (cyclic(2)) writes owner-computes round-robin blocks; the
        // distribute to cyclic(3) moves data to the new owners; the second
        // doall reads a neighbour across the new block-cyclic boundaries.
        let src = r#"
parsub bc(a, n; procs)
  processors procs(p)
  real a(n) dist (cyclic(2))
  doall 100 i = 1, n on owner(a(i))
    a(i) = a(i) + 10.0*i
100 continue
  distribute a (cyclic(3))
  doall 200 i = 1, n - 1 on owner(a(i))
    a(i) = a(i) + a(i + 1)
200 continue
end
"#;
        let n = 8i64;
        let run = run_source(
            cfg(2),
            src,
            "bc",
            &[2],
            &[
                HostValue::Array {
                    data: vec![0.0; n as usize],
                    bounds: vec![(1, n)],
                },
                HostValue::Int(n),
            ],
        )
        .unwrap();
        let a = &run.arrays[0].1;
        for i in 1..n as usize {
            assert_eq!(a[i - 1], (10 * i + 10 * (i + 1)) as f64, "i = {i}");
        }
        assert_eq!(a[n as usize - 1], 10.0 * n as f64);
        assert!(run.report.total_msgs > 0, "cyclic(k) edges must travel");
    }

    #[test]
    fn split_phase_replay_hides_transit_and_keeps_counters() {
        let np = 8i64;
        let w = (np + 1) as usize;
        let args = [
            HostValue::Array {
                data: vec![0.0; w * w],
                bounds: vec![(0, np), (0, np)],
            },
            HostValue::Array {
                data: vec![0.02; w * w],
                bounds: vec![(0, np), (0, np)],
            },
            HostValue::Int(np),
            HostValue::Int(6),
        ];
        let split =
            run_source(cfg(4), listing("jacobi").unwrap(), "jacobi", &[2, 2], &args).unwrap();
        let sync = run_source_with(
            cfg(4),
            listing("jacobi").unwrap(),
            "jacobi",
            &[2, 2],
            &args,
            RunOptions {
                policy: ExecPolicy {
                    split: false,
                    ..ExecPolicy::default()
                },
                ..RunOptions::default()
            },
        )
        .unwrap();
        // Same replays, same value traffic, bitwise-identical answer.
        assert_eq!(
            split.report.total_schedule_replays,
            sync.report.total_schedule_replays
        );
        assert_eq!(
            split.report.total_exchange_words,
            sync.report.total_exchange_words
        );
        for (x, y) in split.arrays[0].1.iter().zip(&sync.arrays[0].1) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Replayed exchanges hid transit behind interior iterations; the
        // blocking baseline hid nothing.
        assert!(split.report.overlap_hidden_seconds > 0.0);
        assert_eq!(sync.report.overlap_hidden_seconds, 0.0);
        assert!(
            split.report.elapsed < sync.report.elapsed,
            "split-phase must not be slower: {} vs {}",
            split.report.elapsed,
            sync.report.elapsed
        );
    }

    #[test]
    fn split_phase_marks_reconstruct_the_four_phases() {
        let np = 8i64;
        let w = (np + 1) as usize;
        let run = run_source(
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
                    data: vec![0.01; w * w],
                    bounds: vec![(0, np), (0, np)],
                },
                HostValue::Int(np),
                HostValue::Int(3),
            ],
        )
        .unwrap();
        let marks = run.report.merged_marks();
        for label in [
            "doall:inspect",
            "doall:post",
            "doall:interior",
            "doall:complete",
            "doall:boundary",
        ] {
            assert!(
                marks.iter().any(|(_, _, l)| *l == label),
                "missing phase mark {label}"
            );
        }
        // Within one processor the phases appear in engine order.
        let p0: Vec<&str> = run.report.procs[0]
            .marks
            .iter()
            .map(|m| &*m.label)
            .collect();
        let first_post = p0.iter().position(|l| *l == "doall:post").unwrap();
        assert_eq!(p0[first_post + 1], "doall:interior");
        assert_eq!(p0[first_post + 2], "doall:complete");
        assert_eq!(p0[first_post + 3], "doall:boundary");
    }

    /// The spmv listing (entry `spmvit`; `spmv` itself names the builtin)
    /// is the corpus guard for the irregular workload: parse, run, match
    /// the sequential CSR product bitwise, and pin that the value-derived
    /// x-gather is inspected once per site and replayed warm after.
    #[test]
    fn spmv_listing_derives_the_gather_from_values_and_replays_warm() {
        let src = listing("spmv").unwrap();
        let prog = parse(src).unwrap();
        assert!(prog.code.iter().any(|s| s.name == "spmvit"));
        let n = 12usize;
        // CSR band {i-2, i, i+2}, all indices 1-based as the program sees them.
        let mut rp = vec![1.0];
        let mut ci: Vec<f64> = Vec::new();
        let mut av: Vec<f64> = Vec::new();
        for i in 1..=n as i64 {
            for c in [i - 2, i, i + 2] {
                if c >= 1 && c <= n as i64 {
                    ci.push(c as f64);
                    av.push(((i * 5 + c * 3) % 7) as f64 + 1.0);
                }
            }
            rp.push((ci.len() + 1) as f64);
        }
        let nz = ci.len();
        let x0: Vec<f64> = (0..n).map(|i| (i % 9) as f64 * 0.75 - 2.0).collect();
        let iters = 4usize;
        let run = run_source(
            cfg(4),
            src,
            "spmvit",
            &[4],
            &[
                HostValue::Array {
                    data: vec![0.0; n],
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: x0.clone(),
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: rp.clone(),
                    bounds: vec![(1, (n + 1) as i64)],
                },
                HostValue::Array {
                    data: ci.clone(),
                    bounds: vec![(1, nz as i64)],
                },
                HostValue::Array {
                    data: av.clone(),
                    bounds: vec![(1, nz as i64)],
                },
                HostValue::Int(n as i64),
                HostValue::Int(nz as i64),
                HostValue::Int(iters as i64),
            ],
        )
        .unwrap();
        // Sequential reference of the same iteration, same summation order.
        let mut x = x0;
        let mut y = vec![0.0; n];
        for _ in 0..iters {
            for i in 0..n {
                let (lo, hi) = (rp[i] as usize - 1, rp[i + 1] as usize - 1);
                y[i] = (lo..hi).map(|k| av[k] * x[ci[k] as usize - 1]).sum();
            }
            x = y.iter().map(|v| v / 10.0).collect();
        }
        for (got, want) in run.arrays[0].1.iter().zip(&y) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // One inspection per doall site per processor; every later trip
        // replays the cached gather warm, with zero rollbacks.
        assert_eq!(run.report.total_inspector_runs, 2 * 4);
        assert_eq!(run.report.total_rollbacks, 0);
        assert_eq!(run.report.total_optimistic_hits, 2 * 4 * (iters as u64 - 1));
        assert!(
            run.report.total_msgs > 0,
            "the x-gather must move remote columns"
        );
    }

    /// The key fingerprints a replicated array that steers the schedule
    /// by content: three `spmv` trips with `ci(1)` edited between them
    /// inspect three times per rank, and with the unkeyed `av(1)` edited
    /// once and replay twice; three trips reading `x(i + off(1))` and
    /// `x(i + off(2))` with both offsets negated between them inspect for
    /// the first two and replay the first schedule on the third — on one
    /// and two processors, on both backends, with the bits of a run that
    /// rebuilds every trip.
    #[test]
    fn editing_a_keyed_replicated_array_forces_a_new_inspection() {
        let n = 8;
        let (mut rp, mut ci) = (vec![1.0], Vec::new());
        for i in 1..=n {
            let cols = [i - 1, i + 1].into_iter().filter(|c| (1..=n).contains(c));
            ci.extend(cols.map(|c| c as f64));
            rp.push(ci.len() as f64 + 1.0);
        }
        let nz = ci.len() as i64;
        let array = |data: Vec<f64>| HostValue::Array {
            bounds: vec![(1, data.len() as i64)],
            data,
        };
        let x = array((0..n).map(|i| 0.5 + i as f64).collect());
        let spmv_args = [
            array(vec![0.0; n as usize]),
            x.clone(),
            array(rp),
            array(ci),
            array((0..nz).map(|k| 1.0 + (k % 3) as f64).collect()),
            HostValue::Int(n),
            HostValue::Int(nz),
        ];
        let spmv = |edit: &str| {
            format!(
                "parsub edit(y, x, rp, ci, av, n, nz; procs)\n  processors procs(p)\n  \
                 real y(n), x(n) dist (block)\n  real av(nz)\n  integer rp(n + 1), ci(nz)\n  \
                 do 200 t = 1, 3\n    doall 100 i = 1, n on owner(y(i))\n      \
                 call spmv(y(i:i), ci(rp(i):rp(i + 1) - 1), av(rp(i):rp(i + 1) - 1), x(1:n))\n\
                 100 continue\n    {edit}\n200 continue\nend\n"
            )
        };
        let off_args = [
            array(vec![0.0; n as usize]),
            x,
            array(vec![2.0, 3.0]),
            HostValue::Int(n),
        ];
        let negate = "parsub edit(y, x, off, n; procs)\n  processors procs(p)\n  \
             real y(n), x(n) dist (block)\n  integer off(2)\n  \
             do 200 t = 1, 3\n    doall 100 i = 4, n - 3 on owner(y(i))\n      \
             y(i) = y(i) + x(i + off(1)) * x(i + off(2))\n\
             100 continue\n    off(1) = -off(1)\n    off(2) = -off(2)\n200 continue\nend\n";
        for (src, args, inspections) in [
            (spmv("ci(1) = mod(ci(1), n) + 1"), &spmv_args[..], 3),
            (spmv("av(1) = av(1) + 1.0"), &spmv_args[..], 1),
            (negate.to_string(), &off_args[..], 2),
        ] {
            for (p, backend) in [1, 2]
                .into_iter()
                .flat_map(|p| [BackendKind::Sim, BackendKind::Threads].map(|b| (p, b)))
            {
                let run = |optimistic| {
                    let policy = ExecPolicy {
                        optimistic,
                        ..ExecPolicy::default()
                    };
                    let opts = RunOptions {
                        policy,
                        ..RunOptions::default()
                    };
                    let cfg = cfg(p).with_backend(backend);
                    run_source_with(cfg, &src, "edit", &[p], args, opts).unwrap()
                };
                let (keyed, rebuilt) = (run(true), run(false));
                let r = &keyed.report;
                let counts = (r.total_inspector_runs, r.total_schedule_replays);
                let want = (inspections * p as u64, (3 - inspections) * p as u64);
                assert_eq!(counts, want, "{src} at p = {p} on {backend:?}");
                let bits = |run: &LangRun| -> Vec<Vec<u64>> {
                    (run.arrays.iter())
                        .map(|(_, a)| a.iter().map(|v| v.to_bits()).collect())
                        .collect()
                };
                assert_eq!(
                    bits(&keyed),
                    bits(&rebuilt),
                    "{src} at p = {p} on {backend:?}"
                );
            }
        }
    }

    #[test]
    fn adi_listing_is_shipped_and_parses() {
        let src = listing("adi").unwrap();
        let prog = parse(src).unwrap();
        let names: Vec<_> = prog.code.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["adi", "resid", "tric"]);
    }

    #[test]
    fn all_shipped_listings_parse() {
        for name in ["jacobi", "shift", "tri", "adi"] {
            let src = listing(name).unwrap();
            let prog = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!prog.code.is_empty());
            assert!(prog.code.iter().all(|s| s.parallel));
        }
    }

    /// The entry subroutine is looked up by name.
    #[test]
    fn entry_lookup_by_name() {
        let src = listing("jacobi").unwrap();
        let err = run_source(cfg(1), src, "nope", &[1], &[]).err();
        assert_eq!(err.as_deref(), Some("no subroutine named nope"));
        let err = run_source(cfg(1), src, "jacobi", &[1], &[]).err();
        assert_eq!(err.as_deref(), Some("jacobi takes 4 arguments, 0 supplied"));
    }

    /// All five shipped listings round-trip through the parser with spans
    /// that slice back to the exact source text they claim to cover, and
    /// the analyzer accepts every one of them without diagnostics.
    #[test]
    fn shipped_listings_round_trip_with_faithful_spans() {
        use resolve::{any_stmt, Callee, Node, RStmt};
        for name in ["jacobi", "shift", "tri", "adi", "spmv"] {
            let src = listing(name).unwrap();
            let prog = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(prog.src, src, "{name}: program must retain its source");
            for sub in &prog.code {
                let mut spans = Vec::new();
                any_stmt(&sub.body, &mut |n| {
                    let Node::Stmt(s) = n else { return false };
                    let (at, starts) = match s {
                        RStmt::AssignScalar { slot, at, .. }
                        | RStmt::AssignElement { slot, at, .. } => (at, sub.names[*slot].as_str()),
                        RStmt::Doall(d) => (&d.at, "doall"),
                        RStmt::Distribute { at, .. } => (at, "distribute"),
                        RStmt::Call { callee, at, .. } => match callee {
                            Callee::Builtin(b) => (at, b.name()),
                            Callee::Sub(k) => (at, prog.code[*k].name.as_str()),
                            Callee::Unknown(n) => panic!("{name}: unknown callee {n}"),
                        },
                        _ => return false,
                    };
                    spans.push((at.0, starts));
                    false
                });
                assert!(!spans.is_empty(), "{name}/{}: no spans", sub.name);
                for (span, starts) in spans {
                    assert!(
                        !span.is_empty(),
                        "{name}/{}: statement with empty span",
                        sub.name
                    );
                    let text = span.slice(src);
                    assert!(
                        !text.trim().is_empty() && text.starts_with(starts),
                        "{name}/{}: span covers {text:?}, not {starts}",
                        sub.name
                    );
                }
            }
            assert!(
                analyze(&prog).is_empty(),
                "{name}: shipped listing must be diagnostic-free"
            );
        }
    }

    #[test]
    fn replicated_scalars_and_intrinsics() {
        let src = r#"
parsub probe(a, n; procs)
  processors procs(p)
  real a(n) dist (block)
  k = log2(p)
  doall 100 ip = 1, p on procs(ip)
    lo = lower(a, procs(ip))
    hi = upper(a, procs(ip))
    a(lo) = 100.0*ip + k
    a(hi) = 200.0*ip + hi - lo + 1
100 continue
end
"#;
        let run = run_source(
            cfg(4),
            src,
            "probe",
            &[4],
            &[
                HostValue::Array {
                    data: vec![0.0; 16],
                    bounds: vec![(1, 16)],
                },
                HostValue::Int(16),
            ],
        )
        .unwrap();
        let a = &run.arrays[0].1;
        // p=4 over 16: blocks of 4; k = 2.
        assert_eq!(a[0], 102.0);
        assert_eq!(a[3], 204.0);
        assert_eq!(a[4], 202.0);
        assert_eq!(a[12], 402.0);
        assert_eq!(a[15], 804.0);
    }

    /// Run `src` with the inspector path and with static seeding under
    /// one [`ExecPolicy`]; assert bitwise-identical arrays and identical
    /// exchanged value words, and return the two runs for counter pins.
    fn seeded_vs_inspector(
        src: &str,
        entry: &str,
        p: usize,
        grid: &[usize],
        args: &[HostValue],
        policy: ExecPolicy,
    ) -> (LangRun, LangRun) {
        let base = RunOptions {
            policy,
            ..RunOptions::default()
        };
        let inspect = run_source_with(cfg(p), src, entry, grid, args, base).unwrap();
        let seeded = run_source_with(
            cfg(p),
            src,
            entry,
            grid,
            args,
            RunOptions {
                static_seed: true,
                ..base
            },
        )
        .unwrap();
        for ((name, a), (_, b)) in inspect.arrays.iter().zip(&seeded.arrays) {
            for (k, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{entry} (split={} opt={}): {name} diverges at flat {k}: {x} vs {y}",
                    policy.split,
                    policy.optimistic
                );
            }
        }
        assert_eq!(
            inspect.report.total_exchange_words, seeded.report.total_exchange_words,
            "{entry}: the static schedule must move exactly the inspector's value words"
        );
        (inspect, seeded)
    }

    /// The tentpole pin: for the analyzable listings, the compile-time
    /// schedule replaces the inspector entirely — the *cold* trip replays
    /// a seeded schedule (`inspector_runs == 0`) under both optimistic
    /// policy squares. Bitwise equal to the inspector-derived path under
    /// all four; the two that do not replay do not seed either.
    #[test]
    fn static_seeding_replays_cold_trips_with_zero_inspector_runs() {
        let np = 12i64;
        let w = (np + 1) as usize;
        let niter = 6u64;
        let jacobi_args = [
            HostValue::Array {
                data: vec![0.0; w * w],
                bounds: vec![(0, np), (0, np)],
            },
            HostValue::Array {
                data: (0..w * w).map(|k| (k % 7) as f64 * 0.01).collect(),
                bounds: vec![(0, np), (0, np)],
            },
            HostValue::Int(np),
            HostValue::Int(niter as i64),
        ];
        let shift_args = [
            HostValue::Array {
                data: (1..=12).map(f64::from).collect(),
                bounds: vec![(1, 12)],
            },
            HostValue::Int(12),
        ];
        for split in [false, true] {
            for optimistic in [false, true] {
                let policy = ExecPolicy { split, optimistic };
                let (inspect, seeded) = seeded_vs_inspector(
                    listing("jacobi").unwrap(),
                    "jacobi",
                    4,
                    &[2, 2],
                    &jacobi_args,
                    policy,
                );
                // Inspector path: one cold inspection per processor, then
                // niter-1 replays each. Seeded: zero inspections, niter
                // replays each — the cold trip replays too. Without
                // replay, both inspect on every trip.
                let (runs, replays) = match optimistic {
                    true => (4, 4 * (niter - 1)),
                    false => (4 * niter, 0),
                };
                assert_eq!(inspect.report.total_inspector_runs, runs);
                assert_eq!(inspect.report.total_schedule_replays, replays);
                let (runs, replays) = match optimistic {
                    true => (0, 4 * niter),
                    false => (4 * niter, 0),
                };
                assert_eq!(seeded.report.total_inspector_runs, runs);
                assert_eq!(seeded.report.total_schedule_replays, replays);
                assert_eq!(seeded.report.total_optimistic_hits, replays);
                assert_eq!(seeded.report.total_rollbacks, 0);

                // shift invokes its doall once: without seeding nothing
                // can replay; with it, even the single trip replays.
                let (inspect, seeded) = seeded_vs_inspector(
                    listing("shift").unwrap(),
                    "shift",
                    4,
                    &[4],
                    &shift_args,
                    policy,
                );
                assert_eq!(inspect.report.total_inspector_runs, 4);
                assert_eq!(inspect.report.total_schedule_replays, 0);
                let seeds = if optimistic { 4 } else { 0 };
                assert_eq!(seeded.report.total_inspector_runs, 4 - seeds);
                assert_eq!(seeded.report.total_schedule_replays, seeds);
            }
        }
    }

    /// Non-analyzable sites must be untouched by seeding: `tri`'s doalls
    /// (scalar assignments, builtin calls) yield no plans, so the seeded
    /// run is identical to the inspector run — and still correct.
    #[test]
    fn static_seeding_leaves_unanalyzable_sites_to_the_inspector() {
        let n = 16usize;
        let sys = kali_kernels::TriDiag::random_dd(n, 9);
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let f = sys.apply(&xt);
        let arr = |data: Vec<f64>| HostValue::Array {
            data,
            bounds: vec![(1, n as i64)],
        };
        let args = [
            arr(vec![0.0; n]),
            arr(f),
            arr(sys.b.clone()),
            arr(sys.a.clone()),
            arr(sys.c.clone()),
            HostValue::Int(n as i64),
        ];
        let (inspect, seeded) = seeded_vs_inspector(
            listing("tri").unwrap(),
            "tri",
            4,
            &[4],
            &args,
            ExecPolicy::default(),
        );
        assert_eq!(
            inspect.report.total_inspector_runs, seeded.report.total_inspector_runs,
            "no plan exists for tri's sites, so seeding must change nothing"
        );
        assert!(seeded.report.total_inspector_runs > 0);
    }

    /// A right-hand side is the executor's: the inspector records what
    /// it reads and computes nothing, so `b(i - 1)` across a block edge —
    /// still 0 in the reader's storage until the exchange — never
    /// divides, in an element assignment, a builtin's scalar argument or
    /// a scalar assignment that only feeds values. At p = 2 and 4 every
    /// backend, policy square and seeding returns p = 1's array; none
    /// stops at `integer division by zero`.
    #[test]
    fn a_right_hand_side_is_computed_on_fresh_data_only() {
        let src = |body: &str| {
            format!(
                "parsub t(a, n; procs)\n  processors procs(p)\n  real a(n), c(n) dist (block)\n  \
                 integer b(n) dist (block)\n  doall 10 i = 1, n on owner(b(i))\n    b(i) = 1\n    \
                 c(i) = 1.0\n10 continue\n  doall 20 i = 2, n on owner(a(i))\n    {body}\n\
                 20 continue\nend\n"
            )
        };
        let args = [
            HostValue::Array {
                data: vec![0.0; 8],
                bounds: vec![(1, 8)],
            },
            HostValue::Int(8),
        ];
        let seqtri = "call seqtri(a(i:i), c(i:i), c(i:i), c(i:i), c(i:i), 100 / b(i - 1))";
        let scalar = "t = 100 / b(i - 1)\n    a(i) = t";
        for (body, v) in [
            ("a(i) = 100 / b(i - 1)", 100.0),
            (seqtri, 1.0),
            (scalar, 100.0),
        ] {
            let want = [0.0, v, v, v, v, v, v, v];
            for backend in [BackendKind::Sim, BackendKind::Threads] {
                for p in [1, 2, 4] {
                    for (split, optimistic, static_seed) in
                        (0..8).map(|k| (k & 1 > 0, k & 2 > 0, k & 4 > 0))
                    {
                        let policy = ExecPolicy { split, optimistic };
                        let opts = RunOptions {
                            policy,
                            static_seed,
                        };
                        let cfg = cfg(p).with_backend(backend);
                        let run = run_source_with(cfg, &src(body), "t", &[p], &args, opts);
                        assert_eq!(
                            run.unwrap().arrays[0].1,
                            want,
                            "{body}: p = {p} on {backend:?} under {opts:?}"
                        );
                    }
                }
            }
        }
    }
}
