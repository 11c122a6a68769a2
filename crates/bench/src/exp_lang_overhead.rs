//! Claim C6 (§6): "The price of using KF1 instead of a message-passing
//! language is simply slower compilations, since there are additional
//! compiler transformations to be performed."
//!
//! Our interpreter performs those transformations at *run* time
//! (inspector/executor), so we report the virtual-time inflation its
//! request/reply communication causes versus compiled-quality code, with
//! the schedule cache (executor reuse) off and on. With the cache on, the
//! inspector runs once per doall site and later trips of the enclosing
//! `do` replay the cached schedule, so the inspector's share of virtual
//! time is amortized exactly as the paper claims for the compiled
//! runtime-resolution scheme.

use kali_array::DistArray2;
use kali_grid::{DistSpec, ProcGrid};
use kali_lang::{listing, run_source_with, HostValue, LangRun, RunOptions};
use kali_machine::{Machine, RunReport};
use kali_runtime::{Ctx, ExecPolicy};
use kali_solvers::jacobi::jacobi_step;

use crate::{cfg, fmt_s, Table};

fn run_jacobi_listing(w: usize, np: i64, iters: usize, f: &[f64], policy: ExecPolicy) -> LangRun {
    run_source_with(
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
                data: f.to_vec(),
                bounds: vec![(0, np), (0, np)],
            },
            HostValue::Int(np),
            HostValue::Int(iters as i64),
        ],
        RunOptions {
            policy,
            ..RunOptions::default()
        },
    )
    .expect("listing runs")
}

const ITERS: usize = 5;

/// The same Jacobi sweeps three ways.
struct Overhead {
    /// Interpreted Listing 3, inspector on every trip (cache off).
    uncached: RunReport,
    /// Interpreted Listing 3 with executor reuse (cache on).
    cached: RunReport,
    /// Native runtime-library version (what a compiler would emit).
    compiled: RunReport,
}

impl Overhead {
    /// Virtual-time inflation of run-time resolution over compiled code.
    fn inflation(&self) -> f64 {
        self.uncached.elapsed / self.compiled.elapsed
    }

    /// How much executor reuse shrinks the inspector's virtual time.
    fn inspector_cut(&self) -> f64 {
        self.uncached.inspector_seconds / self.cached.inspector_seconds.max(1e-300)
    }
}

fn measure() -> Overhead {
    let np = 16i64;
    let w = (np + 1) as usize;
    let iters = ITERS;
    let f: Vec<f64> = (0..w * w)
        .map(|k| {
            let (i, j) = (k / w, k % w);
            if i == 0 || i == w - 1 || j == 0 || j == w - 1 {
                0.0
            } else {
                ((i * 3 + j) % 5) as f64 / 50.0
            }
        })
        .collect();

    let uncached = run_jacobi_listing(w, np, iters, &f, ExecPolicy::pessimistic()).report;
    let cached = run_jacobi_listing(w, np, iters, &f, ExecPolicy::default()).report;
    let compiled = Machine::run(cfg(4), move |proc| {
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
            |[i, j]| f[i * w + j],
        );
        let mut ctx = Ctx::new(proc, grid);
        for _ in 0..iters {
            jacobi_step(&mut ctx, &mut u, &farr);
        }
    })
    .report;
    Overhead {
        uncached,
        cached,
        compiled,
    }
}

fn render(m: &Overhead) -> String {
    let mut t = Table::new(&["version", "virtual time", "inspector", "msgs", "words"]);
    for (version, r, interpreted) in [
        ("KF1 interpreted, inspector every trip", &m.uncached, true),
        ("KF1 interpreted, executor reuse", &m.cached, true),
        ("compiled-quality runtime library", &m.compiled, false),
    ] {
        t.row(vec![
            version.into(),
            fmt_s(r.elapsed),
            if interpreted {
                fmt_s(r.inspector_seconds)
            } else {
                "-".into()
            },
            r.total_msgs.to_string(),
            r.total_words.to_string(),
        ]);
    }
    format!(
        "=== Claim C6: the price of the language layer (Jacobi 16², 2x2, {ITERS} sweeps) ===\n\n{}\n\
         virtual inflation {:.2}x — the request/reply rounds of run-time\n\
         resolution versus statically scheduled ghost exchanges ([17] vs a\n\
         compiler).\n\
         executor reuse cuts inflation to {:.2}x: inspector share reduced {:.2}x\n\
         ({} inspector runs -> {} runs + {} schedule replays), exchange words\n\
         identical ({} vs {}).\n",
        t.render(),
        m.inflation(),
        m.cached.elapsed / m.compiled.elapsed,
        m.inspector_cut(),
        m.uncached.total_inspector_runs,
        m.cached.total_inspector_runs,
        m.cached.total_schedule_replays,
        m.uncached.total_exchange_words,
        m.cached.total_exchange_words,
    )
}

pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    #[test]
    fn interpreter_overhead_is_bounded() {
        let infl = super::measure().inflation();
        assert!(
            infl < 10.0,
            "runtime-resolution inflation should be bounded: {infl}"
        );
    }

    #[test]
    fn executor_reuse_cuts_inspector_share() {
        let cut = super::measure().inspector_cut();
        assert!(
            cut >= 1.5,
            "executor reuse must cut the inspector's virtual-time share by \
             at least 1.5x, got {cut}x"
        );
    }
}
