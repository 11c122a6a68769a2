//! Interpreted doalls allocate per trip, never per element: an exact,
//! deterministic stand-in for a wall-clock gate on the KF1 evaluator.
//!
//! A test binary of its own because it installs a counting
//! `#[global_allocator]`. `run_source_with` owns its `Machine::run`, so
//! the counter is process-wide and counts *allocations*, not bytes:
//! buffers whose bytes scale with the problem (iteration sets, write
//! logs, array storage) are presized from the loop bounds, so their
//! count does not. Everything is counted from one `#[test]`, so nothing
//! else in the process allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use kali::lang::{listing, run_source_with, HostValue, RunOptions};
use kali::prelude::*;

static COUNT: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is a relaxed bump of a statistic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn field(np: usize, scale: f64) -> HostValue {
    let w = np + 1;
    HostValue::Array {
        data: (0..w * w).map(|k| scale * (k % 7) as f64).collect(),
        bounds: vec![(0, np as i64); 2],
    }
}

/// Allocations of one whole run of `name` on `p` simulated processors.
/// With two ranks the count is not quite a function of the program: the
/// rank threads race on their channels, and an early message parks in a
/// queue that a late one never touches. Such extras only ever add, so the
/// least of a few runs is taken — and the comparisons below still leave
/// the transport a few allocations of slack.
fn allocations(name: &str, p: usize, np: usize, niter: i64) -> u64 {
    let args = match name {
        "jacobi" => vec![
            field(np, 0.0),
            field(np, 1e-3),
            HostValue::Int(np as i64),
            HostValue::Int(niter),
        ],
        _ => vec![
            field(np, 0.0),
            field(np, 0.5),
            field(np, 0.0),
            HostValue::Int(np as i64),
            HostValue::Real(40.0),
            HostValue::Int(niter),
            HostValue::Real(1.0),
            HostValue::Real(1.0),
        ],
    };
    let once = || {
        let cfg = Machine::build(
            BackendKind::Sim,
            Topology::FullyConnected,
            CostModel::unit(),
        )
        .procs(p)
        .watchdog(Duration::from_secs(60))
        .config();
        let before = COUNT.load(Ordering::Relaxed);
        let src = listing(name).expect("shipped listing");
        run_source_with(cfg, src, name, &[p, 1], &args, RunOptions::default()).expect("runs");
        COUNT.load(Ordering::Relaxed) - before
    };
    let runs = if p == 1 { 1 } else { 5 };
    (0..runs).map(|_| once()).min().expect("at least one run")
}

/// What one extra warm sweep costs: every trip of sweep 3 replays.
fn extra_sweep(name: &str, p: usize, np: usize) -> u64 {
    allocations(name, p, np, 3) - allocations(name, p, np, 2)
}

#[test]
fn a_warm_sweep_allocates_per_trip_not_per_element() {
    // Once for the process's own lazy set-up (thread-locals, stdio).
    allocations("jacobi", 1, 4, 1);
    for (p, slack) in [(1, 0), (2, 8)] {
        // Jacobi: one doall trip per sweep, whatever the grid. A single
        // allocation per element update would put 31² − 15² = 736
        // between the two sizes (the parent commit puts 93 times that).
        let small = extra_sweep("jacobi", p, 16);
        let large = extra_sweep("jacobi", p, 32);
        assert!(small > 0, "the counter sees the trip's constant-size work");
        assert!(
            small.abs_diff(large) <= slack,
            "jacobi, p = {p}: {small} {large}"
        );
        // ADI: two residual trips per iteration plus a fixed number of
        // trips per grid line, so the cost is linear in the line count:
        // equal line increments cost equal allocations. Not to the unit
        // even on one rank — logs that live as long as the run (phase
        // marks) grow by doubling, and where a doubling falls depends on
        // how many trips came before — but a single allocation per
        // element update would put 4 · 2 · 8² = 512 between the two
        // increments.
        let [a, b, c] = [24, 32, 40].map(|np| extra_sweep("adi", p, np));
        assert!(
            (c - b).abs_diff(b - a) <= 8 + 4 * slack,
            "adi, p = {p}: {a} {b} {c}"
        );
        // A warm line on one rank is one `tric` call: its declarations and
        // its five doall trips, each with a key and an exchange list. Each
        // trip runs one iteration, which writes through, so no write log
        // is built and the element loops run compiled. A sweep of np = 40
        // has 2 · 16 more lines than one of np = 24.
        if p == 1 {
            let per_line = (c - a) / 32;
            assert!(per_line <= 380, "adi: {per_line} allocations per line");
        }
    }
}
