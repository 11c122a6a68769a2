//! Interpreted doalls allocate per trip, never per element: an exact,
//! deterministic stand-in for a wall-clock gate on the KF1 evaluator.
//! And a batch of lines run as one activation holds at most a batch's
//! lines.
//!
//! A test binary of its own because it installs a counting
//! `#[global_allocator]`. `run_source_with` owns its `Machine::run`, so
//! the counters cannot be per thread; they count what the test's thread
//! and the threads started after it allocate — the calls and their
//! processors — and not the harness's main thread, which books the
//! running test (a map entry, a timeout queue, the context of its first
//! blocking receive: four allocations) whenever it is next scheduled,
//! on a busy host inside a counted call. The gates count *allocations*:
//! buffers whose bytes scale with the problem (iteration sets, write
//! logs, array storage) are presized from the loop bounds, so their
//! count does not. The peak of live *bytes* is read on one rank.
//! Everything is counted from one `#[test]`, so nothing else in the
//! process allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use kali::lang::{listing, run_source_with, HostValue, RunOptions};
use kali::prelude::*;

static COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Threads are numbered in the order they first allocate; the harness's
/// main thread allocates before it starts the test's. Counted: the
/// threads from `FIRST` on (all of them until the test sets it).
static NEXT: AtomicU64 = AtomicU64::new(1);
static FIRST: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ID: Cell<u64> = const { Cell::new(0) };
}

/// This thread's number. `ID` needs no destructor, so reading it
/// allocates nothing.
fn id() -> Option<u64> {
    let id = ID.try_with(|id| {
        if id.get() == 0 {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    });
    id.ok()
}

/// Is this thread's allocation counted? A thread tearing its locals
/// down is.
fn counted() -> bool {
    id().is_none_or(|id| id >= FIRST.load(Ordering::Relaxed))
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is relaxed bumps of statistics that publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            COUNT.fetch_add(1, Ordering::Relaxed);
            let size = layout.size() as i64;
            PEAK.fetch_max(
                LIVE.fetch_add(size, Ordering::Relaxed) + size,
                Ordering::Relaxed,
            );
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
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

/// The host arguments of `jacobi.kf1` or `adi.kf1` on `(0:np)²`.
fn field_args(name: &str, np: usize, niter: i64) -> Vec<HostValue> {
    match name {
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
    }
}

/// Allocations of one whole run of `name` on `p` simulated processors
/// (`(0:np)²` fields, `niter` sweeps),
/// and the run's peak of live bytes above what was live before it.
/// The count is not quite a function of the program. With two ranks the
/// rank threads race on their channels, and an early message parks in a
/// queue that a late one never touches. Such extras only ever add, so the
/// least of a few runs is taken, on one rank as on two — and the
/// comparisons below still leave the transport a few allocations of
/// slack.
fn run(name: &str, p: usize, np: usize, niter: i64) -> (u64, i64) {
    let src = listing(name).expect("shipped listing");
    run_src(name, src, p, np, niter)
}

/// The CSR of the band `{i − 2, i, i + 2}` of order `n`, 1-based:
/// `(rp, ci, av)`.
fn band(n: usize) -> [HostValue; 3] {
    let (mut rp, mut ci, mut av) = (vec![1.0], Vec::new(), Vec::new());
    for i in 1..=n as i64 {
        for c in [i - 2, i, i + 2]
            .into_iter()
            .filter(|c| (1..=n as i64).contains(c))
        {
            ci.push(c as f64);
            av.push(1.0 + ((3 * i + c) % 5) as f64 * 0.25);
        }
        rp.push(ci.len() as f64 + 1.0);
    }
    let array = |data: Vec<f64>| HostValue::Array {
        bounds: vec![(1, data.len() as i64)],
        data,
    };
    [array(rp), array(ci), array(av)]
}

/// [`run`] of `src`, a twin of listing `name` (entry `spmvit`: the
/// `spmv` listing over the band of order `np`).
fn run_src(name: &str, src: &str, p: usize, np: usize, niter: i64) -> (u64, i64) {
    let vector = |data: Vec<f64>| HostValue::Array {
        bounds: vec![(1, np as i64)],
        data,
    };
    let (grid, args) = match name {
        "spmvit" => {
            let [rp, ci, av] = band(np);
            let nz = np as i64 * 3 - 4;
            let x = vector((0..np).map(|k| (k % 9) as f64 * 0.5 - 2.0).collect());
            let scalars = [np as i64, nz, niter].map(HostValue::Int);
            let args = [vector(vec![0.0; np]), x, rp, ci, av]
                .into_iter()
                .chain(scalars);
            (vec![p], args.collect())
        }
        _ => (vec![p, 1], field_args(name, np, niter)),
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
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        run_source_with(cfg, src, name, &grid, &args, RunOptions::default()).expect("runs");
        let peak = PEAK.load(Ordering::Relaxed) - live;
        (COUNT.load(Ordering::Relaxed) - before, peak)
    };
    (0..5).map(|_| once()).min().expect("at least one run")
}

/// What one extra warm sweep costs: every trip of sweep 3 replays.
fn extra_sweep(name: &str, p: usize, np: usize) -> u64 {
    run(name, p, np, 3).0 - run(name, p, np, 2).0
}

#[test]
fn a_warm_sweep_allocates_per_trip_not_per_element() {
    // From this thread on; once for the process's own lazy set-up
    // (thread-locals, stdio).
    FIRST.store(id().expect("a live thread"), Ordering::Relaxed);
    run("jacobi", 1, 4, 1);
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
        // ADI: two residual trips per iteration plus five trips per batch
        // of lines and a frame per line, so the cost is linear in the line
        // count where every batch is full. A sweep of np − 1 lines is cut
        // into batches of `LINES_PER_BATCH` = 64 per team: on one rank a
        // team of one holds every line; on two the row sweep gives each
        // rank half of them, so np − 1 is a multiple of 2 · 64 = 128 —
        // 128, 256 and 384 lines here: equal line increments cost equal
        // allocations. Not to the unit even on one rank — logs that live
        // as long as the run (phase marks) grow by doubling, and where a
        // doubling falls depends on how many trips came before — but a
        // single allocation per element update would put 4 · 2 · 128² =
        // 131 072 between the two increments.
        let [a, b, c] = [129, 257, 385].map(|np| extra_sweep("adi", p, np));
        assert!(
            (c - b).abs_diff(b - a) <= 8 + 4 * slack,
            "adi, p = {p}: {a} {b} {c}"
        );
        // A warm line on one rank is its share of one activation of
        // `tric` per batch — one frame, thirteen dynamic arrays with a line
        // axis — and of its five trips, each with one key and one exchange
        // list, plus its two builtin calls on slices of storage, which
        // allocate nothing per line: 16.0 allocations a line of a sweep
        // (23.9 with buffers per builtin call per line, 38.8 at 16 lines a
        // batch, 250 with a frame per line, 329 with a `tric` call per
        // line). Every line runs one iteration, which writes through, so no
        // write log is built, and the element loops and runs of element
        // assignments run compiled on buffers they keep from batch to
        // batch. A sweep of np = 385 has 256 more lines than one of np =
        // 129, four more batches, and an iteration has two sweeps: 512
        // lines. So the total is gated, not a rounded per-line mean: a
        // `Vec` per placement of a compiled kernel (104 more) must
        // show. It reads 8 235 in a debug build (its checks allocate) and
        // 8 195 in an optimised one, each given the linearity check's
        // slack of 8.
        if p == 1 {
            let measured = if cfg!(debug_assertions) { 8235 } else { 8195 };
            assert!(
                c - a <= measured + 8,
                "adi: {} allocations for 512 lines",
                c - a
            );
        }
    }
    // A batched ADI call on one rank holds a batch's lines at a time,
    // however many lines there are: doubling np from 80 to 160 — 79 lines
    // a sweep, a full batch of `LINES_PER_BATCH` = 64 and 15, then 159,
    // two full batches and 31 — grows its peak by what the same call grows
    // line by line — a twin whose `tric` calls take a line-dependent
    // scalar, which leaves the lockstep class and holds one line at a
    // time — plus the growth of a full batch's other 64 − 1 lines, four
    // (0:np) arrays each.
    let cap = 64;
    let adi = listing("adi").expect("shipped listing");
    let twin = (adi.replace("rho, cy, np;", "rho, cy + 0*i, np;"))
        .replace("rho, cx, np;", "rho, cx + 0*j, np;");
    let growth = |src: &str| run_src("adi", src, 1, 160, 2).1 - run_src("adi", src, 1, 80, 2).1;
    let (batched, by_line) = (growth(adi), growth(&twin));
    assert!(
        batched <= by_line + (cap - 1) * 4 * 80 * 8,
        "{batched} {by_line}"
    );
    // `spmv.kf1` on two ranks, a cold and a warm trip: its row doall runs
    // as CSR rows — placed, inspected and run without a per-row
    // allocation — so one whole call allocates as often at n as at 4n, up
    // to the transport's slack. (The walker allocated per row: 23 040 more
    // at 4n.)
    let spmv = listing("spmv").expect("shipped listing");
    let count = |n| run_src("spmvit", spmv, 2, n, 2).0;
    let (small, large) = (count(256), count(1024));
    assert!(small.abs_diff(large) <= 8, "spmv: {small} {large}");
    // One sweep of `spmv.kf1` holds the host arrays in place and each
    // processor's copy of them, plus the result buffers of its two placed
    // sites, 8 bytes a row each: quadrupling n grows the call's peak by
    // no more than that, up to 1 KiB of slack. A copy of the host
    // arguments, or a stencil register a whole row long, adds 48 KiB or
    // more.
    let host = |n: i64| 8 * (2 * n + (n + 1) + 2 * (3 * n - 4));
    for p in [1, 2] {
        let peak = |n| run_src("spmvit", spmv, p, n, 1).1;
        let growth = peak(4096) - peak(1024);
        let bound = p as i64 * (host(4096) - host(1024)) + 16 * 3072;
        assert!(growth <= bound + 1024, "spmv, p = {p}: {growth} > {bound}");
    }
}
