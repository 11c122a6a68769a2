//! The warm SpMV trip allocates nothing that grows with the matrix: an
//! exact, deterministic stand-in for a wall-clock gate on the row walk.
//!
//! This is a test binary of its own because it installs a counting
//! `#[global_allocator]`. The counter is per thread and every simulated
//! processor is one OS thread, so reading it inside the SPMD body counts
//! that rank's allocations and nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use kali::prelude::*;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is a thread-local counter bump that itself never allocates
// (`const`-initialised `Cell`, `try_with` so a thread past TLS teardown
// is skipped instead of panicking).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
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

/// Bytes rank 0 of 2 allocates during one warm `ctx.sparse().spmv` on an
/// `n`-row matrix with a ±2 band: whatever `n` is, rank 0 fetches exactly
/// two x-values, so the haul and every message are constant-size. The two
/// rank threads race on their channels, and a message that arrives before
/// its receive is posted parks in a queue a later one never touches; such
/// extras only ever add, so the least of three runs is taken.
fn warm_spmv_bytes(n: usize) -> u64 {
    (0..3)
        .map(|_| warm_spmv_bytes_once(n))
        .min()
        .expect("three runs")
}

fn warm_spmv_bytes_once(n: usize) -> u64 {
    let cfg = Machine::build(
        BackendKind::Sim,
        Topology::FullyConnected,
        CostModel::unit(),
    )
    .procs(2)
    .watchdog(Duration::from_secs(60))
    .config();
    let run = Machine::run(cfg, move |proc| {
        let grid = ProcGrid::new_1d(2);
        let a = SparseCsr::from_rows(proc.rank(), &grid, n, n, |i| {
            [i.checked_sub(2), Some(i), (i + 2 < n).then_some(i + 2)]
                .into_iter()
                .flatten()
                .map(|c| (c, ((i * 7 + c * 3) % 11) as f64 + 1.0))
                .collect()
        });
        let spec = DistSpec::block1();
        let x = DistArray1::from_fn(proc.rank(), &grid, &spec, [n], [0], |[i]| i as f64 * 0.5);
        let mut y = x.like();
        let mut ctx = Ctx::new(proc, grid);
        // The cold trip inspects and stores; the second is the first replay.
        ctx.sparse().spmv(&a, &x, &mut y);
        ctx.sparse().spmv(&a, &x, &mut y);
        let before = BYTES.with(Cell::get);
        ctx.sparse().spmv(&a, &x, &mut y);
        BYTES.with(Cell::get) - before
    });
    assert_eq!(run.report.total_inspector_runs, 2, "trips 2 and 3 replay");
    run.results[0]
}

#[test]
fn warm_spmv_allocation_does_not_grow_with_the_matrix() {
    let small = warm_spmv_bytes(256);
    assert!(small > 0, "the counter sees the trip's constant-size haul");
    assert_eq!(small, warm_spmv_bytes(1024));
}
