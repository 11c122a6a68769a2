//! A warm Jacobi sweep allocates nothing that scales with the array: the
//! copy-in snapshot of `update2_rows` lends the array's own storage and
//! swaps in a buffer the array keeps, instead of cloning it every sweep.
//! A warm zebra relaxation allocates as often however many lines it
//! solves: one scratch buffer per call, not vectors per line.
//!
//! This is a test binary of its own because it installs a counting
//! `#[global_allocator]`. The counter is per thread and every simulated
//! processor is one OS thread, so reading it inside the SPMD body counts
//! that rank's allocations and nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use kali::prelude::*;
use kali::solvers::jacobi::jacobi_step;
use kali::solvers::mg2::zebra2;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is a thread-local counter bump that itself never allocates
// (`const`-initialised `Cell`, `try_with` so a thread past TLS teardown
// is skipped instead of panicking).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
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

fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (r, BYTES.with(Cell::get) - before)
}

/// How many allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let before = COUNT.with(Cell::get);
    f();
    COUNT.with(Cell::get) - before
}

fn two_procs() -> MachineConfig {
    Machine::build(
        BackendKind::Sim,
        Topology::FullyConnected,
        CostModel::unit(),
    )
    .procs(2)
    .watchdog(Duration::from_secs(60))
    .config()
}

/// What rank 0 of a 2×1 grid allocates on an `(n+1)²` Jacobi grid:
/// `(second sweep, u.clone() after the sweeps, local storage)`, in bytes.
/// The two rank threads race on their channels, and a message that
/// arrives before its receive is posted parks in a queue a later one
/// never touches; such extras only ever add, so the least of three runs
/// is taken.
fn rank0_bytes(n: usize) -> (u64, u64, u64) {
    (0..3)
        .map(|_| rank0_bytes_once(n))
        .min()
        .expect("three runs")
}

fn rank0_bytes_once(n: usize) -> (u64, u64, u64) {
    let run = Machine::run(two_procs(), move |proc| {
        let grid = ProcGrid::new_2d(2, 1);
        let spec = DistSpec::block2();
        let ext = [n + 1, n + 1];
        let mut u = DistArray2::from_fn(proc.rank(), &grid, &spec, ext, [1, 1], |[i, j]| {
            ((i * 13 + j * 7) % 11) as f64
        });
        let f = DistArray2::from_fn(proc.rank(), &grid, &spec, ext, [0, 0], |[i, j]| {
            ((i + 2 * j) % 5) as f64
        });
        let mut ctx = Ctx::new(proc, grid);
        // The first sweep is cold and allocates the kept buffer.
        jacobi_step(&mut ctx, &mut u, &f);
        let ((), warm) = counted(|| jacobi_step(&mut ctx, &mut u, &f));
        let (_, clone) = counted(|| u.clone());
        let storage = (u.local_len(0) + 2) * (u.local_len(1) + 2) * std::mem::size_of::<f64>();
        (warm, clone, storage as u64)
    });
    run.results[0]
}

#[test]
fn a_warm_jacobi_sweep_allocates_nothing_that_scales_with_the_array() {
    let (n_small, n_big) = (64, 256);
    let (warm_small, clone_small, storage_small) = rank0_bytes(n_small);
    let (warm_big, clone_big, storage_big) = rank0_bytes(n_big);
    assert!(
        warm_big < storage_big / 16,
        "a warm sweep at n = {n_big} allocates {warm_big} B against {storage_big} B of storage"
    );
    // What does grow is the halo payload: one face of `n + 1` f64 values.
    assert!(
        warm_big <= warm_small + 16 * (n_big - n_small) as u64,
        "a warm sweep allocates {warm_small} B at n = {n_small} but {warm_big} B at n = {n_big}"
    );
    // A clone allocates one storage and a size-independent descriptor:
    // the kept buffer never travels with it.
    assert!(clone_small >= storage_small && clone_small < 2 * storage_small);
    assert_eq!(
        clone_big - clone_small,
        storage_big - storage_small,
        "u.clone() allocates {clone_small} B and {clone_big} B"
    );
}

/// Entering a context, and narrowing it to a slice of its grid, allocate
/// nothing: the context keeps the grid it is handed and asks it for
/// membership instead of storing its own coordinates.
#[test]
fn entering_a_context_or_a_slice_allocates_nothing() {
    let run = Machine::run(two_procs(), |proc| {
        let grid = ProcGrid::new_2d(2, 1);
        let (whole, row) = (grid.clone(), grid.slice(0, 1));
        let mut entered = None;
        let enter = allocations(|| entered = Some(Ctx::new(proc, whole)));
        let mut ctx = entered.expect("entered");
        let narrow = allocations(|| ctx.call_on(row, |sub| sub.in_grid()));
        (enter, narrow)
    });
    assert_eq!(run.results, vec![(0, 0), (0, 0)]);
}

/// How many times rank 0 of a 2-processor line allocates in a warm
/// `zebra2` call on an `(n+1)²` grid (`dist (*, block)`, one ghost line),
/// the least of three warm calls of one run. One warm call of a run may
/// allocate twice more (48 and 96 B), which fits the rank thread's first
/// blocking channel receive setting up its wait context in whichever
/// call first has to wait; the other two count what every call does.
fn rank0_zebra_allocations(n: usize) -> u64 {
    let run = Machine::run(two_procs(), move |proc| {
        let grid = ProcGrid::new_1d(2);
        let spec = DistSpec::local_block();
        let ext = [n + 1, n + 1];
        let mut u = DistArray2::from_fn(proc.rank(), &grid, &spec, ext, [0, 1], |[i, j]| {
            ((i * 13 + j * 7) % 11) as f64
        });
        let f = DistArray2::from_fn(proc.rank(), &grid, &spec, ext, [0, 1], |[i, j]| {
            ((i + 2 * j) % 5) as f64
        });
        let mut ctx = Ctx::new(proc, grid);
        let pde = Pde::poisson();
        // The first call is cold: it builds and caches the halo schedule.
        zebra2(&mut ctx, &pde, &mut u, &f, 0);
        (0..3)
            .map(|_| allocations(|| zebra2(&mut ctx, &pde, &mut u, &f, 0)))
            .min()
            .expect("three warm calls")
    });
    run.results[0]
}

#[test]
fn a_warm_zebra_relaxation_allocates_per_call_not_per_line() {
    let (small, big) = (rank0_zebra_allocations(64), rank0_zebra_allocations(256));
    assert_eq!(
        small, big,
        "a warm zebra2 call allocates {small} times at n = 64 (16 lines of a colour) \
         but {big} times at n = 256 (64 lines)"
    );
}
