//! CPU pinning.
//!
//! kali's workers are message-coupled: each blocks in a channel receive
//! until its peer sends. The Linux scheduler reads that as "these two
//! threads wake each other" and co-locates them on one CPU, for minutes
//! at a time, which halves the 2-worker speed and makes the wall clock
//! bimodal. Every SPMD body the benchmark supplies therefore starts with
//! [`pin_rank`]; entry points that own their `Machine::run`
//! (`lang::run_source_with`, `serve::serve`) are pinned from outside by
//! [`Watcher`], which spots the new thread ids in `/proc/self/task`.
//!
//! `sched_setaffinity` is reached through a raw `extern "C"` declaration
//! (libc is linked by std); no crate is added.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

/// 1024-bit CPU mask, the size glibc's `cpu_set_t` has.
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

#[cfg(target_os = "linux")]
fn set_mask(tid: i32, mask: &CpuMask) -> bool {
    // SAFETY: `mask` points at 128 readable bytes and the size passed is
    // exactly that; the kernel only reads it. `tid` 0 means the caller.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

#[cfg(target_os = "linux")]
fn get_mask() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is 128 writable bytes and the size passed is exactly
    // that; the kernel writes at most that many.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_tid: i32, _mask: &CpuMask) -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
fn get_mask() -> Option<CpuMask> {
    None
}

/// The CPUs this process may run on, read once at first use (before any
/// thread narrowed its own mask), and the mask that allows all of them.
fn allowed() -> &'static (Vec<usize>, CpuMask) {
    static ALLOWED: OnceLock<(Vec<usize>, CpuMask)> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mask = get_mask().unwrap_or([0; 16]);
        let cpus = (0..1024)
            .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (cpus, mask)
    })
}

/// Set when any pin request failed or two ranks had to share a CPU; the
/// output reports `pinned: false` in that case.
static PIN_FAILED: AtomicBool = AtomicBool::new(false);

/// Did every pin request so far succeed, each rank on a CPU of its own?
pub fn pinned() -> bool {
    !PIN_FAILED.load(Ordering::Relaxed)
}

/// Number of CPUs the process may use.
pub fn cpus() -> usize {
    allowed().0.len()
}

fn single(cpu: usize) -> CpuMask {
    let mut m: CpuMask = [0; 16];
    m[cpu / 64] |= 1 << (cpu % 64);
    m
}

/// `ESRCH`: no such thread.
const ESRCH: i32 = 3;

fn pin_tid(tid: i32, slot: usize) {
    let ok = match allowed().0.get(slot) {
        None => false,
        // A watched thread that has already exited ran too briefly for
        // its placement to matter; that is not a failed pin.
        Some(&cpu) => {
            set_mask(tid, &single(cpu))
                || (tid != 0 && std::io::Error::last_os_error().raw_os_error() == Some(ESRCH))
        }
    };
    if !ok {
        PIN_FAILED.store(true, Ordering::Relaxed);
    }
}

/// Pin the calling thread to the `rank`-th allowed CPU. The first
/// statement of every SPMD body the benchmark supplies.
pub fn pin_rank(rank: usize) {
    allowed();
    pin_tid(0, rank);
}

/// Widens the calling thread's mask back to every allowed CPU when
/// dropped, also when the pinned code panics: threads inherit their
/// spawner's mask, and the main thread spawns every worker.
struct Unpin;

impl Drop for Unpin {
    fn drop(&mut self) {
        let (cpus, mask) = allowed();
        if !cpus.is_empty() && !set_mask(0, mask) {
            PIN_FAILED.store(true, Ordering::Relaxed);
        }
    }
}

/// Run `f` with the calling thread pinned to the first allowed CPU — how
/// the sequential references run, so they share rank 0's CPU and cache.
/// The only place the main thread's mask is ever narrow.
pub fn on_cpu0<R>(f: impl FnOnce() -> R) -> R {
    pin_rank(0);
    let _widen = Unpin;
    f()
}

fn task_ids() -> Vec<i32> {
    let mut ids: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// Pins the next `p` threads the process spawns: the k-th new thread id
/// (ascending, which is spawn order, which is rank order in
/// `Machine::run`) goes to the k-th allowed CPU. Start it right before a
/// call that owns its `Machine::run`, and [`Watcher::finish`] it after.
pub struct Watcher {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl Watcher {
    pub fn start(p: usize) -> Watcher {
        allowed();
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Snapshot after this helper exists, so it is not "new".
                let before = task_ids();
                let _ = ready_tx.send(());
                if before.is_empty() {
                    // No /proc to watch: nothing will be pinned.
                    PIN_FAILED.store(true, Ordering::Relaxed);
                    return;
                }
                // A call that returns before all `p` threads were seen
                // was over too soon for placement to matter.
                while !stop.load(Ordering::Acquire) {
                    let fresh: Vec<i32> = task_ids()
                        .into_iter()
                        .filter(|t| before.binary_search(t).is_err())
                        .collect();
                    if fresh.len() >= p {
                        for (k, &tid) in fresh.iter().take(p).enumerate() {
                            pin_tid(tid, k);
                        }
                        return;
                    }
                    std::thread::yield_now();
                }
            })
        };
        // Do not spawn workers until the snapshot is taken.
        let _ = ready_rx.recv();
        Watcher { stop, handle }
    }

    pub fn finish(self) {
        self.stop.store(true, Ordering::Release);
        if self.handle.join().is_err() {
            PIN_FAILED.store(true, Ordering::Relaxed);
        }
    }
}

/// Run `f`, which spawns `p` worker threads of its own, with those
/// workers pinned from outside.
pub fn with_watcher<R>(p: usize, f: impl FnOnce() -> R) -> R {
    let w = Watcher::start(p);
    let r = f();
    w.finish();
    r
}
