//! Layer probes: each layer measured from outside, through its public
//! functions, on its own. A probe is a median over a few batches of a
//! fixed number of operations; SPMD probes run on two pinned workers.
//!
//! `adi_run`/`mtrix`, `kali-serve` and the hand-written message-passing
//! baseline are probes, not workloads: small-message serve passes spread
//! 0.108–0.186 s within one run on the 2-core box, and four to five long
//! workloads beat six short ones.

use std::hint::black_box;
use std::time::Instant;

use kali::array::{GatherCache, HaloCache};
use kali::grid::{DimDist, Dist1};
use kali::kernels::tridiag::{thomas, TriDiag};
use kali::kernels::{mtrix, tri_dist, TriLocal};
use kali::lang::{analyze, listing, parse, run_source_with, HostValue, RunOptions};
use kali::machine::{collective, tag, Machine, Proc, Team, NS_USER};
use kali::prelude::{Ctx, DistArray1, DistArray2, DistSpec, Ghosts, Pde, ProcGrid, SparseCsr};
use kali::sched::{
    vote, ArraySchedule, CommSchedule, ScheduleCache, ScheduleExecutor, ScheduleWorld, SiteKey,
    SplitBox2,
};
use kali::serve::{batch_order, serve, DistKind, ServeConfig, SolveRequest, SolverKind};
use kali::solvers::adi::{adi_run, suggested_rho};

use crate::harness::Target;
use crate::pin;
use crate::run::{Checks, Metric};
use crate::stats::median;

/// The committed sizes, or toy sizes for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

impl Scale {
    /// `full` at full scale, `toy` in the smoke test.
    fn pick(self, full: usize, toy: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Toy => toy,
        }
    }

    fn batches(self) -> usize {
        self.pick(5, 2)
    }
}

/// `(name, unit, value)`.
type Probe = (&'static str, &'static str, f64);

/// The probes of one layer.
type Group = fn(Scale) -> Vec<Probe>;

/// Median over `batches` of the seconds one batch takes.
fn batch_median(batches: usize, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per operation: median over batches of `ops` calls of `op`.
fn ns_per_op(scale: Scale, ops: usize, mut op: impl FnMut()) -> f64 {
    batch_median(scale.batches(), || {
        for _ in 0..ops {
            op();
        }
    }) * 1e9
        / ops as f64
}

/// Run `body` on `p` pinned workers of the threads backend; rank 0's
/// return value.
fn spmd<R: Send + 'static>(p: usize, body: impl Fn(&mut Proc) -> R + Send + Sync) -> R {
    let mut results = Machine::run(Target::Threads(p).config(), |proc| {
        pin::pin_rank(proc.rank());
        body(proc)
    })
    .results;
    results.swap_remove(0)
}

/// What an SPMD probe runs on: something that can put the workers in
/// step.
trait Lockstep {
    fn sync(&mut self);
}

impl Lockstep for Proc {
    fn sync(&mut self) {
        let team = Team::all(self.nprocs());
        collective::barrier(self, &team);
    }
}

impl Lockstep for Ctx<'_> {
    fn sync(&mut self) {
        self.barrier();
    }
}

/// SPMD form of [`ns_per_op`]: every batch starts at a barrier, so the
/// workers stay in step; rank 0's median.
fn spmd_ns_per_op<C: Lockstep>(
    scale: Scale,
    cx: &mut C,
    ops: usize,
    mut op: impl FnMut(&mut C),
) -> f64 {
    let samples: Vec<f64> = (0..scale.batches())
        .map(|_| {
            cx.sync();
            let t0 = Instant::now();
            for _ in 0..ops {
                op(cx);
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples) * 1e9 / ops as f64
}

// ---------------------------------------------------------------- machine

fn machine(scale: Scale) -> Vec<Probe> {
    let spawn = batch_median(scale.pick(20, 3), || {
        spmd(2, |_| ());
    });
    let t = tag(NS_USER, 0x50);
    let (rtt, words_per_s, isend_wait, allreduce, barrier) = spmd(2, move |proc| {
        let peer = 1 - proc.rank();
        let team = Team::all(2);
        let rtt = spmd_ns_per_op(scale, proc, scale.pick(2000, 20), |proc| {
            if proc.rank() == 0 {
                proc.send(peer, t, 1.0f64);
                let _: f64 = proc.recv(peer, t);
            } else {
                let v: f64 = proc.recv(peer, t);
                proc.send(peer, t, v);
            }
        });
        let words = scale.pick(64 * 1024, 1024);
        let payload = vec![1.0f64; words];
        let big = spmd_ns_per_op(scale, proc, scale.pick(100, 4), |proc| {
            if proc.rank() == 0 {
                proc.send(peer, t, payload.clone());
                let _: Vec<f64> = proc.recv(peer, t);
            } else {
                let v: Vec<f64> = proc.recv(peer, t);
                proc.send(peer, t, v);
            }
        });
        let isend_wait = spmd_ns_per_op(scale, proc, scale.pick(2000, 20), |proc| {
            let h = proc.irecv::<f64>(peer, t);
            let _ = proc.isend(peer, t, 1.0f64);
            black_box(proc.wait(h));
        });
        let allreduce = spmd_ns_per_op(scale, proc, scale.pick(2000, 20), |proc| {
            black_box(collective::allreduce_sum(proc, &team, 1.0));
        });
        let barrier = spmd_ns_per_op(scale, proc, scale.pick(2000, 20), |proc| {
            collective::barrier(proc, &team);
        });
        (
            rtt,
            2.0 * words as f64 / (big * 1e-9),
            isend_wait,
            allreduce,
            barrier,
        )
    });
    vec![
        ("machine.spawn_s", "s", spawn),
        ("machine.msg_rtt_ns", "ns", rtt),
        ("machine.msg_words_per_s", "1/s", words_per_s),
        ("machine.isend_wait_ns", "ns", isend_wait),
        ("machine.allreduce_ns", "ns", allreduce),
        ("machine.barrier_ns", "ns", barrier),
    ]
}

// ------------------------------------------------------------------ sched

#[derive(PartialEq, Clone)]
struct ProbeKey {
    site: usize,
    team: Vec<usize>,
    salt: u64,
}

impl SiteKey for ProbeKey {
    fn site(&self) -> usize {
        self.site
    }

    fn team_ranks(&self) -> &[usize] {
        &self.team
    }
}

fn key(k: usize) -> ProbeKey {
    ProbeKey {
        site: k % 16,
        team: vec![0, 1],
        salt: k as u64,
    }
}

/// A schedule in which each of two ranks requests `words` elements of
/// the peer's array 0.
fn pair_schedule(me: usize, words: usize) -> CommSchedule {
    let flats: Vec<u64> = (0..words as u64).collect();
    let mut my_reqs = vec![Vec::new(); 2];
    let mut incoming = vec![Vec::new(); 2];
    my_reqs[1 - me] = flats.clone();
    incoming[1 - me] = flats;
    CommSchedule {
        arrays: vec![ArraySchedule {
            name: "v".into(),
            my_reqs,
            incoming,
            origin: 0,
        }],
        write_hint: 0,
        boundary: Vec::new(),
    }
}

/// A `Vec`-backed world: `load` reads the first half, `store` writes the
/// second.
struct VecWorld {
    data: Vec<f64>,
    half: usize,
}

impl ScheduleWorld<f64> for VecWorld {
    fn load(&self, _array: usize, flat: u64) -> f64 {
        self.data[flat as usize]
    }

    fn store(&mut self, _array: usize, flat: u64, value: f64) {
        self.data[self.half + flat as usize] = value;
    }
}

fn sched(scale: Scale) -> Vec<Probe> {
    let n = scale.pick(64, 16);
    let mut cache = ScheduleCache::new(8);
    for k in 0..n {
        cache.store(key(k), pair_schedule(0, 4));
    }
    let keys: Vec<ProbeKey> = (0..n).map(key).collect();
    let mut next = 0;
    let lookup = ns_per_op(scale, scale.pick(200_000, 200), || {
        next = (next + 1) % n;
        black_box(cache.lookup(&keys[next]));
    });

    // Stores: the schedules are built outside the timed loop.
    let stores = scale.pick(2000, 32);
    let timed_stores = |budget: Option<usize>| {
        let samples: Vec<f64> = (0..scale.batches())
            .map(|_| {
                // No per-(site, team) cap: only the global budget, when
                // there is one, evicts — and then every store does.
                let mut cache = match budget {
                    Some(b) => ScheduleCache::with_budget(usize::MAX, b),
                    None => ScheduleCache::new(usize::MAX),
                };
                if let Some(b) = budget {
                    for k in 0..b {
                        cache.store(key(1_000_000 + k), pair_schedule(0, 4));
                    }
                }
                let scheds: Vec<CommSchedule> = (0..stores).map(|_| pair_schedule(0, 4)).collect();
                let t0 = Instant::now();
                for (k, s) in scheds.into_iter().enumerate() {
                    black_box(cache.store(key(k), s));
                }
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples) * 1e9 / stores as f64
    };
    let store = timed_stores(None);
    let evict_store = timed_stores(Some(scale.pick(256, 16)));

    let exec = ScheduleExecutor::new(tag(NS_USER, 0x51));
    let (consensus, exchange_words_per_s, optimistic) = spmd(2, move |proc| {
        let team = Team::all(2);
        let me = proc.rank();
        let consensus = spmd_ns_per_op(scale, proc, scale.pick(2000, 20), |proc| {
            black_box(vote::consensus(proc, &team, Some(1)));
        });
        let words = scale.pick(4096, 64);
        let sched = pair_schedule(me, words);
        let mut world = VecWorld {
            data: vec![1.0; 2 * words],
            half: words,
        };
        let exchange = spmd_ns_per_op(scale, proc, scale.pick(500, 8), |proc| {
            exec.exchange_blocking(proc, &team, &sched, &mut world);
        });
        let small = pair_schedule(me, 256.min(words));
        let optimistic = spmd_ns_per_op(scale, proc, scale.pick(2000, 20), |proc| {
            let pending = exec.post_optimistic(proc, &team, 1, Some((&small, &world)));
            let outcome = exec.complete_optimistic(proc, pending);
            exec.scatter_agreed(proc, &small, &mut world, &outcome);
        });
        (consensus, words as f64 / (exchange * 1e-9), optimistic)
    });

    let side = scale.pick(1024, 64);
    let split = SplitBox2::new([0..side, 0..side], 1..side - 1, 1..side - 1, [1, 1]);
    let rows = 2 * (side - 2);
    let split_rows = ns_per_op(scale, scale.pick(200, 4), || {
        let mut acc = 0usize;
        split.for_interior_rows(|i, js| acc += i + js.len());
        split.for_boundary_rows(|i, js| acc += i + js.len());
        black_box(acc);
    }) / rows as f64;

    vec![
        ("sched.cache_lookup_ns", "ns", lookup),
        ("sched.cache_store_ns", "ns", store),
        ("sched.cache_evict_store_ns", "ns", evict_store),
        ("sched.consensus_ns", "ns", consensus),
        ("sched.exchange_words_per_s", "1/s", exchange_words_per_s),
        ("sched.optimistic_trip_ns", "ns", optimistic),
        ("sched.split_rows_ns_per_row", "ns", split_rows),
    ]
}

// ------------------------------------------------------------------ array

/// 5-point Laplacian row on an `m × m` grid.
fn laplace_row(m: usize, i: usize) -> Vec<(usize, f64)> {
    let mut row = vec![(i, 4.0)];
    if i >= m {
        row.push((i - m, -1.0));
    }
    if !i.is_multiple_of(m) {
        row.push((i - 1, -1.0));
    }
    if i % m != m - 1 {
        row.push((i + 1, -1.0));
    }
    if i + m < m * m {
        row.push((i + m, -1.0));
    }
    row
}

fn array(scale: Scale) -> Vec<Probe> {
    let n = scale.pick(1025, 33);
    let m = scale.pick(320, 16);
    spmd(2, move |proc| {
        let rank = proc.rank();
        let grid = ProcGrid::new_2d(2, 1);
        let line = ProcGrid::new_1d(2);
        let spec = DistSpec::block2();

        let from_fn_s = batch_median(scale.batches(), || {
            black_box(DistArray2::from_fn(
                rank,
                &grid,
                &spec,
                [n, n],
                [1, 1],
                |[i, j]| (i + j) as f64,
            ));
        });
        let mut u =
            DistArray2::from_fn(rank, &grid, &spec, [n, n], [1, 1], |[i, j]| (i + j) as f64);
        let owned = (u.local_len(0) * u.local_len(1)) as f64;
        let stored = ((u.local_len(0) + 2) * (u.local_len(1) + 2) * 8) as f64;
        let snapshot = ns_per_op(scale, scale.pick(20, 2), || {
            black_box(u.clone());
        });

        let mut halo = HaloCache::new();
        u.exchange_ghosts_cached(proc, &mut halo, false);
        let halo_warm = spmd_ns_per_op(scale, proc, scale.pick(500, 4), |proc| {
            u.exchange_ghosts_cached(proc, &mut halo, false);
        });
        let halo_cold = spmd_ns_per_op(scale, proc, scale.pick(100, 4), |proc| {
            u.exchange_ghosts_cached(proc, &mut HaloCache::new(), false);
        });

        let cols = DistArray2::from_fn(
            rank,
            &line,
            &DistSpec::local_block(),
            [n, n],
            [0, 1],
            |[i, _]| i as f64,
        );
        let j = cols.owned_range(1).start;
        let mut scratch = vec![0.0; n];
        let col_into = ns_per_op(scale, scale.pick(2000, 8), || {
            cols.col_into(j, 0..n, &mut scratch);
            black_box(&scratch);
        }) / n as f64;

        let rows = m * m;
        let build_s = batch_median(scale.batches(), || {
            black_box(SparseCsr::from_rows(rank, &line, rows, rows, |i| {
                laplace_row(m, i)
            }));
        });
        let a = SparseCsr::from_rows(rank, &line, rows, rows, |i| laplace_row(m, i));
        let nnz = a.local_nnz() as f64;
        let spec1 = DistSpec::block1();
        let x = DistArray1::from_fn(rank, &line, &spec1, [rows], [0], |[i]| i as f64);
        let mut y = DistArray1::new(rank, &line, &spec1, [rows], [0]);
        let mut gather = GatherCache::new();
        let got = a.gather_x_cached(proc, &mut gather, &x);
        let apply_all = ns_per_op(scale, scale.pick(20, 2), || {
            black_box(a.apply_all(&x, Some(got.haul()), &mut y));
        }) / nnz;
        let gather_warm = spmd_ns_per_op(scale, proc, scale.pick(20, 2), |proc| {
            black_box(a.gather_x_cached(proc, &mut gather, &x).boundary().len());
        });
        let gather_cold = spmd_ns_per_op(scale, proc, scale.pick(10, 2), |proc| {
            black_box(
                a.gather_x_cached(proc, &mut GatherCache::new(), &x)
                    .boundary()
                    .len(),
            );
        });

        let half = scale.pick(513, 17);
        let src = DistArray2::from_fn(
            rank,
            &line,
            &DistSpec::block_local(),
            [half, half],
            [0, 0],
            |[i, j]| (i * half + j) as f64,
        );
        let redistribute = spmd_ns_per_op(scale, proc, scale.pick(10, 2), |proc| {
            black_box(src.redistribute(proc, &DistSpec::local_block(), [0, 0]));
        });
        let to_root = spmd_ns_per_op(scale, proc, scale.pick(10, 2), |proc| {
            black_box(u.gather_to_root(proc));
        });

        vec![
            (
                "array.snapshot_bytes_per_s",
                "B/s",
                stored / (snapshot * 1e-9),
            ),
            ("array.halo_warm_trip_ns", "ns", halo_warm),
            ("array.halo_cold_trip_ns", "ns", halo_cold),
            ("array.from_fn_ns_per_elem", "ns", from_fn_s * 1e9 / owned),
            ("array.col_into_ns_per_elem", "ns", col_into),
            ("array.gather_warm_trip_ns", "ns", gather_warm),
            ("array.gather_cold_trip_ns", "ns", gather_cold),
            ("array.csr_build_ns_per_nnz", "ns", build_s * 1e9 / nnz),
            ("array.apply_all_ns_per_nnz", "ns", apply_all),
            (
                "array.redistribute_words_per_s",
                "1/s",
                (half * half) as f64 / (redistribute * 1e-9),
            ),
            (
                "array.gather_to_root_words_per_s",
                "1/s",
                (n * n) as f64 / (to_root * 1e-9),
            ),
        ]
    })
}

// ---------------------------------------------------------------- runtime

fn runtime(scale: Scale) -> Vec<Probe> {
    let n = scale.pick(1025, 33);
    let m = scale.pick(320, 16);
    spmd(2, move |proc| {
        let rank = proc.rank();
        let grid = ProcGrid::new_2d(2, 1);
        let line = ProcGrid::new_1d(2);
        let mut u =
            DistArray2::from_fn(rank, &grid, &DistSpec::block2(), [n, n], [1, 1], |[i, j]| {
                (i + j) as f64
            });
        let mut ctx = Ctx::new(proc, grid.clone());
        let points = ((n - 2) * (n - 2)) as f64 / 2.0;
        let rows_copy = spmd_ns_per_op(scale, &mut ctx, scale.pick(20, 2), |ctx| {
            ctx.plan().reads(&mut u, Ghosts::faces(1)).update2_rows(
                1..n - 1,
                1..n - 1,
                0.0,
                |old, i, js, dst| {
                    dst.copy_from_slice(old.row(i, js));
                },
            );
        }) / points;
        let point = spmd_ns_per_op(scale, &mut ctx, scale.pick(4, 1), |ctx| {
            ctx.plan().reads(&mut u, Ghosts::faces(1)).update2(
                1..n - 1,
                1..n - 1,
                0.0,
                |old, i, j| old.at(i, j),
            );
        }) / points;
        let refresh = spmd_ns_per_op(scale, &mut ctx, scale.pick(500, 4), |ctx| {
            ctx.plan().reads(&mut u, Ghosts::faces(1)).refresh();
        });
        let call_on = spmd_ns_per_op(scale, &mut ctx, scale.pick(20_000, 20), |ctx| {
            let column = ctx.grid().slice(1, 0);
            black_box(ctx.call_on(column, |sub| sub.rank()));
        });

        let mut ctx = Ctx::new(ctx.proc(), line.clone());
        let q = scale.pick(257, 17);
        let mut v = DistArray2::from_fn(
            rank,
            &line,
            &DistSpec::local_block(),
            [q, q],
            [0, 1],
            |[i, j]| (i + j) as f64,
        );
        let lines = (q - 2) as f64 / 2.0;
        let run_lines = spmd_ns_per_op(scale, &mut ctx, scale.pick(500, 4), |ctx| {
            ctx.plan()
                .reads(&mut v, Ghosts::full(1))
                .run_lines(1, 1..q - 1, |_, v, j| {
                    black_box(v.at(0, j));
                });
        }) / lines;

        let rows = m * m;
        let a = SparseCsr::from_rows(rank, &line, rows, rows, |i| laplace_row(m, i));
        let spec1 = DistSpec::block1();
        let x = DistArray1::from_fn(rank, &line, &spec1, [rows], [0], |[i]| i as f64);
        let mut y = DistArray1::new(rank, &line, &spec1, [rows], [0]);
        ctx.sparse().spmv(&a, &x, &mut y);
        let nnz = a.local_nnz() as f64;
        let spmv = spmd_ns_per_op(scale, &mut ctx, scale.pick(20, 2), |ctx| {
            ctx.sparse().spmv(&a, &x, &mut y);
        }) / nnz;

        vec![
            ("runtime.update2_rows_copy_ns_per_point", "ns", rows_copy),
            ("runtime.update2_point_ns_per_point", "ns", point),
            ("runtime.refresh_ns", "ns", refresh),
            ("runtime.run_lines_ns_per_line", "ns", run_lines),
            ("runtime.spmv_ns_per_nnz", "ns", spmv),
            ("runtime.call_on_ns", "ns", call_on),
        ]
    })
}

// ------------------------------------------- kernels, solvers, mp baseline

fn kernels(scale: Scale) -> Vec<Probe> {
    let sys = TriDiag::random_dd(255, 7);
    let f = sys.apply(&vec![1.0; 255]);
    let thomas_ns = ns_per_op(scale, scale.pick(20_000, 20), || {
        black_box(thomas(&sys.b, &sys.a, &sys.c, &f));
    }) / 255.0;

    let n = scale.pick(512, 32);
    let systems = scale.pick(512, 8);
    let (mtrix_ns, tri_dist_ns) = spmd(2, move |proc| {
        let rank = proc.rank();
        let dist = Dist1::block(n, 2);
        let lo = dist.lower(rank).expect("nonempty block");
        let len = dist.local_len(rank);
        let locals: Vec<TriLocal> = (0..systems)
            .map(|s| {
                TriLocal::constant(
                    n,
                    lo,
                    len,
                    -1.0,
                    4.0 + s as f64 * 1e-3,
                    -1.0,
                    vec![1.0; len],
                )
            })
            .collect();
        let mut ctx = Ctx::new(proc, ProcGrid::new_1d(2));
        let unknowns = (n * systems) as f64;
        let piped = spmd_ns_per_op(scale, &mut ctx, 1, |ctx| {
            black_box(mtrix(ctx, n, locals.clone()));
        });
        let serial = spmd_ns_per_op(scale, &mut ctx, 1, |ctx| {
            for t in &locals {
                black_box(tri_dist(ctx, n, &t.b, &t.a, &t.c, &t.f));
            }
        });
        (piped / unknowns, serial / unknowns)
    });
    vec![
        ("kernels.thomas_ns_per_unknown", "ns", thomas_ns),
        ("kernels.mtrix_ns_per_unknown", "ns", mtrix_ns),
        ("kernels.tri_dist_ns_per_unknown", "ns", tri_dist_ns),
    ]
}

fn solvers_and_mp(scale: Scale) -> Vec<Probe> {
    let np = scale.pick(512, 32);
    let adi_ns = spmd(2, move |proc| {
        let rank = proc.rank();
        let grid = ProcGrid::new_2d(2, 1);
        let spec = DistSpec::block2();
        let pde = Pde::poisson();
        let rho = suggested_rho(&pde, np, np);
        let ext = [np + 1, np + 1];
        let mut u = DistArray2::new(rank, &grid, &spec, ext, [1, 1]);
        let f = DistArray2::from_fn(rank, &grid, &spec, ext, [1, 1], |[i, j]| {
            ((i * 31 + j * 17) % 97) as f64 / 97.0
        });
        let mut ctx = Ctx::new(proc, grid);
        adi_run(&mut ctx, &pde, rho, &mut u, &f, 1, true);
        let iters = scale.pick(2, 1);
        spmd_ns_per_op(scale, &mut ctx, 1, |ctx| {
            black_box(adi_run(ctx, &pde, rho, &mut u, &f, iters, true));
        }) / (iters * (np - 1) * (np - 1)) as f64
    });

    // Listing 2 by hand, on `jacobi_dense`'s grid. The local arrays are
    // set up inside the call; 40 sweeps amortize that.
    let n = scale.pick(1024, 32);
    let sweeps = scale.pick(40, 4);
    let mp_ns = spmd(2, move |proc| {
        let rhs = |i: usize, j: usize| ((i * 31 + j * 17) % 97) as f64 * 1e-5;
        spmd_ns_per_op(scale, proc, 1, |proc| {
            black_box(kali::mp::jacobi_mp(proc, 2, 1, n, &rhs, sweeps));
        }) / (sweeps * (n - 1) * (n - 1)) as f64
    });
    vec![
        ("solvers.adi_iter_ns_per_point", "ns", adi_ns),
        ("mp.jacobi_ns_per_point", "ns", mp_ns),
    ]
}

// ------------------------------------------------------------------- lang

fn lang(scale: Scale) -> Vec<Probe> {
    let names = ["jacobi", "shift", "tri", "adi", "spmv"];
    let sources: Vec<&str> = names.iter().map(|n| listing(n).expect("shipped")).collect();
    let kb = sources.iter().map(|s| s.len()).sum::<usize>() as f64 / 1024.0;
    let parse_ns = ns_per_op(scale, scale.pick(200, 2), || {
        for s in &sources {
            black_box(parse(black_box(s)).expect("listing parses"));
        }
    }) / kb;
    let programs: Vec<_> = sources.iter().map(|s| parse(s).expect("parses")).collect();
    let analyze_ns = ns_per_op(scale, scale.pick(200, 2), || {
        for p in &programs {
            black_box(analyze(p));
        }
    }) / kb;

    // T(k): wall of `jacobi.kf1` at k sweeps.
    let np = scale.pick(128, 16);
    let sweeps = 6usize;
    let w = np + 1;
    let call = |p: usize, k: usize, opts: RunOptions| {
        let args = [
            HostValue::Array {
                data: vec![0.0; w * w],
                bounds: vec![(0, np as i64); 2],
            },
            HostValue::Array {
                data: (0..w * w).map(|k| (k % 97) as f64 * 1e-5).collect(),
                bounds: vec![(0, np as i64); 2],
            },
            HostValue::Int(np as i64),
            HostValue::Int(k as i64),
        ];
        batch_median(scale.pick(3, 1), || {
            pin::with_watcher(p, || {
                run_source_with(
                    Target::Threads(p).config(),
                    sources[0],
                    "jacobi",
                    &[p, 1],
                    &args,
                    opts,
                )
                .expect("listing runs");
            });
        })
    };
    let default = RunOptions::default();
    let seeded = RunOptions {
        static_seed: true,
        ..default
    };
    let (t0, t1, tn) = (
        call(2, 0, default),
        call(2, 1, default),
        call(2, sweeps, default),
    );
    let (s0, s1) = (call(2, 0, seeded), call(2, 1, seeded));
    let (e1, en) = (call(1, 1, default), call(1, sweeps, default));
    let per_sweep = ((np - 1) * (np - 1) * (sweeps - 1)) as f64;
    vec![
        ("lang.parse_ns_per_kb", "ns", parse_ns),
        ("lang.analyze_ns_per_kb", "ns", analyze_ns),
        ("lang.host_roundtrip_s", "s", t0),
        ("lang.cold_trip_s", "s", t1 - t0),
        ("lang.warm_ns_per_unit", "ns", (tn - t1) * 1e9 / per_sweep),
        ("lang.eval_ns_per_unit", "ns", (en - e1) * 1e9 / per_sweep),
        ("lang.static_seed_cold_trip_s", "s", s1 - s0),
    ]
}

// ------------------------------------------------------------ serve, grid

fn request(tenant: u64, shape: [usize; 2]) -> SolveRequest {
    SolveRequest {
        tenant,
        shape,
        dist: DistKind::Rows,
        solver: SolverKind::Jacobi5,
        iters: 4,
        tol: 0.0,
    }
}

fn serve_and_grid(scale: Scale) -> Vec<Probe> {
    let tenants = scale.pick(256, 16);
    let shaped: Vec<SolveRequest> = (0..tenants)
        .map(|t| request(t as u64, [64, 64 + 8 * (t % 8)]))
        .collect();
    let many: Vec<SolveRequest> = (0..scale.pick(4096, 64))
        .map(|t| request(t as u64, [64, 64 + 8 * (t % 8)]))
        .collect();
    let order_ns = ns_per_op(scale, scale.pick(20, 2), || {
        black_box(batch_order(&many));
    }) / many.len() as f64;

    let cfg = ServeConfig {
        nprocs: 2,
        backend: kali::machine::BackendKind::Threads,
        halo_budget: None,
        passes: 2,
    };
    let served =
        |cfg: &ServeConfig, reqs: &[SolveRequest]| pin::with_watcher(2, || serve(cfg, reqs));
    let out = served(&cfg, &shaped);
    // All-distinct shapes under a budget of a quarter of them: every
    // request of the second pass builds, evicts and rolls back.
    let shapes = scale.pick(64, 8);
    let distinct: Vec<SolveRequest> = (0..shapes)
        .map(|t| request(t as u64, [48 + t, 64]))
        .collect();
    let churn = served(
        &ServeConfig {
            halo_budget: Some(shapes / 4),
            ..cfg
        },
        &distinct,
    );

    let n = 1 << 20;
    let block = Dist1::block(n, 8);
    let cyclic = Dist1::new(n, 8, DimDist::BlockCyclic(4));
    let mut i = 0usize;
    let mut owner_ns = |d: &Dist1| {
        ns_per_op(scale, scale.pick(1_000_000, 1000), || {
            i = (i + 7919) % n;
            black_box(d.owner(black_box(i)));
        })
    };
    let (owner_block, owner_cyclic) = (owner_ns(&block), owner_ns(&cyclic));
    vec![
        ("serve.batch_order_ns_per_req", "ns", order_ns),
        (
            "serve.cold_req_per_s",
            "1/s",
            out.passes[0].requests_per_sec(),
        ),
        (
            "serve.warm_req_per_s",
            "1/s",
            out.passes[1].requests_per_sec(),
        ),
        (
            "serve.churn_req_per_s",
            "1/s",
            churn.passes[1].requests_per_sec(),
        ),
        ("grid.owner_lookup_ns", "ns", owner_block),
        ("grid.owner_lookup_cyclic_ns", "ns", owner_cyclic),
    ]
}

/// Every probe's name and unit, in output order: a traced run prints all
/// of them, NaN (→ `null`, a failed operation) where a probe panicked.
pub const NAMES: [(&str, &str); 48] = [
    ("machine.spawn_s", "s"),
    ("machine.msg_rtt_ns", "ns"),
    ("machine.msg_words_per_s", "1/s"),
    ("machine.isend_wait_ns", "ns"),
    ("machine.allreduce_ns", "ns"),
    ("machine.barrier_ns", "ns"),
    ("sched.cache_lookup_ns", "ns"),
    ("sched.cache_store_ns", "ns"),
    ("sched.cache_evict_store_ns", "ns"),
    ("sched.consensus_ns", "ns"),
    ("sched.exchange_words_per_s", "1/s"),
    ("sched.optimistic_trip_ns", "ns"),
    ("sched.split_rows_ns_per_row", "ns"),
    ("array.snapshot_bytes_per_s", "B/s"),
    ("array.halo_warm_trip_ns", "ns"),
    ("array.halo_cold_trip_ns", "ns"),
    ("array.from_fn_ns_per_elem", "ns"),
    ("array.col_into_ns_per_elem", "ns"),
    ("array.gather_warm_trip_ns", "ns"),
    ("array.gather_cold_trip_ns", "ns"),
    ("array.csr_build_ns_per_nnz", "ns"),
    ("array.apply_all_ns_per_nnz", "ns"),
    ("array.redistribute_words_per_s", "1/s"),
    ("array.gather_to_root_words_per_s", "1/s"),
    ("runtime.update2_rows_copy_ns_per_point", "ns"),
    ("runtime.update2_point_ns_per_point", "ns"),
    ("runtime.refresh_ns", "ns"),
    ("runtime.run_lines_ns_per_line", "ns"),
    ("runtime.spmv_ns_per_nnz", "ns"),
    ("runtime.call_on_ns", "ns"),
    ("kernels.thomas_ns_per_unknown", "ns"),
    ("kernels.mtrix_ns_per_unknown", "ns"),
    ("kernels.tri_dist_ns_per_unknown", "ns"),
    ("solvers.adi_iter_ns_per_point", "ns"),
    ("mp.jacobi_ns_per_point", "ns"),
    ("lang.parse_ns_per_kb", "ns"),
    ("lang.analyze_ns_per_kb", "ns"),
    ("lang.host_roundtrip_s", "s"),
    ("lang.cold_trip_s", "s"),
    ("lang.warm_ns_per_unit", "ns"),
    ("lang.eval_ns_per_unit", "ns"),
    ("lang.static_seed_cold_trip_s", "s"),
    ("serve.batch_order_ns_per_req", "ns"),
    ("serve.cold_req_per_s", "1/s"),
    ("serve.warm_req_per_s", "1/s"),
    ("serve.churn_req_per_s", "1/s"),
    ("grid.owner_lookup_ns", "ns"),
    ("grid.owner_lookup_cyclic_ns", "ns"),
];

/// Run every probe. A probe group that panics is one failed operation
/// and leaves its metrics NaN.
pub fn all(scale: Scale, checks: &mut Checks) -> Vec<Metric> {
    let groups: [(&str, Group); 8] = [
        ("machine probes", machine),
        ("sched probes", sched),
        ("array probes", array),
        ("runtime probes", runtime),
        ("kernels probes", kernels),
        ("solvers and mp probes", solvers_and_mp),
        ("lang probes", lang),
        ("serve and grid probes", serve_and_grid),
    ];
    let mut measured: Vec<Probe> = Vec::new();
    for (what, group) in groups {
        let t0 = Instant::now();
        measured.extend(checks.attempt(what, || group(scale)).unwrap_or_default());
        eprintln!("  {what}: {:.2} s", t0.elapsed().as_secs_f64());
    }
    NAMES
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(f64::NAN, |(_, _, v)| *v);
            Metric::single(name, unit, value)
        })
        .collect()
}
