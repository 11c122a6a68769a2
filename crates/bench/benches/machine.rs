//! Micro-benchmarks of the virtual machine substrate itself: message
//! round-trips, collectives, ghost exchange, redistribution.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use kali_array::DistArray2;
use kali_grid::{DistSpec, ProcGrid};
use kali_machine::{collective, tag, CostModel, Machine, MachineConfig, Team, NS_USER};
use kali_runtime::ExecPolicy;

fn cfg(p: usize) -> MachineConfig {
    MachineConfig::new(p)
        .with_cost(CostModel::unit())
        .with_watchdog(Duration::from_secs(60))
}

fn bench_pingpong(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.sample_size(20);
    g.bench_function("pingpong_1000", |b| {
        b.iter(|| {
            Machine::run(cfg(2), |proc| {
                let t = tag(NS_USER, 1);
                for _ in 0..1000 {
                    if proc.rank() == 0 {
                        proc.send(1, t, 1.0f64);
                        let _: f64 = proc.recv(1, t);
                    } else {
                        let v: f64 = proc.recv(0, t);
                        proc.send(0, t, v);
                    }
                }
            })
            .report
            .elapsed
        })
    });
    g.bench_function("allreduce_p16", |b| {
        b.iter(|| {
            Machine::run(cfg(16), |proc| {
                let team = Team::all(proc.nprocs());
                for _ in 0..50 {
                    collective::allreduce_sum(proc, &team, proc.rank() as f64);
                }
            })
            .report
            .elapsed
        })
    });
    g.finish();
}

fn bench_ghost_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("array");
    g.sample_size(10);
    g.bench_function("ghost_exchange_128_2x2", |b| {
        b.iter(|| {
            Machine::run(cfg(4), |proc| {
                let grid = ProcGrid::new_2d(2, 2);
                let spec = DistSpec::block2();
                let mut a = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [129, 129], [1, 1]);
                for _ in 0..10 {
                    a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
                }
            })
            .report
            .elapsed
        })
    });
    g.bench_function("redistribute_transpose_64_p4", |b| {
        b.iter(|| {
            Machine::run(cfg(4), |proc| {
                let grid = ProcGrid::new_1d(4);
                let a = DistArray2::<f64>::from_fn(
                    proc.rank(),
                    &grid,
                    &DistSpec::block_local(),
                    [64, 64],
                    [0, 0],
                    |[i, j]| (i + j) as f64,
                );
                a.redistribute(proc, &DistSpec::local_block(), [0, 0])
            })
            .report
            .elapsed
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pingpong, bench_ghost_exchange);
criterion_main!(benches);
