//! The five workloads. Names are fixed: `BENCHMARK.json` lists them.

pub mod cg_sparse;
pub mod jacobi_dense;
pub mod kf1;
pub mod mg2_vcycle;

use crate::harness::Workload;
use crate::probes::Scale;

pub const NAMES: [&str; 5] = [
    "jacobi_dense",
    "mg2_vcycle",
    "cg_sparse",
    "kf1_iterative",
    "kf1_direct",
];

/// The workload called `name`, inputs generated from `seed`.
pub fn by_name(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    let full = scale == Scale::Full;
    Some(match name {
        "jacobi_dense" if full => Box::new(jacobi_dense::JacobiDense::full(seed)),
        "jacobi_dense" => Box::new(jacobi_dense::JacobiDense::toy(seed)),
        "mg2_vcycle" if full => Box::new(mg2_vcycle::Mg2Vcycle::full(seed)),
        "mg2_vcycle" => Box::new(mg2_vcycle::Mg2Vcycle::toy(seed)),
        "cg_sparse" if full => Box::new(cg_sparse::CgSparse::full(seed)),
        "cg_sparse" => Box::new(cg_sparse::CgSparse::toy(seed)),
        "kf1_iterative" if full => Box::new(kf1::Kf1::iterative_full(seed)),
        "kf1_iterative" => Box::new(kf1::Kf1::iterative_toy(seed)),
        "kf1_direct" if full => Box::new(kf1::Kf1::direct_full(seed)),
        "kf1_direct" => Box::new(kf1::Kf1::direct_toy(seed)),
        _ => return None,
    })
}
