//! # kali — parallel language constructs for tensor product computations
//!
//! A Rust reproduction of **Mehrotra & Van Rosendale, "Parallel Language
//! Constructs for Tensor Product Computations on Loosely Coupled
//! Architectures"** (ICASE Report 89-41 / NASA CR-181900, 1989).
//!
//! The paper proposes KF1 (Kali Fortran 1): processor arrays, data
//! distribution clauses, owner-computes `doall` loops with implicit
//! communication, and distributed procedures — demonstrated on tensor
//! product algorithms: parallel tridiagonal solvers, ADI, and 2-D/3-D
//! semicoarsening multigrid with zebra relaxation.
//!
//! This crate re-exports the whole system:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | machine | [`machine`] | deterministic virtual-time distributed-machine simulator |
//! | placement | [`grid`] | processor arrays, slices, block/cyclic distributions |
//! | scheduling | [`sched`] | shared inspector–executor engine: schedules, cache, replay consensus, split-phase executor |
//! | data | [`mod@array`] | SPMD distributed arrays, ghost exchange, redistribution |
//! | execution | [`runtime`] | doall/owner-computes, teams, copy-in/copy-out |
//! | kernels | [`kernels`] | Thomas, substructured & pipelined tridiagonal |
//! | applications | [`solvers`] | Jacobi, ADI (plain/pipelined), mg2/mg3 |
//! | baselines | [`mp`] | hand-written message-passing versions (Listing 2 style) |
//! | language | [`lang`] | KF1 lexer/parser/SPMD interpreter + paper listings |
//! | serving | [`serve`] | multi-tenant solve-request serving over shared, budgeted schedule caches |
//!
//! ## Quickstart
//!
//! ```
//! use kali::prelude::*;
//!
//! // A 2x2 virtual machine with 1989-era communication costs.
//! let cfg = MachineConfig::new(4);
//! let run = Machine::run(cfg, |proc| {
//!     let grid = ProcGrid::new_2d(2, 2);
//!     let spec = DistSpec::block2();
//!     // u(0:16, 0:16) dist (block, block), one ghost layer.
//!     let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [17, 17], [1, 1]);
//!     let f = DistArray2::from_fn(proc.rank(), &grid, &spec, [17, 17], [0, 0],
//!         |[i, j]| if i == 8 && j == 8 { -1.0 } else { 0.0 });
//!     let mut ctx = Ctx::new(proc, grid);
//!     kali::solvers::jacobi::jacobi_run(&mut ctx, &mut u, &f, 10)
//! });
//! assert!(run.report.elapsed > 0.0);
//! ```

pub use kali_array as array;
pub use kali_grid as grid;
pub use kali_kernels as kernels;
pub use kali_lang as lang;
pub use kali_machine as machine;
pub use kali_mp as mp;
pub use kali_runtime as runtime;
pub use kali_sched as sched;
pub use kali_serve as serve;
pub use kali_solvers as solvers;

/// The commonly needed names in one import.
pub mod prelude {
    pub use kali_array::{DistArray1, DistArray2, DistArray3, DistArrayN, Elem, Real, SparseCsr};
    pub use kali_grid::{DimDist, DimMap, Dist1, DistSpec, ProcGrid};
    pub use kali_machine::{
        collective, tag, BackendKind, CostModel, Machine, MachineBuilder, MachineConfig,
        PendingRecv, Proc, RunReport, Tag, Team, Topology, NS_USER,
    };
    pub use kali_runtime::{global_max_abs, global_norm2, Ctx, ExecPolicy, Ghosts, StencilPlan};
    pub use kali_solvers::Pde;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_a_minimal_program() {
        let run = Machine::run(MachineConfig::new(2).with_cost(CostModel::unit()), |proc| {
            let grid = ProcGrid::new_1d(2);
            let mut ctx = Ctx::new(proc, grid);
            ctx.allreduce_sum(1.0)
        });
        assert_eq!(run.results, vec![2.0, 2.0]);
    }
}
