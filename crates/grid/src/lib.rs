//! # kali-grid — processor arrays and data distributions
//!
//! This crate implements the two declaration-level concepts of KF1
//! (Mehrotra & Van Rosendale 1989, §2):
//!
//! * **Processor arrays** ([`ProcGrid`]): the `processors procs(p, p)`
//!   declaration — an N-dimensional arrangement of machine ranks that can be
//!   *sliced* (`procs(ip, *)`) and passed to distributed procedures;
//! * **Distribution patterns** ([`DimDist`], [`Dist1`], [`DistSpec`]): the
//!   `dist (block, block)` clause — how each dimension of a data array maps
//!   onto a dimension of the processor array, with `*` marking undistributed
//!   dimensions;
//! * **Layouts** ([`Layout`]): a clause laid onto a grid for given extents
//!   — the one ownership map. Which rank owns an element, which ranks own
//!   a pinned section, what a rank owns along each dimension: the compiled
//!   arrays and the KF1 interpreter both ask it.
//!
//! Together with the paper's intrinsic functions `owner`, `lower` and
//! `upper`, these form the entire vocabulary a KF1 program uses to talk
//! about data placement. All index math here is pure (no communication), so
//! it is shared by the runtime library, the solvers and the interpreter.

mod dist;
mod grid;
mod spec;

pub use dist::{DimDist, Dist1};
pub use grid::ProcGrid;
pub use spec::{DimMap, DistSpec, Layout};
