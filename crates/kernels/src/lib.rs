//! # kali-kernels — one-dimensional kernel algorithms (paper §3)
//!
//! The paper treats tridiagonal solvers as the archetypal "one-dimensional
//! kernel" from which tensor product algorithms are assembled. This crate
//! implements them, sequentially and distributed:
//!
//! * [`tridiag`] — tridiagonal systems, the sequential Thomas algorithm,
//!   and diagonally dominant test-system generators;
//! * [`substructure`] — the block elimination of Figures 1 and 2 (interior
//!   elimination with fill-in confined to the block's end columns) and the
//!   Figure 4 interior back-substitution;
//! * [`mtrix()`](mtrix::mtrix) — Listing 6: the substructured ("spike"-variant)
//!   divide-and-conquer solver on a 1-D processor array, using the
//!   shuffle/unshuffle level mapping of Listing 5 / Figure 5, pipelined
//!   over many systems so that all level sets of Figure 3's data-flow
//!   graph are busy simultaneously;
//! * [`tri_dist()`](tri_dist::tri_dist) — Listing 4: one system, which is
//!   `mtrix` with one system in the pipe (the tree is written once).

pub mod mtrix;
pub mod substructure;
pub mod tri_dist;
pub mod tridiag;

pub use mtrix::{mtrix, TriLocal};
pub use tri_dist::tri_dist;
pub use tridiag::{thomas, TriDiag};
