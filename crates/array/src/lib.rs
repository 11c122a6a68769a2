//! # kali-array — SPMD distributed arrays
//!
//! Distributed arrays are the only distributed data type of KF1 (§2 of the
//! paper). Each simulated processor holds a [`DistArrayN`] value describing
//! the *same* global array; the value stores only the locally owned block
//! (plus ghost layers) and the index maps needed to reason about everyone
//! else's part. Who owns what is one [`kali_grid::Layout`] per array:
//! element owners, participants, owner slices and every member's owned
//! index lists (halo build, gather, redistribution) are its answers, the
//! same ones the KF1 interpreter gets.
//!
//! The crate enforces the paper's *owner computes* discipline: reading an
//! element that is neither owned nor present in a ghost layer panics — all
//! remote data must be brought in through the explicit operations a KF1
//! compiler would generate:
//!
//! * the ghost exchange — the guarded edge exchange of Listing 2
//!   (Jacobi), generalized to any block-distributed dimension: one
//!   begin/finish pair ([`DistArrayN::begin_ghosts`] with a corner-policy
//!   flag / [`DistArrayN::finish_ghosts`]) that hands `kali-sched`'s trip
//!   driver ([`kali_sched::Trip`]) the halo's key, its *analytic*
//!   [`kali_sched::CommSchedule`] builder and the array as storage.
//!   Blocking or split-phase, rebuilt per trip or replayed warm from the
//!   [`HaloCache`] with a piggybacked (optimistic) consensus vote, is the
//!   [`kali_sched::ExecPolicy`] and the cache passed in — the layer
//!   `kali-runtime`'s `StencilPlan` drives;
//! * [`DistArrayN::box_into`]/[`DistArrayN::box_set`] — copy-in /
//!   copy-out of array slices (`r(i, *)`, `u(*, *, k)`) passed to line and
//!   plane operators: one gather of a visible box into contiguous scratch,
//!   one scatter back into an owned box;
//! * [`DistArray2::with_copy_in`] — a `doall`'s copy-in/copy-out (§2)
//!   that lends the array's storage as the snapshot instead of copying it;
//! * [`DistArrayN::gather_to_root`] — assembling a global array for
//!   verification or output;
//! * [`DistArrayN::redistribute`] — changing the `dist` clause at run time
//!   (the "tuning" the paper advertises as a one-line change);
//! * the irregular x-vector gather of the sparse matrix type
//!   ([`SparseCsr::begin_gather`] / [`SparseCsr::finish_gather`]) — the
//!   halo's runtime-sparsity sibling, through the same driver: an
//!   *inspector-derived* schedule builder (the column index set cannot
//!   be walked analytically), a [`GatherCache`] key, and a world that
//!   lands remote values in a trip-private [`GatherHaul`] instead of
//!   ghost storage — the layer `kali-runtime`'s `SparsePlan` drives.

mod arrays;
mod halo;
mod sparse;
mod xfer;

pub use arrays::{DistArray1, DistArray2, DistArray3, DistArrayN, Elem, Real};
pub use halo::{HaloCache, HaloKey, PendingHalo};
pub use sparse::{GatherCache, GatherHaul, GatherKey, Gathered, PendingGather, SparseCsr};
