//! The kali benchmark. See `README.md` in this directory.

pub mod alloc;
pub mod compare;
pub mod gen;
pub mod harness;
pub mod json;
pub mod pin;
pub mod probes;
pub mod report;
pub mod run;
pub mod selftest;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
