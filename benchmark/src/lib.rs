//! The repository's benchmark: four full-stack workloads driven from one
//! thread through `vnode::syscall::Process` over a `core::sim::FicusWorld`,
//! timed on the driver thread's CPU clock, with a stack-height ladder for
//! per-layer cost. See `benchmark/README.md`.
//!
//! Every item carries a `bm_`/`Bm` prefix: the repository's lint resolves
//! calls by name across every `.rs` file under the root, and the prefix
//! keeps the harness out of the library's call graph.

pub mod clock;
pub mod compare;
pub mod counters;
pub mod estimate;
pub mod exec;
pub mod json;
pub mod ladder;
mod layers;
pub mod model;
pub mod probe;
pub mod run;
pub mod script;
pub mod trace;
pub mod workload;
