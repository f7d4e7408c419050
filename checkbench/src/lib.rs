//! End-to-end benchmark of the `cesc check` route.
//!
//! The benchmark runs from `run.py`; this crate is its helper
//! binary. It generates seeded workloads with reference verdicts
//! ([`gen`]), times the set-up in process and runs the traced
//! per-layer composition of the check route ([`traced`]). The release
//! `cesc` binary itself is timed from `run.py` as a black box.

pub mod gen;
pub mod probe;
pub mod traced;
pub mod verdict;

pub use gen::{generate, Workload};
pub use traced::{fleet, setup_once, traced, Traced};
pub use verdict::Verdicts;
