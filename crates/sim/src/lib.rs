//! # cesc-sim — GALS simulation kernel and online monitoring
//!
//! The "simulation environment" box of the paper's Figure 4 flow:
//!
//! * [`Simulation`] — a multi-clock (GALS) kernel driving
//!   [`Transactor`]s over the merged tick schedule;
//! * [`ScriptedTransactor`] / [`PeriodicTransactor`] /
//!   [`NoiseTransactor`] — generic traffic sources (protocol-accurate
//!   transactors live in `cesc-protocols`);
//! * [`OnlineHarness`] — monitors stepped inline with the simulation
//!   (the step-wise reference);
//! * [`run_decoupled_parallel`] — monitors off the simulation thread:
//!   the fleet sharded across worker threads via `cesc-par`'s
//!   cost-balanced planner;
//! * [`run_flow`] — the complete automated pipeline: parse → validate →
//!   synthesize → simulate → verdict.
//!
//! # Example
//!
//! ```
//! use cesc_core::SynthOptions;
//! use cesc_sim::{run_flow, FlowConfig, PeriodicTransactor};
//! use cesc_trace::ClockDomain;
//! use cesc_expr::{Alphabet, Valuation};
//!
//! let doc = "scesc ping on clk { instances { M } events { p } tick { M: p } }";
//! let mut ab = Alphabet::new();
//! let p = ab.event("p");
//! let report = run_flow(FlowConfig {
//!     document: doc.to_owned(),
//!     charts: vec![],
//!     clocks: vec![ClockDomain::new("clk", 1, 0)],
//!     transactors: vec![Box::new(PeriodicTransactor::new(
//!         "clk", vec![Valuation::of([p])], 4, 0,
//!     ))],
//!     global_steps: 10,
//!     synth: SynthOptions::default(),
//!     dump_vcd_for: None,
//! }).unwrap();
//! assert!(report.all_passed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod flow;
mod harness;
mod kernel;

pub use flow::{run_flow, FlowConfig, FlowError, FlowReport};
pub use harness::{run_decoupled_parallel, OnlineHarness, HARNESS_CHUNK};
pub use kernel::{NoiseTransactor, PeriodicTransactor, ScriptedTransactor, Simulation, Transactor};
