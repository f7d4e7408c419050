//! # cesc-core — automated synthesis of assertion monitors from CESC
//!
//! The primary contribution of the reproduced paper (Gadkari & Ramesh,
//! *Automated Synthesis of Assertion Monitors using Visual
//! Specifications*, DATE 2005): the translation algorithm `Tr` that
//! turns a Clocked Event Sequence Chart into an executable assertion
//! monitor.
//!
//! * [`synthesize`] — the `Tr` algorithm (§5): `extract_pattern`,
//!   `compute_transition_func` (a KMP-style string-matching automaton
//!   generalised to expression patterns), `add_causality_check`;
//! * [`Monitor`] / [`MonitorExec`] — the synthesized automaton
//!   (§4's 5-tuple with `exp / act` transition labels) and its
//!   synchronous executor;
//! * [`Scoreboard`] / [`SharedScoreboard`] — the dynamic scoreboard
//!   behind `Add_evt` / `Del_evt` / `Chk_evt`;
//! * [`compile`] — structural composition (`seq`, `par`, `alt`, `loop`,
//!   `implication`) of monitors;
//! * [`synthesize_multiclock`] — one local monitor per clock domain,
//!   synchronising through the shared scoreboard (§1, Figure 2);
//! * [`Checker`] / [`ImplicationChecker`] — verdict-producing wrappers
//!   for the Fig 4 verification flow;
//! * [`CompiledMonitor`] / [`BatchExec`] / [`MonitorBank`] — the
//!   batched, zero-allocation production engine: flat transition
//!   tables, precompiled guards, many monitors per shared trace feed;
//! * [`CompiledMultiClock`] / [`MultiClockBatchExec`] — the batched
//!   multi-clock engine: per-domain flat tables over one shared
//!   counts-only scoreboard, clock-major chunk execution where the
//!   domains' scoreboard footprints permit;
//! * [`optimize`] / [`CompileOptions`] — the optimization pass
//!   pipeline: unreachable-state and dead-transition pruning with
//!   state renumbering at the automaton level, guard-program
//!   deduplication and scoreboard-slot narrowing at the table level
//!   (consumed through the `cesc-spec` front door);
//! * [`GuardSat`] / [`product_reachability`] / [`prove_implication`] —
//!   the semantic static-analysis layer: guard satisfiability over the
//!   compiled guard tables, SAT-pruned product reachability, and the
//!   exact `implies(...)` prover behind `cesc prove` and the lint
//!   `L1xx` findings;
//! * [`engine`] — paper-literal dense δ tables, lazy δ, the exact
//!   subset-construction reference, and the naive re-scan baseline;
//! * [`to_dot`] — Graphviz export of the synthesized automata.
//!
//! # Quickstart
//!
//! ```
//! use cesc_chart::parse_document;
//! use cesc_core::{synthesize, SynthOptions};
//! use cesc_expr::Valuation;
//!
//! // Figure 6: OCP simple read
//! let doc = parse_document(r#"
//!     scesc simple_read on clk {
//!         instances { Master, Slave }
//!         events { MCmd_rd, Addr, SCmd_accept, SResp, SData }
//!         tick { Master: MCmd_rd, Addr; Slave: SCmd_accept }
//!         tick { Slave: SResp, SData }
//!         cause MCmd_rd -> SResp;
//!     }
//! "#).unwrap();
//!
//! let monitor = synthesize(doc.chart("simple_read").unwrap(), &SynthOptions::default())?;
//! assert_eq!(monitor.state_count(), 3); // the paper's 3-state monitor
//!
//! let ab = &doc.alphabet;
//! let request = Valuation::of(["MCmd_rd", "Addr", "SCmd_accept"].map(|n| ab.lookup(n).unwrap()));
//! let response = Valuation::of(["SResp", "SData"].map(|n| ab.lookup(n).unwrap()));
//! let report = monitor.scan([request, response]);
//! assert_eq!(report.matches, vec![1]);
//! # Ok::<(), cesc_core::SynthError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod batch;
pub mod bounds;
mod checker;
mod compose;
mod determinize;
mod dot;
pub mod engine;
mod monitor;
mod multibatch;
mod multiclock;
pub mod opt;
pub mod product;
pub mod sat;
mod scoreboard;
mod synth;

pub use analysis::{analyze, MonitorStats};
pub use bounds::{infer_bounds, width_for, Bound, BoundsOptions, BoundsReport, UnderflowSite};
pub use batch::{BatchExec, CompileOptions, CompiledMonitor, MonitorBank, BATCH_CHUNK};
pub use opt::{optimize, OptReport};
pub use product::{
    product_reachability, prove_implication, reachable_states, Counterexample, ProductReport,
    ProofOutcome, ProofReport,
};
pub use sat::{ArmLit, GuardSat, GuardVerdict, GuardWitness, SatStats};
pub use checker::{Checker, ImplicationChecker, Verdict, Violation};
pub use determinize::Determinized;
pub use compose::{compile, flatten_chart, scan_composition, Compiled, CompiledExec, CompileError};
pub use dot::to_dot;
pub use monitor::{
    Monitor, MonitorExec, ScanReport, ScoreboardOps, StateId, StepOutcome, Transition,
    TransitionKind,
};
pub use multibatch::{CompiledMultiClock, MultiClockBatchExec, MultiClockBatchState};
pub use multiclock::{synthesize_multiclock, MultiClockExec, MultiClockMonitor};
pub use scoreboard::{Action, Occurrence, Scoreboard, SharedScoreboard};
pub use synth::{synthesize, OverlapPolicy, SynthError, SynthOptions};
