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
//! * [`Scoreboard`] — the dynamic scoreboard behind `Add_evt` /
//!   `Del_evt` / `Chk_evt` (one per executor; the locals of a
//!   multi-clock executor share theirs);
//! * [`compile`] — structural composition (`seq`, `par`, `alt`, `loop`,
//!   `implication`) of monitors;
//! * [`synthesize_multiclock`] — one local monitor per clock domain,
//!   synchronising through the shared scoreboard (§1, Figure 2);
//! * [`ImplicationChecker`] — the verdict-producing `implies(...)`
//!   checker of the Fig 4 verification flow, kept as the reference
//!   oracle of [`CompiledImplication`], the compiled runner `cesc
//!   check` executes;
//! * [`CompiledMonitor`] / [`BatchExec`] / [`MonitorBank`] — the
//!   batched, zero-allocation production engine: flat transition
//!   tables, precompiled guards, many monitors per shared stream of
//!   global steps ([`MonitorBank::feed_global`]);
//! * [`CompiledMultiClock`] / [`MultiClockBatchState`] — the batched
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
//! * [`Determinized`] — the exact subset-construction automaton over
//!   live prefix sets, which reports exactly the windows
//!   `cesc_semantics::match_positions` defines;
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
mod implies;
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
pub use checker::{ImplicationChecker, Verdict, Violation};
pub use determinize::{Determinized, EngineError};
pub use compose::{
    compile, flatten_chart, implication_monitors, scan_composition, Compiled, CompileError,
};
pub use dot::to_dot;
pub use implies::{CompiledImplication, ImplicationState, VIOLATION_KEEP};
pub use monitor::{
    Monitor, MonitorExec, ScanReport, StateId, StepOutcome, Transition, TransitionKind,
};
pub use multibatch::{CompiledMultiClock, MultiClockBatchState};
pub use multiclock::{synthesize_multiclock, MultiClockExec, MultiClockMonitor};
pub use scoreboard::{Action, Occurrence, Scoreboard};
pub use synth::{synthesize, OverlapPolicy, SynthError, SynthOptions};
