//! # cesc — automated synthesis of assertion monitors from visual specifications
//!
//! A complete Rust implementation of *"Automated Synthesis of Assertion
//! Monitors using Visual Specifications"* (A. A. Gadkari and S. Ramesh,
//! DATE 2005): the CESC visual specification language, the monitor
//! synthesis algorithm `Tr`, the scoreboard-synchronised multi-clock
//! monitors, and everything needed to evaluate them — a denotational
//! semantics oracle, a GALS simulation kernel, OCP/AMBA protocol
//! models, VCD I/O and HDL back-ends.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`expr`] | `cesc-expr` | alphabets, valuations, guard expressions, SAT |
//! | [`trace`] | `cesc-trace` | clocked traces, global runs, VCD, generators |
//! | [`chart`] | `cesc-chart` | the CESC language: AST, parser, renderer |
//! | [`semantics`] | `cesc-semantics` | `[[C]]` run-window membership oracle |
//! | [`core`] | `cesc-core` | **the `Tr` synthesis algorithm**, monitors, scoreboard |
//! | [`obs`] | `cesc-obs` | observability: metrics registry, span timings, run reports |
//! | [`spec`] | `cesc-spec` | unified spec-compilation front door, optimization pass pipeline |
//! | [`lint`] | `cesc-lint` | static analysis: counter bounds, vacuity, underflow, shadowing |
//! | [`hdl`] | `cesc-hdl` | Verilog / SVA emitters over the structured RTL IR |
//! | [`rtl`] | `cesc-rtl` | cycle-accurate RTL interpreter + engine co-simulation |
//! | [`sim`] | `cesc-sim` | GALS kernel, online harness, Fig 4 flow |
//! | [`par`] | `cesc-par` | sharded parallel monitor-fleet executor |
//! | [`protocols`] | `cesc-protocols` | OCP, AMBA, AXI4-Lite, APB & Wishbone libraries, traffic, faults |
//! | [`fuzz`] | `cesc-fuzz` | differential fuzzing: generators, oracles, regression corpus |
//!
//! # Quickstart
//!
//! ```
//! use cesc::prelude::*;
//!
//! // 1. the verification plan: a chart in CESC textual syntax
//! let doc = parse_document(r#"
//!     scesc handshake on clk {
//!         instances { Master, Slave }
//!         events { req, ack }
//!         tick { Master: req }
//!         tick { Slave: ack }
//!         cause req -> ack;
//!     }
//! "#).unwrap();
//!
//! // 2. automated monitor synthesis (the paper's Tr)
//! let monitor = synthesize(doc.chart("handshake").unwrap(), &SynthOptions::default()).unwrap();
//!
//! // 3. check a trace
//! let req = doc.alphabet.lookup("req").unwrap();
//! let ack = doc.alphabet.lookup("ack").unwrap();
//! let report = monitor.scan([Valuation::of([req]), Valuation::of([ack])]);
//! assert!(report.detected());
//! ```

#![warn(missing_docs)]

pub mod cli;
mod json;

pub use cesc_chart as chart;
pub use cesc_core as core;
pub use cesc_expr as expr;
pub use cesc_fuzz as fuzz;
pub use cesc_hdl as hdl;
pub use cesc_lint as lint;
pub use cesc_obs as obs;
pub use cesc_par as par;
pub use cesc_protocols as protocols;
pub use cesc_rtl as rtl;
pub use cesc_semantics as semantics;
pub use cesc_sim as sim;
pub use cesc_spec as spec;
pub use cesc_trace as trace;

/// One-stop imports for the common workflow: parse → synthesize → run.
pub mod prelude {
    pub use cesc_chart::{parse_document, render_ascii, Cesc, Document, Scesc, ScescBuilder};
    pub use cesc_core::{
        compile, synthesize, synthesize_multiclock, ImplicationChecker, Monitor,
        MonitorExec, Scoreboard, SynthOptions, Verdict,
    };
    pub use cesc_expr::{parse_expr, Alphabet, Expr, NameResolution, SymbolKind, Valuation};
    pub use cesc_sim::{run_flow, FlowConfig, Simulation};
    pub use cesc_spec::{SpecOptions, SpecSet, TargetRef};
    pub use cesc_trace::{ClockDomain, ClockSet, GlobalRun, Trace, TraceGen};
}
