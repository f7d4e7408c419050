//! # cesc-trace — clocked traces, global runs and VCD I/O
//!
//! Trace substrate of the CESC monitor-synthesis reproduction (Gadkari &
//! Ramesh, DATE 2005):
//!
//! * [`Trace`] — a finite clocked event trace over one domain (the
//!   monitor's input, paper §4);
//! * [`ClockDomain`] / [`ClockSet`] — periodic clocks of a GALS system
//!   and their merged ("union") tick schedule (paper §3);
//! * [`GlobalRun`] — a multi-clock run interleaving per-domain traces;
//! * [`write_vcd`] / [`read_vcd`] / [`write_vcd_global`] — Value
//!   Change Dump export/import so monitors can check waveforms from
//!   real HDL simulators;
//! * [`GlobalVcdStream`] — the streaming VCD reader over any
//!   [`std::io::BufRead`]: one or many clocks sampled into
//!   [`GlobalStep`] chunks, in constant memory ([`read_vcd`] is its
//!   one-clock drain);
//! * [`TraceGen`] — deterministic noise / planted-scenario / repeated
//!   transaction generators for benchmarks and property tests.
//!
//! # Example
//!
//! ```
//! use cesc_expr::{Alphabet, Valuation};
//! use cesc_trace::{Trace, TraceGen, write_vcd, read_vcd, VcdWriteOptions};
//!
//! let mut ab = Alphabet::new();
//! let req = ab.event("req");
//! let mut gen = TraceGen::new(1, &ab);
//! let trace = gen.noise(100, 0.25);
//!
//! let vcd = write_vcd(&trace, &ab, &VcdWriteOptions::default());
//! let back = read_vcd(&vcd, &ab, "clk")?;
//! assert_eq!(back, trace);
//! # Ok::<(), cesc_trace::VcdReadError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod decode;
mod gen;
mod global;
mod trace;
mod vcd;

pub use clock::{ClockDomain, ClockId, ClockSet, GlobalInstant, Schedule};
pub use gen::TraceGen;
pub use global::{GlobalRun, GlobalStep, InterleaveError};
pub use trace::Trace;
pub use vcd::{
    read_vcd, write_vcd, write_vcd_global, write_vcd_global_to, GlobalVcdStream, VcdClockSpec,
    VcdReadError, VcdWriteOptions,
};

// Chunk hand-off contract: the decoupled harness in `cesc-sim` and
// the sharded fleet executor in `cesc-par` move decoded chunks
// (`Vec<Valuation>`, `Vec<GlobalStep>`) and clock sets across threads.
// Pin thread-safety at compile time so an accidental `Rc`/`RefCell`/
// raw-pointer field in any of these types fails this crate's build
// instead of surfacing as a distant trait-bound error in a consumer.
const _: () = {
    const fn chunk_handoff_is_thread_safe<T: Send + Sync>() {}
    chunk_handoff_is_thread_safe::<cesc_expr::Valuation>();
    chunk_handoff_is_thread_safe::<Trace>();
    chunk_handoff_is_thread_safe::<GlobalStep>();
    chunk_handoff_is_thread_safe::<GlobalRun>();
    chunk_handoff_is_thread_safe::<ClockId>();
    chunk_handoff_is_thread_safe::<ClockSet>();
};
