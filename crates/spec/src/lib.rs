//! # cesc-spec — the unified spec-compilation front door
//!
//! The paper's synthesis flow is one pipeline — visual chart →
//! automaton → monitor — but consumers used to re-derive it ad hoc:
//! every `cesc` subcommand parsed the document, resolved its targets
//! and synthesized monitors on its own. This crate is the single front
//! door from **source text to executable artifacts**:
//!
//! * [`SpecSet::load`] parses and validates the document once;
//! * [`SpecSet::resolve`] finds chart / multiclock / `implies(...)`
//!   assertion targets by name (with the canonical "not found" listing
//!   of everything available);
//! * each target compiles **once**, on first use, into a cached
//!   artifact bundle — [`ChartSpec`] / [`MultiSpec`] / [`AssertSpec`]
//!   — that the batch engine, the `cesc-par` fleet planner, the
//!   `cesc-hdl`/`cesc-rtl` backends and the `cesc-sim` harness all
//!   consume;
//! * the **optimization pass pipeline** runs by default on every
//!   compile ([`SpecOptions::optimize`], the CLI's `--no-opt` escape):
//!   unreachable-state and dead-transition pruning with renumbering
//!   ([`cesc_core::optimize`]), guard-program deduplication and
//!   scoreboard-slot narrowing ([`cesc_core::CompileOptions`]). Each
//!   artifact carries a [`PassReport`] (`states 14→9, transitions
//!   31→22, …`) and the monitor as synthesized, from which readers
//!   derive what a check never runs: `cesc lint` and the `synth`
//!   summary infer counter bounds, and the `--cosim` leg compiles the
//!   raw tables it holds the optimized artifact to.
//!
//! [`SpecSet::clock_plan`] additionally centralises the VCD sampling
//! plan (declared clock names, per-clock symbol masks, `--clock`
//! override validation) that every `cesc check` route shares.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::OnceCell;
use std::fmt;

use cesc_chart::{parse_document, Cesc, Document, Scesc};
use cesc_core::{
    implication_monitors, optimize, prove_implication, synthesize, synthesize_multiclock,
    CompileOptions, CompiledImplication, CompiledMonitor, CompiledMultiClock, Monitor,
    MultiClockMonitor, ProofReport, SynthOptions,
};
use cesc_expr::Valuation;

mod clock;

pub use clock::ClockPlan;

/// Error from loading, resolving or compiling a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The document failed to parse or validate.
    Parse(String),
    /// A target failed to synthesize or compile.
    Compile(String),
    /// A `--chart` name matched nothing; the message lists every
    /// available target of all three kinds.
    UnknownTarget(String),
    /// The selection is structurally invalid (empty document, non-
    /// assert composition named as a check target, multi-clock
    /// assertion, …).
    Invalid(String),
    /// A `--clock` override that cannot apply to the selected targets
    /// (usage error, not a pipeline failure).
    ClockOverride(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(m)
            | SpecError::Compile(m)
            | SpecError::UnknownTarget(m)
            | SpecError::Invalid(m)
            | SpecError::ClockOverride(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Knobs for [`SpecSet::load_with`].
#[derive(Debug, Clone, Default)]
pub struct SpecOptions {
    /// Run the optimization pass pipeline on every compiled target
    /// (the default; the CLI's `--no-opt` turns it off). Off, targets
    /// compile exactly as synthesized, with the raw table layout.
    pub optimize: bool,
    /// No-op: targets compile the same whatever its value. It selected
    /// a bit-sliced engine that no longer exists, and stays only
    /// because the frozen `checkbench/` helper still sets it.
    pub simd: bool,
    /// Synthesis options forwarded to the `Tr` algorithm.
    pub synth: SynthOptions,
    /// Observability registry: the `parse` span and per-target
    /// `compile`/`optimize` spans accumulate here. Disabled (no-op)
    /// by default.
    pub obs: cesc_obs::Obs,
}

impl SpecOptions {
    /// The default configuration: optimization on.
    pub fn new() -> Self {
        SpecOptions {
            optimize: true,
            simd: false,
            synth: SynthOptions::default(),
            obs: cesc_obs::Obs::disabled(),
        }
    }
}

/// What the pass pipeline did to one compiled target, measured on the
/// artifacts themselves: a raw compile of the synthesized monitor vs
/// the optimized tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassReport {
    /// States `(before, after)`.
    pub states: (usize, usize),
    /// Transitions `(before, after)`.
    pub transitions: (usize, usize),
    /// Postfix guard-program pool size in ops `(before, after)` —
    /// shrinks under dead-arm pruning *and* guard CSE.
    pub guard_ops: (usize, usize),
    /// Scoreboard count-table slots `(before, after)` — shrinks under
    /// symbol narrowing.
    pub slots: (usize, usize),
    /// Modelled per-tick cost `(before, after)` — the weight the
    /// `cesc-par` shard planner balances.
    pub step_cost: (u64, u64),
}

impl PassReport {
    fn measure(raw: &CompiledMonitor, optimized: &CompiledMonitor) -> Self {
        PassReport {
            states: (raw.state_count(), optimized.state_count()),
            transitions: (raw.transition_count(), optimized.transition_count()),
            guard_ops: (raw.program_op_count(), optimized.program_op_count()),
            slots: (raw.scoreboard_slots(), optimized.scoreboard_slots()),
            step_cost: (raw.step_cost(), optimized.step_cost()),
        }
    }

    fn measure_multi(raw: &CompiledMultiClock, optimized: &CompiledMultiClock) -> Self {
        let sum = |m: &CompiledMultiClock| {
            m.locals().iter().fold((0, 0, 0, 0), |acc, l| {
                (
                    acc.0 + l.state_count(),
                    acc.1 + l.transition_count(),
                    acc.2 + l.program_op_count(),
                    acc.3.max(l.scoreboard_slots()),
                )
            })
        };
        let r = sum(raw);
        let o = sum(optimized);
        PassReport {
            states: (r.0, o.0),
            transitions: (r.1, o.1),
            guard_ops: (r.2, o.2),
            slots: (r.3, o.3),
            step_cost: (raw.step_cost(), optimized.step_cost()),
        }
    }

    /// Whether any pass changed any table dimension.
    pub fn changed(&self) -> bool {
        self.states.0 != self.states.1
            || self.transitions.0 != self.transitions.1
            || self.guard_ops.0 != self.guard_ops.1
            || self.slots.0 != self.slots.1
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "states {}→{}, transitions {}→{}, guard ops {}→{}, scoreboard slots {}→{}, \
             step cost {}→{}",
            self.states.0,
            self.states.1,
            self.transitions.0,
            self.transitions.1,
            self.guard_ops.0,
            self.guard_ops.1,
            self.slots.0,
            self.slots.1,
            self.step_cost.0,
            self.step_cost.1
        )
    }
}

/// Compiled artifact bundle of one basic chart: the automaton as
/// synthesized, the (possibly optimized) automaton a target executes,
/// its compacted batch tables, and the pass report.
#[derive(Debug, Clone)]
pub struct ChartSpec {
    monitor: Monitor,
    synthesized: Monitor,
    compiled: CompiledMonitor,
    report: Option<PassReport>,
}

impl ChartSpec {
    /// The executable automaton (post-pipeline unless `--no-opt`) —
    /// what the HDL backends lower, so emitted Verilog drops dead
    /// guard arms.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The compacted flat tables the batch engine executes and the
    /// `cesc-par` planner costs (post-opt `step_cost`).
    pub fn compiled(&self) -> &CompiledMonitor {
        &self.compiled
    }

    /// What the pass pipeline did, or `None` under `--no-opt`.
    pub fn report(&self) -> Option<&PassReport> {
        self.report.as_ref()
    }

    /// The monitor exactly as synthesized, before any optimization
    /// pass. Static analyses (`cesc-lint`, the counter bounds) run on
    /// this form so their findings are identical with and without
    /// `--no-opt` — the optimizer renumbers states and drops arms,
    /// which would otherwise shift every finding's location. Its raw
    /// compile is the unoptimized engine differential oracles (the
    /// `--cosim` leg) hold the optimized artifact to.
    pub fn synthesized(&self) -> &Monitor {
        &self.synthesized
    }
}

/// Compiled artifact bundle of one `multiclock` spec.
#[derive(Debug, Clone)]
pub struct MultiSpec {
    monitor: MultiClockMonitor,
    synthesized: MultiClockMonitor,
    compiled: CompiledMultiClock,
    report: Option<PassReport>,
}

impl MultiSpec {
    /// The executable multi-clock monitor (post-pipeline locals).
    pub fn monitor(&self) -> &MultiClockMonitor {
        &self.monitor
    }

    /// The compiled shared-scoreboard engine form.
    pub fn compiled(&self) -> &CompiledMultiClock {
        &self.compiled
    }

    /// Aggregate pass report over the locals, or `None` under
    /// `--no-opt`.
    pub fn report(&self) -> Option<&PassReport> {
        self.report.as_ref()
    }

    /// The multi-clock monitor exactly as synthesized, before any
    /// optimization pass — the form static analyses run on.
    pub fn synthesized(&self) -> &MultiClockMonitor {
        &self.synthesized
    }
}

/// Compiled artifact bundle of one `implies(...)` assertion: the two
/// synthesized (and optimized) monitors, the single clock domain
/// driving the assertion, and the [`CompiledImplication`] tables
/// `cesc check` runs.
#[derive(Debug, Clone)]
pub struct AssertSpec {
    name: String,
    clock: String,
    antecedent: Monitor,
    consequent: Monitor,
    compiled: CompiledImplication,
    synthesized_antecedent: Monitor,
    synthesized_consequent: Monitor,
}

impl AssertSpec {
    /// The assertion's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The clock domain whose ticks drive the assertion.
    pub fn clock(&self) -> &str {
        &self.clock
    }

    /// The antecedent monitor.
    pub fn antecedent(&self) -> &Monitor {
        &self.antecedent
    }

    /// The consequent monitor.
    pub fn consequent(&self) -> &Monitor {
        &self.consequent
    }

    /// The assertion compiled for the engine — built from
    /// [`AssertSpec::antecedent`] / [`AssertSpec::consequent`] with
    /// [`CompileOptions::optimized`], or [`CompileOptions::raw`] when
    /// optimization is off.
    pub fn compiled(&self) -> &CompiledImplication {
        &self.compiled
    }

    /// The antecedent exactly as synthesized, before any optimization
    /// pass — the form static analyses run on, so their findings are
    /// identical with and without `--no-opt`.
    pub fn synthesized_antecedent(&self) -> &Monitor {
        &self.synthesized_antecedent
    }

    /// The consequent exactly as synthesized, before any optimization
    /// pass — the form static analyses run on.
    pub fn synthesized_consequent(&self) -> &Monitor {
        &self.synthesized_consequent
    }
}

/// A resolved check/synth target: an index into the document's chart,
/// multiclock or composition list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetRef {
    /// Basic chart (index into [`Document::charts`]).
    Chart(usize),
    /// Multiclock spec (index into [`Document::multiclock`]).
    Multi(usize),
    /// `implies(...)` composition (index into
    /// [`Document::compositions`]).
    Assert(usize),
}

/// A parsed, validated document plus the compile-once artifact cache —
/// the object every `cesc` route and harness consumes.
///
/// # Examples
///
/// ```
/// use cesc_spec::{SpecSet, TargetRef};
///
/// let specs = SpecSet::load(
///     "scesc hs on clk { instances { M } events { req, ack } \
///      tick { M: req } tick { M: ack } }",
/// ).unwrap();
/// let TargetRef::Chart(i) = specs.resolve("hs").unwrap() else { unreachable!() };
/// let spec = specs.chart_spec(i).unwrap();
/// assert_eq!(spec.compiled().name(), "hs");
/// assert!(spec.report().is_some()); // pass pipeline ran by default
/// ```
#[derive(Debug)]
pub struct SpecSet {
    doc: Document,
    options: SpecOptions,
    charts: Vec<OnceCell<ChartSpec>>,
    multis: Vec<OnceCell<MultiSpec>>,
    asserts: Vec<OnceCell<AssertSpec>>,
    proofs: Vec<OnceCell<ProofReport>>,
}

/// Renders a target-name list, or `(none)`.
fn listed(items: Vec<&str>) -> String {
    if items.is_empty() {
        "(none)".to_owned()
    } else {
        items.join(", ")
    }
}

/// Whether a composition is checkable as an assertion (an
/// `implies(...)`).
fn assert_capable(c: &Cesc) -> bool {
    matches!(c, Cesc::Implication(_, _))
}

impl SpecSet {
    /// Parses and validates `source` with default options (pass
    /// pipeline on).
    pub fn load(source: &str) -> Result<Self, SpecError> {
        Self::load_with(source, SpecOptions::new())
    }

    /// Parses and validates `source` under explicit options.
    pub fn load_with(source: &str, options: SpecOptions) -> Result<Self, SpecError> {
        let doc = options
            .obs
            .time("parse", || parse_document(source))
            .map_err(|e| SpecError::Parse(e.to_string()))?;
        Ok(Self::from_document(doc, options))
    }

    /// Wraps an already-parsed document (the library entry point for
    /// harnesses that build documents programmatically).
    pub fn from_document(doc: Document, options: SpecOptions) -> Self {
        let charts = (0..doc.charts.len()).map(|_| OnceCell::new()).collect();
        let multis = (0..doc.multiclock.len()).map(|_| OnceCell::new()).collect();
        let asserts = (0..doc.compositions.len()).map(|_| OnceCell::new()).collect();
        let proofs = (0..doc.compositions.len()).map(|_| OnceCell::new()).collect();
        SpecSet {
            doc,
            options,
            charts,
            multis,
            asserts,
            proofs,
        }
    }

    /// The parsed document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The document's alphabet.
    pub fn alphabet(&self) -> &cesc_expr::Alphabet {
        &self.doc.alphabet
    }

    /// The options the set was loaded with.
    pub fn options(&self) -> &SpecOptions {
        &self.options
    }

    /// The display name of a resolved target.
    pub fn target_name(&self, target: TargetRef) -> &str {
        match target {
            TargetRef::Chart(i) => self.doc.charts[i].name(),
            TargetRef::Multi(i) => self.doc.multiclock[i].name(),
            TargetRef::Assert(i) => &self.doc.compositions[i].0,
        }
    }

    /// The symbols a resolved target reads: the events, guard
    /// propositions and arrow endpoints of every basic chart in it.
    pub fn target_symbols(&self, target: TargetRef) -> Valuation {
        let charts: Vec<&Scesc> = match target {
            TargetRef::Chart(i) => vec![&self.doc.charts[i]],
            TargetRef::Multi(i) => self.doc.multiclock[i].charts().iter().collect(),
            TargetRef::Assert(i) => self.doc.compositions[i].1.basic_charts(),
        };
        charts.iter().fold(Valuation::empty(), |acc, c| acc | c.mentioned_symbols())
    }

    /// Resolves a basic chart by name — `None` picks the document's
    /// first chart (the `cesc render`/`synth` default). The error
    /// message lists the available charts.
    pub fn chart_index(&self, name: Option<&str>) -> Result<usize, SpecError> {
        match name {
            Some(name) => self
                .doc
                .charts
                .iter()
                .position(|c| c.name() == name)
                .ok_or_else(|| {
                    SpecError::UnknownTarget(format!(
                        "chart `{name}` not found; available: {}",
                        self.doc
                            .charts
                            .iter()
                            .map(Scesc::name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                }),
            None if self.doc.charts.is_empty() => Err(SpecError::Invalid(
                "document contains no charts".to_owned(),
            )),
            None => Ok(0),
        }
    }

    /// Resolves a check target by name: basic charts first, then
    /// `multiclock` specs, then `implies(...)` compositions. Unknown
    /// names list every available target of all three kinds; a
    /// composition that is not an implication is rejected.
    pub fn resolve(&self, name: &str) -> Result<TargetRef, SpecError> {
        let _span = self.options.obs.span("resolve");
        if let Some(i) = self.doc.charts.iter().position(|c| c.name() == name) {
            return Ok(TargetRef::Chart(i));
        }
        if let Some(i) = self.doc.multiclock.iter().position(|m| m.name() == name) {
            return Ok(TargetRef::Multi(i));
        }
        if let Some((i, (_, cesc))) = self
            .doc
            .compositions
            .iter()
            .enumerate()
            .find(|(_, (n, _))| n == name)
        {
            if assert_capable(cesc) {
                return Ok(TargetRef::Assert(i));
            }
            return Err(SpecError::Invalid(format!(
                "composition `{name}` is not an implies(...) chart; `check` verifies basic \
                 charts, multiclock specs and implication compositions"
            )));
        }
        Err(self.unknown_target(name))
    }

    /// The canonical "not found" error listing every available target.
    fn unknown_target(&self, name: &str) -> SpecError {
        let charts = listed(self.doc.charts.iter().map(Scesc::name).collect());
        let multis = listed(self.doc.multiclock.iter().map(|m| m.name()).collect());
        let asserts = listed(
            self.doc
                .compositions
                .iter()
                .filter(|(_, c)| assert_capable(c))
                .map(|(n, _)| n.as_str())
                .collect(),
        );
        SpecError::UnknownTarget(format!(
            "chart `{name}` not found; available charts: {charts}; multiclock specs: {multis}; \
             assert compositions: {asserts}"
        ))
    }

    /// Every checkable target in document order: basic charts, then
    /// multiclock specs, then `implies(...)` compositions — what
    /// `--all-charts` selects.
    pub fn checkable_targets(&self) -> Vec<TargetRef> {
        let mut targets: Vec<TargetRef> =
            (0..self.doc.charts.len()).map(TargetRef::Chart).collect();
        targets.extend((0..self.doc.multiclock.len()).map(TargetRef::Multi));
        targets.extend(
            self.doc
                .compositions
                .iter()
                .enumerate()
                .filter(|(_, (_, c))| assert_capable(c))
                .map(|(i, _)| TargetRef::Assert(i)),
        );
        targets
    }

    /// The compiled artifact bundle of basic chart `idx`, building it
    /// on first use (synthesize once, optimize once, compile once).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn chart_spec(&self, idx: usize) -> Result<&ChartSpec, SpecError> {
        if self.charts[idx].get().is_none() {
            let built = self.build_chart(idx)?;
            let _ = self.charts[idx].set(built);
        }
        Ok(self.charts[idx].get().expect("just built"))
    }

    fn build_chart(&self, idx: usize) -> Result<ChartSpec, SpecError> {
        let obs = &self.options.obs;
        let chart = &self.doc.charts[idx];
        let (synthesized, raw) = {
            let _span = obs.span("compile");
            let synthesized = synthesize(chart, &self.options.synth)
                .map_err(|e| SpecError::Compile(e.to_string()))?;
            let raw = synthesized.compiled_with(&CompileOptions::raw());
            (synthesized, raw)
        };
        Ok(if self.options.optimize {
            let _span = obs.span("optimize");
            let (monitor, _) = optimize(&synthesized);
            let compiled = monitor.compiled_with(&CompileOptions::optimized());
            let report = PassReport::measure(&raw, &compiled);
            ChartSpec {
                monitor,
                synthesized,
                compiled,
                report: Some(report),
            }
        } else {
            ChartSpec {
                monitor: synthesized.clone(),
                synthesized,
                compiled: raw,
                report: None,
            }
        })
    }

    /// The compiled artifact bundle of multiclock spec `idx`, building
    /// it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn multi_spec(&self, idx: usize) -> Result<&MultiSpec, SpecError> {
        if self.multis[idx].get().is_none() {
            let built = self.build_multi(idx)?;
            let _ = self.multis[idx].set(built);
        }
        Ok(self.multis[idx].get().expect("just built"))
    }

    fn build_multi(&self, idx: usize) -> Result<MultiSpec, SpecError> {
        let obs = &self.options.obs;
        let spec = &self.doc.multiclock[idx];
        let (synthesized, raw) = {
            let _span = obs.span("compile");
            let synthesized = synthesize_multiclock(spec, &self.options.synth)
                .map_err(|e| SpecError::Compile(e.to_string()))?;
            let raw = CompiledMultiClock::with_options(&synthesized, &CompileOptions::raw());
            (synthesized, raw)
        };
        Ok(if self.options.optimize {
            let _span = obs.span("optimize");
            let locals: Vec<Monitor> = synthesized
                .locals()
                .iter()
                .map(|m| optimize(m).0)
                .collect();
            let monitor = MultiClockMonitor::from_locals(synthesized.name(), locals);
            let compiled =
                CompiledMultiClock::with_options(&monitor, &CompileOptions::optimized());
            let report = PassReport::measure_multi(&raw, &compiled);
            MultiSpec {
                monitor,
                synthesized,
                compiled,
                report: Some(report),
            }
        } else {
            MultiSpec {
                monitor: synthesized.clone(),
                synthesized,
                compiled: raw,
                report: None,
            }
        })
    }

    /// The compiled assertion bundle of composition `idx`, building it
    /// on first use. Fails for non-`implies` compositions and
    /// multi-clock implications.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn assert_spec(&self, idx: usize) -> Result<&AssertSpec, SpecError> {
        if self.asserts[idx].get().is_none() {
            let built = self.build_assert(idx)?;
            let _ = self.asserts[idx].set(built);
        }
        Ok(self.asserts[idx].get().expect("just built"))
    }

    fn build_assert(&self, idx: usize) -> Result<AssertSpec, SpecError> {
        let (name, cesc) = &self.doc.compositions[idx];
        if !assert_capable(cesc) {
            return Err(SpecError::Invalid(format!(
                "composition `{name}` is not an implies(...) chart; `check` verifies basic \
                 charts, multiclock specs and implication compositions"
            )));
        }
        let clocks = cesc.clocks();
        let [clock] = clocks.as_slice() else {
            return Err(SpecError::Invalid(format!(
                "assert composition `{name}` spans clocks {}; implication checking is \
                 single-clock",
                clocks.join(", ")
            )));
        };
        let obs = &self.options.obs;
        let compile_span = obs.span("compile");
        let (synthesized_antecedent, synthesized_consequent) =
            implication_monitors(cesc, &self.options.synth)
                .map_err(|e| SpecError::Compile(format!("assert `{name}`: {e}")))?;
        // as for charts: raw tables under `compile`, optimized ones
        // under `optimize`
        let (antecedent, consequent, compiled) = if self.options.optimize {
            drop(compile_span);
            let _span = obs.span("optimize");
            let antecedent = optimize(&synthesized_antecedent).0;
            let consequent = optimize(&synthesized_consequent).0;
            let compiled = CompiledImplication::new(
                name,
                clock,
                &antecedent,
                &consequent,
                &CompileOptions::optimized(),
            );
            (antecedent, consequent, compiled)
        } else {
            let compiled = CompiledImplication::new(
                name,
                clock,
                &synthesized_antecedent,
                &synthesized_consequent,
                &CompileOptions::raw(),
            );
            (synthesized_antecedent.clone(), synthesized_consequent.clone(), compiled)
        };
        Ok(AssertSpec {
            name: name.clone(),
            clock: clock.clone(),
            antecedent,
            consequent,
            compiled,
            synthesized_antecedent,
            synthesized_consequent,
        })
    }

    /// The static proof verdict of assert composition `idx` — PROVED
    /// or a concrete, engine-replayed counterexample — produced by the
    /// [`cesc_core::prove_implication`] product prover on first use
    /// and cached. The verdict is *semantic*: the optimization passes
    /// preserve step behavior, so the same report serves the optimized
    /// and `--no-opt` forms.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn proof(&self, idx: usize) -> Result<&ProofReport, SpecError> {
        if self.proofs[idx].get().is_none() {
            let spec = self.assert_spec(idx)?;
            let report = {
                let _span = self.options.obs.span("prove");
                prove_implication(spec.name(), spec.antecedent(), spec.consequent())
            };
            let _ = self.proofs[idx].set(report);
        }
        Ok(self.proofs[idx].get().expect("just built"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_core::analyze;

    const DOC: &str = r#"
        scesc hs on clk {
            instances { M, S }
            events { req, ack }
            tick { M: req }
            tick { S: ack }
            cause req -> ack;
        }
        scesc pulse on clk { instances { M } events { req, ack } tick { M: req } }
        scesc beat on tock { instances { S } events { tick_ev } tick { S: tick_ev } }
        multiclock pair { charts { pulse, beat } }
        cesc gate { implies(hs, pulse) }
        cesc chain { seq(hs, pulse) }
    "#;

    #[test]
    fn load_resolves_all_target_kinds() {
        let specs = SpecSet::load(DOC).unwrap();
        assert_eq!(specs.resolve("hs").unwrap(), TargetRef::Chart(0));
        assert_eq!(specs.resolve("pair").unwrap(), TargetRef::Multi(0));
        assert_eq!(specs.resolve("gate").unwrap(), TargetRef::Assert(0));
        let err = specs.resolve("ghost").unwrap_err();
        let shown = err.to_string();
        assert!(shown.contains("available charts: hs, pulse, beat"), "{shown}");
        assert!(shown.contains("multiclock specs: pair"), "{shown}");
        assert!(shown.contains("assert compositions: gate"), "{shown}");
        // `chain` is a composition but not assert-capable
        let err = specs.resolve("chain").unwrap_err();
        assert!(err.to_string().contains("not an implies"), "{}", err);
    }

    #[test]
    fn chart_index_picks_first_by_default() {
        let specs = SpecSet::load(DOC).unwrap();
        assert_eq!(specs.chart_index(None).unwrap(), 0);
        assert_eq!(specs.chart_index(Some("pulse")).unwrap(), 1);
        let err = specs.chart_index(Some("ghost")).unwrap_err();
        assert!(err.to_string().contains("available: hs, pulse, beat"), "{}", err);
        let empty = SpecSet::load("cesc only { implies(only, only) }");
        assert!(empty.is_err() || empty.unwrap().chart_index(None).is_err());
    }

    #[test]
    fn checkable_targets_cover_all_kinds_in_order() {
        let specs = SpecSet::load(DOC).unwrap();
        assert_eq!(
            specs.checkable_targets(),
            vec![
                TargetRef::Chart(0),
                TargetRef::Chart(1),
                TargetRef::Chart(2),
                TargetRef::Multi(0),
                TargetRef::Assert(0),
            ]
        );
        assert_eq!(specs.target_name(TargetRef::Assert(0)), "gate");
    }

    #[test]
    fn chart_spec_is_cached_and_optimized() {
        let specs = SpecSet::load(DOC).unwrap();
        let a = specs.chart_spec(0).unwrap() as *const ChartSpec;
        let b = specs.chart_spec(0).unwrap() as *const ChartSpec;
        assert_eq!(a, b, "compiled once, cached");
        let spec = specs.chart_spec(0).unwrap();
        assert!(analyze(spec.monitor()).is_clean());
        let report = spec.report().expect("pipeline ran");
        // clean chart: pruning is identity, narrowing still shrinks
        // the count table to the scoreboard symbols
        assert_eq!(report.states.0, report.states.1);
        assert!(report.slots.1 <= report.slots.0, "{report}");
        assert!(report.step_cost.1 <= report.step_cost.0, "{report}");
    }

    #[test]
    fn no_opt_keeps_raw_tables() {
        let specs = SpecSet::load_with(
            DOC,
            SpecOptions {
                optimize: false,
                ..SpecOptions::new()
            },
        )
        .unwrap();
        let spec = specs.chart_spec(0).unwrap();
        assert!(spec.report().is_none());
        assert_eq!(
            spec.compiled().scoreboard_slots(),
            spec.synthesized().compiled().scoreboard_slots()
        );
    }

    #[test]
    fn multi_and_assert_specs_compile() {
        let specs = SpecSet::load(DOC).unwrap();
        let multi = specs.multi_spec(0).unwrap();
        assert_eq!(multi.compiled().locals().len(), 2);
        assert!(multi.report().is_some());
        let assert_spec = specs.assert_spec(0).unwrap();
        assert_eq!(assert_spec.name(), "gate");
        assert_eq!(assert_spec.clock(), "clk");
        assert!(analyze(assert_spec.antecedent()).is_clean());
        // the non-assert composition rejects
        let err = specs.assert_spec(1).unwrap_err();
        assert!(err.to_string().contains("not an implies"), "{}", err);
    }

    #[test]
    fn proof_is_cached_and_semantic() {
        let specs = SpecSet::load(DOC).unwrap();
        let a = specs.proof(0).unwrap() as *const _;
        let b = specs.proof(0).unwrap() as *const _;
        assert_eq!(a, b, "proved once, cached");
        let report = specs.proof(0).unwrap();
        // same verdict without the optimization pipeline: the proof is
        // a property of the step semantics, which the passes preserve
        let raw = SpecSet::load_with(
            DOC,
            SpecOptions {
                optimize: false,
                ..SpecOptions::new()
            },
        )
        .unwrap();
        assert_eq!(report.proved(), raw.proof(0).unwrap().proved());
        // the non-assert composition rejects, same as assert_spec
        let err = specs.proof(1).unwrap_err();
        assert!(err.to_string().contains("not an implies"), "{}", err);
    }

    #[test]
    fn parse_errors_surface() {
        let err = SpecSet::load("scesc broken {").unwrap_err();
        assert!(matches!(err, SpecError::Parse(_)));
    }
}
