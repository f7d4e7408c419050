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
//!   31→22, …`) plus the raw *baseline* compilation, so differential
//!   oracles (RTL co-simulation) can hold the optimized artifact to
//!   the unoptimized engine's verdict.
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
    compile, infer_bounds, optimize, prove_implication, synthesize, synthesize_multiclock, Bound,
    BoundsOptions, BoundsReport, Compiled, CompileOptions, CompiledMonitor, CompiledMultiClock,
    Monitor, MultiClockMonitor, ProofReport, SynthOptions,
};
use cesc_expr::SymbolId;

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
/// artifacts themselves: baseline (raw compile of the synthesized
/// monitor) vs optimized tables.
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
    fn measure(baseline: &CompiledMonitor, optimized: &CompiledMonitor) -> Self {
        PassReport {
            states: (baseline.state_count(), optimized.state_count()),
            transitions: (baseline.transition_count(), optimized.transition_count()),
            guard_ops: (baseline.program_op_count(), optimized.program_op_count()),
            slots: (baseline.scoreboard_slots(), optimized.scoreboard_slots()),
            step_cost: (baseline.step_cost(), optimized.step_cost()),
        }
    }

    fn measure_multi(baseline: &CompiledMultiClock, optimized: &CompiledMultiClock) -> Self {
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
        let b = sum(baseline);
        let o = sum(optimized);
        PassReport {
            states: (b.0, o.0),
            transitions: (b.1, o.1),
            guard_ops: (b.2, o.2),
            slots: (b.3, o.3),
            step_cost: (baseline.step_cost(), optimized.step_cost()),
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

/// Compiled artifact bundle of one basic chart: the (possibly
/// optimized) automaton, its compacted batch tables, the raw baseline
/// compilation for differential oracles, and the pass report.
#[derive(Debug, Clone)]
pub struct ChartSpec {
    monitor: Monitor,
    synthesized: Monitor,
    compiled: CompiledMonitor,
    baseline: CompiledMonitor,
    report: Option<PassReport>,
    bounds: BoundsReport,
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

    /// The *unoptimized* compilation of the synthesized monitor — the
    /// reference side of differential oracles (`cesc check --cosim`
    /// proves optimized RTL ≡ this engine).
    pub fn baseline(&self) -> &CompiledMonitor {
        &self.baseline
    }

    /// What the pass pipeline did, or `None` under `--no-opt`.
    pub fn report(&self) -> Option<&PassReport> {
        self.report.as_ref()
    }

    /// The monitor exactly as synthesized, before any optimization
    /// pass. Static analyses (`cesc-lint`) run on this form so their
    /// findings are identical with and without `--no-opt` — the
    /// optimizer renumbers states and drops arms, which would
    /// otherwise shift every finding's location.
    pub fn synthesized(&self) -> &Monitor {
        &self.synthesized
    }

    /// The counter-bounds analysis of the synthesized monitor
    /// (computed once at build time; sound for the optimized form
    /// too, since passes only remove behaviors).
    pub fn bounds(&self) -> &BoundsReport {
        &self.bounds
    }
}

/// Compiled artifact bundle of one `multiclock` spec.
#[derive(Debug, Clone)]
pub struct MultiSpec {
    monitor: MultiClockMonitor,
    synthesized: MultiClockMonitor,
    compiled: CompiledMultiClock,
    report: Option<PassReport>,
    local_bounds: Vec<BoundsReport>,
    coupled_events: Vec<SymbolId>,
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

    /// Per-local counter-bounds analyses (computed on the synthesized
    /// locals, with `Chk_evt` refinement off: through the shared
    /// scoreboard another domain may change a count between local
    /// ticks, so `Chk` guards prove nothing about local history).
    pub fn local_bounds(&self) -> &[BoundsReport] {
        &self.local_bounds
    }

    /// Events written (`Add_evt`/`Del_evt`) by more than one local
    /// monitor. A coupled event has no per-local bound — interleaved
    /// writers make any single-automaton fixpoint unsound — so its
    /// effective bound is unbounded.
    pub fn coupled_events(&self) -> &[SymbolId] {
        &self.coupled_events
    }

    /// The sound shared-scoreboard bound of event `e`: the writing
    /// local's inferred interval when exactly one local writes `e`,
    /// `[0, ∞]` when several do, `[0, 0]` when none does (`Chk`-only
    /// traffic never changes a count), `None` when no local touches
    /// `e` at all.
    pub fn shared_bound(&self, e: SymbolId) -> Option<Bound> {
        if self.coupled_events.contains(&e) {
            return Some(Bound { lo: 0, hi: None });
        }
        let mut touched = false;
        for (local, bounds) in self.synthesized.locals().iter().zip(&self.local_bounds) {
            if local.written_events().contains(&e) {
                return bounds.bound_for(e);
            }
            touched |= bounds.bound_for(e).is_some();
        }
        touched.then(|| Bound::exact(0))
    }
}

/// Compiled artifact bundle of one `implies(...)` assertion: the two
/// synthesized (and optimized) monitors plus the single clock domain
/// driving the checker.
#[derive(Debug, Clone)]
pub struct AssertSpec {
    name: String,
    clock: String,
    antecedent: Monitor,
    consequent: Monitor,
    synthesized_antecedent: Monitor,
    synthesized_consequent: Monitor,
    antecedent_bounds: BoundsReport,
    consequent_bounds: BoundsReport,
}

impl AssertSpec {
    /// The assertion's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The clock domain whose ticks drive the checker.
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

    /// Counter-bounds analysis of the antecedent monitor.
    pub fn antecedent_bounds(&self) -> &BoundsReport {
        &self.antecedent_bounds
    }

    /// Counter-bounds analysis of the consequent monitor.
    pub fn consequent_bounds(&self) -> &BoundsReport {
        &self.consequent_bounds
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
pub fn assert_capable(c: &Cesc) -> bool {
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
    pub fn unknown_target(&self, name: &str) -> SpecError {
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
        let (monitor, baseline, bounds) = {
            let _span = obs.span("compile");
            let monitor = synthesize(chart, &self.options.synth)
                .map_err(|e| SpecError::Compile(e.to_string()))?;
            let baseline = monitor.compiled_with(&CompileOptions::raw());
            let bounds = infer_bounds(&monitor, &BoundsOptions::default());
            (monitor, baseline, bounds)
        };
        Ok(if self.options.optimize {
            let _span = obs.span("optimize");
            let (opt, _) = optimize(&monitor);
            let compiled = opt.compiled_with(&CompileOptions::optimized());
            let report = PassReport::measure(&baseline, &compiled);
            ChartSpec {
                monitor: opt,
                synthesized: monitor,
                compiled,
                baseline,
                report: Some(report),
                bounds,
            }
        } else {
            ChartSpec {
                monitor: monitor.clone(),
                synthesized: monitor,
                compiled: baseline.clone(),
                baseline,
                report: None,
                bounds,
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
        let compile_span = obs.span("compile");
        let monitor = synthesize_multiclock(spec, &self.options.synth)
            .map_err(|e| SpecError::Compile(e.to_string()))?;
        // per-local bounds run with Chk refinement off (shared
        // scoreboard: other domains may write between local ticks)
        let local_opts = BoundsOptions {
            chk_refinement: false,
            ..BoundsOptions::default()
        };
        let local_bounds: Vec<BoundsReport> = monitor
            .locals()
            .iter()
            .map(|m| infer_bounds(m, &local_opts))
            .collect();
        let mut coupled_events: Vec<SymbolId> = Vec::new();
        let mut seen: Vec<SymbolId> = Vec::new();
        for local in monitor.locals() {
            for e in local.written_events() {
                if seen.contains(&e) {
                    if !coupled_events.contains(&e) {
                        coupled_events.push(e);
                    }
                } else {
                    seen.push(e);
                }
            }
        }
        Ok(if self.options.optimize {
            let baseline = CompiledMultiClock::with_options(&monitor, &CompileOptions::raw());
            drop(compile_span);
            let _span = obs.span("optimize");
            let locals: Vec<Monitor> = monitor
                .locals()
                .iter()
                .map(|m| optimize(m).0)
                .collect();
            let opt = MultiClockMonitor::from_locals(monitor.name(), locals);
            let compiled =
                CompiledMultiClock::with_options(&opt, &CompileOptions::optimized());
            let report = PassReport::measure_multi(&baseline, &compiled);
            MultiSpec {
                monitor: opt,
                synthesized: monitor,
                compiled,
                report: Some(report),
                local_bounds,
                coupled_events,
            }
        } else {
            let compiled = CompiledMultiClock::with_options(&monitor, &CompileOptions::raw());
            MultiSpec {
                monitor: monitor.clone(),
                synthesized: monitor,
                compiled,
                report: None,
                local_bounds,
                coupled_events,
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
        let compiled = compile(cesc, &self.options.synth)
            .map_err(|e| SpecError::Compile(format!("assert `{name}`: {e}")))?;
        let Compiled::Implication(checker) = compiled else {
            unreachable!("assert_capable guarantees an implication compilation");
        };
        let bounds_opts = BoundsOptions::default();
        let antecedent_bounds = infer_bounds(checker.antecedent(), &bounds_opts);
        let consequent_bounds = infer_bounds(checker.consequent(), &bounds_opts);
        drop(compile_span);
        let synthesized_antecedent = checker.antecedent().clone();
        let synthesized_consequent = checker.consequent().clone();
        let (antecedent, consequent) = if self.options.optimize {
            let _span = obs.span("optimize");
            (
                optimize(checker.antecedent()).0,
                optimize(checker.consequent()).0,
            )
        } else {
            (checker.antecedent().clone(), checker.consequent().clone())
        };
        Ok(AssertSpec {
            name: name.clone(),
            clock: clock.clone(),
            antecedent,
            consequent,
            synthesized_antecedent,
            synthesized_consequent,
            antecedent_bounds,
            consequent_bounds,
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
        assert!(spec.compiled().step_cost() <= spec.baseline().step_cost());
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
            spec.baseline().scoreboard_slots()
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
