//! # cesc-lint — static analysis of synthesized monitors
//!
//! The paper's flow reviews verification plans *before* simulation;
//! this crate is that review, mechanized. It runs the
//! [`cesc_core::bounds`] interval fixpoint over every compiled target
//! of a [`SpecSet`] and turns the results into structured findings:
//!
//! | id   | rule                | severity | meaning |
//! |------|---------------------|----------|---------|
//! | L001 | `vacuity`           | error    | accept state unreachable under satisfiable guards — the chart can never match |
//! | L002 | `dead-state`        | warning  | non-accept state unreachable under the refined transition relation |
//! | L003 | `dead-arm`          | note     | transition arm that can never fire (shadowed or contradicted by counter bounds) |
//! | L010 | `unbounded-counter` | warning  | a scoreboard count grows without bound — any fixed-width RTL counter can saturate and diverge from the engine |
//! | L011 | `saturation-risk`   | warning  | a finite bound exceeds an explicitly configured counter ceiling |
//! | L020 | `underflow`         | error    | a `Del_evt` fires with a provably-zero count whenever its arm is taken |
//! | L030 | `shadowing`         | note     | two satisfiable same-kind arms overlap with different outcomes; priority order silently decides |
//! | L100 | `unsatisfiable-guard` | note   | an arm's own guard is semantically unsatisfiable — upgrades L003's syntactic dead-arm |
//! | L101 | `contradictory-overlap` | note | a forward and a backward arm of one state are jointly satisfiable — the match/slide-back choice is ambiguous, priority decides |
//! | L102 | `semantic-unreachable` | warning | a state is unreachable once unsatisfiable effective guards are pruned — strictly sharper than graph reachability |
//! | L110 | `violated-assert`   | warning  | the product prover refuted an `implies(...)` assert: a concrete trace violates it |
//!
//! The `L0xx` rules reason syntactically and numerically (PR 7's
//! interval bounds); the `L1xx` rules are *semantic*, driven by the
//! [`cesc_core::GuardSat`] satisfiability engine, SAT-pruned
//! reachability and the [`cesc_core::prove_implication`] product
//! prover over the same compiled guard tables the engine executes.
//!
//! Findings are computed on the monitors **as synthesized** (the
//! [`cesc_spec::ChartSpec::synthesized`] /
//! [`cesc_spec::AssertSpec::synthesized_antecedent`] forms), so the
//! report is identical with and without the optimizer pipeline — a
//! property `tests/lint_soundness.rs` pins. [`annotate_positions`]
//! additionally stamps each finding with the `(line, column)` of its
//! target's declaration in the source text.
//!
//! Intentional findings are silenced either with
//! [`LintOptions::allow`] (the CLI's repeatable `--allow RULE`) or
//! in-source annotations:
//!
//! ```text
//! // lint: allow(unbounded-counter)
//! ```
//!
//! anywhere in the spec file (collected by [`allows_in_source`]).
//! Allowed findings are still reported, flagged `allowed`, and never
//! counted by [`LintReport::denied`] — the `--deny` gate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use cesc_core::{
    infer_bounds, reachable_states, ArmLit, Bound, BoundsOptions, BoundsReport, GuardSat,
    GuardVerdict, Monitor, StateId,
};
use cesc_expr::{sat, Alphabet, Expr, SymbolId, Valuation};
use cesc_spec::{SpecError, SpecSet, TargetRef};

/// A lint rule — the catalog above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L001: the accept state is unreachable; the chart never matches.
    Vacuity,
    /// L002: a non-accept state is unreachable.
    DeadState,
    /// L003: a transition arm can never fire.
    DeadArm,
    /// L010: a scoreboard count has no finite upper bound.
    UnboundedCounter,
    /// L011: a finite bound exceeds the configured counter ceiling.
    SaturationRisk,
    /// L020: a `Del_evt` always fires with a zero count.
    Underflow,
    /// L030: overlapping satisfiable guards resolved only by priority.
    Shadowing,
    /// L100: an arm's own guard is semantically unsatisfiable.
    UnsatGuard,
    /// L101: a forward and a backward arm are jointly satisfiable.
    ContradictoryOverlap,
    /// L102: a state is unreachable under SAT-pruned edges.
    SemanticUnreachable,
    /// L110: an `implies(...)` assert is statically violated.
    ViolatedAssert,
}

impl Rule {
    /// Stable catalog id (`L001`…).
    pub fn id(self) -> &'static str {
        match self {
            Rule::Vacuity => "L001",
            Rule::DeadState => "L002",
            Rule::DeadArm => "L003",
            Rule::UnboundedCounter => "L010",
            Rule::SaturationRisk => "L011",
            Rule::Underflow => "L020",
            Rule::Shadowing => "L030",
            Rule::UnsatGuard => "L100",
            Rule::ContradictoryOverlap => "L101",
            Rule::SemanticUnreachable => "L102",
            Rule::ViolatedAssert => "L110",
        }
    }

    /// Human name (`vacuity`, `unbounded-counter`, …) — what `--allow`
    /// and in-source annotations accept.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Vacuity => "vacuity",
            Rule::DeadState => "dead-state",
            Rule::DeadArm => "dead-arm",
            Rule::UnboundedCounter => "unbounded-counter",
            Rule::SaturationRisk => "saturation-risk",
            Rule::Underflow => "underflow",
            Rule::Shadowing => "shadowing",
            Rule::UnsatGuard => "unsatisfiable-guard",
            Rule::ContradictoryOverlap => "contradictory-overlap",
            Rule::SemanticUnreachable => "semantic-unreachable",
            Rule::ViolatedAssert => "violated-assert",
        }
    }

    /// Every rule in catalog order.
    pub fn all() -> [Rule; 11] {
        [
            Rule::Vacuity,
            Rule::DeadState,
            Rule::DeadArm,
            Rule::UnboundedCounter,
            Rule::SaturationRisk,
            Rule::Underflow,
            Rule::Shadowing,
            Rule::UnsatGuard,
            Rule::ContradictoryOverlap,
            Rule::SemanticUnreachable,
            Rule::ViolatedAssert,
        ]
    }

    /// Parses a rule by id or name.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::all()
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name() == s)
    }

    /// Default severity of this rule's findings.
    pub fn severity(self) -> Severity {
        match self {
            Rule::Vacuity | Rule::Underflow => Severity::Error,
            Rule::DeadState
            | Rule::UnboundedCounter
            | Rule::SaturationRisk
            | Rule::SemanticUnreachable
            | Rule::ViolatedAssert => Severity::Warning,
            Rule::DeadArm | Rule::Shadowing | Rule::UnsatGuard | Rule::ContradictoryOverlap => {
                Severity::Note
            }
        }
    }
}

/// How serious a finding is; `--deny` gates on errors and warnings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational — never gates.
    Note,
    /// Suspicious — gates under `--deny`.
    Warning,
    /// A defect — gates under `--deny`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Severity (the rule's default).
    pub severity: Severity,
    /// Target the finding is about (chart / multiclock local /
    /// assertion side, e.g. `hs`, `pair/beat`, `gate.antecedent`).
    pub target: String,
    /// Machine-friendly location within the monitor (`s1`, `s1#2`,
    /// `event req`), empty when the finding is monitor-wide.
    pub location: String,
    /// Human explanation.
    pub message: String,
    /// Silenced by an allow (still reported, never denied).
    pub allowed: bool,
    /// 1-based `(line, column)` of the target's declaration in the
    /// source text, stamped by [`annotate_positions`]; `None` when the
    /// report was built without source text.
    pub position: Option<(usize, usize)>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {}] {}",
            self.severity,
            self.rule.id(),
            self.rule.name(),
            self.target
        )?;
        if let Some((line, col)) = self.position {
            write!(f, ":{line}:{col}")?;
        }
        if !self.location.is_empty() {
            write!(f, " at {}", self.location)?;
        }
        write!(f, ": {}", self.message)?;
        if self.allowed {
            write!(f, " (allowed)")?;
        }
        Ok(())
    }
}

/// Knobs for [`lint`].
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Rules to allow (by id or name); matching findings are flagged
    /// [`Finding::allowed`] and skipped by [`LintReport::denied`].
    pub allow: Vec<String>,
    /// An explicitly configured RTL counter width. When set, finite
    /// bounds exceeding `2^w - 1` raise [`Rule::SaturationRisk`];
    /// when `None` (width inferred from the bounds) only
    /// [`Rule::UnboundedCounter`] can flag saturation.
    pub ceiling_width: Option<u32>,
}

impl LintOptions {
    fn is_allowed(&self, rule: Rule) -> bool {
        self.allow
            .iter()
            .any(|s| Rule::parse(s) == Some(rule))
    }
}

/// The assembled findings of one lint run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, in target order then rule-catalog order.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Findings that gate a `--deny` run: errors and warnings not
    /// silenced by an allow.
    pub fn denied(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| !f.allowed && f.severity >= Severity::Warning)
            .collect()
    }

    /// Count of findings per severity `(errors, warnings, notes)`,
    /// allowed findings included.
    pub fn tally(&self) -> (usize, usize, usize) {
        self.findings.iter().fold((0, 0, 0), |(e, w, n), f| match f.severity {
            Severity::Error => (e + 1, w, n),
            Severity::Warning => (e, w + 1, n),
            Severity::Note => (e, w, n + 1),
        })
    }
}

/// Collects `// lint: allow(rule, rule, …)` annotations from spec
/// source text. Unknown rule names are returned too — [`lint`]
/// validates them so typos fail loudly instead of silently allowing
/// nothing.
pub fn allows_in_source(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in source.lines() {
        let Some(comment) = line.split("//").nth(1) else {
            continue;
        };
        let Some(rest) = comment.trim_start().strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split(')').next())
        else {
            continue;
        };
        for rule in args.split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push(rule.to_owned());
            }
        }
    }
    out
}

/// Lints every checkable target of `specs`.
///
/// # Errors
///
/// Propagates compile errors from target builds, and rejects unknown
/// rule names in [`LintOptions::allow`].
///
/// # Examples
///
/// ```
/// use cesc_lint::{lint, LintOptions, Rule};
/// use cesc_spec::SpecSet;
///
/// let specs = SpecSet::load(
///     "scesc hs on clk { instances { M } events { req, ack } \
///      tick { M: req } tick { M: ack } cause req -> ack; }",
/// ).unwrap();
/// let report = lint(&specs, &LintOptions::default()).unwrap();
/// // default synthesis re-Adds `req` on repeated requests: unbounded
/// assert!(report.findings.iter().any(|f| f.rule == Rule::UnboundedCounter));
/// ```
pub fn lint(specs: &SpecSet, opts: &LintOptions) -> Result<LintReport, SpecError> {
    let targets = specs.checkable_targets();
    lint_targets(specs, &targets, opts)
}

/// Lints an explicit target selection.
///
/// # Errors
///
/// Propagates compile errors from target builds, and rejects unknown
/// rule names in [`LintOptions::allow`].
pub fn lint_targets(
    specs: &SpecSet,
    targets: &[TargetRef],
    opts: &LintOptions,
) -> Result<LintReport, SpecError> {
    for a in &opts.allow {
        if Rule::parse(a).is_none() {
            return Err(SpecError::Invalid(format!(
                "unknown lint rule `{a}`; rules: {}",
                Rule::all()
                    .into_iter()
                    .map(|r| format!("{} ({})", r.name(), r.id()))
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
    }
    let ab = specs.alphabet();
    let mut findings = Vec::new();
    for &target in targets {
        match target {
            TargetRef::Chart(i) => {
                let spec = specs.chart_spec(i)?;
                lint_monitor(
                    spec.compiled().name(),
                    spec.synthesized(),
                    ab,
                    opts,
                    &mut findings,
                );
            }
            TargetRef::Multi(i) => {
                let spec = specs.multi_spec(i)?;
                let name = specs.target_name(target).to_owned();
                let board = SharedBoard::of(spec.synthesized().locals());
                for (local, bounds) in board.locals.iter().zip(&board.bounds) {
                    let label = format!("{name}/{}", local.name());
                    lint_local(&label, local, bounds, &board, ab, opts, &mut findings);
                }
            }
            TargetRef::Assert(i) => {
                let spec = specs.assert_spec(i)?;
                // lint the *synthesized* sides, keeping the report
                // identical with and without the pipeline
                lint_monitor(
                    &format!("{}.antecedent", spec.name()),
                    spec.synthesized_antecedent(),
                    ab,
                    opts,
                    &mut findings,
                );
                lint_monitor(
                    &format!("{}.consequent", spec.name()),
                    spec.synthesized_consequent(),
                    ab,
                    opts,
                    &mut findings,
                );
                let proof = specs.proof(i)?;
                if let Some(cx) = proof.counterexample() {
                    // only semantic-stable quantities in the message
                    // (the optimizer must not change the report): the
                    // verdict and the shortest-trace length
                    let name = spec.name();
                    push(
                        &mut findings,
                        opts,
                        Rule::ViolatedAssert,
                        name,
                        String::new(),
                        format!(
                            "statically violated: a {}-tick trace completes the antecedent \
                             and then blocks the consequent; `cesc prove --chart {name}` \
                             prints the counterexample",
                            cx.trace.len()
                        ),
                    );
                }
            }
        }
    }
    Ok(LintReport { findings })
}

/// Appends the findings of one single-clock monitor, inferring its
/// counter bounds first.
fn lint_monitor(
    target: &str,
    monitor: &Monitor,
    ab: &Alphabet,
    opts: &LintOptions,
    out: &mut Vec<Finding>,
) {
    let bounds = &infer_bounds(monitor, &BoundsOptions::default());
    let sem = analyze_semantics(monitor, bounds);
    reachability_findings(target, monitor, bounds, &sem, opts, out);
    bound_findings(target, bounds.bounds(), ab, opts, out);
    underflow_findings(target, bounds, ab, opts, out);
    shadowing_findings(target, monitor, bounds, ab, opts, out);
    semantic_findings(target, &sem, ab, opts, out);
}

/// The counter facts of a multi-clock spec's shared scoreboard: each
/// synthesized local's own bounds plus the events several locals write.
struct SharedBoard<'a> {
    locals: &'a [Monitor],
    /// Per-local bounds, inferred with `Chk_evt` refinement off:
    /// through the shared scoreboard another domain may change a count
    /// between local ticks, so `Chk` guards prove nothing about local
    /// history.
    bounds: Vec<BoundsReport>,
    /// Events written (`Add_evt`/`Del_evt`) by more than one local. A
    /// coupled event has no per-local bound — interleaved writers make
    /// any single-automaton fixpoint unsound — so its effective bound
    /// is unbounded.
    coupled: Vec<SymbolId>,
}

impl<'a> SharedBoard<'a> {
    fn of(locals: &'a [Monitor]) -> Self {
        let local_opts = BoundsOptions {
            chk_refinement: false,
            ..BoundsOptions::default()
        };
        let bounds = locals
            .iter()
            .map(|m| infer_bounds(m, &local_opts))
            .collect();
        let mut coupled: Vec<SymbolId> = Vec::new();
        let mut seen: Vec<SymbolId> = Vec::new();
        for local in locals {
            for e in local.written_events() {
                if seen.contains(&e) {
                    if !coupled.contains(&e) {
                        coupled.push(e);
                    }
                } else {
                    seen.push(e);
                }
            }
        }
        SharedBoard {
            locals,
            bounds,
            coupled,
        }
    }

    /// The sound shared-scoreboard bound of event `e`: the writing
    /// local's inferred interval when exactly one local writes `e`,
    /// `[0, ∞]` when several do, `[0, 0]` when none does (`Chk`-only
    /// traffic never changes a count), `None` when no local touches
    /// `e` at all.
    fn shared_bound(&self, e: SymbolId) -> Option<Bound> {
        if self.coupled.contains(&e) {
            return Some(Bound { lo: 0, hi: None });
        }
        let mut touched = false;
        for (local, bounds) in self.locals.iter().zip(&self.bounds) {
            if local.written_events().contains(&e) {
                return bounds.bound_for(e);
            }
            touched |= bounds.bound_for(e).is_some();
        }
        touched.then(|| Bound::exact(0))
    }
}

/// Appends the findings of one local monitor of a multi-clock spec:
/// bounds come from the shared-scoreboard combination, and underflow
/// is only trusted for events this local owns outright.
fn lint_local(
    target: &str,
    local: &Monitor,
    bounds: &BoundsReport,
    board: &SharedBoard<'_>,
    ab: &Alphabet,
    opts: &LintOptions,
    out: &mut Vec<Finding>,
) {
    let sem = analyze_semantics(local, bounds);
    reachability_findings(target, local, bounds, &sem, opts, out);
    let written = local.written_events();
    // report each written event once, under the writing local, with
    // the coupling-aware shared bound
    let shared = written
        .iter()
        .filter_map(|&e| board.shared_bound(e).map(|b| (e, b)));
    bound_findings(target, shared, ab, opts, out);
    if !written.iter().any(|e| board.coupled.contains(e)) {
        underflow_findings(target, bounds, ab, opts, out);
    }
    shadowing_findings(target, local, bounds, ab, opts, out);
    semantic_findings(target, &sem, ab, opts, out);
}

/// Per-monitor semantic facts, computed once on the raw compile of the
/// synthesized monitor and shared by the `L1xx` rules and the
/// `L003`-suppression logic. All queries run with scoreboard presence
/// *free* (`pin_chk = false`), the sound over-approximation of engine
/// dynamics: an UNSAT or unreachable verdict here holds under any
/// scoreboard history.
struct Semantics {
    /// Arms whose own guard is unsatisfiable (L100).
    unsat_arms: Vec<(StateId, usize)>,
    /// Kind-differing arm pairs jointly satisfiable, with a witness
    /// event-set (L101).
    overlaps: Vec<(StateId, usize, usize, Valuation)>,
    /// Bounds-feasible states unreachable under SAT-pruned edges
    /// (L102).
    unreachable: Vec<StateId>,
}

fn analyze_semantics(monitor: &Monitor, bounds: &BoundsReport) -> Semantics {
    let compiled = monitor.compiled();
    let mut engine = GuardSat::single(&compiled);
    let mut unsat_arms = Vec::new();
    let mut overlaps = Vec::new();
    for s in 0..monitor.state_count() {
        let sid = StateId::from_index(s);
        let ts = monitor.transitions_from(sid);
        for i in 0..ts.len() {
            if engine.arm_verdict(0, s, i, false) == GuardVerdict::Unsat {
                unsat_arms.push((sid, i));
            }
        }
        if !bounds.is_feasible(sid) {
            continue;
        }
        for i in 0..ts.len() {
            for j in i + 1..ts.len() {
                // same filters as the syntactic shadowing rule, plus:
                // only kind-differing pairs (the match/slide-back
                // ambiguity), and guards the SAT engine proved dead
                // carry no overlap
                if ts[i].kind == ts[j].kind
                    || matches!(ts[j].guard, Expr::Const(true))
                    || (ts[i].target == ts[j].target && ts[i].actions == ts[j].actions)
                    || bounds.infeasible_arms().contains(&(sid, i))
                    || bounds.infeasible_arms().contains(&(sid, j))
                    || unsat_arms.contains(&(sid, i))
                    || unsat_arms.contains(&(sid, j))
                {
                    continue;
                }
                if let Some(w) =
                    engine.satisfy(&[ArmLit::pos(0, s, i), ArmLit::pos(0, s, j)], false)
                {
                    overlaps.push((sid, i, j, w.valuation));
                }
            }
        }
    }
    let reach = reachable_states(&compiled, false);
    let unreachable = (0..monitor.state_count())
        .filter(|&s| !reach[s] && bounds.is_feasible(StateId::from_index(s)))
        .map(StateId::from_index)
        .collect();
    Semantics {
        unsat_arms,
        overlaps,
        unreachable,
    }
}

/// Appends the semantic `L100`/`L101`/`L102` findings.
fn semantic_findings(
    target: &str,
    sem: &Semantics,
    ab: &Alphabet,
    opts: &LintOptions,
    out: &mut Vec<Finding>,
) {
    for &(s, arm) in &sem.unsat_arms {
        push(
            out,
            opts,
            Rule::UnsatGuard,
            target,
            format!("{s}#{arm}"),
            format!(
                "guard of arm {arm} of {s} is unsatisfiable — no event-set can ever fire \
                 this transition"
            ),
        );
    }
    for &(s, i, j, w) in &sem.overlaps {
        push(
            out,
            opts,
            Rule::ContradictoryOverlap,
            target,
            format!("{s}#{i}/{j}"),
            format!(
                "forward and backward arms {i} and {j} of {s} are jointly satisfiable \
                 (e.g. on {{{}}}); the match/slide-back choice is ambiguous and priority \
                 order silently picks arm {i}",
                event_set(w, ab)
            ),
        );
    }
    for &s in &sem.unreachable {
        push(
            out,
            opts,
            Rule::SemanticUnreachable,
            target,
            s.to_string(),
            format!(
                "state {s} is unreachable under satisfiable effective guards — every \
                 path to it crosses a transition that can never fire"
            ),
        );
    }
}

/// Renders a witness valuation as a comma-separated event list.
fn event_set(v: Valuation, ab: &Alphabet) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut bits = v.bits();
    while bits != 0 {
        names.push(ab.name(SymbolId::from_index(bits.trailing_zeros() as usize)));
        bits &= bits - 1;
    }
    if names.is_empty() {
        "no events".to_owned()
    } else {
        names.join(", ")
    }
}

fn push(
    out: &mut Vec<Finding>,
    opts: &LintOptions,
    rule: Rule,
    target: &str,
    location: String,
    message: String,
) {
    out.push(Finding {
        rule,
        severity: rule.severity(),
        target: target.to_owned(),
        location,
        message,
        allowed: opts.is_allowed(rule),
        position: None,
    });
}

/// Stamps each finding with the 1-based `(line, column)` of its
/// target's declaration in `source` (the file the [`SpecSet`] was
/// loaded from). Compound targets resolve to their top-level
/// declaration: `pair/beat` points at `multiclock pair`,
/// `gate.antecedent` at `cesc gate`. Findings whose target has no
/// declaration in `source` keep `position: None`.
pub fn annotate_positions(report: &mut LintReport, source: &str) {
    let decls = decl_positions(source);
    for f in &mut report.findings {
        let head = f.target.split(['/', '.']).next().unwrap_or("");
        f.position = decls
            .iter()
            .find(|(name, _, _)| name == head)
            .map(|&(_, line, col)| (line, col));
    }
}

/// Scans source text for `scesc NAME`, `multiclock NAME` and `cesc
/// NAME` declaration headers (comments stripped), returning each name
/// with the 1-based line and column of the name token.
fn decl_positions(source: &str) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    for (ln, raw) in source.lines().enumerate() {
        let code = raw.split("//").next().unwrap_or("");
        // word list with byte-offset spans
        let mut words: Vec<(usize, usize)> = Vec::new();
        let mut open = false;
        for (i, ch) in code.char_indices() {
            if ch.is_whitespace() || ch == '{' {
                open = false;
            } else if open {
                words.last_mut().expect("open word").1 = i + ch.len_utf8();
            } else {
                open = true;
                words.push((i, i + ch.len_utf8()));
            }
        }
        for w in 0..words.len().saturating_sub(1) {
            let kw = &code[words[w].0..words[w].1];
            if kw == "scesc" || kw == "multiclock" || kw == "cesc" {
                let (ns, ne) = words[w + 1];
                let name = &code[ns..ne];
                if !name.is_empty() {
                    out.push((name.to_owned(), ln + 1, ns + 1));
                }
            }
        }
    }
    out
}

fn reachability_findings(
    target: &str,
    monitor: &Monitor,
    bounds: &BoundsReport,
    sem: &Semantics,
    opts: &LintOptions,
    out: &mut Vec<Finding>,
) {
    if !bounds.final_feasible() {
        push(
            out,
            opts,
            Rule::Vacuity,
            target,
            monitor.final_state().to_string(),
            format!(
                "accept state {} is unreachable under satisfiable guards — the chart can \
                 never match",
                monitor.final_state()
            ),
        );
    }
    for s in bounds.infeasible_states() {
        if s == monitor.final_state() {
            continue; // covered by vacuity
        }
        push(
            out,
            opts,
            Rule::DeadState,
            target,
            s.to_string(),
            format!("state {s} is unreachable under the refined transition relation"),
        );
    }
    for &(s, arm) in bounds.infeasible_arms() {
        if sem.unsat_arms.contains(&(s, arm)) {
            continue; // upgraded to L100: the guard itself is unsat
        }
        push(
            out,
            opts,
            Rule::DeadArm,
            target,
            format!("{s}#{arm}"),
            format!(
                "arm {arm} of {s} can never fire (guard shadowed or contradicted by counter \
                 bounds)"
            ),
        );
    }
}

fn bound_findings(
    target: &str,
    bounds: impl Iterator<Item = (SymbolId, cesc_core::Bound)>,
    ab: &Alphabet,
    opts: &LintOptions,
    out: &mut Vec<Finding>,
) {
    for (e, b) in bounds {
        let name = ab.name(e);
        match b.hi {
            None => push(
                out,
                opts,
                Rule::UnboundedCounter,
                target,
                format!("event {name}"),
                format!(
                    "count of `{name}` has no finite bound — any fixed-width RTL counter \
                     can saturate and silently diverge from the unbounded engine"
                ),
            ),
            Some(hi) => {
                if let Some(w) = opts.ceiling_width {
                    let ceiling = (1u64 << w.clamp(1, 63)) - 1;
                    if hi > ceiling {
                        push(
                            out,
                            opts,
                            Rule::SaturationRisk,
                            target,
                            format!("event {name}"),
                            format!(
                                "count of `{name}` can reach {hi}, exceeding the {w}-bit \
                                 counter ceiling {ceiling}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

fn underflow_findings(
    target: &str,
    bounds: &BoundsReport,
    ab: &Alphabet,
    opts: &LintOptions,
    out: &mut Vec<Finding>,
) {
    for site in bounds.underflow_sites() {
        let name = ab.name(site.event);
        push(
            out,
            opts,
            Rule::Underflow,
            target,
            format!("{}#{}", site.state, site.arm),
            format!(
                "Del_evt({name}) on arm {} of {} always fires with count 0 — the deletion \
                 is guaranteed to underflow",
                site.arm, site.state
            ),
        );
    }
}

fn shadowing_findings(
    target: &str,
    monitor: &Monitor,
    bounds: &BoundsReport,
    ab: &Alphabet,
    opts: &LintOptions,
    out: &mut Vec<Finding>,
) {
    for s in 0..monitor.state_count() {
        let sid = cesc_core::StateId::from_index(s);
        if !bounds.is_feasible(sid) {
            continue;
        }
        let ts = monitor.transitions_from(sid);
        for i in 0..ts.len() {
            for j in i + 1..ts.len() {
                if bounds.infeasible_arms().contains(&(sid, i))
                    || bounds.infeasible_arms().contains(&(sid, j))
                {
                    continue;
                }
                // the trailing total fallback is the *designed*
                // default of every synthesized state, not an ambiguity
                if matches!(ts[j].guard, Expr::Const(true)) {
                    continue;
                }
                // kind-differing pairs belong to the semantic L101
                // rule, which also proves syntactically-compatible but
                // semantically-disjoint pairs harmless
                if ts[i].kind != ts[j].kind {
                    continue;
                }
                if ts[i].target == ts[j].target && ts[i].actions == ts[j].actions {
                    continue;
                }
                if sat::compatible(&ts[i].guard, &ts[j].guard) {
                    push(
                        out,
                        opts,
                        Rule::Shadowing,
                        target,
                        format!("{sid}#{i}/{j}"),
                        format!(
                            "arms {i} and {j} of {sid} overlap (`{}` and `{}` can hold \
                             together) with different outcomes; priority order silently \
                             picks arm {i}",
                            ts[i].guard.display(ab),
                            ts[j].guard.display(ab)
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HS: &str = "scesc hs on clk { instances { M } events { req, ack } \
                      tick { M: req } tick { M: ack } cause req -> ack; }";

    #[test]
    fn rule_parse_roundtrip() {
        for r in Rule::all() {
            assert_eq!(Rule::parse(r.id()), Some(r));
            assert_eq!(Rule::parse(r.name()), Some(r));
        }
        assert_eq!(Rule::parse("nope"), None);
    }

    #[test]
    fn hs_chart_flags_unbounded_counter() {
        let specs = SpecSet::load(HS).unwrap();
        let report = lint(&specs, &LintOptions::default()).unwrap();
        let unbounded: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::UnboundedCounter)
            .collect();
        assert_eq!(unbounded.len(), 1, "{:?}", report.findings);
        assert_eq!(unbounded[0].target, "hs");
        assert!(unbounded[0].message.contains("req"));
        assert!(!report.denied().is_empty());
    }

    #[test]
    fn allow_silences_deny_but_keeps_finding() {
        let specs = SpecSet::load(HS).unwrap();
        let opts = LintOptions {
            allow: vec!["unbounded-counter".to_owned()],
            ..LintOptions::default()
        };
        let report = lint(&specs, &opts).unwrap();
        let f = report
            .findings
            .iter()
            .find(|f| f.rule == Rule::UnboundedCounter)
            .unwrap();
        assert!(f.allowed);
        assert!(report.denied().is_empty());
    }

    #[test]
    fn unknown_allow_rule_rejects() {
        let specs = SpecSet::load(HS).unwrap();
        let opts = LintOptions {
            allow: vec!["L999".to_owned()],
            ..LintOptions::default()
        };
        let err = lint(&specs, &opts).unwrap_err();
        assert!(err.to_string().contains("unknown lint rule"), "{err}");
    }

    #[test]
    fn causality_free_chart_is_clean() {
        let specs = SpecSet::load(
            "scesc pulse on clk { instances { M } events { a, b } \
             tick { M: a } tick { M: b } }",
        )
        .unwrap();
        let report = lint(&specs, &LintOptions::default()).unwrap();
        assert!(report.denied().is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn saturation_risk_fires_under_explicit_ceiling() {
        // pulse-train: three causes from the same event make the
        // count reach 3; a 1-bit explicit counter ceiling (max 1)
        // cannot hold it
        let specs = SpecSet::load(
            "scesc burst on clk { instances { M } events { a, b } \
             tick { M: a } tick { M: a } tick { M: a } tick { M: b } \
             cause a@0 -> b; cause a@1 -> b; cause a@2 -> b; }",
        )
        .unwrap();
        let opts = LintOptions {
            ceiling_width: Some(1),
            ..LintOptions::default()
        };
        let report = lint(&specs, &opts).unwrap();
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == Rule::SaturationRisk || f.rule == Rule::UnboundedCounter),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn annotations_collected_from_source() {
        let src = "// lint: allow(unbounded-counter, shadowing)\n\
                   scesc x on clk { instances { A } events { e } tick { A: e } } // lint: allow(L020)";
        assert_eq!(
            allows_in_source(src),
            vec!["unbounded-counter", "shadowing", "L020"]
        );
    }

    #[test]
    fn refuted_assert_raises_violated_assert_with_position() {
        let src = format!(
            "{HS}\n\
             scesc req on clk {{ instances {{ M }} events {{ req, ack }} tick {{ M: req }} }}\n\
             scesc rsp on clk {{ instances {{ M }} events {{ req, ack }} tick {{ M: ack }} }}\n\
             cesc gate {{ implies(req, rsp) }}"
        );
        let specs = SpecSet::load(&src).unwrap();
        let mut report = lint(&specs, &LintOptions::default()).unwrap();
        annotate_positions(&mut report, &src);
        let f = report
            .findings
            .iter()
            .find(|f| f.rule == Rule::ViolatedAssert)
            .expect("implies(req, rsp) is refutable");
        assert_eq!(f.target, "gate");
        assert_eq!(f.severity, Severity::Warning);
        assert_eq!(f.position, Some((4, 6)), "points at `cesc gate`");
        assert!(f.message.contains("2-tick trace"), "{}", f.message);
        // the L110 warning gates --deny, and `--allow violated-assert`
        // silences it
        assert!(report.denied().iter().any(|f| f.rule == Rule::ViolatedAssert));
        let opts = LintOptions {
            allow: vec!["violated-assert".to_owned()],
            ..LintOptions::default()
        };
        let report = lint(&specs, &opts).unwrap();
        assert!(!report.denied().iter().any(|f| f.rule == Rule::ViolatedAssert));
    }

    #[test]
    fn contradictory_overlap_upgrades_kind_differing_shadowing() {
        let specs = SpecSet::load(HS).unwrap();
        let report = lint(&specs, &LintOptions::default()).unwrap();
        let f = report
            .findings
            .iter()
            .find(|f| f.rule == Rule::ContradictoryOverlap)
            .expect("hs has a forward/backward overlap");
        assert!(f.message.contains("jointly satisfiable"), "{}", f.message);
        assert!(
            f.message.contains("req") || f.message.contains("ack"),
            "witness event-set in message: {}",
            f.message
        );
        // ...and no plain L030 remains for kind-differing pairs
        assert!(
            !report.findings.iter().any(|f| f.rule == Rule::Shadowing),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn positions_resolve_compound_targets() {
        let src = "scesc ping on ca { instances { M } events { req, ack } \
                   tick { M: req } tick { M: ack } cause req -> ack; }\n\
                   scesc pong on cb { instances { S } events { go } tick { S: go } }\n\
                   multiclock pair { charts { ping, pong } }";
        let specs = SpecSet::load(src).unwrap();
        let mut report = lint(&specs, &LintOptions::default()).unwrap();
        annotate_positions(&mut report, src);
        for f in &report.findings {
            assert!(f.position.is_some(), "unannotated finding: {f}");
        }
        let local = report
            .findings
            .iter()
            .find(|f| f.target.starts_with("pair/"))
            .expect("multiclock local finding");
        assert_eq!(local.position, Some((3, 12)), "points at `multiclock pair`");
    }

    #[test]
    fn findings_identical_with_and_without_optimizer() {
        use cesc_spec::SpecOptions;
        let src = format!(
            "{HS}\n\
             scesc pulse on clk {{ instances {{ M }} events {{ a }} tick {{ M: a }} }}\n\
             scesc beat on tock {{ instances {{ S }} events {{ z }} tick {{ S: z }} }}\n\
             multiclock pair {{ charts {{ pulse, beat }} }}\n\
             cesc gate {{ implies(hs, pulse) }}"
        );
        let with_opt = SpecSet::load(&src).unwrap();
        let no_opt = SpecSet::load_with(
            &src,
            SpecOptions {
                optimize: false,
                ..SpecOptions::new()
            },
        )
        .unwrap();
        let a = lint(&with_opt, &LintOptions::default()).unwrap();
        let b = lint(&no_opt, &LintOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn multiclock_locals_lint_with_coupling() {
        let specs = SpecSet::load(
            "scesc ping on ca { instances { M } events { req, ack } \
             tick { M: req } tick { M: ack } cause req -> ack; }\n\
             scesc pong on cb { instances { S } events { go } tick { S: go } }\n\
             multiclock pair { charts { ping, pong } }",
        )
        .unwrap();
        let report = lint(&specs, &LintOptions::default()).unwrap();
        // the ping local appears both standalone and inside `pair`
        assert!(report
            .findings
            .iter()
            .any(|f| f.target == "pair/ping" && f.rule == Rule::UnboundedCounter));
    }
}
