//! The translation algorithm `Tr` — §5 of the paper.
//!
//! ```text
//! main
//!   Input: SCESC 'C'     Output: Monitor 'M'
//!   Q  = {0, …, n}                      /* n = clock ticks in C */
//!   Σ  = EVENTS ∪ PROP
//!   s0 = 0, sf = n
//!   P  = extract_pattern(C)
//!   δ  = compute_transition_func(P, Σ)
//!   for every causality arrow (ex, ey): add_causality_check(ex, ey)
//! ```
//!
//! `compute_transition_func` generalises the CLRS string-matching
//! automaton: from state `s` on input `e`, the next state is the largest
//! `k ≤ min(n, s+1)` such that the pattern prefix `P_k` is a suffix of
//! `T_s·e`.
//!
//! ### The `suffix_of` interpretation
//!
//! At synthesis time the trace `T_s` is unknown; only the fact that its
//! last `s` elements matched `P_0..P_{s-1}` is. `P_k suffix_of T_s·e`
//! therefore needs a *compatibility* reading for the overlapped
//! positions (`e ⊨ P[k-1]` handles the fresh element): does an element
//! that matched `P[s-k+1+i]` also match `P[i]`? [`OverlapPolicy`]
//! offers the two defensible answers — `Witness` (evaluate on the
//! canonical witness; reproduces the paper's printed automata, the
//! default) and `Satisfiability` (`sat(P[i] ∧ P[j])`; superset
//! detection). Both are exact on complete-element patterns; on
//! aliasing patterns only subset construction ([`crate::Determinized`])
//! is exact — see
//! docs/ARCHITECTURE.md, "Which windows `cesc check` reports", for the
//! full characterization, which the property tests pin.
//!
//! Transitions whose effective guard is unsatisfiable (shadowed by
//! higher-priority guards, e.g. slides under a `TRUE` element) are
//! pruned; the relation stays total.
//!
//! ### `add_causality_check`
//!
//! For each arrow `ex → ey` (occurrence-qualified where drawn so):
//! * every transition consuming an element where `ex` occurs gets the
//!   action `Add_evt(ex)`;
//! * every transition consuming an element where `ey` occurs gets the
//!   additional guard `Chk_evt(ex)` (skipped when cause and effect share
//!   a grid line — causality is trivially satisfied within one tick);
//! * every backward transition from `s` to `k` reverses the `Add_evt`s
//!   of the forward path between `k` and `s` with `Del_evt`s — Fig 7's
//!   `act5..act8 = NOT(act1 AND …)`.
//!
//! [`SynthOptions::fresh_add_guard`] optionally conjoins
//! `¬Chk_evt(ex)` to `Add` transitions, reproducing the extra
//! `Chk_evt` atom printed inside label `a` of Figures 6 and 8 (it
//! enforces a single outstanding occurrence; it also disables Fig 7's
//! re-entry edges, which is why it defaults to off — see
//! docs/ARCHITECTURE.md, "Which windows `cesc check` reports").

use std::fmt;

use cesc_chart::{CausalityArrow, Scesc};
use cesc_expr::{sat, Expr, SymbolId};

use crate::monitor::{Monitor, StateId, Transition, TransitionKind};
use crate::scoreboard::Action;

/// How the synthesis-time `suffix_of` check decides whether a trace
/// element that matched pattern element `P[i]` also matches `P[j]`
/// (the trace itself being unavailable at synthesis time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapPolicy {
    /// Optimistic: `sat(P[i] ∧ P[j])` — the element *could* match both.
    /// On complete (single-valuation) pattern elements this is exact;
    /// in general it is a superset detector (never misses a window
    /// whose elements it tracked, may over-report on self-overlapping
    /// patterns — e.g. it double-counts a repeated response element
    /// after a completed OCP read).
    Satisfiability,
    /// Canonical-witness: evaluate `P[j]` on the minimal witness of
    /// `P[i]` — the reading where `T_s` is instantiated with the
    /// pattern's own witness window. **This is the interpretation that
    /// reproduces the automata printed in the paper's Figures 5–8**
    /// (e.g. Fig 5's `d / Del_evt(e1)` abort transition exists only
    /// under this policy), so it is the default.
    ///
    /// The two policies coincide on complete-element patterns
    /// (classical string matching); on aliasing patterns neither is
    /// exact — see [`crate::Determinized`] for the subset-construction
    /// remedy and `cesc-core`'s `determinize` tests for the precise
    /// characterization.
    #[default]
    Witness,
}

/// Options controlling the synthesis algorithm.
#[derive(Debug, Clone)]
pub struct SynthOptions {
    /// Conjoin `¬Chk_evt(ex)` to transitions carrying `Add_evt(ex)`
    /// (matches the printed labels of Figures 6/8; defaults to `false`
    /// to keep Figure 7's burst re-entry edges live).
    pub fresh_add_guard: bool,
    /// Additional causality arrows (used by multi-clock synthesis to
    /// inject cross-domain arrows; endpoints may lie outside the chart).
    pub extra_arrows: Vec<CausalityArrow>,
    /// Interpretation of the synthesis-time `suffix_of` overlap check.
    pub overlap: OverlapPolicy,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            fresh_add_guard: false,
            extra_arrows: Vec::new(),
            overlap: OverlapPolicy::Witness,
        }
    }
}

/// Error raised by [`synthesize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The chart has no grid lines.
    EmptyChart {
        /// Offending chart name.
        chart: String,
    },
    /// A pattern element is unsatisfiable — the monitor could never
    /// advance past it.
    UnsatisfiableElement {
        /// Offending chart name.
        chart: String,
        /// Tick of the contradictory grid line.
        tick: usize,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::EmptyChart { chart } => write!(f, "chart `{chart}` has no grid lines"),
            SynthError::UnsatisfiableElement { chart, tick } => write!(
                f,
                "chart `{chart}` has an unsatisfiable pattern element at tick {tick}"
            ),
        }
    }
}

impl std::error::Error for SynthError {}

/// Per-tick causality bookkeeping derived from the arrows.
#[derive(Debug, Clone, Default)]
pub(crate) struct CausalityPlan {
    /// `add_at[t]`: events to `Add_evt` when consuming element `t`.
    pub(crate) add_at: Vec<Vec<SymbolId>>,
    /// `chk_at[t]`: events whose `Chk_evt` guards element `t`.
    pub(crate) chk_at: Vec<Vec<SymbolId>>,
}

impl CausalityPlan {
    /// Builds the plan for `chart` from its own arrows plus `extra`
    /// (cross-domain) arrows.
    pub(crate) fn build(chart: &Scesc, extra: &[CausalityArrow]) -> Self {
        let n = chart.tick_count();
        let mut plan = CausalityPlan {
            add_at: vec![Vec::new(); n],
            chk_at: vec![Vec::new(); n],
        };
        let all: Vec<CausalityArrow> = chart
            .arrows()
            .iter()
            .copied()
            .chain(extra.iter().copied())
            .collect();
        for arrow in &all {
            let from_ticks: Vec<usize> = chart
                .ticks_of_event(arrow.from)
                .into_iter()
                .filter(|t| arrow.from_tick.is_none_or(|ft| ft == *t))
                .collect();
            let to_ticks: Vec<usize> = chart
                .ticks_of_event(arrow.to)
                .into_iter()
                .filter(|t| arrow.to_tick.is_none_or(|tt| tt == *t))
                .collect();
            // Add side: ex occurs in this chart
            for &t in &from_ticks {
                if !plan.add_at[t].contains(&arrow.from) {
                    plan.add_at[t].push(arrow.from);
                }
            }
            // Chk side: ey occurs in this chart. A same-tick cause needs
            // no scoreboard check; a cause in *another* chart
            // (cross-domain arrow) always needs one.
            let cause_tick = from_ticks.first().copied();
            for &t in &to_ticks {
                let needs_chk = match cause_tick {
                    Some(ft) => ft < t,
                    None => true, // cross-domain: cause lives elsewhere
                };
                if needs_chk && !plan.chk_at[t].contains(&arrow.from) {
                    plan.chk_at[t].push(arrow.from);
                }
            }
        }
        plan
    }

    /// Union of all events that get `Add_evt` somewhere (the monitor's
    /// scoreboard footprint).
    pub(crate) fn tracked_events(&self) -> Vec<SymbolId> {
        let mut out: Vec<SymbolId> = Vec::new();
        for adds in &self.add_at {
            for &e in adds {
                if !out.contains(&e) {
                    out.push(e);
                }
            }
        }
        out
    }
}

/// Synthesizes the assertion monitor for an SCESC — the paper's `Tr`.
///
/// # Errors
///
/// Returns [`SynthError::EmptyChart`] for a chart without grid lines and
/// [`SynthError::UnsatisfiableElement`] when a grid line's constraint is
/// contradictory.
///
/// # Examples
///
/// Figure 5's chart yields the 4-state monitor with `Add`/`Chk`/`Del`
/// scoreboard bookkeeping:
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, SynthOptions};
///
/// let doc = parse_document(r#"
///     scesc fig5 on clk {
///         instances { A, B }
///         events { e1, e2, e3 }
///         props { p1, p3 }
///         tick { A: e1 if p1; B: e2 }
///         tick ;
///         tick { B: e3 if p3 }
///         cause e1 -> e3;
///     }
/// "#).unwrap();
/// let m = synthesize(doc.chart("fig5").unwrap(), &SynthOptions::default())?;
/// assert_eq!(m.state_count(), 4); // states 0..=3
/// # Ok::<(), cesc_core::SynthError>(())
/// ```
pub fn synthesize(chart: &Scesc, opts: &SynthOptions) -> Result<Monitor, SynthError> {
    let pattern = chart.extract_pattern();
    let n = pattern.len();
    if n == 0 {
        return Err(SynthError::EmptyChart {
            chart: chart.name().to_owned(),
        });
    }
    for (i, p) in pattern.iter().enumerate() {
        if !sat::is_satisfiable(p) {
            return Err(SynthError::UnsatisfiableElement {
                chart: chart.name().to_owned(),
                tick: i,
            });
        }
    }

    // compatibility matrix: can one element match both P[i] and P[j]?
    let compat = compat_matrix(&pattern, opts.overlap);
    let plan = CausalityPlan::build(chart, &opts.extra_arrows);

    let mut transitions: Vec<Vec<Transition>> = Vec::with_capacity(n + 1);
    for s in 0..=n {
        let mut ts: Vec<Transition> = Vec::new();
        let k_max = n.min(s + 1);
        for k in (1..=k_max).rev() {
            // overlap check: old elements matched P[s-k+1 .. s-1] must be
            // compatible with P[0 .. k-2]
            let static_ok = (0..k - 1).all(|i| compat[s + 1 - k + i][i]);
            if !static_ok {
                continue;
            }
            let mut guard_parts = vec![pattern[k - 1].clone()];
            for &ex in &plan.chk_at[k - 1] {
                guard_parts.push(Expr::chk(ex));
            }
            if opts.fresh_add_guard {
                for &ex in &plan.add_at[k - 1] {
                    guard_parts.push(!Expr::chk(ex));
                }
            }
            let mut actions: Vec<Action> = Vec::new();
            let kind = if k == s + 1 {
                TransitionKind::Forward
            } else {
                TransitionKind::Backward
            };
            // Backward transitions from *non-final* states abort an
            // in-progress match and reverse its Add_evt's. Transitions
            // leaving the final state do NOT delete: the occurrence
            // completed and its scoreboard record is history (Fig 7
            // prints no Del actions on final-state edges — and
            // cross-domain Chk_evt's may consult the record later).
            if kind == TransitionKind::Backward && s != n {
                let dels = del_events(&plan, k, s);
                if !dels.is_empty() {
                    actions.push(Action::DelEvt(dels));
                }
            }
            if !plan.add_at[k - 1].is_empty() {
                actions.push(Action::AddEvt(plan.add_at[k - 1].clone()));
            }
            ts.push(Transition {
                guard: Expr::and(guard_parts),
                actions,
                target: StateId(k as u32),
                kind,
            });
        }
        // total fallback to state 0 (the k = 0 case: the empty prefix is
        // a suffix of anything); no deletions from the final state
        let dels = if s == n {
            Vec::new()
        } else {
            del_events(&plan, 0, s)
        };
        let actions = if dels.is_empty() {
            Vec::new()
        } else {
            vec![Action::DelEvt(dels)]
        };
        ts.push(Transition {
            guard: Expr::t(),
            actions,
            target: StateId(0),
            kind: TransitionKind::Backward,
        });
        transitions.push(prune_shadowed(ts));
    }

    Ok(Monitor {
        name: chart.name().to_owned(),
        clock: chart.clock().to_owned(),
        transitions,
        initial: StateId(0),
        final_state: StateId(n as u32),
        tracked_events: plan.tracked_events(),
        pattern,
    })
}

/// Drops transitions whose *effective* guard — own guard conjoined
/// with the negations of all higher-priority guards — is unsatisfiable
/// (e.g. slides shadowed by a `TRUE` pattern element). Pruning never
/// breaks totality: a transition is shadowed only when the earlier
/// guards already cover every valuation and scoreboard state that
/// would enable it.
fn prune_shadowed(ts: Vec<Transition>) -> Vec<Transition> {
    let mut kept: Vec<Transition> = Vec::with_capacity(ts.len());
    for t in ts {
        let mut parts: Vec<Expr> = kept
            .iter()
            .map(|k| Expr::Not(Box::new(k.guard.clone())))
            .collect();
        parts.push(t.guard.clone());
        if sat::is_satisfiable(&Expr::and(parts)) {
            kept.push(t);
        }
    }
    kept
}

/// Events added on the forward path between states `k` and `s`
/// (elements `k..s-1`), to be reversed by a backward transition.
fn del_events(plan: &CausalityPlan, k: usize, s: usize) -> Vec<SymbolId> {
    let mut dels: Vec<SymbolId> = Vec::new();
    for t in k..s.min(plan.add_at.len()) {
        for &e in &plan.add_at[t] {
            dels.push(e);
        }
    }
    dels
}

/// `compat[i][j]` ⇔ "an element that matched `P[i]` also matches
/// `P[j]`" under the chosen policy. Symmetric for
/// [`OverlapPolicy::Satisfiability`], generally asymmetric for
/// [`OverlapPolicy::Witness`].
fn compat_matrix(pattern: &[Expr], policy: OverlapPolicy) -> Vec<Vec<bool>> {
    let n = pattern.len();
    let mut m = vec![vec![false; n]; n];
    match policy {
        OverlapPolicy::Satisfiability => {
            for i in 0..n {
                for j in 0..=i {
                    let c = sat::compatible(&pattern[i], &pattern[j]);
                    m[i][j] = c;
                    m[j][i] = c;
                }
            }
        }
        OverlapPolicy::Witness => {
            let witnesses: Vec<_> = pattern
                .iter()
                .map(|p| sat::satisfying_valuation(p).map(|w| w.valuation))
                .collect();
            for i in 0..n {
                for j in 0..n {
                    m[i][j] = match witnesses[i] {
                        Some(w) => pattern[j].eval_pure(w),
                        None => false,
                    };
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MonitorExec;
    use cesc_chart::parse_document;
    use cesc_expr::Valuation;

    fn fig5() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc fig5 on clk {
                instances { A, B }
                events { e1, e2, e3 }
                props { p1, p3 }
                tick { A: e1 if p1; B: e2 }
                tick ;
                tick { B: e3 if p3 }
                cause e1 -> e3;
            }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn fig5_monitor_structure() {
        let doc = fig5();
        let m = synthesize(doc.chart("fig5").unwrap(), &SynthOptions::default()).unwrap();
        assert_eq!(m.state_count(), 4);
        assert_eq!(m.initial().index(), 0);
        assert_eq!(m.final_state().index(), 3);

        // forward transition 0→1 carries Add_evt(e1)
        let e1 = doc.alphabet.lookup("e1").unwrap();
        let t01 = &m.transitions_from(StateId(0))[0];
        assert_eq!(t01.target, StateId(1));
        assert_eq!(t01.actions, vec![Action::AddEvt(vec![e1])]);

        // transition into final state guarded by Chk_evt(e1)
        let ts2 = m.transitions_from(StateId(2));
        let fwd = ts2.iter().find(|t| t.target == StateId(3)).unwrap();
        assert!(fwd.guard.uses_scoreboard());

        // backward transition from 2 carries Del_evt(e1)
        let back = ts2.iter().find(|t| t.target == StateId(0)).unwrap();
        assert!(back
            .actions
            .iter()
            .any(|a| matches!(a, Action::DelEvt(es) if es.contains(&e1))));
        assert_eq!(m.tracked_events(), &[e1]);
    }

    #[test]
    fn fig5_monitor_detects_scenario() {
        let doc = fig5();
        let chart = doc.chart("fig5").unwrap();
        let m = synthesize(chart, &SynthOptions::default()).unwrap();
        let ab = &doc.alphabet;
        let (e1, e2, e3) = (
            ab.lookup("e1").unwrap(),
            ab.lookup("e2").unwrap(),
            ab.lookup("e3").unwrap(),
        );
        let (p1, p3) = (ab.lookup("p1").unwrap(), ab.lookup("p3").unwrap());

        // pattern: (p1&e1 & e2), true, (p3&e3) with causality e1→e3
        let good = [
            Valuation::of([p1, e1, e2]),
            Valuation::empty(),
            Valuation::of([p3, e3]),
        ];
        let report = m.scan(good);
        assert_eq!(report.matches, vec![2]);
        assert_eq!(report.underflows, 0);

        // e2 alone also satisfies element 0 (a = (p1∧e1)∨e2), but then
        // e1 was never added — Chk_evt(e1) must block the final step
        let no_cause = [
            Valuation::of([e2]),
            Valuation::empty(),
            Valuation::of([p3, e3]),
        ];
        let report = m.scan(no_cause);
        assert!(!report.detected());
    }

    #[test]
    fn monitor_is_total_on_random_input() {
        let doc = fig5();
        let m = synthesize(doc.chart("fig5").unwrap(), &SynthOptions::default()).unwrap();
        let mut exec = MonitorExec::new(&m);
        // feed all 2^5 valuations over the 5 chart symbols — no panic
        for bits in 0u32..32 {
            let v = Valuation::from_bits(bits as u128);
            exec.step(v);
        }
    }

    #[test]
    fn empty_chart_is_an_error() {
        let mut ab = cesc_expr::Alphabet::new();
        ab.event("x");
        let chart = cesc_chart::ScescBuilder::new("empty", "clk").build_unchecked();
        let err = synthesize(&chart, &SynthOptions::default()).unwrap_err();
        assert!(matches!(err, SynthError::EmptyChart { .. }));
    }

    #[test]
    fn unsatisfiable_element_is_an_error() {
        let doc = parse_document(
            "scesc bad on clk { instances { A } events { e } tick { A: e, !e } }",
        )
        .unwrap();
        let err = synthesize(doc.chart("bad").unwrap(), &SynthOptions::default()).unwrap_err();
        assert_eq!(
            err,
            SynthError::UnsatisfiableElement {
                chart: "bad".into(),
                tick: 0
            }
        );
        assert!(err.to_string().contains("tick 0"));
    }

    #[test]
    fn fresh_add_guard_blocks_double_start() {
        let doc = fig5();
        let chart = doc.chart("fig5").unwrap();
        let opts = SynthOptions {
            fresh_add_guard: true,
            ..Default::default()
        };
        let m = synthesize(chart, &opts).unwrap();
        let t01 = &m.transitions_from(StateId(0))[0];
        // guard now contains ¬Chk_evt(e1)
        let shown = t01.guard.display(&doc.alphabet).to_string();
        assert!(shown.contains("!Chk_evt(e1)"), "{shown}");
    }

    #[test]
    fn slide_targets_respect_kmp_bound() {
        let doc = fig5();
        let chart = doc.chart("fig5").unwrap();
        let n = chart.tick_count();
        for overlap in [OverlapPolicy::Witness, OverlapPolicy::Satisfiability] {
            let opts = SynthOptions {
                overlap,
                ..Default::default()
            };
            let m = synthesize(chart, &opts).unwrap();
            for s in 0..=n {
                for t in m.transitions_from(StateId(s as u32)) {
                    assert!(
                        t.target.index() <= n.min(s + 1),
                        "{overlap:?}: s{s} -> {}",
                        t.target
                    );
                }
            }
        }
    }

    #[test]
    fn self_overlapping_pattern_slides_not_resets() {
        // pattern a, a: after matching "aa" (final), another a must slide
        // to state ≥ 1, not to 0
        let doc = parse_document(
            "scesc aa on clk { instances { M } events { a } tick { M: a } tick { M: a } }",
        )
        .unwrap();
        let m = synthesize(doc.chart("aa").unwrap(), &SynthOptions::default()).unwrap();
        let a = doc.alphabet.lookup("a").unwrap();
        let report = m.scan(vec![Valuation::of([a]); 5]);
        // matches at ticks 1,2,3,4 (every extension re-enters final)
        assert_eq!(report.matches, vec![1, 2, 3, 4]);
    }

    #[test]
    fn repeated_scenarios_detected_back_to_back() {
        let doc = fig5();
        let chart = doc.chart("fig5").unwrap();
        let m = synthesize(chart, &SynthOptions::default()).unwrap();
        let ab = &doc.alphabet;
        let (e1, e2, e3) = (
            ab.lookup("e1").unwrap(),
            ab.lookup("e2").unwrap(),
            ab.lookup("e3").unwrap(),
        );
        let (p1, p3) = (ab.lookup("p1").unwrap(), ab.lookup("p3").unwrap());
        let once = [
            Valuation::of([p1, e1, e2]),
            Valuation::empty(),
            Valuation::of([p3, e3]),
        ];
        let mut trace = Vec::new();
        for _ in 0..3 {
            trace.extend(once);
        }
        let report = m.scan(trace);
        assert_eq!(report.matches, vec![2, 5, 8]);
        assert_eq!(report.underflows, 0);
    }
}
