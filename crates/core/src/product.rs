//! Product automata and the static implication prover.
//!
//! Everything here is a worklist reachability computation over states
//! of one or two [`crate::CompiledMonitor`]s, with transition
//! enumeration delegated to [`crate::GuardSat`]: a product edge exists
//! exactly when the joint arm constraint (each chosen arm's guard plus
//! the negation of every arm that would pre-empt it) is satisfiable,
//! and the SAT witness doubles as the concrete trace element labelling
//! the edge. Three entry points share the machinery:
//!
//! * [`reachable_states`] — single-monitor semantic reachability with
//!   SAT-pruned edges, strictly sharper than graph reachability (an
//!   arm whose effective guard is unsatisfiable contributes no edge);
//! * [`product_reachability`] — on-the-fly reachable set of a
//!   detector-pair product, optionally pruned by PR 7's interval
//!   bounds (a product state whose component is counter-infeasible on
//!   either side is never enqueued);
//! * [`prove_implication`] — the `cesc prove` core: a product of the
//!   antecedent detector with a tracked consequent obligation that
//!   searches for a reachable "antecedent matched ∧ consequent cannot
//!   advance" configuration.
//!
//! # Exactness of the prover
//!
//! [`crate::ImplicationChecker`] evaluates both sides scoreboard-free
//! (`Chk_evt` atoms are pinned false), advances obligations over
//! *forward* transitions only, and resets the antecedent detector to
//! its initial state when no arm fires. The prover models exactly
//! these dynamics — same pinned-`Chk` guard semantics (`pin_chk`
//! queries), same priority scan (effective-guard constraints), same
//! fallback reset — so its verdict is sound *and* complete with
//! respect to the checker: `Refuted` always comes with a trace the
//! checker itself rejects (re-verified by construction), and `Proved`
//! means no trace of any length can make the checker record a
//! violation.
//!
//! The checker tracks every outstanding obligation; the product tracks
//! *one*, with a nondeterministic choice to adopt or ignore each newly
//! spawned obligation when the tracker is busy. This is sound (the
//! tracked obligation always corresponds to a real one) and complete
//! (for any violated obligation, the run that adopts it at spawn time
//! and keeps it witnesses the violation) while keeping the state space
//! at `|A| × (|C| + 1)` instead of `|A| × 2^|C|`.
//!
//! # Soundness of bounds pruning
//!
//! [`product_reachability`] prunes with [`crate::BoundsReport`]
//! feasibility, an over-approximation of each component's reachable
//! set under *full engine dynamics* (scoreboard included). Pruned
//! product states are therefore unreachable in any real execution of
//! the pair — pruning never removes a reachable state, it only
//! tightens the reported set. The prover does not prune: its
//! scoreboard-free dynamics are already exact, and interval
//! feasibility (computed for scoreboard-backed execution) is neither a
//! subset nor a superset of the checker-reachable set.

use std::collections::VecDeque;

use cesc_expr::Valuation;

use crate::batch::CompiledMonitor;
use crate::bounds::BoundsReport;
use crate::checker::{ImplicationChecker, Violation};
use crate::monitor::{Monitor, StateId, TransitionKind};
use crate::sat::{ArmLit, GuardSat, SatStats};

/// Reachable states of `m` under SAT-pruned edges: state `t` is
/// reachable iff some chain of transitions with satisfiable
/// *effective* guards (arm guard ∧ no higher-priority arm enabled)
/// leads from the initial state to `t`. `pin_chk` pins `Chk_evt`
/// atoms false (detector/checker semantics); with it `false`,
/// scoreboard presence is free — an over-approximation of engine
/// dynamics, so `false` entries are definitely unreachable either way.
pub fn reachable_states(m: &CompiledMonitor, pin_chk: bool) -> Vec<bool> {
    let n = m.state_count();
    let mut sat = GuardSat::single(m);
    let mut reachable = vec![false; n];
    let mut queue = VecDeque::new();
    reachable[m.initial_index()] = true;
    queue.push_back(m.initial_index());
    while let Some(s) = queue.pop_front() {
        let range = m.state_range(s);
        for (i, t) in range.clone().enumerate() {
            let tgt = m.target_of(t);
            if reachable[tgt] {
                continue;
            }
            if sat.effective_witness(0, s, i, pin_chk).is_some() {
                reachable[tgt] = true;
                queue.push_back(tgt);
            }
        }
    }
    reachable
}

/// Reachable set of a detector-pair product (see
/// [`product_reachability`]).
#[derive(Debug, Clone)]
pub struct ProductReport {
    reachable: Vec<bool>,
    b_states: usize,
    /// Product states visited by the worklist.
    pub explored: usize,
    /// Successor states dropped because interval bounds showed a
    /// component counter-infeasible.
    pub pruned: usize,
    /// SAT engine counters for the whole construction.
    pub stats: SatStats,
}

impl ProductReport {
    /// Whether product state `(a, b)` is reachable.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn is_reachable(&self, a: usize, b: usize) -> bool {
        self.reachable[a * self.b_states + b]
    }
}

/// On-the-fly reachability over the product of two detectors run in
/// lockstep on one shared trace: each side takes its first enabled
/// arm, or resets to its initial state when none fires (the
/// [`crate::ImplicationChecker`] detector fallback). A product edge
/// exists iff the joint arm-choice constraint is satisfiable for some
/// single valuation.
///
/// `bounds_a` / `bounds_b`, when given, must describe the *same*
/// monitors (same state numbering — typically
/// [`crate::infer_bounds`] on the monitor that was compiled);
/// successor states that are counter-infeasible on either side are
/// pruned, never enqueued, and counted in [`ProductReport::pruned`].
pub fn product_reachability(
    a: &CompiledMonitor,
    b: &CompiledMonitor,
    bounds_a: Option<&BoundsReport>,
    bounds_b: Option<&BoundsReport>,
    pin_chk: bool,
) -> ProductReport {
    let (na, nb) = (a.state_count(), b.state_count());
    let mut sat = GuardSat::pair(a, b);
    let mut reachable = vec![false; na * nb];
    let mut queue = VecDeque::new();
    let mut explored = 0usize;
    let mut pruned = 0usize;
    let feasible = |bounds: Option<&BoundsReport>, s: usize| {
        bounds.is_none_or(|r| r.is_feasible(StateId::from_index(s)))
    };
    let start = a.initial_index() * nb + b.initial_index();
    reachable[start] = true;
    queue.push_back(start);
    while let Some(id) = queue.pop_front() {
        explored += 1;
        let (p, q) = (id / nb, id % nb);
        let moves_a = detector_moves(a, 0, p);
        let moves_b = detector_moves(b, 1, q);
        let mut joint: Vec<ArmLit> = Vec::new();
        for (la, ta) in &moves_a {
            for (lb, tb) in &moves_b {
                let succ = ta * nb + tb;
                if reachable[succ] {
                    continue;
                }
                joint.clear();
                joint.extend_from_slice(la);
                joint.extend_from_slice(lb);
                if sat.satisfy(&joint, pin_chk).is_none() {
                    continue;
                }
                if !feasible(bounds_a, *ta) || !feasible(bounds_b, *tb) {
                    pruned += 1;
                    continue;
                }
                reachable[succ] = true;
                queue.push_back(succ);
            }
        }
    }
    ProductReport {
        reachable,
        b_states: nb,
        explored,
        pruned,
        stats: sat.stats(),
    }
}

/// Detector moves from state `s` of monitor `mi`: each arm with its
/// effective-guard literals, plus the all-arms-fail fallback that
/// resets to the initial state.
fn detector_moves(m: &CompiledMonitor, mi: usize, s: usize) -> Vec<(Vec<ArmLit>, usize)> {
    let range = m.state_range(s);
    let arms = range.len();
    let mut moves = Vec::with_capacity(arms + 1);
    for (i, t) in range.enumerate() {
        let mut lits: Vec<ArmLit> = (0..i).map(|k| ArmLit::neg(mi, s, k)).collect();
        lits.push(ArmLit::pos(mi, s, i));
        moves.push((lits, m.target_of(t)));
    }
    let fallback: Vec<ArmLit> = (0..arms).map(|k| ArmLit::neg(mi, s, k)).collect();
    moves.push((fallback, m.initial_index()));
    moves
}

/// A statically-found violation of an `implies(...)` assert: a
/// concrete trace plus the engine's own account of the failure.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violating trace, one valuation per tick. Feeding it to
    /// [`crate::ImplicationChecker`] produces `Verdict::Failed` at the
    /// last element.
    pub trace: Vec<Valuation>,
    /// The violation record from replaying the trace through the
    /// checker (the authoritative tick/progress numbers).
    pub violation: Violation,
    /// Whether the replay did record a violation. Always `true` — the
    /// prover is exact — kept as the self-check consumers assert on.
    pub confirmed: bool,
}

/// What [`prove_implication`] concluded.
#[derive(Debug, Clone)]
pub enum ProofOutcome {
    /// No trace of any length violates the assert.
    Proved {
        /// The antecedent can never complete, so the assert holds
        /// vacuously — worth surfacing, it usually means the
        /// antecedent chart is dead.
        vacuous: bool,
    },
    /// A violating trace exists.
    Refuted(Counterexample),
}

/// Result of statically proving one `implies(antecedent, consequent)`
/// assert.
#[derive(Debug, Clone)]
pub struct ProofReport {
    /// The assert's name.
    pub name: String,
    /// Verdict plus counterexample, if any.
    pub outcome: ProofOutcome,
    /// Product states explored.
    pub product_states: usize,
    /// SAT engine counters for the search.
    pub stats: SatStats,
}

impl ProofReport {
    /// Whether the assert was proved (vacuously or not).
    pub fn proved(&self) -> bool {
        matches!(self.outcome, ProofOutcome::Proved { .. })
    }

    /// The counterexample, when refuted.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match &self.outcome {
            ProofOutcome::Refuted(cx) => Some(cx),
            ProofOutcome::Proved { .. } => None,
        }
    }
}

/// Tracked-obligation slot of a prover product state: either no
/// obligation outstanding, or the consequent state the obligation has
/// advanced to. Encoded as `0..nc` = tracking, `nc` = none.
const fn none_slot(nc: usize) -> usize {
    nc
}

/// Statically verifies `implies(antecedent, consequent)` against
/// [`crate::ImplicationChecker`] semantics: searches the product of
/// the antecedent detector and one tracked consequent obligation for a
/// reachable configuration whose obligation cannot take any forward
/// transition. Returns `Proved` (with a vacuity flag when the
/// antecedent can never complete) or `Refuted` with a shortest-depth
/// counterexample trace replayed through the checker.
///
/// The monitors are compiled internally with [`crate::CompileOptions::raw`],
/// so symbol indices in witnesses stay global.
pub fn prove_implication(name: &str, antecedent: &Monitor, consequent: &Monitor) -> ProofReport {
    let ca = antecedent.compiled();
    let cc = consequent.compiled();
    let (na, nc) = (ca.state_count(), cc.state_count());
    let none = none_slot(nc);
    let width = nc + 1;
    let final_a = ca.final_index();
    let final_c = cc.final_index();
    let mut sat = GuardSat::pair(&ca, &cc);

    // forward-arm indices per consequent state (the only arms an
    // obligation may take; everything else is "stuck")
    let fwd: Vec<Vec<usize>> = (0..nc)
        .map(|s| {
            consequent
                .transitions_from(StateId::from_index(s))
                .iter()
                .enumerate()
                .filter(|(_, t)| t.kind == TransitionKind::Forward)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    // BFS with parent pointers: parent[id] = (predecessor id, edge
    // valuation); the initial state is its own parent
    let mut parent: Vec<Option<(usize, Valuation)>> = vec![None; na * width];
    let mut visited = vec![false; na * width];
    let mut queue = VecDeque::new();
    let start = ca.initial_index() * width + none;
    visited[start] = true;
    queue.push_back(start);
    let mut explored = 0usize;

    let outcome = 'search: loop {
        let Some(id) = queue.pop_front() else {
            let vacuous = !(0..width).any(|t| visited[final_a * width + t]);
            break ProofOutcome::Proved { vacuous };
        };
        explored += 1;
        let (p, tr) = (id / width, id % width);

        // a tracked obligation with no satisfiable forward arm at this
        // tick is the violation configuration
        if tr != none {
            let stuck: Vec<ArmLit> =
                fwd[tr].iter().map(|&j| ArmLit::neg(1, tr, j)).collect();
            if let Some(w) = sat.satisfy(&stuck, true) {
                let mut trace = vec![w.valuation];
                let mut at = id;
                while let Some((prev, v)) = parent[at] {
                    trace.push(v);
                    at = prev;
                }
                trace.reverse();
                break 'search ProofOutcome::Refuted(replay(antecedent, consequent, trace));
            }
        }

        // joint successor enumeration: antecedent detector arm (or
        // fallback reset) × tracked-obligation forward arm (or idle
        // tracker), then the spawn rule on antecedent completion
        let moves_a = detector_moves(&ca, 0, p);
        let moves_c: Vec<(Vec<ArmLit>, usize)> = if tr == none {
            vec![(Vec::new(), none)]
        } else {
            fwd[tr]
                .iter()
                .enumerate()
                .map(|(r, &j)| {
                    let mut lits: Vec<ArmLit> =
                        fwd[tr][..r].iter().map(|&k| ArmLit::neg(1, tr, k)).collect();
                    lits.push(ArmLit::pos(1, tr, j));
                    let tgt = cc.target_of(cc.state_range(tr).start + j);
                    (lits, if tgt == final_c { none } else { tgt })
                })
                .collect()
        };
        let mut joint: Vec<ArmLit> = Vec::new();
        let mut succs: Vec<usize> = Vec::new();
        for (la, ta) in &moves_a {
            for (lc, tc) in &moves_c {
                succs.clear();
                if *ta == final_a {
                    if *tc == none {
                        // tracker free: the checker spawns, so must we
                        succs.push(ta * width + cc.initial_index());
                    } else {
                        // tracker busy: nondeterministically keep the
                        // tracked obligation or adopt the new one —
                        // both correspond to real obligations
                        succs.push(ta * width + tc);
                        succs.push(ta * width + cc.initial_index());
                    }
                } else {
                    succs.push(ta * width + tc);
                }
                if succs.iter().all(|&s| visited[s]) {
                    continue;
                }
                joint.clear();
                joint.extend_from_slice(la);
                joint.extend_from_slice(lc);
                let Some(w) = sat.satisfy(&joint, true) else {
                    continue;
                };
                for &succ in &succs {
                    if !visited[succ] {
                        visited[succ] = true;
                        parent[succ] = Some((id, w.valuation));
                        queue.push_back(succ);
                    }
                }
            }
        }
    };

    ProofReport {
        name: name.to_owned(),
        outcome,
        product_states: explored,
        stats: sat.stats(),
    }
}

/// Replays a candidate counterexample through the real checker; the
/// returned record carries the checker's own violation bookkeeping.
fn replay(antecedent: &Monitor, consequent: &Monitor, trace: Vec<Valuation>) -> Counterexample {
    let mut chk = ImplicationChecker::new(antecedent.clone(), consequent.clone());
    chk.scan(trace.iter().copied());
    let confirmed = chk.violation_count() > 0;
    let violation = chk.violations().first().copied().unwrap_or(Violation {
        antecedent_at: 0,
        failed_at: trace.len().saturating_sub(1) as u64,
        progress: 0,
    });
    debug_assert!(confirmed, "prover produced a counterexample the checker accepts");
    Counterexample { trace, violation, confirmed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthOptions};
    use cesc_chart::parse_document;
    use cesc_expr::Valuation;

    fn charts(src: &str) -> cesc_chart::Document {
        parse_document(src).unwrap()
    }

    fn synth(doc: &cesc_chart::Document, name: &str) -> Monitor {
        synthesize(doc.chart(name).unwrap(), &SynthOptions::default()).unwrap()
    }

    #[test]
    fn reachable_states_match_synthesized_chain() {
        let doc = charts(
            "scesc hs on clk { instances { M } events { req, ack } \
             tick { M: req } tick { M: ack } }",
        );
        let m = synth(&doc, "hs").compiled();
        let reach = reachable_states(&m, true);
        assert!(reach.iter().all(|&r| r), "every chain state is reachable");
    }

    #[test]
    fn product_reachability_agrees_with_lockstep_simulation() {
        let doc = charts(
            "scesc a on clk { instances { M } events { x, y } tick { M: x } tick { M: y } }\
             scesc b on clk { instances { M } events { x, y } tick { M: y } }",
        );
        let (ma, mb) = (synth(&doc, "a"), synth(&doc, "b"));
        let (ca, cb) = (ma.compiled(), mb.compiled());
        let report = product_reachability(&ca, &cb, None, None, true);

        // explicit enumeration: run both detectors in lockstep over
        // every trace up to a covering depth
        let nb = cb.state_count();
        let mut expect = vec![false; ca.state_count() * nb];
        let mut frontier = vec![(ma.initial(), mb.initial())];
        expect[ma.initial().index() * nb + mb.initial().index()] = true;
        for _ in 0..8 {
            let mut next = Vec::new();
            for &(sa, sb) in &frontier {
                for bits in 0..4u128 {
                    let v = Valuation::from_bits(bits);
                    let ta = step_det(&ma, sa, v);
                    let tb = step_det(&mb, sb, v);
                    let idx = ta.index() * nb + tb.index();
                    if !expect[idx] {
                        expect[idx] = true;
                        next.push((ta, tb));
                    }
                }
            }
            frontier = next;
        }
        for a in 0..ca.state_count() {
            for b in 0..nb {
                assert_eq!(report.is_reachable(a, b), expect[a * nb + b], "({a},{b})");
            }
        }
        assert!(report.explored > 0 && report.stats.queries > 0);
    }

    fn step_det(m: &Monitor, s: StateId, v: Valuation) -> StateId {
        for t in m.transitions_from(s) {
            if t.guard.eval(v, &cesc_expr::EmptyScoreboard) {
                return t.target;
            }
        }
        m.initial()
    }

    #[test]
    fn refuted_assert_yields_replaying_counterexample() {
        // antecedent `req` completes on any req; consequent demands an
        // ack on the next tick — trivially violable
        let doc = charts(
            "scesc req on clk { instances { M } events { req, ack } tick { M: req } }\
             scesc rsp on clk { instances { M } events { req, ack } tick { M: ack } }",
        );
        let (a, c) = (synth(&doc, "req"), synth(&doc, "rsp"));
        let report = prove_implication("gate", &a, &c);
        let cx = report.counterexample().expect("refutable");
        assert!(cx.confirmed);
        let mut chk = ImplicationChecker::new(a.clone(), c.clone());
        chk.scan(cx.trace.iter().copied());
        assert!(chk.violation_count() > 0, "counterexample must replay");
    }

    #[test]
    fn identity_implication_is_proved() {
        // implies(p, p) with a single-event consequent: whenever `p`
        // completes (event seen), the obligation... still needs the
        // event again next tick — NOT provable. Use a consequent that
        // is valid each tick instead: a chart matching on any tick.
        let doc = charts(
            "scesc ante on clk { instances { M } events { p, q } tick { M: p } }\
             scesc always on clk { instances { M } events { p, q } tick ; }",
        );
        let (a, c) = (synth(&doc, "ante"), synth(&doc, "always"));
        let report = prove_implication("gate", &a, &c);
        assert!(report.proved(), "{:?}", report.outcome);
        assert!(matches!(report.outcome, ProofOutcome::Proved { vacuous: false }));
    }

    #[test]
    fn dead_antecedent_is_vacuously_proved() {
        // a causality-checked antecedent carries a `Chk_evt` on its
        // final arm; the checker runs scoreboard-free (Chk pinned
        // false), so the detector can never complete — vacuous
        let doc = charts(
            "scesc dead on clk { instances { M, S } events { p, q } \
             tick { M: p } tick { S: q } cause p -> q; }\
             scesc rsp on clk { instances { M } events { p, q } tick { M: q } }",
        );
        let (a, c) = (synth(&doc, "dead"), synth(&doc, "rsp"));
        let report = prove_implication("gate", &a, &c);
        assert!(matches!(report.outcome, ProofOutcome::Proved { vacuous: true }));
    }

    #[test]
    fn overlapping_obligations_still_refuted() {
        // the adopt-or-keep rule: antecedent completes every tick `p`
        // holds; consequent is a 2-tick chain q then r. A violation
        // needs an adopted obligation to stall — present here.
        let doc = charts(
            "scesc ante on clk { instances { M } events { p, q, r } tick { M: p } }\
             scesc cons on clk { instances { M } events { p, q, r } \
             tick { M: q } tick { M: r } }",
        );
        let (a, c) = (synth(&doc, "ante"), synth(&doc, "cons"));
        let report = prove_implication("gate", &a, &c);
        let cx = report.counterexample().expect("refutable");
        assert!(cx.confirmed);
        assert!(cx.trace.len() >= 2);
    }
}
