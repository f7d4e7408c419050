//! The monitor automaton.
//!
//! §4, Definition *Monitor*: a 5-tuple `⟨Q, Σ, δ, s0, sf⟩` whose
//! transition function maps `Q × EXP × ACT → Q`: transitions are labeled
//! `exp / act` with `exp` a boolean expression over `EVENTS ∪ PROP`
//! (plus `Chk_evt` scoreboard guards) and `act` a scoreboard action.
//! "Following the synchronous model of systems, the transitions in a
//! monitor are instantaneous and a single clock tick separates two
//! successive transitions."
//!
//! States are `0..=n` for an `n`-tick chart; state `s` means "the last
//! `s` trace elements match the pattern prefix `P_s`". Transitions from
//! each state are stored in *priority order* (descending target), which
//! encodes the synthesis algorithm's max-`k` rule; execution takes the
//! first transition whose guard evaluates true.

use std::fmt;

use cesc_expr::{Alphabet, Expr, SymbolId, Valuation};

use crate::scoreboard::{Action, Scoreboard};

/// Identifier of a monitor state (`0..=n`; `0` initial, `n` final).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Zero-based index of the state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `StateId` from a raw index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        StateId(index as u32)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Direction of a transition relative to the pattern-progress order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// Advances the match (`target == source + 1`).
    Forward,
    /// Slides back to a shorter (possibly empty) live prefix, including
    /// self-loops on mismatch.
    Backward,
}

/// One labeled transition `exp / act`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The guard `exp` (may contain `Chk_evt` atoms).
    pub guard: Expr,
    /// Scoreboard actions `act`, applied in order when the transition is
    /// taken.
    pub actions: Vec<Action>,
    /// Destination state.
    pub target: StateId,
    /// Forward or backward/slide.
    pub kind: TransitionKind,
}

/// A synthesized assertion monitor.
///
/// Produced by [`crate::synthesize`]; executed with [`MonitorExec`] (or
/// the convenience [`Monitor::scan`]).
#[derive(Debug, Clone)]
pub struct Monitor {
    pub(crate) name: String,
    pub(crate) clock: String,
    /// Per-state transitions in priority order (first guard that holds
    /// wins).
    pub(crate) transitions: Vec<Vec<Transition>>,
    pub(crate) initial: StateId,
    pub(crate) final_state: StateId,
    /// The extracted pattern `P` the monitor was built from.
    pub(crate) pattern: Vec<Expr>,
    /// Events with scoreboard bookkeeping (targets of `Add_evt`).
    pub(crate) tracked_events: Vec<SymbolId>,
}

impl Monitor {
    /// Assembles a monitor from explicit parts — the escape hatch for
    /// tests, fuzzers and downstream tooling (e.g. `cesc-rtl`'s
    /// co-simulation suite) that need automata the synthesis algorithm
    /// would never produce, such as degenerate 1-state monitors or
    /// deliberately unbalanced scoreboard programs.
    ///
    /// No totality or reachability checks are performed: executing a
    /// non-total monitor panics at the step with no enabled transition,
    /// exactly as for any hand-built monitor.
    ///
    /// # Panics
    ///
    /// Panics if `transitions` is empty, if `initial`/`final_state`
    /// are out of range, or if any transition targets a state out of
    /// range.
    pub fn from_parts(
        name: impl Into<String>,
        clock: impl Into<String>,
        transitions: Vec<Vec<Transition>>,
        initial: StateId,
        final_state: StateId,
        pattern: Vec<Expr>,
        tracked_events: Vec<SymbolId>,
    ) -> Self {
        let n = transitions.len();
        assert!(n > 0, "a monitor needs at least one state");
        assert!(initial.index() < n, "initial state {initial} out of range");
        assert!(
            final_state.index() < n,
            "final state {final_state} out of range"
        );
        for (s, ts) in transitions.iter().enumerate() {
            for t in ts {
                assert!(
                    t.target.index() < n,
                    "transition s{s} -> {} targets a state out of range",
                    t.target
                );
            }
        }
        Monitor {
            name: name.into(),
            clock: clock.into(),
            transitions,
            initial,
            final_state,
            pattern,
            tracked_events,
        }
    }

    /// The monitor's name (from the source chart).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The clock domain the monitor is synchronous to.
    pub fn clock(&self) -> &str {
        &self.clock
    }

    /// Number of states (`n + 1` for an `n`-tick chart).
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// The initial state `s0`.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The final (accepting) state `sf`.
    pub fn final_state(&self) -> StateId {
        self.final_state
    }

    /// The transitions from `state`, in evaluation priority order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn transitions_from(&self, state: StateId) -> &[Transition] {
        &self.transitions[state.index()]
    }

    /// Total transition count.
    pub fn transition_count(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// The pattern `P` extracted from the chart (§5 `extract_pattern`).
    pub fn pattern(&self) -> &[Expr] {
        &self.pattern
    }

    /// Events subject to `Add_evt`/`Del_evt` bookkeeping.
    pub fn tracked_events(&self) -> &[SymbolId] {
        &self.tracked_events
    }

    /// Every trace symbol the monitor observes: the union of all guard
    /// symbols and all pattern symbols (`Chk_evt` targets are *not*
    /// included — they are scoreboard state, not trace inputs).
    ///
    /// This is the input-port set of the monitor's hardware form; the
    /// HDL emitters and the RTL IR lowering derive module interfaces
    /// from it.
    pub fn observed_symbols(&self) -> Valuation {
        let mut symbols = Valuation::empty();
        for ts in &self.transitions {
            for t in ts {
                symbols = symbols | t.guard.symbols();
            }
        }
        for p in &self.pattern {
            symbols = symbols | p.symbols();
        }
        symbols
    }

    /// Every event with scoreboard traffic anywhere in the monitor:
    /// [`Monitor::tracked_events`] (the `Add_evt` targets, in
    /// synthesis order) extended with any `Del_evt` or `Chk_evt`
    /// target that never receives an `Add_evt` (deduplicated,
    /// ascending by symbol index). Synthesized monitors only delete
    /// and check what they add, so the extension matters for
    /// hand-built monitors — the HDL lowering sizes its counter bank
    /// from this set so no guard or update ever references an
    /// undeclared counter.
    pub fn scoreboard_events(&self) -> Vec<SymbolId> {
        let mut events = self.tracked_events.clone();
        let mut extra = Valuation::empty();
        for ts in &self.transitions {
            for t in ts {
                extra = extra | t.guard.chk_targets();
                for a in &t.actions {
                    if let Action::AddEvt(es) | Action::DelEvt(es) = a {
                        for &e in es {
                            extra = extra | Valuation::of([e]);
                        }
                    }
                }
            }
        }
        for id in extra.iter() {
            if !events.contains(&id) {
                events.push(id);
            }
        }
        events
    }

    /// Events the monitor itself *writes* — targets of an `Add_evt` or
    /// `Del_evt` action on any transition (deduplicated, in first-seen
    /// order). A strict subset of [`Monitor::scoreboard_events`], which
    /// also includes `Chk_evt`-only targets. The bounds analysis uses
    /// this to decide event ownership across the local monitors of a
    /// multi-clock composition: an event written by two locals has no
    /// per-local bound.
    pub fn written_events(&self) -> Vec<SymbolId> {
        let mut out: Vec<SymbolId> = Vec::new();
        for ts in &self.transitions {
            for t in ts {
                for a in &t.actions {
                    if let Action::AddEvt(es) | Action::DelEvt(es) = a {
                        for &e in es {
                            if !out.contains(&e) {
                                out.push(e);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The *effective* guard of transition `idx` from `state`: its own
    /// guard conjoined with the negations of all higher-priority guards
    /// — the closed-form labels the paper prints (e.g. Fig 6's
    /// `c = (¬a ∧ ¬b)`).
    pub fn effective_guard(&self, state: StateId, idx: usize) -> Expr {
        let ts = &self.transitions[state.index()];
        let mut parts: Vec<Expr> = ts[..idx]
            .iter()
            .map(|t| Expr::Not(Box::new(t.guard.clone())))
            .collect();
        parts.push(ts[idx].guard.clone());
        Expr::and(parts).simplify()
    }

    /// Runs the monitor over a whole trace with a fresh scoreboard,
    /// returning the report.
    ///
    /// This is the step-wise reference path (one guard interpretation
    /// per transition per tick). For bulk checking prefer
    /// [`Monitor::scan_batch`], which compiles the monitor to a flat
    /// table first and produces an identical report at a fraction of
    /// the cost.
    pub fn scan(&self, trace: impl IntoIterator<Item = Valuation>) -> ScanReport {
        let mut exec = MonitorExec::new(self);
        let mut matches = Vec::new();
        let mut ticks = 0u64;
        for v in trace {
            let out = exec.step(v);
            if out.matched {
                matches.push(ticks);
            }
            ticks += 1;
        }
        ScanReport {
            matches,
            ticks,
            final_state: exec.state(),
            underflows: exec.scoreboard().underflows(),
        }
    }

    /// Renders the monitor as a table of labeled transitions.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> impl fmt::Display + 'a {
        DisplayMonitor {
            monitor: self,
            alphabet,
        }
    }
}

/// Result of [`Monitor::scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Ticks (0-based) at which the monitor entered its final state —
    /// i.e. completion times of detected scenarios.
    pub matches: Vec<u64>,
    /// Total ticks consumed.
    pub ticks: u64,
    /// State after the last tick.
    pub final_state: StateId,
    /// Scoreboard `Del_evt` underflows observed (0 for balanced
    /// bookkeeping).
    pub underflows: u64,
}

impl ScanReport {
    /// Whether at least one scenario was detected.
    pub fn detected(&self) -> bool {
        !self.matches.is_empty()
    }
}

/// Outcome of one [`MonitorExec::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// State before the step.
    pub from: StateId,
    /// State after the step.
    pub to: StateId,
    /// Whether the step entered the final state (scenario detected).
    pub matched: bool,
    /// Index (priority order) of the transition taken.
    pub transition: usize,
}

/// Where one monitor stands in a run — its state, ticks consumed and
/// matches — without the scoreboard it reads and writes.
/// [`MonitorExec`] pairs one with a private [`Scoreboard`];
/// [`crate::MultiClockExec`] steps one per local over the board its
/// locals share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor {
    state: StateId,
    tick: u64,
    matches: u64,
}

impl Cursor {
    /// A cursor at `monitor`'s initial state.
    pub(crate) fn new(monitor: &Monitor) -> Self {
        Cursor {
            state: monitor.initial,
            tick: 0,
            matches: 0,
        }
    }

    /// The current state.
    pub(crate) fn state(&self) -> StateId {
        self.state
    }

    /// [`MonitorExec::step`] over `scoreboard`.
    pub(crate) fn step(
        &mut self,
        monitor: &Monitor,
        scoreboard: &mut Scoreboard,
        v: Valuation,
    ) -> StepOutcome {
        let from = self.state;
        let ts = &monitor.transitions[from.index()];
        let idx = ts
            .iter()
            .position(|t| t.guard.eval(v, &*scoreboard))
            .unwrap_or_else(|| {
                panic!(
                    "monitor `{}` has no enabled transition from {} — transition relation not total",
                    monitor.name, from
                )
            });
        let t = &ts[idx];
        scoreboard.apply_all(&t.actions, self.tick);
        self.state = t.target;
        self.tick += 1;
        let matched = self.state == monitor.final_state;
        if matched {
            self.matches += 1;
        }
        StepOutcome {
            from,
            to: self.state,
            matched,
            transition: idx,
        }
    }
}

/// Step-by-step executor of a [`Monitor`] over a private
/// [`Scoreboard`].
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, MonitorExec, SynthOptions};
/// use cesc_expr::Valuation;
///
/// let doc = parse_document(
///     "scesc hs on clk { instances { M } events { req, ack } \
///      tick { M: req } tick { M: ack } }",
/// ).unwrap();
/// let m = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default())?;
/// let req = doc.alphabet.lookup("req").unwrap();
/// let ack = doc.alphabet.lookup("ack").unwrap();
///
/// let mut exec = MonitorExec::new(&m);
/// exec.step(Valuation::of([req]));
/// let out = exec.step(Valuation::of([ack]));
/// assert!(out.matched);
/// # Ok::<(), cesc_core::SynthError>(())
/// ```
#[derive(Debug)]
pub struct MonitorExec<'m> {
    monitor: &'m Monitor,
    cursor: Cursor,
    scoreboard: Scoreboard,
}

impl<'m> MonitorExec<'m> {
    /// Creates an executor with a fresh private scoreboard, positioned
    /// at the initial state.
    pub fn new(monitor: &'m Monitor) -> Self {
        MonitorExec {
            monitor,
            cursor: Cursor::new(monitor),
            scoreboard: Scoreboard::new(),
        }
    }

    /// The current state.
    pub fn state(&self) -> StateId {
        self.cursor.state
    }

    /// Number of ticks consumed so far.
    pub fn tick(&self) -> u64 {
        self.cursor.tick
    }

    /// Number of times the final state has been entered.
    pub fn match_count(&self) -> u64 {
        self.cursor.matches
    }

    /// Read access to the scoreboard.
    pub fn scoreboard(&self) -> &Scoreboard {
        &self.scoreboard
    }

    /// Consumes one trace element: evaluates the current state's guards
    /// in priority order, takes the first that holds, applies its
    /// actions.
    ///
    /// # Panics
    ///
    /// Panics if no guard holds — synthesized monitors always end each
    /// priority list with a total fallback, so this indicates a
    /// hand-constructed, non-total monitor.
    pub fn step(&mut self, v: Valuation) -> StepOutcome {
        self.cursor.step(self.monitor, &mut self.scoreboard, v)
    }
}

struct DisplayMonitor<'a> {
    monitor: &'a Monitor,
    alphabet: &'a Alphabet,
}

impl fmt::Display for DisplayMonitor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "monitor {} (clock {}): {} states, initial {}, final {}",
            self.monitor.name,
            self.monitor.clock,
            self.monitor.state_count(),
            self.monitor.initial,
            self.monitor.final_state
        )?;
        for (s, ts) in self.monitor.transitions.iter().enumerate() {
            for t in ts {
                let acts: Vec<String> = t
                    .actions
                    .iter()
                    .filter(|a| !a.is_noop())
                    .map(|a| a.display(self.alphabet).to_string())
                    .collect();
                let act_str = if acts.is_empty() {
                    String::new()
                } else {
                    format!(" / {}", acts.join(", "))
                };
                writeln!(
                    f,
                    "  s{s} --[{}{}]--> {}",
                    t.guard.display(self.alphabet),
                    act_str,
                    t.target
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_expr::Alphabet;

    /// Hand-built 2-state monitor: s0 --a--> s1(final), s0 --!a--> s0,
    /// s1 --true--> s0.
    fn tiny_monitor(ab: &mut Alphabet) -> (Monitor, SymbolId) {
        let a = ab.event("a");
        let m = Monitor {
            name: "tiny".into(),
            clock: "clk".into(),
            transitions: vec![
                vec![
                    Transition {
                        guard: Expr::sym(a),
                        actions: vec![],
                        target: StateId(1),
                        kind: TransitionKind::Forward,
                    },
                    Transition {
                        guard: Expr::t(),
                        actions: vec![],
                        target: StateId(0),
                        kind: TransitionKind::Backward,
                    },
                ],
                vec![Transition {
                    guard: Expr::t(),
                    actions: vec![],
                    target: StateId(0),
                    kind: TransitionKind::Backward,
                }],
            ],
            initial: StateId(0),
            final_state: StateId(1),
            pattern: vec![Expr::sym(a)],
            tracked_events: vec![],
        };
        (m, a)
    }

    #[test]
    fn step_and_match() {
        let mut ab = Alphabet::new();
        let (m, a) = tiny_monitor(&mut ab);
        let mut exec = MonitorExec::new(&m);
        let out = exec.step(Valuation::empty());
        assert!(!out.matched);
        assert_eq!(out.to, StateId(0));
        let out = exec.step(Valuation::of([a]));
        assert!(out.matched);
        assert_eq!(exec.match_count(), 1);
        assert_eq!(exec.tick(), 2);
    }

    #[test]
    fn scan_collects_match_ticks() {
        let mut ab = Alphabet::new();
        let (m, a) = tiny_monitor(&mut ab);
        let report = m.scan([
            Valuation::of([a]),
            Valuation::empty(),
            Valuation::of([a]),
        ]);
        assert_eq!(report.matches, vec![0, 2]);
        assert!(report.detected());
        assert_eq!(report.ticks, 3);
        assert_eq!(report.underflows, 0);
    }

    #[test]
    fn priority_first_match_wins() {
        let mut ab = Alphabet::new();
        let (m, a) = tiny_monitor(&mut ab);
        // from s0 with `a` true both guards hold; priority must pick the
        // forward transition (index 0)
        let mut exec = MonitorExec::new(&m);
        let out = exec.step(Valuation::of([a]));
        assert_eq!(out.transition, 0);
        assert_eq!(out.to, StateId(1));
    }

    #[test]
    fn effective_guard_negates_higher_priority() {
        let mut ab = Alphabet::new();
        let (m, _) = tiny_monitor(&mut ab);
        let eff = m.effective_guard(StateId(0), 1);
        // ¬a ∧ true simplifies to ¬a
        assert_eq!(eff.display(&ab).to_string(), "!a");
    }

    #[test]
    #[should_panic(expected = "not total")]
    fn non_total_monitor_panics() {
        let mut ab = Alphabet::new();
        let a = ab.event("a");
        let m = Monitor {
            name: "broken".into(),
            clock: "clk".into(),
            transitions: vec![vec![Transition {
                guard: Expr::sym(a),
                actions: vec![],
                target: StateId(0),
                kind: TransitionKind::Backward,
            }]],
            initial: StateId(0),
            final_state: StateId(0),
            pattern: vec![],
            tracked_events: vec![],
        };
        let mut exec = MonitorExec::new(&m);
        exec.step(Valuation::empty());
    }

    #[test]
    fn display_lists_transitions() {
        let mut ab = Alphabet::new();
        let (m, _) = tiny_monitor(&mut ab);
        let s = m.display(&ab).to_string();
        assert!(s.contains("monitor tiny"));
        assert!(s.contains("s0 --[a]--> s1"));
    }
}
