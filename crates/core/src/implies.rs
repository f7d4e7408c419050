//! Compiled `implies(A, C)` checking — the production form of
//! [`crate::ImplicationChecker`].
//!
//! The interpreted checker walks both monitors' [`Expr`] guards every
//! tick and allocates a fresh obligation list on every tick that has
//! one outstanding. [`CompiledImplication`] compiles the same semantics
//! once into two flat [`CompiledMonitor`] tables:
//!
//! * **the antecedent table** — every `Chk_evt` atom pinned false (the
//!   checker runs the antecedent scoreboard-free), every action
//!   dropped, arms whose pinned guard is constant false removed, and a
//!   final `true` arm back to the initial state wherever the state's
//!   arms are not already total (the checker's reset when no arm
//!   fires). The table has no scoreboard traffic, so it runs through
//!   `ExecState::run` like any chart member and gets the idle-run scan;
//! * **the consequent table** — only the *forward* arms, pinned the
//!   same way, then on every state a final `true` arm to an extra
//!   *stuck* state. An obligation advances over the first forward arm
//!   that holds; when none holds it lands in the stuck state, which is
//!   a violation. Obligations step through the same `ExecState::step`
//!   as every chart member.
//!
//! Obligations `(consequent state, antecedent tick)` live in one reused
//! vector, compacted in place each tick, and carry across chunks;
//! violation records are kept up to [`VIOLATION_KEEP`] in storage
//! reserved up front. A slice therefore costs one antecedent scan plus
//! one consequent step per outstanding obligation per tick, and
//! allocates nothing once the buffers have reached their working size.
//!
//! Verdicts, counts and violation records equal
//! [`crate::ImplicationChecker`]'s on the same trace, under any
//! chunking and either table layout — pinned by the unit tests here,
//! the `batch_equivalence` property suite and the fuzz oracle's
//! `compiled-assert` leg. The interpreted checker stays as that
//! reference oracle.

use cesc_expr::{Expr, Valuation};

use crate::batch::{BatchBoard, CompileOptions, CompiledMonitor, ExecState};
use crate::checker::{Verdict, Violation};
use crate::monitor::{Monitor, StateId, Transition, TransitionKind};

/// How many violation records an [`ImplicationState`] keeps (the
/// earliest ones); the exact total is always in
/// [`ImplicationState::violation_count`]. Keeps a non-compliant bulk
/// trace (one violation per tick, potentially) from growing residency
/// with trace length.
pub const VIOLATION_KEEP: usize = 100;

/// An `implies(antecedent, consequent)` assertion compiled to flat
/// tables (see the module docs for the table construction).
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, CompileOptions, CompiledImplication, SynthOptions, Verdict};
/// use cesc_expr::Valuation;
///
/// let doc = parse_document(r#"
///     scesc req on clk { instances { M } events { r } tick { M: r } }
///     scesc rsp on clk { instances { M } events { s } tick { M: s } }
/// "#).unwrap();
/// let opts = SynthOptions::default();
/// let ante = synthesize(doc.chart("req").unwrap(), &opts)?;
/// let cons = synthesize(doc.chart("rsp").unwrap(), &opts)?;
/// let gate = CompiledImplication::new("gate", "clk", &ante, &cons, &CompileOptions::optimized());
///
/// let r = doc.alphabet.lookup("r").unwrap();
/// let s = doc.alphabet.lookup("s").unwrap();
/// let mut st = gate.state();
/// gate.feed(&mut st, &[Valuation::of([r]), Valuation::of([s])]);
/// assert_eq!(st.verdict(), Verdict::Passed);
/// gate.feed(&mut st, &[Valuation::of([r]), Valuation::empty()]);
/// assert_eq!(st.verdict(), Verdict::Failed);
/// assert_eq!(st.violations()[0].failed_at, 3);
/// # Ok::<(), cesc_core::SynthError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledImplication {
    name: String,
    clock: String,
    antecedent: CompiledMonitor,
    consequent: CompiledMonitor,
    /// The consequent table's stuck state (its last).
    stuck: u32,
}

impl CompiledImplication {
    /// Compiles the assertion `name` on clock domain `clock` from its
    /// two synthesized monitors, with table layout `opts`.
    pub fn new(
        name: &str,
        clock: &str,
        antecedent: &Monitor,
        consequent: &Monitor,
        opts: &CompileOptions,
    ) -> Self {
        let ante = pinned(antecedent, |_| true, antecedent.initial());
        let stuck = StateId::from_index(consequent.state_count());
        let cons = pinned(consequent, |t| t.kind == TransitionKind::Forward, stuck);
        CompiledImplication {
            name: name.to_owned(),
            clock: clock.to_owned(),
            antecedent: CompiledMonitor::with_options(&ante, opts),
            consequent: CompiledMonitor::with_options(&cons, opts),
            stuck: stuck.index() as u32,
        }
    }

    /// The assertion's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The clock domain whose ticks drive the assertion.
    pub fn clock(&self) -> &str {
        &self.clock
    }

    /// Per-tick cost weight for `cesc-par`'s shard planner: the two
    /// tables' [`CompiledMonitor::step_cost`].
    pub fn step_cost(&self) -> u64 {
        self.antecedent.step_cost() + self.consequent.step_cost()
    }

    /// A fresh runtime: antecedent at its initial state, no
    /// obligations, no violations.
    pub fn state(&self) -> ImplicationState {
        ImplicationState {
            ante: ExecState::new(&self.antecedent),
            cursor: ExecState::new(&self.consequent),
            board: BatchBoard::default(),
            completions: Vec::new(),
            obligations: Vec::new(),
            violations: Vec::with_capacity(VIOLATION_KEEP),
            violation_count: 0,
            fulfilled: 0,
            antecedent_matches: 0,
        }
    }

    /// Consumes `vals` in order: the same outcome as
    /// [`crate::ImplicationChecker::step`] on each element.
    ///
    /// The antecedent scans the whole slice first (it never reads the
    /// obligations), recording the indices where it completes; the
    /// obligations are then stepped tick by tick from the first
    /// completion, and ticks with none outstanding are skipped up to
    /// the next completion.
    pub fn feed(&self, st: &mut ImplicationState, vals: &[Valuation]) {
        let base = st.ante.ticks;
        st.completions.clear();
        let completions = &mut st.completions;
        st.ante.run(&self.antecedent, vals, &mut st.board, |i| completions.push(i));
        st.antecedent_matches += st.completions.len() as u64;
        let init = self.consequent.initial_index() as u32;
        let mut next = 0;
        let mut i = 0;
        while i < vals.len() {
            if st.obligations.is_empty() {
                // nothing to step before the next completion
                match st.completions.get(next) {
                    Some(&c) => i = c,
                    None => break,
                }
            } else {
                self.advance(st, vals[i], base + i as u64);
            }
            // a completion at tick i spawns an obligation that first
            // steps at tick i + 1
            if st.completions.get(next) == Some(&i) {
                st.obligations.push((init, base + i as u64));
                next += 1;
            }
            i += 1;
        }
    }

    /// Steps every outstanding obligation over `v` at `tick`, in spawn
    /// order, compacting survivors in place.
    fn advance(&self, st: &mut ImplicationState, v: Valuation, tick: u64) {
        let mut kept = 0;
        for k in 0..st.obligations.len() {
            let (state, started) = st.obligations[k];
            st.cursor.state = state;
            if st.cursor.step(&self.consequent, v, &mut st.board) {
                st.fulfilled += 1;
            } else if st.cursor.state == self.stuck {
                st.violation_count += 1;
                if st.violations.len() < VIOLATION_KEEP {
                    st.violations.push(Violation {
                        antecedent_at: started,
                        failed_at: tick,
                        progress: state as usize,
                    });
                }
            } else {
                st.obligations[kept] = (st.cursor.state, started);
                kept += 1;
            }
        }
        st.obligations.truncate(kept);
    }
}

/// `m` with every guard's `Chk_evt` atoms pinned false, only the arms
/// `keep` selects, no actions, constant-false arms removed, and a final
/// `true` arm to `fallback` on every state whose arms are not already
/// total. A `fallback` one past `m`'s last state is added as a state
/// that only loops on itself.
fn pinned(m: &Monitor, keep: impl Fn(&Transition) -> bool, fallback: StateId) -> Monitor {
    let to_fallback = || Transition {
        guard: Expr::t(),
        actions: Vec::new(),
        target: fallback,
        kind: TransitionKind::Backward,
    };
    let mut transitions: Vec<Vec<Transition>> = (0..m.state_count())
        .map(|s| {
            let mut arms: Vec<Transition> = m
                .transitions_from(StateId::from_index(s))
                .iter()
                .filter(|t| keep(t))
                .map(|t| Transition {
                    guard: pin_chk(&t.guard).simplify(),
                    actions: Vec::new(),
                    target: t.target,
                    kind: t.kind,
                })
                .filter(|t| t.guard != Expr::f())
                .collect();
            if arms.last().is_none_or(|t| t.guard != Expr::t()) {
                arms.push(to_fallback());
            }
            arms
        })
        .collect();
    if fallback.index() == m.state_count() {
        transitions.push(vec![to_fallback()]);
    }
    Monitor::from_parts(
        m.name(),
        m.clock(),
        transitions,
        m.initial(),
        m.final_state(),
        Vec::new(),
        Vec::new(),
    )
}

/// `e` with every `Chk_evt` atom replaced by `false`.
fn pin_chk(e: &Expr) -> Expr {
    match e {
        Expr::ChkEvt(_) => Expr::f(),
        Expr::Const(_) | Expr::Sym(_) => e.clone(),
        Expr::Not(inner) => Expr::Not(Box::new(pin_chk(inner))),
        Expr::And(parts) => Expr::And(parts.iter().map(pin_chk).collect()),
        Expr::Or(parts) => Expr::Or(parts.iter().map(pin_chk).collect()),
    }
}

/// The mutable runtime of one [`CompiledImplication`]: the antecedent's
/// control state, the outstanding obligations and the verdict
/// bookkeeping. Feed it with [`CompiledImplication::feed`].
#[derive(Debug, Clone)]
pub struct ImplicationState {
    ante: ExecState,
    /// Steps one obligation at a time on the consequent table.
    cursor: ExecState,
    /// Neither table has actions or `Chk_evt` guards, so this board
    /// stays empty; `ExecState` still takes one.
    board: BatchBoard,
    /// Slice indices where the antecedent completed, rebuilt per feed.
    completions: Vec<usize>,
    /// `(consequent state, antecedent completion tick)`, spawn order.
    obligations: Vec<(u32, u64)>,
    violations: Vec<Violation>,
    violation_count: u64,
    fulfilled: u64,
    antecedent_matches: u64,
}

impl ImplicationState {
    /// The current verdict (the rule of
    /// [`crate::ImplicationChecker::verdict`]).
    pub fn verdict(&self) -> Verdict {
        if self.violation_count > 0 {
            Verdict::Failed
        } else if !self.obligations.is_empty() {
            Verdict::Tracking
        } else if self.fulfilled > 0 {
            Verdict::Passed
        } else {
            Verdict::Idle
        }
    }

    /// Number of fulfilled obligations.
    pub fn fulfilled(&self) -> u64 {
        self.fulfilled
    }

    /// Number of obligations still being tracked.
    pub fn outstanding(&self) -> usize {
        self.obligations.len()
    }

    /// Total violations recorded.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// The earliest violations, up to [`VIOLATION_KEEP`], in the order
    /// the checker records them.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// How many times the antecedent completed (each spawned one
    /// obligation). Zero on a long trace means the assert was never
    /// armed: it passes vacuously.
    pub fn antecedent_matches(&self) -> u64 {
        self.antecedent_matches
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.ante.ticks()
    }

    /// Ticks the antecedent advanced by the idle-run scan (included in
    /// [`ImplicationState::ticks`]).
    pub fn skip_ticks(&self) -> u64 {
        self.ante.skipped
    }

    /// Returns to the initial configuration.
    pub fn reset(&mut self, compiled: &CompiledImplication) {
        self.ante.reset(&compiled.antecedent);
        self.board.reset();
        self.completions.clear();
        self.obligations.clear();
        self.violations.clear();
        self.violation_count = 0;
        self.fulfilled = 0;
        self.antecedent_matches = 0;
    }
}

impl crate::MonitorBank {
    /// Attaches a compiled `implies(...)` assertion; returns its index
    /// in the bank's *implication* slot space. The bank runs it on the
    /// same per-clock projection as its single-clock members.
    pub fn add_compiled_implication(&mut self, compiled: CompiledImplication) -> usize {
        let state = compiled.state();
        self.implications.push((compiled, state));
        self.implication_ns.push(0);
        self.bound_clocks = None; // new member: feed_global must rebind
        self.implications.len() - 1
    }

    /// The compiled form of implication member `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn implication(&self, idx: usize) -> &CompiledImplication {
        &self.implications[idx].0
    }

    /// The runtime (verdict, counts, violations) of implication member
    /// `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn implication_state(&self, idx: usize) -> &ImplicationState {
        &self.implications[idx].1
    }

    /// Accumulated execution nanoseconds of implication member `idx`
    /// (zero unless [`crate::MonitorBank::set_member_timing`] was on).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn implication_exec_ns(&self, idx: usize) -> u64 {
        self.implication_ns[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::ImplicationChecker;
    use crate::synth::{synthesize, SynthOptions};
    use cesc_chart::parse_document;

    /// Runs the compiled runner over `trace` in `chunk`-sized pieces
    /// and the interpreted checker tick by tick, asserting equal
    /// verdicts, counts and violation records.
    fn agree(ante: &Monitor, cons: &Monitor, trace: &[Valuation], chunk: usize) -> ImplicationState {
        let mut chk = ImplicationChecker::new(ante.clone(), cons.clone());
        chk.scan(trace.iter().copied());
        for opts in [CompileOptions::raw(), CompileOptions::optimized()] {
            let gate = CompiledImplication::new("gate", "clk", ante, cons, &opts);
            let mut st = gate.state();
            for c in trace.chunks(chunk) {
                gate.feed(&mut st, c);
            }
            assert_eq!(st.verdict(), chk.verdict(), "{opts:?} chunk {chunk}");
            assert_eq!(st.fulfilled(), chk.fulfilled());
            assert_eq!(st.outstanding(), chk.outstanding());
            assert_eq!(st.violation_count(), chk.violation_count());
            let n = chk.violations().len().min(VIOLATION_KEEP);
            assert_eq!(st.violations(), &chk.violations()[..n]);
            assert_eq!(st.ticks(), trace.len() as u64);
        }
        let gate = CompiledImplication::new("gate", "clk", ante, cons, &CompileOptions::optimized());
        let mut st = gate.state();
        gate.feed(&mut st, trace);
        st
    }

    fn doc() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc req on clk { instances { M } events { r, go, s, done } tick { M: r } tick { M: go } }
            scesc rsp on clk { instances { M } events { r, go, s, done } tick { M: s } tick { M: done } }
            scesc hs on clk {
                instances { M, S } events { r, go, s, done }
                tick { M: r } tick { S: go } cause r -> go;
            }
        "#,
        )
        .unwrap()
    }

    fn synth(d: &cesc_chart::Document, name: &str) -> Monitor {
        synthesize(d.chart(name).unwrap(), &SynthOptions::default()).unwrap()
    }

    /// A pseudo-random trace over the document's four symbols.
    fn trace(len: usize, seed: u64) -> Vec<Valuation> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Valuation::from_bits(u128::from(x as u8 & 0xF))
            })
            .collect()
    }

    #[test]
    fn overlapping_obligations_and_violations_match_the_checker() {
        let d = doc();
        let (ante, cons) = (synth(&d, "req"), synth(&d, "rsp"));
        for seed in 1..6 {
            let t = trace(400, seed);
            for chunk in [1, 2, 3, 7, 64, 400] {
                agree(&ante, &cons, &t, chunk);
            }
        }
        let st = agree(&ante, &cons, &trace(400, 9), 5);
        assert!(st.antecedent_matches() > 0 && st.violation_count() > 0, "{st:?}");
    }

    #[test]
    fn cause_arrow_antecedent_never_completes() {
        // Chk pinned false: `hs`'s final arm needs Chk(r), so the
        // antecedent can never complete — the vacuity `cesc check`
        // reports
        let d = doc();
        let (ante, cons) = (synth(&d, "hs"), synth(&d, "rsp"));
        let st = agree(&ante, &cons, &trace(500, 3), 16);
        assert_eq!(st.antecedent_matches(), 0);
        assert_eq!(st.verdict(), Verdict::Idle);
        assert!(st.skip_ticks() > 0, "the antecedent idle-scans");
    }

    #[test]
    fn obligations_carry_across_chunks() {
        let d = doc();
        let (ante, cons) = (synth(&d, "req"), synth(&d, "rsp"));
        let ev = |n: &str| d.alphabet.lookup(n).unwrap();
        let gate = CompiledImplication::new("gate", "clk", &ante, &cons, &CompileOptions::optimized());
        let mut st = gate.state();
        gate.feed(&mut st, &[Valuation::of([ev("r")]), Valuation::of([ev("go")])]);
        assert_eq!(st.verdict(), Verdict::Tracking);
        gate.feed(&mut st, &[Valuation::of([ev("s")])]);
        assert_eq!(st.outstanding(), 1);
        gate.feed(&mut st, &[Valuation::empty()]);
        assert_eq!(
            st.violations(),
            &[Violation {
                antecedent_at: 1,
                failed_at: 3,
                progress: 1
            }]
        );
        st.reset(&gate);
        assert_eq!((st.verdict(), st.ticks(), st.violation_count()), (Verdict::Idle, 0, 0));
    }

    #[test]
    fn violation_records_are_capped() {
        let d = doc();
        let (ante, cons) = (synth(&d, "req"), synth(&d, "rsp"));
        let ev = |n: &str| d.alphabet.lookup(n).unwrap();
        let pair = [Valuation::of([ev("r")]), Valuation::of([ev("go")])];
        let t: Vec<Valuation> = pair.iter().copied().cycle().take(1000).collect();
        let st = agree(&ante, &cons, &t, 33);
        assert_eq!(st.violation_count(), 499);
        assert_eq!(st.violations().len(), VIOLATION_KEEP);
    }
}
