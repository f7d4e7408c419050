//! Multi-clock monitors: one local monitor per clock domain, one shared
//! scoreboard.
//!
//! §1: "the monitor synthesized consists of a number of local monitors
//! one for each clock domain in the given input CESC specification; the
//! monitors communicate and synchronize with each other exchanging the
//! information about the local states using a scoreboard-like data
//! structure." Cross-domain causality arrows become `Add_evt` actions in
//! the causing domain and `Chk_evt` guards in the affected domain; the
//! shared scoreboard enforces the global ordering at runtime
//! (Figure 2's multi-clock read protocol).

use std::fmt;

use cesc_chart::MultiClockSpec;
use cesc_expr::Valuation;
use cesc_trace::{ClockId, ClockSet, GlobalRun, GlobalStep};

use crate::monitor::{Cursor, Monitor, StateId};
use crate::scoreboard::Scoreboard;
use crate::synth::{synthesize, SynthError, SynthOptions};

/// A multi-clock monitor: local monitors indexed by clock-domain name.
#[derive(Debug, Clone)]
pub struct MultiClockMonitor {
    name: String,
    locals: Vec<Monitor>,
}

impl MultiClockMonitor {
    /// Assembles a multi-clock monitor from explicit local monitors —
    /// the escape hatch the optimization pipeline (and tests) use to
    /// rebuild a spec's monitor from transformed locals.
    ///
    /// # Panics
    ///
    /// Panics if `locals` is empty or two locals share a clock domain
    /// (every execution path dispatches ticks to locals by clock
    /// name).
    pub fn from_locals(name: impl Into<String>, locals: Vec<Monitor>) -> Self {
        assert!(!locals.is_empty(), "a multi-clock monitor needs at least one local");
        for (i, a) in locals.iter().enumerate() {
            for b in &locals[i + 1..] {
                assert!(
                    a.clock() != b.clock(),
                    "locals `{}` and `{}` share clock domain `{}`",
                    a.name(),
                    b.name(),
                    a.clock()
                );
            }
        }
        MultiClockMonitor {
            name: name.into(),
            locals,
        }
    }

    /// The spec's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The local monitors, one per component chart.
    pub fn locals(&self) -> &[Monitor] {
        &self.locals
    }

    /// The local monitor for the given clock name.
    pub fn local_for_clock(&self, clock: &str) -> Option<&Monitor> {
        self.locals.iter().find(|m| m.clock() == clock)
    }

    /// Creates an executor with a fresh scoreboard shared by the
    /// locals.
    pub fn executor(&self) -> MultiClockExec<'_> {
        MultiClockExec {
            monitor: self,
            cursors: self.locals.iter().map(Cursor::new).collect(),
            scoreboard: Scoreboard::new(),
            completed: vec![None; self.locals.len()],
            matches: 0,
        }
    }

    /// Convenience: run over a complete global run, returning global
    /// times at which the full multi-clock scenario completed.
    pub fn scan(&self, clocks: &ClockSet, run: &GlobalRun) -> Vec<u64> {
        let mut exec = self.executor();
        let mut hits = Vec::new();
        for step in run.iter() {
            if exec.step_global(clocks, step) {
                hits.push(step.time);
            }
        }
        hits
    }
}

/// Synthesizes local monitors for every chart of a multi-clock spec,
/// injecting cross-domain arrows into each side's synthesis (§5's
/// distributed-scoreboard construction).
///
/// # Errors
///
/// Propagates [`SynthError`] from any component chart.
///
/// Every execution path dispatches ticks to locals by clock name
/// (first match), which is sound because [`MultiClockSpec`] rejects
/// charts sharing a clock domain at construction — both the parser and
/// `MultiClockSpec::new` validate it (pinned by the
/// `duplicate_local_clocks_rejected_upstream` test here).
pub fn synthesize_multiclock(
    spec: &MultiClockSpec,
    opts: &SynthOptions,
) -> Result<MultiClockMonitor, SynthError> {
    let mut locals = Vec::with_capacity(spec.charts().len());
    for chart in spec.charts() {
        let mut chart_opts = opts.clone();
        // a cross arrow is relevant to this chart when either endpoint
        // occurs here; CausalityPlan ignores the other side naturally
        for arrow in spec.cross_arrows() {
            let from_here = !chart.ticks_of_event(arrow.from).is_empty();
            let to_here = !chart.ticks_of_event(arrow.to).is_empty();
            if from_here || to_here {
                chart_opts.extra_arrows.push(*arrow);
            }
        }
        locals.push(synthesize(chart, &chart_opts)?);
    }
    Ok(MultiClockMonitor {
        name: spec.name().to_owned(),
        locals,
    })
}

/// Executor for a [`MultiClockMonitor`] over a global run: one cursor
/// per local, stepped by the code [`crate::MonitorExec::step`] runs,
/// over the one scoreboard the locals share.
#[derive(Debug)]
pub struct MultiClockExec<'m> {
    monitor: &'m MultiClockMonitor,
    cursors: Vec<Cursor>,
    scoreboard: Scoreboard,
    /// Global time at which each local monitor last completed (since the
    /// previous full-spec match).
    completed: Vec<Option<u64>>,
    matches: u64,
}

impl MultiClockExec<'_> {
    /// Feeds one global step: every clock that ticks advances its local
    /// monitor with that domain's valuation. Returns `true` when, after
    /// this step, *every* local monitor has completed its scenario —
    /// i.e. the multi-clock spec is detected (completion marks then
    /// reset so repeated occurrences are counted).
    pub fn step_global(&mut self, clocks: &ClockSet, step: &GlobalStep) -> bool {
        for &(clock_id, valuation) in &step.ticks {
            if let Some(idx) = self.local_index(clocks, clock_id) {
                if self.step_cursor(idx, valuation) {
                    self.completed[idx] = Some(step.time);
                }
            }
        }
        if self.completed.iter().all(Option::is_some) {
            self.matches += 1;
            self.completed.iter_mut().for_each(|c| *c = None);
            true
        } else {
            false
        }
    }

    /// Feeds one local tick directly (used by the simulation harness,
    /// which drives domains from independent processes).
    pub fn step_local(&mut self, local: usize, time: u64, v: Valuation) -> bool {
        if self.step_cursor(local, v) {
            self.completed[local] = Some(time);
        }
        if self.completed.iter().all(Option::is_some) {
            self.matches += 1;
            self.completed.iter_mut().for_each(|c| *c = None);
            true
        } else {
            false
        }
    }

    /// Steps local `idx`; whether it completed its scenario.
    fn step_cursor(&mut self, idx: usize, v: Valuation) -> bool {
        let monitor = &self.monitor.locals[idx];
        let out = self.cursors[idx].step(monitor, &mut self.scoreboard, v);
        out.matched
    }

    fn local_index(&self, clocks: &ClockSet, clock_id: ClockId) -> Option<usize> {
        let name = clocks.domain(clock_id).name();
        self.monitor.locals.iter().position(|m| m.clock() == name)
    }

    /// Index of the local monitor synchronous to `clock`, if any.
    pub fn local_for_clock_name(&self, clock: &str) -> Option<usize> {
        self.monitor.locals.iter().position(|m| m.clock() == clock)
    }

    /// Number of full-spec matches so far.
    pub fn match_count(&self) -> u64 {
        self.matches
    }

    /// The scoreboard the locals share.
    pub fn scoreboard(&self) -> &Scoreboard {
        &self.scoreboard
    }

    /// Per-domain current states (for debugging / display).
    pub fn local_states(&self) -> Vec<StateId> {
        self.cursors.iter().map(Cursor::state).collect()
    }
}

impl fmt::Display for MultiClockMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "multiclock monitor {} (", self.name)?;
        for (i, m) in self.locals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}@{}", m.name(), m.clock())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_chart::parse_document;
    use cesc_trace::{ClockDomain, Trace};

    /// Figure 2 style: request in clk1 domain must precede response in
    /// clk2 domain.
    fn spec() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc m1 on clk1 {
                instances { Master, S_CNT }
                events { req1, rdy1, data1 }
                tick { Master: req1 }
                tick { S_CNT: rdy1 }
                tick { S_CNT: data1 }
                cause req1 -> rdy1;
            }
            scesc m2 on clk2 {
                instances { M_CNT, Slave }
                events { req3, rdy3, data3 }
                tick { M_CNT: req3 }
                tick { Slave: rdy3 }
                tick { Slave: data3 }
                cause req3 -> rdy3;
            }
            multiclock read { charts { m1, m2 } cause req1 -> req3; cause data3 -> data1; }
        "#,
        )
        .unwrap()
    }

    fn ev(d: &cesc_chart::Document, n: &str) -> cesc_expr::SymbolId {
        d.alphabet.lookup(n).unwrap()
    }

    /// The by-clock-name tick dispatch in every execution path assumes
    /// one chart per clock — pinned here: both spec construction
    /// routes refuse charts sharing a clock domain.
    #[test]
    fn duplicate_local_clocks_rejected_upstream() {
        let err = parse_document(
            r#"
            scesc a on clk { instances { A } events { x } tick { A: x } }
            scesc b on clk { instances { B } events { y } tick { B: y } }
            multiclock dup { charts { a, b } }
        "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("repeats clock domain"), "{err}");

        let ok = parse_document(
            "scesc a on clk { instances { A } events { x } tick { A: x } }",
        )
        .unwrap();
        let chart = ok.chart("a").unwrap().clone();
        let err = cesc_chart::MultiClockSpec::new("dup", vec![chart.clone(), chart], vec![])
            .unwrap_err();
        assert!(err.to_string().contains("clock"), "{err}");
    }

    #[test]
    fn local_monitors_built_per_domain() {
        let d = spec();
        let mm =
            synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
                .unwrap();
        assert_eq!(mm.locals().len(), 2);
        assert!(mm.local_for_clock("clk1").is_some());
        assert!(mm.local_for_clock("clk2").is_some());
        assert!(mm.local_for_clock("clk9").is_none());
        assert!(mm.to_string().contains("m1@clk1"));
    }

    #[test]
    fn cross_arrow_guards_affected_domain() {
        let d = spec();
        let mm =
            synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
                .unwrap();
        // m2's first transition must be guarded by Chk_evt(req1)
        let m2 = mm.local_for_clock("clk2").unwrap();
        let t = &m2.transitions_from(StateId(0))[0];
        let req1 = ev(&d, "req1");
        assert!(t.guard.chk_targets().contains(req1));
    }

    #[test]
    fn ordered_global_run_matches() {
        let d = spec();
        let mm =
            synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
                .unwrap();
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 3, 0)); // ticks 0,3,6
        let c2 = clocks.add(ClockDomain::new("clk2", 2, 1)); // ticks 1,3,5

        // m1: req1@0, rdy1@3, data1@6; m2: req3@1, rdy3@3, data3@5
        // cross: req1@0 < req3@1 ✓; data3@5 < data1@6 ✓
        let t1 = Trace::from_elements([
            Valuation::of([ev(&d, "req1")]),
            Valuation::of([ev(&d, "rdy1")]),
            Valuation::of([ev(&d, "data1")]),
        ]);
        let t2 = Trace::from_elements([
            Valuation::of([ev(&d, "req3")]),
            Valuation::of([ev(&d, "rdy3")]),
            Valuation::of([ev(&d, "data3")]),
        ]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        let hits = mm.scan(&clocks, &run);
        assert_eq!(hits, vec![6]);
    }

    #[test]
    fn unordered_cross_causality_blocks_match() {
        let d = spec();
        let mm =
            synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
                .unwrap();
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 3, 0)); // ticks 0,3,6,9
        let c2 = clocks.add(ClockDomain::new("clk2", 2, 1)); // ticks 1,3,5

        // req3 fires at t1 but req1 only arrives at t3: Chk_evt(req1)
        // rejects req3, m2's scenario never starts, no full match
        let t1 = Trace::from_elements([
            Valuation::empty(),
            Valuation::of([ev(&d, "req1")]),
            Valuation::of([ev(&d, "rdy1")]),
            Valuation::of([ev(&d, "data1")]),
        ]);
        let t2 = Trace::from_elements([
            Valuation::of([ev(&d, "req3")]),
            Valuation::of([ev(&d, "rdy3")]),
            Valuation::of([ev(&d, "data3")]),
            Valuation::empty(),
            Valuation::empty(),
        ]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        let hits = mm.scan(&clocks, &run);
        assert!(hits.is_empty());
    }

    #[test]
    fn retried_request_eventually_matches() {
        let d = spec();
        let mm =
            synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
                .unwrap();
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 3, 0)); // 0,3,6,9
        let c2 = clocks.add(ClockDomain::new("clk2", 2, 1)); // 1,3,5,7

        // req1 lands at t3; req3's first attempt at t1 is rejected, the
        // retry at t3 succeeds (same instant: clk1 is processed first)
        let t1 = Trace::from_elements([
            Valuation::empty(),               // t0
            Valuation::of([ev(&d, "req1")]),  // t3
            Valuation::of([ev(&d, "rdy1")]),  // t6
            Valuation::of([ev(&d, "data1")]), // t9 (data3@7 < 9 ✓)
        ]);
        let t2 = Trace::from_elements([
            Valuation::of([ev(&d, "req3")]),  // t1 — rejected
            Valuation::of([ev(&d, "req3")]),  // t3 — accepted
            Valuation::of([ev(&d, "rdy3")]),  // t5
            Valuation::of([ev(&d, "data3")]), // t7
            Valuation::empty(),               // t9
        ]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        let hits = mm.scan(&clocks, &run);
        assert_eq!(hits, vec![9]);
    }

    #[test]
    fn step_local_interface() {
        let d = spec();
        let mm =
            synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
                .unwrap();
        let mut exec = mm.executor();
        let l1 = exec.local_for_clock_name("clk1").unwrap();
        let l2 = exec.local_for_clock_name("clk2").unwrap();
        assert!(!exec.step_local(l1, 0, Valuation::of([ev(&d, "req1")])));
        assert!(!exec.step_local(l2, 1, Valuation::of([ev(&d, "req3")])));
        assert!(!exec.step_local(l2, 3, Valuation::of([ev(&d, "rdy3")])));
        assert!(!exec.step_local(l2, 5, Valuation::of([ev(&d, "data3")])));
        assert!(!exec.step_local(l1, 6, Valuation::of([ev(&d, "rdy1")])));
        // m2 completed at t5; m1 completes now → full match
        let matched = exec.step_local(l1, 9, Valuation::of([ev(&d, "data1")]));
        assert!(matched);
        assert_eq!(exec.match_count(), 1);
        assert!(!exec.scoreboard().is_empty());
        assert_eq!(exec.local_states().len(), 2);
    }
}
