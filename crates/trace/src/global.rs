//! Multi-clock global runs.
//!
//! "For defining the semantics of multi-clocked CESCs a global run is
//! defined over a global clock, which is obtained as a union of clock
//! ticks contributed by all the component clocks in the system" (paper
//! §3). A [`GlobalRun`] interleaves the per-domain traces onto the merged
//! tick schedule of a [`ClockSet`]; each [`GlobalStep`] records which
//! domains ticked and their valuations.

use std::fmt;

use cesc_expr::{Alphabet, Valuation};

use crate::clock::{ClockDomain, ClockId, ClockSet};
use crate::trace::Trace;

/// One instant of a global run: the global time plus the `(clock,
/// valuation)` pairs of every domain that ticks at that instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalStep {
    /// Global time of the step.
    pub time: u64,
    /// Ticking domains with their tick valuations, ascending by clock id.
    pub ticks: Vec<(ClockId, Valuation)>,
}

impl GlobalStep {
    /// The valuation contributed by `clock` at this step, if it ticked.
    pub fn tick_of(&self, clock: ClockId) -> Option<Valuation> {
        self.ticks
            .iter()
            .find(|(c, _)| *c == clock)
            .map(|&(_, v)| v)
    }
}

/// Error from [`GlobalRun::interleave`]: per-domain trace lengths do not
/// allow a consistent interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterleaveError {
    /// The clock whose trace ran out first.
    pub clock: ClockId,
    /// Ticks the schedule demanded of that clock.
    pub needed: usize,
    /// Ticks its trace actually provided.
    pub provided: usize,
}

impl fmt::Display for InterleaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace for {} too short: schedule needs {} ticks, trace has {}",
            self.clock, self.needed, self.provided
        )
    }
}

impl std::error::Error for InterleaveError {}

/// A finite prefix of a multi-clock global run.
///
/// # Examples
///
/// ```
/// use cesc_expr::{Alphabet, Valuation};
/// use cesc_trace::{ClockDomain, ClockSet, GlobalRun, Trace};
///
/// let mut ab = Alphabet::new();
/// let req = ab.event("req");
/// let mut clocks = ClockSet::new();
/// let fast = clocks.add(ClockDomain::new("fast", 1, 0));
/// let slow = clocks.add(ClockDomain::new("slow", 2, 0));
///
/// let fast_trace = Trace::from_elements([Valuation::of([req]); 4]);
/// let slow_trace = Trace::from_elements([Valuation::empty(); 2]);
/// let run = GlobalRun::interleave(&clocks, &[(fast, fast_trace), (slow, slow_trace)])?;
/// assert_eq!(run.len(), 4); // global instants 0,1,2,3
/// assert_eq!(run.project(fast).len(), 4);
/// assert_eq!(run.project(slow).len(), 2);
/// # Ok::<(), cesc_trace::InterleaveError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalRun {
    steps: Vec<GlobalStep>,
}

impl GlobalRun {
    /// Creates an empty global run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a step.
    ///
    /// # Panics
    ///
    /// Panics if `step.time` is not strictly greater than the last step's
    /// time (global instants are strictly ordered).
    pub fn push(&mut self, step: GlobalStep) {
        if let Some(last) = self.steps.last() {
            assert!(
                step.time > last.time,
                "global steps must have strictly increasing times ({} after {})",
                step.time,
                last.time
            );
        }
        self.steps.push(step);
    }

    /// Interleaves per-domain traces onto `clocks`' merged schedule.
    ///
    /// The schedule runs until every supplied trace is exhausted; the
    /// `k`-th tick of domain `c` carries `traces[c][k]`.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaveError`] if the traces cannot be consistently
    /// consumed (a domain's trace runs out while another still has
    /// elements scheduled *before* the exhausted domain's next tick would
    /// occur — i.e. lengths are mutually inconsistent with the schedule).
    pub fn interleave(
        clocks: &ClockSet,
        traces: &[(ClockId, Trace)],
    ) -> Result<GlobalRun, InterleaveError> {
        let mut consumed: Vec<usize> = vec![0; clocks.len()];
        let lengths: Vec<usize> = {
            let mut l = vec![0; clocks.len()];
            for (c, t) in traces {
                l[c.index()] = t.len();
            }
            l
        };
        let by_clock: Vec<Option<&Trace>> = {
            let mut v: Vec<Option<&Trace>> = vec![None; clocks.len()];
            for (c, t) in traces {
                v[c.index()] = Some(t);
            }
            v
        };
        let mut run = GlobalRun::new();
        for instant in clocks.schedule() {
            // stop once every trace fully consumed
            if consumed
                .iter()
                .zip(&lengths)
                .all(|(done, total)| done >= total)
            {
                break;
            }
            let mut ticks = Vec::new();
            for c in instant.ticking {
                let idx = c.index();
                if let Some(t) = by_clock[idx] {
                    if consumed[idx] < t.len() {
                        ticks.push((c, t[consumed[idx]]));
                        consumed[idx] += 1;
                    } else {
                        // this domain's trace is exhausted but others are
                        // not: the lengths disagree with the schedule
                        return Err(InterleaveError {
                            clock: c,
                            needed: consumed[idx] + 1,
                            provided: t.len(),
                        });
                    }
                }
            }
            if !ticks.is_empty() {
                run.push(GlobalStep {
                    time: instant.time,
                    ticks,
                });
            }
        }
        Ok(run)
    }

    /// Lifts a single-clock stimulus onto one domain per distinct name
    /// in `clocks`, each of period 1 and phase 0, carrying the same
    /// trace: a bank or fleet fed the run sees the whole trace on every
    /// member, and its hit times equal tick indices.
    ///
    /// # Examples
    ///
    /// ```
    /// use cesc_expr::{Alphabet, Valuation};
    /// use cesc_trace::GlobalRun;
    ///
    /// let mut ab = Alphabet::new();
    /// let req = ab.event("req");
    /// let (clocks, run) = GlobalRun::lift(["clk", "bus", "clk"], &[Valuation::of([req]); 3]);
    /// assert_eq!(clocks.len(), 2);
    /// assert_eq!(run.iter().map(|s| s.time).collect::<Vec<_>>(), [0, 1, 2]);
    /// assert_eq!(run.project(clocks.lookup("bus").unwrap()).len(), 3);
    /// ```
    pub fn lift<'a>(
        clocks: impl IntoIterator<Item = &'a str>,
        trace: &[Valuation],
    ) -> (ClockSet, GlobalRun) {
        let mut set = ClockSet::new();
        let mut traces = Vec::new();
        for name in clocks {
            if set.lookup(name).is_none() {
                let id = set.add(ClockDomain::new(name, 1, 0));
                traces.push((id, Trace::from_elements(trace.to_vec())));
            }
        }
        let run = GlobalRun::interleave(&set, &traces).expect("equal traces on equal schedules");
        (set, run)
    }

    /// Number of global steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the run has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The step at index `n`.
    pub fn get(&self, n: usize) -> Option<&GlobalStep> {
        self.steps.get(n)
    }

    /// Iterates over the steps in time order.
    pub fn iter(&self) -> impl Iterator<Item = &GlobalStep> {
        self.steps.iter()
    }

    /// The underlying slice of steps — the form the batched multi-clock
    /// engine consumes in chunks.
    pub fn as_slice(&self) -> &[GlobalStep] {
        &self.steps
    }

    /// Projects the run onto one clock domain, recovering its local trace.
    pub fn project(&self, clock: ClockId) -> Trace {
        self.steps
            .iter()
            .filter_map(|s| s.tick_of(clock))
            .collect()
    }

    /// Renders the run with symbol names:
    /// `t=3 clk0:{req} clk1:{rdy}`.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> impl fmt::Display + 'a {
        DisplayGlobalRun {
            run: self,
            alphabet,
        }
    }
}

struct DisplayGlobalRun<'a> {
    run: &'a GlobalRun,
    alphabet: &'a Alphabet,
}

impl fmt::Display for DisplayGlobalRun<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.run.steps {
            write!(f, "t={:<5}", step.time)?;
            for (c, v) in &step.ticks {
                write!(f, " {}:{}", c, v.display(self.alphabet))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;

    fn two_clock_setup() -> (ClockSet, ClockId, ClockId, Alphabet, cesc_expr::SymbolId) {
        let mut cs = ClockSet::new();
        let a = cs.add(ClockDomain::new("a", 2, 0));
        let b = cs.add(ClockDomain::new("b", 3, 0));
        let mut ab = Alphabet::new();
        let e = ab.event("e");
        (cs, a, b, ab, e)
    }

    #[test]
    fn interleave_and_project_round_trip() {
        let (cs, a, b, _, e) = two_clock_setup();
        let ta = Trace::from_elements([Valuation::of([e]), Valuation::empty(), Valuation::of([e])]);
        let tb = Trace::from_elements([Valuation::empty(), Valuation::of([e])]);
        let run = GlobalRun::interleave(&cs, &[(a, ta.clone()), (b, tb.clone())]).unwrap();
        assert_eq!(run.project(a), ta);
        assert_eq!(run.project(b), tb);
        // times: a ticks at 0,2,4; b at 0,3 → steps 0,2,3,4
        let times: Vec<u64> = run.iter().map(|s| s.time).collect();
        assert_eq!(times, vec![0, 2, 3, 4]);
    }

    #[test]
    fn shared_instants_carry_both_ticks() {
        let (cs, a, b, _, e) = two_clock_setup();
        let ta = Trace::from_elements([Valuation::of([e])]);
        let tb = Trace::from_elements([Valuation::empty()]);
        let run = GlobalRun::interleave(&cs, &[(a, ta), (b, tb)]).unwrap();
        let step0 = run.get(0).unwrap();
        assert_eq!(step0.ticks.len(), 2);
        assert_eq!(step0.tick_of(a), Some(Valuation::of([e])));
        assert_eq!(step0.tick_of(b), Some(Valuation::empty()));
    }

    #[test]
    fn inconsistent_lengths_error() {
        let (cs, a, b, _, e) = two_clock_setup();
        // a needs ticks at 0,2,4,6… but provides only 1 element while b
        // provides 3 (ticks 0,3,6) — at time 2, a's trace is exhausted.
        let ta = Trace::from_elements([Valuation::of([e])]);
        let tb = Trace::from_elements([Valuation::empty(); 3]);
        let err = GlobalRun::interleave(&cs, &[(a, ta), (b, tb)]).unwrap_err();
        assert_eq!(err.clock, a);
        assert!(err.to_string().contains("too short"));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_enforces_time_order() {
        let mut run = GlobalRun::new();
        run.push(GlobalStep {
            time: 5,
            ticks: vec![],
        });
        run.push(GlobalStep {
            time: 5,
            ticks: vec![],
        });
    }

    #[test]
    fn display_shows_times_and_ticks() {
        let (cs, a, b, ab, e) = two_clock_setup();
        let ta = Trace::from_elements([Valuation::of([e])]);
        let tb = Trace::from_elements([Valuation::empty()]);
        let run = GlobalRun::interleave(&cs, &[(a, ta), (b, tb)]).unwrap();
        let s = run.display(&ab).to_string();
        assert!(s.contains("t=0"));
        assert!(s.contains("{e}"));
    }
}
