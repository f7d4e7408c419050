//! The dynamic scoreboard.
//!
//! §4: "The monitor automaton uses a dynamic 'scoreboard' for storing the
//! information regarding the event occurrences, which is helpful in
//! implementing the checks related to causality relationships between
//! events during a run." Actions `Add_evt` / `Del_evt` mutate it;
//! `Chk_evt` guards query it. For multi-clock monitors one scoreboard is
//! *shared* by all local monitors — that sharing is the paper's
//! cross-domain synchronisation mechanism (§1, §5).

use std::fmt;

use cesc_expr::{Alphabet, ScoreboardView, SymbolId};

/// A scoreboard action attached to a monitor transition (§4: `ACT =
/// {Add_evt(), Del_evt(), Null}`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Record one occurrence of each listed event
    /// (`Add_evt(e1, e2, …)` — Fig 7's `act1..act4` list several).
    AddEvt(Vec<SymbolId>),
    /// Remove one occurrence of each listed event (saturating at zero).
    DelEvt(Vec<SymbolId>),
    /// No scoreboard effect.
    Null,
}

impl Action {
    /// Renders the action with symbol names (`Add_evt(a, b)`).
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> impl fmt::Display + 'a {
        DisplayAction {
            action: self,
            alphabet,
        }
    }

    /// Whether the action has no effect (either `Null` or an empty list).
    pub fn is_noop(&self) -> bool {
        match self {
            Action::Null => true,
            Action::AddEvt(es) | Action::DelEvt(es) => es.is_empty(),
        }
    }
}

struct DisplayAction<'a> {
    action: &'a Action,
    alphabet: &'a Alphabet,
}

impl fmt::Display for DisplayAction<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (label, events) = match self.action {
            Action::Null => return f.write_str("Null"),
            Action::AddEvt(es) => ("Add_evt", es),
            Action::DelEvt(es) => ("Del_evt", es),
        };
        write!(f, "{label}(")?;
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if e.index() < self.alphabet.len() {
                f.write_str(self.alphabet.name(*e))?;
            } else {
                write!(f, "{e}")?;
            }
        }
        write!(f, ")")
    }
}

/// One recorded occurrence (extension beyond the paper: provenance for
/// debugging and for the simulation log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// The event.
    pub event: SymbolId,
    /// Tick (local to the adding monitor's clock) at which it was added.
    pub tick: u64,
}

/// The dynamic scoreboard: a multiset of event occurrences.
///
/// `Chk_evt(e)` is true iff at least one occurrence of `e` is recorded.
/// `Del_evt` removes the oldest occurrence and saturates at zero (a
/// `Del` with no matching `Add` is counted in
/// [`Scoreboard::underflows`], which failure-injection tests use to
/// detect unbalanced bookkeeping).
///
/// # Examples
///
/// ```
/// use cesc_expr::Alphabet;
/// use cesc_core::Scoreboard;
/// let mut ab = Alphabet::new();
/// let req = ab.event("req");
/// let mut sb = Scoreboard::new();
/// assert!(!sb.has_event(req));
/// sb.add(req, 0);
/// assert!(sb.has_event(req));
/// sb.del(req);
/// assert!(!sb.has_event(req));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scoreboard {
    counts: Vec<u32>,
    occurrences: Vec<Occurrence>,
    underflows: u64,
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether at least one occurrence of `event` is recorded — the
    /// `Chk_evt` query.
    pub fn has_event(&self, event: SymbolId) -> bool {
        self.counts.get(event.index()).copied().unwrap_or(0) > 0
    }

    /// Number of recorded occurrences of `event`.
    pub fn count(&self, event: SymbolId) -> u32 {
        self.counts.get(event.index()).copied().unwrap_or(0)
    }

    /// Records an occurrence of `event` at `tick` — the `Add_evt`
    /// action.
    pub fn add(&mut self, event: SymbolId, tick: u64) {
        if self.counts.len() <= event.index() {
            self.counts.resize(event.index() + 1, 0);
        }
        self.counts[event.index()] += 1;
        self.occurrences.push(Occurrence { event, tick });
    }

    /// Removes the oldest occurrence of `event` — the `Del_evt` action.
    /// Saturates at zero, incrementing [`Scoreboard::underflows`].
    pub fn del(&mut self, event: SymbolId) {
        match self.counts.get_mut(event.index()) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if let Some(pos) = self.occurrences.iter().position(|o| o.event == event) {
                    self.occurrences.remove(pos);
                }
            }
            _ => self.underflows += 1,
        }
    }

    /// Applies one action at local tick `tick`.
    pub fn apply(&mut self, action: &Action, tick: u64) {
        match action {
            Action::Null => {}
            Action::AddEvt(es) => {
                for &e in es {
                    self.add(e, tick);
                }
            }
            Action::DelEvt(es) => {
                for &e in es {
                    self.del(e);
                }
            }
        }
    }

    /// Applies a transition's action list in order.
    pub fn apply_all(&mut self, actions: &[Action], tick: u64) {
        for a in actions {
            self.apply(a, tick);
        }
    }

    /// The recorded occurrences, oldest first.
    pub fn occurrences(&self) -> &[Occurrence] {
        &self.occurrences
    }

    /// How many `Del_evt`s found nothing to delete — nonzero indicates
    /// unbalanced Add/Del bookkeeping.
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Total number of recorded occurrences across all events.
    pub fn len(&self) -> usize {
        self.occurrences.len()
    }

    /// Whether no occurrence is recorded.
    pub fn is_empty(&self) -> bool {
        self.occurrences.is_empty()
    }

    /// Clears all occurrences (used when a monitor bank resets).
    pub fn clear(&mut self) {
        self.counts.clear();
        self.occurrences.clear();
    }

    /// Renders the scoreboard contents with symbol names.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> impl fmt::Display + 'a {
        DisplayScoreboard {
            sb: self,
            alphabet,
        }
    }
}

impl ScoreboardView for Scoreboard {
    fn has_event(&self, event: SymbolId) -> bool {
        Scoreboard::has_event(self, event)
    }
}

struct DisplayScoreboard<'a> {
    sb: &'a Scoreboard,
    alphabet: &'a Alphabet,
}

impl fmt::Display for DisplayScoreboard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, o) in self.sb.occurrences.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if o.event.index() < self.alphabet.len() {
                write!(f, "{}@{}", self.alphabet.name(o.event), o.tick)?;
            } else {
                write!(f, "{}@{}", o.event, o.tick)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_expr::Alphabet;

    fn ab2() -> (Alphabet, SymbolId, SymbolId) {
        let mut ab = Alphabet::new();
        let a = ab.event("a");
        let b = ab.event("b");
        (ab, a, b)
    }

    #[test]
    fn add_del_counts() {
        let (_, a, b) = ab2();
        let mut sb = Scoreboard::new();
        sb.add(a, 0);
        sb.add(a, 1);
        assert_eq!(sb.count(a), 2);
        assert!(!sb.has_event(b));
        sb.del(a);
        assert_eq!(sb.count(a), 1);
        assert!(sb.has_event(a));
        sb.del(a);
        assert!(sb.is_empty());
    }

    #[test]
    fn del_saturates_and_counts_underflow() {
        let (_, a, _) = ab2();
        let mut sb = Scoreboard::new();
        sb.del(a);
        assert_eq!(sb.count(a), 0);
        assert_eq!(sb.underflows(), 1);
    }

    #[test]
    fn del_removes_oldest_occurrence() {
        let (_, a, _) = ab2();
        let mut sb = Scoreboard::new();
        sb.add(a, 5);
        sb.add(a, 9);
        sb.del(a);
        assert_eq!(sb.occurrences(), &[Occurrence { event: a, tick: 9 }]);
    }

    #[test]
    fn apply_actions_in_order() {
        let (_, a, b) = ab2();
        let mut sb = Scoreboard::new();
        sb.apply_all(
            &[
                Action::AddEvt(vec![a, b]),
                Action::DelEvt(vec![a]),
                Action::Null,
            ],
            3,
        );
        assert_eq!(sb.count(a), 0);
        assert_eq!(sb.count(b), 1);
        assert_eq!(sb.underflows(), 0);
    }

    #[test]
    fn action_display() {
        let (ab, a, b) = ab2();
        assert_eq!(Action::AddEvt(vec![a, b]).display(&ab).to_string(), "Add_evt(a, b)");
        assert_eq!(Action::DelEvt(vec![a]).display(&ab).to_string(), "Del_evt(a)");
        assert_eq!(Action::Null.display(&ab).to_string(), "Null");
        assert!(Action::Null.is_noop());
        assert!(Action::AddEvt(vec![]).is_noop());
        assert!(!Action::AddEvt(vec![a]).is_noop());
    }

    #[test]
    fn scoreboard_display() {
        let (ab, a, _) = ab2();
        let mut sb = Scoreboard::new();
        sb.add(a, 7);
        assert_eq!(sb.display(&ab).to_string(), "[a@7]");
    }

    #[test]
    fn clear_resets() {
        let (_, a, _) = ab2();
        let mut sb = Scoreboard::new();
        sb.add(a, 0);
        sb.clear();
        assert!(sb.is_empty());
        assert!(!sb.has_event(a));
    }
}
