//! The normalized verdict record every side of the benchmark produces:
//! the in-memory reference, the traced composition and (after
//! normalization in `run.py`) the `cesc check --json` report. Two runs
//! agree when their records serialize identically.

use std::fmt::Write as _;

use cesc_core::Verdict;
use cesc_par::MatchLog;

/// Head/tail detection times kept per target — the CLI's `MATCH_EDGE`.
pub const EDGE: usize = 5;

/// One target's outcome, in the fields the `cesc-check/3` report
/// carries for its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetVerdict {
    /// A basic chart.
    Chart {
        log: Tally,
        ticks: u64,
        underflows: u64,
    },
    /// A multiclock spec.
    Multi { log: Tally, underflows: u64 },
    /// An `implies(...)` assertion.
    Assert {
        verdict: Verdict,
        fulfilled: u64,
        outstanding: u64,
        ticks: u64,
        violation_count: u64,
    },
}

/// Detection count plus the first and last [`EDGE`] detection times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    pub count: u64,
    pub first: Vec<u64>,
    pub last: Vec<u64>,
}

impl From<&MatchLog> for Tally {
    fn from(log: &MatchLog) -> Self {
        Tally {
            count: log.count(),
            first: log.first().to_vec(),
            last: log.last(),
        }
    }
}

/// A whole run's outcome: run-level counts plus every target by name,
/// in `--all-charts` order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Verdicts {
    pub global_steps: u64,
    pub ticks: u64,
    pub targets: Vec<(String, TargetVerdict)>,
}

impl Verdicts {
    /// Whether any assertion failed — the binary then exits with
    /// status 2.
    pub fn failed(&self) -> bool {
        self.targets.iter().any(|(_, t)| {
            matches!(
                t,
                TargetVerdict::Assert {
                    verdict: Verdict::Failed,
                    ..
                }
            )
        })
    }

    /// The record as one JSON object (the shape `run.py` normalizes
    /// CLI reports into).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"global_steps\":{},\"ticks\":{},\"failed\":{},\"targets\":{{",
            self.global_steps,
            self.ticks,
            self.failed()
        );
        for (i, (name, t)) in self.targets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            match t {
                TargetVerdict::Chart {
                    log,
                    ticks,
                    underflows,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"chart\",{},\"ticks\":{ticks},\"underflows\":{underflows}}}",
                        tally_json(log)
                    );
                }
                TargetVerdict::Multi { log, underflows } => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"multiclock\",{},\"underflows\":{underflows}}}",
                        tally_json(log)
                    );
                }
                TargetVerdict::Assert {
                    verdict,
                    fulfilled,
                    outstanding,
                    ticks,
                    violation_count,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"assert\",\"verdict\":\"{}\",\"fulfilled\":{fulfilled},\
                         \"outstanding\":{outstanding},\"ticks\":{ticks},\
                         \"violation_count\":{violation_count}}}",
                        assert_word(*verdict)
                    );
                }
            }
        }
        out.push_str("}}");
        out
    }
}

fn tally_json(t: &Tally) -> String {
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!(
        "\"verdict\":\"{}\",\"matches\":{},\"first\":[{}],\"last\":[{}]",
        if t.count > 0 {
            "detected"
        } else {
            "not observed"
        },
        t.count,
        list(&t.first),
        list(&t.last)
    )
}

/// The assertion verdict as the JSON report spells it.
fn assert_word(v: Verdict) -> &'static str {
    match v {
        Verdict::Idle => "idle",
        Verdict::Tracking => "tracking",
        Verdict::Passed => "passed",
        Verdict::Failed => "failed",
    }
}
