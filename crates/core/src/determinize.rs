//! Exact determinized monitors via subset construction.
//!
//! The reproduction's property tests (see `tests/oracle_properties.rs`
//! and docs/ARCHITECTURE.md, "Which windows `cesc check` reports")
//! show that the paper's greedy `(n+1)`-state
//! automaton is exact only for non-self-overlapping patterns; on
//! wildcard-bearing patterns it can both miss and over-report windows
//! because one state cannot track several live alignments. The
//! classical fix is determinization over *live prefix sets*: this
//! module builds that automaton explicitly, so that
//!
//! * its state count measures the real cost of exactness (for every
//!   chart in the paper it stays at `n + 1`, confirming the greedy
//!   construction is lossless on that class), and
//! * exact monitors can be exported to HDL like greedy ones.
//!
//! The online, allocation-free variant of the same semantics is
//! [`crate::engine::ExactEngine`]; this type trades an exponential
//! worst-case build for O(1)-state lookups.

use std::collections::HashMap;

use cesc_expr::{Expr, Valuation};

use crate::engine::EngineError;

/// Cap on pattern length for the subset build (signature enumeration
/// is `2^n` per state).
const MAX_N: usize = 14;

/// A determinized exact scenario monitor.
///
/// States are sets of live prefix lengths (bit `k` ⇔ "the last `k`
/// elements match `P_k`"); the automaton accepts exactly when a window
/// matching the full pattern ends at the current tick.
///
/// # Examples
///
/// ```
/// use cesc_core::Determinized;
/// use cesc_expr::{Alphabet, Expr, Valuation};
///
/// let mut ab = Alphabet::new();
/// let a = ab.event("a");
/// // pattern: a, TRUE — needs subset tracking (prefix 1 stays live
/// // under repeated `a`s while prefix 2 completes)
/// let pattern = vec![Expr::sym(a), Expr::t()];
/// let mut d = Determinized::build(&pattern)?;
/// assert!(!d.step(Valuation::of([a])));
/// assert!(d.step(Valuation::empty())); // a, _ completes
/// # Ok::<(), cesc_core::engine::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Determinized {
    pattern: Vec<Expr>,
    /// live-set per state, `states[0]` is the initial `{0}`.
    states: Vec<u64>,
    /// `transitions[state][signature]` = next state index; signature =
    /// bitmask of pattern elements satisfied by the input element.
    transitions: Vec<Vec<u32>>,
    /// whether the state's live set contains `n`.
    accepting: Vec<bool>,
    n: usize,
    current: u32,
}

impl Determinized {
    /// Builds the subset automaton for `pattern`.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptyPattern`] / [`EngineError::ScoreboardGuard`]
    /// for unsupported patterns, [`EngineError::TooManySymbols`] when
    /// the pattern exceeds 14 elements (signature enumeration is
    /// `2^n`).
    pub fn build(pattern: &[Expr]) -> Result<Self, EngineError> {
        if pattern.is_empty() {
            return Err(EngineError::EmptyPattern);
        }
        if pattern.iter().any(Expr::uses_scoreboard) {
            return Err(EngineError::ScoreboardGuard);
        }
        let n = pattern.len();
        if n > MAX_N {
            return Err(EngineError::TooManySymbols { found: n, max: MAX_N });
        }
        let n_signatures = 1usize << n;

        let mut states: Vec<u64> = vec![1]; // {0}
        let mut index: HashMap<u64, u32> = HashMap::from([(1u64, 0u32)]);
        let mut transitions: Vec<Vec<u32>> = Vec::new();
        let mut work = 0usize;
        while work < states.len() {
            let live = states[work];
            let mut row = Vec::with_capacity(n_signatures);
            for sig in 0..n_signatures {
                // next live set: 0 always; k+1 live iff k live and
                // P[k] satisfied (bit k of sig)
                let mut next = 1u64;
                for k in 0..n {
                    if live & (1 << k) != 0 && sig & (1 << k) != 0 {
                        next |= 1 << (k + 1);
                    }
                }
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = states.len() as u32;
                        states.push(next);
                        index.insert(next, id);
                        id
                    }
                };
                row.push(id);
            }
            transitions.push(row);
            work += 1;
        }
        let accepting = states.iter().map(|&s| s & (1 << n) != 0).collect();
        Ok(Determinized {
            pattern: pattern.to_vec(),
            states,
            transitions,
            accepting,
            n,
            current: 0,
        })
    }

    /// Number of reachable subset states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The pattern length `n`.
    pub fn pattern_len(&self) -> usize {
        self.n
    }

    /// The live prefix set of the current state (bitmask).
    pub fn current_live_set(&self) -> u64 {
        self.states[self.current as usize]
    }

    /// Consumes one element; returns whether a matching window ends
    /// here (exactly).
    pub fn step(&mut self, v: Valuation) -> bool {
        let mut sig = 0usize;
        for (k, p) in self.pattern.iter().enumerate() {
            if p.eval_pure(v) {
                sig |= 1 << k;
            }
        }
        self.current = self.transitions[self.current as usize][sig];
        self.accepting[self.current as usize]
    }

    /// Resets to the initial state.
    pub fn reset(&mut self) {
        self.current = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactEngine;
    use cesc_expr::Alphabet;

    fn syms(k: usize) -> (Alphabet, Vec<cesc_expr::SymbolId>) {
        let mut ab = Alphabet::new();
        let ids = (0..k).map(|i| ab.event(&format!("s{i}"))).collect();
        (ab, ids)
    }

    #[test]
    fn agrees_with_exact_engine_everywhere() {
        let (_, ids) = syms(3);
        // wildcard-bearing adversarial pattern
        let pattern = vec![
            !Expr::sym(ids[2]),
            Expr::sym(ids[2]),
            Expr::t(),
            Expr::t(),
        ];
        let mut det = Determinized::build(&pattern).unwrap();
        let mut exact = ExactEngine::new(&pattern).unwrap();
        // all 8 valuations in a pseudo-random order, long enough to
        // visit many subset states
        for i in 0..2000u64 {
            let v = Valuation::from_bits(((i * 2654435761) % 8) as u128);
            assert_eq!(det.step(v), exact.step(v), "diverged at step {i}");
        }
    }

    /// On *non-aliasing protocol traffic* — elements drawn from the
    /// chart's grid-line witnesses plus idles, where no witness element
    /// satisfies another position's constraint — the greedy monitor
    /// under the **Witness** policy equals the exact subset automaton.
    /// This is the class on which the paper's §5 equality is accurate.
    ///
    /// Charts with aliasing elements (AHB: the final `e1` element also
    /// begins a new request) admit NO exact `(n+1)`-state monitor: the
    /// Witness policy misses pipelined back-to-back transactions while
    /// Satisfiability over-counts repeated responses — see
    /// `ahb_pipelining_needs_subset_tracking`.
    #[test]
    fn paper_charts_greedy_equals_exact_on_protocol_traffic() {
        use cesc_chart::parse_document;
        for src in [cesc_protocols_src::SIMPLE_READ] {
            let doc = parse_document(src).unwrap();
            for chart in &doc.charts {
                let p = chart.extract_pattern();
                let mut elements: Vec<Valuation> = p
                    .iter()
                    .map(|e| {
                        cesc_expr::sat::satisfying_valuation(e)
                            .expect("satisfiable")
                            .valuation
                    })
                    .collect();
                elements.push(Valuation::empty());
                for policy in [crate::synth::OverlapPolicy::Witness] {
                    let mut det = Determinized::build(&p).unwrap();
                    let opts = crate::synth::SynthOptions {
                        overlap: policy,
                        ..Default::default()
                    };
                    let greedy = crate::synth::synthesize(chart, &opts).unwrap();
                    let mut exec = crate::monitor::MonitorExec::new(&greedy);
                    let mut state = 0x9E3779B97F4A7C15u64;
                    for i in 0..4000 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let v = elements[(state >> 33) as usize % elements.len()];
                        let g = exec.step(v).matched;
                        let e = det.step(v);
                        assert_eq!(
                            g, e,
                            "chart {} ({policy:?}) diverged at step {i}",
                            chart.name()
                        );
                    }
                }
            }
        }
    }

    /// AHB's chart self-aliases (its final element `e1` also starts a
    /// new request), so the pipelined back-to-back sequence
    /// `w0 w1 w0 w1 w0` contains overlapping windows ending at ticks 2
    /// and 4. The exact automaton finds both; greedy-Satisfiability
    /// finds both (via the Fig 7-style re-entry slide); greedy-Witness
    /// misses the second — no single-state policy is exact here.
    #[test]
    fn ahb_pipelining_needs_subset_tracking() {
        use cesc_chart::parse_document;
        let doc = parse_document(cesc_protocols_src::AHB).unwrap();
        let chart = doc.chart("ahb").unwrap();
        let p = chart.extract_pattern();
        let w: Vec<Valuation> = p
            .iter()
            .map(|e| {
                cesc_expr::sat::satisfying_valuation(e)
                    .expect("satisfiable")
                    .valuation
            })
            .collect();
        let pipelined = [w[0], w[1], w[0], w[1], w[0]];

        let mut det = Determinized::build(&p).unwrap();
        let exact_hits: Vec<usize> = pipelined
            .iter()
            .enumerate()
            .filter(|(_, v)| det.step(**v))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(exact_hits, vec![2, 4]);

        let sat = crate::synth::synthesize(
            chart,
            &crate::synth::SynthOptions {
                overlap: crate::synth::OverlapPolicy::Satisfiability,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sat.scan(pipelined).matches, vec![2, 4], "sat policy re-enters");

        let wit = crate::synth::synthesize(
            chart,
            &crate::synth::SynthOptions {
                overlap: crate::synth::OverlapPolicy::Witness,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(wit.scan(pipelined).matches, vec![2], "witness policy misses the overlap");
    }

    /// On fully arbitrary traffic the greedy-Satisfiability monitor is
    /// a *superset* detector: every exact acceptance is also reported
    /// (spurious extras are the price of one-state tracking).
    #[test]
    fn greedy_sat_superset_of_exact_on_arbitrary_traffic() {
        use cesc_chart::parse_document;
        let doc = parse_document(cesc_protocols_src::SIMPLE_READ).unwrap();
        let chart = doc.chart("ocp_simple_read").unwrap();
        let p = chart.extract_pattern();
        let n_syms = doc.alphabet.len() as u64;
        let mut det = Determinized::build(&p).unwrap();
        let greedy = crate::synth::synthesize(
            chart,
            &crate::synth::SynthOptions {
                overlap: crate::synth::OverlapPolicy::Satisfiability,
                ..Default::default()
            },
        )
        .unwrap();
        let mut exec = crate::monitor::MonitorExec::new(&greedy);
        let mut state = 0x243F6A8885A308D3u64;
        let mut spurious = 0u32;
        for i in 0..6000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = (state >> 33) & ((1 << n_syms) - 1);
            let v = Valuation::from_bits(bits as u128);
            let g = exec.step(v).matched;
            let e = det.step(v);
            assert!(g || !e, "greedy missed an exact window at step {i}");
            if g && !e {
                spurious += 1;
            }
        }
        // the over-approximation is real on this traffic
        assert!(spurious > 0);
    }

    /// Reproduction finding: under the Satisfiability overlap policy
    /// the Fig 6 monitor reports a *second* read completion when a
    /// response element immediately follows a completed read (the
    /// slide from the final state optimistically assumes the previous
    /// response could have been a request). The exact automaton does
    /// not. The chart's own arrows do not prevent it — the scoreboard
    /// still holds the earlier request.
    #[test]
    fn satisfiability_policy_overcounts_fig6() {
        use cesc_chart::parse_document;
        let doc = parse_document(cesc_protocols_src::SIMPLE_READ).unwrap();
        let chart = doc.chart("ocp_simple_read").unwrap();
        let ab = &doc.alphabet;
        let req = Valuation::of(
            ["MCmd_rd", "Addr", "SCmd_accept"].map(|n| ab.lookup(n).unwrap()),
        );
        let rsp = Valuation::of(["SResp", "SData"].map(|n| ab.lookup(n).unwrap()));

        let sat_monitor = crate::synth::synthesize(
            chart,
            &crate::synth::SynthOptions {
                overlap: crate::synth::OverlapPolicy::Satisfiability,
                ..Default::default()
            },
        )
        .unwrap();
        let report = sat_monitor.scan([req, rsp, rsp]);
        assert_eq!(
            report.matches,
            vec![1, 2],
            "optimistic slide double-counts the repeated response"
        );

        let wit_monitor = crate::synth::synthesize(
            chart,
            &crate::synth::SynthOptions {
                overlap: crate::synth::OverlapPolicy::Witness,
                ..Default::default()
            },
        )
        .unwrap();
        let report = wit_monitor.scan([req, rsp, rsp]);
        assert_eq!(report.matches, vec![1], "witness policy counts one read");
    }

    /// Inline copies of the protocol sources (cesc-protocols is a
    /// downstream crate).
    mod cesc_protocols_src {
        pub const SIMPLE_READ: &str = r#"
            scesc ocp_simple_read on clk {
                instances { Master, Slave }
                events { MCmd_rd, Addr, SCmd_accept, SResp, SData }
                tick { Master: MCmd_rd, Addr; Slave: SCmd_accept }
                tick { Slave: SResp, SData }
                cause MCmd_rd -> SResp;
            }
        "#;
        pub const AHB: &str = r#"
            scesc ahb on clk {
                instances { M, B }
                events { e1, e2, e3, e4, e5, e6, e7, e8, e9 }
                tick { M: e1, e2; B: e3, e4, e5 }
                tick { M: e6, e7; B: e8, e9 }
                tick { M: e1 }
            }
        "#;
    }

    #[test]
    fn wildcard_patterns_blow_up_past_greedy() {
        let (_, ids) = syms(2);
        // a, TRUE, TRUE, TRUE: overlapping alignments abound
        let pattern = vec![Expr::sym(ids[0]), Expr::t(), Expr::t(), Expr::t()];
        let det = Determinized::build(&pattern).unwrap();
        assert!(
            det.state_count() > pattern.len() + 1,
            "expected subset blow-up, got {} states",
            det.state_count()
        );
    }

    #[test]
    fn counterexample_pattern_fixed_by_determinization() {
        // the pinned incompleteness counterexample from
        // tests/oracle_properties.rs: ¬s2, s2, TRUE, TRUE
        let (_, ids) = syms(4);
        let pattern = vec![
            !Expr::sym(ids[2]),
            Expr::sym(ids[2]),
            Expr::t(),
            Expr::t(),
        ];
        let mut det = Determinized::build(&pattern).unwrap();
        let mut raw = [0u8; 24];
        raw[13] = 8;
        raw[14] = 4;
        raw[18] = 8;
        raw[19] = 4;
        let hits: Vec<usize> = raw
            .iter()
            .enumerate()
            .filter(|(_, &b)| det.step(Valuation::from_bits(b as u128)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, vec![16, 21], "determinized monitor catches both windows");
    }

    #[test]
    fn build_errors() {
        assert_eq!(
            Determinized::build(&[]).unwrap_err(),
            EngineError::EmptyPattern
        );
        let (_, ids) = syms(1);
        let too_long: Vec<Expr> = (0..15).map(|_| Expr::sym(ids[0])).collect();
        assert!(matches!(
            Determinized::build(&too_long).unwrap_err(),
            EngineError::TooManySymbols { .. }
        ));
        let chk = vec![Expr::chk(ids[0])];
        assert_eq!(
            Determinized::build(&chk).unwrap_err(),
            EngineError::ScoreboardGuard
        );
    }

    #[test]
    fn reset_and_introspection() {
        let (_, ids) = syms(1);
        let pattern = vec![Expr::sym(ids[0])];
        let mut det = Determinized::build(&pattern).unwrap();
        assert_eq!(det.pattern_len(), 1);
        assert_eq!(det.current_live_set(), 1);
        det.step(Valuation::of([ids[0]]));
        assert_ne!(det.current_live_set(), 1);
        det.reset();
        assert_eq!(det.current_live_set(), 1);
    }
}
