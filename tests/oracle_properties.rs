//! Property tests: the synthesized monitor against the denotational
//! oracle (`[[C]]` membership) and the exact subset-construction engine
//! — the executable form of the paper's §5 correctness result
//! `[[C]] = Σ* × L(M) × Σ^ω`.

use cesc::core::engine::{DenseTableEngine, ExactEngine, LazyEngine, NaiveMatcher};
use cesc::core::{synthesize, OverlapPolicy, SynthOptions};
use cesc::expr::{SymbolId, Valuation};
use cesc::prelude::{Alphabet, ScescBuilder};
use cesc::semantics::{match_positions, witness_window};
use cesc::trace::Trace;
use proptest::prelude::*;

const SYMS: usize = 4;

/// A random pattern element: a conjunction of 1–3 literals over a
/// 4-symbol alphabet (positive or negative), or TRUE.
fn arb_element() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0..SYMS, any::<bool>()), 0..3)
}

fn arb_pattern() -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(arb_element(), 1..5)
}

/// A *complete* pattern element: every symbol's polarity fixed, so the
/// element is satisfied by exactly one valuation — classical string
/// matching over a 2^4-letter alphabet, the class for which the greedy
/// KMP automaton is provably exact.
fn arb_complete_pattern() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..(1 << SYMS) as u8, 1..5)
}

fn build_complete_chart(letters: &[u8]) -> (Alphabet, cesc::chart::Scesc) {
    let mut ab = Alphabet::new();
    let ids: Vec<SymbolId> = (0..SYMS).map(|i| ab.event(&format!("s{i}"))).collect();
    let mut b = ScescBuilder::new("complete", "clk");
    let m = b.instance("M");
    for &letter in letters {
        b.tick();
        for (i, &id) in ids.iter().enumerate() {
            if (letter >> i) & 1 == 1 {
                b.event(m, id);
            } else {
                b.absent_event(m, id);
            }
        }
    }
    (ab, b.build().expect("complete charts are well-formed"))
}

fn arb_trace(len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..(1 << SYMS) as u8, len)
}

/// Builds an alphabet + chart from the abstract pattern description,
/// skipping contradictory elements (e.g. `a & !a`).
fn build_chart(pattern: &[Vec<(usize, bool)>]) -> Option<(Alphabet, cesc::chart::Scesc)> {
    let mut ab = Alphabet::new();
    let ids: Vec<SymbolId> = (0..SYMS).map(|i| ab.event(&format!("s{i}"))).collect();
    let mut b = ScescBuilder::new("prop", "clk");
    let m = b.instance("M");
    for elem in pattern {
        b.tick();
        for &(sym, positive) in elem {
            if positive {
                b.event(m, ids[sym]);
            } else {
                b.absent_event(m, ids[sym]);
            }
        }
    }
    let chart = b.build().ok()?;
    // reject charts with unsatisfiable elements
    for p in chart.extract_pattern() {
        if !cesc::expr::sat::is_satisfiable(&p) {
            return None;
        }
    }
    Some((ab, chart))
}

fn decode_trace(raw: &[u8]) -> Trace {
    raw.iter()
        .map(|&bits| Valuation::from_bits(bits as u128))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Exactness on the classical class: for complete (single-valuation)
    /// pattern elements, the greedy KMP-style monitor reports *exactly*
    /// the oracle's windows — the paper's §5 equality
    /// `[[C]] = Σ* × L(M) × Σ^ω` holds on this class.
    #[test]
    fn monitor_exact_on_complete_patterns(
        letters in arb_complete_pattern(),
        raw in arb_trace(24),
    ) {
        let (_ab, chart) = build_complete_chart(&letters);
        let trace = decode_trace(&raw);
        // both policies coincide (and are exact) on complete elements
        for policy in [OverlapPolicy::Satisfiability, OverlapPolicy::Witness] {
            let opts = SynthOptions { overlap: policy, ..Default::default() };
            let monitor = synthesize(&chart, &opts).unwrap();
            let report = monitor.scan(&trace);
            let oracle: Vec<u64> = match_positions(&chart, &trace)
                .into_iter()
                .map(|s| (s + chart.tick_count() - 1) as u64)
                .collect();
            prop_assert_eq!(report.matches, oracle, "policy {:?}", policy);
        }
    }

    /// The exact subset engine reports exactly the oracle's windows.
    #[test]
    fn exact_engine_equals_oracle(
        pattern in arb_pattern(),
        raw in arb_trace(24),
    ) {
        let Some((_ab, chart)) = build_chart(&pattern) else {
            return Ok(());
        };
        let trace = decode_trace(&raw);
        let p = chart.extract_pattern();
        let mut exact = ExactEngine::new(&p).unwrap();
        let hits: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                let v = *v;
                exact.step(v)
            })
            .map(|(i, _)| i)
            .collect();
        let oracle: Vec<usize> = match_positions(&chart, &trace)
            .into_iter()
            .map(|s| s + chart.tick_count() - 1)
            .collect();
        prop_assert_eq!(hits, oracle);
    }

    /// Dense table, lazy δ and the naive matcher agree with each other
    /// on every step (they implement the same automaton).
    #[test]
    fn table_lazy_agree(
        pattern in arb_pattern(),
        raw in arb_trace(24),
    ) {
        let Some((_ab, chart)) = build_chart(&pattern) else {
            return Ok(());
        };
        let trace = decode_trace(&raw);
        let p = chart.extract_pattern();
        let mut dense = DenseTableEngine::new(&p).unwrap();
        let mut lazy = LazyEngine::new(&p).unwrap();
        for v in trace.iter() {
            prop_assert_eq!(dense.step(v), lazy.step(v));
            prop_assert_eq!(dense.state(), lazy.state());
        }
    }

    /// The naive window-rescanning baseline equals the oracle (it
    /// literally re-applies the definition).
    #[test]
    fn naive_matcher_equals_oracle(
        pattern in arb_pattern(),
        raw in arb_trace(20),
    ) {
        let Some((_ab, chart)) = build_chart(&pattern) else {
            return Ok(());
        };
        let trace = decode_trace(&raw);
        let p = chart.extract_pattern();
        let mut naive = NaiveMatcher::new(&p).unwrap();
        let hits: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                let v = *v;
                naive.step(v)
            })
            .map(|(i, _)| i)
            .collect();
        let oracle: Vec<usize> = match_positions(&chart, &trace)
            .into_iter()
            .map(|s| s + chart.tick_count() - 1)
            .collect();
        prop_assert_eq!(hits, oracle);
    }

    /// The chart's own witness window is always detected at its end,
    /// under both overlap policies.
    #[test]
    fn witness_always_detected(pattern in arb_pattern()) {
        let Some((_ab, chart)) = build_chart(&pattern) else {
            return Ok(());
        };
        let witness = witness_window(&chart).unwrap();
        for policy in [OverlapPolicy::Satisfiability, OverlapPolicy::Witness] {
            let opts = SynthOptions { overlap: policy, ..Default::default() };
            let monitor = synthesize(&chart, &opts).unwrap();
            let trace = Trace::from_elements(witness.iter().copied());
            let report = monitor.scan(&trace);
            prop_assert!(
                report.matches.contains(&((witness.len() - 1) as u64)),
                "witness not detected under {policy:?}"
            );
        }
    }

    /// The KMP bound: the monitor's state index never exceeds the
    /// number of elements consumed, nor n.
    #[test]
    fn state_respects_kmp_bound(
        pattern in arb_pattern(),
        raw in arb_trace(16),
    ) {
        let Some((_ab, chart)) = build_chart(&pattern) else {
            return Ok(());
        };
        let monitor = synthesize(&chart, &SynthOptions::default()).unwrap();
        let mut exec = cesc::core::MonitorExec::new(&monitor);
        for (i, v) in decode_trace(&raw).iter().enumerate() {
            let out = exec.step(v);
            prop_assert!(out.to.index() <= i + 1);
            prop_assert!(out.to.index() < monitor.state_count());
        }
    }

    /// On complete patterns the monitor state equals the exact
    /// engine's longest live prefix at every step (classical KMP
    /// invariant).
    #[test]
    fn monitor_state_equals_exact_live_on_complete_patterns(
        letters in arb_complete_pattern(),
        raw in arb_trace(24),
    ) {
        let (_ab, chart) = build_complete_chart(&letters);
        let p = chart.extract_pattern();
        for policy in [OverlapPolicy::Satisfiability, OverlapPolicy::Witness] {
            let opts = SynthOptions { overlap: policy, ..Default::default() };
            let monitor = synthesize(&chart, &opts).unwrap();
            let mut exec = cesc::core::MonitorExec::new(&monitor);
            let mut exact = ExactEngine::new(&p).unwrap();
            for v in decode_trace(&raw).iter() {
                let out = exec.step(v);
                exact.step(v);
                prop_assert_eq!(out.to.index(), exact.longest_live());
            }
        }
    }
}

/// Reproduction finding (see docs/ARCHITECTURE.md, "Which windows
/// `cesc check` reports"): on patterns with wildcard
/// (`TRUE`) elements the paper's single-state greedy automaton is NOT
/// exact — it can both over- and under-report windows, because one
/// state cannot track several live alignments. This regression test
/// pins the minimal counterexample proptest discovered; the
/// [`ExactEngine`] (subset construction) is the remedy.
#[test]
fn greedy_automaton_incompleteness_counterexample() {
    // pattern: ¬s2, s2, TRUE, TRUE
    let mut ab = Alphabet::new();
    let ids: Vec<SymbolId> = (0..SYMS).map(|i| ab.event(&format!("s{i}"))).collect();
    let mut b = ScescBuilder::new("cex", "clk");
    let m = b.instance("M");
    b.tick();
    b.absent_event(m, ids[2]);
    b.tick();
    b.event(m, ids[2]);
    b.tick();
    b.tick();
    let chart = b.build().unwrap();

    // trace: quiet, then s3 s2 … s3 s2 interleaved with gaps
    let mut raw = vec![0u8; 24];
    raw[13] = 8; // s3
    raw[14] = 4; // s2
    raw[18] = 8;
    raw[19] = 4;
    let trace = decode_trace(&raw);

    let oracle: Vec<u64> = match_positions(&chart, &trace)
        .into_iter()
        .map(|s| (s + chart.tick_count() - 1) as u64)
        .collect();
    assert_eq!(oracle, vec![16, 21], "two real windows");

    // the exact engine finds exactly the oracle windows …
    let p = chart.extract_pattern();
    let mut exact = ExactEngine::new(&p).unwrap();
    let exact_hits: Vec<u64> = trace
        .iter()
        .enumerate()
        .filter(|(_, v)| {
            let v = *v;
            exact.step(v)
        })
        .map(|(i, _)| i as u64)
        .collect();
    assert_eq!(exact_hits, oracle);

    // … while the greedy monitor under the Satisfiability policy
    // misses the window at 21 (it oscillates between alignments; the
    // Witness policy happens to catch this particular trace but has
    // its own miss cases — see cesc-core's determinize tests)
    let opts = SynthOptions {
        overlap: OverlapPolicy::Satisfiability,
        ..Default::default()
    };
    let monitor = synthesize(&chart, &opts).unwrap();
    let report = monitor.scan(&trace);
    assert!(
        !report.matches.contains(&21),
        "if this starts passing, the greedy construction gained subset tracking — update \
         docs/ARCHITECTURE.md, \"Which windows `cesc check` reports\""
    );
}

/// The other direction of the same finding, under the default
/// `Witness` policy: the greedy automaton reports a window the
/// definition does not contain. After a completed `¬s1, TRUE` window
/// the final state slides back to "one tick matched `¬s1`", judging
/// the `TRUE` tick by its witness (the empty valuation) rather than by
/// the `{s1}` the trace really had.
#[test]
fn greedy_automaton_over_report_counterexample() {
    let mut ab = Alphabet::new();
    let ids: Vec<SymbolId> = (0..SYMS).map(|i| ab.event(&format!("s{i}"))).collect();
    let mut b = ScescBuilder::new("over", "clk");
    let m = b.instance("M");
    b.tick();
    b.absent_event(m, ids[1]);
    b.tick();
    let chart = b.build().unwrap();
    let trace = decode_trace(&[0b01, 0b10, 0b01]); // {s0}, {s1}, {s0}

    let oracle: Vec<u64> = match_positions(&chart, &trace)
        .into_iter()
        .map(|s| (s + chart.tick_count() - 1) as u64)
        .collect();
    assert_eq!(oracle, vec![1], "one real window: ticks 0..=1");

    let monitor = synthesize(&chart, &SynthOptions::default()).unwrap();
    assert_eq!(
        monitor.scan(&trace).matches,
        vec![1, 2],
        "if this changes, the greedy construction's slides changed — update \
         docs/ARCHITECTURE.md, \"Which windows `cesc check` reports\""
    );
}
