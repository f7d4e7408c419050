//! Tier-1 gates for the semantic static-analysis layer: the guard-SAT
//! engine must agree with exhaustive 2^n truth-table enumeration, the
//! product-automaton reachability must cover every state pair the
//! engines actually visit, the `implies(...)` prover must agree with
//! exhaustive bounded model checking through the dynamic checker, and
//! every counterexample reported over the shipped specs must replay —
//! zero false counterexamples.
//!
//! `make verify-prove` drives the same layer through the `cesc prove`
//! CLI over the shipped example and protocol-library specs; these
//! tests keep the property-level floor inside `cargo test -q`.

use cesc::core::{
    product_reachability, GuardSat, GuardVerdict, ImplicationChecker, Monitor, MonitorExec,
    StateId,
};
use cesc::expr::{ScoreboardView, SymbolId, Valuation};
use cesc::fuzz::gen::SpecGen;
use cesc::protocols::bus_library_src;
use cesc::spec::{SpecSet, TargetRef};

/// A scoreboard view answering `Chk_evt` from a fixed bit-set — the
/// brute-force side of the SAT comparison.
struct ChkView(Valuation);

impl ScoreboardView for ChkView {
    fn has_event(&self, e: SymbolId) -> bool {
        self.0.contains(e)
    }
}

/// The symbols set in `v`, lowest index first.
fn symbols_of(v: Valuation) -> Vec<SymbolId> {
    let mut out = Vec::new();
    let mut bits = v.bits();
    while bits != 0 {
        out.push(SymbolId::from_index(bits.trailing_zeros() as usize));
        bits &= bits - 1;
    }
    out
}

/// Spreads the low `k` bits of `code` onto the given symbols.
fn spread(code: usize, symbols: &[SymbolId]) -> Valuation {
    let mut v = Valuation::empty();
    for (bit, &s) in symbols.iter().enumerate() {
        if code & (1 << bit) != 0 {
            v = v.with(s);
        }
    }
    v
}

/// Guard SAT vs exhaustive truth tables: for every arm of every
/// compilable generated chart over an alphabet of at most 12 symbols,
/// the engine's SAT / UNSAT / Valid verdict (in both `Chk_evt`
/// semantics) must match enumeration of all 2^n event sets, and every
/// witness the engine returns must actually satisfy the guard.
#[test]
fn guard_sat_agrees_with_exhaustive_enumeration() {
    let mut g = SpecGen::new(0x5A7_0001);
    let mut arms_checked = 0usize;
    for _ in 0..30 {
        let doc = g.document();
        let Ok(set) = SpecSet::load(&doc.source) else { continue };
        let n = set.alphabet().len();
        if n > 12 {
            continue;
        }
        for idx in 0..set.document().charts.len() {
            let Ok(spec) = set.chart_spec(idx) else { continue };
            let monitor = spec.synthesized();
            let compiled = monitor.compiled();
            let mut sat = GuardSat::single(&compiled);
            for s in 0..monitor.state_count() {
                let ts = monitor.transitions_from(StateId::from_index(s));
                for (i, t) in ts.iter().enumerate() {
                    // pinned semantics: Chk_evt atoms are false
                    let mut holds = 0usize;
                    for bits in 0..(1u128 << n) {
                        if t.guard.eval_pure(Valuation::from_bits(bits)) {
                            holds += 1;
                        }
                    }
                    let expect = match holds {
                        0 => GuardVerdict::Unsat,
                        h if h == 1 << n => GuardVerdict::Valid,
                        _ => GuardVerdict::Sat,
                    };
                    assert_eq!(
                        sat.arm_verdict(0, s, i, true),
                        expect,
                        "pinned verdict diverges at {s}#{i} of {}",
                        monitor.name()
                    );

                    // free semantics: enumerate Chk assignments too
                    let chk = symbols_of(t.guard.chk_targets());
                    let mut free_holds = false;
                    'free: for bits in 0..(1u128 << n) {
                        for code in 0..(1usize << chk.len()) {
                            let view = ChkView(spread(code, &chk));
                            if t.guard.eval(Valuation::from_bits(bits), &view) {
                                free_holds = true;
                                break 'free;
                            }
                        }
                    }
                    let free = sat.arm_witness(0, s, i, false);
                    assert_eq!(
                        free.is_some(),
                        free_holds,
                        "free-chk SAT diverges at {s}#{i} of {}",
                        monitor.name()
                    );
                    if let Some(w) = free {
                        assert!(
                            t.guard.eval(w.valuation, &ChkView(w.scoreboard)),
                            "witness fails its own guard at {s}#{i} of {}",
                            monitor.name()
                        );
                    }
                    // effective witnesses must satisfy the priority-scan
                    // conjunction, not just the arm's own guard
                    if let Some(w) = sat.effective_witness(0, s, i, false) {
                        let eff = monitor.effective_guard(StateId::from_index(s), i);
                        assert!(
                            eff.eval(w.valuation, &ChkView(w.scoreboard)),
                            "effective witness fails at {s}#{i} of {}",
                            monitor.name()
                        );
                    }
                    arms_checked += 1;
                }
            }
        }
    }
    assert!(arms_checked >= 100, "only {arms_checked} arms exercised — generator drifted");
}

/// Product reachability vs explicit enumeration: every `(state_a,
/// state_b)` pair two lockstep engine executions actually visit must
/// be marked reachable by the SAT-pruned product construction (the
/// product is a sound over-approximation of the concrete runs).
#[test]
fn product_reachability_covers_lockstep_execution() {
    let mut g = SpecGen::new(0x5A7_0002);
    let mut pairs_checked = 0usize;
    for _ in 0..40 {
        let doc = g.document();
        let Ok(set) = SpecSet::load(&doc.source) else { continue };
        let charts: Vec<usize> =
            (0..set.document().charts.len()).filter(|&i| set.chart_spec(i).is_ok()).collect();
        if charts.len() < 2 {
            continue;
        }
        let (ia, ib) = (charts[0], charts[1]);
        let (spec_a, spec_b) = (set.chart_spec(ia).unwrap(), set.chart_spec(ib).unwrap());
        let (ma, mb) = (spec_a.synthesized(), spec_b.synthesized());
        let union = Valuation::from_bits(ma.observed_symbols().bits() | mb.observed_symbols().bits());
        let symbols = symbols_of(union);
        if symbols.len() > 4 {
            continue;
        }
        let (raw_a, raw_b) = (ma.compiled(), mb.compiled());
        let product = product_reachability(&raw_a, &raw_b, None, None, false);

        // enumerate every trace of length 4 over the union symbols and
        // record the state pairs the two engines pass through
        let k = symbols.len().max(1);
        let per_tick = 1usize << k;
        const LEN: u32 = 4;
        for trace_code in 0..per_tick.pow(LEN) {
            let mut ea = MonitorExec::new(ma);
            let mut eb = MonitorExec::new(mb);
            let mut rest = trace_code;
            for _ in 0..LEN {
                let v = spread(rest % per_tick, &symbols);
                rest /= per_tick;
                ea.step(v);
                eb.step(v);
                assert!(
                    product.is_reachable(ea.state().index(), eb.state().index()),
                    "engines reached ({}, {}) of ({}, {}) but the product prunes it",
                    ea.state().index(),
                    eb.state().index(),
                    ma.name(),
                    mb.name()
                );
                pairs_checked += 1;
            }
        }
    }
    assert!(pairs_checked >= 1000, "only {pairs_checked} steps exercised — generator drifted");
}

/// Exhaustively scans every trace of length `len` over `symbols`
/// through a fresh checker, returning whether any trace violates.
fn bmc_finds_violation(a: &Monitor, c: &Monitor, symbols: &[SymbolId], len: u32) -> bool {
    let per_tick = 1usize << symbols.len();
    for trace_code in 0..per_tick.pow(len) {
        let mut checker = ImplicationChecker::new(a.clone(), c.clone());
        let mut rest = trace_code;
        for _ in 0..len {
            checker.step(spread(rest % per_tick, symbols));
            rest /= per_tick;
        }
        if checker.violation_count() > 0 {
            return true;
        }
    }
    false
}

/// The prover vs exhaustive bounded model checking: on generated
/// `implies(...)` asserts, PROVED means no trace enumerated over a
/// 4-symbol window violates, and REFUTED means the counterexample
/// replays — and when it is short enough and stays inside the window,
/// enumeration finds a violation too.
#[test]
fn prover_agrees_with_bounded_model_checking() {
    let mut g = SpecGen::new(0x5A7_0003);
    let mut proofs_checked = 0usize;
    const LEN: u32 = 4;
    for _ in 0..150 {
        let doc = g.document();
        if doc.assert.is_none() {
            continue;
        }
        let Ok(set) = SpecSet::load(&doc.source) else { continue };
        for idx in 0..set.document().compositions.len() {
            let Ok(spec) = set.assert_spec(idx) else { continue };
            let union = Valuation::from_bits(
                spec.antecedent().observed_symbols().bits()
                    | spec.consequent().observed_symbols().bits(),
            );
            // enumerating all 2^k tick codes is exponential, so clamp
            // the window: exhaustive over the first 4 union symbols
            let mut symbols = symbols_of(union);
            symbols.truncate(4);
            let window = Valuation::of(symbols.iter().copied());
            let violated = bmc_finds_violation(spec.antecedent(), spec.consequent(), &symbols, LEN);
            let proof = set.proof(idx).unwrap();
            match proof.counterexample() {
                None => {
                    assert!(
                        !violated,
                        "`{}` was PROVED but a {LEN}-tick trace violates it",
                        spec.name()
                    );
                }
                Some(cx) => {
                    assert!(cx.confirmed, "`{}` counterexample must replay", spec.name());
                    let mut checker =
                        ImplicationChecker::new(spec.antecedent().clone(), spec.consequent().clone());
                    for &v in &cx.trace {
                        checker.step(v);
                    }
                    assert!(
                        checker.violation_count() > 0,
                        "`{}` counterexample does not violate on replay",
                        spec.name()
                    );
                    let inside =
                        cx.trace.iter().all(|v| v.is_subset_of(window));
                    if cx.trace.len() as u32 <= LEN && inside {
                        assert!(
                            violated,
                            "`{}` was REFUTED at depth {} but enumeration finds nothing",
                            spec.name(),
                            cx.trace.len()
                        );
                    }
                }
            }
            proofs_checked += 1;
        }
    }
    assert!(proofs_checked >= 8, "only {proofs_checked} proofs exercised — generator drifted");
}

/// Acceptance pin: `cesc prove` discharges every `implies(...)` assert
/// of the shipped example specs and the bus protocol library with zero
/// false counterexamples — every REFUTED verdict (there are none
/// today, but the pin is shape-proof) carries an engine-confirmed
/// trace.
#[test]
fn shipped_specs_prove_clean() {
    let mut sources: Vec<(String, String)> = Vec::new();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("cesc") {
            sources.push((
                path.display().to_string(),
                std::fs::read_to_string(&path).unwrap(),
            ));
        }
    }
    assert!(!sources.is_empty(), "examples/specs is empty");
    sources.push(("bus library".to_owned(), bus_library_src()));

    let mut asserts_proved = 0usize;
    for (name, source) in &sources {
        let set = SpecSet::load(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        for target in set.checkable_targets() {
            let TargetRef::Assert(i) = target else { continue };
            let spec = set.assert_spec(i).unwrap();
            let proof = set.proof(i).unwrap();
            if let Some(cx) = proof.counterexample() {
                assert!(
                    cx.confirmed,
                    "{name}: `{}` refuted with a counterexample that does not replay",
                    spec.name()
                );
            } else {
                asserts_proved += 1;
            }
        }
    }
    // handshake.cesc's hs_gate + the three bus-library gates
    assert!(asserts_proved >= 4, "expected at least 4 proved asserts, saw {asserts_proved}");
}
