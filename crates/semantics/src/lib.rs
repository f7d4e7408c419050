//! # cesc-semantics — the denotational semantics of CESC
//!
//! Reference semantics of the CESC monitor-synthesis reproduction
//! (Gadkari & Ramesh, DATE 2005). Paper §3 maps every chart to the set
//! of runs `[[C]]` that contain a finite interval exhibiting the chart's
//! event ordering (Figure 3); §5 states the synthesis correctness
//! result
//!
//! ```text
//! [[C]] = Σ* × L(M) × Σ^ω
//! ```
//!
//! This crate implements `[[C]]`-membership *directly from the chart* —
//! with no automaton — so it can serve as the independent oracle against
//! which synthesized monitors are property-tested (and as the
//! brute-force baseline in the Figure 3 benchmark):
//!
//! * [`window_matches`] / [`match_positions`] / [`contains_scenario`] —
//!   SCESC windows in a single-clock trace;
//! * [`cesc_matches`] / [`cesc_match_positions`] — structural
//!   compositions (`seq`, `par`, `alt`, `loop`, `implication`);
//! * [`multiclock_contains`] — multi-clock specs over global runs,
//!   including cross-domain causality ordering;
//! * [`witness_window`] / [`cesc_witness`] — satisfying windows used to
//!   plant positive scenarios in generated traffic.
//!
//! # Example
//!
//! ```
//! use cesc_chart::parse_document;
//! use cesc_semantics::{contains_scenario, witness_window};
//! use cesc_trace::Trace;
//!
//! let doc = parse_document(
//!     "scesc hs on clk { instances { M } events { req, ack } \
//!      tick { M: req } tick { M: ack } }",
//! ).unwrap();
//! let chart = doc.chart("hs").unwrap();
//! let window = witness_window(chart)?;
//! let trace = Trace::from_elements(window);
//! assert!(contains_scenario(chart, &trace));
//! # Ok::<(), cesc_semantics::UnsatisfiableChart>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use cesc_chart::{Cesc, MultiClockSpec, Scesc};
use cesc_expr::{sat, Valuation};
use cesc_trace::{ClockSet, GlobalRun, Trace};

/// Error: a chart's pattern contains an unsatisfiable element, so no run
/// can exhibit it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsatisfiableChart {
    /// Name of the offending chart.
    pub chart: String,
    /// Tick whose pattern element is unsatisfiable.
    pub tick: usize,
}

impl fmt::Display for UnsatisfiableChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chart `{}` is unsatisfiable at tick {}",
            self.chart, self.tick
        )
    }
}

impl std::error::Error for UnsatisfiableChart {}

/// Whether `window` (one valuation per chart tick) exhibits the chart's
/// scenario: same length as the chart and element-by-element matching of
/// the extracted pattern — the definition behind Figure 3's semantic
/// mapping.
pub fn window_matches(chart: &Scesc, window: &[Valuation]) -> bool {
    if window.len() != chart.tick_count() {
        return false;
    }
    chart
        .extract_pattern()
        .iter()
        .zip(window)
        .all(|(p, &v)| p.eval_pure(v))
}

/// All window start positions at which the chart's scenario occurs in
/// `trace`.
pub fn match_positions(chart: &Scesc, trace: &Trace) -> Vec<usize> {
    let n = chart.tick_count();
    if n == 0 || trace.len() < n {
        return Vec::new();
    }
    let pattern = chart.extract_pattern();
    (0..=trace.len() - n)
        .filter(|&start| {
            pattern
                .iter()
                .enumerate()
                .all(|(i, p)| p.eval_pure(trace[start + i]))
        })
        .collect()
}

/// Whether `trace` contains at least one window exhibiting the chart —
/// i.e. whether any infinite extension of `trace` belongs to `[[C]]`
/// with the witness interval inside the observed prefix.
pub fn contains_scenario(chart: &Scesc, trace: &Trace) -> bool {
    let n = chart.tick_count();
    if n == 0 || trace.len() < n {
        return false;
    }
    let pattern = chart.extract_pattern();
    'outer: for start in 0..=trace.len() - n {
        for (i, p) in pattern.iter().enumerate() {
            if !p.eval_pure(trace[start + i]) {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

/// Builds a window that exhibits the chart: one satisfying valuation per
/// pattern element (minimal — unmentioned symbols are false).
///
/// # Errors
///
/// Returns [`UnsatisfiableChart`] if some grid line's constraint is
/// contradictory (e.g. an event both present and absent).
pub fn witness_window(chart: &Scesc) -> Result<Vec<Valuation>, UnsatisfiableChart> {
    chart
        .extract_pattern()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            sat::satisfying_valuation(p)
                .map(|w| w.valuation)
                .ok_or_else(|| UnsatisfiableChart {
                    chart: chart.name().to_owned(),
                    tick: i,
                })
        })
        .collect()
}

/// Whether `window` exhibits a structural composition.
///
/// Matching is scenario detection:
/// * `seq` — the window splits into consecutive sub-windows matching the
///   components in order;
/// * `par` — every component matches the whole window;
/// * `alt` — some component matches;
/// * `loop n` — `n` consecutive repetitions;
/// * `implication` — the antecedent window immediately followed by the
///   consequent window (the full observed scenario; verdict-level
///   checking lives in `cesc-core`'s `ImplicationChecker`);
/// * `async` — always `false`: multi-clock matching needs a global run,
///   use [`multiclock_contains`].
pub fn cesc_matches(cesc: &Cesc, window: &[Valuation]) -> bool {
    match cesc {
        Cesc::Basic(s) => window_matches(s, window),
        Cesc::Seq(cs) => seq_matches(cs, window),
        Cesc::Par(cs) => cs.iter().all(|c| cesc_matches(c, window)),
        Cesc::Alt(cs) => cs.iter().any(|c| cesc_matches(c, window)),
        Cesc::Loop(cesc_chart::LoopBound::Exactly(n), body) => {
            let copies: Vec<&Cesc> = std::iter::repeat_n(body.as_ref(), *n as usize).collect();
            seq_matches_refs(&copies, window)
        }
        Cesc::Implication(a, b) => seq_matches_refs(&[a.as_ref(), b.as_ref()], window),
        Cesc::AsyncPar(_) => false,
    }
}

fn seq_matches(cs: &[Cesc], window: &[Valuation]) -> bool {
    let refs: Vec<&Cesc> = cs.iter().collect();
    seq_matches_refs(&refs, window)
}

/// Dynamic program over split points, memoised on `(component index,
/// window offset)`.
fn seq_matches_refs(cs: &[&Cesc], window: &[Valuation]) -> bool {
    fn go(
        cs: &[&Cesc],
        window: &[Valuation],
        ci: usize,
        wj: usize,
        memo: &mut std::collections::HashMap<(usize, usize), bool>,
    ) -> bool {
        if ci == cs.len() {
            return wj == window.len();
        }
        if let Some(&r) = memo.get(&(ci, wj)) {
            return r;
        }
        let mut ok = false;
        for split in wj..=window.len() {
            if cesc_matches(cs[ci], &window[wj..split]) && go(cs, window, ci + 1, split, memo) {
                ok = true;
                break;
            }
        }
        memo.insert((ci, wj), ok);
        ok
    }
    let mut memo = std::collections::HashMap::new();
    go(cs, window, 0, 0, &mut memo)
}

/// All window positions `(start, len)` at which the composition occurs
/// in `trace`. Compositions may match windows of several lengths (`alt`
/// of different-length branches), so each match reports its length.
pub fn cesc_match_positions(cesc: &Cesc, trace: &Trace) -> Vec<(usize, usize)> {
    let lengths = possible_lengths(cesc, trace.len());
    let mut out = Vec::new();
    for start in 0..trace.len() {
        for &len in &lengths {
            if start + len <= trace.len()
                && cesc_matches(cesc, &trace.as_slice()[start..start + len])
            {
                out.push((start, len));
            }
        }
    }
    out
}

fn possible_lengths(cesc: &Cesc, max: usize) -> Vec<usize> {
    match cesc_chart::component_tick_count(cesc) {
        Some(n) => {
            if n <= max {
                vec![n]
            } else {
                Vec::new()
            }
        }
        None => (1..=max).collect(),
    }
}

/// Builds a window exhibiting a composition (first `alt` branch, loops
/// expanded).
///
/// # Errors
///
/// Returns [`UnsatisfiableChart`] if any contained chart is
/// unsatisfiable. `async` compositions have no single-domain window;
/// they yield an empty window.
pub fn cesc_witness(cesc: &Cesc) -> Result<Vec<Valuation>, UnsatisfiableChart> {
    match cesc {
        Cesc::Basic(s) => witness_window(s),
        Cesc::Seq(cs) => {
            let mut out = Vec::new();
            for c in cs {
                out.extend(cesc_witness(c)?);
            }
            Ok(out)
        }
        Cesc::Par(cs) => {
            // overlay: union of component witnesses element-wise
            let parts: Result<Vec<Vec<Valuation>>, _> = cs.iter().map(cesc_witness).collect();
            let parts = parts?;
            let len = parts.iter().map(Vec::len).max().unwrap_or(0);
            let mut out = vec![Valuation::empty(); len];
            for p in &parts {
                for (i, v) in p.iter().enumerate() {
                    out[i] = out[i] | *v;
                }
            }
            Ok(out)
        }
        Cesc::Alt(cs) => cesc_witness(cs.first().expect("validated non-empty")),
        Cesc::Loop(cesc_chart::LoopBound::Exactly(n), body) => {
            let one = cesc_witness(body)?;
            let mut out = Vec::with_capacity(one.len() * *n as usize);
            for _ in 0..*n {
                out.extend(one.iter().copied());
            }
            Ok(out)
        }
        Cesc::Implication(a, b) => {
            let mut out = cesc_witness(a)?;
            out.extend(cesc_witness(b)?);
            Ok(out)
        }
        Cesc::AsyncPar(_) => Ok(Vec::new()),
    }
}

/// Whether a global run exhibits a multi-clock spec: every component
/// chart matches a window of its clock's projection, and for every
/// cross-domain arrow `ex → ey` the (global) time of `ex`'s occurrence
/// in the matched cause window is ≤ the time of `ey`'s occurrence in
/// the matched effect window.
///
/// `clocks` supplies the domains; each component chart's
/// [`Scesc::clock`] name must resolve in it (charts whose clock is
/// missing simply cannot match).
pub fn multiclock_contains(spec: &MultiClockSpec, clocks: &ClockSet, run: &GlobalRun) -> bool {
    let mut tick_times: Vec<Vec<u64>> = Vec::new();
    let mut candidates: Vec<Vec<usize>> = Vec::new();
    for chart in spec.charts() {
        let Some(clk) = clocks.lookup(chart.clock()) else {
            return false;
        };
        let proj = run.project(clk);
        let times: Vec<u64> = run
            .iter()
            .filter(|s| s.tick_of(clk).is_some())
            .map(|s| s.time)
            .collect();
        let pos = match_positions(chart, &proj);
        if pos.is_empty() {
            return false;
        }
        tick_times.push(times);
        candidates.push(pos);
    }

    fn search(
        spec: &MultiClockSpec,
        tick_times: &[Vec<u64>],
        candidates: &[Vec<usize>],
        chosen: &mut Vec<usize>,
        idx: usize,
    ) -> bool {
        if idx == candidates.len() {
            return cross_arrows_ok(spec, tick_times, chosen);
        }
        for &pos in &candidates[idx] {
            chosen.push(pos);
            if search(spec, tick_times, candidates, chosen, idx + 1) {
                return true;
            }
            chosen.pop();
        }
        false
    }

    fn cross_arrows_ok(spec: &MultiClockSpec, tick_times: &[Vec<u64>], chosen: &[usize]) -> bool {
        for arrow in spec.cross_arrows() {
            let Some(fc) = spec.chart_of_event(arrow.from) else {
                return false;
            };
            let Some(tc) = spec.chart_of_event(arrow.to) else {
                return false;
            };
            let from_tick_in_chart = arrow
                .from_tick
                .unwrap_or_else(|| spec.charts()[fc].ticks_of_event(arrow.from)[0]);
            let to_tick_in_chart = arrow.to_tick.unwrap_or_else(|| {
                *spec.charts()[tc]
                    .ticks_of_event(arrow.to)
                    .last()
                    .expect("validated occurrence")
            });
            let from_global = tick_times[fc][chosen[fc] + from_tick_in_chart];
            let to_global = tick_times[tc][chosen[tc] + to_tick_in_chart];
            if from_global > to_global {
                return false;
            }
        }
        true
    }

    let mut chosen = Vec::new();
    search(spec, &tick_times, &candidates, &mut chosen, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_chart::parse_document;
    use cesc_trace::{ClockDomain, TraceGen};

    fn fig6_doc() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc simple_read on clk {
                instances { Master, Slave }
                events { MCmd_rd, Addr, SCmd_accept, SResp, SData }
                tick { Master: MCmd_rd, Addr; Slave: SCmd_accept }
                tick { Slave: SResp, SData }
                cause MCmd_rd -> SResp;
            }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn witness_matches_its_own_chart() {
        let doc = fig6_doc();
        let chart = doc.chart("simple_read").unwrap();
        let w = witness_window(chart).unwrap();
        assert_eq!(w.len(), 2);
        assert!(window_matches(chart, &w));
    }

    #[test]
    fn wrong_length_windows_never_match() {
        let doc = fig6_doc();
        let chart = doc.chart("simple_read").unwrap();
        let w = witness_window(chart).unwrap();
        assert!(!window_matches(chart, &w[..1]));
        let mut long = w.clone();
        long.push(Valuation::empty());
        assert!(!window_matches(chart, &long));
    }

    #[test]
    fn match_positions_finds_planted_windows() {
        let doc = fig6_doc();
        let chart = doc.chart("simple_read").unwrap();
        let w = witness_window(chart).unwrap();
        let mut g = TraceGen::new(11, &doc.alphabet);
        let mut elems: Vec<Valuation> = g.noise(60, 0.0).iter().collect();
        elems[10] = w[0];
        elems[11] = w[1];
        elems[40] = w[0];
        elems[41] = w[1];
        let t = Trace::from_elements(elems);
        assert_eq!(match_positions(chart, &t), vec![10, 40]);
        assert!(contains_scenario(chart, &t));
    }

    #[test]
    fn unsatisfiable_chart_reports_tick() {
        let doc = parse_document(
            "scesc bad on clk { instances { A } events { e } tick { A: e, !e } }",
        )
        .unwrap();
        let err = witness_window(doc.chart("bad").unwrap()).unwrap_err();
        assert_eq!(err.tick, 0);
        assert!(err.to_string().contains("bad"));
    }

    #[test]
    fn seq_and_loop_matching() {
        let doc = parse_document(
            r#"
            scesc a on clk { instances { M } events { x } tick { M: x } }
            scesc b on clk { instances { M } events { y } tick { M: y } }
            cesc ab { seq(a, b) }
            cesc aa3 { loop(3, a) }
        "#,
        )
        .unwrap();
        let ab = doc.composition("ab").unwrap();
        let x = doc.alphabet.lookup("x").unwrap();
        let y = doc.alphabet.lookup("y").unwrap();
        let w = [Valuation::of([x]), Valuation::of([y])];
        assert!(cesc_matches(ab, &w));
        assert!(!cesc_matches(ab, &[w[1], w[0]]));

        let aa3 = doc.composition("aa3").unwrap();
        let w3 = [Valuation::of([x]); 3];
        assert!(cesc_matches(aa3, &w3));
        assert!(!cesc_matches(aa3, &w3[..2]));
    }

    #[test]
    fn alt_and_par_matching() {
        let doc = parse_document(
            r#"
            scesc a on clk { instances { M } events { x } tick { M: x } }
            scesc b on clk { instances { M } events { y } tick { M: y } }
            cesc any { alt(a, b) }
            cesc both { par(a, b) }
        "#,
        )
        .unwrap();
        let x = doc.alphabet.lookup("x").unwrap();
        let y = doc.alphabet.lookup("y").unwrap();
        let any = doc.composition("any").unwrap();
        assert!(cesc_matches(any, &[Valuation::of([x])]));
        assert!(cesc_matches(any, &[Valuation::of([y])]));
        assert!(!cesc_matches(any, &[Valuation::empty()]));
        let both = doc.composition("both").unwrap();
        assert!(cesc_matches(both, &[Valuation::of([x, y])]));
        assert!(!cesc_matches(both, &[Valuation::of([x])]));
    }

    #[test]
    fn implication_detects_full_scenario() {
        let doc = parse_document(
            r#"
            scesc req on clk { instances { M } events { r } tick { M: r } }
            scesc rsp on clk { instances { M } events { s } tick { M: s } }
            cesc chk { implies(req, rsp) }
        "#,
        )
        .unwrap();
        let r = doc.alphabet.lookup("r").unwrap();
        let s = doc.alphabet.lookup("s").unwrap();
        let chk = doc.composition("chk").unwrap();
        assert!(cesc_matches(chk, &[Valuation::of([r]), Valuation::of([s])]));
        assert!(!cesc_matches(chk, &[Valuation::of([r]), Valuation::empty()]));
    }

    #[test]
    fn cesc_match_positions_report_lengths() {
        let doc = parse_document(
            r#"
            scesc a on clk { instances { M } events { x } tick { M: x } }
            cesc a2 { seq(a, a) }
        "#,
        )
        .unwrap();
        let x = doc.alphabet.lookup("x").unwrap();
        let a2 = doc.composition("a2").unwrap();
        let t = Trace::from_elements([
            Valuation::of([x]),
            Valuation::of([x]),
            Valuation::empty(),
            Valuation::of([x]),
        ]);
        let pos = cesc_match_positions(a2, &t);
        assert_eq!(pos, vec![(0, 2)]);
    }

    #[test]
    fn cesc_witness_respects_structure() {
        let doc = parse_document(
            r#"
            scesc a on clk { instances { M } events { x } tick { M: x } }
            scesc b on clk { instances { M } events { y } tick { M: y } }
            cesc w { seq(a, loop(2, b)) }
        "#,
        )
        .unwrap();
        let w = doc.composition("w").unwrap();
        let window = cesc_witness(w).unwrap();
        assert_eq!(window.len(), 3);
        assert!(cesc_matches(w, &window));
    }

    #[test]
    fn multiclock_ordering_enforced() {
        let doc = parse_document(
            r#"
            scesc m1 on clk1 { instances { A } events { req } tick { A: req } }
            scesc m2 on clk2 { instances { B } events { rsp } tick { B: rsp } }
            multiclock rw { charts { m1, m2 } cause req -> rsp; }
        "#,
        )
        .unwrap();
        let spec = doc.multiclock_spec("rw").unwrap();
        let req = doc.alphabet.lookup("req").unwrap();
        let rsp = doc.alphabet.lookup("rsp").unwrap();

        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
        let c2 = clocks.add(ClockDomain::new("clk2", 3, 0));

        // req at clk1-tick1 (t=2), rsp at clk2-tick1 (t=3): causal order ok
        let t1 = Trace::from_elements([Valuation::empty(), Valuation::of([req])]);
        let t2 = Trace::from_elements([Valuation::empty(), Valuation::of([rsp])]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        assert!(multiclock_contains(spec, &clocks, &run));

        // rsp at t=0, req at t=4 → causal order violated
        let t1 = Trace::from_elements([
            Valuation::empty(),
            Valuation::empty(),
            Valuation::of([req]),
        ]);
        let t2 = Trace::from_elements([Valuation::of([rsp]), Valuation::empty()]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        assert!(!multiclock_contains(spec, &clocks, &run));
    }

    #[test]
    fn multiclock_missing_scenario_fails() {
        let doc = parse_document(
            r#"
            scesc m1 on clk1 { instances { A } events { req } tick { A: req } }
            scesc m2 on clk2 { instances { B } events { rsp } tick { B: rsp } }
            multiclock rw { charts { m1, m2 } cause req -> rsp; }
        "#,
        )
        .unwrap();
        let spec = doc.multiclock_spec("rw").unwrap();
        let req = doc.alphabet.lookup("req").unwrap();
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
        let c2 = clocks.add(ClockDomain::new("clk2", 3, 0));
        let t1 = Trace::from_elements([Valuation::of([req])]);
        let t2 = Trace::from_elements([Valuation::empty()]); // rsp never happens
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        assert!(!multiclock_contains(spec, &clocks, &run));
    }

    #[test]
    fn async_composition_has_no_single_domain_match() {
        let doc = parse_document(
            r#"
            scesc m1 on clk1 { instances { A } events { req } tick { A: req } }
            scesc m2 on clk2 { instances { B } events { rsp } tick { B: rsp } }
            cesc multi { async(m1, m2) }
        "#,
        )
        .unwrap();
        let multi = doc.composition("multi").unwrap();
        let req = doc.alphabet.lookup("req").unwrap();
        assert!(!cesc_matches(multi, &[Valuation::of([req])]));
        assert_eq!(cesc_witness(multi).unwrap(), Vec::<Valuation>::new());
    }
}
