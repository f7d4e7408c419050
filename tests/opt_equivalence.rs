//! Property suite for the optimization pass pipeline: optimized ==
//! unoptimized, end to end.
//!
//! Three layers of pinning:
//!
//! * **analysis consumption** — every monitor `analyze` reports clean
//!   is a *fixpoint* of [`cesc::core::optimize`] (the pipeline is the
//!   identity on it), and on arbitrary hand-built monitors pruning
//!   removes **exactly** the analysis findings: the dead-transition
//!   count pruned equals the reported list (dead-ness is per-state
//!   local, so later rounds can never find more), every reported
//!   unreachable non-final state is gone, and the optimized monitor
//!   re-analyzes with no dead transitions and no unreachable states
//!   (save a kept unreachable final);
//! * **verdict preservation** — for arbitrary charts × traces ×
//!   chunkings, the post-opt batch engine (`cesc-spec` artifacts,
//!   compacted tables), the sharded fleet over post-opt monitors
//!   (jobs 1–8) and the optimized multi-clock engine all agree with
//!   the pre-opt engine on match times, tick counts and underflow
//!   accounting;
//! * **backend closure** — RTL lowered from the *optimized* monitor
//!   co-simulates divergence-free against the *unoptimized* batch
//!   engine (the `cesc check --cosim` configuration), so the pipeline
//!   cannot silently weaken the emitted hardware.

use cesc::core::{
    analyze, optimize, synthesize, Action, CompileOptions, Monitor, MonitorBank, StateId,
    SynthOptions, Transition, TransitionKind,
};
use cesc::expr::{Expr, SymbolId, Valuation};
use cesc::hdl::{lower_monitor, VerilogOptions};
use cesc::par::{plan_shards, scan_sharded_global, Fleet, ParOptions};
use cesc::prelude::{Alphabet, ScescBuilder, SpecOptions, SpecSet};
use cesc::rtl::CoSim;
use proptest::prelude::*;

const SYMS: usize = 4;

// ---------------------------------------------------------------- charts

/// A random pattern element: up to 3 literals over a 4-symbol
/// alphabet.
fn arb_element() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0..SYMS, any::<bool>()), 0..3)
}

fn arb_pattern() -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(arb_element(), 1..5)
}

fn arb_trace(len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..(1 << SYMS) as u8, len)
}

/// Successive chunk lengths; the tail of the trace rides in one final
/// chunk.
fn arb_chunking() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..9, 0..8)
}

fn build_chart(pattern: &[Vec<(usize, bool)>]) -> Option<(Alphabet, cesc::chart::Scesc)> {
    build_wide_chart(pattern, SYMS).map(|(ab, _, chart)| (ab, chart))
}

/// Builds the chart over a `width`-symbol alphabet. Its four pattern
/// slots are the identity at `width == SYMS`; wider alphabets map
/// them to symbols `0, width/2, width-2, width-1`, so guards straddle
/// the 64-bit boundary where narrowed masks stop fitting. Returns the
/// slot symbols alongside the chart.
fn build_wide_chart(
    pattern: &[Vec<(usize, bool)>],
    width: usize,
) -> Option<(Alphabet, Vec<SymbolId>, cesc::chart::Scesc)> {
    let mut ab = Alphabet::new();
    let all: Vec<SymbolId> = (0..width).map(|i| ab.event(&format!("s{i}"))).collect();
    let ids: Vec<SymbolId> = if width == SYMS {
        all
    } else {
        [0, width / 2, width - 2, width - 1]
            .map(|i| all[i])
            .to_vec()
    };
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
    for p in chart.extract_pattern() {
        if !cesc::expr::sat::is_satisfiable(&p) {
            return None;
        }
    }
    Some((ab, ids, chart))
}

fn decode_trace(raw: &[u8]) -> Vec<Valuation> {
    raw.iter()
        .map(|&bits| Valuation::from_bits(bits as u128))
        .collect()
}

/// Decodes 4 random bits per element onto the given slot symbols.
fn decode_onto(raw: &[u8], ids: &[SymbolId]) -> Vec<Valuation> {
    raw.iter()
        .map(|&bits| {
            Valuation::of(
                ids.iter()
                    .enumerate()
                    .filter(|&(i, _)| bits >> i & 1 == 1)
                    .map(|(_, &id)| id),
            )
        })
        .collect()
}

/// A spec set over one generated chart, as `cesc check` would load it.
fn spec_set_of(ab: &Alphabet, chart: &cesc::chart::Scesc, optimize: bool) -> SpecSet {
    let doc = cesc::chart::Document {
        alphabet: ab.clone(),
        charts: vec![chart.clone()],
        compositions: vec![],
        multiclock: vec![],
    };
    SpecSet::from_document(
        doc,
        SpecOptions {
            optimize,
            ..SpecOptions::new()
        },
    )
}

// ---------------------------------------------- arbitrary raw monitors

/// Encoded guard: `(kind, a, b)` over the 4-symbol alphabet; kinds
/// cover literals, conjunctions, disjunctions and scoreboard checks —
/// enough to manufacture shadowed (dead) transitions.
type RawGuard = (u8, u8, u8);
/// Encoded transition: guard, target, action `(op, symbol)`.
type RawTransition = (RawGuard, u8, (u8, u8));
/// Encoded monitor: per-state extra transitions (a total fallback is
/// appended to every state), plus the final-state choice.
type RawMonitor = (Vec<Vec<RawTransition>>, u8);

fn arb_raw_monitor() -> impl Strategy<Value = RawMonitor> {
    let guard = (0u8..7, 0u8..SYMS as u8, 0u8..SYMS as u8);
    let transition = (guard, any::<u8>(), (0u8..3, 0u8..SYMS as u8));
    (
        prop::collection::vec(prop::collection::vec(transition, 0..3), 1..5),
        any::<u8>(),
    )
}

fn guard_expr(raw: RawGuard, ids: &[SymbolId]) -> Expr {
    let (kind, a, b) = raw;
    let sa = ids[a as usize];
    let sb = ids[b as usize];
    match kind {
        0 => Expr::t(),
        1 => Expr::sym(sa),
        2 => Expr::Not(Box::new(Expr::sym(sa))),
        3 => Expr::and(vec![Expr::sym(sa), Expr::Not(Box::new(Expr::sym(sb)))]),
        4 => Expr::or(vec![Expr::sym(sa), Expr::sym(sb)]),
        5 => Expr::ChkEvt(sa),
        _ => Expr::Not(Box::new(Expr::ChkEvt(sa))),
    }
}

/// Materialises an encoded monitor: every state gets its encoded
/// transitions plus a total `true` fallback, so execution never
/// panics; targets wrap into range. Dead transitions and unreachable
/// states arise naturally.
fn build_raw_monitor(raw: &RawMonitor, ab: &mut Alphabet) -> Monitor {
    let ids: Vec<SymbolId> = (0..SYMS).map(|i| ab.event(&format!("s{i}"))).collect();
    let (states, final_raw) = raw;
    let n = states.len();
    let mut tracked = Vec::new();
    let transitions: Vec<Vec<Transition>> = states
        .iter()
        .enumerate()
        .map(|(s, raws)| {
            let mut ts: Vec<Transition> = raws
                .iter()
                .map(|&(g, target, (op, sym))| {
                    let target = (target as usize) % n;
                    let e = ids[sym as usize];
                    let actions = match op {
                        1 => {
                            if !tracked.contains(&e) {
                                tracked.push(e);
                            }
                            vec![Action::AddEvt(vec![e])]
                        }
                        2 => vec![Action::DelEvt(vec![e])],
                        _ => vec![],
                    };
                    Transition {
                        guard: guard_expr(g, &ids),
                        actions,
                        target: StateId::from_index(target),
                        kind: if target == s + 1 {
                            TransitionKind::Forward
                        } else {
                            TransitionKind::Backward
                        },
                    }
                })
                .collect();
            ts.push(Transition {
                guard: Expr::t(),
                actions: vec![],
                target: StateId::from_index(0),
                kind: TransitionKind::Backward,
            });
            ts
        })
        .collect();
    Monitor::from_parts(
        "raw",
        "clk",
        transitions,
        StateId::from_index(0),
        StateId::from_index((*final_raw as usize) % n),
        vec![Expr::t()],
        tracked,
    )
}

/// Feeds `trace` through `compiled` in the given chunking, returning
/// `(hits, ticks, underflows)`.
fn run_chunked(
    compiled: &cesc::core::CompiledMonitor,
    trace: &[Valuation],
    chunking: &[usize],
) -> (Vec<u64>, u64, u64) {
    let mut exec = compiled.executor();
    let mut hits = Vec::new();
    let mut at = 0usize;
    for &len in chunking {
        let end = (at + len).min(trace.len());
        exec.feed(&trace[at..end], &mut hits);
        at = end;
    }
    exec.feed(&trace[at..], &mut hits);
    (hits, exec.ticks(), exec.underflows())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every monitor `analyze` reports clean is a fixpoint of the
    /// pipeline: same states, same transitions, transition for
    /// transition.
    #[test]
    fn clean_monitors_are_fixpoints(pattern in arb_pattern()) {
        let Some((_ab, chart)) = build_chart(&pattern) else {
            return Ok(());
        };
        let monitor = synthesize(&chart, &SynthOptions::default()).unwrap();
        prop_assert!(analyze(&monitor).is_clean());
        let (opt, report) = optimize(&monitor);
        prop_assert!(!report.changed(), "{report}");
        prop_assert_eq!(opt.state_count(), monitor.state_count());
        for s in 0..monitor.state_count() {
            let state = StateId::from_index(s);
            prop_assert_eq!(opt.transitions_from(state), monitor.transitions_from(state));
        }
        prop_assert_eq!(opt.tracked_events(), monitor.tracked_events());
    }

    /// Pruning removes exactly what the analysis reports: the pruned
    /// dead-transition count equals the reported list (no more can
    /// appear in later rounds — dead-ness is local to a state's
    /// priority list), every reported unreachable non-final state is
    /// removed, and the result re-analyzes clean (modulo a kept
    /// unreachable final state).
    #[test]
    fn pruning_removes_exactly_the_analysis_findings(raw in arb_raw_monitor()) {
        let mut ab = Alphabet::new();
        let monitor = build_raw_monitor(&raw, &mut ab);
        let stats = analyze(&monitor);
        let (opt, report) = optimize(&monitor);

        prop_assert_eq!(
            report.pruned_transitions,
            stats.dead_transitions.len(),
            "dead transitions pruned != reported ({report})"
        );
        let reported_unreachable_nonfinal = stats
            .unreachable_states
            .iter()
            .filter(|s| **s != monitor.final_state())
            .count();
        prop_assert!(
            report.pruned_states >= reported_unreachable_nonfinal,
            "reported unreachable states must go ({report})"
        );
        prop_assert_eq!(
            report.states_before - report.states_after,
            report.pruned_states
        );

        // fixpoint: re-analysis finds nothing left to prune
        let after = analyze(&opt);
        prop_assert!(after.dead_transitions.is_empty(), "{:?}", after.dead_transitions);
        prop_assert!(
            after.unreachable_states.iter().all(|s| *s == opt.final_state()),
            "only a kept unreachable final may remain: {:?}",
            after.unreachable_states
        );
    }

    /// The optimized monitor produces the original's verdicts on any
    /// trace, under any chunking, through the fully-optimized compiled
    /// tables (pruning + guard CSE + slot narrowing).
    #[test]
    fn optimized_raw_monitors_keep_verdicts(
        raw in arb_raw_monitor(),
        trace_raw in arb_trace(48),
        chunking in arb_chunking(),
    ) {
        let mut ab = Alphabet::new();
        let monitor = build_raw_monitor(&raw, &mut ab);
        let trace = decode_trace(&trace_raw);
        let reference = monitor.scan(trace.iter().copied());

        let (opt, _) = optimize(&monitor);
        let compiled = opt.compiled_with(&CompileOptions::optimized());
        let (hits, ticks, underflows) = run_chunked(&compiled, &trace, &chunking);
        prop_assert_eq!(&hits, &reference.matches);
        prop_assert_eq!(ticks, reference.ticks);
        prop_assert_eq!(underflows, reference.underflows);
    }

    /// `cesc-spec` end to end: the optimized artifact's compacted
    /// tables agree with the `--no-opt` baseline engine for arbitrary
    /// charts × traces × chunkings — and the pass report's table
    /// dimensions never grow. The 63/64/65-symbol alphabets pin the
    /// narrowed-mask boundary: guards on bit 63 narrow, guards on
    /// bit 64 must stay wide.
    #[test]
    fn spec_artifacts_agree_with_baseline_engine(
        width in prop_oneof![Just(SYMS), Just(63usize), Just(64), Just(65)],
        pattern in arb_pattern(),
        trace_raw in arb_trace(48),
        chunking in arb_chunking(),
    ) {
        let Some((ab, ids, chart)) = build_wide_chart(&pattern, width) else {
            return Ok(());
        };
        let trace = decode_onto(&trace_raw, &ids);
        let specs = spec_set_of(&ab, &chart, true);
        let spec = specs.chart_spec(0).unwrap();

        let mut baseline_hits = Vec::new();
        let raw = spec.synthesized().compiled();
        let mut baseline = raw.executor();
        baseline.feed(&trace, &mut baseline_hits);

        let (hits, ticks, underflows) = run_chunked(spec.compiled(), &trace, &chunking);
        prop_assert_eq!(&hits, &baseline_hits);
        prop_assert_eq!(ticks, baseline.ticks());
        prop_assert_eq!(underflows, baseline.underflows());

        let report = spec.report().unwrap();
        prop_assert!(report.states.1 <= report.states.0, "{report}");
        prop_assert!(report.transitions.1 <= report.transitions.0, "{report}");
        prop_assert!(report.guard_ops.1 <= report.guard_ops.0, "{report}");
        prop_assert!(report.slots.1 <= report.slots.0, "{report}");
    }

    /// The sharded fleet over post-opt artifacts (jobs 1–8, any chunk
    /// size) is bit-identical to the serial pre-opt bank.
    #[test]
    fn optimized_fleet_matches_raw_serial_bank(
        p1 in arb_pattern(),
        p2 in arb_pattern(),
        p3 in arb_pattern(),
        trace_raw in arb_trace(48),
        jobs in 1usize..=8,
        chunk in 1usize..24,
    ) {
        let Some((a1, c1)) = build_chart(&p1) else { return Ok(()); };
        let Some((a2, c2)) = build_chart(&p2) else { return Ok(()); };
        let Some((a3, c3)) = build_chart(&p3) else { return Ok(()); };
        let trace = decode_trace(&trace_raw);

        let mut bank = MonitorBank::new();
        let mut fleet = Fleet::new();
        for (ab, chart) in [(&a1, &c1), (&a2, &c2), (&a3, &c3)] {
            // serial reference: raw synthesis, raw tables
            let monitor = synthesize(chart, &SynthOptions::default()).unwrap();
            bank.add(&monitor);
            // fleet under test: the cesc-spec optimized artifact
            let specs = spec_set_of(ab, chart, true);
            fleet.add_compiled(specs.chart_spec(0).unwrap().compiled().clone());
        }
        // bank and fleet are fed as `cesc check` feeds them: a global
        // run, here the trace on the one period-1 clock `clk`
        let (clocks, run) = cesc::trace::GlobalRun::lift(["clk"], trace.as_slice());
        bank.feed_global(&clocks, run.as_slice());
        let plan = plan_shards(&fleet, jobs);
        let report = scan_sharded_global(
            &fleet, &plan, &clocks, &ParOptions::default(), run.as_slice(), chunk,
        );
        for (i, serial) in bank.reports().iter().enumerate() {
            let sharded = &report.singles[i];
            prop_assert_eq!(
                sharded.log.all().unwrap(), &serial.matches[..],
                "monitor {} jobs {} chunk {}", i, jobs, chunk
            );
            prop_assert_eq!(sharded.ticks, serial.ticks);
            prop_assert_eq!(sharded.underflows, serial.underflows);
        }
    }

    /// RTL lowered from the optimized monitor co-simulates
    /// divergence-free against the unoptimized engine — the
    /// `cesc check --cosim` configuration, closing the loop over the
    /// whole pass pipeline and the HDL backend.
    #[test]
    fn optimized_rtl_cosims_against_raw_engine(
        pattern in arb_pattern(),
        trace_raw in arb_trace(40),
        chunking in arb_chunking(),
    ) {
        let Some((ab, chart)) = build_chart(&pattern) else {
            return Ok(());
        };
        let trace = decode_trace(&trace_raw);
        let specs = spec_set_of(&ab, &chart, true);
        let spec = specs.chart_spec(0).unwrap();

        let module = lower_monitor(spec.monitor(), &ab, &VerilogOptions::default());
        let raw = spec.synthesized().compiled();
        let mut cosim = CoSim::new(&module, &raw);
        let mut at = 0usize;
        for &len in &chunking {
            let end = (at + len).min(trace.len());
            prop_assert!(cosim.feed(&trace[at..end]).is_ok(), "diverged in chunk at {at}");
            at = end;
        }
        prop_assert!(cosim.feed(&trace[at..]).is_ok(), "diverged in tail");
        prop_assert_eq!(cosim.ticks(), trace.len() as u64);
    }
}

// ----------------------------------------------------- multi-clock pin

/// Fig 2 style multi-clock spec with cross-domain causality (coupled)
/// and an intra-chart-only variant (uncoupled, clock-major path).
const MC_COUPLED: &str = r#"
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
    multiclock mc { charts { m1, m2 } cause req1 -> req3; cause data3 -> data1; }
"#;

const MC_UNCOUPLED: &str = r#"
    scesc m1 on clk1 {
        instances { A, B }
        events { a1, b1 }
        tick { A: a1 }
        tick { B: b1 }
        cause a1 -> b1;
    }
    scesc m2 on clk2 {
        instances { C, D }
        events { c2, d2 }
        tick { C: c2 }
        tick { D: d2 }
        cause c2 -> d2;
    }
    multiclock mc { charts { m1, m2 } }
"#;

/// An arbitrary two-clock interleaving (see `batch_equivalence.rs`).
fn arb_global_steps(len: usize) -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..3, 0u8..128, 0u8..128), 0..len)
}

fn build_run(steps: &[(u8, u8, u8)]) -> cesc::trace::GlobalRun {
    use cesc::trace::{ClockId, GlobalRun, GlobalStep};
    let decode = |raw: u8| (raw < 64).then(|| Valuation::from_bits(raw as u128));
    let mut run = GlobalRun::new();
    let mut t = 0u64;
    for &(gap, a, b) in steps {
        t += u64::from(gap) + 1;
        let mut ticks = Vec::new();
        if let Some(v) = decode(a) {
            ticks.push((ClockId::from_index(0), v));
        }
        if let Some(v) = decode(b) {
            ticks.push((ClockId::from_index(1), v));
        }
        if !ticks.is_empty() {
            run.push(GlobalStep { time: t, ticks });
        }
    }
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The optimized multi-clock artifact (joint-slot shared board)
    /// agrees with the raw compiled engine over arbitrary clock
    /// interleavings and chunkings, for both execution strategies.
    #[test]
    fn optimized_multiclock_agrees_with_raw(
        steps in arb_global_steps(40),
        chunking in arb_chunking(),
    ) {
        use cesc::trace::{ClockDomain, ClockSet};
        let mut clocks = ClockSet::new();
        clocks.add(ClockDomain::new("clk1", 1, 0));
        clocks.add(ClockDomain::new("clk2", 1, 0));
        let run = build_run(&steps);
        for src in [MC_COUPLED, MC_UNCOUPLED] {
            let optimized = SpecSet::load(src).unwrap();
            let raw = SpecSet::load_with(
                src,
                SpecOptions { optimize: false, ..SpecOptions::new() },
            )
            .unwrap();

            let mut reference = MonitorBank::new();
            reference.add_compiled_multiclock(raw.multi_spec(0).unwrap().compiled().clone());
            reference.feed_global(&clocks, run.as_slice());

            let mut bank = MonitorBank::new();
            bank.add_compiled_multiclock(optimized.multi_spec(0).unwrap().compiled().clone());
            let elements = run.as_slice();
            let mut at = 0usize;
            for &len in &chunking {
                let end = (at + len).min(elements.len());
                bank.feed_global(&clocks, &elements[at..end]);
                at = end;
            }
            bank.feed_global(&clocks, &elements[at..]);
            prop_assert_eq!(
                bank.multiclock_hits(0), reference.multiclock_hits(0), "chunking {:?}", &chunking
            );
        }
    }
}
