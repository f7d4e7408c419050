//! Co-simulation property suite: the *emitted RTL* (interpreted by
//! `cesc-rtl`, bit-for-bit the module `cesc synth --format verilog`
//! renders) must produce a `match_pulse` tick sequence identical to
//! the batch engine's (`CompiledMonitor` / `MonitorBank`) match
//! sequence —
//!
//! * for every protocol chart in `crates/protocols` over compliant,
//!   noisy and fault-injected traffic;
//! * for arbitrary generated charts over arbitrary traces, under any
//!   chunking of the stimulus;
//! * for hostile counter-saturating event streams, where the default
//!   saturating counters keep agreeing while the legacy wrapping mode
//!   demonstrably diverges (the pre-fix emitter's `sb <= sb + d`).
//!
//! These tests are the oracle that turns the PR's emitter bugfixes
//! (name-collision mangling, state-width clamp, saturating counters)
//! from judgment calls into pinned behaviour.

use cesc::core::{synthesize, Action, Monitor, MonitorBank, StateId, SynthOptions, Transition, TransitionKind};
use cesc::expr::{Alphabet, Expr, SymbolId, Valuation};
use cesc::hdl::{lower_monitor, VerilogOptions};
use cesc::prelude::ScescBuilder;
use cesc::protocols::{amba, faults, ocp, readproto, traffic::{transaction_stream, TrafficConfig}};
use cesc::rtl::{cosim_scan, report_agrees, CoSim, RtlInterp};
use cesc::trace::GlobalRun;
use proptest::prelude::*;

/// Cosims `monitor` over `trace` and checks both the one-shot report
/// and a chunked `MonitorBank`-paired run.
fn assert_cosim_identical(monitor: &Monitor, alphabet: &Alphabet, trace: &[Valuation]) {
    let reference = monitor.scan(trace.iter().copied());
    let report = cosim_scan(monitor, alphabet, &VerilogOptions::default(), trace.iter().copied())
        .unwrap_or_else(|d| panic!("monitor `{}`: {d}", monitor.name()));
    assert!(
        report_agrees(&report, &reference),
        "monitor `{}`: cosim {:?} != engine {:?}",
        monitor.name(),
        report.matches,
        reference.matches
    );

    // the same stimulus through a MonitorBank, chunked unevenly, vs
    // the interpreted RTL fed the same chunks
    let module = lower_monitor(monitor, alphabet, &VerilogOptions::default());
    let mut rtl = RtlInterp::new(&module);
    let mut bank = MonitorBank::new();
    let idx = bank.add(monitor);
    let mut rtl_hits = Vec::new();
    let (clocks, run) = GlobalRun::lift([monitor.clock()], trace);
    for (chunk, steps) in trace.chunks(7).zip(run.as_slice().chunks(7)) {
        bank.feed_global(&clocks, steps);
        rtl.feed(chunk, &mut rtl_hits);
    }
    assert_eq!(bank.hits(idx), rtl_hits.as_slice(), "bank vs RTL hits");
}

#[test]
fn ocp_simple_read_cosim() {
    let doc = ocp::simple_read_doc();
    let chart = doc.chart("ocp_simple_read").unwrap();
    let monitor = synthesize(chart, &SynthOptions::default()).unwrap();
    let window = ocp::simple_read_window(&doc.alphabet);
    let trace = transaction_stream(
        &doc.alphabet,
        &window,
        &TrafficConfig {
            transactions: 200,
            gap: 2,
            noise_density: 0.2,
            ..Default::default()
        },
    );
    assert_cosim_identical(&monitor, &doc.alphabet, trace.as_slice());
}

#[test]
fn ocp_burst_read_cosim_with_faults() {
    let doc = ocp::burst_read_doc();
    let chart = doc.chart("ocp_burst_read").unwrap();
    let monitor = synthesize(chart, &SynthOptions::default()).unwrap();
    let window = ocp::burst_read_window(&doc.alphabet);
    let trace = transaction_stream(
        &doc.alphabet,
        &window,
        &TrafficConfig {
            transactions: 60,
            gap: 1,
            ..Default::default()
        },
    );
    assert_cosim_identical(&monitor, &doc.alphabet, trace.as_slice());

    // fault-injected (non-compliant) traffic must agree too: the
    // contract is bit-identity on *any* stimulus, not just matches
    let events: Vec<SymbolId> = doc.alphabet.events();
    for fault in faults::fault_set(&trace, &events).into_iter().take(12) {
        let bad = faults::inject(&trace, fault);
        assert_cosim_identical(&monitor, &doc.alphabet, bad.as_slice());
    }
}

#[test]
fn amba_ahb_cosim() {
    let doc = amba::ahb_transaction_doc();
    let chart = doc.chart("ahb_transaction").unwrap();
    let monitor = synthesize(chart, &SynthOptions::default()).unwrap();
    let window = amba::ahb_transaction_window(&doc.alphabet);
    let trace = transaction_stream(
        &doc.alphabet,
        &window,
        &TrafficConfig {
            transactions: 150,
            gap: 3,
            noise_density: 0.1,
            ..Default::default()
        },
    );
    assert_cosim_identical(&monitor, &doc.alphabet, trace.as_slice());
}

#[test]
fn read_protocol_fig1_cosim() {
    let doc = readproto::single_clock_doc();
    let chart = doc.chart("read_protocol").unwrap();
    let monitor = synthesize(chart, &SynthOptions::default()).unwrap();
    let window = readproto::single_clock_window(&doc.alphabet);
    let trace = transaction_stream(&doc.alphabet, &window, &TrafficConfig::default());
    assert_cosim_identical(&monitor, &doc.alphabet, trace.as_slice());
}

#[test]
fn multiclock_local_monitors_cosim_per_domain() {
    // each local monitor of the Fig 2 multiclock spec is one emitted
    // module; cosim each against its per-domain stimulus
    let doc = readproto::multi_clock_doc();
    let spec = doc.multiclock_spec("read_multiclock").unwrap();
    let mm = cesc::core::synthesize_multiclock(spec, &SynthOptions::default()).unwrap();
    let (w1, w2) = readproto::multi_clock_windows(&doc.alphabet);
    for (local, window) in mm.locals().iter().zip([w1, w2]) {
        let mut trace = Vec::new();
        for _ in 0..100 {
            trace.extend(window.iter().copied());
            trace.push(Valuation::empty());
        }
        // local monitors share a scoreboard in deployment; stand-alone
        // they still co-simulate against their own compiled form
        assert_cosim_identical(local, &doc.alphabet, &trace);
    }
}

// ---------------------------------------------------------------------
// arbitrary charts × arbitrary traces × arbitrary chunking
// ---------------------------------------------------------------------

const SYMS: usize = 4;

fn arb_element() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0..SYMS, any::<bool>()), 0..3)
}

fn arb_pattern() -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(arb_element(), 1..5)
}

fn arb_trace(len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..(1 << SYMS) as u8, len)
}

fn arb_chunking() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..9, 0..8)
}

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
    for p in chart.extract_pattern() {
        if !cesc::expr::sat::is_satisfiable(&p) {
            return None;
        }
    }
    Some((ab, chart))
}

fn decode_trace(raw: &[u8]) -> Vec<Valuation> {
    raw.iter().map(|&b| Valuation::from_bits(b as u128)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cosim_matches_engine_on_arbitrary_charts(
        pattern in arb_pattern(),
        raw in arb_trace(120),
        chunking in arb_chunking(),
    ) {
        let Some((ab, chart)) = build_chart(&pattern) else { return Ok(()) };
        let Ok(monitor) = synthesize(&chart, &SynthOptions::default()) else { return Ok(()) };
        let trace = decode_trace(&raw);

        // one-shot agreement
        let reference = monitor.scan(trace.iter().copied());
        let report = cosim_scan(&monitor, &ab, &VerilogOptions::default(), trace.iter().copied());
        let report = match report {
            Ok(r) => r,
            Err(d) => panic!("divergence on generated chart: {d}"),
        };
        prop_assert!(report_agrees(&report, &reference));

        // chunked lock-step agreement (any chunking)
        let module = lower_monitor(&monitor, &ab, &VerilogOptions::default());
        let compiled = monitor.compiled();
        let mut cosim = CoSim::new(&module, &compiled);
        let mut rest: &[Valuation] = &trace;
        for &n in &chunking {
            let take = n.min(rest.len());
            let (head, tail) = rest.split_at(take);
            prop_assert!(cosim.feed(head).is_ok());
            rest = tail;
        }
        prop_assert!(cosim.feed(rest).is_ok());
        prop_assert_eq!(cosim.ticks(), reference.ticks);
        prop_assert_eq!(cosim.matches(), reference.matches.len() as u64);
    }
}

// ---------------------------------------------------------------------
// hostile counter-saturation streams
// ---------------------------------------------------------------------

/// Monitor whose scoreboard count for `a` grows by one every idle
/// cycle and is checked by a `Chk_evt` guard — the overflow probe no
/// chart-synthesized (self-balancing) monitor can express.
fn accumulator(ab: &mut Alphabet) -> Monitor {
    let a = ab.event("a");
    Monitor::from_parts(
        "accum",
        "clk",
        vec![
            vec![
                Transition {
                    guard: Expr::chk(a),
                    actions: vec![],
                    target: StateId::from_index(1),
                    kind: TransitionKind::Forward,
                },
                Transition {
                    guard: Expr::t(),
                    actions: vec![Action::AddEvt(vec![a])],
                    target: StateId::from_index(0),
                    kind: TransitionKind::Backward,
                },
            ],
            vec![Transition {
                guard: Expr::t(),
                actions: vec![Action::AddEvt(vec![a])],
                target: StateId::from_index(0),
                kind: TransitionKind::Backward,
            }],
        ],
        StateId::from_index(0),
        StateId::from_index(1),
        vec![Expr::chk(a)],
        vec![a],
    )
}

#[test]
fn wrapping_counters_regress_past_the_width() {
    // REGRESSION for the pre-fix emitter: `sb <= sb + 1` wraps at the
    // counter width, so a stream with more than 2^w net adds makes the
    // RTL read `sb == 0` while the engine scoreboard is still
    // positive — the match streams split. Saturating (default) mode
    // stays bit-identical on the same stream.
    let mut ab = Alphabet::new();
    let m = accumulator(&mut ab);
    let trace = vec![Valuation::empty(); 700]; // > 2^8 net adds

    for width in [2u32, 8] {
        let wrap = VerilogOptions {
            counter_width: Some(width),
            saturating: false,
            ..Default::default()
        };
        let err = cosim_scan(&m, &ab, &wrap, trace.iter().copied())
            .expect_err("wrapping counters must diverge past the width");
        assert!(err.engine_pulse && !err.rtl_pulse, "width {width}: {err}");

        let sat = VerilogOptions {
            counter_width: Some(width),
            saturating: true,
            ..Default::default()
        };
        let report = cosim_scan(&m, &ab, &sat, trace.iter().copied())
            .unwrap_or_else(|d| panic!("saturating width {width} diverged: {d}"));
        assert!(report_agrees(&report, &m.scan(trace.iter().copied())));
    }
}

#[test]
fn saturation_drain_limit_is_pinned() {
    // The documented residual gap of finite counters: once a counter
    // has saturated, enough deletes can drain the RTL to zero while
    // the engine's unbounded count is still positive. Pin the
    // behaviour so any change to the contract is deliberate.
    let mut ab = Alphabet::new();
    let a = ab.event("a");
    let add = ab.event("add");
    let del = ab.event("del");
    let m = Monitor::from_parts(
        "drain",
        "clk",
        vec![
            vec![
                Transition {
                    guard: Expr::sym(add),
                    actions: vec![Action::AddEvt(vec![a])],
                    target: StateId::from_index(0),
                    kind: TransitionKind::Backward,
                },
                Transition {
                    guard: Expr::sym(del) & Expr::chk(a),
                    actions: vec![Action::DelEvt(vec![a])],
                    target: StateId::from_index(1),
                    kind: TransitionKind::Forward,
                },
                Transition {
                    guard: Expr::t(),
                    actions: vec![],
                    target: StateId::from_index(0),
                    kind: TransitionKind::Backward,
                },
            ],
            vec![Transition {
                guard: Expr::t(),
                actions: vec![],
                target: StateId::from_index(0),
                kind: TransitionKind::Backward,
            }],
        ],
        StateId::from_index(0),
        StateId::from_index(1),
        vec![Expr::chk(a)],
        vec![a],
    );
    let opts = VerilogOptions {
        counter_width: Some(2), // saturates at 3
        saturating: true,
        ..Default::default()
    };
    let add_v = Valuation::of([add]);
    let del_v = Valuation::of([del]);

    // 6 adds (engine 6, RTL pinned at 3), then deletes: the RTL drains
    // to zero after 3, the engine stays positive until 6 — the 4th
    // delete observes diverging Chk_evt guards
    let mut trace = vec![add_v; 6];
    trace.extend(std::iter::repeat_n(del_v, 8));
    let err = cosim_scan(&m, &ab, &opts, trace).expect_err("drain past saturation diverges");
    assert!(err.engine_pulse && !err.rtl_pulse, "{err}");

    // within the width, the same shape is exact
    let mut trace = vec![add_v; 3];
    trace.extend(std::iter::repeat_n(del_v, 8));
    let report = cosim_scan(&m, &ab, &opts, trace.clone()).expect("within width: exact");
    assert!(report_agrees(&report, &m.scan(trace)));
}

#[test]
fn saturation_drain_boundary_is_exact() {
    // The precise contract of the residual gap pinned above: N adds
    // followed by a delete stream diverge **iff N exceeds the
    // saturation value**, and the first divergence lands exactly where
    // the RTL counter (pinned at sat) runs dry while the engine's
    // unbounded count is still positive.
    //
    // Every delete is a Forward transition into the accepting state,
    // and the accepting state takes one cycle to fall back to the
    // loop, so effective deletes land every other tick: the k-th
    // delete executes at tick N + 2(k-1). The RTL survives exactly
    // `sat` deletes, so the first diverging Chk_evt read is delete
    // sat+1 at tick N + 2*sat.
    let mut ab = Alphabet::new();
    let a = ab.event("a");
    let add = ab.event("add");
    let del = ab.event("del");
    let m = Monitor::from_parts(
        "drain",
        "clk",
        vec![
            vec![
                Transition {
                    guard: Expr::sym(add),
                    actions: vec![Action::AddEvt(vec![a])],
                    target: StateId::from_index(0),
                    kind: TransitionKind::Backward,
                },
                Transition {
                    guard: Expr::sym(del) & Expr::chk(a),
                    actions: vec![Action::DelEvt(vec![a])],
                    target: StateId::from_index(1),
                    kind: TransitionKind::Forward,
                },
                Transition {
                    guard: Expr::t(),
                    actions: vec![],
                    target: StateId::from_index(0),
                    kind: TransitionKind::Backward,
                },
            ],
            vec![Transition {
                guard: Expr::t(),
                actions: vec![],
                target: StateId::from_index(0),
                kind: TransitionKind::Backward,
            }],
        ],
        StateId::from_index(0),
        StateId::from_index(1),
        vec![Expr::chk(a)],
        vec![a],
    );
    let add_v = Valuation::of([add]);
    let del_v = Valuation::of([del]);

    for (width, sat) in [(2u32, 3u64), (3, 7)] {
        let opts = VerilogOptions {
            counter_width: Some(width),
            saturating: true,
            ..Default::default()
        };
        for n in 1..=(sat + 3) {
            // enough deletes to reach (and pass) the would-be boundary
            let mut trace = vec![add_v; n as usize];
            trace.extend(std::iter::repeat_n(del_v, 2 * sat as usize + 4));
            let result = cosim_scan(&m, &ab, &opts, trace.iter().copied());
            if n <= sat {
                let report = result.unwrap_or_else(|d| {
                    panic!("width {width}: {n} adds within saturation diverged: {d}")
                });
                assert!(report_agrees(&report, &m.scan(trace.iter().copied())));
            } else {
                let Err(err) = result else {
                    panic!("width {width}: {n} adds > {sat} must diverge");
                };
                assert_eq!(
                    err.tick,
                    n + 2 * sat,
                    "width {width}, {n} adds: wrong first-divergence tick"
                );
                assert!(err.engine_pulse && !err.rtl_pulse, "{err}");
            }
        }
    }
}
