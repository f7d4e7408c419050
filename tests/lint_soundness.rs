//! Tier-1 gates for the `cesc-lint` static analyses: the counter-bound
//! interval analysis must be *sound* (no monitor ever reaches a count
//! above its inferred upper bound), its findings must be independent of
//! the optimizer pipeline, vacuity-clean charts must actually be able
//! to match, and a finite inferred bound must yield an RTL counter
//! width that never diverges from the unbounded engine in co-simulation.
//!
//! `make verify-lint` drives the same analyses through the `cesc lint
//! --deny` CLI over the shipped example and protocol-library specs;
//! these tests keep the property-level floor inside `cargo test -q`.

use cesc::core::{synthesize, infer_bounds, BoundsOptions, Monitor, MonitorExec, SynthOptions};
use cesc::expr::Valuation;
use cesc::fuzz::gen::SpecGen;
use cesc::fuzz::traces::{random_trace, stimulus_trace};
use cesc::hdl::VerilogOptions;
use cesc::lint::{allows_in_source, lint, LintOptions, Rule};
use cesc::protocols::{bus_library_src, bus_scenarios};
use cesc::rtl::{cosim_scan, report_agrees};
use cesc::spec::{SpecOptions, SpecSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Steps `monitor` over `trace` and returns the maximum scoreboard
/// count observed for each tracked event, in
/// [`Monitor::scoreboard_events`] order.
fn observed_maxima(monitor: &Monitor, trace: &[Valuation]) -> Vec<u32> {
    let events = monitor.scoreboard_events();
    let mut maxima = vec![0u32; events.len()];
    let mut exec = MonitorExec::new(monitor);
    for &v in trace {
        exec.step(v);
        for (slot, &e) in events.iter().enumerate() {
            maxima[slot] = maxima[slot].max(exec.scoreboard().count(e));
        }
    }
    maxima
}

/// Asserts every observed count of every compilable chart of `set`
/// stays within its static bound on `trace`.
fn assert_bounds_cover(set: &SpecSet, trace: &[Valuation], ctx: &str) {
    for idx in 0..set.document().charts.len() {
        let Ok(spec) = set.chart_spec(idx) else { continue };
        let monitor = spec.synthesized();
        let bounds = infer_bounds(monitor, &BoundsOptions::default());
        let maxima = observed_maxima(monitor, trace);
        for (slot, &e) in monitor.scoreboard_events().iter().enumerate() {
            let Some(bound) = bounds.bound_for(e) else { continue };
            if let Some(hi) = bound.hi {
                assert!(
                    u64::from(maxima[slot]) <= hi,
                    "{ctx}: chart {} event {}: static bound {bound} but observed {}",
                    spec.compiled().name(),
                    set.alphabet().name(e),
                    maxima[slot]
                );
            }
        }
    }
}

#[test]
fn generated_bounds_cover_observed_maxima() {
    let mut g = SpecGen::new(0x11A7);
    for case in 0..60u64 {
        let doc = g.document();
        let Ok(set) = SpecSet::load(&doc.source) else { continue };
        let symbols = set.alphabet().len();
        let mut rng = StdRng::seed_from_u64(0x5EED ^ case);
        // stimulus traces complete scenarios (drive counts up through
        // real Add paths); random traces probe arbitrary interleavings;
        // several lengths catch widening transients
        for len in [7usize, 33, 96] {
            let stim = stimulus_trace(&mut rng, &set, len);
            assert_bounds_cover(&set, stim.as_slice(), "stimulus");
            let rand = random_trace(&mut rng, symbols, len);
            assert_bounds_cover(&set, rand.as_slice(), "random");
        }
    }
}

#[test]
fn bus_library_bounds_cover_compliant_and_random_traffic() {
    let set = SpecSet::load(&bus_library_src()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xB05);
    for scenario in bus_scenarios() {
        // several compliant windows back to back, then noise
        let mut trace: Vec<Valuation> = Vec::new();
        for _ in 0..4 {
            trace.push(Valuation::empty());
            trace.extend((scenario.window)(set.alphabet()));
        }
        assert_bounds_cover(&set, &trace, scenario.chart);
    }
    let noise = random_trace(&mut rng, set.alphabet().len(), 200);
    assert_bounds_cover(&set, noise.as_slice(), "bus noise");
}

#[test]
fn findings_stable_under_optimizer_on_generated_docs() {
    let mut g = SpecGen::new(0x0A7);
    for _ in 0..30 {
        let doc = g.document();
        let Ok(with_opt) = SpecSet::load(&doc.source) else { continue };
        let no_opt = SpecSet::load_with(
            &doc.source,
            SpecOptions {
                optimize: false,
                ..SpecOptions::new()
            },
        )
        .expect("same source compiles with the pipeline disabled");
        let a = lint(&with_opt, &LintOptions::default()).unwrap();
        let b = lint(&no_opt, &LintOptions::default()).unwrap();
        assert_eq!(a, b, "optimizer changed the lint report:\n{}", doc.source);
    }
}

#[test]
fn vacuity_clean_bus_charts_have_matching_witness() {
    let set = SpecSet::load(&bus_library_src()).unwrap();
    let report = lint(&set, &LintOptions::default()).unwrap();
    assert!(
        !report.findings.iter().any(|f| f.rule == Rule::Vacuity),
        "bus library charts must not be vacuous: {:?}",
        report.findings
    );
    // ...and non-vacuity is witnessed constructively: every chart's
    // compliant window actually completes the scenario
    for scenario in bus_scenarios() {
        let spec = set
            .chart_spec(set.chart_index(Some(scenario.chart)).unwrap())
            .unwrap();
        let mut trace = (scenario.window)(set.alphabet());
        trace.push(Valuation::empty());
        let r = spec.synthesized().scan(trace.iter().copied());
        assert!(r.detected(), "witness window of `{}` never matches", scenario.chart);
    }
}

#[test]
fn bus_library_is_deny_clean_with_its_annotations() {
    let src = bus_library_src();
    let set = SpecSet::load(&src).unwrap();
    let opts = LintOptions {
        allow: allows_in_source(&src),
        ..LintOptions::default()
    };
    let report = lint(&set, &opts).unwrap();
    let denied = report.denied();
    assert!(
        denied.is_empty(),
        "bus library must lint clean under its own annotations: {denied:?}"
    );
    // the annotations silence real findings, they are not dead weight
    assert!(
        report.findings.iter().any(|f| f.allowed),
        "expected allowed findings under the library's annotations"
    );
}

/// A chart whose refined synthesis (`fresh_add_guard`) gives the
/// scoreboard a provably finite bound, so the inferred RTL counter
/// width is minimal — and must still never diverge from the unbounded
/// engine scoreboard.
fn finite_bound_monitor() -> (cesc::chart::Document, Monitor) {
    let doc = cesc::chart::parse_document(
        "scesc hs on clk { instances { M } events { req, ack } \
         tick { M: req } tick { M: ack } cause req -> ack; }",
    )
    .unwrap();
    let m = synthesize(
        doc.chart("hs").unwrap(),
        &SynthOptions {
            fresh_add_guard: true,
            ..SynthOptions::default()
        },
    )
    .unwrap();
    (doc, m)
}

#[test]
fn inferred_minimal_width_never_diverges_in_cosim() {
    let (doc, m) = finite_bound_monitor();
    let bounds = infer_bounds(&m, &BoundsOptions::default());
    assert!(bounds.all_finite(), "refined synthesis must bound the count");
    let width = bounds.counter_width().expect("finite ⇒ width");
    assert_eq!(width, 1, "a [0,1] count needs exactly one bit");

    // drive traces that hammer the Add path: a saturating counter one
    // bit wide diverges immediately if the bound is wrong
    let mut rng = StdRng::seed_from_u64(0xC051);
    let symbols = doc.alphabet.len();
    for len in [16usize, 64, 160] {
        let trace = random_trace(&mut rng, symbols, len);
        let engine = m.scan(trace.iter());
        let cosim = cosim_scan(
            &m,
            &doc.alphabet,
            &VerilogOptions::default(), // counter_width: None → inferred (1 bit)
            trace.iter(),
        )
        .expect("cosim runs clean");
        assert!(
            report_agrees(&cosim, &engine),
            "1-bit inferred counter diverged: engine {:?} vs RTL {:?}",
            engine.matches,
            cosim.matches
        );
    }
}

/// The width inference is what the Verilog emitter actually uses: a
/// finite bound narrows the emitted counters, an unbounded chart keeps
/// the legacy 8-bit fallback.
#[test]
fn verilog_counter_width_follows_the_bounds() {
    let (doc, m) = finite_bound_monitor();
    let v = cesc::hdl::emit_verilog(&m, &doc.alphabet, &VerilogOptions::default());
    assert!(v.contains("reg [0:0] sb_req;"), "minimal width not used:\n{v}");

    // default synthesis of the same chart is unbounded → fallback width
    let loose = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap();
    let bounds = infer_bounds(&loose, &BoundsOptions::default());
    assert_eq!(bounds.counter_width(), None);
    let v = cesc::hdl::emit_verilog(&loose, &doc.alphabet, &VerilogOptions::default());
    assert!(v.contains("reg [7:0] sb_req;"), "fallback width not used:\n{v}");
}
