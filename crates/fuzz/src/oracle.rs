//! Differential verdict oracles: four independent implementations of
//! the same verdict function, cross-checked on every generated case.
//!
//! For a single-clock chart the four legs are
//!
//! 1. the **baseline engine** — the raw compilation of the synthesized
//!    monitor, scanned in one batch;
//! 2. the **optimized engine** — the pass-pipeline monitor compiled
//!    with the optimizing options, fed in arbitrary chunks;
//! 3. the **sharded fleet** — `cesc-par`'s worker threads over an
//!    arbitrary shard count and the same chunking, fed through
//!    `FleetFeeder::feed_global` as `cesc check` feeds it: the trace is
//!    lifted onto one period-1 domain per clock the fleet's members
//!    declare, so every member sees the whole trace;
//! 4. the **RTL interpreter** — the emitted Verilog evaluated
//!    cycle-accurately against the engine by `cesc-rtl`.
//!
//! A fifth leg cross-checks the *static* counter-bounds analysis
//! (`cesc_core::infer_bounds`, the basis of `cesc lint` and RTL width
//! inference) against the counts the monitor actually reaches: any
//! observed count above its inferred upper bound is a soundness
//! counterexample and fails the case like a verdict disagreement.
//!
//! A sixth leg covers the `cesc-obs` instrumentation itself: the
//! baseline and optimized fleets each run under their own enabled
//! registry, and the semantic counters they report (`engine.ticks`,
//! `engine.matches`, `engine.underflows`) must be identical — a
//! counter drifting from the verdicts the other legs agreed on is a
//! bug in the metrics plumbing, and fails the case the same way.
//!
//! A seventh leg cross-checks the *static prover*
//! (`cesc_core::prove_implication`, the engine behind `cesc prove`)
//! against the dynamic checker: an assert the prover discharged as
//! PROVED must never record a violation on the case's stimulus, and a
//! REFUTED assert's counterexample must have replayed through the
//! engine as a real violation. Either mismatch is a prover soundness
//! bug and fails the case.
//!
//! An eighth leg holds the compiled assert runner `cesc check` deploys
//! (`cesc_core::CompiledImplication`, through the serial and sharded
//! fleets on optimized tables, and alone on raw tables) to its
//! reference oracle, the interpreted `cesc_core::ImplicationChecker`:
//! verdict, fulfilled and outstanding obligations, violation count and
//! the kept violation records, in order, must all agree.
//!
//! Any disagreement is a [`Discrepancy`] carrying enough context to
//! replay and minimize the case. Assert compositions are checked
//! compiled (serial and sharded) vs interpreted, and multiclock specs
//! serial-vs-sharded over an interleaved global run.

use cesc_core::{
    infer_bounds, BoundsOptions, CompileOptions, CompiledImplication, CompiledMonitor,
    ImplicationChecker, MonitorExec, ScanReport, Verdict, Violation, VIOLATION_KEEP,
};
use cesc_expr::Valuation;
use cesc_hdl::VerilogOptions;
use cesc_par::{plan_shards, scan_sharded_global, Fleet, ParOptions};
use cesc_rtl::{cosim_scan, report_agrees};
use cesc_spec::{SpecSet, TargetRef};
use cesc_trace::{ClockDomain, ClockSet, GlobalRun, Trace};

/// Scans a compiled monitor over `trace` fed in `chunk`-sized pieces.
fn scan_chunked(monitor: &CompiledMonitor, trace: &[Valuation], chunk: usize) -> ScanReport {
    let mut exec = monitor.executor();
    let mut hits = Vec::new();
    for c in trace.chunks(chunk.max(1)) {
        exec.feed(c, &mut hits);
    }
    exec.finish(hits)
}

/// One single-clock differential case: a document, a stimulus trace
/// and the execution geometry.
#[derive(Debug, Clone)]
pub struct CaseInput {
    /// The specification source text.
    pub source: String,
    /// The stimulus trace.
    pub trace: Trace,
    /// Chunk size for the optimized-engine and fleet legs.
    pub chunk: usize,
    /// Shard count for the fleet leg.
    pub jobs: usize,
}

/// Where two implementations disagreed.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Which pair of legs diverged (e.g. `"optimized-engine"`).
    pub stage: String,
    /// The chart / spec / assert the verdicts were about.
    pub target: String,
    /// Human-readable detail of the two verdicts.
    pub detail: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.stage, self.target, self.detail)
    }
}

/// What a case that did not diverge looked like.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// The document was rejected by parse/synthesis (a legitimate
    /// outcome for generated input — errors are fine, panics are not).
    pub rejected: bool,
    /// Charts whose four legs all agreed.
    pub charts_checked: usize,
    /// Assert compositions whose serial, sharded and raw-table runs
    /// agreed with the interpreted checker.
    pub asserts_checked: usize,
    /// Of those, asserts whose antecedent completed at least once (the
    /// compiled-vs-interpreted leg compared real obligations).
    pub asserts_armed: usize,
    /// Asserts whose static proof agreed with the dynamic checker
    /// (PROVED never violated; REFUTED counterexample replayed).
    pub proofs_checked: usize,
    /// Total matches observed across agreeing charts (a campaign-level
    /// sanity signal that stimuli actually complete scenarios).
    pub matches: u64,
}

/// Runs the four-way differential plus the bound-soundness leg on
/// one case.
///
/// # Errors
///
/// Returns the first [`Discrepancy`] between any two legs.
pub fn run_case(input: &CaseInput) -> Result<CaseReport, Box<Discrepancy>> {
    let mut report = CaseReport::default();
    let set = match SpecSet::load(&input.source) {
        Ok(s) => s,
        Err(_) => {
            report.rejected = true;
            return Ok(report);
        }
    };
    let trace = input.trace.as_slice();
    let chunk = input.chunk.max(1);

    // compile every chart once; charts the pipeline rejects
    // (unsatisfiable grids etc.) are skipped, not failures
    let mut compiled_idx = Vec::new();
    for idx in 0..set.document().charts.len() {
        if set.chart_spec(idx).is_ok() {
            compiled_idx.push(idx);
        }
    }

    // leg 1 for every chart: the baseline engine, a raw compile of
    // the synthesized monitor
    let baselines: Vec<_> = compiled_idx
        .iter()
        .map(|&idx| {
            let spec = set.chart_spec(idx).expect("compiled above");
            let raw = spec.synthesized().compiled();
            (idx, scan_chunked(&raw, trace, trace.len()))
        })
        .collect();

    // leg 2: optimized engine, chunk-fed
    for &(idx, ref base) in &baselines {
        let spec = set.chart_spec(idx).expect("compiled above");
        let name = set.target_name(TargetRef::Chart(idx)).to_owned();
        let opt = scan_chunked(spec.compiled(), trace, chunk);
        if opt.matches != base.matches || opt.ticks != base.ticks || opt.underflows != base.underflows
        {
            return Err(Box::new(Discrepancy {
                stage: "optimized-engine".into(),
                target: name,
                detail: format!(
                    "baseline matches {:?} (ticks {}, underflows {}) vs optimized {:?} ({}, {})",
                    base.matches, base.ticks, base.underflows, opt.matches, opt.ticks,
                    opt.underflows
                ),
            }));
        }
    }

    // leg 3: the sharded fleet (charts + asserts in one fleet)
    let mut fleet = Fleet::new();
    let mut clock_names = Vec::new();
    for &(idx, _) in &baselines {
        let spec = set.chart_spec(idx).expect("compiled above");
        clock_names.push(spec.compiled().clock().to_owned());
        fleet.add_compiled(spec.compiled().clone());
    }
    let mut assert_names = Vec::new();
    let mut assert_idx = Vec::new();
    for idx in 0..set.document().compositions.len() {
        if let Ok(a) = set.assert_spec(idx) {
            assert_names.push(a.name().to_owned());
            assert_idx.push(idx);
            clock_names.push(a.clock().to_owned());
            fleet.add_assert(cesc_par::AssertSpec::from_compiled(a.compiled().clone()));
        }
    }
    if !fleet.is_empty() {
        let opts = ParOptions::default();
        let (clocks, run) = GlobalRun::lift(clock_names.iter().map(String::as_str), trace);
        let scan = |jobs| {
            let plan = plan_shards(&fleet, jobs);
            scan_sharded_global(&fleet, &plan, &clocks, &opts, run.as_slice(), chunk)
        };
        let sharded = scan(input.jobs);
        let serial = scan(1);
        for (i, &(idx, ref base)) in baselines.iter().enumerate() {
            let name = set.target_name(TargetRef::Chart(idx)).to_owned();
            let got = sharded.singles[i].log.all().unwrap_or(&[]);
            if got != base.matches.as_slice() || sharded.singles[i].ticks != base.ticks {
                return Err(Box::new(Discrepancy {
                    stage: "sharded-fleet".into(),
                    target: name,
                    detail: format!(
                        "baseline matches {:?} vs fleet({} jobs) {:?}",
                        base.matches, input.jobs, got
                    ),
                }));
            }
        }
        for (i, name) in assert_names.iter().enumerate() {
            // leg 8: the compiled runner, in the serial and sharded
            // fleets and alone on raw tables, against the interpreted
            // checker (which also holds serial and sharded equal)
            let (a, b) = (&serial.asserts[i], &sharded.asserts[i]);
            let spec = set.assert_spec(assert_idx[i]).expect("compiled above");
            let mut oracle =
                ImplicationChecker::new(spec.antecedent().clone(), spec.consequent().clone());
            oracle.scan(trace.iter().copied());
            let raw = CompiledImplication::new(
                name,
                spec.clock(),
                spec.antecedent(),
                spec.consequent(),
                &CompileOptions::raw(),
            );
            let mut st = raw.state();
            for c in trace.chunks(chunk) {
                raw.feed(&mut st, c);
            }
            let raw_outcome = AssertOutcome {
                verdict: st.verdict(),
                fulfilled: st.fulfilled(),
                outstanding: st.outstanding(),
                violation_count: st.violation_count(),
                violations: st.violations(),
            };
            let kept = oracle.violations().len().min(VIOLATION_KEEP);
            let expect = AssertOutcome {
                verdict: oracle.verdict(),
                fulfilled: oracle.fulfilled(),
                outstanding: oracle.outstanding(),
                violation_count: oracle.violation_count(),
                violations: &oracle.violations()[..kept],
            };
            let sharded_leg = format!("sharded fleet ({} jobs)", input.jobs);
            for (leg, got) in [
                ("serial fleet", AssertOutcome::of(a)),
                (sharded_leg.as_str(), AssertOutcome::of(b)),
                ("raw tables", raw_outcome),
            ] {
                if got != expect {
                    return Err(Box::new(Discrepancy {
                        stage: "compiled-assert".into(),
                        target: name.clone(),
                        detail: format!("interpreted checker {expect:?} vs {leg} {got:?}"),
                    }));
                }
            }
            report.asserts_checked += 1;
            report.asserts_armed += usize::from(a.antecedent_matches > 0);
        }

        // leg 7: the static prover against the dynamic checker — a
        // PROVED assert must never be violated by any stimulus, and a
        // REFUTED assert ships an engine-confirmed counterexample
        for (i, &comp) in assert_idx.iter().enumerate() {
            let Ok(proof) = set.proof(comp) else { continue };
            match proof.counterexample() {
                None if serial.asserts[i].violation_count > 0 => {
                    return Err(Box::new(Discrepancy {
                        stage: "prover-soundness".into(),
                        target: assert_names[i].clone(),
                        detail: format!(
                            "statically PROVED but the stimulus produced {} violation(s)",
                            serial.asserts[i].violation_count
                        ),
                    }));
                }
                Some(cx) if !cx.confirmed => {
                    return Err(Box::new(Discrepancy {
                        stage: "prover-replay".into(),
                        target: assert_names[i].clone(),
                        detail: format!(
                            "{}-tick counterexample did not replay as an engine violation",
                            cx.trace.len()
                        ),
                    }));
                }
                _ => {}
            }
            report.proofs_checked += 1;
        }
    }

    // leg 4: the RTL interpreter against the baseline verdicts
    for &(idx, ref base) in &baselines {
        let spec = set.chart_spec(idx).expect("compiled above");
        let name = set.target_name(TargetRef::Chart(idx)).to_owned();
        match cosim_scan(
            spec.monitor(),
            set.alphabet(),
            &VerilogOptions::default(),
            input.trace.iter(),
        ) {
            Err(d) => {
                return Err(Box::new(Discrepancy {
                    stage: "rtl-cosim".into(),
                    target: name,
                    detail: d.to_string(),
                }));
            }
            Ok(r) => {
                if !report_agrees(&r, base) {
                    return Err(Box::new(Discrepancy {
                        stage: "rtl-verdict".into(),
                        target: name,
                        detail: format!(
                            "engine matches {:?} vs RTL {:?}",
                            base.matches, r.matches
                        ),
                    }));
                }
            }
        }
        report.charts_checked += 1;
        report.matches += base.matches.len() as u64;
    }

    // leg 5: bound soundness — the static interval analysis
    // (`cesc_core::infer_bounds`, the basis of `cesc lint` and the
    // inferred RTL counter widths) must cover every count the
    // synthesized monitor actually reaches on the stimulus
    for &(idx, _) in &baselines {
        let spec = set.chart_spec(idx).expect("compiled above");
        let name = set.target_name(TargetRef::Chart(idx)).to_owned();
        if let Some(d) = bound_soundness(&name, spec, set.alphabet(), trace) {
            return Err(Box::new(d));
        }
    }

    // leg 6: obs counter equivalence — the baseline fleet (serial)
    // and the optimized fleet (sharded, arbitrary chunking) each run
    // under their own enabled registry; the semantic counters both
    // report must agree, so the instrumentation is held to the same
    // differential standard as the verdicts
    if let Some(d) = obs_counter_equivalence(&set, &baselines, trace, chunk, input.jobs) {
        return Err(Box::new(d));
    }
    Ok(report)
}

/// The verdict fields the compiled-assert leg compares.
#[derive(Debug, PartialEq)]
struct AssertOutcome<'a> {
    verdict: Verdict,
    fulfilled: u64,
    outstanding: usize,
    violation_count: u64,
    violations: &'a [Violation],
}

impl<'a> AssertOutcome<'a> {
    fn of(r: &'a cesc_par::AssertReport) -> Self {
        AssertOutcome {
            verdict: r.verdict,
            fulfilled: r.fulfilled,
            outstanding: r.outstanding,
            violation_count: r.violation_count,
            violations: &r.violations,
        }
    }
}

/// Leg 6 body: compares the `engine.*` counters recorded by a serial
/// baseline-fleet run against a sharded optimized-fleet run over the
/// same stimulus.
fn obs_counter_equivalence(
    set: &SpecSet,
    baselines: &[(usize, ScanReport)],
    trace: &[Valuation],
    chunk: usize,
    jobs: usize,
) -> Option<Discrepancy> {
    if baselines.is_empty() {
        return None;
    }
    let mut base_fleet = Fleet::new();
    let mut opt_fleet = Fleet::new();
    let mut clock_names = Vec::new();
    for &(idx, _) in baselines {
        let spec = set.chart_spec(idx).expect("compiled above");
        clock_names.push(spec.compiled().clock());
        base_fleet.add_compiled(spec.synthesized().compiled());
        opt_fleet.add_compiled(spec.compiled().clone());
    }
    let (clocks, run) = GlobalRun::lift(clock_names, trace);
    let obs_base = cesc_obs::Obs::enabled();
    let obs_opt = cesc_obs::Obs::enabled();
    let base_opts = ParOptions {
        obs: obs_base.clone(),
        ..ParOptions::default()
    };
    let opt_opts = ParOptions {
        obs: obs_opt.clone(),
        ..ParOptions::default()
    };
    scan_sharded_global(
        &base_fleet,
        &plan_shards(&base_fleet, 1),
        &clocks,
        &base_opts,
        run.as_slice(),
        run.len().max(1),
    );
    scan_sharded_global(
        &opt_fleet,
        &plan_shards(&opt_fleet, jobs),
        &clocks,
        &opt_opts,
        run.as_slice(),
        chunk,
    );
    let base_report = obs_base.report("fuzz");
    let opt_report = obs_opt.report("fuzz");
    for key in [
        cesc_obs::key::ENGINE_TICKS,
        cesc_obs::key::ENGINE_MATCHES,
        cesc_obs::key::ENGINE_UNDERFLOWS,
    ] {
        let (b, o) = (base_report.counter(key), opt_report.counter(key));
        if b != o {
            return Some(Discrepancy {
                stage: "obs-counters".into(),
                target: "<fleet>".into(),
                detail: format!("baseline registry {key}={b} vs optimized({jobs} jobs)={o}"),
            });
        }
    }
    None
}

/// Steps the *synthesized* monitor (the form the bounds were inferred
/// on) over `trace`, recording the maximum scoreboard count of every
/// tracked event, and reports a discrepancy when any observed count
/// exceeds its static upper bound — a counterexample to the abstract
/// interpretation's soundness.
fn bound_soundness(
    target: &str,
    spec: &cesc_spec::ChartSpec,
    ab: &cesc_expr::Alphabet,
    trace: &[Valuation],
) -> Option<Discrepancy> {
    let monitor = spec.synthesized();
    let bounds = infer_bounds(monitor, &BoundsOptions::default());
    let events = monitor.scoreboard_events();
    let mut maxima = vec![0u32; events.len()];
    let mut exec = MonitorExec::new(monitor);
    for &v in trace {
        exec.step(v);
        for (slot, &e) in events.iter().enumerate() {
            maxima[slot] = maxima[slot].max(exec.scoreboard().count(e));
        }
    }
    for (slot, &e) in events.iter().enumerate() {
        let Some(bound) = bounds.bound_for(e) else {
            continue;
        };
        if let Some(hi) = bound.hi {
            if u64::from(maxima[slot]) > hi {
                return Some(Discrepancy {
                    stage: "bound-soundness".into(),
                    target: target.to_owned(),
                    detail: format!(
                        "static bound of `{}` is {bound} but the monitor reached count {}",
                        ab.name(e),
                        maxima[slot]
                    ),
                });
            }
        }
    }
    None
}

/// One multiclock differential case: per-clock traces interleaved on a
/// generated schedule, checked serial-vs-sharded.
#[derive(Debug, Clone)]
pub struct MultiCaseInput {
    /// The specification source text (must contain a multiclock spec).
    pub source: String,
    /// `(clock name, period, phase, trace)` per domain.
    pub domains: Vec<(String, u64, u64, Trace)>,
    /// Chunk size for the fleet leg.
    pub chunk: usize,
    /// Shard count for the fleet leg.
    pub jobs: usize,
}

/// Runs the serial-vs-sharded differential on every multiclock spec
/// of the document.
///
/// # Errors
///
/// Returns the first [`Discrepancy`] between the two legs.
pub fn run_multiclock_case(input: &MultiCaseInput) -> Result<CaseReport, Box<Discrepancy>> {
    let mut report = CaseReport::default();
    let set = match SpecSet::load(&input.source) {
        Ok(s) => s,
        Err(_) => {
            report.rejected = true;
            return Ok(report);
        }
    };
    let mut clocks = ClockSet::new();
    let mut traces = Vec::new();
    for (name, period, phase, trace) in &input.domains {
        let id = clocks.add(ClockDomain::new(name, *period, *phase));
        traces.push((id, trace.clone()));
    }
    let run = match GlobalRun::interleave(&clocks, &traces) {
        Ok(r) => r,
        Err(_) => {
            // inconsistent schedule/length combination — a skip, the
            // campaign's length calculator should make this rare
            report.rejected = true;
            return Ok(report);
        }
    };

    for idx in 0..set.document().multiclock.len() {
        let Ok(spec) = set.multi_spec(idx) else { continue };
        let name = set.target_name(TargetRef::Multi(idx)).to_owned();
        let serial = spec.monitor().scan(&clocks, &run);

        let mut fleet = Fleet::new();
        fleet.add_compiled_multiclock(spec.compiled().clone());
        let sharded = scan_sharded_global(
            &fleet,
            &plan_shards(&fleet, input.jobs),
            &clocks,
            &ParOptions::default(),
            run.as_slice(),
            input.chunk.max(1),
        );
        let got = sharded.multis[0].log.all().unwrap_or(&[]);
        if got != serial.as_slice() {
            return Err(Box::new(Discrepancy {
                stage: "sharded-multiclock".into(),
                target: name,
                detail: format!(
                    "serial matches {:?} vs fleet({} jobs) {:?}",
                    serial, input.jobs, got
                ),
            }));
        }
        report.charts_checked += 1;
        report.matches += serial.len() as u64;
    }
    Ok(report)
}

/// Panic-freedom wrappers: the parsers and the VCD reader must reject
/// hostile input with an error, never a panic. Each returns the panic
/// payload if one escaped.
pub mod total {
    use cesc_expr::{Alphabet, NameResolution, SymbolKind};
    use cesc_trace::{GlobalVcdStream, VcdClockSpec};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn payload(e: Box<dyn std::any::Any + Send>) -> String {
        e.downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    }

    /// Drives the chart parser over arbitrary bytes (lossily decoded —
    /// the CLI path reads files as UTF-8, but the parser itself must
    /// be total on any `&str`).
    pub fn chart_parser(bytes: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(bytes);
        catch_unwind(AssertUnwindSafe(|| {
            let _ = cesc_chart::parse_document(&text);
        }))
        .map_err(payload)
    }

    /// Drives the guard-expression parser over arbitrary text.
    pub fn expr_parser(text: &str) -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut ab = Alphabet::new();
            let _ = cesc_expr::parse_expr(text, &mut ab, NameResolution::Intern(SymbolKind::Event));
        }))
        .map_err(payload)
    }

    /// Drives the streaming VCD reader on one clock (header parse +
    /// full drain) over arbitrary bytes.
    pub fn vcd_reader(bytes: &[u8]) -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut ab = Alphabet::new();
            for i in 0..4 {
                ab.event(&format!("e{i}"));
            }
            let specs = [VcdClockSpec::new("clk")];
            if let Ok(mut s) = GlobalVcdStream::from_reader(bytes, &ab, &specs) {
                let mut buf = Vec::new();
                while matches!(s.next_chunk(&mut buf, 64), Ok(n) if n > 0) {}
            }
        }))
        .map_err(payload)
    }

    /// Drives the multi-clock VCD reader over arbitrary bytes.
    pub fn global_vcd_reader(bytes: &[u8]) -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut ab = Alphabet::new();
            for i in 0..4 {
                ab.event(&format!("e{i}"));
            }
            let specs = [VcdClockSpec::new("clk1"), VcdClockSpec::new("clk2")];
            if let Ok(mut s) = GlobalVcdStream::from_reader(bytes, &ab, &specs) {
                let mut buf = Vec::new();
                while matches!(s.next_chunk(&mut buf, 64), Ok(n) if n > 0) {}
            }
        }))
        .map_err(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_protocols::bus_library_src;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bus_library_agrees_on_stimulus() {
        let set = SpecSet::load(&bus_library_src()).unwrap();
        let mut rng = StdRng::seed_from_u64(0xB05);
        let trace = crate::traces::stimulus_trace(&mut rng, &set, 120);
        let report = run_case(&CaseInput {
            source: bus_library_src(),
            trace,
            chunk: 7,
            jobs: 3,
        })
        .expect("bus library legs agree");
        assert!(!report.rejected);
        assert_eq!(report.charts_checked, 9);
    }

    #[test]
    fn hostile_bytes_never_panic_the_parsers() {
        let mut g = crate::gen::SpecGen::new(0xFEED);
        for _ in 0..50 {
            let bytes = g.hostile_bytes(256);
            total::chart_parser(&bytes).unwrap();
            total::vcd_reader(&bytes).unwrap();
            total::global_vcd_reader(&bytes).unwrap();
            let e = g.expr_input();
            total::expr_parser(&e).unwrap();
        }
    }

    #[test]
    fn multiclock_case_runs_clean() {
        // the Fig 2 read protocol through the multiclock differential
        let src = cesc_protocols::readproto::MULTI_CLOCK_SRC;
        let set = SpecSet::load(src).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let t1 = crate::traces::stimulus_trace(&mut rng, &set, 12);
        let t2 = crate::traces::stimulus_trace(&mut rng, &set, 12);
        let report = run_multiclock_case(&MultiCaseInput {
            source: src.to_owned(),
            domains: vec![
                ("clk1".into(), 1, 0, t1),
                ("clk2".into(), 1, 0, t2),
            ],
            chunk: 3,
            jobs: 2,
        })
        .expect("multiclock legs agree");
        assert!(!report.rejected);
        assert_eq!(report.charts_checked, 1);
    }
}
