//! Tier-1 fuzz gates: a bounded deterministic differential campaign
//! (baseline engine ≡ optimized engine ≡ sharded fleet ≡ RTL
//! interpreter on generated specs and traces), panic-freedom sweeps
//! over the parsers and VCD readers, and the AXI4-Lite/APB/Wishbone
//! libraries end-to-end through `cesc check --cosim` (the fleet's
//! verdict plus the emitted RTL against the engine, in one pass) on
//! clean *and* fault-injected generated traffic, at one and two jobs.
//!
//! `make verify-fuzz` runs the same machinery at a larger budget via
//! `cesc fuzz`; these tests keep a smaller always-on floor inside
//! `cargo test -q`.

use cesc::cli::{check_fleet, CheckOptions};
use cesc::expr::{SymbolKind, Valuation};
use cesc::fuzz::campaign::{run_differential, run_parser_sweep, run_vcd_sweep, CampaignConfig};
use cesc::protocols::faults::{fault_variants, Fault};
use cesc::protocols::{bus_scenarios, BusScenario};
use cesc::spec::SpecSet;
use cesc::trace::{write_vcd, Trace, VcdWriteOptions};

#[test]
fn smoke_differential_campaign_is_green() {
    let cfg = CampaignConfig {
        cases: 48,
        ..Default::default()
    };
    let report = run_differential(&cfg);
    assert!(report.is_green(), "{report}");
    assert_eq!(report.cases, 48);
    // the campaign must exercise real verdicts, not idle in reset
    assert!(report.charts_checked > 50, "{report}");
    assert!(report.matches > 0, "{report}");
    assert!(report.multis_checked > 0, "generated multiclock specs never ran: {report}");
}

/// Acceptance gate for the semantic layer: a fixed-seed 1,000-case
/// differential campaign with the prover cross-check leg enabled — on
/// every generated `implies(...)` assert the static verdict must agree
/// with the dynamic checker (PROVED ⇒ no violation on the generated
/// trace; REFUTED ⇒ the counterexample replays).
#[test]
fn thousand_case_campaign_cross_checks_the_prover() {
    let cfg = CampaignConfig {
        seed: 0xCE5C_F0A9,
        cases: 1000,
        ..Default::default()
    };
    let report = run_differential(&cfg);
    assert!(report.is_green(), "{report}");
    assert_eq!(report.cases, 1000);
    assert!(
        report.proofs_checked >= 200,
        "prover leg barely ran ({} proofs): {report}",
        report.proofs_checked
    );
}

#[test]
fn smoke_panic_freedom_sweeps_are_clean() {
    let cfg = CampaignConfig {
        cases: 60,
        ..Default::default()
    };
    let parser = run_parser_sweep(&cfg);
    assert!(parser.panics.is_empty(), "{parser}");
    let vcd = run_vcd_sweep(&cfg);
    assert!(vcd.panics.is_empty(), "{vcd}");
}

/// Compliant traffic for one bus scenario: the chart's witness window
/// repeated `repeats` times with idle gaps between.
fn clean_traffic(scenario: &BusScenario, set: &SpecSet, repeats: usize) -> Trace {
    let window = (scenario.window)(set.alphabet());
    let mut t = Trace::new();
    for _ in 0..repeats {
        t.push(Valuation::empty());
        for &v in &window {
            t.push(v);
        }
        t.push(Valuation::empty());
    }
    t
}

fn scenario_vcd(scenario: &BusScenario, set: &SpecSet, trace: &Trace) -> String {
    let opts = VcdWriteOptions {
        clock_name: scenario.clock.to_owned(),
        ..VcdWriteOptions::default()
    };
    write_vcd(trace, set.alphabet(), &opts)
}

/// Match count parsed from a `check_fleet` text report line
/// (`... — N occurrence(s) at times ...`).
fn occurrences(output: &str) -> usize {
    let tail = output
        .split("— ")
        .nth(1)
        .unwrap_or_else(|| panic!("no match summary in {output}"));
    tail.split(' ')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparsable match count in {output}"))
}

/// `cesc check --chart CHART --cosim --jobs JOBS` on one scenario's
/// dump: the fleet's verdict plus the chart's RTL-vs-engine result.
fn check_with_cosim(scenario: &BusScenario, vcd: &str, jobs: usize) -> cesc::cli::CheckOutcome {
    let opts = CheckOptions {
        jobs,
        cosim: true,
        ..CheckOptions::default()
    };
    check_fleet(scenario.src, &[scenario.chart.to_owned()], false, vcd.as_bytes(), None, &opts)
        .unwrap()
}

#[test]
fn bus_libraries_check_clean_traffic_end_to_end() {
    for scenario in bus_scenarios() {
        let set = SpecSet::load(scenario.src).unwrap();
        let trace = clean_traffic(&scenario, &set, 3);
        let vcd = scenario_vcd(&scenario, &set, &trace);

        for jobs in [1, 2] {
            let outcome = check_with_cosim(&scenario, &vcd, jobs);
            assert!(!outcome.failed, "{}: {}", scenario.chart, outcome.output);
            assert!(
                outcome.output.contains("DETECTED"),
                "{}: clean traffic not detected: {}",
                scenario.chart,
                outcome.output
            );
            assert_eq!(
                occurrences(&outcome.output),
                3,
                "{}: {}",
                scenario.chart,
                outcome.output
            );
            assert!(
                outcome.output.contains("  cosim: OK over"),
                "{}: RTL diverged on clean traffic: {}",
                scenario.chart,
                outcome.output
            );
        }
    }
}

#[test]
fn bus_libraries_survive_fault_injected_traffic() {
    for scenario in bus_scenarios() {
        let set = SpecSet::load(scenario.src).unwrap();
        let clean = clean_traffic(&scenario, &set, 2);
        let events = set.alphabet().ids_of_kind(SymbolKind::Event);
        let variants = fault_variants(&clean, &events);
        assert!(
            !variants.is_empty(),
            "{}: fault generator produced nothing",
            scenario.chart
        );

        let mut some_drop_reduced = false;
        for (fault, mutated) in &variants {
            let vcd = scenario_vcd(&scenario, &set, mutated);

            // the fleet path must stay total on protocol-violating
            // traffic, dropped events can only lose matches, and the RTL
            // interpreter must agree with the engine and the fleet on
            // every mutated trace — compliance is irrelevant to
            // equivalence
            for jobs in [1, 2] {
                let outcome = check_with_cosim(&scenario, &vcd, jobs);
                assert!(
                    !outcome.failed,
                    "{}: {fault:?} at --jobs {jobs}: {}",
                    scenario.chart,
                    outcome.output
                );
                assert!(outcome.output.contains("  cosim: OK over"), "{}", outcome.output);
                let got = occurrences(&outcome.output);
                if matches!(fault, Fault::DropEvent { .. }) {
                    assert!(got <= 2, "{}: {fault:?} grew matches: {got}", scenario.chart);
                    if got < 2 {
                        some_drop_reduced = true;
                    }
                }
            }
        }
        assert!(
            some_drop_reduced,
            "{}: no dropped event ever broke a scenario",
            scenario.chart
        );
    }
}
