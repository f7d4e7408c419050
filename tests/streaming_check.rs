//! End-to-end streaming check: large generated VCDs on disk are
//! verified by `cesc::cli::check_fleet` (the `cesc check` route)
//! through a `BufReader` — the deployment where the dump never fits in
//! memory. Exercises the full pipeline: `write_vcd_global_to` → file →
//! `GlobalVcdStream` → batch execution → summarised CLI report, for one
//! target per run and for `--jobs 4 --all-charts` over 100k+-tick
//! dumps: every chart, multiclock spec and `implies(...)` assertion
//! verified in one sharded pass.

use std::io::{BufWriter, Write as _};

use cesc::cli::{check_fleet, CheckOptions};
use cesc::core::{synthesize_multiclock, SynthOptions};
use cesc::expr::Valuation;
use cesc::trace::{
    write_vcd_global_to, ClockDomain, ClockSet, GlobalRun, GlobalStep, Trace, VcdWriteOptions,
};

const MULTI_SPEC: &str = r#"
scesc m1 on clk1 { instances { A } events { go } tick { A: go } }
scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
multiclock pair { charts { m1, m2 } cause go -> done; }
"#;

/// ≥100k ticks of compliant two-domain traffic: go on every clk1 tick
/// (even times), done on every clk2 tick (odd times) — one full-spec
/// match per odd time.
fn big_run(go: Valuation, done: Valuation, per_domain: usize) -> (ClockSet, GlobalRun) {
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements(vec![go; per_domain])),
            (c2, Trace::from_elements(vec![done; per_domain])),
        ],
    )
    .unwrap();
    (clocks, run)
}

#[test]
fn fleet_mode_checks_large_multiclock_vcd_via_streaming_reader() {
    const PER_DOMAIN: usize = 60_000; // 120k global steps total

    let doc = cesc::chart::parse_document(MULTI_SPEC).unwrap();
    let go = doc.alphabet.lookup("go").unwrap();
    let done = doc.alphabet.lookup("done").unwrap();
    let (clocks, run) = big_run(Valuation::of([go]), Valuation::of([done]), PER_DOMAIN);
    assert_eq!(run.len(), 2 * PER_DOMAIN);

    // the batch verdict must equal the step-wise verdict on the run
    let mm = synthesize_multiclock(doc.multiclock_spec("pair").unwrap(), &SynthOptions::default())
        .unwrap();
    let reference = mm.scan(&clocks, &run);
    assert_eq!(reference.len(), PER_DOMAIN, "one match per clk2 tick");
    assert_eq!(mm.scan_batch(&clocks, &run), reference);

    // dump to disk (streamed out, never one big String)...
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("big_multiclock.vcd");
    let owners = [Valuation::of([go]), Valuation::of([done])];
    {
        let mut w = BufWriter::new(std::fs::File::create(&path).unwrap());
        write_vcd_global_to(&mut w, &run, &clocks, &doc.alphabet, &owners, &VcdWriteOptions::default())
            .unwrap();
        w.flush().unwrap();
    }
    assert!(std::fs::metadata(&path).unwrap().len() > 1_000_000, "a real bulk dump");

    // ...and check it back through the CLI's streaming path
    let reader = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let names = ["pair".to_owned()];
    let out = check_fleet(MULTI_SPEC, &names, false, reader, None, &CheckOptions::default())
        .unwrap()
        .output;
    assert!(out.contains("DETECTED"), "{out}");
    assert!(out.contains(&format!("{PER_DOMAIN} occurrence(s)")), "{out}");
    assert!(out.contains(&format!("over {} global steps", 2 * PER_DOMAIN)), "{out}");
    // bulk traffic must come back summarised, not as 60k tick numbers
    assert!(out.contains(&format!("... {} more ...", PER_DOMAIN - 10)), "{out}");
    assert!(out.len() < 400, "summary stays short: {} bytes", out.len());

    std::fs::remove_file(&path).ok();
}

/// `MULTI_SPEC` plus a pure single-clock chart and an `implies(...)`
/// assertion, so `--all-charts` exercises every target kind at once.
const FLEET_SPEC: &str = r#"
scesc m1 on clk1 { instances { A } events { go } tick { A: go } }
scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
scesc ping on clk1 { instances { A } events { go } tick { A: go } }
scesc pong on clk1 { instances { A } events { go } tick { A: go } }
multiclock pair { charts { m1, m2 } cause go -> done; }
cesc gate { implies(ping, pong) }
"#;

#[test]
fn fleet_mode_checks_all_charts_over_100k_tick_dump_with_4_jobs() {
    const PER_DOMAIN: usize = 60_000; // 120k global steps total

    let doc = cesc::chart::parse_document(FLEET_SPEC).unwrap();
    let go = doc.alphabet.lookup("go").unwrap();
    let done = doc.alphabet.lookup("done").unwrap();
    let (clocks, run) = big_run(Valuation::of([go]), Valuation::of([done]), PER_DOMAIN);

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("big_fleet.vcd");
    let owners = [Valuation::of([go]), Valuation::of([done])];
    {
        let mut w = BufWriter::new(std::fs::File::create(&path).unwrap());
        write_vcd_global_to(&mut w, &run, &clocks, &doc.alphabet, &owners, &VcdWriteOptions::default())
            .unwrap();
        w.flush().unwrap();
    }

    // -- text report, 4 shard workers, every chart in one pass -------
    let reader = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let opts = CheckOptions {
        jobs: 4,
        ..Default::default()
    };
    let outcome = check_fleet(FLEET_SPEC, &[], true, reader, None, &opts).unwrap();
    assert!(!outcome.failed, "{}", outcome.output);
    let out = &outcome.output;
    // charts m1, m2, ping, pong + multiclock pair + assert gate
    assert!(out.contains("6 target(s)"), "{out}");
    assert!(out.contains(&format!("over {} global steps", 2 * PER_DOMAIN)), "{out}");
    assert!(out.contains("with 4 worker(s)"), "{out}");
    assert!(out.contains(&format!(
        "chart `m1` (clock clk1) over {PER_DOMAIN} sampled cycles: DETECTED — {PER_DOMAIN} occurrence(s)"
    )), "{out}");
    assert!(out.contains(&format!(
        "multiclock `pair` (clocks clk1, clk2): DETECTED — {PER_DOMAIN} occurrence(s)"
    )), "{out}");
    // the assert fulfils one obligation per tick; only the obligation
    // spawned by the final tick is still open when the stream ends
    assert!(out.contains(&format!(
        "assert `gate` (clock clk1) over {PER_DOMAIN} ticks: tracking — {} fulfilled, 1 outstanding",
        PER_DOMAIN - 1
    )), "{out}");
    // bulk matches stay summarised in fleet mode too
    assert!(out.contains("more ..."), "{out}");
    assert!(out.len() < 1200, "summary stays short: {} bytes", out.len());

    // -- JSON report from the same dump ------------------------------
    let reader = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let opts = CheckOptions {
        jobs: 4,
        json: true,
        ..Default::default()
    };
    let outcome = check_fleet(FLEET_SPEC, &[], true, reader, None, &opts).unwrap();
    let out = &outcome.output;
    assert!(out.contains("\"schema\":\"cesc-check/3\""), "{out}");
    // clk1 ticks at even times, clk2 at odd — one tick per global step
    assert!(out.contains(&format!("\"ticks\":{}", 2 * PER_DOMAIN)), "{out}");
    assert!(out.contains("\"exec_ms\":"), "{out}");
    assert!(out.contains(&format!("\"global_steps\":{}", 2 * PER_DOMAIN)), "{out}");
    assert!(out.contains("\"jobs\":4"), "{out}");
    assert!(out.contains("\"failed\":false"), "{out}");
    assert!(out.contains(&format!("\"matches\":{PER_DOMAIN}")), "{out}");
    assert!(out.contains("\"verdict\":\"tracking\""), "{out}");
    assert!(out.contains(&format!("\"fulfilled\":{}", PER_DOMAIN - 1)), "{out}");
    assert!(out.len() < 4000, "json stays bounded: {} bytes", out.len());

    // -- verdicts are jobs-invariant ---------------------------------
    let reader = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let serial = check_fleet(FLEET_SPEC, &[], true, reader, None, &CheckOptions::default());
    let serial = serial.unwrap();
    let reader = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let par = check_fleet(
        FLEET_SPEC,
        &[],
        true,
        reader,
        None,
        &CheckOptions {
            jobs: 4,
            ..Default::default()
        },
    )
    .unwrap();
    // identical reports modulo the worker count banner
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("checked "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&serial.output), strip(&par.output));

    std::fs::remove_file(&path).ok();
}

#[test]
fn cosim_mode_validates_rtl_over_100k_tick_dump_on_disk() {
    // `cesc check --cosim`: the emitted RTL of every basic chart is
    // interpreted against the engine over a ≥100k-tick on-disk dump,
    // streamed in constant memory, and agrees with the fleet's verdict.
    const PER_DOMAIN: usize = 60_000; // 120k global steps total

    let doc = cesc::chart::parse_document(FLEET_SPEC).unwrap();
    let go = doc.alphabet.lookup("go").unwrap();
    let done = doc.alphabet.lookup("done").unwrap();
    let (clocks, run) = big_run(Valuation::of([go]), Valuation::of([done]), PER_DOMAIN);

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("big_cosim.vcd");
    let owners = [Valuation::of([go]), Valuation::of([done])];
    {
        let mut w = BufWriter::new(std::fs::File::create(&path).unwrap());
        write_vcd_global_to(&mut w, &run, &clocks, &doc.alphabet, &owners, &VcdWriteOptions::default())
            .unwrap();
        w.flush().unwrap();
    }

    // the cosim pairs ride the fleet's pass at one and at several
    // workers; every target is checked, the basic charts co-simulated
    for jobs in [1, 3] {
        let reader = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        let opts = CheckOptions {
            jobs,
            cosim: true,
            ..CheckOptions::default()
        };
        let outcome = check_fleet(FLEET_SPEC, &[], true, reader, None, &opts).unwrap();
        assert!(!outcome.failed, "{}", outcome.output);
        let out = &outcome.output;
        assert!(out.contains("checked 6 target(s)"), "{out}");
        assert!(out.contains(&format!("over {} global steps", 2 * PER_DOMAIN)), "{out}");
        for (chart, clock) in [("m1", "clk1"), ("m2", "clk2")] {
            assert!(out.contains(&format!(
                "chart `{chart}` (clock {clock}) over {PER_DOMAIN} sampled cycles: DETECTED — \
                 {PER_DOMAIN} occurrence(s)"
            )), "{out}");
        }
        // basic charts m1, m2, ping, pong co-simulated; pair and gate
        // checked as usual
        assert_eq!(
            out.matches(&format!(
                "  cosim: OK over {PER_DOMAIN} cycles — {PER_DOMAIN} match(es)"
            ))
            .count(),
            4,
            "{out}"
        );
        assert!(out.contains("multiclock `pair` (clocks clk1, clk2): DETECTED"), "{out}");
        assert!(out.contains("assert `gate` (clock clk1)"), "{out}");
        assert!(out.len() < 2000, "report stays short: {} bytes", out.len());
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn fleet_mode_checks_large_single_clock_vcd_via_streaming_reader() {
    const TICKS: usize = 100_000;
    const SPEC: &str =
        "scesc pulse on clk { instances { M } events { p } tick { M: p } }";

    let doc = cesc::chart::parse_document(SPEC).unwrap();
    let p = doc.alphabet.lookup("p").unwrap();
    // single-clock bulk dumps ride the same streaming path via the
    // degenerate one-domain global writer
    let mut clocks = ClockSet::new();
    let c = clocks.add(ClockDomain::new("clk", 1, 0));
    let mut run = GlobalRun::new();
    for k in 0..TICKS as u64 {
        run.push(GlobalStep {
            time: k,
            ticks: vec![(c, if k % 2 == 0 { Valuation::of([p]) } else { Valuation::empty() })],
        });
    }

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("big_single.vcd");
    {
        let mut w = BufWriter::new(std::fs::File::create(&path).unwrap());
        write_vcd_global_to(
            &mut w,
            &run,
            &clocks,
            &doc.alphabet,
            &[Valuation::of([p])],
            &VcdWriteOptions::default(),
        )
        .unwrap();
        w.flush().unwrap();
    }

    let reader = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let names = ["pulse".to_owned()];
    let out = check_fleet(SPEC, &names, false, reader, None, &CheckOptions::default())
        .unwrap()
        .output;
    assert!(out.contains(&format!("over {TICKS} sampled cycles")), "{out}");
    assert!(out.contains(&format!("{} occurrence(s)", TICKS / 2)), "{out}");
    assert!(out.len() < 400, "summary stays short: {} bytes", out.len());

    std::fs::remove_file(&path).ok();
}

/// Two charts whose causality arrows stay inside their own chart: the
/// locals share no scoreboard symbol, so the spec is uncoupled and runs
/// clock-major.
const UNCOUPLED_SPEC: &str = r#"
scesc u1 on clk1 { instances { A, B } events { a1, b1 } tick { A: a1 } tick { B: b1 } cause a1 -> b1; }
scesc u2 on clk2 { instances { C, D } events { c2, d2 } tick { C: c2 } tick { D: d2 } cause c2 -> d2; }
multiclock duo { charts { u1, u2 } }
"#;

#[test]
fn fleet_mode_checks_an_uncoupled_multiclock_spec_clock_major() {
    use cesc::cli::StatsOptions;
    use cesc::obs::{key, Obs};

    let doc = cesc::chart::parse_document(UNCOUPLED_SPEC).unwrap();
    let sym = |n: &str| doc.alphabet.lookup(n).unwrap();
    let (a1, b1, c2, d2) = (sym("a1"), sym("b1"), sym("c2"), sym("d2"));
    // a seeded run: each domain drives only its own chart's events,
    // each event present on about a third of its clock's ticks
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut coin = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.is_multiple_of(3)
    };
    let mut local = |n: usize, events: [cesc::expr::SymbolId; 2]| -> Trace {
        (0..n)
            .map(|_| Valuation::of(events.into_iter().filter(|_| coin())))
            .collect()
    };
    let mut clocks = ClockSet::new();
    let k1 = clocks.add(ClockDomain::new("clk1", 2, 0)); // 0, 2, …, 5998
    let k2 = clocks.add(ClockDomain::new("clk2", 3, 1)); // 1, 4, …, 5998
    let (t1, t2) = (local(3_000, [a1, b1]), local(2_000, [c2, d2]));
    let run = GlobalRun::interleave(&clocks, &[(k1, t1), (k2, t2)]).unwrap();

    let mm = synthesize_multiclock(
        doc.multiclock_spec("duo").unwrap(),
        &SynthOptions::default(),
    )
    .unwrap();
    assert!(!mm.compiled().coupled(), "intra-chart arrows only");
    let opts = VcdWriteOptions::default();
    // the reader stamps each step with its rising edge's VCD time
    let expected: Vec<String> = mm
        .scan(&clocks, &run)
        .iter()
        .map(|t| (2 * t * opts.half_period).to_string())
        .collect();
    assert!(expected.len() > 10, "the seeded run matches: {expected:?}");
    let owners = [Valuation::of([a1, b1]), Valuation::of([c2, d2])];
    let vcd = cesc::trace::write_vcd_global(&run, &clocks, &doc.alphabet, &owners, &opts);

    for jobs in [1, 3] {
        let obs = Obs::enabled();
        let check = CheckOptions {
            jobs,
            json: true,
            all_matches: true,
            stats: StatsOptions {
                obs: obs.clone(),
                ..StatsOptions::default()
            },
            ..CheckOptions::default()
        };
        let names = ["duo".to_owned()];
        let out = check_fleet(UNCOUPLED_SPEC, &names, false, vcd.as_bytes(), None, &check)
            .unwrap()
            .output;
        let all = out
            .split("\"all\":[")
            .nth(1)
            .and_then(|r| r.split(']').next());
        let got: Vec<&str> = all.unwrap_or_else(|| panic!("{out}")).split(',').collect();
        assert_eq!(got, expected, "jobs {jobs}");
        let skipped = obs.report("check").counter(key::ENGINE_SKIP_TICKS);
        assert!(
            skipped > 0,
            "jobs {jobs}: the clock-major path takes idle-run skips"
        );
    }
}
