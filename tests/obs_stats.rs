//! Cross-layer observability properties: the `cesc-obs` registry
//! threaded through `cesc check` must (a) report *identical* semantic
//! counters for serial and sharded runs over the same dump — the
//! instrumentation is an oracle for the fleet executor, not just a
//! stopwatch — (b) record nothing at all when disabled, and (c) render
//! the documented `cesc-obs/1` JSON with per-stage span timings,
//! per-shard utilization and the reader's decode stats from a
//! `--jobs 4` run over a 120k-step dump.

use std::io::Write as _;

use cesc::cli::{check_fleet, finish_stats, CheckOptions, StatsOptions};
use cesc::expr::Valuation;
use cesc::obs::{key, Obs, OBS_JSON_SCHEMA};
use cesc::trace::{
    write_vcd_global_to, ClockDomain, ClockSet, GlobalRun, Trace, VcdWriteOptions,
};

/// Every target kind at once: four basic charts, one multiclock spec,
/// one `implies(...)` assertion (the same shape as the streaming-check
/// fleet suite).
const FLEET_SPEC: &str = r#"
scesc m1 on clk1 { instances { A } events { go } tick { A: go } }
scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
scesc ping on clk1 { instances { A } events { go } tick { A: go } }
scesc pong on clk1 { instances { A } events { go } tick { A: go } }
multiclock pair { charts { m1, m2 } cause go -> done; }
cesc gate { implies(ping, pong) }
"#;

/// An in-memory two-domain dump: go on every `every`-th clk1 tick
/// (even times), done on every `every`-th clk2 tick (odd times), all
/// other ticks idle — `2 * per_domain` global steps.
fn fleet_vcd(per_domain: usize, every: usize) -> Vec<u8> {
    let doc = cesc::chart::parse_document(FLEET_SPEC).unwrap();
    let go = Valuation::of([doc.alphabet.lookup("go").unwrap()]);
    let done = Valuation::of([doc.alphabet.lookup("done").unwrap()]);
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
    let pulses = |v: Valuation| {
        let idle = Valuation::empty();
        let ticks = (0..per_domain).map(|i| if i % every == 0 { v } else { idle });
        Trace::from_elements(ticks.collect::<Vec<_>>())
    };
    let run = GlobalRun::interleave(&clocks, &[(c1, pulses(go)), (c2, pulses(done))]).unwrap();
    let mut out = Vec::new();
    write_vcd_global_to(
        &mut out,
        &run,
        &clocks,
        &doc.alphabet,
        &[go, done],
        &VcdWriteOptions::default(),
    )
    .unwrap();
    out.flush().unwrap();
    out
}

/// Runs the fleet check over a fresh dump (see [`fleet_vcd`]) with
/// `jobs` workers and an enabled registry; returns the run's report.
fn run_with_jobs(per_domain: usize, every: usize, jobs: usize) -> cesc::obs::RunReport {
    let vcd = fleet_vcd(per_domain, every);
    let obs = Obs::enabled();
    let opts = CheckOptions {
        jobs,
        stats: StatsOptions {
            obs: obs.clone(),
            ..StatsOptions::default()
        },
        ..CheckOptions::default()
    };
    let outcome = check_fleet(FLEET_SPEC, &[], true, vcd.as_slice(), None, &opts).unwrap();
    // `gate` wants `pong` the tick after each `ping`: it passes on the
    // dense dump and fails on a sparse one
    assert_eq!(outcome.failed, every > 1, "{}", outcome.output);
    obs.report("check")
}

#[test]
fn serial_and_sharded_runs_report_identical_semantic_counters() {
    const PER_DOMAIN: usize = 5_000;
    // a sparse dump: the single-clock members idle between pulses
    let serial = run_with_jobs(PER_DOMAIN, 4, 1);
    let sharded = run_with_jobs(PER_DOMAIN, 4, 4);

    // the semantic tallies — what the monitors observed — must be
    // invariant under sharding; only the timing fields may differ
    for key in [
        key::ENGINE_TICKS,
        key::ENGINE_SKIP_TICKS,
        key::ENGINE_MATCHES,
        key::ENGINE_UNDERFLOWS,
        key::FLEET_STEPS,
        key::FLEET_TICKS,
        key::FLEET_CHUNKS,
        key::DECODE_LINES,
        key::DECODE_BYTES,
    ] {
        assert_eq!(serial.counter(key), sharded.counter(key), "counter `{key}`");
    }
    // folded on the calling thread, the fold is part of `decode`
    let decode = serial.span_ns("decode").unwrap();
    assert!(
        (1..=decode).contains(&serial.counter(key::DECODE_FOLD_NS)),
        "fold within {decode} ns"
    );
    // and they must be *live* tallies, not matching zeros: m1/ping/pong
    // tick on every clk1 edge, m2 on every clk2 edge
    assert_eq!(serial.counter(key::FLEET_STEPS), 2 * PER_DOMAIN as u64);
    assert_eq!(serial.counter(key::FLEET_TICKS), 2 * PER_DOMAIN as u64);
    assert!(serial.counter(key::ENGINE_TICKS) >= 4 * PER_DOMAIN as u64);
    let skipped = serial.counter(key::ENGINE_SKIP_TICKS);
    assert!(
        0 < skipped && skipped <= serial.counter(key::ENGINE_TICKS),
        "idle ticks are advanced by the idle-run scan: {skipped}"
    );
    assert!(serial.render_text().contains("% of engine.ticks)"));
    assert!(serial.counter(key::ENGINE_MATCHES) > 0, "compliant traffic matches");
    assert_eq!(serial.counter(key::ENGINE_UNDERFLOWS), 0);

    // shard accounting follows the worker count
    assert_eq!(serial.shards.len(), 1);
    assert_eq!(sharded.shards.len(), 4);
    assert_eq!(
        sharded.shards.iter().map(|s| s.members).sum::<usize>(),
        6,
        "every fleet member lands in exactly one shard"
    );
    for s in &sharded.shards {
        assert_eq!(s.steps, 2 * PER_DOMAIN as u64, "every shard sees every step");
        let u = s.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization in [0,1]: {u}");
    }
}

#[test]
fn disabled_registry_records_nothing_through_the_pipeline() {
    // CheckOptions::default() carries a disabled registry; check_fleet
    // must leave it untouched (it records into a private one instead)
    let obs = Obs::disabled();
    let opts = CheckOptions {
        jobs: 2,
        stats: StatsOptions {
            obs: obs.clone(),
            ..StatsOptions::default()
        },
        ..CheckOptions::default()
    };
    let vcd = fleet_vcd(500, 1);
    let outcome = check_fleet(FLEET_SPEC, &[], true, vcd.as_slice(), None, &opts).unwrap();
    assert!(!outcome.failed, "{}", outcome.output);

    let report = obs.report("check");
    assert!(report.counters.is_empty(), "{:?}", report.counters);
    assert!(report.gauges.is_empty(), "{:?}", report.gauges);
    assert!(report.histograms.is_empty());
    assert!(report.spans.is_empty(), "{:?}", report.spans);
    assert!(report.shards.is_empty());
    assert_eq!(report.wall_ns, 0, "disabled registry has no epoch");
}

#[test]
fn sharded_check_over_120k_step_dump_renders_schema_valid_stats_json() {
    const PER_DOMAIN: usize = 60_000; // 120k global steps, as deployed
    let report = run_with_jobs(PER_DOMAIN, 1, 4);
    let json = report.render_json();

    // one line, schema first, documented shape
    assert!(json.starts_with("{\"schema\":\"cesc-obs/1\",\"command\":\"check\""), "{json}");
    assert!(json.ends_with("}\n") && json.matches('\n').count() == 1, "one line");
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "balanced");
    assert_eq!(json.matches('[').count(), json.matches(']').count(), "balanced");

    // per-stage pipeline timings
    for stage in [
        "parse", "compile", "optimize", "plan", "decode", "execute", "render",
    ] {
        assert!(json.contains(&format!("{{\"name\":\"{stage}\",\"calls\":")), "{stage}: {json}");
        assert!(report.span_ns(stage).is_some(), "{stage} span recorded");
    }
    // one `decode` call per `next_chunk`, all of them inside `execute`
    let decode = report.spans.iter().find(|s| s.name == "decode").unwrap();
    let chunks = (2 * PER_DOMAIN).div_ceil(cesc::core::BATCH_CHUNK) as u64;
    assert_eq!(decode.calls, chunks + 1, "the last call reads end of input");
    assert!(decode.total_ns <= report.span_ns("execute").unwrap());
    // the producer stats: the body decoded in blocks on the caller
    // thread even at four jobs, so the block reads and the line decode
    // both happen inside `decode`
    assert!(report.counter(key::DECODE_BLOCKS) > 1, "{json}");
    assert!(
        report.counter(key::DECODE_READ_NS) + report.counter(key::DECODE_FOLD_NS)
            <= decode.total_ns,
        "{json}"
    );
    assert!(!json.contains("\"decode.wait_ns\""), "{json}");
    assert!(report.render_text().contains("decode:\n  blocks "));
    // every body line and byte after `$enddefinitions`, folded once
    let vcd = fleet_vcd(PER_DOMAIN, 1);
    const HEADER_END: &[u8] = b"$enddefinitions $end\n";
    let at = vcd
        .windows(HEADER_END.len())
        .position(|w| w == HEADER_END)
        .unwrap();
    let body = &vcd[at + HEADER_END.len()..];
    assert_eq!(
        report.counter(key::DECODE_BYTES),
        body.len() as u64,
        "{json}"
    );
    let lines = body.iter().filter(|&&b| b == b'\n').count() as u64;
    assert_eq!(report.counter(key::DECODE_LINES), lines, "{json}");
    assert!(report.counter(key::DECODE_FOLD_NS) > 0, "{json}");
    assert!(json.contains("\"decode.fold_ns\":"), "{json}");

    // semantic counters and per-shard utilization
    assert!(json.contains(&format!("\"fleet.steps\":{}", 2 * PER_DOMAIN)), "{json}");
    assert!(json.contains("\"engine.ticks\":"), "{json}");
    assert!(json.contains("\"shards\":[{\"shard\":0,"), "{json}");
    assert_eq!(json.matches("\"utilization\":").count(), 4, "one per shard: {json}");
}

#[test]
fn finish_stats_writes_the_json_report_file() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("obs_stats_report.json");

    let obs = Obs::enabled();
    let stats = StatsOptions {
        text: false,
        json_path: Some(path.clone()),
        obs: obs.clone(),
    };
    let opts = CheckOptions {
        jobs: 2,
        stats: stats.clone(),
        ..CheckOptions::default()
    };
    let vcd = fleet_vcd(1_000, 1);
    let outcome = check_fleet(FLEET_SPEC, &[], true, vcd.as_slice(), None, &opts).unwrap();
    assert!(!outcome.failed, "{}", outcome.output);
    finish_stats(&stats, "check").unwrap();

    let body = std::fs::read_to_string(&path).unwrap();
    assert!(
        body.starts_with(&format!("{{\"schema\":\"{OBS_JSON_SCHEMA}\",\"command\":\"check\"")),
        "{body}"
    );
    assert!(body.contains("\"name\":\"execute\""), "{body}");
    assert!(body.contains("\"utilization\":"), "{body}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_json_v3_reports_real_timing_fields_without_stats_flags() {
    // no stats flags at all: the cesc-check/3 fields must still carry
    // real values (check_fleet records into a private registry)
    let vcd = fleet_vcd(1_000, 1);
    let opts = CheckOptions {
        jobs: 2,
        json: true,
        ..CheckOptions::default()
    };
    let outcome = check_fleet(FLEET_SPEC, &[], true, vcd.as_slice(), None, &opts).unwrap();
    let out = &outcome.output;
    assert!(out.starts_with("{\"schema\":\"cesc-check/3\""), "{out}");
    assert!(out.contains("\"ticks\":2000"), "{out}");
    assert!(out.contains("\"wall_ms\":"), "{out}");
    // every target carries an exec_ms (4 charts + 1 multiclock + 1 assert)
    assert_eq!(out.matches("\"exec_ms\":").count(), 6, "{out}");
}
