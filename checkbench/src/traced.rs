//! In-process passes over a generated workload: the traced per-layer
//! composition of the check route, the set-up timing, and a plain
//! `cesc::cli::check_fleet` call.
//!
//! The traced pass rebuilds `check_fleet` from the layers' public
//! calls — `SpecSet::load_with` → `chart_spec` / `multi_spec` /
//! `assert_spec` → `clock_plan` → `plan_shards` →
//! `GlobalVcdStream::from_reader` → `run_sharded`, with `next_chunk`
//! and `feed_global` in the drive loop — and times each call from the
//! outside, with the program's own `Obs` registry switched on for the
//! counters and shard stats it already records. Rendering is left out.

use std::fs::{self, File};
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

use cesc::cli::{check_fleet, CheckOptions};
use cesc_core::BATCH_CHUNK;
use cesc_obs::{key, Obs};
use cesc_par::{plan_shards, run_sharded, AssertSpec, Fleet, ParOptions};
use cesc_spec::{SpecOptions, SpecSet, TargetRef};
use cesc_trace::GlobalVcdStream;

use crate::gen::{DUMP_FILE, HEADER_FILE, SPEC_FILE};
use crate::verdict::{Tally, TargetVerdict, Verdicts, EDGE};

/// One traced pass: per-layer metrics in report order, plus the
/// verdicts it reached.
#[derive(Debug, Clone)]
pub struct Traced {
    pub layers: Vec<(&'static str, f64)>,
    pub verdicts: Verdicts,
}

impl Traced {
    /// `{"layers":{...},"verdicts":{...}}` on one line.
    pub fn to_json(&self) -> String {
        let layers = self
            .layers
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"layers\":{{{layers}}},\"verdicts\":{}}}",
            self.verdicts.to_json()
        )
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs the traced composition over `dir`'s spec and dump with `jobs`
/// shard workers.
///
/// The attribution `spec.* + trace.header_s + trace.decode_s +
/// par.feed_s + par.join_s` is checked against `traced.wall_s`; what it
/// leaves over is reported as `traced.unexplained_s`.
///
/// # Errors
///
/// Returns a message if a file cannot be read or the spec or dump is
/// rejected.
pub fn traced(dir: &Path, jobs: usize) -> Result<Traced, String> {
    let wall = Instant::now();
    let obs = Obs::enabled();

    // -- spec: parse, then synthesize + optimize every target ---------
    let t = Instant::now();
    let source = fs::read_to_string(dir.join(SPEC_FILE)).map_err(|e| e.to_string())?;
    let specs = SpecSet::load_with(
        &source,
        SpecOptions {
            obs: obs.clone(),
            ..SpecOptions::new()
        },
    )
    .map_err(|e| e.to_string())?;
    let load = t.elapsed();

    let t = Instant::now();
    let targets = specs.checkable_targets();
    let mut fleet = Fleet::new();
    let mut slots: Vec<(TargetRef, usize)> = Vec::with_capacity(targets.len());
    for &target in &targets {
        let idx = match target {
            TargetRef::Chart(i) => fleet.add_compiled(
                specs
                    .chart_spec(i)
                    .map_err(|e| e.to_string())?
                    .compiled()
                    .clone(),
            ),
            TargetRef::Multi(i) => fleet.add_compiled_multiclock(
                specs
                    .multi_spec(i)
                    .map_err(|e| e.to_string())?
                    .compiled()
                    .clone(),
            ),
            TargetRef::Assert(i) => {
                let a = specs.assert_spec(i).map_err(|e| e.to_string())?;
                fleet.add_assert(AssertSpec::new(
                    a.name(),
                    a.clock(),
                    a.antecedent().clone(),
                    a.consequent().clone(),
                ))
            }
        };
        slots.push((target, idx));
    }
    let compile = t.elapsed();

    let t = Instant::now();
    let plan = specs
        .clock_plan(&targets, None)
        .map_err(|e| e.to_string())?;
    let clock_specs = plan.vcd_specs();
    let clock_set = plan.clock_set();
    let shard_plan = plan_shards(&fleet, jobs.max(1));
    let planned = t.elapsed();

    // -- trace: header, then chunked decode inside the drive loop -----
    let t = Instant::now();
    let file = File::open(dir.join(DUMP_FILE)).map_err(|e| e.to_string())?;
    let bytes = file.metadata().map_err(|e| e.to_string())?.len();
    let mut stream =
        GlobalVcdStream::from_reader(BufReader::new(file), specs.alphabet(), &clock_specs)
            .map_err(|e| e.to_string())?;
    let header = t.elapsed();

    // -- engine + par: the sharded run --------------------------------
    let par_opts = ParOptions {
        keep_all_hits: false,
        edge: EDGE,
        obs: obs.clone(),
        ..ParOptions::default()
    };
    let (mut decode, mut feed, mut drive) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut steps, mut ticks, mut chunks) = (0u64, 0u64, 0u64);
    let mut drive_end = None;
    let (report, driven) =
        run_sharded(&fleet, &shard_plan, Some(&clock_set), &par_opts, |feeder| {
            let started = Instant::now();
            let mut chunk = Vec::new();
            let result = loop {
                let t = Instant::now();
                let n = match stream.next_chunk(&mut chunk, BATCH_CHUNK) {
                    Ok(n) => n,
                    Err(e) => break Err(e),
                };
                decode += t.elapsed();
                if n == 0 {
                    break Ok(());
                }
                steps += n as u64;
                chunks += 1;
                ticks += chunk.iter().map(|s| s.ticks.len() as u64).sum::<u64>();
                let t = Instant::now();
                feeder.feed_global(&chunk);
                feed += t.elapsed();
            };
            drive = started.elapsed();
            drive_end = Some(Instant::now());
            result
        });
    let join = drive_end.map_or(Duration::ZERO, |end| end.elapsed());
    let wall = wall.elapsed();
    driven.map_err(|e| e.to_string())?;

    // -- the program's own counters and shard stats -------------------
    let run = obs.report("check");
    let ns = |n: u64| n as f64 / 1e9;
    let single_s = ns(report.singles.iter().map(|r| r.exec_ns).sum());
    let multi_s = ns(report.multis.iter().map(|r| r.exec_ns).sum());
    let assert_s = ns(report.asserts.iter().map(|r| r.exec_ns).sum());
    let busy_s = single_s + multi_s + assert_s;
    let engine_ticks = run.counter(key::ENGINE_TICKS);
    let words = run.counter(key::ENGINE_WORDS);
    let single_ticks: u64 = report.singles.iter().map(|r| r.ticks).sum();
    let shard_busy: Vec<f64> = run.shards.iter().map(|s| ns(s.busy_ns)).collect();
    let shard_busy_s: f64 = shard_busy.iter().sum();
    // the direct path runs its one worker inline, so the worker is idle
    // whenever the drive loop is decoding; broadcast shards record
    // their queue wait themselves
    let shard_wait_s = if shard_plan.jobs() <= 1 {
        (secs(drive) - shard_busy_s).max(0.0)
    } else {
        ns(run.shards.iter().map(|s| s.wait_ns).sum())
    };
    let max_busy = shard_busy.iter().copied().fold(0.0, f64::max);
    let explained = load + compile + planned + header + decode + feed + join;
    let unexplained = secs(wall) - secs(explained);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let layers = vec![
        ("spec.load_s", secs(load)),
        ("spec.compile_s", secs(compile)),
        ("spec.plan_s", secs(planned)),
        ("spec.targets", targets.len() as f64),
        ("trace.header_s", secs(header)),
        ("trace.decode_s", secs(decode)),
        (
            "trace.decode_mb_per_s",
            ratio(bytes as f64 / 1e6, secs(decode)),
        ),
        ("trace.decode_share", ratio(secs(decode), secs(wall))),
        ("trace.bytes", bytes as f64),
        ("trace.steps", steps as f64),
        ("trace.ticks", ticks as f64),
        ("trace.chunks", chunks as f64),
        ("engine.busy_s", busy_s),
        ("engine.single_s", single_s),
        ("engine.multi_s", multi_s),
        ("engine.assert_s", assert_s),
        ("engine.ticks", engine_ticks as f64),
        (
            "engine.ns_per_tick",
            ratio(busy_s * 1e9, engine_ticks as f64),
        ),
        ("engine.words", words as f64),
        (
            "engine.dense_words",
            run.counter(key::ENGINE_DENSE_WORDS) as f64,
        ),
        (
            "engine.sliced_frac",
            ratio(64.0 * words as f64, single_ticks as f64),
        ),
        ("par.feed_s", secs(feed)),
        ("par.join_s", secs(join)),
        ("par.shard_busy_s", shard_busy_s),
        ("par.shard_wait_s", shard_wait_s),
        (
            "par.shard_util",
            ratio(shard_busy_s, shard_busy_s + shard_wait_s),
        ),
        (
            "par.imbalance",
            ratio(max_busy * shard_busy.len() as f64, shard_busy_s),
        ),
        ("traced.wall_s", secs(wall)),
        ("traced.unexplained_s", unexplained),
        ("traced.unexplained_share", ratio(unexplained, secs(wall))),
    ];

    let mut verdicts = Verdicts {
        global_steps: steps,
        ticks,
        targets: Vec::with_capacity(slots.len()),
    };
    for (target, idx) in slots {
        let v = match target {
            TargetRef::Chart(_) => {
                let r = &report.singles[idx];
                TargetVerdict::Chart {
                    log: Tally::from(&r.log),
                    ticks: r.ticks,
                    underflows: r.underflows,
                }
            }
            TargetRef::Multi(_) => {
                let r = &report.multis[idx];
                TargetVerdict::Multi {
                    log: Tally::from(&r.log),
                    underflows: r.underflows,
                }
            }
            TargetRef::Assert(_) => {
                let r = &report.asserts[idx];
                TargetVerdict::Assert {
                    verdict: r.verdict,
                    fulfilled: r.fulfilled,
                    outstanding: r.outstanding as u64,
                    ticks: r.ticks,
                    violation_count: r.violation_count,
                }
            }
        };
        verdicts
            .targets
            .push((specs.target_name(target).to_owned(), v));
    }
    Ok(Traced { layers, verdicts })
}

/// `cesc::cli::check_fleet --all-charts --json` in process over
/// `dir`'s spec and `dump` (a file name inside `dir`); returns the
/// report text and whether an assertion failed.
///
/// # Errors
///
/// Returns a message if a file cannot be read or the check fails.
pub fn fleet(dir: &Path, dump: &str, jobs: usize) -> Result<(String, bool), String> {
    let source = fs::read_to_string(dir.join(SPEC_FILE)).map_err(|e| e.to_string())?;
    let file = File::open(dir.join(dump)).map_err(|e| e.to_string())?;
    let opts = CheckOptions {
        jobs,
        json: true,
        ..CheckOptions::default()
    };
    let outcome = check_fleet(&source, &[], true, BufReader::new(file), None, &opts)
        .map_err(|e| e.to_string())?;
    Ok((outcome.output, outcome.failed))
}

/// One set-up measurement: [`fleet`] over the header-only dump —
/// parse, synthesis, optimization, planning and header, everything a
/// check pays before its first sample. Returns seconds.
///
/// # Errors
///
/// As [`fleet`]; a header-only dump that fails an assertion is an
/// error too.
pub fn setup_once(dir: &Path, jobs: usize) -> Result<f64, String> {
    let t = Instant::now();
    let (_, failed) = fleet(dir, HEADER_FILE, jobs)?;
    let s = secs(t.elapsed());
    if failed {
        return Err("an assertion failed on the header-only dump".to_owned());
    }
    Ok(s)
}
