//! `cesc` — command-line front end for the CESC monitor-synthesis
//! library (Gadkari & Ramesh, DATE 2005).
//!
//! ```sh
//! cesc render spec.cesc                        # ASCII chart + WaveDrom JSON
//! cesc synth  spec.cesc --format verilog       # RTL monitor module
//! cesc check  spec.cesc --all-charts --vcd dump.vcd --jobs 4 --json
//! cesc lint   spec.cesc --deny --json          # static analysis gate
//! cesc prove  spec.cesc --json                 # static implies(...) prover
//! cesc fuzz   --cases 1000 --seed 0xCE5CF022    # differential campaign
//! ```
//!
//! Exit status: `0` on success, `1` on usage/pipeline errors, `2` when
//! `check` finds a violated `implies(...)` assertion, `lint --deny`
//! finds a non-allowed error/warning, or `prove` statically refutes an
//! assertion — the CI-gate contract.

use std::process::ExitCode;

use cesc::cli::{self, SynthFormat};

/// Exit status when `check` reports a violated assertion.
const EXIT_VIOLATION: u8 = 2;

/// The options each spec command takes, as `cli::usage` lists them, or
/// `None` for an unknown command (`fuzz` parses its own). An option
/// outside its command's list is a usage error, never silently ignored.
fn options_of(command: &str) -> Option<&'static str> {
    Some(match command {
        "render" => "--chart",
        "synth" => {
            "--chart --format --force --no-opt --counter-width --all-charts --out-dir \
             --stats --stats-json"
        }
        "check" => {
            "--chart --all-charts --vcd --clock --jobs --json --all-matches --cosim --no-opt \
             --stats --stats-json --progress"
        }
        "lint" => "--chart --json --deny --allow --counter-width --stats --stats-json",
        "prove" => "--chart --json --corpus-out --stats --stats-json",
        _ => return None,
    })
}

fn run() -> Result<(String, bool), cli::CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    let Some(command) = it.next() else {
        return Err(cli::CliError::Usage(cli::usage().to_owned()));
    };
    if command == "fuzz" {
        // fuzz generates its own specs — no spec path, flags only
        let mut opts = parse_fuzz_flags(&mut it)?;
        if opts.stats.wants_report() {
            opts.stats.obs = cesc::obs::Obs::enabled();
        }
        let outcome = cli::fuzz(&opts);
        cli::finish_stats(&opts.stats, "fuzz")?;
        return Ok((outcome.output, outcome.failed));
    }
    let Some(spec_path) = it.next() else {
        return Err(cli::CliError::Usage(cli::usage().to_owned()));
    };
    let source = std::fs::read_to_string(spec_path)
        .map_err(|e| cli::CliError::Pipeline(format!("cannot read `{spec_path}`: {e}")))?;

    let mut charts: Vec<String> = Vec::new();
    let mut all_charts = false;
    let mut format = SynthFormat::Summary;
    let mut vcd_path: Option<String> = None;
    let mut clock: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut corpus_out: Option<String> = None;
    let mut force = false;
    let mut deny = false;
    let mut allow: Vec<String> = Vec::new();
    let mut counter_width: Option<u32> = None;
    let mut progress = false;
    let mut stats = cli::StatsOptions::default();
    let mut check_opts = cli::CheckOptions::default();
    let options = options_of(command);
    while let Some(flag) = it.next() {
        match flag {
            "--chart" => {
                charts.push(expect_value(&mut it, "--chart")?);
            }
            "--all-charts" => {
                all_charts = true;
            }
            "--format" => {
                format = SynthFormat::parse(&expect_value(&mut it, "--format")?)?;
            }
            "--vcd" => {
                vcd_path = Some(expect_value(&mut it, "--vcd")?);
            }
            "--clock" => {
                clock = Some(expect_value(&mut it, "--clock")?);
            }
            "--out-dir" => {
                out_dir = Some(expect_value(&mut it, "--out-dir")?);
            }
            "--corpus-out" => {
                corpus_out = Some(expect_value(&mut it, "--corpus-out")?);
            }
            "--force" => {
                force = true;
            }
            "--no-opt" => {
                check_opts.no_opt = true;
            }
            "--cosim" => {
                check_opts.cosim = true;
            }
            "--deny" => {
                deny = true;
            }
            "--allow" => {
                allow.push(expect_value(&mut it, "--allow")?);
            }
            "--counter-width" => {
                let raw = expect_value(&mut it, "--counter-width")?;
                counter_width =
                    Some(raw.parse::<u32>().ok().filter(|&w| (1..=64).contains(&w)).ok_or_else(
                        || {
                            cli::CliError::Usage(format!(
                                "--counter-width {raw}: expected an integer in 1..=64"
                            ))
                        },
                    )?);
            }
            "--jobs" => {
                let raw = expect_value(&mut it, "--jobs")?;
                check_opts.jobs = raw.parse::<usize>().ok().filter(|&j| j >= 1).ok_or_else(
                    || cli::CliError::Usage(format!("--jobs {raw}: expected a positive integer")),
                )?;
            }
            "--json" => {
                check_opts.json = true;
            }
            "--all-matches" => {
                check_opts.all_matches = true;
            }
            "--stats" => {
                stats.text = true;
            }
            "--stats-json" => {
                stats.json_path =
                    Some(std::path::PathBuf::from(expect_value(&mut it, "--stats-json")?));
            }
            "--progress" => {
                progress = true;
            }
            other => {
                return Err(cli::CliError::Usage(format!(
                    "unknown option `{other}`\n{}",
                    cli::usage()
                )))
            }
        }
        if let Some(known) = options.filter(|known| !known.split_whitespace().any(|o| o == flag)) {
            return Err(cli::CliError::Usage(format!(
                "option `{flag}` does not apply to {command} (it takes {known})"
            )));
        }
    }

    // --stats/--stats-json/--progress all need a live registry; the
    // default (no flags) keeps the whole pipeline on the disabled
    // no-op path
    if stats.wants_report() || progress {
        stats.obs = cesc::obs::Obs::enabled();
    }
    check_opts.stats = stats.clone();

    match command {
        // render/synth operate on one chart: a silently-dropped second
        // --chart would emit the wrong artifact, so reject it
        "render" | "synth" if charts.len() > 1 => Err(cli::CliError::Usage(format!(
            "{command} accepts a single --chart (got {}); only check takes several",
            charts.len()
        ))),
        "render" => Ok((cli::render(&source, charts.first().map(String::as_str))?, false)),
        "synth" if all_charts => {
            let out_dir = out_dir.ok_or_else(|| {
                cli::CliError::Usage("synth --all-charts requires --out-dir DIR".to_owned())
            })?;
            let out = cli::synth_all_with(
                &source,
                format,
                std::path::Path::new(&out_dir),
                force,
                !check_opts.no_opt,
                counter_width,
                &stats,
            )?;
            cli::finish_stats(&stats, "synth")?;
            Ok((out, false))
        }
        "synth" if out_dir.is_some() => Err(cli::CliError::Usage(
            "synth --out-dir requires --all-charts (one chart prints to stdout)".to_owned(),
        )),
        "synth" => {
            let out = cli::synth_with(
                &source,
                charts.first().map(String::as_str),
                format,
                force,
                !check_opts.no_opt,
                counter_width,
                &stats,
            )?;
            cli::finish_stats(&stats, "synth")?;
            Ok((out, false))
        }
        "lint" => {
            let outcome = cli::lint(
                &source,
                &charts,
                &cli::LintCliOptions {
                    json: check_opts.json,
                    deny,
                    allow,
                    counter_width,
                    stats: stats.clone(),
                },
            )?;
            cli::finish_stats(&stats, "lint")?;
            Ok((outcome.output, outcome.failed))
        }
        "prove" => {
            let outcome = cli::prove(
                &source,
                &charts,
                &cli::ProveCliOptions {
                    json: check_opts.json,
                    corpus_out,
                    stats: stats.clone(),
                },
            )?;
            cli::finish_stats(&stats, "prove")?;
            Ok((outcome.output, outcome.failed))
        }
        "check" => {
            if charts.is_empty() && !all_charts {
                return Err(cli::CliError::Usage(
                    "check requires --chart NAME (repeatable) or --all-charts".to_owned(),
                ));
            }
            let vcd_path = vcd_path.ok_or_else(|| {
                cli::CliError::Usage("check requires --vcd FILE".to_owned())
            })?;
            // stream the dump instead of reading it into memory: a
            // multi-GB waveform is checked line by line
            let file = std::fs::File::open(&vcd_path).map_err(|e| {
                cli::CliError::Pipeline(format!("cannot read `{vcd_path}`: {e}"))
            })?;
            let total_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
            let reader = std::io::BufReader::new(file);
            let outcome = if progress {
                // count dump bytes as they are consumed and report
                // steps/rate/%/ETA on stderr once a second while the
                // fleet streams; the heartbeat thread stops (joins) when
                // this branch's guard drops
                let counting = cesc::obs::CountingReader::new(reader);
                let bytes = (total_bytes > 0).then(|| (counting.cell(), total_bytes));
                let _heartbeat = cesc::obs::Heartbeat::start(
                    std::time::Duration::from_secs(1),
                    check_opts.stats.obs.counter(cesc::obs::key::FLEET_STEPS),
                    bytes,
                );
                cli::check_fleet(&source, &charts, all_charts, counting, clock.as_deref(), &check_opts)?
            } else {
                cli::check_fleet(&source, &charts, all_charts, reader, clock.as_deref(), &check_opts)?
            };
            cli::finish_stats(&stats, "check")?;
            Ok((outcome.output, outcome.failed))
        }
        other => Err(cli::CliError::Usage(format!(
            "unknown command `{other}`\n{}",
            cli::usage()
        ))),
    }
}

fn parse_fuzz_flags<'a>(
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<cli::FuzzOptions, cli::CliError> {
    let mut opts = cli::FuzzOptions::default();
    while let Some(flag) = it.next() {
        match flag {
            "--cases" => {
                opts.cases = parse_count(&expect_value(it, "--cases")?, "--cases")?;
            }
            "--trace-len" => {
                opts.trace_len = parse_count(&expect_value(it, "--trace-len")?, "--trace-len")?;
            }
            "--sweep-cases" => {
                opts.sweep_cases =
                    Some(parse_count(&expect_value(it, "--sweep-cases")?, "--sweep-cases")?);
            }
            "--seed" => {
                let raw = expect_value(it, "--seed")?;
                let parsed = raw
                    .strip_prefix("0x")
                    .map_or_else(|| raw.parse::<u64>(), |h| u64::from_str_radix(h, 16));
                opts.seed = parsed.map_err(|_| {
                    cli::CliError::Usage(format!("--seed {raw}: expected decimal or 0x-hex u64"))
                })?;
            }
            "--corpus-out" => {
                opts.corpus_out = Some(expect_value(it, "--corpus-out")?);
            }
            "--stats" => {
                opts.stats.text = true;
            }
            "--stats-json" => {
                opts.stats.json_path =
                    Some(std::path::PathBuf::from(expect_value(it, "--stats-json")?));
            }
            other => {
                return Err(cli::CliError::Usage(format!(
                    "unknown fuzz option `{other}`\n{}",
                    cli::usage()
                )))
            }
        }
    }
    Ok(opts)
}

fn parse_count(raw: &str, flag: &str) -> Result<usize, cli::CliError> {
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| cli::CliError::Usage(format!("{flag} {raw}: expected a positive integer")))
}

fn expect_value<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<String, cli::CliError> {
    it.next()
        .map(str::to_owned)
        .ok_or_else(|| cli::CliError::Usage(format!("{flag} requires a value")))
}

fn main() -> ExitCode {
    match run() {
        Ok((out, failed)) => {
            use std::io::Write as _;
            // `--all-matches | head` closes the pipe early; that is a
            // normal exit, not a panic
            let ok = if failed {
                ExitCode::from(EXIT_VIOLATION)
            } else {
                ExitCode::SUCCESS
            };
            match std::io::stdout().lock().write_all(out.as_bytes()) {
                Ok(()) => ok,
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ok,
                Err(e) => {
                    eprintln!("cesc: cannot write output: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("cesc: {e}");
            ExitCode::FAILURE
        }
    }
}
