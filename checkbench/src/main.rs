//! Helper binary of the `cesc check` benchmark (driven by `run.py`).
//!
//! ```text
//! checkbench gen   WORKLOAD SEED DIR [LEN]   write spec, dump, header-only dump, reference
//! checkbench setup DIR JOBS BUDGET_MS        repeat a small probe + the in-process set-up; times of both
//! checkbench trace DIR JOBS                  one traced per-layer pass
//! checkbench probe DIR                       the machine-speed probe over the dump
//! checkbench fleet DIR JOBS                  in-process check_fleet JSON over the dump
//! ```
//!
//! Every command prints one JSON line on stdout.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use cesc_checkbench::gen::DUMP_FILE;
use cesc_checkbench::probe::{probe, PROBE_BYTES, SETUP_PROBE_BYTES};
use cesc_checkbench::{fleet, generate, setup_once, traced, Workload};

/// Set-up repetitions run at least this often, even past the time budget.
const MIN_SETUP_REPS: usize = 5;
/// Set-up repetitions stop here even if the time budget is not spent.
const MAX_SETUP_REPS: usize = 1000;

fn run(args: &[String]) -> Result<(String, bool), String> {
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument {i}; see the usage in src/main.rs"))
    };
    let num = |i: usize| -> Result<u64, String> {
        let raw = arg(i)?;
        raw.parse()
            .map_err(|_| format!("`{raw}` is not a whole number"))
    };
    match arg(0)? {
        "gen" => {
            let w = Workload::from_name(arg(1)?)
                .ok_or_else(|| format!("unknown workload `{}`", args[1]))?;
            let len = match args.get(4) {
                Some(_) => num(4)? as usize,
                None => w.full_len(),
            };
            let bytes = generate(w, num(2)?, len, Path::new(arg(3)?)).map_err(|e| e.to_string())?;
            Ok((format!("{{\"bytes\":{bytes}}}"), false))
        }
        "setup" => {
            let (dir, jobs) = (Path::new(arg(1)?), num(2)? as usize);
            let budget = num(3)? as f64 / 1e3;
            let dump = dir.join(DUMP_FILE);
            let started = Instant::now();
            let (mut times, mut probes) = (Vec::new(), Vec::new());
            while times.len() < MIN_SETUP_REPS
                || (started.elapsed().as_secs_f64() < budget && times.len() < MAX_SETUP_REPS)
            {
                let t = Instant::now();
                probe(&dump, SETUP_PROBE_BYTES).map_err(|e| e.to_string())?;
                probes.push(t.elapsed().as_secs_f64());
                times.push(setup_once(dir, jobs)?);
            }
            let list = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
            Ok((
                format!(
                    "{{\"setup_s\":[{}],\"probe_s\":[{}]}}",
                    list(&times),
                    list(&probes)
                ),
                false,
            ))
        }
        "trace" => Ok((
            traced(Path::new(arg(1)?), num(2)? as usize)?.to_json(),
            false,
        )),
        "probe" => {
            let hash = probe(&Path::new(arg(1)?).join(DUMP_FILE), PROBE_BYTES)
                .map_err(|e| e.to_string())?;
            Ok((format!("{{\"hash\":{hash}}}"), false))
        }
        "fleet" => fleet(Path::new(arg(1)?), DUMP_FILE, num(2)? as usize),
        other => Err(format!(
            "unknown command `{other}`; see the usage in src/main.rs"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((out, failed)) => {
            println!("{}", out.trim_end());
            if failed {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("checkbench: {e}");
            ExitCode::FAILURE
        }
    }
}
