//! Command-line interface logic for the `cesc` binary.
//!
//! Thin, testable wrappers over the library: each subcommand is a pure
//! function from arguments to output text, so the binary in
//! `src/main.rs` only parses `std::env::args` and prints.
//!
//! ```text
//! cesc render <spec.cesc> [--chart NAME]             ASCII + WaveDrom
//! cesc synth  <spec.cesc> [--chart NAME] [--format summary|dot|verilog|sva|testbench]
//!             [--force] [--no-opt] [--all-charts --out-dir DIR]
//! cesc check  <spec.cesc> (--chart NAME)... | --all-charts  --vcd FILE
//!             [--clock NAME] [--jobs N] [--json] [--all-matches] [--cosim] [--no-opt]
//! cesc lint   <spec.cesc> [--chart NAME]... [--json] [--deny] [--allow RULE]...
//!             [--counter-width N] [--no-opt]
//! cesc prove  <spec.cesc> [--chart NAME]... [--json] [--no-opt]
//!             [--corpus-out DIR]
//! ```
//!
//! Every route goes through **one** compilation front door:
//! [`cesc_spec::SpecSet`] parses and validates the document once,
//! resolves targets by name and compiles each target once into cached
//! artifacts — optimized by the pass pipeline (unreachable-state /
//! dead-transition pruning, guard CSE, scoreboard-slot narrowing)
//! unless `--no-opt` asks for the raw tables. The subcommands only
//! pick targets, stream waveforms and render reports.
//!
//! `check` has one library entry point, [`check_fleet`], the route the
//! binary runs: every selected chart, multiclock spec and
//! `implies(...)` assertion is verified in **one pass** over the dump,
//! optionally sharded across worker threads (`--jobs`), with text or
//! JSON ([`CHECK_JSON_SCHEMA`]) output and a CI-gating `failed` flag.
//! `--cosim` ([`CheckOptions::cosim`]) is a leg of that route, not a
//! second one: on the caller thread, each decoded chunk also drives
//! every basic chart's *interpreted emitted RTL* (`cesc-rtl`, lowered
//! from the **optimized** monitor) in lock-step with its
//! **unoptimized** batch engine (a raw compile of
//! [`cesc_spec::ChartSpec::synthesized`]), and the pair's agreed
//! counts must equal the sharded fleet's verdict for that chart. The
//! leg composes with `--jobs`, `--json` and `--progress`, so every
//! `--cosim` run is an end-to-end oracle for the pass pipeline and for
//! the verdict users get.

use std::fmt;
use std::io::BufRead;
use std::path::Path;

use cesc_chart::{render_ascii, Scesc};
use cesc_core::{analyze, infer_bounds, to_dot, BoundsOptions, BoundsReport, Verdict, BATCH_CHUNK};
use cesc_expr::Valuation;
use cesc_hdl::{
    emit_sva_cover, emit_testbench, emit_verilog, lower_monitor, sva_loses_scoreboard,
    SvaOptions, TestbenchOptions, VerilogOptions,
};
use cesc_obs::{key, Obs};
use cesc_par::{plan_shards, run_sharded, AssertSpec, Fleet, ParOptions};
use cesc_rtl::CoSim;
use cesc_spec::{SpecError, SpecOptions, SpecSet, TargetRef};
use cesc_trace::{ClockId, GlobalVcdStream};

use crate::json;

/// Error from a CLI command.
#[derive(Debug)]
pub enum CliError {
    /// Bad command-line usage; the string is the usage text to print.
    Usage(String),
    /// The spec failed to parse/validate, a chart was missing, or a
    /// stage of the pipeline failed.
    Pipeline(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(u) => write!(f, "usage: {u}"),
            CliError::Pipeline(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Maps a spec-layer error to the CLI error kind: `--clock` override
/// misuse is a usage error, everything else a pipeline failure.
fn lift(e: SpecError) -> CliError {
    match e {
        SpecError::ClockOverride(m) => CliError::Usage(m),
        other => CliError::Pipeline(other.to_string()),
    }
}

/// Loads the unified spec set — the single parse→validate→compile
/// front door every subcommand uses.
fn load(source: &str, optimize: bool) -> Result<SpecSet, CliError> {
    load_obs(source, optimize, Obs::disabled())
}

/// [`load`] with an observability registry: the spec layer records its
/// `parse`/`resolve`/`compile`/`optimize` span timings into `obs`.
fn load_obs(source: &str, optimize: bool, obs: Obs) -> Result<SpecSet, CliError> {
    SpecSet::load_with(
        source,
        SpecOptions {
            optimize,
            obs,
            ..SpecOptions::new()
        },
    )
    .map_err(lift)
}

/// Observability switches shared by every subcommand: the `--stats`,
/// `--stats-json FILE` and `--progress` flags plus the [`Obs`] registry
/// the run records into.
///
/// The default is a *disabled* registry: every counter/span call in the
/// pipeline is a no-op branch on `None`, so an uninstrumented run pays
/// nothing. The binary enables the registry when any stats flag is
/// given; [`finish_stats`] renders the report afterwards.
#[derive(Debug, Clone, Default)]
pub struct StatsOptions {
    /// Print the human-readable run report to **stderr** after the
    /// command (the `--stats` flag; stderr so it composes with
    /// `--json` on stdout).
    pub text: bool,
    /// Write the machine-readable [`cesc_obs::OBS_JSON_SCHEMA`] report
    /// to this file (the `--stats-json FILE` flag).
    pub json_path: Option<std::path::PathBuf>,
    /// The registry pipeline stages record into. Disabled by default.
    pub obs: Obs,
}

impl StatsOptions {
    /// Whether any rendering was requested (the registry may still be
    /// enabled without rendering, e.g. for `--progress`).
    pub fn wants_report(&self) -> bool {
        self.text || self.json_path.is_some()
    }
}

/// Renders the run report after a command completed: text to stderr
/// under [`StatsOptions::text`], the [`cesc_obs::OBS_JSON_SCHEMA`]
/// document to [`StatsOptions::json_path`]. A disabled registry (no
/// stats flags) is a no-op.
pub fn finish_stats(stats: &StatsOptions, command: &str) -> Result<(), CliError> {
    if !stats.obs.is_enabled() || !stats.wants_report() {
        return Ok(());
    }
    if let Some(kb) = cesc_obs::peak_rss_kb() {
        stats.obs.gauge(key::PROCESS_PEAK_RSS_KB).set(kb);
    }
    let report = stats.obs.report(command);
    if stats.text {
        eprint!("{}", report.render_text());
    }
    if let Some(path) = &stats.json_path {
        std::fs::write(path, report.render_json()).map_err(|e| {
            CliError::Pipeline(format!("cannot write `{}`: {e}", path.display()))
        })?;
    }
    Ok(())
}

/// `cesc render`: ASCII chart art plus WaveDrom JSON.
pub fn render(source: &str, chart: Option<&str>) -> Result<String, CliError> {
    let specs = load(source, false)?;
    let idx = specs.chart_index(chart).map_err(lift)?;
    let chart = &specs.document().charts[idx];
    let mut out = render_ascii(chart, specs.alphabet());
    out.push('\n');
    out.push_str(&cesc_chart::wavedrom::to_wavedrom_json(chart, specs.alphabet()));
    Ok(out)
}

/// Output format for `cesc synth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SynthFormat {
    /// Human-readable monitor table plus analysis statistics.
    #[default]
    Summary,
    /// Graphviz DOT.
    Dot,
    /// Verilog-2001 RTL module.
    Verilog,
    /// SystemVerilog assertions.
    Sva,
    /// Self-checking Verilog testbench driving the chart's witness
    /// trace into the emitted monitor module.
    Testbench,
}

impl SynthFormat {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "summary" => Ok(SynthFormat::Summary),
            "dot" => Ok(SynthFormat::Dot),
            "verilog" => Ok(SynthFormat::Verilog),
            "sva" => Ok(SynthFormat::Sva),
            "testbench" => Ok(SynthFormat::Testbench),
            other => Err(CliError::Usage(format!(
                "--format {other}: expected summary|dot|verilog|sva|testbench"
            ))),
        }
    }

    /// File extension used by `synth --all-charts --out-dir`.
    fn extension(self) -> &'static str {
        match self {
            SynthFormat::Summary => "txt",
            SynthFormat::Dot => "dot",
            SynthFormat::Verilog => "v",
            SynthFormat::Sva => "sv",
            SynthFormat::Testbench => "tb.v",
        }
    }
}

/// The chart's *witness trace*: one valuation per pattern element with
/// exactly the element's positive symbols high, plus one idle settling
/// tick — the canonical compliant run a testbench drives.
fn witness_trace(chart: &Scesc) -> Vec<cesc_expr::Valuation> {
    let mut trace: Vec<cesc_expr::Valuation> = chart
        .extract_pattern()
        .iter()
        .map(|p| p.positive_symbols())
        .collect();
    trace.push(cesc_expr::Valuation::empty());
    trace
}

/// Renders one chart in `format` (the shared body of [`synth`] and
/// [`synth_all`]), consuming the spec set's cached compiled artifact.
/// `counter_width` is the `--counter-width` override: `Some(w)` forces
/// every RTL scoreboard counter to `w` bits, `None` infers the width
/// from the counter-bounds analysis (see
/// [`cesc_hdl::resolve_counter_width`]).
fn synth_one(
    specs: &SpecSet,
    idx: usize,
    format: SynthFormat,
    force: bool,
    counter_width: Option<u32>,
) -> Result<String, CliError> {
    let doc = specs.document();
    let chart = &doc.charts[idx];
    if format == SynthFormat::Sva && sva_loses_scoreboard(chart) && !force {
        return Err(CliError::Pipeline(format!(
            "chart `{}` uses the scoreboard ({} causality arrow(s)); SVA has no scoreboard, so \
             the emitted property would be strictly weaker (Chk_evt guards rendered as 1'b1). \
             Use --format verilog for the full monitor, or pass --force to emit the weakened \
             SVA anyway.",
            chart.name(),
            chart.arrows().len()
        )));
    }
    // every format validates synthesizability first (SVA lowers the
    // chart directly, but an unsynthesizable chart must still error)
    let spec = specs.chart_spec(idx).map_err(lift)?;
    if format == SynthFormat::Sva {
        return Ok(emit_sva_cover(chart, &doc.alphabet, &SvaOptions::default()));
    }
    let monitor = spec.monitor();
    let vopts = VerilogOptions {
        counter_width,
        ..VerilogOptions::default()
    };
    Ok(match format {
        SynthFormat::Summary => {
            let stats = analyze(monitor);
            let mut out = format!(
                "{}\nanalysis: {} states, {} transitions ({} forward), max guard atoms {}, \
                 scoreboard slots +{}/-{}, clean: {}\n",
                monitor.display(&doc.alphabet),
                stats.states,
                stats.transitions,
                stats.forward_transitions,
                stats.max_guard_atoms,
                stats.add_slots,
                stats.del_slots,
                stats.is_clean()
            );
            let bounds = infer_bounds(spec.synthesized(), &BoundsOptions::default());
            out.push_str(&bounds_summary(&bounds, &doc.alphabet));
            match spec.report() {
                Some(report) => out.push_str(&format!("opt: {report}\n")),
                None => out.push_str("opt: disabled (--no-opt)\n"),
            }
            out
        }
        SynthFormat::Dot => to_dot(monitor, &doc.alphabet),
        SynthFormat::Verilog => emit_verilog(monitor, &doc.alphabet, &vopts),
        SynthFormat::Sva => unreachable!("handled above"),
        SynthFormat::Testbench => {
            let trace = witness_trace(chart);
            let expected = monitor.scan(trace.iter().copied()).matches.len() as u64;
            emit_testbench(
                monitor,
                &doc.alphabet,
                &trace,
                expected,
                &TestbenchOptions {
                    verilog: vopts,
                    ..TestbenchOptions::default()
                },
            )
        }
    })
}

/// The `bounds:` line of the synth summary: the inferred per-event
/// count intervals ([`infer_bounds`] on
/// [`cesc_spec::ChartSpec::synthesized`], the monitor as synthesized)
/// plus the RTL counter width they imply.
fn bounds_summary(bounds: &BoundsReport, ab: &cesc_expr::Alphabet) -> String {
    let intervals: Vec<String> = bounds
        .bounds()
        .map(|(e, b)| format!("{} in {b}", ab.name(e)))
        .collect();
    if intervals.is_empty() {
        return "bounds: no scoreboard counters; counter width 1\n".to_owned();
    }
    match bounds.counter_width() {
        Some(w) => format!("bounds: {}; counter width {w}\n", intervals.join(", ")),
        None => format!(
            "bounds: {}; unbounded — RTL counters fall back to {} bits and may saturate \
             (see `cesc lint`)\n",
            intervals.join(", "),
            cesc_hdl::DEFAULT_COUNTER_WIDTH
        ),
    }
}

/// `cesc synth`: synthesize the monitor and emit the chosen artifact
/// (optimization pipeline on — see [`synth_with`] for the `--no-opt`
/// form).
///
/// `force` overrides the hard error on `--format sva` for scoreboard
/// charts (whose SVA form is strictly weaker than the specification —
/// see [`cesc_hdl::sva_loses_scoreboard`]).
pub fn synth(
    source: &str,
    chart: Option<&str>,
    format: SynthFormat,
    force: bool,
) -> Result<String, CliError> {
    synth_with(source, chart, format, force, true, None, &StatsOptions::default())
}

/// [`synth`] with an explicit optimization switch (`optimize: false`
/// is the `--no-opt` flag: emit the monitor exactly as synthesized),
/// counter-width override (`counter_width: Some(w)` is the
/// `--counter-width` flag; `None` infers the width from the bounds
/// analysis) and stats registry (`--stats`: the compile-pipeline span
/// timings land in `stats.obs`).
pub fn synth_with(
    source: &str,
    chart: Option<&str>,
    format: SynthFormat,
    force: bool,
    optimize: bool,
    counter_width: Option<u32>,
    stats: &StatsOptions,
) -> Result<String, CliError> {
    let specs = load_obs(source, optimize, stats.obs.clone())?;
    let idx = specs.chart_index(chart).map_err(lift)?;
    let out = {
        let _span = stats.obs.span("emit");
        synth_one(&specs, idx, format, force, counter_width)?
    };
    Ok(out)
}

/// `cesc synth --all-charts --out-dir DIR`: emit one artifact file per
/// basic chart (named `<chart>.<ext>`), and — for the Verilog format —
/// one file per multiclock spec containing every local monitor module.
/// Returns a listing of the files written.
pub fn synth_all(
    source: &str,
    format: SynthFormat,
    out_dir: &Path,
    force: bool,
) -> Result<String, CliError> {
    synth_all_with(source, format, out_dir, force, true, None, &StatsOptions::default())
}

/// [`synth_all`] with an explicit optimization switch, counter-width
/// override and stats registry (see [`synth_with`]).
pub fn synth_all_with(
    source: &str,
    format: SynthFormat,
    out_dir: &Path,
    force: bool,
    optimize: bool,
    counter_width: Option<u32>,
    stats: &StatsOptions,
) -> Result<String, CliError> {
    let specs = load_obs(source, optimize, stats.obs.clone())?;
    let _emit_span = stats.obs.span("emit");
    let doc = specs.document();
    if doc.charts.is_empty() && doc.multiclock.is_empty() {
        return Err(CliError::Pipeline(
            "document contains no charts to synthesize".to_owned(),
        ));
    }
    std::fs::create_dir_all(out_dir).map_err(|e| {
        CliError::Pipeline(format!("cannot create `{}`: {e}", out_dir.display()))
    })?;
    let write = |path: &Path, content: &str| -> Result<(), CliError> {
        std::fs::write(path, content)
            .map_err(|e| CliError::Pipeline(format!("cannot write `{}`: {e}", path.display())))
    };
    // sanitize() is not injective (`a.b` and `a_b` both map to `a_b`),
    // so filenames get the same deterministic suffixing as port names
    // — a later chart must never overwrite an earlier chart's file
    let mut used_stems: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut stem_for = move |name: &str| -> String {
        let base = cesc_hdl::sanitize(name);
        if used_stems.insert(base.clone()) {
            return base;
        }
        (2u32..)
            .map(|n| format!("{base}_{n}"))
            .find(|s| used_stems.insert(s.clone()))
            .expect("u32 suffix space exhausted")
    };

    use std::fmt::Write as _;
    let mut listing = String::new();
    for (idx, chart) in doc.charts.iter().enumerate() {
        // bulk emission skips weakened-SVA charts with a note instead
        // of aborting the run halfway (single-chart synth still hard
        // errors); --force emits them like everything else
        if format == SynthFormat::Sva && sva_loses_scoreboard(chart) && !force {
            let _ = writeln!(
                listing,
                "skipped chart `{}` (scoreboard chart; SVA would be weaker — pass --force or \
                 use --format verilog)",
                chart.name()
            );
            continue;
        }
        let content = synth_one(&specs, idx, format, force, counter_width)?;
        let path = out_dir.join(format!("{}.{}", stem_for(chart.name()), format.extension()));
        write(&path, &content)?;
        let _ = writeln!(listing, "wrote {} (chart `{}`)", path.display(), chart.name());
    }
    for (idx, spec) in doc.multiclock.iter().enumerate() {
        if format != SynthFormat::Verilog {
            let _ = writeln!(
                listing,
                "skipped multiclock `{}` (only --format verilog emits multiclock specs)",
                spec.name()
            );
            continue;
        }
        let mm = specs.multi_spec(idx).map_err(lift)?;
        let mut content = String::new();
        for local in mm.monitor().locals() {
            let vopts = VerilogOptions {
                counter_width,
                ..VerilogOptions::default()
            };
            content.push_str(&emit_verilog(local, &doc.alphabet, &vopts));
            content.push('\n');
        }
        let path = out_dir.join(format!("{}.{}", stem_for(spec.name()), format.extension()));
        write(&path, &content)?;
        let _ = writeln!(
            listing,
            "wrote {} (multiclock `{}`, {} local module(s))",
            path.display(),
            spec.name(),
            mm.monitor().locals().len()
        );
    }
    Ok(listing)
}

/// Options for [`check_fleet`].
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Print every match tick/time instead of the default summary
    /// (count plus first/last [`MATCH_EDGE`] entries) — the
    /// `--all-matches` flag.
    pub all_matches: bool,
    /// Shard threads the fleet runs on (`--jobs N`; the planner caps
    /// shards at the member count). The calling thread decodes the dump
    /// and hands each chunk to the shards, so decode and engine
    /// overlap. At `N = 1` the one shard moves to a thread only once
    /// its first chunks show the engine bounding the run
    /// ([`cesc_par::PROBE_CHUNKS`]); a decode-bound run stays on the
    /// calling thread.
    pub jobs: usize,
    /// Emit the machine-readable JSON report ([`CHECK_JSON_SCHEMA`])
    /// instead of text — the `--json` flag.
    pub json: bool,
    /// Skip the optimization pass pipeline and run the monitors
    /// exactly as synthesized — the `--no-opt` flag.
    pub no_opt: bool,
    /// The `--cosim` leg: alongside the fleet, run each selected basic
    /// chart's emitted RTL (interpreted, lowered from the optimized
    /// monitor) against its unoptimized engine on the caller thread,
    /// from the same decoded chunks. A chart's result is OK only when
    /// the pair never diverged and agreed on the fleet's tick and
    /// match counts; anything else sets [`CheckOutcome::failed`].
    /// Composes with `jobs`, `json` and `--progress`; a selection
    /// without a basic chart is refused.
    pub cosim: bool,
    /// Observability switches (`--stats`/`--stats-json`/`--progress`).
    /// [`check_fleet`] records into an internal registry even when this
    /// one is disabled, so the JSON report's timing fields are always
    /// real; the flags only control whether a run report is rendered.
    pub stats: StatsOptions,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            all_matches: false,
            jobs: 1,
            json: false,
            no_opt: false,
            cosim: false,
            stats: StatsOptions::default(),
        }
    }
}

/// How many leading and trailing matches the default check summary
/// prints; everything in between is elided as a count.
pub const MATCH_EDGE: usize = 5;

/// The target selection of [`check_fleet`]: every checkable target
/// under `all_charts`, then each of `names` resolved in order
/// (duplicates dropped, order preserved). `--cosim` selects the same
/// targets; it adds its RTL-vs-engine pair to the basic charts among
/// them.
///
/// # Errors
///
/// An unknown name, a document with no checkable target under
/// `all_charts`, or an empty selection.
fn select_targets(
    specs: &SpecSet,
    names: &[String],
    all_charts: bool,
) -> Result<Vec<TargetRef>, CliError> {
    let mut targets: Vec<TargetRef> = Vec::new();
    if all_charts {
        targets = specs.checkable_targets();
        if targets.is_empty() {
            return Err(CliError::Pipeline(
                "document contains no checkable charts".to_owned(),
            ));
        }
    }
    for name in names {
        let t = specs.resolve(name).map_err(lift)?;
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    if targets.is_empty() {
        return Err(CliError::Usage(
            "check requires --chart NAME (repeatable) or --all-charts".to_owned(),
        ));
    }
    Ok(targets)
}

/// Result of a fleet-mode check: the rendered report plus the CI-gate
/// flag (`true` when any `implies(...)` assertion recorded a
/// violation or a `--cosim` pair failed — the binary exits nonzero).
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The rendered report (text, or JSON under
    /// [`CheckOptions::json`]).
    pub output: String,
    /// Whether any assertion target finished with a violation, or any
    /// `--cosim` pair diverged or disagreed with the fleet.
    pub failed: bool,
}

/// Identifier of the JSON report layout emitted by [`check_fleet`]
/// under [`CheckOptions::json`] (the report's `schema` field).
///
/// Layout (one object):
///
/// ```json
/// {
///   "schema": "cesc-check/3",
///   "global_steps": 120000,      // VCD instants at which any clock ticked
///   "ticks": 180000,             // per-clock samples fed across all clocks
///   "wall_ms": 412,              // wall-clock time of the whole check
///   "jobs": 4,                   // shard workers used
///   "failed": false,             // true iff an assert or a cosim pair failed
///   "targets": [
///     { "kind": "chart", "name": "hs", "clocks": ["clk"],
///       "verdict": "detected",   // "detected" | "not observed"
///       "matches": 12,           // total detections
///       "first": [0, 2],         // earliest detection times (≤ 5)
///       "last": [96, 98],        // latest detection times (≤ 5)
///       "all": [0, 2, 96, 98],   // only with --all-matches
///       "ticks": 60000,          // cycles the monitor consumed
///       "underflows": 0,         // Del_evt scoreboard underflows
///       "exec_ms": 12.416,       // time this monitor spent stepping
///       "opt": {                 // pass-pipeline report (absent with --no-opt)
///         "states": [3, 3],      // each entry is [before, after]
///         "transitions": [9, 7],
///         "guard_ops": [12, 8],
///         "slots": [6, 2],
///         "step_cost": [7, 5] },
///       "cosim": {               // only with --cosim
///         "verdict": "ok",       // "ok" | "diverged" | "mismatch"
///         "ticks": 60000,        // cycles RTL and raw engine agreed on
///         "matches": 12 } },     // detections they agreed on
///     { "kind": "multiclock", "name": "pair", "clocks": ["clk1", "clk2"],
///       "verdict": "detected", "matches": 3, "first": [5], "last": [5],
///       "underflows": 0, "exec_ms": 4.002, "opt": { ... } },
///     { "kind": "assert", "name": "gate", "clocks": ["clk"],
///       "verdict": "failed",     // idle | tracking | passed | failed
///       "fulfilled": 9,          // obligations fulfilled
///       "outstanding": 0,        // obligations open at stream end
///       "ticks": 60000,
///       "violation_count": 3,
///       "violations": [          // first 100, local tick indices
///         { "antecedent_at": 4, "failed_at": 7, "progress": 1 } ],
///       "antecedent_matches": 12, // antecedent completions; 0 = vacuous
///       "exec_ms": 1.250 }
///   ]
/// }
/// ```
///
/// Detection `first`/`last`/`all` entries are VCD times for every
/// target kind; assertion `*_at` fields are tick indices local to the
/// assertion's clock. `exec_ms` is the per-monitor stepping time
/// measured inside the shard workers (fractional milliseconds, three
/// decimals); `wall_ms` covers parse through render. An assert's
/// `antecedent_matches` counts its antecedent's completions, each of
/// which spawned one obligation: `0` means the assert was never armed,
/// so an `idle` verdict is vacuous (an additive `cesc-check/3` field).
/// Under `--cosim` every `chart` target (and no other kind) carries a
/// `cosim` object, another additive `cesc-check/3` field: `ok` when the
/// interpreted RTL and the raw engine agreed on every cycle and on the
/// fleet's `ticks` and `matches`; `mismatch` when they agreed with each
/// other but not with the fleet; `diverged` at their first
/// disagreement, which adds the [`cesc_rtl::Divergence`] fields
/// `tick`, `rtl_pulse`, `engine_pulse`, `rtl_state` and
/// `engine_state` (`ticks` and `matches` then are the RTL side's counts
/// through that cycle).
/// (`cesc-check/3` added `ticks`, `wall_ms` and per-target `exec_ms`
/// to `cesc-check/2`, which added the per-target `opt` object to
/// `cesc-check/1`; every `/2` field is unchanged.)
pub const CHECK_JSON_SCHEMA: &str = "cesc-check/3";

/// Violations listed per assert target in the JSON report; the total
/// is always in `violation_count`.
const JSON_VIOLATION_CAP: usize = 100;

/// One selected check target: its document reference, its slot in
/// the fleet's per-kind report space and, for a basic chart under
/// `--cosim`, the co-simulation result.
struct Slot {
    target: TargetRef,
    fleet: usize,
    cosim: Option<CosimResult>,
}

/// A basic chart's `--cosim` result: what its interpreted RTL and raw
/// engine agreed on, and their first divergence.
struct CosimResult {
    ticks: u64,
    matches: u64,
    divergence: Option<cesc_rtl::Divergence>,
}

impl CosimResult {
    /// `diverged`, else `ok` when the pair's counts equal the fleet's
    /// verdict for the chart, else `mismatch`.
    fn verdict(&self, fleet: &cesc_par::SingleReport) -> &'static str {
        match self.divergence {
            Some(_) => "diverged",
            None if self.ticks == fleet.ticks && self.matches == fleet.log.count() => "ok",
            None => "mismatch",
        }
    }
}

/// `cesc check`, fleet form: verify several charts — basic, multiclock
/// and `implies(...)` assertions — in **one pass** over the dump,
/// sharded across [`CheckOptions::jobs`] worker threads.
///
/// `names` selects targets by name (repeated `--chart`; duplicates are
/// deduplicated, order preserved); `all_charts` selects every basic
/// chart, multiclock spec and implication composition in the document.
/// Each basic chart and assertion is sampled on its chart's *declared*
/// clock; `clock_override` (the `--clock` flag) renames the sampled
/// VCD signal when the single-clock targets all share one declared
/// clock (it never applies to multiclock specs).
///
/// The dump is decoded on the caller thread ([`GlobalVcdStream`]) and
/// streamed in [`BATCH_CHUNK`]-sized [`cesc_trace::GlobalStep`] chunks
/// broadcast to the shard workers, and match accounting is
/// bounded ([`cesc_par::MatchLog`]) unless [`CheckOptions::all_matches`] asks
/// for every hit — memory stays constant in dump length and match
/// count.
///
/// All monitors come from the [`SpecSet`] cache, so they execute the
/// pass pipeline's compacted tables and the `cesc-par` planner shards
/// on post-optimization `step_cost` weights (`--no-opt` restores the
/// raw tables).
///
/// Under [`CheckOptions::cosim`] the same pass also co-simulates each
/// basic chart's emitted RTL against its unoptimized engine on the
/// caller thread, from the chunk just handed to the fleet; after the
/// run each pair's counts are compared with the fleet's verdict for
/// that chart (see [`CHECK_JSON_SCHEMA`] for the `cosim` result).
///
/// The returned [`CheckOutcome::failed`] is the CI gate: `true` iff
/// any assertion target recorded a violation or a `--cosim` pair
/// diverged or disagreed with the fleet.
pub fn check_fleet(
    source: &str,
    names: &[String],
    all_charts: bool,
    vcd: impl BufRead,
    clock_override: Option<&str>,
    opts: &CheckOptions,
) -> Result<CheckOutcome, CliError> {
    // the fleet route always records into a live registry — when the
    // user passed no stats flag this is a private throwaway, so the
    // JSON report's ticks/wall_ms/exec_ms are real either way
    let obs = opts.stats.obs.or_enabled();
    let wall = std::time::Instant::now();
    let specs = load_obs(source, !opts.no_opt, obs.clone())?;
    let targets = select_targets(&specs, names, all_charts)?;

    // -- build the fleet from the cached compiled artifacts ----------
    let mut fleet = Fleet::new();
    let mut slots: Vec<Slot> = Vec::with_capacity(targets.len());
    for &target in &targets {
        let fleet_idx = match target {
            TargetRef::Chart(i) => {
                fleet.add_compiled(specs.chart_spec(i).map_err(lift)?.compiled().clone())
            }
            TargetRef::Multi(i) => fleet
                .add_compiled_multiclock(specs.multi_spec(i).map_err(lift)?.compiled().clone()),
            TargetRef::Assert(i) => fleet.add_assert(AssertSpec::from_compiled(
                specs.assert_spec(i).map_err(lift)?.compiled().clone(),
            )),
        };
        slots.push(Slot {
            target,
            fleet: fleet_idx,
            cosim: None,
        });
    }

    // -- assemble the sampled clocks and shard layout ----------------
    let plan_span = obs.span("plan");
    let plan = specs.clock_plan(&targets, clock_override).map_err(lift)?;
    let clock_specs = plan.vcd_specs();
    let clock_set = plan.clock_set();
    let shard_plan = plan_shards(&fleet, opts.jobs.max(1));
    drop(plan_span);

    // -- the --cosim leg: each basic chart's RTL, lowered from the
    // optimized monitor, against its raw engine, so the diff spans the
    // whole pass pipeline ---------------------------------------------
    let mut units = Vec::new();
    for (slot, s) in slots.iter().enumerate().filter(|_| opts.cosim) {
        if let TargetRef::Chart(i) = s.target {
            let spec = specs.chart_spec(i).map_err(lift)?;
            let chart = &specs.document().charts[i];
            let clock = plan.slot_of(chart.clock()).expect("every chart registered its clock");
            let vopts = VerilogOptions::default();
            let module = lower_monitor(spec.monitor(), specs.alphabet(), &vopts);
            let raw = spec.synthesized().compiled();
            units.push((slot, ClockId::from_index(clock), module, raw));
        }
    }
    if opts.cosim && units.is_empty() {
        return Err(CliError::Pipeline(
            "--cosim: the selection contains no basic charts to co-simulate (multiclock specs \
             and compositions have no single emitted module)"
                .to_owned(),
        ));
    }
    let mut sims: Vec<(usize, ClockId, CoSim<'_>)> = units
        .iter()
        .map(|(slot, clock, module, raw)| (*slot, *clock, CoSim::new(module, raw)))
        .collect();

    // -- stream the dump through the sharded fleet -------------------
    let mut stream = GlobalVcdStream::from_reader(vcd, specs.alphabet(), &clock_specs)
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    for warning in undeclared_symbol_warnings(&specs, &targets, stream.declared_symbols()) {
        eprintln!("cesc: warning: {warning}");
    }
    let par_opts = ParOptions {
        keep_all_hits: opts.all_matches,
        edge: MATCH_EDGE,
        obs: obs.clone(),
    };
    let tick_counter = obs.counter(key::FLEET_TICKS);
    let mut ticks = 0u64;
    let exec_span = obs.span("execute");
    let (report, driven) =
        run_sharded(&fleet, &shard_plan, Some(&clock_set), &par_opts, |feeder| {
            let mut chunk = Vec::new();
            let mut steps = 0u64;
            loop {
                // `decode` runs inside `execute`: the rest of `execute`
                // is the engine plus the shard hand-off
                let n = obs
                    .time("decode", || stream.next_chunk(&mut chunk, BATCH_CHUNK))
                    .map_err(|e| CliError::Pipeline(e.to_string()))?;
                if n == 0 {
                    return Ok(steps);
                }
                steps += n as u64;
                tick_counter.add(stream.ticks() - ticks);
                ticks = stream.ticks();
                if !sims.is_empty() {
                    // on the caller thread, before the chunk is handed
                    // off; a diverged pair stays poisoned and is read
                    // after the run
                    obs.time("cosim", || {
                        for step in &chunk {
                            for (_, clock, sim) in &mut sims {
                                if let Some(v) = step.tick_of(*clock) {
                                    let _ = sim.step(v);
                                }
                            }
                        }
                    });
                }
                // the chunk goes to the shards without a copy; a
                // recycled buffer comes back for the next decode
                feeder.hand_off(&mut chunk);
            }
        });
    drop(exec_span);
    obs.counter(key::DECODE_BLOCKS).add(stream.blocks_decoded());
    obs.counter(key::DECODE_FOLD_NS).add(stream.fold_ns());
    obs.counter(key::DECODE_READ_NS).add(stream.read_ns());
    obs.counter(key::DECODE_LINES).add(stream.lines());
    obs.counter(key::DECODE_BYTES).add(stream.bytes());
    let steps: u64 = driven?;
    let mut failed = report.any_failed();
    if !sims.is_empty() {
        obs.counter(key::COSIM_TICKS).add(sims.iter().map(|(_, _, s)| s.ticks()).sum());
        obs.counter(key::COSIM_MATCHES).add(sims.iter().map(|(_, _, s)| s.matches()).sum());
        obs.counter(key::COSIM_DIVERGENCES)
            .add(sims.iter().filter(|(_, _, s)| s.divergence().is_some()).count() as u64);
    }
    for (slot, _, sim) in &sims {
        let result = CosimResult {
            ticks: sim.ticks(),
            matches: sim.matches(),
            divergence: sim.divergence(),
        };
        failed |= result.verdict(&report.singles[slots[*slot].fleet]) != "ok";
        slots[*slot].cosim = Some(result);
    }

    // -- render ------------------------------------------------------
    let wall_ms = u64::try_from(wall.elapsed().as_millis()).unwrap_or(u64::MAX);
    let output = {
        let _span = obs.span("render");
        if opts.json {
            render_json(&specs, &slots, &report, steps, ticks, wall_ms, shard_plan.jobs(), failed)
        } else {
            render_text(&specs, &slots, &report, steps, shard_plan.jobs())
        }
    };
    Ok(CheckOutcome { output, failed })
}

/// One line per symbol the selected targets read that no `$var` in the
/// dump declares — it reads as 0 throughout, so a verdict can quietly
/// turn NOT OBSERVED — naming the targets that read it.
fn undeclared_symbol_warnings(
    specs: &SpecSet,
    targets: &[TargetRef],
    declared: Valuation,
) -> Vec<String> {
    let read = targets
        .iter()
        .fold(Valuation::empty(), |acc, &t| acc | specs.target_symbols(t));
    Valuation::from_bits(read.bits() & !declared.bits())
        .iter()
        .map(|sym| {
            let users: Vec<&str> = targets
                .iter()
                .filter(|&&t| specs.target_symbols(t).contains(sym))
                .map(|&t| specs.target_name(t))
                .collect();
            format!(
                "signal `{}` is not declared in the VCD and reads as 0 (used by {})",
                specs.alphabet().name(sym),
                users.join(", ")
            )
        })
        .collect()
}

fn verdict_word(detected: bool) -> &'static str {
    if detected {
        "DETECTED"
    } else {
        "NOT OBSERVED"
    }
}

fn render_text(
    specs: &SpecSet,
    slots: &[Slot],
    report: &cesc_par::FleetReport,
    steps: u64,
    jobs: usize,
) -> String {
    use std::fmt::Write as _;
    let doc = specs.document();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "checked {} target(s) over {} global steps with {} worker(s)",
        slots.len(),
        steps,
        jobs
    );
    for slot in slots {
        match slot.target {
            TargetRef::Chart(chart) => {
                let c = &doc.charts[chart];
                let r = &report.singles[slot.fleet];
                let _ = writeln!(
                    out,
                    "chart `{}` (clock {}) over {} sampled cycles: {} — {} occurrence(s) at \
                     times {}, scoreboard underflows {}",
                    c.name(),
                    c.clock(),
                    r.ticks,
                    verdict_word(r.log.detected()),
                    r.log.count(),
                    r.log.render(),
                    r.underflows
                );
                if let Some(cs) = &slot.cosim {
                    let verdict = cs.verdict(r);
                    let detail = match cs.divergence {
                        Some(d) => d.to_string(),
                        None if verdict == "ok" => "interpreted RTL == raw engine == fleet".into(),
                        None => format!(
                            "the fleet reported {} cycles and {} match(es)",
                            r.ticks,
                            r.log.count()
                        ),
                    };
                    let _ = writeln!(
                        out,
                        "  cosim: {} over {} cycles — {} match(es), {detail}",
                        verdict.to_uppercase(),
                        cs.ticks,
                        cs.matches
                    );
                }
            }
            TargetRef::Multi(spec) => {
                let m = &doc.multiclock[spec];
                let r = &report.multis[slot.fleet];
                let clocks: Vec<&str> = m.charts().iter().map(Scesc::clock).collect();
                let _ = writeln!(
                    out,
                    "multiclock `{}` (clocks {}): {} — {} occurrence(s) at times {}, \
                     scoreboard underflows {}",
                    m.name(),
                    clocks.join(", "),
                    verdict_word(r.log.detected()),
                    r.log.count(),
                    r.log.render(),
                    r.underflows
                );
            }
            TargetRef::Assert(assert) => {
                let spec = specs.assert_spec(assert).expect("compiled during fleet build");
                let r = &report.asserts[slot.fleet];
                let _ = write!(
                    out,
                    "assert `{}` (clock {}) over {} ticks: {} — {} fulfilled, {} outstanding",
                    spec.name(),
                    spec.clock(),
                    r.ticks,
                    r.verdict,
                    r.fulfilled,
                    r.outstanding
                );
                if let Some(first) = r.violations.first() {
                    let _ = write!(
                        out,
                        ", {} violation(s); first: antecedent at tick {}, stuck at tick {}",
                        r.violation_count,
                        first.antecedent_at,
                        first.failed_at
                    );
                }
                match r.antecedent_matches {
                    0 => out.push_str("; antecedent never completed"),
                    n => {
                        let _ = write!(out, "; antecedent completed {n} time(s)");
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

/// Renders the pass-pipeline report of one target as the `"opt"` JSON
/// field (empty string when the pipeline did not run).
fn json_opt(report: Option<&cesc_spec::PassReport>) -> String {
    match report {
        Some(r) => format!(
            ",\"opt\":{{\"states\":{},\"transitions\":{},\"guard_ops\":{},\"slots\":{},\
             \"step_cost\":[{},{}]}}",
            json::pair(r.states),
            json::pair(r.transitions),
            json::pair(r.guard_ops),
            json::pair(r.slots),
            r.step_cost.0,
            r.step_cost.1,
        ),
        None => String::new(),
    }
}

/// The `"cosim"` JSON field of a chart target (empty string without
/// `--cosim`).
fn json_cosim(cosim: Option<&CosimResult>, fleet: &cesc_par::SingleReport) -> String {
    let Some(c) = cosim else {
        return String::new();
    };
    let divergence = c.divergence.map_or(String::new(), |d| {
        format!(
            ",\"tick\":{},\"rtl_pulse\":{},\"engine_pulse\":{},\"rtl_state\":{},\
             \"engine_state\":{}",
            d.tick, d.rtl_pulse, d.engine_pulse, d.rtl_state, d.engine_state
        )
    });
    format!(
        ",\"cosim\":{{\"verdict\":{},\"ticks\":{},\"matches\":{}{divergence}}}",
        json::string(c.verdict(fleet)),
        c.ticks,
        c.matches
    )
}

/// The per-target `exec_ms` JSON field: per-monitor stepping time in
/// fractional milliseconds (three decimals).
fn json_exec_ms(exec_ns: u64) -> String {
    format!(",\"exec_ms\":{:.3}", exec_ns as f64 / 1e6)
}

#[allow(clippy::too_many_arguments)] // one call site; mirrors the schema fields
fn render_json(
    specs: &SpecSet,
    slots: &[Slot],
    report: &cesc_par::FleetReport,
    steps: u64,
    ticks: u64,
    wall_ms: u64,
    jobs: usize,
    failed: bool,
) -> String {
    let doc = specs.document();
    let mut items: Vec<String> = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.target {
            TargetRef::Chart(chart) => {
                let c = &doc.charts[chart];
                let r = &report.singles[slot.fleet];
                let opt = json_opt(
                    specs
                        .chart_spec(chart)
                        .expect("compiled during fleet build")
                        .report(),
                );
                items.push(format!(
                    "{{\"kind\":\"chart\",\"name\":{},\"clocks\":{},\"verdict\":{},{},\
                     \"ticks\":{},\"underflows\":{}{}{}{}}}",
                    json::string(c.name()),
                    json::strings(&[c.clock()]),
                    json::string(if r.log.detected() { "detected" } else { "not observed" }),
                    json::log(&r.log),
                    r.ticks,
                    r.underflows,
                    json_exec_ms(r.exec_ns),
                    opt,
                    json_cosim(slot.cosim.as_ref(), r)
                ));
            }
            TargetRef::Multi(spec) => {
                let m = &doc.multiclock[spec];
                let r = &report.multis[slot.fleet];
                let clocks: Vec<&str> = m.charts().iter().map(Scesc::clock).collect();
                let opt = json_opt(
                    specs
                        .multi_spec(spec)
                        .expect("compiled during fleet build")
                        .report(),
                );
                items.push(format!(
                    "{{\"kind\":\"multiclock\",\"name\":{},\"clocks\":{},\"verdict\":{},{},\
                     \"underflows\":{}{}{}}}",
                    json::string(m.name()),
                    json::strings(&clocks),
                    json::string(if r.log.detected() { "detected" } else { "not observed" }),
                    json::log(&r.log),
                    r.underflows,
                    json_exec_ms(r.exec_ns),
                    opt
                ));
            }
            TargetRef::Assert(assert) => {
                let spec = specs.assert_spec(assert).expect("compiled during fleet build");
                let r = &report.asserts[slot.fleet];
                let verdict = match r.verdict {
                    Verdict::Idle => "idle",
                    Verdict::Tracking => "tracking",
                    Verdict::Passed => "passed",
                    Verdict::Failed => "failed",
                };
                let violations: Vec<String> = r
                    .violations
                    .iter()
                    .take(JSON_VIOLATION_CAP)
                    .map(|v| {
                        format!(
                            "{{\"antecedent_at\":{},\"failed_at\":{},\"progress\":{}}}",
                            v.antecedent_at, v.failed_at, v.progress
                        )
                    })
                    .collect();
                items.push(format!(
                    "{{\"kind\":\"assert\",\"name\":{},\"clocks\":{},\"verdict\":{},\
                     \"fulfilled\":{},\"outstanding\":{},\"ticks\":{},\
                     \"violation_count\":{},\"violations\":[{}],\"antecedent_matches\":{}{}}}",
                    json::string(spec.name()),
                    json::strings(&[spec.clock()]),
                    json::string(verdict),
                    r.fulfilled,
                    r.outstanding,
                    r.ticks,
                    r.violation_count,
                    violations.join(","),
                    r.antecedent_matches,
                    json_exec_ms(r.exec_ns)
                ));
            }
        }
    }
    format!(
        "{{\"schema\":{},\"global_steps\":{},\"ticks\":{},\"wall_ms\":{},\"jobs\":{},\
         \"failed\":{},\"targets\":[{}]}}\n",
        json::string(CHECK_JSON_SCHEMA),
        steps,
        ticks,
        wall_ms,
        jobs,
        failed,
        items.join(",")
    )
}

/// The usage banner printed on bad invocations.
pub fn usage() -> &'static str {
    "cesc <render|synth|check|lint|prove> <spec.cesc> [options] | cesc fuzz [options]\n\
     \n\
     render <spec> [--chart NAME]\n\
     synth  <spec> [--chart NAME] [--format summary|dot|verilog|sva|testbench]\n\
            [--force] [--no-opt] [--counter-width N] [--all-charts --out-dir DIR]\n\
     check  <spec> (--chart NAME)... | --all-charts  --vcd FILE\n\
            [--clock NAME] [--jobs N] [--json] [--all-matches]\n\
            [--cosim] [--no-opt]\n\
            [--stats] [--stats-json FILE] [--progress]\n\
     lint   <spec> [--chart NAME]... [--json] [--deny] [--allow RULE]...\n\
            [--counter-width N] [--stats] [--stats-json FILE]\n\
     prove  <spec> [--chart NAME]... [--json] [--corpus-out DIR]\n\
            [--stats] [--stats-json FILE]\n\
     fuzz   [--cases N] [--seed N] [--trace-len N] [--sweep-cases N]\n\
            [--corpus-out DIR] [--stats] [--stats-json FILE]\n\
     \n\
     synth emits one chart (--chart, default first) to stdout, or — with\n\
     --all-charts --out-dir DIR — one file per chart (and, for verilog,\n\
     per multiclock spec). --format sva refuses scoreboard (causality)\n\
     charts because the emitted property would be weaker than the spec;\n\
     --force emits the weakened SVA anyway. --format testbench emits a\n\
     self-checking testbench driving the chart's witness trace.\n\
     \n\
     check targets may be basic charts, multiclock specs (each local chart\n\
     sampled on its own declared clock) and implies(...) compositions —\n\
     assert-style charts whose violations make cesc exit with status 2.\n\
     --chart may repeat (duplicates are deduplicated); --all-charts checks\n\
     every chart, spec and implication in one pass over the dump.\n\
     --jobs N      run the monitor fleet on N shard threads (at most one per\n\
                   target) while the calling thread decodes the dump; at N=1\n\
                   the shard stays on the calling thread unless the engine\n\
                   bounds the run\n\
     --json        machine-readable report (schema cesc-check/3)\n\
     --all-matches list every match tick; default summarises (count + first/last 5)\n\
     --clock NAME  rename the sampled clock signal (single-clock charts only;\n\
                   default: each chart's declared clock)\n\
     --no-opt      skip the monitor optimization pass pipeline (dead-state/\n\
                   dead-transition pruning, guard CSE, scoreboard narrowing);\n\
                   monitors run exactly as synthesized\n\
     --cosim       in the same pass, also run each basic chart's emitted RTL\n\
                   (cesc-rtl interpreter, lowered from the optimized monitor)\n\
                   against its unoptimized engine; a match_pulse divergence,\n\
                   or counts that differ from the chart's verdict, exits with\n\
                   status 2 (composes with --jobs, --json and --progress)\n\
     \n\
     lint statically analyses the synthesized monitors: counter-bound\n\
     inference (interval abstract interpretation with widening), vacuity\n\
     and dead-state/arm reachability, guaranteed Del_evt underflow,\n\
     guard-overlap shadowing, and the semantic guard-SAT layer. Findings\n\
     carry stable ids (L001 vacuity, L002 dead-state, L003 dead-arm,\n\
     L010 unbounded-counter, L011 saturation-risk, L020 underflow, L030\n\
     shadowing, L100 unsatisfiable-guard, L101 contradictory-overlap,\n\
     L102 semantic-unreachable, L110 violated-assert). Default: every\n\
     checkable target; --chart selects (repeatable).\n\
     --json            machine-readable report (schema cesc-lint/2)\n\
     --deny            exit 2 when any non-allowed error/warning remains\n\
     --allow RULE      silence a rule by id or name (repeatable); specs may\n\
                       also annotate `// lint: allow(rule, ...)` in source\n\
     --counter-width N flag finite bounds exceeding the 2^N-1 counter\n\
                       ceiling as saturation-risk (synth: force RTL\n\
                       counter width; default infers from bounds)\n\
     \n\
     prove statically verifies implies(...) asserts with the SAT-pruned\n\
     product-automaton prover: PROVED means no trace of any length can\n\
     complete the antecedent and then block the consequent; REFUTED\n\
     prints a concrete counterexample trace, replayed through the\n\
     dynamic engine before being reported. Any refutation exits with\n\
     status 2. Default: every implies(...) assert; --chart selects.\n\
     --json            machine-readable report (schema cesc-prove/1)\n\
     --corpus-out D    write each refuted assert as a self-contained\n\
                       corpus reproducer into directory D\n\
     \n\
     fuzz runs a deterministic differential campaign (baseline engine vs\n\
     optimized engine vs sharded fleet vs RTL interpreter on generated\n\
     specs and traces) plus panic-freedom sweeps over the chart parser,\n\
     expression parser and VCD readers. Any disagreement or panic is\n\
     minimized and exits with status 2.\n\
     --cases N       differential case budget (default 300)\n\
     --seed N        master seed, decimal or 0x-hex (default 0xCE5CF022)\n\
     --trace-len N   stimulus trace length per case (default 96)\n\
     --sweep-cases N parser/VCD sweep budget (default: same as --cases)\n\
     --corpus-out D  write minimized failures into directory D\n\
     \n\
     observability (synth, check, lint, prove, fuzz):\n\
     --stats           print a run report (pipeline span timings, counters,\n\
                       per-shard utilization) to stderr after the command\n\
     --stats-json FILE write the run report as JSON (schema cesc-obs/1)\n\
     --progress        (check only) heartbeat on stderr while streaming the\n\
                       dump: steps, Msteps/s, % of file, ETA\n"
}

/// Options for the `cesc fuzz` subcommand.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Differential case budget (`--cases`).
    pub cases: usize,
    /// Stimulus length per case (`--trace-len`).
    pub trace_len: usize,
    /// Parser/VCD sweep budget (`--sweep-cases`, defaults to `cases`).
    pub sweep_cases: Option<usize>,
    /// Directory minimized failures are written to (`--corpus-out`).
    pub corpus_out: Option<String>,
    /// Observability switches (`--stats`/`--stats-json`): the campaign
    /// records case tallies and per-leg span timings into `stats.obs`.
    pub stats: StatsOptions,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        let d = cesc_fuzz::CampaignConfig::default();
        FuzzOptions {
            seed: d.seed,
            cases: d.cases,
            trace_len: d.trace_len,
            sweep_cases: None,
            corpus_out: None,
            stats: StatsOptions::default(),
        }
    }
}

/// Runs the bounded deterministic fuzz campaign: the four-way
/// differential (plus its bound-soundness leg) and the parser and VCD
/// panic-freedom sweeps.
/// `failed` is set when any leg disagreed or any parser panicked.
pub fn fuzz(opts: &FuzzOptions) -> CheckOutcome {
    use std::fmt::Write as _;
    let cfg = cesc_fuzz::CampaignConfig {
        seed: opts.seed,
        cases: opts.cases,
        trace_len: opts.trace_len.max(1),
        corpus_out: opts.corpus_out.clone().map(std::path::PathBuf::from),
        obs: opts.stats.obs.clone(),
    };
    let sweep_cfg = cesc_fuzz::CampaignConfig {
        cases: opts.sweep_cases.unwrap_or(opts.cases),
        ..cfg.clone()
    };

    let diff = cesc_fuzz::run_differential(&cfg);
    let parser = cesc_fuzz::run_parser_sweep(&sweep_cfg);
    let vcd = cesc_fuzz::run_vcd_sweep(&sweep_cfg);

    let mut output = String::new();
    let _ = write!(output, "{diff}");
    let _ = write!(output, "chart/expr parser {parser}");
    let _ = write!(output, "vcd reader {vcd}");
    let failed = !diff.is_green() || !parser.panics.is_empty() || !vcd.panics.is_empty();
    if failed {
        if let Some(dir) = &opts.corpus_out {
            let _ = writeln!(output, "minimized reproducers written to {dir}");
        }
        let _ = writeln!(output, "FUZZ: FAIL (seed {:#x})", opts.seed);
    } else {
        let _ = writeln!(output, "FUZZ: OK (seed {:#x})", opts.seed);
    }
    CheckOutcome { output, failed }
}

/// Options for the `cesc lint` subcommand.
#[derive(Debug, Clone, Default)]
pub struct LintCliOptions {
    /// Emit the machine-readable JSON report ([`LINT_JSON_SCHEMA`])
    /// instead of text — the `--json` flag.
    pub json: bool,
    /// Gate on findings: [`CheckOutcome::failed`] is set (the binary
    /// exits with status 2) when any error- or warning-severity
    /// finding is not silenced by an allow — the `--deny` flag.
    pub deny: bool,
    /// Rules to allow, by id or name (repeatable `--allow RULE`);
    /// merged with in-source `// lint: allow(...)` annotations.
    pub allow: Vec<String>,
    /// Explicit RTL counter width (`--counter-width N`): finite bounds
    /// exceeding `2^N - 1` raise `saturation-risk` (L011) findings.
    pub counter_width: Option<u32>,
    /// Observability switches (`--stats`/`--stats-json`): the analysis
    /// records its `lint` span and finding tallies into `stats.obs`.
    pub stats: StatsOptions,
}

/// Identifier of the JSON report layout emitted by [`lint`] under
/// [`LintCliOptions::json`] (the report's `schema` field).
///
/// Layout (one object):
///
/// ```json
/// {
///   "schema": "cesc-lint/2",
///   "targets": 3,              // checkable targets analyzed
///   "errors": 1,               // findings per severity (allowed included)
///   "warnings": 2,
///   "notes": 1,
///   "denied": 3,               // non-allowed errors + warnings (the --deny gate)
///   "failed": true,            // true iff --deny was given and denied > 0
///   "findings": [
///     { "rule": "L010",                  // stable catalog id
///       "name": "unbounded-counter",     // rule name (what --allow takes)
///       "severity": "warning",           // "note" | "warning" | "error"
///       "target": "hs",                  // chart / multi local / assert side
///       "location": "event req",         // state (s1), arm (s1#2), event, or ""
///       "line": 2,                       // 1-based declaration position of the
///       "column": 7,                     // target in the source, or null
///       "message": "count of `req` has no finite bound — ...",
///       "allowed": false }               // silenced by --allow or annotation
///   ]
/// }
/// ```
///
/// Findings appear in target order, then rule-catalog order — the same
/// order as the text report — and are computed on the monitors as
/// synthesized, so the document is identical with and without
/// `--no-opt`. (`cesc-lint/2` added the per-finding `line`/`column`
/// fields — `null` when the target's declaration cannot be located —
/// to `cesc-lint/1`; every `/1` field is unchanged.)
pub const LINT_JSON_SCHEMA: &str = "cesc-lint/2";

/// `cesc lint`: run the static monitor analyses (counter bounds,
/// vacuity, underflow, determinism — the `cesc-lint` crate) over the
/// selected targets and render the findings.
///
/// `names` selects targets by name (repeated `--chart`, deduplicated);
/// empty selects every checkable target, like `check --all-charts`.
/// In-source `// lint: allow(rule)` annotations are collected from
/// `source` and merged with [`LintCliOptions::allow`]; unknown rule
/// names in either are a hard error so typos fail loudly.
pub fn lint(
    source: &str,
    names: &[String],
    opts: &LintCliOptions,
) -> Result<CheckOutcome, CliError> {
    let obs = &opts.stats.obs;
    let specs = load_obs(source, true, obs.clone())?;
    let mut targets: Vec<TargetRef> = Vec::new();
    if names.is_empty() {
        targets = specs.checkable_targets();
        if targets.is_empty() {
            return Err(CliError::Pipeline(
                "document contains no lintable targets".to_owned(),
            ));
        }
    }
    for name in names {
        let t = specs.resolve(name).map_err(lift)?;
        if !targets.contains(&t) {
            targets.push(t);
        }
    }

    let mut allow = opts.allow.clone();
    allow.extend(cesc_lint::allows_in_source(source));
    let lint_opts = cesc_lint::LintOptions {
        allow,
        ceiling_width: opts.counter_width,
    };
    let mut report = {
        let _span = obs.span("lint");
        cesc_lint::lint_targets(&specs, &targets, &lint_opts).map_err(lift)?
    };
    cesc_lint::annotate_positions(&mut report, source);
    let denied = report.denied().len();
    obs.counter(key::LINT_FINDINGS).add(report.findings.len() as u64);
    obs.counter(key::LINT_DENIED).add(denied as u64);
    let failed = opts.deny && denied > 0;
    let output = if opts.json {
        render_lint_json(&report, targets.len(), denied, failed)
    } else {
        render_lint_text(&report, targets.len(), denied, opts.deny)
    };
    Ok(CheckOutcome { output, failed })
}

fn render_lint_text(
    report: &cesc_lint::LintReport,
    targets: usize,
    denied: usize,
    deny: bool,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{f}");
    }
    let (errors, warnings, notes) = report.tally();
    let _ = writeln!(
        out,
        "lint: {} finding(s) over {} target(s) — {} error(s), {} warning(s), {} note(s); \
         {} denied",
        report.findings.len(),
        targets,
        errors,
        warnings,
        notes,
        denied
    );
    if deny && denied > 0 {
        let _ = writeln!(out, "LINT: FAIL (--deny: {denied} finding(s))");
    } else {
        let _ = writeln!(out, "LINT: OK");
    }
    out
}

/// Options for the `cesc prove` subcommand.
#[derive(Debug, Clone, Default)]
pub struct ProveCliOptions {
    /// Emit the machine-readable JSON report ([`PROVE_JSON_SCHEMA`])
    /// instead of text — the `--json` flag.
    pub json: bool,
    /// Directory refuted asserts are written to as self-contained
    /// corpus reproducers (`--corpus-out DIR`).
    pub corpus_out: Option<String>,
    /// Observability switches (`--stats`/`--stats-json`): the prover
    /// records its `prove` span and verdict tallies into `stats.obs`.
    pub stats: StatsOptions,
}

/// Identifier of the JSON report layout emitted by [`prove`] under
/// [`ProveCliOptions::json`] (the report's `schema` field).
///
/// Layout (one object):
///
/// ```json
/// {
///   "schema": "cesc-prove/1",
///   "asserts": 2,                // implies(...) asserts examined
///   "proved": 1,
///   "refuted": 1,
///   "failed": true,              // true iff any assert was refuted
///   "results": [
///     { "name": "gate", "clock": "clk",
///       "verdict": "refuted",    // "proved" | "refuted"
///       "vacuous": false,        // proved because the antecedent is dead
///       "product_states": 12,    // product states the search explored
///       "sat_queries": 40,       // guard-SAT queries (cache misses + hits)
///       "cache_hits": 22,
///       "counterexample": {      // null when proved
///         "ticks": 2,
///         "trace": [["req"], []],      // event names per tick
///         "antecedent_at": 0,          // replay tick the antecedent completed
///         "failed_at": 1,              // replay tick the consequent blocked
///         "progress": 0 } }            // consequent ticks matched before that
///   ]
/// }
/// ```
///
/// Every counterexample is replayed through the dynamic
/// [`cesc_core::ImplicationChecker`] before being reported, so the
/// `antecedent_at`/`failed_at`/`progress` numbers are engine-observed,
/// not inferred.
pub const PROVE_JSON_SCHEMA: &str = "cesc-prove/1";

/// `cesc prove`: statically verify every selected `implies(...)`
/// assert with the product-automaton prover and render PROVED /
/// REFUTED verdicts, counterexample traces included.
///
/// `names` selects asserts by name (repeated `--chart`, deduplicated);
/// empty selects every implies(...) composition in the document.
/// [`CheckOutcome::failed`] is set (the binary exits with status 2)
/// when any assert is refuted — the same CI-gate contract as `check`.
pub fn prove(
    source: &str,
    names: &[String],
    opts: &ProveCliOptions,
) -> Result<CheckOutcome, CliError> {
    let obs = &opts.stats.obs;
    let specs = load_obs(source, true, obs.clone())?;
    let mut targets: Vec<usize> = Vec::new();
    if names.is_empty() {
        targets = specs
            .checkable_targets()
            .into_iter()
            .filter_map(|t| match t {
                TargetRef::Assert(i) => Some(i),
                _ => None,
            })
            .collect();
        if targets.is_empty() {
            return Err(CliError::Pipeline(
                "document contains no implies(...) asserts to prove".to_owned(),
            ));
        }
    }
    for name in names {
        match specs.resolve(name).map_err(lift)? {
            TargetRef::Assert(i) => {
                if !targets.contains(&i) {
                    targets.push(i);
                }
            }
            _ => {
                return Err(CliError::Pipeline(format!(
                    "prove verifies implies(...) asserts; `{name}` is a chart or \
                     multiclock spec — use `cesc check` or `cesc lint` on it"
                )))
            }
        }
    }

    let mut reports = Vec::with_capacity(targets.len());
    for &i in &targets {
        let spec = specs.assert_spec(i).map_err(lift)?;
        let report = specs.proof(i).map_err(lift)?;
        obs.counter(key::PROVE_ASSERTS).add(1);
        if report.proved() {
            obs.counter(key::PROVE_PROVED).add(1);
        } else {
            obs.counter(key::PROVE_REFUTED).add(1);
        }
        obs.counter(key::PROVE_PRODUCT_STATES).add(report.product_states as u64);
        obs.counter(key::PROVE_SAT_QUERIES).add(report.stats.queries);
        reports.push((spec, report));
    }

    if let Some(dir) = &opts.corpus_out {
        let dir = Path::new(dir);
        for (spec, report) in &reports {
            if report.counterexample().is_some() {
                let entry = cesc_fuzz::corpus::prove_entry(source, spec.name());
                cesc_fuzz::corpus::write_entry(dir, &entry).map_err(|e| {
                    CliError::Pipeline(format!("cannot write corpus entry: {e}"))
                })?;
            }
        }
    }

    let refuted = reports.iter().filter(|(_, r)| !r.proved()).count();
    let failed = refuted > 0;
    let ab = specs.alphabet();
    let output = if opts.json {
        render_prove_json(&reports, refuted, ab)
    } else {
        render_prove_text(&reports, refuted, opts.corpus_out.as_deref(), ab)
    };
    Ok(CheckOutcome { output, failed })
}

/// Renders one tick's event set as `{a, b}` (or `{}`), the trace
/// vocabulary both prove report formats share.
fn prove_events(v: cesc_expr::Valuation, ab: &cesc_expr::Alphabet) -> Vec<&str> {
    let mut names = Vec::new();
    let mut bits = v.bits();
    while bits != 0 {
        let idx = bits.trailing_zeros() as usize;
        names.push(ab.name(cesc_expr::SymbolId::from_index(idx)));
        bits &= bits - 1;
    }
    names
}

fn render_prove_text(
    reports: &[(&cesc_spec::AssertSpec, &cesc_core::ProofReport)],
    refuted: usize,
    corpus_out: Option<&str>,
    ab: &cesc_expr::Alphabet,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (spec, report) in reports {
        match &report.outcome {
            cesc_core::ProofOutcome::Proved { vacuous } => {
                let _ = writeln!(
                    out,
                    "assert `{}` on {}: PROVED{} ({} product state(s), {} SAT quer{})",
                    spec.name(),
                    spec.clock(),
                    if *vacuous {
                        " (vacuous — the antecedent can never complete)"
                    } else {
                        ""
                    },
                    report.product_states,
                    report.stats.queries,
                    if report.stats.queries == 1 { "y" } else { "ies" },
                );
            }
            cesc_core::ProofOutcome::Refuted(cx) => {
                let _ = writeln!(
                    out,
                    "assert `{}` on {}: REFUTED — {}-tick counterexample:",
                    spec.name(),
                    spec.clock(),
                    cx.trace.len()
                );
                for (t, v) in cx.trace.iter().enumerate() {
                    let names = prove_events(*v, ab);
                    let _ = writeln!(
                        out,
                        "  tick {t}: {}",
                        if names.is_empty() {
                            "(no events)".to_owned()
                        } else {
                            format!("{{{}}}", names.join(", "))
                        }
                    );
                }
                let _ = writeln!(
                    out,
                    "  replayed through the engine: antecedent completed at tick {}, \
                     consequent blocked at tick {} after {} matching tick(s)",
                    cx.violation.antecedent_at, cx.violation.failed_at, cx.violation.progress
                );
            }
        }
    }
    // a vacuous proof holds because the antecedent can never complete:
    // say how many of the proofs are that kind
    let vacuous = reports
        .iter()
        .filter(|(_, r)| matches!(r.outcome, cesc_core::ProofOutcome::Proved { vacuous: true }))
        .count();
    let real = reports.len() - refuted - vacuous;
    if refuted > 0 {
        if let Some(dir) = corpus_out {
            let _ = writeln!(out, "counterexample reproducers written to {dir}");
        }
        let _ = writeln!(
            out,
            "PROVE: FAIL ({refuted} of {} assert(s) refuted) — proved: {vacuous} vacuous, {real} real",
            reports.len()
        );
    } else {
        let _ = writeln!(
            out,
            "PROVE: OK ({} assert(s) proved) — {vacuous} vacuous, {real} real",
            reports.len()
        );
    }
    out
}

fn render_prove_json(
    reports: &[(&cesc_spec::AssertSpec, &cesc_core::ProofReport)],
    refuted: usize,
    ab: &cesc_expr::Alphabet,
) -> String {
    let items: Vec<String> = reports
        .iter()
        .map(|(spec, report)| {
            let (verdict, vacuous) = match &report.outcome {
                cesc_core::ProofOutcome::Proved { vacuous } => ("proved", *vacuous),
                cesc_core::ProofOutcome::Refuted(_) => ("refuted", false),
            };
            let cx = match report.counterexample() {
                None => "null".to_owned(),
                Some(cx) => {
                    let trace: Vec<String> = cx
                        .trace
                        .iter()
                        .map(|v| {
                            let names: Vec<String> =
                                prove_events(*v, ab).into_iter().map(json::string).collect();
                            format!("[{}]", names.join(","))
                        })
                        .collect();
                    format!(
                        "{{\"ticks\":{},\"trace\":[{}],\"antecedent_at\":{},\
                         \"failed_at\":{},\"progress\":{}}}",
                        cx.trace.len(),
                        trace.join(","),
                        cx.violation.antecedent_at,
                        cx.violation.failed_at,
                        cx.violation.progress
                    )
                }
            };
            format!(
                "{{\"name\":{},\"clock\":{},\"verdict\":{},\"vacuous\":{},\
                 \"product_states\":{},\"sat_queries\":{},\"cache_hits\":{},\
                 \"counterexample\":{}}}",
                json::string(spec.name()),
                json::string(spec.clock()),
                json::string(verdict),
                vacuous,
                report.product_states,
                report.stats.queries,
                report.stats.cache_hits,
                cx
            )
        })
        .collect();
    format!(
        "{{\"schema\":{},\"asserts\":{},\"proved\":{},\"refuted\":{},\"failed\":{},\
         \"results\":[{}]}}\n",
        json::string(PROVE_JSON_SCHEMA),
        reports.len(),
        reports.len() - refuted,
        refuted,
        refuted > 0,
        items.join(",")
    )
}

fn render_lint_json(
    report: &cesc_lint::LintReport,
    targets: usize,
    denied: usize,
    failed: bool,
) -> String {
    let items: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            let (line, column) = match f.position {
                Some((l, c)) => (l.to_string(), c.to_string()),
                None => ("null".to_owned(), "null".to_owned()),
            };
            format!(
                "{{\"rule\":{},\"name\":{},\"severity\":{},\"target\":{},\"location\":{},\
                 \"line\":{},\"column\":{},\"message\":{},\"allowed\":{}}}",
                json::string(f.rule.id()),
                json::string(f.rule.name()),
                json::string(&f.severity.to_string()),
                json::string(&f.target),
                json::string(&f.location),
                line,
                column,
                json::string(&f.message),
                f.allowed
            )
        })
        .collect();
    let (errors, warnings, notes) = report.tally();
    format!(
        "{{\"schema\":{},\"targets\":{},\"errors\":{},\"warnings\":{},\"notes\":{},\
         \"denied\":{},\"failed\":{},\"findings\":[{}]}}\n",
        json::string(LINT_JSON_SCHEMA),
        targets,
        errors,
        warnings,
        notes,
        denied,
        failed,
        items.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three `--cosim` verdicts and their JSON, including the
    /// divergence fields no shipped chart can reach on a real dump.
    #[test]
    fn cosim_result_verdicts_and_json() {
        let mut log = cesc_par::MatchLog::new(MATCH_EDGE, false);
        log.push(7);
        let fleet = cesc_par::SingleReport {
            log,
            ticks: 4,
            underflows: 0,
            exec_ns: 0,
        };
        let result = |ticks, matches, divergence| CosimResult {
            ticks,
            matches,
            divergence,
        };
        let ok = result(4, 1, None);
        assert_eq!(ok.verdict(&fleet), "ok");
        assert_eq!(
            json_cosim(Some(&ok), &fleet),
            ",\"cosim\":{\"verdict\":\"ok\",\"ticks\":4,\"matches\":1}"
        );
        assert_eq!(result(4, 2, None).verdict(&fleet), "mismatch");
        assert_eq!(result(3, 1, None).verdict(&fleet), "mismatch");
        let d = cesc_rtl::Divergence {
            tick: 2,
            rtl_pulse: false,
            engine_pulse: true,
            rtl_state: 1,
            engine_state: 2,
        };
        // a diverged pair is reported as such even when its counts
        // happen to equal the fleet's
        let diverged = result(4, 1, Some(d));
        assert_eq!(diverged.verdict(&fleet), "diverged");
        assert_eq!(
            json_cosim(Some(&diverged), &fleet),
            ",\"cosim\":{\"verdict\":\"diverged\",\"ticks\":4,\"matches\":1,\"tick\":2,\
             \"rtl_pulse\":false,\"engine_pulse\":true,\"rtl_state\":1,\"engine_state\":2}"
        );
        assert_eq!(json_cosim(None, &fleet), "");
    }
}
