//! Tests for the `cesc` command-line front end (the pure command
//! functions in `cesc::cli`; `src/main.rs` only parses argv).

use cesc::cli::{check_fleet, render, synth, usage, CheckOptions, CliError, SynthFormat};
use cesc::core::{synthesize, SynthOptions};
use cesc::trace::{write_vcd, VcdWriteOptions};

const SPEC: &str = r#"
scesc hs on clk {
    instances { M, S }
    events { req, ack }
    tick { M: req }
    tick { S: ack }
    cause req -> ack;
}
scesc pulse on clk {
    instances { M }
    events { p }
    tick { M: p }
}
"#;

#[test]
fn render_produces_art_and_wavedrom() {
    let out = render(SPEC, None).unwrap();
    assert!(out.contains("(clk)"));
    assert!(out.contains("tick 0"));
    assert!(out.contains("\"signal\""));
    // explicit chart selection
    let out = render(SPEC, Some("pulse")).unwrap();
    assert!(out.contains("\"name\": \"p\""));
}

#[test]
fn synth_formats() {
    let summary = synth(SPEC, Some("hs"), SynthFormat::Summary, false).unwrap();
    assert!(summary.contains("monitor hs"));
    assert!(summary.contains("clean: true"));

    let dot = synth(SPEC, Some("hs"), SynthFormat::Dot, false).unwrap();
    assert!(dot.starts_with("digraph"));

    let verilog = synth(SPEC, Some("hs"), SynthFormat::Verilog, false).unwrap();
    assert!(verilog.contains("module cesc_monitor_hs"));

    // `pulse` has no causality arrows, so SVA is faithful and allowed
    let sva = synth(SPEC, Some("pulse"), SynthFormat::Sva, false).unwrap();
    assert!(sva.contains("sequence seq_pulse;"));

    let tb = synth(SPEC, Some("hs"), SynthFormat::Testbench, false).unwrap();
    assert!(tb.contains("module cesc_monitor_hs_tb;"), "{tb}");
    // the witness trace (req tick, ack tick, idle) completes once
    assert!(tb.contains("if (matches == 1)"), "{tb}");
}

#[test]
fn synth_format_parsing() {
    assert_eq!(SynthFormat::parse("dot").unwrap(), SynthFormat::Dot);
    assert_eq!(SynthFormat::parse("testbench").unwrap(), SynthFormat::Testbench);
    assert!(matches!(
        SynthFormat::parse("nope"),
        Err(CliError::Usage(_))
    ));
}

#[test]
fn synth_sva_refuses_scoreboard_charts_without_force() {
    // `hs` carries `cause req -> ack`: its SVA form silently rewrites
    // the Chk_evt guard to 1'b1, a strictly weaker property — that
    // must be a hard error, not a comment
    let err = synth(SPEC, Some("hs"), SynthFormat::Sva, false).unwrap_err();
    assert!(matches!(err, CliError::Pipeline(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("weaker"), "{msg}");
    assert!(msg.contains("--force"), "{msg}");

    // the escape hatch emits the weakened SVA with its warning comment
    let sva = synth(SPEC, Some("hs"), SynthFormat::Sva, true).unwrap();
    assert!(sva.contains("sequence seq_hs;"), "{sva}");
    assert!(sva.contains("use emit_verilog"), "{sva}");
}

#[test]
fn synth_all_charts_writes_one_file_per_chart() {
    use cesc::cli::synth_all;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("synth_all_v");
    std::fs::remove_dir_all(&dir).ok();
    let listing = synth_all(SPEC, SynthFormat::Verilog, &dir, false).unwrap();
    assert!(listing.contains("chart `hs`"), "{listing}");
    assert!(listing.contains("chart `pulse`"), "{listing}");
    let hs = std::fs::read_to_string(dir.join("hs.v")).unwrap();
    assert!(hs.contains("module cesc_monitor_hs ("), "{hs}");
    let pulse = std::fs::read_to_string(dir.join("pulse.v")).unwrap();
    assert!(pulse.contains("module cesc_monitor_pulse ("), "{pulse}");

    // multiclock specs get one file with every local module (verilog only)
    let mdir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("synth_all_mc");
    std::fs::remove_dir_all(&mdir).ok();
    let listing = synth_all(MULTI_SPEC, SynthFormat::Verilog, &mdir, false).unwrap();
    assert!(listing.contains("multiclock `pair`"), "{listing}");
    let pair = std::fs::read_to_string(mdir.join("pair.v")).unwrap();
    assert_eq!(pair.matches("module cesc_monitor_").count(), 2, "{pair}");

    // sva format: scoreboard-free charts emitted, multiclock skipped,
    // and scoreboard charts skipped with a note instead of aborting
    // the whole run halfway (`hs` in SPEC has a causality arrow)
    let sdir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("synth_all_sva");
    std::fs::remove_dir_all(&sdir).ok();
    let listing = synth_all(MULTI_SPEC, SynthFormat::Sva, &sdir, false).unwrap();
    assert!(listing.contains("skipped multiclock `pair`"), "{listing}");
    assert!(sdir.join("m1.sv").exists());
    let listing = synth_all(SPEC, SynthFormat::Sva, &sdir, false).unwrap();
    assert!(listing.contains("skipped chart `hs`"), "{listing}");
    assert!(!sdir.join("hs.sv").exists());
    assert!(sdir.join("pulse.sv").exists());
    // --force emits the weakened SVA for `hs` too
    let listing = synth_all(SPEC, SynthFormat::Sva, &sdir, true).unwrap();
    assert!(listing.contains("wrote") && listing.contains("chart `hs`"), "{listing}");
    assert!(sdir.join("hs.sv").exists());

    // colliding sanitized chart names must not overwrite each other
    const TWIN_SPEC: &str =
        "scesc a.b on clk { instances { M } events { x } tick { M: x } }\
         scesc a_b on clk { instances { M } events { x } tick { M: x } }";
    let tdir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("synth_all_twins");
    std::fs::remove_dir_all(&tdir).ok();
    let listing = synth_all(TWIN_SPEC, SynthFormat::Verilog, &tdir, false).unwrap();
    assert!(tdir.join("a_b.v").exists(), "{listing}");
    assert!(tdir.join("a_b_2.v").exists(), "{listing}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&mdir).ok();
    std::fs::remove_dir_all(&sdir).ok();
    std::fs::remove_dir_all(&tdir).ok();
}

#[test]
fn check_cosim_agrees_on_compliant_dump() {
    // `--cosim` is a leg of the fleet route: every target is checked as
    // usual and each basic chart also carries its RTL-vs-engine result,
    // at any worker count
    let vcd = fleet_vcd(true);
    for jobs in [1, 4] {
        let opts = CheckOptions {
            jobs,
            cosim: true,
            ..Default::default()
        };
        let outcome = check_fleet(FLEET_SPEC, &[], true, vcd.as_bytes(), None, &opts).unwrap();
        assert!(!outcome.failed, "{}", outcome.output);
        let out = &outcome.output;
        assert!(out.contains("5 target(s)"), "{out}");
        let hs = "chart `hs` (clock clk) over 4 sampled cycles: DETECTED — 1 occurrence(s)";
        assert!(out.contains(hs), "{out}");
        assert!(
            out.contains(
                "  cosim: OK over 4 cycles — 1 match(es), interpreted RTL == raw engine == fleet"
            ),
            "{out}"
        );
        // one cosim line per basic chart (hs, pulse, rsp, ping), none for
        // the assert, which is checked and rendered rather than skipped
        assert_eq!(out.matches("  cosim: OK").count(), 4, "{out}");
        assert!(out.contains("assert `gate` (clock clk)"), "{out}");
        assert!(!out.contains("skipped"), "{out}");
    }
}

#[test]
fn check_cosim_refuses_selections_without_a_basic_chart() {
    let cosim = CheckOptions {
        cosim: true,
        ..Default::default()
    };
    // a multiclock spec alone has no single emitted module to interpret
    let err =
        check_fleet(MULTI_SPEC, &["pair".to_owned()], false, b"".as_slice(), None, &cosim)
            .unwrap_err();
    assert!(err.to_string().contains("no basic charts to co-simulate"), "{err}");

    let err =
        check_fleet(MULTI_SPEC, &["ghost".to_owned()], false, b"".as_slice(), None, &cosim)
            .unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");

    // next to a basic chart, the multiclock spec is checked, not dropped
    use cesc::expr::Valuation;
    use cesc::trace::{write_vcd_global, ClockDomain, ClockSet, GlobalRun, Trace};
    let doc = cesc::chart::parse_document(MULTI_SPEC).unwrap();
    let go = doc.alphabet.lookup("go").unwrap();
    let done = doc.alphabet.lookup("done").unwrap();
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements([Valuation::of([go]); 2])),
            (c2, Trace::from_elements([Valuation::of([done]); 2])),
        ],
    )
    .unwrap();
    let owners = [Valuation::of([go]), Valuation::of([done])];
    let vcd = write_vcd_global(&run, &clocks, &doc.alphabet, &owners, &VcdWriteOptions::default());
    let names = ["pair".to_owned(), "m1".to_owned()];
    let outcome = check_fleet(MULTI_SPEC, &names, false, vcd.as_bytes(), None, &cosim).unwrap();
    let out = &outcome.output;
    assert!(!outcome.failed, "{out}");
    assert!(out.contains("multiclock `pair` (clocks clk1, clk2): DETECTED"), "{out}");
    assert!(out.contains("chart `m1` (clock clk1) over 2 sampled cycles"), "{out}");
    assert!(out.contains("  cosim: OK over 2 cycles — 2 match(es)"), "{out}");
}

/// `cesc check --chart NAME`: one target through the fleet route,
/// text report.
fn check_one(
    source: &str,
    name: &str,
    vcd: &[u8],
    opts: &CheckOptions,
) -> Result<String, CliError> {
    check_fleet(source, &[name.to_owned()], false, vcd, None, opts).map(|o| o.output)
}

#[test]
fn fleet_check_against_vcd() {
    // produce a VCD with one compliant handshake using the library
    let doc = cesc::chart::parse_document(SPEC).unwrap();
    let req = doc.alphabet.lookup("req").unwrap();
    let ack = doc.alphabet.lookup("ack").unwrap();
    let chart = doc.chart("hs").unwrap();
    let monitor = synthesize(chart, &SynthOptions::default()).unwrap();
    let trace: cesc::trace::Trace = [
        cesc::expr::Valuation::of([req]),
        cesc::expr::Valuation::of([ack]),
        cesc::expr::Valuation::empty(),
    ]
    .into_iter()
    .collect();
    assert!(monitor.scan(&trace).detected());
    let vcd = write_vcd(&trace, &doc.alphabet, &VcdWriteOptions::default());

    let out = check_one(SPEC, "hs", vcd.as_bytes(), &CheckOptions::default()).unwrap();
    assert!(out.contains("DETECTED"));
    assert!(out.contains("1 occurrence(s)"));

    // a waveform with the ack missing
    let broken: cesc::trace::Trace = [
        cesc::expr::Valuation::of([req]),
        cesc::expr::Valuation::empty(),
    ]
    .into_iter()
    .collect();
    let vcd = write_vcd(&broken, &doc.alphabet, &VcdWriteOptions::default());
    let out = check_one(SPEC, "hs", vcd.as_bytes(), &CheckOptions::default()).unwrap();
    assert!(out.contains("NOT OBSERVED"));
}

#[test]
fn fleet_check_summarizes_bulk_matches_unless_asked() {
    // 40 back-to-back pulses → 40 matches; default output elides the
    // middle, --all-matches lists every match time (tick k at time 10k)
    let doc = cesc::chart::parse_document(SPEC).unwrap();
    let p = doc.alphabet.lookup("p").unwrap();
    let trace: cesc::trace::Trace =
        std::iter::repeat_n(cesc::expr::Valuation::of([p]), 40).collect();
    let vcd = write_vcd(&trace, &doc.alphabet, &VcdWriteOptions::default());

    let out = check_one(SPEC, "pulse", vcd.as_bytes(), &CheckOptions::default()).unwrap();
    assert!(out.contains("40 occurrence(s)"), "{out}");
    assert!(out.contains("... 30 more ..."), "{out}");
    assert!(!out.contains("17"), "middle ticks elided: {out}");

    let all = check_one(
        SPEC,
        "pulse",
        vcd.as_bytes(),
        &CheckOptions {
            all_matches: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(all.contains("17"), "{all}");
    assert!(!all.contains("more"), "{all}");
}

const MULTI_SPEC: &str = r#"
scesc m1 on clk1 { instances { A } events { go } tick { A: go } }
scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
multiclock pair { charts { m1, m2 } cause go -> done; }
"#;

#[test]
fn fleet_check_multiclock_spec_against_global_vcd() {
    use cesc::expr::Valuation;
    use cesc::trace::{write_vcd_global, ClockDomain, ClockSet, GlobalRun, Trace};

    let doc = cesc::chart::parse_document(MULTI_SPEC).unwrap();
    let go = doc.alphabet.lookup("go").unwrap();
    let done = doc.alphabet.lookup("done").unwrap();
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements([Valuation::of([go]); 2])),
            (c2, Trace::from_elements([Valuation::of([done]); 2])),
        ],
    )
    .unwrap();
    let owners = [Valuation::of([go]), Valuation::of([done])];
    let vcd = write_vcd_global(&run, &clocks, &doc.alphabet, &owners, &VcdWriteOptions::default());

    let out = check_one(MULTI_SPEC, "pair", vcd.as_bytes(), &CheckOptions::default()).unwrap();
    assert!(out.contains("multiclock `pair`"), "{out}");
    assert!(out.contains("DETECTED"), "{out}");
    assert!(out.contains("clk1, clk2"), "{out}");
    assert!(out.contains("2 occurrence(s)"), "{out}");

    // out-of-order traffic (done before any go) never matches
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements([Valuation::empty(); 2])),
            (c2, Trace::from_elements([Valuation::of([done]); 2])),
        ],
    )
    .unwrap();
    let vcd = write_vcd_global(&run, &clocks, &doc.alphabet, &owners, &VcdWriteOptions::default());
    let out = check_one(MULTI_SPEC, "pair", vcd.as_bytes(), &CheckOptions::default()).unwrap();
    assert!(out.contains("NOT OBSERVED"), "{out}");
}

/// Zeroes the timing fields of a `cesc-check/3` report, and its shard
/// count.
fn zero_timings(json: &str) -> String {
    let mut out = String::new();
    let mut rest = json;
    while let Some(at) = ["\"wall_ms\":", "\"exec_ms\":", "\"jobs\":"]
        .iter()
        .filter_map(|k| rest.find(k).map(|i| i + k.len()))
        .min()
    {
        out.push_str(&rest[..at]);
        out.push('0');
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out.push_str(rest);
    out
}

#[test]
fn fleet_binary_decodes_the_same_on_one_and_three_jobs() {
    // the release route end to end: a two-clock dump spanning many
    // body blocks, decoded inline (`--jobs 1`) and on three decode
    // workers (`--jobs 3`), must give byte-identical reports once the
    // timings and the shard count are zeroed — and a dump corrupted
    // deep inside the same stderr and exit status
    use cesc::expr::Valuation;
    use cesc::trace::{write_vcd_global, ClockDomain, ClockSet, GlobalRun, Trace};
    use std::process::Command;

    let doc = cesc::chart::parse_document(MULTI_SPEC).unwrap();
    let go = Valuation::of([doc.alphabet.lookup("go").unwrap()]);
    let done = Valuation::of([doc.alphabet.lookup("done").unwrap()]);
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
    // the clocks rise together every third clk1 tick
    let c2 = clocks.add(ClockDomain::new("clk2", 3, 0));
    let pick = |v: Valuation, n: usize, keep: fn(usize) -> bool| {
        (0..n)
            .map(|i| if keep(i) { v } else { Valuation::empty() })
            .collect::<Vec<_>>()
    };
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements(pick(go, 30_000, |i| i % 3 != 0))),
            (c2, Trace::from_elements(pick(done, 20_000, |i| i % 5 != 1))),
        ],
    )
    .unwrap();
    let vcd = write_vcd_global(&run, &clocks, &doc.alphabet, &[go, done], &VcdWriteOptions::default());
    assert!(vcd.len() > 8 * 64 * 1024, "the dump spans many blocks: {} bytes", vcd.len());
    // a backwards timestamp three quarters of the way in
    let at = vcd[3 * vcd.len() / 4..].find("\n#").unwrap() + 3 * vcd.len() / 4 + 1;
    let corrupt = format!("{}#1\n{}", &vcd[..at], &vcd[at..]);

    let dir = std::env::temp_dir().join(format!("cesc-cli-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.cesc");
    std::fs::write(&spec, MULTI_SPEC).unwrap();
    let check = |dump: &str, jobs: &str| {
        let path = dir.join("dump.vcd");
        std::fs::write(&path, dump).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_cesc"))
            .arg("check")
            .arg(&spec)
            .arg("--vcd")
            .arg(&path)
            .args(["--all-charts", "--json", "--jobs", jobs])
            .output()
            .unwrap();
        (
            zero_timings(&String::from_utf8(out.stdout).unwrap()),
            String::from_utf8(out.stderr).unwrap(),
            out.status.code(),
        )
    };
    let serial = check(&vcd, "1");
    assert!(serial.0.contains("\"verdict\":\"detected\""), "{serial:?}");
    assert_eq!(check(&vcd, "3"), serial);
    let serial = check(&corrupt, "1");
    assert!(serial.1.contains("goes backwards"), "{serial:?}");
    assert_ne!(serial.2, Some(0));
    assert_eq!(check(&corrupt, "3"), serial);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn synth_out_dir_without_all_charts_is_a_usage_error() {
    // one chart prints to stdout; an `--out-dir` it would ignore is
    // refused, naming both flags, and nothing is created
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("synth_out_dir_alone");
    std::fs::remove_dir_all(&dir).ok();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cesc"))
        .arg("synth")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs/handshake.cesc"))
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--out-dir") && stderr.contains("--all-charts"), "{stderr}");
    assert!(out.stdout.is_empty(), "no chart printed");
    assert!(!dir.exists(), "nothing created");
}

#[test]
fn fleet_binary_runs_jobs_far_above_the_core_count() {
    // `--jobs N` starts at most one shard thread per fleet member: a
    // request for 20,000 jobs must not try to start 20,000 threads,
    // and must report what `--jobs 1` reports (timings and shard count
    // zeroed)
    use std::process::Command;

    let doc = cesc::chart::parse_document(FLEET_SPEC).unwrap();
    let sym = |n: &str| doc.alphabet.lookup(n).unwrap();
    let cycle = [
        cesc::expr::Valuation::of([sym("req")]),
        cesc::expr::Valuation::of([sym("ack"), sym("p")]),
        cesc::expr::Valuation::empty(),
        cesc::expr::Valuation::empty(),
    ];
    let trace: cesc::trace::Trace = cycle.iter().copied().cycle().take(40_000).collect();
    let vcd = write_vcd(&trace, &doc.alphabet, &VcdWriteOptions::default());
    assert!(vcd.len() > 4 * 64 * 1024, "the dump spans several blocks: {} bytes", vcd.len());

    let dir = std::env::temp_dir().join(format!("cesc-cli-many-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (spec, dump) = (dir.join("spec.cesc"), dir.join("dump.vcd"));
    std::fs::write(&spec, FLEET_SPEC).unwrap();
    std::fs::write(&dump, &vcd).unwrap();
    let check = |jobs: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_cesc"))
            .arg("check")
            .arg(&spec)
            .arg("--vcd")
            .arg(&dump)
            .args(["--all-charts", "--json", "--jobs", jobs])
            .output()
            .unwrap();
        (
            zero_timings(&String::from_utf8(out.stdout).unwrap()),
            String::from_utf8(out.stderr).unwrap(),
            out.status.code(),
        )
    };
    let serial = check("1");
    assert!(serial.0.contains("\"verdict\":\"detected\""), "{serial:?}");
    assert_eq!(serial.2, Some(0), "{serial:?}");
    assert_eq!(check("20000"), serial);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs the release binary's `check --all-charts` on the shipped
/// handshake spec over `vcd`: (stdout, stderr, exit status).
fn check_handshake_binary(vcd: &str, tag: &str) -> (String, String, Option<i32>) {
    let dir = std::env::temp_dir().join(format!("cesc-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("dump.vcd");
    std::fs::write(&dump, vcd).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cesc"))
        .arg("check")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs/handshake.cesc"))
        .arg("--vcd")
        .arg(&dump)
        .arg("--all-charts")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
        out.status.code(),
    )
}

#[test]
fn fleet_binary_warns_about_chart_signals_the_dump_lacks() {
    // `ack` has no `$var`: it reads as 0, so `hs` is NOT OBSERVED —
    // said once on stderr, naming every target that reads it, while
    // stdout and the exit status stay as they were
    let header = "$var wire 1 ! clk $end\n$var wire 1 \" req $end\n";
    let body = "$enddefinitions $end\n#0\n1\"\n1!\n#5\n0!\n0\"\n#10\n1!\n#15\n0!\n";
    let (stdout, stderr, code) = check_handshake_binary(&format!("{header}{body}"), "no-ack");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.contains("chart `hs` (clock clk) over 2 sampled cycles: NOT OBSERVED"),
        "{stdout}"
    );
    assert!(!stdout.contains("warning"), "{stdout}");
    assert_eq!(
        stderr,
        "cesc: warning: signal `ack` is not declared in the VCD and reads as 0 (used by hs, \
         ack_pulse, hs_gate)\n"
    );

    let complete = format!("{header}$var wire 1 # ack $end\n{body}");
    let (stdout, stderr, code) = check_handshake_binary(&complete, "complete");
    assert_eq!((code, stderr.as_str()), (Some(0), ""), "{stdout}");
}

#[test]
fn fleet_binary_refuses_a_vector_clock() {
    // with `clk[1:0]` every rising bit would read as an edge
    let vcd = "$var wire 2 ! clk [1:0] $end\n$var wire 1 \" req $end\n$var wire 1 # ack $end\n\
               $enddefinitions $end\n#0\nb00 !\n#5\n1\"\nb10 !\n#10\nb00 !\n1#\n#15\nb01 !\n";
    let (stdout, stderr, code) = check_handshake_binary(vcd, "vector-clock");
    assert_eq!(code, Some(1), "{stdout}");
    assert_eq!(stdout, "");
    assert_eq!(
        stderr,
        "cesc: malformed VCD at line 1: clock `clk` is declared 2 bits wide; a sampled clock \
         must be a 1-bit signal\n"
    );
}

#[test]
fn fleet_binary_refuses_a_header_that_never_closes() {
    // a dump missing its `$enddefinitions` line, and one cut off in
    // its header, are refused rather than read as zero steps
    let header = "$var wire 1 ! clk $end\n$var wire 1 \" req $end\n$var wire 1 # ack $end\n";
    let body = "#0\n1\"\n1!\n#5\n0!\n1#\n#10\n1!\n#15\n0!\n";
    for (vcd, tag, line) in [
        (format!("{header}{body}"), "no-enddefinitions", 13),
        (header.to_owned(), "cut-header", 3),
    ] {
        let (stdout, stderr, code) = check_handshake_binary(&vcd, tag);
        assert_eq!(code, Some(1), "{stdout}");
        assert_eq!(stdout, "");
        assert_eq!(
            stderr,
            format!(
                "cesc: malformed VCD at line {line}: end of input before `$enddefinitions`: \
                 the header was never closed\n"
            )
        );
    }
}

#[test]
fn fleet_binary_cosim_composes_with_json_jobs_and_progress() {
    // `--cosim` rides the fleet route in the release binary: it takes
    // `--json`, `--jobs` and `--progress`, adds a `cosim` object to
    // chart targets only, and reports the same at any worker count
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("cesc-cli-cosim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (spec, dump) = (dir.join("spec.cesc"), dir.join("dump.vcd"));
    std::fs::write(&spec, FLEET_SPEC).unwrap();
    std::fs::write(&dump, fleet_vcd(true)).unwrap();
    let check = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_cesc"))
            .arg("check")
            .arg(&spec)
            .arg("--vcd")
            .arg(&dump)
            .args(["--all-charts", "--cosim"])
            .args(args)
            .output()
            .unwrap()
    };

    let out = check(&["--json", "--jobs", "2", "--progress"]);
    let json = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{json}{}", String::from_utf8_lossy(&out.stderr));
    assert!(json.contains("\"failed\":false"), "{json}");
    let targets: Vec<&str> = json.split("{\"kind\":").skip(1).collect();
    assert_eq!(targets.len(), 5, "{json}");
    for t in &targets {
        let is_chart = t.starts_with("\"chart\"");
        assert_eq!(t.contains("\"cosim\":"), is_chart, "{t}");
        if is_chart {
            assert!(t.contains("\"cosim\":{\"verdict\":\"ok\",\"ticks\":4,"), "{t}");
        }
    }

    // the text report is the same at one and four workers, apart from
    // the worker-count banner
    let text = |jobs: &str| {
        let out = check(&["--jobs", jobs]);
        assert_eq!(out.status.code(), Some(0));
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("checked "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = text("1");
    assert_eq!(serial.matches("  cosim: OK").count(), 4, "{serial}");
    assert_eq!(text("4"), serial);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An assert whose antecedent has no `cause` arrow, so it completes
/// on every `req` then `gnt`: each completion obliges `ack`, `data`
/// and `done` on the next three ticks.
const GATED_SPEC: &str = r#"
scesc grant on clk { instances { M, S } events { req, gnt, ack, data, done } tick { M: req } tick { S: gnt } }
scesc answer on clk {
    instances { S } events { req, gnt, ack, data, done }
    tick { S: ack } tick { S: data } tick { S: done }
}
cesc answered { implies(grant, answer) }
"#;

#[test]
fn fleet_assert_dropped_response_fails_with_the_same_ticks_at_any_jobs() {
    // a non-vacuous assert over a dump that spans several chunks: every
    // 7th transaction drops its `done`, and every other one overlaps
    // the next request with the current answer, so two obligations are
    // open at once. The release binary must exit 2 with the violation
    // ticks of the reference checker, at --jobs 1, 2 and 4.
    use cesc::core::{ImplicationChecker, Verdict};
    use std::process::Command;

    let specs = cesc::spec::SpecSet::load(GATED_SPEC).unwrap();
    let ab = specs.alphabet();
    let v = |names: &[&str]| {
        cesc::expr::Valuation::of(names.iter().map(|n| ab.lookup(n).unwrap()))
    };
    let mut trace = Vec::new();
    for k in 0..3_000 {
        let done = if k % 7 == 3 { v(&[]) } else { v(&["done"]) };
        if k % 2 == 0 {
            trace.extend([v(&["req"]), v(&["gnt"]), v(&["ack"]), v(&["data"]), done, v(&[])]);
        } else {
            // the second request is granted while the first answer is
            // still open
            let first = [v(&["req"]), v(&["gnt"]), v(&["ack", "req"]), v(&["data", "gnt"])];
            trace.extend(first);
            trace.extend([v(&["done", "ack"]), v(&["data"]), done]);
        }
    }
    // the reference: the interpreted checker on the same ticks
    let gate = specs.assert_spec(0).unwrap();
    let mut oracle = ImplicationChecker::new(gate.antecedent().clone(), gate.consequent().clone());
    let mut open_max = 0;
    for &t in &trace {
        oracle.step(t);
        open_max = open_max.max(oracle.outstanding());
    }
    assert_eq!(oracle.verdict(), Verdict::Failed);
    assert!(open_max >= 2, "obligations overlap: {open_max}");
    let expect: Vec<String> = oracle
        .violations()
        .iter()
        .take(100)
        .map(|v| {
            format!(
                "{{\"antecedent_at\":{},\"failed_at\":{},\"progress\":{}}}",
                v.antecedent_at, v.failed_at, v.progress
            )
        })
        .collect();

    let ticks = trace.len();
    let vcd = write_vcd(&trace.into_iter().collect(), ab, &VcdWriteOptions::default());
    let dir = std::env::temp_dir().join(format!("cesc-cli-gated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (spec, dump) = (dir.join("spec.cesc"), dir.join("dump.vcd"));
    std::fs::write(&spec, GATED_SPEC).unwrap();
    std::fs::write(&dump, &vcd).unwrap();
    let check = |jobs: &str, json: bool| {
        let out = Command::new(env!("CARGO_BIN_EXE_cesc"))
            .arg("check")
            .arg(&spec)
            .arg("--vcd")
            .arg(&dump)
            .args(["--all-charts", "--jobs", jobs])
            .args(json.then_some("--json"))
            .output()
            .unwrap();
        (zero_timings(&String::from_utf8(out.stdout).unwrap()), out.status.code())
    };
    let (text, status) = check("1", false);
    assert_eq!(status, Some(2), "{text}");
    assert!(text.contains(&format!(
        "assert `answered` (clock clk) over {ticks} ticks: failed — {} fulfilled, {} outstanding, \
         {} violation(s)",
        oracle.fulfilled(),
        oracle.outstanding(),
        oracle.violation_count()
    )), "{text}");
    assert!(text.contains("; antecedent completed "), "{text}");
    let (serial, status) = check("1", true);
    assert_eq!(status, Some(2), "{serial}");
    assert!(serial.contains("\"verdict\":\"failed\""), "{serial}");
    assert!(
        serial.contains(&format!("\"violation_count\":{}", oracle.violation_count())),
        "{serial}"
    );
    assert!(serial.contains(&format!("\"violations\":[{}]", expect.join(","))), "{serial}");
    for jobs in ["2", "4"] {
        assert_eq!(check(jobs, true), (serial.clone(), Some(2)), "--jobs {jobs}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A one-chart spec for the `$comment` dumps: `p` detects any tick
/// with `req` high.
const COMMENT_SPEC: &str = "scesc p on clk { instances { M } events { req } tick { M: req } }";

#[test]
fn fleet_check_binds_no_declaration_inside_a_header_comment() {
    // the `$var` inside the `$comment` block declares nothing, so the
    // pulse on its code `$` is not `req`
    let vcd = "\
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$comment
$var wire 1 $ req $end
$end
$var wire 1 \" req $end
$upscope $end
$enddefinitions $end
#0
0!
0\"
0$
#5
1!
1$
#10
0!
0$
#15
1!
";
    let out = check_one(COMMENT_SPEC, "p", vcd.as_bytes(), &CheckOptions::default()).unwrap();
    assert!(out.contains("NOT OBSERVED"), "{out}");
}

#[test]
fn fleet_check_refuses_a_multi_line_comment_in_the_body() {
    // a block folds without its entry state, so a `$comment` spanning
    // lines in the body is refused with its line, never read as data
    // (`1"` / `#12` / `1!` inside it would otherwise detect `p` at 12)
    let vcd = "\
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 1 \" req $end
$upscope $end
$enddefinitions $end
$dumpvars
0!
0\"
$end
#0
#5
1!
#10
0!
$comment
1\"
#12
1!
$end
#15
1!
#20
0!
";
    let err = check_one(COMMENT_SPEC, "p", vcd.as_bytes(), &CheckOptions::default()).unwrap_err();
    assert!(matches!(err, CliError::Pipeline(_)), "{err}");
    assert!(err.to_string().contains("line 16"), "{err}");
    assert!(err.to_string().contains("$comment"), "{err}");
    // closed on its own line, the same comment is skipped
    let one_line = vcd.replace("$comment\n1\"\n#12\n1!\n$end\n", "$comment 1\" #12 1! $end\n");
    let out = check_one(COMMENT_SPEC, "p", one_line.as_bytes(), &CheckOptions::default()).unwrap();
    assert!(out.contains("NOT OBSERVED"), "{out}");
}

/// `p`'s verdict over `vcd` with every match listed, the same at
/// `--jobs 1` and `--jobs 2`.
fn comment_spec_verdict(vcd: &str) -> String {
    let verdict = |jobs| {
        let opts = CheckOptions {
            all_matches: true,
            jobs,
            ..Default::default()
        };
        let out = check_one(COMMENT_SPEC, "p", vcd.as_bytes(), &opts).unwrap();
        let line = out.lines().last().unwrap();
        line.strip_prefix("chart `p` (clock clk) over ").unwrap().to_owned()
    };
    let serial = verdict(1);
    assert_eq!(verdict(2), serial, "--jobs 2 over {vcd:?}");
    serial
}

#[test]
fn fleet_check_pins_simulator_output_rules() {
    // the rules a reader of real simulator output must keep, whichever
    // line shapes the decoder matches first
    let dump = |width: u32, body: &str| {
        comment_spec_verdict(&format!(
            "$var wire 1 ! clk $end\n$var wire {width} \" req $end\n$enddefinitions $end\n{body}"
        ))
    };
    let verdict = |body: &str| dump(1, body);
    let detected =
        |times: &str| format!("2 sampled cycles: DETECTED — {times}, scoreboard underflows 0");
    // a vector reads true when any bit is 1; x and z bits read 0
    assert_eq!(
        dump(
            4,
            "#0\n0!\nb0000 \"\n#5\n1!\nb0100 \"\n#10\n0!\n#15\n1!\nbxz00 \"\n#20\n0!\n"
        ),
        detected("1 occurrence(s) at times [5]")
    );
    // a clock that goes x at `$dumpoff` and 1 at `$dumpon` rises
    assert_eq!(
        verdict(
            "#0\n0!\n0\"\n#5\n1!\n1\"\n#10\n$dumpoff\nx!\nx\"\n$end\n\
             #20\n$dumpon\n1!\n1\"\n$end\n#25\n0!\n"
        ),
        detected("2 occurrence(s) at times [5, 20]")
    );
    // a glitch, `1!` then `0!` at one timestamp, is one rise, sampled
    // after every change of that instant: `req` falls at 5 after the
    // rise and rises at 10 after the pulses
    assert_eq!(
        verdict("#0\n0!\n0\"\n#5\n1\"\n1!\n0!\n0\"\n#10\n1!\n0!\n1!\n0!\n1\"\n#15\n0\"\n"),
        detected("1 occurrence(s) at times [10]")
    );
    // the x values a `$dumpoff` block sets read false
    assert_eq!(
        verdict("#0\n0!\n1\"\n#5\n1!\n#10\n0!\n#15\n$dumpoff\nx\"\n$end\n#20\n1!\n#25\n0!\n"),
        detected("1 occurrence(s) at times [5]")
    );
}

#[test]
fn fleet_check_survives_hostile_vcd_input() {
    // binary junk (invalid UTF-8), truncated dumps and malformed
    // timestamps must come back as pipeline errors, never panics
    let opts = CheckOptions::default();
    let junk: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
    let err = check_one(SPEC, "hs", junk.as_slice(), &opts).unwrap_err();
    assert!(matches!(err, CliError::Pipeline(_)));

    let truncated = "$var wire 1 ! clk $end\n$enddefinitions $end\n#0\n1!\n#z";
    let err = check_one(SPEC, "hs", truncated.as_bytes(), &opts).unwrap_err();
    assert!(err.to_string().contains("timestamp"), "{err}");

    let short_var = "$var wire 1 $end\n";
    let err = check_one(SPEC, "hs", short_var.as_bytes(), &opts).unwrap_err();
    assert!(err.to_string().contains("$var"), "{err}");

    // no header at all: the sampled clock is reported missing by name
    let err = check_one(SPEC, "hs", b"not a vcd".as_slice(), &opts).unwrap_err();
    assert!(err.to_string().contains("clk"));
}

#[test]
fn fleet_check_reads_aliased_identifier_codes() {
    // one identifier code declared for two names (an aliased net): a
    // rise on the code raises both `a` and `b`
    const ALIAS_SPEC: &str =
        "scesc both on clk { instances { M } events { a, b } tick { M: a, b } }";
    let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" a $end
$var wire 1 \" b $end
$enddefinitions $end
#0
0!
0\"
#5
1\"
1!
#10
0!
";
    let out = check_one(ALIAS_SPEC, "both", vcd.as_bytes(), &CheckOptions::default()).unwrap();
    assert!(out.contains("DETECTED — 1 occurrence(s)"), "{out}");
}

#[test]
fn fleet_check_unknown_name_lists_charts_and_multiclock_specs() {
    let err = check_one(MULTI_SPEC, "ghost", b"".as_slice(), &CheckOptions::default())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("m1, m2"), "{msg}");
    assert!(msg.contains("pair"), "{msg}");
}

/// Basic charts, a multiclock spec and an implies(...) assertion in
/// one document — the fleet-mode selection space.
const FLEET_SPEC: &str = r#"
scesc hs on clk {
    instances { M, S }
    events { req, ack }
    tick { M: req }
    tick { S: ack }
    cause req -> ack;
}
scesc pulse on clk { instances { M } events { p } tick { M: p } }
scesc rsp on clk { instances { S } events { p } tick { S: p } }
scesc ping on clk { instances { M } events { req } tick { M: req } }
cesc gate { implies(ping, rsp) }
cesc boring { seq(pulse, pulse) }
"#;

/// One compliant handshake (req, then ack) — `gate` demands that every
/// `ping` (a req tick) is followed by `rsp` (a p tick); `with_rsp`
/// controls whether the consequent actually follows.
fn fleet_vcd(with_rsp: bool) -> String {
    let doc = cesc::chart::parse_document(FLEET_SPEC).unwrap();
    let req = doc.alphabet.lookup("req").unwrap();
    let ack = doc.alphabet.lookup("ack").unwrap();
    let p = doc.alphabet.lookup("p").unwrap();
    let trace: cesc::trace::Trace = [
        cesc::expr::Valuation::of([req]),
        if with_rsp {
            cesc::expr::Valuation::of([ack, p])
        } else {
            cesc::expr::Valuation::of([ack])
        },
        cesc::expr::Valuation::empty(),
        cesc::expr::Valuation::empty(),
    ]
    .into_iter()
    .collect();
    write_vcd(&trace, &doc.alphabet, &VcdWriteOptions::default())
}

#[test]
fn fleet_checks_all_charts_in_one_pass() {
    let vcd = fleet_vcd(true);
    for jobs in [1, 4] {
        let opts = CheckOptions {
            jobs,
            ..Default::default()
        };
        let outcome =
            check_fleet(FLEET_SPEC, &[], true, vcd.as_bytes(), None, &opts).unwrap();
        assert!(!outcome.failed, "{}", outcome.output);
        let out = &outcome.output;
        assert!(out.contains("5 target(s)"), "{out}");
        assert!(out.contains(&format!("with {jobs} worker(s)")), "{out}");
        assert!(out.contains("chart `hs` (clock clk)"), "{out}");
        assert!(out.contains("chart `pulse`"), "{out}");
        assert!(out.contains("assert `gate` (clock clk)"), "{out}");
        assert!(out.contains("passed"), "{out}");
        // `ping` completes once (the req tick) and arms `gate` once
        assert!(out.contains("; antecedent completed 1 time(s)"), "{out}");
        // `boring` is seq(...), not an assert: --all-charts skips it
        assert!(!out.contains("boring"), "{out}");
    }
    // `hs` carries a `cause` arrow, so as an antecedent (`Chk_evt`
    // pinned false) it never completes, and the report says so
    let outcome = check_fleet(
        PROVE_SPEC,
        &["hs_gate".to_owned()],
        false,
        vcd.as_bytes(),
        None,
        &CheckOptions::default(),
    )
    .unwrap();
    assert!(
        outcome.output.contains("idle — 0 fulfilled, 0 outstanding; antecedent never completed"),
        "{}",
        outcome.output
    );
}

#[test]
fn fleet_check_on_a_header_only_dump_starts_no_shard() {
    // the shard threads start with the first fed chunk: a dump with no
    // body feeds none, so an observed run records no shard, and every
    // target is still rendered
    let vcd = fleet_vcd(true);
    let header = &vcd[..vcd.find("$enddefinitions $end\n").unwrap() + 21];
    for jobs in [1, 2] {
        let opts = CheckOptions {
            jobs,
            stats: cesc::cli::StatsOptions {
                obs: cesc::obs::Obs::enabled(),
                ..Default::default()
            },
            ..Default::default()
        };
        let outcome = check_fleet(FLEET_SPEC, &[], true, header.as_bytes(), None, &opts).unwrap();
        let out = &outcome.output;
        assert!(!outcome.failed, "{out}");
        assert!(out.contains("5 target(s) over 0 global steps"), "{out}");
        for target in ["chart `hs`", "chart `pulse`", "assert `gate`"] {
            assert!(out.contains(target), "jobs={jobs}: {out}");
        }
        let run = opts.stats.obs.report("check");
        assert!(run.shards.is_empty(), "jobs={jobs}: {:?}", run.shards);
        assert_eq!(run.counter(cesc::obs::key::FLEET_CHUNKS), 0);
        assert_eq!(run.bound(), None);
    }
}

#[test]
fn fleet_check_skips_unread_real_and_string_vars() {
    // simulator dumps carry real and string variables no chart reads:
    // their value changes must not stop the check, nor move a verdict
    let vcd = fleet_vcd(true);
    let mut noisy = String::new();
    for (i, line) in vcd.lines().enumerate() {
        if line == "$enddefinitions $end" {
            noisy.push_str("$var real 64 zz temp $end\n$var string 1 zy label $end\n");
        }
        noisy.push_str(line);
        noisy.push('\n');
        if line.starts_with('#') {
            noisy.push_str(&format!("r{i}.25 zz\nsphase{i} zy\n"));
        }
    }
    assert!(noisy.contains("\nr"), "{noisy}");
    let opts = CheckOptions {
        json: true,
        ..Default::default()
    };
    let run = |dump: &str| {
        let outcome = check_fleet(FLEET_SPEC, &[], true, dump.as_bytes(), None, &opts).unwrap();
        zero_timings(&outcome.output)
    };
    let clean = run(&vcd);
    assert!(clean.contains("\"verdict\":\"detected\""), "{clean}");
    assert_eq!(run(&noisy), clean);
}

#[test]
fn fleet_assert_violation_sets_failed_flag() {
    let vcd = fleet_vcd(false); // consequent never follows
    let outcome = check_fleet(
        FLEET_SPEC,
        &["gate".to_owned()],
        false,
        vcd.as_bytes(),
        None,
        &CheckOptions::default(),
    )
    .unwrap();
    assert!(outcome.failed);
    assert!(outcome.output.contains("failed"), "{}", outcome.output);
    assert!(outcome.output.contains("1 violation(s)"), "{}", outcome.output);
}

#[test]
fn fleet_json_report_is_machine_readable() {
    let vcd = fleet_vcd(false);
    let opts = CheckOptions {
        json: true,
        jobs: 2,
        ..Default::default()
    };
    let outcome = check_fleet(FLEET_SPEC, &[], true, vcd.as_bytes(), None, &opts).unwrap();
    let out = &outcome.output;
    assert!(out.starts_with("{\"schema\":\"cesc-check/3\""), "{out}");
    assert!(out.contains("\"ticks\":"), "{out}");
    assert!(out.contains("\"wall_ms\":"), "{out}");
    assert!(out.contains("\"exec_ms\":"), "{out}");
    assert!(out.contains("\"jobs\":2"), "{out}");
    assert!(out.contains("\"failed\":true"), "{out}");
    assert!(out.contains("\"kind\":\"chart\""), "{out}");
    assert!(out.contains("\"name\":\"hs\""), "{out}");
    assert!(out.contains("\"verdict\":\"detected\""), "{out}");
    assert!(out.contains("\"kind\":\"assert\""), "{out}");
    assert!(out.contains("\"violation_count\":1"), "{out}");
    assert!(out.contains("\"antecedent_at\":"), "{out}");
    assert!(out.contains("\"antecedent_matches\":1"), "{out}");
    // bounded summary mode carries no full hit list
    assert!(!out.contains("\"all\":"), "{out}");

    let all = CheckOptions {
        json: true,
        all_matches: true,
        ..Default::default()
    };
    let outcome = check_fleet(FLEET_SPEC, &[], true, vcd.as_bytes(), None, &all).unwrap();
    assert!(outcome.output.contains("\"all\":["), "{}", outcome.output);
}

#[test]
fn fleet_deduplicates_repeated_chart_names() {
    let vcd = fleet_vcd(true);
    let names = vec!["pulse".to_owned(), "hs".to_owned(), "pulse".to_owned()];
    let outcome = check_fleet(
        FLEET_SPEC,
        &names,
        false,
        vcd.as_bytes(),
        None,
        &CheckOptions::default(),
    )
    .unwrap();
    assert!(outcome.output.contains("2 target(s)"), "{}", outcome.output);
    assert_eq!(outcome.output.matches("chart `pulse`").count(), 1);
}

#[test]
fn fleet_unknown_name_lists_all_target_kinds() {
    let err = check_fleet(
        FLEET_SPEC,
        &["ghost".to_owned()],
        false,
        b"".as_slice(),
        None,
        &CheckOptions::default(),
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("hs, pulse, rsp"), "{msg}");
    assert!(msg.contains("assert compositions: gate"), "{msg}");
}

#[test]
fn fleet_rejects_non_implication_compositions() {
    let err = check_fleet(
        FLEET_SPEC,
        &["boring".to_owned()],
        false,
        b"".as_slice(),
        None,
        &CheckOptions::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("not an implies"), "{err}");
}

#[test]
fn fleet_clock_override_renames_sampled_signal() {
    // a chart declared on `sysclk` checked against a dump whose clock
    // signal is `clk` — the override bridges the naming
    const SPEC: &str = "scesc p on sysclk { instances { M } events { x } tick { M: x } }";
    let doc = cesc::chart::parse_document(SPEC).unwrap();
    let x = doc.alphabet.lookup("x").unwrap();
    let trace: cesc::trace::Trace = [cesc::expr::Valuation::of([x])].into_iter().collect();
    let vcd = write_vcd(&trace, &doc.alphabet, &VcdWriteOptions::default());

    let named = check_fleet(
        SPEC,
        &["p".to_owned()],
        false,
        vcd.as_bytes(),
        Some("clk"),
        &CheckOptions::default(),
    )
    .unwrap();
    assert!(named.output.contains("DETECTED"), "{}", named.output);

    // without the override the declared clock `sysclk` is absent from
    // the dump: the stream reports it
    let err = check_fleet(
        SPEC,
        &["p".to_owned()],
        false,
        vcd.as_bytes(),
        None,
        &CheckOptions::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("sysclk"), "{err}");
}

#[test]
fn fleet_clock_override_rejects_mixed_clocks() {
    const SPEC: &str = "scesc a on c1 { instances { M } events { x } tick { M: x } }\
                        scesc b on c2 { instances { M } events { x } tick { M: x } }";
    let names = vec!["a".to_owned(), "b".to_owned()];
    let err = check_fleet(
        SPEC,
        &names,
        false,
        b"".as_slice(),
        Some("clk"),
        &CheckOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    assert!(err.to_string().contains("different declared clocks"), "{err}");

    let err = check_fleet(
        MULTI_SPEC,
        &["pair".to_owned()],
        false,
        b"".as_slice(),
        Some("clk"),
        &CheckOptions::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("multiclock"), "{err}");
}

#[test]
fn fleet_checks_multiclock_specs_too() {
    use cesc::expr::Valuation;
    use cesc::trace::{write_vcd_global, ClockDomain, ClockSet, GlobalRun, Trace};

    let doc = cesc::chart::parse_document(MULTI_SPEC).unwrap();
    let go = doc.alphabet.lookup("go").unwrap();
    let done = doc.alphabet.lookup("done").unwrap();
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements([Valuation::of([go]); 2])),
            (c2, Trace::from_elements([Valuation::of([done]); 2])),
        ],
    )
    .unwrap();
    let owners = [Valuation::of([go]), Valuation::of([done])];
    let vcd = write_vcd_global(&run, &clocks, &doc.alphabet, &owners, &VcdWriteOptions::default());

    let opts = CheckOptions {
        jobs: 3,
        ..Default::default()
    };
    let outcome = check_fleet(MULTI_SPEC, &[], true, vcd.as_bytes(), None, &opts).unwrap();
    let out = &outcome.output;
    assert!(out.contains("multiclock `pair` (clocks clk1, clk2)"), "{out}");
    assert!(out.contains("2 occurrence(s)"), "{out}");
    // the component charts ride the same pass
    assert!(out.contains("chart `m1`"), "{out}");
    assert!(!outcome.failed);
}

#[test]
fn usage_covers_every_flag() {
    let text = usage();
    for flag in [
        "--chart", "--format", "--vcd", "--clock", "--all-matches", "--jobs", "--json",
        "--all-charts", "--cosim", "--out-dir", "--force", "--no-opt",
    ] {
        assert!(text.contains(flag), "usage misses {flag}: {text}");
    }
}

/// Runs the release binary on `args`; returns its exit code and stderr.
fn cesc_status(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cesc"))
        .args(args)
        .output()
        .unwrap();
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

#[test]
fn options_outside_a_command_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("cesc-cli-options-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.cesc");
    std::fs::write(&spec, SPEC).unwrap();
    let spec = spec.to_str().unwrap();
    for (args, flag, command) in [
        (
            &["render", spec, "--jobs", "4", "--cosim", "--format", "dot"][..],
            "--jobs",
            "render",
        ),
        (
            &["lint", spec, "--no-opt", "--vcd", "x"][..],
            "--no-opt",
            "lint",
        ),
        (&["prove", spec, "--no-opt"][..], "--no-opt", "prove"),
        (&["synth", spec, "--progress"][..], "--progress", "synth"),
        (
            &["check", spec, "--deny", "--all-charts", "--vcd", "x"][..],
            "--deny",
            "check",
        ),
    ] {
        let (code, stderr) = cesc_status(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("option `{flag}` does not apply to {command}")),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_usage_flag_parses_for_its_command() {
    let dir = std::env::temp_dir().join(format!("cesc-cli-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.cesc");
    std::fs::write(&spec, SPEC).unwrap();
    let spec = spec.to_str().unwrap();
    let out_path = dir.join("out").to_str().unwrap().to_owned();
    // the per-command lines of `usage()`, up to the first blank line
    // after them (fuzz parses its own flags)
    let mut command = None;
    let mut seen = 0;
    for line in usage().lines().skip(1) {
        let line = line.trim();
        let head = line.split_whitespace().next().unwrap_or("");
        if ["render", "synth", "check", "lint", "prove"].contains(&head) {
            command = Some(head);
        } else if head == "fuzz" || (line.is_empty() && command.is_some()) {
            break;
        } else if !line.starts_with(['[', '(']) {
            continue;
        }
        let Some(command) = command else { continue };
        let words: Vec<&str> = line
            .split(['[', ']', '(', ')', ' '])
            .filter(|w| !w.is_empty())
            .collect();
        for (i, flag) in words
            .iter()
            .enumerate()
            .filter(|(_, w)| w.starts_with("--"))
        {
            let value = words.get(i + 1).and_then(|&v| match v {
                "N" => Some("2"),
                "NAME" => Some("hs"),
                "RULE" => Some("vacuity"),
                "FILE" | "DIR" => Some(out_path.as_str()),
                v if v.contains('|') => v.split('|').next(),
                _ => None,
            });
            let mut args = vec![command, spec, *flag];
            args.extend(value);
            let (_, stderr) = cesc_status(&args);
            assert!(
                !stderr.contains("does not apply") && !stderr.contains("unknown option"),
                "{args:?}: {stderr}"
            );
            seen += 1;
        }
    }
    assert!(seen >= 30, "parsed only {seen} usage flags");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn errors_are_reported() {
    assert!(matches!(
        render("scesc broken {", None),
        Err(CliError::Pipeline(_))
    ));
    let err = synth(SPEC, Some("ghost"), SynthFormat::Summary, false).unwrap_err();
    assert!(err.to_string().contains("available: hs, pulse"));
}

#[test]
fn synth_summary_reports_the_pass_pipeline() {
    let summary = synth(SPEC, Some("hs"), SynthFormat::Summary, false).unwrap();
    assert!(summary.contains("opt: states"), "{summary}");
    assert!(summary.contains("scoreboard slots"), "{summary}");
    // --no-opt: same monitor, explicit marker instead of a report
    let raw = cesc::cli::synth_with(
        SPEC,
        Some("hs"),
        SynthFormat::Summary,
        false,
        false,
        None,
        &cesc::cli::StatsOptions::default(),
    )
    .unwrap();
    assert!(raw.contains("opt: disabled (--no-opt)"), "{raw}");
    assert!(raw.contains("analysis:"), "{raw}");
}

#[test]
fn fleet_json_opt_report_follows_the_no_opt_flag() {
    let vcd = fleet_vcd(true);
    let opts = CheckOptions {
        json: true,
        ..Default::default()
    };
    let outcome = check_fleet(FLEET_SPEC, &[], true, vcd.as_bytes(), None, &opts).unwrap();
    assert!(outcome.output.contains("\"opt\":{\"states\":["), "{}", outcome.output);
    assert!(outcome.output.contains("\"slots\":["), "{}", outcome.output);

    let no_opt = CheckOptions {
        json: true,
        no_opt: true,
        ..Default::default()
    };
    let raw = check_fleet(FLEET_SPEC, &[], true, vcd.as_bytes(), None, &no_opt).unwrap();
    assert!(!raw.output.contains("\"opt\""), "{}", raw.output);
    // verdicts are identical either way
    let strip = |s: &str| {
        let mut out = String::new();
        let mut rest = s;
        while let Some(i) = rest.find(",\"opt\":{") {
            out.push_str(&rest[..i]);
            let tail = &rest[i + 8..];
            let end = tail.find('}').expect("opt object closes");
            rest = &tail[end + 1..];
        }
        out.push_str(rest);
        out
    };
    // timing fields (cesc-check/3) are run-dependent — zero them out
    let scrub = |s: &str, key: &str| {
        let pat = format!("\"{key}\":");
        let mut out = String::new();
        let mut rest = s;
        while let Some(i) = rest.find(&pat) {
            out.push_str(&rest[..i + pat.len()]);
            out.push('0');
            let tail = &rest[i + pat.len()..];
            let end = tail.find([',', '}']).expect("number terminated");
            rest = &tail[end..];
        }
        out.push_str(rest);
        out
    };
    let normalize = |s: &str| scrub(&scrub(&strip(s), "wall_ms"), "exec_ms");
    assert_eq!(normalize(&outcome.output), normalize(&raw.output));
}

#[test]
fn fleet_no_opt_check_matches_optimized_verdicts() {
    let vcd = fleet_vcd(true);
    let optimized = check_one(FLEET_SPEC, "hs", vcd.as_bytes(), &CheckOptions::default()).unwrap();
    let raw = check_one(
        FLEET_SPEC,
        "hs",
        vcd.as_bytes(),
        &CheckOptions {
            no_opt: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(optimized, raw);
}

#[test]
fn bus_library_unknown_target_lists_every_chart() {
    // the combined AXI4-Lite/APB/Wishbone document: a typo'd --chart
    // must enumerate all nine charts so the user can pick the real one
    let src = cesc::protocols::bus_library_src();
    let err = check_fleet(
        &src,
        &["axi4_lite_raed".to_owned()],
        false,
        b"".as_slice(),
        None,
        &CheckOptions::default(),
    )
    .unwrap_err();
    let msg = err.to_string();
    for chart in [
        "axi4_lite_read",
        "axi4_lite_write",
        "axi4_lite_read_wait",
        "apb_read",
        "apb_write",
        "apb_read_wait",
        "wb_read",
        "wb_write",
        "wb_block_read",
    ] {
        assert!(msg.contains(chart), "missing `{chart}` in: {msg}");
    }
}

/// A refutable gate next to a vacuously-provable one: `gate`'s
/// antecedent (`ping`) completes on a bare req tick but nothing forces
/// the consequent's p, while `hs_gate`'s antecedent (`hs`) carries a
/// `cause` arrow and can never complete under the scoreboard-free
/// checker semantics.
const PROVE_SPEC: &str = r#"
scesc hs on clk {
    instances { M, S }
    events { req, ack }
    tick { M: req }
    tick { S: ack }
    cause req -> ack;
}
scesc ping on clk { instances { M } events { req } tick { M: req } }
scesc rsp on clk { instances { S } events { p } tick { S: p } }
cesc gate { implies(ping, rsp) }
cesc hs_gate { implies(hs, rsp) }
cesc boring { seq(ping, ping) }
"#;

#[test]
fn prove_text_reports_both_verdicts() {
    use cesc::cli::{prove, ProveCliOptions};
    let outcome = prove(PROVE_SPEC, &[], &ProveCliOptions::default()).unwrap();
    assert!(outcome.failed, "{}", outcome.output);
    let out = &outcome.output;
    assert!(out.contains("assert `gate` on clk: REFUTED"), "{out}");
    assert!(out.contains("tick 0: {req}"), "{out}");
    assert!(out.contains("replayed through the engine"), "{out}");
    assert!(out.contains("assert `hs_gate` on clk: PROVED (vacuous"), "{out}");
    assert!(
        out.contains("PROVE: FAIL (1 of 2 assert(s) refuted) — proved: 1 vacuous, 0 real"),
        "{out}"
    );

    // selecting only the provable assert succeeds with the OK footer
    let outcome = prove(PROVE_SPEC, &["hs_gate".to_owned()], &ProveCliOptions::default()).unwrap();
    assert!(!outcome.failed, "{}", outcome.output);
    assert!(
        outcome.output.contains("PROVE: OK (1 assert(s) proved) — 1 vacuous, 0 real"),
        "{}",
        outcome.output
    );

    // a real proof: the consequent's one empty tick holds on any tick
    let real = "scesc ping on clk { instances { M } events { req } tick { M: req } }\
                scesc any on clk { instances { M } events { req } tick ; }\
                cesc sure { implies(ping, any) }";
    let outcome = prove(real, &[], &ProveCliOptions::default()).unwrap();
    assert!(
        outcome.output.contains("PROVE: OK (1 assert(s) proved) — 0 vacuous, 1 real"),
        "{}",
        outcome.output
    );
}

#[test]
fn prove_json_is_machine_readable() {
    use cesc::cli::{prove, ProveCliOptions};
    let opts = ProveCliOptions {
        json: true,
        ..Default::default()
    };
    let outcome = prove(PROVE_SPEC, &[], &opts).unwrap();
    let out = &outcome.output;
    assert!(out.starts_with("{\"schema\":\"cesc-prove/1\""), "{out}");
    assert!(out.contains("\"asserts\":2"), "{out}");
    assert!(out.contains("\"proved\":1"), "{out}");
    assert!(out.contains("\"refuted\":1"), "{out}");
    assert!(out.contains("\"failed\":true"), "{out}");
    assert!(out.contains("\"name\":\"gate\""), "{out}");
    assert!(out.contains("\"verdict\":\"refuted\""), "{out}");
    assert!(out.contains("\"counterexample\":{\"ticks\":"), "{out}");
    assert!(out.contains("\"trace\":[[\"req\"],[]]"), "{out}");
    assert!(out.contains("\"antecedent_at\":0"), "{out}");
    assert!(out.contains("\"name\":\"hs_gate\""), "{out}");
    assert!(out.contains("\"verdict\":\"proved\""), "{out}");
    assert!(out.contains("\"vacuous\":true"), "{out}");
    assert!(out.contains("\"counterexample\":null"), "{out}");
    assert!(out.contains("\"product_states\":"), "{out}");
    assert!(out.contains("\"sat_queries\":"), "{out}");
}

#[test]
fn prove_corpus_out_writes_replayable_reproducers() {
    use cesc::cli::{prove, ProveCliOptions};
    use cesc::fuzz::corpus::{replay_file, ReplaySummary, PROVE_HEADER};
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("prove-corpus-out");
    std::fs::remove_dir_all(&dir).ok();
    let opts = ProveCliOptions {
        corpus_out: Some(dir.display().to_string()),
        ..Default::default()
    };
    let outcome = prove(PROVE_SPEC, &[], &opts).unwrap();
    assert!(outcome.output.contains("reproducers written"), "{}", outcome.output);
    // only the refuted assert gets a file, and it replays
    let path = dir.join("prove-gate.cesc");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with(PROVE_HEADER), "{text}");
    assert!(text.contains("// assert: gate"), "{text}");
    assert!(!dir.join("prove-hs_gate.cesc").exists());
    let mut summary = ReplaySummary::default();
    replay_file(&path, &mut summary).unwrap();
    assert_eq!(summary.prove, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prove_rejects_bad_targets() {
    use cesc::cli::{prove, ProveCliOptions};
    let opts = ProveCliOptions::default();
    // a seq(...) composition is not provable
    let err = prove(PROVE_SPEC, &["boring".to_owned()], &opts).unwrap_err();
    assert!(err.to_string().contains("not an implies"), "{err}");
    // a basic chart is not provable either
    let err = prove(PROVE_SPEC, &["ping".to_owned()], &opts).unwrap_err();
    assert!(err.to_string().contains("implies"), "{err}");
    assert!(err.to_string().contains("cesc check"), "{err}");
    // unknown names list what exists
    let err = prove(PROVE_SPEC, &["ghost".to_owned()], &opts).unwrap_err();
    assert!(err.to_string().contains("gate"), "{err}");
    // a document without implies(...) asserts has nothing to prove
    let err = prove(SPEC, &[], &opts).unwrap_err();
    assert!(err.to_string().contains("no implies"), "{err}");
}

#[test]
fn prove_discharges_the_bus_library() {
    use cesc::cli::{prove, ProveCliOptions};
    let src = cesc::protocols::bus_library_src();
    let outcome = prove(&src, &[], &ProveCliOptions::default()).unwrap();
    assert!(!outcome.failed, "{}", outcome.output);
    assert!(
        outcome.output.contains("PROVE: OK (3 assert(s) proved) — 3 vacuous, 0 real"),
        "{}",
        outcome.output
    );
}

#[test]
fn lint_json_carries_source_positions() {
    use cesc::cli::{lint, LintCliOptions};
    // `gate`'s antecedent completes while the consequent is
    // unsatisfiable in lockstep — L110 fires, anchored to the assert
    let opts = LintCliOptions {
        json: true,
        ..Default::default()
    };
    let outcome = lint(PROVE_SPEC, &[], &opts).unwrap();
    let out = &outcome.output;
    assert!(out.starts_with("{\"schema\":\"cesc-lint/2\""), "{out}");
    assert!(out.contains("\"line\":"), "{out}");
    assert!(out.contains("\"column\":"), "{out}");
    // at least one finding is anchored to a real position
    let anchored = out.contains("\"line\":1")
        || (out.contains("\"line\":") && !out.contains("\"line\":null"));
    assert!(anchored, "{out}");
}

#[test]
fn bus_library_clock_override_rejects_cross_bus_selection() {
    // axi4 charts sample aclk, APB pclk, Wishbone wb_clk: renaming the
    // sampled clock across buses is ambiguous and must be refused with
    // the clash spelled out
    let src = cesc::protocols::bus_library_src();
    let err = check_fleet(
        &src,
        &["axi4_lite_read".to_owned(), "apb_read".to_owned(), "wb_read".to_owned()],
        false,
        b"".as_slice(),
        Some("clk"),
        &CheckOptions::default(),
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("different declared clocks"), "{msg}");
    for clock in ["aclk", "pclk", "wb_clk"] {
        assert!(msg.contains(clock), "missing `{clock}` in: {msg}");
    }

    // a single-bus selection with the override is fine: the three
    // Wishbone charts share wb_clk, renamed to the dump's `clk`
    let set = cesc::spec::SpecSet::load(&src).unwrap();
    let scenario = cesc::protocols::bus_scenarios()
        .into_iter()
        .find(|s| s.chart == "wb_read")
        .unwrap();
    let window = (scenario.window)(set.alphabet());
    let trace: cesc::trace::Trace = window.into_iter().collect();
    let vcd = write_vcd(&trace, set.alphabet(), &VcdWriteOptions::default());
    let outcome = check_fleet(
        &src,
        &["wb_read".to_owned(), "wb_write".to_owned(), "wb_block_read".to_owned()],
        false,
        vcd.as_bytes(),
        Some("clk"),
        &CheckOptions::default(),
    )
    .unwrap();
    assert!(!outcome.failed, "{}", outcome.output);
    assert!(outcome.output.contains("chart `wb_read` (clock wb_clk)"), "{}", outcome.output);
    assert!(outcome.output.contains("DETECTED"), "{}", outcome.output);
}
