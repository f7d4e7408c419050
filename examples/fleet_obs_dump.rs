//! Generates the smoke-test inputs used by `make verify-obs` and
//! `make verify-rtl`: a six-target fleet spec plus a two-domain
//! 120,000-global-step VCD dump of compliant traffic, written to
//! `target/obs_smoke.cesc` / `target/obs_smoke.vcd`.
//!
//! The dump is the acceptance workload for the `cesc-obs` run
//! reports: `cesc check target/obs_smoke.cesc --all-charts
//! --vcd target/obs_smoke.vcd --jobs 4 --stats-json out.json`
//! must render a schema-valid `cesc-obs/1` record with per-stage
//! timings and per-shard utilization, and the same check with
//! `--cosim --json` must report every basic chart's cosim as `ok`.
//!
//! ```sh
//! cargo run --release --example fleet_obs_dump
//! ```

use cesc::expr::Valuation;
use cesc::trace::{
    write_vcd_global_to, ClockDomain, ClockSet, GlobalRun, Trace, VcdWriteOptions,
};

/// Every target kind at once: four basic charts, one multiclock spec,
/// one `implies(...)` assertion (the `tests/obs_stats.rs` fleet).
const FLEET_SPEC: &str = r#"
scesc m1 on clk1 { instances { A } events { go } tick { A: go } }
scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
scesc ping on clk1 { instances { A } events { go } tick { A: go } }
scesc pong on clk1 { instances { A } events { go } tick { A: go } }
multiclock pair { charts { m1, m2 } cause go -> done; }
cesc gate { implies(ping, pong) }
"#;

const PER_DOMAIN: usize = 60_000; // 120k global steps

fn main() {
    let doc = cesc::chart::parse_document(FLEET_SPEC).expect("fleet spec parses");
    let go = Valuation::of([doc.alphabet.lookup("go").expect("go")]);
    let done = Valuation::of([doc.alphabet.lookup("done").expect("done")]);

    // clk1 ticks at even times, clk2 at odd — the ticks never
    // coincide, so global steps == 2 * PER_DOMAIN
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements(vec![go; PER_DOMAIN])),
            (c2, Trace::from_elements(vec![done; PER_DOMAIN])),
        ],
    )
    .expect("aligned traffic");
    assert_eq!(run.len(), 2 * PER_DOMAIN);

    let mut vcd = Vec::new();
    write_vcd_global_to(
        &mut vcd,
        &run,
        &clocks,
        &doc.alphabet,
        &[go, done],
        &VcdWriteOptions::default(),
    )
    .expect("in-memory write");

    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/obs_smoke.cesc", FLEET_SPEC).expect("write spec");
    std::fs::write("target/obs_smoke.vcd", &vcd).expect("write dump");
    println!(
        "wrote target/obs_smoke.cesc (6 targets) and target/obs_smoke.vcd ({} global steps, {} bytes)",
        run.len(),
        vcd.len()
    );
}
