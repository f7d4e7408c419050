//! Experiment O1: the optimization pass pipeline's hot-path win — the
//! post-opt batch engine against the raw (as-synthesized) tables on
//! the OCP protocol fleet.
//!
//! Workload: OCP burst read + simple read + AMBA AHB charts in one
//! shared-alphabet document (the `bank_throughput` verification plan),
//! all checked over one compliant burst-read transaction stream, lifted
//! once onto the charts' clocks. Both banks run the identical
//! `MonitorBank::feed_global` hot loop; the only difference
//! is the tables — raw `Monitor::compiled()` vs the `cesc-spec`
//! pipeline artifacts (dead-arm pruning + guard CSE + scoreboard-slot
//! narrowing). Verdict equivalence is asserted inline here and
//! property-pinned in `tests/opt_equivalence.rs`.
//!
//! Besides the Criterion groups, the bench prints one machine-readable
//! JSON trajectory record (`{"bench":"opt_throughput",...}`) with the
//! measured elements/second of both configurations and the speedup, so
//! the number lands in the recorded bench output alongside the other
//! experiments.

use cesc_bench::quick;
use cesc_core::{synthesize, MonitorBank, SynthOptions};
use cesc_protocols::ocp;
use cesc_protocols::traffic::{transaction_stream, TrafficConfig};
use cesc_spec::SpecSet;
use cesc_trace::GlobalRun;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// OCP burst + simple read + AMBA AHB in one document, so every
/// monitor shares one alphabet and can ride one trace feed.
fn plan_sources() -> String {
    format!(
        "{}\n{}\n{}",
        ocp::BURST_READ_SRC,
        ocp::SIMPLE_READ_SRC,
        cesc_protocols::amba::AHB_TRANSACTION_SRC
    )
}

fn bench(c: &mut Criterion) {
    let plan_src = plan_sources();
    let doc = cesc_chart::parse_document(&plan_src).expect("plan parses");
    let window = ocp::burst_read_window(&doc.alphabet);
    let trace = transaction_stream(
        &doc.alphabet,
        &window,
        &TrafficConfig {
            transactions: 5_000,
            gap: 2,
            ..Default::default()
        },
    );

    // raw: monitors exactly as synthesized, historical table layout
    let mut raw_bank = MonitorBank::new();
    for chart in &doc.charts {
        raw_bank.add(&synthesize(chart, &SynthOptions::default()).expect("synthesizable"));
    }
    // optimized: the cesc-spec pipeline artifacts (what `cesc check` runs)
    let specs = SpecSet::load(&plan_src).expect("plan loads");
    let mut opt_bank = MonitorBank::new();
    for i in 0..doc.charts.len() {
        let spec = specs.chart_spec(i).expect("compiles");
        println!(
            "opt_throughput pass report `{}`: {}",
            doc.charts[i].name(),
            spec.report().expect("pipeline ran")
        );
        opt_bank.add_compiled(spec.compiled().clone());
    }

    // the trace on every chart's clock, lifted outside the timed loops
    let (clocks, run) = GlobalRun::lift(doc.charts.iter().map(|c| c.clock()), trace.as_slice());

    // verdict cross-check before timing anything
    raw_bank.feed_global(&clocks, run.as_slice());
    opt_bank.feed_global(&clocks, run.as_slice());
    for i in 0..doc.charts.len() {
        assert_eq!(raw_bank.hits(i), opt_bank.hits(i), "{}", doc.charts[i].name());
    }
    assert!(!raw_bank.hits(0).is_empty(), "compliant traffic must match");

    let mut g = c.benchmark_group("opt_throughput/ocp_fleet");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_with_input(BenchmarkId::from_parameter("raw_tables"), &run, |b, r| {
        b.iter(|| {
            raw_bank.reset();
            raw_bank.feed_global(&clocks, black_box(r.as_slice()));
            (0..raw_bank.len()).map(|i| raw_bank.hits(i).len()).sum::<usize>()
        })
    });
    g.bench_with_input(BenchmarkId::from_parameter("opt_tables"), &run, |b, r| {
        b.iter(|| {
            opt_bank.reset();
            opt_bank.feed_global(&clocks, black_box(r.as_slice()));
            (0..opt_bank.len()).map(|i| opt_bank.hits(i).len()).sum::<usize>()
        })
    });
    g.finish();

    // one-line JSON trajectory record (stable keys, machine-parsable)
    let raw_s = cesc_bench::time_per_pass(20, || {
        raw_bank.reset();
        raw_bank.feed_global(&clocks, black_box(run.as_slice()));
    });
    let opt_s = cesc_bench::time_per_pass(20, || {
        opt_bank.reset();
        opt_bank.feed_global(&clocks, black_box(run.as_slice()));
    });
    cesc_bench::emit_record(
        "opt_throughput",
        "ocp_fleet_3_monitors",
        trace.len(),
        opt_s,
        &[
            ("raw_melem_per_s", cesc_bench::melem_per_s(trace.len(), raw_s)),
            ("speedup", raw_s / opt_s),
        ],
    );
}

criterion_group!(name = group; config = quick(); targets = bench);
criterion_main!(group);
