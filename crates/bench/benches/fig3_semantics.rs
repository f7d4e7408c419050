//! Experiment F3 (paper Figure 3): the semantic mapping.
//!
//! Figure 3 depicts `[[C]]` as the runs containing a matching interval.
//! This bench regenerates the comparison that motivates the automaton:
//! deciding membership with the brute-force oracle (re-check every
//! window) versus the synthesized monitor versus the exact subset
//! automaton (`Determinized`) — same verdicts, very different costs.

use cesc_bench::{quick, synth};
use cesc_core::Determinized;
use cesc_protocols::ocp;
use cesc_protocols::traffic::{transaction_stream, TrafficConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let doc = ocp::burst_read_doc();
    let chart = doc.chart("ocp_burst_read").expect("chart");
    let window = ocp::burst_read_window(&doc.alphabet);
    let trace = transaction_stream(
        &doc.alphabet,
        &window,
        &TrafficConfig {
            transactions: 1_000,
            gap: 2,
            ..Default::default()
        },
    );
    let monitor = synth(chart);
    let pattern = chart.extract_pattern();

    let mut g = c.benchmark_group("fig3/membership");
    g.throughput(Throughput::Elements(trace.len() as u64));

    g.bench_function("oracle_bruteforce", |b| {
        b.iter(|| {
            let hits = cesc_semantics::match_positions(black_box(chart), black_box(&trace));
            assert_eq!(hits.len(), 1_000);
            hits.len()
        })
    });

    g.bench_function("synthesized_monitor", |b| {
        b.iter(|| {
            let report = monitor.scan(black_box(&trace));
            assert_eq!(report.matches.len(), 1_000);
            report.ticks
        })
    });

    g.bench_function("determinized", |b| {
        b.iter(|| {
            let mut exact = Determinized::build(&pattern).unwrap();
            let mut hits = 0usize;
            for v in trace.iter() {
                if exact.step(black_box(v)) {
                    hits += 1;
                }
            }
            assert_eq!(hits, 1_000);
            hits
        })
    });

    g.finish();
}

criterion_group!(name = group; config = quick(); targets = bench);
criterion_main!(group);
