//! Experiment A2 (baseline): the synthesized automaton against the
//! window-rescanning definition (`match_positions`) and the exact
//! subset automaton (`Determinized`) — the comparison behind the
//! paper's choice of the string-matching automaton ([19], CLRS) as the
//! monitor skeleton.
//!
//! Adversarial traffic (`aaa…b` runs) makes rescanning do O(n) work
//! per cycle while both automata stay O(1).

use cesc_bench::{adversarial_pattern_and_trace, quick};
use cesc_core::{synthesize, Determinized, SynthOptions};
use cesc_chart::ScescBuilder;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let (ab, pattern, trace) = adversarial_pattern_and_trace(100_000);

    // the same pattern as a chart, for the synthesized monitor
    let a = ab.lookup("a").unwrap();
    let b_sym = ab.lookup("b").unwrap();
    let mut builder = ScescBuilder::new("aaab", "clk");
    let m = builder.instance("M");
    for _ in 0..3 {
        builder.tick();
        builder.event(m, a);
    }
    builder.tick();
    builder.event(m, b_sym);
    let chart = builder.build().unwrap();
    let monitor = synthesize(&chart, &SynthOptions::default()).unwrap();

    let mut g = c.benchmark_group("baseline/adversarial_100k");
    g.throughput(Throughput::Elements(trace.len() as u64));

    g.bench_with_input(BenchmarkId::from_parameter("synthesized_monitor"), &trace, |b, t| {
        b.iter(|| monitor.scan(black_box(t)).matches.len())
    });
    g.bench_with_input(BenchmarkId::from_parameter("match_positions"), &trace, |b, t| {
        b.iter(|| cesc_semantics::match_positions(black_box(&chart), black_box(t)).len())
    });
    g.bench_with_input(BenchmarkId::from_parameter("determinized"), &trace, |b, t| {
        b.iter(|| {
            let mut exact = Determinized::build(&pattern).unwrap();
            let mut hits = 0usize;
            for v in t.iter() {
                if exact.step(black_box(v)) {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.finish();
}

criterion_group!(name = group; config = quick(); targets = bench);
criterion_main!(group);
