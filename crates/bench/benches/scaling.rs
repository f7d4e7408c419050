//! Experiment A1 (ablation): synthesis and engine scaling.
//!
//! The greedy monitor's guards are interpreted, so synthesis stays
//! polynomial; the exact subset automaton enumerates one signature per
//! subset of the `n` pattern elements. This sweep records both:
//!
//! * synthesis time vs chart length `n` (guard-interpreted monitor —
//!   only the O(n²) compatibility matrix is precomputed);
//! * `Determinized` construction vs `n`, up to the build's 14-tick
//!   cap: `2^n` live-set states times `2^n` signatures, so at n = 14
//!   one build fills a 1 GiB table and takes seconds;
//! * lookup throughput: interpreted greedy monitor vs `Determinized`.

use cesc_bench::{chain_chart, chain_window, quick, synth};
use cesc_core::{synthesize, Determinized, SynthOptions};
use cesc_expr::Valuation;
use cesc_trace::Trace;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // synthesis vs n
    let mut g = c.benchmark_group("scaling/synthesize_vs_n");
    for n in [2usize, 4, 8, 16, 32] {
        let (_ab, chart) = chain_chart(n, 4);
        g.bench_with_input(BenchmarkId::from_parameter(n), &chart, |b, chart| {
            b.iter(|| synthesize(black_box(chart), &SynthOptions::default()).unwrap())
        });
    }
    g.finish();

    // subset automaton build vs n: 2^n states × 2^n signatures for
    // any pattern of n ticks
    let mut g = c.benchmark_group("scaling/determinized_build_vs_n");
    for n in [4usize, 8, 12, 14] {
        let (_ab, chart) = chain_chart(n, n);
        let pattern = chart.extract_pattern();
        g.bench_with_input(BenchmarkId::from_parameter(n), &pattern, |b, pattern| {
            b.iter(|| Determinized::build(black_box(pattern)).unwrap().state_count())
        });
    }
    g.finish();

    // lookup throughput: interpreted greedy vs subset automaton
    let n = 8;
    let syms = 8;
    let (ab, chart) = chain_chart(n, syms);
    let monitor = synth(&chart);
    let pattern = chart.extract_pattern();
    let window = chain_window(&ab, n, syms);
    let trace: Trace = window
        .iter()
        .copied()
        .chain([Valuation::empty(); 2])
        .cycle()
        .take(50_000)
        .collect();

    let mut g = c.benchmark_group("scaling/lookup_throughput");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("interpreted_monitor", |b| {
        b.iter(|| monitor.scan(black_box(&trace)).matches.len())
    });
    g.bench_function("determinized", |b| {
        let mut exact = Determinized::build(&pattern).unwrap();
        b.iter(|| {
            exact.reset();
            let mut hits = 0usize;
            for v in trace.iter() {
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
