//! # cesc-bench — benchmark support
//!
//! Shared helpers for the Criterion benches that regenerate every
//! figure of the paper's evaluation (see `benches/`). Each bench prints
//! the measurements EXPERIMENTS.md records; this library only holds the
//! common workload builders so the benches stay declarative.

#![warn(missing_docs)]

use cesc_chart::{Scesc, ScescBuilder};
use cesc_core::{synthesize, Monitor, SynthOptions};
use cesc_expr::{Alphabet, Expr, SymbolId, Valuation};
use cesc_trace::Trace;

/// Criterion settings that keep the whole suite under a few minutes:
/// 10 samples, 1 s measurement windows.
pub fn quick() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1000))
        .warm_up_time(std::time::Duration::from_millis(300))
}

/// A synthetic `n`-tick chain chart over `syms` symbols: element `i`
/// requires symbol `i mod syms` (positively) — used by the scaling
/// sweeps.
pub fn chain_chart(n: usize, syms: usize) -> (Alphabet, Scesc) {
    let mut ab = Alphabet::new();
    let ids: Vec<SymbolId> = (0..syms).map(|i| ab.event(&format!("c{i}"))).collect();
    let mut b = ScescBuilder::new("chain", "clk");
    let m = b.instance("M");
    for i in 0..n {
        b.tick();
        b.event(m, ids[i % syms]);
    }
    (ab, b.build().expect("chain chart well-formed"))
}

/// The chain chart's compliant window.
pub fn chain_window(ab: &Alphabet, n: usize, syms: usize) -> Vec<Valuation> {
    (0..n)
        .map(|i| Valuation::of([ab.lookup(&format!("c{}", i % syms)).expect("interned")]))
        .collect()
}

/// Adversarial near-miss traffic for the pattern `a a a b`: long runs
/// of `a` with rare `b` — worst case for naive rescanning, the case
/// the string-matching automaton (paper ref \[19\]) improves on.
pub fn adversarial_pattern_and_trace(len: usize) -> (Alphabet, Vec<Expr>, Trace) {
    let mut ab = Alphabet::new();
    let a = ab.event("a");
    let b = ab.event("b");
    let pattern = vec![Expr::sym(a), Expr::sym(a), Expr::sym(a), Expr::sym(b)];
    let va = Valuation::of([a]);
    let vb = Valuation::of([b]);
    let trace: Trace = (0..len)
        .map(|i| if i % 97 == 96 { vb } else { va })
        .collect();
    (ab, pattern, trace)
}

/// Synthesizes with default options, panicking on failure (bench
/// charts are known-good).
pub fn synth(chart: &Scesc) -> Monitor {
    synthesize(chart, &SynthOptions::default()).expect("bench chart synthesizable")
}

/// Median seconds per pass of `pass` (one full sweep over the bench
/// workload): one untimed warm-up call, then `passes` calls, each timed
/// on its own, so one pass slowed by the host does not move the record.
pub fn time_per_pass(passes: u32, mut pass: impl FnMut()) -> f64 {
    pass();
    let mut secs: Vec<f64> = (0..passes.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let mid = secs.len() / 2;
    if secs.len().is_multiple_of(2) {
        (secs[mid - 1] + secs[mid]) / 2.0
    } else {
        secs[mid]
    }
}

/// Millions of trace elements per second for a pass over `elements`
/// elements taking `secs_per_pass` seconds.
pub fn melem_per_s(elements: usize, secs_per_pass: f64) -> f64 {
    if secs_per_pass <= 0.0 {
        return 0.0;
    }
    elements as f64 / secs_per_pass / 1e6
}

/// Prints the one-line machine-readable throughput record every
/// `*_throughput` bench emits, so the recorded bench output shares one
/// grep-able shape:
///
/// ```json
/// {"bench":"bank_throughput","workload":"ocp_burst_read",
///  "elements":65000,"melem_per_s":12.416,"speedup":3.102}
/// ```
///
/// `secs_per_pass` is the primary configuration's pass time over
/// `elements` (see [`time_per_pass`]); `extra` appends additional
/// numeric fields (comparison rates, speedups) after the shared keys,
/// each rendered with three decimals.
pub fn emit_record(
    bench: &str,
    workload: &str,
    elements: usize,
    secs_per_pass: f64,
    extra: &[(&str, f64)],
) {
    use std::fmt::Write as _;
    let mut line = format!(
        "{{\"bench\":\"{bench}\",\"workload\":\"{workload}\",\"elements\":{elements},\
         \"melem_per_s\":{:.3}",
        melem_per_s(elements, secs_per_pass)
    );
    for (k, v) in extra {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(line, ",\"{k}\":{v:.3}");
    }
    line.push('}');
    println!("{line}");
}
