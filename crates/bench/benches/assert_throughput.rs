//! Layer record for `implies(...)` asserts: the compiled runner `cesc
//! check` deploys (`CompiledImplication` on optimized tables, fed in
//! `BATCH_CHUNK` slices) against its reference oracle, the interpreted
//! `ImplicationChecker`, stepped tick by tick.
//!
//! Workload: a deterministic sparse single-clock trace — a `req`, then
//! `ack` for two ticks, every 32–95 ticks (the traffic shape of the
//! end-to-end benchmark's `handshake_sparse` dump) — checked against a
//! non-vacuous assert: the antecedent `req` then `ack` has no `cause`
//! arrow, so it completes on every handshake, and each completion
//! obliges one more `ack` tick. Both sides must agree on the verdict
//! and the fulfilled count before anything is timed.
//!
//! Prints one JSON record:
//! `{"bench":"assert_throughput","workload":"sparse_handshake","elements":…,"melem_per_s":…,"checker_melem_per_s":…,"speedup":…}`.

use std::hint::black_box;

use cesc_bench::quick;
use cesc_core::{ImplicationChecker, Verdict, BATCH_CHUNK};
use cesc_expr::Valuation;
use cesc_spec::SpecSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const TICKS: usize = 500_000;

const SPEC: &str = r#"
scesc handshake on clk { instances { M, S } events { req, ack } tick { M: req } tick { S: ack } }
scesc ack_pulse on clk { instances { S } events { req, ack } tick { S: ack } }
cesc gate { implies(handshake, ack_pulse) }
"#;

/// SplitMix64, so the trace depends on nothing but this file.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sparse_trace(req: Valuation, ack: Valuation) -> Vec<Valuation> {
    let mut rng = 1u64;
    let mut at = 0usize;
    (0..TICKS)
        .map(|tick| {
            if tick == at {
                req
            } else if tick > at && tick <= at + 2 {
                if tick == at + 2 {
                    at += 32 + (next(&mut rng) % 64) as usize;
                }
                ack
            } else {
                Valuation::empty()
            }
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let specs = SpecSet::load(SPEC).expect("spec loads");
    let spec = specs.assert_spec(0).expect("assert compiles");
    let ab = specs.alphabet();
    let trace = sparse_trace(
        Valuation::of([ab.lookup("req").unwrap()]),
        Valuation::of([ab.lookup("ack").unwrap()]),
    );
    let gate = spec.compiled();
    let compiled = || {
        let mut st = gate.state();
        for chunk in trace.chunks(BATCH_CHUNK) {
            gate.feed(&mut st, chunk);
        }
        st
    };
    let interpreted = || {
        let mut chk = ImplicationChecker::new(spec.antecedent().clone(), spec.consequent().clone());
        for &v in &trace {
            chk.step(v);
        }
        chk
    };

    // verdict cross-check before timing anything
    let (st, chk) = (compiled(), interpreted());
    assert_eq!(st.verdict(), Verdict::Passed);
    assert_eq!((st.verdict(), st.fulfilled()), (chk.verdict(), chk.fulfilled()));
    assert!(st.antecedent_matches() > 5_000, "the assert is armed: {}", st.antecedent_matches());

    let mut g = c.benchmark_group("assert_throughput/sparse_handshake");
    g.throughput(Throughput::Elements(TICKS as u64));
    g.bench_function(BenchmarkId::from_parameter("compiled"), |b| {
        b.iter(|| black_box(compiled().fulfilled()))
    });
    g.bench_function(BenchmarkId::from_parameter("interpreted"), |b| {
        b.iter(|| black_box(interpreted().fulfilled()))
    });
    g.finish();

    let compiled_s = cesc_bench::time_per_pass(10, || {
        black_box(compiled());
    });
    let checker_s = cesc_bench::time_per_pass(10, || {
        black_box(interpreted());
    });
    cesc_bench::emit_record(
        "assert_throughput",
        "sparse_handshake",
        TICKS,
        compiled_s,
        &[
            ("checker_melem_per_s", cesc_bench::melem_per_s(TICKS, checker_s)),
            ("speedup", checker_s / compiled_s),
        ],
    );
}

criterion_group!(name = group; config = quick(); targets = bench);
criterion_main!(group);
