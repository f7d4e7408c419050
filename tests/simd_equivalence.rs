//! Property pins for the bit-sliced 64-tick engine: over arbitrary
//! charts, traces and chunkings the sliced path
//! ([`CompileOptions::bit_slice`]) produces exactly the verdicts of
//! the step-wise `Monitor::scan`, `Monitor::scan_batch` and the scalar
//! compiled engine — same detection ticks, same final state, same
//! underflow count. The wide sections stress the 63/64/65-symbol
//! alphabet boundary where the `u64` column transpose runs out of
//! lanes and states must fall back to exact scalar stepping.

use cesc::core::{synthesize, CompileOptions, SynthOptions};
use cesc::expr::{SymbolId, Valuation};
use cesc::prelude::{parse_document, Alphabet, ScescBuilder};
use proptest::prelude::*;

const SYMS: usize = 4;

/// A random pattern element: up to 3 literals over a 4-slot alphabet.
fn arb_element() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0..SYMS, any::<bool>()), 0..3)
}

fn arb_pattern() -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(arb_element(), 1..5)
}

/// Trace lengths deliberately straddle the 64-tick word size: empty,
/// sub-word, exactly one word, word+1 and multi-word tails all occur.
fn arb_trace() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..(1 << SYMS) as u8, 0..150)
}

/// Successive chunk lengths; the tail of the trace rides in one final
/// chunk. Lengths around 64 exercise word-boundary chunk borders.
fn arb_chunking() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(prop_oneof![1usize..9, 63usize..66], 0..6)
}

/// Builds a chart whose 4 pattern slots map onto the symbol indices
/// `slots` of a `width`-symbol alphabet (identity when `width ==
/// SYMS`). Returns `None` when the random pattern is vacuous.
fn build_chart(
    pattern: &[Vec<(usize, bool)>],
    width: usize,
    slots: [usize; SYMS],
) -> Option<(Vec<SymbolId>, cesc::chart::Scesc)> {
    let mut ab = Alphabet::new();
    let all: Vec<SymbolId> = (0..width).map(|i| ab.event(&format!("s{i}"))).collect();
    let ids: Vec<SymbolId> = slots.iter().map(|&i| all[i]).collect();
    let mut b = ScescBuilder::new("prop", "clk");
    let m = b.instance("M");
    for elem in pattern {
        b.tick();
        for &(sym, positive) in elem {
            if positive {
                b.event(m, ids[sym]);
            } else {
                b.absent_event(m, ids[sym]);
            }
        }
    }
    let chart = b.build().ok()?;
    for p in chart.extract_pattern() {
        if !cesc::expr::sat::is_satisfiable(&p) {
            return None;
        }
    }
    Some((ids, chart))
}

/// Decodes 4 random bits per element onto the chart's symbol slots.
fn decode_trace(raw: &[u8], ids: &[SymbolId]) -> Vec<Valuation> {
    raw.iter()
        .map(|&bits| Valuation::of(ids.iter().enumerate().filter(|&(i, _)| bits >> i & 1 == 1).map(|(_, &id)| id)))
        .collect()
}

/// Feeds `trace` through a fresh executor of `compiled` under
/// `chunking`, returning (hits, ticks, underflows).
fn run_chunked(
    compiled: &cesc::core::CompiledMonitor,
    trace: &[Valuation],
    chunking: &[usize],
) -> (Vec<u64>, u64, u64) {
    let mut exec = compiled.executor();
    let mut hits = Vec::new();
    let mut at = 0usize;
    for &len in chunking {
        let end = (at + len).min(trace.len());
        exec.feed(&trace[at..end], &mut hits);
        at = end;
    }
    exec.feed(&trace[at..], &mut hits);
    (hits, exec.ticks(), exec.underflows())
}

fn sliced() -> CompileOptions {
    CompileOptions::optimized()
}

fn scalar() -> CompileOptions {
    CompileOptions {
        bit_slice: false,
        ..CompileOptions::optimized()
    }
}

/// A chart with a causality arrow, so the scoreboard (`Add`/`Del`/
/// `Chk`) paths — which gate word-cache invalidation and window
/// adoption — are exercised, not just pure pattern matching.
fn causality_doc() -> cesc::chart::Document {
    parse_document(
        r#"
        scesc cz on clk {
            instances { A, B }
            events { s0, s1, s2, s3 }
            tick { A: s0 }
            tick ;
            tick { B: s2 }
            cause s0 -> s2;
        }
    "#,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Narrow alphabet: bit-sliced == scalar compiled == step-wise ==
    /// `scan_batch` for any chart × trace × chunking.
    #[test]
    fn sliced_equals_stepwise_scalar_and_batch(
        pattern in arb_pattern(),
        raw in arb_trace(),
        chunking in arb_chunking(),
    ) {
        let Some((ids, chart)) = build_chart(&pattern, SYMS, [0, 1, 2, 3]) else {
            return Ok(());
        };
        let trace = decode_trace(&raw, &ids);
        let monitor = synthesize(&chart, &SynthOptions::default()).unwrap();
        let reference = monitor.scan(trace.iter().copied());
        prop_assert_eq!(&monitor.scan_batch(&trace), &reference);

        let (hits, ticks, underflows) =
            run_chunked(&monitor.compiled_with(&sliced()), &trace, &chunking);
        prop_assert_eq!(&hits, &reference.matches);
        prop_assert_eq!(ticks, reference.ticks);
        prop_assert_eq!(underflows, reference.underflows);

        let scalar_run = run_chunked(&monitor.compiled_with(&scalar()), &trace, &chunking);
        prop_assert_eq!(scalar_run, (hits, ticks, underflows));
    }

    /// 63/64/65-symbol alphabets: guards straddling the `u64` lane
    /// boundary (slots at `width-2`, `width-1`) still agree with the
    /// step-wise engine — wide-mask states take the scalar fallback.
    #[test]
    fn wide_alphabet_boundary_agrees(
        width in prop_oneof![Just(63usize), Just(64), Just(65)],
        pattern in arb_pattern(),
        raw in arb_trace(),
        chunking in arb_chunking(),
    ) {
        let slots = [0, width / 2, width - 2, width - 1];
        let Some((ids, chart)) = build_chart(&pattern, width, slots) else {
            return Ok(());
        };
        let trace = decode_trace(&raw, &ids);
        let monitor = synthesize(&chart, &SynthOptions::default()).unwrap();
        let reference = monitor.scan(trace.iter().copied());

        let (hits, ticks, underflows) =
            run_chunked(&monitor.compiled_with(&sliced()), &trace, &chunking);
        prop_assert_eq!(&hits, &reference.matches);
        prop_assert_eq!(ticks, reference.ticks);
        prop_assert_eq!(underflows, reference.underflows);
    }

    /// Scoreboard traffic: causality `Add`/`Chk` actions invalidate
    /// the sliced word cache exactly where the scalar engine changes
    /// behaviour — verdicts stay bit-identical.
    #[test]
    fn causality_scoreboard_agrees(
        raw in arb_trace(),
        chunking in arb_chunking(),
    ) {
        let doc = causality_doc();
        let ids: Vec<SymbolId> = (0..SYMS)
            .map(|i| doc.alphabet.lookup(&format!("s{i}")).unwrap())
            .collect();
        let trace = decode_trace(&raw, &ids);
        let monitor =
            synthesize(doc.chart("cz").unwrap(), &SynthOptions::default()).unwrap();
        let reference = monitor.scan(trace.iter().copied());

        let (hits, ticks, underflows) =
            run_chunked(&monitor.compiled_with(&sliced()), &trace, &chunking);
        prop_assert_eq!(&hits, &reference.matches);
        prop_assert_eq!(ticks, reference.ticks);
        prop_assert_eq!(underflows, reference.underflows);
    }
}
