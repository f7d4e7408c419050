//! Property tests for the batched engine: over any trace and any
//! chunking, `scan_batch` / `BatchExec::feed` / `MonitorBank` produce
//! exactly the verdicts of the step-wise `Monitor::scan` — same
//! detection ticks, same final state, same underflow count. The
//! multi-clock section extends the pin to `MultiClockMonitor::scan` vs
//! `scan_batch` under arbitrary clock interleavings and chunkings, the
//! VCD section pins `BufRead`-streamed parsing against whole-string
//! parsing on the same bytes, and the `cesc-par` section pins the
//! sharded fleet executor, fed through `FleetFeeder::feed_global` as
//! `cesc check` feeds it, against the serial bank: for any shard
//! count, chunk size and mixed single/multi-clock fleet, parallel
//! results are bit-identical to `MonitorBank::feed` (over a one-clock
//! trace lifted onto a period-1 clock) / `feed_global`.
//! `BatchExec::feed`'s idle-run scan is pinned against a loop of
//! per-tick `BatchExec::step` on the same compiled table. The compiled
//! `implies(...)` runner (`CompiledImplication`, alone and as a fleet
//! member at one and several shards) is pinned against its reference
//! oracle, the interpreted `ImplicationChecker`.

use cesc::core::{
    optimize, synthesize, synthesize_multiclock, CompileOptions, CompiledImplication,
    CompiledMonitor, ImplicationChecker, Monitor, MonitorBank, OverlapPolicy, SynthOptions,
    VIOLATION_KEEP,
};
use cesc::expr::{SymbolId, Valuation};
use cesc::par::{plan_shards, scan_sharded_global, AssertSpec, Fleet, ParOptions};
use cesc::prelude::{parse_document, Alphabet, ScescBuilder};
use cesc::trace::{
    read_vcd, write_vcd, ClockDomain, ClockId, ClockSet, GlobalRun, GlobalStep, GlobalVcdStream,
    Trace, VcdClockSpec, VcdWriteOptions,
};
use proptest::prelude::*;

const SYMS: usize = 4;

/// A random pattern element: up to 3 literals over a 4-symbol
/// alphabet.
fn arb_element() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0..SYMS, any::<bool>()), 0..3)
}

fn arb_pattern() -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(arb_element(), 1..5)
}

fn arb_trace(len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..(1 << SYMS) as u8, len)
}

/// Successive chunk lengths; the tail of the trace rides in one final
/// chunk.
fn arb_chunking() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..9, 0..8)
}

fn build_chart(pattern: &[Vec<(usize, bool)>]) -> Option<(Alphabet, cesc::chart::Scesc)> {
    let mut ab = Alphabet::new();
    let ids: Vec<SymbolId> = (0..SYMS).map(|i| ab.event(&format!("s{i}"))).collect();
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
    Some((ab, chart))
}

fn decode_trace(raw: &[u8]) -> Trace {
    raw.iter()
        .map(|&bits| Valuation::from_bits(bits as u128))
        .collect()
}

/// `trace` as a global run on the one clock `clk` (period 1), so the
/// run's times are the trace's tick indices.
fn on_clk(trace: &Trace) -> (ClockSet, GlobalRun) {
    let (clocks, clk) = ClockSet::single();
    let run = GlobalRun::interleave(&clocks, &[(clk, trace.clone())]).unwrap();
    (clocks, run)
}

/// A chart with a causality arrow, so the scoreboard (`Add`/`Del`/
/// `Chk`) paths are exercised, not just pure pattern matching.
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

/// Fig 2 style multi-clock spec with cross-domain causality — the
/// *coupled* case, forcing interleaved batch execution.
const MC_COUPLED: &str = r#"
    scesc m1 on clk1 {
        instances { Master, S_CNT }
        events { req1, rdy1, data1 }
        tick { Master: req1 }
        tick { S_CNT: rdy1 }
        tick { S_CNT: data1 }
        cause req1 -> rdy1;
    }
    scesc m2 on clk2 {
        instances { M_CNT, Slave }
        events { req3, rdy3, data3 }
        tick { M_CNT: req3 }
        tick { Slave: rdy3 }
        tick { Slave: data3 }
        cause req3 -> rdy3;
    }
    multiclock mc { charts { m1, m2 } cause req1 -> req3; cause data3 -> data1; }
"#;

/// Intra-chart causality only — disjoint scoreboard footprints, the
/// clock-major fast path.
const MC_UNCOUPLED: &str = r#"
    scesc m1 on clk1 {
        instances { A, B }
        events { a1, b1 }
        tick { A: a1 }
        tick { B: b1 }
        cause a1 -> b1;
    }
    scesc m2 on clk2 {
        instances { C, D }
        events { c2, d2 }
        tick { C: c2 }
        tick { D: d2 }
        cause c2 -> d2;
    }
    multiclock mc { charts { m1, m2 } }
"#;

/// An arbitrary two-clock interleaving: per global step, a time gap
/// plus each clock's tick encoding — values `>= 64` mean "this clock
/// does not tick", values `< 64` are the tick's valuation bits (over
/// the document's 6-symbol alphabet).
fn arb_global_steps(len: usize) -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..3, 0u8..128, 0u8..128), 0..len)
}

fn build_run(steps: &[(u8, u8, u8)]) -> GlobalRun {
    let decode = |raw: u8| (raw < 64).then(|| Valuation::from_bits(raw as u128));
    let mut run = GlobalRun::new();
    let mut t = 0u64;
    for &(gap, a, b) in steps {
        t += u64::from(gap) + 1;
        let mut ticks = Vec::new();
        if let Some(v) = decode(a) {
            ticks.push((ClockId::from_index(0), v));
        }
        if let Some(v) = decode(b) {
            ticks.push((ClockId::from_index(1), v));
        }
        if !ticks.is_empty() {
            run.push(GlobalStep { time: t, ticks });
        }
    }
    run
}

fn two_clock_set() -> ClockSet {
    let mut clocks = ClockSet::new();
    clocks.add(ClockDomain::new("clk1", 1, 0));
    clocks.add(ClockDomain::new("clk2", 1, 0));
    clocks
}

/// A trace biased towards idle (all-low) ticks, so monitors spend
/// runs of ticks in states whose action-free self-loop the batch
/// engine advances without a full step.
fn arb_idle_trace(len: usize) -> impl Strategy<Value = Vec<u8>> {
    // two draws in three are idle
    let tick = (0u8..3 << SYMS).prop_map(|x| x.saturating_sub(2 << SYMS));
    prop::collection::vec(tick, len)
}

/// A chart whose guards are disjunctions, so they compile to postfix
/// programs (the path the idle-run scan never takes).
fn disjunctive_doc() -> cesc::chart::Document {
    parse_document(
        r#"
        scesc dj on clk {
            instances { A }
            events { e1, e2 }
            props { p1, p2 }
            tick { A: e1 if (p1 | p2) }
            tick { A: e2 if !(p1 & p2) }
        }
    "#,
    )
    .unwrap()
}

/// A conjunction chart over 65 symbols whose guards mention the first
/// and the last, so the optimized compile keeps wide (`u128`) masks,
/// which the idle-run scan never takes either.
fn wide_doc() -> cesc::chart::Document {
    let events: Vec<String> = (0..65).map(|i| format!("e{i}")).collect();
    parse_document(&format!(
        "scesc wide on clk {{ instances {{ M }} events {{ {} }} \
         tick {{ M: e0, e64 }} tick {{ M: e64, !e0 }} cause e0@0 -> e64@1; }}",
        events.join(", ")
    ))
    .unwrap()
}

/// `BatchExec::feed` in `chunking` against a loop of `BatchExec::step`
/// on a second executor of the same table: same hits, ticks, final
/// state and underflows.
fn feed_equals_step(
    compiled: &CompiledMonitor,
    elements: &[Valuation],
    chunking: &[usize],
) -> Result<(), TestCaseError> {
    let mut stepped = compiled.executor();
    let step_hits: Vec<u64> = (0..elements.len() as u64)
        .filter(|&i| stepped.step(elements[i as usize]))
        .collect();
    let mut fed = compiled.executor();
    let mut hits = Vec::new();
    let mut at = 0usize;
    for &len in chunking {
        let end = (at + len).min(elements.len());
        fed.feed(&elements[at..end], &mut hits);
        at = end;
    }
    fed.feed(&elements[at..], &mut hits);
    let name = compiled.name();
    prop_assert_eq!(&hits, &step_hits, "{} chunking {:?}", name, chunking);
    prop_assert_eq!(fed.ticks(), stepped.ticks());
    prop_assert_eq!(fed.state_index(), stepped.state_index());
    prop_assert_eq!(fed.underflows(), stepped.underflows());
    prop_assert!(fed.skip_ticks() <= fed.ticks());
    Ok(())
}

/// The compiled `implies(ante, cons)` runner against the interpreted
/// `ImplicationChecker` on `trace`: alone under `chunking`, and as a
/// fleet member at one and `jobs` shards with `chunk`-step chunks, on
/// raw and optimized tables. Verdict, fulfilled, outstanding, violation
/// count and the kept violation records (in order) must all agree.
fn assert_equals_checker(
    ante: &Monitor,
    cons: &Monitor,
    trace: &Trace,
    chunking: &[usize],
    jobs: usize,
    chunk: usize,
) -> Result<(), TestCaseError> {
    let mut oracle = ImplicationChecker::new(ante.clone(), cons.clone());
    oracle.scan(trace.iter());
    let kept = &oracle.violations()[..oracle.violations().len().min(VIOLATION_KEEP)];
    let (clocks, run) = on_clk(trace);
    for opts in [CompileOptions::raw(), CompileOptions::optimized()] {
        let gate = CompiledImplication::new("gate", "clk", ante, cons, &opts);
        let mut st = gate.state();
        let elements = trace.as_slice();
        let mut at = 0usize;
        for &len in chunking {
            let end = (at + len).min(elements.len());
            gate.feed(&mut st, &elements[at..end]);
            at = end;
        }
        gate.feed(&mut st, &elements[at..]);
        prop_assert_eq!(st.verdict(), oracle.verdict(), "{:?} chunking {:?}", opts, chunking);
        prop_assert_eq!(st.fulfilled(), oracle.fulfilled());
        prop_assert_eq!(st.outstanding(), oracle.outstanding());
        prop_assert_eq!(st.violation_count(), oracle.violation_count());
        prop_assert_eq!(st.violations(), kept);
        prop_assert_eq!(st.ticks(), trace.len() as u64);

        let mut fleet = Fleet::new();
        let ai = fleet.add_assert(AssertSpec::from_compiled(gate));
        for shards in [1, jobs] {
            let plan = plan_shards(&fleet, shards);
            let report = scan_sharded_global(
                &fleet, &plan, &clocks, &ParOptions::default(), run.as_slice(), chunk,
            );
            let a = &report.asserts[ai];
            prop_assert_eq!(a.verdict, oracle.verdict(), "{:?} jobs {} chunk {}", opts, shards, chunk);
            prop_assert_eq!(a.fulfilled, oracle.fulfilled());
            prop_assert_eq!(a.outstanding, oracle.outstanding());
            prop_assert_eq!(a.violation_count, oracle.violation_count());
            prop_assert_eq!(&a.violations[..], kept);
            prop_assert_eq!(a.antecedent_matches, st.antecedent_matches());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The compiled assert runner equals `ImplicationChecker` on random
    /// antecedents without `cause` arrows (which do complete, so
    /// obligations spawn, overlap and fail), on a `cause`-arrow
    /// antecedent (never completes under pinned `Chk`), and on the
    /// optimized forms of both monitors.
    #[test]
    fn compiled_assert_equals_implication_checker(
        pa in arb_pattern(),
        pc in arb_pattern(),
        raw in arb_trace(80),
        chunking in arb_chunking(),
        jobs in 2usize..=4,
        chunk in 1usize..9,
    ) {
        let Some((_aa, ca)) = build_chart(&pa) else { return Ok(()); };
        let Some((_ac, cc)) = build_chart(&pc) else { return Ok(()); };
        let trace = decode_trace(&raw);
        let ante = synthesize(&ca, &SynthOptions::default()).unwrap();
        let cons = synthesize(&cc, &SynthOptions::default()).unwrap();
        let cz = synthesize(causality_doc().chart("cz").unwrap(), &SynthOptions::default()).unwrap();
        for (a, c) in [(&ante, &cons), (&cz, &cons), (&cons, &ante)] {
            assert_equals_checker(a, c, &trace, &chunking, jobs, chunk)?;
            let (oa, oc) = (optimize(a).0, optimize(c).0);
            assert_equals_checker(&oa, &oc, &trace, &chunking, jobs, chunk)?;
        }
    }

    /// `BatchExec::feed`, which advances idle runs by a mask-only scan,
    /// equals a loop of per-tick `BatchExec::step` under any chunking:
    /// random pattern charts, a scoreboard chart, a disjunctive-guard
    /// chart and a 65-symbol chart, compiled raw and optimized.
    #[test]
    fn feed_equals_per_tick_step(
        pattern in arb_pattern(),
        raw in arb_idle_trace(64),
        chunking in arb_chunking(),
    ) {
        let trace = decode_trace(&raw);
        let mut monitors = Vec::new();
        if let Some((_ab, chart)) = build_chart(&pattern) {
            monitors.push(synthesize(&chart, &SynthOptions::default()).unwrap());
        }
        for (doc, name) in [(causality_doc(), "cz"), (disjunctive_doc(), "dj")] {
            monitors.push(synthesize(doc.chart(name).unwrap(), &SynthOptions::default()).unwrap());
        }
        for m in &monitors {
            for opts in [CompileOptions::raw(), CompileOptions::optimized()] {
                feed_equals_step(&m.compiled_with(&opts), trace.as_slice(), &chunking)?;
            }
        }

        // the wide chart reads bits 0, 63 and 64 of each tick
        let wide = synthesize(wide_doc().chart("wide").unwrap(), &SynthOptions::default()).unwrap();
        let spread: Vec<Valuation> = raw
            .iter()
            .map(|&b| {
                let bit = |i: u32, at: u32| u128::from(b >> i & 1) << at;
                Valuation::from_bits(bit(0, 0) | bit(1, 63) | bit(2, 64) | bit(3, 1))
            })
            .collect();
        for opts in [CompileOptions::raw(), CompileOptions::optimized()] {
            feed_equals_step(&wide.compiled_with(&opts), &spread, &chunking)?;
        }
    }

    /// Multi-clock `scan_batch` equals step-wise `scan` over arbitrary
    /// clock interleavings, for both the coupled (interleaved) and
    /// uncoupled (clock-major) execution strategies.
    #[test]
    fn multiclock_scan_batch_equals_scan(steps in arb_global_steps(40)) {
        let clocks = two_clock_set();
        let run = build_run(&steps);
        for src in [MC_COUPLED, MC_UNCOUPLED] {
            let doc = parse_document(src).unwrap();
            let mm = synthesize_multiclock(doc.multiclock_spec("mc").unwrap(), &SynthOptions::default())
                .unwrap();
            let reference = mm.scan(&clocks, &run);
            let batched = mm.scan_batch(&clocks, &run);
            prop_assert_eq!(&batched, &reference, "coupled={}", mm.compiled().coupled());
        }
    }

    /// Feeding a global run through the compiled multi-clock executor
    /// in ANY chunking yields the verdicts of one step-wise pass.
    #[test]
    fn multiclock_any_chunking_equals_stepwise(
        steps in arb_global_steps(40),
        chunking in arb_chunking(),
    ) {
        let clocks = two_clock_set();
        let run = build_run(&steps);
        for src in [MC_COUPLED, MC_UNCOUPLED] {
            let doc = parse_document(src).unwrap();
            let mm = synthesize_multiclock(doc.multiclock_spec("mc").unwrap(), &SynthOptions::default())
                .unwrap();
            let reference = mm.scan(&clocks, &run);

            let compiled = mm.compiled();
            let mut exec = compiled.executor(&clocks);
            let mut hits = Vec::new();
            let elements = run.as_slice();
            let mut at = 0usize;
            for &len in &chunking {
                let end = (at + len).min(elements.len());
                exec.feed(&elements[at..end], &mut hits);
                at = end;
            }
            exec.feed(&elements[at..], &mut hits);
            prop_assert_eq!(&hits, &reference, "chunking {:?}", &chunking);
            prop_assert_eq!(exec.match_count(), reference.len() as u64);
        }
    }

    /// A bank fed globally (the mixed-plan path) agrees with
    /// independent step-wise scans of each member.
    #[test]
    fn bank_feed_global_equals_independent_scans(
        steps in arb_global_steps(32),
        chunking in arb_chunking(),
    ) {
        let clocks = two_clock_set();
        let run = build_run(&steps);
        let doc = parse_document(MC_COUPLED).unwrap();
        let mm = synthesize_multiclock(doc.multiclock_spec("mc").unwrap(), &SynthOptions::default())
            .unwrap();
        let m1 = synthesize(doc.chart("m1").unwrap(), &SynthOptions::default()).unwrap();

        let mut bank = MonitorBank::new();
        let si = bank.add(&m1);
        let mi = bank.add_multiclock(&mm);

        let elements = run.as_slice();
        let mut at = 0usize;
        for &len in &chunking {
            let end = (at + len).min(elements.len());
            bank.feed_global(&clocks, &elements[at..end]);
            at = end;
        }
        bank.feed_global(&clocks, &elements[at..]);

        // single-clock reference: m1 over its own domain's projection,
        // hits at global times
        let c1 = clocks.lookup("clk1").unwrap();
        let local = run.project(c1);
        let local_times: Vec<u64> = run
            .iter()
            .filter(|s| s.tick_of(c1).is_some())
            .map(|s| s.time)
            .collect();
        let reference: Vec<u64> = m1
            .scan(&local)
            .matches
            .iter()
            .map(|&k| local_times[k as usize])
            .collect();
        prop_assert_eq!(bank.hits(si), &reference[..]);
        prop_assert_eq!(bank.multiclock_hits(mi), &mm.scan(&clocks, &run)[..]);
    }

    /// Streaming a VCD through a small-capacity `BufRead` yields
    /// exactly the whole-string parse of the same bytes, for any
    /// trace, buffer capacity and chunk size.
    #[test]
    fn buffered_vcd_parse_equals_whole_string_parse(
        raw in arb_trace(48),
        cap in 1usize..48,
        chunk_size in 1usize..32,
    ) {
        let mut ab = Alphabet::new();
        for i in 0..SYMS {
            ab.event(&format!("s{i}"));
        }
        let trace = decode_trace(&raw);
        let vcd = write_vcd(&trace, &ab, &VcdWriteOptions::default());
        let whole = read_vcd(&vcd, &ab, "clk").unwrap();
        prop_assert_eq!(&whole, &trace);

        let reader = std::io::BufReader::with_capacity(cap, vcd.as_bytes());
        let mut stream =
            GlobalVcdStream::from_reader(reader, &ab, &[VcdClockSpec::new("clk")]).unwrap();
        let mut got = Trace::new();
        let mut chunk = Vec::new();
        while stream.next_chunk(&mut chunk, chunk_size).unwrap() > 0 {
            got.extend(chunk.iter().map(|step| step.ticks[0].1));
        }
        prop_assert_eq!(got, whole);
    }

    /// `scan_batch` equals step-wise `scan` on arbitrary charts and
    /// traces, under both overlap policies.
    #[test]
    fn scan_batch_equals_scan(
        pattern in arb_pattern(),
        raw in arb_trace(32),
    ) {
        let Some((_ab, chart)) = build_chart(&pattern) else {
            return Ok(());
        };
        let trace = decode_trace(&raw);
        for policy in [OverlapPolicy::Satisfiability, OverlapPolicy::Witness] {
            let opts = SynthOptions { overlap: policy, ..Default::default() };
            let monitor = synthesize(&chart, &opts).unwrap();
            let stepwise = monitor.scan(&trace);
            let batched = monitor.scan_batch(trace.as_slice());
            prop_assert_eq!(&stepwise, &batched, "policy {:?}", policy);
        }
    }

    /// Feeding the trace through `BatchExec` in ANY chunking yields the
    /// same verdict and the same detection indices as one step-wise
    /// pass — chunk borders are semantically invisible.
    #[test]
    fn any_chunking_equals_stepwise(
        pattern in arb_pattern(),
        raw in arb_trace(32),
        chunking in arb_chunking(),
    ) {
        let Some((_ab, chart)) = build_chart(&pattern) else {
            return Ok(());
        };
        let trace = decode_trace(&raw);
        let monitor = synthesize(&chart, &SynthOptions::default()).unwrap();
        let reference = monitor.scan(&trace);

        let compiled = monitor.compiled();
        let mut exec = compiled.executor();
        let mut hits = Vec::new();
        let elements = trace.as_slice();
        let mut at = 0usize;
        for &len in &chunking {
            let end = (at + len).min(elements.len());
            exec.feed(&elements[at..end], &mut hits);
            at = end;
        }
        exec.feed(&elements[at..], &mut hits);
        let report = exec.finish(hits);
        prop_assert_eq!(&report, &reference, "chunking {:?}", chunking);
    }

    /// A causality chart (scoreboard actions live) under random traffic:
    /// batch and step-wise agree on matches AND underflow accounting,
    /// and so do the optimized tables (narrowed slots and masks) fed
    /// in any chunking.
    #[test]
    fn causality_chart_batch_equals_scan(raw in arb_trace(48), chunking in arb_chunking()) {
        let doc = causality_doc();
        let monitor = synthesize(doc.chart("cz").unwrap(), &SynthOptions::default()).unwrap();
        let trace = decode_trace(&raw);
        let stepwise = monitor.scan(&trace);
        let batched = monitor.scan_batch(trace.as_slice());
        prop_assert_eq!(&stepwise, &batched);

        let compiled = monitor.compiled_with(&CompileOptions::optimized());
        let mut exec = compiled.executor();
        let mut hits = Vec::new();
        let elements = trace.as_slice();
        let mut at = 0usize;
        for &len in &chunking {
            let end = (at + len).min(elements.len());
            exec.feed(&elements[at..end], &mut hits);
            at = end;
        }
        exec.feed(&elements[at..], &mut hits);
        prop_assert_eq!(&exec.finish(hits), &stepwise, "chunking {:?}", chunking);
    }

    /// The sharded fleet executor over any single-clock fleet, shard
    /// count and chunk size, fed the trace as a one-clock global run,
    /// is bit-identical to the serial `MonitorBank::feed` — same hit
    /// ticks, tick counts and underflow accounting per monitor.
    #[test]
    fn sharded_fleet_equals_serial_bank(
        p1 in arb_pattern(),
        p2 in arb_pattern(),
        p3 in arb_pattern(),
        raw in arb_trace(48),
        jobs in 1usize..=8,
        chunk in 1usize..24,
    ) {
        let Some((_a1, c1)) = build_chart(&p1) else { return Ok(()); };
        let Some((_a2, c2)) = build_chart(&p2) else { return Ok(()); };
        let Some((_a3, c3)) = build_chart(&p3) else { return Ok(()); };
        let trace = decode_trace(&raw);
        let doc = causality_doc();
        let monitors = vec![
            synthesize(&c1, &SynthOptions::default()).unwrap(),
            synthesize(&c2, &SynthOptions::default()).unwrap(),
            synthesize(&c3, &SynthOptions::default()).unwrap(),
            synthesize(doc.chart("cz").unwrap(), &SynthOptions::default()).unwrap(),
        ];

        let mut bank = MonitorBank::new();
        let mut fleet = Fleet::new();
        for m in &monitors {
            bank.add(m);
            fleet.add(m);
        }
        bank.feed(trace.as_slice());

        let plan = plan_shards(&fleet, jobs);
        prop_assert_eq!(plan.jobs(), jobs.min(monitors.len()));
        let (clocks, run) = on_clk(&trace);
        let report = scan_sharded_global(
            &fleet, &plan, &clocks, &ParOptions::default(), run.as_slice(), chunk,
        );
        for (i, serial) in bank.reports().iter().enumerate() {
            let sharded = &report.singles[i];
            prop_assert_eq!(
                sharded.log.all().unwrap(), &serial.matches[..],
                "monitor {} jobs {} chunk {}", i, jobs, chunk
            );
            prop_assert_eq!(sharded.ticks, serial.ticks);
            prop_assert_eq!(sharded.underflows, serial.underflows);
        }
    }

    /// The sharded executor over a mixed single/multi-clock fleet fed
    /// globally is bit-identical to the serial
    /// `MonitorBank::feed_global`, for any shard count, chunk size,
    /// clock interleaving and both multi-clock execution strategies.
    #[test]
    fn sharded_global_fleet_equals_serial_bank(
        steps in arb_global_steps(32),
        jobs in 1usize..=8,
        chunk in 1usize..16,
    ) {
        let clocks = two_clock_set();
        let run = build_run(&steps);
        for src in [MC_COUPLED, MC_UNCOUPLED] {
            let doc = parse_document(src).unwrap();
            let mm = synthesize_multiclock(doc.multiclock_spec("mc").unwrap(), &SynthOptions::default())
                .unwrap();
            let m1 = synthesize(doc.chart("m1").unwrap(), &SynthOptions::default()).unwrap();
            let m2 = synthesize(doc.chart("m2").unwrap(), &SynthOptions::default()).unwrap();

            let mut bank = MonitorBank::new();
            let b1 = bank.add(&m1);
            let b2 = bank.add(&m2);
            let bm = bank.add_multiclock(&mm);
            bank.feed_global(&clocks, run.as_slice());

            let mut fleet = Fleet::new();
            let f1 = fleet.add(&m1);
            let f2 = fleet.add(&m2);
            let fm = fleet.add_multiclock(&mm);
            let plan = plan_shards(&fleet, jobs);
            let report = scan_sharded_global(
                &fleet, &plan, &clocks, &ParOptions::default(), run.as_slice(), chunk,
            );
            prop_assert_eq!(report.singles[f1].log.all().unwrap(), bank.hits(b1));
            prop_assert_eq!(report.singles[f2].log.all().unwrap(), bank.hits(b2));
            prop_assert_eq!(
                report.multis[fm].log.all().unwrap(), bank.multiclock_hits(bm),
                "coupled={} jobs={} chunk={}", mm.compiled().coupled(), jobs, chunk
            );
            prop_assert_eq!(report.multis[fm].underflows, bank.multiclock_underflows(bm));
        }
    }

    /// Bounded (summary-mode) tallies agree with the exact run on
    /// count and head/tail entries for any shard count.
    #[test]
    fn bounded_tallies_match_exact_counts(
        raw in arb_trace(64),
        jobs in 1usize..=8,
    ) {
        let doc = causality_doc();
        let monitor = synthesize(doc.chart("cz").unwrap(), &SynthOptions::default()).unwrap();
        let trace = decode_trace(&raw);
        let reference = monitor.scan(&trace);

        let mut fleet = Fleet::new();
        fleet.add(&monitor);
        let plan = plan_shards(&fleet, jobs);
        let opts = ParOptions { keep_all_hits: false, ..Default::default() };
        let (clocks, run) = on_clk(&trace);
        let report = scan_sharded_global(&fleet, &plan, &clocks, &opts, run.as_slice(), 7);
        let log = &report.singles[0].log;
        prop_assert_eq!(log.count(), reference.matches.len() as u64);
        prop_assert!(log.all().is_none());
        let head: Vec<u64> = reference.matches.iter().copied().take(5).collect();
        prop_assert_eq!(log.first(), &head[..]);
    }

    /// A bank over several monitors equals independent step-wise scans
    /// of each, for any chunking of the shared feed.
    #[test]
    fn bank_equals_independent_scans(
        p1 in arb_pattern(),
        p2 in arb_pattern(),
        raw in arb_trace(32),
        chunking in arb_chunking(),
    ) {
        let Some((_a1, c1)) = build_chart(&p1) else { return Ok(()); };
        let Some((_a2, c2)) = build_chart(&p2) else { return Ok(()); };
        let trace = decode_trace(&raw);
        let doc = causality_doc();
        let monitors = vec![
            synthesize(&c1, &SynthOptions::default()).unwrap(),
            synthesize(&c2, &SynthOptions::default()).unwrap(),
            synthesize(doc.chart("cz").unwrap(), &SynthOptions::default()).unwrap(),
        ];

        let mut bank = MonitorBank::new();
        for m in &monitors {
            bank.add(m);
        }
        let elements = trace.as_slice();
        let mut at = 0usize;
        for &len in &chunking {
            let end = (at + len).min(elements.len());
            bank.feed(&elements[at..end]);
            at = end;
        }
        bank.feed(&elements[at..]);

        let reports = bank.reports();
        for (i, m) in monitors.iter().enumerate() {
            let reference = m.scan(&trace);
            prop_assert_eq!(&reports[i], &reference, "monitor {}", i);
        }
    }
}
