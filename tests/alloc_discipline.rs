//! Steady-state allocation discipline, pinned by a counting global
//! allocator: after a warmup, `GlobalVcdStream::next_chunk` on (a) one
//! and (b) two clocks, inline and with decode workers, (c)
//! `MonitorBank::feed_global` over `GlobalStep` chunks, idle-run skips
//! and an `implies(...)` assert included, and (d) a two-shard
//! `run_sharded` broadcast through `FleetFeeder::feed_global` must
//! perform **zero** heap allocations per chunk, on any thread. This is
//! the contract behind the streaming `cesc check` path: the block
//! buffers and their decoded records, the split-line carry buffer,
//! recycled `GlobalStep::ticks` vectors, the bank's projection buffers,
//! its drained hit logs, the assert's obligation and violation storage
//! and the broadcast chunk buffers are all reused, so throughput does
//! not degrade into allocator traffic on 100k+-tick dumps. The inline
//! decode cases read through a `BufReader` whose window is shorter than
//! most lines, so nearly every line is carried across two reads inside
//! the measured stretch.
//!
//! Everything runs inside ONE `#[test]` — the counter is process-wide
//! (so it sees the decode workers and the shards too) and the harness
//! runs separate tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};

use cesc::core::MonitorBank;
use cesc::expr::Valuation;
use cesc::par::{plan_shards, run_sharded, AssertSpec, Fleet, ParOptions, CHANNEL_DEPTH};
use cesc::prelude::parse_document;
use cesc::spec::SpecSet;
use cesc::trace::{
    write_vcd, write_vcd_global, ClockDomain, ClockSet, GlobalRun, GlobalStep, GlobalVcdStream,
    Trace, VcdClockSpec, VcdWriteOptions,
};

/// Counts every `alloc`/`realloc` handed to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

const SPEC: &str = r#"
scesc flow on clk {
    instances { A, B }
    events { req, ack }
    tick { A: req }
    tick { B: ack }
}
"#;

/// One single-clock chart plus a multiclock spec that reuses it across
/// two domains with a cross-domain causality (scoreboard traffic), and
/// an assert: every `req` obliges `ack`, three ticks of anything, then
/// `req` — five ticks, so obligations overlap, cross chunk boundaries
/// and, on a trace where `ack` follows `req`, end in violations.
const FLEET_SPEC: &str = r#"
scesc flow on clk1 {
    instances { A, B }
    events { req, ack }
    tick { A: req }
    tick { B: ack }
    cause req -> ack;
}
scesc side on clk2 {
    instances { C, D }
    events { go, done }
    tick { C: go }
    tick { D: done }
}
multiclock pair { charts { flow, side } cause req -> go; }
scesc ping on clk1 { instances { A } events { req, ack } tick { A: req } }
scesc pong on clk1 {
    instances { B }
    events { req, ack }
    tick { B: ack } tick ; tick ; tick ; tick { B: req }
}
cesc pinged { implies(ping, pong) }
"#;

const CHUNK: usize = 256;
const CHUNKS: usize = 8;
/// Reader window for the decode cases: shorter than a timestamp line.
const WINDOW: usize = 3;

#[test]
fn streaming_hot_loops_allocate_nothing_after_warmup() {
    let doc = parse_document(SPEC).unwrap();
    let req = doc.alphabet.lookup("req").unwrap();
    let ack = doc.alphabet.lookup("ack").unwrap();
    let elements: Vec<Valuation> = (0..CHUNK * CHUNKS)
        .map(|i| {
            if i % 2 == 0 {
                Valuation::of([req])
            } else {
                Valuation::of([ack])
            }
        })
        .collect();

    // warmup: two chunks, so the spare pool has absorbed one full
    // recycle cycle (the pool vector itself grows on the first drain)
    let steady_decode = |text: &str, specs: &[VcdClockSpec]| {
        let reader = BufReader::with_capacity(WINDOW, text.as_bytes());
        let mut stream = GlobalVcdStream::from_reader(reader, &doc.alphabet, specs).unwrap();
        let mut buf: Vec<GlobalStep> = Vec::with_capacity(CHUNK);
        let mut decoded = stream.next_chunk(&mut buf, CHUNK).unwrap();
        decoded += stream.next_chunk(&mut buf, CHUNK).unwrap();
        let steady = allocs_during(|| loop {
            let n = stream.next_chunk(&mut buf, CHUNK).unwrap();
            if n == 0 {
                break;
            }
            decoded += n;
        });
        assert_eq!(decoded, CHUNK * CHUNKS, "whole dump decoded");
        steady
    };

    // (a) single-clock VCD streaming: the scanner reuses its carry
    // buffer, and `GlobalStep::ticks` vectors are recycled through
    // the stream's spare pool across chunks.
    let text = write_vcd(
        &Trace::from_elements(elements),
        &doc.alphabet,
        &VcdWriteOptions::default(),
    );
    let steady = steady_decode(&text, &[VcdClockSpec::new("clk")]);
    assert_eq!(steady, 0, "one-clock GlobalVcdStream::next_chunk allocated in steady state");

    // (b) multi-clock VCD streaming over two interleaved domains.
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
    let per_domain = CHUNK * CHUNKS / 2;
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements(vec![Valuation::of([req]); per_domain])),
            (c2, Trace::from_elements(vec![Valuation::of([ack]); per_domain])),
        ],
    )
    .unwrap();
    let owners = [Valuation::of([req]), Valuation::of([ack])];
    let text = write_vcd_global(
        &run,
        &clocks,
        &doc.alphabet,
        &owners,
        &VcdWriteOptions::default(),
    );
    let specs = [
        VcdClockSpec::masked("clk1", owners[0]),
        VcdClockSpec::masked("clk2", owners[1]),
    ];
    let steady = steady_decode(&text, &specs);
    assert_eq!(steady, 0, "two-clock GlobalVcdStream::next_chunk allocated in steady state");

    // (b') the same two domains decoded on two worker threads, over a
    // dump long enough for about 30 body blocks: the first half warms
    // every recycled block up, the second half is measured
    let long_domain = 32 * CHUNK * CHUNKS;
    let long_run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements(vec![Valuation::of([req]); long_domain])),
            (c2, Trace::from_elements(vec![Valuation::of([ack]); long_domain])),
        ],
    )
    .unwrap();
    let text = write_vcd_global(
        &long_run,
        &clocks,
        &doc.alphabet,
        &owners,
        &VcdWriteOptions::default(),
    );
    let mut stream = GlobalVcdStream::from_reader(text.as_bytes(), &doc.alphabet, &specs)
        .unwrap()
        .with_workers(2);
    let mut buf: Vec<GlobalStep> = Vec::with_capacity(CHUNK);
    let mut decoded = 0;
    while decoded < long_run.len() / 2 {
        decoded += stream.next_chunk(&mut buf, CHUNK).unwrap();
    }
    let steady = allocs_during(|| loop {
        let n = stream.next_chunk(&mut buf, CHUNK).unwrap();
        if n == 0 {
            break;
        }
        decoded += n;
    });
    assert_eq!(decoded, long_run.len(), "whole dump decoded");
    assert!(stream.blocks_decoded() >= 20, "{} blocks", stream.blocks_decoded());
    assert_eq!(steady, 0, "GlobalVcdStream::next_chunk on decode workers allocated in steady state");

    // (c) the engine hot loop `cesc check` runs: a bank with one
    // optimized single-clock member, one multiclock member and one
    // assert, fed `GlobalStep` chunks and drained after every chunk the
    // way the shard workers drain it. Each transaction is followed by
    // two idle ticks, which the single-clock member advances by its
    // idle-run scan. The assert spawns an obligation every fourth clk1
    // tick; each lives five ticks, so one is open at most chunk ends
    // (a chunk carries 128 clk1 ticks), and each fails on its fifth
    // tick, an `ack`: past the first 100 the violations are counted,
    // not kept.
    let set = SpecSet::load(FLEET_SPEC).unwrap();
    let ab = set.alphabet();
    let ev = |n: &str| ab.lookup(n).unwrap();
    let mut bank = MonitorBank::new();
    bank.add_compiled(set.chart_spec(0).unwrap().compiled().clone());
    bank.add_compiled_multiclock(set.multi_spec(0).unwrap().compiled().clone());
    bank.add_compiled_implication(set.assert_spec(0).unwrap().compiled().clone());
    let alternate = |a: &str, b: &str| {
        let (a, b) = (Valuation::of([ev(a)]), Valuation::of([ev(b)]));
        let elems = (0..per_domain).map(|i| match i % 4 {
            0 => a,
            1 => b,
            _ => Valuation::empty(),
        });
        Trace::from_elements(elems.collect::<Vec<_>>())
    };
    let run = GlobalRun::interleave(
        &clocks,
        &[(c1, alternate("req", "ack")), (c2, alternate("go", "done"))],
    )
    .unwrap();
    let (mut single_hits, mut multi_hits, mut open_at_chunk_end) = (0usize, 0usize, 0usize);
    let mut feed = |bank: &mut MonitorBank, chunk: &[GlobalStep]| {
        bank.feed_global(&clocks, chunk);
        bank.drain_hits(|_, h| single_hits += h.len());
        bank.drain_multiclock_hits(|_, h| multi_hits += h.len());
        open_at_chunk_end = open_at_chunk_end.max(bank.implication_state(0).outstanding());
    };
    let mut chunks = run.as_slice().chunks(CHUNK);
    feed(&mut bank, chunks.next().unwrap()); // warmup: binds clocks, sizes buffers
    let skipped = bank.skip_ticks();
    let failed = bank.implication_state(0).violation_count();
    let steady = allocs_during(|| chunks.for_each(|chunk| feed(&mut bank, chunk)));
    assert_eq!(
        steady, 0,
        "MonitorBank::feed_global allocated in steady state"
    );
    assert!(
        bank.skip_ticks() > skipped,
        "the measured stretch took idle-run skips: {}",
        bank.skip_ticks()
    );
    assert_eq!(
        bank.reports()[0].ticks,
        per_domain as u64,
        "every clk1 tick reached the chart"
    );
    assert!(
        single_hits > 0 && multi_hits > 0,
        "both members must detect: {single_hits}/{multi_hits}"
    );
    let gate = bank.implication_state(0);
    assert!(open_at_chunk_end > 0, "an obligation was open across a chunk boundary");
    assert!(
        gate.violation_count() > failed && gate.violation_count() > 100,
        "the measured stretch recorded violations past the kept ones: {}",
        gate.violation_count()
    );
    assert_eq!(gate.violations().len(), 100);

    // (d) the same members sharded across two worker threads: the
    // feeder copies each borrowed chunk into a recycled buffer, and the
    // shards step and drain it, all without allocating. The warmup
    // feeds enough chunks past the channel depth that both shards have
    // run their first chunks before the measured stretch. Here every
    // clk1 tick is a `req`: the assert spawns an obligation each tick,
    // one is open at every chunk end, and each fails on its first
    // tick.
    let mut fleet = Fleet::new();
    fleet.add_compiled(set.chart_spec(0).unwrap().compiled().clone());
    fleet.add_compiled_multiclock(set.multi_spec(0).unwrap().compiled().clone());
    fleet.add_assert(AssertSpec::from_compiled(set.assert_spec(0).unwrap().compiled().clone()));
    let plan = plan_shards(&fleet, 2);
    assert_eq!(plan.shards().len(), 2, "two shards, so chunks are broadcast");
    let opts = ParOptions {
        keep_all_hits: false,
        ..ParOptions::default()
    };
    let long_run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements(vec![Valuation::of([ev("req")]); 16 * CHUNK])),
            (c2, Trace::from_elements(vec![Valuation::of([ev("go")]); 16 * CHUNK])),
        ],
    )
    .unwrap();
    let warm = 2 * CHANNEL_DEPTH + 4;
    let (report, steady) = run_sharded(&fleet, &plan, Some(&clocks), &opts, |feeder| {
        let mut chunks = long_run.as_slice().chunks(CHUNK);
        chunks.by_ref().take(warm).for_each(|c| feeder.feed_global(c));
        allocs_during(|| chunks.for_each(|c| feeder.feed_global(c)))
    });
    assert_eq!(
        steady, 0,
        "two-shard run_sharded + FleetFeeder::feed_global allocated in steady state"
    );
    assert_eq!(report.singles[0].ticks, 16 * CHUNK as u64, "every clk1 tick reached the chart");
    let gate = &report.asserts[0];
    assert_eq!(gate.ticks, 16 * CHUNK as u64, "every clk1 tick reached the assert");
    assert_eq!(gate.violation_count, 16 * CHUNK as u64 - 1, "{gate:?}");
}
