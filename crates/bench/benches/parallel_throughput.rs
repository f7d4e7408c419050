//! Experiment P1: the sharded fleet executor (`cesc-par`) against the
//! serial `MonitorBank` on a 16-monitor verification fleet.
//!
//! Workload: 8 copies of the OCP pipelined burst read (the heaviest
//! scoreboard program) plus 8 copies of the OCP simple read, all
//! sharing one alphabet, checked over compliant burst traffic with a
//! realistic inter-transaction idle gap. The serial baseline feeds
//! every monitor from one `MonitorBank::feed` over raw-compiled
//! tables; the fleet variants run the deployment configuration —
//! `cesc check` hands the fleet the spec cache's
//! [`CompileOptions::optimized`] artifacts and feeds it
//! `FleetFeeder::feed_global` chunks, so this bench does too — the
//! trace lifted onto the one period-1 clock `clk` and streamed in
//! `BATCH_CHUNK`-step chunks to 1, 2 and 4 shard workers planned by
//! the cost-model LPT planner.
//!
//! Verdict equivalence between the serial and sharded paths is
//! asserted inline here and property-tested in
//! `tests/batch_equivalence.rs`; this bench produces the measured
//! speedups. The JSON record carries two:
//!
//! * `speedup` — raw serial bank over the fleet. It compounds the
//!   optimized tables' edge (mostly the idle-run scan) with shard
//!   parallelism. Acceptance bar (checked by `make verify-par`): ≥ 1.0
//!   on any host. Single-shard plans take the no-thread direct path,
//!   so even a single-core host keeps the optimized tables' edge
//!   instead of paying channel/broadcast overhead for no parallelism.
//! * `shard_speedup` — a serial `MonitorBank::feed_global` over the
//!   same optimized tables and global run, over the fleet: what
//!   sharding alone buys.

use cesc_bench::quick;
use cesc_core::{synthesize, CompileOptions, MonitorBank, SynthOptions, BATCH_CHUNK};
use cesc_par::{plan_shards, scan_sharded_global, Fleet, ParOptions};
use cesc_protocols::ocp;
use cesc_protocols::traffic::{transaction_stream, TrafficConfig};
use cesc_trace::{ClockSet, GlobalRun};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const FLEET_COPIES: usize = 8; // 8 burst + 8 simple = 16 monitors

/// 16 protocol charts in one shared-alphabet document: `FLEET_COPIES`
/// renamed copies each of the OCP burst read and the OCP simple read.
fn fleet_sources() -> String {
    let mut src = String::new();
    for k in 0..FLEET_COPIES {
        src.push_str(&ocp::BURST_READ_SRC.replace("ocp_burst_read", &format!("burst_{k}")));
        src.push_str(&ocp::SIMPLE_READ_SRC.replace("ocp_simple_read", &format!("simple_{k}")));
    }
    src
}

fn bench(c: &mut Criterion) {
    let src = fleet_sources();
    let doc = cesc_chart::parse_document(&src).expect("fleet document parses");
    assert_eq!(doc.charts.len(), 2 * FLEET_COPIES);
    let monitors: Vec<_> = doc
        .charts
        .iter()
        .map(|chart| synthesize(chart, &SynthOptions::default()).expect("synthesizable"))
        .collect();
    let window = ocp::burst_read_window(&doc.alphabet);
    let trace = transaction_stream(
        &doc.alphabet,
        &window,
        &TrafficConfig {
            transactions: 2_000,
            gap: 96,
            ..Default::default()
        },
    );

    // serial reference + cross-check: every fleet shard count must
    // reproduce the bank's verdicts exactly
    let mut bank = MonitorBank::new();
    for m in &monitors {
        bank.add(m);
    }
    bank.feed(trace.as_slice());
    // deployment fleet: `cesc check` builds its fleet from the spec
    // cache's optimized artifacts, not raw tables
    let mut fleet = Fleet::new();
    for m in &monitors {
        fleet.add_compiled(m.compiled_with(&CompileOptions::optimized()));
    }
    // every chart runs `on clk`: one period-1 domain, so global times
    // are the trace's tick indices
    let (clocks, clk) = ClockSet::single();
    let run = GlobalRun::interleave(&clocks, &[(clk, trace.clone())]).expect("one domain");
    for jobs in [1usize, 2, 4] {
        let plan = plan_shards(&fleet, jobs);
        let report = scan_sharded_global(
            &fleet,
            &plan,
            &clocks,
            &ParOptions::default(),
            run.as_slice(),
            BATCH_CHUNK,
        );
        for i in 0..monitors.len() {
            assert_eq!(
                report.singles[i].log.all().expect("exact logs"),
                bank.hits(i),
                "jobs={jobs} monitor={i}"
            );
        }
    }

    let mut g = c.benchmark_group("parallel_throughput/fleet_16_monitors");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_with_input(
        BenchmarkId::from_parameter("serial_bank"),
        &trace,
        |b, t| {
            b.iter(|| {
                bank.reset();
                bank.feed(black_box(t.as_slice()));
                (0..bank.len()).map(|i| bank.hits(i).len()).sum::<usize>()
            })
        },
    );
    // summary-mode logs: the deployment configuration (bounded memory)
    let opts = ParOptions {
        keep_all_hits: false,
        ..Default::default()
    };
    for jobs in [1usize, 2, 4] {
        let plan = plan_shards(&fleet, jobs);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("fleet_jobs_{jobs}")),
            &run,
            |b, r| {
                b.iter(|| {
                    let report = scan_sharded_global(
                        &fleet,
                        &plan,
                        &clocks,
                        &opts,
                        black_box(r.as_slice()),
                        BATCH_CHUNK,
                    );
                    report
                        .singles
                        .iter()
                        .map(|r| r.log.count() as usize)
                        .sum::<usize>()
                })
            },
        );
    }
    g.finish();

    // one-line JSON trajectory record (shared shape, see cesc_bench).
    // The recorded configuration clamps the shard count to the host's
    // actual parallelism: asking for more workers than cores only
    // measures broadcast overhead. On a single-core host that clamps
    // to one shard, which the planner runs on the no-thread direct
    // path — the recorded speedup then measures the deployment
    // engine's edge (optimized tables) over the raw serial bank
    // rather than going sub-serial on channel overhead.
    let host_jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs = host_jobs.min(4);
    let serial_s = cesc_bench::time_per_pass(5, || {
        bank.reset();
        bank.feed(black_box(trace.as_slice()));
    });
    // the shard-only reference: the fleet's own optimized tables, fed
    // the same global run serially
    let mut opt_bank = MonitorBank::new();
    for m in &monitors {
        opt_bank.add_compiled(m.compiled_with(&CompileOptions::optimized()));
    }
    let opt_serial_s = cesc_bench::time_per_pass(5, || {
        opt_bank.reset();
        for c in black_box(run.as_slice()).chunks(BATCH_CHUNK) {
            opt_bank.feed_global(&clocks, c);
        }
    });
    for i in 0..monitors.len() {
        assert_eq!(opt_bank.hits(i), bank.hits(i), "optimized serial bank, monitor {i}");
    }
    let plan = plan_shards(&fleet, jobs);
    let fleet_s = cesc_bench::time_per_pass(5, || {
        let report = scan_sharded_global(
            &fleet,
            &plan,
            &clocks,
            &opts,
            black_box(run.as_slice()),
            BATCH_CHUNK,
        );
        black_box(report.singles.len());
    });
    cesc_bench::emit_record(
        "parallel_throughput",
        "fleet_16_monitors_host_jobs",
        trace.len(),
        fleet_s,
        &[
            ("serial_melem_per_s", cesc_bench::melem_per_s(trace.len(), serial_s)),
            ("jobs", jobs as f64),
            ("speedup", serial_s / fleet_s),
            ("shard_speedup", opt_serial_s / fleet_s),
        ],
    );
}

criterion_group!(name = group; config = quick(); targets = bench);
criterion_main!(group);
