//! Layer record for VCD decode: `GlobalVcdStream` draining an
//! in-memory dump through a `BufReader`, with no monitor attached.
//!
//! Workload: a deterministic sparse single-clock dump — a `req`/`ack`
//! handshake every 32–95 ticks, plus 40 noise signals the reader's
//! alphabet does not name, each toggling about once per 512 ticks.
//! This is the shape of the end-to-end benchmark's decode-bound
//! `handshake_sparse` dump, scaled down to a few MB so the dump stays
//! in memory and the record measures decoding, not the disk. The
//! reader sits behind a default-capacity `BufReader`, as `cesc check`
//! reads a file, so window scanning and the split-line carry both run.
//!
//! Prints one JSON record:
//! `{"bench":"vcd_decode","workload":"sparse_handshake","bytes":…,"mb_per_s":…,"msteps_per_s":…,"probe_s":…}`
//! (`probe_s` is [`cesc_bench::probe_s`], the host-speed probe).

use std::hint::black_box;
use std::io::BufReader;

use cesc_bench::quick;
use cesc_core::BATCH_CHUNK;
use cesc_expr::{Alphabet, Valuation};
use cesc_trace::{write_vcd, GlobalVcdStream, Trace, VcdClockSpec, VcdWriteOptions};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const TICKS: usize = 200_000;
const NOISE_SIGNALS: usize = 40;
const NOISE_PERIOD: u64 = 512;

/// SplitMix64, so the dump depends on nothing but this file.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The dump text and the alphabet the reader samples (`req`, `ack`
/// only, so every noise change is an unbound code).
fn sparse_dump() -> (String, Alphabet) {
    let mut dump_ab = Alphabet::new();
    let req = dump_ab.event("req");
    let ack = dump_ab.event("ack");
    let noise: Vec<_> = (0..NOISE_SIGNALS)
        .map(|i| dump_ab.prop(&format!("aux{i}")))
        .collect();
    let mut rng = 1u64;
    let mut levels = Valuation::empty();
    let mut next_handshake = 0usize;
    let mut trace = Trace::new();
    for tick in 0..TICKS {
        let mut v = Valuation::empty();
        for &n in &noise {
            if next(&mut rng).is_multiple_of(NOISE_PERIOD) {
                if levels.contains(n) {
                    levels.remove(n);
                } else {
                    levels.insert(n);
                }
            }
            if levels.contains(n) {
                v.insert(n);
            }
        }
        if tick == next_handshake {
            v.insert(req);
        } else if tick > next_handshake && tick <= next_handshake + 2 {
            v.insert(ack);
            if tick == next_handshake + 2 {
                next_handshake += 32 + (next(&mut rng) % 64) as usize;
            }
        }
        trace.push(v);
    }
    let text = write_vcd(&trace, &dump_ab, &VcdWriteOptions::default());
    let mut read_ab = Alphabet::new();
    read_ab.event("req");
    read_ab.event("ack");
    (text, read_ab)
}

/// Decodes the whole dump; returns the number of steps.
fn drain(text: &str, ab: &Alphabet, clocks: &[VcdClockSpec]) -> usize {
    let reader = BufReader::new(text.as_bytes());
    let mut stream = GlobalVcdStream::from_reader(reader, ab, clocks).expect("header parses");
    let mut chunk = Vec::with_capacity(BATCH_CHUNK);
    let mut steps = 0;
    while stream
        .next_chunk(&mut chunk, BATCH_CHUNK)
        .expect("dump decodes")
        > 0
    {
        steps += chunk.len();
        black_box(&chunk);
    }
    steps
}

fn bench(c: &mut Criterion) {
    let (text, ab) = sparse_dump();
    let clocks = [VcdClockSpec::new("clk")];
    let steps = drain(&text, &ab, &clocks);
    assert_eq!(steps, TICKS, "every tick decoded");

    let mut g = c.benchmark_group("vcd_decode/sparse_handshake");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("buf_reader", |b| {
        b.iter(|| drain(black_box(&text), &ab, &clocks))
    });
    g.finish();

    let secs = cesc_bench::time_per_pass(10, || {
        black_box(drain(black_box(&text), &ab, &clocks));
    });
    println!(
        "{{\"bench\":\"vcd_decode\",\"workload\":\"sparse_handshake\",\"bytes\":{},\
         \"mb_per_s\":{:.3},\"msteps_per_s\":{:.3},\"probe_s\":{:.6}}}",
        text.len(),
        text.len() as f64 / secs / 1e6,
        cesc_bench::melem_per_s(steps, secs),
        cesc_bench::probe_s(),
    );
}

criterion_group!(name = group; config = quick(); targets = bench);
criterion_main!(group);
