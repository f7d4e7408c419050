//! Seeded workload generator and in-memory reference.
//!
//! [`generate`] writes a workload's spec, its dump, a header-only copy
//! of the dump (for set-up timing) and `reference.json`: the verdicts
//! the raw (unoptimized) monitors give over the *generated trace*,
//! computed with `MonitorBank` / `ImplicationChecker` without ever
//! going through VCD text. The same seed always yields byte-identical
//! files.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write as _};
use std::path::Path;

use cesc_core::{ImplicationChecker, MonitorBank};
use cesc_expr::{Alphabet, Valuation};
use cesc_par::MatchLog;
use cesc_protocols::{ocp, readproto};
use cesc_spec::{SpecOptions, SpecSet, TargetRef};
use cesc_trace::{
    write_vcd, write_vcd_global_to, ClockDomain, ClockId, ClockSet, GlobalRun, GlobalStep, Trace,
    VcdWriteOptions,
};

use crate::verdict::{Tally, TargetVerdict, Verdicts, EDGE};

/// The shipped single-clock handshake spec (`hs`, `ack_pulse`,
/// `hs_gate`).
const HANDSHAKE_SPEC: &str = include_str!("../../examples/specs/handshake.cesc");
/// The shipped Fig 2 two-clock read spec (`m1`, `m2`,
/// `read_multiclock`).
const MULTICLOCK_SPEC: &str = include_str!("../../examples/specs/multiclock_read.cesc");

/// File names inside a generated workload directory.
pub const SPEC_FILE: &str = "spec.cesc";
pub const DUMP_FILE: &str = "dump.vcd";
pub const HEADER_FILE: &str = "header.vcd";
pub const REFERENCE_FILE: &str = "reference.json";

/// Signals the handshake dump carries that the spec does not name.
const NOISE_SIGNALS: usize = 40;
/// Mean ticks between two toggles of one noise signal.
const NOISE_PERIOD: u64 = 512;
/// Renamed copies of each OCP chart in the fleet.
const OCP_COPIES: usize = 16;
/// VCD time units per global time unit: both writers put the rising
/// edge of time `t` at `2 * t * half_period`.
const VCD_SCALE: u64 = 2 * 5;
/// Steps per reference chunk.
const CHUNK: usize = 4096;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sparse single-clock handshakes plus unnamed noise signals;
    /// decode-bound, asserts on.
    HandshakeSparse,
    /// 64 OCP monitors over dense transaction traffic; engine-bound.
    OcpFleet,
    /// Fig 2 two-clock read transactions, checked with `--jobs 2`.
    Fig2Multiclock,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::HandshakeSparse,
        Workload::OcpFleet,
        Workload::Fig2Multiclock,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HandshakeSparse => "handshake_sparse",
            Workload::OcpFleet => "ocp_fleet",
            Workload::Fig2Multiclock => "fig2_multiclock",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--jobs` the check runs with.
    pub fn jobs(self) -> usize {
        match self {
            Workload::Fig2Multiclock => 2,
            Workload::HandshakeSparse | Workload::OcpFleet => 1,
        }
    }

    /// The benchmark's input length: clock ticks for the single-clock
    /// workloads, 10-time-unit blocks (6 global steps each) for
    /// `fig2_multiclock`.
    pub fn full_len(self) -> usize {
        match self {
            Workload::HandshakeSparse => 2_000_000,
            Workload::OcpFleet => 500_000,
            Workload::Fig2Multiclock => 250_000,
        }
    }
}

/// SplitMix64: a small, fixed generator, so dumps depend on the seed
/// alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The spec as the reference loads it: parsed, synthesized, never
/// optimized, so the reference runs the raw tables while the checked
/// route runs the optimized ones.
fn raw_specs(source: &str) -> SpecSet {
    SpecSet::load_with(
        source,
        SpecOptions {
            optimize: false,
            simd: false,
            ..SpecOptions::new()
        },
    )
    .expect("benchmark specs are well-formed")
}

/// Writes workload `w` for `seed` into `dir` (created if missing):
/// [`SPEC_FILE`], [`DUMP_FILE`], [`HEADER_FILE`] and
/// [`REFERENCE_FILE`]. `len` is the input length ([`Workload::full_len`]
/// for the benchmark; tests pass less). Returns the dump's size in
/// bytes.
///
/// # Errors
///
/// Returns any I/O error from writing the files.
pub fn generate(w: Workload, seed: u64, len: usize, dir: &Path) -> io::Result<u64> {
    fs::create_dir_all(dir)?;
    let (source, reference) = match w {
        Workload::HandshakeSparse => {
            let specs = raw_specs(HANDSHAKE_SPEC);
            let (alphabet, trace) = handshake_trace(&specs, seed, len);
            let reference = single_clock_files(&specs, &alphabet, &trace, dir)?;
            (HANDSHAKE_SPEC.to_owned(), reference)
        }
        Workload::OcpFleet => {
            let source = ocp_fleet_source();
            let specs = raw_specs(&source);
            let trace = ocp_trace(&specs, seed, len);
            let reference = single_clock_files(&specs, specs.alphabet(), &trace, dir)?;
            (source, reference)
        }
        Workload::Fig2Multiclock => {
            let specs = raw_specs(MULTICLOCK_SPEC);
            let (clocks, owners, run) = fig2_run(&specs, seed, len);
            let opts = VcdWriteOptions::default();
            let write = |path: &Path, run: &GlobalRun| -> io::Result<()> {
                let mut out = BufWriter::new(File::create(path)?);
                write_vcd_global_to(&mut out, run, &clocks, specs.alphabet(), &owners, &opts)?;
                out.into_inner()
                    .map_err(io::IntoInnerError::into_error)?
                    .sync_all()
            };
            write(&dir.join(DUMP_FILE), &run)?;
            write(&dir.join(HEADER_FILE), &GlobalRun::new())?;
            let chunks = run.as_slice().chunks(CHUNK).map(<[GlobalStep]>::to_vec);
            (
                MULTICLOCK_SPEC.to_owned(),
                reference(&specs, &clocks, chunks),
            )
        }
    };
    fs::write(dir.join(SPEC_FILE), &source)?;
    let dump_bytes = fs::metadata(dir.join(DUMP_FILE))?.len();
    fs::write(
        dir.join(REFERENCE_FILE),
        format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"jobs\":{},\"bytes\":{dump_bytes},\
             \"verdicts\":{}}}\n",
            w.name(),
            w.jobs(),
            reference.to_json()
        ),
    )?;
    Ok(dump_bytes)
}

/// Writes a single-clock `trace` over `alphabet` as the dump and its
/// header-only copy, and returns the reference verdicts over it.
fn single_clock_files(
    specs: &SpecSet,
    alphabet: &Alphabet,
    trace: &Trace,
    dir: &Path,
) -> io::Result<Verdicts> {
    let opts = VcdWriteOptions::default();
    write_synced(
        &dir.join(DUMP_FILE),
        write_vcd(trace, alphabet, &opts).as_bytes(),
    )?;
    write_synced(
        &dir.join(HEADER_FILE),
        write_vcd(&Trace::new(), alphabet, &opts).as_bytes(),
    )?;
    let mut clocks = ClockSet::new();
    let clk = clocks.add(ClockDomain::new(specs.document().charts[0].clock(), 1, 0));
    let chunks = trace
        .as_slice()
        .chunks(CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(k, &v)| GlobalStep {
                    time: (c * CHUNK + k) as u64,
                    ticks: vec![(clk, v)],
                })
                .collect()
        });
    Ok(reference(specs, &clocks, chunks))
}

/// Writes `bytes` to `path` and syncs them to disk, so write-back of a
/// fresh dump does not overlap the timed checks.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// `ocp_fleet`'s spec: [`OCP_COPIES`] renamed copies of each of the
/// four OCP charts (Fig 6 simple read, Fig 7 burst read, simple write,
/// wait-state read).
fn ocp_fleet_source() -> String {
    let charts = [
        (ocp::SIMPLE_READ_SRC, "ocp_simple_read"),
        (ocp::BURST_READ_SRC, "ocp_burst_read"),
        (ocp::SIMPLE_WRITE_SRC, "ocp_simple_write"),
        (ocp::READ_WAIT_SRC, "ocp_read_wait"),
    ];
    let mut out = format!(
        "// {} single-clock OCP monitors: {OCP_COPIES} renamed copies of four charts.\n",
        charts.len() * OCP_COPIES
    );
    for (src, name) in charts {
        for k in 0..OCP_COPIES {
            out.push_str(&src.replace(
                &format!("scesc {name} on"),
                &format!("scesc {name}_{k:02} on"),
            ));
        }
    }
    out
}

/// Mostly idle traffic: a handshake every 32–96 ticks, plus
/// [`NOISE_SIGNALS`] unnamed signals toggling about once per
/// [`NOISE_PERIOD`] ticks each. A handshake is `req`, then `ack` held
/// for two ticks: `hs_gate` wants an `ack_pulse` starting the tick
/// after `hs` completes.
fn handshake_trace(specs: &SpecSet, seed: u64, len: usize) -> (Alphabet, Trace) {
    let mut alphabet = specs.alphabet().clone();
    let req = alphabet.lookup("req").expect("handshake spec names req");
    let ack = alphabet.lookup("ack").expect("handshake spec names ack");
    let noise: Vec<u128> = (0..NOISE_SIGNALS)
        .map(|i| 1u128 << alphabet.event(&format!("aux{i:02}")).index())
        .collect();
    let mut rng = Rng::new(seed);
    let len = len as u64;
    let mut next_toggle: Vec<u64> = noise
        .iter()
        .map(|_| rng.range(1, 2 * NOISE_PERIOD))
        .collect();
    let mut level = 0u128;
    let mut start = rng.range(32, 96);
    let mut trace = Trace::with_capacity(len as usize);
    for t in 0..len {
        for (bit, next) in noise.iter().zip(&mut next_toggle) {
            if *next == t {
                level ^= bit;
                *next = t + rng.range(1, 2 * NOISE_PERIOD);
            }
        }
        let mut v = Valuation::from_bits(level);
        match t.checked_sub(start) {
            Some(0) => v.insert(req),
            Some(1) => v.insert(ack),
            Some(2) => {
                v.insert(ack);
                start = t + rng.range(30, 94);
                // the dump ends idle: no handshake left half done
                if start + 3 >= len {
                    start = u64::MAX;
                }
            }
            _ => {}
        }
        trace.push(v);
    }
    (alphabet, trace)
}

/// Dense OCP traffic: the four transaction windows in rotation, 1–3
/// idle ticks after each, padded idle to exactly `len` ticks.
fn ocp_trace(specs: &SpecSet, seed: u64, len: usize) -> Trace {
    let ab = specs.alphabet();
    let windows = [
        ocp::simple_read_window(ab),
        ocp::burst_read_window(ab),
        ocp::simple_write_window(ab),
        ocp::read_with_wait_states_window(ab),
    ];
    let mut rng = Rng::new(seed);
    let mut trace = Trace::with_capacity(len);
    for w in windows.iter().cycle() {
        if trace.len() + w.len() + 3 > len {
            break;
        }
        trace.extend(w.iter().copied());
        trace.extend((0..rng.range(1, 3)).map(|_| Valuation::empty()));
    }
    trace.extend((trace.len()..len).map(|_| Valuation::empty()));
    trace
}

/// Compliant Fig 2 read transactions on `clk1` (period 5) and `clk2`
/// (period 2, phase 1) over `blocks` 10-time-unit blocks. A transaction
/// starts on an even `clk1` tick `k` (time `5k`); its `clk2` half runs
/// at times `5k+1, 5k+3, 5k+5`, inside the `clk1` window
/// `5k, 5k+5, 5k+10`, as the cross-domain arrows require.
fn fig2_run(specs: &SpecSet, seed: u64, blocks: usize) -> (ClockSet, Vec<Valuation>, GlobalRun) {
    let doc = specs.document();
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 5, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
    let owners: Vec<Valuation> = ["m1", "m2"]
        .iter()
        .map(|n| doc.chart(n).expect("Fig 2 chart").mentioned_symbols())
        .collect();
    let (w1, w2) = readproto::multi_clock_windows(specs.alphabet());
    let (n1, n2) = (2 * blocks, 5 * blocks);
    let mut t1 = vec![Valuation::empty(); n1];
    let mut t2 = vec![Valuation::empty(); n2];
    let mut rng = Rng::new(seed);
    let mut k = 0usize;
    while k + 3 < n1 && 5 * k / 2 + 3 < n2 {
        let j = 5 * k / 2;
        t1[k..k + 3].copy_from_slice(&w1);
        t2[j..j + 3].copy_from_slice(&w2);
        k += 4 + 2 * rng.range(0, 2) as usize;
    }
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements(t1)),
            (c2, Trace::from_elements(t2)),
        ],
    )
    .expect("per-clock lengths follow the schedule");
    (clocks, owners, run)
}

/// The reference verdicts: every `--all-charts` target of `specs`
/// (loaded raw) run over `chunks` with `MonitorBank::feed_global` and
/// one `ImplicationChecker` per assertion. Each clock's ticks are
/// masked to the symbols its charts mention, as the checked route
/// samples them; detection times are reported in VCD time units.
fn reference(
    specs: &SpecSet,
    clocks: &ClockSet,
    chunks: impl Iterator<Item = Vec<GlobalStep>>,
) -> Verdicts {
    let doc = specs.document();
    let masks: Vec<u128> = clocks
        .iter()
        .map(|(_, d)| {
            doc.charts
                .iter()
                .filter(|c| c.clock() == d.name())
                .fold(0u128, |m, c| m | c.mentioned_symbols().bits())
        })
        .collect();
    let targets = specs.checkable_targets();
    let mut bank = MonitorBank::new();
    let mut checkers: Vec<(ClockId, ImplicationChecker, u64)> = Vec::new();
    for &t in &targets {
        match t {
            TargetRef::Chart(i) => {
                bank.add_compiled(specs.chart_spec(i).expect("compiles").compiled().clone());
            }
            TargetRef::Multi(i) => {
                bank.add_compiled_multiclock(
                    specs.multi_spec(i).expect("compiles").compiled().clone(),
                );
            }
            TargetRef::Assert(i) => {
                let a = specs.assert_spec(i).expect("compiles");
                let clock = clocks.lookup(a.clock()).expect("assert clock is sampled");
                let checker =
                    ImplicationChecker::new(a.antecedent().clone(), a.consequent().clone());
                checkers.push((clock, checker, 0));
            }
        }
    }
    let mut single_logs = vec![MatchLog::new(EDGE, false); bank.len()];
    let mut multi_logs = vec![MatchLog::new(EDGE, false); bank.multiclock_len()];
    let mut out = Verdicts::default();
    let scaled = |hits: &[u64]| hits.iter().map(|t| t * VCD_SCALE).collect::<Vec<_>>();
    for mut chunk in chunks {
        for step in &mut chunk {
            for (c, v) in &mut step.ticks {
                *v = Valuation::from_bits(v.bits() & masks[c.index()]);
            }
            out.ticks += step.ticks.len() as u64;
        }
        out.global_steps += chunk.len() as u64;
        bank.feed_global(clocks, &chunk);
        bank.drain_hits(|slot, hits| single_logs[slot].absorb(&scaled(hits)));
        bank.drain_multiclock_hits(|slot, hits| multi_logs[slot].absorb(&scaled(hits)));
        for (clock, checker, ticks) in &mut checkers {
            for v in chunk.iter().filter_map(|s| s.tick_of(*clock)) {
                checker.step(v);
                *ticks += 1;
            }
            checker.take_violations();
        }
    }
    let reports = bank.reports();
    let (mut single, mut multi, mut assert) = (0, 0, 0);
    for &t in &targets {
        let verdict = match t {
            TargetRef::Chart(_) => {
                single += 1;
                TargetVerdict::Chart {
                    log: Tally::from(&single_logs[single - 1]),
                    ticks: reports[single - 1].ticks,
                    underflows: reports[single - 1].underflows,
                }
            }
            TargetRef::Multi(_) => {
                multi += 1;
                TargetVerdict::Multi {
                    log: Tally::from(&multi_logs[multi - 1]),
                    underflows: bank.multiclock_underflows(multi - 1),
                }
            }
            TargetRef::Assert(_) => {
                assert += 1;
                let (_, c, ticks) = &checkers[assert - 1];
                TargetVerdict::Assert {
                    verdict: c.verdict(),
                    fulfilled: c.fulfilled(),
                    outstanding: c.outstanding() as u64,
                    ticks: *ticks,
                    violation_count: c.violation_count(),
                }
            }
        };
        out.targets.push((specs.target_name(t).to_owned(), verdict));
    }
    out
}
