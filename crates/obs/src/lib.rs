//! # cesc-obs — the workspace's observability layer
//!
//! Monitoring cost is a first-class correctness concern for a runtime
//! verification pipeline: before `cesc serve` or a vectorized engine
//! can claim a speedup, something has to *measure* where the ticks go.
//! This crate is that something — a hand-rolled (no tokio, no
//! `tracing`; std-only, like the rest of the offline workspace)
//! instrumentation substrate with three pieces:
//!
//! * a **metrics registry** ([`Obs`]) of monotonic [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket power-of-two [`Histogram`]s, recorded
//!   through cheap cloneable handles whose hot path is one relaxed
//!   atomic op — and one `None` branch when the registry is disabled,
//!   so instrumented code compiled into release binaries costs nothing
//!   measurable when nobody asked for stats;
//! * **span timing** for the pipeline stages (`parse` → `resolve` →
//!   `compile` → `optimize` → `prove` → `plan` →
//!   `execute`/`cosim`/`fuzz.*`),
//!   recorded manually ([`Obs::time`], [`Obs::span`]) because the
//!   stages are few and the registry should not dictate control flow;
//! * a **[`RunReport`]** snapshot rendered as human text (`--stats`)
//!   or the documented [`OBS_JSON_SCHEMA`] JSON (`--stats-json`), plus
//!   a stderr [`Heartbeat`] (`--progress`) for long streaming runs.
//!
//! The per-shard execution picture ([`ShardStats`]: steps, chunks,
//! busy vs queue-wait nanoseconds, utilization) comes from `cesc-par`'s
//! workers; everything funnels into the one registry so a run has one
//! report.
//!
//! ```
//! use cesc_obs::{key, Obs};
//!
//! let obs = Obs::enabled();
//! let ticks = obs.counter(key::ENGINE_TICKS);
//! ticks.add(128);
//! let sum = obs.time("execute", || (0..4u64).sum::<u64>());
//! assert_eq!(sum, 6);
//! let report = obs.report("demo");
//! assert_eq!(report.counter(key::ENGINE_TICKS), 128);
//! assert!(report.render_json().starts_with("{\"schema\":\"cesc-obs/1\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub mod json;

mod io;
mod progress;
mod report;

pub use io::CountingReader;
pub use progress::{format_progress, Heartbeat};
pub use report::{HistogramSnapshot, RunReport, SpanSnapshot, OBS_JSON_SCHEMA};

/// Canonical metric names, so producers (`cesc-par`, the CLI, the fuzz
/// oracle) and consumers (reports, tests, the progress heartbeat)
/// agree without stringly-typed drift.
pub mod key {
    /// Ticks consumed by monitor engines (summed over fleet members;
    /// a multi-clock member counts its locals' ticks).
    pub const ENGINE_TICKS: &str = "engine.ticks";
    /// The part of [`ENGINE_TICKS`] the compiled engine advanced by its
    /// idle-run scan (a state's action-free self-loop, tested on trace
    /// masks alone) instead of a full step.
    pub const ENGINE_SKIP_TICKS: &str = "engine.skip_ticks";
    /// Full-spec matches detected (summed over fleet members).
    pub const ENGINE_MATCHES: &str = "engine.matches";
    /// `Del_evt` scoreboard underflows (summed over fleet members).
    pub const ENGINE_UNDERFLOWS: &str = "engine.underflows";
    /// No-op: no engine records this counter, so it always reads 0.
    /// It names the word evaluations of a bit-sliced engine that no
    /// longer exists, and stays only because the frozen `checkbench/`
    /// helper still reads it.
    pub const ENGINE_WORDS: &str = "engine.words";
    /// No-op, like [`ENGINE_WORDS`]: always reads 0.
    pub const ENGINE_DENSE_WORDS: &str = "engine.dense_words";
    /// Global steps fed through the streaming check loop.
    pub const FLEET_STEPS: &str = "fleet.steps";
    /// Chunks broadcast to the shard workers.
    pub const FLEET_CHUNKS: &str = "fleet.chunks";
    /// Per-clock ticks carried by the fed global steps.
    pub const FLEET_TICKS: &str = "fleet.ticks";
    /// Nanoseconds the feeding thread spent sending chunks, most of it
    /// blocked on a full shard channel: the engine kept it waiting.
    /// Set beside the shards' summed wait, it says what bound the run
    /// ([`RunReport::bound`](crate::RunReport::bound)).
    pub const FEED_BLOCK_NS: &str = "feed.block_ns";
    /// Gauge: the process's peak resident set in KiB (`VmHWM` of
    /// `/proc/self/status`, see [`peak_rss_kb`](crate::peak_rss_kb)).
    pub const PROCESS_PEAK_RSS_KB: &str = "process.peak_rss_kb";
    /// VCD body blocks the streaming reader decoded.
    pub const DECODE_BLOCKS: &str = "decode.blocks";
    /// Nanoseconds the streaming reader spent decoding the lines of VCD
    /// body blocks into steps.
    pub const DECODE_FOLD_NS: &str = "decode.fold_ns";
    /// Nanoseconds the streaming reader spent reading VCD body blocks
    /// from its input.
    pub const DECODE_READ_NS: &str = "decode.read_ns";
    /// VCD body lines the streaming reader decoded.
    pub const DECODE_LINES: &str = "decode.lines";
    /// VCD body bytes the streaming reader decoded.
    pub const DECODE_BYTES: &str = "decode.bytes";
    /// Cycles driven through the RTL co-simulator.
    pub const COSIM_TICKS: &str = "cosim.ticks";
    /// Matches the RTL co-simulator agreed on.
    pub const COSIM_MATCHES: &str = "cosim.matches";
    /// Ticks where interpreted RTL and engine disagreed.
    pub const COSIM_DIVERGENCES: &str = "cosim.divergences";
    /// Differential fuzz cases executed.
    pub const FUZZ_CASES: &str = "fuzz.cases";
    /// Generated documents the pipeline legitimately rejected.
    pub const FUZZ_REJECTED: &str = "fuzz.rejected";
    /// Oracle discrepancies recorded by the campaign.
    pub const FUZZ_DISCREPANCIES: &str = "fuzz.discrepancies";
    /// Matches observed across agreeing fuzz cases.
    pub const FUZZ_MATCHES: &str = "fuzz.matches";
    /// Lint findings reported.
    pub const LINT_FINDINGS: &str = "lint.findings";
    /// Lint findings gating `--deny`.
    pub const LINT_DENIED: &str = "lint.denied";
    /// `implies(...)` asserts the static prover examined.
    pub const PROVE_ASSERTS: &str = "prove.asserts";
    /// Asserts proved (vacuously or not).
    pub const PROVE_PROVED: &str = "prove.proved";
    /// Asserts refuted with an engine-confirmed counterexample.
    pub const PROVE_REFUTED: &str = "prove.refuted";
    /// Product states explored across all proof searches.
    pub const PROVE_PRODUCT_STATES: &str = "prove.product_states";
    /// Guard-SAT queries issued by the prover (cache hits included).
    pub const PROVE_SAT_QUERIES: &str = "prove.sat_queries";
}

/// The process's peak resident set in KiB, read from the `VmHWM` line
/// of `/proc/self/status`; `None` where that file is unreadable (not
/// Linux) or lacks the line.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kb(&status)
}

/// The `VmHWM:  3904 kB` value of a `/proc/<pid>/status` text.
fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Histogram buckets: values bucketed by bit length (`⌊log2⌋ + 1`),
/// bucket 0 holding zero, bucket 64 holding the top half of the `u64`
/// range — fixed so recording is a shift, never an allocation.
pub const HISTOGRAM_BUCKETS: usize = 65;

struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Inclusive upper bound of histogram bucket `i` (`2^i - 1`; the last
/// bucket absorbs everything up to `u64::MAX`).
pub fn bucket_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// One accumulated pipeline-stage timing.
#[derive(Debug, Clone)]
struct SpanStat {
    name: String,
    calls: u64,
    total_ns: u64,
}

/// Final execution accounting of one `cesc-par` shard worker: what it
/// ran, how much it consumed, and how its wall time split between
/// doing work (`busy_ns`) and waiting on the feed channel (`wait_ns`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Shard index within the plan.
    pub shard: usize,
    /// Fleet members the shard owned.
    pub members: usize,
    /// Global steps / valuations consumed.
    pub steps: u64,
    /// Chunks received over the feed channel.
    pub chunks: u64,
    /// Nanoseconds spent executing chunks.
    pub busy_ns: u64,
    /// Nanoseconds spent blocked on the feed channel — high wait on
    /// one shard with high busy on another is the planner-imbalance
    /// signal.
    pub wait_ns: u64,
}

impl ShardStats {
    /// Fraction of the worker's accounted time spent executing
    /// (`busy / (busy + wait)`); `0.0` for a worker that never ran.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// Everything one run records, behind one mutex that only non-hot-path
/// operations (handle registration, span recording, snapshots) take.
#[derive(Default)]
struct Registry {
    counters: Vec<(String, Arc<AtomicU64>)>,
    gauges: Vec<(String, Arc<AtomicU64>)>,
    histograms: Vec<(String, Arc<HistogramCells>)>,
    spans: Vec<SpanStat>,
    shards: Vec<ShardStats>,
}

struct Inner {
    started: Instant,
    registry: Mutex<Registry>,
}

/// The observability handle: a cheaply cloneable reference to one
/// run's registry, or — the [`Obs::disabled`] default — nothing at
/// all, in which case every recording operation is a `None` branch.
///
/// Instrumented code holds `Obs` (or pre-registered [`Counter`] /
/// [`Gauge`] / [`Histogram`] handles) unconditionally; whether a run
/// is observed is decided once, where the run starts.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.is_enabled()).finish()
    }
}

impl Obs {
    /// A live registry recording from now.
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                started: Instant::now(),
                registry: Mutex::new(Registry::default()),
            })),
        }
    }

    /// The no-op handle (also [`Obs::default`]): every recording
    /// operation returns immediately.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This handle if it records, otherwise a fresh enabled registry —
    /// for paths (like `cesc check --json`) that always want timings
    /// even when the caller brought no registry of their own.
    pub fn or_enabled(&self) -> Obs {
        if self.is_enabled() {
            self.clone()
        } else {
            Obs::enabled()
        }
    }

    /// Wall time since the registry was created (zero when disabled).
    pub fn elapsed(&self) -> Duration {
        self.inner.as_ref().map_or(Duration::ZERO, |i| i.started.elapsed())
    }

    fn with_registry<T>(&self, f: impl FnOnce(&mut Registry) -> T) -> Option<T> {
        let inner = self.inner.as_ref()?;
        Some(f(&mut inner.registry.lock().expect("obs registry poisoned")))
    }

    /// The counter handle named `name`, registering it on first use.
    /// Disabled registries hand back a no-op handle.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.with_registry(|r| {
            match r.counters.iter().find(|(n, _)| n == name) {
                Some((_, c)) => Arc::clone(c),
                None => {
                    let c = Arc::new(AtomicU64::new(0));
                    r.counters.push((name.to_owned(), Arc::clone(&c)));
                    c
                }
            }
        }))
    }

    /// The gauge handle named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.with_registry(|r| {
            match r.gauges.iter().find(|(n, _)| n == name) {
                Some((_, g)) => Arc::clone(g),
                None => {
                    let g = Arc::new(AtomicU64::new(0));
                    r.gauges.push((name.to_owned(), Arc::clone(&g)));
                    g
                }
            }
        }))
    }

    /// The histogram handle named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.with_registry(|r| {
            match r.histograms.iter().find(|(n, _)| n == name) {
                Some((_, h)) => Arc::clone(h),
                None => {
                    let h = Arc::new(HistogramCells::new());
                    r.histograms.push((name.to_owned(), Arc::clone(&h)));
                    h
                }
            }
        }))
    }

    /// Accumulates `dur` into the pipeline span `name` (insertion
    /// order is report order).
    pub fn record_span(&self, name: &str, dur: Duration) {
        self.with_registry(|r| {
            let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
            match r.spans.iter_mut().find(|s| s.name == name) {
                Some(s) => {
                    s.calls += 1;
                    s.total_ns = s.total_ns.saturating_add(ns);
                }
                None => r.spans.push(SpanStat {
                    name: name.to_owned(),
                    calls: 1,
                    total_ns: ns,
                }),
            }
        });
    }

    /// Runs `f` under the span `name`, recording its duration.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if self.is_enabled() {
            let t0 = Instant::now();
            let out = f();
            self.record_span(name, t0.elapsed());
            out
        } else {
            f()
        }
    }

    /// A drop-guard timer for the span `name` — for stages that span a
    /// scope rather than a closure.
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer {
            obs: self.clone(),
            name: name.to_owned(),
            start: self.is_enabled().then(Instant::now),
        }
    }

    /// Records one shard worker's final accounting.
    pub fn record_shard(&self, stats: ShardStats) {
        self.with_registry(|r| r.shards.push(stats));
    }

    /// Snapshots everything recorded so far into a renderable
    /// [`RunReport`] (the registry keeps recording; disabled handles
    /// snapshot an empty report with zero wall time).
    pub fn report(&self, command: &str) -> RunReport {
        let wall_ns = u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut out = RunReport {
            command: command.to_owned(),
            wall_ns,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
            shards: Vec::new(),
        };
        self.with_registry(|r| {
            out.counters = r
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
                .collect();
            out.gauges = r
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.load(Ordering::Relaxed)))
                .collect();
            out.histograms = r
                .histograms
                .iter()
                .map(|(n, h)| {
                    let buckets: Vec<(u64, u64)> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            let count = b.load(Ordering::Relaxed);
                            (count > 0).then_some((bucket_bound(i), count))
                        })
                        .collect();
                    HistogramSnapshot {
                        name: n.clone(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets,
                    }
                })
                .collect();
            out.spans = r
                .spans
                .iter()
                .map(|s| SpanSnapshot {
                    name: s.name.clone(),
                    calls: s.calls,
                    total_ns: s.total_ns,
                })
                .collect();
            out.shards = r.shards.clone();
            out.shards.sort_by_key(|s| s.shard);
        });
        out
    }
}

/// A monotonic counter handle. Cloneable, sendable, and a no-op when
/// it came from a disabled registry — hold it unconditionally on the
/// hot path.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (zero for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last/max-value gauge handle.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if higher.
    #[inline]
    pub fn max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (zero for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle (power-of-two buckets — see
/// [`bucket_bound`]).
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCells>>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count = self.0.as_ref().map_or(0, |h| h.count.load(Ordering::Relaxed));
        f.debug_tuple("Histogram").field(&count).finish()
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// Drop-guard returned by [`Obs::span`]: records the elapsed time into
/// its span when dropped.
#[derive(Debug)]
pub struct SpanTimer {
    obs: Obs,
    name: String,
    start: Option<Instant>,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.obs.record_span(&self.name, t0.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let obs = Obs::enabled();
        let a = obs.counter("x");
        let b = obs.counter("x");
        a.add(3);
        b.incr();
        assert_eq!(obs.counter("x").get(), 4);
        assert_eq!(obs.counter("y").get(), 0);
        let report = obs.report("t");
        assert_eq!(report.counter("x"), 4);
    }

    #[test]
    fn gauges_store_and_max() {
        let obs = Obs::enabled();
        let g = obs.gauge("depth");
        g.set(7);
        g.max(3); // lower: no change
        assert_eq!(g.get(), 7);
        g.max(12);
        assert_eq!(obs.gauge("depth").get(), 12);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let obs = Obs::enabled();
        let h = obs.histogram("chunk");
        h.record(0);
        h.record(1);
        h.record(1023);
        h.record(1024);
        h.record(u64::MAX);
        let report = obs.report("t");
        let snap = &report.histograms[0];
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 0u64.wrapping_add(1 + 1023 + 1024).wrapping_add(u64::MAX));
        // buckets: 0 → le 0; 1 → le 1; 1023 → le 1023; 1024 → le 2047;
        // u64::MAX → the terminal bucket
        let les: Vec<u64> = snap.buckets.iter().map(|&(le, _)| le).collect();
        assert_eq!(les, vec![0, 1, 1023, 2047, u64::MAX]);
        assert!(snap.buckets.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn bucket_bounds_are_monotonic() {
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1), "bucket {i}");
        }
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn spans_keep_insertion_order_and_accumulate() {
        let obs = Obs::enabled();
        obs.record_span("parse", Duration::from_micros(10));
        obs.record_span("execute", Duration::from_micros(30));
        obs.record_span("parse", Duration::from_micros(5));
        let spans = obs.report("t").spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "parse");
        assert_eq!(spans[0].calls, 2);
        assert_eq!(spans[0].total_ns, 15_000);
        assert_eq!(spans[1].name, "execute");
    }

    #[test]
    fn time_and_span_guard_record() {
        let obs = Obs::enabled();
        let v = obs.time("compile", || 41 + 1);
        assert_eq!(v, 42);
        {
            let _guard = obs.span("execute");
        }
        let spans = obs.report("t").spans;
        assert_eq!(spans.iter().filter(|s| s.calls == 1).count(), 2);
    }

    #[test]
    fn shard_stats_utilization() {
        let s = ShardStats {
            shard: 0,
            members: 2,
            steps: 100,
            chunks: 4,
            busy_ns: 750,
            wait_ns: 250,
        };
        assert!((s.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(ShardStats::default().utilization(), 0.0);
    }

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\tcesc\nVmPeak:\t   10000 kB\nVmHWM:\t    3904 kB\nVmRSS:\t 3000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(3904));
        assert_eq!(vm_hwm_kb("Name:\tcesc\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb().is_some_and(|kb| kb > 0));
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let c = obs.counter(key::ENGINE_TICKS);
        c.add(1000);
        assert_eq!(c.get(), 0);
        obs.gauge("g").set(5);
        obs.histogram("h").record(9);
        obs.record_span("parse", Duration::from_secs(1));
        obs.record_shard(ShardStats::default());
        assert_eq!(obs.time("execute", || 7), 7);
        let report = obs.report("noop");
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
        assert!(report.histograms.is_empty());
        assert!(report.spans.is_empty());
        assert!(report.shards.is_empty());
        assert_eq!(report.wall_ns, 0);
    }

    #[test]
    fn or_enabled_upgrades_only_disabled_handles() {
        let live = Obs::enabled();
        live.counter("x").incr();
        let same = live.or_enabled();
        assert_eq!(same.counter("x").get(), 1, "same registry");
        let fresh = Obs::disabled().or_enabled();
        assert!(fresh.is_enabled());
        assert_eq!(fresh.counter("x").get(), 0, "fresh registry");
    }

    #[test]
    fn handles_cross_threads() {
        let obs = Obs::enabled();
        let c = obs.counter("t");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
