//! The monitor fleet and its sharded executor.
//!
//! A [`Fleet`] is the compiled verification plan: single-clock
//! monitors, multi-clock monitors and `implies(...)` assertion
//! checkers. [`run_sharded`] executes it across worker threads:
//!
//! ```text
//!                        ┌────────────────────┐
//!   VCD / simulation ──▶ │ FleetFeeder        │  one bounded channel
//!   (decoded chunks)     │ (one copy into a   │  per shard; the copy
//!                        │  recycled Arc)     │  is shared by them all
//!                        └───┬────┬────┬──────┘
//!                            ▼    ▼    ▼
//!                        shard0 shard1 shard2   each: own MonitorBank
//!                            │    │    │        + assert checkers, no
//!                            ▼    ▼    ▼        cross-shard state
//!                        ┌────────────────────┐
//!                        │ merge (at join)    │ → FleetReport
//!                        └────────────────────┘
//! ```
//!
//! Every shard owns its monitors' complete mutable state (control
//! states, scoreboards, tallies), so the hot path takes **no lock and
//! shares no cache line** with other shards; the only synchronisation
//! is the bounded channel hand-off of reference-counted chunks, and the
//! per-shard results merge once, at join time. The feeder copies each
//! borrowed chunk once, into a chunk buffer it recycles once every
//! shard has dropped it, so a steady-state broadcast allocates nothing
//! on any thread. Verdicts are
//! bit-identical to a serial [`MonitorBank`] run over the same chunks
//! (pinned by the workspace `batch_equivalence` property suite).
//!
//! **Single-shard plans skip all of it.** With `--jobs 1` or a
//! one-shard plan there is nobody to overlap with, so the broadcast
//! machinery — chunk copy, `Arc`, channel hop, worker thread — would
//! be pure overhead (measured at ~15% on chunked streams). The feeder
//! instead runs the one worker *inline on the caller thread*
//! ([`FeedMode::Direct`]): `feed_global` borrows the chunk straight
//! into the bank, no allocation, no thread, identical results.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use cesc_core::{
    CompiledMonitor, CompiledMultiClock, ImplicationChecker, Monitor, MonitorBank,
    MultiClockMonitor, Verdict, Violation,
};
use cesc_obs::{key, Counter, Histogram, Obs, ShardStats};
use cesc_trace::{ClockId, ClockSet, GlobalStep};
use crossbeam::channel;

use crate::plan::{FleetItem, ShardPlan};
use crate::tally::MatchLog;

/// An `implies(antecedent, consequent)` assertion attached to a fleet:
/// the two synthesized monitors plus the clock domain whose ticks
/// drive the checker.
#[derive(Debug, Clone)]
pub struct AssertSpec {
    pub(crate) name: String,
    pub(crate) clock: String,
    pub(crate) antecedent: Monitor,
    pub(crate) consequent: Monitor,
}

impl AssertSpec {
    /// Assembles an assertion item. `clock` names the domain whose
    /// ticks the checker consumes.
    pub fn new(name: &str, clock: &str, antecedent: Monitor, consequent: Monitor) -> Self {
        AssertSpec {
            name: name.to_owned(),
            clock: clock.to_owned(),
            antecedent,
            consequent,
        }
    }

    /// The assertion's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The clock domain driving the checker.
    pub fn clock(&self) -> &str {
        &self.clock
    }
}

/// A compiled monitor fleet — the unit the shard planner partitions
/// and [`run_sharded`] executes.
///
/// Indices are per kind and stable: the `usize` returned by each
/// `add_*` addresses the matching slot of the final [`FleetReport`].
#[derive(Debug, Default)]
pub struct Fleet {
    pub(crate) singles: Vec<CompiledMonitor>,
    pub(crate) multis: Vec<CompiledMultiClock>,
    pub(crate) asserts: Vec<AssertSpec>,
}

impl Fleet {
    /// Creates an empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles and adds a single-clock monitor; returns its index.
    pub fn add(&mut self, monitor: &Monitor) -> usize {
        self.add_compiled(monitor.compiled())
    }

    /// Adds an already-compiled single-clock monitor; returns its
    /// index.
    pub fn add_compiled(&mut self, compiled: CompiledMonitor) -> usize {
        self.singles.push(compiled);
        self.singles.len() - 1
    }

    /// Compiles and adds a multi-clock monitor; returns its index (a
    /// slot space separate from single-clock indices).
    pub fn add_multiclock(&mut self, monitor: &MultiClockMonitor) -> usize {
        self.add_compiled_multiclock(monitor.compiled())
    }

    /// Adds an already-compiled multi-clock monitor; returns its
    /// index.
    pub fn add_compiled_multiclock(&mut self, compiled: CompiledMultiClock) -> usize {
        self.multis.push(compiled);
        self.multis.len() - 1
    }

    /// Adds an assertion checker; returns its index (its own slot
    /// space).
    pub fn add_assert(&mut self, assert: AssertSpec) -> usize {
        self.asserts.push(assert);
        self.asserts.len() - 1
    }

    /// Number of single-clock monitors.
    pub fn single_len(&self) -> usize {
        self.singles.len()
    }

    /// Number of multi-clock monitors.
    pub fn multiclock_len(&self) -> usize {
        self.multis.len()
    }

    /// Number of assertion checkers.
    pub fn assert_len(&self) -> usize {
        self.asserts.len()
    }

    /// Total number of fleet members of all kinds.
    pub fn len(&self) -> usize {
        self.singles.len() + self.multis.len() + self.asserts.len()
    }

    /// Whether the fleet has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-flight chunks buffered per shard channel. Bounds the producer's
/// lead over the slowest shard, and with it the executor's peak chunk
/// residency.
pub const CHANNEL_DEPTH: usize = 8;

/// Execution knobs for [`run_sharded`].
#[derive(Debug, Clone)]
pub struct ParOptions {
    /// Retain every hit time in the [`MatchLog`]s (exact but
    /// unbounded — what the equivalence suite and the `cesc-sim`
    /// harnesses want). `false` keeps the logs bounded to
    /// [`ParOptions::edge`] head/tail entries plus the count — the CLI
    /// summary mode.
    pub keep_all_hits: bool,
    /// Head/tail entries each [`MatchLog`] retains.
    pub edge: usize,
    /// Observability registry. When enabled, [`run_sharded`] records
    /// per-shard execution stats (steps, chunks, busy vs queue-wait
    /// time), per-member execution time, the fed-chunk size histogram
    /// and the merged semantic counters (`engine.ticks`,
    /// `engine.skip_ticks`, `engine.matches`, `engine.underflows`).
    /// Disabled (the default) the hot path stays timer-free.
    pub obs: Obs,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions {
            keep_all_hits: true,
            edge: 5,
            obs: Obs::disabled(),
        }
    }
}

/// Final state of one single-clock fleet member.
#[derive(Debug, Clone)]
pub struct SingleReport {
    /// Detection times: the global times of the steps the monitor
    /// detected on.
    pub log: MatchLog,
    /// Ticks the monitor consumed.
    pub ticks: u64,
    /// `Del_evt` scoreboard underflows.
    pub underflows: u64,
    /// Execution nanoseconds this member consumed on its shard (zero
    /// unless [`ParOptions::obs`] was enabled).
    pub exec_ns: u64,
}

/// Final state of one multi-clock fleet member.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Global times of full-spec matches.
    pub log: MatchLog,
    /// Local ticks the member consumed, summed over its locals.
    pub ticks: u64,
    /// Shared-scoreboard `Del_evt` underflows.
    pub underflows: u64,
    /// Execution nanoseconds this member consumed on its shard (zero
    /// unless [`ParOptions::obs`] was enabled).
    pub exec_ns: u64,
}

/// How many violation records each assert member retains
/// ([`AssertReport::violations`]); the exact total is always in
/// [`AssertReport::violation_count`]. Keeps a non-compliant bulk trace
/// (one violation per tick, potentially) from growing shard residency
/// with trace length.
pub const ASSERT_VIOLATION_KEEP: usize = 100;

/// Final state of one assertion checker.
#[derive(Debug, Clone)]
pub struct AssertReport {
    /// The assertion's name (copied from its [`AssertSpec`]).
    pub name: String,
    /// The closing verdict.
    pub verdict: Verdict,
    /// Obligations fulfilled.
    pub fulfilled: u64,
    /// Obligations still open when the stream closed.
    pub outstanding: usize,
    /// The earliest violations, up to [`ASSERT_VIOLATION_KEEP`].
    pub violations: Vec<Violation>,
    /// Total violations recorded (may exceed `violations.len()`).
    pub violation_count: u64,
    /// Ticks the checker consumed.
    pub ticks: u64,
    /// Execution nanoseconds this checker consumed on its shard (zero
    /// unless [`ParOptions::obs`] was enabled).
    pub exec_ns: u64,
}

/// Merged per-member results of a sharded run, indexed exactly as the
/// members were added to the [`Fleet`].
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// One report per single-clock monitor.
    pub singles: Vec<SingleReport>,
    /// One report per multi-clock monitor.
    pub multis: Vec<MultiReport>,
    /// One report per assertion checker.
    pub asserts: Vec<AssertReport>,
    /// Member-ticks the monitor engine advanced by its idle-run scan
    /// instead of a full step, summed over the fleet (each is also
    /// counted in its member's ticks).
    pub skip_ticks: u64,
}

impl FleetReport {
    /// Whether any assertion checker finished with
    /// [`Verdict::Failed`].
    pub fn any_failed(&self) -> bool {
        self.asserts.iter().any(|a| a.verdict == Verdict::Failed)
    }
}

/// One broadcast unit: a reference-counted decoded chunk. Cloning per
/// shard copies the `Arc`, not the steps.
type Chunk = Arc<Vec<GlobalStep>>;

/// The chunk buffers a broadcast feeder hands out, reused in turn.
///
/// The pool keeps one reference to each buffer, so a buffer every
/// shard has dropped is unique again and is refilled in place. A shard
/// drops each chunk before it receives the next, and a send to a full
/// channel waits, so once the feeder has sent chunk `k - 1` every shard
/// has dropped chunk `k - CHANNEL_DEPTH - 2`: a ring of
/// `CHANNEL_DEPTH + 2` buffers, taken in turn, always finds its next
/// buffer free.
struct ChunkPool {
    ring: RefCell<Vec<Chunk>>,
    next: Cell<usize>,
}

impl ChunkPool {
    fn new() -> Self {
        ChunkPool {
            ring: RefCell::new((0..CHANNEL_DEPTH + 2).map(|_| Arc::new(Vec::new())).collect()),
            next: Cell::new(0),
        }
    }

    /// The next buffer in turn, filled with a copy of `src`.
    fn next(&self, src: &[GlobalStep]) -> Chunk {
        let mut ring = self.ring.borrow_mut();
        let i = self.next.get();
        self.next.set((i + 1) % ring.len());
        let slot = &mut ring[i];
        if Arc::get_mut(slot).is_none() {
            // unreachable by the argument above; stay correct anyway
            *slot = Arc::new(Vec::new());
        }
        copy_steps(Arc::get_mut(slot).expect("a fresh or released buffer is unique"), src);
        Arc::clone(slot)
    }
}

/// Copies `src` into `dst`, reusing the tick vectors of the steps
/// `dst` already holds.
fn copy_steps(dst: &mut Vec<GlobalStep>, src: &[GlobalStep]) {
    dst.truncate(src.len());
    let reused = dst.len();
    for (d, s) in dst.iter_mut().zip(src) {
        d.time = s.time;
        d.ticks.clone_from(&s.ticks);
    }
    dst.extend_from_slice(&src[reused..]);
}

/// The multi-shard feed: one bounded channel per shard, and the
/// recycled chunk buffers broadcast over them.
struct Broadcast {
    txs: Vec<channel::Sender<Chunk>>,
    pool: ChunkPool,
}

/// How chunks reach the shard worker(s) — see the module docs.
enum FeedMode {
    /// Multi-shard: reference-counted chunks over one bounded channel
    /// per shard.
    Broadcast(Broadcast),
    /// Single-shard fast path: the one worker runs inline on the
    /// caller thread — chunks are borrowed, never copied, and there is
    /// no channel hop. `wait_ns` of the recorded [`ShardStats`] stays
    /// zero (there is no queue to wait on).
    Direct(Box<RefCell<DirectWorker>>),
}

impl std::fmt::Debug for FeedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedMode::Broadcast(b) => write!(f, "Broadcast({} shard(s))", b.txs.len()),
            FeedMode::Direct(_) => write!(f, "Direct"),
        }
    }
}

/// The inline worker of a [`FeedMode::Direct`] run, plus its stats
/// accumulator when the run is observed.
struct DirectWorker {
    worker: ShardWorker,
    stats: Option<ShardStats>,
}

/// The producer half of a sharded run: hands decoded chunks to the
/// shard worker(s) — broadcast over channels for multi-shard plans,
/// inline for single-shard ones. Handed to `drive` by [`run_sharded`].
#[derive(Debug)]
pub struct FleetFeeder {
    mode: FeedMode,
    /// Live-updated feed metrics (`fleet.steps` / `fleet.chunks` /
    /// the `chunk.steps` histogram) — no-ops when the run's registry
    /// is disabled. The steps counter updates as chunks are fed,
    /// which is what the `--progress` heartbeat watches.
    steps: Counter,
    chunks: Counter,
    chunk_sizes: Histogram,
}

impl FleetFeeder {
    /// Feeds one chunk of global steps (the sharded form of
    /// [`MonitorBank::feed_global`]); requires the run to have been
    /// started with a clock set.
    pub fn feed_global(&self, chunk: &[GlobalStep]) {
        if chunk.is_empty() {
            return;
        }
        self.steps.add(chunk.len() as u64);
        self.chunks.incr();
        self.chunk_sizes.record(chunk.len() as u64);
        match &self.mode {
            FeedMode::Direct(cell) => {
                let dw = &mut *cell.borrow_mut();
                match &mut dw.stats {
                    Some(stats) => {
                        let ran = Instant::now();
                        dw.worker.consume(chunk);
                        stats.busy_ns += ran.elapsed().as_nanos() as u64;
                        stats.chunks += 1;
                        stats.steps += chunk.len() as u64;
                    }
                    None => dw.worker.consume(chunk),
                }
            }
            FeedMode::Broadcast(b) => {
                let copy = b.pool.next(chunk);
                for tx in &b.txs {
                    tx.send(Arc::clone(&copy)).expect("shard worker alive");
                }
            }
        }
    }
}

/// Per-shard runtime: the shard's own bank plus assertion checkers,
/// built once per worker from the fleet's compiled artifacts.
struct ShardWorker {
    bank: MonitorBank,
    /// Bank single-clock slot → fleet single index.
    single_map: Vec<usize>,
    /// Bank multi-clock slot → fleet multi index.
    multi_map: Vec<usize>,
    single_logs: Vec<MatchLog>,
    multi_logs: Vec<MatchLog>,
    asserts: Vec<AssertRunner>,
    /// The run's clock set; `None` only for a run that feeds nothing.
    clocks: Option<ClockSet>,
    /// Per-member execution timing (mirrors `bank.set_member_timing`
    /// for the assert runners). On only when the run is observed.
    timing: bool,
}

struct AssertRunner {
    fleet_idx: usize,
    name: String,
    /// The assert's clock in the run's clock set; `None` when the set
    /// lacks it, and the checker then sees no ticks — mirroring
    /// `MonitorBank::feed_global`'s treatment of unresolvable
    /// single-clock members.
    clock_id: Option<ClockId>,
    checker: ImplicationChecker,
    /// The earliest [`ASSERT_VIOLATION_KEEP`] violations, drained out
    /// of the checker chunk by chunk so its log stays empty.
    kept_violations: Vec<Violation>,
    ticks: u64,
    exec_ns: u64,
}

impl AssertRunner {
    /// Folds this chunk's violation records into the bounded sample.
    fn drain_violations(&mut self) {
        if self.checker.violations().is_empty() {
            return;
        }
        for v in self.checker.take_violations() {
            if self.kept_violations.len() < ASSERT_VIOLATION_KEEP {
                self.kept_violations.push(v);
            }
        }
    }
}

struct ShardResult {
    singles: Vec<(usize, SingleReport)>,
    multis: Vec<(usize, MultiReport)>,
    asserts: Vec<(usize, AssertReport)>,
    skip_ticks: u64,
}

impl ShardWorker {
    fn build(fleet: &Fleet, items: &[FleetItem], clocks: Option<&ClockSet>, opts: &ParOptions) -> Self {
        let mut w = ShardWorker {
            bank: MonitorBank::new(),
            single_map: Vec::new(),
            multi_map: Vec::new(),
            single_logs: Vec::new(),
            multi_logs: Vec::new(),
            asserts: Vec::new(),
            clocks: clocks.cloned(),
            timing: opts.obs.is_enabled(),
        };
        w.bank.set_member_timing(w.timing);
        for item in items {
            match *item {
                FleetItem::Single(i) => {
                    w.bank.add_compiled(fleet.singles[i].clone());
                    w.single_map.push(i);
                    w.single_logs.push(MatchLog::new(opts.edge, opts.keep_all_hits));
                }
                FleetItem::Multi(i) => {
                    w.bank.add_compiled_multiclock(fleet.multis[i].clone());
                    w.multi_map.push(i);
                    w.multi_logs.push(MatchLog::new(opts.edge, opts.keep_all_hits));
                }
                FleetItem::Assert(i) => {
                    let spec = &fleet.asserts[i];
                    w.asserts.push(AssertRunner {
                        fleet_idx: i,
                        name: spec.name.clone(),
                        clock_id: clocks.and_then(|c| c.lookup(&spec.clock)),
                        checker: ImplicationChecker::new(
                            spec.antecedent.clone(),
                            spec.consequent.clone(),
                        ),
                        kept_violations: Vec::new(),
                        ticks: 0,
                        exec_ns: 0,
                    });
                }
            }
        }
        w
    }

    fn consume(&mut self, chunk: &[GlobalStep]) {
        let clocks = self
            .clocks
            .as_ref()
            .expect("feed_global requires run_sharded to be given a ClockSet");
        self.bank.feed_global(clocks, chunk);
        for a in &mut self.asserts {
            let Some(id) = a.clock_id else { continue };
            let started = self.timing.then(Instant::now);
            for step in chunk {
                if let Some(v) = step.tick_of(id) {
                    a.checker.step(v);
                    a.ticks += 1;
                }
            }
            a.drain_violations();
            if let Some(t0) = started {
                a.exec_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        self.drain_logs();
    }

    /// Folds this chunk's hits into the bounded tallies so shard
    /// residency never grows with the match count.
    fn drain_logs(&mut self) {
        let logs = &mut self.single_logs;
        self.bank.drain_hits(|slot, hits| logs[slot].absorb(hits));
        let logs = &mut self.multi_logs;
        self.bank.drain_multiclock_hits(|slot, hits| logs[slot].absorb(hits));
    }

    fn finish(mut self) -> ShardResult {
        let bank_reports = self.bank.reports();
        let singles = self
            .single_map
            .iter()
            .zip(self.single_logs)
            .zip(bank_reports)
            .enumerate()
            .map(|(slot, ((&fleet_idx, log), report))| {
                (
                    fleet_idx,
                    SingleReport {
                        log,
                        ticks: report.ticks,
                        underflows: report.underflows,
                        exec_ns: self.bank.member_exec_ns(slot),
                    },
                )
            })
            .collect();
        let multis = self
            .multi_map
            .iter()
            .zip(self.multi_logs)
            .enumerate()
            .map(|(slot, (&fleet_idx, log))| {
                (
                    fleet_idx,
                    MultiReport {
                        log,
                        ticks: self.bank.multiclock_ticks(slot),
                        underflows: self.bank.multiclock_underflows(slot),
                        exec_ns: self.bank.multiclock_exec_ns(slot),
                    },
                )
            })
            .collect();
        let asserts = self
            .asserts
            .drain(..)
            .map(|mut a| {
                a.drain_violations();
                (
                    a.fleet_idx,
                    AssertReport {
                        name: a.name,
                        verdict: a.checker.verdict(),
                        fulfilled: a.checker.fulfilled(),
                        outstanding: a.checker.outstanding(),
                        violation_count: a.checker.violation_count(),
                        violations: a.kept_violations,
                        ticks: a.ticks,
                        exec_ns: a.exec_ns,
                    },
                )
            })
            .collect();
        ShardResult {
            singles,
            multis,
            asserts,
            skip_ticks: self.bank.skip_ticks(),
        }
    }
}

/// Runs `fleet` sharded per `plan`: one worker thread per shard, each
/// owning its members' complete mutable state, fed by `drive` through
/// a [`FleetFeeder`] over bounded channels.
///
/// `clocks` resolves every member's clock against the fed steps'
/// [`ClockId`]s; `None` only suits a `drive` that feeds nothing
/// ([`FleetFeeder::feed_global`] panics without a clock set). Returns
/// the merged [`FleetReport`] plus `drive`'s own result once every
/// shard has drained.
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, SynthOptions};
/// use cesc_expr::Valuation;
/// use cesc_par::{plan_shards, run_sharded, Fleet, ParOptions};
/// use cesc_trace::{ClockSet, GlobalRun, Trace};
///
/// let doc = parse_document(
///     "scesc a on clk { instances { M } events { x, y } tick { M: x } }\
///      scesc b on clk { instances { M } events { x, y } tick { M: x } tick { M: y } }",
/// ).unwrap();
/// let mut fleet = Fleet::new();
/// for chart in &doc.charts {
///     fleet.add(&synthesize(chart, &SynthOptions::default()).unwrap());
/// }
/// let plan = plan_shards(&fleet, 2);
/// let x = doc.alphabet.lookup("x").unwrap();
/// let y = doc.alphabet.lookup("y").unwrap();
///
/// // both charts run `on clk`: one domain, period 1, so times are
/// // tick indices
/// let (clocks, clk) = ClockSet::single();
/// let trace = Trace::from_elements([Valuation::of([x]), Valuation::of([y])]);
/// let run = GlobalRun::interleave(&clocks, &[(clk, trace)]).unwrap();
///
/// let (report, ()) = run_sharded(&fleet, &plan, Some(&clocks), &ParOptions::default(), |feeder| {
///     feeder.feed_global(run.as_slice());
/// });
/// assert_eq!(report.singles[0].log.all(), Some(&[0][..])); // `a` fires on x
/// assert_eq!(report.singles[1].log.all(), Some(&[1][..])); // `b` fires on x→y
/// ```
pub fn run_sharded<R>(
    fleet: &Fleet,
    plan: &ShardPlan,
    clocks: Option<&ClockSet>,
    opts: &ParOptions,
    drive: impl FnOnce(&FleetFeeder) -> R,
) -> (FleetReport, R) {
    let (report, driven) = if plan.shards().len() <= 1 {
        run_direct(fleet, plan, clocks, opts, drive)
    } else {
        run_broadcast(fleet, plan, clocks, opts, drive)
    };
    record_semantics(&opts.obs, &report);
    (report, driven)
}

/// The single-shard fast path: no threads, no channels, no chunk
/// copies — the one worker consumes borrowed chunks inline on the
/// caller thread. Results and stats match the broadcast path except
/// that `wait_ns` is structurally zero.
fn run_direct<R>(
    fleet: &Fleet,
    plan: &ShardPlan,
    clocks: Option<&ClockSet>,
    opts: &ParOptions,
    drive: impl FnOnce(&FleetFeeder) -> R,
) -> (FleetReport, R) {
    let items: &[FleetItem] = plan.shards().first().map_or(&[], Vec::as_slice);
    let feeder = FleetFeeder {
        mode: FeedMode::Direct(Box::new(RefCell::new(DirectWorker {
            worker: ShardWorker::build(fleet, items, clocks, opts),
            stats: opts.obs.is_enabled().then(|| ShardStats {
                shard: 0,
                members: items.len(),
                ..ShardStats::default()
            }),
        }))),
        steps: opts.obs.counter(key::FLEET_STEPS),
        chunks: opts.obs.counter(key::FLEET_CHUNKS),
        chunk_sizes: opts.obs.histogram("chunk.steps"),
    };
    let driven = drive(&feeder);
    let FeedMode::Direct(cell) = feeder.mode else {
        unreachable!("run_direct builds a direct feeder")
    };
    let dw = cell.into_inner();
    if let Some(stats) = dw.stats {
        opts.obs.record_shard(stats);
    }
    (merge_results(fleet, [dw.worker.finish()]), driven)
}

/// The multi-shard path: one worker thread per shard, fed
/// reference-counted chunks over bounded channels.
fn run_broadcast<R>(
    fleet: &Fleet,
    plan: &ShardPlan,
    clocks: Option<&ClockSet>,
    opts: &ParOptions,
    drive: impl FnOnce(&FleetFeeder) -> R,
) -> (FleetReport, R) {
    std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(plan.jobs());
        let mut workers = Vec::with_capacity(plan.jobs());
        for (shard_idx, shard) in plan.shards().iter().enumerate() {
            let (tx, rx) = channel::bounded::<Chunk>(CHANNEL_DEPTH);
            txs.push(tx);
            workers.push(scope.spawn(move || {
                let mut worker = ShardWorker::build(fleet, shard, clocks, opts);
                if opts.obs.is_enabled() {
                    // observed run: account each worker's wall time as
                    // queue-wait (blocked on recv) vs busy (executing),
                    // the planner-imbalance signal
                    let mut stats = ShardStats {
                        shard: shard_idx,
                        members: shard.len(),
                        ..ShardStats::default()
                    };
                    loop {
                        let waited = Instant::now();
                        let Ok(chunk) = rx.recv() else { break };
                        stats.wait_ns += waited.elapsed().as_nanos() as u64;
                        let ran = Instant::now();
                        worker.consume(&chunk);
                        stats.busy_ns += ran.elapsed().as_nanos() as u64;
                        stats.chunks += 1;
                        stats.steps += chunk.len() as u64;
                    }
                    opts.obs.record_shard(stats);
                } else {
                    while let Ok(chunk) = rx.recv() {
                        worker.consume(&chunk);
                    }
                }
                worker.finish()
            }));
        }
        let feeder = FleetFeeder {
            mode: FeedMode::Broadcast(Broadcast {
                txs,
                pool: ChunkPool::new(),
            }),
            steps: opts.obs.counter(key::FLEET_STEPS),
            chunks: opts.obs.counter(key::FLEET_CHUNKS),
            chunk_sizes: opts.obs.histogram("chunk.steps"),
        };
        let driven = drive(&feeder);
        drop(feeder); // close every channel: workers drain and return
        let results: Vec<ShardResult> = workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect();
        (merge_results(fleet, results), driven)
    })
}

/// Merges per-shard results into the fleet-indexed report.
fn merge_results(fleet: &Fleet, results: impl IntoIterator<Item = ShardResult>) -> FleetReport {
    let mut singles: Vec<Option<SingleReport>> = vec![None; fleet.single_len()];
    let mut multis: Vec<Option<MultiReport>> = vec![None; fleet.multiclock_len()];
    let mut asserts: Vec<Option<AssertReport>> = vec![None; fleet.assert_len()];
    let mut skip_ticks = 0;
    for result in results {
        skip_ticks += result.skip_ticks;
        for (i, r) in result.singles {
            singles[i] = Some(r);
        }
        for (i, r) in result.multis {
            multis[i] = Some(r);
        }
        for (i, r) in result.asserts {
            asserts[i] = Some(r);
        }
    }
    FleetReport {
        singles: singles
            .into_iter()
            .map(|r| r.expect("plan covers every single-clock member"))
            .collect(),
        multis: multis
            .into_iter()
            .map(|r| r.expect("plan covers every multi-clock member"))
            .collect(),
        asserts: asserts
            .into_iter()
            .map(|r| r.expect("plan covers every assert member"))
            .collect(),
        skip_ticks,
    }
}

/// Folds a merged report's semantic totals into the run's registry —
/// the counters the serial-vs-sharded equivalence property pins.
fn record_semantics(obs: &Obs, report: &FleetReport) {
    if !obs.is_enabled() {
        return;
    }
    let mut ticks = 0u64;
    let mut matches = 0u64;
    let mut underflows = 0u64;
    for s in &report.singles {
        ticks += s.ticks;
        matches += s.log.count();
        underflows += s.underflows;
    }
    for m in &report.multis {
        ticks += m.ticks;
        matches += m.log.count();
        underflows += m.underflows;
    }
    for a in &report.asserts {
        ticks += a.ticks;
        matches += a.fulfilled;
    }
    obs.counter(key::ENGINE_TICKS).add(ticks);
    obs.counter(key::ENGINE_SKIP_TICKS).add(report.skip_ticks);
    obs.counter(key::ENGINE_MATCHES).add(matches);
    obs.counter(key::ENGINE_UNDERFLOWS).add(underflows);
}

/// One-call sharded scan of a resident global run, chunked at `chunk`
/// steps — the parallel counterpart of [`MonitorBank::feed_global`].
pub fn scan_sharded_global(
    fleet: &Fleet,
    plan: &ShardPlan,
    clocks: &ClockSet,
    opts: &ParOptions,
    steps: &[GlobalStep],
    chunk: usize,
) -> FleetReport {
    let chunk = chunk.max(1);
    run_sharded(fleet, plan, Some(clocks), opts, |feeder| {
        for c in steps.chunks(chunk) {
            feeder.feed_global(c);
        }
    })
    .0
}
