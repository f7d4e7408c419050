//! The monitor fleet and its sharded executor.
//!
//! A [`Fleet`] is the compiled verification plan: single-clock
//! monitors, multi-clock monitors and `implies(...)` assertions.
//! [`run_sharded`] executes it across worker threads:
//!
//! ```text
//!                        ┌────────────────────┐
//!   VCD / simulation ──▶ │ FleetFeeder        │  one bounded channel
//!   (decoded chunks,     │ (hand_off swaps the│  per shard; one
//!    caller thread)      │  chunk into a      │  buffer is shared by
//!                        │  recycled Arc)     │  them all
//!                        └───┬────┬────┬──────┘
//!                            ▼    ▼    ▼
//!                        shard0 shard1 shard2   each: own thread, own
//!                            │    │    │        MonitorBank (asserts
//!                            ▼    ▼    ▼        included), no
//!                        ┌────────────────────┐ cross-shard state
//!                        │ merge (at join)    │ → FleetReport
//!                        └────────────────────┘
//! ```
//!
//! Every shard owns its monitors' complete mutable state (control
//! states, scoreboards, tallies), so the hot path takes **no lock and
//! shares no cache line** with other shards; the only synchronisation
//! is the bounded channel hand-off of reference-counted chunks, and the
//! per-shard results merge once, at join time. The chunk buffers are
//! recycled once every shard has dropped them:
//! [`FleetFeeder::hand_off`] swaps the caller's chunk with the next
//! free buffer (no copy), [`FleetFeeder::feed_global`] copies a
//! borrowed chunk into it, and either way a steady-state broadcast
//! allocates nothing on any thread. Verdicts are bit-identical to a
//! serial [`MonitorBank`] run over the same chunks (pinned by the
//! workspace `batch_equivalence` property suite).
//!
//! **Threads start when they pay.** A plan of several shards starts
//! its threads with the first fed chunk. A one-shard plan (`--jobs 1`)
//! first steps its worker on the caller for [`PROBE_CHUNKS`] chunks,
//! timing the engine against the caller's time between chunks (its
//! decode). Only a run whose engine took more than twice the decode
//! moves the worker to a thread of its own, so that the caller decodes
//! the next chunk while the shard steps the last one. A decode-bound
//! run stays on the caller: overlap could save it no more than its
//! small engine share, and a hand-off to a second core that is busy or
//! slow to wake stalls the decoder instead. A run that feeds nothing
//! (a header-only dump) pays for no thread.

use std::cell::{Cell, OnceCell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use cesc_core::{
    CompileOptions, CompiledImplication, CompiledMonitor, CompiledMultiClock, Monitor,
    MonitorBank, MultiClockMonitor, Verdict, Violation,
};
use cesc_obs::{key, Counter, Histogram, Obs, ShardStats};
use cesc_trace::{ClockSet, GlobalStep};
use crossbeam::channel;

use crate::plan::{FleetItem, ShardPlan};
use crate::tally::MatchLog;

/// An `implies(antecedent, consequent)` assertion attached to a fleet:
/// its [`CompiledImplication`] tables, which name the clock domain
/// whose ticks drive it.
#[derive(Debug, Clone)]
pub struct AssertSpec {
    pub(crate) compiled: CompiledImplication,
}

impl AssertSpec {
    /// Compiles an assertion item from its two synthesized monitors
    /// with [`CompileOptions::optimized`]. `clock` names the domain
    /// whose ticks the assertion consumes.
    pub fn new(name: &str, clock: &str, antecedent: Monitor, consequent: Monitor) -> Self {
        let opts = CompileOptions::optimized();
        Self::from_compiled(CompiledImplication::new(name, clock, &antecedent, &consequent, &opts))
    }

    /// Wraps an already-compiled assertion (the `cesc-spec` cache's
    /// `AssertSpec::compiled`).
    pub fn from_compiled(compiled: CompiledImplication) -> Self {
        AssertSpec { compiled }
    }

    /// The assertion's name.
    pub fn name(&self) -> &str {
        self.compiled.name()
    }

    /// The clock domain driving the assertion.
    pub fn clock(&self) -> &str {
        self.compiled.clock()
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

    /// Adds an assertion; returns its index (its own slot space).
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

    /// Number of assertions.
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

/// Chunks a one-shard plan steps on the caller before it decides
/// whether its worker moves to a thread (see the module doc).
pub const PROBE_CHUNKS: u32 = 8;

/// Whether a one-shard run whose first chunks spent `engine_ns` in the
/// engine and `decode_ns` between chunks should move its worker to a
/// thread: only when the engine took more than twice the decode, so a
/// one-off stall inside the short probe does not start a thread for a
/// decode-bound run.
pub(crate) fn engine_bound(engine_ns: u64, decode_ns: u64) -> bool {
    engine_ns > 2 * decode_ns
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

/// Final state of one assertion.
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
    /// The earliest violations, up to [`cesc_core::VIOLATION_KEEP`].
    pub violations: Vec<Violation>,
    /// Total violations recorded (may exceed `violations.len()`).
    pub violation_count: u64,
    /// How many times the antecedent completed. Zero means the
    /// assertion was never armed, so any `idle` verdict is vacuous.
    pub antecedent_matches: u64,
    /// Ticks the assertion consumed.
    pub ticks: u64,
    /// Execution nanoseconds this assertion consumed on its shard (zero
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
    /// One report per assertion.
    pub asserts: Vec<AssertReport>,
    /// Member-ticks the monitor engine advanced by its idle-run scan
    /// instead of a full step, summed over the fleet (each is also
    /// counted in its member's ticks).
    pub skip_ticks: u64,
}

impl FleetReport {
    /// Whether any assertion finished with [`Verdict::Failed`].
    pub fn any_failed(&self) -> bool {
        self.asserts.iter().any(|a| a.verdict == Verdict::Failed)
    }
}

/// One broadcast unit: a reference-counted decoded chunk. Cloning per
/// shard copies the `Arc`, not the steps.
type Chunk = Arc<Vec<GlobalStep>>;

/// The chunk buffers a feeder hands out, reused in turn.
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

    /// The next buffer in turn, after `fill` has written it.
    fn next(&self, fill: impl FnOnce(&mut Vec<GlobalStep>)) -> Chunk {
        let mut ring = self.ring.borrow_mut();
        let i = self.next.get();
        self.next.set((i + 1) % ring.len());
        let slot = &mut ring[i];
        if Arc::get_mut(slot).is_none() {
            // unreachable by the argument above; stay correct anyway
            *slot = Arc::new(Vec::new());
        }
        fill(Arc::get_mut(slot).expect("a fresh or released buffer is unique"));
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

/// A started shard: its bounded feed channel and the thread that
/// drains it.
struct Shard {
    tx: channel::Sender<Chunk>,
    thread: std::thread::JoinHandle<ShardResult>,
}

impl Shard {
    fn start(worker: ShardWorker, obs: &Obs) -> Shard {
        let (tx, rx) = channel::bounded::<Chunk>(CHANNEL_DEPTH);
        let obs = obs.clone();
        let thread = std::thread::spawn(move || worker.serve(&rx, &obs));
        Shard { tx, thread }
    }
}

/// The producer half of a sharded run: hands decoded chunks to the
/// shard threads, one bounded channel per shard, each chunk one
/// reference-counted buffer shared by them all. Handed to `drive` by
/// [`run_sharded`].
///
/// The shard threads start when the first non-empty chunk is fed, or,
/// for a one-shard plan, once its probe finds the run engine-bound (see
/// the module doc), so a run that feeds nothing (a header-only dump)
/// starts no thread.
pub struct FleetFeeder {
    /// The shard workers, until they move onto threads of their own.
    idle: RefCell<Vec<ShardWorker>>,
    probe: RefCell<Probe>,
    /// The started shards, in shard order.
    shards: OnceCell<Vec<Shard>>,
    pool: ChunkPool,
    obs: Obs,
    /// Live-updated feed metrics (`fleet.steps` / `fleet.chunks` /
    /// the `chunk.steps` histogram) — no-ops when the run's registry
    /// is disabled. The steps counter updates as chunks are fed,
    /// which is what the `--progress` heartbeat watches.
    steps: Counter,
    chunks: Counter,
    chunk_sizes: Histogram,
    /// `feed.block_ns`: time the caller spent in sends, blocked on a
    /// full shard channel; timed only when the registry is enabled.
    block_ns: Counter,
}

impl std::fmt::Debug for FleetFeeder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.shards.get() {
            Some(shards) => write!(f, "FleetFeeder({} shard(s) started)", shards.len()),
            None => write!(f, "FleetFeeder({} shard(s) idle)", self.idle.borrow().len()),
        }
    }
}

/// What a one-shard feeder has timed of its first chunks.
#[derive(Debug, Default)]
struct Probe {
    chunks: u32,
    /// Caller time in the engine.
    engine_ns: u64,
    /// Caller time between chunks: decoding the next one.
    decode_ns: u64,
    /// When the caller last left the engine.
    left: Option<Instant>,
    /// Set once the probe has kept the worker on the caller.
    stays: bool,
}

impl FleetFeeder {
    /// Feeds a copy of one chunk of global steps (the sharded form of
    /// [`MonitorBank::feed_global`]); requires the run to have been
    /// started with a clock set.
    pub fn feed_global(&self, chunk: &[GlobalStep]) {
        if !chunk.is_empty() && !self.run_on_caller(chunk) {
            self.send(chunk.len(), |buf| copy_steps(buf, chunk));
        }
    }

    /// Feeds `chunk` without copying it: swaps it with the next free
    /// broadcast buffer and leaves that recycled buffer in its place,
    /// so a decoder that overwrites steps in place (as
    /// `GlobalVcdStream::next_chunk` does) reuses its storage. A chunk
    /// the caller steps itself (during a one-shard probe, or in a run
    /// that stayed on the caller) is left as it was. Same requirements
    /// and verdicts as [`FleetFeeder::feed_global`].
    pub fn hand_off(&self, chunk: &mut Vec<GlobalStep>) {
        if !chunk.is_empty() && !self.run_on_caller(chunk) {
            self.send(chunk.len(), |buf| std::mem::swap(buf, chunk));
        }
    }

    /// Steps `chunk` on the caller while a one-shard plan probes or has
    /// stayed on the caller; returns whether it did.
    fn run_on_caller(&self, chunk: &[GlobalStep]) -> bool {
        if self.shards.get().is_some() {
            return false;
        }
        let mut idle = self.idle.borrow_mut();
        let [worker] = idle.as_mut_slice() else {
            return false;
        };
        let mut probe = self.probe.borrow_mut();
        if probe.chunks == PROBE_CHUNKS && !probe.stays {
            return false;
        }
        self.steps.add(chunk.len() as u64);
        self.chunks.incr();
        self.chunk_sizes.record(chunk.len() as u64);
        let entered = Instant::now();
        let decode = probe.left.map_or(0, |left| (entered - left).as_nanos() as u64);
        worker.consume_timed(chunk, decode);
        let left = Instant::now();
        probe.left = Some(left);
        if !probe.stays {
            probe.engine_ns += (left - entered).as_nanos() as u64;
            probe.decode_ns += decode;
            probe.chunks += 1;
            if probe.chunks == PROBE_CHUNKS {
                probe.stays = !engine_bound(probe.engine_ns, probe.decode_ns);
            }
        }
        true
    }

    /// Fills the next pool buffer and sends it to every shard, starting
    /// the shard threads on the first call.
    fn send(&self, len: usize, fill: impl FnOnce(&mut Vec<GlobalStep>)) {
        self.steps.add(len as u64);
        self.chunks.incr();
        self.chunk_sizes.record(len as u64);
        let shards = self.shards.get_or_init(|| {
            let workers = self.idle.take();
            workers.into_iter().map(|w| Shard::start(w, &self.obs)).collect()
        });
        let chunk = self.pool.next(fill);
        let blocked = self.obs.is_enabled().then(Instant::now);
        for shard in shards {
            shard.tx.send(Arc::clone(&chunk)).expect("shard worker alive");
        }
        if let Some(blocked) = blocked {
            self.block_ns.add(blocked.elapsed().as_nanos() as u64);
        }
    }

    /// Closes the feed and returns every shard's result: joined from
    /// its thread, or taken from a worker that stayed on the caller.
    fn finish(self) -> Vec<ShardResult> {
        match self.shards.into_inner() {
            Some(shards) => {
                // close every channel first: the workers drain and return
                let (txs, threads): (Vec<_>, Vec<_>) =
                    shards.into_iter().map(|s| (s.tx, s.thread)).unzip();
                drop(txs);
                threads
                    .into_iter()
                    .map(|t| t.join().expect("shard worker panicked"))
                    .collect()
            }
            None => {
                let workers = self.idle.into_inner().into_iter();
                workers.map(|w| w.finish_and_record(&self.obs)).collect()
            }
        }
    }
}

/// Per-shard runtime: the shard's own bank, built once per worker from
/// the fleet's compiled artifacts. Asserts are bank members too, so
/// they run on the bank's per-clock projection.
struct ShardWorker {
    bank: MonitorBank,
    /// Bank single-clock slot → fleet single index.
    single_map: Vec<usize>,
    /// Bank multi-clock slot → fleet multi index.
    multi_map: Vec<usize>,
    /// Bank implication slot → fleet assert index.
    assert_map: Vec<usize>,
    single_logs: Vec<MatchLog>,
    multi_logs: Vec<MatchLog>,
    /// The run's clock set; `None` only for a run that feeds nothing.
    clocks: Option<ClockSet>,
    /// Queue-wait and busy time, kept under an enabled registry.
    stats: Option<ShardStats>,
}

struct ShardResult {
    singles: Vec<(usize, SingleReport)>,
    multis: Vec<(usize, MultiReport)>,
    asserts: Vec<(usize, AssertReport)>,
    skip_ticks: u64,
}

impl ShardWorker {
    fn build(
        fleet: &Fleet,
        shard: usize,
        items: &[FleetItem],
        clocks: Option<&ClockSet>,
        opts: &ParOptions,
    ) -> Self {
        let mut w = ShardWorker {
            bank: MonitorBank::new(),
            single_map: Vec::new(),
            multi_map: Vec::new(),
            assert_map: Vec::new(),
            single_logs: Vec::new(),
            multi_logs: Vec::new(),
            clocks: clocks.cloned(),
            stats: opts.obs.is_enabled().then(|| ShardStats {
                shard,
                members: items.len(),
                ..ShardStats::default()
            }),
        };
        w.bank.set_member_timing(opts.obs.is_enabled());
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
                    w.bank.add_compiled_implication(fleet.asserts[i].compiled.clone());
                    w.assert_map.push(i);
                }
            }
        }
        w
    }

    /// The shard thread's body: consumes every chunk `rx` delivers
    /// until the feeder closes the channel. Under an enabled registry
    /// it accounts the thread's time as queue-wait (blocked on `recv`)
    /// vs busy (executing): the signal for planner imbalance and for
    /// what bound the run.
    fn serve(mut self, rx: &channel::Receiver<Chunk>, obs: &Obs) -> ShardResult {
        loop {
            let waited = self.stats.is_some().then(Instant::now);
            let Ok(chunk) = rx.recv() else { break };
            let wait = waited.map_or(0, |w| w.elapsed().as_nanos() as u64);
            self.consume_timed(&chunk, wait);
        }
        self.finish_and_record(obs)
    }

    /// Consumes `chunk`; under an enabled registry it also accounts the
    /// chunk, its busy time and `wait_ns` of queue-wait before it.
    fn consume_timed(&mut self, chunk: &[GlobalStep], wait_ns: u64) {
        if self.stats.is_none() {
            return self.consume(chunk);
        }
        let ran = Instant::now();
        self.consume(chunk);
        let busy = ran.elapsed().as_nanos() as u64;
        let stats = self.stats.as_mut().expect("checked above");
        stats.wait_ns += wait_ns;
        stats.busy_ns += busy;
        stats.chunks += 1;
        stats.steps += chunk.len() as u64;
    }

    fn consume(&mut self, chunk: &[GlobalStep]) {
        let clocks = self
            .clocks
            .as_ref()
            .expect("feed_global requires run_sharded to be given a ClockSet");
        self.bank.feed_global(clocks, chunk);
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

    /// Records the shard's stats (if it stepped any chunk) and returns
    /// its result.
    fn finish_and_record(mut self, obs: &Obs) -> ShardResult {
        if let Some(stats) = self.stats.take().filter(|s| s.chunks > 0) {
            obs.record_shard(stats);
        }
        self.finish()
    }

    fn finish(self) -> ShardResult {
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
            .assert_map
            .iter()
            .enumerate()
            .map(|(slot, &fleet_idx)| {
                let st = self.bank.implication_state(slot);
                (
                    fleet_idx,
                    AssertReport {
                        name: self.bank.implication(slot).name().to_owned(),
                        verdict: st.verdict(),
                        fulfilled: st.fulfilled(),
                        outstanding: st.outstanding(),
                        violations: st.violations().to_vec(),
                        violation_count: st.violation_count(),
                        antecedent_matches: st.antecedent_matches(),
                        ticks: st.ticks(),
                        exec_ns: self.bank.implication_exec_ns(slot),
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

/// Runs `fleet` sharded per `plan`: one worker thread per shard, at
/// every shard count, each owning its members' complete mutable state,
/// fed by `drive` through a [`FleetFeeder`] over bounded channels. The
/// caller thread only produces chunks (decodes, in `cesc check`), so it
/// overlaps with the engine even on a one-shard plan. The threads start
/// with the first fed chunk; a `drive` that feeds nothing starts none.
///
/// `clocks` resolves every member's clock against the fed steps'
/// [`ClockId`](cesc_trace::ClockId)s; `None` only suits a `drive` that feeds nothing
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
    let workers = plan
        .shards()
        .iter()
        .enumerate()
        .map(|(shard, items)| ShardWorker::build(fleet, shard, items, clocks, opts))
        .collect();
    let feeder = FleetFeeder {
        idle: RefCell::new(workers),
        probe: RefCell::default(),
        shards: OnceCell::new(),
        pool: ChunkPool::new(),
        obs: opts.obs.clone(),
        steps: opts.obs.counter(key::FLEET_STEPS),
        chunks: opts.obs.counter(key::FLEET_CHUNKS),
        chunk_sizes: opts.obs.histogram("chunk.steps"),
        block_ns: opts.obs.counter(key::FEED_BLOCK_NS),
    };
    let driven = drive(&feeder);
    let report = merge_results(fleet, feeder.finish());
    record_semantics(&opts.obs, &report);
    (report, driven)
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
