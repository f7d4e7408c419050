//! Batched multi-clock monitor execution.
//!
//! [`crate::MultiClockExec`] steps one global instant at a time: every
//! tick chases the `Vec<Vec<Transition>>` interpreter, resolves its
//! clock domain by *string comparison*, and takes the shared
//! scoreboard's mutex twice (guard evaluation + action application).
//! This module is the multi-clock counterpart of [`crate::batch`]: it
//! lowers every local monitor of a [`MultiClockMonitor`] into the flat
//! [`CompiledMonitor`] table form and batch-executes whole
//! [`GlobalStep`] chunks with
//!
//! * **one shared counts-only scoreboard** — a single
//!   [`BatchBoard`](crate::batch) threaded through all locals replaces
//!   the `Arc<Mutex<Scoreboard>>`, so cross-domain `Add_evt`/`Chk_evt`
//!   synchronisation costs a `u128` test instead of a lock round-trip;
//! * **integer clock binding** — clock ids are resolved to local
//!   monitor indices once ([`MultiClockBatchState::bind`]), so the hot
//!   loop is table lookups only, no name comparisons;
//! * **clock-major chunks where legal** — when the locals' scoreboard
//!   footprints are pairwise disjoint (cross-domain arrows absent, or
//!   only intra-chart causality), each chunk is projected per domain
//!   and run monitor-major with hot tables (through the batch engine's
//!   idle-run scan), then the per-local completion events are merged
//!   back in time order; when footprints overlap, execution interleaves
//!   in global-step order, one step per tick, preserving the exact
//!   cross-domain scoreboard semantics.
//!
//! Verdict equivalence with [`MultiClockMonitor::scan`] (same global
//! match times under any chunking and clock interleaving) is pinned by
//! unit tests here and the `batch_equivalence` property suite at the
//! workspace root.

use cesc_expr::Valuation;
use cesc_trace::{ClockId, ClockSet, GlobalRun, GlobalStep};

use crate::batch::{BatchBoard, CompiledMonitor, ExecState};
use crate::multiclock::MultiClockMonitor;

/// A [`MultiClockMonitor`] compiled to flat tables: one
/// [`CompiledMonitor`] per clock domain plus the coupling analysis
/// that selects the execution strategy.
///
/// Build once with [`CompiledMultiClock::new`] (or
/// [`MultiClockMonitor::compiled`]), then execute with a
/// [`MultiClockBatchExec`], or own a [`MultiClockBatchState`] next to
/// the table (the pattern `MonitorBank` uses).
#[derive(Debug, Clone)]
pub struct CompiledMultiClock {
    name: String,
    locals: Vec<CompiledMonitor>,
    /// Whether any two locals touch a common scoreboard symbol. When
    /// false the clock-major fast path is semantically safe.
    coupled: bool,
    /// Shared scoreboard size (max over locals).
    slots: usize,
}

impl CompiledMultiClock {
    /// Compiles every local monitor of `monitor` into flat form and
    /// analyses scoreboard coupling between the domains.
    pub fn new(monitor: &MultiClockMonitor) -> Self {
        Self::with_options(monitor, &crate::CompileOptions::raw())
    }

    /// Compiles with explicit [`crate::CompileOptions`]. Because the
    /// locals execute against **one shared scoreboard**, slot
    /// narrowing computes a *joint* slot space — the union of every
    /// local's scoreboard symbols — so cross-domain `Add_evt`/`Chk_evt`
    /// traffic lands on the same slot in every local's tables.
    pub fn with_options(monitor: &MultiClockMonitor, opts: &crate::CompileOptions) -> Self {
        let joint: u128 = monitor
            .locals()
            .iter()
            .map(crate::batch::sb_symbol_mask)
            .fold(0, |acc, m| acc | m);
        let locals: Vec<CompiledMonitor> = monitor
            .locals()
            .iter()
            .map(|m| CompiledMonitor::build(m, opts, Some(joint)))
            .collect();
        let coupled = locals
            .iter()
            .enumerate()
            .any(|(i, a)| {
                locals[i + 1..]
                    .iter()
                    .any(|b| a.touched_symbols() & b.touched_symbols() != 0)
            });
        let slots = locals.iter().map(CompiledMonitor::count_slots).max().unwrap_or(0);
        CompiledMultiClock {
            name: monitor.name().to_owned(),
            locals,
            coupled,
            slots,
        }
    }

    /// The source spec's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled local monitors, in the source spec's chart order.
    pub fn locals(&self) -> &[CompiledMonitor] {
        &self.locals
    }

    /// Whether cross-domain scoreboard traffic forces interleaved
    /// (global-step order) execution. `false` means chunks run
    /// clock-major with hot per-domain tables.
    pub fn coupled(&self) -> bool {
        self.coupled
    }

    /// Union of the locals' scoreboard footprints
    /// ([`CompiledMonitor::touched_symbols`]) — the coupling signal the
    /// `cesc-par` shard planner reads.
    pub fn touched_symbols(&self) -> u128 {
        self.locals
            .iter()
            .map(CompiledMonitor::touched_symbols)
            .fold(0, |acc, t| acc | t)
    }

    /// Footprint-derived per-step cost weight for shard balancing: the
    /// sum of the locals' [`CompiledMonitor::step_cost`], surcharged
    /// when coupling forces the interleaved (per-tick dispatch) path
    /// instead of the clock-major chunk path.
    pub fn step_cost(&self) -> u64 {
        let locals: u64 = self.locals.iter().map(CompiledMonitor::step_cost).sum();
        // completion-merge bookkeeping rides on top of the locals; the
        // interleaved path additionally loses the monitor-major cache
        // locality, worth roughly half the locals' work again
        if self.coupled {
            locals + locals / 2 + 1
        } else {
            locals + 1
        }
    }

    /// Creates a fresh runtime state with the *identity* clock
    /// binding: [`cesc_trace::ClockId`] index `i` drives local monitor `i` (the
    /// layout [`cesc_trace::GlobalVcdStream`] produces when its clock
    /// list mirrors the spec's chart order). Use
    /// [`MultiClockBatchState::bind`] to rebind against a [`ClockSet`]
    /// with a different domain order.
    pub fn state(&self) -> MultiClockBatchState {
        MultiClockBatchState {
            states: self.locals.iter().map(ExecState::new).collect(),
            board: BatchBoard::sized(self.slots),
            completed: vec![None; self.locals.len()],
            matches: 0,
            binding: (0..self.locals.len() as u32).map(Some).collect(),
            proj_vals: vec![Vec::new(); self.locals.len()],
            proj_times: vec![Vec::new(); self.locals.len()],
            completions: Vec::new(),
        }
    }

    /// Creates an executor bound to `clocks` (each local monitor is
    /// attached to the domain whose name equals its chart's clock).
    pub fn executor(&self, clocks: &ClockSet) -> MultiClockBatchExec<'_> {
        let mut state = self.state();
        state.bind(self, clocks);
        MultiClockBatchExec {
            compiled: self,
            state,
        }
    }

    /// Feeds a chunk of global steps through `state`, appending the
    /// global time of every *full-spec* match (every local completed
    /// since the previous match) to `hits`.
    ///
    /// Steps may arrive in any chunking; state persists across calls,
    /// so any split of a run produces the verdicts of one pass.
    /// Ticks of clocks bound to no local monitor are ignored.
    pub fn feed(&self, state: &mut MultiClockBatchState, steps: &[GlobalStep], hits: &mut Vec<u64>) {
        if self.coupled {
            self.feed_interleaved(state, steps, hits);
        } else {
            self.feed_clock_major(state, steps, hits);
        }
    }

    /// Cross-domain scoreboard traffic: walk steps in global-time
    /// order, dispatching each tick to its local monitor, exactly as
    /// the step-wise executor would — but through the compiled tables
    /// and the lock-free shared board.
    fn feed_interleaved(
        &self,
        state: &mut MultiClockBatchState,
        steps: &[GlobalStep],
        hits: &mut Vec<u64>,
    ) {
        let MultiClockBatchState {
            states,
            board,
            completed,
            matches,
            binding,
            ..
        } = state;
        for step in steps {
            for &(clock, v) in &step.ticks {
                let Some(l) = binding.get(clock.index()).copied().flatten() else {
                    continue;
                };
                let l = l as usize;
                if states[l].step(&self.locals[l], v, board) {
                    completed[l] = Some(step.time);
                }
            }
            if completed.iter().all(Option::is_some) {
                *matches += 1;
                completed.iter_mut().for_each(|c| *c = None);
                hits.push(step.time);
            }
        }
    }

    /// Disjoint scoreboard footprints: project the chunk per domain,
    /// run each local monitor-major (tables hot for the whole chunk),
    /// then merge the rare completion events back into global-time
    /// order to evaluate the full-spec condition.
    fn feed_clock_major(
        &self,
        state: &mut MultiClockBatchState,
        steps: &[GlobalStep],
        hits: &mut Vec<u64>,
    ) {
        let MultiClockBatchState {
            states,
            board,
            completed,
            matches,
            binding,
            proj_vals,
            proj_times,
            completions,
        } = state;

        for (vals, times) in proj_vals.iter_mut().zip(proj_times.iter_mut()) {
            vals.clear();
            times.clear();
        }
        for step in steps {
            for &(clock, v) in &step.ticks {
                if let Some(l) = binding.get(clock.index()).copied().flatten() {
                    proj_vals[l as usize].push(v);
                    proj_times[l as usize].push(step.time);
                }
            }
        }

        completions.clear();
        for (l, (m, st)) in self.locals.iter().zip(states.iter_mut()).enumerate() {
            let times = &proj_times[l];
            st.run(m, &proj_vals[l], board, |i| {
                completions.push((times[i], l as u32))
            });
        }
        // per-local completion lists are time-sorted; the merged list
        // only needs a sort by time (order within one instant is
        // irrelevant: the full-spec check runs after the whole instant)
        completions.sort_unstable_by_key(|&(t, _)| t);
        let mut i = 0;
        while i < completions.len() {
            let t = completions[i].0;
            while i < completions.len() && completions[i].0 == t {
                completed[completions[i].1 as usize] = Some(t);
                i += 1;
            }
            if completed.iter().all(Option::is_some) {
                *matches += 1;
                completed.iter_mut().for_each(|c| *c = None);
                hits.push(t);
            }
        }
    }
}

/// The mutable runtime of a [`CompiledMultiClock`]: per-local control
/// states, the shared counts-only scoreboard, completion marks and the
/// reused projection buffers of the clock-major path.
///
/// Owned separately from the table so banks can store both side by
/// side without self-references (see [`crate::MonitorBank`]).
#[derive(Debug, Clone)]
pub struct MultiClockBatchState {
    states: Vec<ExecState>,
    board: BatchBoard,
    /// Global time at which each local last completed (since the
    /// previous full-spec match).
    completed: Vec<Option<u64>>,
    matches: u64,
    /// Clock index → local monitor index.
    binding: Vec<Option<u32>>,
    /// Reused per-local projection buffers (clock-major path).
    proj_vals: Vec<Vec<Valuation>>,
    proj_times: Vec<Vec<u64>>,
    /// Reused `(time, local)` completion-merge buffer.
    completions: Vec<(u64, u32)>,
}

impl MultiClockBatchState {
    /// Binds each local monitor of `compiled` to the domain of
    /// `clocks` whose name equals the local's chart clock. Domains
    /// naming no local are left unbound (their ticks are ignored);
    /// locals whose clock is absent from `clocks` simply never
    /// advance.
    pub fn bind(&mut self, compiled: &CompiledMultiClock, clocks: &ClockSet) {
        self.binding.clear();
        self.binding.resize(clocks.len(), None);
        for (id, domain) in clocks.iter() {
            self.binding[id.index()] = compiled
                .locals
                .iter()
                .position(|m| m.clock() == domain.name())
                .map(|l| l as u32);
        }
    }

    /// Number of full-spec matches recorded so far.
    pub fn match_count(&self) -> u64 {
        self.matches
    }

    /// `Del_evt` underflows on the shared scoreboard so far.
    pub fn underflows(&self) -> u64 {
        self.board.underflows()
    }

    /// Local ticks consumed per local monitor, in chart order.
    pub fn local_ticks(&self) -> Vec<u64> {
        self.states.iter().map(ExecState::ticks).collect()
    }

    /// Local ticks the clock-major path advanced by the idle-run scan,
    /// summed over the locals (coupled specs step every tick).
    pub(crate) fn skip_ticks(&self) -> u64 {
        self.states.iter().map(|st| st.skipped).sum()
    }

    /// Resets every local monitor, the shared scoreboard and the
    /// completion marks to the initial configuration. The clock
    /// binding is preserved.
    pub fn reset(&mut self, compiled: &CompiledMultiClock) {
        for (st, m) in self.states.iter_mut().zip(&compiled.locals) {
            st.reset(m);
        }
        self.board.reset();
        self.completed.iter_mut().for_each(|c| *c = None);
        self.matches = 0;
    }
}

/// Streaming executor over one [`CompiledMultiClock`] — the borrowing
/// convenience wrapper pairing the table with its state (mirrors
/// [`crate::BatchExec`]).
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize_multiclock, SynthOptions};
/// use cesc_expr::Valuation;
/// use cesc_trace::{ClockDomain, ClockSet, GlobalRun, Trace};
///
/// let doc = parse_document(
///     "scesc a on clk1 { instances { M } events { go } tick { M: go } }\
///      scesc b on clk2 { instances { S } events { done } tick { S: done } }\
///      multiclock pair { charts { a, b } cause go -> done; }",
/// ).unwrap();
/// let mm = synthesize_multiclock(doc.multiclock_spec("pair").unwrap(), &SynthOptions::default())
///     .unwrap();
/// let go = doc.alphabet.lookup("go").unwrap();
/// let done = doc.alphabet.lookup("done").unwrap();
///
/// let mut clocks = ClockSet::new();
/// let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
/// let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
/// let run = GlobalRun::interleave(&clocks, &[
///     (c1, Trace::from_elements([Valuation::of([go])])),
///     (c2, Trace::from_elements([Valuation::of([done])])),
/// ]).unwrap();
///
/// let compiled = mm.compiled();
/// let mut exec = compiled.executor(&clocks);
/// let mut hits = Vec::new();
/// exec.feed(run.as_slice(), &mut hits);
/// assert_eq!(hits, mm.scan(&clocks, &run));
/// ```
#[derive(Debug)]
pub struct MultiClockBatchExec<'m> {
    compiled: &'m CompiledMultiClock,
    state: MultiClockBatchState,
}

impl MultiClockBatchExec<'_> {
    /// Feeds a chunk of global steps, appending full-spec match times
    /// to `hits`. State persists across chunks.
    pub fn feed(&mut self, steps: &[GlobalStep], hits: &mut Vec<u64>) {
        self.compiled.feed(&mut self.state, steps, hits);
    }

    /// Rebinds the executor's clock mapping against `clocks`.
    pub fn bind(&mut self, clocks: &ClockSet) {
        self.state.bind(self.compiled, clocks);
    }

    /// Number of full-spec matches so far.
    pub fn match_count(&self) -> u64 {
        self.state.match_count()
    }

    /// Shared-scoreboard `Del_evt` underflows so far.
    pub fn underflows(&self) -> u64 {
        self.state.underflows()
    }

    /// Resets to the initial configuration (binding preserved).
    pub fn reset(&mut self) {
        self.state.reset(self.compiled);
    }
}

/// The members of one clock domain that `MonitorBank::feed_global`
/// runs on the domain's projection: single-clock monitor indices and
/// implication member indices.
#[derive(Debug)]
pub(crate) struct ClockGroup {
    clock: ClockId,
    singles: Vec<usize>,
    implications: Vec<usize>,
}

impl ClockGroup {
    /// The group of `clock` in `groups`, appended if absent.
    fn of(groups: &mut Vec<ClockGroup>, clock: ClockId) -> &mut ClockGroup {
        let at = match groups.iter().position(|g| g.clock == clock) {
            Some(at) => at,
            None => {
                groups.push(ClockGroup {
                    clock,
                    singles: Vec::new(),
                    implications: Vec::new(),
                });
                groups.len() - 1
            }
        };
        &mut groups[at]
    }
}

impl crate::MonitorBank {
    /// Compiles and attaches a multi-clock monitor; returns its index
    /// in the bank's *multi-clock* slot space (separate from the
    /// single-clock indices of [`crate::MonitorBank::add`]).
    pub fn add_multiclock(&mut self, monitor: &MultiClockMonitor) -> usize {
        self.add_compiled_multiclock(monitor.compiled())
    }

    /// Attaches an already-compiled multi-clock monitor; returns its
    /// multi-clock index.
    pub fn add_compiled_multiclock(&mut self, compiled: CompiledMultiClock) -> usize {
        let state = compiled.state();
        self.multis.push((compiled, state));
        self.multi_hits.push(Vec::new());
        self.multi_member_ns.push(0);
        self.bound_clocks = None; // new member: feed_global must rebind
        self.multis.len() - 1
    }

    /// Number of attached multi-clock monitors.
    pub fn multiclock_len(&self) -> usize {
        self.multis.len()
    }

    /// Global match times of multi-clock monitor `idx` recorded by
    /// [`crate::MonitorBank::feed_global`] so far.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn multiclock_hits(&self, idx: usize) -> &[u64] {
        &self.multi_hits[idx]
    }

    /// Shared-scoreboard `Del_evt` underflows of multi-clock monitor
    /// `idx` so far.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn multiclock_underflows(&self, idx: usize) -> u64 {
        self.multis[idx].1.underflows()
    }

    /// Local ticks multi-clock monitor `idx` consumed so far, summed
    /// over its locals.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn multiclock_ticks(&self, idx: usize) -> u64 {
        self.multis[idx].1.states.iter().map(ExecState::ticks).sum()
    }

    /// Feeds a chunk of global steps to *every* member — the mixed
    /// verification-plan entry point. Single-clock monitors see the
    /// projection of their own domain (matched by clock name; a
    /// monitor whose clock is absent from `clocks` sees no ticks) and
    /// record hits at **global times**; implication members run on the
    /// same projection (their violation records keep tick indices local
    /// to their clock); multi-clock members run the batched
    /// shared-scoreboard engine.
    ///
    /// Don't mix this with the tick-indexed [`crate::MonitorBank::feed`]
    /// on one bank: `feed` records local tick indices, `feed_global`
    /// global times, and the two would interleave in `hits()`.
    pub fn feed_global(&mut self, clocks: &ClockSet, steps: &[GlobalStep]) {
        // clock-name resolution runs once per clock set (and after
        // member additions), not once per chunk
        if self.bound_clocks.as_ref() != Some(clocks) {
            self.clock_groups.clear();
            for (idx, m) in self.monitors.iter().enumerate() {
                if let Some(c) = clocks.lookup(m.clock()) {
                    ClockGroup::of(&mut self.clock_groups, c).singles.push(idx);
                }
            }
            for (idx, (ci, _)) in self.implications.iter().enumerate() {
                if let Some(c) = clocks.lookup(ci.clock()) {
                    ClockGroup::of(&mut self.clock_groups, c).implications.push(idx);
                }
            }
            for (cm, st) in &mut self.multis {
                st.bind(cm, clocks);
            }
            self.bound_clocks = Some(clocks.clone());
        }
        // one projection per distinct domain, then every member of
        // that domain replays it monitor-major (tables staying hot)
        for group in &self.clock_groups {
            self.proj_vals.clear();
            self.proj_times.clear();
            for step in steps {
                if let Some(v) = step.tick_of(group.clock) {
                    self.proj_vals.push(v);
                    self.proj_times.push(step.time);
                }
            }
            for &idx in &group.singles {
                let started = self.timing.then(std::time::Instant::now);
                let (m, st) = (&self.monitors[idx], &mut self.states[idx]);
                let (board, hits) = (&mut self.boards[idx], &mut self.hits[idx]);
                let times = &self.proj_times;
                st.run(m, &self.proj_vals, board, |i| hits.push(times[i]));
                if let Some(t0) = started {
                    self.member_ns[idx] += t0.elapsed().as_nanos() as u64;
                }
            }
            for &idx in &group.implications {
                let started = self.timing.then(std::time::Instant::now);
                let (ci, st) = &mut self.implications[idx];
                ci.feed(st, &self.proj_vals);
                if let Some(t0) = started {
                    self.implication_ns[idx] += t0.elapsed().as_nanos() as u64;
                }
            }
        }
        let timing = self.timing;
        for (idx, ((cm, st), hits)) in self
            .multis
            .iter_mut()
            .zip(&mut self.multi_hits)
            .enumerate()
        {
            let started = timing.then(std::time::Instant::now);
            cm.feed(st, steps, hits);
            if let Some(t0) = started {
                self.multi_member_ns[idx] += t0.elapsed().as_nanos() as u64;
            }
        }
    }
}

impl MultiClockMonitor {
    /// Compiles this multi-clock monitor for batched, allocation-free
    /// execution over [`GlobalStep`] chunks.
    pub fn compiled(&self) -> CompiledMultiClock {
        CompiledMultiClock::new(self)
    }

    /// Runs the monitor over a complete global run through the
    /// compiled batch engine, returning the global times of full-spec
    /// matches — identical to [`MultiClockMonitor::scan`] on the same
    /// input, at a fraction of the cost (see the
    /// `multiclock_throughput` bench).
    pub fn scan_batch(&self, clocks: &ClockSet, run: &GlobalRun) -> Vec<u64> {
        let compiled = self.compiled();
        let mut exec = compiled.executor(clocks);
        let mut hits = Vec::new();
        exec.feed(run.as_slice(), &mut hits);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthOptions;
    use crate::synthesize_multiclock;
    use cesc_chart::parse_document;
    use cesc_trace::{ClockDomain, Trace};

    /// Figure 2 style, cross-domain causality → coupled.
    fn coupled_spec() -> cesc_chart::Document {
        parse_document(
            r#"
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
            multiclock read { charts { m1, m2 } cause req1 -> req3; cause data3 -> data1; }
        "#,
        )
        .unwrap()
    }

    /// Intra-chart causality only → locals' scoreboard footprints are
    /// disjoint, the clock-major path applies.
    fn uncoupled_spec() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc u1 on clk1 {
                instances { A, B }
                events { a1, b1 }
                tick { A: a1 }
                tick { B: b1 }
                cause a1 -> b1;
            }
            scesc u2 on clk2 {
                instances { C, D }
                events { c2, d2 }
                tick { C: c2 }
                tick { D: d2 }
                cause c2 -> d2;
            }
            multiclock duo { charts { u1, u2 } }
        "#,
        )
        .unwrap()
    }

    fn ev(d: &cesc_chart::Document, n: &str) -> cesc_expr::SymbolId {
        d.alphabet.lookup(n).unwrap()
    }

    fn fig2_run(d: &cesc_chart::Document) -> (ClockSet, GlobalRun) {
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 3, 0)); // 0,3,6
        let c2 = clocks.add(ClockDomain::new("clk2", 2, 1)); // 1,3,5
        let t1 = Trace::from_elements([
            Valuation::of([ev(d, "req1")]),
            Valuation::of([ev(d, "rdy1")]),
            Valuation::of([ev(d, "data1")]),
        ]);
        let t2 = Trace::from_elements([
            Valuation::of([ev(d, "req3")]),
            Valuation::of([ev(d, "rdy3")]),
            Valuation::of([ev(d, "data3")]),
        ]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        (clocks, run)
    }

    #[test]
    fn coupling_analysis() {
        let d = coupled_spec();
        let mm = synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
            .unwrap();
        let compiled = mm.compiled();
        assert!(compiled.coupled(), "cross arrows share scoreboard symbols");
        assert_eq!(compiled.locals().len(), 2);
        assert_eq!(compiled.name(), "read");

        let d = uncoupled_spec();
        let mm = synthesize_multiclock(d.multiclock_spec("duo").unwrap(), &SynthOptions::default())
            .unwrap();
        assert!(
            !mm.compiled().coupled(),
            "intra-chart causality only — footprints disjoint"
        );
    }

    #[test]
    fn batch_equals_stepwise_on_fig2_run() {
        let d = coupled_spec();
        let mm = synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
            .unwrap();
        let (clocks, run) = fig2_run(&d);
        let reference = mm.scan(&clocks, &run);
        assert_eq!(reference, vec![6]);
        assert_eq!(mm.scan_batch(&clocks, &run), reference);
    }

    #[test]
    fn chunked_feed_equals_one_pass() {
        let d = coupled_spec();
        let mm = synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
            .unwrap();
        let (clocks, run) = fig2_run(&d);
        let reference = mm.scan(&clocks, &run);
        let compiled = mm.compiled();
        for chunk in [1usize, 2, 3, 7] {
            let mut exec = compiled.executor(&clocks);
            let mut hits = Vec::new();
            for steps in run.as_slice().chunks(chunk) {
                exec.feed(steps, &mut hits);
            }
            assert_eq!(hits, reference, "chunk {chunk}");
            assert_eq!(exec.match_count(), reference.len() as u64);
        }
    }

    #[test]
    fn uncoupled_clock_major_matches_stepwise() {
        let d = uncoupled_spec();
        let mm = synthesize_multiclock(d.multiclock_spec("duo").unwrap(), &SynthOptions::default())
            .unwrap();
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 2, 0)); // 0,2,4,6
        let c2 = clocks.add(ClockDomain::new("clk2", 2, 1)); // 1,3,5,7
        let t1 = Trace::from_elements([
            Valuation::of([ev(&d, "a1")]),
            Valuation::of([ev(&d, "b1")]),
            Valuation::of([ev(&d, "a1")]),
            Valuation::of([ev(&d, "b1")]),
        ]);
        let t2 = Trace::from_elements([
            Valuation::of([ev(&d, "c2")]),
            Valuation::of([ev(&d, "d2")]),
            Valuation::empty(),
            Valuation::of([ev(&d, "c2")]),
        ]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        let reference = mm.scan(&clocks, &run);
        assert!(!reference.is_empty());
        assert_eq!(mm.scan_batch(&clocks, &run), reference);
        // chunked too
        let compiled = mm.compiled();
        let mut exec = compiled.executor(&clocks);
        let mut hits = Vec::new();
        for steps in run.as_slice().chunks(2) {
            exec.feed(steps, &mut hits);
        }
        assert_eq!(hits, reference);
    }

    #[test]
    fn unordered_cross_causality_blocks_batch_too() {
        let d = coupled_spec();
        let mm = synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
            .unwrap();
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 3, 0));
        let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
        let t1 = Trace::from_elements([
            Valuation::empty(),
            Valuation::of([ev(&d, "req1")]),
            Valuation::of([ev(&d, "rdy1")]),
            Valuation::of([ev(&d, "data1")]),
        ]);
        let t2 = Trace::from_elements([
            Valuation::of([ev(&d, "req3")]),
            Valuation::of([ev(&d, "rdy3")]),
            Valuation::of([ev(&d, "data3")]),
            Valuation::empty(),
            Valuation::empty(),
        ]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        assert!(mm.scan(&clocks, &run).is_empty());
        assert!(mm.scan_batch(&clocks, &run).is_empty());
    }

    #[test]
    fn reset_restores_initial_configuration() {
        let d = coupled_spec();
        let mm = synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
            .unwrap();
        let (clocks, run) = fig2_run(&d);
        let compiled = mm.compiled();
        let mut exec = compiled.executor(&clocks);
        let mut hits = Vec::new();
        exec.feed(run.as_slice(), &mut hits);
        assert_eq!(exec.match_count(), 1);
        exec.reset();
        assert_eq!(exec.match_count(), 0);
        assert_eq!(exec.underflows(), 0);
        let mut hits2 = Vec::new();
        exec.feed(run.as_slice(), &mut hits2);
        assert_eq!(hits, hits2);
    }

    #[test]
    fn unbound_clock_ticks_are_ignored() {
        let d = coupled_spec();
        let mm = synthesize_multiclock(d.multiclock_spec("read").unwrap(), &SynthOptions::default())
            .unwrap();
        // a third domain unknown to the spec ticks throughout
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 3, 0));
        let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
        let noise = clocks.add(ClockDomain::new("noise", 1, 0));
        let t1 = Trace::from_elements([
            Valuation::of([ev(&d, "req1")]),
            Valuation::of([ev(&d, "rdy1")]),
            Valuation::of([ev(&d, "data1")]),
        ]);
        let t2 = Trace::from_elements([
            Valuation::of([ev(&d, "req3")]),
            Valuation::of([ev(&d, "rdy3")]),
            Valuation::of([ev(&d, "data3")]),
        ]);
        let tn = Trace::from_elements(vec![Valuation::of([ev(&d, "req1")]); 7]);
        let run =
            GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2), (noise, tn)]).unwrap();
        let reference = mm.scan(&clocks, &run);
        assert_eq!(mm.scan_batch(&clocks, &run), reference);
        assert_eq!(reference, vec![6]);
    }
}
