//! Batched, zero-allocation monitor execution.
//!
//! [`crate::MonitorExec::step`] walks `Vec<Vec<Transition>>` and
//! recursively interprets [`Expr`] guards against a trait-object
//! scoreboard — flexible, but every step chases pointers and the
//! scoreboard allocates per `Add_evt`. This module compiles a
//! [`Monitor`] once into a flat, index-based form and executes it with
//! no allocation on the hot path:
//!
//! * **flat transition table** — per-state transition slices live in
//!   contiguous arrays ([`CompiledMonitor`]), indexed by offset, in the
//!   same priority order the synthesis algorithm emitted;
//! * **precompiled guards** — each guard is classified at compile
//!   time: conjunctions of literals (the common case for patterns
//!   extracted from chart grid lines) become four bitmasks evaluated
//!   with a handful of `u128` ops; anything else becomes a small
//!   postfix program run on a reused stack;
//! * **counts-only scoreboard** — `Chk_evt` needs only "is the count
//!   non-zero", so the executor keeps a `u128` presence bitmap plus a
//!   flat count array instead of an occurrence log;
//! * **batch APIs** — [`Monitor::scan_batch`] and
//!   [`BatchExec::feed`] consume `&[Valuation]` chunks, and
//!   [`MonitorBank`] drives many monitors over one shared trace feed,
//!   so a single simulation stream serves a whole verification plan;
//! * **idle-run scan** — every monitor-major caller ([`BatchExec::feed`],
//!   [`MonitorBank::feed`], the single-clock groups of
//!   [`MonitorBank::feed_global`] and the clock-major multi-clock path)
//!   consumes a slice through one loop, `ExecState::run`. A synthesized
//!   monitor spends most ticks in a state that takes its own
//!   action-free self-loop (the fallback `s --[true]--> s0` from the
//!   initial state, say). Compilation records per non-final state its
//!   *stay arm*, the first arm that targets the state and has no
//!   actions, when it and every arm before it are narrowed mask guards.
//!   While the member takes that arm, neither its state nor its board
//!   changes, so on entry the arms' scoreboard halves are evaluated
//!   once, and ticks are then tested on trace masks alone: a tick stays
//!   iff the stay arm holds and no live arm before it does. The first
//!   tick that leaves goes through the full step, so hits, actions,
//!   underflows and the non-total panic are those of the per-tick
//!   step. [`MonitorBank::skip_ticks`] counts the ticks the scan
//!   advanced.
//!
//! Verdict equivalence with the step-wise path (same match ticks, same
//! final state, same underflow count) is pinned by unit tests here and
//! by the `batch_equivalence` property suite at the workspace root,
//! which also pins [`BatchExec::feed`] against a loop of
//! [`BatchExec::step`].

use std::fmt;

use cesc_expr::{Expr, SymbolId, Valuation};

use crate::monitor::{Monitor, ScanReport, StateId};
use crate::scoreboard::Action;

/// Recommended chunk size for producers that stream valuations into
/// [`BatchExec::feed`] / [`MonitorBank::feed`] (the VCD reader and the
/// `cesc check` CLI use it): large enough to amortise per-chunk
/// dispatch, small enough to keep the resident decode buffer a few
/// tens of KiB.
pub const BATCH_CHUNK: usize = 4096;

/// A guard compiled to bitmask form: a conjunction of literals over
/// trace symbols and scoreboard presence.
///
/// The guard holds iff
/// `v ⊇ pos  ∧  v ∩ neg = ∅  ∧  sb ⊇ chk_pos  ∧  sb ∩ chk_neg = ∅`.
/// A constant-false guard is encoded by setting one bit in both `pos`
/// and `neg` (no valuation satisfies both), keeping the struct at
/// exactly 64 bytes — one cache line — with no extra flag test on the
/// hot path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GuardMask {
    pub(crate) pos: u128,
    pub(crate) neg: u128,
    pub(crate) chk_pos: u128,
    pub(crate) chk_neg: u128,
}

impl GuardMask {
    #[inline(always)]
    fn eval(&self, v: u128, sb: u128) -> bool {
        v & self.pos == self.pos
            && v & self.neg == 0
            && sb & self.chk_pos == self.chk_pos
            && sb & self.chk_neg == 0
    }

    fn mark_false(&mut self) {
        self.pos |= 1;
        self.neg |= 1;
    }

    /// Tries to build a mask from `expr`; `negated` tracks parity under
    /// `Not`. Returns `None` for guards that are not conjunctions of
    /// literals.
    fn build(expr: &Expr, negated: bool, acc: &mut GuardMask) -> Option<()> {
        match expr {
            Expr::Const(b) => {
                if *b == negated {
                    acc.mark_false();
                }
                Some(())
            }
            Expr::Sym(id) => {
                let bit = 1u128 << id.index();
                if negated {
                    acc.neg |= bit;
                } else {
                    acc.pos |= bit;
                }
                Some(())
            }
            Expr::ChkEvt(id) => {
                let bit = 1u128 << id.index();
                if negated {
                    acc.chk_neg |= bit;
                } else {
                    acc.chk_pos |= bit;
                }
                Some(())
            }
            Expr::Not(inner) => GuardMask::build(inner, !negated, acc),
            Expr::And(parts) if !negated => {
                for p in parts {
                    GuardMask::build(p, false, acc)?;
                }
                Some(())
            }
            // ¬(a ∧ b), disjunctions: not a literal conjunction
            _ => None,
        }
    }
}

/// Table layout for [`CompiledMonitor::with_options`] — the
/// compile-level half of the optimization pass pipeline (the
/// automaton-level half is [`crate::optimize`]).
///
/// There are exactly two layouts. [`CompiledMonitor::new`] /
/// [`Monitor::compiled`] use [`CompileOptions::raw`], the historical
/// table layout; the `cesc-spec` front door compiles with
/// [`CompileOptions::optimized`] unless `--no-opt` asks otherwise.
/// Either way the executed semantics are identical (pinned by the
/// `opt_equivalence` property suite) — the layout only changes table
/// size, memory footprint and guard width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Deduplicate identical postfix guard programs into one shared
    /// program pool entry (guard CSE). Synthesized monitors repeat the
    /// same slide-back guard from many states, so the op pool — and
    /// with it [`CompiledMonitor::step_cost`]'s program surcharge —
    /// shrinks accordingly.
    dedupe_programs: bool,
    /// Renumber scoreboard symbols (the `Chk_evt`/`Add_evt`/`Del_evt`
    /// targets) into a dense slot space, so the count table is sized
    /// by the symbols with scoreboard traffic instead of by the
    /// highest symbol index in the alphabet. Guard masks, program
    /// `Chk` ops, packed actions and the presence bitmap all move to
    /// the dense space together; [`CompiledMonitor::touched_symbols`]
    /// keeps reporting the *global* footprint.
    narrow_slots: bool,
    /// Narrow guard bitmasks to the observed alphabet: when a guard's
    /// trace and scoreboard masks all fit in 64 bits (every document
    /// with ≤ 64 symbols — all the protocol case studies), it is
    /// evaluated with `u64` operations instead of four `u128`
    /// tests — the measurable hot-path win of the pass pipeline on
    /// monitors the automaton passes cannot shrink.
    narrow_masks: bool,
}

impl CompileOptions {
    /// All passes on — what the `cesc-spec` pipeline compiles with.
    pub fn optimized() -> Self {
        CompileOptions {
            dedupe_programs: true,
            narrow_slots: true,
            narrow_masks: true,
        }
    }

    /// All passes off: the historical table layout.
    pub fn raw() -> Self {
        CompileOptions {
            dedupe_programs: false,
            narrow_slots: false,
            narrow_masks: false,
        }
    }
}

/// One instruction of a postfix guard program (the general-guard slow
/// path; still allocation-free at evaluation time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum GuardOp {
    /// Push the truth of a trace symbol.
    Sym(u32),
    /// Push the scoreboard presence of an event.
    Chk(u32),
    /// Push a constant.
    Const(bool),
    /// Negate the top of stack.
    Not,
    /// Replace the top `n` values with their conjunction.
    And(u16),
    /// Replace the top `n` values with their disjunction.
    Or(u16),
}

fn compile_ops(expr: &Expr, out: &mut Vec<GuardOp>) {
    match expr {
        Expr::Const(b) => out.push(GuardOp::Const(*b)),
        Expr::Sym(id) => out.push(GuardOp::Sym(id.index() as u32)),
        Expr::ChkEvt(id) => out.push(GuardOp::Chk(id.index() as u32)),
        Expr::Not(inner) => {
            compile_ops(inner, out);
            out.push(GuardOp::Not);
        }
        Expr::And(parts) => {
            for p in parts {
                compile_ops(p, out);
            }
            out.push(GuardOp::And(parts.len() as u16));
        }
        Expr::Or(parts) => {
            for p in parts {
                compile_ops(p, out);
            }
            out.push(GuardOp::Or(parts.len() as u16));
        }
    }
}

/// A scoreboard action in packed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackedAction {
    Add(u32),
    Del(u32),
}

/// A [`GuardMask`] narrowed to the observed alphabet: all four masks
/// fit in 64 bits, so the guard evaluates with half-width operations
/// (see [`CompileOptions::narrow_masks`]). Bits of the valuation or
/// scoreboard above 63 are unconstrained by construction — the masks
/// never mention them — so truncating the inputs is exact.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GuardMask64 {
    pub(crate) pos: u64,
    pub(crate) neg: u64,
    pub(crate) chk_pos: u64,
    pub(crate) chk_neg: u64,
}

impl GuardMask64 {
    #[inline(always)]
    fn eval(&self, v: u128, sb: u128) -> bool {
        self.trace_holds(v as u64) && self.chk_holds(sb as u64)
    }

    /// The guard's trace half: `v ⊇ pos ∧ v ∩ neg = ∅`.
    #[inline(always)]
    fn trace_holds(&self, v: u64) -> bool {
        v & self.pos == self.pos && v & self.neg == 0
    }

    /// The guard's scoreboard half: `sb ⊇ chk_pos ∧ sb ∩ chk_neg = ∅`.
    #[inline(always)]
    fn chk_holds(&self, sb: u64) -> bool {
        sb & self.chk_pos == self.chk_pos && sb & self.chk_neg == 0
    }
}

impl GuardMask {
    /// The half-width form, when every mask fits in 64 bits.
    fn narrowed(&self) -> Option<GuardMask64> {
        let fits = |m: u128| u64::try_from(m).ok();
        Some(GuardMask64 {
            pos: fits(self.pos)?,
            neg: fits(self.neg)?,
            chk_pos: fits(self.chk_pos)?,
            chk_neg: fits(self.chk_neg)?,
        })
    }
}

/// How a compiled transition's guard is evaluated. The mask variants
/// are stored inline so the common case costs one load and a handful
/// of register tests, no further indirection.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GuardKind {
    /// Bitmask conjunction over the full 128-bit symbol space.
    Mask(GuardMask),
    /// Bitmask conjunction narrowed to the observed alphabet
    /// ([`CompileOptions::narrow_masks`]).
    Mask64(GuardMask64),
    /// Postfix program: `(offset, len)` into the op pool.
    Program(u32, u32),
}

/// A [`Monitor`] compiled to flat, index-based tables.
///
/// Build once with [`CompiledMonitor::new`] (or
/// [`Monitor::compiled`]), then execute with [`BatchExec`] or a
/// [`MonitorBank`]. Compilation preserves transition priority order,
/// action order and scoreboard semantics exactly, so verdicts match
/// the step-wise executor.
#[derive(Debug, Clone)]
pub struct CompiledMonitor {
    name: String,
    clock: String,
    /// Per-state range `state_off[s]..state_off[s+1]` into the
    /// transition arrays.
    state_off: Vec<u32>,
    /// Transition targets, flat, priority order within each state.
    targets: Vec<u32>,
    guards: Vec<GuardKind>,
    mask_guards: usize,
    ops: Vec<GuardOp>,
    /// Per-transition range `action_off[t]..action_off[t+1]` into
    /// `actions`.
    action_off: Vec<u32>,
    actions: Vec<PackedAction>,
    initial: u32,
    final_state: u32,
    /// Count-table size (see [`CompileOptions::narrow_slots`] for the
    /// two sizing regimes).
    slots: usize,
    /// Global-symbol mask backing the scoreboard slot space; slot `k`
    /// is the `k`-th set bit when `dense_slots`, identity otherwise.
    /// Kept so the static-analysis layer (`sat.rs`) can map `Chk`
    /// operands back to global symbols regardless of compile options.
    sb_mask: u128,
    /// Whether `Chk` operands and mask `chk_*` bits live in the dense
    /// slot space ([`CompileOptions::narrow_slots`]).
    dense_slots: bool,
    /// Symbols this monitor reads from or writes to the scoreboard
    /// (`Chk_evt` targets plus `Add_evt`/`Del_evt` targets), always in
    /// the *global* symbol space regardless of slot narrowing. Two
    /// monitors with disjoint touched sets cannot observe each other
    /// through a shared scoreboard — `CompiledMultiClock` uses this to
    /// pick its clock-major fast path.
    touched: u128,
    /// Per state, the flat index of its *stay arm* — the first arm
    /// that targets the state itself and carries no actions — or
    /// [`NO_STAY`] when the state has none, is final, or has a guard
    /// other than [`GuardKind::Mask64`] at or before it. See
    /// [`IdleScan`].
    stay: Vec<u32>,
}

/// [`CompiledMonitor::stay`] entry of a state that never idle-scans.
const NO_STAY: u32 = u32::MAX;

/// Bitmask (global symbol space) of every symbol with scoreboard
/// traffic in `monitor`: `Chk_evt` guard targets plus
/// `Add_evt`/`Del_evt` action targets.
pub(crate) fn sb_symbol_mask(monitor: &Monitor) -> u128 {
    let mut mask = 0u128;
    for s in 0..monitor.state_count() {
        for t in monitor.transitions_from(StateId::from_index(s)) {
            mask |= t.guard.chk_targets().bits();
            for a in &t.actions {
                if let Action::AddEvt(es) | Action::DelEvt(es) = a {
                    for &e in es {
                        mask |= 1u128 << e.index();
                    }
                }
            }
        }
    }
    mask
}

/// Rewrites each set bit `i` of `mask` to bit `rank(i)` in the dense
/// slot space defined by `slot_mask` (which must contain `mask`).
fn densify(mask: u128, slot_mask: u128) -> u128 {
    debug_assert_eq!(mask & !slot_mask, 0, "mask outside the slot space");
    let mut out = 0u128;
    let mut rest = mask;
    while rest != 0 {
        let i = rest.trailing_zeros();
        out |= 1u128 << (slot_mask & ((1u128 << i) - 1)).count_ones();
        rest &= rest - 1;
    }
    out
}

impl CompiledMonitor {
    /// Compiles `monitor` into flat form with the default (raw) table
    /// layout — see [`CompiledMonitor::with_options`] for the compile-
    /// level optimization passes.
    pub fn new(monitor: &Monitor) -> Self {
        Self::with_options(monitor, &CompileOptions::raw())
    }

    /// Compiles `monitor` into flat form under `opts` (guard-program
    /// deduplication, scoreboard-slot and mask narrowing). Semantics
    /// are identical for both layouts; only table sizes change.
    pub fn with_options(monitor: &Monitor, opts: &CompileOptions) -> Self {
        Self::build(monitor, opts, None)
    }

    /// Full compile entry point. `shared_sb` widens the scoreboard
    /// slot space to a superset mask (global symbol space) so several
    /// monitors sharing one board — the locals of a
    /// [`crate::CompiledMultiClock`] — agree on slot assignment.
    pub(crate) fn build(
        monitor: &Monitor,
        opts: &CompileOptions,
        shared_sb: Option<u128>,
    ) -> Self {
        let own_sb = sb_symbol_mask(monitor);
        let sb_mask = match shared_sb {
            Some(shared) => {
                debug_assert_eq!(own_sb & !shared, 0, "shared slot space must cover the monitor");
                shared
            }
            None => own_sb,
        };
        let slot_of = |i: usize| -> u32 {
            if opts.narrow_slots {
                (sb_mask & ((1u128 << i) - 1)).count_ones()
            } else {
                i as u32
            }
        };

        let states = monitor.state_count();
        let mut state_off = Vec::with_capacity(states + 1);
        let mut targets = Vec::new();
        let mut guards: Vec<GuardKind> = Vec::new();
        let mut mask_guards = 0usize;
        let mut ops: Vec<GuardOp> = Vec::new();
        let mut pool: std::collections::HashMap<Vec<GuardOp>, (u32, u32)> =
            std::collections::HashMap::new();
        let mut program_buf: Vec<GuardOp> = Vec::new();
        let mut action_off = vec![0u32];
        let mut actions = Vec::new();
        let mut max_symbol = 0usize;
        let mut saw_symbol = false;
        let mut touched = 0u128;
        let mut note = |id: SymbolId| {
            max_symbol = max_symbol.max(id.index());
            saw_symbol = true;
        };

        for s in 0..states {
            state_off.push(targets.len() as u32);
            for t in monitor.transitions_from(StateId::from_index(s)) {
                targets.push(t.target.index() as u32);

                for id in t.guard.symbols().iter().chain(t.guard.chk_targets().iter()) {
                    note(id);
                }
                touched |= t.guard.chk_targets().bits();
                let mut mask = GuardMask::default();
                match GuardMask::build(&t.guard, false, &mut mask) {
                    Some(()) => {
                        if opts.narrow_slots {
                            mask.chk_pos = densify(mask.chk_pos, sb_mask);
                            mask.chk_neg = densify(mask.chk_neg, sb_mask);
                        }
                        match mask.narrowed().filter(|_| opts.narrow_masks) {
                            Some(narrow) => guards.push(GuardKind::Mask64(narrow)),
                            None => guards.push(GuardKind::Mask(mask)),
                        }
                        mask_guards += 1;
                    }
                    None => {
                        program_buf.clear();
                        compile_ops(&t.guard, &mut program_buf);
                        if opts.narrow_slots {
                            for op in &mut program_buf {
                                if let GuardOp::Chk(i) = op {
                                    *i = slot_of(*i as usize);
                                }
                            }
                        }
                        let (start, len) = if opts.dedupe_programs {
                            match pool.get(&program_buf) {
                                Some(&cached) => cached,
                                None => {
                                    let start = ops.len() as u32;
                                    ops.extend_from_slice(&program_buf);
                                    let entry = (start, program_buf.len() as u32);
                                    pool.insert(program_buf.clone(), entry);
                                    entry
                                }
                            }
                        } else {
                            let start = ops.len() as u32;
                            ops.extend_from_slice(&program_buf);
                            (start, program_buf.len() as u32)
                        };
                        guards.push(GuardKind::Program(start, len));
                    }
                }

                for a in &t.actions {
                    match a {
                        Action::Null => {}
                        Action::AddEvt(es) => {
                            for &e in es {
                                note(e);
                                touched |= 1u128 << e.index();
                                actions.push(PackedAction::Add(slot_of(e.index())));
                            }
                        }
                        Action::DelEvt(es) => {
                            for &e in es {
                                note(e);
                                touched |= 1u128 << e.index();
                                actions.push(PackedAction::Del(slot_of(e.index())));
                            }
                        }
                    }
                }
                action_off.push(actions.len() as u32);
            }
        }
        state_off.push(targets.len() as u32);

        let final_state = monitor.final_state().index();
        let stay = (0..states)
            .map(|s| {
                if s == final_state {
                    return NO_STAY; // every entry into the final state is a hit
                }
                for t in state_off[s] as usize..state_off[s + 1] as usize {
                    if !matches!(guards[t], GuardKind::Mask64(_)) {
                        return NO_STAY;
                    }
                    if targets[t] as usize == s && action_off[t] == action_off[t + 1] {
                        return t as u32;
                    }
                }
                NO_STAY
            })
            .collect();

        let slots = if opts.narrow_slots {
            sb_mask.count_ones() as usize
        } else if saw_symbol {
            max_symbol + 1
        } else {
            0
        };

        CompiledMonitor {
            name: monitor.name().to_owned(),
            clock: monitor.clock().to_owned(),
            state_off,
            targets,
            guards,
            mask_guards,
            ops,
            action_off,
            actions,
            initial: monitor.initial().index() as u32,
            final_state: final_state as u32,
            slots,
            sb_mask,
            dense_slots: opts.narrow_slots,
            touched,
            stay,
        }
    }

    /// Transition-array range of state `s` (priority order preserved).
    pub(crate) fn state_range(&self, s: usize) -> std::ops::Range<usize> {
        self.state_off[s] as usize..self.state_off[s + 1] as usize
    }

    /// Flat guard table, indexed like `targets`.
    pub(crate) fn guard_kinds(&self) -> &[GuardKind] {
        &self.guards
    }

    /// The shared postfix op pool [`GuardKind::Program`] ranges index.
    pub(crate) fn guard_ops(&self) -> &[GuardOp] {
        &self.ops
    }

    /// Target state index of flat transition `t`.
    pub(crate) fn target_of(&self, t: usize) -> usize {
        self.targets[t] as usize
    }

    /// Initial state index.
    pub(crate) fn initial_index(&self) -> usize {
        self.initial as usize
    }

    /// Final state index.
    pub(crate) fn final_index(&self) -> usize {
        self.final_state as usize
    }

    /// Global symbol index of scoreboard slot `slot` (identity unless
    /// the monitor was compiled with [`CompileOptions::narrow_slots`]).
    pub(crate) fn slot_symbol(&self, slot: u32) -> u32 {
        if !self.dense_slots {
            return slot;
        }
        let mut rest = self.sb_mask;
        for _ in 0..slot {
            rest &= rest - 1;
        }
        rest.trailing_zeros()
    }

    /// Expands a slot-space `chk` bitmask back to the global symbol
    /// space (identity unless slots were narrowed).
    pub(crate) fn expand_chk_mask(&self, dense: u128) -> u128 {
        if !self.dense_slots {
            return dense;
        }
        let mut out = 0u128;
        let mut rest = dense;
        while rest != 0 {
            out |= 1u128 << self.slot_symbol(rest.trailing_zeros());
            rest &= rest - 1;
        }
        out
    }

    /// Number of count slots a scoreboard for this monitor needs.
    pub(crate) fn count_slots(&self) -> usize {
        self.slots
    }

    /// Size of the count table a scoreboard for this monitor
    /// allocates: the dense scoreboard-symbol count under
    /// [`CompileOptions::optimized`] (slot narrowing), one slot per
    /// alphabet symbol up to the highest mentioned index under
    /// [`CompileOptions::raw`].
    pub fn scoreboard_slots(&self) -> usize {
        self.slots
    }

    /// Total instructions in the postfix guard-program pool (shared
    /// between transitions under [`CompileOptions::optimized`], which
    /// deduplicates identical programs).
    pub fn program_op_count(&self) -> usize {
        self.ops.len()
    }

    /// Bitmask of symbols with scoreboard traffic (`Chk_evt` reads plus
    /// `Add_evt`/`Del_evt` writes).
    ///
    /// Two monitors with disjoint touched sets cannot observe each
    /// other through a shared scoreboard; besides selecting
    /// [`crate::CompiledMultiClock`]'s clock-major fast path, the mask
    /// is the coupling signal `cesc-par`'s shard planner uses to
    /// co-locate scoreboard-coupled monitors on one shard.
    pub fn touched_symbols(&self) -> u128 {
        self.touched
    }

    /// Footprint-derived per-tick cost weight, the unit `cesc-par`'s
    /// shard planner balances across workers.
    ///
    /// Models the dominant hot-path work of one execution step: the
    /// priority scan evaluates up to the state's transition guards
    /// (mask guards ≈ one cache line of `u128` tests, program guards ≈
    /// their op count), plus scoreboard action traffic. The estimate
    /// is a *relative* weight — twice the cost means roughly twice the
    /// per-tick work — never a latency in any absolute unit.
    pub fn step_cost(&self) -> u64 {
        let states = self.state_count().max(1) as u64;
        // guards scanned per tick, averaged over states (priority scan
        // stops early, so the average over states upper-bounds it).
        // Program work is summed per *guard*, not from the op pool —
        // guard CSE shares storage, not evaluation time.
        let program_work: u64 = self
            .guards
            .iter()
            .map(|g| match g {
                GuardKind::Program(_, len) => u64::from(*len),
                GuardKind::Mask(_) | GuardKind::Mask64(_) => 0,
            })
            .sum();
        let guard_scan = self.transition_count() as u64 + program_work;
        let action_traffic = self.actions.len() as u64;
        (guard_scan + action_traffic).div_ceil(states).max(1)
    }

    /// The source monitor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The clock domain the monitor is synchronous to.
    pub fn clock(&self) -> &str {
        &self.clock
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_off.len() - 1
    }

    /// Total number of transitions.
    pub fn transition_count(&self) -> usize {
        self.targets.len()
    }

    /// How many transitions took the bitmask fast path (the rest run
    /// postfix programs).
    pub fn mask_guard_count(&self) -> usize {
        self.mask_guards
    }

    /// Creates a fresh executor positioned at the initial state.
    pub fn executor(&self) -> BatchExec<'_> {
        BatchExec {
            monitor: self,
            state: ExecState::new(self),
            board: BatchBoard::sized(self.count_slots()),
        }
    }
}

/// The counts-only scoreboard of the batch engine: a flat count array
/// plus a presence bitmap so `Chk_evt` masks cost one `u128` test.
///
/// Separated from [`ExecState`] so it can be *shared*: single-clock
/// executors own one board each, while [`crate::CompiledMultiClock`]
/// threads one board through every local monitor — the batched form of
/// the paper's shared scoreboard.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchBoard {
    /// Per-symbol occurrence counts.
    counts: Vec<u32>,
    /// Bit `i` set iff `counts[i] > 0`.
    pub(crate) sb_bits: u128,
    underflows: u64,
}

impl BatchBoard {
    pub(crate) fn sized(slots: usize) -> Self {
        BatchBoard {
            counts: vec![0; slots],
            sb_bits: 0,
            underflows: 0,
        }
    }

    pub(crate) fn underflows(&self) -> u64 {
        self.underflows
    }

    pub(crate) fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.sb_bits = 0;
        self.underflows = 0;
    }
}

/// Most prefix arms an [`IdleScan`] tests per tick. A state with more
/// arms ahead of its stay arm whose scoreboard half holds is stepped
/// tick by tick.
const IDLE_PREFIX_CAP: usize = 4;

/// The mask-only filter of a state's stay arm, built on entry into the
/// state against the current scoreboard.
///
/// While a member takes its state's stay arm (an action-free
/// self-loop), neither its state nor its board changes, so the
/// scoreboard presence bits `sb` are fixed. A tick `v` therefore stays
/// iff no arm ahead of the stay arm holds at `(v, sb)` and the stay arm
/// does. Evaluating every arm's scoreboard half once against `sb`
/// leaves only trace masks to test per tick: prefix arms whose
/// scoreboard half fails can never fire and are dropped, and if the
/// stay arm's own scoreboard half fails there is nothing to scan.
#[derive(Debug, Clone, Copy)]
struct IdleScan {
    /// The stay arm's guard; only its trace half is tested.
    stay: GuardMask64,
    /// The live prefix arms' guards, `live` of them.
    pre: [GuardMask64; IDLE_PREFIX_CAP],
    live: usize,
}

impl IdleScan {
    /// The filter for `state` under scoreboard bits `sb`, or `None` when
    /// the state has no stay arm, the stay arm's scoreboard half fails,
    /// or more than [`IDLE_PREFIX_CAP`] prefix arms stay live.
    #[inline(always)]
    fn enter(m: &CompiledMonitor, state: u32, sb: u128) -> Option<IdleScan> {
        let stay = m.stay[state as usize];
        if stay == NO_STAY {
            return None;
        }
        let sb = sb as u64; // Mask64 guards never mention bits above 63
        let mask = |t: usize| match m.guards[t] {
            GuardKind::Mask64(g) => g,
            _ => unreachable!("stay prefixes are Mask64 guards (checked at build)"),
        };
        let own = mask(stay as usize);
        if !own.chk_holds(sb) {
            return None;
        }
        let mut scan = IdleScan {
            stay: own,
            pre: [GuardMask64::default(); IDLE_PREFIX_CAP],
            live: 0,
        };
        for t in m.state_off[state as usize] as usize..stay as usize {
            let g = mask(t);
            if g.chk_holds(sb) {
                if scan.live == IDLE_PREFIX_CAP {
                    return None;
                }
                scan.pre[scan.live] = g;
                scan.live += 1;
            }
        }
        Some(scan)
    }

    /// Length of the run of leading ticks of `vals` that take the stay
    /// arm.
    #[inline(always)]
    fn idle_len(&self, vals: &[Valuation]) -> usize {
        match self.live {
            0 => self.idle_len_n::<0>(vals),
            1 => self.idle_len_n::<1>(vals),
            2 => self.idle_len_n::<2>(vals),
            3 => self.idle_len_n::<3>(vals),
            _ => self.idle_len_n::<IDLE_PREFIX_CAP>(vals),
        }
    }

    /// [`IdleScan::idle_len`] with the live prefix count fixed at
    /// compile time, so the per-tick test is straight-line code.
    #[inline(always)]
    fn idle_len_n<const N: usize>(&self, vals: &[Valuation]) -> usize {
        vals.iter()
            .position(|v| {
                let v = v.bits() as u64;
                !self.stay.trace_holds(v) | self.pre[..N].iter().any(|g| g.trace_holds(v))
            })
            .unwrap_or(vals.len())
    }
}

/// The mutable control state of one compiled monitor, separated from
/// the table (so banks own many runtimes over shared compilation
/// artifacts) and from the scoreboard (so multi-clock locals can share
/// one board).
#[derive(Debug, Clone)]
pub(crate) struct ExecState {
    pub(crate) state: u32,
    pub(crate) ticks: u64,
    /// Ticks [`ExecState::run`] advanced by an [`IdleScan`] (counted in
    /// `ticks` too).
    pub(crate) skipped: u64,
    /// Reused evaluation stack for program guards.
    stack: Vec<bool>,
}

impl ExecState {
    pub(crate) fn new(m: &CompiledMonitor) -> Self {
        ExecState {
            state: m.initial,
            ticks: 0,
            skipped: 0,
            stack: Vec::with_capacity(8),
        }
    }

    /// Consumes `vals` in order against `board`, calling `hit(i)` for
    /// every index `i` whose tick enters the final state — the same
    /// outcome as [`ExecState::step`] on each element.
    ///
    /// While the member sits in a state with a stay arm, ticks that
    /// take it are advanced by an [`IdleScan`] over trace masks alone;
    /// the first tick that leaves goes through [`ExecState::step`], so
    /// hits, actions, underflows and the non-total panic are unchanged.
    #[inline(always)]
    pub(crate) fn run(
        &mut self,
        m: &CompiledMonitor,
        vals: &[Valuation],
        board: &mut BatchBoard,
        mut hit: impl FnMut(usize),
    ) {
        let mut i = 0;
        while i < vals.len() {
            if let Some(scan) = IdleScan::enter(m, self.state, board.sb_bits) {
                let idle = scan.idle_len(&vals[i..]);
                self.ticks += idle as u64;
                self.skipped += idle as u64;
                i += idle;
                if i == vals.len() {
                    break;
                }
            }
            if self.step(m, vals[i], board) {
                hit(i);
            }
            i += 1;
        }
    }

    #[inline(always)]
    fn eval_program(&mut self, m: &CompiledMonitor, start: u32, len: u32, v: u128, sb: u128) -> bool {
        self.stack.clear();
        for op in &m.ops[start as usize..(start + len) as usize] {
            match *op {
                GuardOp::Sym(i) => self.stack.push(v >> i & 1 == 1),
                GuardOp::Chk(i) => self.stack.push(sb >> i & 1 == 1),
                GuardOp::Const(b) => self.stack.push(b),
                GuardOp::Not => {
                    let top = self.stack.last_mut().expect("well-formed program");
                    *top = !*top;
                }
                GuardOp::And(n) => {
                    let at = self.stack.len() - n as usize;
                    let r = self.stack[at..].iter().all(|&b| b);
                    self.stack.truncate(at);
                    self.stack.push(r);
                }
                GuardOp::Or(n) => {
                    let at = self.stack.len() - n as usize;
                    let r = self.stack[at..].iter().any(|&b| b);
                    self.stack.truncate(at);
                    self.stack.push(r);
                }
            }
        }
        self.stack.pop().expect("program leaves one value")
    }

    /// Consumes one valuation against `board`; returns whether the
    /// final state was entered.
    ///
    /// # Panics
    ///
    /// Panics if no transition is enabled (the transition relation is
    /// not total).
    #[inline(always)]
    pub(crate) fn step(&mut self, m: &CompiledMonitor, v: Valuation, board: &mut BatchBoard) -> bool {
        let bits = v.bits();
        let lo = m.state_off[self.state as usize] as usize;
        let hi = m.state_off[self.state as usize + 1] as usize;
        let mut taken = usize::MAX;
        for (i, guard) in m.guards[lo..hi].iter().enumerate() {
            let holds = match *guard {
                GuardKind::Mask64(mask) => mask.eval(bits, board.sb_bits),
                GuardKind::Mask(mask) => mask.eval(bits, board.sb_bits),
                GuardKind::Program(start, len) => {
                    self.eval_program(m, start, len, bits, board.sb_bits)
                }
            };
            if holds {
                taken = lo + i;
                break;
            }
        }
        if taken == usize::MAX {
            panic!(
                "monitor `{}` has no enabled transition from s{} — transition relation not total",
                m.name, self.state
            );
        }
        for a in &m.actions[m.action_off[taken] as usize..m.action_off[taken + 1] as usize] {
            match *a {
                PackedAction::Add(i) => {
                    let c = &mut board.counts[i as usize];
                    *c += 1;
                    board.sb_bits |= 1u128 << i;
                }
                PackedAction::Del(i) => {
                    let c = &mut board.counts[i as usize];
                    if *c > 0 {
                        *c -= 1;
                        if *c == 0 {
                            board.sb_bits &= !(1u128 << i);
                        }
                    } else {
                        board.underflows += 1;
                    }
                }
            }
        }
        self.state = m.targets[taken];
        self.ticks += 1;
        self.state == m.final_state
    }

    pub(crate) fn reset(&mut self, m: &CompiledMonitor) {
        self.state = m.initial;
        self.ticks = 0;
        self.skipped = 0;
    }

    pub(crate) fn ticks(&self) -> u64 {
        self.ticks
    }
}

/// Streaming executor over one [`CompiledMonitor`].
///
/// Feed valuation chunks with [`BatchExec::feed`]; state persists
/// across chunks, so any chunking of a trace yields the same verdict
/// as one pass (property-tested).
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, SynthOptions};
/// use cesc_expr::Valuation;
///
/// let doc = parse_document(
///     "scesc hs on clk { instances { M } events { req, ack } \
///      tick { M: req } tick { M: ack } }",
/// ).unwrap();
/// let m = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default())?;
/// let req = doc.alphabet.lookup("req").unwrap();
/// let ack = doc.alphabet.lookup("ack").unwrap();
///
/// let compiled = m.compiled();
/// let mut exec = compiled.executor();
/// let mut hits = Vec::new();
/// exec.feed(&[Valuation::of([req])], &mut hits);
/// exec.feed(&[Valuation::of([ack])], &mut hits);
/// assert_eq!(hits, vec![1]);
/// # Ok::<(), cesc_core::SynthError>(())
/// ```
#[derive(Debug)]
pub struct BatchExec<'m> {
    monitor: &'m CompiledMonitor,
    state: ExecState,
    board: BatchBoard,
}

impl BatchExec<'_> {
    /// Consumes one valuation; returns whether the final state was
    /// entered (scenario detected at this tick).
    #[inline]
    pub fn step(&mut self, v: Valuation) -> bool {
        self.state.step(self.monitor, v, &mut self.board)
    }

    /// Consumes a chunk of valuations, appending the absolute tick
    /// index of every detection to `hits`.
    pub fn feed(&mut self, chunk: &[Valuation], hits: &mut Vec<u64>) {
        let base = self.state.ticks;
        self.state.run(self.monitor, chunk, &mut self.board, |i| {
            hits.push(base + i as u64)
        });
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.state.ticks
    }

    /// Ticks [`BatchExec::feed`] advanced by the idle-run scan, without
    /// a full step (included in [`BatchExec::ticks`]).
    pub fn skip_ticks(&self) -> u64 {
        self.state.skipped
    }

    /// Current state index.
    pub fn state_index(&self) -> usize {
        self.state.state as usize
    }

    /// `Del_evt` underflows observed so far.
    pub fn underflows(&self) -> u64 {
        self.board.underflows
    }

    /// Resets state and scoreboard to the initial configuration.
    pub fn reset(&mut self) {
        self.state.reset(self.monitor);
        self.board.reset();
    }

    /// Closes the stream, producing a [`ScanReport`] consistent with
    /// [`Monitor::scan`] on the same input. `hits` is the accumulator
    /// passed to [`BatchExec::feed`].
    pub fn finish(&self, hits: Vec<u64>) -> ScanReport {
        ScanReport {
            matches: hits,
            ticks: self.state.ticks,
            final_state: StateId::from_index(self.state.state as usize),
            underflows: self.board.underflows,
        }
    }
}

impl Monitor {
    /// Compiles this monitor for batched, allocation-free execution.
    pub fn compiled(&self) -> CompiledMonitor {
        CompiledMonitor::new(self)
    }

    /// Compiles this monitor under explicit [`CompileOptions`] (the
    /// `cesc-spec` pipeline compiles with
    /// [`CompileOptions::optimized`]).
    pub fn compiled_with(&self, opts: &CompileOptions) -> CompiledMonitor {
        CompiledMonitor::with_options(self, opts)
    }

    /// Runs the monitor over `trace` through the compiled batch
    /// engine. The slice is already resident, so it is fed in one
    /// call; chunking earns its keep at the producers
    /// ([`cesc_trace::GlobalVcdStream`], the `cesc-sim` harnesses), whose
    /// chunks [`BatchExec::feed`] accepts incrementally.
    ///
    /// Produces a report identical to [`Monitor::scan`] on the same
    /// input (same match ticks, final state and underflow count), at a
    /// fraction of the cost — see the `bank_throughput` bench.
    pub fn scan_batch(&self, trace: &[Valuation]) -> ScanReport {
        let compiled = self.compiled();
        let mut exec = compiled.executor();
        let mut hits = Vec::new();
        exec.feed(trace, &mut hits);
        exec.finish(hits)
    }
}

/// Many compiled monitors driven by one shared trace feed — the
/// deployment where a single simulation stream serves a whole
/// verification plan (e.g. the OCP, AMBA and handshake charts at
/// once).
///
/// All monitors must be synchronous to the *same* clock as the feed;
/// for multi-clock plans keep one bank per domain and split the global
/// run with [`cesc_trace::GlobalRun::project`]. Each monitor keeps its
/// private scoreboard, exactly as independent [`Monitor::scan`] calls
/// would.
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, MonitorBank, SynthOptions};
/// use cesc_expr::Valuation;
///
/// let doc = parse_document(
///     "scesc a on clk { instances { M } events { x, y } tick { M: x } }\
///      scesc b on clk { instances { M } events { x, y } tick { M: x } tick { M: y } }",
/// ).unwrap();
/// let ma = synthesize(doc.chart("a").unwrap(), &SynthOptions::default()).unwrap();
/// let mb = synthesize(doc.chart("b").unwrap(), &SynthOptions::default()).unwrap();
///
/// let mut bank = MonitorBank::new();
/// bank.add(&ma);
/// bank.add(&mb);
///
/// let x = doc.alphabet.lookup("x").unwrap();
/// let y = doc.alphabet.lookup("y").unwrap();
/// bank.feed(&[Valuation::of([x]), Valuation::of([y])]);
/// let reports = bank.reports();
/// assert_eq!(reports[0].matches, vec![0]); // `a` fires on x
/// assert_eq!(reports[1].matches, vec![1]); // `b` fires on x→y
/// ```
#[derive(Debug, Default)]
pub struct MonitorBank {
    pub(crate) monitors: Vec<CompiledMonitor>,
    pub(crate) states: Vec<ExecState>,
    pub(crate) boards: Vec<BatchBoard>,
    pub(crate) hits: Vec<Vec<u64>>,
    /// Multi-clock members (compiled table + runtime); advanced only by
    /// [`MonitorBank::feed_global`].
    pub(crate) multis: Vec<(
        crate::multibatch::CompiledMultiClock,
        crate::multibatch::MultiClockBatchState,
    )>,
    pub(crate) multi_hits: Vec<Vec<u64>>,
    /// `implies(...)` members (compiled tables + runtime), run on the
    /// projection of their clock like the single-clock members.
    pub(crate) implications: Vec<(crate::CompiledImplication, crate::ImplicationState)>,
    /// Reused per-domain projection buffers for `feed_global`.
    pub(crate) proj_vals: Vec<Valuation>,
    pub(crate) proj_times: Vec<u64>,
    /// The [`cesc_trace::ClockSet`] the members are currently bound to
    /// (cleared when a member is added): name resolution runs once per
    /// clock set, not once per chunk.
    pub(crate) bound_clocks: Option<cesc_trace::ClockSet>,
    /// Single-clock and implication members grouped by resolved
    /// domain, so `feed_global` projects each chunk once per *distinct*
    /// clock (members whose clock is absent from the set appear in no
    /// group and see no ticks).
    pub(crate) clock_groups: Vec<crate::multibatch::ClockGroup>,
    /// When set, [`MonitorBank::feed`] / `feed_global` accumulate
    /// per-member execution nanoseconds (one `Instant` pair per member
    /// per chunk — off by default so the hot path stays timer-free).
    pub(crate) timing: bool,
    pub(crate) member_ns: Vec<u64>,
    pub(crate) multi_member_ns: Vec<u64>,
    pub(crate) implication_ns: Vec<u64>,
}

impl MonitorBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles and attaches `monitor`; returns its index.
    pub fn add(&mut self, monitor: &Monitor) -> usize {
        self.add_compiled(monitor.compiled())
    }

    /// Attaches an already-compiled monitor; returns its index.
    pub fn add_compiled(&mut self, compiled: CompiledMonitor) -> usize {
        self.states.push(ExecState::new(&compiled));
        self.boards.push(BatchBoard::sized(compiled.count_slots()));
        self.monitors.push(compiled);
        self.hits.push(Vec::new());
        self.member_ns.push(0);
        self.bound_clocks = None; // new member: feed_global must rebind
        self.monitors.len() - 1
    }

    /// Turns per-member execution timing on or off (off by default).
    /// While on, each `feed`/`feed_global` chunk costs one clock read
    /// pair per member, accumulated into
    /// [`MonitorBank::member_exec_ns`].
    pub fn set_member_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// Accumulated execution nanoseconds of single-clock member `idx`
    /// (zero unless [`MonitorBank::set_member_timing`] was on).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn member_exec_ns(&self, idx: usize) -> u64 {
        self.member_ns[idx]
    }

    /// Accumulated execution nanoseconds of multi-clock member `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn multiclock_exec_ns(&self, idx: usize) -> u64 {
        self.multi_member_ns[idx]
    }

    /// Number of attached single-clock monitors (multi-clock members
    /// are counted by [`MonitorBank::multiclock_len`]).
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Whether the bank has no members of any kind.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty() && self.multis.is_empty() && self.implications.is_empty()
    }

    /// The compiled form of monitor `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn monitor(&self, idx: usize) -> &CompiledMonitor {
        &self.monitors[idx]
    }

    /// Feeds one shared chunk to every single-clock and implication
    /// member (each visits the chunk once, tables staying hot per
    /// member).
    pub fn feed(&mut self, chunk: &[Valuation]) {
        let timing = self.timing;
        for (idx, (((m, st), board), hits)) in self
            .monitors
            .iter()
            .zip(&mut self.states)
            .zip(&mut self.boards)
            .zip(&mut self.hits)
            .enumerate()
        {
            let started = timing.then(std::time::Instant::now);
            let base = st.ticks;
            st.run(m, chunk, board, |i| hits.push(base + i as u64));
            if let Some(t0) = started {
                self.member_ns[idx] += t0.elapsed().as_nanos() as u64;
            }
        }
        for (idx, (ci, st)) in self.implications.iter_mut().enumerate() {
            let started = timing.then(std::time::Instant::now);
            ci.feed(st, chunk);
            if let Some(t0) = started {
                self.implication_ns[idx] += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Member-ticks advanced by the idle-run scan so far, summed over
    /// every single-clock member, every local of every multi-clock
    /// member and every implication member's antecedent (each such
    /// tick is also counted in its member's ticks).
    pub fn skip_ticks(&self) -> u64 {
        let singles: u64 = self.states.iter().map(|st| st.skipped).sum();
        let multis: u64 = self.multis.iter().map(|(_, st)| st.skip_ticks()).sum();
        let implications: u64 = self.implications.iter().map(|(_, st)| st.skip_ticks()).sum();
        singles + multis + implications
    }

    /// Feeds a whole resident trace in one pass (see
    /// [`Monitor::scan_batch`] on why no further chunking happens
    /// here).
    pub fn scan_batch(&mut self, trace: &[Valuation]) {
        self.feed(trace);
    }

    /// Detection ticks of monitor `idx` so far.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn hits(&self, idx: usize) -> &[u64] {
        &self.hits[idx]
    }

    /// Hands every single-clock monitor's accumulated hits to `sink`
    /// (as `(monitor index, hit times)`) and clears the internal logs,
    /// keeping the bank's residency bounded between drains — the hook
    /// `cesc-par`'s shard workers use to fold hits into bounded
    /// tallies chunk by chunk instead of growing one `Vec` per monitor
    /// for the whole run.
    pub fn drain_hits(&mut self, mut sink: impl FnMut(usize, &[u64])) {
        for (idx, hits) in self.hits.iter_mut().enumerate() {
            if !hits.is_empty() {
                sink(idx, hits);
                hits.clear();
            }
        }
    }

    /// [`MonitorBank::drain_hits`] for the multi-clock slot space.
    pub fn drain_multiclock_hits(&mut self, mut sink: impl FnMut(usize, &[u64])) {
        for (idx, hits) in self.multi_hits.iter_mut().enumerate() {
            if !hits.is_empty() {
                sink(idx, hits);
                hits.clear();
            }
        }
    }

    /// Per-monitor reports for everything fed through
    /// [`MonitorBank::feed`] / [`MonitorBank::scan_batch`] so far (the
    /// bank remains usable; reports snapshot current state).
    pub fn reports(&self) -> Vec<ScanReport> {
        self.states
            .iter()
            .zip(&self.boards)
            .zip(&self.hits)
            .map(|((st, board), hits)| ScanReport {
                matches: hits.clone(),
                ticks: st.ticks,
                final_state: StateId::from_index(st.state as usize),
                underflows: board.underflows,
            })
            .collect()
    }

    /// Resets every monitor to its initial configuration and clears
    /// recorded hits.
    pub fn reset(&mut self) {
        for ((m, st), board) in self.monitors.iter().zip(&mut self.states).zip(&mut self.boards) {
            st.reset(m);
            board.reset();
        }
        for h in &mut self.hits {
            h.clear();
        }
        for (cm, st) in &mut self.multis {
            st.reset(cm);
        }
        for h in &mut self.multi_hits {
            h.clear();
        }
        for (ci, st) in &mut self.implications {
            st.reset(ci);
        }
    }
}

impl fmt::Display for CompiledMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compiled monitor {} (clock {}): {} states, {} transitions ({} mask guards, {} program ops)",
            self.name,
            self.clock,
            self.state_count(),
            self.transition_count(),
            self.mask_guards,
            self.ops.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_chart::parse_document;
    use crate::synth::{synthesize, SynthOptions};
    use cesc_expr::Alphabet;

    fn fig5_doc() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc fig5 on clk {
                instances { A, B }
                events { e1, e2, e3 }
                props { p1, p3 }
                tick { A: e1 if p1; B: e2 }
                tick ;
                tick { B: e3 if p3 }
                cause e1 -> e3;
            }
        "#,
        )
        .unwrap()
    }

    /// Every valuation over `n` symbols, cycled to length `len`.
    fn exhaustive_trace(n: u32, len: usize) -> Vec<Valuation> {
        (0..len)
            .map(|i| Valuation::from_bits((i as u128) % (1 << n)))
            .collect()
    }

    #[test]
    fn batch_equals_stepwise_on_fig5() {
        let doc = fig5_doc();
        let m = synthesize(doc.chart("fig5").unwrap(), &SynthOptions::default()).unwrap();
        let trace = exhaustive_trace(5, 200);
        let step = m.scan(trace.iter().copied());
        let batch = m.scan_batch(&trace);
        assert_eq!(step, batch);
    }

    #[test]
    fn batch_equals_stepwise_under_any_chunking() {
        let doc = fig5_doc();
        let m = synthesize(doc.chart("fig5").unwrap(), &SynthOptions::default()).unwrap();
        let trace = exhaustive_trace(5, 100);
        let reference = m.scan(trace.iter().copied());
        for chunk_size in [1usize, 2, 3, 7, 50, 100, 1000] {
            let compiled = m.compiled();
            let mut exec = compiled.executor();
            let mut hits = Vec::new();
            for chunk in trace.chunks(chunk_size) {
                exec.feed(chunk, &mut hits);
            }
            assert_eq!(exec.finish(hits), reference, "chunk {chunk_size}");
        }
    }

    #[test]
    fn disjunctive_guards_use_program_path_and_agree() {
        // a disjunctive `if` guard cannot be a literal conjunction, so
        // its transitions must compile to postfix programs — and the
        // program path must agree with the step-wise Expr::eval.
        let doc = parse_document(
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
        .unwrap();
        let m = synthesize(doc.chart("dj").unwrap(), &SynthOptions::default()).unwrap();
        let compiled = m.compiled();
        assert!(
            compiled.mask_guard_count() < compiled.transition_count(),
            "{compiled}"
        );
        let trace = exhaustive_trace(4, 160);
        assert_eq!(m.scan(trace.iter().copied()), m.scan_batch(&trace));
    }

    #[test]
    fn pure_conjunction_chart_is_all_masks() {
        let doc = parse_document(
            "scesc c on clk { instances { M } events { a, b } tick { M: a, !b } tick { M: b } }",
        )
        .unwrap();
        let m = synthesize(doc.chart("c").unwrap(), &SynthOptions::default()).unwrap();
        let compiled = m.compiled();
        assert_eq!(compiled.mask_guard_count(), compiled.transition_count());
    }

    #[test]
    fn underflows_match_stepwise() {
        // A hand-built monitor that Dels without Adds, to exercise the
        // saturation/underflow path.
        let mut ab = Alphabet::new();
        let a = ab.event("a");
        let m = Monitor {
            name: "under".into(),
            clock: "clk".into(),
            transitions: vec![vec![crate::monitor::Transition {
                guard: Expr::t(),
                actions: vec![Action::DelEvt(vec![a])],
                target: StateId::from_index(0),
                kind: crate::monitor::TransitionKind::Backward,
            }]],
            initial: StateId::from_index(0),
            final_state: StateId::from_index(0),
            pattern: vec![Expr::t()],
            tracked_events: vec![a],
        };
        let trace = vec![Valuation::empty(); 5];
        let step = m.scan(trace.iter().copied());
        let batch = m.scan_batch(&trace);
        assert_eq!(step.underflows, 5);
        assert_eq!(batch.underflows, 5);
        assert_eq!(step, batch);
    }

    #[test]
    fn bank_runs_many_monitors_over_shared_feed() {
        let doc = parse_document(
            r#"
            scesc hs on clk {
                instances { M, S }
                events { req, ack }
                tick { M: req }
                tick { S: ack }
                cause req -> ack;
            }
            scesc pulse on clk {
                instances { M }
                events { req, ack }
                tick { M: req }
            }
        "#,
        )
        .unwrap();
        let hs = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap();
        let pulse = synthesize(doc.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let req = doc.alphabet.lookup("req").unwrap();
        let ack = doc.alphabet.lookup("ack").unwrap();

        let trace = vec![
            Valuation::of([req]),
            Valuation::of([ack]),
            Valuation::empty(),
            Valuation::of([req]),
            Valuation::of([ack]),
        ];

        let mut bank = MonitorBank::new();
        let i_hs = bank.add(&hs);
        let i_p = bank.add(&pulse);
        assert_eq!(bank.len(), 2);
        // feed in two uneven chunks: state must carry across
        bank.feed(&trace[..2]);
        bank.feed(&trace[2..]);

        assert_eq!(bank.hits(i_hs), hs.scan(trace.iter().copied()).matches);
        assert_eq!(bank.hits(i_p), pulse.scan(trace.iter().copied()).matches);

        let reports = bank.reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[i_hs].ticks, 5);

        bank.reset();
        assert!(bank.hits(i_hs).is_empty());
        bank.scan_batch(&trace);
        assert_eq!(bank.hits(i_hs), hs.scan(trace.iter().copied()).matches);
    }

    #[test]
    fn compiled_display_and_accessors() {
        let doc = fig5_doc();
        let m = synthesize(doc.chart("fig5").unwrap(), &SynthOptions::default()).unwrap();
        let compiled = m.compiled();
        assert_eq!(compiled.name(), "fig5");
        assert_eq!(compiled.clock(), "clk");
        assert_eq!(compiled.state_count(), m.state_count());
        assert_eq!(compiled.transition_count(), m.transition_count());
        let shown = compiled.to_string();
        assert!(shown.contains("compiled monitor fig5"), "{shown}");
    }

    #[test]
    #[should_panic(expected = "not total")]
    fn non_total_compiled_monitor_panics() {
        let mut ab = Alphabet::new();
        let a = ab.event("a");
        let m = Monitor {
            name: "broken".into(),
            clock: "clk".into(),
            transitions: vec![vec![crate::monitor::Transition {
                guard: Expr::sym(a),
                actions: vec![],
                target: StateId::from_index(0),
                kind: crate::monitor::TransitionKind::Backward,
            }]],
            initial: StateId::from_index(0),
            final_state: StateId::from_index(0),
            pattern: vec![],
            tracked_events: vec![],
        };
        let compiled = m.compiled();
        let mut exec = compiled.executor();
        exec.step(Valuation::empty());
    }

    #[test]
    fn exec_reset_and_accessors() {
        let doc = fig5_doc();
        let m = synthesize(doc.chart("fig5").unwrap(), &SynthOptions::default()).unwrap();
        let compiled = m.compiled();
        let mut exec = compiled.executor();
        let trace = exhaustive_trace(5, 40);
        let mut hits = Vec::new();
        exec.feed(&trace, &mut hits);
        assert_eq!(exec.ticks(), 40);
        exec.reset();
        assert_eq!(exec.ticks(), 0);
        assert_eq!(exec.state_index(), 0);
        assert_eq!(exec.underflows(), 0);
        let mut hits2 = Vec::new();
        exec.feed(&trace, &mut hits2);
        assert_eq!(hits, hits2, "reset restores initial configuration");
    }

    /// A hand-built monitor from `(guard, actions, target)` arms per
    /// state, starting in state 0.
    fn hand_monitor(final_state: usize, arms: Vec<Vec<(Expr, Vec<Action>, usize)>>) -> Monitor {
        Monitor {
            name: "hand".into(),
            clock: "clk".into(),
            transitions: arms
                .into_iter()
                .map(|state| {
                    state
                        .into_iter()
                        .map(|(guard, actions, target)| crate::monitor::Transition {
                            guard,
                            actions,
                            target: StateId::from_index(target),
                            kind: crate::monitor::TransitionKind::Backward,
                        })
                        .collect()
                })
                .collect(),
            initial: StateId::from_index(0),
            final_state: StateId::from_index(final_state),
            pattern: vec![],
            tracked_events: vec![],
        }
    }

    /// Feeds `trace` to the optimized compile of `m` whole and in small
    /// chunks, and checks both against a loop of `BatchExec::step` and
    /// against `Monitor::scan`: same hits, ticks, final state and
    /// underflows. Returns the ticks the idle-run scan advanced.
    fn run_equals_steps(m: &Monitor, trace: &[Valuation]) -> u64 {
        let compiled = m.compiled_with(&CompileOptions::optimized());
        let mut stepped = compiled.executor();
        let hits: Vec<u64> = (0..trace.len() as u64)
            .filter(|&i| stepped.step(trace[i as usize]))
            .collect();
        let reference = stepped.finish(hits);
        assert_eq!(reference, m.scan(trace.iter().copied()));
        let mut skipped = None;
        for chunk in [trace.len().max(1), 1, 3] {
            let mut exec = compiled.executor();
            let mut hits = Vec::new();
            for c in trace.chunks(chunk) {
                exec.feed(c, &mut hits);
            }
            assert_eq!(exec.finish(hits), reference, "chunk {chunk}");
            assert_eq!(*skipped.get_or_insert(exec.skip_ticks()), exec.skip_ticks());
        }
        skipped.unwrap_or(0)
    }

    #[test]
    fn final_self_loop_hits_every_tick() {
        // the final state's action-free self-loop is never scanned:
        // every tick spent in it is a detection
        let mut ab = Alphabet::new();
        let a = ab.event("a");
        let m = hand_monitor(
            1,
            vec![
                vec![(Expr::sym(a), vec![], 1), (Expr::t(), vec![], 0)],
                vec![(Expr::t(), vec![], 1)],
            ],
        );
        let mut trace = vec![Valuation::empty(); 5];
        trace.push(Valuation::of([a]));
        trace.extend(vec![Valuation::empty(); 6]);
        assert_eq!(
            run_equals_steps(&m, &trace),
            5,
            "only the five idle ticks in s0"
        );
        assert_eq!(
            m.scan(trace.iter().copied()).matches,
            (5..12).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn stay_arm_with_a_chk_guard_scans_only_while_the_board_allows() {
        // s1's stay arm needs `x` on the board; `a` adds it, `c`
        // enters s1 without it (the stay arm is then dead, and the
        // fallback underflows). The prefix arm `d ∧ Chk(y)` can never
        // fire (`y` is never added), so `d` ticks stay idle-scanned.
        let mut ab = Alphabet::new();
        let [a, b, c, d, x, y] = ["a", "b", "c", "d", "x", "y"].map(|n| ab.event(n));
        let m = hand_monitor(
            2,
            vec![
                vec![
                    (Expr::sym(a), vec![Action::AddEvt(vec![x])], 1),
                    (Expr::sym(c), vec![], 1),
                    (Expr::t(), vec![], 0),
                ],
                vec![
                    (
                        Expr::and([Expr::sym(b), Expr::chk(x)]),
                        vec![Action::DelEvt(vec![x])],
                        2,
                    ),
                    (Expr::and([Expr::sym(d), Expr::chk(y)]), vec![], 0),
                    (Expr::and([!Expr::sym(b), Expr::chk(x)]), vec![], 1),
                    (Expr::t(), vec![Action::DelEvt(vec![x])], 0),
                ],
                vec![(Expr::t(), vec![], 0)],
            ],
        );
        let v = |syms: &[SymbolId]| Valuation::of(syms.iter().copied());
        let trace = [
            v(&[]),  // s0 idle: skipped
            v(&[a]), // → s1, x added
            v(&[]),  // s1 idle: skipped
            v(&[d]), // d ∧ Chk(y) dead: skipped
            v(&[]),  // skipped
            v(&[b]), // → s2 (hit), x deleted
            v(&[]),  // s2 is final: stepped → s0
            v(&[c]), // → s1 without x: no scan
            v(&[]),  // fallback, Del(x) underflows → s0
            v(&[]),  // s0 idle: skipped
        ];
        assert_eq!(run_equals_steps(&m, &trace), 5);
        let report = m.scan(trace.iter().copied());
        assert_eq!(report.matches, vec![5]);
        assert_eq!(report.underflows, 1);
    }

    #[test]
    fn stay_arm_mask_other_than_true_ends_the_scan() {
        // s0 stays only on `!c`; a `c` tick without `a` falls through
        // to the final state
        let mut ab = Alphabet::new();
        let [a, c] = ["a", "c"].map(|n| ab.event(n));
        let m = hand_monitor(
            1,
            vec![
                vec![
                    (Expr::sym(a), vec![], 1),
                    (!Expr::sym(c), vec![], 0),
                    (Expr::t(), vec![], 1),
                ],
                vec![(Expr::t(), vec![], 0)],
            ],
        );
        let trace: Vec<Valuation> = (0..24)
            .map(|i| match i % 6 {
                2 => Valuation::of([c]),
                5 => Valuation::of([a, c]),
                _ => Valuation::empty(),
            })
            .collect();
        // s0's empty ticks: 0, 1 and 4 of the first period, then 1 and
        // 4 of each later one (tick 0 of a period is spent leaving s1)
        assert_eq!(run_equals_steps(&m, &trace), 9);
        assert_eq!(m.scan(trace.iter().copied()).matches.len(), 8);
    }

    /// A conjunction-only chart over exactly `n` symbols whose guards
    /// mention the first and last of them — the last symbol's bit is
    /// the mask's high-water mark.
    fn wide_monitor(n: usize) -> Monitor {
        let events: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
        let last = &events[n - 1];
        let src = format!(
            "scesc wide on clk {{\n    instances {{ M }}\n    events {{ {} }}\n    \
             tick {{ M: e0, {last} }}\n    tick {{ M: {last}, !e0 }}\n    \
             cause e0@0 -> {last}@1;\n}}\n",
            events.join(", ")
        );
        let doc = parse_document(&src).unwrap();
        synthesize(doc.chart("wide").unwrap(), &SynthOptions::default()).unwrap()
    }

    /// Traces exercising the top symbol bit of an `n`-symbol alphabet:
    /// the witness pattern interleaved with bit-soup valuations.
    fn wide_trace(n: usize, len: usize) -> Vec<Valuation> {
        let first: u128 = 1;
        let last: u128 = 1 << (n - 1);
        (0..len)
            .map(|i| match i % 5 {
                0 => Valuation::from_bits(first | last),
                1 => Valuation::from_bits(last),
                2 => Valuation::from_bits(first),
                3 => Valuation::empty(),
                _ => Valuation::from_bits(((i as u128) * 0x9E37_79B9_7F4A_7C15) & ((1 << n) - 1)),
            })
            .collect()
    }

    #[test]
    fn masks_narrow_at_exactly_64_symbols() {
        // REGRESSION for the GuardMask64 boundary: bit 63 is the
        // *highest* bit that still fits the narrowed form. A 64-symbol
        // chart must narrow every conjunction guard — including the
        // ones whose masks carry bit 63 — and agree with the raw
        // (u128) evaluation everywhere.
        let m = wide_monitor(64);
        let narrowed = m.compiled_with(&CompileOptions::optimized());
        let (mut n64, mut wide, mut top_bit_narrowed) = (0usize, 0usize, false);
        for g in &narrowed.guards {
            match g {
                GuardKind::Mask64(gm) => {
                    n64 += 1;
                    if (gm.pos | gm.neg) & (1 << 63) != 0 {
                        top_bit_narrowed = true;
                    }
                }
                GuardKind::Mask(_) => wide += 1,
                GuardKind::Program(..) => {}
            }
        }
        assert!(n64 > 0 && wide == 0, "{n64} narrowed / {wide} wide: all must narrow");
        assert!(top_bit_narrowed, "no narrowed mask carries bit 63");

        let trace = wide_trace(64, 200);
        let raw = m.compiled_with(&CompileOptions::raw());
        for c in [&narrowed, &raw] {
            let mut exec = c.executor();
            let mut hits = Vec::new();
            exec.feed(&trace, &mut hits);
            assert_eq!(exec.finish(hits), m.scan(trace.iter().copied()));
        }
    }

    #[test]
    fn masks_stay_wide_at_65_symbols() {
        // One symbol past the boundary: guards whose masks mention
        // bit 64 must refuse to narrow (truncating them to u64 would
        // silently drop the constraint) while verdicts stay identical
        // to the raw compile.
        let m = wide_monitor(65);
        let compiled = m.compiled_with(&CompileOptions::optimized());
        let mut wide_with_top = 0usize;
        for g in &compiled.guards {
            match g {
                GuardKind::Mask(gm) => {
                    if (gm.pos | gm.neg) >> 64 != 0 {
                        wide_with_top += 1;
                    }
                }
                // a guard not mentioning e64 may still narrow — but
                // its masks must then be silent above bit 63
                GuardKind::Mask64(_) | GuardKind::Program(..) => {}
            }
        }
        assert!(wide_with_top > 0, "bit-64 guards vanished from the wide path");

        let trace = wide_trace(65, 200);
        let raw = m.compiled_with(&CompileOptions::raw());
        for c in [&compiled, &raw] {
            let mut exec = c.executor();
            let mut hits = Vec::new();
            exec.feed(&trace, &mut hits);
            assert_eq!(exec.finish(hits), m.scan(trace.iter().copied()));
        }
        assert!(
            !m.scan(trace.iter().copied()).matches.is_empty(),
            "boundary trace never completes the scenario — the agreement above is vacuous"
        );
    }
}
