//! Bit-sliced 64-tick batch execution.
//!
//! The flat batch engine ([`crate::BatchExec`]) dispatches once per
//! tick even though [`crate::CompileOptions::narrow_masks`]
//! already reduced most guards
//! to a handful of `u64` tests. This module evaluates **64 ticks per
//! machine word**:
//!
//! ```text
//!   decoded chunk (≤64 Valuations)
//!        │  64×64 bit-matrix transpose (6 mask-swap rounds)
//!        ▼
//!   per-symbol columns  cols[s] — bit t = symbol s at tick t
//!        │  word-eval: AND pos columns, AND-NOT neg columns,
//!        │  chk part is constant while the scoreboard is untouched
//!        ▼
//!   active word — bit t set iff tick t's first matching guard
//!        │         does anything (moves state, acts, or hits)
//!        ▼
//!   run-advance: popcount skips quiet runs in bulk,
//!   trailing_zeros finds the next tick that needs the exact
//!   scalar step
//! ```
//!
//! A transition is *quiet* when taking it changes nothing observable:
//! it loops on its own non-final source state and carries no actions.
//! Ticks whose highest-priority enabled guard is quiet only advance
//! the tick counter, so quiescent stretches (the common case between
//! bus transactions) cost one word evaluation plus one `popcount` per
//! 64 ticks instead of 64 priority scans. Every tick that *does*
//! something is delegated to the exact scalar step — bit-exact
//! semantics, including action order, underflow accounting and the
//! "transition relation not total" panic — so the sliced path is
//! equivalent to the scalar path by construction (and pinned by the
//! `simd_equivalence` property suite plus a cesc-fuzz differential
//! leg).

use cesc_expr::Valuation;

use crate::batch::{BatchBoard, CompiledMonitor, ExecState, GuardKind};

/// In-place transpose of a 64×64 bit matrix (Hacker's Delight
/// recursive mask-swap, 6 rounds of 32 swaps). In the MSB-first
/// row/column convention this is the plain transpose; callers working
/// with raw bit indices load rows reversed and reverse the output (see
/// [`transpose_block`]).
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32u32;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] ^ (a[k + j as usize] >> j)) & m;
            a[k] ^= t;
            a[k + j as usize] ^= t << j;
            k = (k + j as usize + 1) & !(j as usize);
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Scratch for the per-block bit-column transpose, owned by the
/// executor so one buffer is reused across every chunk of a stream
/// (no per-chunk allocation — asserted by the workspace
/// counting-allocator test).
#[derive(Debug, Clone)]
pub(crate) struct SliceScratch {
    cols: [u64; 64],
}

impl Default for SliceScratch {
    fn default() -> Self {
        SliceScratch { cols: [0u64; 64] }
    }
}

/// Transposes `block` (≤ 64 valuations, low 64 symbol bits) into
/// per-symbol column words: `cols[s]` bit `t` = symbol `s` held at
/// tick `t`. Symbols ≥ 64 are dropped — [`GuardKind::Mask64`] guards
/// never mention them, and sliced evaluation falls back to the exact
/// scalar step for everything else.
fn transpose_block(block: &[Valuation], cols: &mut [u64; 64]) {
    debug_assert!(block.len() <= 64);
    cols.fill(0);
    for (t, v) in block.iter().enumerate() {
        cols[63 - t] = v.bits() as u64;
    }
    transpose64(cols);
    cols.reverse();
}

/// One guard of a sliceable state, pre-extracted for word evaluation.
#[derive(Debug, Clone, Copy)]
struct SliceGuard {
    pos: u64,
    neg: u64,
    chk_pos: u64,
    chk_neg: u64,
    /// Taking this transition changes nothing observable (self-loop on
    /// a non-final state, no actions) — ticks whose first match is
    /// quiet are skipped in bulk.
    quiet: bool,
    /// This is the state's lowest-priority arm and the SAT prover
    /// discharged the state's transition relation as total, so every
    /// tick no earlier arm claimed takes this one — its own guard
    /// (typically the synthesized `!(...)∧!(...)` else-edge, a
    /// [`GuardKind::Program`]) never needs word evaluation.
    catch_all: bool,
}

/// The per-monitor bit-slicing tables, computed once at compile time
/// when [`crate::CompileOptions::bit_slice`] is on and consulted by
/// every sliced feed.
#[derive(Debug, Clone)]
pub(crate) struct SlicePlan {
    /// Per state: whether every guard is a [`GuardKind::Mask64`]
    /// conjunction (the word-evaluable form) — or all but the last,
    /// with totality proven so the last arm is a catch-all. Other
    /// states scalar-step.
    sliceable: Vec<bool>,
    /// Per flat transition: the extracted guard, `None` for
    /// program/wide-mask guards (only read for sliceable states, where
    /// every entry is `Some`).
    guards: Vec<Option<SliceGuard>>,
}

impl SlicePlan {
    /// Extracts the slicing tables from a fully-built monitor.
    ///
    /// `monitor` is the automaton the tables were compiled from (same
    /// state and priority order): its guard *expressions* feed the SAT
    /// totality proof that upgrades a trailing program guard — the
    /// synthesized complement else-edge — into a mask-free catch-all
    /// arm. Without that upgrade every state with an else-edge (i.e.
    /// the idle state of every protocol chart) would scalar-step.
    pub(crate) fn build(m: &CompiledMonitor, monitor: &crate::Monitor) -> Self {
        let states = m.state_count();
        let final_state = m.final_index();
        let mut sliceable = vec![false; states];
        let mut guards: Vec<Option<SliceGuard>> = Vec::with_capacity(m.transition_count());
        for (s, ok) in sliceable.iter_mut().enumerate() {
            let range = m.state_range(s);
            let base = guards.len();
            let mut all = true;
            for t in range.clone() {
                let sg = match m.guard_kinds()[t] {
                    GuardKind::Mask64(g) => Some(SliceGuard {
                        pos: g.pos,
                        neg: g.neg,
                        chk_pos: g.chk_pos,
                        chk_neg: g.chk_neg,
                        quiet: m.target_of(t) == s
                            && m.action_range(t).is_empty()
                            && s != final_state,
                        catch_all: false,
                    }),
                    GuardKind::Mask(_) | GuardKind::Program(..) => None,
                };
                all &= sg.is_some();
                guards.push(sg);
            }
            if all {
                *ok = true;
                continue;
            }
            // One non-mask arm, in last (lowest-priority) position:
            // if the prover certifies the state's arms cover every
            // (valuation, scoreboard) pair, ticks left over after the
            // mask arms MUST take that arm — no evaluation needed.
            let n = range.len();
            let only_last_unsliced = n >= 1
                && guards[base + n - 1].is_none()
                && guards[base..base + n - 1].iter().all(Option::is_some);
            if only_last_unsliced && state_relation_total(monitor, s) {
                let t = range.end - 1;
                guards[base + n - 1] = Some(SliceGuard {
                    pos: 0,
                    neg: 0,
                    chk_pos: 0,
                    chk_neg: 0,
                    quiet: m.target_of(t) == s
                        && m.action_range(t).is_empty()
                        && s != final_state,
                    catch_all: true,
                });
                *ok = true;
            }
        }
        SlicePlan { sliceable, guards }
    }

    /// How many states take the word-evaluated path.
    pub(crate) fn sliceable_states(&self) -> usize {
        self.sliceable.iter().filter(|&&b| b).count()
    }
}

/// Whether state `s`'s outgoing guards cover every (valuation,
/// scoreboard) pair — `⋁ guards` is a tautology, decided exactly by
/// the DPLL search in [`cesc_expr::sat`]. Runs once per state at
/// compile time.
fn state_relation_total(monitor: &crate::Monitor, s: usize) -> bool {
    let arms = monitor
        .transitions_from(crate::StateId::from_index(s))
        .iter()
        .map(|t| t.guard.clone());
    cesc_expr::sat::is_tautology(&cesc_expr::Expr::or(arms))
}

/// Whether every tick of `block`, taken at state `s` under scoreboard
/// presence `sb`, provably fires a *quiet* arm — decided from the
/// block's symbol **union** alone, without transposing. An arm whose
/// positive mask mentions a symbol the whole block lacks (or whose
/// `Chk` part the current scoreboard refutes) cannot fire; if the
/// first arm that survives those tests is either the
/// totality-certified catch-all or an unconditionally-true guard, and
/// that arm is quiet, every tick takes it and nothing observable
/// happens. Conservative: any other configuration returns `false` and
/// falls through to the exact transposed evaluation.
fn quiet_block(m: &CompiledMonitor, plan: &SlicePlan, s: usize, sb: u128, block: &[Valuation]) -> bool {
    let mut union = 0u128;
    for v in block {
        union |= v.bits();
    }
    let union = union as u64; // Mask64 guards never mention bits ≥ 64
    let sb = sb as u64;
    for t in m.state_range(s) {
        let g = plan.guards[t].expect("sliceable state has only word-evaluable guards");
        if g.catch_all {
            return g.quiet;
        }
        if sb & g.chk_pos != g.chk_pos || sb & g.chk_neg != 0 {
            continue; // scoreboard-refuted: cannot fire this word
        }
        if g.pos & !union != 0 {
            continue; // a required symbol never occurs in the block
        }
        // the arm may fire on some ticks; only an unconditionally-true
        // quiet arm lets us conclude without per-tick columns
        return g.quiet && g.pos == 0 && g.neg & union == 0;
    }
    false // uncovered ticks must reach the scalar panic path
}

/// The *active word* of state `s` over one transposed block: bit `t`
/// set iff tick `t`'s highest-priority enabled guard is non-quiet —
/// or no guard is enabled at all (the scalar step owns the
/// "transition relation not total" panic). Valid for a fixed
/// `(state, presence-bitmap)` pair; both the priority fold and the
/// `Chk` constant-gate depend on nothing else.
#[inline]
fn active_word(
    m: &CompiledMonitor,
    plan: &SlicePlan,
    s: usize,
    sb: u128,
    cols: &[u64; 64],
    full: u64,
) -> u64 {
    let sb = sb as u64; // Mask64 chk masks never mention bits ≥ 64
    let mut remaining = full;
    let mut active = 0u64;
    for t in m.state_range(s) {
        if remaining == 0 {
            break;
        }
        let g = plan.guards[t].expect("sliceable state has only word-evaluable guards");
        // totality-certified last arm: every tick no earlier arm
        // claimed takes it, without evaluating its program guard
        if g.catch_all {
            if !g.quiet {
                active |= remaining;
            }
            remaining = 0;
            break;
        }
        // the chk part is constant over the word while the scoreboard
        // presence bitmap is untouched: gate the whole guard on it
        if sb & g.chk_pos != g.chk_pos || sb & g.chk_neg != 0 {
            continue;
        }
        let mut w = remaining;
        let mut p = g.pos;
        while w != 0 && p != 0 {
            w &= cols[p.trailing_zeros() as usize];
            p &= p - 1;
        }
        let mut n = g.neg;
        while w != 0 && n != 0 {
            w &= !cols[n.trailing_zeros() as usize];
            n &= n - 1;
        }
        if !g.quiet {
            active |= w;
        }
        remaining &= !w;
    }
    // uncovered ticks delegate to the scalar step, which panics with
    // the exact "transition relation not total" message
    active | remaining
}

/// Word/fallback counters one sliced feed produced: `(words,
/// dense_words)` — word evaluations performed, and how many of them
/// contained at least one non-quiet tick (a scalar fallback).
pub(crate) type SliceStats = (u64, u64);

/// Feeds `chunk` through the bit-sliced engine: per 64-tick block,
/// transpose into bit columns, classify every tick with one word
/// evaluation per distinct `(state, scoreboard)` configuration, skip
/// quiet runs in bulk and scalar-step the rest exactly.
///
/// Semantically identical to calling [`ExecState::step`] per element
/// (same hits, state, ticks, underflows, same panic on a non-total
/// transition relation).
pub(crate) fn feed_sliced(
    m: &CompiledMonitor,
    plan: &SlicePlan,
    st: &mut ExecState,
    board: &mut BatchBoard,
    scratch: &mut SliceScratch,
    chunk: &[Valuation],
    mut on_hit: impl FnMut(u64),
) -> SliceStats {
    let mut words = 0u64;
    let mut dense = 0u64;
    for block in chunk.chunks(64) {
        // union prescreen: when the only arm of the current state that
        // can possibly fire anywhere in this block is quiet, the whole
        // block advances in one add — no transpose, no word
        // evaluation. This is the idle-bus fast path: quiescent
        // stretches between transactions cost ~1 OR per tick.
        let s = st.state as usize;
        if plan.sliceable[s] && quiet_block(m, plan, s, board.sb_bits, block) {
            st.ticks += block.len() as u64;
            words += 1;
            continue;
        }
        transpose_block(block, &mut scratch.cols);
        let n = block.len();
        let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
        let mut live = full;
        // the last word evaluation, reused across scalar steps that
        // return to the same (state, presence) configuration — e.g. a
        // final-state self-loop hitting on consecutive ticks
        let mut cached_state = u32::MAX;
        let mut cached_sb = 0u128;
        let mut cached_active = 0u64;
        while live != 0 {
            let s = st.state as usize;
            if !plan.sliceable[s] {
                // program or wide-mask guards: exact scalar step on
                // the lowest pending tick
                let t = live.trailing_zeros() as usize;
                let tick = st.ticks;
                if st.step(m, block[t], board) {
                    on_hit(tick);
                }
                live &= live - 1;
                continue;
            }
            if cached_state != st.state || cached_sb != board.sb_bits {
                cached_active = active_word(m, plan, s, board.sb_bits, &scratch.cols, full);
                cached_state = st.state;
                cached_sb = board.sb_bits;
                words += 1;
                if cached_active != 0 {
                    dense += 1;
                }
            }
            let active = cached_active & live;
            if active == 0 {
                // the whole pending region is quiet: one popcount
                st.ticks += u64::from(live.count_ones());
                live = 0;
            } else {
                let t = active.trailing_zeros();
                let before = live & ((1u64 << t) - 1);
                st.ticks += u64::from(before.count_ones());
                let tick = st.ticks;
                if st.step(m, block[t as usize], board) {
                    on_hit(tick);
                }
                live &= !(1u64 << t);
                live &= !before;
            }
        }
    }
    (words, dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::CompileOptions;
    use crate::synth::{synthesize, SynthOptions};
    use cesc_chart::parse_document;

    fn transpose_naive(rows: &[u64]) -> [u64; 64] {
        let mut out = [0u64; 64];
        for (t, &row) in rows.iter().enumerate() {
            for (s, o) in out.iter_mut().enumerate() {
                *o |= (row >> s & 1) << t;
            }
        }
        out
    }

    #[test]
    fn transpose_matches_naive() {
        // a deterministic xorshift so the test needs no RNG dep
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut rows = [0u64; 64];
        for r in rows.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *r = x;
        }
        let expect = transpose_naive(&rows);
        let vals: Vec<Valuation> = rows
            .iter()
            .map(|&r| Valuation::from_bits(u128::from(r)))
            .collect();
        let mut scratch = SliceScratch::default();
        transpose_block(&vals, &mut scratch.cols);
        assert_eq!(scratch.cols, expect);
    }

    #[test]
    fn transpose_partial_block_pads_with_zero() {
        let vals = [Valuation::from_bits(0b101), Valuation::from_bits(0b010)];
        let mut scratch = SliceScratch::default();
        transpose_block(&vals, &mut scratch.cols);
        assert_eq!(scratch.cols[0], 0b01); // symbol 0: tick 0 only
        assert_eq!(scratch.cols[1], 0b10); // symbol 1: tick 1 only
        assert_eq!(scratch.cols[2], 0b01); // symbol 2: tick 0 only
        for c in &scratch.cols[3..] {
            assert_eq!(*c, 0);
        }
    }

    fn handshake() -> crate::Monitor {
        let doc = parse_document(
            "scesc hs on clk { instances { M } events { req, ack } \
             tick { M: req } tick { M: ack } }",
        )
        .unwrap();
        synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap()
    }

    #[test]
    fn sliced_plan_is_built_only_when_asked() {
        let m = handshake();
        assert!(m.compiled_with(&CompileOptions::raw()).slice_plan().is_none());
        assert!(m
            .compiled_with(&CompileOptions::optimized())
            .slice_plan()
            .is_some());
    }

    #[test]
    fn sliced_feed_matches_scalar_on_sparse_trace() {
        let m = handshake();
        let doc = parse_document(
            "scesc hs on clk { instances { M } events { req, ack } \
             tick { M: req } tick { M: ack } }",
        )
        .unwrap();
        let req = doc.alphabet.lookup("req").unwrap();
        let ack = doc.alphabet.lookup("ack").unwrap();
        // long quiet stretches with a handshake every ~97 ticks, over a
        // non-multiple-of-64 length
        let trace: Vec<Valuation> = (0..1000)
            .map(|i| match i % 97 {
                11 => Valuation::of([req]),
                12 => Valuation::of([ack]),
                _ => Valuation::empty(),
            })
            .collect();
        let reference = m.scan_batch(&trace);

        let sliced = m.compiled_with(&CompileOptions::optimized());
        assert!(sliced.slice_plan().is_some());
        let mut exec = sliced.executor();
        let mut hits = Vec::new();
        for chunk in trace.chunks(129) {
            exec.feed(chunk, &mut hits);
        }
        // quiet skipping must actually have engaged
        assert!(exec.words() > 0, "no word evaluations recorded");
        assert!(
            exec.words() < trace.len() as u64 / 2,
            "quiescent regions were not skipped in bulk ({} words)",
            exec.words()
        );
        assert_eq!(exec.finish(hits), reference);
    }
}
