//! The VCD body decoder behind [`crate::GlobalVcdStream`].
//!
//! The body is cut into byte blocks at line boundaries. Each block is
//! *folded* on its own ([`Folded::fold`]): every body line only sets a
//! value, so a block's effect on the signals is a pair of cumulative
//! `(set, clear)` symbol masks, whatever the state at block entry was.
//! The fold records, per instant that closes inside the block, those
//! masks and the clocks that rose in it; a clock whose first change in
//! the block is a rise from an unknown level is recorded as a rise
//! *only if* its level at block entry was low. The [`Stitcher`] then
//! walks the folded blocks in order against the real entry state
//! (valuation, clock levels, current time, line offset) and applies the
//! sampling rules — a step per instant in which clocks rose, sampled
//! after all of that instant's changes — so a timestamp repeated across
//! a block boundary, a block that starts mid-instant, a backwards
//! timestamp at a boundary and every error line come out exactly as a
//! line-by-line read would give them.
//!
//! Folding needs no entry state, so blocks can be folded on worker
//! threads ([`Workers`]) while the caller reads ahead and stitches. On
//! one thread the fold is seeded with the known entry state, so every
//! rise is certain and the stitch only emits steps.

use std::collections::HashMap;
use std::io::{self, Read};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cesc_expr::Valuation;
use crossbeam::channel::{self, Receiver, Sender};

use crate::clock::ClockId;
use crate::global::GlobalStep;
use crate::vcd::VcdReadError;

/// A set of sampled clocks, one bit per clock index.
pub(crate) type ClockMask = u64;

/// Most clocks one stream samples: one bit each in a [`ClockMask`].
pub(crate) const MAX_CLOCKS: usize = ClockMask::BITS as usize;

/// Bytes a block holds before it is cut at its last line end.
pub(crate) const BLOCK_BYTES: usize = 64 * 1024;

/// Blocks handed to one decode worker and not yet stitched. Two keep a
/// worker folding the next block while the caller stitches its last.
const IN_FLIGHT: usize = 2;

/// What one VCD identifier code drives. Standard VCD lets several
/// `$var`s share a code (aliased nets), so a code carries a *set* of
/// symbols and of clocks.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CodeBinding {
    /// Bitmask of the alphabet symbols declared under this code.
    pub(crate) symbols: u128,
    /// The requested clocks declared under this code.
    pub(crate) clocks: ClockMask,
}

/// Number of printable identifier-code characters, `!`..=`~`.
const CODE_CHARS: usize = 94;

#[inline]
fn is_code_byte(b: u8) -> bool {
    (b'!'..=b'~').contains(&b)
}

/// Whether `b` opens a scalar value change: `1`, or a `0`/`x`/`z`
/// that reads as false.
#[inline]
fn is_scalar_value(b: u8) -> bool {
    matches!(b, b'0' | b'1' | b'x' | b'X' | b'z' | b'Z')
}

/// Identifier code → [`CodeBinding`], resolved without hashing for the
/// 1- and 2-character codes simulators hand out first.
///
/// `dense` holds one `u32` per such code — 94 one-character slots,
/// then 94² two-character slots in row-major order, about 35 KB — and
/// each slot is `index + 1` into `bindings`, `0` meaning unbound, so a
/// value change on an unnamed signal costs one load. Longer codes,
/// and codes with bytes outside `!`..=`~`, go through `long`.
#[derive(Debug)]
pub(crate) struct CodeTable {
    dense: Vec<u32>,
    long: HashMap<Vec<u8>, u32>,
    bindings: Vec<CodeBinding>,
}

impl CodeTable {
    pub(crate) fn new() -> Self {
        CodeTable {
            dense: vec![0; CODE_CHARS + CODE_CHARS * CODE_CHARS],
            long: HashMap::new(),
            bindings: Vec::new(),
        }
    }

    /// The `dense` slot of the one-character code `c`, a code byte.
    #[inline]
    fn slot1(c: u8) -> usize {
        usize::from(c - b'!')
    }

    /// The `dense` slot of the two-character code `ab`, code bytes.
    #[inline]
    fn slot2(a: u8, b: u8) -> usize {
        CODE_CHARS + Self::slot1(a) * CODE_CHARS + Self::slot1(b)
    }

    /// The `dense` slot of a 1- or 2-character printable code.
    #[inline]
    fn dense_slot(code: &[u8]) -> Option<usize> {
        match *code {
            [a] if is_code_byte(a) => Some(Self::slot1(a)),
            [a, b] if is_code_byte(a) && is_code_byte(b) => Some(Self::slot2(a, b)),
            _ => None,
        }
    }

    /// The binding for `code`, created unbound on first use.
    pub(crate) fn entry(&mut self, code: &str) -> &mut CodeBinding {
        let code = code.as_bytes();
        let slot = match Self::dense_slot(code) {
            Some(i) => &mut self.dense[i],
            None => self.long.entry(code.to_vec()).or_insert(0),
        };
        if *slot == 0 {
            self.bindings.push(CodeBinding::default());
            *slot = u32::try_from(self.bindings.len()).expect("fewer than 2^32 declared codes");
        }
        &mut self.bindings[*slot as usize - 1]
    }

    /// Bitmask of the alphabet symbols some declared code carries.
    pub(crate) fn symbols(&self) -> u128 {
        self.bindings.iter().fold(0, |acc, b| acc | b.symbols)
    }

    #[inline]
    fn get(&self, code: &[u8]) -> Option<CodeBinding> {
        match Self::dense_slot(code) {
            Some(i) => self.dense_get(i),
            None => self.bound(self.long.get(code).copied().unwrap_or(0)),
        }
    }

    /// The binding in `dense` slot `i`.
    #[inline]
    fn dense_get(&self, i: usize) -> Option<CodeBinding> {
        self.bound(self.dense[i])
    }

    /// The binding a slot value names, `None` for `0` (unbound).
    #[inline]
    fn bound(&self, slot: u32) -> Option<CodeBinding> {
        (slot != 0).then(|| self.bindings[slot as usize - 1])
    }
}

/// Parses the text after `#` as a timestamp.
fn parse_timestamp(rest: &str, lineno: usize) -> Result<u64, VcdReadError> {
    rest.trim()
        .parse::<u64>()
        .map_err(|_| VcdReadError::Malformed {
            line: lineno,
            message: format!("bad timestamp `#{}`", rest.trim()),
        })
}

/// Parses one VCD value-change line into `(value, identifier code)`.
/// `lineno` is 1-based.
fn parse_change(line: &str, lineno: usize) -> Result<(bool, &str), VcdReadError> {
    if let Some(rest) = line.strip_prefix('b').or_else(|| line.strip_prefix('B')) {
        // vector: b<binary> <code>; x/z bits are "not 1", i.e. false
        let mut parts = rest.split_whitespace();
        let bits = parts.next().unwrap_or("");
        if let Some(bad) = bits
            .chars()
            .find(|c| !matches!(c, '0' | '1' | 'x' | 'X' | 'z' | 'Z'))
        {
            return Err(VcdReadError::Malformed {
                line: lineno,
                message: format!("invalid bit `{bad}` in vector change"),
            });
        }
        let code = parts.next().ok_or_else(|| VcdReadError::Malformed {
            line: lineno,
            message: "vector change missing identifier".to_owned(),
        })?;
        Ok((bits.contains('1'), code))
    } else {
        let mut chars = line.chars();
        let v = chars.next().ok_or_else(|| VcdReadError::Malformed {
            line: lineno,
            message: "empty value change".to_owned(),
        })?;
        let value = match v {
            '1' => true,
            '0' | 'x' | 'X' | 'z' | 'Z' => false,
            other => {
                return Err(VcdReadError::Malformed {
                    line: lineno,
                    message: format!("unsupported value change `{other}`"),
                })
            }
        };
        Ok((value, chars.as_str().trim()))
    }
}

/// The error for timestamp `t` read at `line` while the current
/// instant is `cur`.
fn backwards(line: usize, t: u64, cur: u64) -> VcdReadError {
    VcdReadError::Malformed {
        line,
        message: format!("timestamp #{t} goes backwards (after #{cur})"),
    }
}

/// Bytes stage 1 of the fold indexes at once.
const WINDOW: usize = 64;

/// Stage 1 of the fold: bit `i` of the result is set exactly when
/// `window[i]` is `\n`. Four 16-byte SSE2 compares, each turned into
/// 16 mask bits. SSE2 is part of the x86_64 baseline, so this needs no
/// runtime feature check.
#[cfg(target_arch = "x86_64")]
#[inline]
fn line_ends(window: &[u8; WINDOW]) -> u64 {
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8,
    };
    let p = window.as_ptr().cast::<__m128i>();
    // SAFETY: SSE2 is enabled on every x86_64 target, so its intrinsics
    // are always available, and the four unaligned loads read bytes
    // 0..16, 16..32, 32..48 and 48..64 of the 64-byte array `window`
    // borrows, so they stay in bounds.
    let lanes = unsafe {
        let nl = _mm_set1_epi8(b'\n' as i8);
        [0, 1, 2, 3].map(|i| _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_loadu_si128(p.add(i)), nl)))
    };
    lanes.iter().enumerate().fold(0, |ends, (i, &bits)| {
        ends | u64::from(bits as u16) << (16 * i)
    })
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn line_ends(window: &[u8; WINDOW]) -> u64 {
    line_ends_portable(window)
}

/// [`line_ends`] eight bytes per step in plain integer arithmetic: the
/// kernel of builds for other targets, and the oracle the SSE2 kernel
/// is tested against. In `x = word ^ b"\n\n\n\n\n\n\n\n"` a byte is
/// zero exactly where the word holds a newline, and
/// `!(((x & 0x7F…7F) + 0x7F…7F) | x | 0x7F…7F)` sets the high bit of
/// exactly those bytes (no carry crosses a byte). A multiply gathers
/// the eight high bits into one byte.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn line_ends_portable(window: &[u8; WINDOW]) -> u64 {
    const NL: u64 = u64::from_le_bytes([b'\n'; 8]);
    const LOW7: u64 = u64::from_le_bytes([0x7F; 8]);
    const GATHER: u64 = 0x0102_0408_1020_4080;
    window
        .chunks_exact(8)
        .enumerate()
        .fold(0, |ends, (i, word)| {
            let x = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")) ^ NL;
            let zero = !(((x & LOW7) + LOW7) | x | LOW7);
            let bits = (zero >> 7).wrapping_mul(GATHER) >> 56;
            ends | bits << (8 * i)
        })
}

/// A timestamp written as 1 to 19 plain decimal digits (so it cannot
/// overflow), or `None` for anything else — signs, inner blanks, longer
/// numbers — which [`parse_timestamp`] then decides.
#[inline]
fn plain_timestamp(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || digits.len() > 19 {
        return None;
    }
    digits.iter().try_fold(0u64, |t, &d| {
        d.is_ascii_digit().then(|| t * 10 + u64::from(d - b'0'))
    })
}

/// [`VcdReadError::Io`]'s message for a body line that is not UTF-8,
/// the same words `BufRead::read_line` uses for the header.
const NOT_UTF8: &str = "stream did not contain valid UTF-8";

/// One record of a folded block: the clocks that rose since the
/// previous record, and the signal masks at its end. The masks are
/// cumulative from block entry: a symbol in `set` is high, one in
/// `clear` is low, and any other still has its value at block entry.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// The instant a close record samples (unused by head and tail).
    time: u64,
    rose: ClockMask,
    set: u128,
    clear: u128,
}

/// What folding one block produced.
///
/// With a first timestamp line, `records` is the *head* (changes
/// before that line), then one *close* per instant that ended inside
/// the block with clocks risen in it — plus always the close of the
/// instant the first timestamp line opened, which may continue the
/// previous block's instant — then the *tail* (the instant still open
/// at block end). Without one, `records` is the tail alone.
#[derive(Debug, Default)]
pub(crate) struct Folded {
    /// The first timestamp line's time and block-local line number.
    first: Option<(u64, usize)>,
    /// The last timestamp line's time.
    last: u64,
    records: Vec<Record>,
    /// Conditional rises: a record index and the clocks that rose
    /// there on their first change in the block, from an unknown level.
    cond: Vec<(usize, ClockMask)>,
    /// Clocks changed in the block, and those high at its end.
    known: ClockMask,
    high: ClockMask,
    /// Lines folded, the bytes they span, and the nanoseconds the fold
    /// took.
    lines: usize,
    bytes: usize,
    fold_ns: u64,
    /// The block's first error, with a block-local line number.
    error: Option<VcdReadError>,
    /// Stitch progress: the next record, and the lines before the block.
    cursor: usize,
    base: usize,
}

/// The running state of one fold.
struct Fold<'a> {
    codes: &'a CodeTable,
    out: &'a mut Folded,
    set: u128,
    clear: u128,
    known: ClockMask,
    high: ClockMask,
    /// Clocks that rose since the last record, for certain and only if
    /// low at block entry.
    rose: ClockMask,
    maybe: ClockMask,
    /// Whether a timestamp line was seen, and the latest one's time.
    stamped: bool,
    time: u64,
    /// The first timestamp line's instant still needs its close record.
    close_first: bool,
    line: usize,
}

impl Folded {
    /// Folds `text`, whole lines of VCD body (the last may lack its
    /// `\n` at end of input). `entry` seeds the fold with the known
    /// valuation and clock levels at block entry; without it every
    /// level starts unknown.
    pub(crate) fn fold(
        &mut self,
        codes: &CodeTable,
        text: &[u8],
        entry: Option<(u128, ClockMask)>,
    ) {
        let started = Instant::now();
        self.records.clear();
        self.cond.clear();
        self.first = None;
        self.error = None;
        self.cursor = 0;
        let (set, clear, known, high) = match entry {
            Some((values, levels)) => (values, !values, ClockMask::MAX, levels),
            None => (0, 0, 0, 0),
        };
        let mut f = Fold {
            codes,
            out: self,
            set,
            clear,
            known,
            high,
            rose: 0,
            maybe: 0,
            stamped: false,
            time: 0,
            close_first: false,
            line: 0,
        };
        if let Err(e) = f.lines(text) {
            f.out.error = Some(e);
        }
        f.push(f.time);
        f.out.last = f.time;
        f.out.known = f.known;
        f.out.high = f.high;
        f.out.lines = f.line;
        self.bytes = text.len();
        self.fold_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
}

impl Fold<'_> {
    /// Decodes `text` line by line, up to and including the first line
    /// in error; the last line may lack its `\n`. Stage 1 finds the
    /// line ends of a [`WINDOW`] of bytes at once ([`line_ends`]), and
    /// the set bits of that mask, lowest first, delimit the lines
    /// stage 2 ([`Fold::decode_line`]) decodes. A last, partial window
    /// is indexed from a zero-padded copy.
    fn lines(&mut self, text: &[u8]) -> Result<(), VcdReadError> {
        let mut start = 0;
        let mut base = 0;
        while base < text.len() {
            let mut ends = match text.get(base..base + WINDOW) {
                Some(window) => line_ends(window.try_into().expect("a whole window")),
                None => {
                    let mut window = [0; WINDOW];
                    window[..text.len() - base].copy_from_slice(&text[base..]);
                    line_ends(&window)
                }
            };
            while ends != 0 {
                let end = base + ends.trailing_zeros() as usize;
                self.line += 1;
                self.decode_line(&text[start..end])?;
                start = end + 1;
                ends &= ends - 1;
            }
            base += WINDOW;
        }
        if start < text.len() {
            self.line += 1;
            self.decode_line(&text[start..])?;
        }
        Ok(())
    }

    /// Decodes one body line (without its `\n`). The shapes most lines
    /// of a dump have are matched first, on the untrimmed bytes: a
    /// scalar change on a one- or two-character printable code, which
    /// indexes the dense code table directly, and `#` with 1 to 19
    /// plain digits. Any other line is trimmed and matched again for
    /// scalar changes and timestamps; what is left — directives,
    /// vectors, reals, signed or spaced timestamps, non-ASCII bytes,
    /// errors — goes through [`Fold::text_line`], so every path shares
    /// one set of semantics. The exact shapes are inlined into the fold
    /// loop and the rest is kept out of it.
    #[inline(always)]
    fn decode_line(&mut self, raw: &[u8]) -> Result<(), VcdReadError> {
        match *raw {
            [v, c] if is_scalar_value(v) && is_code_byte(c) => {
                self.change(v == b'1', self.codes.dense_get(CodeTable::slot1(c)));
                return Ok(());
            }
            [v, a, b] if is_scalar_value(v) && is_code_byte(a) && is_code_byte(b) => {
                self.change(v == b'1', self.codes.dense_get(CodeTable::slot2(a, b)));
                return Ok(());
            }
            [b'#', ref digits @ ..] => {
                if let Some(t) = plain_timestamp(digits) {
                    return self.stamp(t);
                }
            }
            _ => {}
        }
        self.trimmed_line(raw)
    }

    /// A line of any other shape: the trimmed timestamp and scalar
    /// arms, then [`Fold::text_line`].
    #[inline(never)]
    fn trimmed_line(&mut self, raw: &[u8]) -> Result<(), VcdReadError> {
        match raw.trim_ascii() {
            [] => return Ok(()),
            [b'#', digits @ ..] => {
                if let Some(t) = plain_timestamp(digits) {
                    return self.stamp(t);
                }
            }
            [v, code @ ..] if is_scalar_value(*v) => {
                let code = code.trim_ascii_start();
                if !code.is_empty() && code.iter().all(|&b| is_code_byte(b)) {
                    self.change(*v == b'1', self.codes.get(code));
                    return Ok(());
                }
            }
            _ => {}
        }
        self.text_line(raw)
    }

    /// The general path over a line validated as UTF-8.
    fn text_line(&mut self, raw: &[u8]) -> Result<(), VcdReadError> {
        let text = std::str::from_utf8(raw).map_err(|_| VcdReadError::Io {
            message: NOT_UTF8.to_owned(),
        })?;
        let line = text.trim();
        if line.is_empty() {
            return Ok(());
        }
        if line.starts_with('$') {
            return directive(line, self.line);
        }
        if let Some(rest) = line.strip_prefix('#') {
            let t = parse_timestamp(rest, self.line)?;
            return self.stamp(t);
        }
        if line.starts_with(['r', 'R', 's', 'S']) {
            // a real or string change: `r<value> <code>`. Its value is
            // never read when no sampled symbol or clock uses the code.
            let code = line.split_whitespace().nth(1);
            if code.is_some_and(|c| self.codes.get(c.as_bytes()).is_none()) {
                return Ok(());
            }
        }
        let (value, code) = parse_change(line, self.line)?;
        self.change(value, self.codes.get(code.as_bytes()));
        Ok(())
    }

    /// A timestamp line. Only the first one's relation to the entry
    /// instant is unknown here; later ones close the current instant
    /// when they move time forward. Always inlined, as is
    /// [`Fold::push`]: about a third of a dump's lines are timestamps,
    /// and the fold loop's speed should not hang on how much of the
    /// rarely run general path the inliner also takes in.
    #[inline(always)]
    fn stamp(&mut self, t: u64) -> Result<(), VcdReadError> {
        if !self.stamped {
            self.stamped = true;
            self.close_first = true;
            self.out.first = Some((t, self.line));
            self.push(0);
        } else if t < self.time {
            return Err(backwards(self.line, t, self.time));
        } else if t > self.time && (self.rose | self.maybe != 0 || self.close_first) {
            self.close_first = false;
            self.push(self.time);
        }
        self.time = t;
        Ok(())
    }

    /// Applies a value change on a code bound to `binding` (`None`: a
    /// code nothing sampled uses).
    #[inline(always)]
    fn change(&mut self, value: bool, binding: Option<CodeBinding>) {
        let Some(binding) = binding else {
            return;
        };
        let clocks = binding.clocks;
        if clocks != 0 {
            if value {
                self.rose |= clocks & self.known & !self.high;
                self.maybe |= clocks & !self.known;
                self.high |= clocks;
            } else {
                self.high &= !clocks;
            }
            self.known |= clocks;
        }
        if value {
            self.set |= binding.symbols;
            self.clear &= !binding.symbols;
        } else {
            self.clear |= binding.symbols;
            self.set &= !binding.symbols;
        }
    }

    /// Records the rises since the last record with the current masks.
    #[inline(always)]
    fn push(&mut self, time: u64) {
        if self.maybe != 0 {
            self.out.cond.push((self.out.records.len(), self.maybe));
            self.maybe = 0;
        }
        self.out.records.push(Record {
            time,
            rose: self.rose,
            set: self.set,
            clear: self.clear,
        });
        self.rose = 0;
    }
}

/// A body directive line. Directives are skipped (`$dumpvars` bodies
/// are value changes), except a `$comment` the line does not close: a
/// block folds without its entry state, so it cannot tell comment text
/// from value changes, and refuses it. Out of line and cold, so the
/// fold loop's code stays as small as without the check.
#[cold]
#[inline(never)]
fn directive(line: &str, lineno: usize) -> Result<(), VcdReadError> {
    let mut toks = line.split_whitespace();
    if toks.next() == Some("$comment") && !toks.any(|t| t == "$end") {
        return Err(VcdReadError::Malformed {
            line: lineno,
            message: "`$comment` not closed by `$end` on the same line \
                      (multi-line comments are only read in the header)"
                .to_owned(),
        });
    }
    Ok(())
}

/// The sampling state between folded blocks, and the rules that turn
/// their records into [`GlobalStep`]s.
#[derive(Debug)]
pub(crate) struct Stitcher {
    /// Per clock: symbol mask its ticks carry (`u128::MAX` = all).
    masks: Vec<u128>,
    /// Signal values and clock levels after the last stitched block.
    values: u128,
    levels: ClockMask,
    /// All changes dumped at one `#time` are simultaneous: clocks that
    /// rose at the current instant are sampled *after* every change of
    /// that instant, so their shared step is emitted when time moves on
    /// (or input ends).
    pending: ClockMask,
    time: u64,
    /// Lines before the next block.
    line: usize,
    /// Totals over the blocks opened so far: body lines, their bytes,
    /// and the nanoseconds spent folding them.
    pub(crate) lines: u64,
    pub(crate) bytes: u64,
    pub(crate) fold_ns: u64,
    /// Recycled tick vectors: [`crate::GlobalVcdStream::next_chunk`]
    /// reclaims the caller's previous chunk's `ticks` allocations here
    /// and [`Stitcher::flush`] reuses them, so steady-state streaming
    /// allocates nothing per step.
    pub(crate) spare: Vec<Vec<(ClockId, Valuation)>>,
}

impl Stitcher {
    /// Starts before the first body line, `line` lines into the input.
    pub(crate) fn new(masks: Vec<u128>, line: usize) -> Self {
        Stitcher {
            masks,
            values: 0,
            levels: 0,
            pending: 0,
            time: 0,
            line,
            lines: 0,
            bytes: 0,
            fold_ns: 0,
            spare: Vec::new(),
        }
    }

    /// The valuation and clock levels a block folded next starts from,
    /// once every earlier block is stitched.
    pub(crate) fn entry(&self) -> (u128, ClockMask) {
        (self.values, self.levels)
    }

    /// Takes `f` as the next block: resolves its conditional rises
    /// against the clock levels at its entry, places its lines and
    /// counts its fold.
    pub(crate) fn open(&mut self, f: &mut Folded) {
        for &(i, clocks) in &f.cond {
            f.records[i].rose |= clocks & !self.levels;
        }
        f.base = self.line;
        self.line += f.lines;
        self.lines += f.lines as u64;
        self.bytes += f.bytes as u64;
        self.fold_ns += f.fold_ns;
    }

    /// Stitches `f` from its cursor until `buf` holds `max` steps.
    /// Each record yields at most one step. Returns whether the block
    /// is done; its error, if any, comes after all of its records.
    pub(crate) fn stitch(
        &mut self,
        f: &mut Folded,
        buf: &mut Vec<GlobalStep>,
        max: usize,
    ) -> Result<bool, VcdReadError> {
        let last = f.records.len() - 1;
        while f.cursor <= last {
            if buf.len() >= max {
                return Ok(false);
            }
            let i = f.cursor;
            f.cursor += 1;
            let r = f.records[i];
            self.pending |= r.rose;
            if i == last {
                self.values = self.state(&r);
                self.levels = (self.levels & !f.known) | f.high;
                if f.first.is_some() {
                    self.time = f.last;
                }
            } else if i == 0 {
                let (t, line) = f.first.expect("a block with closes has a timestamp");
                if t < self.time {
                    return Err(backwards(f.base + line, t, self.time));
                }
                if t > self.time {
                    // a pending step belongs to the instant it was
                    // sampled at, so the flush uses the time *before*
                    // the advance
                    let prev = self.time;
                    self.time = t;
                    self.flush(prev, self.state(&r), buf);
                }
            } else {
                self.flush(r.time, self.state(&r), buf);
            }
        }
        match f.error.take() {
            Some(VcdReadError::Malformed { line, message }) => Err(VcdReadError::Malformed {
                line: f.base + line,
                message,
            }),
            Some(e) => Err(e),
            None => Ok(true),
        }
    }

    /// Emits the instant still open at end of input.
    pub(crate) fn finish(&mut self, buf: &mut Vec<GlobalStep>) {
        self.flush(self.time, self.values, buf);
    }

    /// The signal values at the end of record `r` of the block being
    /// stitched.
    fn state(&self, r: &Record) -> u128 {
        (self.values & !r.clear) | r.set
    }

    /// Emits the clocks pending at instant `time` as one step, sampled
    /// from signal values `state`.
    fn flush(&mut self, time: u64, state: u128, buf: &mut Vec<GlobalStep>) {
        if self.pending == 0 {
            return;
        }
        let mut ticks = self.spare.pop().unwrap_or_default();
        let mut pending = self.pending;
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            ticks.push((
                ClockId::from_index(i),
                Valuation::from_bits(state & self.masks[i]),
            ));
            pending &= pending - 1;
        }
        buf.push(GlobalStep { time, ticks });
        self.pending = 0;
    }
}

/// A block of body bytes cut at a line end, and what folding it
/// produced. Jobs are recycled, so their buffers are allocated once.
#[derive(Debug, Default)]
pub(crate) struct Job {
    /// The block is `text[..len]`; the rest is read space.
    text: Vec<u8>,
    len: usize,
    pub(crate) folded: Folded,
}

/// How a block is folded on a decode worker: a plain function, so a
/// test can hand the workers one that fails.
pub(crate) type FoldFn = fn(&CodeTable, &mut Job);

impl Job {
    /// Folds the block with every level at entry unknown — the fold a
    /// decode worker runs.
    pub(crate) fn fold_unseeded(codes: &CodeTable, job: &mut Job) {
        job.folded.fold(codes, &job.text[..job.len], None);
    }

    /// Folds the block from a known entry state — the fold the caller
    /// runs inline.
    pub(crate) fn fold_seeded(&mut self, codes: &CodeTable, entry: (u128, ClockMask)) {
        self.folded.fold(codes, &self.text[..self.len], Some(entry));
    }
}

/// Cuts a reader's bytes into blocks that end at a line end.
#[derive(Debug)]
pub(crate) struct BlockReader<R> {
    reader: R,
    /// Bytes a block holds before it is cut.
    pub(crate) block_size: usize,
    /// The bytes after the last line end read so far: the start of the
    /// next block.
    carry: Vec<u8>,
    ended: bool,
    /// An I/O error, held back until the blocks read before it are
    /// stitched.
    pub(crate) failed: Option<VcdReadError>,
}

impl<R: Read> BlockReader<R> {
    pub(crate) fn new(reader: R) -> Self {
        BlockReader {
            reader,
            block_size: BLOCK_BYTES,
            carry: Vec::new(),
            ended: false,
            failed: None,
        }
    }

    /// Whether reading stopped: at end of input or an I/O error.
    pub(crate) fn ended(&self) -> bool {
        self.ended
    }

    /// Fills `job` with the next block: at least `block_size` bytes
    /// cut after the last line end, or what is left at end of input.
    /// `false` when there is nothing left, or only the partial line
    /// before an I/O error (which is then in `failed`).
    pub(crate) fn read(&mut self, job: &mut Job) -> bool {
        if self.ended {
            return false;
        }
        let want = self.block_size.max(self.carry.len() + 1);
        if job.text.len() < want {
            job.text.resize(want, 0);
        }
        let mut len = self.carry.len();
        job.text[..len].copy_from_slice(&self.carry);
        self.carry.clear();
        // end of the last whole line; the carry holds no line end
        let mut cut = 0;
        while len < self.block_size || cut == 0 {
            if len == job.text.len() {
                job.text.resize(2 * len, 0);
            }
            match self.reader.read(&mut job.text[len..]) {
                Ok(0) => {
                    self.ended = true;
                    cut = len;
                    break;
                }
                Ok(n) => {
                    if let Some(p) = job.text[len..len + n].iter().rposition(|&b| b == b'\n') {
                        cut = len + p + 1;
                    }
                    len += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.ended = true;
                    self.failed = Some(VcdReadError::Io {
                        message: e.to_string(),
                    });
                    len = cut;
                    break;
                }
            }
        }
        self.carry.extend_from_slice(&job.text[cut..len]);
        job.len = cut;
        cut > 0
    }
}

/// One decode worker: its job queue, its result queue and its thread.
#[derive(Debug)]
struct Lane {
    jobs: Option<Sender<Job>>,
    folded: Receiver<Job>,
    handle: Option<JoinHandle<()>>,
}

/// The decode workers of a stream. Block `k` goes to worker
/// `k mod n` and comes back through that worker's FIFO queue, so
/// blocks return in input order with no reorder buffer. At most
/// [`IN_FLIGHT`] blocks per worker are out at once. The queues are
/// bounded channels, which never allocate after creation. Dropping the
/// workers closes their queues and joins their threads.
#[derive(Debug)]
pub(crate) struct Workers {
    lanes: Vec<Lane>,
    sent: usize,
    received: usize,
}

impl Workers {
    /// Starts `n` worker threads folding blocks with `fold`.
    pub(crate) fn spawn(n: usize, codes: &Arc<CodeTable>, fold: FoldFn) -> Self {
        let lanes = (0..n)
            .map(|i| {
                let (jobs, todo) = channel::bounded::<Job>(IN_FLIGHT);
                let (done, folded) = channel::bounded::<Job>(IN_FLIGHT);
                let codes = Arc::clone(codes);
                let handle = std::thread::Builder::new()
                    .name(format!("vcd-decode-{i}"))
                    .spawn(move || {
                        while let Ok(mut job) = todo.recv() {
                            fold(&codes, &mut job);
                            if done.send(job).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn a VCD decode worker");
                Lane {
                    jobs: Some(jobs),
                    folded,
                    handle: Some(handle),
                }
            })
            .collect();
        Workers {
            lanes,
            sent: 0,
            received: 0,
        }
    }

    /// Most blocks out at once.
    pub(crate) fn blocks_out(&self) -> usize {
        IN_FLIGHT * self.lanes.len()
    }

    /// Whether another block may be sent.
    pub(crate) fn has_room(&self) -> bool {
        self.sent - self.received < self.blocks_out()
    }

    /// Whether blocks are out.
    pub(crate) fn busy(&self) -> bool {
        self.sent > self.received
    }

    /// Sends the next block to its worker. Never blocks: a worker's
    /// queues hold [`IN_FLIGHT`] blocks and [`Workers::has_room`] keeps
    /// fewer out.
    pub(crate) fn send(&mut self, job: Job) {
        let lane = self.sent % self.lanes.len();
        let jobs = self.lanes[lane]
            .jobs
            .as_ref()
            .expect("queue open while running");
        if jobs.send(job).is_err() {
            self.reraise(lane);
        }
        self.sent += 1;
    }

    /// The oldest block out, folded; blocks until its worker is done.
    /// A worker that panicked re-raises its panic here: a closed queue
    /// never reads as end of input.
    pub(crate) fn receive(&mut self) -> Job {
        let lane = self.received % self.lanes.len();
        match self.lanes[lane].folded.recv() {
            Ok(job) => {
                self.received += 1;
                job
            }
            Err(_) => self.reraise(lane),
        }
    }

    fn reraise(&mut self, lane: usize) -> ! {
        let lane = &mut self.lanes[lane];
        lane.jobs = None;
        match lane.handle.take().map(JoinHandle::join) {
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            _ => panic!("a VCD decode worker stopped before its blocks were decoded"),
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for lane in &mut self.lanes {
            lane.jobs = None;
        }
        for lane in &mut self.lanes {
            if let Some(handle) = lane.handle.take() {
                // a worker's panic surfaces through `receive`; one met
                // while the stream is dropped has nobody left to see it
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-by-bit definition of [`line_ends`].
    fn line_ends_naive(window: &[u8; WINDOW]) -> u64 {
        (0..WINDOW)
            .filter(|&i| window[i] == b'\n')
            .fold(0, |ends, i| ends | 1 << i)
    }

    #[test]
    fn line_ends_equals_the_portable_kernel() {
        // random windows drawn from newlines, the bytes a newline test
        // must not confuse with one (`0x0A | 0x80`, and `0x0B`, which
        // is 1 after the XOR and fools the usual zero-byte test), the
        // extremes `0x00` and `0xFF`, and any byte at all
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x11E5);
        const BYTES: [u8; 5] = [b'\n', 0x8A, 0x0B, 0x00, 0xFF];
        let mut windows = vec![[b'\n'; WINDOW], [b'a'; WINDOW], [0; WINDOW], [0xFF; WINDOW]];
        for _ in 0..20_000 {
            let newline = f64::from(rng.random_range(0..=100u32)) / 100.0;
            windows.push(std::array::from_fn(|_| {
                if rng.random_bool(newline) {
                    b'\n'
                } else if rng.random_bool(0.5) {
                    BYTES[rng.random_range(0..BYTES.len())]
                } else {
                    rng.random_range(0..=255u8)
                }
            }));
        }
        for window in &windows {
            let ends = line_ends(window);
            assert_eq!(ends, line_ends_portable(window), "{window:?}");
            assert_eq!(ends, line_ends_naive(window), "{window:?}");
        }
        assert_eq!(line_ends(&windows[0]), u64::MAX);
        assert_eq!(line_ends(&windows[1]), 0);
    }
}
