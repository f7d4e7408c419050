//! The VCD body decoder behind [`crate::GlobalVcdStream`].
//!
//! The body is cut into byte blocks at line boundaries
//! ([`BlockReader`]), and a [`Walk`] decodes a block's lines on the
//! caller's thread. The walk starts from the [`Sampler`]'s whole
//! sampling state — valuation, clock levels, pending rises, current
//! time, line number — so it applies the sampling rules itself (a step
//! per instant in which clocks rose, sampled after all of that
//! instant's changes) and writes each [`GlobalStep`] into the caller's
//! [`Chunk`] as the instant closes. When the chunk is full the walk
//! pauses after that line, and the next call resumes there.

use std::collections::HashMap;
use std::io::{self, Read};
use std::time::Instant;

use cesc_expr::Valuation;

use crate::clock::ClockId;
use crate::global::GlobalStep;
use crate::vcd::VcdReadError;

/// A set of sampled clocks, one bit per clock index.
pub(crate) type ClockMask = u64;

/// Most clocks one stream samples: one bit each in a [`ClockMask`].
pub(crate) const MAX_CLOCKS: usize = ClockMask::BITS as usize;

/// Bytes a block holds before it is cut at its last line end.
pub(crate) const BLOCK_BYTES: usize = 64 * 1024;

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

/// Nanoseconds since `started`.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Decodes the lines of a block on the caller's thread: the
/// [`Sampler`]'s sampling state, copied in for the walk and back after
/// it, and the chunk its steps are written to.
struct Walk<'a, 'c> {
    codes: &'a CodeTable,
    /// The number of the last line decoded, counted from the top of the
    /// input.
    line: usize,
    masks: &'a [u128],
    values: u128,
    levels: ClockMask,
    pending: ClockMask,
    time: u64,
    chunk: &'a mut Chunk<'c>,
}

impl Walk<'_, '_> {
    /// Decodes the lines of `text` from byte `from`, a line start, up
    /// to and including the first line in error or the line whose step
    /// fills the chunk; the last line may lack its `\n`. Returns where the
    /// next line starts, `text.len()` once every line is decoded.
    /// Stage 1 finds the line ends of a [`WINDOW`] of bytes at once
    /// ([`line_ends`]), and the set bits of that mask, lowest first,
    /// delimit the lines stage 2 ([`Walk::decode_line`]) decodes. A
    /// last, partial window is indexed from a zero-padded copy.
    fn lines(&mut self, text: &[u8], from: usize) -> Result<usize, VcdReadError> {
        let mut start = from;
        let mut base = from;
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
                let pause = self.decode_line(&text[start..end])?;
                start = end + 1;
                if pause {
                    return Ok(start);
                }
                ends &= ends - 1;
            }
            base += WINDOW;
        }
        if start < text.len() {
            self.line += 1;
            self.decode_line(&text[start..])?;
        }
        Ok(text.len())
    }

    /// Decodes one body line (without its `\n`); `Ok(true)` pauses the
    /// walk. The shapes most lines of a dump have are matched first, on
    /// the untrimmed bytes: a scalar change on a one- or two-character
    /// printable code, which indexes the dense code table directly, and
    /// `#` with 1 to 19 plain digits. Any other line is trimmed and
    /// matched again for scalar changes and timestamps; what is left —
    /// directives, vectors, reals, signed or spaced timestamps,
    /// non-ASCII bytes, errors — goes through [`Walk::text_line`], so
    /// every path shares one set of semantics. The exact shapes are
    /// inlined into the walk loop and the rest is kept out of it.
    #[inline(always)]
    fn decode_line(&mut self, raw: &[u8]) -> Result<bool, VcdReadError> {
        match *raw {
            [v, c] if is_scalar_value(v) && is_code_byte(c) => {
                let binding = self.codes.dense_get(CodeTable::slot1(c));
                self.change(v == b'1', binding);
                return Ok(false);
            }
            [v, a, b] if is_scalar_value(v) && is_code_byte(a) && is_code_byte(b) => {
                let binding = self.codes.dense_get(CodeTable::slot2(a, b));
                self.change(v == b'1', binding);
                return Ok(false);
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
    /// arms, then [`Walk::text_line`].
    #[inline(never)]
    fn trimmed_line(&mut self, raw: &[u8]) -> Result<bool, VcdReadError> {
        match raw.trim_ascii() {
            [] => return Ok(false),
            [b'#', digits @ ..] => {
                if let Some(t) = plain_timestamp(digits) {
                    return self.stamp(t);
                }
            }
            [v, code @ ..] if is_scalar_value(*v) => {
                let code = code.trim_ascii_start();
                if !code.is_empty() && code.iter().all(|&b| is_code_byte(b)) {
                    self.change(*v == b'1', self.codes.get(code));
                    return Ok(false);
                }
            }
            _ => {}
        }
        self.text_line(raw)
    }

    /// The general path over a line validated as UTF-8.
    fn text_line(&mut self, raw: &[u8]) -> Result<bool, VcdReadError> {
        let text = std::str::from_utf8(raw).map_err(|_| VcdReadError::Io {
            message: NOT_UTF8.to_owned(),
        })?;
        let line = text.trim();
        if line.is_empty() {
            return Ok(false);
        }
        if line.starts_with('$') {
            directive(line, self.line)?;
            return Ok(false);
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
                return Ok(false);
            }
        }
        let (value, code) = parse_change(line, self.line)?;
        self.change(value, self.codes.get(code.as_bytes()));
        Ok(false)
    }

    /// A value change on a code bound to `binding` (`None`: a code
    /// nothing sampled uses).
    #[inline(always)]
    fn change(&mut self, value: bool, binding: Option<CodeBinding>) {
        let Some(binding) = binding else {
            return;
        };
        if value {
            self.pending |= binding.clocks & !self.levels;
            self.levels |= binding.clocks;
            self.values |= binding.symbols;
        } else {
            self.levels &= !binding.clocks;
            self.values &= !binding.symbols;
        }
    }

    /// A timestamp that moves time forward closes the current instant:
    /// its pending clocks become a step, and a step that fills the
    /// chunk pauses the walk (`Ok(true)`).
    #[inline(always)]
    fn stamp(&mut self, t: u64) -> Result<bool, VcdReadError> {
        if t > self.time {
            let time = std::mem::replace(&mut self.time, t);
            if self.pending != 0 {
                let clocks = std::mem::take(&mut self.pending);
                return Ok(self.chunk.push(time, clocks, self.values, self.masks));
            }
        } else if t < self.time {
            return Err(backwards(self.line, t, self.time));
        }
        Ok(false)
    }
}

/// A body directive line. Directives are skipped (`$dumpvars` bodies
/// are value changes), except a `$comment` the line does not close,
/// which is refused on purpose: the body walk keeps no comment state
/// across lines, and reading such comments would change what a body
/// means. Out of line and cold, so the walk loop's code stays as small
/// as without the check.
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

/// The caller's chunk, overwritten in place: each step written reuses
/// the `GlobalStep`, and its `ticks` vector, the previous call left at
/// that index, so steady-state streaming allocates nothing per step.
/// [`Chunk::finish`] cuts off the steps past the last one written.
#[derive(Debug)]
pub(crate) struct Chunk<'a> {
    steps: &'a mut Vec<GlobalStep>,
    len: usize,
    max: usize,
    /// Ticks the written steps carry.
    ticks: u64,
}

impl<'a> Chunk<'a> {
    /// An empty chunk of at most `max` steps over `steps`.
    pub(crate) fn new(steps: &'a mut Vec<GlobalStep>, max: usize) -> Self {
        Chunk {
            steps,
            len: 0,
            max,
            ticks: 0,
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len >= self.max
    }

    /// Writes the step at `time` in which the clocks of `clocks` tick,
    /// each sampling the signal values `state` through its mask in
    /// `masks`, and returns whether the chunk is now full.
    #[inline(always)]
    fn push(&mut self, time: u64, clocks: ClockMask, state: u128, masks: &[u128]) -> bool {
        if self.len == self.steps.len() {
            self.grow(masks.len());
        }
        let step = &mut self.steps[self.len];
        step.time = time;
        step.ticks.clear();
        let mut pending = clocks;
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            step.ticks.push((
                ClockId::from_index(i),
                Valuation::from_bits(state & masks[i]),
            ));
            pending &= pending - 1;
        }
        self.ticks += u64::from(clocks.count_ones());
        self.len += 1;
        self.is_full()
    }

    /// Appends a step whose `ticks` vector has room for one tick per
    /// clock (`clocks` of them), so no push ever grows it: chunks are
    /// recycled with their steps, so this size is what stays resident.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, clocks: usize) {
        self.steps.push(GlobalStep {
            time: 0,
            ticks: Vec::with_capacity(clocks),
        });
    }

    /// Cuts the steps past the ones written; returns how many were
    /// written and the ticks they carry.
    pub(crate) fn finish(self) -> (usize, u64) {
        self.steps.truncate(self.len);
        (self.len, self.ticks)
    }
}

/// The sampling state between blocks, which [`Sampler::walk`] turns
/// each block into [`GlobalStep`]s from.
#[derive(Debug)]
pub(crate) struct Sampler {
    /// Per clock: symbol mask its ticks carry (`u128::MAX` = all).
    masks: Vec<u128>,
    /// Signal values and clock levels after the last line decoded.
    values: u128,
    levels: ClockMask,
    /// All changes dumped at one `#time` are simultaneous: clocks that
    /// rose at the current instant are sampled *after* every change of
    /// that instant, so their shared step is emitted when time moves on
    /// (or input ends).
    pending: ClockMask,
    time: u64,
    /// Lines decoded: the line number errors count from.
    line: usize,
    /// Totals over the blocks decoded so far: body lines, and the
    /// nanoseconds spent decoding them.
    pub(crate) lines: u64,
    pub(crate) fold_ns: u64,
}

impl Sampler {
    /// Starts before the first body line, `line` lines into the input.
    pub(crate) fn new(masks: Vec<u128>, line: usize) -> Self {
        Sampler {
            masks,
            values: 0,
            levels: 0,
            pending: 0,
            time: 0,
            line,
            lines: 0,
            fold_ns: 0,
        }
    }

    /// Walks `block` from its cursor, writing each step into `chunk` as
    /// its instant closes, until the block ends, a step fills the chunk
    /// or a line is in error; the cursor then points at the next line.
    pub(crate) fn walk(
        &mut self,
        codes: &CodeTable,
        block: &mut Block,
        chunk: &mut Chunk<'_>,
    ) -> Result<(), VcdReadError> {
        let started = Instant::now();
        let mut walk = Walk {
            codes,
            line: self.line,
            masks: &self.masks,
            values: self.values,
            levels: self.levels,
            pending: self.pending,
            time: self.time,
            chunk,
        };
        let walked = walk.lines(&block.text[..block.len], block.pos);
        let Walk {
            line,
            values,
            levels,
            pending,
            time,
            ..
        } = walk;
        (self.values, self.levels, self.pending, self.time) = (values, levels, pending, time);
        self.lines += (line - self.line) as u64;
        self.line = line;
        self.fold_ns += nanos_since(started);
        block.pos = walked?;
        Ok(())
    }

    /// Emits the instant still open at end of input.
    pub(crate) fn finish(&mut self, chunk: &mut Chunk<'_>) {
        if self.pending != 0 {
            chunk.push(self.time, self.pending, self.values, &self.masks);
            self.pending = 0;
        }
    }
}

/// A block of body bytes cut at a line end, walked from `pos`. The
/// stream reads every block into the same one, so its buffer is
/// allocated once.
#[derive(Debug, Default)]
pub(crate) struct Block {
    /// The block is `text[..len]`; the rest is read space.
    text: Vec<u8>,
    len: usize,
    /// Where the next line to walk starts.
    pos: usize,
}

impl Block {
    /// Whether every line of the block has been walked.
    pub(crate) fn is_walked(&self) -> bool {
        self.pos == self.len
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
    /// decoded.
    pub(crate) failed: Option<VcdReadError>,
    /// Blocks read, the bytes they hold, and the nanoseconds spent in
    /// [`BlockReader::read`].
    pub(crate) blocks: u64,
    pub(crate) bytes: u64,
    pub(crate) read_ns: u64,
}

impl<R: Read> BlockReader<R> {
    pub(crate) fn new(reader: R) -> Self {
        BlockReader {
            reader,
            block_size: BLOCK_BYTES,
            carry: Vec::new(),
            ended: false,
            failed: None,
            blocks: 0,
            bytes: 0,
            read_ns: 0,
        }
    }

    /// Fills `block` with the next block: at least `block_size` bytes
    /// cut after the last line end, or what is left at end of input.
    /// `false` when there is nothing left, or only the partial line
    /// before an I/O error (which is then in `failed`). Two clock
    /// reads per block time it.
    pub(crate) fn read(&mut self, block: &mut Block) -> bool {
        if self.ended {
            return false;
        }
        let started = Instant::now();
        let want = self.block_size.max(self.carry.len() + 1);
        if block.text.len() < want {
            block.text.resize(want, 0);
        }
        let mut len = self.carry.len();
        block.text[..len].copy_from_slice(&self.carry);
        self.carry.clear();
        // end of the last whole line; the carry holds no line end
        let mut cut = 0;
        while len < self.block_size || cut == 0 {
            if len == block.text.len() {
                block.text.resize(2 * len, 0);
            }
            match self.reader.read(&mut block.text[len..]) {
                Ok(0) => {
                    self.ended = true;
                    cut = len;
                    break;
                }
                Ok(n) => {
                    if let Some(p) = block.text[len..len + n].iter().rposition(|&b| b == b'\n') {
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
        self.carry.extend_from_slice(&block.text[cut..len]);
        block.len = cut;
        block.pos = 0;
        self.read_ns += nanos_since(started);
        if cut == 0 {
            return false;
        }
        self.blocks += 1;
        self.bytes += cut as u64;
        true
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
