//! VCD (Value Change Dump, IEEE 1364) import/export for clocked traces.
//!
//! The paper's monitors plug into a simulation environment (Fig 4); in
//! practice simulator output reaches offline checkers as VCD waveforms.
//! [`write_vcd`] dumps a [`Trace`] (events/props as 1-bit wires plus an
//! explicit clock), and [`read_vcd`] samples a VCD back into a trace at
//! each rising clock edge — so monitors synthesized by `cesc-core` can
//! check waveforms from any HDL simulator.
//!
//! Reading is *streaming*: [`GlobalVcdStream`] samples any number of
//! clocks and yields [`GlobalStep`] chunks pulled from any
//! [`io::BufRead`], so a multi-GB dump is checked in constant memory —
//! neither the VCD text nor the decoded trace is ever resident in
//! full. It is the one sampling loop: [`read_vcd`] is its one-clock
//! drain into a [`Trace`], and the `&str` constructor is a thin wrapper
//! over the byte-slice reader.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead};

use cesc_expr::{Alphabet, Valuation};

use crate::clock::{ClockId, ClockSet};
use crate::global::{GlobalRun, GlobalStep};
use crate::trace::Trace;

/// Options for [`write_vcd`] / [`write_vcd_global`].
#[derive(Debug, Clone)]
pub struct VcdWriteOptions {
    /// Name of the generated clock signal ([`write_vcd`] only;
    /// [`write_vcd_global`] names clocks after the [`ClockSet`]).
    pub clock_name: String,
    /// Half-period of the clock in timescale units (full period is
    /// `2 * half_period`).
    pub half_period: u64,
    /// Timescale declaration, e.g. `"1ns"`.
    pub timescale: String,
    /// Module scope name in the VCD hierarchy.
    pub scope: String,
}

impl Default for VcdWriteOptions {
    fn default() -> Self {
        VcdWriteOptions {
            clock_name: "clk".to_owned(),
            half_period: 5,
            timescale: "1ns".to_owned(),
            scope: "cesc_monitor".to_owned(),
        }
    }
}

fn id_code(mut n: usize) -> String {
    // printable VCD identifier codes: '!'..'~'
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

/// Serialises `trace` as VCD text. Tick `k` of the trace is sampled at
/// the rising edge at time `2k * half_period`.
///
/// # Examples
///
/// ```
/// use cesc_expr::{Alphabet, Valuation};
/// use cesc_trace::{write_vcd, VcdWriteOptions, Trace};
/// let mut ab = Alphabet::new();
/// let req = ab.event("req");
/// let t = Trace::from_elements([Valuation::of([req]), Valuation::empty()]);
/// let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
/// assert!(vcd.contains("$var wire 1"));
/// assert!(vcd.contains("req"));
/// ```
pub fn write_vcd(trace: &Trace, alphabet: &Alphabet, opts: &VcdWriteOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date\n    cesc generated\n$end");
    let _ = writeln!(out, "$version\n    cesc-trace VCD writer\n$end");
    let _ = writeln!(out, "$timescale {} $end", opts.timescale);
    let _ = writeln!(out, "$scope module {} $end", opts.scope);
    let clk_code = id_code(0);
    let _ = writeln!(out, "$var wire 1 {clk_code} {} $end", opts.clock_name);
    let codes: Vec<String> = alphabet
        .iter()
        .map(|(id, sym)| {
            let code = id_code(id.index() + 1);
            let _ = writeln!(out, "$var wire 1 {code} {} $end", sym.name());
            code
        })
        .collect();
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // initial values
    let _ = writeln!(out, "#0");
    let _ = writeln!(out, "$dumpvars");
    let first = trace.get(0).unwrap_or_else(Valuation::empty);
    // no ticks → the clock never rises and nothing is sampled back
    let clk0 = if trace.is_empty() { '0' } else { '1' };
    let _ = writeln!(out, "{clk0}{clk_code}");
    for (id, _) in alphabet.iter() {
        let bit = if first.contains(id) { '1' } else { '0' };
        let _ = writeln!(out, "{bit}{}", codes[id.index()]);
    }
    let _ = writeln!(out, "$end");

    let mut prev = first;
    for k in 0..trace.len() {
        let rise = 2 * k as u64 * opts.half_period;
        let fall = rise + opts.half_period;
        if k > 0 {
            let v = trace[k];
            let _ = writeln!(out, "#{rise}");
            for (id, _) in alphabet.iter() {
                let now = v.contains(id);
                if now != prev.contains(id) {
                    let bit = if now { '1' } else { '0' };
                    let _ = writeln!(out, "{bit}{}", codes[id.index()]);
                }
            }
            let _ = writeln!(out, "1{clk_code}");
            prev = v;
        }
        let _ = writeln!(out, "#{fall}");
        let _ = writeln!(out, "0{clk_code}");
    }
    out
}

/// Serialises a multi-clock [`GlobalRun`] as VCD text: one 1-bit wire
/// per clock domain of `clocks` (named after the domains) plus one per
/// alphabet symbol. The tick of domain `c` at global time `t` becomes
/// a rising edge of `c`'s wire at VCD time `2t * half_period`, with
/// that domain's *owned* symbols (mask `owners[c]`) driven to the
/// tick's valuation just before the edge.
///
/// Owner masks say which symbols each domain drives; they should be
/// pairwise disjoint (when two domains tick the same instant, the
/// later-listed domain wins on shared symbols). Symbols owned by no
/// domain stay constant `0`.
///
/// Round-trip: [`GlobalVcdStream`] over the produced text with the
/// domains' names (and the same masks) recovers exactly the run's
/// ticks, at VCD times `2t * half_period`.
///
/// # Panics
///
/// Panics if `owners.len() != clocks.len()` or `half_period == 0` —
/// both are programming errors in the caller, not data errors.
pub fn write_vcd_global_to<W: io::Write>(
    w: &mut W,
    run: &GlobalRun,
    clocks: &ClockSet,
    alphabet: &Alphabet,
    owners: &[Valuation],
    opts: &VcdWriteOptions,
) -> io::Result<()> {
    assert_eq!(
        owners.len(),
        clocks.len(),
        "one owner mask per clock domain"
    );
    assert!(opts.half_period > 0, "half_period must be positive");
    writeln!(w, "$date\n    cesc generated\n$end")?;
    writeln!(w, "$version\n    cesc-trace VCD writer (global)\n$end")?;
    writeln!(w, "$timescale {} $end", opts.timescale)?;
    writeln!(w, "$scope module {} $end", opts.scope)?;
    let clock_codes: Vec<String> = clocks.iter().map(|(id, _)| id_code(id.index())).collect();
    for (id, d) in clocks.iter() {
        writeln!(w, "$var wire 1 {} {} $end", clock_codes[id.index()], d.name())?;
    }
    let sym_codes: Vec<String> = alphabet
        .iter()
        .map(|(id, _)| id_code(clocks.len() + id.index()))
        .collect();
    for (id, sym) in alphabet.iter() {
        writeln!(w, "$var wire 1 {} {} $end", sym_codes[id.index()], sym.name())?;
    }
    writeln!(w, "$upscope $end")?;
    writeln!(w, "$enddefinitions $end")?;

    writeln!(w, "#0")?;
    writeln!(w, "$dumpvars")?;
    for code in &clock_codes {
        writeln!(w, "0{code}")?;
    }
    for code in &sym_codes {
        writeln!(w, "0{code}")?;
    }
    writeln!(w, "$end")?;

    let mut prev_bits = 0u128;
    for step in run.iter() {
        let rise = 2 * step.time * opts.half_period;
        writeln!(w, "#{rise}")?;
        for &(clock, v) in &step.ticks {
            let own = owners[clock.index()].bits();
            let desired = v.bits() & own;
            let mut diff = (prev_bits ^ desired) & own;
            while diff != 0 {
                let i = diff.trailing_zeros() as usize;
                let bit = if desired >> i & 1 == 1 { '1' } else { '0' };
                writeln!(w, "{bit}{}", sym_codes[i])?;
                diff &= diff - 1;
            }
            prev_bits = (prev_bits & !own) | desired;
            writeln!(w, "1{}", clock_codes[clock.index()])?;
        }
        writeln!(w, "#{}", rise + opts.half_period)?;
        for &(clock, _) in &step.ticks {
            writeln!(w, "0{}", clock_codes[clock.index()])?;
        }
    }
    Ok(())
}

/// [`write_vcd_global_to`] into a `String` (convenience for tests and
/// small runs; prefer the writer form for bulk dumps).
pub fn write_vcd_global(
    run: &GlobalRun,
    clocks: &ClockSet,
    alphabet: &Alphabet,
    owners: &[Valuation],
    opts: &VcdWriteOptions,
) -> String {
    let mut out = Vec::new();
    write_vcd_global_to(&mut out, run, clocks, alphabet, owners, opts)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("VCD output is ASCII")
}

/// Error from the VCD readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcdReadError {
    /// A `$var` declaration, timestamp or value change could not be
    /// parsed.
    Malformed {
        /// Line number (1-based) of the offending input.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A requested clock signal is not declared in the VCD.
    MissingClock {
        /// The clock name that was looked for.
        name: String,
    },
    /// The underlying reader failed, or a line is not UTF-8. Header
    /// lines are validated as they are read; a body line is validated
    /// when it holds a byte outside ASCII, since an all-ASCII line is
    /// UTF-8 already.
    Io {
        /// The I/O error's message.
        message: String,
    },
}

impl std::fmt::Display for VcdReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcdReadError::Malformed { line, message } => {
                write!(f, "malformed VCD at line {line}: {message}")
            }
            VcdReadError::MissingClock { name } => {
                write!(f, "clock signal `{name}` not found in VCD")
            }
            VcdReadError::Io { message } => write!(f, "VCD read failed: {message}"),
        }
    }
}

impl std::error::Error for VcdReadError {}

/// Reads one header line (without trailing newline handling — callers
/// trim) into `buf`, bumping the 1-based line counter. `Ok(false)` is
/// EOF.
fn read_line<R: BufRead>(
    reader: &mut R,
    buf: &mut String,
    lineno: &mut usize,
) -> Result<bool, VcdReadError> {
    buf.clear();
    match reader.read_line(buf) {
        Ok(0) => Ok(false),
        Ok(_) => {
            *lineno += 1;
            Ok(true)
        }
        Err(e) => Err(VcdReadError::Io {
            message: e.to_string(),
        }),
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

/// What one VCD identifier code drives. Standard VCD lets several
/// `$var`s share a code (aliased nets), so a code carries a *set* of
/// symbols and of clocks.
#[derive(Debug, Default)]
struct CodeBinding {
    /// Bitmask of the alphabet symbols declared under this code.
    symbols: u128,
    /// Indices of the requested clocks declared under this code.
    clocks: Vec<u32>,
}

/// Number of printable identifier-code characters, `!`..=`~`.
const CODE_CHARS: usize = 94;

#[inline]
fn is_code_byte(b: u8) -> bool {
    (b'!'..=b'~').contains(&b)
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
struct CodeTable {
    dense: Vec<u32>,
    long: HashMap<Vec<u8>, u32>,
    bindings: Vec<CodeBinding>,
}

impl CodeTable {
    fn new() -> Self {
        CodeTable {
            dense: vec![0; CODE_CHARS + CODE_CHARS * CODE_CHARS],
            long: HashMap::new(),
            bindings: Vec::new(),
        }
    }

    /// The `dense` slot of a 1- or 2-character printable code.
    #[inline]
    fn dense_slot(code: &[u8]) -> Option<usize> {
        let digit = |b: u8| is_code_byte(b).then(|| usize::from(b - b'!'));
        match *code {
            [a] => digit(a),
            [a, b] => Some(CODE_CHARS + digit(a)? * CODE_CHARS + digit(b)?),
            _ => None,
        }
    }

    /// The binding for `code`, created unbound on first use.
    fn entry(&mut self, code: &str) -> &mut CodeBinding {
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

    #[inline]
    fn get(&self, code: &[u8]) -> Option<&CodeBinding> {
        let slot = match Self::dense_slot(code) {
            Some(i) => self.dense[i],
            None => self.long.get(code).copied().unwrap_or(0),
        };
        (slot != 0).then(|| &self.bindings[slot as usize - 1])
    }
}

/// Reads `$var` declarations up to `$enddefinitions` and binds every
/// identifier code to the requested clocks and alphabet symbols it
/// carries.
///
/// A declared name matches a clock or symbol either exactly or with a
/// vector range stripped — both `data[7:0]` and the separate-token
/// form `$var wire 8 ! data [7:0] $end` resolve to `data`. A clock
/// binds to its first declaration; a name that matches a clock is
/// never also read as a symbol.
fn parse_header<R: BufRead>(
    reader: &mut R,
    lineno: &mut usize,
    alphabet: &Alphabet,
    clocks: &[VcdClockSpec],
) -> Result<CodeTable, VcdReadError> {
    let mut codes = CodeTable::new();
    let mut declared = vec![false; clocks.len()];
    let mut buf = String::new();
    while read_line(reader, &mut buf, lineno)? {
        let toks: Vec<&str> = buf.split_whitespace().collect();
        if toks.first() == Some(&"$var") {
            // $var var_type size code reference [range] $end
            if toks.len() < 5 || toks[3] == "$end" || toks[4] == "$end" {
                return Err(VcdReadError::Malformed {
                    line: *lineno,
                    message: "short $var declaration".to_owned(),
                });
            }
            let code = toks[3];
            let name = toks[4];
            let base = match name.find('[') {
                Some(i) => &name[..i],
                None => name,
            };
            let mut is_clock = false;
            for (ci, spec) in clocks.iter().enumerate() {
                if spec.name == name || spec.name == base {
                    is_clock = true;
                    if !declared[ci] {
                        declared[ci] = true;
                        codes.entry(code).clocks.push(ci as u32);
                    }
                }
            }
            if !is_clock {
                if let Some(id) = alphabet.lookup(name).or_else(|| alphabet.lookup(base)) {
                    codes.entry(code).symbols |= 1u128 << id.index();
                }
            }
        } else if toks.first() == Some(&"$enddefinitions") {
            break;
        }
    }
    if let Some(ci) = declared.iter().position(|&d| !d) {
        return Err(VcdReadError::MissingClock {
            name: clocks[ci].name.clone(),
        });
    }
    Ok(codes)
}

/// One clock a [`GlobalVcdStream`] samples on, optionally with a mask
/// restricting which symbols its ticks carry (a multi-clock chart's
/// local monitor should only see its own chart's signals).
#[derive(Debug, Clone)]
pub struct VcdClockSpec {
    name: String,
    mask: Option<Valuation>,
}

impl VcdClockSpec {
    /// A clock whose ticks sample every alphabet symbol.
    pub fn new(name: &str) -> Self {
        VcdClockSpec {
            name: name.to_owned(),
            mask: None,
        }
    }

    /// A clock whose ticks carry only the symbols in `mask`.
    pub fn masked(name: &str, mask: Valuation) -> Self {
        VcdClockSpec {
            name: name.to_owned(),
            mask: Some(mask),
        }
    }

    /// The clock signal's name in the VCD.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The symbol mask, if any.
    pub fn mask(&self) -> Option<Valuation> {
        self.mask
    }
}

/// Streaming VCD reader: parses the header eagerly, then samples every
/// requested clock's rising edges and yields [`GlobalStep`] chunks in
/// caller-sized pieces instead of materialising the whole trace — the
/// input side of `cesc check`.
///
/// The reader pulls bytes from any [`io::BufRead`] — a
/// `BufReader<File>` for dumps on disk, a byte slice for in-memory
/// text — and decodes each body line in place inside the reader's
/// window, so resident memory is one reader window plus one carried
/// partial line (a line split across two windows), regardless of dump
/// size. [`read_vcd`] drains a one-clock stream into a [`Trace`].
///
/// Clock `i` of the constructor's list becomes [`ClockId`] index `i`
/// in the produced steps, so a consumer whose locals are listed in the
/// same order can use an identity binding. Step times are VCD
/// timestamps. Clocks rising at the same timestamp share one step
/// (ticks ascending by clock index); each tick's valuation is the
/// signal state after all changes of that timestamp, restricted to the
/// clock's mask.
///
/// # Examples
///
/// ```
/// use cesc_expr::{Alphabet, Valuation};
/// use cesc_trace::{
///     write_vcd_global, ClockDomain, ClockSet, GlobalRun, GlobalVcdStream, Trace,
///     VcdClockSpec, VcdWriteOptions,
/// };
///
/// let mut ab = Alphabet::new();
/// let go = ab.event("go");
/// let done = ab.event("done");
/// let mut clocks = ClockSet::new();
/// let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
/// let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
/// let run = GlobalRun::interleave(&clocks, &[
///     (c1, Trace::from_elements([Valuation::of([go])])),
///     (c2, Trace::from_elements([Valuation::of([done])])),
/// ]).unwrap();
///
/// let owners = [Valuation::of([go]), Valuation::of([done])];
/// let vcd = write_vcd_global(&run, &clocks, &ab, &owners, &VcdWriteOptions::default());
///
/// let specs = [
///     VcdClockSpec::masked("clk1", owners[0]),
///     VcdClockSpec::masked("clk2", owners[1]),
/// ];
/// let mut stream = GlobalVcdStream::new(&vcd, &ab, &specs)?;
/// let mut steps = Vec::new();
/// stream.next_chunk(&mut steps, 16)?;
/// assert_eq!(steps.len(), run.len());
/// assert_eq!(steps[0].ticks, run.get(0).unwrap().ticks);
/// # Ok::<(), cesc_trace::VcdReadError>(())
/// ```
#[derive(Debug)]
pub struct GlobalVcdStream<R> {
    reader: R,
    /// The start of a line that ran past the end of the reader's
    /// window (reused, so it allocates only when a longer line splits).
    carry: Vec<u8>,
    sampler: Sampler,
    done: bool,
}

/// The decoding state of a [`GlobalVcdStream`], kept apart from its
/// reader so a line can be decoded while it is still borrowed from the
/// reader's window.
#[derive(Debug)]
struct Sampler {
    /// 1-based number of the last line read.
    lineno: usize,
    /// Identifier code → the symbols and clocks it drives.
    codes: CodeTable,
    /// Per clock: symbol mask its ticks carry (`u128::MAX` = all).
    masks: Vec<u128>,
    /// Current signal values, one bit per alphabet symbol.
    current: u128,
    levels: Vec<bool>,
    /// All changes dumped at one `#time` are simultaneous: clocks that
    /// rose at the current timestamp are sampled *after* every change
    /// of that timestamp has been applied, so their shared step is
    /// emitted when the timestamp advances (or input ends).
    pending: Vec<bool>,
    any_pending: bool,
    /// Recycled tick vectors: [`GlobalVcdStream::next_chunk`] reclaims
    /// the caller's previous chunk's `ticks` allocations here and
    /// [`Sampler::flush_at`] reuses them, so steady-state streaming
    /// allocates nothing per step (pinned by the workspace
    /// counting-allocator test).
    spare: Vec<Vec<(ClockId, Valuation)>>,
    cur_time: u64,
}

impl<'a> GlobalVcdStream<&'a [u8]> {
    /// In-memory wrapper over [`GlobalVcdStream::from_reader`].
    ///
    /// # Errors
    ///
    /// As [`GlobalVcdStream::from_reader`].
    pub fn new(
        vcd: &'a str,
        alphabet: &Alphabet,
        clocks: &[VcdClockSpec],
    ) -> Result<Self, VcdReadError> {
        Self::from_reader(vcd.as_bytes(), alphabet, clocks)
    }
}

impl<R: BufRead> GlobalVcdStream<R> {
    /// Parses the VCD header from `reader` and positions the stream at
    /// the first value change. Every clock in `clocks` must be
    /// declared.
    ///
    /// Signals present in the VCD but absent from `alphabet` are
    /// ignored; alphabet symbols absent from the VCD read as constant
    /// false. Vector declarations may carry a range (`data[7:0]`, or
    /// `data [7:0]` as a separate token) — both resolve to the base
    /// name. Multi-bit vector changes (`b... id`) are treated as true
    /// iff any bit is `1`; `x`/`z` bits read as false. An identifier
    /// code declared for several names drives all of them.
    ///
    /// # Errors
    ///
    /// Returns [`VcdReadError::MissingClock`] naming the first
    /// undeclared clock, [`VcdReadError::Malformed`] on an unparseable
    /// `$var` declaration, or [`VcdReadError::Io`] if the reader
    /// fails.
    pub fn from_reader(
        mut reader: R,
        alphabet: &Alphabet,
        clocks: &[VcdClockSpec],
    ) -> Result<Self, VcdReadError> {
        let mut lineno = 0usize;
        let codes = parse_header(&mut reader, &mut lineno, alphabet, clocks)?;
        Ok(GlobalVcdStream {
            reader,
            carry: Vec::new(),
            sampler: Sampler {
                lineno,
                codes,
                masks: clocks
                    .iter()
                    .map(|s| s.mask.map_or(u128::MAX, Valuation::bits))
                    .collect(),
                current: 0,
                levels: vec![false; clocks.len()],
                pending: vec![false; clocks.len()],
                any_pending: false,
                spare: Vec::new(),
                cur_time: 0,
            },
            done: false,
        })
    }

    /// Clears `buf` and refills it with up to `max` global steps,
    /// returning how many were produced. `Ok(0)` signals end of input
    /// — except that `max == 0` also returns `Ok(0)` without consuming
    /// anything (like `Read::read` with an empty buffer), so never poll
    /// for end of input with a zero chunk size.
    ///
    /// # Errors
    ///
    /// Returns [`VcdReadError::Malformed`] on unparseable value
    /// changes, unparseable or decreasing timestamps, or
    /// [`VcdReadError::Io`] if the reader fails or a line is not
    /// UTF-8. An error poisons the stream: every subsequent call
    /// returns `Ok(0)`, so a caller that retries cannot silently resume
    /// past corrupt input.
    pub fn next_chunk(
        &mut self,
        buf: &mut Vec<GlobalStep>,
        max: usize,
    ) -> Result<usize, VcdReadError> {
        for mut step in buf.drain(..) {
            step.ticks.clear();
            self.sampler.spare.push(step.ticks);
        }
        if self.done || max == 0 {
            return Ok(0);
        }
        let filled = self.fill(buf, max);
        if filled.is_err() {
            self.done = true;
        }
        filled
    }

    /// The scanning loop behind [`GlobalVcdStream::next_chunk`]: splits
    /// each reader window into lines, decodes them in place and
    /// consumes them; the tail of a window that ends mid-line moves to
    /// `carry` until the next window completes it. Each line yields at
    /// most one step, so the loop stops exactly when `buf` is full.
    fn fill(&mut self, buf: &mut Vec<GlobalStep>, max: usize) -> Result<usize, VcdReadError> {
        while buf.len() < max {
            let window = match self.reader.fill_buf() {
                Ok(window) => window,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(VcdReadError::Io {
                        message: e.to_string(),
                    })
                }
            };
            if window.is_empty() {
                if self.carry.is_empty() {
                    self.done = true;
                    let t = self.sampler.cur_time;
                    self.sampler.flush_at(t, buf);
                    break;
                }
                // the last line has no newline
                self.sampler.line(&self.carry, buf)?;
                self.carry.clear();
                continue;
            }
            let mut used = 0;
            while buf.len() < max {
                let rest = &window[used..];
                let Some(end) = newline_at(rest) else {
                    self.carry.extend_from_slice(rest);
                    used = window.len();
                    break;
                };
                if self.carry.is_empty() {
                    self.sampler.line(&rest[..end], buf)?;
                } else {
                    self.carry.extend_from_slice(&rest[..end]);
                    self.sampler.line(&self.carry, buf)?;
                    self.carry.clear();
                }
                used += end + 1;
            }
            self.reader.consume(used);
        }
        Ok(buf.len())
    }
}

/// Offset of the first `\n` in `bytes`, eight bytes per step: a
/// byte of `x = word ^ b"\n\n\n\n\n\n\n\n"` is zero exactly where the
/// word holds a newline, and the lowest high bit of
/// `(x - 0x01…01) & !x & 0x80…80` marks the first such byte.
#[inline]
fn newline_at(bytes: &[u8]) -> Option<usize> {
    const NL: u64 = u64::from_le_bytes([b'\n'; 8]);
    const LOW: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut offset = 0;
    for word in words.by_ref() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")) ^ NL;
        let hit = x.wrapping_sub(LOW) & !x & HIGH;
        if hit != 0 {
            return Some(offset + (hit.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n');
    tail.map(|i| offset + i)
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

impl Sampler {
    /// Decodes one body line (without its `\n`). Plain-digit
    /// timestamps and scalar changes on printable codes are decoded
    /// from the bytes; every other line — directives, vectors, signed
    /// or spaced timestamps, non-ASCII bytes, errors — goes through
    /// [`Sampler::text_line`], so both paths share one set of
    /// semantics.
    #[inline]
    fn line(&mut self, raw: &[u8], buf: &mut Vec<GlobalStep>) -> Result<(), VcdReadError> {
        self.lineno += 1;
        match raw.trim_ascii() {
            [] => return Ok(()),
            [b'#', digits @ ..] => {
                if let Some(t) = plain_timestamp(digits) {
                    return self.advance(t, buf);
                }
            }
            [v @ (b'0' | b'1' | b'x' | b'X' | b'z' | b'Z'), code @ ..] => {
                let code = code.trim_ascii_start();
                if !code.is_empty() && code.iter().all(|&b| is_code_byte(b)) {
                    self.change(*v == b'1', code);
                    return Ok(());
                }
            }
            _ => {}
        }
        self.text_line(raw, buf)
    }

    /// The general path over a line validated as UTF-8.
    fn text_line(&mut self, raw: &[u8], buf: &mut Vec<GlobalStep>) -> Result<(), VcdReadError> {
        let text = std::str::from_utf8(raw).map_err(|_| VcdReadError::Io {
            message: NOT_UTF8.to_owned(),
        })?;
        let line = text.trim();
        if line.is_empty() || line.starts_with('$') {
            return Ok(()); // directives ($dumpvars bodies are value changes)
        }
        if let Some(rest) = line.strip_prefix('#') {
            let t = parse_timestamp(rest, self.lineno)?;
            return self.advance(t, buf);
        }
        let (value, code) = parse_change(line, self.lineno)?;
        self.change(value, code.as_bytes());
        Ok(())
    }

    /// Moves to timestamp `t`, emitting the step sampled at the
    /// previous one.
    #[inline]
    fn advance(&mut self, t: u64, buf: &mut Vec<GlobalStep>) -> Result<(), VcdReadError> {
        if t < self.cur_time {
            let cur = self.cur_time;
            return Err(VcdReadError::Malformed {
                line: self.lineno,
                message: format!("timestamp #{t} goes backwards (after #{cur})"),
            });
        }
        if t > self.cur_time {
            // a pending step belongs to the instant it was sampled at,
            // so the flush uses the time *before* the advance
            let prev = self.cur_time;
            self.cur_time = t;
            self.flush_at(prev, buf);
        }
        Ok(())
    }

    /// Applies a value change on identifier `code`.
    #[inline]
    fn change(&mut self, value: bool, code: &[u8]) {
        let Some(binding) = self.codes.get(code) else {
            return;
        };
        for &ci in &binding.clocks {
            let ci = ci as usize;
            if value && !self.levels[ci] {
                self.pending[ci] = true;
                self.any_pending = true;
            }
            self.levels[ci] = value;
        }
        if value {
            self.current |= binding.symbols;
        } else {
            self.current &= !binding.symbols;
        }
    }

    /// Emits the clocks that rose at instant `time` as one step,
    /// reusing a recycled tick vector when one is available.
    fn flush_at(&mut self, time: u64, buf: &mut Vec<GlobalStep>) {
        if !self.any_pending {
            return;
        }
        let mut ticks = self.spare.pop().unwrap_or_default();
        ticks.extend(
            self.pending
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p)
                .map(|(i, _)| {
                    (
                        ClockId::from_index(i),
                        Valuation::from_bits(self.current & self.masks[i]),
                    )
                }),
        );
        buf.push(GlobalStep { time, ticks });
        self.pending.iter_mut().for_each(|p| *p = false);
        self.any_pending = false;
    }
}

/// Parses one VCD value-change line into `(value, identifier code)`.
/// `lineno` is 1-based.
fn parse_change(line: &str, lineno: usize) -> Result<(bool, &str), VcdReadError> {
    if let Some(rest) = line.strip_prefix('b').or_else(|| line.strip_prefix('B')) {
        // vector: b<binary> <code>; x/z bits are "not 1", i.e. false
        let mut parts = rest.split_whitespace();
        let bits = parts.next().unwrap_or("");
        if let Some(bad) = bits.chars().find(|c| !matches!(c, '0' | '1' | 'x' | 'X' | 'z' | 'Z')) {
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

/// Parses VCD text and samples the signals named in `alphabet` at each
/// rising edge of `clock_name`, returning the reconstructed trace.
///
/// A one-clock drain of [`GlobalVcdStream`] — use the stream directly
/// (over a `BufReader<File>`) to check long waveforms in bounded
/// memory.
///
/// # Errors
///
/// Returns [`VcdReadError::MissingClock`] if `clock_name` is not
/// declared, or [`VcdReadError::Malformed`] on unparseable content.
pub fn read_vcd(
    vcd: &str,
    alphabet: &Alphabet,
    clock_name: &str,
) -> Result<Trace, VcdReadError> {
    let mut stream = GlobalVcdStream::new(vcd, alphabet, &[VcdClockSpec::new(clock_name)])?;
    let mut trace = Trace::new();
    let mut chunk = Vec::new();
    while stream.next_chunk(&mut chunk, 4096)? > 0 {
        // one clock: every step carries exactly its one tick
        trace.extend(chunk.iter().map(|step| step.ticks[0].1));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;
    use crate::gen::TraceGen;
    use cesc_expr::SymbolId;

    /// One-clock stream over in-memory text, sampling `clk`.
    fn clk_stream<'a>(
        vcd: &'a str,
        ab: &Alphabet,
    ) -> Result<GlobalVcdStream<&'a [u8]>, VcdReadError> {
        GlobalVcdStream::new(vcd, ab, &[VcdClockSpec::new("clk")])
    }

    /// Drains a one-clock stream in `chunk_size` pieces.
    fn drain<R: BufRead>(stream: &mut GlobalVcdStream<R>, chunk_size: usize) -> Trace {
        let mut got = Trace::new();
        let mut chunk = Vec::new();
        while stream.next_chunk(&mut chunk, chunk_size).unwrap() > 0 {
            assert!(chunk.len() <= chunk_size);
            got.extend(chunk.iter().map(|s| s.ticks[0].1));
        }
        got
    }

    fn setup() -> (Alphabet, SymbolId, SymbolId) {
        let mut ab = Alphabet::new();
        let a = ab.event("req");
        let b = ab.prop("burst");
        (ab, a, b)
    }

    #[test]
    fn write_then_read_round_trips() {
        let (ab, a, b) = setup();
        let t = Trace::from_elements([
            Valuation::of([a]),
            Valuation::of([a, b]),
            Valuation::empty(),
            Valuation::of([b]),
        ]);
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        let back = read_vcd(&vcd, &ab, "clk").unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let (ab, _, _) = setup();
        let t = Trace::new();
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        let back = read_vcd(&vcd, &ab, "clk").unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn missing_clock_is_an_error() {
        let (ab, _, _) = setup();
        let t = Trace::from_elements([Valuation::empty()]);
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        let err = read_vcd(&vcd, &ab, "not_a_clock").unwrap_err();
        assert!(matches!(err, VcdReadError::MissingClock { .. }));
    }

    #[test]
    fn unknown_signals_are_ignored() {
        let (ab, a, _) = setup();
        let vcd = "\
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 1 \" req $end
$var wire 1 # mystery $end
$upscope $end
$enddefinitions $end
#0
0!
0\"
1#
#5
1!
1\"
#10
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t[0].contains(a));
    }

    #[test]
    fn aliased_codes_drive_every_declared_name() {
        // one identifier code declared under two names (an aliased
        // net): a change on the code drives both symbols
        let (ab, req, burst) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$var wire 1 \" burst $end
$enddefinitions $end
#0
1\"
1!
#5
0!
0\"
#10
1!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], Valuation::of([req, burst]));
        assert_eq!(t[1], Valuation::empty());
    }

    #[test]
    fn x_and_z_values_read_as_false() {
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$enddefinitions $end
#0
1\"
1!
#5
0!
x\"
#10
1!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 2);
        assert!(t[0].contains(a));
        assert!(!t[1].contains(a));
    }

    #[test]
    fn vector_changes_map_to_any_bit_set() {
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 4 ! clk $end
$var wire 4 \" req $end
$enddefinitions $end
#0
b0010 \"
1!
#5
0!
b0000 \"
#10
1!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 2);
        assert!(t[0].contains(a));
        assert!(!t[1].contains(a));
    }

    #[test]
    fn vector_x_z_bits_read_as_false() {
        // a vector of only x/z bits is false; any 1 bit wins; an x
        // *alongside* a 1 does not mask it
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 4 ! clk $end
$var wire 4 \" req $end
$enddefinitions $end
#0
bxxzZ \"
1!
#5
0!
bx1z0 \"
#10
1!
#15
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t[0].contains(a), "all-x/z vector reads as false");
        assert!(t[1].contains(a), "a 1 bit among x/z still reads true");
    }

    #[test]
    fn vector_with_invalid_bits_errors() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 4 \" req $end
$enddefinitions $end
#0
bq010 \"
1!
";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        assert!(matches!(err, VcdReadError::Malformed { line: 5, .. }), "{err}");
    }

    #[test]
    fn var_with_separate_range_token_resolves_base_name() {
        // `$var wire 8 ! data [7:0] $end` — the name is `data`, the
        // range rides as its own token
        let mut ab = Alphabet::new();
        let data = ab.event("data");
        let vcd = "\
$var wire 1 ! clk $end
$var wire 8 \" data [7:0] $end
$enddefinitions $end
#0
b00000001 \"
1!
#5
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t[0].contains(data));
    }

    #[test]
    fn var_with_attached_range_resolves_base_name() {
        let mut ab = Alphabet::new();
        let data = ab.event("data");
        let vcd = "\
$var wire 1 ! clk $end
$var wire 8 \" data[7:0] $end
$enddefinitions $end
#0
b10000000 \"
1!
#5
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t[0].contains(data));
    }

    #[test]
    fn short_var_declaration_errors() {
        let (ab, _, _) = setup();
        for vcd in [
            "$var wire 1 ! $end\n$enddefinitions $end\n",
            "$var wire 1 $end\n$enddefinitions $end\n",
        ] {
            let err = clk_stream(vcd, &ab).unwrap_err();
            assert!(matches!(err, VcdReadError::Malformed { line: 1, .. }), "{err}");
        }
    }

    #[test]
    fn malformed_timestamp_errors_instead_of_panicking() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$enddefinitions $end
#zero
1!
";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        match err {
            VcdReadError::Malformed { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("timestamp"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backwards_timestamp_errors_on_single_clock_stream_too() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$enddefinitions $end
#10
1!
#3
0!
";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        match err {
            VcdReadError::Malformed { line, message } => {
                assert_eq!(line, 5);
                assert!(message.contains("backwards"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn streaming_chunks_equal_whole_file_read() {
        let (ab, a, b) = setup();
        // 100 ticks of varied activity
        let t: Trace = (0..100u32)
            .map(|i| {
                let mut v = Valuation::empty();
                if i % 2 == 0 {
                    v.insert(a);
                }
                if i % 3 == 0 {
                    v.insert(b);
                }
                v
            })
            .collect();
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        let whole = read_vcd(&vcd, &ab, "clk").unwrap();
        assert_eq!(whole, t);
        for chunk_size in [1usize, 3, 7, 64, 1000] {
            let mut stream = clk_stream(&vcd, &ab).unwrap();
            assert_eq!(drain(&mut stream, chunk_size), t, "chunk size {chunk_size}");
            // drained stream stays at EOF
            assert_eq!(stream.next_chunk(&mut Vec::new(), chunk_size).unwrap(), 0);
        }
    }

    /// Every step of `stream`, drained in `chunk`-sized pieces.
    fn steps_of<R: BufRead>(
        mut stream: GlobalVcdStream<R>,
        chunk: usize,
    ) -> Result<Vec<GlobalStep>, VcdReadError> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        while stream.next_chunk(&mut buf, chunk)? > 0 {
            all.extend(buf.iter().cloned());
        }
        Ok(all)
    }

    /// The same dump with CRLF line ends, with blanks around every
    /// line, and cut after its last rising edge with no final newline
    /// (the writers end on a falling edge, which samples nothing).
    fn layout_variants(vcd: &str) -> Vec<String> {
        let blanks: String = vcd.lines().map(|l| format!("  {l} \t\n")).collect();
        let last_fall = vcd.rfind("\n#").unwrap_or(vcd.len());
        vec![
            vcd.to_owned(),
            vcd.replace('\n', "\r\n"),
            blanks,
            vcd[..last_fall].to_owned(),
        ]
    }

    /// A random multi-clock run on 2–3 domains whose ticks carry only
    /// their own domain's symbols, with those owner masks.
    fn random_global_run(
        rng: &mut rand::rngs::StdRng,
        ab: &Alphabet,
    ) -> (ClockSet, GlobalRun, Vec<Valuation>) {
        use rand::Rng as _;
        let symbols: Vec<SymbolId> = ab.iter().map(|(id, _)| id).collect();
        let domains = rng.random_range(2..=3usize);
        let mut clocks = ClockSet::new();
        let mut owners = vec![Valuation::empty(); domains];
        for (i, &s) in symbols.iter().enumerate() {
            owners[i % domains].insert(s);
        }
        let mut gens: Vec<TraceGen> = owners
            .iter()
            .enumerate()
            .map(|(d, own)| {
                clocks.add(ClockDomain::new(&format!("clk{d}"), 1, 0));
                let mine = symbols.iter().copied().filter(|&s| own.contains(s));
                TraceGen::with_symbols(rng.next_u64(), mine)
            })
            .collect();
        let mut run = GlobalRun::new();
        let mut time = 0;
        for _ in 0..rng.random_range(0..40usize) {
            time += rng.random_range(1..=3u64);
            let ticks: Vec<(ClockId, Valuation)> = (0..domains)
                .filter(|_| rng.random_bool(0.6))
                .map(|d| (ClockId::from_index(d), gens[d].valuation(0.4)))
                .collect();
            if !ticks.is_empty() {
                run.push(GlobalStep { time, ticks });
            }
        }
        (clocks, run, owners)
    }

    #[test]
    fn buffered_reader_parse_equals_whole_string_parse() {
        // the same bytes through BufReaders of every small capacity (so
        // lines split across windows at every offset) must decode to
        // exactly the in-memory read and the source run, whatever the
        // line layout
        use rand::{Rng as _, SeedableRng as _};
        let mut ab = Alphabet::new();
        for name in ["req", "ack", "burst", "go", "done"] {
            ab.event(name);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA4);
        for case in 0..12u64 {
            let opts = VcdWriteOptions::default();
            let scale = 2 * opts.half_period;
            let (vcd, specs, expected) = if case % 2 == 0 {
                let len = rng.random_range(0..60usize);
                let trace = TraceGen::new(case, &ab).noise(len, 0.3);
                let expected: Vec<GlobalStep> = trace
                    .iter()
                    .enumerate()
                    .map(|(k, v)| GlobalStep {
                        time: k as u64 * scale,
                        ticks: vec![(ClockId::from_index(0), v)],
                    })
                    .collect();
                (
                    write_vcd(&trace, &ab, &opts),
                    vec![VcdClockSpec::new("clk")],
                    expected,
                )
            } else {
                let (clocks, run, owners) = random_global_run(&mut rng, &ab);
                let specs = clocks
                    .iter()
                    .map(|(id, d)| VcdClockSpec::masked(d.name(), owners[id.index()]))
                    .collect();
                let expected = run
                    .iter()
                    .map(|s| GlobalStep {
                        time: s.time * scale,
                        ticks: s.ticks.clone(),
                    })
                    .collect();
                (
                    write_vcd_global(&run, &clocks, &ab, &owners, &opts),
                    specs,
                    expected,
                )
            };
            for text in layout_variants(&vcd) {
                let whole = GlobalVcdStream::from_reader(text.as_bytes(), &ab, &specs).unwrap();
                assert_eq!(
                    steps_of(whole, 7).unwrap(),
                    expected,
                    "case {case}: {text:?}"
                );
                let large = rng.random_range(17..=4096usize);
                for cap in (1..=16).chain([large]) {
                    let reader = io::BufReader::with_capacity(cap, text.as_bytes());
                    let stream = GlobalVcdStream::from_reader(reader, &ab, &specs).unwrap();
                    let chunk = rng.random_range(1..=9usize);
                    assert_eq!(
                        steps_of(stream, chunk).unwrap(),
                        expected,
                        "case {case}, capacity {cap}, chunk {chunk}: {text:?}"
                    );
                }
            }
        }
    }

    /// A one-clock stream over raw bytes, sampling `clk` and `req`.
    fn req_steps(vcd: &[u8], cap: usize) -> Result<Vec<GlobalStep>, VcdReadError> {
        let (ab, _, _) = setup();
        let reader = io::BufReader::with_capacity(cap, vcd);
        steps_of(
            GlobalVcdStream::from_reader(reader, &ab, &[VcdClockSpec::new("clk")])?,
            4,
        )
    }

    #[test]
    fn long_and_non_ascii_codes_resolve() {
        // 3-character codes (past the dense table) and a non-ASCII
        // code resolve like 1-character ones; a 3-character code that
        // extends a 1-character one is a different signal
        let (_, req, burst) = setup();
        let vcd = "\
$var wire 1 !!! clk $end
$var wire 1 a#% req $end
$var wire 1 é burst $end
$var wire 1 ! other $end
$enddefinitions $end
#0
1a#%
1é
1!
1!!!
#5
0!!!
0é
#10
1!!!
";
        for cap in [1, 3, 64] {
            let steps = req_steps(vcd.as_bytes(), cap).unwrap();
            let vals: Vec<Valuation> = steps.iter().map(|s| s.ticks[0].1).collect();
            assert_eq!(
                vals,
                [Valuation::of([req, burst]), Valuation::of([req])],
                "capacity {cap}"
            );
        }
    }

    #[test]
    fn signed_spaced_and_overflowing_timestamps() {
        // `#+5` and `# 5` are the timestamp 5, as `u64::from_str` and
        // `trim` read them; 20 digits past `u64::MAX` are malformed,
        // 20 digits within it are fine
        let vcd = "\
$var wire 1 ! clk $end
$enddefinitions $end
#+5
1!
# 7
0!
#10000000000000000000
1!
";
        let times: Vec<u64> = req_steps(vcd.as_bytes(), 5)
            .unwrap()
            .iter()
            .map(|s| s.time)
            .collect();
        assert_eq!(times, [5, 10_000_000_000_000_000_000]);
        let vcd = "\
$var wire 1 ! clk $end
$enddefinitions $end
#0
1!
#99999999999999999999
0!
";
        for cap in [1, 2, 8192] {
            match req_steps(vcd.as_bytes(), cap) {
                Err(VcdReadError::Malformed { line, message }) => {
                    assert_eq!(line, 5);
                    assert!(message.contains("bad timestamp"), "{message}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_utf8_in_the_body_is_an_io_error() {
        for line in [&b"1\xff\n"[..], b"$comment \xc3( $end\n", b"b1 \x80\n"] {
            let mut vcd = b"$var wire 1 ! clk $end\n$enddefinitions $end\n#0\n1!\n".to_vec();
            vcd.extend_from_slice(line);
            for cap in [1, 4, 8192] {
                match req_steps(&vcd, cap) {
                    Err(VcdReadError::Io { message }) => {
                        assert_eq!(message, "stream did not contain valid UTF-8");
                    }
                    other => panic!("{line:?}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn error_lines_survive_window_splits() {
        // a malformed line after lines of every length reports the same
        // line number however the reader's windows cut the input
        let vcd = "\
$var wire 1 ! clk $end
$var wire 4 \" req $end
$enddefinitions $end
#0
b0101 \"
1!
#123456
0!
$comment a longer directive line $end
q!
";
        for cap in 1..=16 {
            match req_steps(vcd.as_bytes(), cap) {
                Err(VcdReadError::Malformed { line, .. }) => assert_eq!(line, 10, "capacity {cap}"),
                other => panic!("capacity {cap}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn error_poisons_stream() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$enddefinitions $end
#0
1!
#5
0!
q\"
#10
1!
";
        let mut stream = clk_stream(vcd, &ab).unwrap();
        let mut chunk = Vec::new();
        assert!(matches!(
            stream.next_chunk(&mut chunk, 100),
            Err(VcdReadError::Malformed { line: 8, .. })
        ));
        // a retry must NOT resume past the corrupt line
        assert_eq!(stream.next_chunk(&mut chunk, 100).unwrap(), 0);
    }

    #[test]
    fn stream_reports_missing_clock() {
        let (ab, _, _) = setup();
        let t = Trace::from_elements([Valuation::empty()]);
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        assert!(matches!(
            GlobalVcdStream::new(&vcd, &ab, &[VcdClockSpec::new("ghost")]),
            Err(VcdReadError::MissingClock { .. })
        ));
    }

    #[test]
    fn id_codes_are_printable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let c = id_code(i);
            assert!(c.chars().all(|ch| ('!'..='~').contains(&ch)));
            assert!(seen.insert(c));
        }
    }

    #[test]
    fn malformed_input_reports_line() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$enddefinitions $end
#0
q!
";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        match err {
            VcdReadError::Malformed { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    // ---- multi-clock global stream ---------------------------------

    fn global_setup() -> (Alphabet, SymbolId, SymbolId, ClockSet, GlobalRun) {
        let mut ab = Alphabet::new();
        let go = ab.event("go");
        let done = ab.event("done");
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 2, 0)); // 0,2,4
        let c2 = clocks.add(ClockDomain::new("clk2", 3, 1)); // 1,4
        let t1 = Trace::from_elements([
            Valuation::of([go]),
            Valuation::empty(),
            Valuation::of([go]),
        ]);
        let t2 = Trace::from_elements([Valuation::of([done]), Valuation::of([done])]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        (ab, go, done, clocks, run)
    }

    #[test]
    fn global_write_read_round_trips() {
        let (ab, go, done, clocks, run) = global_setup();
        let owners = [Valuation::of([go]), Valuation::of([done])];
        let opts = VcdWriteOptions {
            half_period: 1,
            ..Default::default()
        };
        let vcd = write_vcd_global(&run, &clocks, &ab, &owners, &opts);
        let specs = [
            VcdClockSpec::masked("clk1", owners[0]),
            VcdClockSpec::masked("clk2", owners[1]),
        ];
        let mut stream = GlobalVcdStream::new(&vcd, &ab, &specs).unwrap();
        let mut steps = Vec::new();
        let mut got: Vec<GlobalStep> = Vec::new();
        while stream.next_chunk(&mut steps, 3).unwrap() > 0 {
            got.extend(steps.iter().cloned());
        }
        assert_eq!(got.len(), run.len());
        for (read, orig) in got.iter().zip(run.iter()) {
            // VCD time = 2 * global time * half_period (half_period=1)
            assert_eq!(read.time, 2 * orig.time);
            assert_eq!(read.ticks, orig.ticks);
        }
    }

    #[test]
    fn global_shared_instants_merge_into_one_step() {
        let (ab, go, done, clocks, run) = global_setup();
        // global time 4 has both clocks ticking
        let shared = run.iter().find(|s| s.ticks.len() == 2).expect("shared instant");
        assert_eq!(shared.time, 4);
        let owners = [Valuation::of([go]), Valuation::of([done])];
        let vcd = write_vcd_global(
            &run,
            &clocks,
            &ab,
            &owners,
            &VcdWriteOptions {
                half_period: 1,
                ..Default::default()
            },
        );
        let specs = [VcdClockSpec::new("clk1"), VcdClockSpec::new("clk2")];
        let mut stream = GlobalVcdStream::new(&vcd, &ab, &specs).unwrap();
        let mut steps = Vec::new();
        stream.next_chunk(&mut steps, 64).unwrap();
        let read_shared = steps.iter().find(|s| s.time == 8).expect("shared step");
        assert_eq!(read_shared.ticks.len(), 2);
    }

    #[test]
    fn global_missing_clock_names_the_culprit() {
        let (ab, _, _, clocks, run) = global_setup();
        let owners = [Valuation::empty(), Valuation::empty()];
        let vcd = write_vcd_global(&run, &clocks, &ab, &owners, &VcdWriteOptions::default());
        let specs = [VcdClockSpec::new("clk1"), VcdClockSpec::new("ghost")];
        match GlobalVcdStream::new(&vcd, &ab, &specs) {
            Err(VcdReadError::MissingClock { name }) => assert_eq!(name, "ghost"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn global_backwards_timestamp_errors() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk1 $end
$enddefinitions $end
#5
1!
#3
0!
";
        let mut stream = GlobalVcdStream::new(vcd, &ab, &[VcdClockSpec::new("clk1")]).unwrap();
        let mut steps = Vec::new();
        let err = stream.next_chunk(&mut steps, 16).unwrap_err();
        assert!(matches!(err, VcdReadError::Malformed { line: 5, .. }), "{err}");
        // poisoned
        assert_eq!(stream.next_chunk(&mut steps, 16).unwrap(), 0);
    }

    #[test]
    fn global_stream_masks_restrict_tick_valuations() {
        let (ab, go, done, clocks, run) = global_setup();
        // write WITHOUT ownership separation (both clocks own all
        // symbols), then read back masked: each tick carries only its
        // own chart's signals even though the wires are shared
        let all = Valuation::of([go, done]);
        let vcd = write_vcd_global(
            &run,
            &clocks,
            &ab,
            &[all, all],
            &VcdWriteOptions {
                half_period: 1,
                ..Default::default()
            },
        );
        let specs = [
            VcdClockSpec::masked("clk1", Valuation::of([go])),
            VcdClockSpec::masked("clk2", Valuation::of([done])),
        ];
        let mut stream = GlobalVcdStream::new(&vcd, &ab, &specs).unwrap();
        let mut steps = Vec::new();
        stream.next_chunk(&mut steps, 64).unwrap();
        for step in &steps {
            for &(clock, v) in &step.ticks {
                if clock.index() == 0 {
                    assert!(!v.contains(done), "clk1 tick must not carry done");
                } else {
                    assert!(!v.contains(go), "clk2 tick must not carry go");
                }
            }
        }
    }
}
