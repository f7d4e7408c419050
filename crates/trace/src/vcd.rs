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
//! full. It is the one sampling loop over byte blocks, walked straight
//! into steps on the caller's thread (`crate::decode`): [`read_vcd`] is
//! its one-clock drain into a [`Trace`], and the `&str` constructor is
//! a thin wrapper over the byte-slice reader.

use std::fmt::Write as _;
use std::io::{self, BufRead};

use cesc_expr::{Alphabet, Valuation};

use crate::clock::ClockSet;
use crate::decode::{Block, BlockReader, Chunk, CodeTable, Sampler, MAX_CLOCKS};
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
    /// More clocks were requested than one stream samples (64).
    TooManyClocks {
        /// The number of clocks requested.
        requested: usize,
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
            VcdReadError::TooManyClocks { requested } => write!(
                f,
                "{requested} clocks requested; one VCD stream samples at most {MAX_CLOCKS}"
            ),
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

/// Reads `$var` declarations up to `$enddefinitions` and binds every
/// identifier code to the requested clocks and alphabet symbols it
/// carries. A requested clock with no declaration is
/// [`VcdReadError::MissingClock`]; otherwise end of input before
/// `$enddefinitions` is [`VcdReadError::Malformed`], so a dump cut off
/// in its header, or missing the line, never reads as an empty trace.
///
/// A declared name matches a clock or symbol either exactly or with a
/// vector range stripped — both `data[7:0]` and the separate-token
/// form `$var wire 8 ! data [7:0] $end` resolve to `data`. A clock
/// binds to its first declaration, which must be one bit wide; a name
/// that matches a clock is never also read as a symbol. A `$comment`
/// block is skipped up to its closing `$end` token, over as many lines
/// as it spans, so a declaration inside it binds nothing.
fn parse_header<R: BufRead>(
    reader: &mut R,
    lineno: &mut usize,
    alphabet: &Alphabet,
    clocks: &[VcdClockSpec],
) -> Result<CodeTable, VcdReadError> {
    let mut codes = CodeTable::new();
    let mut declared = vec![false; clocks.len()];
    let mut buf = String::new();
    let mut in_comment = false;
    let mut closed = false;
    while read_line(reader, &mut buf, lineno)? {
        let all: Vec<&str> = buf.split_whitespace().collect();
        let mut toks = &all[..];
        loop {
            if in_comment {
                let Some(end) = toks.iter().position(|&t| t == "$end") else {
                    toks = &[];
                    break;
                };
                in_comment = false;
                toks = &toks[end + 1..];
            }
            if toks.first() != Some(&"$comment") {
                break;
            }
            in_comment = true;
            toks = &toks[1..];
        }
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
                        // a rise of any bit is not an edge of one clock
                        if toks[2] != "1" {
                            return Err(VcdReadError::Malformed {
                                line: *lineno,
                                message: format!(
                                    "clock `{}` is declared {} bits wide; a sampled clock must \
                                     be a 1-bit signal",
                                    spec.name, toks[2]
                                ),
                            });
                        }
                        declared[ci] = true;
                        codes.entry(code).clocks |= 1 << ci;
                    }
                }
            }
            if !is_clock {
                if let Some(id) = alphabet.lookup(name).or_else(|| alphabet.lookup(base)) {
                    codes.entry(code).symbols |= 1u128 << id.index();
                }
            }
        } else if toks.first() == Some(&"$enddefinitions") {
            closed = true;
            break;
        }
    }
    if let Some(ci) = declared.iter().position(|&d| !d) {
        return Err(VcdReadError::MissingClock {
            name: clocks[ci].name.clone(),
        });
    }
    if !closed {
        return Err(VcdReadError::Malformed {
            line: *lineno,
            message: "end of input before `$enddefinitions`: the header was never closed"
                .to_owned(),
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
/// text. The body is read in blocks of about 64 KB cut at line ends,
/// and each block is decoded on the caller's thread straight into the
/// caller's chunk, each step written as its instant closes. Resident
/// memory is one block plus one carried partial line, regardless of
/// dump size.
/// [`read_vcd`] drains a one-clock stream into a [`Trace`].
///
/// Clock `i` of the constructor's list becomes [`ClockId`](crate::ClockId) index `i`
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
    input: BlockReader<R>,
    codes: CodeTable,
    sampler: Sampler,
    /// The block being walked; every block is read into this one.
    block: Block,
    ticks: u64,
    done: bool,
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
    /// Returns [`VcdReadError::TooManyClocks`] for more than 64
    /// clocks, [`VcdReadError::MissingClock`] naming the first
    /// undeclared clock, [`VcdReadError::Malformed`] on an unparseable
    /// `$var` declaration or a clock declared wider than one bit, or
    /// [`VcdReadError::Io`] if the reader fails.
    pub fn from_reader(
        mut reader: R,
        alphabet: &Alphabet,
        clocks: &[VcdClockSpec],
    ) -> Result<Self, VcdReadError> {
        if clocks.len() > MAX_CLOCKS {
            return Err(VcdReadError::TooManyClocks {
                requested: clocks.len(),
            });
        }
        let mut lineno = 0usize;
        let codes = parse_header(&mut reader, &mut lineno, alphabet, clocks)?;
        let masks = clocks
            .iter()
            .map(|s| s.mask.map_or(u128::MAX, Valuation::bits))
            .collect();
        Ok(GlobalVcdStream {
            input: BlockReader::new(reader),
            codes,
            sampler: Sampler::new(masks, lineno),
            block: Block::default(),
            ticks: 0,
            done: false,
        })
    }

    /// The alphabet symbols the header declares a `$var` for; every
    /// other symbol reads as constant false.
    pub fn declared_symbols(&self) -> Valuation {
        Valuation::from_bits(self.codes.symbols())
    }

    /// Body blocks decoded so far.
    pub fn blocks_decoded(&self) -> u64 {
        self.input.blocks
    }

    /// Body lines decoded so far.
    pub fn lines(&self) -> u64 {
        self.sampler.lines
    }

    /// Body bytes decoded so far.
    pub fn bytes(&self) -> u64 {
        self.input.bytes
    }

    /// Per-clock ticks the steps returned so far carry.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Nanoseconds spent decoding the lines of the blocks decoded so
    /// far, writing the steps into the chunk included: two clock reads
    /// per [`GlobalVcdStream::next_chunk`] call and block, none per
    /// line.
    pub fn fold_ns(&self) -> u64 {
        self.sampler.fold_ns
    }

    /// Nanoseconds spent reading body blocks from the reader: two clock
    /// reads per block. The time in [`GlobalVcdStream::next_chunk`] is
    /// this plus [`GlobalVcdStream::fold_ns`], and little else.
    pub fn read_ns(&self) -> u64 {
        self.input.read_ns
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
        let mut chunk = Chunk::new(buf, max);
        let filled = if self.done || max == 0 {
            Ok(())
        } else {
            self.fill(&mut chunk)
        };
        let (len, ticks) = chunk.finish();
        match filled {
            Ok(()) => {
                self.ticks += ticks;
                Ok(len)
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    /// Decodes blocks into `chunk` until it is full or input ends.
    fn fill(&mut self, chunk: &mut Chunk<'_>) -> Result<(), VcdReadError> {
        while !chunk.is_full() {
            if self.block.is_walked() && !self.input.read(&mut self.block) {
                if let Some(e) = self.input.failed.take() {
                    return Err(e);
                }
                self.sampler.finish(chunk);
                self.done = true;
                break;
            }
            self.sampler.walk(&self.codes, &mut self.block, chunk)?;
        }
        Ok(())
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
    use crate::clock::{ClockDomain, ClockId};
    use crate::decode::BLOCK_BYTES;
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
$var wire 1 ! clk $end
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
    fn vector_clock_is_refused() {
        // any rising bit of `clk[1:0]` would read as an edge: refused
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 \" req $end
$var wire 2 ! clk [1:0] $end
$enddefinitions $end
#0
b10 !
";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        assert_eq!(
            err,
            VcdReadError::Malformed {
                line: 2,
                message: "clock `clk` is declared 2 bits wide; a sampled clock must be a 1-bit \
                          signal"
                    .to_owned(),
            }
        );
        // a one-bit select of a vector binds like a scalar
        let one_bit = "$var wire 1 ! clk [0] $end\n$enddefinitions $end\n#0\n1!\n";
        assert_eq!(read_vcd(one_bit, &ab, "clk").unwrap().len(), 1);
    }

    #[test]
    fn vector_x_z_bits_read_as_false() {
        // a vector of only x/z bits is false; any 1 bit wins; an x
        // *alongside* a 1 does not mask it
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
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
    fn unclosed_header_errors_and_a_closed_bodiless_header_reads_empty() {
        let (ab, _, _) = setup();
        // a full body with the `$enddefinitions` line dropped, and a
        // dump cut off inside its header
        for (vcd, lines) in [
            (
                "$var wire 1 ! clk $end\n$var wire 1 \" req $end\n#0\n1!\n1\"\n#5\n0!\n",
                7,
            ),
            (
                "$timescale 1ns $end\n$scope module top $end\n$var wire 1 ! clk $end\n",
                3,
            ),
        ] {
            let err = read_vcd(vcd, &ab, "clk").unwrap_err();
            match err {
                VcdReadError::Malformed { line, message } => {
                    assert_eq!(line, lines, "{message}");
                    assert!(message.contains("never closed"), "{message}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let closed = "$var wire 1 ! clk $end\n$enddefinitions $end\n";
        assert!(read_vcd(closed, &ab, "clk").unwrap().is_empty());
        let mut stream = clk_stream(closed, &ab).unwrap();
        assert!(drain(&mut stream, 4).is_empty());
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
    /// line, cut after its last rising edge with no final newline (the
    /// writers end on a falling edge, which samples nothing), with every
    /// timestamp repeated on a line of its own and again inside its
    /// instant, and without its first `#0` line, so the initial values
    /// come before any timestamp.
    fn layout_variants(vcd: &str) -> Vec<String> {
        let blanks: String = vcd.lines().map(|l| format!("  {l} \t\n")).collect();
        let last_fall = vcd.rfind("\n#").unwrap_or(vcd.len());
        let mut repeated = String::new();
        let mut stamp = "";
        for (i, l) in vcd.lines().enumerate() {
            if l.starts_with('#') {
                stamp = l;
                repeated.push_str(&format!("{l}\n"));
            } else if !stamp.is_empty() && i % 2 == 0 {
                repeated.push_str(&format!("{stamp}\n"));
            }
            repeated.push_str(&format!("{l}\n"));
        }
        vec![
            vcd.to_owned(),
            vcd.replace('\n', "\r\n"),
            blanks,
            vcd[..last_fall].to_owned(),
            repeated,
            vcd.replacen("#0\n", "", 1),
        ]
    }

    /// A stream over `text` whose body is cut into blocks of `block`
    /// bytes.
    fn blocked<R: BufRead>(
        reader: R,
        ab: &Alphabet,
        specs: &[VcdClockSpec],
        block: usize,
    ) -> GlobalVcdStream<R> {
        let mut stream = GlobalVcdStream::from_reader(reader, ab, specs).unwrap();
        stream.input.block_size = block;
        stream
    }

    /// One `next_chunk` result, with the steps of an `Ok`.
    type Call = Result<Vec<GlobalStep>, VcdReadError>;

    /// Every `next_chunk` result of `stream` in `chunk`-sized calls,
    /// through end of input or the first error, then three more calls.
    fn calls_of<R: BufRead>(mut stream: GlobalVcdStream<R>, chunk: usize) -> Vec<Call> {
        let mut calls = Vec::new();
        let mut buf = Vec::new();
        let mut after_end = 0;
        while after_end < 3 {
            let call = stream.next_chunk(&mut buf, chunk).map(|_| buf.clone());
            if !matches!(&call, Ok(steps) if !steps.is_empty()) {
                after_end += 1;
            }
            calls.push(call);
        }
        calls
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
        // lines split across windows at every offset), cut into tiny
        // blocks, into blocks around one and two 64-byte line-end
        // windows and into default blocks, must decode to exactly the
        // in-memory read over default blocks —
        // steps and per-call chunk lengths — and the source run,
        // whatever the line layout; over 94 signals, some identifier
        // codes take two characters
        use rand::{Rng as _, SeedableRng as _};
        let alphabet = |n: usize| {
            let mut ab = Alphabet::new();
            for i in 0..n {
                ab.event(&format!("s{i}"));
            }
            ab
        };
        let (narrow, wide) = (alphabet(5), alphabet(100));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA4);
        for case in 0..16u64 {
            let ab = if case < 12 { &narrow } else { &wide };
            let opts = VcdWriteOptions::default();
            let scale = 2 * opts.half_period;
            let (vcd, specs, expected) = if case % 2 == 0 {
                let len = rng.random_range(0..60usize);
                let trace = TraceGen::new(case, ab).noise(len, 0.3);
                let expected: Vec<GlobalStep> = trace
                    .iter()
                    .enumerate()
                    .map(|(k, v)| GlobalStep {
                        time: k as u64 * scale,
                        ticks: vec![(ClockId::from_index(0), v)],
                    })
                    .collect();
                (
                    write_vcd(&trace, ab, &opts),
                    vec![VcdClockSpec::new("clk")],
                    expected,
                )
            } else {
                let (clocks, run, owners) = random_global_run(&mut rng, ab);
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
                    write_vcd_global(&run, &clocks, ab, &owners, &opts),
                    specs,
                    expected,
                )
            };
            if case >= 12 {
                assert!(
                    vcd.contains("$var wire 1 !\" "),
                    "two-character codes: {vcd}"
                );
            }
            for text in layout_variants(&vcd) {
                let whole = GlobalVcdStream::from_reader(text.as_bytes(), ab, &specs).unwrap();
                assert_eq!(
                    steps_of(whole, 7).unwrap(),
                    expected,
                    "case {case}: {text:?}"
                );
                let large = rng.random_range(17..=4096usize);
                // blocks of 1 to 48 bytes, so every block edge falls at
                // every line offset, then blocks one byte short of, at
                // and past one and two windows, and default blocks
                let mut cuts: Vec<(usize, usize)> = (1..=16)
                    .chain([large])
                    .map(|cap| (cap, rng.random_range(1..=48usize)))
                    .collect();
                cuts.extend([63, 64, 65, 127, 128, 129, BLOCK_BYTES].map(|block| (large, block)));
                for (cap, block) in cuts {
                    let chunk = rng.random_range(1..=9usize);
                    let inline = calls_of(
                        GlobalVcdStream::from_reader(text.as_bytes(), ab, &specs).unwrap(),
                        chunk,
                    );
                    let reader = io::BufReader::with_capacity(cap, text.as_bytes());
                    let calls = calls_of(blocked(reader, ab, &specs, block), chunk);
                    let what = format!(
                        "case {case}, capacity {cap}, block {block}, chunk {chunk}: {text:?}"
                    );
                    assert_eq!(calls, inline, "{what}");
                    let steps: Vec<GlobalStep> =
                        calls.into_iter().flat_map(Result::unwrap).collect();
                    assert_eq!(steps, expected, "{what}");
                }
            }
        }
    }

    #[test]
    fn tiny_block_errors_and_poisoning_equal_default_blocks() {
        // byte-mutated dumps read over three tiny block sizes and over
        // default blocks give the same sequence of results: the same
        // steps, then the same error (kind, line, message), then end of
        // input forever
        use rand::{Rng as _, SeedableRng as _};
        let mut ab = Alphabet::new();
        for name in ["req", "ack", "burst", "go", "done"] {
            ab.event(name);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB10C);
        let opts = VcdWriteOptions::default();
        const BYTES: &[u8] = b"#01xzq b$\n\n!\"#5 \xff";
        let mut errors = 0;
        for case in 0..300u64 {
            let (vcd, specs) = if case % 2 == 0 {
                let trace = TraceGen::new(case, &ab).noise(rng.random_range(0..30usize), 0.3);
                (write_vcd(&trace, &ab, &opts), vec![VcdClockSpec::new("clk")])
            } else {
                let (clocks, run, owners) = random_global_run(&mut rng, &ab);
                let specs = clocks
                    .iter()
                    .map(|(id, d)| VcdClockSpec::masked(d.name(), owners[id.index()]))
                    .collect();
                (write_vcd_global(&run, &clocks, &ab, &owners, &opts), specs)
            };
            let mut bytes = vcd.into_bytes();
            const HEADER_END: &[u8] = b"$enddefinitions $end\n";
            let body = bytes
                .windows(HEADER_END.len())
                .position(|w| w == HEADER_END)
                .expect("the writers end the header")
                + HEADER_END.len();
            for _ in 0..rng.random_range(1..=3) {
                if body < bytes.len() {
                    let at = rng.random_range(body..bytes.len());
                    bytes[at] = BYTES[rng.random_range(0..BYTES.len())];
                }
            }
            let chunk = rng.random_range(1..=9usize);
            let inline = calls_of(
                GlobalVcdStream::from_reader(bytes.as_slice(), &ab, &specs).unwrap(),
                chunk,
            );
            errors += usize::from(inline.iter().any(Result::is_err));
            for block in [(); 3].map(|()| rng.random_range(1..=64usize)) {
                let calls = calls_of(blocked(bytes.as_slice(), &ab, &specs, block), chunk);
                assert_eq!(
                    calls,
                    inline,
                    "case {case}, block {block}, chunk {chunk}: {:?}",
                    String::from_utf8_lossy(&bytes)
                );
            }
        }
        assert!(errors > 50, "the mutations must hit errors: {errors} of 300");
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
    fn real_and_string_changes_on_unbound_codes_are_skipped() {
        // `r`/`s` changes on codes no sampled symbol or clock uses are
        // skipped without reading the value; on a bound code they stay
        // an error with the line number, over default and tiny blocks
        let (ab, req, _) = setup();
        let specs = [VcdClockSpec::new("clk")];
        let clean = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$var real 64 $ temp $end
$var string 1 % label $end
$enddefinitions $end
#0
r0.5 $
sidle %
1\"
1!
#5
R1e-3 $
0!
Sbusy %
#10
1!
";
        let inline = calls_of(GlobalVcdStream::new(clean, &ab, &specs).unwrap(), 1);
        let Ok(steps) = &inline[0] else {
            panic!("{inline:?}")
        };
        assert_eq!(steps[0].ticks[0].1, Valuation::of([req]), "{inline:?}");
        let steps = inline.iter().filter(|c| matches!(c, Ok(s) if !s.is_empty()));
        assert_eq!(steps.count(), 2);
        for block in [1, 5] {
            let calls = calls_of(blocked(clean.as_bytes(), &ab, &specs, block), 1);
            assert_eq!(calls, inline, "block {block}");
        }

        // the same `r` line on the code `req` is bound to is refused
        let bound = clean.replace("r0.5 $", "r0.5 \"");
        let inline = calls_of(GlobalVcdStream::new(&bound, &ab, &specs).unwrap(), 1);
        let Err(e) = &inline[0] else {
            panic!("{inline:?}")
        };
        assert_eq!(
            e.to_string(),
            "malformed VCD at line 7: unsupported value change `r`"
        );
        for block in [1, 5] {
            let calls = calls_of(blocked(bound.as_bytes(), &ab, &specs, block), 1);
            assert_eq!(calls, inline, "block {block}");
        }
    }

    #[test]
    fn comments_bind_nothing_and_multi_line_body_comments_are_refused() {
        // a `$var` inside a header `$comment` block binds nothing; in
        // the body a one-line `$comment … $end` is skipped and one the
        // line does not close is an error naming its line — over
        // default and tiny blocks
        let (ab, req, _) = setup();
        let specs = [VcdClockSpec::new("clk")];
        let header = "\
$var wire 1 ! clk $end
$comment
$var wire 1 $ req $end
$end
$comment $var wire 1 % req $end $end
$var wire 1 \" req $end
$enddefinitions $end
#0
0!
#5
1!
1$
1%
$comment one line, skipped $end
#10
0!
#15
1!
1\"
";
        let inline = calls_of(GlobalVcdStream::new(header, &ab, &specs).unwrap(), 8);
        let Ok(steps) = &inline[0] else {
            panic!("{inline:?}")
        };
        let seen: Vec<_> = steps.iter().map(|s| (s.time, s.ticks[0].1)).collect();
        assert_eq!(seen, [(5, Valuation::empty()), (15, Valuation::of([req]))]);
        for block in [1, 5] {
            let calls = calls_of(blocked(header.as_bytes(), &ab, &specs, block), 8);
            assert_eq!(calls, inline, "block {block}");
        }

        let body = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$enddefinitions $end
#0
0!
#5
1!
#10
0!
$comment
1\"
#12
1!
$end
#15
1!
";
        let inline = calls_of(GlobalVcdStream::new(body, &ab, &specs).unwrap(), 1);
        let errors: Vec<_> = inline.iter().filter_map(|c| c.as_ref().err()).collect();
        assert_eq!(errors.len(), 1, "{inline:?}");
        assert!(
            matches!(errors[0], VcdReadError::Malformed { line: 10, .. }),
            "{}",
            errors[0]
        );
        for block in [1, 5] {
            let calls = calls_of(blocked(body.as_bytes(), &ab, &specs, block), 1);
            assert_eq!(calls, inline, "block {block}");
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
    fn chunks_pause_at_block_edges() {
        // hand-built 64-byte blocks, each padded with blank lines: a
        // chunk's last step can be the last step a block writes, the
        // next block can open with a malformed line, a later one with a
        // backwards timestamp, and an instant can span a block edge
        // with its timestamp repeated after it; 64-byte blocks must give
        // the same calls as one default block at every chunk size
        let (ab, req, _) = setup();
        let specs = [VcdClockSpec::new("clk")];
        const HEADER: &str = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$enddefinitions $end
";
        let dump = |blocks: &[&[&str]]| {
            let mut text = HEADER.to_owned();
            for lines in blocks {
                let block: String = lines.iter().map(|l| format!("{l}\n")).collect();
                assert!(block.len() <= 64, "{block:?}");
                text.push_str(&block);
                text.push_str(&"\n".repeat(64 - block.len()));
            }
            text
        };
        // steps written per block: 2 (at #5 and #15), 1, 2, 1; the
        // instant #30 opens in the second block and closes in the third
        let first: &[&str] = &[
            "#0", "1!", "1\"", "#5", "0!", "#10", "1!", "#15", "0!", "0\"",
        ];
        let second: &[&str] = &["#20", "1!", "#25", "0!", "#30", "1!"];
        let third: &[&str] = &["#30", "1\"", "#35", "0!", "#40", "1!", "#45", "0!"];
        let fourth: &[&str] = &["#50", "1!", "0\"", "#55", "0!"];
        let clean = dump(&[first, second, third, fourth]);
        let malformed = dump(&[first, &[&["q!"], second].concat(), third, fourth]);
        let backwards = dump(&[first, second, third, &[&["#3"], fourth].concat()]);

        let whole = GlobalVcdStream::new(&clean, &ab, &specs).unwrap();
        let steps = steps_of(whole, 2).unwrap();
        let times: Vec<u64> = steps.iter().map(|s| s.time).collect();
        assert_eq!(times, [0, 10, 20, 30, 40, 50]);
        let high: Vec<bool> = steps.iter().map(|s| s.ticks[0].1.contains(req)).collect();
        assert_eq!(high, [true, true, false, true, true, false]);
        let line_of =
            |text: &str, what: &str| 1 + text.lines().position(|l| l == what).expect("in the dump");
        for (text, error) in [
            (&clean, None),
            (&malformed, Some(line_of(&malformed, "q!"))),
            (&backwards, Some(line_of(&backwards, "#3"))),
        ] {
            for max in 1..=4 {
                let calls = calls_of(blocked(text.as_bytes(), &ab, &specs, 64), max);
                let whole = calls_of(GlobalVcdStream::new(text, &ab, &specs).unwrap(), max);
                assert_eq!(calls, whole, "chunk {max}: {text:?}");
                let lines: Vec<usize> = calls
                    .iter()
                    .filter_map(|c| match c {
                        Err(VcdReadError::Malformed { line, .. }) => Some(*line),
                        _ => None,
                    })
                    .collect();
                assert_eq!(lines, Vec::from_iter(error), "chunk {max}: {calls:?}");
            }
        }

        let mut stream = blocked(clean.as_bytes(), &ab, &specs, 64);
        let mut buf = Vec::new();
        while stream.next_chunk(&mut buf, 1).unwrap() > 0 {}
        assert_eq!(stream.blocks_decoded(), 4);
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
    fn more_than_64_clocks_is_an_error() {
        // clock sets are 64-bit masks: a 65th clock is refused up front
        let (ab, _, _) = setup();
        let specs: Vec<VcdClockSpec> =
            (0..65).map(|i| VcdClockSpec::new(&format!("clk{i}"))).collect();
        match GlobalVcdStream::new("$enddefinitions $end\n", &ab, &specs) {
            Err(VcdReadError::TooManyClocks { requested: 65 }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(GlobalVcdStream::new("$enddefinitions $end\n", &ab, &specs[..64])
            .is_err_and(|e| matches!(e, VcdReadError::MissingClock { .. })));
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
