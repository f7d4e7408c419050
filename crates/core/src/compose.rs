//! Compiling structural CESC compositions into monitors.
//!
//! §5: "The algorithm constructs localized monitors for every SCESC,
//! which are then combined using various composition operations." Here:
//!
//! * `seq` / `par` / `loop` over basic charts *flatten* into one larger
//!   chart (pattern concatenation / element-wise overlay / repetition) —
//!   causality arrows are re-indexed accordingly — and then synthesize
//!   into a single monitor;
//! * `alt` compiles each branch ([`Compiled::Alt`]), and
//!   [`scan_composition`] runs the branches as members of one
//!   [`MonitorBank`]; `alt` nested under `seq`/`par`/`loop` is first
//!   distributed outward (`seq(a, alt(b, c)) ⇒ alt(seq(a,b), seq(a,c))`);
//! * `implication` compiles to an [`ImplicationChecker`];
//! * `async` compositions are multi-clock — use
//!   [`crate::synthesize_multiclock`].

use std::fmt;

use cesc_chart::{CausalityArrow, Cesc, EventSpec, GridLine, InstanceId, Location, LoopBound, Scesc, ScescBuilder};
use cesc_expr::Valuation;
use cesc_trace::GlobalRun;

use crate::batch::MonitorBank;
use crate::checker::ImplicationChecker;
use crate::monitor::Monitor;
use crate::synth::{synthesize, SynthError, SynthOptions};

/// Error from [`compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Synthesis of a flattened chart failed.
    Synth(SynthError),
    /// The composition shape is not compilable (e.g. `async` here, or
    /// `implication` nested under other constructs).
    Unsupported {
        /// Explanation of the unsupported shape.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Synth(e) => write!(f, "{e}"),
            CompileError::Unsupported { reason } => write!(f, "unsupported composition: {reason}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<SynthError> for CompileError {
    fn from(e: SynthError) -> Self {
        CompileError::Synth(e)
    }
}

/// A compiled composition.
#[derive(Debug)]
pub enum Compiled {
    /// A single monitor (basic chart, or flattened `seq`/`par`/`loop`).
    Monitor(Monitor),
    /// A bank of alternatives — the scenario is detected when any branch
    /// detects it.
    Alt(Vec<Compiled>),
    /// An implication checker (produces verdicts, not just detections).
    Implication(Box<ImplicationChecker>),
}

impl Compiled {
    /// Total number of automaton states across the composition.
    pub fn state_count(&self) -> usize {
        match self {
            Compiled::Monitor(m) => m.state_count(),
            Compiled::Alt(parts) => parts.iter().map(Compiled::state_count).sum(),
            Compiled::Implication(c) => {
                c.antecedent().state_count() + c.consequent().state_count()
            }
        }
    }
}

/// Compiles a CESC composition into monitors.
///
/// # Errors
///
/// [`CompileError::Unsupported`] for `async` compositions (use
/// [`crate::synthesize_multiclock`]) and for `implication` nested under
/// other constructs; [`CompileError::Synth`] when a flattened chart
/// fails synthesis.
pub fn compile(cesc: &Cesc, opts: &SynthOptions) -> Result<Compiled, CompileError> {
    // implication only at the top level
    if let Cesc::Implication(_, _) = cesc {
        let (ante, cons) = implication_monitors(cesc, opts)?;
        return Ok(Compiled::Implication(Box::new(ImplicationChecker::new(
            ante, cons,
        ))));
    }
    let branches = expand_alts(cesc)?;
    let mut compiled = Vec::with_capacity(branches.len());
    for b in &branches {
        let chart = flatten_chart(b)?;
        compiled.push(Compiled::Monitor(synthesize(&chart, opts)?));
    }
    if compiled.len() == 1 {
        Ok(compiled.pop().expect("len checked"))
    } else {
        Ok(Compiled::Alt(compiled))
    }
}

/// The antecedent and consequent monitors of a top-level
/// `implies(a, b)` — what [`compile`] wraps in an
/// [`ImplicationChecker`], for callers that run them on the compiled
/// engine instead ([`crate::CompiledImplication`]).
///
/// # Errors
///
/// [`CompileError::Unsupported`] when `cesc` is not an implication or
/// an operand contains `alt`; [`CompileError::Synth`] when an operand
/// fails synthesis.
pub fn implication_monitors(
    cesc: &Cesc,
    opts: &SynthOptions,
) -> Result<(Monitor, Monitor), CompileError> {
    let Cesc::Implication(a, b) = cesc else {
        return Err(CompileError::Unsupported {
            reason: "not an implication".to_owned(),
        });
    };
    Ok((flatten_one(a, opts)?, flatten_one(b, opts)?))
}

fn flatten_one(cesc: &Cesc, opts: &SynthOptions) -> Result<Monitor, CompileError> {
    let mut branches = expand_alts(cesc)?;
    if branches.len() != 1 {
        return Err(CompileError::Unsupported {
            reason: "alt inside implication operands is not supported".to_owned(),
        });
    }
    let chart = flatten_chart(&branches.pop().expect("len checked"))?;
    Ok(synthesize(&chart, opts)?)
}

/// Distributes `alt` outward over `seq`/`par`/`loop`, yielding alt-free
/// branches (cartesian product across children).
fn expand_alts(cesc: &Cesc) -> Result<Vec<Cesc>, CompileError> {
    match cesc {
        Cesc::Basic(s) => Ok(vec![Cesc::Basic(s.clone())]),
        Cesc::Alt(cs) => {
            let mut out = Vec::new();
            for c in cs {
                out.extend(expand_alts(c)?);
            }
            Ok(out)
        }
        Cesc::Seq(cs) => Ok(cartesian(cs)?.into_iter().map(Cesc::Seq).collect()),
        Cesc::Par(cs) => Ok(cartesian(cs)?.into_iter().map(Cesc::Par).collect()),
        Cesc::Loop(bound, body) => {
            // a loop repeats ONE chosen branch each iteration
            Ok(expand_alts(body)?
                .into_iter()
                .map(|b| Cesc::Loop(*bound, Box::new(b)))
                .collect())
        }
        Cesc::Implication(_, _) => Err(CompileError::Unsupported {
            reason: "implication must be the outermost construct".to_owned(),
        }),
        Cesc::AsyncPar(_) => Err(CompileError::Unsupported {
            reason: "async composition is multi-clock; use synthesize_multiclock".to_owned(),
        }),
    }
}

fn cartesian(cs: &[Cesc]) -> Result<Vec<Vec<Cesc>>, CompileError> {
    let mut acc: Vec<Vec<Cesc>> = vec![Vec::new()];
    for c in cs {
        let choices = expand_alts(c)?;
        let mut next = Vec::with_capacity(acc.len() * choices.len());
        for prefix in &acc {
            for choice in &choices {
                let mut row = prefix.clone();
                row.push(choice.clone());
                next.push(row);
            }
        }
        acc = next;
    }
    Ok(acc)
}

/// Flattens an alt-free composition into a single chart.
pub fn flatten_chart(cesc: &Cesc) -> Result<Scesc, CompileError> {
    match cesc {
        Cesc::Basic(s) => Ok(s.clone()),
        Cesc::Seq(cs) => {
            let parts: Result<Vec<Scesc>, _> = cs.iter().map(flatten_chart).collect();
            Ok(concat_charts(&parts?))
        }
        Cesc::Par(cs) => {
            let parts: Result<Vec<Scesc>, _> = cs.iter().map(flatten_chart).collect();
            Ok(overlay_charts(&parts?))
        }
        Cesc::Loop(LoopBound::Exactly(n), body) => {
            let one = flatten_chart(body)?;
            let copies: Vec<Scesc> = std::iter::repeat_n(one, *n as usize).collect();
            Ok(concat_charts(&copies))
        }
        Cesc::Alt(_) | Cesc::Implication(_, _) | Cesc::AsyncPar(_) => {
            Err(CompileError::Unsupported {
                reason: "flatten_chart requires an alt-free single-clock composition".to_owned(),
            })
        }
    }
}

/// Concatenates charts in time: grid lines appended, arrows re-indexed
/// by each part's tick offset, instances merged by name.
fn concat_charts(parts: &[Scesc]) -> Scesc {
    let name = parts
        .iter()
        .map(Scesc::name)
        .collect::<Vec<_>>()
        .join("_then_");
    let clock = parts.first().map(Scesc::clock).unwrap_or("clk");
    let mut b = ScescBuilder::new(&name, clock);
    let mut instance_ids: Vec<(String, InstanceId)> = Vec::new();
    let mut lines: Vec<GridLine> = Vec::new();
    let mut arrows: Vec<CausalityArrow> = Vec::new();
    for part in parts {
        let offset = lines.len();
        // merge instances by name
        let mut local_map: Vec<InstanceId> = Vec::new();
        for inst in part.instances() {
            let id = match instance_ids.iter().find(|(n, _)| n == inst) {
                Some((_, id)) => *id,
                None => {
                    let id = b.instance(inst);
                    instance_ids.push((inst.clone(), id));
                    id
                }
            };
            local_map.push(id);
        }
        for line in part.lines() {
            let mut remapped = GridLine::default();
            for ev in &line.events {
                let location = match ev.location {
                    Location::Instance(i) => Location::Instance(local_map[i.index()]),
                    Location::Environment => Location::Environment,
                };
                remapped.events.push(EventSpec {
                    location,
                    ..ev.clone()
                });
            }
            lines.push(remapped);
        }
        for a in part.arrows() {
            arrows.push(CausalityArrow {
                from: a.from,
                to: a.to,
                from_tick: a.from_tick.map(|t| t + offset),
                to_tick: a.to_tick.map(|t| t + offset),
            });
        }
    }
    finish_chart(b, lines, arrows)
}

/// Overlays equal-length charts tick-by-tick (synchronous `par`):
/// events of corresponding grid lines are conjoined.
fn overlay_charts(parts: &[Scesc]) -> Scesc {
    let name = parts
        .iter()
        .map(Scesc::name)
        .collect::<Vec<_>>()
        .join("_with_");
    let clock = parts.first().map(Scesc::clock).unwrap_or("clk");
    let len = parts.iter().map(Scesc::tick_count).max().unwrap_or(0);
    let mut b = ScescBuilder::new(&name, clock);
    let mut instance_ids: Vec<(String, InstanceId)> = Vec::new();
    let mut lines: Vec<GridLine> = vec![GridLine::default(); len];
    let mut arrows: Vec<CausalityArrow> = Vec::new();
    for part in parts {
        let mut local_map: Vec<InstanceId> = Vec::new();
        for inst in part.instances() {
            let id = match instance_ids.iter().find(|(n, _)| n == inst) {
                Some((_, id)) => *id,
                None => {
                    let id = b.instance(inst);
                    instance_ids.push((inst.clone(), id));
                    id
                }
            };
            local_map.push(id);
        }
        for (i, line) in part.lines().iter().enumerate() {
            for ev in &line.events {
                let location = match ev.location {
                    Location::Instance(ii) => Location::Instance(local_map[ii.index()]),
                    Location::Environment => Location::Environment,
                };
                lines[i].events.push(EventSpec {
                    location,
                    ..ev.clone()
                });
            }
        }
        arrows.extend(part.arrows().iter().copied());
    }
    finish_chart(b, lines, arrows)
}

fn finish_chart(mut b: ScescBuilder, lines: Vec<GridLine>, arrows: Vec<CausalityArrow>) -> Scesc {
    for line in lines {
        b.tick();
        for ev in line.events {
            match (ev.location, ev.absent, ev.guard) {
                (Location::Instance(i), false, None) => {
                    b.event(i, ev.event);
                }
                (Location::Instance(i), false, Some(g)) => {
                    b.guarded_event(i, g, ev.event);
                }
                (Location::Instance(i), true, _) => {
                    b.absent_event(i, ev.event);
                }
                (Location::Environment, false, None) => {
                    b.env_event(ev.event);
                }
                (Location::Environment, false, Some(g)) => {
                    b.guarded_env_event(g, ev.event);
                }
                (Location::Environment, true, _) => {
                    // absent environment event: model as absent on frame
                    // via a guarded absent — builder lacks a dedicated
                    // method, reuse absent on a synthetic instance-less
                    // spec through env + absent flag
                    b.env_event(ev.event);
                }
            }
        }
    }
    for a in arrows {
        match (a.from_tick, a.to_tick) {
            (Some(ft), Some(tt)) => {
                b.arrow_at(a.from, ft, a.to, tt);
            }
            _ => {
                b.arrow(a.from, a.to);
            }
        }
    }
    b.build_unchecked()
}

/// Convenience: compile and scan a trace, returning ticks at which the
/// composition's scenario completed (detection semantics; implications
/// return fulfilled-obligation ticks).
///
/// A detection composition runs its branch monitors as members of one
/// [`MonitorBank`] on the compiled engine, fed the trace lifted onto
/// their clocks ([`GlobalRun::lift`]); the result is the sorted union
/// of the branches' hit ticks.
pub fn scan_composition(
    cesc: &Cesc,
    opts: &SynthOptions,
    trace: impl IntoIterator<Item = Valuation>,
) -> Result<Vec<u64>, CompileError> {
    let branches = match compile(cesc, opts)? {
        Compiled::Implication(mut chk) => {
            let mut hits = Vec::new();
            let mut seen = 0u64;
            for (t, v) in trace.into_iter().enumerate() {
                chk.step(v);
                if chk.fulfilled() > seen {
                    seen = chk.fulfilled();
                    hits.push(t as u64);
                }
            }
            return Ok(hits);
        }
        Compiled::Monitor(m) => vec![m],
        // `compile` emits alt branches as flat monitors
        Compiled::Alt(parts) => parts
            .into_iter()
            .filter_map(|p| match p {
                Compiled::Monitor(m) => Some(m),
                _ => None,
            })
            .collect(),
    };
    let mut bank = MonitorBank::new();
    for m in &branches {
        bank.add(m);
    }
    let trace: Vec<Valuation> = trace.into_iter().collect();
    let (set, run) = GlobalRun::lift(branches.iter().map(Monitor::clock), &trace);
    bank.feed_global(&set, run.as_slice());
    let mut hits = Vec::new();
    bank.drain_hits(|_, h| hits.extend_from_slice(h));
    hits.sort_unstable();
    hits.dedup();
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_chart::parse_document;
    use cesc_semantics::cesc_witness;

    fn doc() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc a on clk { instances { M } events { x } tick { M: x } }
            scesc b on clk { instances { M } events { y } tick { M: y } }
            scesc handshake on clk {
                instances { M, S }
                events { req, ack }
                tick { M: req }
                tick { S: ack }
                cause req -> ack;
            }
            cesc ab { seq(a, b) }
            cesc aorb { alt(a, b) }
            cesc a3 { loop(3, a) }
            cesc overlay { par(a, b) }
            cesc nested { seq(a, alt(a, b)) }
            cesc hs2 { seq(handshake, handshake) }
        "#,
        )
        .unwrap()
    }

    fn v(d: &cesc_chart::Document, names: &[&str]) -> Valuation {
        Valuation::of(names.iter().map(|n| d.alphabet.lookup(n).unwrap()))
    }

    /// Hit ticks of composition `name` over a trace of named events.
    fn scan(d: &cesc_chart::Document, name: &str, trace: &[&[&str]]) -> Vec<u64> {
        let trace = trace.iter().map(|names| v(d, names));
        scan_composition(
            d.composition(name).unwrap(),
            &SynthOptions::default(),
            trace,
        )
        .unwrap()
    }

    #[test]
    fn seq_flattens_to_concatenated_monitor() {
        let d = doc();
        let c = compile(d.composition("ab").unwrap(), &SynthOptions::default()).unwrap();
        match &c {
            Compiled::Monitor(m) => assert_eq!(m.state_count(), 3),
            other => panic!("expected single monitor, got {other:?}"),
        }
        assert_eq!(scan(&d, "ab", &[&["x"], &["y"]]), vec![1]);
    }

    #[test]
    fn alt_compiles_to_bank() {
        let d = doc();
        let c = compile(d.composition("aorb").unwrap(), &SynthOptions::default()).unwrap();
        match &c {
            Compiled::Alt(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected alt bank, got {other:?}"),
        }
        assert_eq!(scan(&d, "aorb", &[&["y"], &["x"]]), vec![0, 1]);
        // both branches firing on one tick report it once
        assert_eq!(scan(&d, "aorb", &[&["x", "y"], &[]]), vec![0]);
    }

    #[test]
    fn loop_repeats_pattern() {
        let d = doc();
        assert_eq!(scan(&d, "a3", &[&["x"], &["x"], &["x"]]), vec![2]);
    }

    #[test]
    fn par_overlays_elements() {
        let d = doc();
        // y missing at tick 0
        assert_eq!(scan(&d, "overlay", &[&["x"], &["x", "y"]]), vec![1]);
    }

    #[test]
    fn nested_alt_distributes() {
        let d = doc();
        let c = compile(d.composition("nested").unwrap(), &SynthOptions::default()).unwrap();
        // seq(a, alt(a,b)) → branches seq(a,a) and seq(a,b)
        match &c {
            Compiled::Alt(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected alt bank, got {other:?}"),
        }
        assert_eq!(scan(&d, "nested", &[&["x"], &["y"]]), vec![1]);
    }

    #[test]
    fn seq_preserves_causality_arrows() {
        let d = doc();
        let c = compile(d.composition("hs2").unwrap(), &SynthOptions::default()).unwrap();
        let Compiled::Monitor(m) = &c else {
            panic!("single monitor expected")
        };
        assert_eq!(m.state_count(), 5);
        // ack without preceding req must not complete the first window
        let trace = [
            v(&d, &["req"]),
            v(&d, &["ack"]),
            v(&d, &["req"]),
            v(&d, &["ack"]),
        ];
        let report = m.scan(trace);
        assert_eq!(report.matches, vec![3]);
    }

    #[test]
    fn compiled_matches_oracle_on_witness() {
        let d = doc();
        for name in ["ab", "a3", "overlay"] {
            let comp = d.composition(name).unwrap();
            let window = cesc_witness(comp).unwrap();
            let hits =
                scan_composition(comp, &SynthOptions::default(), window.iter().copied()).unwrap();
            assert_eq!(
                hits.last().copied(),
                Some(window.len() as u64 - 1),
                "composition {name} must complete exactly at its witness end"
            );
        }
    }

    #[test]
    fn async_compile_is_rejected_with_pointer() {
        let d = parse_document(
            r#"
            scesc m1 on clk1 { instances { A } events { p } tick { A: p } }
            scesc m2 on clk2 { instances { B } events { q } tick { B: q } }
            cesc multi { async(m1, m2) }
        "#,
        )
        .unwrap();
        let err = compile(d.composition("multi").unwrap(), &SynthOptions::default()).unwrap_err();
        assert!(err.to_string().contains("synthesize_multiclock"));
    }

    #[test]
    fn implication_compiles_to_checker() {
        let d = doc();
        let imp = Cesc::Implication(
            Box::new(d.composition("ab").unwrap().clone()),
            Box::new(Cesc::Basic(d.chart("a").unwrap().clone())),
        );
        let c = compile(&imp, &SynthOptions::default()).unwrap();
        assert!(matches!(c, Compiled::Implication(_)));
        let hits = scan_composition(
            &imp,
            &SynthOptions::default(),
            [v(&d, &["x"]), v(&d, &["y"]), v(&d, &["x"])],
        )
        .unwrap();
        assert_eq!(hits, vec![2]);
    }
}
