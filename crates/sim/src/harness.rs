//! Online monitoring harnesses.
//!
//! Connects synthesized monitors to a running [`Simulation`]: either
//! *inline* ([`OnlineHarness`], monitors stepped in the simulation loop
//! — the step-wise reference) or *decoupled*
//! ([`run_decoupled_parallel`], the simulation thread streams
//! [`GlobalStep`] chunks into a sharded `cesc-par` fleet — how checkers
//! attach to a live simulator in practice).
//!
//! [`Simulation`]: crate::Simulation

use cesc_core::{Monitor, MonitorExec, MultiClockMonitor};
use cesc_trace::{ClockSet, GlobalStep};

/// Number of [`GlobalStep`]s per chunk the simulation thread hands to
/// the fleet in [`run_decoupled_parallel`].
pub const HARNESS_CHUNK: usize = 1024;

/// Inline harness: single-clock monitors plus optional multi-clock
/// monitors, all stepped synchronously with the simulation.
#[derive(Debug)]
pub struct OnlineHarness<'m> {
    single: Vec<(usize, MonitorExec<'m>)>, // (clock index in ClockSet order, exec)
    single_hits: Vec<Vec<u64>>,
    multi: Vec<cesc_core::MultiClockExec<'m>>,
    multi_hits: Vec<Vec<u64>>,
}

impl<'m> OnlineHarness<'m> {
    /// Creates an empty harness.
    pub fn new() -> Self {
        OnlineHarness {
            single: Vec::new(),
            single_hits: Vec::new(),
            multi: Vec::new(),
            multi_hits: Vec::new(),
        }
    }

    /// Attaches a single-clock monitor; its [`Monitor::clock`] must name
    /// a domain of `clocks`.
    ///
    /// # Panics
    ///
    /// Panics if the monitor's clock is not in `clocks`.
    pub fn attach(&mut self, clocks: &ClockSet, monitor: &'m Monitor) -> usize {
        let clock = clocks
            .lookup(monitor.clock())
            .unwrap_or_else(|| panic!("monitor clock `{}` not in clock set", monitor.clock()));
        self.single.push((clock.index(), MonitorExec::new(monitor)));
        self.single_hits.push(Vec::new());
        self.single.len() - 1
    }

    /// Attaches a multi-clock monitor; each local monitor's clock must
    /// name a domain of `clocks`.
    ///
    /// # Panics
    ///
    /// Panics if any local monitor's clock is not in `clocks` — an
    /// unbound local never advances, which would silently make the
    /// full spec unmatchable.
    pub fn attach_multiclock(
        &mut self,
        clocks: &ClockSet,
        monitor: &'m MultiClockMonitor,
    ) -> usize {
        check_multiclock_clocks(clocks, monitor);
        self.multi.push(monitor.executor());
        self.multi_hits.push(Vec::new());
        self.multi.len() - 1
    }

    /// Feeds one global step to every attached monitor.
    pub fn observe(&mut self, clocks: &ClockSet, step: &GlobalStep) {
        for (i, (clock_idx, exec)) in self.single.iter_mut().enumerate() {
            if let Some(v) = step
                .ticks
                .iter()
                .find(|(c, _)| c.index() == *clock_idx)
                .map(|&(_, v)| v)
            {
                if exec.step(v).matched {
                    self.single_hits[i].push(step.time);
                }
            }
        }
        for (i, exec) in self.multi.iter_mut().enumerate() {
            if exec.step_global(clocks, step) {
                self.multi_hits[i].push(step.time);
            }
        }
    }

    /// Global times at which single-clock monitor `idx` completed.
    pub fn hits(&self, idx: usize) -> &[u64] {
        &self.single_hits[idx]
    }

    /// Global times at which multi-clock monitor `idx` completed.
    pub fn multiclock_hits(&self, idx: usize) -> &[u64] {
        &self.multi_hits[idx]
    }
}

impl Default for OnlineHarness<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// Panics unless every local monitor of `monitor` is clocked by a
/// domain of `clocks`.
fn check_multiclock_clocks(clocks: &ClockSet, monitor: &MultiClockMonitor) {
    for local in monitor.locals() {
        assert!(
            clocks.lookup(local.clock()).is_some(),
            "multi-clock local `{}`'s clock `{}` not in clock set",
            local.name(),
            local.clock()
        );
    }
}

/// Runs monitors off the simulation thread — the decoupled deployment
/// of Fig 4's "simulation environment" box: the simulation thread
/// streams [`HARNESS_CHUNK`]-sized chunks into a `cesc-par` fleet,
/// whose shard planner partitions the monitors across `jobs` worker
/// threads (cost-balanced, scoreboard-coupled members co-located).
/// Each worker owns its shard's complete mutable state, so the monitor
/// hot path runs without cross-shard locking; per-shard results merge
/// at join.
///
/// Returns `(single_hits, multiclock_hits)` in the argument orders, as
/// global times — bit-identical to the step-wise [`OnlineHarness`] on
/// the same simulation, for any `jobs`. `jobs == 0` or `1` runs a
/// single worker.
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, SynthOptions};
/// use cesc_expr::Valuation;
/// use cesc_sim::{run_decoupled_parallel, PeriodicTransactor, Simulation};
/// use cesc_trace::ClockDomain;
///
/// let doc = parse_document(
///     "scesc p on clk { instances { M } events { x } tick { M: x } }",
/// ).unwrap();
/// let m = synthesize(doc.chart("p").unwrap(), &SynthOptions::default()).unwrap();
/// let x = doc.alphabet.lookup("x").unwrap();
///
/// let mut sim = Simulation::new();
/// sim.add_clock(ClockDomain::new("clk", 1, 0));
/// sim.add_transactor(Box::new(PeriodicTransactor::new(
///     "clk", vec![Valuation::of([x])], 1, 0,
/// )));
/// let (hits, _) = run_decoupled_parallel(&mut sim, 6, &[&m], &[], 2);
/// assert_eq!(hits[0], vec![0, 2, 4]);
/// ```
///
/// # Panics
///
/// Panics if a monitor's clock (or a multi-clock local's clock) is not
/// a domain of the simulation.
pub fn run_decoupled_parallel(
    sim: &mut crate::kernel::Simulation,
    global_steps: usize,
    monitors: &[&Monitor],
    multis: &[&MultiClockMonitor],
    jobs: usize,
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let clocks = sim.clocks().clone();
    let mut fleet = cesc_par::Fleet::new();
    for m in monitors {
        assert!(
            clocks.lookup(m.clock()).is_some(),
            "monitor clock `{}` not in clock set",
            m.clock()
        );
        fleet.add(m);
    }
    for mm in multis {
        check_multiclock_clocks(&clocks, mm);
        fleet.add_multiclock(mm);
    }
    let plan = cesc_par::plan_shards(&fleet, jobs);
    let opts = cesc_par::ParOptions::default(); // keep_all_hits: exact logs
    let (report, ()) = cesc_par::run_sharded(&fleet, &plan, Some(&clocks), &opts, |feeder| {
        let mut pending: Vec<GlobalStep> = Vec::with_capacity(HARNESS_CHUNK);
        sim.run_with(global_steps, |_, step| {
            pending.push(step.clone());
            if pending.len() >= HARNESS_CHUNK {
                feeder.feed_global(&pending);
                pending.clear();
            }
        });
        feeder.feed_global(&pending);
    });
    (
        report
            .singles
            .into_iter()
            .map(|r| r.log.all().expect("keep_all_hits").to_vec())
            .collect(),
        report
            .multis
            .into_iter()
            .map(|r| r.log.all().expect("keep_all_hits").to_vec())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{PeriodicTransactor, Simulation};
    use cesc_chart::parse_document;
    use cesc_core::{synthesize, synthesize_multiclock, SynthOptions};
    use cesc_expr::Valuation;
    use cesc_trace::ClockDomain;

    fn handshake_doc() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc hs on clk {
                instances { M, S }
                events { req, ack }
                tick { M: req }
                tick { S: ack }
                cause req -> ack;
            }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn inline_harness_detects_periodic_traffic() {
        let doc = handshake_doc();
        let m = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap();
        let req = doc.alphabet.lookup("req").unwrap();
        let ack = doc.alphabet.lookup("ack").unwrap();

        let mut sim = Simulation::new();
        sim.add_clock(ClockDomain::new("clk", 1, 0));
        sim.add_transactor(Box::new(PeriodicTransactor::new(
            "clk",
            vec![Valuation::of([req]), Valuation::of([ack])],
            1,
            0,
        )));
        let clocks_owned = sim.clocks().clone();
        let mut harness = OnlineHarness::new();
        let idx = harness.attach(&clocks_owned, &m);
        sim.run_with(9, |clocks, step| harness.observe(clocks, step));
        // windows complete at t=1, 4, 7
        assert_eq!(harness.hits(idx), &[1, 4, 7]);
    }

    #[test]
    fn decoupled_harness_agrees_with_inline() {
        let doc = handshake_doc();
        let m = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap();
        let req = doc.alphabet.lookup("req").unwrap();
        let ack = doc.alphabet.lookup("ack").unwrap();

        let build_sim = || {
            let mut sim = Simulation::new();
            sim.add_clock(ClockDomain::new("clk", 1, 0));
            sim.add_transactor(Box::new(PeriodicTransactor::new(
                "clk",
                vec![Valuation::of([req]), Valuation::of([ack])],
                2,
                1,
            )));
            sim
        };

        let mut sim = build_sim();
        let clocks = sim.clocks().clone();
        let mut harness = OnlineHarness::new();
        harness.attach(&clocks, &m);
        sim.run_with(20, |c, s| harness.observe(c, s));
        let inline_hits = harness.hits(0).to_vec();

        let mut sim2 = build_sim();
        let (decoupled_hits, _) = run_decoupled_parallel(&mut sim2, 20, &[&m], &[], 2);
        assert_eq!(decoupled_hits[0], inline_hits);
        assert!(!inline_hits.is_empty());
    }

    /// Two-domain spec with cross causality plus a single-clock chart:
    /// the mixed-plan workloads below pin batch == step-wise.
    fn mixed_plan_doc() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc m1 on clk1 { instances { A } events { go } tick { A: go } }
            scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
            scesc pulse on clk1 { instances { A } events { go } tick { A: go } }
            multiclock pair { charts { m1, m2 } cause go -> done; }
        "#,
        )
        .unwrap()
    }

    #[test]
    #[should_panic(expected = "not in clock set")]
    fn attach_multiclock_rejects_unknown_clock() {
        let doc = mixed_plan_doc();
        let mm = synthesize_multiclock(doc.multiclock_spec("pair").unwrap(), &SynthOptions::default())
            .unwrap();
        let mut clocks = ClockSet::new();
        clocks.add(ClockDomain::new("clk1", 1, 0)); // clk2 missing
        OnlineHarness::new().attach_multiclock(&clocks, &mm);
    }

    /// The decoupled run streams the mixed plan in batched chunks to
    /// any number of shard workers; its hits equal the step-wise
    /// inline harness.
    #[test]
    fn decoupled_batched_plan_agrees_with_stepwise() {
        let doc = mixed_plan_doc();
        let mm = synthesize_multiclock(doc.multiclock_spec("pair").unwrap(), &SynthOptions::default())
            .unwrap();
        let pulse = synthesize(doc.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let go = doc.alphabet.lookup("go").unwrap();
        let done = doc.alphabet.lookup("done").unwrap();

        let build_sim = || {
            let mut sim = Simulation::new();
            sim.add_clock(ClockDomain::new("clk1", 2, 0));
            sim.add_clock(ClockDomain::new("clk2", 3, 1));
            sim.add_transactor(Box::new(PeriodicTransactor::new(
                "clk1",
                vec![Valuation::of([go])],
                3,
                0,
            )));
            sim.add_transactor(Box::new(PeriodicTransactor::new(
                "clk2",
                vec![Valuation::of([done])],
                3,
                1,
            )));
            sim
        };

        let mut sim = build_sim();
        let clocks = sim.clocks().clone();
        let mut online = OnlineHarness::new();
        let oi = online.attach_multiclock(&clocks, &mm);
        online.attach(&clocks, &pulse);
        sim.run_with(50, |c, s| online.observe(c, s));
        assert!(!online.multiclock_hits(oi).is_empty());

        for jobs in [0, 1, 2, 4] {
            let mut sim = build_sim();
            let (single, multi) = run_decoupled_parallel(&mut sim, 50, &[&pulse], &[&mm], jobs);
            assert_eq!(multi[0], online.multiclock_hits(oi), "jobs={jobs}");
            assert_eq!(single[0], online.hits(0), "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "not in clock set")]
    fn decoupled_parallel_rejects_unknown_clock() {
        let doc = mixed_plan_doc();
        let pulse = synthesize(doc.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let mut sim = Simulation::new();
        sim.add_clock(ClockDomain::new("other", 1, 0));
        run_decoupled_parallel(&mut sim, 1, &[&pulse], &[], 2);
    }

    #[test]
    fn multiclock_monitor_in_harness() {
        let doc = parse_document(
            r#"
            scesc m1 on clk1 { instances { A } events { go } tick { A: go } }
            scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
            multiclock pair { charts { m1, m2 } cause go -> done; }
        "#,
        )
        .unwrap();
        let mm = synthesize_multiclock(doc.multiclock_spec("pair").unwrap(), &SynthOptions::default())
            .unwrap();
        let go = doc.alphabet.lookup("go").unwrap();
        let done = doc.alphabet.lookup("done").unwrap();

        let mut sim = Simulation::new();
        sim.add_clock(ClockDomain::new("clk1", 2, 0));
        sim.add_clock(ClockDomain::new("clk2", 3, 1));
        sim.add_transactor(Box::new(PeriodicTransactor::new(
            "clk1",
            vec![Valuation::of([go])],
            9,
            0,
        )));
        sim.add_transactor(Box::new(PeriodicTransactor::new(
            "clk2",
            vec![Valuation::of([done])],
            9,
            0,
        )));
        let clocks = sim.clocks().clone();
        let mut harness = OnlineHarness::new();
        let idx = harness.attach_multiclock(&clocks, &mm);
        sim.run_with(10, |c, s| harness.observe(c, s));
        // go at t0 (clk1 tick0), done at t1 (clk2 tick0) → pair at t1
        assert!(!harness.multiclock_hits(idx).is_empty());
        assert_eq!(harness.multiclock_hits(idx)[0], 1);
    }
}
