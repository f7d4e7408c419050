//! # cesc-par — sharded parallel monitor-fleet execution
//!
//! The paper deploys synthesized monitors as a *fleet*: one observer
//! per scenario, all watching the same simulation (Fig 4). The batch
//! engine in `cesc-core` already drives a whole fleet over one decoded
//! stream — on a single core. This crate shards that fleet across
//! worker threads:
//!
//! * [`Fleet`] — the compiled plan: single-clock monitors
//!   ([`cesc_core::CompiledMonitor`]), multi-clock monitors
//!   ([`cesc_core::CompiledMultiClock`]) and `implies(...)` assertion
//!   checkers ([`AssertSpec`]);
//! * [`plan_shards`] — the cost-model-driven planner: LPT balancing on
//!   the compiled tables' footprint-derived
//!   [`step_cost`](cesc_core::CompiledMonitor::step_cost), with
//!   scoreboard-footprint affinity co-locating coupled monitors;
//! * [`run_sharded`] — the executor: one worker per shard, decoded
//!   [`GlobalStep`](cesc_trace::GlobalStep) chunks (the one chunk
//!   type, fed through [`FleetFeeder::feed_global`]) broadcast as
//!   reference-counted messages over bounded channels, zero
//!   cross-shard locking on the hot path, per-shard results merged at
//!   join into a [`FleetReport`];
//! * [`MatchLog`] — bounded match tallies, so a bulk-traffic run's
//!   residency stays constant unless the caller asks for every hit.
//!
//! Verdicts are **bit-identical to the serial engine**: for every
//! member, any shard count and any chunking produce exactly the
//! hits/underflows of [`cesc_core::MonitorBank::feed_global`] — and of
//! [`cesc_core::MonitorBank::feed`] over a one-clock trace lifted onto
//! a period-1 clock — pinned by the `batch_equivalence` property suite
//! at the workspace root.
//!
//! # Quickstart
//!
//! A single-clock trace becomes a global run on one period-1 clock
//! ([`ClockSet::single`](cesc_trace::ClockSet::single)), so global
//! times are tick indices:
//!
//! ```
//! use cesc_chart::parse_document;
//! use cesc_core::{synthesize, SynthOptions};
//! use cesc_expr::Valuation;
//! use cesc_par::{plan_shards, scan_sharded_global, Fleet, ParOptions};
//! use cesc_trace::{ClockSet, GlobalRun, Trace};
//!
//! let doc = parse_document(
//!     "scesc hs on clk { instances { M, S } events { req, ack } \
//!      tick { M: req } tick { S: ack } cause req -> ack; }",
//! ).unwrap();
//! let mut fleet = Fleet::new();
//! let hs = fleet.add(&synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap());
//!
//! let req = doc.alphabet.lookup("req").unwrap();
//! let ack = doc.alphabet.lookup("ack").unwrap();
//! let trace = Trace::from_elements([Valuation::of([req]), Valuation::of([ack])]);
//! let (clocks, clk) = ClockSet::single();
//! let run = GlobalRun::interleave(&clocks, &[(clk, trace)]).unwrap();
//!
//! let plan = plan_shards(&fleet, 4);
//! let report =
//!     scan_sharded_global(&fleet, &plan, &clocks, &ParOptions::default(), run.as_slice(), 1024);
//! assert_eq!(report.singles[hs].log.all(), Some(&[1][..]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fleet;
mod plan;
mod tally;

pub use fleet::{
    run_sharded, scan_sharded_global, AssertReport, AssertSpec, Fleet, FleetFeeder, FleetReport,
    MultiReport, ParOptions, SingleReport, ASSERT_VIOLATION_KEEP, CHANNEL_DEPTH,
};
pub use plan::{plan_shards, FleetItem, ShardPlan};
pub use tally::MatchLog;

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_chart::parse_document;
    use cesc_core::{
        synthesize, synthesize_multiclock, MonitorBank, SynthOptions, Verdict,
    };
    use cesc_expr::Valuation;
    use cesc_trace::{ClockDomain, ClockSet, GlobalRun, Trace};

    const PLAN_SRC: &str = r#"
        scesc hs on clk1 {
            instances { M, S }
            events { req, ack }
            tick { M: req }
            tick { S: ack }
            cause req -> ack;
        }
        scesc pulse on clk1 { instances { M } events { req } tick { M: req } }
        scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
        multiclock pair { charts { hs, m2 } cause req -> done; }
    "#;

    fn doc() -> cesc_chart::Document {
        parse_document(PLAN_SRC).unwrap()
    }

    fn ev(d: &cesc_chart::Document, n: &str) -> cesc_expr::SymbolId {
        d.alphabet.lookup(n).unwrap()
    }

    /// `trace` on each of `names`, every clock of period 1 and phase 0:
    /// each member sees the whole trace and hit times are tick indices.
    fn on_clocks(names: &[&str], trace: &[Valuation]) -> (ClockSet, GlobalRun) {
        let mut clocks = ClockSet::new();
        let lifted: Vec<_> = names
            .iter()
            .map(|n| {
                let id = clocks.add(ClockDomain::new(n, 1, 0));
                (id, Trace::from_elements(trace.to_vec()))
            })
            .collect();
        let run = GlobalRun::interleave(&clocks, &lifted).unwrap();
        (clocks, run)
    }

    #[test]
    fn sharded_one_clock_feed_matches_serial_bank() {
        let d = doc();
        let hs = synthesize(d.chart("hs").unwrap(), &SynthOptions::default()).unwrap();
        let pulse = synthesize(d.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let trace: Vec<Valuation> = (0..500)
            .map(|k| {
                if k % 3 == 0 {
                    Valuation::of([ev(&d, "req")])
                } else {
                    Valuation::of([ev(&d, "ack")])
                }
            })
            .collect();

        let mut bank = MonitorBank::new();
        bank.add(&hs);
        bank.add(&pulse);
        bank.feed(&trace);
        let (clocks, run) = on_clocks(&["clk1"], &trace);

        for jobs in [1, 2, 3, 5] {
            let mut fleet = Fleet::new();
            fleet.add(&hs);
            fleet.add(&pulse);
            let plan = plan_shards(&fleet, jobs);
            let report = scan_sharded_global(
                &fleet,
                &plan,
                &clocks,
                &ParOptions::default(),
                run.as_slice(),
                64,
            );
            assert_eq!(report.singles[0].log.all(), Some(bank.hits(0)), "jobs={jobs}");
            assert_eq!(report.singles[1].log.all(), Some(bank.hits(1)), "jobs={jobs}");
            assert_eq!(report.singles[0].ticks, 500);
        }
    }

    #[test]
    fn sharded_global_feed_matches_serial_bank() {
        let d = doc();
        let pulse = synthesize(d.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let mm = synthesize_multiclock(d.multiclock_spec("pair").unwrap(), &SynthOptions::default())
            .unwrap();
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
        let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
        let n = 200;
        let run = GlobalRun::interleave(
            &clocks,
            &[
                (c1, Trace::from_elements(vec![Valuation::of([ev(&d, "req")]); n])),
                (c2, Trace::from_elements(vec![Valuation::of([ev(&d, "done")]); n])),
            ],
        )
        .unwrap();

        let mut bank = MonitorBank::new();
        let bs = bank.add(&pulse);
        let bm = bank.add_multiclock(&mm);
        bank.feed_global(&clocks, run.as_slice());

        for jobs in [1, 2, 4] {
            let mut fleet = Fleet::new();
            let fs = fleet.add(&pulse);
            let fm = fleet.add_multiclock(&mm);
            let plan = plan_shards(&fleet, jobs);
            let report = scan_sharded_global(
                &fleet,
                &plan,
                &clocks,
                &ParOptions::default(),
                run.as_slice(),
                33,
            );
            assert_eq!(report.singles[fs].log.all(), Some(bank.hits(bs)), "jobs={jobs}");
            assert_eq!(
                report.multis[fm].log.all(),
                Some(bank.multiclock_hits(bm)),
                "jobs={jobs}"
            );
            assert_eq!(report.multis[fm].underflows, bank.multiclock_underflows(bm));
        }
    }

    #[test]
    fn assert_members_pass_and_fail() {
        let d = parse_document(
            r#"
            scesc a on clk { instances { M } events { r } tick { M: r } }
            scesc b on clk { instances { M } events { s } tick { M: s } }
        "#,
        )
        .unwrap();
        let ante = synthesize(d.chart("a").unwrap(), &SynthOptions::default()).unwrap();
        let cons = synthesize(d.chart("b").unwrap(), &SynthOptions::default()).unwrap();
        let r = ev(&d, "r");
        let s = ev(&d, "s");

        for (trace, expect) in [
            (vec![Valuation::of([r]), Valuation::of([s])], Verdict::Passed),
            (vec![Valuation::of([r]), Valuation::empty()], Verdict::Failed),
        ] {
            let mut fleet = Fleet::new();
            let ai = fleet.add_assert(AssertSpec::new("gate", "clk", ante.clone(), cons.clone()));
            let plan = plan_shards(&fleet, 2);
            let (clocks, run) = on_clocks(&["clk"], &trace);
            let report = scan_sharded_global(
                &fleet,
                &plan,
                &clocks,
                &ParOptions::default(),
                run.as_slice(),
                1,
            );
            let a = &report.asserts[ai];
            assert_eq!(a.verdict, expect, "{a:?}");
            assert_eq!(a.name, "gate");
            assert_eq!(a.ticks, 2);
            assert_eq!(report.any_failed(), expect == Verdict::Failed);
            if expect == Verdict::Failed {
                assert_eq!(a.violations.len(), 1);
            } else {
                assert_eq!(a.fulfilled, 1);
            }
        }
    }

    #[test]
    fn assert_members_follow_their_clock_in_global_feeds() {
        let d = doc();
        let ante = synthesize(d.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let cons = synthesize(d.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
        let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
        let run = GlobalRun::interleave(
            &clocks,
            &[
                (c1, Trace::from_elements(vec![Valuation::of([ev(&d, "req")]); 4])),
                (c2, Trace::from_elements(vec![Valuation::empty(); 4])),
            ],
        )
        .unwrap();

        let mut fleet = Fleet::new();
        // bound to clk1: sees the 4 req ticks, every obligation is
        // fulfilled by the immediately following antecedent completion
        let on1 = fleet.add_assert(AssertSpec::new("on1", "clk1", ante.clone(), cons.clone()));
        // bound to a clock absent from the set: sees nothing
        let off = fleet.add_assert(AssertSpec::new("off", "nope", ante, cons));
        let plan = plan_shards(&fleet, 2);
        let report =
            scan_sharded_global(&fleet, &plan, &clocks, &ParOptions::default(), run.as_slice(), 3);
        assert_eq!(report.asserts[on1].ticks, 4);
        assert!(report.asserts[on1].fulfilled >= 1);
        assert_eq!(report.asserts[off].ticks, 0);
        assert_eq!(report.asserts[off].verdict, Verdict::Idle);
    }

    #[test]
    fn violating_bulk_traffic_keeps_bounded_violation_records() {
        // antecedent fires every tick, the consequent never follows:
        // one violation per tick. The report must carry the exact
        // count but retain only the first ASSERT_VIOLATION_KEEP
        // records, so shard residency stays bounded.
        let d = parse_document(
            r#"
            scesc a on clk { instances { M } events { r } tick { M: r } }
            scesc b on clk { instances { M } events { s } tick { M: s } }
        "#,
        )
        .unwrap();
        let ante = synthesize(d.chart("a").unwrap(), &SynthOptions::default()).unwrap();
        let cons = synthesize(d.chart("b").unwrap(), &SynthOptions::default()).unwrap();
        let r = ev(&d, "r");
        let n = 10_000usize;
        let trace = vec![Valuation::of([r]); n];

        let mut fleet = Fleet::new();
        let ai = fleet.add_assert(AssertSpec::new("gate", "clk", ante, cons));
        let plan = plan_shards(&fleet, 2);
        let (clocks, run) = on_clocks(&["clk"], &trace);
        let report = scan_sharded_global(
            &fleet,
            &plan,
            &clocks,
            &ParOptions::default(),
            run.as_slice(),
            128,
        );
        let a = &report.asserts[ai];
        assert_eq!(a.verdict, Verdict::Failed);
        // every tick after the first spawns-and-breaks one obligation
        assert_eq!(a.violation_count, n as u64 - 1);
        assert_eq!(a.violations.len(), ASSERT_VIOLATION_KEEP);
        assert_eq!(a.violations[0].antecedent_at, 0);
        assert!(report.any_failed());
    }

    #[test]
    fn bounded_logs_summarise_without_retaining() {
        let d = doc();
        let pulse = synthesize(d.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let trace = vec![Valuation::of([ev(&d, "req")]); 10_000];
        let mut fleet = Fleet::new();
        fleet.add(&pulse);
        let plan = plan_shards(&fleet, 2);
        let opts = ParOptions {
            keep_all_hits: false,
            ..Default::default()
        };
        let (clocks, run) = on_clocks(&["clk1"], &trace);
        let report = scan_sharded_global(&fleet, &plan, &clocks, &opts, run.as_slice(), 256);
        let log = &report.singles[0].log;
        assert_eq!(log.count(), 10_000);
        assert!(log.all().is_none());
        assert_eq!(log.first(), &[0, 1, 2, 3, 4]);
        assert!(log.render().contains("more"));
    }

    #[test]
    fn oversubscribed_jobs_clamp_to_member_count() {
        let d = doc();
        let pulse = synthesize(d.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let mut fleet = Fleet::new();
        fleet.add(&pulse);
        assert_eq!(fleet.len(), 1);
        assert!(!fleet.is_empty());
        // an empty shard is a worker thread that only costs broadcast
        // traffic — requesting 8 jobs for 1 member plans 1 shard
        let plan = plan_shards(&fleet, 8);
        assert_eq!(plan.jobs(), 1);
        let (clocks, run) = on_clocks(&["clk1"], &[Valuation::of([ev(&d, "req")])]);
        let report = scan_sharded_global(
            &fleet,
            &plan,
            &clocks,
            &ParOptions::default(),
            run.as_slice(),
            16,
        );
        assert_eq!(report.singles[0].log.count(), 1);
    }

    #[test]
    fn direct_single_shard_path_matches_and_records_stats() {
        // jobs=1 plans one shard, which takes the inline no-broadcast
        // path — same verdicts, and the observed run still records one
        // ShardStats entry (wait_ns structurally zero: no queue)
        let d = doc();
        let pulse = synthesize(d.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let trace = vec![Valuation::of([ev(&d, "req")]); 500];
        let mut fleet = Fleet::new();
        fleet.add(&pulse);
        let plan = plan_shards(&fleet, 1);
        assert_eq!(plan.jobs(), 1);
        let obs = cesc_obs::Obs::enabled();
        let opts = ParOptions {
            obs: obs.clone(),
            ..Default::default()
        };
        let (clocks, run) = on_clocks(&["clk1"], &trace);
        let report = scan_sharded_global(&fleet, &plan, &clocks, &opts, run.as_slice(), 64);
        assert_eq!(report.singles[0].log.count(), 500);
        let run = obs.report("check");
        assert_eq!(run.counter(cesc_obs::key::FLEET_STEPS), 500);
        assert_eq!(run.counter(cesc_obs::key::ENGINE_TICKS), 500);
        assert_eq!(run.shards.len(), 1);
        assert_eq!(run.shards[0].steps, 500);
        assert_eq!(run.shards[0].wait_ns, 0);
    }

    #[test]
    fn feeder_drive_result_is_returned() {
        let fleet = Fleet::new();
        let plan = plan_shards(&fleet, 2);
        let (report, answer) =
            run_sharded(&fleet, &plan, None, &ParOptions::default(), |_feeder| 42);
        assert_eq!(answer, 42);
        assert!(report.singles.is_empty());
        assert!(!report.any_failed());
    }
}
