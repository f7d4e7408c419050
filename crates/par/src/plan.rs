//! The cost-model-driven shard planner.
//!
//! Partitioning a fleet across workers is a scheduling problem: every
//! member costs a different amount per tick (a 3-state pulse monitor
//! is far cheaper than the OCP burst-read scoreboard program), and a
//! bad split leaves one worker the straggler every chunk. The planner
//! reuses the compiled engines' footprint analysis
//! ([`cesc_core::CompiledMonitor::step_cost`] / scoreboard `touched_symbols`
//! masks) to
//!
//! * **balance** — members are placed greedily in descending cost
//!   order onto the least-loaded shard (LPT scheduling, within 4/3 of
//!   the optimal makespan);
//! * **co-locate** — among shards whose load is close enough that the
//!   choice doesn't matter for balance, a shard already holding a
//!   member with an *overlapping scoreboard footprint* wins, keeping
//!   scoreboard-coupled monitors (e.g. the locals of one multi-clock
//!   spec travel together anyway, but also independent charts over the
//!   same protocol events) on one core's cache.
//!
//! Plans are deterministic: same fleet, same `jobs`, same plan.

use std::fmt;

use crate::fleet::Fleet;

/// One fleet member, by kind and per-kind index — what a shard holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetItem {
    /// `Fleet::add`-ed single-clock monitor.
    Single(usize),
    /// `Fleet::add_multiclock`-ed multi-clock monitor.
    Multi(usize),
    /// `Fleet::add_assert`-ed `implies(...)` assertion.
    Assert(usize),
}

/// A partition of a [`Fleet`] into shards, one worker thread each.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: Vec<Vec<FleetItem>>,
    loads: Vec<u64>,
}

impl ShardPlan {
    /// Number of shards (= worker threads).
    pub fn jobs(&self) -> usize {
        self.shards.len()
    }

    /// The members assigned to each shard.
    pub fn shards(&self) -> &[Vec<FleetItem>] {
        &self.shards
    }

    /// The modelled per-tick cost of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_cost(&self, i: usize) -> u64 {
        self.loads[i]
    }

    /// Ratio of the heaviest shard's modelled load to the ideal
    /// (total/jobs) — 1.0 is a perfect split. Empty fleets report 1.0.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.loads.iter().sum();
        let max = self.loads.iter().copied().max().unwrap_or(0);
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / self.shards.len() as f64;
        max as f64 / ideal
    }
}

impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard plan: {} shard(s), imbalance {:.2}",
            self.jobs(),
            self.imbalance()
        )?;
        for (i, (shard, load)) in self.shards.iter().zip(&self.loads).enumerate() {
            write!(f, "  shard {i} (cost {load}):")?;
            for item in shard {
                match item {
                    FleetItem::Single(k) => write!(f, " single#{k}")?,
                    FleetItem::Multi(k) => write!(f, " multi#{k}")?,
                    FleetItem::Assert(k) => write!(f, " assert#{k}")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A member with its modelled cost and scoreboard footprint.
struct CostedItem {
    item: FleetItem,
    cost: u64,
    footprint: u128,
}

fn cost_items(fleet: &Fleet) -> Vec<CostedItem> {
    let mut items = Vec::with_capacity(fleet.len());
    for (i, m) in fleet.singles.iter().enumerate() {
        items.push(CostedItem {
            item: FleetItem::Single(i),
            cost: m.step_cost(),
            footprint: m.touched_symbols(),
        });
    }
    for (i, m) in fleet.multis.iter().enumerate() {
        items.push(CostedItem {
            item: FleetItem::Multi(i),
            cost: m.step_cost(),
            footprint: m.touched_symbols(),
        });
    }
    for (i, a) in fleet.asserts.iter().enumerate() {
        // the compiled assertion runs its antecedent table every tick
        // and the consequent table per open obligation; its pinned
        // tables touch no scoreboard, so it has no footprint
        items.push(CostedItem {
            item: FleetItem::Assert(i),
            cost: a.compiled.step_cost(),
            footprint: 0,
        });
    }
    items
}

/// Plans `fleet` onto `jobs` shards — clamped to `1..=fleet.len()`
/// (one worker minimum; a shard per member maximum, since an empty
/// shard is a thread that only costs broadcast traffic). `--jobs
/// 10000` on a two-monitor fleet therefore runs two workers, not ten
/// thousand.
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, SynthOptions};
/// use cesc_par::{plan_shards, Fleet};
///
/// let doc = parse_document(
///     "scesc a on clk { instances { M } events { x } tick { M: x } }\
///      scesc b on clk { instances { M } events { x } tick { M: x } tick { M: x } }",
/// ).unwrap();
/// let mut fleet = Fleet::new();
/// for chart in &doc.charts {
///     fleet.add(&synthesize(chart, &SynthOptions::default()).unwrap());
/// }
/// let plan = plan_shards(&fleet, 2);
/// assert_eq!(plan.jobs(), 2);
/// assert_eq!(plan.shards().iter().map(Vec::len).sum::<usize>(), 2);
/// ```
pub fn plan_shards(fleet: &Fleet, jobs: usize) -> ShardPlan {
    let jobs = jobs.clamp(1, fleet.len().max(1));
    let mut items = cost_items(fleet);
    // LPT: heaviest first; ties broken by insertion order for
    // determinism (sort is stable)
    items.sort_by_key(|item| std::cmp::Reverse(item.cost));

    let mut shards: Vec<Vec<FleetItem>> = vec![Vec::new(); jobs];
    let mut loads = vec![0u64; jobs];
    let mut footprints = vec![0u128; jobs];
    for it in items {
        let min_load = loads.iter().copied().min().expect("jobs >= 1");
        // shards still within one item-cost of the emptiest are
        // equally good for balance; among them, prefer scoreboard
        // affinity, then the emptiest, then the lowest index
        let slack = min_load + it.cost;
        let chosen = (0..jobs)
            .filter(|&s| loads[s] <= slack)
            .min_by_key(|&s| {
                let affine = it.footprint != 0 && footprints[s] & it.footprint != 0;
                (!affine, loads[s], s)
            })
            .expect("at least the emptiest shard qualifies");
        shards[chosen].push(it.item);
        loads[chosen] += it.cost;
        footprints[chosen] |= it.footprint;
    }
    ShardPlan { shards, loads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesc_chart::parse_document;
    use cesc_core::{synthesize, synthesize_multiclock, SynthOptions};

    fn fleet_of(n: usize) -> Fleet {
        let mut fleet = Fleet::new();
        for k in 0..n {
            // charts of varying depth → varying step cost
            let ticks: String = (0..=k % 4).map(|_| "tick { M: x }".to_owned()).collect();
            let src = format!("scesc c{k} on clk {{ instances {{ M }} events {{ x }} {ticks} }}");
            let doc = parse_document(&src).unwrap();
            fleet.add(&synthesize(&doc.charts[0], &SynthOptions::default()).unwrap());
        }
        fleet
    }

    #[test]
    fn every_member_lands_on_exactly_one_shard() {
        let fleet = fleet_of(13);
        for jobs in 1..=8 {
            let plan = plan_shards(&fleet, jobs);
            assert_eq!(plan.jobs(), jobs);
            let mut seen = vec![0usize; fleet.single_len()];
            for shard in plan.shards() {
                for item in shard {
                    match item {
                        FleetItem::Single(i) => seen[*i] += 1,
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "jobs={jobs}: {seen:?}");
        }
    }

    #[test]
    fn lpt_balances_within_bound() {
        let fleet = fleet_of(16);
        let plan = plan_shards(&fleet, 4);
        // LPT guarantees max load ≤ 4/3 · optimal ≤ 4/3 · (total/jobs
        // rounded up to the largest item); sanity-check a loose bound
        assert!(plan.imbalance() < 2.0, "{plan}");
        assert!(plan.shard_cost(0) > 0);
    }

    #[test]
    fn plans_are_deterministic() {
        let fleet = fleet_of(9);
        let a = plan_shards(&fleet, 3);
        let b = plan_shards(&fleet, 3);
        assert_eq!(a.shards(), b.shards());
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        let fleet = fleet_of(3);
        let plan = plan_shards(&fleet, 0);
        assert_eq!(plan.jobs(), 1);
        assert_eq!(plan.shards()[0].len(), 3);
    }

    #[test]
    fn coupled_charts_co_locate_when_balance_permits() {
        // two pairs of scoreboard-coupled charts (same cause events)
        // plus independent fillers: each pair should share a shard
        let src = r#"
            scesc p1a on clk { instances { A, B } events { q, r } tick { A: q } tick { B: r } cause q -> r; }
            scesc p1b on clk { instances { A, B } events { q, r } tick { A: q } tick { B: r } cause q -> r; }
            scesc p2a on clk { instances { A, B } events { s, t } tick { A: s } tick { B: t } cause s -> t; }
            scesc p2b on clk { instances { A, B } events { s, t } tick { A: s } tick { B: t } cause s -> t; }
        "#;
        let doc = parse_document(src).unwrap();
        let mut fleet = Fleet::new();
        for chart in &doc.charts {
            fleet.add(&synthesize(chart, &SynthOptions::default()).unwrap());
        }
        let plan = plan_shards(&fleet, 2);
        let shard_of = |idx: usize| {
            plan.shards()
                .iter()
                .position(|s| s.contains(&FleetItem::Single(idx)))
                .unwrap()
        };
        assert_eq!(shard_of(0), shard_of(1), "{plan}");
        assert_eq!(shard_of(2), shard_of(3), "{plan}");
        assert_ne!(shard_of(0), shard_of(2), "balance still splits the pairs: {plan}");
    }

    #[test]
    fn multiclock_and_assert_items_are_costed() {
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
        let m1 = synthesize(doc.chart("m1").unwrap(), &SynthOptions::default()).unwrap();
        let m2 = synthesize(doc.chart("m2").unwrap(), &SynthOptions::default()).unwrap();
        let mut fleet = Fleet::new();
        fleet.add_multiclock(&mm);
        fleet.add_assert(crate::AssertSpec::new("gate", "clk1", m1, m2));
        let plan = plan_shards(&fleet, 2);
        let total: u64 = (0..2).map(|s| plan.shard_cost(s)).sum();
        assert!(total > 0);
        let shown = plan.to_string();
        assert!(shown.contains("multi#0"), "{shown}");
        assert!(shown.contains("assert#0"), "{shown}");
    }
}
