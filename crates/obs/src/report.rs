//! [`RunReport`]: the rendered end-of-run snapshot.
//!
//! One report carries everything a run recorded — counters, gauges,
//! histograms, pipeline spans, per-shard execution stats — and knows
//! how to print itself as human text (`--stats`) or as one line of
//! the documented [`OBS_JSON_SCHEMA`] JSON (`--stats-json`).

use crate::{json, ShardStats};

/// Schema identifier for the JSON rendering of a [`RunReport`].
///
/// The document is a single JSON object:
///
/// ```json
/// {
///   "schema": "cesc-obs/1",
///   "command": "check",
///   "wall_ms": 41.2708,
///   "counters": { "engine.ticks": 240000, "engine.matches": 4,
///                 "decode.read_ns": 1904113, "decode.fold_ns": 20416532 },
///   "gauges": { "fleet.shards": 4 },
///   "spans": [
///     { "name": "parse", "calls": 1, "ms": 0.1031 },
///     { "name": "execute", "calls": 1, "ms": 39.8210 }
///   ],
///   "histograms": [
///     { "name": "chunk.steps", "count": 30, "sum": 240000,
///       "buckets": [ { "le": 8191, "count": 30 } ] }
///   ],
///   "shards": [
///     { "shard": 0, "members": 3, "steps": 240000, "chunks": 30,
///       "busy_ms": 31.0042, "wait_ms": 8.1001, "utilization": 0.7928 }
///   ]
/// }
/// ```
///
/// Contract:
/// * `schema` is always first and always `"cesc-obs/1"`.
/// * `counters` / `gauges` map metric name → non-negative integer;
///   absent metrics were simply never touched.
/// * `spans` preserve recording order (pipeline order); `ms` values
///   are milliseconds with four decimal places.
/// * Histogram `buckets` list only non-empty buckets, ascending by
///   inclusive upper bound `le` (`2^i - 1`; the terminal bucket's
///   `le` is `u64::MAX`).
/// * `shards` are sorted by shard index; `utilization` is
///   `busy / (busy + wait)` in `[0, 1]`.
/// * New fields may be appended in later schema revisions; existing
///   fields keep their meaning.
pub const OBS_JSON_SCHEMA: &str = "cesc-obs/1";

/// One pipeline stage's accumulated timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Stage name (`parse`, `resolve`, `compile`, `optimize`, `plan`,
    /// `execute`, `cosim`, `fuzz.*`, ...).
    pub name: String,
    /// How many times the stage ran.
    pub calls: u64,
    /// Total nanoseconds across all calls.
    pub total_ns: u64,
}

/// One histogram's rendered state: only non-empty buckets, ascending
/// by inclusive upper bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// `(inclusive upper bound, observations)` for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time snapshot of one run's registry, produced by
/// [`Obs::report`](crate::Obs::report).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The subcommand that produced the run (`check`, `fuzz`, ...).
    pub command: String,
    /// Wall-clock nanoseconds from registry creation to snapshot.
    pub wall_ns: u64,
    /// Counter values in registration order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values in registration order.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots in registration order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Pipeline spans in recording order.
    pub spans: Vec<SpanSnapshot>,
    /// Per-shard execution stats, sorted by shard index.
    pub shards: Vec<ShardStats>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

impl RunReport {
    /// Value of counter `name`, zero if never recorded.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Value of gauge `name`, zero if never recorded.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Total nanoseconds recorded for span `name`, if it ran.
    pub fn span_ns(&self, name: &str) -> Option<u64> {
        self.spans.iter().find(|s| s.name == name).map(|s| s.total_ns)
    }

    /// Wall time in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        ms(self.wall_ns)
    }

    /// Renders the human-readable `--stats` block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== run stats ({}) ==\nwall time      {:.3} ms\n",
            self.command,
            self.wall_ms()
        ));
        if !self.spans.is_empty() {
            out.push_str("pipeline:\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<12} {:>12.3} ms  ({} call{})\n",
                    s.name,
                    ms(s.total_ns),
                    s.calls,
                    if s.calls == 1 { "" } else { "s" }
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let ticks = self.counter(crate::key::ENGINE_TICKS);
            for (n, v) in &self.counters {
                if n == crate::key::ENGINE_SKIP_TICKS && ticks > 0 {
                    let share = *v as f64 * 100.0 / ticks as f64;
                    out.push_str(&format!("  {n:<20} {v}  ({share:.1}% of engine.ticks)\n"));
                } else {
                    out.push_str(&format!("  {n:<20} {v}\n"));
                }
            }
            // engine throughput over the time the shards spent
            // stepping monitors, not the whole run (decode included)
            let busy_ns: u64 = self.shards.iter().map(|s| s.busy_ns).sum();
            if ticks > 0 && busy_ns > 0 {
                out.push_str(&format!(
                    "  {:<20} {:.3}\n",
                    "engine.mticks_per_s",
                    ticks as f64 * 1e3 / busy_ns as f64
                ));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (n, v) in &self.gauges {
                out.push_str(&format!("  {n:<20} {v}\n"));
            }
        }
        for h in &self.histograms {
            let mean = if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 };
            out.push_str(&format!(
                "histogram {}: count {} sum {} mean {:.1}\n",
                h.name, h.count, h.sum, mean
            ));
            for &(le, c) in &h.buckets {
                if le == u64::MAX {
                    out.push_str(&format!("  le max        {c}\n"));
                } else {
                    out.push_str(&format!("  le {le:<11} {c}\n"));
                }
            }
        }
        if !self.shards.is_empty() {
            out.push_str("shards:\n");
            for s in &self.shards {
                out.push_str(&format!(
                    "  #{:<3} members {:<4} steps {:<10} chunks {:<6} busy {:>10.3} ms  wait {:>10.3} ms  util {:>5.1}%\n",
                    s.shard,
                    s.members,
                    s.steps,
                    s.chunks,
                    ms(s.busy_ns),
                    ms(s.wait_ns),
                    s.utilization() * 100.0
                ));
            }
        }
        // the producer beside its consumers: the `decode` span is the
        // read plus the fold, which writes the steps itself
        let blocks = self.counter(crate::key::DECODE_BLOCKS);
        if blocks > 0 {
            out.push_str(&format!(
                "decode:\n  blocks {:<10} read {:>10.3} ms  fold {:>10.3} ms  lines {}  bytes {}\n",
                blocks,
                ms(self.counter(crate::key::DECODE_READ_NS)),
                ms(self.counter(crate::key::DECODE_FOLD_NS)),
                self.counter(crate::key::DECODE_LINES),
                self.counter(crate::key::DECODE_BYTES)
            ));
        }
        out
    }

    /// Renders the [`OBS_JSON_SCHEMA`] JSON document (one line, with
    /// trailing newline).
    pub fn render_json(&self) -> String {
        let map = |entries: &[(String, u64)]| {
            entries
                .iter()
                .map(|(n, v)| format!("{}:{}", json::string(n), v))
                .collect::<Vec<_>>()
                .join(",")
        };
        let spans = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"calls\":{},\"ms\":{}}}",
                    json::string(&s.name),
                    s.calls,
                    json::float(ms(s.total_ns))
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|&(le, c)| format!("{{\"le\":{le},\"count\":{c}}}"))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"name\":{},\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                    json::string(&h.name),
                    h.count,
                    h.sum,
                    buckets
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let shards = self
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"shard\":{},\"members\":{},\"steps\":{},\"chunks\":{},\"busy_ms\":{},\"wait_ms\":{},\"utilization\":{}}}",
                    s.shard,
                    s.members,
                    s.steps,
                    s.chunks,
                    json::float(ms(s.busy_ns)),
                    json::float(ms(s.wait_ns)),
                    json::float(s.utilization())
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":{},\"command\":{},\"wall_ms\":{},\"counters\":{{{}}},\"gauges\":{{{}}},\"spans\":[{}],\"histograms\":[{}],\"shards\":[{}]}}\n",
            json::string(OBS_JSON_SCHEMA),
            json::string(&self.command),
            json::float(self.wall_ms()),
            map(&self.counters),
            map(&self.gauges),
            spans,
            histograms,
            shards,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{key, Obs};
    use std::time::Duration;

    fn sample() -> RunReport {
        let obs = Obs::enabled();
        obs.counter(key::ENGINE_TICKS).add(240_000);
        obs.counter(key::ENGINE_MATCHES).add(4);
        obs.gauge("fleet.shards").set(2);
        obs.record_span("parse", Duration::from_micros(100));
        obs.record_span("execute", Duration::from_millis(4));
        let h = obs.histogram("chunk.steps");
        h.record(8000);
        h.record(8000);
        obs.record_shard(ShardStats {
            shard: 1,
            members: 1,
            steps: 120_000,
            chunks: 15,
            busy_ns: 2_000_000,
            wait_ns: 1_000_000,
        });
        obs.record_shard(ShardStats {
            shard: 0,
            members: 2,
            steps: 120_000,
            chunks: 15,
            busy_ns: 3_000_000,
            wait_ns: 100_000,
        });
        obs.report("check")
    }

    #[test]
    fn json_shape_and_order() {
        let r = sample();
        let json = r.render_json();
        assert!(json.starts_with("{\"schema\":\"cesc-obs/1\",\"command\":\"check\""), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
        assert!(json.contains("\"engine.ticks\":240000"), "{json}");
        assert!(json.contains("\"name\":\"parse\",\"calls\":1,\"ms\":0.1000"), "{json}");
        assert!(json.contains("\"chunk.steps\",\"count\":2,\"sum\":16000"), "{json}");
        assert!(json.contains("\"le\":8191,\"count\":2"), "{json}");
        // shards sorted by index
        let s0 = json.find("\"shard\":0").expect("shard 0");
        let s1 = json.find("\"shard\":1").expect("shard 1");
        assert!(s0 < s1, "{json}");
        assert!(json.contains("\"utilization\":0.6667"), "{json}");
        // exactly one line of output
        assert_eq!(json.matches('\n').count(), 1);
    }

    #[test]
    fn text_lists_everything() {
        let r = sample();
        let text = r.render_text();
        assert!(text.contains("== run stats (check) =="), "{text}");
        assert!(text.contains("parse"), "{text}");
        assert!(text.contains("engine.ticks"), "{text}");
        assert!(text.contains("engine.mticks_per_s"), "{text}");
        assert!(text.contains("histogram chunk.steps: count 2 sum 16000 mean 8000.0"), "{text}");
        assert!(text.contains("#0"), "{text}");
        assert!(text.contains("util"), "{text}");
    }

    #[test]
    fn engine_throughput_divides_by_shard_busy_time() {
        // 240k ticks over 2 ms + 3 ms of shard busy time
        let text = sample().render_text();
        assert!(text.contains("  engine.mticks_per_s  48.000\n"), "{text}");

        // no shard ran: no throughput line, however long the run was
        let obs = Obs::enabled();
        obs.counter(key::ENGINE_TICKS).add(240_000);
        obs.record_span("execute", Duration::from_millis(4));
        let text = obs.report("check").render_text();
        assert!(text.contains("engine.ticks"), "{text}");
        assert!(!text.contains("engine.mticks_per_s"), "{text}");
    }

    #[test]
    fn skip_ticks_print_their_share_of_engine_ticks() {
        let obs = Obs::enabled();
        obs.counter(key::ENGINE_TICKS).add(240_000);
        obs.counter(key::ENGINE_SKIP_TICKS).add(180_000);
        let text = obs.report("check").render_text();
        // right under `engine.ticks`, in registration order
        let want = "240000\n  engine.skip_ticks    180000  (75.0% of engine.ticks)\n";
        assert!(text.contains(want), "{text}");
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.counter(key::ENGINE_TICKS), 240_000);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("fleet.shards"), 2);
        assert_eq!(r.span_ns("execute"), Some(4_000_000));
        assert_eq!(r.span_ns("cosim"), None);
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let r = Obs::disabled().report("noop");
        let json = r.render_json();
        assert!(json.contains("\"counters\":{}"), "{json}");
        assert!(json.contains("\"spans\":[]"), "{json}");
        let text = r.render_text();
        assert!(text.contains("== run stats (noop) =="), "{text}");
    }
}
