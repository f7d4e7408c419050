//! The JSON composition helpers behind `cesc check --json`.
//!
//! `cesc` emits its machine-readable report by hand (no serde in the
//! offline workspace), so every string that reaches the output — chart
//! names in particular — must pass through exactly one escaping
//! routine: `cesc_obs::json::string`, re-exported here. The rest of
//! this module is the small composition helpers the report layout
//! needs; `cli::render_json` assembles the document from these pieces
//! and nothing else writes JSON.

use cesc_par::MatchLog;

pub(crate) use cesc_obs::json::string;

/// Renders a `u64` array.
pub(crate) fn times(ts: &[u64]) -> String {
    let inner: Vec<String> = ts.iter().map(u64::to_string).collect();
    format!("[{}]", inner.join(","))
}

/// Renders a string array (each element escaped).
pub(crate) fn strings(items: &[&str]) -> String {
    let inner: Vec<String> = items.iter().map(|c| string(c)).collect();
    format!("[{}]", inner.join(","))
}

/// Renders a `(before, after)` pair as a two-element array.
pub(crate) fn pair(p: (usize, usize)) -> String {
    format!("[{},{}]", p.0, p.1)
}

/// Renders the match-accounting fields of one target: `matches`,
/// `first`, `last`, plus `all` when the log kept every hit.
pub(crate) fn log(log: &MatchLog) -> String {
    let mut fields = format!(
        "\"matches\":{},\"first\":{},\"last\":{}",
        log.count(),
        times(log.first()),
        times(&log.last())
    );
    if let Some(all) = log.all() {
        fields.push_str(&format!(",\"all\":{}", times(all)));
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_render_flat() {
        assert_eq!(times(&[1, 2, 30]), "[1,2,30]");
        assert_eq!(times(&[]), "[]");
        assert_eq!(strings(&["clk", "a\"b"]), "[\"clk\",\"a\\\"b\"]");
        assert_eq!(pair((14, 9)), "[14,9]");
    }
}
