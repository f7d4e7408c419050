//! Minimal JSON emission helpers shared by the report renderers.
//!
//! [`string`] is the workspace's one JSON string escaper: the
//! `cesc-obs/1` run report and the CLI's `cesc-check` / `cesc-lint`
//! reports all pass every string through it. The workspace has no
//! serde, and the report shapes are small enough that explicit
//! `format!` assembly stays readable and auditable.

/// Escapes `s` as the *contents* of a JSON string literal and wraps
/// it in quotes.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float with enough precision for throughput/utilization
/// fields while staying valid JSON (no NaN/inf — those clamp to 0).
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("n\nr\rt\t"), "\"n\\nr\\rt\\t\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(string(r#"a"b"#), r#""a\"b""#);
        assert_eq!(string(r"a\b"), r#""a\\b""#);
        assert_eq!(string(r#"\""#), r#""\\\"""#);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(string("a\nb"), r#""a\nb""#);
        assert_eq!(string("a\rb"), r#""a\rb""#);
        assert_eq!(string("a\tb"), r#""a\tb""#);
        assert_eq!(string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(string("\u{1f}"), "\"\\u001f\"");
        // 0x20 and above pass through
        assert_eq!(string(" ~"), "\" ~\"");
    }

    #[test]
    fn hostile_chart_name_stays_well_formed() {
        // a chart name with every hazardous class at once
        let name = "ocp\"read\\v1\n\u{2}";
        let rendered = string(name);
        assert_eq!(rendered, "\"ocp\\\"read\\\\v1\\n\\u0002\"");
        // no raw control bytes or unescaped quotes survive inside
        let inner = &rendered[1..rendered.len() - 1];
        assert!(inner.chars().all(|c| (c as u32) >= 0x20));
    }

    #[test]
    fn unicode_passes_through_unescaped() {
        assert_eq!(string("çλ→k"), "\"çλ→k\"");
    }

    #[test]
    fn floats_are_finite_json() {
        assert_eq!(float(0.75), "0.7500");
        assert_eq!(float(f64::NAN), "0.0");
        assert_eq!(float(f64::INFINITY), "0.0");
    }
}
