//! Order statistics and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The JSON object the benchmark prints as its last line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value is not JSON; report it as null so the
        // result line still parses and the consumer sees the gap.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}
