//! Metric records and the two output forms: a human-readable table and
//! the final one-line JSON result.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit (`s`, `ms`, `us`, `1/s`, `MB`, `count`, `ratio`, `bytes`).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How the value was obtained: sample count, percentile, source.
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            unit,
            value,
            note: note.into(),
        }
    }

    /// A program-counter count.
    pub fn count(name: &'static str, value: u64, note: impl Into<String>) -> Self {
        Metric::new(name, "count", value as f64, note)
    }
}

/// `num / den`, or `0.0` for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Does `name` match `[A-Za-z0-9_.-]+` and the 64-character limit?
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output mismatches found by the correctness gate.
    pub mismatches: Vec<String>,
    /// Operations attempted (workflow runs and submissions).
    pub attempted: u64,
    /// Operations that failed (workflow errors, journal write errors,
    /// refused or failed submissions).
    pub failed: u64,
    /// The metrics of the JSON result, in report order.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the table only.
    pub also: Vec<Metric>,
}

impl Outcome {
    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Record one attempted operation and whether it failed.
    pub fn attempt(&mut self, failed: bool) {
        self.attempted += 1;
        if failed {
            self.failed += 1;
        }
    }

    /// Did every check pass and every operation succeed?
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// The human-readable report.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        let width = self
            .metrics
            .iter()
            .chain(&self.also)
            .map(|m| m.name.len())
            .max()
            .unwrap_or(0)
            .max("failed_ratio".len());
        for m in self.metrics.iter().chain(&self.also) {
            out.push_str(&format!(
                "  {:<width$}  {:>14.6} {:<6} {}\n",
                m.name, m.value, m.unit, m.note
            ));
        }
        out.push_str(&format!(
            "  {:<width$}  {:>14.6} {:<6} {} failed / {} attempted\n",
            "failed_ratio",
            ratio(self.failed as f64, self.attempted as f64),
            "ratio",
            self.failed,
            self.attempted
        ));
        for m in &self.mismatches {
            out.push_str(&format!("  MISMATCH: {m}\n"));
        }
        out
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// A finite JSON number with all its digits (`{}` on `f64` prints the
/// shortest representation that round-trips).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        assert!(valid_name("bisect.journal.append_us_head"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name("submit p50"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[derive(serde::Deserialize)]
    struct Value {
        value: f64,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: std::collections::BTreeMap<String, Value>,
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.attempt(false);
        o.metrics.push(Metric::new("pass_s", "s", 1.25, "n=1"));
        o.also
            .push(Metric::new("checkpoint_s", "s", 9.0, "table only"));
        let json = o.json();
        let line: Line = serde_json::from_str(&json).expect("valid JSON");
        assert!(line.correct);
        assert_eq!((line.attempted, line.failed), (1, 0));
        assert_eq!(line.metrics.len(), 1);
        assert_eq!(line.metrics["pass_s"].value, 1.25);
        assert_eq!(line.metrics["pass_s"].unit, "s");
        // Exactly four top-level keys, in contract order.
        let keys: Vec<usize> = [
            "\"correct\": ",
            "\"attempted\": ",
            "\"failed\": ",
            "\"metrics\": {",
        ]
        .iter()
        .map(|k| json.find(k).expect("key present"))
        .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{json}");
        assert_eq!(json.matches("\": ").count(), 4 + 3 * line.metrics.len());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.attempt(false);
        o.attempt(true);
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(!o.correct());
        assert!(o.table("t").contains("0.500000 ratio"));
    }
}
