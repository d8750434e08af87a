//! What a run prints: metrics with units, the correctness gate's verdict,
//! and the one-line JSON result.

use std::fmt::Write;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, e.g. `us`, `s`, `1/s`.
    pub unit: &'static str,
}

/// Collects correctness violations. A run with any violation prints
/// `"correct": false` and exits non-zero.
#[derive(Default, Debug)]
pub struct Gate {
    /// Number of individual checks made.
    pub checks: u64,
    /// Number of checks that failed.
    pub failures: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Gate {
    /// Records one check; `what` describes the failure if `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failures += 1;
        if self.messages.len() < 16 {
            self.messages.push(what);
        }
    }

    /// Folds another gate's results into this one.
    pub fn merge(&mut self, other: Gate) {
        self.checks += other.checks;
        self.failures += other.failures;
        for m in other.messages {
            if self.messages.len() < 16 {
                self.messages.push(m);
            }
        }
    }

    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (host facts, sample counts, spreads).
    pub notes: Vec<String>,
    /// Operations attempted (queries, batch queries, service requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The correctness gate.
    pub gate: Gate,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether the run is correct: the gate passed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.gate.passed() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable lines: notes, then one `name value unit` line
    /// per metric, then the gate's verdict.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "# gate: {} checks, {} failed",
            self.gate.checks, self.gate.failures
        );
        for m in &self.gate.messages {
            let _ = writeln!(out, "# gate failure: {m}");
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value": v, "unit": u}` with every digit
    /// of `v`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
