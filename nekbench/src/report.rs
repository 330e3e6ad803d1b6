//! What one benchmark run reports, and how it is printed.

use crate::stats;

/// One named measurement with its unit and the number of samples behind
/// it (1 for a count or a single timing).
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything a workload run produced: metrics, operation counts and the
/// output checks.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Frames or steps attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub failures: Vec<String>,
    /// Free-form `key=value` facts printed with the table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Median of `values` under `name`, with the sample count.
    pub fn push_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.push(name, stats::median(values), unit, values.len());
    }

    /// Note the quartiles and extremes of `values`.
    pub fn note_spread(&mut self, name: &str, values: &[f64]) {
        let q = |p| stats::quantile(values, p).unwrap_or(0.0);
        self.note(format!(
            "{name}: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6} (n={})",
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            values.len()
        ));
    }

    /// The `q`-quantile of `values` under `name`; 0 when there are none.
    pub fn push_quantile(&mut self, name: &str, values: &[f64], q: f64, unit: &'static str) {
        let v = stats::quantile(values, q).unwrap_or(0.0);
        self.push(name, v, unit, values.len());
    }

    /// Record an output check; a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Append the error rate (failed ÷ attempted) as a printed metric.
    pub fn push_error_rate(&mut self) {
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        let n = self.attempted as usize;
        self.push("error_rate", rate, "ratio", n);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Human-readable table: every metric with unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<40} {:>16.6} {:<6} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.push_str(&format!(
            "# attempted={} failed={}\n",
            self.attempted, self.failed
        ));
        for f in &self.failures {
            out.push_str(&format!("# CHECK FAILED: {f}\n"));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the listed
    /// `(name, unit)` metrics, in that order. Every one must have been
    /// pushed, with that unit.
    pub fn result_json(&self, listed: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(listed.len());
        for &(name, unit) in listed {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!("metric {name} is in {}, not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_exactly_the_named_metrics() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.push("a", 1.5, "ms", 3);
        r.push("b", 2.0, "s", 1);
        let line = r.result_json(&[("b", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        assert!(r.result_json(&[("c", "s")]).is_err());
        assert!(r.result_json(&[("b", "ms")]).is_err(), "unit mismatch");
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.check(false, "images");
        assert!(!r.correct());
    }
}
