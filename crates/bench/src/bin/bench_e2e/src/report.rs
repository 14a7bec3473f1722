//! The result line and the per-layer sample store.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use serde_json::Value;
use std::time::Instant;

/// The outcome of one run: what the last stdout line reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric name, value)`; units come from the spec tables.
    pub metrics: Vec<(&'static str, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .expect("every reported metric is in a spec table")
}

impl Report {
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, v)| {
                (
                    name.to_string(),
                    serde_json::json!({ "value": v, "unit": unit_of(name) }),
                )
            })
            .collect();
        let v = serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&v).expect("JSON renders")
    }
}

/// Per-layer samples and derived values of a traced run. Layers a
/// workload never touches report 0.
#[derive(Debug, Default)]
pub struct Layers {
    samples: Vec<(&'static str, Vec<f64>)>,
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Records one sample of a timed layer.
    pub fn push(&mut self, name: &'static str, v: f64) {
        match self.samples.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => s.push(v),
            None => self.samples.push((name, vec![v])),
        }
    }

    /// Sets a derived (single-valued) metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, v));
    }

    /// Runs `f` inside a trace span named after the metric and records its
    /// wall time, scaled by `per_sec` (1e6 for `_us`, 1e3 for `_ms`).
    pub fn time<T>(&mut self, name: &'static str, per_sec: f64, f: impl FnOnce() -> T) -> T {
        let _span = halk_obs::span!(name);
        let t = Instant::now();
        let out = f();
        self.push(name, t.elapsed().as_secs_f64() * per_sec);
        out
    }

    pub fn summary(&self, name: &str) -> Summary {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| Summary::of(s))
            .unwrap_or_default()
    }

    /// A metric's reported value: the median of its samples, or its
    /// derived value, or 0 when the workload never reached the layer.
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| self.summary(name).median)
    }

    /// Every per-layer metric, in table order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER.iter().map(|&(n, _)| (n, self.value(n))).collect()
    }

    /// The `per_layer.json` body: count, median, p90 and total per sampled
    /// layer; derived values as they are.
    pub fn json(&self) -> Value {
        let rows = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let row = if self.values.iter().any(|(n, _)| *n == name) {
                    serde_json::json!({ "value": self.value(name), "unit": unit })
                } else {
                    let s = self.summary(name);
                    serde_json::json!({
                        "count": s.count,
                        "median": s.median,
                        "p90": s.p90,
                        "total": s.total,
                        "unit": unit,
                    })
                };
                (name.to_string(), row)
            })
            .collect();
        Value::Object(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_values_and_units() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25), ("p50_ms", 1.5)],
        };
        let v: Value = serde_json::from_str(&r.json()).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"], 3);
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.25));
        assert_eq!(v["metrics"]["p50_ms"]["unit"].as_str(), Some("ms"));
    }

    #[test]
    fn layers_report_medians_derived_values_and_zeros() {
        let mut l = Layers::default();
        for v in [3.0, 1.0, 2.0] {
            l.push("protocol.decode_us", v);
        }
        l.set("trace.overhead", 1.02);
        assert_eq!(l.value("protocol.decode_us"), 2.0);
        assert_eq!(l.value("trace.overhead"), 1.02);
        assert_eq!(l.value("train.step_ms"), 0.0);
        assert_eq!(l.metrics().len(), PER_LAYER.len());
        assert_eq!(l.json()["protocol.decode_us"]["count"], 3);
    }
}
