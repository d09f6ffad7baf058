//! The results file (`benchmark/out/results.json`, and the checked-in
//! `results/baseline.json`) and `BENCHMARK.json` itself.

use crate::json::Value;
use crate::spec::{gated_workloads, END_TO_END, PER_LAYER};
use crate::stats::min_median_max;

pub const SCHEMA: u64 = 1;

/// One metric over the repeats of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRuns {
    pub name: String,
    pub unit: String,
    pub runs: Vec<f64>,
}

impl MetricRuns {
    pub fn min_median_max(&self) -> (f64, f64, f64) {
        min_median_max(&self.runs)
    }
}

/// One per-layer value from the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValue {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// Hash of the generated inputs (hex).
    pub input_hash: String,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<MetricRuns>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<LayerValue>,
    /// Each run's `detail` object, as printed.
    pub details: Vec<Value>,
}

impl WorkloadResult {
    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&MetricRuns> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|l| l.name == name)
            .map(|l| l.value)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// The environment block: nproc, storage, git rev, rustc, seed,
    /// window, repeats.
    pub env: Vec<(String, Value)>,
    pub workloads: Vec<WorkloadResult>,
    /// One-line readings of the traced run (empty when untraced).
    pub findings: Vec<String>,
}

impl Results {
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn to_json(&self) -> Value {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let end_to_end = w.end_to_end.iter().map(|m| {
                    let (min, median, max) = m.min_median_max();
                    (
                        m.name.clone(),
                        Value::obj([
                            ("unit", Value::str(&m.unit)),
                            ("min", Value::Num(min)),
                            ("median", Value::Num(median)),
                            ("max", Value::Num(max)),
                            (
                                "runs",
                                Value::Arr(m.runs.iter().map(|&r| Value::Num(r)).collect()),
                            ),
                        ]),
                    )
                });
                let per_layer = w.per_layer.iter().map(|l| {
                    (
                        l.name.clone(),
                        Value::obj([
                            ("unit", Value::str(&l.unit)),
                            ("value", Value::Num(l.value)),
                        ]),
                    )
                });
                Value::obj([
                    ("name", Value::str(&w.name)),
                    ("input_hash", Value::str(&w.input_hash)),
                    ("attempted", Value::Int(w.attempted)),
                    ("failed", Value::Int(w.failed)),
                    ("failed_ops_share", Value::Num(w.failed_ops_share())),
                    ("end_to_end", Value::obj(end_to_end)),
                    ("per_layer", Value::obj(per_layer)),
                    ("details", Value::Arr(w.details.clone())),
                ])
            })
            .collect();
        Value::obj([
            ("schema", Value::Int(SCHEMA)),
            ("env", Value::Obj(self.env.clone())),
            (
                "findings",
                Value::Arr(self.findings.iter().map(Value::str).collect()),
            ),
            ("workloads", Value::Arr(workloads)),
        ])
    }

    pub fn from_json(doc: &Value) -> Result<Self, String> {
        let missing = |what: &str| format!("results file: missing or mistyped '{what}'");
        if doc.get("schema").and_then(Value::as_u64) != Some(SCHEMA) {
            return Err(format!("results file: schema is not {SCHEMA}"));
        }
        let env = doc
            .get("env")
            .and_then(Value::as_obj)
            .ok_or_else(|| missing("env"))?
            .to_vec();
        let findings = doc
            .get("findings")
            .and_then(Value::as_arr)
            .ok_or_else(|| missing("findings"))?
            .iter()
            .map(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| missing("findings[]"))
            })
            .collect::<Result<_, _>>()?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or_else(|| missing("workloads"))?
            .iter()
            .map(|w| {
                let text = |key: &str| {
                    w.get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| missing(key))
                };
                let count = |key: &str| {
                    w.get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| missing(key))
                };
                let fields = |key: &str| {
                    w.get(key)
                        .and_then(Value::as_obj)
                        .ok_or_else(|| missing(key))
                };
                let end_to_end = fields("end_to_end")?
                    .iter()
                    .map(|(name, m)| {
                        let runs = m
                            .get("runs")
                            .and_then(Value::as_arr)
                            .ok_or_else(|| missing("runs"))?
                            .iter()
                            .map(|r| r.as_f64().ok_or_else(|| missing("runs[]")))
                            .collect::<Result<Vec<f64>, _>>()?;
                        if runs.is_empty() {
                            return Err(format!("results file: '{name}' has no runs"));
                        }
                        Ok(MetricRuns {
                            name: name.clone(),
                            unit: m
                                .get("unit")
                                .and_then(Value::as_str)
                                .ok_or_else(|| missing("unit"))?
                                .to_string(),
                            runs,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                let per_layer = fields("per_layer")?
                    .iter()
                    .map(|(name, l)| {
                        Ok(LayerValue {
                            name: name.clone(),
                            unit: l
                                .get("unit")
                                .and_then(Value::as_str)
                                .ok_or_else(|| missing("unit"))?
                                .to_string(),
                            value: l
                                .get("value")
                                .and_then(Value::as_f64)
                                .ok_or_else(|| missing("value"))?,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Ok(WorkloadResult {
                    name: text("name")?,
                    input_hash: text("input_hash")?,
                    attempted: count("attempted")?,
                    failed: count("failed")?,
                    end_to_end,
                    per_layer,
                    details: w
                        .get("details")
                        .and_then(Value::as_arr)
                        .ok_or_else(|| missing("details"))?
                        .to_vec(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            env,
            workloads,
            findings,
        })
    }

    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&crate::json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    }
}

/// Seconds one driver run measures for; also `run`'s default window.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, generated from the tables in `spec.rs` so the two
/// cannot drift (`ldp-benchmark benchmark-json > BENCHMARK.json`).
pub fn benchmark_json() -> Value {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::Int(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                gated_workloads()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metric tables of the README, as markdown (`ldp-benchmark metrics`).
pub fn metric_tables() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {}%{} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            if m.abs_slack > 0.0 {
                format!(" and {} {}", m.abs_slack, m.unit)
            } else {
                String::new()
            },
            m.meaning
        ));
    }
    out.push_str("\n| per-layer metric | unit | timed call (public API) | should move -> on |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.timed, m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    pub fn sample() -> Results {
        Results {
            env: vec![
                ("nproc".to_string(), Value::Int(2)),
                ("storage".to_string(), Value::str("checkout-disk")),
                ("seed".to_string(), Value::Int(u64::MAX)),
                ("seconds".to_string(), Value::Num(10.0)),
            ],
            findings: vec!["decode/widen 3.1 vs fold 21.0 ns/row".to_string()],
            workloads: vec![WorkloadResult {
                name: "ingest_hot".to_string(),
                input_hash: "00ff00ff00ff00ff".to_string(),
                attempted: 120_000,
                failed: 0,
                end_to_end: vec![
                    MetricRuns {
                        name: "rows_per_s".to_string(),
                        unit: "rows/s".to_string(),
                        runs: vec![25_100_000.5, 24_900_000.25, 25_400_000.0],
                    },
                    MetricRuns {
                        name: "peak_rss_mb".to_string(),
                        unit: "MB".to_string(),
                        runs: vec![54.25],
                    },
                ],
                per_layer: vec![LayerValue {
                    name: "wire.encode.ns_per_row".to_string(),
                    unit: "ns".to_string(),
                    value: 4.125,
                }],
                details: vec![Value::obj([("ack_n", Value::Int(1500))])],
            }],
        }
    }

    #[test]
    fn results_round_trip_through_json() {
        let results = sample();
        let text = results.to_json().to_pretty();
        let back = Results::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, results);
        let w = back.workload("ingest_hot").unwrap();
        assert_eq!(
            w.metric("rows_per_s").unwrap().min_median_max().1,
            25_100_000.5
        );
        assert_eq!(w.layer("wire.encode.ns_per_row"), Some(4.125));
        assert_eq!(w.failed_ops_share(), 0.0);
    }

    #[test]
    fn malformed_results_are_refused() {
        assert!(Results::from_json(&json::parse("{\"schema\": 2}").unwrap()).is_err());
        let mut doc = sample().to_json();
        if let Value::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "workloads");
        }
        assert!(Results::from_json(&doc).is_err());
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(doc.to_pretty().len() < 64 * 1024);
    }
}
