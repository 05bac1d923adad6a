//! What one run of one workload produced, and its renderings: the
//! driver's result line, the human table, the results-file record.

use crate::json::Json;
use crate::spec;
use crate::verify::Checks;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Samples behind a timing (0 where that has no meaning).
    pub samples: u64,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `true` for a traced run (per-layer metrics).
    pub traced: bool,
    /// Attempted / failed operations and verification comparisons.
    pub checks: Checks,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Ungated detail: highest supported percentiles, per-rate tables.
    pub extras: Vec<(String, Json)>,
}

impl Outcome {
    /// A run with nothing measured yet.
    pub fn new(workload: &'static str, seed: u64, seconds: u64, traced: bool) -> Self {
        Outcome {
            workload,
            seed,
            seconds,
            traced,
            checks: Checks::default(),
            metrics: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Records `name = value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 0);
    }

    /// Records `name = value` from `samples` samples.
    pub fn set_n(&mut self, name: &str, value: f64, samples: u64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records ungated detail.
    pub fn extra(&mut self, name: &str, value: Json) {
        self.extras.push((name.to_string(), value));
    }

    /// The metrics this run must report, in file order.
    fn schema(&self) -> &'static [spec::Metric] {
        let spec = spec::spec();
        if self.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        }
    }

    /// The unit `BENCHMARK.json` gives `name` (empty for an unlisted one).
    /// A timed run may carry a per-layer metric as ungated detail.
    fn unit(&self, name: &str) -> &'static str {
        let spec = spec::spec();
        (spec.end_to_end.iter().chain(&spec.per_layer))
            .find(|m| m.name == name)
            .map_or("", |m| m.unit.as_str())
    }

    /// Process exit code: non-zero on any verification failure.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.checks.correct())
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of the run's kind
    /// (a per-layer metric the workload does not exercise reads 0).
    pub fn contract_line(&self) -> String {
        let metrics = self.schema().iter().map(|m| {
            let value = self.get(&m.name).unwrap_or(0.0);
            (
                m.name.as_str(),
                Json::obj([
                    ("value", Json::from(value)),
                    ("unit", Json::from(m.unit.as_str())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.checks.correct())),
            ("attempted", Json::from(self.checks.attempted.max(1))),
            ("failed", Json::from(self.checks.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The record kept in results files: everything, sample counts and
    /// extras included.
    pub fn record(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload)),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("traced", Json::from(self.traced)),
            ("correct", Json::from(self.checks.correct())),
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed)),
            ("fail_frac", Json::from(self.checks.fail_frac())),
            (
                "failures",
                Json::Arr(
                    self.checks
                        .messages
                        .iter()
                        .map(|m| Json::from(m.as_str()))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let mut fields = vec![
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(self.unit(&m.name))),
                    ];
                    if m.samples > 0 {
                        fields.push(("samples", Json::from(m.samples)));
                    }
                    (m.name.clone(), Json::obj(fields))
                })),
            ),
            ("extras", Json::Obj(self.extras.clone())),
        ])
    }

    /// Every metric by name with its unit, for a terminal.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}, seed {}, {} s) ==\n",
            self.workload,
            if self.traced { "traced" } else { "timed" },
            self.seed,
            self.seconds
        );
        for m in &self.metrics {
            let unit = self.unit(&m.name);
            let n = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            out += &format!("  {:<36} {:>14.4} {unit}{n}\n", m.name, m.value);
        }
        out += &format!(
            "  {:<36} {:>14.6}  ({} failed of {} attempted)\n",
            "fail_frac",
            self.checks.fail_frac(),
            self.checks.failed,
            self.checks.attempted
        );
        for msg in &self.checks.messages {
            out += &format!("  FAILED: {msg}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_contract_keys_and_every_metric() {
        for traced in [false, true] {
            let mut o = Outcome::new("ycsb_a", 1, 8, traced);
            o.checks.passed(10);
            o.set_n("read_p50_us", 1.25, 99);
            o.set("pmem.sfence_per_kop", 67.5);
            let j = Json::parse(&o.contract_line()).unwrap();
            let keys: Vec<_> = j
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
            let m = j.get("metrics").unwrap().as_obj().unwrap();
            let want = if traced {
                spec::spec().per_layer.len()
            } else {
                spec::spec().end_to_end.len()
            };
            assert_eq!(m.len(), want);
            for (_, v) in m {
                assert!(v.get("value").is_some() && v.get("unit").is_some());
            }
            assert_eq!(o.exit_code(), 0);
        }
    }

    #[test]
    fn a_failed_check_flips_correct_and_the_exit_code() {
        let mut o = Outcome::new("ycsb_a", 1, 8, false);
        o.checks.passed(10);
        o.checks.check(false, || "wrong value".into());
        assert_eq!(o.exit_code(), 1);
        let j = Json::parse(&o.contract_line()).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("failed").and_then(Json::as_f64), Some(1.0));
        assert!(o.table().contains("FAILED: wrong value"));
        assert_eq!(
            o.record().get("fail_frac").and_then(Json::as_f64),
            Some(1.0 / 11.0)
        );
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        assert_eq!(Outcome::new("ycsb_a", 1, 8, false).exit_code(), 1);
    }
}
