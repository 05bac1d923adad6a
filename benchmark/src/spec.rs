//! The benchmark's definition — workload names, metric names, units,
//! directions and bounds — read from the one place it is written:
//! `/BENCHMARK.json`, compiled into the binary.

use std::sync::OnceLock;

use crate::json::Json;

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Metric {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// End-to-end metrics: the share of the parent's median by which it
    /// may worsen. Per-layer metrics have none.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// What every workload reports with tracing off.
    pub end_to_end: Vec<Metric>,
    /// What a traced run reports; a metric that does not apply to a
    /// workload reads 0 there.
    pub per_layer: Vec<Metric>,
}

fn parse(text: &str) -> Option<Spec> {
    let j = Json::parse(text).ok()?;
    let metrics = |key: &str| -> Option<Vec<Metric>> {
        j.get(key)?
            .as_arr()?
            .iter()
            .map(|m| {
                Some(Metric {
                    name: m.get("name")?.as_str()?.to_string(),
                    unit: m.get("unit")?.as_str()?.to_string(),
                    higher_is_better: match m.get("better")?.as_str()? {
                        "higher" => true,
                        "lower" => false,
                        _ => return None,
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Some(Spec {
        run_seconds: j.get("run_seconds")?.as_f64()? as u64,
        workloads: j
            .get("workloads")?
            .as_arr()?
            .iter()
            .map(|w| Some(w.get("name")?.as_str()?.to_string()))
            .collect::<Option<_>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The compiled-in definition.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(TEXT).expect("BENCHMARK.json has the contract's shape"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_file_meets_the_contract_limits() {
        let s = spec();
        let j = Json::parse(TEXT).unwrap();
        let keys: Vec<_> = j
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
        assert!(TEXT.len() < 64 << 10);
        assert!((1..=60).contains(&s.run_seconds));
        let command = j.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);

        let mut names = std::collections::BTreeSet::new();
        assert!((2..=8).contains(&s.workloads.len()));
        for w in j.get("workloads").unwrap().as_arr().unwrap() {
            let (n, why) = (
                w.get("name").unwrap().as_str().unwrap(),
                w.get("why").unwrap().as_str().unwrap(),
            );
            assert!(name_ok(n) && names.insert(n.to_string()), "{n}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{n}: {}",
                why.len()
            );
        }
        assert!((1..=16).contains(&s.end_to_end.len()));
        for m in &s.end_to_end {
            assert!(
                name_ok(&m.name) && unit_ok(&m.unit) && names.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        assert!((1..=128).contains(&s.per_layer.len()));
        for m in &s.per_layer {
            assert!(
                name_ok(&m.name) && unit_ok(&m.unit) && names.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(m.bound.is_none(), "{}", m.name);
        }
    }
}
