//! `benchmark compare A.json[,A2.json…] B.json[,B2.json…]`: per workload
//! and end-to-end metric, each side's median and quartiles and a verdict
//! against the bounds in `BENCHMARK.json` (the copy compiled in). A is the
//! parent, B the change.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use crate::json::Json;
use crate::net::RATES;
use crate::spec;

/// What a comparison concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// The medians differ by no more than the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's own run-to-run spread is wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Runs summarised.
    pub n: usize,
}

/// The three cut points Python's `statistics.quantiles(v, n=4)` gives
/// (the exclusive method), so spreads here equal the driver's.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let ld = v.len();
    match ld {
        0 => return None,
        1 => {
            return Some(Summary {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n: 1,
            })
        }
        _ => {}
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n: ld,
    })
}

impl Summary {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The verdict on one metric: `worsening` is how much worse B's median is
/// than A's as a share of A's (negative when better).
pub fn verdict(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let base = if a.median == 0.0 { 1.0 } else { a.median.abs() };
    let worsening = if higher_is_better {
        (a.median - b.median) / base
    } else {
        (b.median - a.median) / base
    };
    let v = if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worsening, v)
}

/// `(workload, metric) -> values` over a results file's timed runs, the
/// harness-only `fail_frac` and `rate_within_limit_qps` included.
fn collect(file: &Json) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in file.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        if run.get("traced") != Some(&Json::Bool(false)) {
            continue;
        }
        let Some(w) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let mut add = |metric: &str, v: f64| {
            out.entry((w.to_string(), metric.to_string()))
                .or_default()
                .push(v);
        };
        for (name, m) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                add(name, v);
            }
        }
        if let Some(v) = run.get("fail_frac").and_then(Json::as_f64) {
            add("fail_frac", v);
        }
        if let Some(v) = run
            .get("extras")
            .and_then(|e| e.get("rate_within_limit_qps"))
            .and_then(Json::as_f64)
        {
            add("rate_within_limit_qps", v);
        }
    }
    out
}

/// One compared metric.
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent side; `None` when A has no timed run with this metric.
    pub a: Option<Summary>,
    /// Change side; `None` when B has none.
    pub b: Option<Summary>,
    /// B's worsening as a share of A's median.
    pub worsening: f64,
    /// The bound applied, as printed.
    pub bound: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares two parsed results files under the bounds of `BENCHMARK.json`.
/// A (workload, metric) only one side reports is `worse`: a workload that
/// crashed and left no record must not pass for unchanged.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let (a, b) = (collect(a), collect(b));
    let keys: BTreeSet<_> = a.keys().chain(b.keys()).collect();
    let mut rows = Vec::new();
    for key in keys {
        let (workload, metric) = key;
        let (av, bv) = (a.get(key), b.get(key));
        let (sa, sb) = (av.and_then(|v| summarize(v)), bv.and_then(|v| summarize(v)));
        let max = |v: Option<&Vec<f64>>| v.into_iter().flatten().copied().fold(0.0, f64::max);
        let (worsening, bound, verdict) = match (metric.as_str(), &sa, &sb) {
            // Any increase is a regression, in any run: judged on each
            // side's worst run, since a median hides a minority of bad ones.
            ("fail_frac", Some(_), Some(_)) => {
                let (worst_a, worst_b) = (max(av), max(bv));
                let v = if worst_b > worst_a {
                    Verdict::Worse
                } else {
                    Verdict::Same
                };
                (worst_b - worst_a, "any increase".to_string(), v)
            }
            // Step-valued: may drop by one listed rate.
            ("rate_within_limit_qps", Some(sa), Some(sb)) => {
                let step = |s: &Summary| RATES.iter().filter(|&&r| r as f64 <= s.median).count();
                let (ia, ib) = (step(sa), step(sb));
                let v = if ib + 1 < ia {
                    Verdict::Worse
                } else if ib > ia {
                    Verdict::Better
                } else {
                    Verdict::Same
                };
                (ia as f64 - ib as f64, "one step".to_string(), v)
            }
            (_, Some(sa), Some(sb)) => {
                let listed = spec::spec().end_to_end.iter().find(|m| &m.name == metric);
                let Some((m, bound)) = listed.and_then(|m| Some((m, m.bound?))) else {
                    continue;
                };
                let (w, v) = verdict(sa, sb, m.higher_is_better, bound);
                (w, format!("{:.0} %", bound * 100.0), v)
            }
            _ => (f64::NAN, "both sides".to_string(), Verdict::Worse),
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            a: sa,
            b: sb,
            worsening,
            bound,
            verdict,
        });
    }
    rows
}

/// The runs of every results file in the comma-separated `paths`, as one
/// file: a side measured in several sittings (interleaved with the other
/// side's, so both see the same host) is still one side.
fn load(paths: &str) -> Result<Json, String> {
    let mut runs = Vec::new();
    for path in paths.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let file = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
        let its = file.get("runs").and_then(Json::as_arr);
        runs.extend_from_slice(its.ok_or_else(|| format!("{path}: no \"runs\" array"))?);
    }
    Ok(Json::obj([("runs", Json::Arr(runs))]))
}

/// The `compare` subcommand. Non-zero exit on any `worse`.
pub fn run(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let rows = compare(&load(a_path)?, &load(b_path)?);
    if rows.is_empty() {
        return Err("neither file holds a timed run".into());
    }
    println!(
        "{:<9} {:<22} {:>12} {:>25} {:>12} {:>25} {:>9} {:>13}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] (n)",
        "B median",
        "B [q1, q3] (n)",
        "worse by",
        "bound"
    );
    let mut counts = [0usize; 4];
    for r in &rows {
        let median =
            |s: &Option<Summary>| s.map_or("missing".into(), |s| format!("{:.4}", s.median));
        let side = |s: &Option<Summary>| {
            s.map_or(String::new(), |s| {
                format!("[{:.4}, {:.4}] ({})", s.q1, s.q3, s.n)
            })
        };
        let change = match r.metric.as_str() {
            _ if r.worsening.is_nan() => String::new(),
            "fail_frac" => format!("{:+.2e}", r.worsening),
            "rate_within_limit_qps" => format!("{:+.0} step", r.worsening),
            _ => format!("{:+.1} %", r.worsening * 100.0),
        };
        println!(
            "{:<9} {:<22} {:>12} {:>25} {:>12} {:>25} {:>9} {:>13}  {}",
            r.workload,
            r.metric,
            median(&r.a),
            side(&r.a),
            median(&r.b),
            side(&r.b),
            change,
            r.bound,
            match r.verdict {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        );
        counts[r.verdict as usize] += 1;
    }
    println!(
        "{} better, {} same, {} worse, {} unresolved",
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(if counts[Verdict::Worse as usize] > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let s = summarize(&[46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (3.5, 13.5, 31.0));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let s = summarize(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[5.0]).unwrap().spread(), 0.0);
        assert!(summarize(&[]).is_none());
    }

    fn steady(v: f64) -> Summary {
        summarize(&[v * 0.99, v, v, v, v * 1.01]).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = |a: f64, b: f64| verdict(&steady(a), &steady(b), false, 0.10).1;
        assert_eq!(lower(100.0, 105.0), Verdict::Same);
        assert_eq!(lower(100.0, 115.0), Verdict::Worse);
        assert_eq!(lower(100.0, 85.0), Verdict::Better);
        let higher = |a: f64, b: f64| verdict(&steady(a), &steady(b), true, 0.10).1;
        assert_eq!(higher(100.0, 85.0), Verdict::Worse);
        assert_eq!(higher(100.0, 115.0), Verdict::Better);
        let noisy = summarize(&[80.0, 90.0, 100.0, 110.0, 120.0]).unwrap();
        assert_eq!(
            verdict(&noisy, &steady(150.0), false, 0.10).1,
            Verdict::Unresolved
        );
    }

    /// A results file of three `net_open` runs; `fail_fracs` one per run.
    fn results(throughput: f64, fail_fracs: [f64; 3], rate: f64) -> Json {
        let run = |k: f64, fail_frac: f64| {
            Json::obj([
                ("workload", Json::from("net_open")),
                ("traced", Json::from(false)),
                ("fail_frac", Json::from(fail_frac)),
                (
                    "metrics",
                    Json::obj([(
                        "throughput_kops",
                        Json::obj([("value", Json::from(throughput * k))]),
                    )]),
                ),
                (
                    "extras",
                    Json::obj([("rate_within_limit_qps", Json::from(rate))]),
                ),
            ])
        };
        let [f0, f1, f2] = fail_fracs;
        Json::obj([(
            "runs",
            Json::Arr(vec![run(0.99, f0), run(1.0, f1), run(1.01, f2)]),
        )])
    }

    fn find(rows: &[Row], m: &str) -> Verdict {
        rows.iter().find(|r| r.metric == m).unwrap().verdict
    }

    #[test]
    fn files_compare_under_the_committed_bounds() {
        let clean = [0.0; 3];
        let rows = compare(
            &results(18.0, clean, 40_000.0),
            &results(18.1, clean, 20_000.0),
        );
        assert_eq!(find(&rows, "throughput_kops"), Verdict::Same);
        assert_eq!(find(&rows, "fail_frac"), Verdict::Same);
        assert_eq!(
            find(&rows, "rate_within_limit_qps"),
            Verdict::Same,
            "one step is allowed"
        );

        let rows = compare(
            &results(18.0, clean, 40_000.0),
            &results(12.0, [1e-6; 3], 10_000.0),
        );
        assert_eq!(find(&rows, "throughput_kops"), Verdict::Worse);
        assert_eq!(find(&rows, "fail_frac"), Verdict::Worse);
        assert_eq!(find(&rows, "rate_within_limit_qps"), Verdict::Worse);
    }

    #[test]
    fn one_failing_run_in_three_is_a_regression() {
        // The median fail_frac of B is 0; its worst run is not.
        let rows = compare(
            &results(18.0, [0.0; 3], 40_000.0),
            &results(18.0, [0.0, 1e-6, 0.0], 40_000.0),
        );
        assert_eq!(find(&rows, "fail_frac"), Verdict::Worse);
    }

    #[test]
    fn a_workload_missing_from_one_side_is_a_regression() {
        let a = results(18.0, [0.0; 3], 40_000.0);
        let none = Json::obj([("runs", Json::Arr(Vec::new()))]);
        for rows in [compare(&a, &none), compare(&none, &a)] {
            assert_eq!(rows.len(), 3);
            assert!(rows.iter().all(|r| r.verdict == Verdict::Worse));
        }
    }
}
