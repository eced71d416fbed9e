//! `e2e compare PARENT.jsonl CHANGE.jsonl`: judge two sets of runs, one
//! row per (workload, metric), with the bounds fixed in `BENCHMARK.json`.
//!
//! The i-th run of a workload in one file is paired with the i-th run of
//! that workload in the other; run the two commits alternately to fill
//! them. The rule:
//!
//! - fewer than ten pairs decide nothing;
//! - a gain needs the change to win at least 9 of every 10 pairs (ties
//!   count for neither side) and the medians to differ by more than the
//!   parent's interquartile range;
//! - a bounded metric regressed if the change's median is worse than the
//!   parent's by more than the bound, however wide the parent's spread;
//! - otherwise, where its parent spread (IQR over median) exceeds its
//!   bound, it is "unresolved" unless every change run beats every parent
//!   run: such a set cannot show that the change stayed within the bound.
//!
//! Both files must come from runs of the same length (`--seconds`).

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

/// Pairs needed before any verdict.
pub const MIN_PAIRS: usize = 10;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent median; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    TooFewPairs,
    Improved,
    Regressed,
    Unresolved,
    WithinBound,
    Worse,
    NoChange,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::TooFewPairs => "too few pairs",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::NoChange => "no change",
        }
    }
}

/// The verdict on one metric, with the change's wins and losses.
pub fn judge(parent: &[f64], change: &[f64], spec: &Spec) -> (Verdict, usize, usize) {
    let n = parent.len().min(change.len());
    let (p, c) = (&parent[..n], &change[..n]);
    let better = |a: f64, b: f64| if spec.lower_is_better { a < b } else { a > b };
    let wins = (0..n).filter(|&i| better(c[i], p[i])).count();
    let losses = (0..n).filter(|&i| better(p[i], c[i])).count();
    if n < MIN_PAIRS {
        return (Verdict::TooFewPairs, wins, losses);
    }
    let (pm, cm) = (median(p), median(c));
    let (q1, q3) = quartiles(p);
    let iqr = q3 - q1;
    let moved = (cm - pm).abs() > iqr;
    if wins * 10 >= n * 9 && moved && better(cm, pm) {
        return (Verdict::Improved, wins, losses);
    }
    let verdict = match spec.bound {
        Some(bound) => {
            let scale = pm.abs();
            let spread = if scale > 0.0 { iqr / scale } else { 0.0 };
            let worse_by = match (scale > 0.0, spec.lower_is_better) {
                (false, _) => 0.0,
                (true, true) => (cm - pm) / scale,
                (true, false) => (pm - cm) / scale,
            };
            let all_better = p.iter().all(|&x| c.iter().all(|&y| better(y, x)));
            if worse_by > bound {
                Verdict::Regressed
            } else if spread > bound && !all_better {
                Verdict::Unresolved
            } else {
                Verdict::WithinBound
            }
        }
        None if losses * 10 >= n * 9 && moved && better(pm, cm) => Verdict::Worse,
        None => Verdict::NoChange,
    };
    (verdict, wins, losses)
}

/// Metric specs from a parsed `BENCHMARK.json`: end-to-end first.
pub fn specs(bench: &Value) -> Result<Vec<Spec>, String> {
    let mut out = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let list = bench
            .get(section)
            .and_then(Value::arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
        for m in list {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a `{section}` entry lacks `{k}`"))
            };
            let better = field("better")?;
            out.push(Spec {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: better == "lower",
                bound: if bounded {
                    Some(m.get("bound").and_then(Value::num).ok_or_else(|| {
                        format!(
                            "end-to-end metric {} has no bound",
                            field("name").unwrap_or_default()
                        )
                    })?)
                } else {
                    None
                },
            });
        }
    }
    Ok(out)
}

/// Per workload (in order of first appearance), per metric, the values of
/// every run in a JSONL file the benchmark wrote with `--out`.
pub type Runs = Vec<(String, BTreeMap<String, Vec<f64>>)>;

pub fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs: Runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::obj)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        let at = match runs.iter().position(|(w, _)| w == workload) {
            Some(at) => at,
            None => {
                runs.push((workload.to_string(), BTreeMap::new()));
                runs.len() - 1
            }
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::num)
                .ok_or_else(|| format!("line {}: {name} has no value", n + 1))?;
            runs[at].1.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// The distinct run lengths (`seconds`) of the runs in a JSONL file the
/// benchmark wrote with `--out`, in order of first appearance.
pub fn run_lengths(text: &str) -> Result<Vec<f64>, String> {
    let mut out: Vec<f64> = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let s = json::parse(line)
            .map_err(|e| format!("line {}: {e}", n + 1))?
            .get("seconds")
            .and_then(Value::num)
            .ok_or_else(|| format!("line {}: no seconds", n + 1))?;
        if !out.contains(&s) {
            out.push(s);
        }
    }
    Ok(out)
}

/// The comparison table for two run files under the given specs.
pub fn table(parent: &Runs, change: &Runs, specs: &[Spec]) -> String {
    let mut out = format!(
        "{:<10} {:<28} {:<12} {:>5}  {:>34}  {:>34}  {:>8}  {:>5}  {}\n",
        "workload",
        "metric",
        "unit",
        "pairs",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "delta",
        "w/l",
        "verdict"
    );
    let fmt = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        format!("{:.6} [{:.6}, {:.6}]", median(xs), q1, q3)
    };
    for (workload, pm) in parent {
        let Some((_, cm)) = change.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        for spec in specs {
            let (Some(p), Some(c)) = (pm.get(&spec.name), cm.get(&spec.name)) else {
                continue;
            };
            let n = p.len().min(c.len());
            let (verdict, wins, losses) = judge(p, c, spec);
            let base = median(&p[..n]);
            let delta = if base != 0.0 {
                format!("{:+.2}%", 100.0 * (median(&c[..n]) - base) / base.abs())
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "{:<10} {:<28} {:<12} {:>5}  {:>34}  {:>34}  {:>8}  {:>5}  {}\n",
                workload,
                spec.name,
                spec.unit,
                n,
                fmt(&p[..n]),
                fmt(&c[..n]),
                delta,
                format!("{wins}/{losses}"),
                verdict.label()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bound: Option<f64>) -> Spec {
        Spec {
            name: "run_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    /// Ten runs around `center` with a ±1% wobble.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.01 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn a_clear_gain_is_improved() {
        let (v, wins, losses) = judge(&runs(1.0), &runs(0.8), &spec(Some(0.1)));
        assert_eq!((v, wins, losses), (Verdict::Improved, 10, 0));
    }

    #[test]
    fn eight_wins_of_ten_claim_no_gain() {
        let parent = runs(1.0);
        let mut change = runs(0.8);
        change[0] = 2.0;
        change[1] = 2.0;
        let (v, wins, _) = judge(&parent, &change, &spec(Some(0.1)));
        assert_eq!(wins, 8);
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = runs(1.0);
        let mut change = runs(0.8);
        change[0] = parent[0];
        let (v, wins, losses) = judge(&parent, &change, &spec(Some(0.1)));
        assert_eq!((wins, losses), (9, 0));
        assert_eq!(v, Verdict::Improved, "9 of 10 pairs is enough");
        change[1] = parent[1];
        let (v, wins, _) = judge(&parent, &change, &spec(Some(0.1)));
        assert_eq!(wins, 8);
        assert_ne!(v, Verdict::Improved);
    }

    #[test]
    fn a_small_median_shift_inside_the_parent_iqr_is_no_gain() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.02 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|x| x - 0.001).collect();
        let (v, wins, _) = judge(&parent, &change, &spec(Some(0.2)));
        assert_eq!(wins, 10);
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression() {
        let (v, _, losses) = judge(&runs(1.0), &runs(1.2), &spec(Some(0.1)));
        assert_eq!((v, losses), (Verdict::Regressed, 10));
        let (v, _, _) = judge(&runs(1.0), &runs(1.05), &spec(Some(0.1)));
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = vec![0.8, 1.2, 0.8, 1.2, 1.0, 0.8, 1.2, 0.8, 1.2, 1.0];
        let (v, _, _) = judge(&parent, &runs(1.0), &spec(Some(0.1)));
        assert_eq!(v, Verdict::Unresolved);
        // ... unless every change run beats every parent run, even by
        // less than the parent's IQR.
        let (v, wins, _) = judge(&parent, &runs(0.7), &spec(Some(0.1)));
        assert_eq!((v, wins), (Verdict::WithinBound, 10));
        let (v, _, _) = judge(&parent, &runs(0.2), &spec(Some(0.1)));
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn a_wide_parent_spread_does_not_hide_a_regression() {
        let parent = vec![0.8, 1.2, 0.8, 1.2, 1.0, 0.8, 1.2, 0.8, 1.2, 1.0];
        let (v, _, losses) = judge(&parent, &runs(2.0), &spec(Some(0.1)));
        assert_eq!((v, losses), (Verdict::Regressed, 10));
    }

    #[test]
    fn run_lengths_are_read_from_every_line() {
        let line = |s: f64| format!("{{\"workload\": \"w\", \"seconds\": {s}, \"metrics\": {{}}}}");
        let text = [line(25.0), line(25.0), line(10.0)].join("\n");
        assert_eq!(run_lengths(&text), Ok(vec![25.0, 10.0]));
        assert!(run_lengths("{\"workload\": \"w\"}").is_err());
    }

    #[test]
    fn too_few_pairs_decide_nothing() {
        let (v, wins, _) = judge(&runs(1.0)[..9], &runs(0.5), &spec(Some(0.1)));
        assert_eq!((v, wins), (Verdict::TooFewPairs, 9));
    }

    #[test]
    fn unbounded_metrics_report_worse_instead_of_regressed() {
        let (v, _, _) = judge(&runs(1.0), &runs(1.2), &spec(None));
        assert_eq!(v, Verdict::Worse);
        let (v, _, _) = judge(&runs(1.0), &runs(1.0), &spec(None));
        assert_eq!(v, Verdict::NoChange);
    }

    #[test]
    fn reads_run_files_and_prints_one_row_per_workload_and_metric() {
        let line = |w: &str, run_s: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\"run_s\": {{\"value\": {run_s}, \"unit\": \"s\"}}}}}}"
            )
        };
        let parent: String = (0..10)
            .flat_map(|i| {
                [
                    line("strong512", 1.0 + 0.001 * i as f64),
                    line("sweep1024", 2.0),
                ]
            })
            .collect::<Vec<_>>()
            .join("\n");
        let change: String = (0..10)
            .flat_map(|i| {
                [
                    line("strong512", 0.8 + 0.001 * i as f64),
                    line("sweep1024", 2.0),
                ]
            })
            .collect::<Vec<_>>()
            .join("\n");
        let (p, c) = (read_runs(&parent).unwrap(), read_runs(&change).unwrap());
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].1["run_s"].len(), 10);
        let out = table(&p, &c, &[spec(Some(0.1))]);
        let rows: Vec<&str> = out.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("strong512") && rows[0].ends_with("improved"));
        assert!(rows[1].starts_with("sweep1024") && rows[1].ends_with("within bound"));
        assert!(read_runs("{\"workload\": \"x\"}").is_err());
    }
}
