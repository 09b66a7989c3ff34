//! `agree A.json B.json`: do two result files tell the same story?
//!
//! A is the reference (the parent commit, or the first of two runs of one
//! commit) and B the candidate. Host-time headline metrics are compared
//! median to median under the bounds of `BENCHMARK.json`; a metric whose
//! run-to-run spread exceeds its bound is `unresolved`, not `same`, unless
//! every B sample beats every A sample. Deterministic metrics — the model
//! error, events per op and every statistics count — must be equal.

use crate::json::Json;
use crate::metrics::{self, Better, MetricDef};
use crate::run::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads here match the driver's.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 for a single sample.
pub fn spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, q3)) if median(samples) != 0.0 => (q3 - q1) / median(samples).abs(),
        _ => 0.0,
    }
}

struct Side {
    value: f64,
    samples: Vec<f64>,
}

/// A metric's value and samples; `None` when it is malformed or marked as
/// not applying to the workload.
fn side(metric: &Json) -> Option<Side> {
    if metric.get("applies").and_then(Json::as_bool) == Some(false) {
        return None;
    }
    let value = metric.get("value")?.as_f64()?;
    let samples = metric
        .get("samples")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some(Side { value, samples })
}

/// Compares one host-time metric under `bound`.
fn judge(def: &MetricDef, bound: f64, a: &Side, b: &Side) -> Verdict {
    let worse_by = match def.better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    let noisy = spread(&a.samples).max(spread(&b.samples)) > bound;
    if noisy {
        let beats = |x: f64, y: f64| match def.better {
            Better::Lower => x < y,
            Better::Higher => x > y,
        };
        let clear_win = !a.samples.is_empty()
            && !b.samples.is_empty()
            && b.samples.iter().all(|&x| a.samples.iter().all(|&y| beats(x, y)));
        return if clear_win { Verdict::Same } else { Verdict::Unresolved };
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

pub struct Summary {
    pub rows: Vec<String>,
    pub worse: usize,
    pub unresolved: usize,
    /// Deterministic metrics whose values differ.
    pub differing: Vec<String>,
}

impl Summary {
    pub fn agrees(&self) -> bool {
        self.worse == 0 && self.differing.is_empty()
    }
}

pub fn compare(a: &Json, b: &Json) -> Result<Summary, String> {
    let workloads = |doc| Json::get(doc, "workloads").and_then(Json::as_obj);
    let (wa, wb) =
        (workloads(a).ok_or("A has no workloads")?, workloads(b).ok_or("B has no workloads")?);
    let mut summary = Summary { rows: Vec::new(), worse: 0, unresolved: 0, differing: Vec::new() };
    summary.rows.push(format!(
        "{:<20} {:<14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    ));
    for (workload, ra) in wa {
        let rb = wb
            .iter()
            .find(|(n, _)| n == workload)
            .map(|(_, r)| r)
            .ok_or(format!("B lacks {workload}"))?;
        for (doc, tag) in [(ra, "A"), (rb, "B")] {
            if doc.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{tag}: {workload} failed its correctness checks; nothing to compare"
                ));
            }
        }
        let metrics_a = ra
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("A: {workload} has no metrics"))?;
        for (name, ma) in metrics_a {
            let (Some(def), Some(mb)) =
                (metrics::find(name), rb.get("metrics").and_then(|m| m.get(name)))
            else {
                continue;
            };
            let (Some(sa), Some(sb)) = (side(ma), side(mb)) else { continue };
            let Some(bound) = def.bound else {
                // A per-layer metric: counts must repeat, host times are
                // reported but carry no bound.
                if def.source.exact() && sa.value.to_bits() != sb.value.to_bits() {
                    summary
                        .differing
                        .push(format!("{workload}: {name} = {} in A, {} in B", sa.value, sb.value));
                }
                continue;
            };
            let verdict = if def.source.exact() {
                if sa.value.to_bits() == sb.value.to_bits() {
                    Verdict::Same
                } else {
                    summary
                        .differing
                        .push(format!("{workload}: {name} = {} in A, {} in B", sa.value, sb.value));
                    Verdict::Worse
                }
            } else {
                judge(def, bound, &sa, &sb)
            };
            match verdict {
                Verdict::Worse => summary.worse += 1,
                Verdict::Unresolved => summary.unresolved += 1,
                Verdict::Same => {}
            }
            let change =
                if sa.value != 0.0 { 100.0 * (sb.value - sa.value) / sa.value.abs() } else { 0.0 };
            let bound_text =
                if bound == 0.0 { "exact".to_owned() } else { format!("{:.0} %", bound * 100.0) };
            summary.rows.push(format!(
                "{workload:<20} {name:<14} {:>14.6} {:>14.6} {change:>+7.2}% {bound_text:>7}  {}",
                sa.value,
                sb.value,
                verdict.word()
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1.0, 1.1, 1.3, 1.2, 5.0], n=4) == [1.05, 1.2, 3.15]
        let (q1, q3) = quartiles(&[1.0, 1.1, 1.3, 1.2, 5.0]).unwrap();
        assert!((q1 - 1.05).abs() < 1e-12 && (q3 - 3.15).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    fn file(wall: &[f64], events: f64) -> Json {
        let text = format!(
            r#"{{"workloads": {{"dd": {{"correct": true, "metrics": {{
                "wall_s": {{"value": {}, "unit": "s", "samples": {:?}}},
                "kernel.sim.events": {{"value": {events}, "unit": "count"}}}}}}}}}}"#,
            median(wall),
            wall
        );
        parse(&text).unwrap()
    }

    #[test]
    fn steady_runs_within_the_bound_are_the_same() {
        let a = file(&[1.00, 1.01, 1.02, 1.00, 1.01], 8.0e6);
        let b = file(&[1.03, 1.04, 1.03, 1.05, 1.04], 8.0e6);
        let s = compare(&a, &b).unwrap();
        assert!(s.agrees() && s.unresolved == 0, "{:?}", s.rows);
    }

    #[test]
    fn a_slowdown_past_the_bound_is_worse() {
        let a = file(&[1.00, 1.01, 1.02, 1.00, 1.01], 8.0e6);
        let b = file(&[1.32, 1.33, 1.32, 1.34, 1.33], 8.0e6);
        let s = compare(&a, &b).unwrap();
        assert_eq!(s.worse, 1);
        assert!(!s.agrees());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let a = file(&[1.0, 1.3, 0.8, 1.2, 1.0], 8.0e6);
        let b = file(&[1.0, 1.1, 0.9, 1.3, 1.05], 8.0e6);
        let s = compare(&a, &b).unwrap();
        assert_eq!((s.worse, s.unresolved), (0, 1));
        // ... unless every run of B beats every run of A.
        let b = file(&[0.5, 0.6, 0.55, 0.7, 0.6], 8.0e6);
        assert_eq!(compare(&a, &b).unwrap().unresolved, 0);
    }

    #[test]
    fn a_deterministic_count_must_be_equal() {
        let a = file(&[1.0, 1.0, 1.0, 1.0, 1.0], 8.0e6);
        let b = file(&[1.0, 1.0, 1.0, 1.0, 1.0], 8.0e6 + 1.0);
        let s = compare(&a, &b).unwrap();
        assert_eq!(s.differing.len(), 1);
        assert!(!s.agrees());
    }
}
