//! `kgbench compare BASE HEAD`: the `BENCHMARK.json` bounds applied to two
//! sets of `run-<seed>.json` files (comma-separated), one verdict per
//! workload and end-to-end metric:
//!
//! - `unresolved` when the base runs' own spread (interquartile range over
//!   median, needing two or more base files) exceeds the bound, unless
//!   every head run beats every base run;
//! - otherwise `regressed` / `improved` when the head median is worse /
//!   better than the base median by more than the bound, and `within
//!   bound` when it is not.
//!
//! For each regressed workload the per-layer metric whose median moved
//! most in its worse direction is named.

use crate::json::{self, Json};
use crate::measure::{median, quantile};
use crate::{Metric, Spec};
use std::process::ExitCode;

fn load(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// The values of `metric` for `workload` across `runs`.
fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .num()
        })
        .collect()
}

/// How much worse `head` is than `base` as a share of `base` (negative
/// when better), for a metric with the given direction.
fn worse(m: &Metric, base: f64, head: f64) -> f64 {
    let change = (head - base) / base;
    if m.lower_is_better {
        change
    } else {
        -change
    }
}

fn verdict(m: &Metric, base: &[f64], head: &[f64]) -> (&'static str, f64) {
    let (b, h) = (median(base), median(head));
    let w = worse(m, b, h);
    let spread = if base.len() >= 2 {
        (quantile(base, 0.75) - quantile(base, 0.25)) / b
    } else {
        0.0
    };
    let head_wins = base
        .iter()
        .all(|&x| head.iter().all(|&y| worse(m, x, y) < 0.0));
    let v = if spread > m.bound && !head_wins {
        "unresolved"
    } else if w > m.bound {
        "regressed"
    } else if -w > m.bound || (spread > m.bound && head_wins) {
        "improved"
    } else {
        "within bound"
    };
    (v, w)
}

pub fn compare(base: &str, head: &str, spec: &Spec) -> Result<ExitCode, String> {
    let (base, head) = (load(base)?, load(head)?);
    let workloads: Vec<String> = base
        .first()
        .and_then(|r| r.get("workloads"))
        .and_then(Json::obj)
        .map(|m| m.keys().cloned().collect())
        .unwrap_or_default();
    let mut regressed_any = false;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "head", "worse"
    );
    for w in &workloads {
        let mut regressed = false;
        for m in &spec.end_to_end {
            let (b, h) = (values(&base, w, &m.name), values(&head, w, &m.name));
            if b.is_empty() || h.is_empty() || median(&b) == 0.0 {
                println!(
                    "{w:<14} {:<18} {:>14} {:>14} {:>8}  unresolved",
                    m.name, "-", "-", "-"
                );
                continue;
            }
            let (v, by) = verdict(m, &b, &h);
            regressed |= v == "regressed";
            println!(
                "{w:<14} {:<18} {:>14.6} {:>14.6} {:>7.1}%  {v}",
                m.name,
                median(&b),
                median(&h),
                100.0 * by
            );
        }
        if regressed {
            regressed_any = true;
            let moved = spec
                .per_layer
                .iter()
                .filter_map(|m| {
                    let (b, h) = (values(&base, w, &m.name), values(&head, w, &m.name));
                    let (mb, mh) = (median(&b), median(&h));
                    (!b.is_empty() && !h.is_empty() && mb != 0.0)
                        .then(|| (m, mb, mh, worse(m, mb, mh)))
                })
                .max_by(|x, y| x.3.total_cmp(&y.3));
            match moved {
                Some((m, mb, mh, by)) => println!(
                    "{w:<14} layer that moved most: {} {mb} -> {mh} ({:+.1}% worse)",
                    m.name,
                    100.0 * by
                ),
                None => println!("{w:<14} no per-layer metrics to attribute the regression"),
            }
        }
    }
    Ok(if regressed_any {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool) -> Metric {
        Metric {
            name: "m".to_string(),
            unit: "s".to_string(),
            lower_is_better,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = metric(true);
        assert_eq!(verdict(&lower, &[1.0], &[1.05]).0, "within bound");
        assert_eq!(verdict(&lower, &[1.0], &[1.2]).0, "regressed");
        assert_eq!(verdict(&lower, &[1.0], &[0.8]).0, "improved");
        assert_eq!(verdict(&metric(false), &[1.0], &[0.8]).0, "regressed");
        // A base that disagrees with itself by more than the bound cannot
        // resolve a change, unless every head run beats every base run.
        let noisy = [1.0, 1.3, 0.8, 1.2];
        assert_eq!(verdict(&lower, &noisy, &[1.25]).0, "unresolved");
        assert_eq!(verdict(&lower, &noisy, &[0.5, 0.6]).0, "improved");
    }
}
