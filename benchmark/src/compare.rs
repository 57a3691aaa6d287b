//! `compare`: two sets of result files, one row per metric × workload —
//! medians, quartiles, the ratio with its base, and a verdict against the
//! bounds of `BENCHMARK.json`.

use crate::spec::{Better, Spec};
use crate::stats::Quartiles;
use nitro_metrics::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// How the candidate's runs of one metric stand against the base's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every candidate run beats every base run (at least
    /// [`MIN_RUNS_TO_RESOLVE`] a side), by more than the base's own spread.
    Better,
    /// The candidate's median is worse than the base's by more than the
    /// bound.
    Worse,
    /// Medians agree within the bound and the spread is narrow enough to
    /// say so.
    WithinBound,
    /// Run-to-run spread is wider than the bound: the runs cannot tell.
    Unresolved,
    /// The metric has no bound (per-layer metrics): ratio only.
    NoBound,
}

impl Verdict {
    /// The word printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "no-bound",
        }
    }
}

/// Runs each side needs before "every run beats every run" means anything:
/// with three a side it happens by chance once in twenty, with five once in
/// 252.
pub const MIN_RUNS_TO_RESOLVE: usize = 5;

/// Judge candidate runs `a` against base runs `b` of one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::NoBound;
    };
    let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
    let base = qb.median.abs();
    let worse_by = match better {
        Better::Lower => (qa.median - qb.median) / base,
        Better::Higher => (qb.median - qa.median) / base,
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let enough = a.len().min(b.len()) >= MIN_RUNS_TO_RESOLVE;
    let all_better = enough && a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    let all_worse = enough && a.iter().all(|&x| b.iter().all(|&y| beats(y, x)));
    let spread = qa.spread().max(qb.spread());
    if all_better && -worse_by > qb.spread() {
        Verdict::Better
    } else if worse_by > bound && (all_worse || spread <= bound) {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// `workload → metric → values`, one value per result file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(paths: &[PathBuf]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

fn quartile_cell(q: &Quartiles) -> String {
    format!("{:.5} [{:.5}, {:.5}] n={}", q.median, q.q1, q.q3, q.n)
}

/// Print the comparison table; returns how many rows are `worse`.
pub fn compare(candidate: &[PathBuf], base: &[PathBuf], spec: &Spec) -> Result<usize, String> {
    let (a, b) = (load(candidate)?, load(base)?);
    println!(
        "{:<22} {:<44} {:>40} {:>40} {:>10}  verdict",
        "workload", "metric", "candidate median [q1, q3]", "base median [q1, q3]", "cand/base"
    );
    let mut worse = 0;
    for (workload, base_metrics) in &b {
        let Some(cand_metrics) = a.get(workload) else {
            continue;
        };
        // Spec order first (end-to-end, then per-layer), so tables line up.
        for def in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (Some(av), Some(bv)) = (cand_metrics.get(&def.name), base_metrics.get(&def.name))
            else {
                continue;
            };
            let (qa, qb) = (Quartiles::of(av), Quartiles::of(bv));
            let verdict = judge(av, bv, def.better, def.bound);
            if verdict == Verdict::Worse {
                worse += 1;
            }
            println!(
                "{:<22} {:<44} {:>40} {:>40} {:>10.4}  {}{}",
                workload,
                format!("{} ({})", def.name, def.unit),
                quartile_cell(&qa),
                quartile_cell(&qb),
                qa.median / qb.median,
                verdict.label(),
                def.bound
                    .map_or(String::new(), |bd| format!(" (bound {:.1}%)", bd * 100.0)),
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_within_the_bound() {
        let a = [4.40, 4.45, 4.50];
        let b = [4.42, 4.47, 4.38];
        assert_eq!(
            judge(&a, &b, Better::Higher, Some(0.10)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse_in_either_direction() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        let up = [11.5, 11.6, 11.4, 11.55, 11.45];
        let down = [8.5, 8.6, 8.4, 8.55, 8.45];
        assert_eq!(judge(&up, &base, Better::Lower, Some(0.10)), Verdict::Worse);
        assert_eq!(
            judge(&down, &base, Better::Higher, Some(0.10)),
            Verdict::Worse
        );
        // The same numbers are an improvement the other way round.
        assert_eq!(
            judge(&down, &base, Better::Lower, Some(0.10)),
            Verdict::Better
        );
        // Three runs a side beat each other by chance once in twenty: an
        // improvement is not called on them.
        assert_eq!(
            judge(&down[..3], &base[..3], Better::Lower, Some(0.10)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy_base = [10.0, 13.0, 7.0, 12.0, 8.0];
        assert_eq!(
            judge(
                &[10.5, 9.0, 12.0, 8.5, 11.0],
                &noisy_base,
                Better::Lower,
                Some(0.10)
            ),
            Verdict::Unresolved
        );
        // Every candidate run beats every base run by more than the base's
        // spread: resolved despite the noise.
        assert_eq!(
            judge(
                &[2.0, 2.5, 3.0, 2.2, 2.8],
                &noisy_base,
                Better::Lower,
                Some(0.10)
            ),
            Verdict::Better
        );
        // Every candidate run loses: worse despite the noise.
        assert_eq!(
            judge(
                &[20.0, 25.0, 30.0, 22.0, 28.0],
                &noisy_base,
                Better::Lower,
                Some(0.10)
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn metrics_without_a_bound_get_a_ratio_only() {
        assert_eq!(judge(&[1.0], &[2.0], Better::Lower, None), Verdict::NoBound);
    }
}
