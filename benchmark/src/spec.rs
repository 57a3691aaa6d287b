//! `BENCHMARK.json` as the harness sees it. The file at the repository
//! root is compiled in, so the names, units, directions and bounds the
//! harness prints and `compare` judges by are the committed ones — there is
//! no second table to drift.

use nitro_metrics::Json;

/// The committed benchmark definition.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// One workload of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadDef {
    /// Workload name.
    pub name: String,
    /// Why the workload is in the benchmark.
    pub why: String,
}

/// The parsed definition.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadDef>,
    /// End-to-end metrics, reported by `run`.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics, reported by `trace`.
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let str_of = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without \"{k}\""))
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key}"))?
        .iter()
        .map(|m| {
            let better = match str_of(m, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: better = {other:?}")),
            };
            Ok(MetricDef {
                name: str_of(m, "name")?,
                unit: str_of(m, "unit")?,
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parse a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: missing workloads")?
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).map(str::to_string);
                Some(WorkloadDef {
                    name: field("name")?,
                    why: field("why")?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: workload without name or why")?;
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads,
            end_to_end: metric_defs(&doc, "end_to_end")?,
            per_layer: metric_defs(&doc, "per_layer")?,
        })
    }

    /// The definition committed with this source tree.
    pub fn committed() -> Self {
        Self::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_file_meets_the_contract() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);

        let spec = Spec::committed();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        // 4 + 22 x workloads runs (with set-up) and two builds fit the cap.
        let runs = 4 + 22 * spec.workloads.len() as u64;
        assert!(runs * (spec.run_seconds + 12) + 2 * 120 <= 3420);

        let mut names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        for w in &spec.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for m in &spec.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn committed_file_names_what_the_issue_names() {
        let spec = Spec::committed();
        let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            workloads,
            [
                "aio_minsize_p01",
                "aio_caida_p100",
                "fleet_saturated_p10",
                "cluster_durable_p01"
            ]
        );
        assert_eq!(spec.end_to_end.len(), 9);
        assert_eq!(spec.per_layer.len(), 73);
    }

    #[test]
    fn malformed_definitions_are_rejected() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse("not json").is_err());
        let bad_direction = r#"{"run_seconds": 1, "workloads": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "sideways", "bound": 0.1}],
            "per_layer": []}"#;
        assert!(Spec::parse(bad_direction).is_err());
    }
}
