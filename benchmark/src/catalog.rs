//! The metric and workload catalog, read from the repository's
//! `BENCHMARK.json` at compile time so names, units, directions and
//! regression bounds are defined in exactly one place.

use std::sync::OnceLock;

use redsim_util::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name as it appears in every output.
    pub name: String,
    /// Unit spelling.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which have no bound).
    pub bound: Option<f64>,
}

impl MetricDef {
    /// How much worse `new` is than `base`, as a share of `base`
    /// (positive = worse, negative = better), honouring the direction.
    #[must_use]
    pub fn worsening(&self, base: f64, new: f64) -> f64 {
        let delta = (new - base) / base.abs().max(f64::MIN_POSITIVE);
        match self.better {
            Better::Lower => delta,
            Better::Higher => -delta,
        }
    }
}

/// Everything `BENCHMARK.json` declares that the benchmark uses.
#[derive(Debug)]
pub struct Catalog {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with tracing off).
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics (reported by the traced run).
    pub per_layer: Vec<MetricDef>,
    /// Measured seconds per run; the default of `--seconds`.
    pub run_seconds: u64,
}

impl Catalog {
    /// Looks a metric up in either table.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn parse_metrics(j: &Json, key: &str) -> Vec<MetricDef> {
    j.get(key)
        .and_then(Json::items)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json {key} entry lacks {k}"))
                    .to_owned()
            };
            MetricDef {
                name: s("name"),
                unit: s("unit"),
                better: match s("better").as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => panic!("BENCHMARK.json: unknown direction {other:?}"),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// The catalog, parsed once.
///
/// # Panics
///
/// Panics if the compiled-in `BENCHMARK.json` is malformed — a defect in
/// the repository, caught by the unit tests.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let j = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Catalog {
            workloads: j
                .get("workloads")
                .and_then(Json::items)
                .expect("BENCHMARK.json lists workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("workload name")
                        .to_owned()
                })
                .collect(),
            end_to_end: parse_metrics(&j, "end_to_end"),
            per_layer: parse_metrics(&j, "per_layer"),
            run_seconds: j
                .get("run_seconds")
                .and_then(Json::as_u64)
                .expect("BENCHMARK.json sets run_seconds"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_parses_and_every_bound_is_a_share() {
        let c = catalog();
        let names: Vec<&str> = crate::plan::Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            c.workloads, names,
            "BENCHMARK.json lists the workloads the code runs"
        );
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s"));
        let largest = c
            .end_to_end
            .iter()
            .map(|m| m.bound.expect("end-to-end metrics carry a bound"))
            .fold(0.0, f64::max);
        for m in &c.end_to_end {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert_eq!(
            c.metric("setup_s").and_then(|m| m.bound),
            Some(largest),
            "set-up time carries the largest bound"
        );
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn worsening_honours_direction() {
        let lower = MetricDef {
            name: "t".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound: Some(0.1),
        };
        let higher = MetricDef {
            better: Better::Higher,
            ..lower.clone()
        };
        assert!((lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((higher.worsening(10.0, 11.0) + 0.1).abs() < 1e-12);
    }
}
