//! `compare` judges two sets of benchmark runs by the pairs rule, and
//! `perturb` fakes a slower build so the judgement can be tested.
//!
//! The rule, per (workload, end-to-end metric), over at least
//! [`MIN_PAIRS`] pairs of runs taken alternately on the two sides:
//!
//! * **gain** — the new side wins at least nine in ten pairs (ties count
//!   for neither) and the medians differ by more than the distance
//!   between the base side's quartiles;
//! * **regression** — the new median is worse than the base median by
//!   more than the metric's bound;
//! * **unresolved** — the base side's spread (quartile distance over
//!   median) is wider than the bound, unless every new run reads better
//!   than every base run;
//! * **flat** — otherwise.

use std::path::Path;

use redsim_util::Json;

use crate::catalog::{catalog, Better, MetricDef};
use crate::report::WorkloadResult;
use crate::stats::{median, quartiles};

/// Fewest pairs a comparison accepts.
pub const MIN_PAIRS: usize = 10;

/// Share of pairs the new side must win to claim a gain.
pub const GAIN_SHARE: f64 = 0.9;

/// One benchmark run: every workload it ran.
pub type Run = Vec<WorkloadResult>;

/// The document `run --out` writes: the run's settings and every
/// workload's full record.
#[must_use]
pub fn document(results: &[WorkloadResult], seed: u64, trace: bool, seconds: f64) -> Json {
    Json::obj()
        .field("seed", seed)
        .field("trace", trace)
        .field("seconds", seconds)
        .field(
            "workloads",
            results
                .iter()
                .map(WorkloadResult::to_json)
                .collect::<Json>(),
        )
}

/// Parses a run document.
///
/// # Errors
///
/// A description of the first malformed record.
pub fn parse_document(j: &Json) -> Result<Run, String> {
    j.get("workloads")
        .and_then(Json::items)
        .ok_or("run document lacks \"workloads\"")?
        .iter()
        .map(WorkloadResult::from_json)
        .collect()
}

/// Loads runs from a directory (every `*.json` file, by name, one run
/// each) or from a file holding one run document per line.
///
/// # Errors
///
/// Unreadable paths or malformed documents.
pub fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let texts = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
            .iter()
            .map(|f| std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display())))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        vec![std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?]
    };
    let mut runs = Vec::new();
    for text in &texts {
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let j = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(parse_document(&j)?);
        }
    }
    Ok(runs)
}

/// The judgement of one (workload, metric) pair of samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new side is better by the pairs rule.
    Gain,
    /// The new median is worse by more than the bound.
    Regression,
    /// The base side's own spread is wider than the bound.
    Unresolved,
    /// Within the bound.
    Flat,
}

impl Verdict {
    /// Lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Flat => "flat",
        }
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Base side's quartiles.
    pub base: [f64; 3],
    /// New side's quartiles.
    pub new: [f64; 3],
    /// Pairs the new side won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// How much worse the new median is, as a share of the base median.
    pub worse: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// The span whose self time moved most within one workload.
#[derive(Debug, Clone)]
pub struct SelfTimeMove {
    /// Workload.
    pub workload: String,
    /// Span name.
    pub span: String,
    /// Base side's median self time, ms.
    pub base_ms: f64,
    /// New side's median self time, ms.
    pub new_ms: f64,
}

/// Everything a comparison found.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// One row per (workload, end-to-end metric).
    pub rows: Vec<Row>,
    /// Per workload, the largest self-time move (traced runs only).
    pub moves: Vec<SelfTimeMove>,
}

impl Comparison {
    /// Whether any metric regressed.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regression)
    }
}

/// Judges one metric's paired samples.
#[must_use]
pub fn judge(def: &MetricDef, base: &[f64], new: &[f64]) -> (Verdict, usize, f64) {
    let (b, n) = (quartiles(base), quartiles(new));
    let wins = base
        .iter()
        .zip(new)
        .filter(|(&x, &y)| def.worsening(x, y) < 0.0)
        .count();
    let worse = def.worsening(b[1], n[1]);
    let bound = def.bound.unwrap_or(0.0);
    let iqr = b[2] - b[0];
    let spread = iqr / b[1].abs().max(f64::MIN_POSITIVE);
    let fold = |f: fn(f64, f64) -> f64, xs: &[f64]| xs.iter().copied().reduce(f).unwrap_or(0.0);
    let all_better = match def.better {
        Better::Lower => fold(f64::max, new) < fold(f64::min, base),
        Better::Higher => fold(f64::min, new) > fold(f64::max, base),
    };
    let verdict = if wins as f64 >= GAIN_SHARE * base.len() as f64 && (n[1] - b[1]).abs() > iqr {
        Verdict::Gain
    } else if worse > bound {
        Verdict::Regression
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Flat
    };
    (verdict, wins, worse)
}

fn find<'a>(run: &'a Run, workload: &str) -> Option<&'a WorkloadResult> {
    run.iter().find(|r| r.workload == workload)
}

/// Compares paired runs.
///
/// # Errors
///
/// Unequal sides or fewer than [`MIN_PAIRS`] pairs.
pub fn compare(base: &[Run], new: &[Run]) -> Result<Comparison, String> {
    if base.len() != new.len() || base.len() < MIN_PAIRS {
        return Err(format!(
            "need the same number of runs on each side, at least {MIN_PAIRS}; got {} and {}",
            base.len(),
            new.len()
        ));
    }
    let mut out = Comparison::default();
    let Some(first) = base.first() else {
        return Ok(out);
    };
    for w in first.iter().map(|r| r.workload.as_str()) {
        let sides = |runs: &[Run], name: &str| -> Option<Vec<f64>> {
            runs.iter()
                .map(|run| find(run, w)?.metrics.get(name).map(|m| m.value))
                .collect()
        };
        for def in &catalog().end_to_end {
            let (Some(b), Some(n)) = (sides(base, &def.name), sides(new, &def.name)) else {
                continue;
            };
            let (verdict, wins, worse) = judge(def, &b, &n);
            out.rows.push(Row {
                workload: w.to_owned(),
                metric: def.name.clone(),
                base: quartiles(&b),
                new: quartiles(&n),
                wins,
                pairs: b.len(),
                worse,
                verdict,
            });
        }
        let spans: Vec<&String> = find(&base[0], w)
            .map(|r| r.selftime_ms.keys().collect())
            .unwrap_or_default();
        let selftimes = |runs: &[Run], span: &str| -> Option<Vec<f64>> {
            runs.iter()
                .map(|run| find(run, w)?.selftime_ms.get(span).copied())
                .collect()
        };
        let moved = spans
            .into_iter()
            .filter_map(|s| {
                let (b, n) = (selftimes(base, s)?, selftimes(new, s)?);
                Some(SelfTimeMove {
                    workload: w.to_owned(),
                    span: s.clone(),
                    base_ms: median(&b),
                    new_ms: median(&n),
                })
            })
            .max_by(|a, b| {
                (a.new_ms - a.base_ms)
                    .abs()
                    .total_cmp(&(b.new_ms - b.base_ms).abs())
            });
        out.moves.extend(moved);
    }
    Ok(out)
}

/// Renders a comparison: one row per workload (each metric's change and
/// verdict), the quartiles behind every cell, and the span whose self
/// time moved most.
#[must_use]
pub fn render(c: &Comparison) -> String {
    let metrics: Vec<&str> = catalog()
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    let mut out = format!("{:<16}", "workload");
    for m in &metrics {
        out.push_str(&format!(" {m:>22}"));
    }
    out.push('\n');
    let mut workloads: Vec<&str> = c.rows.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    for w in workloads {
        out.push_str(&format!("{w:<16}"));
        for m in &metrics {
            let cell = c
                .rows
                .iter()
                .find(|r| r.workload == w && r.metric == *m)
                .map_or_else(
                    || "-".to_owned(),
                    |r| format!("{:+.1}% {}", r.worse * 100.0, r.verdict.label()),
                );
            out.push_str(&format!(" {cell:>22}"));
        }
        out.push('\n');
    }
    out.push_str("\n(+ is worse; base and new: median [q1, q3] over the pairs)\n");
    for r in &c.rows {
        out.push_str(&format!(
            "{:<16} {:<20} base {:.4} [{:.4}, {:.4}]  new {:.4} [{:.4}, {:.4}]  new won {}/{}\n",
            r.workload,
            r.metric,
            r.base[1],
            r.base[0],
            r.base[2],
            r.new[1],
            r.new[0],
            r.new[2],
            r.wins,
            r.pairs
        ));
    }
    for m in &c.moves {
        out.push_str(&format!(
            "{}: self time moved most in {}: {:.3} ms -> {:.3} ms ({:+.3} ms)\n",
            m.workload,
            m.span,
            m.base_ms,
            m.new_ms,
            m.new_ms - m.base_ms
        ));
    }
    if c.moves.is_empty() {
        out.push_str("no traced runs, so no self-time comparison\n");
    }
    out
}

/// Makes every end-to-end metric of a run document `factor` times worse
/// (times and memory multiplied, rates divided).
///
/// # Errors
///
/// A malformed document.
pub fn perturb(doc: &Json, factor: f64) -> Result<Json, String> {
    let mut run = parse_document(doc)?;
    for r in &mut run {
        for def in &catalog().end_to_end {
            if let Some(m) = r.metrics.get_mut(&def.name) {
                m.value = match def.better {
                    Better::Lower => m.value * factor,
                    Better::Higher => m.value / factor,
                };
            }
        }
    }
    let mut out = doc.clone();
    out.set(
        "workloads",
        run.iter().map(WorkloadResult::to_json).collect::<Json>(),
    )
    .map_err(|e| e.to_string())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Kind;

    /// Ten runs of every workload with a deterministic ±0.5% wobble.
    fn base_runs() -> Vec<Json> {
        (0..10u32)
            .map(|i| {
                let wobble = 1.0 + (f64::from(i % 5) - 2.0) * 0.0025;
                let results: Vec<WorkloadResult> = Kind::ALL
                    .iter()
                    .map(|k| {
                        let mut r = WorkloadResult::new(k.name());
                        for (j, def) in catalog().end_to_end.iter().enumerate() {
                            r.set(&def.name, (j + 1) as f64 * 10.0 * wobble, 10);
                        }
                        r.selftime_ms.insert("core.sie".into(), 100.0 * wobble);
                        r.selftime_ms.insert("isa.emu".into(), 50.0);
                        r
                    })
                    .collect();
                document(&results, i.into(), false, 10.0)
            })
            .collect()
    }

    fn runs(docs: &[Json]) -> Vec<Run> {
        docs.iter()
            .map(|d| parse_document(d).expect("parses"))
            .collect()
    }

    /// The smallest slowdown factor that makes `def` worse than its
    /// bound: times grow by the factor, rates shrink by it.
    fn tripping_factor(def: &MetricDef) -> f64 {
        let b = def.bound.expect("end-to-end bound");
        match def.better {
            Better::Lower => 1.0 + b,
            Better::Higher => 1.0 / (1.0 - b),
        }
    }

    fn compare_perturbed(factor: f64) -> Comparison {
        let base = base_runs();
        let new: Vec<Json> = base
            .iter()
            .map(|d| perturb(d, factor).expect("perturbs"))
            .collect();
        compare(&runs(&base), &runs(&new)).expect("compares")
    }

    #[test]
    fn a_slowdown_beyond_every_bound_trips_every_end_to_end_metric() {
        let factor = catalog()
            .end_to_end
            .iter()
            .map(tripping_factor)
            .fold(1.0, f64::max)
            * 1.02;
        let c = compare_perturbed(factor);
        assert_eq!(c.rows.len(), Kind::ALL.len() * catalog().end_to_end.len());
        for r in &c.rows {
            assert_eq!(
                r.verdict,
                Verdict::Regression,
                "x{factor}: {} {}",
                r.workload,
                r.metric
            );
        }
        assert!(c.regressed());
        assert!(render(&c).contains("REGRESSION"));
    }

    #[test]
    fn a_slowdown_inside_every_bound_trips_nothing() {
        let smallest = catalog()
            .end_to_end
            .iter()
            .map(tripping_factor)
            .fold(f64::MAX, f64::min);
        for factor in [1.0, 1.0 + (smallest - 1.0) / 2.0] {
            let c = compare_perturbed(factor);
            assert!(!c.rows.is_empty());
            assert!(!c.regressed(), "x{factor}\n{}", render(&c));
            assert!(
                c.rows.iter().all(|r| r.verdict == Verdict::Flat),
                "x{factor}\n{}",
                render(&c)
            );
            assert_eq!(c.moves.len(), Kind::ALL.len());
        }
    }

    #[test]
    fn gains_need_nine_wins_in_ten_and_unresolved_needs_a_wide_spread() {
        let def = catalog().metric("sim_mips").expect("declared").clone();
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&def, &base, &faster).0, Verdict::Gain);
        let mut mixed = faster.clone();
        mixed[0] = 50.0;
        mixed[1] = 50.0;
        assert_ne!(
            judge(&def, &base, &mixed).0,
            Verdict::Gain,
            "only 8 of 10 wins"
        );
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 60.0 } else { 140.0 })
            .collect();
        assert_eq!(judge(&def, &noisy, &noisy).0, Verdict::Unresolved);
        assert!(compare(&[], &[]).is_err(), "too few pairs");
    }
}
