//! What one workload run reports, how timed phases are split into
//! rounds, and how the end-to-end metrics are derived from the rounds.
//!
//! Rounds have identical composition, so the job in a given slot does
//! the same work in every round. The host this benchmark runs on slows
//! down in bursts of seconds to minutes; a burst only ever makes a job
//! slower. So each slot's time is its fastest over the rounds, and the
//! throughputs and the latency median are derived from those best
//! times: a burst has to cover every repetition of a job to move them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use redsim_util::Json;

use crate::catalog::catalog;
use crate::stats::{median, percentile};

/// Minimum rounds per timed phase, so every slot's best time is the
/// best of at least three.
pub const MIN_ROUNDS: usize = 3;

/// Times a workload's set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Ceiling on one timed phase, so a run always ends within a few
/// minutes.
pub const MAX_TIMED: Duration = Duration::from_secs(100);

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the unit `BENCHMARK.json` declares for it.
    pub value: f64,
    /// Samples behind it (the job times behind a rate, the slots behind
    /// a latency median, the repetitions behind a set-up median, pooled
    /// samples for a percentile, 1 for a single measurement).
    pub samples: usize,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Operations attempted (jobs, shards, requests).
    pub attempted: u64,
    /// Operations that failed, plus correctness checks that did not hold.
    pub failed: u64,
    /// One line per failure, for the report.
    pub problems: Vec<String>,
    /// Metric name → value.
    pub metrics: BTreeMap<String, Measured>,
    /// Traced runs: total self time per span name, in ms.
    pub selftime_ms: BTreeMap<String, f64>,
    /// Digest of the simulated outputs, compared against the goldens.
    pub digest: Option<String>,
    /// Further observations for the report (name → value).
    pub notes: BTreeMap<String, Json>,
}

impl WorkloadResult {
    /// An empty result for `workload`.
    #[must_use]
    pub fn new(workload: &str) -> Self {
        WorkloadResult {
            workload: workload.to_owned(),
            ..WorkloadResult::default()
        }
    }

    /// Counts one operation; a failed one is recorded with `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed operation or a correctness check that did not
    /// hold.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Whether every operation succeeded and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics
            .insert(name.to_owned(), Measured { value, samples });
    }

    /// Sets a metric when it has a value; records why it has none
    /// otherwise.
    pub fn set_or_fail(&mut self, name: &str, value: Option<f64>, samples: usize) {
        match value {
            Some(v) => self.set(name, v, samples),
            None => self.fail(format!("{name}: not enough samples ({samples})")),
        }
    }

    /// Sets a metric to the median of `samples`; records why it has none
    /// when there are none.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        let value = (!samples.is_empty()).then(|| median(samples));
        self.set_or_fail(name, value, samples.len());
    }

    /// Adds a note to the report.
    pub fn note(&mut self, name: &str, value: impl Into<Json>) {
        self.notes.insert(name.to_owned(), value.into());
    }

    /// The full record (for `--out` files and the parent process).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, m) in &self.metrics {
            let unit = catalog().metric(name).map_or("", |d| d.unit.as_str());
            metrics = metrics.field(
                name,
                Json::obj()
                    .field("value", m.value)
                    .field("unit", unit)
                    .field("samples", m.samples),
            );
        }
        let mut selftime = Json::obj();
        for (name, ms) in &self.selftime_ms {
            selftime = selftime.field(name, *ms);
        }
        let mut notes = Json::obj();
        for (name, v) in &self.notes {
            notes = notes.field(name, v.clone());
        }
        let mut j = Json::obj()
            .field("workload", self.workload.as_str())
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field(
                "problems",
                self.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect::<Json>(),
            )
            .field("metrics", metrics)
            .field("selftime_ms", selftime)
            .field("notes", notes);
        if let Some(d) = &self.digest {
            j = j.field("digest", d.as_str());
        }
        j
    }

    /// Parses a record written by [`WorkloadResult::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record lacks \"workload\"")?;
        let mut r = WorkloadResult::new(workload);
        r.attempted = j.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        r.failed = j.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(fields)) = j.get("metrics") {
            for (name, m) in fields {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric {name} lacks a value"))?;
                let samples = m.get("samples").and_then(Json::as_u64).unwrap_or(1);
                r.set(name, value, usize::try_from(samples).unwrap_or(usize::MAX));
            }
        }
        if let Some(Json::Obj(fields)) = j.get("selftime_ms") {
            for (name, v) in fields {
                r.selftime_ms
                    .insert(name.clone(), v.as_f64().unwrap_or(0.0));
            }
        }
        if let Some(Json::Arr(items)) = j.get("problems") {
            r.problems = items
                .iter()
                .filter_map(|p| p.as_str().map(str::to_owned))
                .collect();
        }
        if let Some(Json::Obj(fields)) = j.get("notes") {
            r.notes = fields.iter().cloned().collect();
        }
        r.digest = j.get("digest").and_then(Json::as_str).map(str::to_owned);
        Ok(r)
    }
}

/// One finished job of a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTime {
    /// The job's place in the round; it names the same work in every
    /// round.
    pub slot: usize,
    /// Latency as the workload's client saw it, in ms.
    pub ms: f64,
    /// Simulated committed instructions.
    pub insts: u64,
}

/// One round of a timed phase.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the round's measured window.
    pub wall: Duration,
    /// The jobs (or shards) that completed.
    pub jobs: Vec<JobTime>,
}

impl Round {
    /// Simulated committed instructions of the round's jobs.
    #[must_use]
    pub fn insts(&self) -> u64 {
        self.jobs.iter().map(|j| j.insts).sum()
    }
}

/// Runs rounds while the next one, as long as the median round so far,
/// still ends within `seconds`, and at least [`MIN_ROUNDS`] — but stops
/// after [`MAX_TIMED`].
pub fn timed_rounds(seconds: f64, mut round: impl FnMut(usize) -> Round) -> Vec<Round> {
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut took = Vec::new();
    loop {
        let started = Instant::now();
        rounds.push(round(rounds.len()));
        took.push(started.elapsed().as_secs_f64());
        let elapsed = t0.elapsed();
        let next_ends = elapsed.as_secs_f64() + median(&took);
        if (rounds.len() >= MIN_ROUNDS && next_ends > seconds) || elapsed >= MAX_TIMED {
            return rounds;
        }
    }
}

/// Each slot's fastest job over the rounds.
#[must_use]
pub fn best_per_slot(rounds: &[Round]) -> Vec<JobTime> {
    let mut best: BTreeMap<usize, JobTime> = BTreeMap::new();
    for job in rounds.iter().flat_map(|x| &x.jobs) {
        best.entry(job.slot)
            .and_modify(|b| {
                if job.ms < b.ms {
                    *b = *job;
                }
            })
            .or_insert(*job);
    }
    best.into_values().collect()
}

/// Sets the end-to-end metrics from a workload's set-up times, its
/// rounds, the number of jobs its clients keep in flight, and the peak
/// resident set of the process that did the work.
///
/// From each slot's best job: `sim_mips` and `jobs_per_s` are the
/// round's instructions and jobs over the round's busy time (the slots'
/// best latencies, `concurrency` at a time), and `job_latency_p50_ms` is
/// the median best latency. The pooled percentiles of every job and the
/// per-round rates go to the notes.
pub fn set_end_to_end(
    r: &mut WorkloadResult,
    setup_s: &[f64],
    rounds: &[Round],
    concurrency: usize,
    peak_rss: Option<f64>,
) {
    r.set_median("setup_s", setup_s);
    let best = best_per_slot(rounds);
    let lat: Vec<f64> = best.iter().map(|j| j.ms).collect();
    let samples: usize = rounds.iter().map(|x| x.jobs.len()).sum();
    let busy_s = lat.iter().sum::<f64>() / 1e3 / concurrency.max(1) as f64;
    let rate = |work: f64| (busy_s > 0.0).then(|| work / busy_s);
    let insts: u64 = best.iter().map(|j| j.insts).sum();
    r.set_or_fail("sim_mips", rate(insts as f64 / 1e6), samples);
    r.set_or_fail("jobs_per_s", rate(best.len() as f64), samples);
    r.set_median("job_latency_p50_ms", &lat);
    r.set_or_fail("peak_rss_mib", peak_rss, 1);
    r.note("rounds", rounds.len());
    r.note(
        "round_sim_mips",
        rounds
            .iter()
            .filter(|x| x.wall > Duration::ZERO)
            .map(|x| Json::from(x.insts() as f64 / 1e6 / x.wall.as_secs_f64()))
            .collect::<Json>(),
    );
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|x| x.jobs.iter().map(|j| j.ms))
        .collect();
    for p in [50, 90] {
        if let Some(v) = percentile(&pooled, p) {
            r.note(&format!("pooled_latency_p{p}_ms"), v);
        }
    }
}

/// Milliseconds as a float.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round of four jobs with the given latencies (ms), 1 M
    /// instructions each.
    fn round(ms: [f64; 4]) -> Round {
        Round {
            wall: Duration::from_millis(100),
            jobs: ms
                .iter()
                .enumerate()
                .map(|(slot, &ms)| JobTime {
                    slot,
                    ms,
                    insts: 1_000_000,
                })
                .collect(),
        }
    }

    #[test]
    fn end_to_end_metrics_come_from_each_slots_best_job() {
        let rounds = [
            round([100.0, 200.0, 300.0, 400.0]),
            round([150.0, 100.0, 900.0, 400.0]),
            round([100.0, 300.0, 200.0, 800.0]),
        ];
        let best: Vec<f64> = best_per_slot(&rounds).iter().map(|j| j.ms).collect();
        assert_eq!(best, [100.0, 100.0, 200.0, 400.0]);
        let mut r = WorkloadResult::new("w");
        set_end_to_end(&mut r, &[0.3, 0.1, 0.2], &rounds, 1, Some(64.0));
        assert_eq!(r.metrics["setup_s"].value, 0.2);
        assert_eq!(
            r.metrics["sim_mips"].value, 5.0,
            "4 M instructions in 0.8 s"
        );
        assert_eq!(r.metrics["jobs_per_s"].value, 5.0);
        assert_eq!(r.metrics["jobs_per_s"].samples, 12);
        assert_eq!(r.metrics["job_latency_p50_ms"].value, 150.0);
        assert_eq!(r.metrics["job_latency_p50_ms"].samples, 4);
        assert!(r.correct());

        let mut two = WorkloadResult::new("w");
        set_end_to_end(&mut two, &[0.1], &rounds, 2, Some(1.0));
        assert_eq!(two.metrics["jobs_per_s"].value, 10.0, "two jobs in flight");

        let mut none = WorkloadResult::new("w");
        set_end_to_end(&mut none, &[0.1], &[], 1, Some(1.0));
        assert!(!none.metrics.contains_key("sim_mips"));
        assert!(!none.correct());
    }

    #[test]
    fn timed_rounds_stop_before_the_next_round_would_overrun() {
        let mut calls = 0;
        let rounds = timed_rounds(0.0, |_| {
            calls += 1;
            Round::default()
        });
        assert_eq!((rounds.len(), calls), (MIN_ROUNDS, MIN_ROUNDS));
        let rounds = timed_rounds(0.25, |_| {
            std::thread::sleep(Duration::from_millis(40));
            Round::default()
        });
        assert!((MIN_ROUNDS..=6).contains(&rounds.len()), "{}", rounds.len());
    }

    #[test]
    fn records_round_trip() {
        let mut r = WorkloadResult::new("serve-cold");
        r.op(true, String::new);
        r.op(false, || "boom".into());
        r.set("sim_mips", 3.5, 4);
        r.selftime_ms.insert("core.run_source".into(), 12.5);
        r.digest = Some("00ff".into());
        r.note("rounds", 4u64);
        let back = WorkloadResult::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.to_json().to_string(), r.to_json().to_string());
        assert_eq!((back.attempted, back.failed), (2, 1));
    }
}
