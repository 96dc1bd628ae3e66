//! Runs the real binary at the test-only smoke size — all four
//! workloads, untraced and traced, plus one workload in the
//! single-workload form `BENCHMARK.json`'s command uses — and checks the output's shape and that the
//! correctness gate is green.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use redsim_benchmark::catalog::catalog;
use redsim_benchmark::plan::Kind;
use redsim_util::Json;

/// A scratch working directory, removed afterwards.
struct Cwd(PathBuf);

impl Cwd {
    fn new(tag: &str) -> Cwd {
        let d = std::env::temp_dir().join(format!("redsim-benchmark-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("scratch directory");
        Cwd(d)
    }
}

impl Drop for Cwd {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the benchmark in `cwd`; returns the closing JSON line, the
/// whole standard output and the wall time.
fn run(cwd: &Cwd, args: &[&str]) -> (Json, String, Duration) {
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-benchmark"))
        .args(args)
        .current_dir(&cwd.0)
        .output()
        .expect("benchmark runs");
    let wall = t0.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    (Json::parse(last).expect("last line is JSON"), stdout, wall)
}

/// Checks the closing line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, a green gate, and exactly the expected metric
/// names, each a finite value with its declared unit — positive unless
/// it is a percentage or listed in `signed` (counts that may be zero,
/// differences that may be negative).
fn check_summary(j: &Json, names: &[String], signed: &[&str]) {
    let Json::Obj(fields) = j else {
        panic!("not an object: {j}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true), "{j}");
    assert_eq!(j.get("failed").and_then(Json::as_u64), Some(0));
    assert!(j.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = j.get("metrics") else {
        panic!("no metrics")
    };
    let got: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
    assert_eq!(got, names.iter().collect::<Vec<_>>());
    for (name, m) in metrics {
        let Json::Obj(parts) = m else {
            panic!("{name}: {m}")
        };
        let keys: Vec<&str> = parts.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
        let base = name.rsplit('/').next().unwrap_or(name);
        let def = catalog().metric(base).expect("declared metric");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(def.unit.as_str())
        );
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{name} = {v}");
        if !signed.contains(&base) && def.unit != "%" {
            assert!(v > 0.0, "{name} = {v}");
        }
    }
}

fn prefixed(defs: &[redsim_benchmark::catalog::MetricDef]) -> Vec<String> {
    Kind::ALL
        .iter()
        .flat_map(|k| defs.iter().map(move |d| format!("{}/{}", k.name(), d.name)))
        .collect()
}

#[test]
fn all_four_workloads_run_green_at_smoke_size() {
    let cwd = Cwd::new("smoke");
    let (j, stdout, wall) = run(&cwd, &["run", "--smoke", "--seconds", "0"]);
    check_summary(&j, &prefixed(&catalog().end_to_end), &[]);
    for def in &catalog().end_to_end {
        assert!(stdout.contains(&def.name), "the table names {}", def.name);
    }
    assert!(wall < Duration::from_secs(30), "smoke run took {wall:?}");
    let leftovers: Vec<_> = std::fs::read_dir(cwd.0.join("target/benchmark"))
        .expect("state root exists")
        .collect();
    assert!(leftovers.is_empty(), "state left behind: {leftovers:?}");
}

#[test]
fn a_single_workload_run_reports_unprefixed_end_to_end_metrics() {
    let cwd = Cwd::new("single");
    let (j, _, _) = run(
        &cwd,
        &[
            "--workload",
            "serve-cold",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ],
    );
    let names: Vec<String> = catalog()
        .end_to_end
        .iter()
        .map(|d| d.name.clone())
        .collect();
    check_summary(&j, &names, &[]);
}

#[test]
fn the_traced_run_reports_every_layer_metric_and_sane_spans() {
    let cwd = Cwd::new("traced");
    let (j, stdout, _) = run(&cwd, &["run", "--smoke", "--trace"]);
    check_summary(
        &j,
        &prefixed(&catalog().per_layer),
        &[
            "serve.store.builds",
            "serve.store.disk_hits",
            "serve.store.mem_hits",
            "serve.queue_overhead_ms_p50",
            "core.profiler_overhead",
        ],
    );
    assert!(stdout.contains("tracing_overhead_pct"));
    let text =
        std::fs::read_to_string(cwd.0.join("target/benchmark/trace.json")).expect("trace.json");
    let trace = Json::parse(&text).expect("trace.json is JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::items)
        .expect("events");
    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(spans.len() > 100, "{} spans", spans.len());
    for s in spans {
        let args = s.get("args").expect("span args");
        let self_us = args
            .get("self_us")
            .and_then(Json::as_f64)
            .expect("self time");
        let dur = s.get("dur").and_then(Json::as_f64).expect("duration");
        assert!(self_us >= 0.0 && self_us <= dur + 1e-9, "{s}");
    }
    for k in Kind::ALL {
        let label = format!("\"name\":\"{}\"", k.name());
        assert!(text.contains(&label), "process lane for {}", k.name());
    }
}
