//! Crash-consistency and cache-effectiveness tests for the serve
//! daemon.
//!
//! The central property: the compacted journal of a fully drained
//! server is a pure function of the submitted specs — independent of
//! worker count, and independent of any `kill -9` schedule, provided
//! the client replays its submissions after a crash (which is safe
//! because submission is idempotent on the spec fingerprint). The
//! kill sweep drives a [`ChaosIo`] kill boundary across *every*
//! journal/store write operation of a run and requires the restarted
//! server to drain to the byte-identical reference journal.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use redsim_core::ExecMode;
use redsim_serve::engine::{Engine, EngineOptions};
use redsim_serve::net::{serve_tcp, Client};
use redsim_serve::spec::JobSpec;
use redsim_util::io::{ChaosConfig, ChaosIo, Io, RealIo};
use redsim_util::Json;
use redsim_workloads::Workload;

fn test_dir(tag: &str) -> PathBuf {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let d = base.join(format!("serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The submission workload of the recovery tests: distinct specs,
/// two of which share one committed-path trace (same workload and
/// sizing, different mode).
fn specs() -> Vec<JobSpec> {
    let mut watchdogged = JobSpec::new(Workload::Mcf, ExecMode::Die);
    watchdogged.watchdog = Some(50_000_000);
    vec![
        JobSpec::new(Workload::Gzip, ExecMode::Sie),
        JobSpec::new(Workload::Gzip, ExecMode::DieIrb),
        watchdogged,
        JobSpec::new(Workload::Parser, ExecMode::SieIrb),
    ]
}

fn options(workers: usize) -> EngineOptions {
    EngineOptions {
        workers,
        ..EngineOptions::default()
    }
}

/// Submits every spec (ignoring failures — under a chaos kill the
/// tail of the submissions is refused), drains, and closes. Returns
/// whether every step succeeded.
fn run_session(io: Arc<dyn Io>, dir: &Path, workers: usize, specs: &[JobSpec]) -> bool {
    let engine = match Engine::open(io, dir, options(workers)) {
        Ok(e) => e,
        Err(_) => return false,
    };
    let mut clean = true;
    for spec in specs {
        clean &= engine.submit(spec).is_ok();
    }
    clean &= engine.drain().is_ok();
    clean &= engine.close().is_ok();
    clean
}

fn journal_bytes(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("jobs.progress.jsonl")).expect("journal exists")
}

#[test]
fn drained_journal_is_byte_identical_across_worker_counts() {
    let specs = specs();
    let d1 = test_dir("workers-1");
    let d4 = test_dir("workers-4");
    assert!(run_session(Arc::new(RealIo), &d1, 1, &specs));
    assert!(run_session(Arc::new(RealIo), &d4, 4, &specs));
    let reference = journal_bytes(&d1);
    assert_eq!(reference, journal_bytes(&d4));
    assert!(
        reference.lines().count() == 1 + 2 * specs.len(),
        "header + one job and one done record per spec"
    );
    // Every result is a success.
    assert!(reference.matches("\"ok\":true").count() == specs.len());
}

#[test]
fn kill_at_every_write_boundary_then_restart_drains_byte_identical() {
    let specs = specs();

    // Reference: an uninterrupted run.
    let ref_dir = test_dir("kill-ref");
    assert!(run_session(Arc::new(RealIo), &ref_dir, 2, &specs));
    let reference = journal_bytes(&ref_dir);

    // Probe: count the write-path operations of a clean run.
    let probe_dir = test_dir("kill-probe");
    let probe = ChaosIo::new(Arc::new(RealIo), ChaosConfig::quiet(0));
    assert!(run_session(Arc::new(probe.clone()), &probe_dir, 2, &specs));
    let ops = probe.ops();
    assert!(ops > 10, "the run must cross many write boundaries: {ops}");

    // Sweep a hard kill across every boundary. After each kill the
    // "restarted process" (RealIo on the same dir) replays the full
    // submission list — idempotent — and must converge on the
    // reference journal exactly.
    for kill_at in 0..=ops {
        let dir = test_dir(&format!("kill-{kill_at}"));
        let chaos = ChaosIo::new(
            Arc::new(RealIo),
            ChaosConfig {
                kill_after_ops: Some(kill_at),
                ..ChaosConfig::quiet(0)
            },
        );
        let clean = run_session(Arc::new(chaos.clone()), &dir, 2, &specs);
        assert!(
            !clean || !chaos.killed(),
            "a killed run must report a failure (kill_at={kill_at})"
        );
        assert!(
            run_session(Arc::new(RealIo), &dir, 2, &specs),
            "restart after kill_at={kill_at} must recover"
        );
        assert_eq!(
            journal_bytes(&dir),
            reference,
            "kill_at={kill_at}: restarted drain diverged from the reference journal"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn repeat_submissions_never_reassemble_or_reemulate() {
    let dir = test_dir("cache");
    let io: Arc<dyn Io> = Arc::new(RealIo);
    let sie = JobSpec::new(Workload::Gzip, ExecMode::Sie);
    let die_irb = JobSpec::new(Workload::Gzip, ExecMode::DieIrb);
    let die = JobSpec::new(Workload::Gzip, ExecMode::Die);

    let engine = Engine::open(Arc::clone(&io), &dir, options(1)).expect("open");
    let (id0, cached) = engine.submit(&sie).expect("submit");
    assert!(!cached);
    engine.drain().expect("drain");
    assert_eq!(engine.store_stats().builds, 1, "first job builds the trace");
    // The memory tier's gauge reports the trace recipe's real footprint:
    // its program's bytes.
    let program_bytes = Workload::Gzip
        .trace(sie.params(), Workload::TRACE_BUDGET)
        .expect("trace")
        .heap_bytes();
    let resident = format!("\nserve_trace_cache_resident_bytes {program_bytes}\n");
    let prom = engine.metrics_registry().to_prometheus();
    assert!(prom.contains(&resident), "{prom}");

    // Identical re-submission: same id, result already in hand, no
    // queue work at all.
    let (id0_again, cached) = engine.submit(&sie).expect("resubmit");
    assert!(cached, "identical spec deduplicates");
    assert_eq!(id0_again, id0);
    assert!(engine.result(id0).is_some());

    // A different mode over the same workload reuses the in-memory
    // trace: no new build.
    engine.submit(&die_irb).expect("submit");
    engine.drain().expect("drain");
    let stats = engine.store_stats();
    assert_eq!(stats.builds, 1, "the trace is mode-independent");
    assert_eq!(stats.mem_hits, 1);
    engine.close().expect("close");

    // A fresh process finds both the persisted trace and the journaled
    // results: a third mode deserializes the trace instead of
    // re-emulating, and replayed submissions are answered instantly.
    let engine = Engine::open(io, &dir, options(1)).expect("reopen");
    let (_, cached) = engine.submit(&sie).expect("replay");
    assert!(cached, "journaled results survive restart");
    engine.submit(&die).expect("submit");
    engine.drain().expect("drain");
    let stats = engine.store_stats();
    assert_eq!(stats.builds, 0, "no re-assembly, no re-emulation");
    assert_eq!(
        stats.disk_hits, 1,
        "served from the content-addressed store"
    );
    let prom = engine.metrics_registry().to_prometheus();
    assert!(
        prom.contains(&resident),
        "a disk hit decodes to the same footprint: {prom}"
    );
    engine.close().expect("close");
}

#[test]
fn tcp_protocol_round_trip_and_http_metrics() {
    let dir = test_dir("tcp");
    let engine = Arc::new(Engine::open(Arc::new(RealIo), &dir, options(2)).expect("open"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || serve_tcp(&engine, &listener).expect("accept loop"))
    };

    let mut client = Client::connect(&format!("tcp {addr}")).expect("connect");
    let pong = client
        .request(&Json::obj().field("op", "ping"))
        .expect("ping");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    let spec = Json::parse(&JobSpec::new(Workload::Gzip, ExecMode::DieIrb).canonical())
        .expect("spec json");
    let submitted = client
        .request(&Json::obj().field("op", "submit").field("spec", spec))
        .expect("submit");
    assert_eq!(submitted.get("ok").and_then(Json::as_bool), Some(true));
    let id = submitted.get("id").and_then(Json::as_u64).expect("id");

    let done = client
        .request(
            &Json::obj()
                .field("op", "wait")
                .field("id", id)
                .field("timeout_ms", 120_000u64),
        )
        .expect("wait");
    assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));
    let res = done.get("res").expect("result payload");
    assert_eq!(res.get("ok").and_then(Json::as_bool), Some(true));
    assert!(res.get("cycles").and_then(Json::as_u64).unwrap_or(0) > 0);

    // Malformed requests keep the connection usable.
    let err = client
        .request(&Json::obj().field("op", "wait"))
        .expect("error response");
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));

    let metrics = client
        .request(&Json::obj().field("op", "metrics"))
        .expect("metrics");
    let text = metrics
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("exposition");
    assert!(text.contains("serve_jobs_submitted_total 1"), "{text}");
    assert!(text.contains("serve_trace_cache_builds_total 1"), "{text}");

    // A plain HTTP scrape gets the same exposition.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).expect("http connect");
        raw.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("http request");
        let mut body = String::new();
        raw.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        raw.read_to_string(&mut body).expect("http response");
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(
            body.contains("# TYPE serve_job_latency_ms histogram"),
            "{body}"
        );
    }

    let stopping = client
        .request(&Json::obj().field("op", "shutdown"))
        .expect("shutdown");
    assert_eq!(stopping.get("stopping").and_then(Json::as_bool), Some(true));
    server.join().expect("server thread");
    engine.close().expect("close");
}
