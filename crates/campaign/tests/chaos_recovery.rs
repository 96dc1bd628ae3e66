//! Chaos-recovery properties of the campaign runner: transient host
//! faults are absorbed, retry is deterministic, quarantine degrades
//! gracefully, and at-rest manifest damage is a typed refusal.
//!
//! The workspace-level `tests/chaos_recovery.rs` sweeps a kill across
//! every write boundary at rotating resume thread counts; this file
//! holds the per-property pieces that sweep builds on, plus the same
//! sweep in the shape of the serve journal's, so both users of the
//! shared record log are pinned by one recipe.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use redsim_campaign::{
    hang_trace_path, run_campaign, CampaignError, CampaignOptions, CampaignOutcome, CampaignReport,
    CampaignSpec, FlakePlan, HangDumpOptions, Scenario,
};
use redsim_core::{ExecMode, FaultConfig, ForwardingPolicy};
use redsim_util::io::{ChaosConfig, ChaosIo, Io, IoFile, RealIo};
use redsim_util::Json;
use redsim_workloads::Workload;

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        scenarios: vec![Scenario {
            name: "die/fu".to_owned(),
            mode: ExecMode::Die,
            faults: FaultConfig {
                fu_rate: 2e-4,
                seed: 11,
                ..FaultConfig::none()
            },
            forwarding: ForwardingPolicy::PrimaryToBoth,
        }],
        workloads: vec![Workload::Gzip],
        seeds: 2,
        quick: true,
        watchdog: Some(5_000_000),
        metrics_window: None,
    }
}

fn opts(dir: &str, threads: usize) -> CampaignOptions {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("chaos-{}-{dir}", std::process::id()));
    let mut o = CampaignOptions::new(base.join("c.progress.jsonl"), base.join("c.report.json"));
    o.threads = threads;
    o
}

fn complete(outcome: CampaignOutcome) -> CampaignReport {
    match outcome {
        CampaignOutcome::Complete(r) => r,
        CampaignOutcome::Interrupted { completed, total } => {
            panic!("expected completion, interrupted at {completed}/{total}")
        }
    }
}

fn reference_report(spec: &CampaignSpec) -> String {
    let o = opts("reference", 2);
    complete(run_campaign(spec, &o).expect("clean run")).report
}

#[test]
fn transient_host_faults_are_absorbed_without_a_retry() {
    // EINTR and short writes at a heavy rate: the retrying write loop
    // must absorb every one of them — same report, first try, no
    // resume needed.
    let spec = small_spec();
    let reference = reference_report(&spec);

    let mut o = opts("transient", 2);
    o.io = Arc::new(ChaosIo::new(
        Arc::new(RealIo),
        ChaosConfig::transient_only(0xfeed, 0.4),
    ));
    let report = complete(run_campaign(&spec, &o).expect("transient faults absorbed"));
    assert_eq!(report.report, reference);
    assert_eq!(
        std::fs::read_to_string(&o.report_path).expect("report on disk"),
        reference
    );
}

#[test]
fn interior_manifest_corruption_is_a_typed_refusal_naming_the_line() {
    let spec = small_spec();
    let mut o = opts("corrupt", 1);
    complete(run_campaign(&spec, &o).expect("clean run"));

    // Flip a payload byte on the *first* record (line 2, 1-based) —
    // interior, because the second record follows it.
    let text = std::fs::read_to_string(&o.progress_path).expect("manifest");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), 3, "header plus two records");
    lines[1] = lines[1].replace("\"ok\":true", "\"ok\":trve");
    std::fs::write(&o.progress_path, lines.join("\n") + "\n").expect("damage the manifest");

    o.resume = true;
    match run_campaign(&spec, &o) {
        Err(CampaignError::Corrupt { line, detail }) => {
            assert_eq!(line, 2, "the damaged line is named");
            assert!(detail.contains("checksum mismatch"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn flaky_shards_retry_to_byte_identical_reports_at_any_thread_count() {
    // Shard 0 fails twice (< the 3-attempt budget) with an injected
    // transient fault. Success records carry no attempt count, so the
    // flaky run's report matches the clean one byte for byte — at one
    // thread and at four.
    let spec = small_spec();
    let reference = reference_report(&spec);
    let policy = redsim_campaign::RetryPolicy {
        backoff: Duration::from_millis(1),
        ..Default::default()
    };

    for threads in [1, 4] {
        let mut o = opts(&format!("flaky-t{threads}"), threads);
        o.retry = policy.clone();
        o.flake = Some(FlakePlan {
            shards: vec![0],
            failures: 2,
        });
        let report = complete(run_campaign(&spec, &o).expect("retries succeed"));
        assert_eq!(
            report.report, reference,
            "retry schedule leaks into the report at {threads} threads"
        );
        assert!(report.failed.is_empty());
    }
}

#[test]
fn an_exhausted_retry_budget_quarantines_the_shard_deterministically() {
    // Shard 1 fails every attempt: the supervisor quarantines it after
    // the 3-attempt budget, the other shard completes, and the verdict
    // (kind, attempts, quarantined flag) is recorded in the manifest.
    let spec = small_spec();
    let run = |threads: usize, dir: &str| {
        let mut o = opts(dir, threads);
        o.retry.backoff = Duration::from_millis(1);
        o.flake = Some(FlakePlan {
            shards: vec![1],
            failures: u32::MAX,
        });
        complete(run_campaign(&spec, &o).expect("campaign degrades, not aborts"))
    };
    let report = run(1, "quarantine");

    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].index, 1);
    assert_eq!(
        report.quarantined[0].kind,
        redsim_campaign::JobErrorKind::Injected
    );
    let rec = Json::parse(&report.records[1]).expect("record parses");
    assert_eq!(rec.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(rec.get("ekind").and_then(Json::as_str), Some("injected"));
    assert_eq!(rec.get("attempts").and_then(Json::as_u64), Some(3));
    assert_eq!(rec.get("quarantined").and_then(Json::as_bool), Some(true));
    let summary = Json::parse(&report.report).expect("report parses");
    assert_eq!(
        summary.get("quarantined").and_then(Json::as_u64),
        Some(1),
        "the report counts quarantined shards"
    );

    // The verdict is thread-count invariant.
    let again = run(4, "quarantine4");
    assert_eq!(again.report, report.report);
}

#[test]
fn an_expired_host_deadline_quarantines_with_the_deadline_kind() {
    // A zero host deadline raises every attempt's cancellation flag
    // before the simulator starts, so cancellation lands at the first
    // poll (cycle 64) — fully deterministic, no thread timing anywhere.
    let spec = small_spec();
    let run = |threads: usize, dir: &str| {
        let mut o = opts(dir, threads);
        o.retry.backoff = Duration::from_millis(1);
        o.host_deadline = Some(Duration::ZERO);
        complete(run_campaign(&spec, &o).expect("deadline quarantines, not aborts"))
    };
    let report = run(1, "deadline");

    assert_eq!(report.quarantined.len(), 2, "every shard hit the deadline");
    for rec in &report.records {
        let j = Json::parse(rec).expect("record parses");
        assert_eq!(j.get("ekind").and_then(Json::as_str), Some("deadline"));
        assert_eq!(j.get("quarantined").and_then(Json::as_bool), Some(true));
        assert!(
            j.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("host wall-clock deadline")),
            "deadline message recorded: {rec}"
        );
    }
    let again = run(4, "deadline4");
    assert_eq!(again.report, report.report);
}

#[test]
fn kill_at_every_io_boundary_then_resume_is_byte_identical() {
    // Four shards: a kill can land between, or inside, several appends.
    let spec = CampaignSpec {
        seeds: 4,
        ..small_spec()
    };
    let reference = reference_report(&spec);

    // Probe: count the IO operations of a clean run.
    let probe = ChaosIo::new(Arc::new(RealIo), ChaosConfig::quiet(0));
    let mut o = opts("kill-probe", 2);
    o.io = Arc::new(probe.clone());
    assert_eq!(
        complete(run_campaign(&spec, &o).expect("quiet chaos")).report,
        reference
    );
    let ops = probe.ops();
    assert!(ops >= 10, "the run must cross many write boundaries: {ops}");

    // Kill at every boundary (the last one is a run that finishes),
    // then resume on the real filesystem.
    for kill_at in 0..=ops {
        let mut o = opts(&format!("kill-{kill_at}"), 2);
        let chaos = ChaosIo::new(
            Arc::new(RealIo),
            ChaosConfig {
                kill_after_ops: Some(kill_at),
                ..ChaosConfig::quiet(0)
            },
        );
        o.io = Arc::new(chaos.clone());
        match run_campaign(&spec, &o) {
            Ok(_) => assert!(
                !chaos.killed(),
                "a killed run must report a failure (kill_at={kill_at})"
            ),
            Err(CampaignError::Io(_)) => {}
            Err(e) => panic!("kill_at={kill_at}: unexpected error {e}"),
        }
        o.io = Arc::new(RealIo);
        o.resume = true;
        let resumed = complete(run_campaign(&spec, &o).expect("resume after the kill"));
        assert_eq!(
            resumed.report, reference,
            "kill_at={kill_at}: the resumed report diverged"
        );
        assert_eq!(
            std::fs::read_to_string(&o.report_path).expect("report on disk"),
            reference
        );
        let _ = std::fs::remove_dir_all(o.progress_path.parent().expect("campaign dir"));
    }
}

/// The real filesystem, except that the `fail_at`-th write (0-based) to
/// an appended file fails with `ENOSPC` and writes nothing. Every other
/// write lands, so a writer that kept appending after the failure would
/// show up in the file.
#[derive(Debug)]
struct OneFailedAppend {
    fail_at: usize,
    writes: Arc<AtomicUsize>,
}

struct CountedFile {
    inner: Box<dyn IoFile>,
    fail_at: usize,
    writes: Arc<AtomicUsize>,
}

impl IoFile for CountedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.writes.fetch_add(1, Ordering::SeqCst) == self.fail_at {
            return Err(io::Error::from_raw_os_error(28));
        }
        self.inner.write(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl Io for OneFailedAppend {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        RealIo.read_to_string(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealIo.create_dir_all(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        RealIo.create(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        Ok(Box::new(CountedFile {
            inner: RealIo.open_append(path)?,
            fail_at: self.fail_at,
            writes: Arc::clone(&self.writes),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealIo.rename(from, to)
    }

    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
}

#[test]
fn a_failed_append_stops_the_campaign_appending_further_shards() {
    let spec = CampaignSpec {
        seeds: 4,
        ..small_spec()
    };
    let reference = reference_report(&spec);
    let writes = Arc::new(AtomicUsize::new(0));
    let mut o = opts("append-fails", 2);
    o.io = Arc::new(OneFailedAppend {
        fail_at: 1,
        writes: Arc::clone(&writes),
    });
    match run_campaign(&spec, &o) {
        Err(CampaignError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::StorageFull, "{e}"),
        other => panic!("expected the append's Io error, got {other:?}"),
    }
    assert_eq!(
        writes.load(Ordering::SeqCst),
        2,
        "no append is attempted after the failed one"
    );
    let manifest = std::fs::read_to_string(&o.progress_path).expect("manifest");
    assert_eq!(
        manifest.lines().count(),
        2,
        "header plus the one record appended before the failure"
    );
    assert!(
        !o.report_path.exists(),
        "a failed campaign writes no report"
    );

    o.io = Arc::new(RealIo);
    o.resume = true;
    assert_eq!(
        complete(run_campaign(&spec, &o).expect("resume")).report,
        reference
    );
}

#[test]
fn a_kill_during_the_hang_dump_leaves_no_sidecar_and_resume_writes_it() {
    // DIE with every result corrupt rewinds forever, so the watchdog
    // fires and the shard gets a flight-recorder sidecar.
    let spec = CampaignSpec {
        scenarios: vec![Scenario {
            name: "livelock".to_owned(),
            mode: ExecMode::Die,
            faults: FaultConfig {
                fu_rate: 1.0,
                seed: 3,
                ..FaultConfig::none()
            },
            forwarding: ForwardingPolicy::PrimaryToBoth,
        }],
        seeds: 1,
        watchdog: Some(20_000),
        ..small_spec()
    };
    let dumping = |dir: &str| {
        let mut o = opts(dir, 1);
        o.hang_dumps = Some(HangDumpOptions {
            base: o.report_path.clone(),
            capacity: 4096,
        });
        o
    };
    let clean = complete(run_campaign(&spec, &dumping("dump-clean")).expect("clean run"));
    let sidecar = std::fs::read(&clean.hang_traces[0]).expect("clean sidecar");

    // Count the IO operations of the run up to its report write.
    let probe = ChaosIo::new(Arc::new(RealIo), ChaosConfig::quiet(0));
    let mut o = opts("dump-probe", 1);
    o.io = Arc::new(probe.clone());
    complete(run_campaign(&spec, &o).expect("probe run"));

    // Kill just after the report write: the dump is the first casualty.
    let mut o = dumping("dump-kill");
    o.io = Arc::new(ChaosIo::new(
        Arc::new(RealIo),
        ChaosConfig {
            kill_after_ops: Some(probe.ops()),
            ..ChaosConfig::quiet(0)
        },
    ));
    let killed = complete(run_campaign(&spec, &o).expect("a failed dump never fails the campaign"));
    let path = hang_trace_path(&o.report_path, 0);
    assert!(!path.exists(), "a killed dump leaves no sidecar behind");
    assert!(killed.hang_traces.is_empty());
    assert_eq!(killed.report, clean.report);

    o.io = Arc::new(RealIo);
    o.resume = true;
    let resumed = complete(run_campaign(&spec, &o).expect("resume"));
    assert_eq!(resumed.hang_traces, vec![path.clone()]);
    assert_eq!(
        std::fs::read(&path).expect("resumed sidecar"),
        sidecar,
        "the resumed sidecar matches a clean run's byte for byte"
    );
}
