//! End-to-end robustness properties of the campaign runner: resume
//! produces byte-identical reports, failed shards are contained, and
//! livelocked shards are classified as hangs by the watchdog.

use std::path::PathBuf;

use redsim_campaign::{
    hang_trace_path, run_campaign, CampaignError, CampaignOptions, CampaignOutcome, CampaignReport,
    CampaignSpec, HangDumpOptions, Scenario,
};
use redsim_core::{ExecMode, FaultConfig, ForwardingPolicy};
use redsim_util::{framed_log, Json};
use redsim_workloads::Workload;

fn scenario(name: &str, mode: ExecMode, faults: FaultConfig) -> Scenario {
    Scenario {
        name: name.to_owned(),
        mode,
        faults,
        forwarding: ForwardingPolicy::PrimaryToBoth,
    }
}

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        scenarios: vec![
            scenario(
                "die/fu",
                ExecMode::Die,
                FaultConfig {
                    fu_rate: 2e-4,
                    seed: 11,
                    ..FaultConfig::none()
                },
            ),
            scenario(
                "die-irb/irb",
                ExecMode::DieIrb,
                FaultConfig {
                    irb_rate: 0.05,
                    seed: 13,
                    ..FaultConfig::none()
                },
            ),
        ],
        workloads: vec![Workload::Gzip, Workload::Mcf],
        seeds: 2,
        quick: true,
        watchdog: Some(5_000_000),
        // Exercise the windowed-metrics path end to end: the resume
        // determinism assertions below now cover the window series too.
        metrics_window: Some(4096),
    }
}

fn opts(dir: &str, threads: usize) -> CampaignOptions {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("campaign-{}-{dir}", std::process::id()));
    let mut o = CampaignOptions::new(base.join("c.progress.jsonl"), base.join("c.report.json"));
    o.threads = threads;
    o
}

fn complete(outcome: CampaignOutcome) -> CampaignReport {
    match outcome {
        CampaignOutcome::Complete(r) => *r,
        CampaignOutcome::Interrupted { completed, total } => {
            panic!("expected completion, interrupted at {completed}/{total}")
        }
    }
}

#[test]
fn interrupted_resumed_and_reparallelized_reports_are_byte_identical() {
    let spec = small_spec();

    // Reference: one uninterrupted run.
    let full = opts("full", 2);
    let reference = complete(run_campaign(&spec, &full).expect("uninterrupted run"));
    assert_eq!(
        std::fs::read_to_string(&full.report_path).expect("report on disk"),
        reference.report
    );

    // Interrupt after 3 of 8 shards, then resume with a different
    // thread count; the final report must match byte for byte.
    let mut split = opts("split", 1);
    split.interrupt_after = Some(3);
    match run_campaign(&spec, &split).expect("interrupted run") {
        CampaignOutcome::Interrupted { completed, total } => {
            assert_eq!(completed, 3);
            assert_eq!(total, 8);
        }
        CampaignOutcome::Complete(_) => panic!("expected interruption"),
    }
    // Simulate a kill mid-write: leave a torn partial line behind.
    let torn = std::fs::read_to_string(&split.progress_path).expect("progress exists")
        + "{\"kind\":\"shard\",\"id\":9";
    std::fs::write(&split.progress_path, torn).expect("tear the manifest");

    split.interrupt_after = None;
    split.resume = true;
    split.threads = 4;
    let resumed = complete(run_campaign(&spec, &split).expect("resumed run"));
    assert_eq!(resumed.report, reference.report, "resume is byte-identical");
    assert_eq!(
        std::fs::read_to_string(&split.report_path).expect("report on disk"),
        reference.report
    );
}

#[test]
fn resume_against_a_different_campaign_is_rejected() {
    let spec = small_spec();
    let mut o = opts("foreign", 1);
    o.interrupt_after = Some(1);
    run_campaign(&spec, &o).expect("first shard");

    let mut other = small_spec();
    other.seeds = 1;
    o.resume = true;
    o.interrupt_after = None;
    match run_campaign(&other, &o) {
        Err(CampaignError::Mismatch(_)) => {}
        r => panic!("expected a fingerprint mismatch, got {r:?}"),
    }
}

#[test]
fn failed_shards_are_recorded_and_the_rest_complete() {
    // fu_rate 2.0 is invalid: Simulator::try_with_faults rejects it, so
    // every shard of the first scenario fails while the second runs.
    let spec = CampaignSpec {
        scenarios: vec![
            scenario(
                "broken",
                ExecMode::Die,
                FaultConfig {
                    fu_rate: 2.0,
                    seed: 1,
                    ..FaultConfig::none()
                },
            ),
            scenario(
                "healthy",
                ExecMode::Sie,
                FaultConfig {
                    fu_rate: 2e-4,
                    seed: 11,
                    ..FaultConfig::none()
                },
            ),
        ],
        workloads: vec![Workload::Gzip],
        seeds: 1,
        quick: true,
        watchdog: Some(5_000_000),
        metrics_window: None,
    };
    let o = opts("failing", 2);
    let report = complete(run_campaign(&spec, &o).expect("campaign completes"));
    assert_eq!(report.records.len(), 2);
    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.failed[0].index, 0);
    assert!(report.failed[0].label.starts_with("broken/"));
    assert!(
        report.failed[0]
            .message
            .contains("invalid fault configuration"),
        "panic message recorded: {}",
        report.failed[0].message
    );
    let healthy = Json::parse(&report.records[1]).expect("record parses");
    assert_eq!(healthy.get("ok").and_then(Json::as_bool), Some(true));
    assert!(
        healthy
            .get("lifecycle")
            .and_then(|l| l.get("injected"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
    );
}

#[test]
fn livelocked_shard_is_classified_as_hang_by_the_watchdog() {
    // DIE with fu_rate 1.0 corrupts every result, so every commit-time
    // pair comparison fails and the pipeline rewinds forever; the
    // watchdog must contain it and classify pending faults as hangs.
    let spec = CampaignSpec {
        scenarios: vec![scenario(
            "livelock",
            ExecMode::Die,
            FaultConfig {
                fu_rate: 1.0,
                seed: 3,
                ..FaultConfig::none()
            },
        )],
        workloads: vec![Workload::Gzip],
        seeds: 1,
        quick: true,
        watchdog: Some(20_000),
        metrics_window: None,
    };
    let mut o = opts("livelock", 1);
    o.hang_dumps = Some(HangDumpOptions {
        base: o.report_path.clone(),
        capacity: 4096,
    });
    let report = complete(run_campaign(&spec, &o).expect("watchdog contains the shard"));
    assert!(
        report.failed.is_empty(),
        "a hang is a classification, not an error"
    );
    let rec = Json::parse(&report.records[0]).expect("record parses");
    assert_eq!(
        rec.get("watchdog_fired").and_then(Json::as_bool),
        Some(true)
    );
    let stalls = rec.get("stalls").expect("shard records carry stalls");
    let productive = rec
        .get("active_commit_cycles")
        .and_then(Json::as_u64)
        .expect("active_commit_cycles");
    let attributed: u64 = [
        "frontend_empty",
        "waiting_deps",
        "issue_starved",
        "fu_contention",
        "irb_port",
        "execution",
        "commit_blocked",
        "rewind",
    ]
    .iter()
    .map(|k| stalls.get(k).and_then(Json::as_u64).unwrap_or(0))
    .sum();
    assert_eq!(
        productive + attributed,
        rec.get("cycles").and_then(Json::as_u64).expect("cycles"),
        "stall attribution conserves cycles in the manifest"
    );
    let l = rec.get("lifecycle").expect("lifecycle");
    let g = |k: &str| l.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert!(g("hung") > 0, "pending faults became hangs");
    assert_eq!(
        g("injected"),
        g("detected") + g("masked") + g("silent") + g("hung"),
        "conservation holds in the manifest too"
    );

    // The hung shard left a flight-recorder sidecar: valid Chrome-trace
    // JSON with at least one event from the replay's final cycles.
    let sidecar = hang_trace_path(&o.report_path, 0);
    assert_eq!(report.hang_traces, vec![sidecar.clone()]);
    let trace = std::fs::read_to_string(&sidecar).expect("sidecar on disk");
    let parsed = Json::parse(trace.trim_end()).expect("sidecar is valid json");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::items)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "flight recorder captured the tail");
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("rewind")),
        "a livelocked DIE shard rewinds in its final window"
    );

    // The replay is deterministic: a second campaign at a different
    // thread count reproduces the sidecar byte for byte.
    let mut o2 = opts("livelock2", 4);
    o2.hang_dumps = Some(HangDumpOptions {
        base: o2.report_path.clone(),
        capacity: 4096,
    });
    complete(run_campaign(&spec, &o2).expect("second run"));
    let trace2 =
        std::fs::read_to_string(hang_trace_path(&o2.report_path, 0)).expect("second sidecar");
    assert_eq!(trace, trace2, "sidecar bytes are thread-count invariant");
}

/// Four shards (two scenarios × gzip × two replicas) for the defect
/// tests below.
fn defect_spec() -> CampaignSpec {
    CampaignSpec {
        workloads: vec![Workload::Gzip],
        metrics_window: None,
        ..small_spec()
    }
}

/// A named edit of a parsed record.
type Defect = (&'static str, fn(&mut Json));

/// Record defects a checksum cannot see: each edit re-frames the
/// record, so only the check against the shard its id names refuses it.
fn record_defects() -> [Defect; 4] {
    fn drop_field(j: &mut Json, key: &str) {
        if let Json::Obj(fields) = j {
            fields.retain(|(k, _)| k != key);
        }
    }
    [
        ("a foreign scenario", |j| {
            let s = j.get("scenario").and_then(Json::as_u64).expect("scenario");
            j.set("scenario", s + 1).expect("object");
        }),
        ("a foreign rep", |j| {
            let r = j.get("rep").and_then(Json::as_u64).expect("rep");
            j.set("rep", r ^ 1).expect("object");
        }),
        ("no ok", |j| drop_field(j, "ok")),
        ("ok without a lifecycle", |j| drop_field(j, "lifecycle")),
    ]
}

/// Runs the first two shards of `defect_spec`, then rewrites manifest
/// line `line` (1-based; the header is line 1) with `defect` applied
/// and a valid checksum.
fn manifest_with_defect(dir: &str, line: usize, defect: fn(&mut Json)) -> CampaignOptions {
    let mut o = opts(dir, 1);
    o.interrupt_after = Some(2);
    run_campaign(&defect_spec(), &o).expect("interrupted run");
    let text = std::fs::read_to_string(&o.progress_path).expect("manifest");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), 3, "header and two records");
    let payload = framed_log::unframe(&lines[line - 1]).expect("valid frame");
    let mut rec = Json::parse(payload).expect("record parses");
    defect(&mut rec);
    lines[line - 1] = framed_log::frame(&rec.to_string());
    std::fs::write(&o.progress_path, lines.join("\n") + "\n").expect("rewrite manifest");
    o.interrupt_after = None;
    o.resume = true;
    o
}

#[test]
fn a_bad_interior_record_is_typed_corruption_naming_its_line() {
    for (i, (what, defect)) in record_defects().into_iter().enumerate() {
        let o = manifest_with_defect(&format!("bad-interior-{i}"), 2, defect);
        match run_campaign(&defect_spec(), &o) {
            Err(CampaignError::Corrupt { line: 2, detail }) => {
                assert!(detail.contains("shard 0"), "{what}: {detail}");
            }
            other => panic!("{what}: expected Corrupt at line 2, got {other:?}"),
        }
    }
}

#[test]
fn a_bad_last_record_reruns_its_shard() {
    let spec = defect_spec();
    let clean = complete(run_campaign(&spec, &opts("bad-tail-clean", 1)).expect("clean run"));
    for (i, (what, defect)) in record_defects().into_iter().enumerate() {
        let o = manifest_with_defect(&format!("bad-tail-{i}"), 3, defect);
        let resumed = complete(run_campaign(&spec, &o).expect("a bad last record re-runs"));
        assert_eq!(resumed.report, clean.report, "{what}");
        assert_eq!(resumed.lifecycles, clean.lifecycles, "{what}");
    }
}
