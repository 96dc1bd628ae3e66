//! Full fault-lifecycle coverage table: every §3.4 scenario classified
//! into the four-way lifecycle (detected / masked / silent / hang) with
//! AVF-style derived metrics, replicated across independent fault seeds.
//!
//! Runs as a resumable campaign: progress checkpoints to an append-only
//! JSONL manifest and `--resume` picks up a killed run, provably
//! producing the byte-identical final report.
//!
//! Its flags are `redsim_campaign::COVERAGE_CLI`; `--help` prints them.
//! The manifest lands at `<out>.progress.jsonl` and the report at
//! `<out>.report.json`. `--watchdog` bounds simulated cycles (a
//! livelocked shard's pending faults classify as `Hang`), while
//! `--host-deadline-ms` bounds host time per attempt; `--backoff-ms`
//! doubles per attempt, capped at 1 s. The `--chaos-*` flags route all
//! campaign IO through a fault-injecting backend.
//!
//! Exit codes: 0 success; 1 failed shards; 2 usage/mismatch/corrupt
//! manifest; 3 interrupted (resume to continue); 4 completed with
//! quarantined shards; 5 host IO failure (resume to continue).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use redsim_bench::{
    apply_rate_overrides, emit, pm, Cli, Table, BUS_STRIKES, FU_STRIKES, IRB_STRIKES,
};
use redsim_campaign::{
    exit_codes, run_campaign, CampaignError, CampaignOptions, CampaignOutcome, CampaignSpec,
    HangDumpOptions, Scenario, COVERAGE_CLI,
};
use redsim_core::{ExecMode, FaultLifecycle, ForwardingPolicy, Throughput};
use redsim_util::flags::FlagError;
use redsim_util::io::{ChaosConfig, ChaosIo, FsyncPolicy, RealIo};
use redsim_workloads::Workload;

fn spec_from_cli(cli: &Cli) -> CampaignSpec {
    let shared = ForwardingPolicy::PrimaryToBoth;
    let per_stream = ForwardingPolicy::PerStream;
    let sc = |name: &str, mode, faults, forwarding| Scenario {
        name: name.to_owned(),
        mode,
        faults,
        forwarding,
    };
    let mut scenarios = vec![
        sc("sie/fu", ExecMode::Sie, FU_STRIKES, shared),
        sc("die/fu", ExecMode::Die, FU_STRIKES, shared),
        sc("die-irb/fu", ExecMode::DieIrb, FU_STRIKES, shared),
        sc("die-irb/irb", ExecMode::DieIrb, IRB_STRIKES, shared),
        sc("die-irb/bus-shared", ExecMode::DieIrb, BUS_STRIKES, shared),
        sc("die/bus-per-stream", ExecMode::Die, BUS_STRIKES, per_stream),
        sc(
            "die-irb/bus-per-stream",
            ExecMode::DieIrb,
            BUS_STRIKES,
            per_stream,
        ),
    ];
    apply_rate_overrides(
        cli,
        scenarios
            .iter_mut()
            .map(|s| (s.name.as_str(), &mut s.faults)),
    );
    let watchdog = cli.flags.or_exit(cli.flags.positive("--watchdog"));
    let metrics_window = Some(cli.metrics_window.unwrap_or(10_000));
    CampaignSpec {
        scenarios,
        workloads: vec![
            Workload::Gzip,
            Workload::Gcc,
            Workload::Twolf,
            Workload::Equake,
        ],
        seeds: cli.seeds,
        quick: cli.quick,
        watchdog: Some(watchdog.unwrap_or(50_000_000)),
        metrics_window,
    }
}

fn main() {
    let cli = Cli::parse(&COVERAGE_CLI);
    let spec = spec_from_cli(&cli);
    let flags = &cli.flags;
    let out = PathBuf::from(
        flags
            .value("--out")
            .unwrap_or("target/campaign/fig_coverage"),
    );
    let mut opts = CampaignOptions::new(
        out.with_extension("progress.jsonl"),
        out.with_extension("report.json"),
    );
    opts.threads = cli.threads;
    opts.resume = flags.has("--resume");
    opts.interrupt_after = flags.or_exit(flags.get("--interrupt-after"));
    opts.hang_dumps = Some(HangDumpOptions {
        base: out.clone(),
        capacity: 1 << 15,
    });
    if let Some(n) = flags.or_exit(flags.positive("--retry-max")) {
        opts.retry.max_attempts = n;
    }
    if let Some(ms) = flags.or_exit(flags.get("--backoff-ms")) {
        opts.retry.backoff = Duration::from_millis(ms);
    }
    opts.host_deadline = flags
        .or_exit(flags.get("--host-deadline-ms"))
        .map(Duration::from_millis);
    let fsync = flags.map("--fsync", |m| {
        FsyncPolicy::parse(m).ok_or_else(|| "expects always|critical|never".to_owned())
    });
    if let Some(policy) = flags.or_exit(fsync) {
        opts.fsync = policy;
    }
    for flag in ["--chaos-rate", "--chaos-kill-after"] {
        if flags.has(flag) && !flags.has("--chaos-seed") {
            flags.fail(&FlagError::Conflict(flag, "needs `--chaos-seed`"));
        }
    }
    if let Some(seed) = flags.or_exit(flags.get("--chaos-seed")) {
        let rate = flags.map("--chaos-rate", |v| match v.parse::<f64>() {
            Ok(r) if (0.0..=1.0).contains(&r) => Ok(r),
            _ => Err("expects a rate in [0,1]".to_owned()),
        });
        let cfg = ChaosConfig {
            kill_after_ops: flags.or_exit(flags.get("--chaos-kill-after")),
            ..ChaosConfig::uniform(seed, flags.or_exit(rate).unwrap_or(0.02))
        };
        opts.io = Arc::new(ChaosIo::new(Arc::new(RealIo), cfg));
    }

    let report = match run_campaign(&spec, &opts) {
        Ok(CampaignOutcome::Complete(r)) => r,
        Ok(CampaignOutcome::Interrupted { completed, total }) => {
            eprintln!(
                "campaign interrupted: {completed}/{total} shards recorded in {}; \
                 rerun with --resume to continue",
                opts.progress_path.display()
            );
            std::process::exit(exit_codes::INTERRUPTED);
        }
        Err(e @ CampaignError::Io(_)) => {
            eprintln!("error: {e} (rerun with --resume to continue)");
            std::process::exit(exit_codes::IO);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(exit_codes::USAGE);
        }
    };

    // Per-scenario rows over the replicas (each summed across
    // workloads), so `--seeds N` yields N samples per cell
    // (mean±stddev via `pm`).
    let mut table = Table::new(vec![
        "scenario",
        "injected",
        "detected",
        "masked",
        "silent",
        "hang",
        "coverage",
        "avf",
        "mean-det-lat",
    ]);
    for (sc, reps) in spec.scenarios.iter().zip(&report.lifecycles) {
        let col = |get: fn(&FaultLifecycle) -> f64| -> Vec<f64> { reps.iter().map(get).collect() };
        table.row(vec![
            sc.name.clone(),
            pm(&col(|l| l.injected as f64), 0),
            pm(&col(|l| l.detected as f64), 0),
            pm(&col(|l| l.masked as f64), 0),
            pm(&col(|l| l.silent as f64), 0),
            pm(&col(|l| l.hung as f64), 0),
            pm(&col(|l| l.coverage() * 100.0), 1) + "%",
            pm(&col(FaultLifecycle::avf), 3),
            pm(&col(FaultLifecycle::mean_detection_latency), 1),
        ]);
    }

    emit(
        &cli,
        "Fault-lifecycle coverage by scenario (§3.4, four-way classification)",
        &format!(
            "{} workloads x {} fault seed(s) per scenario; report: {}",
            spec.workloads.len(),
            spec.seeds,
            opts.report_path.display()
        ),
        &table,
        &report.stalls,
        &report.failed,
        &Throughput::default(),
    );
    if !report.quarantined.is_empty() {
        for q in &report.quarantined {
            eprintln!(
                "quarantined: shard {} ({}): {}",
                q.index, q.label, q.message
            );
        }
        std::process::exit(exit_codes::QUARANTINED);
    }
    if !report.failed.is_empty() {
        std::process::exit(exit_codes::SHARD_FAILURES);
    }
}
