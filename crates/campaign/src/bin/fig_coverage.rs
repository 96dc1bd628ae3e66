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

use redsim_bench::{apply_rate_overrides, emit, pm, Cli, Table};
use redsim_campaign::{
    exit_codes, run_campaign, CampaignError, CampaignOptions, CampaignOutcome, CampaignSpec,
    HangDumpOptions, Scenario, COVERAGE_CLI,
};
use redsim_core::{
    ExecMode, FaultConfig, ForwardingPolicy, StallBreakdown, StallSummary, Throughput,
};
use redsim_util::io::{ChaosConfig, ChaosIo, FsyncPolicy, RealIo};
use redsim_util::Json;
use redsim_workloads::Workload;

fn spec_from_cli(cli: &Cli) -> CampaignSpec {
    let shared = ForwardingPolicy::PrimaryToBoth;
    let per_stream = ForwardingPolicy::PerStream;
    let fu = FaultConfig {
        fu_rate: 2e-4,
        seed: 11,
        ..FaultConfig::none()
    };
    let irb = FaultConfig {
        irb_rate: 0.05,
        seed: 13,
        ..FaultConfig::none()
    };
    let bus = FaultConfig {
        forward_rate: 1e-4,
        seed: 17,
        ..FaultConfig::none()
    };
    let sc = |name: &str, mode, faults, forwarding| Scenario {
        name: name.to_owned(),
        mode,
        faults,
        forwarding,
    };
    let mut scenarios = vec![
        sc("sie/fu", ExecMode::Sie, fu, shared),
        sc("die/fu", ExecMode::Die, fu, shared),
        sc("die-irb/fu", ExecMode::DieIrb, fu, shared),
        sc("die-irb/irb", ExecMode::DieIrb, irb, shared),
        sc("die-irb/bus-shared", ExecMode::DieIrb, bus, shared),
        sc("die/bus-per-stream", ExecMode::Die, bus, per_stream),
        sc("die-irb/bus-per-stream", ExecMode::DieIrb, bus, per_stream),
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

    // Campaign-wide stall accounting, folded back out of the manifest
    // records (the shards ran inside `run_campaign`, not our harness).
    let mut stalls = StallSummary::default();
    for line in &report.records {
        let j = Json::parse(line).expect("report records parse");
        if j.get("ok").and_then(Json::as_bool) != Some(true) {
            continue;
        }
        stalls.cycles += j.get("cycles").and_then(Json::as_u64).unwrap_or(0);
        stalls.productive_cycles += j
            .get("active_commit_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if let Some(b) = j.get("stalls").and_then(StallBreakdown::from_json) {
            stalls.stalls.add(&b);
        }
    }

    // Per-scenario rows, aggregated per replica across workloads so
    // `--seeds N` yields N samples per cell (mean±stddev via `pm`).
    let seeds = spec.seeds as usize;
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
    for (si, sc) in spec.scenarios.iter().enumerate() {
        let mut injected = vec![0u64; seeds];
        let mut detected = vec![0u64; seeds];
        let mut masked = vec![0u64; seeds];
        let mut silent = vec![0u64; seeds];
        let mut hung = vec![0u64; seeds];
        let mut lat_sum = vec![0u64; seeds];
        for line in &report.records {
            let j = Json::parse(line).expect("report records parse");
            if j.get("scenario").and_then(Json::as_u64) != Some(si as u64)
                || j.get("ok").and_then(Json::as_bool) != Some(true)
            {
                continue;
            }
            let rep = j.get("rep").and_then(Json::as_u64).expect("rep") as usize;
            let l = j.get("lifecycle").expect("lifecycle");
            let g = |k: &str| l.get(k).and_then(Json::as_u64).unwrap_or(0);
            injected[rep] += g("injected");
            detected[rep] += g("detected");
            masked[rep] += g("masked");
            silent[rep] += g("silent");
            hung[rep] += g("hung");
            lat_sum[rep] += g("detection_latency_sum");
        }
        let f = |v: &[u64]| -> Vec<f64> { v.iter().map(|&x| x as f64).collect() };
        let coverage: Vec<f64> = detected
            .iter()
            .zip(&silent)
            .map(|(&d, &s)| {
                if d + s > 0 {
                    d as f64 / (d + s) as f64 * 100.0
                } else {
                    100.0
                }
            })
            .collect();
        let avf: Vec<f64> = injected
            .iter()
            .zip(detected.iter().zip(&silent))
            .map(|(&i, (&d, &s))| {
                if i > 0 {
                    (d + s) as f64 / i as f64
                } else {
                    0.0
                }
            })
            .collect();
        let lat: Vec<f64> = detected
            .iter()
            .zip(&lat_sum)
            .map(|(&d, &ls)| if d > 0 { ls as f64 / d as f64 } else { 0.0 })
            .collect();
        table.row(vec![
            sc.name.clone(),
            pm(&f(&injected), 0),
            pm(&f(&detected), 0),
            pm(&f(&masked), 0),
            pm(&f(&silent), 0),
            pm(&f(&hung), 0),
            pm(&coverage, 1) + "%",
            pm(&avf, 3),
            pm(&lat, 1),
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
        &stalls,
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
