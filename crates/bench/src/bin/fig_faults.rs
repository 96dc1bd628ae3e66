//! Reconstructed Fig. F: transient-fault detection coverage, exercising
//! the §3.4 redundancy analysis:
//!
//! * functional-unit strikes — detected by the commit pair comparison;
//! * IRB-array strikes — detected because a corrupt reused result still
//!   faces the primary stream's ALU execution at commit (the reason the
//!   IRB needs no dedicated protection);
//! * shared-forwarding-bus strikes — the acknowledged residual: under
//!   primary-to-both forwarding both copies consume the same corrupt
//!   operand and agree (Fig. 6(c)); under per-stream forwarding the same
//!   strike is caught (Fig. 6(b));
//! * SIE under the same strikes — silent data corruption, the contrast
//!   motivating redundancy at all.
//!
//! `--fu-rate R`, `--forward-rate R` and `--irb-rate R` override the
//! strike rate of every scenario that injects at the matching site
//! (rejected with a clear message if the rate is not in `[0, 1]`).
//! `--seeds N` replicates every scenario across `N` independent fault
//! seeds and reports mean±stddev per column (`FAULTS_CLI`).

use redsim_bench::{
    apply_rate_overrides, finish, pm, Cli, Harness, Job, Table, BUS_STRIKES, FAULTS_CLI,
    FU_STRIKES, IRB_STRIKES,
};
use redsim_core::{ExecMode, FaultConfig, MachineConfig, SimStats};
use redsim_workloads::Workload;

fn main() {
    let cli = Cli::parse(&FAULTS_CLI);
    let mut h = Harness::new(cli.quick);
    let base = MachineConfig::paper_baseline();
    let apps = [
        Workload::Gzip,
        Workload::Gcc,
        Workload::Twolf,
        Workload::Equake,
    ];

    let mut scenarios: Vec<(&str, ExecMode, FaultConfig)> = vec![
        ("DIE / FU strikes", ExecMode::Die, FU_STRIKES),
        ("DIE-IRB / FU strikes", ExecMode::DieIrb, FU_STRIKES),
        ("DIE-IRB / IRB strikes", ExecMode::DieIrb, IRB_STRIKES),
        (
            "DIE-IRB / bus strikes (shared fwd)",
            ExecMode::DieIrb,
            BUS_STRIKES,
        ),
        (
            "DIE / bus strikes (per-stream fwd)",
            ExecMode::Die,
            BUS_STRIKES,
        ),
        ("SIE / FU strikes", ExecMode::Sie, FU_STRIKES),
    ];

    apply_rate_overrides(&cli, scenarios.iter_mut().map(|(name, _, fc)| (*name, fc)));

    let seeds = u64::from(cli.seeds);
    let mut jobs = Vec::new();
    for (_, mode, fc) in &scenarios {
        for w in apps {
            for rep in 0..seeds {
                let fc = FaultConfig {
                    seed: fc.seed + 1000 * rep,
                    ..*fc
                };
                jobs.push(Job::new(w, *mode, &base).with_faults(fc));
            }
        }
    }
    let (results, errors) = h.try_sweep(&jobs, cli.threads);

    let mut table = Table::new(vec![
        "scenario",
        "app",
        "injected",
        "detected",
        "escaped",
        "silent(SIE)",
        "coverage",
    ]);
    let per_scenario = apps.len() * seeds as usize;
    for ((name, _, _), runs) in scenarios.iter().zip(results.chunks_exact(per_scenario)) {
        for (w, reps) in apps.iter().zip(runs.chunks_exact(seeds as usize)) {
            let col =
                |get: &dyn Fn(&SimStats) -> f64| -> Vec<f64> { reps.iter().map(get).collect() };
            let injected = col(&|s| {
                (s.faults.injected_fu + s.faults.injected_forward + s.faults.injected_irb) as f64
            });
            let detected = col(&|s| s.faults.detected as f64);
            let escaped = col(&|s| s.faults.escaped as f64);
            let silent = col(&|s| s.faults.silent_sie as f64);
            let coverage = col(&|s| s.faults.coverage() * 100.0);
            table.row(vec![
                (*name).to_owned(),
                w.name().to_owned(),
                pm(&injected, 0),
                pm(&detected, 0),
                pm(&escaped, 0),
                pm(&silent, 0),
                pm(&coverage, 1) + "%",
            ]);
        }
    }

    finish(
        &cli,
        "Transient-fault detection coverage (reconstructed Fig. F, §3.4)",
        &format!("{seeds} fault seed(s) per scenario"),
        &table,
        None,
        &h,
        &errors,
    );
}
