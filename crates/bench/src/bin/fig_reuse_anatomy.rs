//! Reuse anatomy: where the IRB's reuse actually comes from. Runs every
//! workload under all five execution modes with reuse attribution
//! enabled, then breaks the hit and pass rates down by opcode class
//! (alu/mul/div/mem/branch) and by loop structure.
//!
//! In `--json` mode the output carries, beyond the standard figure
//! fields, an `"anatomy"` array with one entry per job: the raw
//! per-class counters, the aggregate `IrbSummary` totals they must sum
//! to (the conservation contract `attribution-smoke` checks), and the
//! per-loop breakdown.
//!
//! Its command line is the shared `FIGURE_CLI`.

use redsim_bench::{finish, pct, Cli, Harness, Job, Table, FIGURE_CLI};
use redsim_core::{
    attribution_to_json, AttrCounters, ExecMode, MachineConfig, SimStats, REUSE_CLASSES,
    REUSE_CLASS_NAMES,
};
use redsim_util::Json;
use redsim_workloads::Workload;

const MODES: [ExecMode; 5] = [
    ExecMode::Sie,
    ExecMode::SieIrb,
    ExecMode::Die,
    ExecMode::DieIrb,
    ExecMode::DieCluster,
];

fn main() {
    let cli = Cli::parse(&FIGURE_CLI);
    let mut h = Harness::new(cli.quick);
    let cfg = MachineConfig::paper_baseline();

    // Job order: mode major, workload minor, so each mode is one
    // contiguous chunk of the results.
    let mut jobs = Vec::new();
    for mode in MODES {
        for w in Workload::ALL {
            jobs.push(Job::new(w, mode, &cfg).with_attribution());
        }
    }
    let (results, errors) = h.try_sweep(&jobs, cli.threads);

    let mut header: Vec<String> = vec!["mode".into(), "lookups".into()];
    for name in REUSE_CLASS_NAMES {
        header.push(format!("{name}-hit"));
    }
    header.push("pass".into());
    let mut table = Table::new(header);

    let per_cell = Workload::ALL.len();
    let mut anatomy = Vec::new();
    for (mode, runs) in MODES.iter().zip(results.chunks_exact(per_cell)) {
        // Aggregate the per-class counters across workloads for the
        // table row; the JSON keeps every job separate.
        let mut classes = [AttrCounters::default(); REUSE_CLASSES];
        let (mut passed, mut failed) = (0u64, 0u64);
        for s in runs {
            if let Some(a) = &s.attribution {
                for (acc, c) in classes.iter_mut().zip(&a.classes) {
                    acc.add(c);
                }
            }
            passed += s.irb.reuse_passed;
            failed += s.irb.reuse_failed;
        }
        let lookups: u64 = classes.iter().map(|c| c.lookups).sum();
        let mut cells = vec![format!("{mode:?}"), lookups.to_string()];
        for c in &classes {
            let rate = if c.lookups == 0 {
                0.0
            } else {
                c.hits as f64 / c.lookups as f64 * 100.0
            };
            cells.push(pct(rate));
        }
        let tests = passed + failed;
        cells.push(pct(if tests == 0 {
            0.0
        } else {
            passed as f64 / tests as f64 * 100.0
        }));
        table.row(cells);

        for (w, s) in Workload::ALL.iter().zip(runs) {
            anatomy.push(anatomy_entry(w.name(), *mode, s));
        }
    }

    finish(
        &cli,
        "Reuse anatomy: opcode class x loop structure (all modes)",
        "attribution enabled; conservation vs IrbSummary",
        &table,
        Some(("anatomy", anatomy.into_iter().collect())),
        &h,
        &errors,
    );
}

/// One job's anatomy record: the full attribution section plus the
/// aggregate IRB totals its per-class counters must sum to exactly.
fn anatomy_entry(workload: &str, mode: ExecMode, s: &SimStats) -> Json {
    let attribution = s
        .attribution
        .as_deref()
        .map(attribution_to_json)
        .unwrap_or_else(Json::obj);
    Json::obj()
        .field("workload", workload)
        .field("mode", format!("{mode:?}"))
        .field(
            "irb",
            Json::obj()
                .field("lookups", s.irb.buffer.lookups)
                .field("hits", s.irb.buffer.pc_hits + s.irb.buffer.victim_hits)
                .field("reuse_passed", s.irb.reuse_passed)
                .field("reuse_failed", s.irb.reuse_failed)
                .field("reuse_pass_permille", s.irb.reuse_pass_permille())
                .field("hit_permille", s.irb.hit_permille()),
        )
        .field("attribution", attribution)
}
