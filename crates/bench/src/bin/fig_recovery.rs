//! The headline result (reconstructed Fig. A): IPC of SIE, DIE, DIE-IRB
//! and DIE-2xALU per workload, with the fraction of the ALU-bandwidth
//! loss (the DIE → DIE-2xALU gap) and of the overall loss (DIE → SIE)
//! that the IRB wins back.
//!
//! Paper claims (abstract): DIE-IRB regains ~50% of the ALU-bandwidth
//! IPC loss and ~23% of the overall IPC loss, on average.
//!
//! `--forwarding per-stream` runs the ablation where the IRB keeps
//! per-stream forwarding (the issue-window complexity the paper avoids);
//! `--forwarding shared` is the default, and any other value exits 2.
//! `--seeds N` replicates every workload across `N` independent input
//! seeds (distinct generated inputs, hence distinct traces) and reports
//! mean±stddev per cell; `--metrics-window` is refused with exit 2.

use redsim_bench::{finish, grid, mean, pct, pm, Cli, Harness, Job, Table};
use redsim_core::{ExecMode, ForwardingPolicy, MachineConfig};
use redsim_workloads::Workload;

const MODES: usize = 4;

/// Whether `--forwarding` asks for per-stream forwarding. It takes the
/// two spellings `redsim-sim --forwarding` does: `shared` (the default)
/// and `per-stream`.
fn per_stream_forwarding(cli: &Cli) -> Result<bool, String> {
    if !cli.flag("--forwarding") {
        return Ok(false);
    }
    match cli.value("--forwarding") {
        Some("shared") => Ok(false),
        Some("per-stream") => Ok(true),
        v => Err(format!(
            "--forwarding expects shared or per-stream, got {:?}",
            v.unwrap_or("")
        )),
    }
}

fn main() {
    let cli = grid::parse_cli(&["--seeds"]);
    let per_stream = per_stream_forwarding(&cli).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut h = Harness::new(cli.quick);
    let mut base = MachineConfig::paper_baseline();
    if per_stream {
        base.forwarding = ForwardingPolicy::PerStream;
    }
    let twoalu = base.clone().with_double_alus();

    // Replica 0 runs the workload's default input; replica r > 0 shifts
    // the input-generation seed, producing a genuinely different trace.
    let seeds = cli.seeds as usize;
    let mut jobs = Vec::new();
    for w in Workload::ALL {
        let default_seed = h.params(w).seed;
        for rep in 0..seeds as u64 {
            let input = (rep > 0).then(|| default_seed + rep);
            let mk = |mode, cfg: &MachineConfig| {
                let j = Job::new(w, mode, cfg);
                match input {
                    Some(s) => j.with_input_seed(s),
                    None => j,
                }
            };
            jobs.push(mk(ExecMode::Sie, &base));
            jobs.push(mk(ExecMode::Die, &base));
            jobs.push(mk(ExecMode::DieIrb, &base));
            jobs.push(mk(ExecMode::Die, &twoalu));
        }
    }
    let (results, errors) = h.try_sweep(&jobs, cli.threads);

    let mut table = Table::new(vec![
        "app",
        "SIE",
        "DIE",
        "DIE-IRB",
        "DIE-2xALU",
        "alu-loss-recovered",
        "overall-loss-recovered",
    ]);
    let (mut alu_rec, mut all_rec) = (Vec::new(), Vec::new());
    let (mut die_losses, mut irb_losses) = (Vec::new(), Vec::new());
    let per_app = MODES * seeds;
    for (w, reps) in Workload::ALL.iter().zip(results.chunks_exact(per_app)) {
        // Per-replica IPCs and derived recovery fractions.
        let mut cols: [Vec<f64>; MODES] = Default::default();
        let (mut a_rep, mut o_rep) = (Vec::new(), Vec::new());
        for runs in reps.chunks_exact(MODES) {
            let [sie, die, irb, die2x] = runs else {
                unreachable!("chunks_exact(MODES)")
            };
            for (c, s) in cols.iter_mut().zip(runs) {
                c.push(s.ipc());
            }
            let alu_gap = die2x.ipc() - die.ipc();
            let overall_gap = sie.ipc() - die.ipc();
            a_rep.push(if alu_gap > 1e-9 {
                (irb.ipc() - die.ipc()) / alu_gap * 100.0
            } else {
                0.0
            });
            o_rep.push(if overall_gap > 1e-9 {
                (irb.ipc() - die.ipc()) / overall_gap * 100.0
            } else {
                0.0
            });
            die_losses.push(die.ipc_loss_vs(sie));
            irb_losses.push(irb.ipc_loss_vs(sie));
        }
        alu_rec.extend_from_slice(&a_rep);
        all_rec.extend_from_slice(&o_rep);
        table.row(vec![
            w.name().to_owned(),
            pm(&cols[0], 3),
            pm(&cols[1], 3),
            pm(&cols[2], 3),
            pm(&cols[3], 3),
            pm(&a_rep, 1) + "%",
            pm(&o_rep, 1) + "%",
        ]);
    }
    table.row(vec![
        "mean".to_owned(),
        String::new(),
        pct(mean(&die_losses)) + " loss",
        pct(mean(&irb_losses)) + " loss",
        String::new(),
        pct(mean(&alu_rec)),
        pct(mean(&all_rec)),
    ]);

    finish(
        &cli,
        "Headline recovery (reconstructed Fig. A): SIE vs DIE vs DIE-IRB vs DIE-2xALU",
        &format!(
            "forwarding: {}",
            if per_stream {
                "per-stream"
            } else {
                "primary-to-both"
            }
        ),
        &table,
        None,
        &h,
        &errors,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_takes_only_the_two_spellings() {
        let fwd = |a: &[&str]| {
            per_stream_forwarding(&Cli::from_vec(a.iter().map(|s| (*s).to_owned()).collect()))
        };
        assert_eq!(fwd(&["--quick"]), Ok(false));
        assert_eq!(fwd(&["--forwarding", "shared"]), Ok(false));
        assert_eq!(fwd(&["--forwarding", "per-stream"]), Ok(true));
        // Regression: a misspelling or a missing value used to run
        // primary-to-both forwarding without a word.
        assert!(fwd(&["--forwarding", "per_stream"]).is_err());
        assert!(fwd(&["--forwarding"]).is_err());
    }
}
