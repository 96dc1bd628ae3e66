//! The grid figures' declarations, one function per figure binary; each
//! binary is `grid::main` on its function here.

use redsim_core::ExecMode::{Die, DieCluster, DieIrb, Sie, SieIrb};
use redsim_core::{IssuePolicy, MachineConfig, SchedulerModel, SimStats};
use redsim_irb::{IrbConfig, PortConfig, ReusePolicy};

use crate::grid::Format::{Count, Ipc, Pct};
use crate::grid::{Declaration, Figure};

/// Every grid figure by binary name.
pub const ALL: [(&str, Declaration); 11] = [
    ("fig2", fig2),
    ("fig_priority", fig_priority),
    ("fig_size_sweep", fig_size_sweep),
    ("fig_cluster", fig_cluster),
    ("fig_sie_irb", fig_sie_irb),
    ("fig_hitrate", fig_hitrate),
    ("fig_scheduler", fig_scheduler),
    ("fig_name_vs_value", fig_name_vs_value),
    ("fig_ports", fig_ports),
    ("fig_conflict", fig_conflict),
    ("fig_fidelity", fig_fidelity),
];

/// Reuse-test pass rate, in percent.
fn pass(s: &SimStats) -> f64 {
    s.irb.reuse_pass_rate() * 100.0
}

/// Figure 2: percentage IPC loss with respect to SIE for the base DIE
/// and the seven resource-doubled DIE configurations.
///
/// Expected shape (paper §2.2): the base DIE loses 1–43% (~22% mean);
/// `2xALU` is the single most effective doubling; doubling all three
/// resources (`2xALU-2xRUU-2xWidths`) brings DIE back to roughly SIE.
#[must_use]
pub fn fig2() -> Figure {
    let base = MachineConfig::paper_baseline();
    let mut fig = Figure::new("Figure 2: % IPC loss with respect to SIE")
        .run(Sie, &base)
        .col("SIE-IPC", Ipc, |r| r[0].ipc())
        .no_mean();
    let doublings = [
        (false, false, false),
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, false),
        (true, false, true),
        (false, true, true),
        (true, true, true),
    ];
    for (i, (alu, ruu, widths)) in doublings.into_iter().enumerate() {
        let (mut name, mut cfg) = ("DIE".to_owned(), base.clone());
        if alu {
            (name, cfg) = (name + "-2xALU", cfg.with_double_alus());
        }
        if ruu {
            (name, cfg) = (name + "-2xRUU", cfg.with_double_ruu());
        }
        if widths {
            (name, cfg) = (name + "-2xWidths", cfg.with_double_widths());
        }
        fig = fig
            .run(Die, &cfg)
            .col(format!("{name} loss"), Pct, move |r| {
                r[i + 1].ipc_loss_vs(&r[0])
            });
    }
    fig
}

/// Scheduling-vs-reuse ablation: how much of DIE-IRB's gain comes from
/// giving the primary stream issue priority (a scheduling policy that
/// needs no IRB at all) versus from the reuse bypass itself. Plain DIE
/// (symmetric oldest-first), DIE with primary-first selection but no
/// IRB, and full DIE-IRB.
#[must_use]
pub fn fig_priority() -> Figure {
    let base = MachineConfig::paper_baseline();
    let mut priority = base.clone();
    priority.issue_policy = IssuePolicy::PrimaryFirst;
    Figure::new("Scheduling vs reuse: where DIE-IRB's gain comes from")
        .ipc_run("SIE", Sie, &base)
        .ipc_run("DIE", Die, &base)
        .ipc_run("DIE+priority", Die, &priority)
        .ipc_run("DIE-IRB", DieIrb, &base)
}

/// Reconstructed Fig. C: DIE-IRB IPC sensitivity to IRB capacity
/// (16–4096 entries, direct-mapped), against the DIE and SIE anchors.
#[must_use]
pub fn fig_size_sweep() -> Figure {
    let base = MachineConfig::paper_baseline();
    let mut fig = Figure::new("DIE-IRB IPC vs IRB capacity (reconstructed Fig. C)")
        .run(Die, &base)
        .run(Sie, &base)
        .col("DIE", Ipc, |r| r[0].ipc())
        .no_mean();
    for entries in [16, 32, 64, 128, 256, 512, 1024, 4096] {
        let mut cfg = base.clone();
        cfg.irb.entries = entries;
        fig = fig.ipc_run(format!("IRB-{entries}"), DieIrb, &cfg);
    }
    fig.col("SIE", Ipc, |r| r[1].ipc()).no_mean()
}

/// The clustered alternative (§3): give the duplicate stream its own
/// replicated functional-unit cluster instead of an IRB. The paper
/// rejects this as "bordering on spatial redundancy" — those replicated
/// units could have sped up SIE instead. DIE-Cluster is compared both
/// against DIE-IRB (which spends almost no hardware) and against
/// SIE-2xALU (what the same transistors buy without redundancy).
#[must_use]
pub fn fig_cluster() -> Figure {
    let base = MachineConfig::paper_baseline();
    Figure::new("Clustered DIE vs DIE-IRB vs what the transistors buy in SIE (§3)")
        .note(format!(
            "cluster: replicated 4/2/2/1 FUs + {}-cycle inter-cluster data delay",
            base.cluster_delay
        ))
        .ipc_run("SIE", Sie, &base)
        .ipc_run("DIE", Die, &base)
        .ipc_run("DIE-IRB", DieIrb, &base)
        .ipc_run("DIE-Cluster", DieCluster, &base)
        .ipc_run("SIE-2xALU", Sie, &base.clone().with_double_alus())
}

/// Percent speedup of run `of` over run `over`.
fn speedup(of: usize, over: usize) -> impl Fn(&[SimStats]) -> f64 {
    move |r| (r[of].ipc() / r[over].ipc() - 1.0) * 100.0
}

/// Ablation H: the same IRB attached to SIE vs to DIE. Reproduces the
/// observation (Sodani & Sohi via Citron et al., recounted in §1) that
/// bandwidth amplification barely helps a balanced single-stream core,
/// while it strongly helps the overloaded DIE core — the paper's reason
/// for revisiting instruction reuse.
#[must_use]
pub fn fig_sie_irb() -> Figure {
    let base = MachineConfig::paper_baseline();
    let mut longlat = base.clone();
    longlat.reuse_long_latency_only = true;
    Figure::new("IRB on SIE vs IRB on DIE (Ablation H)")
        .run(Sie, &base)
        .run(SieIrb, &base)
        .run(SieIrb, &longlat)
        .run(Die, &base)
        .run(DieIrb, &base)
        .col("SIE-IRB speedup over SIE", Pct, speedup(1, 0))
        .col("SIE-IRB (long-latency ops only)", Pct, speedup(2, 0))
        .col("DIE-IRB speedup over DIE", Pct, speedup(4, 3))
}

/// Reconstructed Fig. B: IRB behaviour per workload under DIE-IRB —
/// PC-hit rate, reuse-test pass rate, the fraction of duplicate-stream
/// work that bypassed the functional units, and port starvation.
#[must_use]
pub fn fig_hitrate() -> Figure {
    Figure::new("IRB hit and reuse rates under DIE-IRB (reconstructed Fig. B)")
        .note("1024-entry direct-mapped, 4R/2W/2RW")
        .run(DieIrb, &MachineConfig::paper_baseline())
        .run_col("pc-hit", Pct, |s| s.irb.buffer.hit_rate() * 100.0)
        .run_col("reuse-pass", Pct, pass)
        .run_col("dup-bypassed", Pct, |s| s.bypass_fraction() * 100.0)
        .run_col("lookups-starved", Count, |s| {
            s.irb.lookups_port_starved as f64
        })
        .no_mean()
        .run_col("inserts-starved", Count, |s| {
            s.irb.inserts_port_starved as f64
        })
        .no_mean()
        .run_col("conflict-evictions", Count, |s| {
            s.irb.buffer.conflict_evictions as f64
        })
        .no_mean()
}

/// §3.3's scheduler discussion, measured: the data-capture issue window
/// (reuse test in parallel with operand capture), the pipelined
/// non-data-capture adaptation (reuse test one cycle after wakeup,
/// following the register-file read), and the naive non-data-capture
/// design where a passing reuse test wastes the already-allocated
/// functional unit — forfeiting the bandwidth benefit entirely.
#[must_use]
pub fn fig_scheduler() -> Figure {
    let base = MachineConfig::paper_baseline();
    let mut fig =
        Figure::new("DIE-IRB under the three scheduler models of §3.3").ipc_run("DIE", Die, &base);
    for (name, model) in [
        ("data-capture", SchedulerModel::DataCapture),
        ("ndc-pipelined", SchedulerModel::NonDataCapturePipelined),
        ("ndc-naive", SchedulerModel::NonDataCaptureNaive),
    ] {
        let mut cfg = base.clone();
        cfg.scheduler = model;
        fig = fig
            .ipc_run(format!("{name} IPC"), DieIrb, &cfg)
            .run_col(format!("{name} bypass"), Count, |s| s.fu_bypasses as f64)
            .no_mean();
    }
    fig
}

/// Ablation G (§3.3): value-based vs name-based reuse tests. Name-based
/// reuse invalidates an entry whenever one of its source registers is
/// overwritten, avoiding operand comparators — at the cost of hit rate.
#[must_use]
pub fn fig_name_vs_value() -> Figure {
    let value_cfg = MachineConfig::paper_baseline();
    let mut name_cfg = value_cfg.clone();
    name_cfg.irb.policy = ReusePolicy::Name;
    Figure::new("Value-based vs name-based reuse (Ablation G, §3.3)")
        .ipc_run("value IPC", DieIrb, &value_cfg)
        .run_col("value pass", Pct, pass)
        .no_mean()
        .ipc_run("name IPC", DieIrb, &name_cfg)
        .run_col("name pass", Pct, pass)
        .no_mean()
}

/// Reconstructed Fig. D: DIE-IRB sensitivity to IRB port provisioning.
/// The paper argues (§3.2) that modest ports suffice because only the
/// duplicate stream reads the IRB and the effective dispatch rate of a
/// DIE core is half that of SIE.
#[must_use]
pub fn fig_ports() -> Figure {
    let base = MachineConfig::paper_baseline();
    let rw = |read, write| PortConfig {
        read,
        write,
        read_write: 0,
    };
    let mut fig = Figure::new("DIE-IRB IPC vs IRB port provisioning (reconstructed Fig. D)");
    for (name, ports) in [
        ("1R/1W", rw(1, 1)),
        ("2R/1W", rw(2, 1)),
        ("2R/2W", rw(2, 2)),
        ("4R/2W/2RW", PortConfig::paper_baseline()),
        ("8R/4W", rw(8, 4)),
        ("unlimited", PortConfig::unlimited()),
    ] {
        let mut cfg = base.clone();
        cfg.irb.ports = ports;
        fig = fig.ipc_run(name, DieIrb, &cfg);
    }
    fig
}

/// Reconstructed Fig. E: the conflict-miss-reduction mechanism. The
/// comparison runs at a *small* IRB capacity (64 entries), where the
/// kernels' static footprints actually conflict — at the paper's 1024
/// entries our kernels fit outright and every organization ties, which
/// is itself the paper's point that 1024 entries suffice. Direct-mapped
/// vs a 16-entry victim buffer vs 2-way and 4-way of the same capacity.
#[must_use]
pub fn fig_conflict() -> Figure {
    let base = MachineConfig::paper_baseline();
    let small = IrbConfig {
        entries: 64,
        ..IrbConfig::paper_baseline()
    };
    let mut fig = Figure::new("IRB conflict-miss reduction (reconstructed Fig. E)")
        .note("64 entries per organization + the 1024-entry reference");
    for (name, irb) in [
        ("DM", small),
        (
            "DM+victim16",
            IrbConfig {
                victim_entries: 16,
                ..small
            },
        ),
        ("2-way", IrbConfig { assoc: 2, ..small }),
        ("4-way", IrbConfig { assoc: 4, ..small }),
        ("DM-1024 (paper)", IrbConfig::paper_baseline()),
    ] {
        let mut cfg = base.clone();
        cfg.irb = irb;
        fig = fig
            .ipc_run(format!("{name} IPC"), DieIrb, &cfg)
            .run_col(format!("{name} pass"), Pct, pass)
            .no_mean();
    }
    fig
}

/// Fidelity ablation: how much do the optional model refinements —
/// wrong-path I-cache pollution and store-to-load forwarding — move the
/// results the paper cares about? Both effects apply to SIE and DIE
/// alike, so the *relative* DIE loss should be nearly invariant.
#[must_use]
pub fn fig_fidelity() -> Figure {
    let base = MachineConfig::paper_baseline();
    let mut full = base.clone();
    full.wrong_path_fetch = true;
    full.stl_forwarding = true;
    Figure::new("Fidelity ablation: wrong-path i-fetch + store-to-load forwarding")
        .run(Sie, &base)
        .run(Die, &base)
        .run(Sie, &full)
        .run(Die, &full)
        .col("SIE base", Ipc, |r| r[0].ipc())
        .no_mean()
        .col("SIE full-fidelity", Ipc, |r| r[2].ipc())
        .no_mean()
        .col("DIE loss base", Pct, |r| r[1].ipc_loss_vs(&r[0]))
        .col("DIE loss full-fidelity", Pct, |r| r[3].ipc_loss_vs(&r[2]))
}
