//! `redsim-sim` — run the cycle-level simulator.
//!
//! ```text
//! redsim-sim <prog.s|prog.rprog>            run a program
//! redsim-sim --trace <file.rtrc>            replay a captured trace
//! redsim-sim --workload <name> [--scale n]  run a built-in workload
//! redsim-sim --compare ...                  SIE, DIE and DIE-IRB side by side
//! ```
//!
//! The options are the tables `redsim::cli::SIM` and
//! `redsim::cli::COMPARE`; `--help` (with `--compare` for the second)
//! prints them.

use redsim::cli::{COMPARE, SIM};
use redsim_cli::{die, load_program, usage};
use redsim_core::{
    EmulatorSource, EventLog, ExecMode, FaultConfig, ForwardingPolicy, InstructionSource,
    Instrumentation, MachineConfig, MetricsCollector, MetricsSink, NullMetrics, NullTracer,
    SimStats, Simulator, SliceSource, Tracer, DEFAULT_METRICS_WINDOW, REUSE_CLASS_NAMES,
};
use redsim_isa::trace::DynInst;
use redsim_isa::Program;
use redsim_util::flags::{self, FlagError, Parsed};
use redsim_workloads::{Params, Workload};

fn build_config(args: &Parsed) -> MachineConfig {
    let mut cfg = MachineConfig::paper_baseline();
    if args.has("--double-alus") {
        cfg = cfg.with_double_alus();
    }
    if args.has("--double-ruu") {
        cfg = cfg.with_double_ruu();
    }
    if args.has("--double-widths") {
        cfg = cfg.with_double_widths();
    }
    if let Some(n) = args.or_exit(args.get("--irb-entries")) {
        cfg.irb.entries = n;
    }
    let forwarding = args.map("--forwarding", |v| match v {
        "shared" => Ok(ForwardingPolicy::PrimaryToBoth),
        "per-stream" => Ok(ForwardingPolicy::PerStream),
        _ => Err("expects shared or per-stream".to_owned()),
    });
    if let Some(policy) = args.or_exit(forwarding) {
        cfg.forwarding = policy;
    }
    cfg.wrong_path_fetch = args.has("--wrong-path");
    cfg.stl_forwarding = args.has("--stl-forwarding");
    cfg
}

fn print_stats(mode: ExecMode, stats: &SimStats) {
    println!("mode:                {mode:?}");
    println!("instructions:        {}", stats.committed_insts);
    println!("copies committed:    {}", stats.committed_copies);
    println!("cycles:              {}", stats.cycles);
    println!("IPC:                 {:.4}", stats.ipc());
    println!(
        "branch mispredicts:  {} ({:.2}% of conditional branches)",
        stats.branches.cond_mispredicts,
        stats.branches.cond_mispredict_rate() * 100.0
    );
    println!(
        "L1D miss rate:       {:.2}%   L2 miss rate: {:.2}%",
        stats.l1d.miss_rate() * 100.0,
        stats.l2.miss_rate() * 100.0
    );
    if mode.has_irb() {
        println!(
            "IRB:                 {:.1}% pc-hit, {:.1}% reuse-pass, {} bypasses",
            stats.irb.buffer.hit_rate() * 100.0,
            stats.irb.reuse_pass_rate() * 100.0,
            stats.fu_bypasses
        );
    }
    if mode.is_dual() {
        println!(
            "pairs checked:       {} ({} mismatches)",
            stats.pairs_checked, stats.pair_mismatches
        );
    }
    if let Some(a) = &stats.attribution {
        for (name, c) in REUSE_CLASS_NAMES.iter().zip(&a.classes) {
            if c.lookups == 0 {
                continue;
            }
            println!(
                "reuse[{name:>6}]:      {} lookups, {} hits, {} passed",
                c.lookups, c.hits, c.passes
            );
        }
        for site in &a.hot_pcs {
            println!(
                "hot pc {:#010x}:   {} ({} lookups, {} hits, {} passed)",
                site.pc,
                REUSE_CLASS_NAMES[usize::from(site.class)],
                site.counters.lookups,
                site.counters.hits,
                site.counters.passes
            );
        }
        for site in &a.loops {
            println!(
                "loop @ {:#010x}:   {} lookups, {} hits, {} passed",
                site.head, site.counters.lookups, site.counters.hits, site.counters.passes
            );
        }
    }
    if stats.faults.injected_fu + stats.faults.injected_forward + stats.faults.injected_irb > 0 {
        println!(
            "faults:              {} injected, {} detected, {} escaped, {} silent",
            stats.faults.injected_fu + stats.faults.injected_forward + stats.faults.injected_irb,
            stats.faults.detected,
            stats.faults.escaped,
            stats.faults.silent_sie
        );
    }
    let st = &stats.stalls;
    println!(
        "commit activity:     {} of {} cycles productive ({:.1}%)",
        stats.active_commit_cycles,
        stats.cycles,
        if stats.cycles > 0 {
            stats.active_commit_cycles as f64 / stats.cycles as f64 * 100.0
        } else {
            0.0
        }
    );
    println!(
        "stall cycles:        frontend {}, deps {}, issue {}, fu {}, irb-port {}, exec {}, commit {}, rewind {}",
        st.frontend_empty,
        st.waiting_deps,
        st.issue_starved,
        st.fu_contention,
        st.irb_port,
        st.execution,
        st.commit_blocked,
        st.rewind
    );
}

fn main() {
    let argv = flags::args();
    if argv.iter().any(|a| a == "--compare") {
        return compare(&COMPARE.parse_or_exit(&argv));
    }
    let args = SIM.parse_or_exit(&argv);
    let mode = args.map("--mode", |m| {
        ExecMode::from_name(m).ok_or_else(|| "unknown mode".to_owned())
    });
    let mode = args.or_exit(mode).unwrap_or(ExecMode::Sie);
    let rate = |flag| args.or_exit(args.get(flag)).unwrap_or(0.0);
    let faults = FaultConfig {
        fu_rate: rate("--fault-fu"),
        irb_rate: rate("--fault-irb"),
        forward_rate: rate("--fault-bus"),
        seed: args.or_exit(args.get("--seed")).unwrap_or(0),
    };
    let mut sim = Simulator::new(build_config(&args), mode)
        .try_with_faults(faults)
        .unwrap_or_else(|e| usage(&format!("error: invalid fault configuration: {e}")));
    if args.has("--attribution") {
        sim = sim.with_attribution();
    }

    let trace_out = args.value("--trace-out");
    let mut log = EventLog::new();
    let mut null = NullTracer;
    let tracer: &mut dyn Tracer = if trace_out.is_some() {
        &mut log
    } else {
        &mut null
    };

    let metrics_out = args.value("--metrics-out");
    let metrics_prom = args.value("--metrics-prom");
    let metrics_window = args.or_exit(args.positive("--metrics-window"));
    let metrics_wanted = metrics_out.is_some() || metrics_prom.is_some();
    let mut collector = MetricsCollector::new(metrics_window.unwrap_or(DEFAULT_METRICS_WINDOW));
    let mut no_metrics = NullMetrics;
    let metrics: &mut dyn MetricsSink = if metrics_wanted {
        &mut collector
    } else {
        &mut no_metrics
    };
    let instr = Instrumentation {
        tracer,
        metrics,
        profiler: None,
    };

    let input = read_input(&args);
    match sim.run_source_instrumented(&mut *input.source(budget(&args)), instr) {
        Ok(s) => print_stats(mode, &s),
        Err(e) => die(&format!("simulation failed: {e}")),
    }

    if let Some(path) = trace_out {
        std::fs::write(path, format!("{}\n", log.to_chrome_json()))
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        eprintln!("wrote {} trace events to {path}", log.len());
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, collector.to_jsonl()).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        eprintln!(
            "wrote {} metric windows to {path}",
            collector.samples().len()
        );
    }
    if let Some(path) = metrics_prom {
        std::fs::write(path, collector.registry().to_prometheus())
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        eprintln!("wrote Prometheus exposition to {path}");
    }
}

/// What a run replays: the records of an `.rtrc` file, or a program
/// emulated afresh for each run.
enum Input {
    Records(Vec<DynInst>),
    Program(Program),
}

impl Input {
    fn source(&self, budget: u64) -> Box<dyn InstructionSource + '_> {
        match self {
            Input::Records(r) => Box::new(SliceSource::new(r)),
            Input::Program(p) => Box::new(EmulatorSource::new(p, budget)),
        }
    }
}

fn budget(args: &Parsed) -> u64 {
    args.or_exit(args.get("--budget"))
        .unwrap_or(Workload::TRACE_BUDGET)
}

/// The input `--trace`, `--workload` (at `--scale` and `--seed`) or the
/// positional program names; a missing or unreadable one exits.
fn read_input(args: &Parsed) -> Input {
    if let Some(path) = args.value("--trace") {
        let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        let records =
            redsim_isa::trace_io::decode(&bytes).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        return Input::Records(records);
    }
    let workload = args.map("--workload", |name| {
        Workload::from_name(name)
            .ok_or_else(|| "unknown workload; try redsim-workload list".to_owned())
    });
    if let Some(w) = args.or_exit(workload) {
        let d = w.default_params();
        let scale = args.or_exit(args.get("--scale")).unwrap_or(d.scale);
        let seed = args.or_exit(args.get("--seed")).unwrap_or(d.seed);
        let program = w
            .program(Params::new(scale, seed))
            .unwrap_or_else(|e| die(&format!("workload generation failed: {e}")));
        return Input::Program(program);
    }
    match args.positionals().first() {
        Some(path) => Input::Program(load_program(path).unwrap_or_else(|e| die(&e))),
        None => args.fail(&FlagError::Required("a program, --trace or --workload")),
    }
}

/// `--compare`: run SIE, DIE and DIE-IRB over the same input and print
/// a side-by-side summary.
fn compare(args: &Parsed) {
    let cfg = build_config(args);
    let budget = budget(args);
    let input = read_input(args);
    println!(
        "{:<8} {:>12} {:>8} {:>10}",
        "mode", "cycles", "IPC", "vs SIE"
    );
    let mut sie_ipc = 0.0;
    for mode in [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb] {
        let stats = Simulator::new(cfg.clone(), mode)
            .run_source(&mut *input.source(budget))
            .unwrap_or_else(|e| die(&format!("simulation failed: {e}")));
        if mode == ExecMode::Sie {
            sie_ipc = stats.ipc();
        }
        println!(
            "{:<8} {:>12} {:>8.3} {:>9.1}%",
            format!("{mode:?}"),
            stats.cycles,
            stats.ipc(),
            (stats.ipc() / sie_ipc - 1.0) * 100.0
        );
    }
}
