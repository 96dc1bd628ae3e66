//! `redsim-sim` — run the cycle-level simulator.
//!
//! ```text
//! redsim-sim <prog.s|prog.rprog>            run a program
//! redsim-sim --trace <file.rtrc>            replay a captured trace
//! redsim-sim --workload <name> [--scale n]  run a built-in workload
//!
//! options:
//!   --mode sie|die|die-irb|sie-irb|die-cluster   (default: sie)
//!   --double-alus --double-ruu --double-widths   Figure-2 knobs
//!   --irb-entries <n>                            IRB capacity
//!   --forwarding shared|per-stream               §3.3 wakeup policy
//!   --fault-fu <rate> --fault-irb <rate> --fault-bus <rate> --seed <s>
//!   --attribution                                reuse-attribution breakdown
//!   --wrong-path                                 model wrong-path i-fetch
//!   --stl-forwarding                             store-to-load forwarding
//!   --compare                                    run SIE, DIE and DIE-IRB
//!   --trace-out <file.json>                      Chrome-trace event dump
//!   --metrics-out <file.jsonl>                   windowed time-series dump
//!   --metrics-prom <file.prom>                   Prometheus text exposition
//!   --metrics-window <n>                         window width in cycles (10000)
//!   --budget <n>
//! ```

use redsim_cli::{die, load_program, usage, Args};
use redsim_core::{
    EmulatorSource, EventLog, ExecMode, FaultConfig, ForwardingPolicy, Instrumentation,
    MachineConfig, MetricsCollector, MetricsSink, NullMetrics, NullTracer, SimStats, Simulator,
    SliceSource, Tracer, DEFAULT_METRICS_WINDOW, REUSE_CLASS_NAMES,
};
use redsim_isa::trace::DynInst;
use redsim_isa::Program;
use redsim_workloads::{Params, Workload};

fn build_config(args: &Args) -> Result<MachineConfig, String> {
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
    if let Some(n) = args.value_of("--irb-entries") {
        cfg.irb.entries = n.parse().map_err(|_| format!("bad --irb-entries `{n}`"))?;
    }
    match args.value_of("--forwarding") {
        None | Some("shared") => {}
        Some("per-stream") => cfg.forwarding = ForwardingPolicy::PerStream,
        Some(other) => return Err(format!("bad --forwarding `{other}`")),
    }
    if args.has("--wrong-path") {
        cfg.wrong_path_fetch = true;
    }
    if args.has("--stl-forwarding") {
        cfg.stl_forwarding = true;
    }
    Ok(cfg)
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
    let args = Args::from_env();
    if args.has("--compare") {
        return compare(&args);
    }
    let mode = match args.value_of("--mode") {
        None => ExecMode::Sie,
        Some(m) => ExecMode::from_name(m).unwrap_or_else(|| die(&format!("unknown mode `{m}`"))),
    };
    let cfg = build_config(&args).unwrap_or_else(|e| die(&e));
    let budget = args
        .parsed_or("--budget", Workload::TRACE_BUDGET)
        .unwrap_or_else(|e| die(&e));
    let faults = FaultConfig {
        fu_rate: args
            .parsed_or("--fault-fu", 0.0)
            .unwrap_or_else(|e| die(&e)),
        irb_rate: args
            .parsed_or("--fault-irb", 0.0)
            .unwrap_or_else(|e| die(&e)),
        forward_rate: args
            .parsed_or("--fault-bus", 0.0)
            .unwrap_or_else(|e| die(&e)),
        seed: args.parsed_or("--seed", 0u64).unwrap_or_else(|e| die(&e)),
    };
    let mut sim = Simulator::new(cfg, mode)
        .with_budget(budget)
        .try_with_faults(faults)
        .unwrap_or_else(|e| die(&format!("invalid fault configuration: {e}")));
    if args.has("--attribution") {
        sim = sim.with_attribution();
    }

    let trace_out = args.value_of("--trace-out").map(str::to_owned);
    let mut log = EventLog::new();
    let mut null = NullTracer;
    let tracer: &mut dyn Tracer = if trace_out.is_some() {
        &mut log
    } else {
        &mut null
    };

    let metrics_out = args.value_of("--metrics-out").map(str::to_owned);
    let metrics_prom = args.value_of("--metrics-prom").map(str::to_owned);
    let metrics_window = args
        .parsed_or("--metrics-window", DEFAULT_METRICS_WINDOW)
        .unwrap_or_else(|e| die(&e));
    if metrics_window == 0 {
        die("--metrics-window expects a positive cycle count, got 0");
    }
    let metrics_wanted = metrics_out.is_some() || metrics_prom.is_some();
    let mut collector = MetricsCollector::new(metrics_window);
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

    let stats = if let Some(trace_path) = args.value_of("--trace") {
        let trace = read_trace_file(trace_path);
        sim.run_source_instrumented(&mut SliceSource::new(&trace), instr)
    } else if let Some(name) = args.value_of("--workload") {
        let w = Workload::from_name(name).unwrap_or_else(|| {
            die(&format!(
                "unknown workload `{name}`; try redsim-workload list"
            ))
        });
        let scale = args
            .parsed_or("--scale", w.default_params().scale)
            .unwrap_or_else(|e| die(&e));
        let seed = args
            .parsed_or("--seed", w.default_params().seed)
            .unwrap_or_else(|e| die(&e));
        let program = w
            .program(Params::new(scale, seed))
            .unwrap_or_else(|e| die(&format!("workload generation failed: {e}")));
        sim.run_program_instrumented(&program, instr)
    } else if let Some(input) = args.positional().first() {
        let program = load_program(input).unwrap_or_else(|e| die(&e));
        sim.run_program_instrumented(&program, instr)
    } else {
        usage(
            "usage: redsim-sim <prog.s|prog.rprog> | --trace <file.rtrc> | --workload <name>\n\
             run `redsim-sim --help-modes` or see the crate docs for options",
        );
    };

    match stats {
        Ok(s) => print_stats(mode, &s),
        Err(e) => die(&format!("simulation failed: {e}")),
    }

    if let Some(path) = trace_out {
        std::fs::write(&path, format!("{}\n", log.to_chrome_json()))
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        eprintln!("wrote {} trace events to {path}", log.len());
    }
    if let Some(path) = metrics_out {
        std::fs::write(&path, collector.to_jsonl())
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        eprintln!(
            "wrote {} metric windows to {path}",
            collector.samples().len()
        );
    }
    if let Some(path) = metrics_prom {
        std::fs::write(&path, collector.registry().to_prometheus())
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        eprintln!("wrote Prometheus exposition to {path}");
    }
}

/// Reads and decodes an `.rtrc` file, or exits with its error.
fn read_trace_file(path: &str) -> Vec<DynInst> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    redsim_isa::trace_io::decode(&bytes).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// What `--compare` runs each mode over.
enum CompareInput {
    /// The records of an `.rtrc` file.
    Records(Vec<DynInst>),
    /// A program, emulated afresh for each mode.
    Program(Program),
}

/// `--compare`: run SIE, DIE and DIE-IRB over the same input and print
/// a side-by-side summary.
fn compare(args: &Args) {
    let cfg = build_config(args).unwrap_or_else(|e| die(&e));
    let budget = args
        .parsed_or("--budget", Workload::TRACE_BUDGET)
        .unwrap_or_else(|e| die(&e));
    let input = if let Some(trace_path) = args.value_of("--trace") {
        CompareInput::Records(read_trace_file(trace_path))
    } else if let Some(name) = args.value_of("--workload") {
        let w =
            Workload::from_name(name).unwrap_or_else(|| die(&format!("unknown workload `{name}`")));
        let scale = args
            .parsed_or("--scale", w.default_params().scale)
            .unwrap_or_else(|e| die(&e));
        let program = w
            .program(Params::new(scale, w.default_params().seed))
            .unwrap_or_else(|e| die(&format!("workload generation failed: {e}")));
        CompareInput::Program(program)
    } else if let Some(input) = args.positional().first() {
        CompareInput::Program(load_program(input).unwrap_or_else(|e| die(&e)))
    } else {
        die("--compare needs a program, --trace or --workload");
    };
    println!(
        "{:<8} {:>12} {:>8} {:>10}",
        "mode", "cycles", "IPC", "vs SIE"
    );
    let mut sie_ipc = 0.0;
    for mode in [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb] {
        let sim = Simulator::new(cfg.clone(), mode);
        let stats = match &input {
            CompareInput::Records(r) => sim.run_source(&mut SliceSource::new(r)),
            CompareInput::Program(p) => sim.run_source(&mut EmulatorSource::new(p, budget)),
        }
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
