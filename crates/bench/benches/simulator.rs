//! Microbenchmarks of the simulator stack itself: functional emulation
//! throughput, cycle-level simulation throughput per mode, and the hot
//! single structures (IRB lookups, cache accesses, predictor updates).
//! These guard the harness against performance regressions — the figure
//! binaries run millions of simulated cycles.
//!
//! Plain `harness = false` timing binary on [`redsim_util::bench`]; run
//! with `cargo bench -p redsim-bench --bench simulator`. Besides the
//! aligned report lines on stdout, the run writes a machine-readable
//! summary (`BENCH_simulator.json` by default, `--out <path>` to
//! redirect) comparing the five simulator cases against the recorded
//! scan-based baseline, so the event-driven scheduler's speedup stays
//! an auditable number rather than a claim. `--quick` trims the
//! iteration counts for CI smoke runs — timings get noisier, but the
//! file shape and the determinism of the simulated stats don't change.

use std::hint::black_box;

use redsim_core::{
    ExecMode, HostProfiler, Instrumentation, MachineConfig, NullMetrics, NullTracer, Simulator,
    TraceSource,
};
use redsim_irb::{IrbConfig, IrbEntry, ReuseBuffer};
use redsim_mem::{Hierarchy, HierarchyConfig};
use redsim_predictor::Bimodal;
use redsim_util::{bench, BenchResult, Json};
use redsim_workloads::Workload;

/// Minimum iteration time of the scan-based scheduler (the pre-event-
/// driven seed of this repo) on the same five cases, in milliseconds.
/// Recorded on the reference container with `bench(2, 10)`; keyed by
/// the stable `case_id`s produced by [`simulation_throughput`], so the
/// pairing survives display renames.
const SCAN_BASELINE_MS: [(&str, f64); 5] = [
    ("sim.sie.gzip.tiny", 12.09),
    ("sim.die.gzip.tiny", 21.00),
    ("sim.die-irb.gzip.tiny", 39.71),
    ("sim.die.gzip.tiny.2xruu", 23.26),
    ("sim.die-irb.gzip.tiny.2xruu", 49.82),
];

struct Case {
    /// Stable machine identity, carried as `case_id` in the summary:
    /// `redsim-bench diff` matches on it, so display names can be
    /// reworded without old/new summaries failing to pair up.
    id: &'static str,
    name: String,
    result: BenchResult,
    elements: Option<u64>,
}

fn record(
    cases: &mut Vec<Case>,
    id: &'static str,
    name: &str,
    result: BenchResult,
    elements: Option<u64>,
) {
    println!("{}", result.report(name, elements));
    cases.push(Case {
        id,
        name: name.to_owned(),
        result,
        elements,
    });
}

fn emulator_throughput(cases: &mut Vec<Case>, iters: (u32, u32)) {
    let w = Workload::Gzip;
    let program = w.program(w.tiny_params()).unwrap();
    let len = {
        let mut e = redsim_isa::emu::Emulator::new(&program);
        e.run(100_000_000).unwrap()
    };
    let r = bench(iters.0, iters.1, || {
        let mut e = redsim_isa::emu::Emulator::new(&program);
        black_box(e.run(100_000_000).unwrap())
    });
    record(cases, "emu.gzip.tiny", "emulator/gzip_tiny", r, Some(len));
}

fn simulation_throughput(cases: &mut Vec<Case>, iters: (u32, u32)) {
    let w = Workload::Gzip;
    let trace = w.trace(w.tiny_params(), 100_000_000).unwrap();
    let cfg = MachineConfig::paper_baseline();
    for (mode, id) in [
        (ExecMode::Sie, "sim.sie.gzip.tiny"),
        (ExecMode::Die, "sim.die.gzip.tiny"),
        (ExecMode::DieIrb, "sim.die-irb.gzip.tiny"),
    ] {
        let r = bench(iters.0, iters.1, || {
            let mut src = TraceSource::new(&trace);
            black_box(
                Simulator::new(cfg.clone(), mode)
                    .run_source(&mut src)
                    .unwrap(),
            )
        });
        record(
            cases,
            id,
            &format!("simulator/{mode:?}_gzip_tiny"),
            r,
            Some(trace.len() as u64),
        );
    }
    let big = MachineConfig::paper_baseline().with_double_ruu();
    for (mode, id) in [
        (ExecMode::Die, "sim.die.gzip.tiny.2xruu"),
        (ExecMode::DieIrb, "sim.die-irb.gzip.tiny.2xruu"),
    ] {
        let r = bench(iters.0, iters.1, || {
            let mut src = TraceSource::new(&trace);
            black_box(
                Simulator::new(big.clone(), mode)
                    .run_source(&mut src)
                    .unwrap(),
            )
        });
        record(
            cases,
            id,
            &format!("simulator/{mode:?}_gzip_tiny_2xruu"),
            r,
            Some(trace.len() as u64),
        );
    }
}

fn irb_operations(cases: &mut Vec<Case>, iters: (u32, u32)) {
    let mut irb = ReuseBuffer::new(IrbConfig::paper_baseline());
    let mut pc = 0x1000u64;
    let r = bench(iters.0, iters.1, || {
        for _ in 0..1000 {
            pc = pc.wrapping_add(8) & 0xfff8;
            irb.insert(IrbEntry {
                pc,
                op1: pc,
                op2: 3,
                result: pc + 3,
            });
            black_box(irb.lookup(pc.wrapping_sub(64)));
        }
    });
    record(
        cases,
        "irb.lookup-insert.1024dm",
        "irb/lookup_insert_1024dm (x1000)",
        r,
        None,
    );
}

fn cache_accesses(cases: &mut Vec<Case>, iters: (u32, u32)) {
    let mut h = Hierarchy::new(HierarchyConfig::paper_baseline());
    let mut addr = 0u64;
    let r = bench(iters.0, iters.1, || {
        for _ in 0..1000 {
            addr = addr.wrapping_add(64) & 0xf_ffff;
            black_box(h.read_data(addr));
        }
    });
    record(
        cases,
        "cache.hierarchy.streaming",
        "cache/hierarchy_streaming (x1000)",
        r,
        None,
    );
}

fn predictor_updates(cases: &mut Vec<Case>, iters: (u32, u32)) {
    let mut p = Bimodal::new(4096);
    let mut pc = 0u64;
    let r = bench(iters.0, iters.1, || {
        for _ in 0..1000 {
            pc = pc.wrapping_add(8);
            let t = pc & 16 != 0;
            p.update(pc, t);
            black_box(p.predict(pc));
        }
    });
    record(
        cases,
        "predictor.bimodal.train-predict",
        "predictor/bimodal_train_predict (x1000)",
        r,
        None,
    );
}

/// One instrumented (untimed) DIE-IRB run with the host profiler
/// attached: where the simulator itself spends wall-clock, by pipeline
/// phase. Kept separate from the timed loops above so the ~6
/// monotonic-clock reads per cycle never contaminate the min-of-N
/// numbers the regression gate compares.
fn host_phase_profile() -> Json {
    let w = Workload::Gzip;
    let trace = w.trace(w.tiny_params(), 100_000_000).unwrap();
    let mut prof = HostProfiler::default();
    let mut tracer = NullTracer;
    let mut src = TraceSource::new(&trace);
    Simulator::new(MachineConfig::paper_baseline(), ExecMode::DieIrb)
        .run_source_instrumented(
            &mut src,
            Instrumentation {
                tracer: &mut tracer,
                metrics: &mut NullMetrics,
                profiler: Some(&mut prof),
            },
        )
        .expect("profiled run completes");
    prof.to_json()
}

fn baseline_ms(case_id: &str) -> Option<f64> {
    SCAN_BASELINE_MS
        .iter()
        .find(|(id, _)| *id == case_id)
        .map(|&(_, ms)| ms)
}

fn summary_json(cases: &[Case], quick: bool, host_phases: Json) -> Json {
    let mut arr = Json::arr();
    let mut speedups = Vec::new();
    for c in cases {
        let min_ms = c.result.min.as_secs_f64() * 1e3;
        let mut obj = Json::obj()
            .field("case_id", c.id)
            .field("name", c.name.as_str())
            .field("iters", c.result.iters)
            .field("min_ms", min_ms)
            .field("mean_ms", c.result.mean.as_secs_f64() * 1e3)
            .field("max_ms", c.result.max.as_secs_f64() * 1e3);
        if let Some(n) = c.elements {
            obj = obj.field("melem_per_sec", c.result.throughput(n) / 1e6);
        }
        if let Some(base) = baseline_ms(c.id) {
            let speedup = if min_ms > 0.0 { base / min_ms } else { 0.0 };
            speedups.push(speedup);
            obj = obj
                .field("scan_baseline_min_ms", base)
                .field("speedup_vs_scan", speedup);
        }
        arr = arr.item(obj);
    }
    let geomean = if speedups.is_empty() {
        0.0
    } else {
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp()
    };
    Json::obj()
        .field("bench", "simulator")
        .field("quick", quick)
        .field("trace", "gzip tiny (committed-path µop trace)")
        .field(
            "scan_baseline",
            "scan-based scheduler seed, bench(2,10) min on the reference container",
        )
        .field("geomean_speedup_vs_scan", geomean)
        .field("host_phases", host_phases)
        .field("cases", arr)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // Cargo runs bench binaries with the package directory as cwd, so
    // anchor the default output at the workspace root instead.
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simulator.json");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or(default_out, String::as_str);

    // Quick mode exists for CI smoke: one warmup + three timed
    // iterations keeps the whole run under a few seconds while still
    // exercising every case and the summary writer.
    let sim_iters = if quick { (1, 3) } else { (2, 10) };
    let micro_iters = if quick { (10, 100) } else { (100, 1000) };

    let mut cases = Vec::new();
    emulator_throughput(&mut cases, sim_iters);
    simulation_throughput(&mut cases, sim_iters);
    irb_operations(&mut cases, micro_iters);
    cache_accesses(&mut cases, micro_iters);
    predictor_updates(&mut cases, micro_iters);

    let json = summary_json(&cases, quick, host_phase_profile());
    std::fs::write(out, format!("{json}\n")).expect("write bench summary");
    println!("wrote {out}");
}
