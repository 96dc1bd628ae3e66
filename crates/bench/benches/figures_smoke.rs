//! Miniature end-to-end runs of each paper experiment, so `cargo bench`
//! exercises every figure's code path on every run. Each benchmark runs
//! one representative workload at tiny scale through the mode/config
//! matrix of the corresponding figure binary.
//!
//! Plain `harness = false` timing binary on [`redsim_util::bench`]; run
//! with `cargo bench -p redsim-bench --bench figures_smoke`.

use std::hint::black_box;

use redsim_bench::Harness;
use redsim_core::{ExecMode, FaultConfig, MachineConfig, Simulator, TraceSource};
use redsim_irb::{IrbConfig, PortConfig, ReusePolicy};
use redsim_util::bench;
use redsim_workloads::Workload;

const APP: Workload = Workload::Gzip;

fn fig2_smoke() {
    let mut h = Harness::quick();
    let base = MachineConfig::paper_baseline();
    let trace = h.trace(APP);
    let r = bench(1, 10, || {
        for cfg in [
            base.clone(),
            base.clone().with_double_alus(),
            base.clone().with_double_ruu(),
            base.clone().with_double_widths(),
        ] {
            let mut src = TraceSource::new(&trace);
            black_box(
                Simulator::new(cfg, ExecMode::Die)
                    .run_source(&mut src)
                    .unwrap(),
            );
        }
    });
    println!("{}", r.report("fig2_smoke", None));
}

fn recovery_smoke() {
    let mut h = Harness::quick();
    let base = MachineConfig::paper_baseline();
    let trace = h.trace(APP);
    let r = bench(1, 10, || {
        for mode in [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb] {
            let mut src = TraceSource::new(&trace);
            black_box(
                Simulator::new(base.clone(), mode)
                    .run_source(&mut src)
                    .unwrap(),
            );
        }
    });
    println!("{}", r.report("fig_recovery_smoke", None));
}

fn irb_sweep_smoke() {
    let mut h = Harness::quick();
    let base = MachineConfig::paper_baseline();
    let trace = h.trace(APP);
    let r = bench(1, 10, || {
        for irb in [
            IrbConfig {
                entries: 128,
                ..IrbConfig::paper_baseline()
            },
            IrbConfig {
                ports: PortConfig {
                    read: 1,
                    write: 1,
                    read_write: 0,
                },
                ..IrbConfig::paper_baseline()
            },
            IrbConfig::paper_baseline_with_victim(),
            IrbConfig {
                policy: ReusePolicy::Name,
                ..IrbConfig::paper_baseline()
            },
        ] {
            let mut cfg = base.clone();
            cfg.irb = irb;
            let mut src = TraceSource::new(&trace);
            black_box(
                Simulator::new(cfg, ExecMode::DieIrb)
                    .run_source(&mut src)
                    .unwrap(),
            );
        }
    });
    println!("{}", r.report("fig_size_ports_conflict_smoke", None));
}

fn faults_smoke() {
    let mut h = Harness::quick();
    let base = MachineConfig::paper_baseline();
    let trace = h.trace(APP);
    let r = bench(1, 10, || {
        let mut src = TraceSource::new(&trace);
        black_box(
            Simulator::new(base.clone(), ExecMode::Die)
                .try_with_faults(FaultConfig {
                    fu_rate: 1e-4,
                    seed: 1,
                    ..FaultConfig::none()
                })
                .expect("valid fault configuration")
                .run_source(&mut src)
                .unwrap(),
        );
    });
    println!("{}", r.report("fig_faults_smoke", None));
}

fn extensions_smoke() {
    let mut h = Harness::quick();
    let base = MachineConfig::paper_baseline();
    let trace = h.trace(APP);
    let r = bench(1, 10, || {
        // Clustered alternative.
        let mut src = TraceSource::new(&trace);
        black_box(
            Simulator::new(base.clone(), ExecMode::DieCluster)
                .run_source(&mut src)
                .unwrap(),
        );
        // Non-data-capture scheduler variants.
        for m in [
            redsim_core::SchedulerModel::NonDataCapturePipelined,
            redsim_core::SchedulerModel::NonDataCaptureNaive,
        ] {
            let mut cfg = base.clone();
            cfg.scheduler = m;
            let mut src = TraceSource::new(&trace);
            black_box(
                Simulator::new(cfg, ExecMode::DieIrb)
                    .run_source(&mut src)
                    .unwrap(),
            );
        }
        // Fidelity knobs.
        let mut cfg = base.clone();
        cfg.wrong_path_fetch = true;
        cfg.stl_forwarding = true;
        let mut src = TraceSource::new(&trace);
        black_box(
            Simulator::new(cfg, ExecMode::Die)
                .run_source(&mut src)
                .unwrap(),
        );
    });
    println!("{}", r.report("fig_cluster_scheduler_fidelity_smoke", None));
}

fn main() {
    fig2_smoke();
    recovery_smoke();
    irb_sweep_smoke();
    faults_smoke();
    extensions_smoke();
}
