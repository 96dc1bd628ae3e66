//! Miniature end-to-end runs of each paper experiment, so `cargo bench`
//! exercises every figure's code path on every run. Each grid figure's
//! declared runs ([`redsim_bench::figures::ALL`]) go through the harness
//! on one workload at tiny scale, so this smoke runs exactly what the
//! figure binaries run; a fault-injection case stands in for
//! `fig_faults`.
//!
//! Plain `harness = false` timing binary on [`redsim_util::bench`]; run
//! with `cargo bench -p redsim-bench --bench figures_smoke`.

use std::hint::black_box;

use redsim_bench::{figures, Harness, Job};
use redsim_core::{ExecMode, FaultConfig, MachineConfig};
use redsim_util::bench;
use redsim_workloads::Workload;

const APP: Workload = Workload::Gzip;

fn main() {
    let mut h = Harness::quick();
    for (name, figure) in figures::ALL {
        let jobs = figure().jobs(&[APP]);
        let r = bench(1, 10, || black_box(h.sweep(&jobs, 1)));
        println!("{}", r.report(&format!("{name}_smoke"), None));
    }
    let faults = FaultConfig {
        fu_rate: 1e-4,
        seed: 1,
        ..FaultConfig::none()
    };
    let jobs = [Job::new(APP, ExecMode::Die, &MachineConfig::paper_baseline()).with_faults(faults)];
    let r = bench(1, 10, || black_box(h.sweep(&jobs, 1)));
    println!("{}", r.report("fig_faults_smoke", None));
}
