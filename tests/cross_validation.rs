//! Cross-crate validation: the timing models must agree with the
//! functional emulator on *what* executes, for every workload and every
//! execution mode; only *when* may differ.

use redsim::core::{ExecMode, MachineConfig, Simulator};
use redsim::isa::emu::Emulator;
use redsim::workloads::Workload;

fn trace_len(w: Workload) -> u64 {
    let p = w.program(w.tiny_params()).unwrap();
    let mut e = Emulator::new(&p);
    e.run(200_000_000).unwrap()
}

#[test]
fn every_mode_commits_exactly_the_functional_instruction_count() {
    let cfg = MachineConfig::paper_baseline();
    for w in Workload::ALL {
        let n = trace_len(w);
        let program = w.program(w.tiny_params()).unwrap();
        for mode in [
            ExecMode::Sie,
            ExecMode::Die,
            ExecMode::DieIrb,
            ExecMode::SieIrb,
        ] {
            let stats = Simulator::new(cfg.clone(), mode)
                .run_program(&program)
                .unwrap_or_else(|e| panic!("{w}/{mode:?}: {e}"));
            assert_eq!(stats.committed_insts, n, "{w}/{mode:?}");
            let expect_copies = if mode.is_dual() { 2 * n } else { n };
            assert_eq!(stats.committed_copies, expect_copies, "{w}/{mode:?}");
        }
    }
}

#[test]
fn dual_modes_check_every_value_producing_pair_without_mismatches() {
    let cfg = MachineConfig::paper_baseline();
    for w in [Workload::Gzip, Workload::Mcf, Workload::Wupwise] {
        let program = w.program(w.tiny_params()).unwrap();
        for mode in [ExecMode::Die, ExecMode::DieIrb] {
            let stats = Simulator::new(cfg.clone(), mode)
                .run_program(&program)
                .unwrap();
            assert!(stats.pairs_checked > 0, "{w}/{mode:?}");
            assert_eq!(
                stats.pair_mismatches, 0,
                "{w}/{mode:?}: fault-free execution can never mismatch"
            );
        }
    }
}

#[test]
fn timing_is_sane_for_all_workloads() {
    let cfg = MachineConfig::paper_baseline();
    for w in Workload::ALL {
        let program = w.program(w.tiny_params()).unwrap();
        let stats = Simulator::new(cfg.clone(), ExecMode::Sie)
            .run_program(&program)
            .unwrap();
        let ipc = stats.ipc();
        assert!(
            ipc > 0.05 && ipc <= cfg.issue_width as f64,
            "{w}: implausible IPC {ipc}"
        );
        assert!(stats.cycles >= stats.committed_insts / cfg.fetch_width as u64);
    }
}

#[test]
fn fetch_and_commit_account_for_every_cycle_kind() {
    let cfg = MachineConfig::paper_baseline();
    let w = Workload::Gcc;
    let program = w.program(w.tiny_params()).unwrap();
    let stats = Simulator::new(cfg, ExecMode::Die)
        .run_program(&program)
        .unwrap();
    let stalls = stats.fetch_stalls_branch
        + stats.fetch_stalls_icache
        + stats.fetch_stalls_queue
        + stats.fetch_stalls_btb;
    assert!(stalls <= stats.cycles);
    assert!(stats.active_commit_cycles <= stats.cycles);
    assert!(stats.branches.cond_branches > 0);
}

#[test]
fn identical_trace_identical_stats_across_sources() {
    // Running from the emulator directly and from a captured trace must
    // produce bit-identical statistics.
    use redsim::core::TraceSource;
    let w = Workload::Vpr;
    let program = w.program(w.tiny_params()).unwrap();
    let cfg = MachineConfig::paper_baseline();
    let direct = Simulator::new(cfg.clone(), ExecMode::DieIrb)
        .run_program(&program)
        .unwrap();
    let trace = redsim::isa::trace::Trace::record(program, 200_000_000).unwrap();
    let mut src = TraceSource::new(&trace);
    let replay = Simulator::new(cfg, ExecMode::DieIrb)
        .run_source(&mut src)
        .unwrap();
    assert_eq!(direct, replay);
}
