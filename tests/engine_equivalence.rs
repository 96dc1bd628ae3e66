//! Generative equivalence: the event-driven scheduling core against the
//! full-window scan reference.
//!
//! The event-driven scheduler (per-stream ready bitsets + completion
//! calendar) is a pure host-side optimization: every cycle it must
//! select exactly the entries the O(window) scans would, on every
//! program, in every execution mode, at every window size, with and
//! without fault injection. Debug builds (the test profile) check that
//! inside the cycle loop: issue and writeback compare their selection
//! with the full-window scan (`Ruu::scan`) and panic, naming the cycle,
//! on any difference. These tests draw random programs from a
//! fixed-seed [`redsim_util::Rng`] (the mixed flavour of the shared
//! generator in `programs/mod.rs`: straight-line code with forward-only
//! branches, so everything terminates) and run each one under that
//! oracle.
//!
//! A failing case replays exactly under `cargo test`.

use redsim::core::{ExecMode, FaultConfig, MachineConfig, SimStats, Simulator};
use redsim::isa::Program;
use redsim_util::Rng;

mod programs;

/// Runs `program` once; the scheduler oracle checks every cycle.
fn checked_run(
    program: &Program,
    cfg: &MachineConfig,
    mode: ExecMode,
    faults: FaultConfig,
) -> SimStats {
    Simulator::new(cfg.clone(), mode)
        .try_with_faults(faults)
        .expect("valid fault configuration")
        .run_program(program)
        .expect("run completes")
}

const ALL_MODES: [ExecMode; 5] = [
    ExecMode::Sie,
    ExecMode::Die,
    ExecMode::DieIrb,
    ExecMode::SieIrb,
    ExecMode::DieCluster,
];

#[test]
fn engines_agree_on_any_program_in_every_mode() {
    let mut rng = Rng::new(0xE0E_0001);
    let cfg = MachineConfig::tiny();
    for case in 0..16u64 {
        let program = programs::MIXED.program(&mut rng, 5, 120);
        for mode in ALL_MODES {
            let s = checked_run(&program, &cfg, mode, FaultConfig::none());
            assert!(s.committed_insts > 0, "case {case} {mode:?}");
        }
    }
}

#[test]
fn engines_agree_at_paper_scale_windows() {
    // The full-size RUU (and its doubled variant) is where the scan
    // pays O(window) per cycle — and where an event-driven bookkeeping
    // slip (an entry left in a ready set, a calendar slot off by one)
    // would most plausibly change scheduling order.
    let mut rng = Rng::new(0xE0E_0002);
    let base = MachineConfig::paper_baseline();
    let big = MachineConfig::paper_baseline().with_double_ruu();
    for case in 0..4u64 {
        let program = programs::MIXED.program(&mut rng, 40, 160);
        for (name, cfg) in [("paper", &base), ("2xruu", &big)] {
            for mode in [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb] {
                let s = checked_run(&program, cfg, mode, FaultConfig::none());
                assert!(s.committed_insts > 0, "case {case} {name} {mode:?}");
            }
        }
    }
}

#[test]
fn engines_agree_under_fault_injection() {
    // Faults add the recovery paths (pair mismatches, IRB strikes,
    // squash-free re-execution) to the schedule; the event-driven
    // structures must still track them exactly.
    let mut rng = Rng::new(0xE0E_0003);
    let cfg = MachineConfig::tiny();
    let faults = FaultConfig {
        fu_rate: 0.01,
        forward_rate: 0.005,
        irb_rate: 0.002,
        seed: 0xFA17,
    };
    for case in 0..8u64 {
        let program = programs::MIXED.program(&mut rng, 20, 120);
        for mode in [ExecMode::Die, ExecMode::DieIrb, ExecMode::DieCluster] {
            let s = checked_run(&program, &cfg, mode, faults);
            assert!(s.committed_insts > 0, "case {case} {mode:?}");
        }
    }
}

#[test]
fn fault_lifecycle_is_conserved_and_identical_in_every_mode() {
    // The four-way lifecycle classification (detected / masked / silent
    // / hang) must account for every injected fault exactly once —
    // generatively, in all five execution modes, under the scheduler
    // oracle.
    let mut rng = Rng::new(0xE0E_0004);
    let cfg = MachineConfig::tiny();
    let faults = FaultConfig {
        fu_rate: 0.02,
        forward_rate: 0.01,
        irb_rate: 0.005,
        seed: 0xFA18,
    };
    for case in 0..8u64 {
        let program = programs::MIXED.program(&mut rng, 20, 120);
        for mode in ALL_MODES {
            let stats = checked_run(&program, &cfg, mode, faults);
            let l = stats.fault_lifecycle;
            assert!(
                l.conservation_holds(),
                "case {case} {mode:?}: injected {} != {} detected + {} masked \
                 + {} silent + {} hung",
                l.injected,
                l.detected,
                l.masked,
                l.silent,
                l.hung
            );
            assert_eq!(
                l.injected,
                stats.faults.injected_fu
                    + stats.faults.injected_forward
                    + stats.faults.injected_irb,
                "case {case} {mode:?}: every legacy-counted strike has a lifecycle record"
            );
            // No watchdog is armed, so nothing may classify as a hang.
            assert_eq!(l.hung, 0, "case {case} {mode:?}");
        }
    }
}
