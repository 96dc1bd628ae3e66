//! Generative metrics-conservation invariants: the windowed time series
//! is an exact partition of the run. Summing every window's counters
//! must reproduce the final [`SimStats`] counter for counter, the
//! windows must tile the cycle axis without gaps or overlaps, and
//! attaching the collector must not perturb the simulation — in every
//! execution mode, with and without fault injection, and across a
//! watchdog cut, with the debug-build scheduler oracle checking every
//! cycle.
//!
//! Programs come from the integer flavour of the shared generator in
//! `programs/mod.rs` (straight-line code with forward-only branches
//! from a fixed-seed generator, so everything terminates and failing
//! cases replay exactly).

use redsim::core::{
    ExecMode, FaultConfig, Instrumentation, MachineConfig, MetricsCollector, NullTracer, SimStats,
    Simulator, WindowCounters, WindowSample, REUSE_CLASSES,
};
use redsim::isa::Program;
use redsim_util::Rng;

mod programs;

const ALL_MODES: [ExecMode; 5] = [
    ExecMode::Sie,
    ExecMode::Die,
    ExecMode::DieIrb,
    ExecMode::SieIrb,
    ExecMode::DieCluster,
];

/// A deliberately small window so short generated programs still span
/// several windows plus a final partial one.
const WINDOW: u64 = 64;

fn run_windowed(
    program: &Program,
    mode: ExecMode,
    faults: FaultConfig,
    watchdog: Option<u64>,
) -> (SimStats, Vec<WindowSample>) {
    let mut sim = Simulator::new(MachineConfig::tiny(), mode)
        .try_with_faults(faults)
        .expect("valid fault configuration");
    if let Some(w) = watchdog {
        sim = sim.with_watchdog(w);
    }
    let mut collector = MetricsCollector::new(WINDOW);
    let mut tracer = NullTracer;
    let stats = sim
        .run_program_instrumented(
            program,
            Instrumentation {
                tracer: &mut tracer,
                metrics: &mut collector,
                profiler: None,
            },
        )
        .expect("run completes");
    (stats, collector.into_samples())
}

/// The slice of the final stats a window series can be checked against:
/// every field of [`WindowCounters`] has an exact cumulative mirror.
fn counters_of(s: &SimStats) -> WindowCounters {
    let mut attr_lookups = [0u64; REUSE_CLASSES];
    let mut attr_hits = [0u64; REUSE_CLASSES];
    let mut attr_passes = [0u64; REUSE_CLASSES];
    if let Some(a) = &s.attribution {
        for (i, c) in a.classes.iter().enumerate() {
            attr_lookups[i] = c.lookups;
            attr_hits[i] = c.hits;
            attr_passes[i] = c.passes;
        }
    }
    WindowCounters {
        committed_insts: s.committed_insts,
        committed_copies: s.committed_copies,
        active_commit_cycles: s.active_commit_cycles,
        stalls: s.stalls,
        fu_issues: s.fu_issues,
        fu_bypasses: s.fu_bypasses,
        int_alu_busy_cycles: s.int_alu_busy_cycles,
        ruu_occupancy_sum: s.ruu_occupancy_sum,
        irb_lookups: s.irb.buffer.lookups,
        irb_pc_hits: s.irb.buffer.pc_hits,
        irb_victim_hits: s.irb.buffer.victim_hits,
        irb_inserts: s.irb.buffer.inserts,
        irb_conflict_evictions: s.irb.buffer.conflict_evictions,
        irb_reuse_passed: s.irb.reuse_passed,
        irb_reuse_failed: s.irb.reuse_failed,
        irb_lookups_port_starved: s.irb.lookups_port_starved,
        irb_inserts_port_starved: s.irb.inserts_port_starved,
        attr_lookups,
        attr_hits,
        attr_passes,
    }
}

/// Asserts the series is an exact partition: contiguous half-open
/// windows starting at cycle 0 and ending at `stats.cycles`, whose
/// counters sum to the final totals.
fn assert_conserves(stats: &SimStats, windows: &[WindowSample], ctx: &str) {
    assert!(!windows.is_empty(), "{ctx}: a real run produces windows");
    let mut expected_start = 0u64;
    let mut sum = WindowCounters::default();
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.index, i as u64, "{ctx}: window indices are dense");
        assert_eq!(
            w.start_cycle, expected_start,
            "{ctx}: window {i} starts where its predecessor ended"
        );
        assert!(
            w.end_cycle > w.start_cycle,
            "{ctx}: window {i} is non-empty"
        );
        assert!(
            w.cycles() <= WINDOW,
            "{ctx}: window {i} spans at most the configured width"
        );
        expected_start = w.end_cycle;
        sum.add(&w.counters);
    }
    assert_eq!(
        expected_start, stats.cycles,
        "{ctx}: the last window closes at the final cycle"
    );
    assert_eq!(
        sum,
        counters_of(stats),
        "{ctx}: window sums must reproduce the final stats counters"
    );
}

#[test]
fn window_sums_match_final_stats_in_every_mode_on_both_engines() {
    let mut rng = Rng::new(0x3E7_0001);
    for case in 0..10u64 {
        let program = programs::INTEGER.program(&mut rng, 5, 120);
        for mode in ALL_MODES {
            let ctx = format!("case {case} {mode:?}");
            let (stats, windows) = run_windowed(&program, mode, FaultConfig::none(), None);
            assert_conserves(&stats, &windows, &ctx);
        }
    }
}

#[test]
fn collecting_metrics_is_observationally_pure() {
    // A metrics-enabled run must produce the exact stats of a bare run:
    // the collector only ever reads counter deltas at window edges.
    let mut rng = Rng::new(0x3E7_0002);
    for case in 0..6u64 {
        let program = programs::INTEGER.program(&mut rng, 20, 120);
        for mode in ALL_MODES {
            let bare = Simulator::new(MachineConfig::tiny(), mode)
                .run_program(&program)
                .expect("bare run");
            let (windowed, _) = run_windowed(&program, mode, FaultConfig::none(), None);
            assert_eq!(
                bare, windowed,
                "case {case} {mode:?}: metrics changed the stats"
            );
        }
    }
}

#[test]
fn engines_emit_identical_window_series() {
    // The windows read pipeline state, and the scheduler oracle holds
    // that state to what the full-window scan would select every
    // cycle, so the series is the scan's too; it must tile the run.
    let mut rng = Rng::new(0x3E7_0003);
    for case in 0..6u64 {
        let program = programs::INTEGER.program(&mut rng, 10, 120);
        for mode in ALL_MODES {
            let (stats, windows) = run_windowed(&program, mode, FaultConfig::none(), None);
            assert_conserves(&stats, &windows, &format!("case {case} {mode:?}"));
        }
    }
}

#[test]
fn conservation_survives_fault_injection_and_rewinds() {
    let mut rng = Rng::new(0x3E7_0004);
    let faults = FaultConfig {
        fu_rate: 0.02,
        forward_rate: 0.01,
        irb_rate: 0.005,
        seed: 0xFA19,
    };
    let mut mismatches = 0u64;
    for case in 0..6u64 {
        let program = programs::INTEGER.program(&mut rng, 20, 120);
        for mode in [ExecMode::Die, ExecMode::DieIrb, ExecMode::DieCluster] {
            let ctx = format!("case {case} {mode:?}");
            let (stats, windows) = run_windowed(&program, mode, faults, None);
            assert_conserves(&stats, &windows, &ctx);
            mismatches += stats.pair_mismatches;
        }
    }
    assert!(mismatches > 0, "the fault rates must provoke mismatches");
}

#[test]
fn a_watchdog_cut_still_flushes_an_exact_partial_window() {
    // A watchdog-cut run stops mid-window; the post-loop flush must
    // still close the series exactly at the cut cycle.
    let mut rng = Rng::new(0x3E7_0005);
    let faults = FaultConfig {
        fu_rate: 1.0,
        seed: 3,
        ..FaultConfig::none()
    };
    let program = programs::INTEGER.program(&mut rng, 40, 120);
    let (stats, windows) = run_windowed(&program, ExecMode::Die, faults, Some(3_000));
    assert!(stats.watchdog_fired, "fu_rate 1.0 must livelock");
    assert_conserves(&stats, &windows, "watchdog");
}
