//! Generative stall-attribution invariants: every simulated cycle is
//! either productive (at least one commit) or attributed to exactly one
//! stall bucket, on both scheduling engines, in every execution mode,
//! with and without fault injection, and even when the watchdog cuts a
//! run short. The observability layer itself must be pure: tracing a
//! run cannot change its statistics.
//!
//! Programs come from the integer flavour of the shared generator in
//! `programs/mod.rs` (straight-line code with forward-only branches
//! from a fixed-seed generator, so everything terminates and failing
//! cases replay exactly).

use redsim::core::{
    EventLog, ExecMode, FaultConfig, Instrumentation, MachineConfig, NullMetrics, SchedEngine,
    SimStats, Simulator, TraceEvent, Tracer,
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

const BOTH_ENGINES: [SchedEngine; 2] = [SchedEngine::EventDriven, SchedEngine::ScanReference];

fn run_one(
    program: &Program,
    engine: SchedEngine,
    mode: ExecMode,
    faults: FaultConfig,
    watchdog: Option<u64>,
) -> SimStats {
    let mut cfg = MachineConfig::tiny();
    cfg.engine = engine;
    let mut sim = Simulator::new(cfg, mode)
        .try_with_faults(faults)
        .expect("valid fault configuration");
    if let Some(w) = watchdog {
        sim = sim.with_watchdog(w);
    }
    sim.run_program(program).expect("run completes")
}

fn assert_conserves(s: &SimStats, ctx: &str) {
    assert!(
        s.stall_conservation_holds(),
        "{ctx}: {} productive + {} attributed != {} cycles ({:?})",
        s.active_commit_cycles,
        s.stalls.total(),
        s.cycles,
        s.stalls
    );
}

#[test]
fn every_cycle_is_attributed_in_every_mode_on_both_engines() {
    let mut rng = Rng::new(0x57A_0001);
    for case in 0..12u64 {
        let program = programs::INTEGER.program(&mut rng, 5, 120);
        for engine in BOTH_ENGINES {
            for mode in ALL_MODES {
                let s = run_one(&program, engine, mode, FaultConfig::none(), None);
                assert_conserves(&s, &format!("case {case} {engine:?} {mode:?}"));
                assert!(s.active_commit_cycles > 0, "something committed");
            }
        }
    }
}

#[test]
fn attribution_survives_fault_injection_and_rewinds() {
    let mut rng = Rng::new(0x57A_0002);
    let faults = FaultConfig {
        fu_rate: 0.02,
        forward_rate: 0.01,
        irb_rate: 0.005,
        seed: 0xFA19,
    };
    let (mut mismatches, mut rewind_stalls) = (0u64, 0u64);
    for case in 0..8u64 {
        let program = programs::INTEGER.program(&mut rng, 20, 120);
        for engine in BOTH_ENGINES {
            for mode in [ExecMode::Die, ExecMode::DieIrb, ExecMode::DieCluster] {
                let s = run_one(&program, engine, mode, faults, None);
                assert_conserves(&s, &format!("case {case} {engine:?} {mode:?}"));
                mismatches += s.pair_mismatches;
                rewind_stalls += s.stalls.rewind;
            }
        }
    }
    // A single rewind cycle can still commit an older instruction and
    // count as productive, so the implication only holds in aggregate:
    // with this many mismatches some rewinds must surface as stalls.
    assert!(mismatches > 0, "the fault rates must provoke mismatches");
    assert!(
        rewind_stalls > 0,
        "{mismatches} mismatches produced no rewind-attributed stall cycles"
    );
}

#[test]
fn attribution_survives_a_watchdog_cut() {
    // A watchdog-cut run stops mid-flight; the partition must still be
    // exact because the accounting closes every cycle as it happens.
    let mut rng = Rng::new(0x57A_0003);
    let faults = FaultConfig {
        fu_rate: 1.0,
        seed: 3,
        ..FaultConfig::none()
    };
    let program = programs::INTEGER.program(&mut rng, 40, 120);
    for engine in BOTH_ENGINES {
        let s = run_one(&program, engine, ExecMode::Die, faults, Some(3_000));
        assert!(s.watchdog_fired, "{engine:?}: fu_rate 1.0 must livelock");
        assert_conserves(&s, &format!("{engine:?} watchdog"));
    }
}

#[test]
fn engines_attribute_stalls_identically() {
    // The stall counters derive purely from pipeline state the engines
    // already keep bit-identical, so the breakdowns must match too.
    let mut rng = Rng::new(0x57A_0004);
    for case in 0..8u64 {
        let program = programs::INTEGER.program(&mut rng, 10, 120);
        for mode in ALL_MODES {
            let ev = run_one(
                &program,
                SchedEngine::EventDriven,
                mode,
                FaultConfig::none(),
                None,
            );
            let sc = run_one(
                &program,
                SchedEngine::ScanReference,
                mode,
                FaultConfig::none(),
                None,
            );
            assert_eq!(ev.stalls, sc.stalls, "case {case} {mode:?}");
            assert_eq!(
                ev.active_commit_cycles, sc.active_commit_cycles,
                "case {case} {mode:?}"
            );
        }
    }
}

#[test]
fn tracing_is_observationally_pure_and_deterministic() {
    // Attaching a tracer must not perturb the simulation, and the event
    // stream for a fixed program must be reproducible run to run.
    let mut rng = Rng::new(0x57A_0005);
    let program = programs::INTEGER.program(&mut rng, 40, 120);
    for mode in ALL_MODES {
        let cfg = MachineConfig::tiny();
        let untraced = Simulator::new(cfg.clone(), mode)
            .run_program(&program)
            .expect("untraced run");
        let mut log_a = EventLog::new();
        let traced = Simulator::new(cfg.clone(), mode)
            .run_program_instrumented(
                &program,
                Instrumentation {
                    tracer: &mut log_a,
                    metrics: &mut NullMetrics,
                    profiler: None,
                },
            )
            .expect("traced run");
        assert_eq!(untraced, traced, "{mode:?}: tracing changed the stats");
        assert!(!log_a.is_empty(), "{mode:?}: a real run produces events");

        let mut log_b = EventLog::new();
        Simulator::new(cfg, mode)
            .run_program_instrumented(
                &program,
                Instrumentation {
                    tracer: &mut log_b,
                    metrics: &mut NullMetrics,
                    profiler: None,
                },
            )
            .expect("second traced run");
        assert_eq!(
            log_a.to_chrome_json().to_string(),
            log_b.to_chrome_json().to_string(),
            "{mode:?}: trace output must be deterministic"
        );
    }
}

#[test]
fn traced_commits_account_for_every_productive_cycle() {
    // Cross-check the counters against the event stream itself: the set
    // of distinct cycles carrying a commit event must equal
    // `active_commit_cycles`, tying the stall partition to the trace.
    struct CommitCycles {
        cycles: std::collections::BTreeSet<u64>,
    }
    impl Tracer for CommitCycles {
        fn record(&mut self, ev: TraceEvent) {
            if ev.kind.name() == "commit" {
                self.cycles.insert(ev.cycle);
            }
        }
    }
    let mut rng = Rng::new(0x57A_0006);
    let program = programs::INTEGER.program(&mut rng, 40, 120);
    for mode in ALL_MODES {
        let mut t = CommitCycles {
            cycles: std::collections::BTreeSet::new(),
        };
        let s = Simulator::new(MachineConfig::tiny(), mode)
            .run_program_instrumented(
                &program,
                Instrumentation {
                    tracer: &mut t,
                    metrics: &mut NullMetrics,
                    profiler: None,
                },
            )
            .expect("traced run");
        assert_eq!(
            t.cycles.len() as u64,
            s.active_commit_cycles,
            "{mode:?}: commit events disagree with the productive-cycle counter"
        );
        assert_conserves(&s, &format!("{mode:?} traced"));
    }
}
