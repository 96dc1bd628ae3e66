//! Generative reuse-attribution conservation invariants: the
//! per-opcode-class counters, the hot-PC table and the per-loop
//! breakdown are three exact decompositions of the same IRB event
//! stream. Each must sum to the aggregate [`IrbSummary`] totals — in
//! every execution mode, with and without fault injection, and across
//! a watchdog cut, with the debug-build scheduler oracle checking every
//! cycle against the full-window scan. Attribution itself must
//! be observationally pure: disabling it yields byte-identical stats,
//! and the windowed attribution series tiles the run and sums to the
//! final counters.
//!
//! Program generation composes bounded counted loops (backward `bne`
//! on a dedicated trip register, so everything terminates and the
//! backedge heuristic has real loop structure to attribute) with
//! straight-line prologue/interlude code that must land in the
//! `outside` bucket.

use redsim::core::{
    AttrCounters, ExecMode, FaultConfig, Instrumentation, MachineConfig, MetricsCollector,
    NullTracer, SimStats, Simulator, WindowSample, REUSE_CLASSES,
};
use redsim::isa::{Inst, IntReg, Opcode, Program, ProgramBuilder};
use redsim_util::Rng;

const RRR_OPS: [Opcode; 6] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Slt,
];
const MD_OPS: [Opcode; 4] = [Opcode::Mul, Opcode::Mulh, Opcode::Div, Opcode::Rem];

/// General-purpose pool, disjoint from the loop counter and the data
/// base pointer below.
fn reg(sel: u8) -> IntReg {
    IntReg::new(5 + sel % 16)
}

/// The loop trip counter.
fn counter() -> IntReg {
    IntReg::new(27)
}

/// The data-space base pointer.
fn base() -> IntReg {
    IntReg::new(28)
}

fn body_inst(rng: &mut Rng) -> Inst {
    match rng.index(5) {
        0 => Inst::rrr(
            RRR_OPS[rng.index(RRR_OPS.len())],
            reg(rng.any_u8()),
            reg(rng.any_u8()),
            reg(rng.any_u8()),
        ),
        1 => Inst::rri(
            Opcode::Addi,
            reg(rng.any_u8()),
            reg(rng.any_u8()),
            i32::from(rng.any_i16()),
        ),
        2 => Inst::rrr(
            MD_OPS[rng.index(MD_OPS.len())],
            reg(rng.any_u8()),
            reg(rng.any_u8()),
            reg(rng.any_u8()),
        ),
        3 => Inst::load_int(
            Opcode::Ld,
            reg(rng.any_u8()),
            base(),
            i32::from(rng.next_u64() as u16 % 1024 / 8 * 8),
        ),
        _ => Inst::store_int(
            Opcode::Sd,
            reg(rng.any_u8()),
            base(),
            i32::from(rng.next_u64() as u16 % 1024 / 8 * 8),
        ),
    }
}

/// A program of 1–3 counted loops with random bodies, separated by
/// straight-line filler. Every loop's backedge is a backward `bne`
/// taken `trips - 1` times, so termination is structural.
fn gen_program(rng: &mut Rng) -> Program {
    let mut b = ProgramBuilder::new();
    let buf = b.data_space(1024);
    b = b.inst(Inst::li(base(), buf as i32));
    for i in 0..8u8 {
        b = b.inst(Inst::li(reg(i), i32::from(i) * 77 - 100));
    }
    for _ in 0..rng.range_u64(0, 8) {
        b = b.inst(body_inst(rng));
    }
    for _ in 0..rng.range_u64(1, 4) {
        let trips = rng.range_u64(2, 8) as i32;
        let body: Vec<Inst> = (0..rng.range_u64(1, 10)).map(|_| body_inst(rng)).collect();
        b = b.inst(Inst::li(counter(), trips));
        let body_len = body.len();
        for inst in body {
            b = b.inst(inst);
        }
        b = b.inst(Inst::rri(Opcode::Addi, counter(), counter(), -1));
        let back = -((body_len as i32 + 1) * 8);
        b = b.inst(Inst::branch(Opcode::Bne, counter(), IntReg::ZERO, back));
        for _ in 0..rng.range_u64(0, 5) {
            b = b.inst(body_inst(rng));
        }
    }
    b.inst(Inst::halt()).build()
}

const ALL_MODES: [ExecMode; 5] = [
    ExecMode::Sie,
    ExecMode::Die,
    ExecMode::DieIrb,
    ExecMode::SieIrb,
    ExecMode::DieCluster,
];

const WINDOW: u64 = 64;

fn run(
    program: &Program,
    mode: ExecMode,
    attribution: bool,
    faults: FaultConfig,
    watchdog: Option<u64>,
) -> SimStats {
    let mut sim = Simulator::new(MachineConfig::tiny(), mode)
        .try_with_faults(faults)
        .expect("valid fault configuration");
    if attribution {
        sim = sim.with_attribution();
    }
    if let Some(w) = watchdog {
        sim = sim.with_watchdog(w);
    }
    sim.run_program(program).expect("run completes")
}

/// The three decompositions — classes, PCs, loops — must each sum
/// exactly to the aggregate `IrbSummary` totals.
fn assert_attribution_conserves(stats: &SimStats, ctx: &str) {
    let a = stats
        .attribution
        .as_deref()
        .unwrap_or_else(|| panic!("{ctx}: attribution was requested"));
    let total = a.total();
    assert_eq!(
        total.lookups, stats.irb.buffer.lookups,
        "{ctx}: class lookups sum to the IRB's"
    );
    assert_eq!(
        total.hits,
        stats.irb.buffer.pc_hits + stats.irb.buffer.victim_hits,
        "{ctx}: class hits sum to the IRB's"
    );
    assert_eq!(
        total.passes, stats.irb.reuse_passed,
        "{ctx}: class passes sum to the IRB's"
    );
    assert_eq!(
        total.fails, stats.irb.reuse_failed,
        "{ctx}: class fails sum to the IRB's"
    );
    assert_eq!(
        a.pc_total(),
        total,
        "{ctx}: hot PCs + folded tail decompose the same events"
    );
    assert_eq!(
        a.loop_total(),
        total,
        "{ctx}: loops + folded + outside decompose the same events"
    );
}

#[test]
fn class_sums_match_irb_totals_in_every_mode_on_both_engines() {
    let mut rng = Rng::new(0xA77_0001);
    for case in 0..8u64 {
        let program = gen_program(&mut rng);
        for mode in ALL_MODES {
            let ctx = format!("case {case} {mode:?}");
            let stats = run(&program, mode, true, FaultConfig::none(), None);
            assert_attribution_conserves(&stats, &ctx);
            if !mode.has_irb() {
                assert_eq!(
                    stats.attribution.as_deref().unwrap().total(),
                    AttrCounters::default(),
                    "{ctx}: an IRB-less mode attributes nothing"
                );
            }
        }
    }
}

#[test]
fn conservation_survives_fault_injection() {
    let mut rng = Rng::new(0xA77_0002);
    let faults = FaultConfig {
        fu_rate: 0.02,
        forward_rate: 0.01,
        irb_rate: 0.005,
        seed: 0xFA19,
    };
    for case in 0..5u64 {
        let program = gen_program(&mut rng);
        for mode in [ExecMode::Die, ExecMode::DieIrb, ExecMode::DieCluster] {
            let ctx = format!("case {case} {mode:?} faults");
            let stats = run(&program, mode, true, faults, None);
            assert_attribution_conserves(&stats, &ctx);
        }
    }
}

#[test]
fn conservation_survives_a_watchdog_cut() {
    // fu_rate 1.0 livelocks the dual-stream compare, so the watchdog
    // cuts mid-run; the attribution collected up to the cut must still
    // decompose exactly.
    let mut rng = Rng::new(0xA77_0003);
    let faults = FaultConfig {
        fu_rate: 1.0,
        seed: 3,
        ..FaultConfig::none()
    };
    let program = gen_program(&mut rng);
    for mode in [ExecMode::Die, ExecMode::DieIrb] {
        let ctx = format!("{mode:?} watchdog");
        let stats = run(&program, mode, true, faults, Some(3_000));
        assert!(stats.watchdog_fired, "{ctx}: fu_rate 1.0 must livelock");
        assert_attribution_conserves(&stats, &ctx);
    }
}

#[test]
fn engines_agree_on_attribution_bit_for_bit() {
    let mut rng = Rng::new(0xA77_0004);
    // The attribution reads the IRB event stream, which the scheduler
    // oracle holds to what the full-window scan would select.
    for case in 0..5u64 {
        let program = gen_program(&mut rng);
        for mode in ALL_MODES {
            let stats = run(&program, mode, true, FaultConfig::none(), None);
            assert_attribution_conserves(&stats, &format!("case {case} {mode:?}"));
        }
    }
}

#[test]
fn disabling_attribution_leaves_stats_byte_identical() {
    // Attribution is observationally pure: the only difference it may
    // make to SimStats is the presence of its own section.
    let mut rng = Rng::new(0xA77_0005);
    for case in 0..5u64 {
        let program = gen_program(&mut rng);
        for mode in ALL_MODES {
            let ctx = format!("case {case} {mode:?}");
            let plain = run(&program, mode, false, FaultConfig::none(), None);
            assert!(
                plain.attribution.is_none(),
                "{ctx}: attribution off leaves no section"
            );
            assert!(
                !plain.to_json().to_string().contains("attribution"),
                "{ctx}: attribution off leaves no JSON field"
            );
            let mut with = run(&program, mode, true, FaultConfig::none(), None);
            with.attribution = None;
            assert_eq!(with, plain, "{ctx}: attribution perturbed the run");
        }
    }
}

#[test]
fn windowed_attribution_series_tiles_the_run_and_sums_to_final_counters() {
    let mut rng = Rng::new(0xA77_0006);
    for case in 0..5u64 {
        let program = gen_program(&mut rng);
        for mode in [ExecMode::SieIrb, ExecMode::DieIrb] {
            let ctx = format!("case {case} {mode:?}");
            let mut collector = MetricsCollector::new(WINDOW);
            let mut tracer = NullTracer;
            let stats = Simulator::new(MachineConfig::tiny(), mode)
                .with_attribution()
                .run_program_instrumented(
                    &program,
                    Instrumentation {
                        tracer: &mut tracer,
                        metrics: &mut collector,
                        profiler: None,
                    },
                )
                .expect("run completes");
            let windows: Vec<WindowSample> = collector.into_samples();
            let mut expected_start = 0u64;
            let mut lookups = [0u64; REUSE_CLASSES];
            let mut hits = [0u64; REUSE_CLASSES];
            let mut passes = [0u64; REUSE_CLASSES];
            for w in &windows {
                assert_eq!(w.start_cycle, expected_start, "{ctx}: windows tile");
                expected_start = w.end_cycle;
                for i in 0..REUSE_CLASSES {
                    lookups[i] += w.counters.attr_lookups[i];
                    hits[i] += w.counters.attr_hits[i];
                    passes[i] += w.counters.attr_passes[i];
                }
            }
            assert_eq!(
                expected_start, stats.cycles,
                "{ctx}: the series covers [0, cycles)"
            );
            let a = stats.attribution.as_deref().expect("attribution requested");
            for (i, c) in a.classes.iter().enumerate() {
                assert_eq!(lookups[i], c.lookups, "{ctx}: class {i} lookups");
                assert_eq!(hits[i], c.hits, "{ctx}: class {i} hits");
                assert_eq!(passes[i], c.passes, "{ctx}: class {i} passes");
            }
        }
    }
}

#[test]
fn counted_loops_are_attributed_to_their_backedge_heads() {
    // A deterministic two-loop program: everything the IRB sees inside
    // a loop must be charged to a loop head, and the prologue to the
    // `outside` bucket.
    let mut b = ProgramBuilder::new();
    b = b.inst(Inst::li(reg(0), 3)).inst(Inst::li(reg(1), 5));
    // Prologue work outside any loop.
    for _ in 0..4 {
        b = b.inst(Inst::rrr(Opcode::Add, reg(2), reg(0), reg(1)));
    }
    // loop: 40 trips of two adds.
    b = b.inst(Inst::li(counter(), 40));
    b = b
        .inst(Inst::rrr(Opcode::Add, reg(3), reg(0), reg(1)))
        .inst(Inst::rrr(Opcode::Xor, reg(4), reg(3), reg(1)))
        .inst(Inst::rri(Opcode::Addi, counter(), counter(), -1))
        .inst(Inst::branch(Opcode::Bne, counter(), IntReg::ZERO, -(3 * 8)));
    let program = b.inst(Inst::halt()).build();
    let stats = run(&program, ExecMode::SieIrb, true, FaultConfig::none(), None);
    assert_attribution_conserves(&stats, "two loops");
    let a = stats.attribution.as_deref().expect("attribution requested");
    assert!(
        stats.irb.buffer.lookups > 0,
        "the loop produces IRB traffic"
    );
    assert!(!a.loops.is_empty(), "the backedge forms a loop");
    let in_loops: u64 = a.loops.iter().map(|l| l.counters.lookups).sum();
    assert!(
        in_loops > 0,
        "loop-body lookups are charged to the loop head"
    );
    assert!(!a.hot_pcs.is_empty(), "hot PCs are populated");
}
