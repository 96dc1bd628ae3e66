//! Generative equivalence of replaying a trace recipe.
//!
//! Every workload at tiny scale, under three input seeds, is built as a
//! [`Trace`] recipe (program + committed count) and also run once
//! through `Emulator::run_trace` into plain records. Replaying the
//! recipe must yield those records one for one, drive the timing model
//! to byte-identical statistics (in all five execution modes for each
//! workload's default seed, one rotating mode for the other seeds, and
//! under functional-unit faults) with the debug-build scheduler oracle
//! checking every cycle, and a recipe whose count disagrees with its
//! replay must fail with a typed error.

use redsim::core::{
    ExecMode, FaultConfig, InstructionSource, MachineConfig, SimError, Simulator, SliceSource,
    TraceSource,
};
use redsim::isa::emu::Emulator;
use redsim::isa::trace::{DynInst, Trace};
use redsim::isa::EmuError;
use redsim::workloads::{Params, Workload};
use redsim_util::Rng;

const ALL_MODES: [ExecMode; 5] = [
    ExecMode::Sie,
    ExecMode::Die,
    ExecMode::DieIrb,
    ExecMode::SieIrb,
    ExecMode::DieCluster,
];

const BUDGET: u64 = 20_000_000;

/// The three input seeds of a workload: its tiny default and two drawn
/// from a fixed-seed generator.
fn seeds(w: Workload) -> [u64; 3] {
    let mut rng = Rng::new(0x9AC4_ED00 ^ w as u64);
    [w.tiny_params().seed, rng.next_u64(), rng.next_u64()]
}

/// Calls `check` with the label, plain records and recipe of every
/// (workload, seed) pair in turn, the default seed of each workload
/// first; `k` counts the pairs.
fn for_each_trace(mut check: impl FnMut(usize, &str, &[DynInst], &Trace)) {
    let mut k = 0;
    for w in Workload::ALL {
        for seed in seeds(w) {
            let params = Params::new(w.tiny_params().scale, seed);
            let trace = w.trace(params, BUDGET).expect("halts");
            let plain = Emulator::new(trace.program())
                .run_trace(BUDGET)
                .expect("halts");
            check(k, &format!("{w}/{seed:#x}"), &plain, &trace);
            k += 1;
        }
    }
}

fn drain(s: &mut dyn InstructionSource) -> Vec<DynInst> {
    let mut out = Vec::new();
    while let Some(d) = s.next_inst().expect("replays") {
        out.push(d);
    }
    out
}

#[test]
fn replay_matches_the_emulator_record_for_record() {
    for_each_trace(|_, label, plain, trace| {
        assert_eq!(trace.len(), plain.len(), "{label}");
        let replayed = drain(&mut TraceSource::new(trace));
        assert_eq!(replayed.len(), plain.len(), "{label}");
        for (i, (got, want)) in replayed.iter().zip(plain).enumerate() {
            assert_eq!(got, want, "{label} record {i}");
        }
        assert_eq!(
            trace.heap_bytes(),
            trace.program().heap_bytes(),
            "{label}: the recipe holds no records"
        );
    });
}

fn stats_json(cfg: &MachineConfig, mode: ExecMode, faults: FaultConfig, src: Source) -> String {
    let sim = Simulator::new(cfg.clone(), mode)
        .try_with_faults(faults)
        .expect("valid fault configuration");
    let stats = match src {
        Source::Slice(t) => sim.run_source(&mut SliceSource::new(t)),
        Source::Replay(t) => sim.run_source(&mut TraceSource::new(t)),
    };
    stats.expect("simulation completes").to_json().to_string()
}

#[derive(Clone, Copy)]
enum Source<'a> {
    Slice(&'a [DynInst]),
    Replay(&'a Trace),
}

#[test]
fn replay_is_byte_identical_in_every_mode_on_both_engines() {
    let fu_faults = FaultConfig {
        fu_rate: 2e-3,
        seed: 11,
        ..FaultConfig::none()
    };
    for_each_trace(|k, label, plain, trace| {
        // Each workload's default-seed trace (every third) replays in all
        // five modes; the other two seeds each take one mode, rotating,
        // to keep the suite's wall time in budget.
        let modes = if k % 3 == 0 {
            &ALL_MODES[..]
        } else {
            std::slice::from_ref(&ALL_MODES[k % ALL_MODES.len()])
        };
        let cfg = MachineConfig::paper_baseline();
        for &mode in modes {
            assert_eq!(
                stats_json(&cfg, mode, FaultConfig::none(), Source::Replay(trace)),
                stats_json(&cfg, mode, FaultConfig::none(), Source::Slice(plain)),
                "{label} {mode:?}"
            );
        }
        // One functional-unit fault run per workload.
        if k % 3 == 0 {
            assert_eq!(
                stats_json(&cfg, ExecMode::Die, fu_faults, Source::Replay(trace)),
                stats_json(&cfg, ExecMode::Die, fu_faults, Source::Slice(plain)),
                "{label} under FU faults"
            );
        }
    });
}

#[test]
fn a_recipe_whose_count_disagrees_with_its_replay_is_a_typed_error() {
    for w in Workload::ALL {
        let trace = w.trace(w.tiny_params(), BUDGET).expect("halts");
        let n = trace.len() as u64;
        for (declared, halted_at) in [(n + 1, Some(n)), (n - 1, None), (0, None)] {
            let wrong = Trace::from_parts(trace.program().clone(), BUDGET, declared);
            let got = Simulator::new(MachineConfig::paper_baseline(), ExecMode::DieIrb)
                .run_source(&mut TraceSource::new(&wrong));
            assert!(
                matches!(
                    got,
                    Err(SimError::Emu(EmuError::TraceLength { declared: d, halted_at: h }))
                        if d == declared && h == halted_at
                ),
                "{w}: declared {declared} of {n}: {got:?}"
            );
        }
    }
}
