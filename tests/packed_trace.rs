//! Generative equivalence of the packed trace representation.
//!
//! Every workload at tiny scale, under three input seeds, is recorded
//! both ways — the emulator's `Vec<DynInst>` and the packed 48-byte
//! [`Trace`] — and the two must agree record for record, drive the
//! timing model to byte-identical statistics on both scheduling engines
//! (in all five execution modes for each workload's default seed, one
//! rotating mode for the other seeds, and under functional-unit
//! faults), and
//! survive the `.rtrc` v2 codec: a lossless round trip, and a clean
//! `Err` (never a panic) for the file cut at every record boundary and
//! at random byte offsets.

use redsim::core::{
    ExecMode, FaultConfig, MachineConfig, SchedEngine, Simulator, SliceSource, TraceSource,
};
use redsim::isa::emu::Emulator;
use redsim::isa::trace::{DynInst, Trace};
use redsim::isa::trace_io::{self, RECORD_BYTES};
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

/// Both recordings of every (workload, seed) pair.
fn recordings() -> Vec<(String, Vec<DynInst>, Trace)> {
    let mut out = Vec::new();
    for w in Workload::ALL {
        for seed in seeds(w) {
            let program = w
                .program(Params::new(w.tiny_params().scale, seed))
                .expect("assembles");
            let plain = Emulator::new(&program).run_trace(BUDGET).expect("halts");
            let packed = Emulator::new(&program).record_trace(BUDGET).expect("halts");
            out.push((format!("{w}/{seed:#x}"), plain, packed));
        }
    }
    out
}

#[test]
fn packed_records_match_the_emulator_record_for_record() {
    for (label, plain, packed) in recordings() {
        assert_eq!(packed.len(), plain.len(), "{label}");
        for (i, (got, want)) in packed.iter().zip(&plain).enumerate() {
            assert_eq!(got, *want, "{label} record {i}");
        }
        assert_eq!(
            packed.heap_bytes(),
            plain.len() * 48,
            "{label}: no spare capacity"
        );
    }
}

fn stats_json(cfg: &MachineConfig, mode: ExecMode, faults: FaultConfig, src: Source) -> String {
    let sim = Simulator::new(cfg.clone(), mode)
        .try_with_faults(faults)
        .expect("valid fault configuration");
    let stats = match src {
        Source::Slice(t) => sim.run_source(&mut SliceSource::new(t)),
        Source::Packed(t) => sim.run_source(&mut TraceSource::new(t)),
    };
    stats.expect("simulation completes").to_json().to_string()
}

#[derive(Clone, Copy)]
enum Source<'a> {
    Slice(&'a [DynInst]),
    Packed(&'a Trace),
}

#[test]
fn replay_from_the_packed_trace_is_byte_identical_in_every_mode_on_both_engines() {
    let fu_faults = FaultConfig {
        fu_rate: 2e-3,
        seed: 11,
        ..FaultConfig::none()
    };
    for (k, (label, plain, packed)) in recordings().iter().enumerate() {
        // Each workload's default-seed recording (every third, see
        // `recordings`) replays in all five modes; the other two seeds
        // each take one mode, rotating, to keep the suite's wall time
        // in budget.
        let modes = if k % 3 == 0 {
            &ALL_MODES[..]
        } else {
            std::slice::from_ref(&ALL_MODES[k % ALL_MODES.len()])
        };
        for engine in [SchedEngine::EventDriven, SchedEngine::ScanReference] {
            let mut cfg = MachineConfig::paper_baseline();
            cfg.engine = engine;
            for &mode in modes {
                assert_eq!(
                    stats_json(&cfg, mode, FaultConfig::none(), Source::Packed(packed)),
                    stats_json(&cfg, mode, FaultConfig::none(), Source::Slice(plain)),
                    "{label} {engine:?} {mode:?}"
                );
            }
        }
        // One functional-unit fault run per workload.
        if k % 3 == 0 {
            let cfg = MachineConfig::paper_baseline();
            assert_eq!(
                stats_json(&cfg, ExecMode::Die, fu_faults, Source::Packed(packed)),
                stats_json(&cfg, ExecMode::Die, fu_faults, Source::Slice(plain)),
                "{label} under FU faults"
            );
        }
    }
}

#[test]
fn the_v2_codec_round_trips_and_every_cut_is_an_error() {
    let mut rng = Rng::new(0xC0DE_C002);
    for (label, plain, packed) in recordings() {
        let bytes = trace_io::encode(&packed);
        let header = bytes.len() - packed.len() * RECORD_BYTES;
        assert_eq!(
            trace_io::decode(&bytes).expect("decodes"),
            packed,
            "{label}"
        );
        let mut via_wrapper = Vec::new();
        trace_io::write_trace(&mut via_wrapper, &plain).expect("writes");
        assert_eq!(
            via_wrapper, bytes,
            "{label}: the DynInst wrapper writes the same bytes"
        );
        assert_eq!(
            trace_io::read_trace(bytes.as_slice()).expect("reads"),
            plain,
            "{label}"
        );
        for k in 0..packed.len() {
            let cut = header + k * RECORD_BYTES;
            assert!(
                trace_io::decode(&bytes[..cut]).is_err(),
                "{label}: cut {cut}"
            );
        }
        for _ in 0..64 {
            let cut = rng.index(bytes.len());
            assert!(
                trace_io::decode(&bytes[..cut]).is_err(),
                "{label}: cut {cut}"
            );
        }
    }
}
