//! Generative tests over randomly generated programs.
//!
//! The shared generator (`programs/mod.rs`, mixed flavour) emits
//! straight-line code with *forward-only* branches, so every program
//! terminates within one pass over its text. Each
//! generated program is run through the emulator and all four timing
//! modes; the timing models must commit exactly the functional
//! instruction count, never mismatch a fault-free pair, and be
//! deterministic.
//!
//! Inputs are drawn from a fixed-seed [`redsim_util::Rng`], so a
//! failing case replays exactly under `cargo test`.

use redsim::core::{ExecMode, MachineConfig, Simulator};
use redsim::isa::emu::Emulator;
use redsim_util::Rng;

mod programs;

const CASES: u64 = 24;

#[test]
fn all_modes_agree_with_the_emulator_on_any_program() {
    let mut rng = Rng::new(0x9E0_0001);
    for case in 0..CASES {
        let program = programs::MIXED.program(&mut rng, 5, 120);
        let mut emu = Emulator::new(&program);
        // Forward-only control flow: each instruction runs at most once.
        let n = emu
            .run(program.text().len() as u64 + 1)
            .expect("terminates");
        let cfg = MachineConfig::tiny();
        for mode in [
            ExecMode::Sie,
            ExecMode::Die,
            ExecMode::DieIrb,
            ExecMode::SieIrb,
        ] {
            let stats = Simulator::new(cfg.clone(), mode)
                .run_program(&program)
                .expect("simulates");
            assert_eq!(stats.committed_insts, n, "case {case} {mode:?}");
            assert_eq!(stats.pair_mismatches, 0, "case {case} {mode:?}");
            assert!(stats.cycles > 0);
        }
    }
}

#[test]
fn timing_is_deterministic_for_any_program() {
    let mut rng = Rng::new(0x9E0_0002);
    for case in 0..CASES {
        let program = programs::MIXED.program(&mut rng, 5, 60);
        let cfg = MachineConfig::tiny();
        let run = || {
            Simulator::new(cfg.clone(), ExecMode::DieIrb)
                .run_program(&program)
                .expect("simulates")
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn disassembly_listing_reassembles_identically() {
    use redsim::isa::asm::assemble;
    use redsim::isa::disasm::listing;
    let mut rng = Rng::new(0x9E0_0003);
    for case in 0..CASES {
        let program = programs::MIXED.program(&mut rng, 1, 60);
        let text = listing(&program);
        let back = assemble(&text).expect("listing must reassemble");
        assert_eq!(back.text(), program.text(), "case {case}");
    }
}

#[test]
fn container_round_trips_any_program() {
    use redsim::isa::container::{from_bytes, to_bytes};
    let mut rng = Rng::new(0x9E0_0004);
    for case in 0..CASES {
        let program = programs::MIXED.program(&mut rng, 1, 60);
        assert_eq!(
            from_bytes(&to_bytes(&program)).expect("loads"),
            program,
            "case {case}"
        );
    }
}

#[test]
fn trace_serialization_round_trips_any_program() {
    use redsim::isa::trace_io::{read_trace, write_trace};
    let mut rng = Rng::new(0x9E0_0005);
    for case in 0..CASES {
        let program = programs::MIXED.program(&mut rng, 1, 60);
        let trace = Emulator::new(&program)
            .run_trace(program.text().len() as u64 + 1)
            .expect("terminates");
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("writes");
        assert_eq!(
            read_trace(buf.as_slice()).expect("reads"),
            trace,
            "case {case}"
        );
    }
}

#[test]
fn encoded_program_text_round_trips() {
    use redsim::isa::encode::{decode_text, encode_text};
    let mut rng = Rng::new(0x9E0_0006);
    for case in 0..CASES {
        let program = programs::MIXED.program(&mut rng, 1, 80);
        let bytes = encode_text(program.text());
        let back = decode_text(&bytes).expect("decodes");
        assert_eq!(back.as_slice(), program.text(), "case {case}");
    }
}
