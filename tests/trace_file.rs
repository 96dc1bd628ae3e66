//! The `.rtrc` interchange file on real workloads.
//!
//! Every workload at tiny scale, under three input seeds, is run through
//! `Emulator::run_trace` and written as an `.rtrc` v2 file: the file
//! must read back losslessly, and the checked decoder must return a
//! clean `Err` (never a panic) for the file cut at every record
//! boundary and at random byte offsets.

use redsim::isa::trace_io::{self, RECORD_BYTES};
use redsim::workloads::{Params, Workload};
use redsim_util::Rng;

#[test]
fn the_rtrc_file_round_trips_and_every_cut_is_an_error() {
    let mut rng = Rng::new(0xC0DE_C002);
    for w in Workload::ALL {
        let mut seeds = Rng::new(0x9AC4_ED00 ^ w as u64);
        for seed in [w.tiny_params().seed, seeds.next_u64(), seeds.next_u64()] {
            let label = format!("{w}/{seed:#x}");
            let program = w
                .program(Params::new(w.tiny_params().scale, seed))
                .expect("assembles");
            let plain = redsim::isa::emu::Emulator::new(&program)
                .run_trace(20_000_000)
                .expect("halts");
            let mut bytes = Vec::new();
            trace_io::write_trace(&mut bytes, &plain).expect("writes");
            let header = bytes.len() - plain.len() * RECORD_BYTES;
            assert_eq!(trace_io::decode(&bytes).expect("decodes"), plain, "{label}");
            assert_eq!(
                trace_io::read_trace(bytes.as_slice()).expect("reads"),
                plain,
                "{label}"
            );
            for k in 0..plain.len() {
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
}
