//! Microbenchmarks of the hot single structures of the simulator: IRB
//! lookups and inserts, cache-hierarchy accesses and predictor updates.
//! The end-to-end throughputs (emulator, pipeline per mode, phase
//! shares) are the `benchmark/` package's per-layer metrics; nothing
//! there times these structures in isolation.
//!
//! Plain `harness = false` timing binary on [`redsim_util::bench`]; run
//! with `cargo bench -p redsim-bench --bench simulator`. It prints one
//! report line per structure and writes no file.

use std::hint::black_box;

use redsim_irb::{IrbConfig, IrbEntry, ReuseBuffer};
use redsim_mem::{Hierarchy, HierarchyConfig};
use redsim_predictor::Bimodal;
use redsim_util::bench;

const ITERS: (u32, u32) = (100, 1000);

fn irb_operations() {
    let mut irb = ReuseBuffer::new(IrbConfig::paper_baseline());
    let mut pc = 0x1000u64;
    let r = bench(ITERS.0, ITERS.1, || {
        for _ in 0..1000 {
            pc = pc.wrapping_add(8) & 0xfff8;
            irb.insert(IrbEntry {
                pc,
                op1: pc,
                op2: 3,
                result: pc + 3,
            });
            black_box(irb.lookup(pc.wrapping_sub(64)));
        }
    });
    println!("{}", r.report("irb/lookup_insert_1024dm (x1000)", None));
}

fn cache_accesses() {
    let mut h = Hierarchy::new(HierarchyConfig::paper_baseline());
    let mut addr = 0u64;
    let r = bench(ITERS.0, ITERS.1, || {
        for _ in 0..1000 {
            addr = addr.wrapping_add(64) & 0xf_ffff;
            black_box(h.read_data(addr));
        }
    });
    println!("{}", r.report("cache/hierarchy_streaming (x1000)", None));
}

fn predictor_updates() {
    let mut p = Bimodal::new(4096);
    let mut pc = 0u64;
    let r = bench(ITERS.0, ITERS.1, || {
        for _ in 0..1000 {
            pc = pc.wrapping_add(8);
            let t = pc & 16 != 0;
            p.update(pc, t);
            black_box(p.predict(pc));
        }
    });
    println!(
        "{}",
        r.report("predictor/bimodal_train_predict (x1000)", None)
    );
}

fn main() {
    irb_operations();
    cache_accesses();
    predictor_updates();
}
