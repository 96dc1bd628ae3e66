//! Reconstructed Fig. B: IRB hit, reuse-pass and bypass rates per
//! workload under DIE-IRB. Declared in
//! `redsim_bench::figures::fig_hitrate`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_hitrate);
}
