//! Reconstructed Fig. C: DIE-IRB IPC vs IRB capacity. Declared in
//! `redsim_bench::figures::fig_size_sweep`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_size_sweep);
}
