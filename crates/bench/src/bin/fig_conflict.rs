//! Reconstructed Fig. E: IRB conflict-miss reduction (victim buffer,
//! associativity). Declared in
//! `redsim_bench::figures::fig_conflict`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_conflict);
}
