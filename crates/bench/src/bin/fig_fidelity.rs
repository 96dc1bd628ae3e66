//! Fidelity ablation: wrong-path fetch + store-to-load forwarding. Declared in
//! `redsim_bench::figures::fig_fidelity`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_fidelity);
}
