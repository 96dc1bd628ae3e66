//! Ablation H: the same IRB on SIE vs on DIE. Declared in
//! `redsim_bench::figures::fig_sie_irb`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_sie_irb);
}
