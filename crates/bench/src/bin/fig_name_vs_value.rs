//! Ablation G (§3.3): value-based vs name-based reuse tests. Declared in
//! `redsim_bench::figures::fig_name_vs_value`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_name_vs_value);
}
