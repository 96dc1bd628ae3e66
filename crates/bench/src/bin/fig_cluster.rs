//! The clustered alternative of §3 vs DIE-IRB vs SIE-2xALU. Declared in
//! `redsim_bench::figures::fig_cluster`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_cluster);
}
