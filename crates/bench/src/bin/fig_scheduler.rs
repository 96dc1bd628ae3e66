//! §3.3's data-capture vs non-data-capture reuse tests. Declared in
//! `redsim_bench::figures::fig_scheduler`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_scheduler);
}
