//! Scheduling-vs-reuse ablation: primary-first issue without an IRB
//! against DIE and DIE-IRB. Declared in
//! `redsim_bench::figures::fig_priority`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_priority);
}
