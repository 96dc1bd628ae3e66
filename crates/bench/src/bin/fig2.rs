//! Figure 2: % IPC loss vs SIE for the base DIE and the seven
//! resource-doubled DIE configurations. Declared in
//! `redsim_bench::figures::fig2`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig2);
}
