//! Reconstructed Fig. D: DIE-IRB IPC vs IRB port provisioning. Declared in
//! `redsim_bench::figures::fig_ports`.

fn main() {
    redsim_bench::grid::main(redsim_bench::figures::fig_ports);
}
