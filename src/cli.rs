//! The command lines of the `redsim-asm`, `redsim-emu`, `redsim-sim`
//! and `redsim-workload` binaries (`src/bin/`), one
//! [`redsim_util::flags`] table each; `--help` prints a table's usage.

use redsim_util::flags::{Flag, FlagTable};

/// `redsim-asm`.
#[rustfmt::skip]
pub const ASM: FlagTable = FlagTable::new("<input.s> [options]", 1, &[&[
    Flag::value("--out", "FILE", "container to write (default <input>.rprog)"),
    Flag::switch("--list", "print the disassembly listing instead"),
]]);

/// `redsim-emu`.
#[rustfmt::skip]
pub const EMU: FlagTable = FlagTable::new("<prog.s|prog.rprog> [options]", 1, &[&[
    Flag::value("--budget", "N", "instruction budget"),
    Flag::value("--trace-out", "FILE", "capture the committed trace as .rtrc"),
]]);

/// What `redsim-sim` runs, and the machine it models.
#[rustfmt::skip]
const SIM_INPUT_AND_MACHINE: [Flag; 12] = [
    Flag::value("--trace", "FILE", "replay a captured .rtrc trace"),
    Flag::value("--workload", "NAME", "run a built-in workload"),
    Flag::value("--scale", "N", "workload scale (default: the workload's)"),
    Flag::value("--seed", "N", "workload input seed (one mode: also the fault seed)"),
    Flag::value("--budget", "N", "instruction budget (not with --trace)"),
    Flag::switch("--double-alus", "Figure-2 knob: twice the integer ALUs"),
    Flag::switch("--double-ruu", "Figure-2 knob: twice the RUU"),
    Flag::switch("--double-widths", "Figure-2 knob: twice every pipeline width"),
    Flag::value("--irb-entries", "N", "IRB capacity"),
    Flag::value("--forwarding", "shared|per-stream", "§3.3 wakeup policy"),
    Flag::switch("--wrong-path", "model wrong-path instruction fetch"),
    Flag::switch("--stl-forwarding", "store-to-load forwarding"),
];

/// `redsim-sim`: one mode, with faults and observation.
#[rustfmt::skip]
pub const SIM: FlagTable = FlagTable::new(
    "<prog.s|prog.rprog> | --trace <FILE> | --workload <NAME> [options]\n\
     (`redsim-sim --compare --help` lists the options of --compare)",
    1,
    &[&SIM_INPUT_AND_MACHINE, &[
        Flag::value("--mode", "MODE", "sie|die|die-irb|sie-irb|die-cluster (default sie)"),
        Flag::value("--fault-fu", "R", "FU strike rate"),
        Flag::value("--fault-irb", "R", "IRB strike rate"),
        Flag::value("--fault-bus", "R", "forwarding-bus strike rate"),
        Flag::switch("--attribution", "print the reuse-attribution breakdown"),
        Flag::value("--trace-out", "FILE", "write a Chrome-trace event dump"),
        Flag::value("--metrics-out", "FILE", "write the windowed time series (JSONL)"),
        Flag::value("--metrics-prom", "FILE", "write a Prometheus text exposition"),
        Flag::value("--metrics-window", "N", "window width in cycles (default 10000)"),
    ]],
);

/// `redsim-sim --compare`: SIE, DIE and DIE-IRB side by side. It
/// leaves out the flags that pick one mode or observe one run.
#[rustfmt::skip]
pub const COMPARE: FlagTable = FlagTable::new(
    "--compare <prog.s|prog.rprog> | --trace <FILE> | --workload <NAME> [options]",
    1,
    &[&[Flag::switch("--compare", "run SIE, DIE and DIE-IRB")], &SIM_INPUT_AND_MACHINE],
);

/// `redsim-workload`; `list` takes no flags.
#[rustfmt::skip]
pub const WORKLOAD: FlagTable = FlagTable::new("list | emit <NAME> [options] | mix <NAME> [options]", 2, &[&[
    Flag::value("--scale", "N", "workload scale (default: the workload's)"),
    Flag::value("--seed", "N", "workload input seed"),
]]);
