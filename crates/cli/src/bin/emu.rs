//! `redsim-emu` — run a program on the functional emulator.
//!
//! ```text
//! redsim-emu <prog.s|prog.rprog> [--budget <n>] [--trace-out <file.rtrc>]
//! ```
//!
//! Prints the program's `puti`/`putc`/`putf` output and a run summary;
//! `--trace-out` additionally captures the committed trace for replay
//! with `redsim-sim --trace`.

use redsim_cli::{die, load_program, usage, Args};
use redsim_isa::emu::Emulator;
use redsim_isa::trace::OutputEvent;
use redsim_isa::trace_io;

fn main() {
    let args = Args::from_env();
    let Some(input) = args.positional().first() else {
        usage("usage: redsim-emu <prog.s|prog.rprog> [--budget <n>] [--trace-out <file.rtrc>]");
    };
    let budget = args
        .parsed_or("--budget", 200_000_000u64)
        .unwrap_or_else(|e| die(&e));
    let program = load_program(input).unwrap_or_else(|e| die(&e));
    let mut emu = Emulator::new(&program);

    let committed = if let Some(trace_path) = args.value_of("--trace-out") {
        let trace = emu
            .run_trace(budget)
            .unwrap_or_else(|e| die(&format!("execution failed: {e}")));
        let mut bytes = Vec::new();
        trace_io::write_trace(&mut bytes, &trace)
            .unwrap_or_else(|e| die(&format!("{trace_path}: {e}")));
        std::fs::write(trace_path, bytes).unwrap_or_else(|e| die(&format!("{trace_path}: {e}")));
        println!("trace: {} records -> {trace_path}", trace.len());
        trace.len() as u64
    } else {
        emu.run(budget)
            .unwrap_or_else(|e| die(&format!("execution failed: {e}")))
    };

    for ev in emu.output() {
        match ev {
            OutputEvent::Int(v) => println!("{v}"),
            OutputEvent::Char(c) => print!("{}", *c as char),
            OutputEvent::Float(v) => println!("{v}"),
        }
    }
    eprintln!(
        "committed {committed} instructions, {} resident pages",
        emu.memory().resident_pages()
    );
}
