//! `redsim-asm` — assemble redsim assembly into a `.rprog` container.
//!
//! ```text
//! redsim-asm <input.s> [--out <file.rprog>] [--list]
//! ```
//!
//! `--list` prints the disassembly listing instead of writing a file
//! (`redsim::cli::ASM`).

use redsim::cli::ASM;
use redsim_cli::die;
use redsim_isa::{container, disasm};
use redsim_util::flags::{self, FlagError};

fn main() {
    let args = ASM.parse_or_exit(&flags::args());
    let Some(input) = args.positionals().first() else {
        args.fail(&FlagError::Required("<input.s>"));
    };
    let src = match std::fs::read_to_string(input) {
        Ok(s) => s,
        Err(e) => die(&format!("{input}: {e}")),
    };
    let program = match redsim_isa::asm::assemble(&src) {
        Ok(p) => p,
        Err(e) => die(&format!("{input}:{e}")),
    };
    if args.has("--list") {
        print!("{}", disasm::listing(&program));
        return;
    }
    let out = args
        .value("--out")
        .map(str::to_owned)
        .unwrap_or_else(|| input.strip_suffix(".s").unwrap_or(input).to_owned() + ".rprog");
    if let Err(e) = std::fs::write(&out, container::to_bytes(&program)) {
        die(&format!("{out}: {e}"));
    }
    println!(
        "{out}: {} instructions, {} data bytes, entry {:#x}",
        program.text().len(),
        program.data().len(),
        program.entry()
    );
}
