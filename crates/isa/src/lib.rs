#![warn(missing_docs)]

//! # redsim-isa
//!
//! The instruction set, assembler, disassembler and functional emulator
//! underpinning the `redsim` temporal-redundancy simulation stack.
//!
//! The ISA is a 64-bit load/store RISC machine in the spirit of the
//! SimpleScalar PISA used by the original DIE-IRB paper (Parashar,
//! Gurumurthi & Sivasubramaniam, ISCA 2004): 32 integer registers, 32
//! floating-point registers, single-result instructions, and explicit
//! branch/jump control flow. Every instruction has a fixed-width 64-bit
//! binary encoding ([`encode`]) that round-trips losslessly.
//!
//! The crate provides three layers:
//!
//! * **Static program representation** — [`Inst`], [`Opcode`], [`Program`],
//!   built either programmatically or with the two-pass [`asm`] assembler.
//! * **Functional emulation** — [`emu::Emulator`] executes a [`Program`]
//!   architecturally and emits a committed dynamic-instruction trace of
//!   [`trace::DynInst`] records carrying operand *values*, results,
//!   effective addresses and branch outcomes. A whole run is held as a
//!   [`trace::Trace`] recipe (the program and its committed count) and
//!   re-emulated on every replay; [`trace_io`] writes the records to
//!   `.rtrc` files for interchange. The timing models in `redsim-core`
//!   consume this trace, and the instruction-reuse behaviour studied by
//!   the paper emerges from the real values recorded here.
//! * **Tooling** — a [`disasm`] disassembler for debugging and reporting.
//!
//! # Examples
//!
//! Assemble and run a tiny program:
//!
//! ```
//! use redsim_isa::{asm::assemble, emu::Emulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     r#"
//!         .text
//!     main:
//!         li   a0, 10
//!         li   a1, 0
//!     loop:
//!         add  a1, a1, a0
//!         addi a0, a0, -1
//!         bne  a0, zero, loop
//!         puti a1
//!         halt
//!     "#,
//! )?;
//! let mut emu = Emulator::new(&program);
//! emu.run(1_000_000)?;
//! assert_eq!(emu.output_ints(), &[55]);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod container;
pub mod disasm;
pub mod emu;
pub mod encode;
mod error;
mod inst;
mod op;
mod program;
mod reg;
pub mod trace;
pub mod trace_io;

pub use error::{AsmError, DecodeError, EmuError};
pub use inst::{Inst, SrcRegs};
pub use op::{MemWidth, OpClass, Opcode, OperandSig};
pub use program::{Program, ProgramBuilder, Symbol, DATA_BASE, STACK_TOP, TEXT_BASE};
pub use reg::{FpReg, IntReg, NUM_REGS};
