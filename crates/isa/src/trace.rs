//! Committed dynamic-instruction trace records.
//!
//! The functional emulator emits one [`DynInst`] per architecturally
//! committed instruction. The record carries everything the timing models
//! need: operand *values* (so the instruction-reuse test of the DIE-IRB
//! design operates on real data), results, effective addresses, and branch
//! outcomes. Floating-point values travel as raw `f64` bit patterns, which
//! is what the hardware comparators of the DIE commit stage and the IRB
//! reuse test would see.
//!
//! A whole committed path is held as a [`Trace`]: the program, its
//! budget and its committed count, from which a replay re-emulates the
//! records on demand. Records are stored only in `.rtrc` files, the
//! interchange format of [`trace_io`](crate::trace_io).

use crate::emu::Emulator;
use crate::error::EmuError;
use crate::inst::Inst;
use crate::op::OpClass;
use crate::program::Program;

/// Outcome of a control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ControlOutcome {
    /// Whether the branch/jump redirected the PC (always `true` for
    /// jumps).
    pub taken: bool,
    /// The target the instruction computes, whether or not it was taken.
    pub target: u64,
}

/// One committed dynamic instruction.
///
/// # Examples
///
/// ```
/// use redsim_isa::{asm::assemble, emu::Emulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("main: li a0, 2\n add a1, a0, a0\n halt\n")?;
/// let mut emu = Emulator::new(&p);
/// let _li = emu.step()?.unwrap();
/// let add = emu.step()?.unwrap();
/// assert_eq!(add.src1, 2);
/// assert_eq!(add.result, Some(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst {
    /// Commit-order sequence number, starting at 0.
    pub seq: u64,
    /// The instruction's address.
    pub pc: u64,
    /// The static instruction.
    pub inst: Inst,
    /// First source-operand value. For register–immediate ALU operations
    /// this is the register value; for loads/stores it is the base
    /// address register; for fp operations it is the `f64` bit pattern.
    pub src1: u64,
    /// Second source-operand value. For register–immediate operations
    /// this is the sign-extended immediate; for stores it is the data
    /// value being stored.
    pub src2: u64,
    /// Value written to the destination register (bit pattern), if any.
    /// For loads this is the loaded value; for `jal`/`jalr` the link
    /// address.
    pub result: Option<u64>,
    /// Effective address, for loads and stores.
    pub ea: Option<u64>,
    /// Control-flow outcome, for branches and jumps.
    pub control: Option<ControlOutcome>,
    /// Address of the next committed instruction.
    pub next_pc: u64,
}

impl DynInst {
    /// The functional-unit class of the instruction.
    #[must_use]
    pub fn class(&self) -> OpClass {
        self.inst.op.class()
    }

    /// `true` if this dynamic instruction redirected the PC.
    #[must_use]
    pub fn redirects(&self) -> bool {
        self.control.is_some_and(|c| c.taken)
    }

    /// The address of the instruction immediately after this one in
    /// static program order (the fall-through PC).
    #[must_use]
    pub fn fallthrough_pc(&self) -> u64 {
        self.pc + crate::encode::INST_BYTES
    }
}

/// A committed-path trace held as a replay recipe: the program, the
/// instruction budget it runs under and the number of instructions it
/// commits. The records themselves are never stored; a replay (the
/// timing models' `TraceSource`) re-runs the program on a fresh
/// [`Emulator`], which is deterministic, so every replay yields the
/// same records, and checks that exactly [`len`](Self::len) of them
/// come out. The recipe costs the program's bytes, not 48 or 96 bytes
/// per instruction.
///
/// # Examples
///
/// ```
/// use redsim_isa::asm::assemble;
/// use redsim_isa::trace::Trace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("main: li a0, 2\n add a1, a0, a0\n halt\n")?;
/// let trace = Trace::record(p.clone(), 100)?;
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.program(), &p);
/// assert_eq!(trace.heap_bytes(), p.heap_bytes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    program: Program,
    budget: u64,
    len: u64,
}

impl Trace {
    /// Runs `program` once on a fresh emulator, counting the
    /// instructions it commits before `halt`.
    ///
    /// # Errors
    ///
    /// [`EmuError::BudgetExhausted`] when the program does not halt
    /// within `budget` instructions, or any execution fault.
    pub fn record(program: Program, budget: u64) -> Result<Self, EmuError> {
        let len = Emulator::new(&program).run(budget)?;
        Ok(Trace {
            program,
            budget,
            len,
        })
    }

    /// A recipe from its parts, as persisted. The count is not checked
    /// here: a replay that commits any other number of instructions
    /// fails with [`EmuError::TraceLength`].
    #[must_use]
    pub fn from_parts(program: Program, budget: u64, len: u64) -> Self {
        Trace {
            program,
            budget,
            len,
        }
    }

    /// The program a replay runs.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The instruction budget the trace was recorded under.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Number of committed instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the program commits no instruction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the recipe occupies: its program's.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.program.heap_bytes()
    }
}

/// Events a program emits through the `puti`/`putc`/`putf` instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputEvent {
    /// `puti` — a signed integer.
    Int(i64),
    /// `putc` — one byte.
    Char(u8),
    /// `putf` — a double.
    Float(f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn redirects_requires_taken() {
        let base = DynInst {
            seq: 0,
            pc: 0x1000,
            inst: Inst::NOP,
            src1: 0,
            src2: 0,
            result: None,
            ea: None,
            control: None,
            next_pc: 0x1008,
        };
        assert!(!base.redirects());
        let not_taken = DynInst {
            control: Some(ControlOutcome {
                taken: false,
                target: 0x2000,
            }),
            ..base
        };
        assert!(!not_taken.redirects());
        let taken = DynInst {
            control: Some(ControlOutcome {
                taken: true,
                target: 0x2000,
            }),
            ..base
        };
        assert!(taken.redirects());
    }

    #[test]
    fn fallthrough_is_pc_plus_inst_bytes() {
        let d = DynInst {
            seq: 1,
            pc: 0x1010,
            inst: Inst::NOP,
            src1: 0,
            src2: 0,
            result: None,
            ea: None,
            control: None,
            next_pc: 0x1018,
        };
        assert_eq!(d.fallthrough_pc(), 0x1018);
    }
}
