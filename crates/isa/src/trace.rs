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
//! A whole committed path is held as a [`Trace`]: one contiguous buffer
//! of fixed 48-byte [`PackedInst`] records, half the size of a
//! [`DynInst`], because every field that can be derived from the others
//! is dropped (see [`PackedInst`]). The values the reuse test compares —
//! operands, result and effective address — are kept in every record.

use std::fmt;

use crate::encode::INST_BYTES;
use crate::inst::Inst;
use crate::op::{OpClass, Opcode};

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

/// [`PackedInst`] flag: `result` holds a value.
const HAS_RESULT: u32 = 1;
/// [`PackedInst`] flag: `addr` holds the effective address.
const HAS_EA: u32 = 1 << 1;
/// [`PackedInst`] flag: `addr` holds the control-flow target.
const HAS_CONTROL: u32 = 1 << 2;
/// [`PackedInst`] flag: the control transfer was taken.
const TAKEN: u32 = 1 << 3;

/// One committed instruction in 48 bytes:
///
/// ```text
/// inst: Inst (8) | pc: u32 | flags: u32 | src1 | src2 | result | addr
/// ```
///
/// Four [`DynInst`] fields are derived instead of stored: `seq` is the
/// record's index in its [`Trace`]; `next_pc` is the target of a taken
/// control transfer, `pc` for `halt` and the fall-through otherwise; the
/// `Option` tags are flag bits; and the effective address and the
/// control target share `addr`, since no instruction has both.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct PackedInst {
    pub(crate) inst: Inst,
    pub(crate) pc: u32,
    pub(crate) flags: u32,
    pub(crate) src1: u64,
    pub(crate) src2: u64,
    pub(crate) result: u64,
    pub(crate) addr: u64,
}

const _: () = assert!(std::mem::size_of::<PackedInst>() == 48);

impl PackedInst {
    /// Packs `d` as the record at index `seq`, or `None` when `d` is not
    /// one the derivation rules reproduce exactly.
    fn pack(d: &DynInst, seq: u64) -> Option<Self> {
        let mut flags = 0;
        let mut addr = 0;
        if let Some(ea) = d.ea {
            flags |= HAS_EA;
            addr = ea;
        }
        if let Some(c) = d.control {
            if d.ea.is_some() {
                return None;
            }
            flags |= HAS_CONTROL | if c.taken { TAKEN } else { 0 };
            addr = c.target;
        }
        if d.result.is_some() {
            flags |= HAS_RESULT;
        }
        let p = PackedInst {
            inst: d.inst,
            pc: u32::try_from(d.pc).ok()?,
            flags,
            src1: d.src1,
            src2: d.src2,
            result: d.result.unwrap_or(0),
            addr,
        };
        (d.seq == seq && Self::flags_valid(flags, d.inst.op) && p.next_pc() == d.next_pc)
            .then_some(p)
    }

    /// `true` when `flags` is a combination a record of `op` can hold: no
    /// unknown bits, `TAKEN` only on a control transfer, an effective
    /// address exactly on loads and stores, and a control target exactly
    /// on branches and jumps (so never both).
    pub(crate) fn flags_valid(flags: u32, op: Opcode) -> bool {
        flags & !(HAS_RESULT | HAS_EA | HAS_CONTROL | TAKEN) == 0
            && (flags & TAKEN == 0 || flags & HAS_CONTROL != 0)
            && (flags & HAS_EA != 0) == op.is_mem()
            && (flags & HAS_CONTROL != 0) == op.is_control()
    }

    fn next_pc(&self) -> u64 {
        let pc = u64::from(self.pc);
        if self.flags & TAKEN != 0 {
            self.addr
        } else if self.inst.op == Opcode::Halt {
            pc
        } else {
            pc + INST_BYTES
        }
    }

    /// The full record, given its index in the trace.
    #[must_use]
    pub fn unpack(&self, seq: u64) -> DynInst {
        let has = |bit| self.flags & bit != 0;
        DynInst {
            seq,
            pc: u64::from(self.pc),
            inst: self.inst,
            src1: self.src1,
            src2: self.src2,
            result: has(HAS_RESULT).then_some(self.result),
            ea: has(HAS_EA).then_some(self.addr),
            control: has(HAS_CONTROL).then_some(ControlOutcome {
                taken: has(TAKEN),
                target: self.addr,
            }),
            next_pc: self.next_pc(),
        }
    }
}

/// A [`DynInst`] that [`Trace::push`] cannot store: its `seq` is not its
/// index in the trace, its `pc` does not fit 32 bits, it carries an
/// effective address or a control outcome its opcode does not produce
/// (or lacks one it does), or its `next_pc` is not the one the
/// derivation rules give. Emulator records are never refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackError {
    /// The index the record would have taken.
    pub index: u64,
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "record {} is not an emulator record the packed trace can hold",
            self.index
        )
    }
}

impl std::error::Error for PackError {}

/// A committed-path trace: one contiguous buffer of [`PackedInst`]
/// records, decoded back to a [`DynInst`] on access.
///
/// # Examples
///
/// ```
/// use redsim_isa::{asm::assemble, emu::Emulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("main: li a0, 2\n add a1, a0, a0\n halt\n")?;
/// let trace = Emulator::new(&p).record_trace(100)?;
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.get(1).unwrap().result, Some(4));
/// assert_eq!(trace.heap_bytes(), 3 * 48);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub(crate) records: Vec<PackedInst>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record at `index`, decoded.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<DynInst> {
        self.records.get(index).map(|p| p.unpack(index as u64))
    }

    /// Every record, decoded, in commit order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DynInst> + '_ {
        self.records
            .iter()
            .enumerate()
            .map(|(i, p)| p.unpack(i as u64))
    }

    /// Appends `d` as the next record.
    ///
    /// # Errors
    ///
    /// [`PackError`] when `d` cannot be stored losslessly; the trace is
    /// left unchanged.
    pub fn push(&mut self, d: &DynInst) -> Result<(), PackError> {
        let index = self.len() as u64;
        let p = PackedInst::pack(d, index).ok_or(PackError { index })?;
        self.records.push(p);
        Ok(())
    }

    /// Heap bytes the record buffer occupies (its capacity, not only
    /// its length).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<PackedInst>()
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

    fn nop_at(seq: u64, pc: u64) -> DynInst {
        DynInst {
            seq,
            pc,
            inst: Inst::NOP,
            src1: 0,
            src2: 0,
            result: None,
            ea: None,
            control: None,
            next_pc: pc + 8,
        }
    }

    #[test]
    fn push_refuses_what_the_derivation_rules_cannot_reproduce() {
        let mut t = Trace::new();
        t.push(&nop_at(0, 0x1000))
            .expect("an emulator-shaped record packs");
        let refused = [
            nop_at(5, 0x1008),
            nop_at(1, 1 << 32),
            DynInst {
                next_pc: 0x2000,
                ..nop_at(1, 0x1008)
            },
            DynInst {
                ea: Some(0x40),
                control: Some(ControlOutcome {
                    taken: false,
                    target: 0x2000,
                }),
                ..nop_at(1, 0x1008)
            },
            DynInst {
                ea: Some(0x40),
                ..nop_at(1, 0x1008)
            },
        ];
        for d in refused {
            assert_eq!(t.push(&d), Err(PackError { index: 1 }), "{d:?}");
        }
        assert_eq!(t.len(), 1, "a refused push leaves the trace unchanged");
    }

    #[test]
    fn flag_validity() {
        let valid = PackedInst::flags_valid;
        assert!(valid(0, Opcode::Nop));
        assert!(valid(HAS_RESULT, Opcode::Add));
        assert!(valid(HAS_RESULT | HAS_EA, Opcode::Ld));
        assert!(valid(HAS_EA, Opcode::Sd));
        assert!(valid(HAS_CONTROL, Opcode::Beq));
        assert!(valid(HAS_RESULT | HAS_CONTROL | TAKEN, Opcode::Jal));
        assert!(!valid(1 << 4, Opcode::Nop), "unknown bit");
        assert!(!valid(TAKEN, Opcode::Nop), "taken without control");
        assert!(!valid(HAS_EA | HAS_CONTROL, Opcode::Ld), "ea with control");
        assert!(!valid(HAS_RESULT, Opcode::Ld), "load without ea");
        assert!(!valid(0, Opcode::Sd), "store without ea");
        assert!(!valid(0, Opcode::Beq), "branch without control");
        assert!(!valid(HAS_RESULT, Opcode::Jal), "jump without control");
        assert!(!valid(HAS_RESULT | HAS_EA, Opcode::Add), "ea on an ALU op");
        assert!(!valid(HAS_CONTROL, Opcode::Add), "control on an ALU op");
    }
}
