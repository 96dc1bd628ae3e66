//! Fixed-width binary instruction encoding.
//!
//! Each instruction encodes to a single little-endian 64-bit word:
//!
//! ```text
//!  bits  0..8   opcode number (index into [`Opcode::ALL`])
//!  bits  8..13  rd
//!  bits 13..18  rs1
//!  bits 18..23  rs2
//!  bits 23..55  imm (32-bit two's complement)
//!  bits 55..64  reserved, must be zero
//! ```
//!
//! A fixed 64-bit word keeps the fetch and I-cache models trivial (the
//! paper's platform likewise uses a fixed-width ISA) while leaving room
//! for full 32-bit immediates. [`encode`] and [`decode`] round-trip for
//! every well-formed instruction — a property the test-suite verifies
//! exhaustively over opcodes and generatively over operand values.

use crate::error::DecodeError;
use crate::inst::Inst;
use crate::op::Opcode;
use crate::reg::NUM_REGS;

/// Bytes occupied by one encoded instruction; PCs advance by this much.
pub const INST_BYTES: u64 = 8;

const RD_SHIFT: u32 = 8;
const RS1_SHIFT: u32 = 13;
const RS2_SHIFT: u32 = 18;
const IMM_SHIFT: u32 = 23;
const REG_MASK: u64 = 0x1f;

/// Encodes an instruction into its 64-bit binary form.
///
/// # Examples
///
/// ```
/// use redsim_isa::{encode, Inst, IntReg, Opcode};
///
/// let i = Inst::rri(Opcode::Addi, IntReg::new(1), IntReg::new(2), -7);
/// let word = encode::encode(&i);
/// assert_eq!(encode::decode(word).unwrap(), i);
/// ```
#[must_use]
pub fn encode(inst: &Inst) -> u64 {
    // `Opcode::ALL` lists the opcodes in declaration order, so an
    // opcode's discriminant is its position there (tested below).
    inst.op as u64
        | (u64::from(inst.rd) & REG_MASK) << RD_SHIFT
        | (u64::from(inst.rs1) & REG_MASK) << RS1_SHIFT
        | (u64::from(inst.rs2) & REG_MASK) << RS2_SHIFT
        | u64::from(inst.imm as u32) << IMM_SHIFT
}

/// Decodes a 64-bit word back into an instruction.
///
/// # Errors
///
/// Returns [`DecodeError`] if the opcode number is unassigned or a
/// reserved bit is set.
pub fn decode(word: u64) -> Result<Inst, DecodeError> {
    let opnum = (word & 0xff) as usize;
    let op = *Opcode::ALL
        .get(opnum)
        .ok_or(DecodeError::BadOpcode(opnum as u8))?;
    if word >> (IMM_SHIFT + 32) != 0 {
        return Err(DecodeError::ReservedBits(word));
    }
    let rd = (word >> RD_SHIFT & REG_MASK) as u8;
    let rs1 = (word >> RS1_SHIFT & REG_MASK) as u8;
    let rs2 = (word >> RS2_SHIFT & REG_MASK) as u8;
    debug_assert!((rd as usize) < NUM_REGS);
    let imm = (word >> IMM_SHIFT) as u32 as i32;
    Ok(Inst {
        op,
        rd,
        rs1,
        rs2,
        imm,
    })
}

/// Encodes a full text segment into bytes (little-endian words).
#[must_use]
pub fn encode_text(insts: &[Inst]) -> Vec<u8> {
    let mut out = Vec::with_capacity(insts.len() * INST_BYTES as usize);
    for i in insts {
        out.extend_from_slice(&encode(i).to_le_bytes());
    }
    out
}

/// Decodes a byte slice produced by [`encode_text`].
///
/// # Errors
///
/// Returns [`DecodeError`] if the length is not a multiple of
/// [`INST_BYTES`] or any word fails to decode.
pub fn decode_text(bytes: &[u8]) -> Result<Vec<Inst>, DecodeError> {
    if !bytes.len().is_multiple_of(INST_BYTES as usize) {
        return Err(DecodeError::TruncatedText(bytes.len()));
    }
    bytes
        .chunks_exact(INST_BYTES as usize)
        .map(|c| decode(u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::IntReg;

    #[test]
    fn round_trip_every_opcode() {
        for op in Opcode::ALL {
            let i = Inst {
                op,
                rd: 3,
                rs1: 7,
                rs2: 31,
                imm: -123456,
            };
            assert_eq!(decode(encode(&i)).unwrap(), i, "{op}");
        }
    }

    #[test]
    fn opcode_numbers_are_positions_in_the_all_table() {
        for (i, op) in Opcode::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{op}");
        }
    }

    #[test]
    fn bad_opcode_is_rejected() {
        assert!(matches!(decode(0xff), Err(DecodeError::BadOpcode(0xff))));
    }

    #[test]
    fn reserved_bits_are_rejected() {
        let w = encode(&Inst::NOP) | 1 << 63;
        assert!(matches!(decode(w), Err(DecodeError::ReservedBits(_))));
    }

    #[test]
    fn text_round_trip() {
        let prog = vec![
            Inst::li(IntReg::new(1), 5),
            Inst::rrr(Opcode::Add, IntReg::new(2), IntReg::new(1), IntReg::new(1)),
            Inst::halt(),
        ];
        let bytes = encode_text(&prog);
        assert_eq!(bytes.len(), 24);
        assert_eq!(decode_text(&bytes).unwrap(), prog);
    }

    #[test]
    fn truncated_text_is_rejected() {
        let bytes = encode_text(&[Inst::NOP]);
        assert!(matches!(
            decode_text(&bytes[..5]),
            Err(DecodeError::TruncatedText(5))
        ));
    }

    #[test]
    fn immediate_extremes_round_trip() {
        for imm in [i32::MIN, -1, 0, 1, i32::MAX] {
            let i = Inst::li(IntReg::new(9), imm);
            assert_eq!(decode(encode(&i)).unwrap().imm, imm);
        }
    }
}

#[cfg(test)]
mod generative {
    //! Seeded generative tests: inputs drawn from a fixed-seed
    //! [`redsim_util::Rng`], so failures replay exactly.

    use super::*;
    use redsim_util::Rng;

    #[test]
    fn any_wellformed_inst_round_trips() {
        let mut rng = Rng::new(0x00E7_C0DE);
        // Exhaustive over opcodes × many operand draws: strictly more
        // coverage than the former 256-case proptest run.
        for op in Opcode::ALL {
            for _ in 0..32 {
                let i = Inst {
                    op,
                    rd: rng.any_u8() % 32,
                    rs1: rng.any_u8() % 32,
                    rs2: rng.any_u8() % 32,
                    imm: rng.any_i32(),
                };
                assert_eq!(decode(encode(&i)).unwrap(), i, "{i:?}");
            }
        }
    }

    #[test]
    fn decode_never_panics_and_registers_stay_in_range() {
        let mut rng = Rng::new(0x00E7_C0DF);
        for _ in 0..4096 {
            let word = rng.next_u64();
            if let Ok(i) = decode(word) {
                assert!(i.rd < 32 && i.rs1 < 32 && i.rs2 < 32, "word {word:#x}");
            }
        }
    }
}
