//! The `.rtrc` trace file: committed-path records written out, so a
//! functional run can be handed to another tool or machine
//! (`redsim-emu --trace-out`, `redsim-sim --trace`). In process, a
//! trace is a [`Trace`](crate::trace::Trace) recipe and is never held
//! as records; this format is for interchange only.
//!
//! Layout (format version 2): `"RTRC"` magic, `u16` version, `u64`
//! record count, then one fixed-width 48-byte record per instruction,
//! little-endian, with the instruction as its encoded word:
//!
//! ```text
//! inst u64 (encoded) | pc u32 | flags u32 (bit0 result, bit1 ea,
//! bit2 control, bit3 taken) | src1 u64 | src2 u64 | result u64 | addr u64
//! ```
//!
//! `seq` and `next_pc` are derived on decode, and `addr` holds the
//! effective address or the control target (never both); a slot whose
//! flag is clear is zero. Version 1 files (73-byte records holding every
//! field) read as [`TraceIoError::BadVersion`].
//!
//! A trace file is untrusted input. [`decode`] pre-allocates only for
//! the records the bytes actually hold, and refuses a count that
//! disagrees with the body, undecodable instruction words, flag bits
//! outside the layout, and flags that disagree with the record's opcode
//! (an effective address on anything but a load or store, a control
//! target on anything but a branch or jump, or either one missing where
//! the opcode needs it) — each with a typed [`TraceIoError`], never a
//! panic. Every record that decodes can therefore be replayed.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::encode::{self, INST_BYTES};
use crate::inst::Inst;
use crate::op::Opcode;
use crate::trace::{ControlOutcome, DynInst};

const MAGIC: &[u8; 4] = b"RTRC";
const VERSION: u16 = 2;
const HEADER_BYTES: usize = 14;
/// Bytes per record on disk.
pub const RECORD_BYTES: usize = 48;

/// Record flag: `result` holds a value.
const HAS_RESULT: u32 = 1;
/// Record flag: `addr` holds the effective address.
const HAS_EA: u32 = 1 << 1;
/// Record flag: `addr` holds the control-flow target.
const HAS_CONTROL: u32 = 1 << 2;
/// Record flag: the control transfer was taken.
const TAKEN: u32 = 1 << 3;

/// One record of the file, decoded from or bound for its 48 bytes.
///
/// Four [`DynInst`] fields are derived instead of stored: `seq` is the
/// record's index in the file; `next_pc` is the target of a taken
/// control transfer, `pc` for `halt` and the fall-through otherwise; the
/// `Option` tags are flag bits; and the effective address and the
/// control target share `addr`, since no instruction has both.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedInst {
    inst: Inst,
    pc: u32,
    flags: u32,
    src1: u64,
    src2: u64,
    result: u64,
    addr: u64,
}

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
    fn flags_valid(flags: u32, op: Opcode) -> bool {
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

    /// The full record, given its index in the file.
    fn unpack(&self, seq: u64) -> DynInst {
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

/// A [`DynInst`] that [`write_trace`] cannot store: its `seq` is not its
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
            "record {} is not an emulator record a trace file can hold",
            self.index
        )
    }
}

impl Error for PackError {}

/// An error produced while reading or writing a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// The header's record count disagrees with the bytes that follow.
    CountMismatch {
        /// Records the header declares.
        declared: u64,
        /// Bytes present after the header.
        body_bytes: u64,
    },
    /// A record's flag word is not a valid combination for its opcode.
    BadFlags {
        /// Index of the offending record.
        record: u64,
        /// The flag word.
        flags: u32,
    },
    /// An instruction word failed to decode.
    Decode(crate::DecodeError),
    /// A record to be written does not have an emulator record's shape.
    Unpackable(PackError),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::BadMagic => write!(f, "not a redsim trace (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::CountMismatch {
                declared,
                body_bytes,
            } => write!(
                f,
                "header declares {declared} records but {body_bytes} bytes follow"
            ),
            TraceIoError::BadFlags { record, flags } => {
                write!(f, "record {record}: invalid flag word {flags:#x}")
            }
            TraceIoError::Decode(e) => write!(f, "bad instruction in trace: {e}"),
            TraceIoError::Unpackable(e) => write!(f, "cannot serialize: {e}"),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Decode(e) => Some(e),
            TraceIoError::Unpackable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<crate::DecodeError> for TraceIoError {
    fn from(e: crate::DecodeError) -> Self {
        TraceIoError::Decode(e)
    }
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte field"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("a 4-byte field"))
}

/// Decodes a trace file from the whole of `bytes`: the checked
/// decoder for this untrusted input.
///
/// # Errors
///
/// A short header is an [`io::ErrorKind::UnexpectedEof`]; then bad
/// magic or version, a count that disagrees with the body, an
/// undecodable instruction word, or a flag word invalid for its opcode.
pub fn decode(bytes: &[u8]) -> Result<Vec<DynInst>, TraceIoError> {
    let Some((header, body)) = bytes.split_at_checked(HEADER_BYTES) else {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    };
    if &header[..4] != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let declared = le_u64(&header[6..]);
    if declared.checked_mul(RECORD_BYTES as u64) != Some(body.len() as u64) {
        return Err(TraceIoError::CountMismatch {
            declared,
            body_bytes: body.len() as u64,
        });
    }
    // The body holds exactly `declared` records, so this allocation is
    // bounded by the bytes already in hand.
    let mut records = Vec::with_capacity(body.len() / RECORD_BYTES);
    for (i, r) in body.chunks_exact(RECORD_BYTES).enumerate() {
        let inst = encode::decode(le_u64(&r[..8]))?;
        let flags = le_u32(&r[12..16]);
        if !PackedInst::flags_valid(flags, inst.op) {
            return Err(TraceIoError::BadFlags {
                record: i as u64,
                flags,
            });
        }
        let p = PackedInst {
            inst,
            pc: le_u32(&r[8..12]),
            flags,
            src1: le_u64(&r[16..24]),
            src2: le_u64(&r[24..32]),
            result: le_u64(&r[32..40]),
            addr: le_u64(&r[40..48]),
        };
        records.push(p.unpack(i as u64));
    }
    Ok(records)
}

/// Writes a trace of [`DynInst`] records to `w` as a version-2 file.
///
/// A `&mut` reference can be passed for any `W: Write`.
///
/// # Errors
///
/// [`TraceIoError::Unpackable`] for a record that is not shaped like an
/// emulator record (see [`PackError`]), before anything is written;
/// otherwise I/O errors from the writer.
pub fn write_trace<W: Write>(mut w: W, trace: &[DynInst]) -> Result<(), TraceIoError> {
    let mut out = Vec::with_capacity(HEADER_BYTES + trace.len() * RECORD_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for (i, d) in trace.iter().enumerate() {
        let index = i as u64;
        let p = PackedInst::pack(d, index).ok_or(TraceIoError::Unpackable(PackError { index }))?;
        out.extend_from_slice(&encode::encode(&p.inst).to_le_bytes());
        out.extend_from_slice(&p.pc.to_le_bytes());
        out.extend_from_slice(&p.flags.to_le_bytes());
        for v in [p.src1, p.src2, p.result, p.addr] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    w.write_all(&out)?;
    Ok(())
}

/// Reads a whole trace from `r` and decodes it to [`DynInst`] records.
///
/// A `&mut` reference can be passed for any `R: Read`.
///
/// # Errors
///
/// I/O errors from the reader, or any [`decode`] error.
pub fn read_trace<R: Read>(mut r: R) -> Result<Vec<DynInst>, TraceIoError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::emu::Emulator;

    fn sample_trace() -> Vec<DynInst> {
        let p = assemble(
            r#"
                .data
            x: .word 5
                .text
            main:
                la t0, x
                ld a0, 0(t0)
            loop:
                addi a0, a0, -1
                bnez a0, loop
                sd a0, 0(t0)
                halt
            "#,
        )
        .unwrap();
        Emulator::new(&p).run_trace(1000).unwrap()
    }

    fn sample_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf
    }

    #[test]
    fn round_trip_is_lossless_at_48_bytes_per_record() {
        let t = sample_trace();
        let buf = sample_bytes();
        assert_eq!(buf.len(), HEADER_BYTES + t.len() * RECORD_BYTES);
        assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let r = read_trace(&b"NOPE\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00"[..]);
        assert!(matches!(r, Err(TraceIoError::BadMagic)));
    }

    #[test]
    fn version_1_reads_as_bad_version() {
        let r = read_trace(&b"RTRC\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"[..]);
        assert!(matches!(r, Err(TraceIoError::BadVersion(1))));
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let buf = sample_bytes();
        for cut in [5, 14, 20, buf.len() - 1] {
            assert!(read_trace(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn a_huge_declared_count_is_refused_without_allocating() {
        for declared in [u64::MAX, 1 << 40] {
            let mut buf = sample_bytes();
            buf[6..14].copy_from_slice(&declared.to_le_bytes());
            assert!(
                matches!(
                    decode(&buf),
                    Err(TraceIoError::CountMismatch { declared: d, .. }) if d == declared
                ),
                "count {declared}"
            );
        }
    }

    #[test]
    fn each_flag_violation_is_a_typed_error() {
        let t = sample_trace();
        let ld = t.iter().position(|d| d.inst.op.is_load()).unwrap();
        let br = t.iter().position(|d| d.inst.op.is_branch()).unwrap();
        let alu = t.iter().position(|d| d.inst.op == Opcode::Addi).unwrap();
        // Flag bits: 0 result, 1 ea, 2 control, 3 taken. The load's
        // are result | ea, the branch's control (| taken).
        let cases = [
            (ld, 1u32 << 4 | 0b11, "an unknown bit"),
            (ld, 0b1011, "taken without control"),
            (ld, 0b0111, "ea with control"),
            (ld, 0b0001, "a load without its ea"),
            (br, 0b0000, "a branch without its outcome"),
            (alu, 0b0011, "an ea on an ALU op"),
            (alu, 0b1101, "an outcome on an ALU op"),
        ];
        for (rec, bad, what) in cases {
            let at = HEADER_BYTES + rec * RECORD_BYTES + 12;
            let mut buf = sample_bytes();
            buf[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            assert!(
                matches!(
                    decode(&buf),
                    Err(TraceIoError::BadFlags { record, flags })
                        if record == rec as u64 && flags == bad
                ),
                "{what}: flags {bad:#x}"
            );
        }
    }

    #[test]
    fn an_undecodable_instruction_word_is_a_typed_error() {
        let mut buf = sample_bytes();
        buf[HEADER_BYTES] = 0xff;
        assert!(matches!(decode(&buf), Err(TraceIoError::Decode(_))));
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
    fn pack_refuses_what_the_derivation_rules_cannot_reproduce() {
        assert!(PackedInst::pack(&nop_at(1, 0x1008), 1).is_some());
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
            assert_eq!(PackedInst::pack(&d, 1), None, "{d:?}");
        }
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

    #[test]
    fn records_that_do_not_pack_are_refused_on_write() {
        let mut t = sample_trace();
        t[2].seq = 7;
        let r = write_trace(&mut Vec::new(), &t);
        assert!(matches!(
            r,
            Err(TraceIoError::Unpackable(PackError { index: 2 }))
        ));
    }
}
