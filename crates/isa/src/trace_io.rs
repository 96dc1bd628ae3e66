//! Binary serialization of committed-path traces, so expensive
//! functional runs can be captured once and replayed across many
//! machine configurations (or machines).
//!
//! Layout (format version 2): `"RTRC"` magic, `u16` version, `u64`
//! record count, then one fixed-width 48-byte record per instruction —
//! the in-memory [`PackedInst`] in
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

use crate::encode;
use crate::trace::{DynInst, PackError, PackedInst, Trace};

const MAGIC: &[u8; 4] = b"RTRC";
const VERSION: u16 = 2;
const HEADER_BYTES: usize = 14;
/// Bytes per record on disk.
pub const RECORD_BYTES: usize = 48;

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

/// Serializes a trace.
#[must_use]
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + trace.len() * RECORD_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for p in &trace.records {
        out.extend_from_slice(&encode::encode(&p.inst).to_le_bytes());
        out.extend_from_slice(&p.pc.to_le_bytes());
        out.extend_from_slice(&p.flags.to_le_bytes());
        for v in [p.src1, p.src2, p.result, p.addr] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte field"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("a 4-byte field"))
}

/// Deserializes a trace from the whole of `bytes`.
///
/// # Errors
///
/// A short header is an [`io::ErrorKind::UnexpectedEof`]; then bad
/// magic or version, a count that disagrees with the body, an
/// undecodable instruction word, or a flag word invalid for its opcode.
pub fn decode(bytes: &[u8]) -> Result<Trace, TraceIoError> {
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
        records.push(PackedInst {
            inst,
            pc: le_u32(&r[8..12]),
            flags,
            src1: le_u64(&r[16..24]),
            src2: le_u64(&r[24..32]),
            result: le_u64(&r[32..40]),
            addr: le_u64(&r[40..48]),
        });
    }
    Ok(Trace { records })
}

/// Writes a trace of [`DynInst`] records to `w` in the packed format.
///
/// A `&mut` reference can be passed for any `W: Write`.
///
/// # Errors
///
/// [`TraceIoError::Unpackable`] for a record that is not shaped like an
/// emulator record (see [`Trace::push`]); otherwise I/O errors from the
/// writer.
pub fn write_trace<W: Write>(mut w: W, trace: &[DynInst]) -> Result<(), TraceIoError> {
    let mut packed = Trace {
        records: Vec::with_capacity(trace.len()),
    };
    for d in trace {
        packed.push(d).map_err(TraceIoError::Unpackable)?;
    }
    w.write_all(&encode(&packed))?;
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
    Ok(decode(&bytes)?.iter().collect())
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
        let alu = t
            .iter()
            .position(|d| d.inst.op == crate::Opcode::Addi)
            .unwrap();
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
