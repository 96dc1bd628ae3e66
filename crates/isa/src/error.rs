//! Error types for assembly, decoding and emulation.

use std::error::Error;
use std::fmt;

/// An error produced while assembling source text.
///
/// Carries the 1-based source line where the problem was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    line: u32,
    message: String,
}

impl AsmError {
    pub(crate) fn new(line: u32, message: impl Into<String>) -> Self {
        AsmError {
            line,
            message: message.into(),
        }
    }

    /// The 1-based source line on which the error occurred.
    #[must_use]
    pub fn line(&self) -> u32 {
        self.line
    }

    /// A human-readable description of the problem.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

/// An error produced while decoding a binary instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode number is not assigned.
    BadOpcode(u8),
    /// A reserved bit was set in the instruction word.
    ReservedBits(u64),
    /// A text segment's byte length is not a whole number of instructions.
    TruncatedText(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(n) => write!(f, "unassigned opcode number {n:#x}"),
            DecodeError::ReservedBits(w) => {
                write!(f, "reserved bits set in instruction word {w:#018x}")
            }
            DecodeError::TruncatedText(len) => {
                write!(f, "text segment length {len} is not a multiple of 8")
            }
        }
    }
}

impl Error for DecodeError {}

/// An error raised during functional emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The PC left the text segment.
    PcOutOfText {
        /// The offending program counter.
        pc: u64,
    },
    /// A memory access touched an unmapped or out-of-bounds address.
    BadAddress {
        /// The faulting effective address.
        addr: u64,
        /// PC of the faulting instruction.
        pc: u64,
    },
    /// A load or store was not naturally aligned for its width.
    Misaligned {
        /// The faulting effective address.
        addr: u64,
        /// Required alignment in bytes.
        align: u64,
        /// PC of the faulting instruction.
        pc: u64,
    },
    /// The instruction budget given to [`run`](crate::emu::Emulator::run)
    /// was exhausted before the program halted.
    BudgetExhausted {
        /// Number of instructions that were executed.
        executed: u64,
    },
    /// A replayed [`Trace`](crate::trace::Trace) committed a different
    /// number of instructions than it declares.
    TraceLength {
        /// Instructions the trace declares.
        declared: u64,
        /// Instructions committed when the program halted, or `None`
        /// when it was still running after `declared` of them.
        halted_at: Option<u64>,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfText { pc } => {
                write!(f, "program counter {pc:#x} left the text segment")
            }
            EmuError::BadAddress { addr, pc } => {
                write!(f, "bad memory address {addr:#x} at pc {pc:#x}")
            }
            EmuError::Misaligned { addr, align, pc } => write!(
                f,
                "address {addr:#x} not aligned to {align} bytes at pc {pc:#x}"
            ),
            EmuError::BudgetExhausted { executed } => write!(
                f,
                "instruction budget exhausted after {executed} instructions"
            ),
            EmuError::TraceLength {
                declared,
                halted_at: Some(n),
            } => write!(
                f,
                "trace declares {declared} instructions but its program halted after {n}"
            ),
            EmuError::TraceLength {
                declared,
                halted_at: None,
            } => write!(
                f,
                "trace declares {declared} instructions but its program runs past them"
            ),
        }
    }
}

impl Error for EmuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asm_error_display_includes_line() {
        let e = AsmError::new(12, "unknown mnemonic `frob`");
        assert_eq!(e.to_string(), "line 12: unknown mnemonic `frob`");
        assert_eq!(e.line(), 12);
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AsmError>();
        assert_send_sync::<DecodeError>();
        assert_send_sync::<EmuError>();
    }

    #[test]
    fn emu_error_messages_are_lowercase() {
        let msgs = [
            EmuError::PcOutOfText { pc: 0 }.to_string(),
            EmuError::BadAddress { addr: 1, pc: 2 }.to_string(),
            EmuError::Misaligned {
                addr: 3,
                align: 8,
                pc: 4,
            }
            .to_string(),
            EmuError::BudgetExhausted { executed: 5 }.to_string(),
        ];
        for m in msgs {
            assert!(m.chars().next().unwrap().is_lowercase(), "{m}");
            assert!(!m.ends_with('.'), "{m}");
        }
    }
}
