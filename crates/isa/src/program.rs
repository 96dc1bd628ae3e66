//! Linked program images.

use std::collections::BTreeMap;
use std::fmt;

use crate::encode::INST_BYTES;
use crate::inst::Inst;

/// Default base address of the text segment.
pub const TEXT_BASE: u64 = 0x1000;
/// Default base address of the data segment.
pub const DATA_BASE: u64 = 0x1000_0000;
/// Initial stack pointer handed to programs (stack grows down).
pub const STACK_TOP: u64 = 0x7fff_fff0;

/// A named address in a program image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Symbol {
    /// The label name as written in the source.
    pub name: String,
    /// The absolute address the label resolved to.
    pub addr: u64,
}

/// A fully linked program: text, data, entry point and symbol table.
///
/// Build one with the [`asm`](crate::asm) assembler or programmatically
/// with [`ProgramBuilder`].
///
/// # Examples
///
/// ```
/// use redsim_isa::{Inst, IntReg, ProgramBuilder};
///
/// let program = ProgramBuilder::new()
///     .inst(Inst::li(IntReg::arg(0), 42))
///     .inst(Inst::halt())
///     .build();
/// assert_eq!(program.text().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    text: Vec<Inst>,
    text_base: u64,
    data: Vec<u8>,
    data_base: u64,
    entry: u64,
    symbols: BTreeMap<String, u64>,
}

impl Program {
    /// The instructions of the text segment, in address order.
    #[must_use]
    pub fn text(&self) -> &[Inst] {
        &self.text
    }

    /// Base address of the text segment.
    #[must_use]
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// One past the last text address.
    #[must_use]
    pub fn text_end(&self) -> u64 {
        self.text_base + self.text.len() as u64 * INST_BYTES
    }

    /// Initial contents of the data segment.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Base address of the data segment.
    #[must_use]
    pub fn data_base(&self) -> u64 {
        self.data_base
    }

    /// The entry-point address.
    #[must_use]
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Looks up a label's address.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Iterates over all symbols in name order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.symbols.iter().map(|(name, &addr)| Symbol {
            name: name.clone(),
            addr,
        })
    }

    /// The instruction at `pc`, if `pc` lies within the text segment and
    /// is instruction-aligned.
    #[must_use]
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        if pc < self.text_base || !(pc - self.text_base).is_multiple_of(INST_BYTES) {
            return None;
        }
        self.text.get(((pc - self.text_base) / INST_BYTES) as usize)
    }

    /// The address of the `index`-th instruction.
    #[must_use]
    pub fn addr_of(&self, index: usize) -> u64 {
        self.text_base + index as u64 * INST_BYTES
    }

    /// Heap bytes of the image: its text, its data and its symbols'
    /// names and addresses (the symbol map's node overhead aside).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.text.len() * std::mem::size_of::<Inst>()
            + self.data.len()
            + self.symbols.keys().map(|k| k.len() + 8).sum::<usize>()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program: {} insts at {:#x}, {} data bytes at {:#x}, entry {:#x}",
            self.text.len(),
            self.text_base,
            self.data.len(),
            self.data_base,
            self.entry
        )
    }
}

/// Incremental builder for [`Program`] images.
///
/// Useful for tests and generated workloads that construct instruction
/// sequences programmatically instead of via assembly source.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    text: Vec<Inst>,
    data: Vec<u8>,
    symbols: BTreeMap<String, u64>,
    entry: Option<u64>,
}

impl ProgramBuilder {
    /// Creates an empty builder with the default segment layout.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one instruction; returns the builder for chaining.
    #[must_use]
    pub fn inst(mut self, inst: Inst) -> Self {
        self.text.push(inst);
        self
    }

    /// Appends many instructions.
    #[must_use]
    pub fn insts<I: IntoIterator<Item = Inst>>(mut self, insts: I) -> Self {
        self.text.extend(insts);
        self
    }

    /// Defines a label at the current end of text.
    #[must_use]
    pub fn label(mut self, name: &str) -> Self {
        let addr = TEXT_BASE + self.text.len() as u64 * INST_BYTES;
        self.symbols.insert(name.to_owned(), addr);
        self
    }

    /// The address the next appended instruction will receive.
    #[must_use]
    pub fn here(&self) -> u64 {
        TEXT_BASE + self.text.len() as u64 * INST_BYTES
    }

    /// Appends raw bytes to the data segment, returning their address.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = DATA_BASE + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Appends 64-bit little-endian words to the data segment,
    /// returning their base address.
    pub fn data_words(&mut self, words: &[u64]) -> u64 {
        let addr = DATA_BASE + self.data.len() as u64;
        for w in words {
            self.data.extend_from_slice(&w.to_le_bytes());
        }
        addr
    }

    /// Reserves `n` zeroed bytes in the data segment, returning their
    /// base address.
    pub fn data_space(&mut self, n: usize) -> u64 {
        let addr = DATA_BASE + self.data.len() as u64;
        self.data.resize(self.data.len() + n, 0);
        addr
    }

    /// Overrides the entry point (defaults to the first instruction).
    #[must_use]
    pub fn entry(mut self, addr: u64) -> Self {
        self.entry = Some(addr);
        self
    }

    /// Finalizes the image.
    #[must_use]
    pub fn build(self) -> Program {
        Program {
            entry: self.entry.unwrap_or(TEXT_BASE),
            text: self.text,
            text_base: TEXT_BASE,
            data: self.data,
            data_base: DATA_BASE,
            symbols: self.symbols,
        }
    }
}

pub(crate) fn program_from_parts(
    text: Vec<Inst>,
    data: Vec<u8>,
    symbols: BTreeMap<String, u64>,
    entry: u64,
) -> Program {
    Program {
        text,
        text_base: TEXT_BASE,
        data,
        data_base: DATA_BASE,
        entry,
        symbols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;
    use crate::reg::IntReg;

    #[test]
    fn builder_lays_out_text() {
        let p = ProgramBuilder::new()
            .label("main")
            .inst(Inst::li(IntReg::new(1), 1))
            .label("next")
            .inst(Inst::halt())
            .build();
        assert_eq!(p.symbol("main"), Some(TEXT_BASE));
        assert_eq!(p.symbol("next"), Some(TEXT_BASE + INST_BYTES));
        assert_eq!(p.entry(), TEXT_BASE);
        assert_eq!(p.text_end(), TEXT_BASE + 2 * INST_BYTES);
    }

    #[test]
    fn fetch_respects_bounds_and_alignment() {
        let p = ProgramBuilder::new().inst(Inst::halt()).build();
        assert!(p.fetch(TEXT_BASE).is_some());
        assert!(p.fetch(TEXT_BASE + 4).is_none());
        assert!(p.fetch(TEXT_BASE + INST_BYTES).is_none());
        assert!(p.fetch(0).is_none());
    }

    #[test]
    fn data_allocation_is_sequential() {
        let mut b = ProgramBuilder::new();
        let a0 = b.data_words(&[1, 2]);
        let a1 = b.data_space(3);
        let a2 = b.data_bytes(&[9]);
        assert_eq!(a0, DATA_BASE);
        assert_eq!(a1, DATA_BASE + 16);
        assert_eq!(a2, DATA_BASE + 19);
        let p = b.inst(Inst::halt()).build();
        assert_eq!(p.data().len(), 20);
        assert_eq!(p.data()[0], 1);
        assert_eq!(p.data()[16..19], [0, 0, 0]);
    }

    #[test]
    fn symbols_iterate_in_name_order() {
        let p = ProgramBuilder::new()
            .label("zeta")
            .inst(Inst::NOP)
            .label("alpha")
            .inst(Inst::halt())
            .build();
        let names: Vec<String> = p.symbols().map(|s| s.name).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn addr_of_matches_fetch() {
        let p = ProgramBuilder::new()
            .inst(Inst::NOP)
            .inst(Inst::rri(Opcode::Addi, IntReg::new(1), IntReg::new(1), 1))
            .build();
        let a = p.addr_of(1);
        assert_eq!(p.fetch(a).unwrap().op, Opcode::Addi);
    }
}
