//! Two-pass assembler for redsim assembly source.
//!
//! # Syntax
//!
//! * Comments run from `#` or `;` to end of line.
//! * A label is `name:`, optionally followed by a statement on the same
//!   line.
//! * Directives: `.text`, `.data`, `.word w…` (64-bit), `.byte b…`,
//!   `.double d…`, `.space n`, `.align n`, `.asciiz "s"`.
//! * Instruction operands are comma-separated; memory operands are
//!   written `offset(base)`, e.g. `lw a0, 8(sp)`.
//! * Integer registers accept both `rN` and ABI names; fp registers are
//!   `fN`.
//! * Branch and jump targets may be labels or absolute addresses; the
//!   assembler converts them to PC-relative offsets where the encoding
//!   requires it.
//!
//! # Pseudo-instructions
//!
//! `mv`, `neg`, `not`, `la`, `b`, `beqz`, `bnez`, `bltz`, `bgez`, `bgtz`,
//! `blez`, `ble`, `bgt`, `call`, `ret`, `jal label` (link register
//! implied), and `fmv.d` are accepted and expand to exactly one real
//! instruction each.
//!
//! # Examples
//!
//! ```
//! use redsim_isa::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble(
//!     r#"
//!         .data
//!     vec: .word 1, 2, 3, 4
//!         .text
//!     main:
//!         la   t0, vec
//!         ld   a0, 8(t0)
//!         halt
//!     "#,
//! )?;
//! assert_eq!(p.symbol("vec"), Some(p.data_base()));
//! # Ok(())
//! # }
//! ```

mod operands;

use std::collections::BTreeMap;

use crate::encode::INST_BYTES;
use crate::error::AsmError;
use crate::inst::Inst;
use crate::program::{program_from_parts, Program, DATA_BASE, TEXT_BASE};

use operands::{parse_statement, split_statement, Cursor};

/// Assembles source text into a linked [`Program`].
///
/// The entry point is the `main` label if defined, otherwise the first
/// text address.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending source line for unknown
/// mnemonics, malformed operands, duplicate or undefined labels, and
/// out-of-range immediates.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let lines = preprocess(source);

    // Pass 1: assign addresses to labels.
    let mut symbols: BTreeMap<String, u64> = BTreeMap::new();
    let mut text_len: u64 = 0;
    let mut data_len: u64 = 0;
    let mut seg = Segment::Text;
    for line in &lines {
        for label in &line.labels {
            let addr = match seg {
                Segment::Text => TEXT_BASE + text_len * INST_BYTES,
                Segment::Data => DATA_BASE + data_len,
            };
            if symbols.insert(label.clone(), addr).is_some() {
                return Err(AsmError::new(
                    line.num,
                    format!("duplicate label `{label}`"),
                ));
            }
        }
        if let Some(stmt) = &line.stmt {
            match classify(stmt) {
                Stmt::Directive(d) => {
                    apply_directive_size(d, stmt, line.num, &mut seg, &mut data_len)?;
                }
                Stmt::Instruction => {
                    if seg != Segment::Text {
                        return Err(AsmError::new(
                            line.num,
                            "instruction outside the .text segment",
                        ));
                    }
                    text_len += 1;
                }
            }
        }
    }

    // Pass 2: emit.
    let mut text: Vec<Inst> = Vec::with_capacity(text_len as usize);
    let mut data: Vec<u8> = Vec::with_capacity(data_len as usize);
    seg = Segment::Text;
    for line in &lines {
        let Some(stmt) = &line.stmt else { continue };
        match classify(stmt) {
            Stmt::Directive(d) => {
                emit_directive(d, stmt, line.num, &mut seg, &mut data, &symbols)?;
            }
            Stmt::Instruction => {
                let pc = TEXT_BASE + text.len() as u64 * INST_BYTES;
                let (mnemonic, rest) = split_statement(stmt);
                let mut cur = Cursor::new(rest, line.num, &symbols);
                let inst = parse_statement(mnemonic, &mut cur, pc)?;
                cur.expect_end()?;
                text.push(inst);
            }
        }
    }

    let entry = symbols.get("main").copied().unwrap_or(TEXT_BASE);
    Ok(program_from_parts(text, data, symbols, entry))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Text,
    Data,
}

#[derive(Debug)]
struct Line {
    num: u32,
    labels: Vec<String>,
    stmt: Option<String>,
}

enum Stmt<'a> {
    Directive(&'a str),
    Instruction,
}

fn classify(stmt: &str) -> Stmt<'_> {
    if stmt.starts_with('.') {
        let end = stmt.find(char::is_whitespace).unwrap_or(stmt.len());
        Stmt::Directive(&stmt[..end])
    } else {
        Stmt::Instruction
    }
}

/// Strips comments, splits out labels, and keeps non-empty statements.
fn preprocess(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let num = i as u32 + 1;
        let mut text = raw;
        // Strings may contain '#'/';'; cut comments only outside quotes.
        let mut in_str = false;
        for (pos, ch) in raw.char_indices() {
            match ch {
                '"' => in_str = !in_str,
                '#' | ';' if !in_str => {
                    text = &raw[..pos];
                    break;
                }
                _ => {}
            }
        }
        let mut rest = text.trim();
        let mut labels = Vec::new();
        while let Some(colon) = rest.find(':') {
            let candidate = rest[..colon].trim();
            if candidate.is_empty()
                || !candidate
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                || candidate.starts_with('.')
                || candidate.starts_with(|c: char| c.is_ascii_digit())
            {
                break;
            }
            labels.push(candidate.to_owned());
            rest = rest[colon + 1..].trim_start();
        }
        let stmt = (!rest.is_empty()).then(|| rest.to_owned());
        if !labels.is_empty() || stmt.is_some() {
            out.push(Line { num, labels, stmt });
        }
    }
    out
}

fn directive_args(stmt: &str, d: &str) -> String {
    stmt[d.len()..].trim().to_owned()
}

/// The largest data segment [`assemble`] accepts, in bytes. Pass 1
/// refuses a `.space`, `.align` or any other directive that would grow
/// the segment past it, before pass 2 allocates anything. The largest
/// in-tree segment (mcf at its default scale) is 192 KiB.
pub const MAX_DATA_BYTES: u64 = 64 << 20;

/// Pass-1 sizing for data directives.
fn apply_directive_size(
    d: &str,
    stmt: &str,
    num: u32,
    seg: &mut Segment,
    data_len: &mut u64,
) -> Result<(), AsmError> {
    let args = directive_args(stmt, d);
    let items = || args.split(',').filter(|s| !s.trim().is_empty()).count() as u64;
    let len = *data_len;
    let grown = match d {
        ".text" => {
            *seg = Segment::Text;
            return Ok(());
        }
        ".data" => {
            *seg = Segment::Data;
            return Ok(());
        }
        _ if *seg != Segment::Data => {
            return Err(AsmError::new(num, format!("{d} outside the .data segment")));
        }
        ".word" | ".double" => len.checked_add(8 * items()),
        ".byte" => len.checked_add(items()),
        ".space" => {
            let n: u64 = args
                .parse()
                .map_err(|_| AsmError::new(num, format!("bad .space size `{args}`")))?;
            len.checked_add(n)
        }
        ".align" => {
            let a: u64 = args
                .parse()
                .map_err(|_| AsmError::new(num, format!("bad .align amount `{args}`")))?;
            if a == 0 || !a.is_power_of_two() {
                return Err(AsmError::new(num, ".align requires a power of two"));
            }
            len.checked_next_multiple_of(a)
        }
        ".asciiz" => len.checked_add(parse_string_literal(&args, num)?.len() as u64 + 1),
        _ => return Err(AsmError::new(num, format!("unknown directive `{d}`"))),
    };
    *data_len = grown.filter(|&l| l <= MAX_DATA_BYTES).ok_or_else(|| {
        AsmError::new(
            num,
            format!("{d} grows the data segment past its {MAX_DATA_BYTES}-byte cap"),
        )
    })?;
    Ok(())
}

/// Pass-2 emission for data directives.
fn emit_directive(
    d: &str,
    stmt: &str,
    num: u32,
    seg: &mut Segment,
    data: &mut Vec<u8>,
    symbols: &BTreeMap<String, u64>,
) -> Result<(), AsmError> {
    let args = directive_args(stmt, d);
    match d {
        ".text" => *seg = Segment::Text,
        ".data" => *seg = Segment::Data,
        ".word" => {
            for item in args.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let v = if let Some(&addr) = symbols.get(item) {
                    addr as i64
                } else {
                    operands::parse_int(item)
                        .ok_or_else(|| AsmError::new(num, format!("bad word `{item}`")))?
                };
                data.extend_from_slice(&v.to_le_bytes());
            }
        }
        ".double" => {
            for item in args.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let v: f64 = item
                    .parse()
                    .map_err(|_| AsmError::new(num, format!("bad double `{item}`")))?;
                data.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        ".byte" => {
            for item in args.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let v = operands::parse_int(item)
                    .ok_or_else(|| AsmError::new(num, format!("bad byte `{item}`")))?;
                if !(-128..=255).contains(&v) {
                    return Err(AsmError::new(num, format!("byte `{item}` out of range")));
                }
                data.push(v as u8);
            }
        }
        ".space" => {
            let n: usize = args
                .parse()
                .map_err(|_| AsmError::new(num, format!("bad .space size `{args}`")))?;
            data.resize(data.len() + n, 0);
        }
        ".align" => {
            let a: usize = args
                .parse()
                .map_err(|_| AsmError::new(num, format!("bad .align amount `{args}`")))?;
            let target = data.len().div_ceil(a) * a;
            data.resize(target, 0);
        }
        ".asciiz" => {
            let s = parse_string_literal(&args, num)?;
            data.extend_from_slice(s.as_bytes());
            data.push(0);
        }
        _ => return Err(AsmError::new(num, format!("unknown directive `{d}`"))),
    }
    Ok(())
}

fn parse_string_literal(args: &str, num: u32) -> Result<String, AsmError> {
    let inner = args
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| AsmError::new(num, "expected a quoted string"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('0') => out.push('\0'),
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                other => {
                    return Err(AsmError::new(
                        num,
                        format!("unknown escape `\\{}`", other.unwrap_or(' ')),
                    ))
                }
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests;
