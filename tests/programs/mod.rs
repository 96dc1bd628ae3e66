//! The random-program generator shared by the generative suites.
//!
//! It emits straight-line code with *forward-only* branches, so every
//! program terminates within one pass over its text. Steps are drawn
//! from a caller's fixed-seed [`Rng`], so a failing case replays
//! exactly. Two flavours exist: [`MIXED`] draws eight step kinds
//! including FP arithmetic, [`INTEGER`] seven integer-only kinds. Each
//! suite uses one, so the other is dead code there.
#![allow(dead_code)]

use redsim::isa::{FpReg, Inst, IntReg, Opcode, Program, ProgramBuilder};
use redsim_util::Rng;

/// One step of the generator: an abstract instruction to lower.
#[derive(Debug, Clone)]
enum Gen {
    AluRrr(u8, u8, u8, u8),
    AluRri(u8, u8, u8, i16),
    Li(u8, i32),
    MulDiv(u8, u8, u8, u8),
    Fp(u8, u8, u8, u8),
    Load(u8, u16),
    Store(u8, u16),
    /// Forward branch skipping 1..=skip instructions.
    Branch(u8, u8, u8, u8),
}

/// The op tables and step kinds of one generator flavour.
pub struct Flavour {
    rrr: &'static [Opcode],
    rri: &'static [Opcode],
    /// Draws FP steps, and seeds the FP registers in the prologue.
    fp: bool,
}

/// Eight step kinds, FP included.
pub const MIXED: Flavour = Flavour {
    rrr: &[
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Slt,
        Opcode::Sltu,
    ],
    rri: &[
        Opcode::Addi,
        Opcode::Andi,
        Opcode::Ori,
        Opcode::Xori,
        Opcode::Slti,
    ],
    fp: true,
};

/// Seven integer-only step kinds.
pub const INTEGER: Flavour = Flavour {
    rrr: &[
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Slt,
    ],
    rri: &[Opcode::Addi, Opcode::Andi, Opcode::Ori, Opcode::Xori],
    fp: false,
};

const MD_OPS: [Opcode; 4] = [Opcode::Mul, Opcode::Mulh, Opcode::Div, Opcode::Rem];
const FP_OPS: [Opcode; 4] = [Opcode::FaddD, Opcode::FsubD, Opcode::FmulD, Opcode::FminD];
const BR_OPS: [Opcode; 4] = [Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bgeu];

/// Work registers: avoid zero/ra/sp so the harness scaffolding stays
/// intact.
fn reg(sel: u8) -> IntReg {
    IntReg::new(5 + sel % 20)
}

impl Flavour {
    fn step(&self, rng: &mut Rng) -> Gen {
        let kind = if self.fp {
            rng.index(8)
        } else {
            // The integer flavour's kinds 4.. are the mixed one's 5..
            match rng.index(7) {
                k @ 0..=3 => k,
                k => k + 1,
            }
        };
        match kind {
            0 => Gen::AluRrr(rng.any_u8(), rng.any_u8(), rng.any_u8(), rng.any_u8()),
            1 => Gen::AluRri(rng.any_u8(), rng.any_u8(), rng.any_u8(), rng.any_i16()),
            2 => Gen::Li(rng.any_u8(), rng.any_i32()),
            3 => Gen::MulDiv(rng.any_u8(), rng.any_u8(), rng.any_u8(), rng.any_u8()),
            4 => Gen::Fp(rng.any_u8(), rng.any_u8(), rng.any_u8(), rng.any_u8()),
            5 => Gen::Load(rng.any_u8(), rng.next_u64() as u16),
            6 => Gen::Store(rng.any_u8(), rng.next_u64() as u16),
            _ => Gen::Branch(
                rng.any_u8(),
                rng.any_u8(),
                rng.any_u8(),
                rng.range_u64(1, 12) as u8,
            ),
        }
    }

    /// Generates and lowers one random program of `lo..hi` abstract
    /// steps.
    pub fn program(&self, rng: &mut Rng, lo: u64, hi: u64) -> Program {
        let steps: Vec<Gen> = (0..rng.range_u64(lo, hi)).map(|_| self.step(rng)).collect();
        let mut b = ProgramBuilder::new();
        let buf = b.data_space(2048);
        let base = IntReg::new(28); // t3 holds the data buffer
        b = b.inst(Inst::li(base, buf as i32));
        for i in 0..8u8 {
            b = b.inst(Inst::li(reg(i), i32::from(i) * 77 - 100));
            if self.fp {
                b = b.inst(Inst::cvt_int_to_fp(FpReg::new(1 + i), reg(i)));
            }
        }
        for (idx, g) in steps.iter().enumerate() {
            let inst = match g {
                Gen::AluRrr(o, a, x, y) => Inst::rrr(
                    self.rrr[*o as usize % self.rrr.len()],
                    reg(*a),
                    reg(*x),
                    reg(*y),
                ),
                Gen::AluRri(o, a, x, i) => Inst::rri(
                    self.rri[*o as usize % self.rri.len()],
                    reg(*a),
                    reg(*x),
                    i32::from(*i),
                ),
                Gen::Li(a, i) => Inst::li(reg(*a), *i),
                Gen::MulDiv(o, a, x, y) => Inst::rrr(
                    MD_OPS[*o as usize % MD_OPS.len()],
                    reg(*a),
                    reg(*x),
                    reg(*y),
                ),
                Gen::Fp(o, a, x, y) => {
                    let f = |s: u8| FpReg::new(1 + s % 8);
                    Inst::fff(FP_OPS[*o as usize % FP_OPS.len()], f(*a), f(*x), f(*y))
                }
                Gen::Load(a, off) => {
                    Inst::load_int(Opcode::Ld, reg(*a), base, i32::from(off % 2048 / 8 * 8))
                }
                Gen::Store(a, off) => {
                    Inst::store_int(Opcode::Sd, reg(*a), base, i32::from(off % 2048 / 8 * 8))
                }
                Gen::Branch(o, a, x, skip) => {
                    // Forward-only: skip 1..=skip instructions, clamped
                    // to land at or before the halt.
                    let remaining = steps.len() - idx - 1;
                    let skip = (*skip as usize).min(remaining) as i32;
                    Inst::branch(
                        BR_OPS[*o as usize % BR_OPS.len()],
                        reg(*a),
                        reg(*x),
                        (skip + 1) * 8,
                    )
                }
            };
            b = b.inst(inst);
        }
        b.inst(Inst::halt()).build()
    }
}
