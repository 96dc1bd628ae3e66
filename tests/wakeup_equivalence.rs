//! Generative wakeup equivalence: the bitset ready-set against a naive
//! per-entry scan.
//!
//! The event-driven scheduler keeps one [`ReadySet`] bit per ring slot
//! and collects issue candidates by walking whole words; the original
//! implementation filtered every live RUU entry each cycle. The two
//! must agree exactly — same ready-set, same (oldest-first) order — or
//! issue arbitration silently diverges. These tests pin that property
//! at two levels:
//!
//! 1. Directly: random ring states (marked bits in and out of the live
//!    window, wrapped and word-straddling windows) are walked through
//!    [`ReadySet::append_ring`]/[`ReadySet::append_union_ring`] and
//!    compared against a literal slot-by-slot scan.
//! 2. End to end: random wakeup-heavy programs (long-latency producers
//!    with wide consumer fan-out, dependence chains, issue-saturating
//!    bursts) run in all five execution modes under the debug-build
//!    scheduler oracle, which compares every cycle's issue candidates
//!    with the naive per-entry scan (`Ruu::scan`) and panics
//!    on the first cycle they differ in membership or order.
//!
//! A failing case replays exactly under `cargo test` (fixed-seed
//! [`redsim_util::Rng`]).

use redsim::core::sched::ReadySet;
use redsim::core::{ExecMode, MachineConfig, SimStats, Simulator};
use redsim::isa::{FpReg, Inst, IntReg, Opcode, Program, ProgramBuilder};
use redsim_util::Rng;

// ---------------------------------------------------------------------
// Level 1: the bitset walk against a literal ring scan.
// ---------------------------------------------------------------------

/// The naive reference: visit every window slot in ring order from the
/// base and report the marked ones' sequence numbers.
fn naive_ring_scan(marked: &[bool], base_slot: usize, len: usize, base_seq: u64) -> Vec<u64> {
    let mask = marked.len() - 1;
    (0..len as u64)
        .filter(|&off| marked[(base_slot + off as usize) & mask])
        .map(|off| base_seq + off)
        .collect()
}

/// One random ring state: a `ReadySet` and its boolean mirror.
fn random_set(rng: &mut Rng, slots: usize, density: f64) -> (ReadySet, Vec<bool>) {
    let mut set = ReadySet::new(slots);
    let mut marked = vec![false; slots];
    for (slot, mark) in marked.iter_mut().enumerate() {
        if rng.chance(density) {
            set.insert(slot);
            *mark = true;
        }
    }
    // Exercise idempotent re-insert and remove on a few slots.
    for _ in 0..slots / 8 {
        let slot = rng.index(slots);
        if rng.flip() {
            set.insert(slot);
            marked[slot] = true;
        } else {
            set.remove(slot);
            marked[slot] = false;
        }
    }
    (set, marked)
}

/// A window whose base seq is congruent to its base slot, as the RUU
/// ring guarantees (`slot = seq & mask`).
fn random_window(rng: &mut Rng, slots: usize) -> (usize, usize, u64) {
    let base_slot = rng.index(slots);
    let len = rng.index(slots + 1);
    let base_seq = rng.range_u64(0, 1 << 20) * slots as u64 + base_slot as u64;
    (base_slot, len, base_seq)
}

#[test]
fn bitset_walk_matches_naive_scan() {
    let mut rng = Rng::new(0xB17_0001);
    for round in 0..400u32 {
        let slots = 64 << rng.index(4); // 64..=512
        let density = *rng.pick(&[0.02, 0.2, 0.5, 0.9]);
        let (set, marked) = random_set(&mut rng, slots, density);
        let (base_slot, len, base_seq) = random_window(&mut rng, slots);
        let mut walked = Vec::new();
        set.append_ring(base_slot, len, base_seq, &mut walked);
        let naive = naive_ring_scan(&marked, base_slot, len, base_seq);
        assert_eq!(
            walked, naive,
            "round {round}: slots {slots} window [{base_slot}; {len}) seq {base_seq}"
        );
        // Order is ascending seq (oldest first) by construction of the
        // naive scan; pin it independently of the reference.
        assert!(walked.windows(2).all(|w| w[0] < w[1]), "round {round}");
    }
}

#[test]
fn union_walk_matches_naive_two_stream_scan() {
    // The dual-stream modes select over primary ∪ duplicate ready bits
    // in one pass; the union walk must equal marking either stream.
    let mut rng = Rng::new(0xB17_0002);
    for round in 0..200u32 {
        let slots = 64 << rng.index(4);
        let (a, marked_a) = random_set(&mut rng, slots, 0.3);
        let (b, marked_b) = random_set(&mut rng, slots, 0.3);
        let (base_slot, len, base_seq) = random_window(&mut rng, slots);
        let mut walked = Vec::new();
        ReadySet::append_union_ring(&a, &b, base_slot, len, base_seq, &mut walked);
        let either: Vec<bool> = marked_a
            .iter()
            .zip(&marked_b)
            .map(|(&x, &y)| x || y)
            .collect();
        let naive = naive_ring_scan(&either, base_slot, len, base_seq);
        assert_eq!(
            walked, naive,
            "round {round}: slots {slots} window [{base_slot}; {len}) seq {base_seq}"
        );
    }
}

#[test]
fn stale_bits_outside_the_window_never_surface() {
    // An entry's bit is cleared when it issues or retires, but the walk
    // must not depend on that hygiene for slots the window has moved
    // past: everything outside [base, base+len) is masked off, even
    // when the boundary falls mid-word.
    let mut set = ReadySet::new(64);
    for slot in 0..64 {
        set.insert(slot); // worst case: every bit stale or live
    }
    for base_slot in [0usize, 1, 31, 32, 33, 63] {
        for len in [0usize, 1, 2, 31, 33, 64] {
            let base_seq = 640 + base_slot as u64;
            let mut walked = Vec::new();
            set.append_ring(base_slot, len, base_seq, &mut walked);
            let expect: Vec<u64> = (0..len as u64).map(|off| base_seq + off).collect();
            assert_eq!(walked, expect, "window [{base_slot}; {len})");
        }
    }
}

// ---------------------------------------------------------------------
// Level 2: wakeup-heavy random programs under both engines.
// ---------------------------------------------------------------------

/// Program steps weighted toward wakeup stress, unlike the uniform mix
/// in `engine_equivalence.rs`: long-latency producers whose completion
/// wakes a wide fan-out at once (multi-bit word updates), dependence
/// chains (one wakeup per cycle, always the oldest), and bursts of
/// independent single-cycle ops that saturate issue width so ready
/// bits persist across cycles and arbitration order matters.
#[derive(Debug, Clone)]
enum Gen {
    /// Unpipelined integer divide: a slow producer tracked as the
    /// current fan-out source.
    SlowInt(u8, u8),
    /// FP divide, the slow producer of the FP side.
    SlowFp(u8, u8, u8),
    /// Consumer of the most recent slow integer producer.
    Consume(u8, u8),
    /// FP consumer of the most recent slow FP producer.
    ConsumeFp(u8, u8),
    /// Chain link: the chain register feeds itself.
    Chain(u8),
    /// Independent single-cycle filler.
    Burst(u8, u8, u8),
    Load(u8, u16),
    Store(u8, u16),
    /// Forward branch skipping 1..=skip instructions.
    Branch(u8, u8, u8, u8),
}

const BURST_OPS: [Opcode; 4] = [Opcode::Add, Opcode::Xor, Opcode::Sll, Opcode::Sltu];
const BR_OPS: [Opcode; 4] = [Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bgeu];

/// Work registers: avoid zero/ra/sp so the harness scaffolding stays
/// intact.
fn reg(sel: u8) -> IntReg {
    IntReg::new(5 + sel % 20)
}

fn freg(sel: u8) -> FpReg {
    FpReg::new(1 + sel % 8)
}

fn gen_step(rng: &mut Rng) -> Gen {
    match rng.index(12) {
        0 => Gen::SlowInt(rng.any_u8(), rng.any_u8()),
        1 => Gen::SlowFp(rng.any_u8(), rng.any_u8(), rng.any_u8()),
        2 | 3 => Gen::Consume(rng.any_u8(), rng.any_u8()),
        4 => Gen::ConsumeFp(rng.any_u8(), rng.any_u8()),
        5 | 6 => Gen::Chain(rng.any_u8()),
        7 | 8 => Gen::Burst(rng.any_u8(), rng.any_u8(), rng.any_u8()),
        9 => Gen::Load(rng.any_u8(), rng.next_u64() as u16),
        10 => Gen::Store(rng.any_u8(), rng.next_u64() as u16),
        _ => Gen::Branch(
            rng.any_u8(),
            rng.any_u8(),
            rng.any_u8(),
            rng.range_u64(1, 10) as u8,
        ),
    }
}

/// Generates and lowers one wakeup-heavy program of `lo..hi` steps.
fn gen_program(rng: &mut Rng, lo: u64, hi: u64) -> Program {
    let steps: Vec<Gen> = (0..rng.range_u64(lo, hi)).map(|_| gen_step(rng)).collect();
    let mut b = ProgramBuilder::new();
    let buf = b.data_space(2048);
    let base = IntReg::new(28); // t3 holds the data buffer
    b = b.inst(Inst::li(base, buf as i32));
    for i in 0..8u8 {
        b = b.inst(Inst::li(reg(i), i32::from(i) * 53 + 7));
        b = b.inst(Inst::cvt_int_to_fp(freg(i), reg(i)));
    }
    // The fan-out sources and the chain register, updated as lowering
    // walks the steps.
    let mut slow = reg(0);
    let mut slow_fp = freg(0);
    let chain = reg(1);
    for (idx, g) in steps.iter().enumerate() {
        let inst = match g {
            Gen::SlowInt(a, x) => {
                slow = reg(*a);
                Inst::rrr(Opcode::Div, slow, reg(*x), chain)
            }
            Gen::SlowFp(a, x, y) => {
                slow_fp = freg(*a);
                Inst::fff(Opcode::FdivD, slow_fp, freg(*x), freg(*y))
            }
            Gen::Consume(a, x) => Inst::rrr(Opcode::Add, reg(*a), slow, reg(*x)),
            Gen::ConsumeFp(a, x) => Inst::fff(Opcode::FaddD, freg(*a), slow_fp, freg(*x)),
            Gen::Chain(x) => Inst::rrr(Opcode::Xor, chain, chain, reg(*x)),
            Gen::Burst(o, a, x) => Inst::rrr(
                BURST_OPS[*o as usize % BURST_OPS.len()],
                reg(*a),
                reg(*x),
                reg(a.wrapping_add(*x)),
            ),
            Gen::Load(a, off) => {
                Inst::load_int(Opcode::Ld, reg(*a), base, i32::from(off % 2048 / 8 * 8))
            }
            Gen::Store(a, off) => {
                Inst::store_int(Opcode::Sd, reg(*a), base, i32::from(off % 2048 / 8 * 8))
            }
            Gen::Branch(o, a, x, skip) => {
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

/// Runs `program` once; the scheduler oracle checks every cycle.
fn checked_run(program: &Program, cfg: &MachineConfig, mode: ExecMode) -> SimStats {
    Simulator::new(cfg.clone(), mode)
        .run_program(program)
        .expect("run completes")
}

const ALL_MODES: [ExecMode; 5] = [
    ExecMode::Sie,
    ExecMode::Die,
    ExecMode::DieIrb,
    ExecMode::SieIrb,
    ExecMode::DieCluster,
];

#[test]
fn wakeup_heavy_programs_agree_in_every_mode() {
    let mut rng = Rng::new(0xB17_0003);
    let cfg = MachineConfig::tiny();
    for case in 0..12u64 {
        let program = gen_program(&mut rng, 30, 160);
        for mode in ALL_MODES {
            let s = checked_run(&program, &cfg, mode);
            assert!(s.committed_insts > 0, "case {case} {mode:?}");
        }
    }
}

#[test]
fn wakeup_heavy_programs_agree_at_paper_scale() {
    // Paper-scale windows hold many simultaneously-ready entries
    // across word boundaries — the regime where a wrong walk order or
    // a dropped union bit would actually reorder issue.
    let mut rng = Rng::new(0xB17_0004);
    let base = MachineConfig::paper_baseline();
    let big = MachineConfig::paper_baseline().with_double_ruu();
    for case in 0..3u64 {
        let program = gen_program(&mut rng, 60, 200);
        for (name, cfg) in [("paper", &base), ("2xruu", &big)] {
            for mode in ALL_MODES {
                let s = checked_run(&program, cfg, mode);
                assert!(s.committed_insts > 0, "case {case} {name} {mode:?}");
            }
        }
    }
}
