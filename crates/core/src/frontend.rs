//! Front-end prediction: direction predictor + BTB + RAS.

use redsim_isa::trace::DynInst;
use redsim_isa::{IntReg, Opcode};
use redsim_predictor::{Btb, Direction, ReturnAddressStack};

use crate::config::MachineConfig;

/// How the front end fares on one fetched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Fetch continues sequentially (non-control, or correctly
    /// predicted not-taken).
    Sequential,
    /// Correctly predicted taken with the right target: fetch redirects
    /// with no bubble (but ends the current fetch group).
    TakenPredicted,
    /// Direction right (or unconditional) but the target had to come
    /// from decode: a short front-end bubble.
    TakenBtbMiss,
    /// Mispredicted: fetch stalls until this instruction resolves, then
    /// pays the redirect penalty.
    Mispredict,
}

/// Is this instruction a call (pushes a return address)?
fn is_call(di: &DynInst) -> bool {
    match di.inst.op {
        Opcode::Jal => true,
        Opcode::Jalr => di.inst.rd == IntReg::RA.index() as u8,
        _ => false,
    }
}

/// Is this instruction a return (predicted via the RAS)?
fn is_return(di: &DynInst) -> bool {
    di.inst.op == Opcode::Jr && di.inst.rs1 == IntReg::RA.index() as u8 && di.inst.imm == 0
}

/// Front-end prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Conditional branches seen at fetch.
    pub cond_branches: u64,
    /// Conditional direction mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect jumps (including returns) seen.
    pub indirect_jumps: u64,
    /// Indirect target mispredictions.
    pub indirect_mispredicts: u64,
    /// Taken control instructions whose target missed the BTB.
    pub btb_miss_bubbles: u64,
    /// RAS predictions that were correct.
    pub ras_correct: u64,
}

/// The fetch-stage prediction machinery.
pub struct FrontEnd {
    dir: Direction,
    btb: Btb,
    ras: ReturnAddressStack,
    stats: FrontStats,
}

impl std::fmt::Debug for FrontEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontEnd")
            .field("stats", &self.stats)
            .finish()
    }
}

impl FrontEnd {
    /// Builds the front end described by `config`.
    #[must_use]
    pub fn new(config: &MachineConfig) -> Self {
        FrontEnd {
            dir: Direction::new(config.direction),
            btb: Btb::new(config.btb),
            ras: ReturnAddressStack::new(config.ras_depth),
            stats: FrontStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &FrontStats {
        &self.stats
    }

    /// Assesses one fetched instruction against the predictors,
    /// speculatively updating the RAS. The trace supplies the actual
    /// outcome; the returned [`FetchOutcome`] tells the fetch engine how
    /// the front end would have steered.
    pub fn assess(&mut self, di: &DynInst) -> FetchOutcome {
        let Some(ctrl) = di.control else {
            return FetchOutcome::Sequential;
        };
        let op = di.inst.op;

        if op.is_branch() {
            self.stats.cond_branches += 1;
            let predicted_taken = self.dir.predict(di.pc);
            if predicted_taken != ctrl.taken {
                self.stats.cond_mispredicts += 1;
                return FetchOutcome::Mispredict;
            }
            if !ctrl.taken {
                return FetchOutcome::Sequential;
            }
            return match self.btb.lookup(di.pc) {
                Some(t) if t == ctrl.target => FetchOutcome::TakenPredicted,
                _ => {
                    // Direct branch: the right target is recoverable at
                    // decode from the instruction's immediate.
                    self.stats.btb_miss_bubbles += 1;
                    FetchOutcome::TakenBtbMiss
                }
            };
        }

        // Unconditional control flow.
        if is_call(di) {
            self.ras.push(di.fallthrough_pc());
        }
        match op {
            Opcode::J | Opcode::Jal => {
                // Direct target, decodable; BTB hit avoids even the
                // decode bubble.
                match self.btb.lookup(di.pc) {
                    Some(t) if t == ctrl.target => FetchOutcome::TakenPredicted,
                    _ => {
                        self.stats.btb_miss_bubbles += 1;
                        FetchOutcome::TakenBtbMiss
                    }
                }
            }
            Opcode::Jr | Opcode::Jalr => {
                self.stats.indirect_jumps += 1;
                if is_return(di) {
                    if self.ras.pop() == Some(ctrl.target) {
                        self.stats.ras_correct += 1;
                        return FetchOutcome::TakenPredicted;
                    }
                    self.stats.indirect_mispredicts += 1;
                    return FetchOutcome::Mispredict;
                }
                match self.btb.lookup(di.pc) {
                    Some(t) if t == ctrl.target => FetchOutcome::TakenPredicted,
                    _ => {
                        self.stats.indirect_mispredicts += 1;
                        FetchOutcome::Mispredict
                    }
                }
            }
            _ => FetchOutcome::Sequential,
        }
    }

    /// Trains the predictors on a resolved control instruction. Called
    /// when the first copy of the instruction resolves in the back end.
    pub fn train(&mut self, di: &DynInst) {
        let Some(ctrl) = di.control else { return };
        if di.inst.op.is_branch() {
            self.dir.update(di.pc, ctrl.taken);
        }
        if ctrl.taken {
            self.btb.update(di.pc, ctrl.target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_isa::trace::ControlOutcome;
    use redsim_isa::Inst;

    fn branch_di(pc: u64, taken: bool, target: u64) -> DynInst {
        DynInst {
            seq: 0,
            pc,
            inst: Inst::branch(
                Opcode::Bne,
                IntReg::new(1),
                IntReg::ZERO,
                (target as i64 - pc as i64) as i32,
            ),
            src1: 1,
            src2: 0,
            result: None,
            ea: None,
            control: Some(ControlOutcome { taken, target }),
            next_pc: if taken { target } else { pc + 8 },
        }
    }

    fn jump_di(op: Opcode, pc: u64, target: u64, rd: u8, rs1: u8) -> DynInst {
        DynInst {
            seq: 0,
            pc,
            inst: Inst {
                op,
                rd,
                rs1,
                rs2: 0,
                imm: 0,
            },
            src1: 0,
            src2: 0,
            result: None,
            ea: None,
            control: Some(ControlOutcome {
                taken: true,
                target,
            }),
            next_pc: target,
        }
    }

    fn fe() -> FrontEnd {
        FrontEnd::new(&MachineConfig::tiny())
    }

    #[test]
    fn untrained_loop_branch_mispredicts_then_learns() {
        let mut f = fe();
        let di = branch_di(0x1000, true, 0x900);
        // Bimodal initializes weakly-not-taken: first sighting of a
        // taken branch mispredicts.
        assert_eq!(f.assess(&di), FetchOutcome::Mispredict);
        f.train(&di);
        f.train(&di);
        // Direction now predicted taken and the BTB knows the target.
        assert_eq!(f.assess(&di), FetchOutcome::TakenPredicted);
        assert_eq!(f.stats().cond_mispredicts, 1);
        assert_eq!(f.stats().cond_branches, 2);
    }

    #[test]
    fn correct_not_taken_is_sequential() {
        let mut f = fe();
        let di = branch_di(0x1000, false, 0x900);
        assert_eq!(f.assess(&di), FetchOutcome::Sequential);
    }

    #[test]
    fn taken_with_cold_btb_is_a_bubble_not_a_mispredict() {
        let mut f = fe();
        let di = branch_di(0x1000, true, 0x900);
        f.train(&di); // train direction only enough to predict taken
        f.train(&di);
        // Make the BTB forget by using a different pc trained elsewhere:
        // fresh front end, direction trained, BTB cold for this pc.
        let mut f2 = fe();
        let d2 = branch_di(0x2000, true, 0x900);
        f2.dir.update(0x2000, true);
        f2.dir.update(0x2000, true);
        assert_eq!(f2.assess(&d2), FetchOutcome::TakenBtbMiss);
        assert_eq!(f2.stats().btb_miss_bubbles, 1);
        let _ = f;
    }

    #[test]
    fn direct_jump_needs_only_btb() {
        let mut f = fe();
        let j = jump_di(Opcode::J, 0x1000, 0x3000, 0, 0);
        assert_eq!(f.assess(&j), FetchOutcome::TakenBtbMiss);
        f.train(&j);
        assert_eq!(f.assess(&j), FetchOutcome::TakenPredicted);
    }

    #[test]
    fn call_return_pair_uses_ras() {
        let mut f = fe();
        let call = jump_di(Opcode::Jal, 0x1000, 0x5000, IntReg::RA.index() as u8, 0);
        f.train(&call);
        assert_eq!(f.assess(&call), FetchOutcome::TakenPredicted);
        // Return to the call's fall-through.
        let ret = jump_di(Opcode::Jr, 0x5000, 0x1008, 0, IntReg::RA.index() as u8);
        assert_eq!(f.assess(&ret), FetchOutcome::TakenPredicted);
        assert_eq!(f.stats().ras_correct, 1);
        // A second return with an empty RAS mispredicts.
        let ret2 = jump_di(Opcode::Jr, 0x5000, 0x9008, 0, IntReg::RA.index() as u8);
        assert_eq!(f.assess(&ret2), FetchOutcome::Mispredict);
        assert_eq!(f.stats().indirect_mispredicts, 1);
    }

    #[test]
    fn indirect_jump_wrong_btb_target_mispredicts() {
        let mut f = fe();
        let j1 = jump_di(Opcode::Jr, 0x1000, 0x3000, 0, 5);
        f.train(&j1);
        // Same pc, different runtime target (e.g. a jump table).
        let j2 = jump_di(Opcode::Jr, 0x1000, 0x4000, 0, 5);
        assert_eq!(f.assess(&j2), FetchOutcome::Mispredict);
        // After retraining, the new target predicts.
        f.train(&j2);
        assert_eq!(f.assess(&j2), FetchOutcome::TakenPredicted);
    }

    #[test]
    fn non_control_is_sequential_and_untracked() {
        let mut f = fe();
        let di = DynInst {
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
        assert_eq!(f.assess(&di), FetchOutcome::Sequential);
        assert_eq!(f.stats().cond_branches, 0);
    }
}
