#![warn(missing_docs)]

//! # redsim-workloads
//!
//! Twelve kernel programs, written in the redsim ISA, standing in for
//! the SPEC CPU2000 applications of the DIE-IRB paper's evaluation.
//!
//! SPEC sources and a cross-compiler are unavailable in this
//! reproduction, so each kernel is a hand-written program that models
//! the *qualitative* behaviour the paper's experiments depend on:
//! instruction mix, branch behaviour, memory locality, dependence-chain
//! ILP and — critically for an instruction-reuse study — organic value
//! locality. Nothing about reuse is dialled in: IRB hit rates emerge
//! from the operand values the kernels actually produce.
//!
//! | Workload | Models | Character |
//! |----------|--------|-----------|
//! | [`Workload::Gzip`]    | 164.gzip    | LZ77 hashing/matching, int |
//! | [`Workload::Vpr`]     | 175.vpr     | annealing placement swaps |
//! | [`Workload::Gcc`]     | 176.gcc     | BST + hash-table walks, branchy |
//! | [`Workload::Mcf`]     | 181.mcf     | pointer chasing, memory bound |
//! | [`Workload::Parser`]  | 197.parser  | dictionary string matching |
//! | [`Workload::Vortex`]  | 255.vortex  | record-store transactions |
//! | [`Workload::Bzip2`]   | 256.bzip2   | block sort + move-to-front |
//! | [`Workload::Twolf`]   | 300.twolf   | annealing with quadratic cost |
//! | [`Workload::Wupwise`] | 168.wupwise | dense complex mat-vec, fp |
//! | [`Workload::Art`]     | 179.art     | neural-net F1 layer, streaming fp |
//! | [`Workload::Equake`]  | 183.equake  | sparse mat-vec, indexed fp |
//! | [`Workload::Ammp`]    | 188.ammp    | pairwise forces, fdiv/fsqrt |
//!
//! Every kernel ends by `puti`-ing a checksum, so functional correctness
//! is checkable against the emulator, and every kernel is fully
//! deterministic given [`Params::seed`].
//!
//! # Examples
//!
//! ```
//! use redsim_isa::emu::Emulator;
//! use redsim_workloads::Workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = Workload::Mcf;
//! let program = w.program(w.tiny_params())?;
//! let mut emu = Emulator::new(&program);
//! emu.run(10_000_000)?;
//! assert!(!emu.output_ints().is_empty(), "kernels emit a checksum");
//! # Ok(())
//! # }
//! ```

mod gen;
mod kernels;
pub mod mix;

use redsim_isa::asm::assemble;
use redsim_isa::trace::Trace;
use redsim_isa::{AsmError, Program};

/// A workload instance that failed to materialize. Either outcome is a
/// bug in a kernel generator (the suite assembles and halts every
/// kernel), but harnesses must surface it as a structured per-job error
/// instead of tearing down a whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The generated kernel source failed to assemble.
    Build {
        /// The workload's short name.
        workload: &'static str,
        /// The assembler's message.
        message: String,
    },
    /// Functional execution failed (bad memory access, budget
    /// exhausted before `halt`).
    Run {
        /// The workload's short name.
        workload: &'static str,
        /// The emulator's message.
        message: String,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Build { workload, message } => {
                write!(f, "workload {workload} failed to assemble: {message}")
            }
            WorkloadError::Run { workload, message } => {
                write!(f, "workload {workload} failed to execute: {message}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Problem-size and seeding knobs for a workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Params {
    /// Problem-size multiplier; each workload maps it onto its own
    /// natural dimensions (buffer bytes, node counts, trip counts).
    pub scale: u32,
    /// Seed for deterministic input generation.
    pub seed: u64,
}

impl Params {
    /// Creates parameters.
    #[must_use]
    pub fn new(scale: u32, seed: u64) -> Self {
        Params { scale, seed }
    }
}

/// The twelve SPEC CPU2000 stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 164.gzip — LZ77-style compression.
    Gzip,
    /// 175.vpr — simulated-annealing placement.
    Vpr,
    /// 176.gcc — tree/hash symbol processing.
    Gcc,
    /// 181.mcf — network-simplex pointer chasing.
    Mcf,
    /// 197.parser — dictionary string matching.
    Parser,
    /// 255.vortex — object/record store.
    Vortex,
    /// 256.bzip2 — block sorting compression.
    Bzip2,
    /// 300.twolf — place-and-route annealing.
    Twolf,
    /// 168.wupwise — dense complex linear algebra.
    Wupwise,
    /// 179.art — adaptive-resonance neural net.
    Art,
    /// 183.equake — sparse matrix-vector earthquake model.
    Equake,
    /// 188.ammp — molecular dynamics.
    Ammp,
}

impl Workload {
    /// All workloads, integer suite first, in the order reports use.
    pub const ALL: [Workload; 12] = [
        Workload::Gzip,
        Workload::Vpr,
        Workload::Gcc,
        Workload::Mcf,
        Workload::Parser,
        Workload::Vortex,
        Workload::Bzip2,
        Workload::Twolf,
        Workload::Wupwise,
        Workload::Art,
        Workload::Equake,
        Workload::Ammp,
    ];

    /// The SPEC-style short name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gzip => "gzip",
            Workload::Vpr => "vpr",
            Workload::Gcc => "gcc",
            Workload::Mcf => "mcf",
            Workload::Parser => "parser",
            Workload::Vortex => "vortex",
            Workload::Bzip2 => "bzip2",
            Workload::Twolf => "twolf",
            Workload::Wupwise => "wupwise",
            Workload::Art => "art",
            Workload::Equake => "equake",
            Workload::Ammp => "ammp",
        }
    }

    /// Looks a workload up by its short name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.iter().copied().find(|w| w.name() == name)
    }

    /// `true` for the floating-point-suite stand-ins.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            Workload::Wupwise | Workload::Art | Workload::Equake | Workload::Ammp
        )
    }

    /// Generates the kernel's assembly source for the given parameters.
    #[must_use]
    pub fn source(self, params: Params) -> String {
        match self {
            Workload::Gzip => kernels::gzip(&params),
            Workload::Vpr => kernels::vpr(&params),
            Workload::Gcc => kernels::gcc(&params),
            Workload::Mcf => kernels::mcf(&params),
            Workload::Parser => kernels::parser(&params),
            Workload::Vortex => kernels::vortex(&params),
            Workload::Bzip2 => kernels::bzip2(&params),
            Workload::Twolf => kernels::twolf(&params),
            Workload::Wupwise => kernels::wupwise(&params),
            Workload::Art => kernels::art(&params),
            Workload::Equake => kernels::equake(&params),
            Workload::Ammp => kernels::ammp(&params),
        }
    }

    /// Assembles the kernel into a runnable [`Program`].
    ///
    /// # Errors
    ///
    /// Returns the assembler error if the generated source is invalid
    /// (a bug in this crate — the test suite assembles every kernel).
    pub fn program(self, params: Params) -> Result<Program, AsmError> {
        assemble(&self.source(params))
    }

    /// The instruction budget every harness, the service and the command
    /// line tools hand to [`Workload::trace`] and the functional emulator:
    /// a runaway backstop far above any kernel's dynamic length.
    pub const TRACE_BUDGET: u64 = 200_000_000;

    /// Materializes the kernel's committed-path trace: assembles the
    /// generated source and runs the functional emulator to `halt`
    /// within `budget` instructions once, counting what it commits. The
    /// [`Trace`] keeps the program and that count; a replay re-runs it.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] when assembly or functional execution fails —
    /// a structured error harnesses can attach to the affected jobs
    /// instead of panicking.
    pub fn trace(self, params: Params, budget: u64) -> Result<Trace, WorkloadError> {
        let program = self.program(params).map_err(|e| WorkloadError::Build {
            workload: self.name(),
            message: e.to_string(),
        })?;
        Trace::record(program, budget).map_err(|e| WorkloadError::Run {
            workload: self.name(),
            message: e.to_string(),
        })
    }

    /// A sub-second instance for unit tests (~tens of thousands of
    /// dynamic instructions).
    #[must_use]
    pub fn tiny_params(self) -> Params {
        Params::new(1, 0xC0FFEE)
    }

    /// The instance the figure-regeneration harness runs. Scales are
    /// balanced so every workload executes roughly 400–800 thousand
    /// dynamic instructions.
    #[must_use]
    pub fn default_params(self) -> Params {
        let scale = match self {
            Workload::Gzip => 12,
            Workload::Vpr => 7,
            Workload::Gcc => 6,
            Workload::Mcf => 4,
            Workload::Parser => 3,
            Workload::Vortex => 18,
            Workload::Bzip2 => 1,
            Workload::Twolf => 8,
            Workload::Wupwise => 2,
            Workload::Art => 1,
            Workload::Equake => 1,
            Workload::Ammp => 3,
        };
        Params::new(scale, 0xC0FFEE)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_isa::emu::Emulator;

    #[test]
    fn every_workload_assembles_at_tiny_scale() {
        for w in Workload::ALL {
            let r = w.program(w.tiny_params());
            assert!(r.is_ok(), "{w}: {:?}", r.err());
        }
    }

    #[test]
    fn every_workload_runs_to_halt_and_emits_a_checksum() {
        for w in Workload::ALL {
            let p = w.program(w.tiny_params()).expect("assemble");
            let mut emu = Emulator::new(&p);
            let n = emu
                .run(20_000_000)
                .unwrap_or_else(|e| panic!("{w} failed: {e}"));
            assert!(n > 1_000, "{w} too small: {n} instructions");
            assert!(!emu.output_ints().is_empty(), "{w} must emit a checksum");
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for w in [Workload::Gzip, Workload::Art, Workload::Mcf] {
            let p = w.program(w.tiny_params()).unwrap();
            let run = || {
                let mut e = Emulator::new(&p);
                e.run(20_000_000).unwrap();
                e.output_ints()
            };
            assert_eq!(run(), run(), "{w}");
        }
    }

    #[test]
    fn different_seeds_change_the_inputs() {
        let w = Workload::Gzip;
        let a = w.source(Params::new(1, 1));
        let b = w.source(Params::new(1, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn scale_grows_the_run() {
        let w = Workload::Vortex;
        let run_len = |scale| {
            let p = w.program(Params::new(scale, 7)).unwrap();
            let mut e = Emulator::new(&p);
            e.run(50_000_000).unwrap()
        };
        assert!(run_len(2) > run_len(1));
    }

    #[test]
    fn trace_reports_structured_errors() {
        let w = Workload::Gzip;
        let t = w.trace(w.tiny_params(), 20_000_000).expect("trace builds");
        assert!(!t.is_empty());
        let err = w.trace(w.tiny_params(), 10).expect_err("budget too small");
        assert!(
            matches!(
                err,
                WorkloadError::Run {
                    workload: "gzip",
                    ..
                }
            ),
            "unexpected error: {err:?}"
        );
        assert!(err.to_string().contains("gzip"));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nonesuch"), None);
    }

    #[test]
    fn fp_suite_is_the_last_four() {
        let fp: Vec<bool> = Workload::ALL.iter().map(|w| w.is_fp()).collect();
        assert_eq!(
            fp,
            [false, false, false, false, false, false, false, false, true, true, true, true]
        );
    }
}
