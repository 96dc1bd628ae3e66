#![warn(missing_docs)]

//! # redsim
//!
//! Meta-crate for the redsim temporal-redundancy simulation stack: a
//! from-scratch reproduction of *A Complexity-Effective Approach to ALU
//! Bandwidth Enhancement for Instruction-Level Temporal Redundancy*
//! (Parashar, Gurumurthi & Sivasubramaniam, ISCA 2004).
//!
//! This crate re-exports the public APIs of the component crates so
//! examples and downstream users can depend on a single package:
//!
//! * [`isa`] — instruction set, assembler and functional emulator.
//! * [`mem`] — cache and memory-hierarchy timing models.
//! * [`predictor`] — branch predictors, BTB and return-address stack.
//! * [`irb`] — the instruction reuse buffer.
//! * [`core`] — the cycle-level out-of-order core with SIE, DIE and
//!   DIE-IRB execution modes.
//! * [`workloads`] — the twelve SPEC CPU2000 stand-in kernels.
//!
//! [`cli`] holds the command lines of the package's four binaries
//! (`redsim-asm`, `redsim-emu`, `redsim-sim`, `redsim-workload`).
//!
//! # Examples
//!
//! Measure the IPC cost of dual-instruction execution on one workload and
//! recover part of it with the instruction reuse buffer:
//!
//! ```
//! use redsim::core::{ExecMode, MachineConfig, Simulator};
//! use redsim::workloads::Workload;
//!
//! let program = Workload::Gzip.program(Workload::Gzip.tiny_params()).unwrap();
//! let cfg = MachineConfig::paper_baseline();
//! let sie = Simulator::new(cfg.clone(), ExecMode::Sie).run_program(&program).unwrap();
//! let die = Simulator::new(cfg.clone(), ExecMode::Die).run_program(&program).unwrap();
//! let die_irb = Simulator::new(cfg, ExecMode::DieIrb).run_program(&program).unwrap();
//! assert!(die.ipc() < sie.ipc());
//! assert!(die_irb.ipc() >= die.ipc());
//! ```

pub mod cli;

pub use redsim_core as core;
pub use redsim_irb as irb;
pub use redsim_isa as isa;
pub use redsim_mem as mem;
pub use redsim_predictor as predictor;
pub use redsim_workloads as workloads;
