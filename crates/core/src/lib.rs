#![warn(missing_docs)]

//! # redsim-core
//!
//! A cycle-level out-of-order superscalar timing model with three
//! execution modes, reproducing the machine studied in *A
//! Complexity-Effective Approach to ALU Bandwidth Enhancement for
//! Instruction-Level Temporal Redundancy* (Parashar, Gurumurthi &
//! Sivasubramaniam, ISCA 2004):
//!
//! * [`ExecMode::Sie`] — **S**ingle **I**nstruction **E**xecution: the
//!   ordinary out-of-order core, the paper's performance ceiling.
//! * [`ExecMode::Die`] — **D**ual **I**nstruction **E**xecution (after
//!   Ray, Hoe & Falsafi): every instruction is duplicated at dispatch,
//!   both copies flow through the shared core independently, and results
//!   are compared at commit. Memory is accessed once per pair; the first
//!   stream to resolve a mispredicted branch triggers recovery.
//! * [`ExecMode::DieIrb`] — the paper's contribution: the duplicate
//!   stream looks up an instruction reuse buffer in parallel with fetch
//!   and, on a passing reuse test, skips the functional units entirely.
//!   With [`ForwardingPolicy::PrimaryToBoth`] the IRB needs no result
//!   forwarding into the issue window — the primary stream's existing
//!   bypass wakes both streams (§3.3).
//! * [`ExecMode::SieIrb`] — classic single-stream instruction reuse
//!   (Sodani & Sohi), kept as the ablation showing why an IRB helps a
//!   DIE core so much more than a balanced SIE core.
//!
//! The model follows SimpleScalar `sim-outorder`'s structure — a unified
//! ROB/issue-window (**RUU**), a load/store queue, explicit functional
//! unit pools, and a front end with a tournament predictor, BTB and
//! return-address stack — driven by the committed-path trace of the
//! `redsim-isa` functional emulator. Wrong-path work is modelled as
//! front-end stall from a detected misprediction until the branch
//! resolves plus a redirect penalty (see `DESIGN.md` for the fidelity
//! discussion).
//!
//! A transient-fault injector ([`fault`]) exercises the redundancy
//! arguments of the paper's §3.4: faults in functional units, in the
//! (unprotected) IRB array, and on the shared forwarding bus.
//!
//! # Examples
//!
//! ```
//! use redsim_core::{ExecMode, MachineConfig, Simulator};
//! use redsim_isa::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble(
//!     "main: li t0, 200\nloop: addi t0, t0, -1\n add t1, t1, t0\n bnez t0, loop\n halt\n",
//! )?;
//! let cfg = MachineConfig::paper_baseline();
//! let sie = Simulator::new(cfg.clone(), ExecMode::Sie).run_program(&p)?;
//! let die = Simulator::new(cfg, ExecMode::Die).run_program(&p)?;
//! assert!(die.ipc() <= sie.ipc(), "duplication cannot speed the core up");
//! # Ok(())
//! # }
//! ```

mod config;
pub mod fault;
mod frontend;
mod fu;
mod irb_unit;
pub mod metrics;
mod pipeline;
mod ruu;
pub mod sched;
mod source;
mod stats;
pub mod trace;

pub use config::{
    DcacheConfig, ExecMode, ForwardingPolicy, FuCounts, IssuePolicy, LatencyConfig, MachineConfig,
    SchedulerModel,
};
pub use fault::{
    FaultConfig, FaultConfigError, FaultLifecycle, FaultOutcome, FaultRecord, FaultSite, FaultStats,
};
pub use metrics::{
    Histogram, HostPhase, HostProfiler, Metric, MetricsCollector, MetricsRegistry, MetricsSink,
    NullMetrics, WindowCounters, WindowSample, DEFAULT_METRICS_WINDOW,
};
pub use pipeline::{Instrumentation, SimError, Simulator, ATTRIBUTION_TOP_K};
pub use redsim_irb::{
    AttrCounters, LoopSite, PcSite, ReuseAttribution, REUSE_CLASSES, REUSE_CLASS_NAMES,
};
pub use source::{EmulatorSource, InstructionSource, SliceSource, TraceSource};
pub use stats::{
    attribution_to_json, FetchStallKind, IrbSummary, SimStats, StallBreakdown, StallSummary,
    Throughput,
};
pub use trace::{
    chrome_trace, EventLog, FlightRecorder, NullTracer, TraceEvent, TraceEventKind, Tracer,
};
