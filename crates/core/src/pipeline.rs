//! The cycle loop: fetch, dispatch, issue, writeback, commit.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use redsim_isa::trace::DynInst;
use redsim_isa::{EmuError, OpClass, Program};
use redsim_mem::{Hierarchy, Level};
use redsim_util::FxHashMap;

use crate::config::{
    ExecMode, ForwardingPolicy, IssuePolicy, MachineConfig, SchedEngine, SchedulerModel,
};
use crate::fault::{FaultConfig, FaultConfigError, FaultInjector, FaultOutcome};
use crate::frontend::{FetchOutcome, FrontEnd};
use crate::fu::{FuBank, Pool};
use crate::irb_unit::{reuse_output, IrbUnit};
use crate::metrics::{
    HostPhase, HostProfiler, MetricsSink, NullMetrics, WindowCounters, WindowSample,
};
use crate::ruu::{EntryState, ReuseState, ReuseTag, Ruu, Stream};
use crate::sched::{Calendar, ReadySet};
use crate::source::{EmulatorSource, InstructionSource};
use crate::stats::{BranchSummary, IrbSummary, SimStats};
use crate::trace::{NullTracer, TraceEvent, TraceEventKind, Tracer};

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// The functional emulator faulted while producing the trace.
    Emu(EmuError),
    /// The timing model stopped making progress (an internal bug or an
    /// impossible configuration).
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
    },
    /// A host-side supervisor raised the cancellation flag attached via
    /// [`Simulator::with_cancel`] — typically a wall-clock deadline,
    /// distinct from the simulated-cycle watchdog.
    HostCancelled {
        /// Cycle at which the flag was observed.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Emu(e) => write!(f, "functional execution failed: {e}"),
            SimError::Deadlock { cycle } => {
                write!(f, "pipeline made no progress near cycle {cycle}")
            }
            SimError::HostCancelled { cycle } => {
                write!(
                    f,
                    "host wall-clock deadline cancelled the run near cycle {cycle}"
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Emu(e) => Some(e),
            SimError::Deadlock { .. } | SimError::HostCancelled { .. } => None,
        }
    }
}

impl From<EmuError> for SimError {
    fn from(e: EmuError) -> Self {
        SimError::Emu(e)
    }
}

/// The user-facing simulator: a machine configuration plus an execution
/// mode, runnable over programs or raw instruction sources.
///
/// # Examples
///
/// ```
/// use redsim_core::{ExecMode, MachineConfig, Simulator};
/// use redsim_isa::asm::assemble;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble("main: li t0, 50\nl: addi t0, t0, -1\n bnez t0, l\n halt\n")?;
/// let stats = Simulator::new(MachineConfig::tiny(), ExecMode::Sie).run_program(&p)?;
/// assert_eq!(stats.committed_insts, 102);
/// assert!(stats.ipc() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: MachineConfig,
    mode: ExecMode,
    faults: FaultConfig,
    budget: u64,
    watchdog: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
    attribution: bool,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// ([`MachineConfig::validate`]).
    #[must_use]
    pub fn new(config: MachineConfig, mode: ExecMode) -> Self {
        config.validate();
        Simulator {
            config,
            mode,
            faults: FaultConfig::none(),
            budget: 50_000_000,
            watchdog: None,
            cancel: None,
            attribution: false,
        }
    }

    /// Enables reuse attribution (opcode class × PC × loop-structure
    /// accounting of every IRB event; see `redsim_irb::attribution`).
    /// The result lands in [`SimStats::attribution`](crate::SimStats).
    /// Off by default: a disabled run allocates nothing for attribution
    /// and produces byte-identical statistics.
    #[must_use]
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// Enables transient-fault injection, rejecting an invalid
    /// configuration with the typed [`FaultConfigError`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Fails when [`FaultConfig::validate`] does (a NaN, negative or
    /// above-one rate).
    pub fn try_with_faults(mut self, faults: FaultConfig) -> Result<Self, FaultConfigError> {
        faults.validate()?;
        self.faults = faults;
        Ok(self)
    }

    /// Sets a watchdog deadline in simulated cycles. A run that reaches
    /// the deadline stops cleanly instead of erroring: the stats carry
    /// [`SimStats::watchdog_fired`](crate::SimStats) and every
    /// unresolved fault is classified as a hang, so a livelocked
    /// configuration (e.g. a rewind storm under an extreme fault rate)
    /// becomes a structured result rather than a stuck job.
    #[must_use]
    pub fn with_watchdog(mut self, max_cycles: u64) -> Self {
        self.watchdog = Some(max_cycles);
        self
    }

    /// Overrides the functional-instruction budget (runaway backstop).
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a host-side cancellation flag. The cycle loop polls it
    /// every 64 cycles; once the flag is raised the run fails with
    /// [`SimError::HostCancelled`]. This is how a supervisor enforces a
    /// wall-clock deadline on a job without killing the whole process —
    /// unlike [`Simulator::with_watchdog`], which bounds *simulated*
    /// cycles and ends the run cleanly, cancellation is an external
    /// abort and yields an error. An unarmed simulator (the default)
    /// pays nothing: the check is behind one `Option` branch.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Runs `program` to completion and reports statistics.
    ///
    /// # Errors
    ///
    /// Fails if functional execution faults (bad memory access, budget
    /// exhausted) or the timing model deadlocks.
    pub fn run_program(&self, program: &Program) -> Result<SimStats, SimError> {
        let mut source = EmulatorSource::new(program, self.budget);
        self.run_source(&mut source)
    }

    /// Runs an arbitrary committed-path source to exhaustion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run_program`].
    pub fn run_source(&self, source: &mut dyn InstructionSource) -> Result<SimStats, SimError> {
        self.run_source_instrumented(
            source,
            Instrumentation {
                tracer: &mut NullTracer,
                metrics: &mut NullMetrics,
                profiler: None,
            },
        )
    }

    /// Like [`Simulator::run_program`], with the full observability
    /// bundle attached (tracer, windowed metrics, host profiler).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run_program`].
    pub fn run_program_instrumented<'a>(
        &'a self,
        program: &Program,
        instr: Instrumentation<'a>,
    ) -> Result<SimStats, SimError> {
        let mut source = EmulatorSource::new(program, self.budget);
        self.run_source_instrumented(&mut source, instr)
    }

    /// Runs a committed-path source with the full observability bundle:
    /// trace events into `instr.tracer`, window samples into
    /// `instr.metrics` (skipped behind one cached branch when the sink
    /// reports [`MetricsSink::enabled`] `false`), and — when
    /// `instr.profiler` is attached — per-phase host wall-clock
    /// accounting. All three are observationally pure: stats are
    /// identical whether or not they are attached.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run_program`].
    pub fn run_source_instrumented<'a>(
        &'a self,
        source: &mut dyn InstructionSource,
        instr: Instrumentation<'a>,
    ) -> Result<SimStats, SimError> {
        Machine::new(self, instr).run(source)
    }
}

/// The observability bundle a run can carry: a structured-event tracer,
/// a windowed-metrics sink, and an optional host-side phase profiler.
/// Each piece follows the disabled-by-default discipline — a bundle of
/// [`NullTracer`], [`NullMetrics`] and no profiler costs one
/// predictable branch per emission site.
pub struct Instrumentation<'a> {
    /// Structured pipeline events ([`crate::trace`]).
    pub tracer: &'a mut dyn Tracer,
    /// Windowed time-series samples ([`crate::metrics`]).
    pub metrics: &'a mut dyn MetricsSink,
    /// Per-phase host wall-clock accounting; `Some` enables the two
    /// monotonic-clock reads per pipeline stage call.
    pub profiler: Option<&'a mut HostProfiler>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrontState {
    Running,
    /// Stalled until the control instruction with this trace seq
    /// resolves.
    WaitBranch(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResumeReason {
    None,
    BranchRecovery,
    BtbBubble,
}

/// The entry fields an FU-issue attempt needs, read once by the issue
/// loop's candidate guard.
#[derive(Debug, Clone, Copy)]
struct FuAttempt {
    class: OpClass,
    is_load: bool,
    is_dup: bool,
    input_corrupt: u64,
}

/// Why a functional-unit issue attempt succeeded or was denied. The
/// denial causes are distinguished because they memoize differently
/// within one issue pass: a full pool stays full for the rest of the
/// cycle, while a port denial only recurs for data-cache users.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuIssueOutcome {
    Issued,
    /// No data-cache port left for a load's access.
    NoPort,
    /// Every unit of the class's pool is busy (structural hazard).
    NoUnit,
}

#[derive(Debug, Clone)]
struct FetchedInst {
    di: DynInst,
    lookup_done_at: u64,
}

const PRIMARY: usize = 0;
const DUP: usize = 1;

struct Machine<'a> {
    cfg: &'a MachineConfig,
    mode: ExecMode,
    cycle: u64,
    ruu: Ruu,
    ifq: VecDeque<FetchedInst>,
    /// Parallel to `ifq`, populated only when an IRB is attached: the
    /// lookup outcome carries a 32-byte-aligned [`IrbEntry`] payload
    /// that would otherwise double the bytes every non-IRB mode moves
    /// through the fetch queue per instruction.
    ifq_reuse: VecDeque<ReuseState>,
    lookahead: Option<DynInst>,
    source_done: bool,
    rename_int: [[Option<u64>; 32]; 2],
    rename_fp: [[Option<u64>; 32]; 2],
    lsq_used: usize,
    last_store: FxHashMap<u64, u64>,
    frontend: FrontEnd,
    hierarchy: Hierarchy,
    fu: FuBank,
    /// The duplicate stream's replicated cluster (DieCluster only).
    fu_dup: Option<FuBank>,
    irb: Option<IrbUnit>,
    inj: FaultInjector,
    /// PC of the entry occupying a struck IRB slot, keyed to the fault
    /// id — a later reuse of that PC that serves corrupt bits is
    /// attributed to the strike (latest strike per PC wins).
    irb_fault_pc: FxHashMap<u64, u32>,
    /// Watchdog deadline in cycles; reaching it ends the run cleanly
    /// with pending faults classified as hangs.
    watchdog: Option<u64>,
    /// Reuse attribution requested for this run; finalize publishes the
    /// collector (or an empty record for IRB-less modes) when set.
    attribution: bool,
    /// Host-side cancellation flag, polled every 64 cycles; raised by
    /// a supervisor's wall-clock deadline.
    cancel: Option<&'a AtomicBool>,
    /// The event sink. `trace_on` caches `tracer.enabled()` so every
    /// emission site pays one predictable branch when tracing is off.
    tracer: &'a mut dyn Tracer,
    trace_on: bool,
    /// The windowed-metrics sink; `metrics_on` caches its `enabled()`
    /// the same way `trace_on` does, so the per-cycle boundary check is
    /// one predictable branch when metrics are off.
    metrics: &'a mut dyn MetricsSink,
    metrics_on: bool,
    /// Window width in simulated cycles (>= 1).
    metrics_window: u64,
    /// First cycle of the window being accumulated.
    window_start: u64,
    /// Index of the window being accumulated.
    window_index: u64,
    /// Cumulative counter snapshot at the last window boundary.
    win_base: WindowCounters,
    /// Host-side per-phase wall-clock accounting (opt-in: `Some`
    /// switches the cycle loop to its timed variant).
    profiler: Option<&'a mut HostProfiler>,
    /// A pair mismatch rewound the head pair this cycle (stall
    /// attribution: the cycle belongs to rewind recovery).
    rewound_this_cycle: bool,
    /// The previous cycle's issue loop ran out of issue slots — ready
    /// entries left over then were starved of bandwidth, not units.
    prev_issue_saturated: bool,
    stats: SimStats,
    front_state: FrontState,
    resume_at: u64,
    resume_reason: ResumeReason,
    icache_ready_at: u64,
    /// `log2` of the L1I line size (validated power of two), so the
    /// per-instruction line computation in fetch is a shift, not a
    /// division.
    l1i_line_shift: u32,
    last_fetch_line: Option<u64>,
    dcache_used: usize,
    /// Next wrong-path address the stalled front end streams through
    /// the I-cache (when `wrong_path_fetch` is on).
    wrong_path_pc: Option<u64>,
    /// Rename bank the duplicate stream reads its sources from.
    dup_source_bank: usize,
    cycles_since_commit: u64,
    /// `true` under [`SchedEngine::EventDriven`]; gates every queue and
    /// calendar update so the scan reference never accumulates stale
    /// events.
    event_driven: bool,
    /// Per-stream ready bitsets over the RUU ring slots (indexed
    /// [`PRIMARY`]/[`DUP`]); the §3.1 primary-first policy is the walk
    /// order of these sets.
    ready: [ReadySet; 2],
    /// Completion events keyed by `complete_at`.
    calendar: Calendar,
    /// Scratch for the seqs completing this cycle (reused every cycle).
    scratch_events: Vec<u64>,
    /// Scratch for the issue candidates of this cycle.
    scratch_candidates: Vec<u64>,
    /// Scratch for the producer seqs of the entry being dispatched.
    /// Recycled `consumers` vectors (bounded by in-flight producers):
    /// broadcast returns each drained list here, dispatch hands them
    /// back out, so steady-state wakeup never allocates.
    consumer_pool: Vec<Vec<u64>>,
}

impl<'a> Machine<'a> {
    fn new(sim: &'a Simulator, instr: Instrumentation<'a>) -> Self {
        let (cfg, mode, attribution) = (&sim.config, sim.mode, sim.attribution);
        let Instrumentation {
            tracer,
            metrics,
            profiler,
        } = instr;
        let trace_on = tracer.enabled();
        let metrics_on = metrics.enabled();
        let metrics_window = metrics.window_cycles().max(1);
        let dup_source_bank = match (mode, cfg.forwarding) {
            // The original DIE forwards strictly within each stream.
            (ExecMode::Die, _) => DUP,
            (ExecMode::DieIrb, ForwardingPolicy::PrimaryToBoth) => PRIMARY,
            (ExecMode::DieIrb, ForwardingPolicy::PerStream) => DUP,
            // A cluster forwards within itself.
            (ExecMode::DieCluster, _) => DUP,
            _ => PRIMARY,
        };
        let ruu = Ruu::new(cfg.ruu_size);
        let ring = ruu.slot_capacity();
        Machine {
            cfg,
            mode,
            cycle: 0,
            ruu,
            ifq: VecDeque::with_capacity(cfg.fetch_queue),
            ifq_reuse: VecDeque::with_capacity(cfg.fetch_queue),
            lookahead: None,
            source_done: false,
            rename_int: [[None; 32]; 2],
            rename_fp: [[None; 32]; 2],
            lsq_used: 0,
            last_store: FxHashMap::default(),
            frontend: FrontEnd::new(cfg),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            fu: FuBank::new(cfg.fu, cfg.latency),
            fu_dup: (mode == ExecMode::DieCluster).then(|| FuBank::new(cfg.fu, cfg.latency)),
            irb: mode.has_irb().then(|| {
                let mut irb = IrbUnit::new(cfg.irb);
                if attribution {
                    irb.enable_attribution();
                }
                irb
            }),
            inj: FaultInjector::new(sim.faults),
            irb_fault_pc: FxHashMap::default(),
            watchdog: sim.watchdog,
            attribution,
            cancel: sim.cancel.as_deref(),
            tracer,
            trace_on,
            metrics,
            metrics_on,
            metrics_window,
            window_start: 0,
            window_index: 0,
            win_base: WindowCounters::default(),
            profiler,
            rewound_this_cycle: false,
            prev_issue_saturated: false,
            stats: SimStats::default(),
            front_state: FrontState::Running,
            resume_at: 0,
            resume_reason: ResumeReason::None,
            icache_ready_at: 0,
            l1i_line_shift: cfg.hierarchy.l1i.line_bytes.trailing_zeros(),
            last_fetch_line: None,
            dcache_used: 0,
            wrong_path_pc: None,
            dup_source_bank,
            cycles_since_commit: 0,
            event_driven: cfg.engine == SchedEngine::EventDriven,
            ready: [ReadySet::new(ring), ReadySet::new(ring)],
            calendar: Calendar::new(),
            scratch_events: Vec::new(),
            scratch_candidates: Vec::new(),
            consumer_pool: Vec::new(),
        }
    }

    /// Emits one trace event. All arguments are plain scalars the call
    /// sites already hold, so the disabled path is a single branch with
    /// no allocation and no extra loads.
    #[inline]
    fn trace(&mut self, kind: TraceEventKind, seq: u64, pc: u64, stream: u8, arg: u64) {
        if self.trace_on {
            self.tracer.record(TraceEvent {
                cycle: self.cycle,
                kind,
                seq,
                pc,
                stream,
                arg,
            });
        }
    }

    /// Files a newly [`EntryState::Ready`] entry with its stream's
    /// bitset. Every `Ready` transition outside the issue loop must
    /// pass through here — the bitsets ARE the ready set under the
    /// event-driven engine.
    fn push_ready(&mut self, seq: u64, stream: Stream) {
        if self.event_driven {
            let q = if stream == Stream::Dup { DUP } else { PRIMARY };
            self.ready[q].insert(self.ruu.slot_of(seq));
        }
    }

    /// Clears an entry's ready bit after it leaves the `Ready` state in
    /// the issue loop (issued, bypassed, or found stale). Clearing both
    /// streams' sets is branch-free and correct: a slot is marked in at
    /// most its own stream's set.
    fn remove_ready(&mut self, seq: u64) {
        if self.event_driven {
            let slot = self.ruu.slot_of(seq);
            self.ready[PRIMARY].remove(slot);
            self.ready[DUP].remove(slot);
        }
    }

    /// Files a completion event for an entry entering
    /// [`EntryState::Issued`] with `complete_at = Some(at)`.
    fn schedule_completion(&mut self, at: u64, seq: u64) {
        if self.event_driven {
            self.calendar.schedule(at, self.cycle, seq);
        }
    }

    fn is_dual(&self) -> bool {
        self.mode.is_dual()
    }

    fn run(&mut self, source: &mut dyn InstructionSource) -> Result<SimStats, SimError> {
        loop {
            self.fill_lookahead(source)?;
            if self.source_done && self.ifq.is_empty() && self.ruu.is_empty() {
                break;
            }
            self.cycle += 1;
            self.begin_cycle();
            if self.profiler.is_some() {
                self.run_stages_profiled(source)?;
            } else {
                self.commit();
                self.writeback();
                self.issue();
                self.dispatch();
                self.fetch(source)?;
            }
            self.stats.ruu_occupancy_sum += self.ruu.len() as u64;
            self.cycles_since_commit += 1;
            if self.cycles_since_commit > 100_000 {
                return Err(SimError::Deadlock { cycle: self.cycle });
            }
            if let Some(flag) = self.cancel {
                // Poll every 64 cycles: cheap enough to bound reaction
                // latency, rare enough that the atomic load never shows
                // in profiles. Unarmed runs skip on the `Option` branch.
                if self.cycle & 0x3F == 0 && flag.load(Ordering::Relaxed) {
                    return Err(SimError::HostCancelled { cycle: self.cycle });
                }
            }
            if self.watchdog.is_some_and(|limit| self.cycle >= limit) {
                // Watchdog deadline: end the run cleanly. Faults still
                // unresolved never reached a terminal commit — a
                // livelock (e.g. a rewind storm) holds them in flight
                // forever — so they are classified as hangs.
                self.inj.resolve_all_pending(FaultOutcome::Hang, self.cycle);
                self.stats.watchdog_fired = true;
                break;
            }
            if self.metrics_on && self.cycle - self.window_start >= self.metrics_window {
                self.flush_window();
            }
        }
        // The final window is usually partial (a run rarely ends on a
        // boundary, and a watchdog break above skips the in-loop
        // check); flush whatever accumulated so window sums stay equal
        // to the whole-run totals.
        if self.metrics_on && self.cycle > self.window_start {
            self.flush_window();
        }
        self.finalize();
        Ok(std::mem::take(&mut self.stats))
    }

    /// The five stage calls with two monotonic-clock reads per stage,
    /// accounting host wall time to [`HostPhase`] buckets. Kept apart
    /// from the plain path so unprofiled runs pay only the
    /// `profiler.is_some()` branch.
    fn run_stages_profiled(&mut self, source: &mut dyn InstructionSource) -> Result<(), SimError> {
        let t0 = Instant::now();
        self.commit();
        let t1 = Instant::now();
        self.writeback();
        let t2 = Instant::now();
        self.issue();
        let t3 = Instant::now();
        self.dispatch();
        let t4 = Instant::now();
        let fetched = self.fetch(source);
        let t5 = Instant::now();
        if let Some(p) = self.profiler.as_mut() {
            p.add(HostPhase::Commit, t1 - t0);
            p.add(HostPhase::Writeback, t2 - t1);
            p.add(HostPhase::Execute, t3 - t2);
            p.add(HostPhase::Schedule, t4 - t3);
            p.add(HostPhase::Fetch, t5 - t4);
            p.cycles += 1;
        }
        fetched
    }

    /// Closes the window `[window_start, cycle)`: computes the exact
    /// counter deltas against the last boundary snapshot, reads the
    /// instantaneous ready-set size, and hands the sample to the sink.
    /// Every read is observational — enabling metrics cannot perturb
    /// the simulation.
    fn flush_window(&mut self) {
        let now = self.cumulative_counters();
        let counters = now.delta(&self.win_base);
        let ready_occupancy = self.ruu.ready_count();
        let sample = WindowSample {
            index: self.window_index,
            start_cycle: self.window_start,
            end_cycle: self.cycle,
            ready_occupancy,
            counters,
        };
        self.metrics.record_window(&sample);
        self.win_base = now;
        self.window_start = self.cycle;
        self.window_index += 1;
    }

    /// Snapshot of every cumulative counter the window series reports,
    /// read straight from the live pipeline state `finalize` also
    /// copies — which is what makes the window-sum conservation exact.
    fn cumulative_counters(&self) -> WindowCounters {
        let mut c = WindowCounters {
            committed_insts: self.stats.committed_insts,
            committed_copies: self.stats.committed_copies,
            active_commit_cycles: self.stats.active_commit_cycles,
            stalls: self.stats.stalls,
            fu_issues: self.stats.fu_issues,
            fu_bypasses: self.stats.fu_bypasses,
            int_alu_busy_cycles: self.fu.busy_cycles(Pool::IntAlu),
            ruu_occupancy_sum: self.stats.ruu_occupancy_sum,
            ..WindowCounters::default()
        };
        if let Some(irb) = &self.irb {
            let b = irb.buffer().stats();
            c.irb_lookups = b.lookups;
            c.irb_pc_hits = b.pc_hits;
            c.irb_victim_hits = b.victim_hits;
            c.irb_inserts = b.inserts;
            c.irb_conflict_evictions = b.conflict_evictions;
            let u = irb.stats();
            c.irb_reuse_passed = u.reuse_passed;
            c.irb_reuse_failed = u.reuse_failed;
            c.irb_lookups_port_starved = u.lookups_port_starved;
            c.irb_inserts_port_starved = u.inserts_port_starved;
            if let Some(attr) = irb.attribution() {
                for (i, cls) in attr.class_counters().iter().enumerate() {
                    c.attr_lookups[i] = cls.lookups;
                    c.attr_hits[i] = cls.hits;
                    c.attr_passes[i] = cls.passes;
                }
            }
        }
        c
    }

    fn fill_lookahead(&mut self, source: &mut dyn InstructionSource) -> Result<(), SimError> {
        if self.lookahead.is_none() && !self.source_done {
            match source.next_inst()? {
                Some(di) => self.lookahead = Some(di),
                None => self.source_done = true,
            }
        }
        Ok(())
    }

    fn begin_cycle(&mut self) {
        self.dcache_used = 0;
        self.rewound_this_cycle = false;
        let mut irb_strike = None;
        if let Some(irb) = &mut self.irb {
            irb.begin_cycle();
            // Particle strikes on the (unprotected) IRB array.
            if self.inj.enabled() {
                if let Some((slot, bit)) = self.inj.roll_irb_strike(irb.buffer().num_slots()) {
                    if irb.buffer_mut().inject_fault(slot, bit) {
                        let id = self.inj.record_irb_strike(self.cycle);
                        let pc = irb.buffer().slot_pc(slot);
                        if let Some(pc) = pc {
                            self.irb_fault_pc.insert(pc, id);
                        }
                        irb_strike = Some((id, pc.unwrap_or(0)));
                    }
                }
            }
        }
        if let Some((id, pc)) = irb_strike {
            self.trace(TraceEventKind::FaultInject, u64::from(id), pc, 2, 2);
        }
    }

    // ----- commit ---------------------------------------------------

    fn commit(&mut self) {
        let mut budget = self.cfg.commit_width;
        let mut committed_any = false;
        // The retirement window: consecutive done entries from the
        // head, counted once per cycle on the packed done-bit words.
        // Nothing in the loop marks new entries done, so the count only
        // needs decrementing as pairs retire.
        let mut done_run = self.ruu.done_run_from_head(self.cfg.commit_width);
        loop {
            let need = if self.is_dual() { 2 } else { 1 };
            if budget < need || done_run < need {
                break;
            }
            let head = self.ruu.head_seq();

            // DIE pair check.
            if self.is_dual() {
                let p_out = self.ruu.out_bits(head);
                let d_out = self.ruu.out_bits(head + 1);
                let tainted = self.ruu.fault_tainted(head) || self.ruu.fault_tainted(head + 1);
                if let (Some(pb), Some(db)) = (p_out, d_out) {
                    self.stats.pairs_checked += 1;
                    if pb != db {
                        self.rewind_pair(head);
                        break;
                    }
                    if tainted {
                        self.inj.stats_mut().escaped += 1;
                    }
                } else if tainted {
                    self.inj.stats_mut().escaped += 1;
                }
            } else if self.ruu.fault_tainted(head) {
                // No checking exists in SIE: silent corruption.
                self.inj.stats_mut().silent_sie += 1;
            }

            // Only the op kind is needed on the common path; the cold
            // `DynInst` record is touched solely for a memory op's
            // address, an attached tracer's identity fields, or the
            // IRB's commit-time update below.
            let is_store = self.ruu.is_store(head);
            let is_mem = self.ruu.is_mem(head);
            let ea = if is_mem { self.ruu.di(head).ea } else { None };
            let (di_seq, di_pc) = if self.trace_on {
                let d = self.ruu.di(head);
                (d.seq, d.pc)
            } else {
                // `trace` drops the event without reading these.
                (0, 0)
            };
            // Invariant: an untainted copy's comparator word equals the
            // architectural check value derived from the trace.
            debug_assert!(
                self.ruu.fault_tainted(head)
                    || self.ruu.out_bits(head).is_none()
                    || self.ruu.clean_check_bits(head) == self.ruu.out_bits(head)
            );

            // The pair's single architectural store access.
            if is_store {
                if self.dcache_used >= self.cfg.dcache.ports {
                    break; // retry next cycle
                }
                self.dcache_used += 1;
                let _ = self.hierarchy.write_data(ea.expect("store has an address"));
            }

            // Commit-time IRB update (§3.2: off the critical path).
            if self.irb.is_some() {
                let insert = match self.mode {
                    // Update on executions the IRB did not serve.
                    ExecMode::DieIrb => self.ruu.executed_on_fu(head + 1),
                    ExecMode::SieIrb => self.ruu.executed_on_fu(head),
                    _ => false,
                };
                let insert_allowed = !self.cfg.reuse_long_latency_only
                    || matches!(
                        self.ruu.class(head),
                        OpClass::IntMul
                            | OpClass::IntDiv
                            | OpClass::FpAdd
                            | OpClass::FpMul
                            | OpClass::FpDiv
                            | OpClass::FpSqrt
                    );
                let mut inserted = false;
                let mut insert_denied = false;
                if let Some(irb) = self.irb.as_mut() {
                    if insert && insert_allowed {
                        let starved_before = irb.stats().inserts_port_starved;
                        inserted = irb.try_insert(self.ruu.di(head));
                        insert_denied =
                            !inserted && irb.stats().inserts_port_starved > starved_before;
                    }
                    irb.on_register_write(self.ruu.di(head));
                }
                if inserted {
                    self.trace(TraceEventKind::IrbInsert, di_seq, di_pc, 0, 0);
                } else if insert_denied {
                    self.trace(TraceEventKind::IrbPortDenied, di_seq, di_pc, 0, 1);
                }
            }

            // Retire. A committing store tears down its store-address
            // map entry (unless a newer in-flight store to the same
            // address overwrote it), keeping `last_store` bounded by
            // the LSQ instead of growing with the trace. Readers treat
            // a committed seq and a missing key identically, so this
            // changes no timing.
            if is_store {
                let key = ea.expect("store has an address") & !7;
                if self.last_store.get(&key) == Some(&head) {
                    self.last_store.remove(&key);
                }
            }
            if self.inj.enabled() {
                for s in 0..need as u64 {
                    self.resolve_commit_faults(head + s);
                }
            }
            for _ in 0..need {
                self.ruu.pop();
            }
            if is_mem {
                self.lsq_used -= 1;
            }
            self.stats.committed_insts += 1;
            self.stats.committed_copies += need as u64;
            self.trace(TraceEventKind::Commit, di_seq, di_pc, 0, need as u64);
            budget -= need;
            done_run -= need;
            committed_any = true;
            self.cycles_since_commit = 0;
        }
        if committed_any {
            self.stats.active_commit_cycles += 1;
        } else {
            self.attribute_stall();
        }
    }

    /// Charges a cycle in which nothing retired to exactly one
    /// [`StallBreakdown`](crate::StallBreakdown) cause, keyed off the
    /// oldest unretired copy — the instruction gating commit. Runs once
    /// per non-committing cycle, so together with
    /// `active_commit_cycles` it partitions the run:
    /// `active_commit_cycles + stalls.total() == cycles`.
    ///
    /// The classification reads only architected pipeline state (RUU
    /// entries, reuse state, last cycle's issue saturation), which both
    /// scheduling engines keep bit-identical — so the breakdown is
    /// engine-independent by the same argument as the rest of
    /// `SimStats`.
    fn attribute_stall(&mut self) {
        if self.rewound_this_cycle {
            self.stats.stalls.rewind += 1;
            return;
        }
        if self.ruu.is_empty() {
            self.stats.stalls.frontend_empty += 1;
            return;
        }
        let head = self.ruu.head_seq();
        // In dual modes the pair retires together: blame the copy that
        // is not done yet (the primary first, then its duplicate).
        let blocker = if self.is_dual() && self.ruu.is_done(head) {
            head + 1
        } else {
            head
        };
        if !self.ruu.contains(blocker) {
            self.stats.stalls.commit_blocked += 1;
            return;
        }
        let state = self.ruu.state(blocker);
        let reuse = self.ruu.reuse_tag(blocker);
        let s = &mut self.stats.stalls;
        match state {
            EntryState::Waiting => s.waiting_deps += 1,
            EntryState::Ready => {
                if reuse == ReuseTag::PortStarved {
                    s.irb_port += 1;
                } else if self.prev_issue_saturated {
                    s.issue_starved += 1;
                } else {
                    s.fu_contention += 1;
                }
            }
            EntryState::Issued | EntryState::WaitingPair => s.execution += 1,
            EntryState::Done => s.commit_blocked += 1,
        }
    }

    /// Commit of one copy under fault injection: faults riding on a
    /// tainted copy that delivers a wrong architectural value resolve
    /// as silent corruption; faults whose corruption cancelled out (or
    /// never produced a comparator word) stay pending and fall out as
    /// masked at the end of the run.
    fn resolve_commit_faults(&mut self, seq: u64) {
        if self.ruu.fault_ids_is_empty(seq) {
            return;
        }
        let out = self.ruu.out_bits(seq);
        let silent =
            self.ruu.fault_tainted(seq) && out.is_some() && out != self.ruu.clean_check_bits(seq);
        let ids = self.ruu.take_fault_ids(seq);
        if silent {
            for id in ids {
                self.inj.resolve_silent(id, self.cycle);
            }
        }
    }

    /// Pair mismatch at commit: the paper's instruction rewind. Both
    /// copies re-execute on the functional units; the front end pays a
    /// flush penalty.
    fn rewind_pair(&mut self, head: u64) {
        self.stats.pair_mismatches += 1;
        self.rewound_this_cycle = true;
        self.inj.stats_mut().detected += 1;
        if self.trace_on {
            let (di_seq, di_pc) = {
                let d = self.ruu.di(head);
                (d.seq, d.pc)
            };
            self.trace(TraceEventKind::Rewind, di_seq, di_pc, 2, 0);
        }
        // Recovery cost attributed to the faults being detected: the
        // in-flight copies behind the pair (the window exposed to the
        // rewind) and the front-end re-fetch penalty.
        let squash_depth = self.ruu.len() as u64 - 2;
        let refetch = self.cfg.mispredict_penalty;
        for seq in [head, head + 1] {
            self.ruu.set_state(seq, EntryState::Ready);
            self.ruu.set_ready_at(seq, self.cycle);
            self.ruu.clear_complete_at(seq);
            self.ruu.set_out_bits(seq, None);
            self.ruu.set_executed_on_fu(seq, false);
            self.ruu.set_fault_tainted(seq, false);
            self.ruu.clear_input_corrupt(seq);
            // Force the re-execution down the functional units.
            self.ruu.set_reuse(seq, ReuseState::NotEligible);
            let ids = self.ruu.take_fault_ids(seq);
            let stream = self.ruu.stream(seq);
            let di_pc = self.ruu.di(seq).pc;
            for id in ids {
                self.inj
                    .resolve_detected(id, self.cycle, squash_depth, refetch);
                self.trace(TraceEventKind::FaultDetect, u64::from(id), di_pc, 2, 0);
            }
            self.push_ready(seq, stream);
        }
        let resume = self.cycle + self.cfg.mispredict_penalty;
        if resume > self.resume_at {
            self.resume_at = resume;
            self.resume_reason = ResumeReason::BranchRecovery;
        }
    }

    // ----- writeback ------------------------------------------------

    fn writeback(&mut self) {
        let mut completing = std::mem::take(&mut self.scratch_events);
        if self.event_driven {
            self.calendar.pop_due(self.cycle, &mut completing);
        } else {
            completing.clear();
            self.ruu.collect_completing(self.cycle, &mut completing);
        }
        for &seq in &completing {
            // The scan selected on exactly this predicate; re-checking
            // it at pop time keeps the engines interchangeable and
            // makes any stale calendar event a no-op.
            if !self.ruu.contains(seq)
                || self.ruu.state(seq) != EntryState::Issued
                || !self.ruu.completes_at(seq, self.cycle)
            {
                continue;
            }
            if self.ruu.is_dup(seq) && self.ruu.is_load(seq) && !self.ruu.is_done(seq - 1) {
                // Address work done; the pair's single data access
                // has not returned yet.
                self.ruu.set_state(seq, EntryState::WaitingPair);
                continue;
            }
            self.mark_done(seq);
        }
        self.scratch_events = completing;
    }

    /// Finalizes an entry: broadcast, branch resolution, pair wakeup.
    fn mark_done(&mut self, seq: u64) {
        self.ruu.set_state(seq, EntryState::Done);
        if self.ruu.complete_at(seq).is_none() {
            self.ruu.set_complete_at(seq, self.cycle);
        }
        if self.trace_on {
            let (di_seq, di_pc) = {
                let d = self.ruu.di(seq);
                (d.seq, d.pc)
            };
            self.trace(
                TraceEventKind::Writeback,
                di_seq,
                di_pc,
                stream_code(self.ruu.stream(seq)),
                0,
            );
        }
        self.resolve_control(seq);
        self.broadcast(seq);

        // A completing primary load releases its duplicate. In the
        // clustered organization the data crosses clusters first.
        // (Stream and kind are immutable per entry, so reading them
        // after the broadcast is equivalent — and single-stream modes
        // skip the lane reads entirely.)
        if self.is_dual() && self.ruu.stream(seq) == Stream::Primary && self.ruu.is_load(seq) {
            let partner = seq + 1;
            if self.ruu.contains(partner) && self.ruu.state(partner) == EntryState::WaitingPair {
                if self.mode == ExecMode::DieCluster && self.cfg.cluster_delay > 0 {
                    let at = self.cycle + self.cfg.cluster_delay;
                    self.ruu.set_state(partner, EntryState::Issued);
                    self.ruu.set_complete_at(partner, at);
                    self.schedule_completion(at, partner);
                } else {
                    self.mark_done(partner);
                }
            }
        }
    }

    /// First-resolver branch handling: train the predictors and release
    /// a waiting front end (the paper: recovery starts as soon as
    /// *either* stream resolves).
    fn resolve_control(&mut self, seq: u64) {
        if !self.ruu.is_control(seq) || self.ruu.resolution_reported(seq) {
            return;
        }
        let di_seq = self.ruu.di(seq).seq;
        let stream = self.ruu.stream(seq);
        // Train through the borrow — `frontend` and `ruu` are disjoint
        // fields, so no `DynInst` copy is needed.
        self.frontend.train(self.ruu.di(seq));
        self.ruu.set_resolution_reported(seq);
        if self.is_dual() {
            let partner = match stream {
                Stream::Primary => seq + 1,
                Stream::Dup => seq - 1,
            };
            if self.ruu.contains(partner) {
                self.ruu.set_resolution_reported(partner);
            }
        }
        if self.front_state == FrontState::WaitBranch(di_seq) {
            self.front_state = FrontState::Running;
            self.wrong_path_pc = None;
            let resume = self.cycle + self.cfg.mispredict_penalty;
            if resume > self.resume_at {
                self.resume_at = resume;
                self.resume_reason = ResumeReason::BranchRecovery;
            }
        }
    }

    /// Result broadcast: wake consumers, possibly striking the bus.
    fn broadcast(&mut self, seq: u64) {
        if self.ruu.consumers_is_empty(seq) {
            return;
        }
        let mut consumers = self.ruu.take_consumers(seq);
        let strike = if self.inj.enabled() {
            self.inj.strike_forward(self.cycle)
        } else {
            None
        };
        if let Some((_, id)) = strike {
            self.trace(TraceEventKind::FaultInject, u64::from(id), 0, 2, 1);
        }
        for &c in &consumers {
            if !self.ruu.contains(c) {
                continue;
            }
            if let Some((mask, id)) = strike {
                self.ruu.xor_input_corrupt(c, mask);
                self.ruu.set_fault_tainted(c, true);
                self.ruu.push_fault_id(c, id);
            }
            if self.ruu.deps_remaining(c) > 0
                && self.ruu.dec_deps(c) == 0
                && self.ruu.state(c) == EntryState::Waiting
            {
                self.ruu.set_state(c, EntryState::Ready);
                self.ruu.set_ready_at(c, self.cycle);
                let stream = self.ruu.stream(c);
                self.push_ready(c, stream);
            }
        }
        consumers.clear();
        self.consumer_pool.push(consumers);
    }

    // ----- issue ----------------------------------------------------

    fn issue(&mut self) {
        if self.event_driven {
            // Idle-cycle fast path: with nothing ready the candidate
            // walk, the policy selection and the loop are all no-ops,
            // so skip straight to the one observable side effect.
            let [primary, dup] = &self.ready;
            if primary.is_empty() && dup.is_empty() {
                self.prev_issue_saturated = false;
                return;
            }
        }
        let mut issued = 0usize;
        // DIE-IRB selection policy (§3.1): the primary stream owns the
        // functional units — duplicates are IRB candidates first and
        // contend for leftover FU slots second. Plain DIE keeps the
        // symmetric oldest-first policy of the original proposal.
        let primary_first = match self.cfg.issue_policy {
            IssuePolicy::ModeDefault => self.mode == ExecMode::DieIrb,
            IssuePolicy::OldestFirst => false,
            IssuePolicy::PrimaryFirst => self.is_dual(),
        };
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        if self.event_driven {
            // Walking the bitsets up front snapshots the ready set
            // exactly as the scan did: entries woken by a mid-issue
            // broadcast set their bit but are not in this cycle's
            // candidate list. The walk is windowed to the live RUU
            // span, so ring order equals ascending seq order.
            let base_seq = self.ruu.head_seq();
            let base_slot = self.ruu.slot_of(base_seq);
            let len = self.ruu.len();
            let [primary, dup] = &self.ready;
            if primary_first {
                primary.append_ring(base_slot, len, base_seq, &mut candidates);
                dup.append_ring(base_slot, len, base_seq, &mut candidates);
            } else if !self.is_dual() {
                // Single-stream modes never populate the dup set; the
                // union walk would read a second word array of zeros.
                primary.append_ring(base_slot, len, base_seq, &mut candidates);
            } else {
                ReadySet::append_union_ring(
                    primary,
                    dup,
                    base_slot,
                    len,
                    base_seq,
                    &mut candidates,
                );
            }
        } else {
            self.ruu.collect_ready(&mut candidates);
            if primary_first {
                candidates.sort_by_key(|&s| (self.ruu.is_dup(s), s));
            }
        }
        // Without an IRB every entry's reuse state is NotEligible, so
        // `try_bypass` can never fire: skip the call, and stop scanning
        // entirely once the issue slots are gone.
        let has_irb = self.irb.is_some();
        let mut saturated = false;
        // Pools that denied an attempt this cycle, one bit per pool per
        // bank. `UnitPool::try_issue` never frees a unit mid-cycle, so a
        // denial repeats for every later same-pool candidate in this
        // pass and the re-probe can be skipped. The failed probe has no
        // side effects, so the skip is observationally identical.
        let mut full_pools = [0u8; 2];
        // Same argument for data-cache ports: `dcache_used` only grows
        // within a cycle, so one port denial repeats for every later
        // port-needing load this pass.
        let mut ports_full = false;
        for &seq in &candidates {
            // Post-saturation fast path: once width exhaustion has
            // been recorded, only reuse-hit entries can still act (a
            // bypass consumes no issue slot), so every other candidate
            // skips on a single lane read. The guards below were
            // side-effect-free for such entries, and `saturated` stays
            // true, so the skip is observationally identical.
            if saturated && self.ruu.reuse_tag(seq) != ReuseTag::Hit {
                continue;
            }
            // The still-ready guard and the attempt fields are one-byte
            // lane reads; most attempts fail, so a losing candidate
            // costs a few packed bytes, not a record walk.
            if !self.ruu.contains(seq) {
                continue;
            }
            if self.ruu.state(seq) != EntryState::Ready {
                self.remove_ready(seq);
                continue;
            }
            let attempt = FuAttempt {
                class: self.ruu.class(seq),
                is_load: self.ruu.is_load(seq),
                is_dup: self.ruu.is_dup(seq),
                input_corrupt: self.ruu.input_corrupt(seq),
            };
            // Reuse-test bypass. With a data-capture scheduler this
            // consumes neither issue bandwidth nor a functional unit
            // (§3.3); the non-data-capture models charge their costs
            // inside `try_bypass`.
            if has_irb && self.try_bypass(seq, &mut issued) {
                self.remove_ready(seq);
                continue;
            }
            if issued >= self.cfg.issue_width {
                saturated = true;
                if has_irb {
                    continue;
                }
                break;
            }
            let bank = usize::from(attempt.is_dup && self.fu_dup.is_some());
            let pool_bit = 1u8 << self.fu.pool_index(attempt.class);
            if full_pools[bank] & pool_bit != 0 {
                continue;
            }
            if ports_full && attempt.is_load && (!attempt.is_dup || !self.is_dual()) {
                continue;
            }
            match self.try_fu_issue(seq, attempt) {
                FuIssueOutcome::Issued => {
                    issued += 1;
                    self.remove_ready(seq);
                }
                FuIssueOutcome::NoUnit => full_pools[bank] |= pool_bit,
                FuIssueOutcome::NoPort => ports_full = true,
            }
        }
        // Entries that lost arbitration (no unit, no port, lookup in
        // flight) are still Ready and keep their bit for next cycle.
        self.scratch_candidates = candidates;
        self.prev_issue_saturated = saturated;
    }

    /// Attempts the IRB reuse test on a ready entry. Returns `true` if
    /// the entry bypassed the functional units this cycle.
    fn try_bypass(&mut self, seq: u64, issued: &mut usize) -> bool {
        if self.ruu.reuse_tag(seq) != ReuseTag::Hit {
            return false;
        }
        if self.cycle < self.ruu.lookup_done_at(seq) {
            return false; // lookup still in its pipelined stages
        }
        // Non-data-capture timing (§3.3): the reuse test follows the
        // register-file read, one cycle after wakeup.
        if self.cfg.scheduler == SchedulerModel::NonDataCapturePipelined
            && self.cycle < self.ruu.ready_at(seq) + 1
        {
            return false;
        }
        // Naive non-data-capture: the duplicate must win selection and a
        // functional unit before its operands (and so the reuse test)
        // exist. That path is charged inside `try_fu_issue`, which runs
        // the reuse test after allocation; nothing to do here.
        if self.cfg.scheduler == SchedulerModel::NonDataCaptureNaive {
            let _ = issued;
            return false;
        }
        let hit = self.ruu.reuse_hit(seq);
        let is_load = self.ruu.is_load(seq);
        // An operand corrupted on the forwarding bus can never match the
        // buffered operands: the test fails and the copy re-executes.
        if self.ruu.input_corrupt(seq) != 0 {
            self.ruu.set_reuse(seq, ReuseState::Failed);
            return false;
        }
        // SIE-IRB loads still perform the (single) data access; make
        // sure a port exists before burning the reuse test.
        if is_load && !self.is_dual() && self.dcache_used >= self.cfg.dcache.ports {
            return false;
        }
        {
            let irb = self.irb.as_mut().expect("IRB mode");
            if !irb.reuse_test(&hit, self.ruu.di(seq)) {
                self.ruu.set_reuse(seq, ReuseState::Failed);
                return false;
            }
        }

        // Passed: the buffered result (possibly struck by an IRB fault)
        // becomes this copy's output.
        self.stats.fu_bypasses += 1;
        let produced = hit.result;
        let (clean, out, di_seq, di_pc, ea) = {
            let di = self.ruu.di(seq);
            (
                reuse_output(di),
                finalize_out(di, produced),
                di.seq,
                di.pc,
                di.ea,
            )
        };
        let stream = self.ruu.stream(seq);
        self.trace(TraceEventKind::Issue, di_seq, di_pc, stream_code(stream), 0);
        self.ruu.set_reuse(seq, ReuseState::Passed);
        self.ruu.set_out_bits(seq, Some(out));
        if produced != clean {
            self.ruu.set_fault_tainted(seq, true);
            // Attribute the corrupt buffered result to the IRB
            // strike that hit this PC's slot.
            if let Some(&id) = self.irb_fault_pc.get(&hit.pc) {
                self.ruu.push_fault_id(seq, id);
            }
        }

        if is_load {
            if self.is_dual() {
                // The duplicate's data rides the pair's shared access.
                if self.ruu.is_done(seq - 1) {
                    self.mark_done(seq);
                } else {
                    self.ruu.set_state(seq, EntryState::WaitingPair);
                }
            } else {
                // SIE-IRB: address calc skipped, data access remains.
                self.dcache_used += 1;
                let ea = ea.expect("load has an address");
                let at = self.cycle + self.hierarchy.read_data(ea);
                self.ruu.set_state(seq, EntryState::Issued);
                self.ruu.set_complete_at(seq, at);
                self.schedule_completion(at, seq);
            }
        } else {
            self.mark_done(seq);
        }
        true
    }

    /// Attempts to issue a ready entry to its functional-unit pool.
    /// `attempt` carries the entry fields the caller already read;
    /// the full `DynInst` is copied only after a unit is secured.
    fn try_fu_issue(&mut self, seq: u64, attempt: FuAttempt) -> FuIssueOutcome {
        let FuAttempt {
            class,
            is_load,
            is_dup,
            input_corrupt,
        } = attempt;
        let needs_dcache = is_load && (!is_dup || !self.is_dual());
        if needs_dcache && self.dcache_used >= self.cfg.dcache.ports {
            return FuIssueOutcome::NoPort;
        }
        let bank = match &mut self.fu_dup {
            Some(dup) if is_dup => dup,
            _ => &mut self.fu,
        };
        let Some(done) = bank.try_issue(class, self.cycle) else {
            return FuIssueOutcome::NoUnit;
        };
        self.stats.fu_issues += 1;

        // Naive non-data-capture (§3.3): the operands arrive only now,
        // after selection and allocation; a passing reuse test wastes
        // the unit but still supplies the result immediately — a
        // latency win with no bandwidth win.
        if self.cfg.scheduler == SchedulerModel::NonDataCaptureNaive
            && self.ruu.reuse_tag(seq) == ReuseTag::Hit
            && self.cycle >= self.ruu.lookup_done_at(seq)
            && input_corrupt == 0
        {
            let hit = self.ruu.reuse_hit(seq);
            let passed = {
                let irb = self.irb.as_mut().expect("IRB mode");
                irb.reuse_test(&hit, self.ruu.di(seq))
            };
            if passed {
                self.stats.fu_bypasses += 1;
                let produced = hit.result;
                let (clean, out, di_seq, di_pc) = {
                    let di = self.ruu.di(seq);
                    (reuse_output(di), finalize_out(di, produced), di.seq, di.pc)
                };
                self.ruu.set_reuse(seq, ReuseState::Passed);
                self.ruu.set_out_bits(seq, Some(out));
                if produced != clean {
                    self.ruu.set_fault_tainted(seq, true);
                    if let Some(&id) = self.irb_fault_pc.get(&hit.pc) {
                        self.ruu.push_fault_id(seq, id);
                    }
                }
                self.trace(TraceEventKind::Issue, di_seq, di_pc, u8::from(is_dup), 0);
                if is_load && self.is_dual() {
                    if self.ruu.is_done(seq - 1) {
                        self.mark_done(seq);
                    } else {
                        self.ruu.set_state(seq, EntryState::WaitingPair);
                    }
                } else {
                    self.mark_done(seq);
                }
                return FuIssueOutcome::Issued;
            }
            self.ruu.set_reuse(seq, ReuseState::Failed);
        }

        // Produce this copy's bits, through the fault model.
        let produced = produced_bits(self.ruu.di(seq)).map(|p| p ^ input_corrupt);
        let (out, struck) = match produced {
            Some(p) => {
                let (pb, fid) = self.inj.strike_fu(p, self.cycle);
                (Some(finalize_out(self.ruu.di(seq), pb)), fid)
            }
            None => (None, None),
        };

        let mut complete_at = done;
        if needs_dcache {
            let ea = self.ruu.di(seq).ea.expect("load has an address");
            // Store-to-load forwarding: if the producing store is still
            // in flight in the LSQ, the data comes from its entry in a
            // single cycle instead of a cache access.
            let forwarded = self.cfg.stl_forwarding
                && self
                    .last_store
                    .get(&(ea & !7))
                    .is_some_and(|&s| self.ruu.contains(s));
            if forwarded {
                complete_at = done + 1;
            } else {
                self.dcache_used += 1;
                complete_at = done + self.hierarchy.read_data(ea);
            }
        }
        self.ruu.set_state(seq, EntryState::Issued);
        self.ruu.set_executed_on_fu(seq, true);
        self.ruu.set_complete_at(seq, complete_at);
        self.ruu.set_out_bits(seq, out);
        if let Some(id) = struck {
            self.ruu.set_fault_tainted(seq, true);
            self.ruu.push_fault_id(seq, id);
        }
        self.schedule_completion(complete_at, seq);
        if self.trace_on {
            let (di_seq, di_pc) = {
                let d = self.ruu.di(seq);
                (d.seq, d.pc)
            };
            let stream = u8::from(is_dup);
            self.trace(TraceEventKind::Issue, di_seq, di_pc, stream, 1);
            let dur = complete_at.saturating_sub(self.cycle).max(1);
            self.trace(TraceEventKind::Execute, di_seq, di_pc, stream, dur);
            if let Some(id) = struck {
                self.trace(TraceEventKind::FaultInject, u64::from(id), di_pc, stream, 0);
            }
        }
        FuIssueOutcome::Issued
    }

    // ----- dispatch -------------------------------------------------

    fn dispatch(&mut self) {
        let mut budget = self.cfg.decode_width;
        loop {
            let need = if self.is_dual() { 2 } else { 1 };
            if budget < need {
                break;
            }
            let Some(front) = self.ifq.front() else { break };
            let is_mem = front.di.inst.op.is_mem();
            if self.ruu.free() < need {
                self.stats.dispatch_stalls_ruu += 1;
                break;
            }
            if is_mem && self.lsq_used >= self.cfg.lsq_size {
                self.stats.dispatch_stalls_lsq += 1;
                break;
            }
            let fetched = self.ifq.pop_front().expect("front exists");
            let reuse = if self.irb.is_some() {
                self.ifq_reuse.pop_front().expect("parallel to ifq")
            } else {
                ReuseState::NotEligible
            };
            self.dispatch_one(fetched, reuse);
            budget -= need;
        }
    }

    fn dispatch_one(&mut self, fetched: FetchedInst, reuse: ReuseState) {
        let di = fetched.di;
        // Primary copy. Producers are strictly older than the entry
        // being linked, so pushing before linking cannot self-link.
        let pseq = self.ruu.push(di, Stream::Primary);
        if self.mode == ExecMode::SieIrb {
            self.ruu.set_reuse(pseq, reuse);
            self.ruu.set_lookup_done_at(pseq, fetched.lookup_done_at);
        }
        let deps = self.link_deps(pseq, &di, PRIMARY, true);
        self.ruu.set_deps_remaining(pseq, deps);
        let primary_ready = deps == 0;
        if primary_ready {
            self.ruu.set_state(pseq, EntryState::Ready);
            self.ruu.set_ready_at(pseq, self.cycle);
        }
        self.trace(TraceEventKind::Dispatch, di.seq, di.pc, 0, 0);
        if primary_ready {
            self.push_ready(pseq, Stream::Primary);
        }

        // Duplicate copy — shares the primary's record lane instead of
        // storing a second identical `DynInst`.
        if self.is_dual() {
            let dseq = self.ruu.push_dup_shared();
            if self.mode == ExecMode::DieIrb {
                self.ruu.set_reuse(dseq, reuse);
                self.ruu.set_lookup_done_at(dseq, fetched.lookup_done_at);
            }
            let deps = self.link_deps(dseq, &di, self.dup_source_bank, false);
            self.ruu.set_deps_remaining(dseq, deps);
            let dup_ready = deps == 0;
            if dup_ready {
                self.ruu.set_state(dseq, EntryState::Ready);
                self.ruu.set_ready_at(dseq, self.cycle);
            }
            self.trace(TraceEventKind::Dispatch, di.seq, di.pc, 1, 0);
            if dup_ready {
                self.push_ready(dseq, Stream::Dup);
            }
        }

        // Rename updates (after both copies read the old mappings).
        if let Some(rd) = di.inst.int_dest() {
            if !rd.is_zero() {
                self.rename_int[PRIMARY][rd.index()] = Some(pseq);
                if self.is_dual() {
                    self.rename_int[DUP][rd.index()] = Some(pseq + 1);
                }
            }
        }
        if let Some(fd) = di.inst.fp_dest() {
            self.rename_fp[PRIMARY][fd.index()] = Some(pseq);
            if self.is_dual() {
                self.rename_fp[DUP][fd.index()] = Some(pseq + 1);
            }
        }

        // LSQ bookkeeping: one slot per architected memory op; the
        // store-address map feeds memory-dependence edges.
        if di.inst.op.is_mem() {
            self.lsq_used += 1;
            if di.inst.op.is_store() {
                let ea = di.ea.expect("store has an address");
                self.last_store.insert(ea & !7, pseq);
            }
        }
    }

    /// Registers producer→consumer edges; returns the dependence count.
    fn link_deps(&mut self, myseq: u64, di: &DynInst, bank: usize, is_primary: bool) -> u32 {
        // At most two register sources plus one memory dependence; the
        // producer list lives on the stack.
        let mut producers = [0u64; 3];
        let mut n = 0;
        for r in di.inst.int_sources() {
            if r.is_zero() {
                continue;
            }
            if let Some(p) = self.rename_int[bank][r.index()] {
                producers[n] = p;
                n += 1;
            }
        }
        for f in di.inst.fp_sources() {
            if let Some(p) = self.rename_fp[bank][f.index()] {
                producers[n] = p;
                n += 1;
            }
        }
        // Memory dependence: the copy that performs the access waits
        // for the newest earlier store to the same (aligned) address.
        if di.inst.op.is_load() && (is_primary || !self.is_dual()) {
            let ea = di.ea.expect("load has an address");
            if let Some(&s) = self.last_store.get(&(ea & !7)) {
                producers[n] = s;
                n += 1;
            }
        }
        let mut deps = 0;
        for &p in &producers[..n] {
            // A producer touched for the first time gets a recycled
            // consumers vector so its first push does not allocate.
            let mut spare = self.consumer_pool.pop();
            if self.ruu.push_consumer(p, myseq, &mut spare) {
                deps += 1;
            }
            if let Some(v) = spare {
                self.consumer_pool.push(v);
            }
        }
        deps
    }

    // ----- fetch ----------------------------------------------------

    fn fetch(&mut self, source: &mut dyn InstructionSource) -> Result<(), SimError> {
        if matches!(self.front_state, FrontState::WaitBranch(_)) {
            self.stats.fetch_stalls_branch += 1;
            // Wrong-path pollution: keep the I-cache streaming down the
            // mispredicted path, one line per cycle.
            if let Some(wp) = self.wrong_path_pc {
                let line_bytes = self.cfg.hierarchy.l1i.line_bytes;
                let _ = self.hierarchy.fetch_inst(wp);
                self.last_fetch_line = Some(wp >> self.l1i_line_shift);
                self.wrong_path_pc = Some(wp + line_bytes);
            }
            return Ok(());
        }
        if self.cycle < self.resume_at {
            match self.resume_reason {
                ResumeReason::BtbBubble => self.stats.fetch_stalls_btb += 1,
                _ => self.stats.fetch_stalls_branch += 1,
            }
            return Ok(());
        }
        if self.cycle < self.icache_ready_at {
            self.stats.fetch_stalls_icache += 1;
            return Ok(());
        }
        self.fill_lookahead(source)?;
        if self.lookahead.is_none() {
            return Ok(());
        }
        if self.ifq.len() >= self.cfg.fetch_queue {
            self.stats.fetch_stalls_queue += 1;
            return Ok(());
        }

        let hit_lat = self.cfg.hierarchy.l1i.hit_latency;
        let mut fetched = 0usize;

        while fetched < self.cfg.fetch_width && self.ifq.len() < self.cfg.fetch_queue {
            self.fill_lookahead(source)?;
            let Some(di) = self.lookahead else { break };
            // Touch the I-cache once per new line the group walks into
            // (SimpleScalar-style: the group may span line boundaries as
            // long as every line hits).
            let line = di.pc >> self.l1i_line_shift;
            if self.last_fetch_line != Some(line) {
                let lat = self.hierarchy.fetch_inst(di.pc);
                self.last_fetch_line = Some(line);
                if lat > hit_lat {
                    self.icache_ready_at = self.cycle + lat;
                    if fetched == 0 {
                        self.stats.fetch_stalls_icache += 1;
                    }
                    return Ok(());
                }
            }

            // Consume the instruction.
            self.lookahead = None;
            // Keep the attribution loop tracker current for *every*
            // fetched instruction (a backedge may be reuse-filtered but
            // still opens a loop), before the instruction's own lookup
            // so a backedge's events land in its own loop.
            if let Some(irb) = &mut self.irb {
                irb.note_fetched(&di);
            }
            let reuse_allowed = !self.cfg.reuse_long_latency_only
                || matches!(
                    di.class(),
                    OpClass::IntMul
                        | OpClass::IntDiv
                        | OpClass::FpAdd
                        | OpClass::FpMul
                        | OpClass::FpDiv
                        | OpClass::FpSqrt
                );
            let (reuse, lookup_done_at) = match &mut self.irb {
                Some(irb) if reuse_allowed => irb.start_lookup(&di, self.cycle),
                _ => (ReuseState::NotEligible, self.cycle),
            };
            self.ifq.push_back(FetchedInst { di, lookup_done_at });
            if self.irb.is_some() {
                self.ifq_reuse.push_back(reuse);
            }
            fetched += 1;
            if self.trace_on {
                self.trace(TraceEventKind::Fetch, di.seq, di.pc, 0, 0);
                match reuse {
                    ReuseState::Hit(_) => {
                        self.trace(TraceEventKind::IrbLookup, di.seq, di.pc, 0, 0);
                        self.trace(TraceEventKind::IrbHit, di.seq, di.pc, 0, 0);
                    }
                    ReuseState::PcMiss => {
                        self.trace(TraceEventKind::IrbLookup, di.seq, di.pc, 0, 0);
                    }
                    ReuseState::PortStarved => {
                        self.trace(TraceEventKind::IrbPortDenied, di.seq, di.pc, 0, 0);
                    }
                    _ => {}
                }
            }

            let outcome = if self.cfg.perfect_branch_prediction {
                // Oracle: taken control flow still ends the fetch group
                // (one redirect per cycle), but never stalls.
                self.frontend.train(&di);
                if di.redirects() {
                    FetchOutcome::TakenPredicted
                } else {
                    FetchOutcome::Sequential
                }
            } else {
                self.frontend.assess(&di)
            };
            match outcome {
                FetchOutcome::Sequential => {}
                FetchOutcome::TakenPredicted => break,
                FetchOutcome::TakenBtbMiss => {
                    let resume = self.cycle + self.cfg.btb_miss_penalty;
                    if resume > self.resume_at {
                        self.resume_at = resume;
                        self.resume_reason = ResumeReason::BtbBubble;
                    }
                    break;
                }
                FetchOutcome::Mispredict => {
                    self.front_state = FrontState::WaitBranch(di.seq);
                    if self.cfg.wrong_path_fetch {
                        // The path the front end *would* have followed:
                        // the wrong side of the branch.
                        let ctrl = di.control.expect("mispredicts are control insts");
                        self.wrong_path_pc = Some(if ctrl.taken {
                            di.fallthrough_pc()
                        } else {
                            ctrl.target
                        });
                    }
                    break;
                }
            }
        }
        Ok(())
    }

    // ----- finalize -------------------------------------------------

    fn finalize(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.l1i = *self.hierarchy.stats(Level::L1I);
        self.stats.l1d = *self.hierarchy.stats(Level::L1D);
        self.stats.l2 = *self.hierarchy.stats(Level::L2);
        let f = self.frontend.stats();
        self.stats.branches = BranchSummary {
            cond_branches: f.cond_branches,
            cond_mispredicts: f.cond_mispredicts,
            indirect_jumps: f.indirect_jumps,
            indirect_mispredicts: f.indirect_mispredicts,
            btb_miss_bubbles: f.btb_miss_bubbles,
        };
        self.stats.int_alu_busy_cycles = self.fu.busy_cycles(Pool::IntAlu);
        self.stats.int_alu_ops = [
            OpClass::IntAlu,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
            OpClass::Jump,
            OpClass::Sys,
        ]
        .iter()
        .map(|&c| self.fu.issued(c))
        .sum();
        if let Some(irb) = &self.irb {
            self.stats.irb = IrbSummary {
                buffer: *irb.buffer().stats(),
                reuse_passed: irb.stats().reuse_passed,
                reuse_failed: irb.stats().reuse_failed,
                lookups_port_starved: irb.stats().lookups_port_starved,
                inserts_port_starved: irb.stats().inserts_port_starved,
            };
        }
        if self.attribution {
            // IRB-less modes publish an empty (but present) record so
            // "attribution requested" always yields the section.
            self.stats.attribution = Some(Box::new(
                self.irb
                    .as_ref()
                    .and_then(|irb| irb.attribution())
                    .map(|a| a.finish(ATTRIBUTION_TOP_K))
                    .unwrap_or_default(),
            ));
        }
        self.stats.faults = *self.inj.stats();
        // Faults with no terminal event by now never corrupted an
        // architectural value: masked. (A watchdog break already
        // classified its pending faults as hangs above.)
        self.inj
            .resolve_all_pending(FaultOutcome::Masked, self.cycle);
        self.stats.fault_lifecycle = self.inj.lifecycle();
    }
}

/// Size of the hot-PC and hot-loop tables in a finalized
/// [`SimStats::attribution`](crate::SimStats) record. Sites beyond the
/// top K fold into the `folded_*` conservation buckets.
pub const ATTRIBUTION_TOP_K: usize = 8;

/// Trace stream id for an RUU stream (0 primary, 1 duplicate).
fn stream_code(s: Stream) -> u8 {
    u8::from(s == Stream::Dup)
}

/// The "reuse output domain" bits an execution of `di` produces: the
/// register result for ALU ops, the effective address for memory ops,
/// the encoded outcome for control ops, `None` for pure system ops.
fn produced_bits(di: &DynInst) -> Option<u64> {
    match di.class() {
        OpClass::Load | OpClass::Store => di.ea,
        OpClass::Branch | OpClass::Jump => di.control.map(|c| c.target | u64::from(c.taken) << 63),
        OpClass::Sys => None,
        _ => di.result,
    }
}

/// Folds store data into the comparator word (see
/// [`crate::ruu::checked_bits`]); identity for everything else.
fn finalize_out(di: &DynInst, produced: u64) -> u64 {
    if di.inst.op.is_store() {
        produced ^ di.src2.rotate_left(32)
    } else {
        produced
    }
}

#[cfg(test)]
mod tests;
