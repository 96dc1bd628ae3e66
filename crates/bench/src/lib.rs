#![warn(missing_docs)]

//! # redsim-bench
//!
//! The experiment harness: every table and figure of the DIE-IRB paper
//! has a regeneration binary in `src/bin/` built on the helpers here.
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `fig2`             | Figure 2 — % IPC loss vs SIE for the 8 DIE resource configs |
//! | `table_config`     | the §4 base-machine configuration table |
//! | `fig_recovery`     | the headline SIE / DIE / DIE-IRB / DIE-2xALU comparison |
//! | `fig_hitrate`      | IRB PC-hit and reuse-test pass rates per workload |
//! | `fig_size_sweep`   | DIE-IRB sensitivity to IRB capacity |
//! | `fig_ports`        | DIE-IRB sensitivity to IRB port provisioning |
//! | `fig_conflict`     | conflict-miss reduction (victim buffer / associativity) |
//! | `fig_faults`       | fault-injection detection coverage (§3.4 scenarios) |
//! | `fig_name_vs_value`| value-based vs name-based reuse test |
//! | `fig_sie_irb`      | IRB on SIE vs IRB on DIE (why DIE benefits more) |
//! | `fig_priority`     | scheduling-vs-reuse ablation of DIE-IRB's gain |
//! | `fig_cluster`      | the clustered alternative of §3 vs DIE-IRB vs SIE-2xALU |
//! | `fig_scheduler`    | §3.3's data-capture vs non-data-capture reuse tests |
//! | `fig_fidelity`     | wrong-path fetch + store-to-load forwarding sensitivity |
//! | `fig_reuse_anatomy`| where reuse comes from: opcode class x loop structure |
//!
//! Every binary parses its [`FlagTable`] into a [`Cli`]: the
//! [`SHARED_FLAGS`] plus the flags it honours of its own, so a flag it
//! does not declare exits 2 (`--help` prints the table):
//!
//! * `--quick` (or `REDSIM_QUICK=1`) — run the tiny workload instances;
//! * `--json` — emit the result table as a JSON object instead of text;
//! * `--threads N` — fan the simulation grid across `N` worker threads
//!   (default: all available cores). Every simulation is single-threaded
//!   and deterministic, so the results are identical for any `N`.
//!
//! Eleven of the figures are declared grids ([`figures`]): the runs each
//! workload goes through and the columns computed from them. One runner
//! ([`grid::main`]) turns a declaration into a list of [`Job`]s, hands it
//! to [`Harness::try_sweep`], then tabulates and prints the result
//! through [`finish`]. `fig_recovery`, `fig_faults`, `fig_reuse_anatomy`
//! and `table_config` have shapes a grid does not (replicas,
//! per-scenario rows, per-mode rows, no runs) and keep their own bodies.
//!
//! Every simulation here and in the campaign runner is launched one way:
//! [`Harness::traces`] builds each workload's committed trace once (an
//! `Arc<Trace>` recipe: program and count, which every job replays on
//! its own emulator), [`par_map`] fans the jobs across an ordered scoped
//! pool (inline on the caller's thread at `--threads 1`), and
//! [`run_job_isolated`] runs each one on the simulator [`Job::simulator`]
//! lowers it to.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use redsim_core::{
    ExecMode, FaultConfig, Instrumentation, MachineConfig, MetricsCollector, MetricsSink,
    NullMetrics, NullTracer, SimStats, Simulator, StallSummary, Throughput, TraceSource,
    WindowSample,
};
use redsim_isa::trace::Trace;
use redsim_util::flags::{self, Flag, FlagError, FlagTable, Parsed};
use redsim_util::Json;
use redsim_workloads::{Params, Workload};

pub mod figures;
pub mod grid;

/// The flags every figure binary takes.
#[rustfmt::skip]
pub const SHARED_FLAGS: [Flag; 3] = [
    Flag::switch("--quick", "run the tiny workload instances (also REDSIM_QUICK=1)"),
    Flag::switch("--json", "print the result as one JSON object"),
    Flag::value("--threads", "N", "worker threads (default: every core)"),
];
/// `--seeds N`, for the figures that replicate across input seeds.
pub const SEEDS_FLAG: Flag = Flag::value("--seeds", "N", "replicas per cell (default 1)");
/// The strike-rate overrides read by [`apply_rate_overrides`].
#[rustfmt::skip]
pub const RATE_FLAGS: [Flag; 3] = [
    Flag::value("--fu-rate", "R", "strike rate of the scenarios hitting FUs"),
    Flag::value("--forward-rate", "R", "strike rate of the forwarding-bus scenarios"),
    Flag::value("--irb-rate", "R", "strike rate of the IRB scenarios"),
];
/// The grid figures, `fig_reuse_anatomy` and `table_config`.
pub const FIGURE_CLI: FlagTable = FlagTable::new("[options]", 0, &[&SHARED_FLAGS]);
/// `fig_recovery`.
#[rustfmt::skip]
pub const RECOVERY_CLI: FlagTable = FlagTable::new("[options]", 0, &[&SHARED_FLAGS, &[
    SEEDS_FLAG,
    Flag::value("--forwarding", "shared|per-stream", "IRB forwarding policy (default shared)"),
]]);
/// `fig_faults`.
pub const FAULTS_CLI: FlagTable =
    FlagTable::new("[options]", 0, &[&SHARED_FLAGS, &[SEEDS_FLAG], &RATE_FLAGS]);

/// The command line of a figure binary: the [`SHARED_FLAGS`] read into
/// fields, the rest of its table through [`Cli::flags`].
#[derive(Debug, Clone)]
pub struct Cli {
    /// Run tiny workload instances (`--quick` or `REDSIM_QUICK=1`).
    pub quick: bool,
    /// Emit JSON instead of the aligned text table (`--json`).
    pub json: bool,
    /// Worker threads for [`Harness::sweep`] (`--threads N`).
    pub threads: usize,
    /// Replications across independent seeds (`--seeds N`, default 1).
    /// Figure binaries that support it report mean ± stddev columns.
    pub seeds: u32,
    /// Windowed-metrics sampling period in simulated cycles
    /// (`--metrics-window N`), for the binaries that declare it. `None`
    /// when the flag is absent — each binary picks its own default.
    /// Zero is rejected at the front door: a zero-cycle window reaches
    /// the sampler as a degenerate tiling, never a useful series.
    pub metrics_window: Option<u64>,
    /// The parsed command line, for the binary's own flags.
    pub flags: Parsed,
}

/// Truthiness of an environment flag: unset, empty, `0` and `false`
/// (ASCII case-insensitive) are off; anything else is on.
/// `REDSIM_QUICK=0` must mean *off* — the old `var_os(..).is_some()`
/// check got this wrong. This is the workspace's only environment
/// truthiness check (audited when the bug was fixed).
fn env_flag(name: &str) -> bool {
    env_value_enabled(std::env::var_os(name).as_deref())
}

/// The pure decision behind [`env_flag`], split out so tests can cover
/// it without racing on process-global environment state.
fn env_value_enabled(value: Option<&std::ffi::OsStr>) -> bool {
    let Some(v) = value else { return false };
    let s = v.to_string_lossy();
    !(s.is_empty() || s == "0" || s.eq_ignore_ascii_case("false"))
}

impl Cli {
    /// Parses the process arguments against `table`; an error prints
    /// the usage and exits 2, `--help` prints it and exits 0.
    #[must_use]
    pub fn parse(table: &FlagTable) -> Self {
        Self::try_from_vec(table, &flags::args()).unwrap_or_else(|e| table.fail(&e))
    }

    /// Parses an explicit argument vector against `table`.
    ///
    /// # Errors
    ///
    /// The [`FlagError`] of the first refused argument, including a
    /// `--threads`, `--seeds` or `--metrics-window` that is zero or not
    /// an integer.
    pub fn try_from_vec(table: &FlagTable, args: &[String]) -> Result<Self, FlagError> {
        let flags = table.parse(args)?;
        Ok(Cli {
            quick: flags.has("--quick") || env_flag("REDSIM_QUICK"),
            json: flags.has("--json"),
            threads: flags.positive("--threads")?.unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }),
            seeds: flags.positive("--seeds")?.unwrap_or(1),
            metrics_window: flags.positive("--metrics-window")?,
            flags,
        })
    }
}

/// Applies the fault figures' `--fu-rate`, `--forward-rate` and
/// `--irb-rate` overrides ([`RATE_FLAGS`]) to every scenario that
/// strikes at the matching site, then validates each configuration up
/// front, so a bad rate fails fast instead of mid-sweep. A value that is
/// not a number, or a rate [`FaultConfig::validate`] rejects, prints an
/// error naming it and exits 2.
pub fn apply_rate_overrides<'a>(
    cli: &Cli,
    scenarios: impl IntoIterator<Item = (&'a str, &'a mut FaultConfig)>,
) {
    let rate = |flag| cli.flags.or_exit(cli.flags.get::<f64>(flag));
    let (fu, fwd, irb) = (
        rate("--fu-rate"),
        rate("--forward-rate"),
        rate("--irb-rate"),
    );
    for (name, fc) in scenarios {
        for (site, over) in [
            (&mut fc.fu_rate, fu),
            (&mut fc.forward_rate, fwd),
            (&mut fc.irb_rate, irb),
        ] {
            if let Some(r) = over.filter(|_| *site > 0.0) {
                *site = r;
            }
        }
        if let Err(e) = fc.validate() {
            eprintln!("error: scenario {name:?}: invalid fault configuration: {e}");
            std::process::exit(2);
        }
    }
}

/// One cell of the experiment grid: a workload run under a mode and
/// machine configuration, optionally with fault injection.
#[derive(Debug, Clone)]
pub struct Job {
    /// The workload whose committed trace to replay.
    pub workload: Workload,
    /// Execution mode (SIE / DIE / DIE-IRB / ...).
    pub mode: ExecMode,
    /// Machine configuration.
    pub config: MachineConfig,
    /// Transient-fault injection, if any.
    pub faults: Option<FaultConfig>,
    /// Watchdog deadline in simulated cycles
    /// ([`Simulator::with_watchdog`]); a job that reaches it comes back
    /// with `watchdog_fired` set instead of running forever.
    pub watchdog: Option<u64>,
    /// Workload input seed override (replication across `--seeds`);
    /// `None` uses the workload's default parameters.
    pub input_seed: Option<u64>,
    /// Windowed-metrics collection: `Some(n)` samples the time series
    /// every `n` simulated cycles and returns the windows alongside the
    /// stats (surfaced through the [`Harness::try_sweep_with`]
    /// callback). `None` — the default — runs metrics-free.
    pub metrics_window: Option<u64>,
    /// Host-side cancellation flag ([`Simulator::with_cancel`]): a
    /// supervisor raising it aborts the run with a
    /// [`JobErrorKind::Deadline`] failure. `None` — the default — runs
    /// uncancellable.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Reuse attribution ([`Simulator::with_attribution`]): when set
    /// the stats carry the opcode-class × PC × loop breakdown of every
    /// IRB event. Off by default (byte-identical stats when off).
    pub attribution: bool,
}

impl Job {
    /// Creates a fault-free job.
    #[must_use]
    pub fn new(workload: Workload, mode: ExecMode, config: &MachineConfig) -> Self {
        Job {
            workload,
            mode,
            config: config.clone(),
            faults: None,
            watchdog: None,
            input_seed: None,
            metrics_window: None,
            cancel: None,
            attribution: false,
        }
    }

    /// Adds fault injection to the job.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets a watchdog deadline in simulated cycles.
    #[must_use]
    pub fn with_watchdog(mut self, max_cycles: u64) -> Self {
        self.watchdog = Some(max_cycles);
        self
    }

    /// Overrides the workload's input-generation seed.
    #[must_use]
    pub fn with_input_seed(mut self, seed: u64) -> Self {
        self.input_seed = Some(seed);
        self
    }

    /// Enables windowed-metrics collection every `window_cycles`
    /// simulated cycles.
    #[must_use]
    pub fn with_metrics_window(mut self, window_cycles: u64) -> Self {
        self.metrics_window = Some(window_cycles);
        self
    }

    /// Attaches a host-side cancellation flag; a supervisor raising it
    /// mid-run turns the job into a [`JobErrorKind::Deadline`] failure.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Enables reuse attribution for the run.
    #[must_use]
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// A short human-readable label (error reports, manifests).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{:?}", self.workload.name(), self.mode)
    }

    /// The simulator this job runs: its configuration and mode with the
    /// job's faults, watchdog, cancellation flag and attribution applied.
    ///
    /// # Errors
    ///
    /// A persistent [`JobErrorKind::Sim`] failure when the fault
    /// configuration is invalid.
    ///
    /// # Panics
    ///
    /// Panics when the machine configuration is inconsistent
    /// ([`Simulator::new`]).
    pub fn simulator(&self) -> Result<Simulator, JobFailure> {
        let mut sim = Simulator::new(self.config.clone(), self.mode);
        if let Some(fc) = self.faults {
            sim = sim.try_with_faults(fc).map_err(|e| {
                JobFailure::new(
                    JobErrorKind::Sim,
                    format!("invalid fault configuration: {e}"),
                )
            })?;
        }
        if let Some(w) = self.watchdog {
            sim = sim.with_watchdog(w);
        }
        if let Some(c) = &self.cancel {
            sim = sim.with_cancel(Arc::clone(c));
        }
        if self.attribution {
            sim = sim.with_attribution();
        }
        Ok(sim)
    }
}

/// How a sweep job died. The split drives the campaign supervisor's
/// retry decision: *transient* kinds (a host-side effect that can
/// plausibly differ on a re-run) are retried with backoff; *persistent*
/// kinds (a property of the job itself — the same inputs will fail the
/// same way) fail immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The timing simulation returned a [`redsim_core::SimError`]
    /// (deadlock, emulation fault). Deterministic, so persistent.
    Sim,
    /// The workload trace could not be materialized (assembly or
    /// functional-emulation failure). Deterministic, so persistent.
    Trace,
    /// The job panicked (caught by the sweep's `catch_unwind`
    /// isolation). Treated as transient: a panic can be a host effect
    /// (allocation failure) and the retry cap bounds the cost of
    /// re-trying a deterministic one.
    Panic,
    /// A host wall-clock deadline cancelled the run
    /// ([`Job::with_cancel`]). Transient: host load varies.
    Deadline,
    /// A host IO failure while persisting the job's results. Transient.
    Io,
    /// A fault injected by a test harness (chaos schedules, flake
    /// plans). Transient by construction.
    Injected,
}

impl JobErrorKind {
    /// Whether the supervisor should retry a failure of this kind.
    #[must_use]
    pub fn is_transient(self) -> bool {
        match self {
            JobErrorKind::Sim | JobErrorKind::Trace => false,
            JobErrorKind::Panic
            | JobErrorKind::Deadline
            | JobErrorKind::Io
            | JobErrorKind::Injected => true,
        }
    }

    /// The manifest/JSON spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobErrorKind::Sim => "sim",
            JobErrorKind::Trace => "trace",
            JobErrorKind::Panic => "panic",
            JobErrorKind::Deadline => "deadline",
            JobErrorKind::Io => "io",
            JobErrorKind::Injected => "injected",
        }
    }

    /// Parses the manifest spelling; unknown strings fall back to
    /// [`JobErrorKind::Sim`] (the conservative, non-retried kind) so a
    /// record written by a newer binary never triggers retry storms.
    #[must_use]
    pub fn parse_lossy(s: &str) -> Self {
        match s {
            "trace" => JobErrorKind::Trace,
            "panic" => JobErrorKind::Panic,
            "deadline" => JobErrorKind::Deadline,
            "io" => JobErrorKind::Io,
            "injected" => JobErrorKind::Injected,
            _ => JobErrorKind::Sim,
        }
    }
}

/// One failure of one job *attempt*, before it is tied to a grid index:
/// the kind (retry classification), a display message, and — for panics
/// — the payload preserved verbatim for post-mortems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Retry classification.
    pub kind: JobErrorKind,
    /// Human-readable rendering (for panics: `panic: {payload}`).
    pub message: String,
    /// The `catch_unwind` payload, verbatim, when the failure was a
    /// panic with a `String`/`&str` payload.
    pub panic_payload: Option<String>,
}

impl JobFailure {
    /// A non-panic failure of the given kind.
    #[must_use]
    pub fn new(kind: JobErrorKind, message: impl Into<String>) -> Self {
        JobFailure {
            kind,
            message: message.into(),
            panic_payload: None,
        }
    }
}

/// One failed sweep job: which grid cell died and why. Produced by
/// [`Harness::try_sweep`] instead of aborting the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Index of the job in the submitted grid.
    pub index: usize,
    /// The job's [`Job::label`].
    pub label: String,
    /// The simulation error or panic message.
    pub message: String,
    /// Retry classification of the failure.
    pub kind: JobErrorKind,
    /// For panics with a `String`/`&str` payload: the payload verbatim,
    /// so quarantined shards stay debuggable post-mortem.
    pub panic_payload: Option<String>,
}

impl JobError {
    /// Ties an attempt failure to its grid cell.
    #[must_use]
    pub fn from_failure(index: usize, label: String, failure: JobFailure) -> Self {
        JobError {
            index,
            label,
            message: failure.message,
            kind: failure.kind,
            panic_payload: failure.panic_payload,
        }
    }

    /// The record as a JSON object (the `"errors"` array of `--json`
    /// output).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("index", self.index)
            .field("label", self.label.as_str())
            .field("message", self.message.as_str())
            .field("kind", self.kind.as_str());
        if let Some(p) = &self.panic_payload {
            j = j.field("panic", p.as_str());
        }
        j
    }
}

/// Maps a simulation error to its retry classification: a raised
/// cancellation flag is the host deadline firing (transient); anything
/// else is a deterministic property of the job (persistent).
fn classify_sim_error(e: &redsim_core::SimError) -> JobErrorKind {
    match e {
        redsim_core::SimError::HostCancelled { .. } => JobErrorKind::Deadline,
        _ => JobErrorKind::Sim,
    }
}

/// Runs one job, reporting its stats and the wall-clock throughput of
/// the timing simulation, the replay's emulation included (building the
/// trace recipe is excluded — the caller materializes traces up front).
///
/// # Errors
///
/// A typed [`JobFailure`] carrying the retry classification (deadlock,
/// budget exhaustion, a fired host deadline...).
fn run_job(
    trace: &Trace,
    job: &Job,
) -> Result<(SimStats, Throughput, Vec<WindowSample>), JobFailure> {
    let sim = job.simulator()?;
    let mut source = TraceSource::new(trace);
    let mut collector = job.metrics_window.map(MetricsCollector::new);
    let mut null = NullMetrics;
    let metrics: &mut dyn MetricsSink = match &mut collector {
        Some(c) => c,
        None => &mut null,
    };
    let t0 = std::time::Instant::now();
    let stats = sim
        .run_source_instrumented(
            &mut source,
            Instrumentation {
                tracer: &mut NullTracer,
                metrics,
                profiler: None,
            },
        )
        .map_err(|e| JobFailure::new(classify_sim_error(&e), e.to_string()))?;
    let perf = Throughput {
        wall_seconds: t0.elapsed().as_secs_f64(),
        sim_cycles: stats.cycles,
        committed_insts: stats.committed_insts,
    };
    let windows = collector.map_or_else(Vec::new, MetricsCollector::into_samples);
    Ok((stats, perf, windows))
}

/// Runs one job with panic isolation: a panicking simulation (a model
/// bug, an invalid configuration) becomes a [`JobFailure`] instead of
/// tearing down the sweep. A `String`/`&str` panic payload is preserved
/// verbatim in [`JobFailure::panic_payload`] — the display message
/// prefixes it with `panic: `, but post-mortems get the raw text.
///
/// This is the attempt-level entry point the campaign shard supervisor
/// retries around; the sweep path below shares it.
///
/// # Errors
///
/// Every failure mode of the job — simulation error, fired deadline,
/// panic — as a typed [`JobFailure`].
pub fn run_job_isolated(
    trace: &Trace,
    job: &Job,
) -> Result<(SimStats, Throughput, Vec<WindowSample>), JobFailure> {
    match catch_unwind(AssertUnwindSafe(|| run_job(trace, job))) {
        Ok(r) => r,
        Err(payload) => {
            let payload = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            let msg = payload
                .clone()
                .unwrap_or_else(|| "panic with non-string payload".to_owned());
            Err(JobFailure {
                kind: JobErrorKind::Panic,
                message: format!("panic: {msg}"),
                panic_payload: payload,
            })
        }
    }
}

/// Runs `f(0)`, ..., `f(n - 1)` on `threads` scoped workers that pull
/// the next index from a shared cursor, and returns the results in index
/// order. With one thread (or at most one index) everything runs inline
/// on the caller's thread and no thread is spawned. Every index runs
/// exactly once.
pub fn par_map<T: Send + Sync>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                assert!(slots[i].set(f(i)).is_ok(), "each index runs once");
            });
        }
    });
    slots
        .into_iter()
        .map(|c| c.into_inner().expect("a worker filled every slot"))
        .collect()
}

/// Harness context: workload sizing, per-workload trace caching, and
/// accumulated wall-clock throughput of every simulation run.
#[derive(Debug, Default)]
pub struct Harness {
    quick: bool,
    cache: HashMap<(Workload, Option<u64>), Arc<Trace>>,
    perf: Throughput,
    stalls: StallSummary,
}

impl Harness {
    /// Creates a harness; `quick` selects the tiny workload instances.
    #[must_use]
    pub fn new(quick: bool) -> Self {
        Harness {
            quick,
            cache: HashMap::new(),
            perf: Throughput::default(),
            stalls: StallSummary::default(),
        }
    }

    /// The workload parameters this harness runs.
    #[must_use]
    pub fn params(&self, w: Workload) -> Params {
        if self.quick {
            w.tiny_params()
        } else {
            w.default_params()
        }
    }

    /// The committed-path trace of a workload. Built once per workload
    /// (one counting emulator pass) and shared by reference count; every
    /// job replays the identical instruction stream from it.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to assemble or execute; use
    /// [`Harness::try_trace_for`] to get the structured error instead.
    pub fn trace(&mut self, w: Workload) -> Arc<Trace> {
        match self.try_trace_for(w, None) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Harness::trace`], with an optional input-seed override,
    /// reporting a workload that fails to assemble or to reach `halt`
    /// within the instruction budget as a
    /// [`redsim_workloads::WorkloadError`] instead of panicking. Each
    /// `(workload, seed)` pair is built once and cached; failures are
    /// not cached, so a retry re-runs the emulator.
    pub fn try_trace_for(
        &mut self,
        w: Workload,
        input_seed: Option<u64>,
    ) -> Result<Arc<Trace>, redsim_workloads::WorkloadError> {
        if let Some(t) = self.cache.get(&(w, input_seed)) {
            return Ok(Arc::clone(t));
        }
        let mut params = self.params(w);
        if let Some(seed) = input_seed {
            params.seed = seed;
        }
        let trace = Arc::new(w.trace(params, Workload::TRACE_BUDGET)?);
        self.cache.insert((w, input_seed), Arc::clone(&trace));
        Ok(trace)
    }

    /// Every job's trace, in job order, built on the caller's thread so
    /// that workers only share them read-only. A trace that cannot be
    /// built is a persistent [`JobErrorKind::Trace`] failure of its job.
    pub fn traces(&mut self, jobs: &[Job]) -> Vec<Result<Arc<Trace>, JobFailure>> {
        jobs.iter()
            .map(|j| {
                self.try_trace_for(j.workload, j.input_seed)
                    .map_err(|e| JobFailure::new(JobErrorKind::Trace, e.to_string()))
            })
            .collect()
    }

    /// Wall-clock throughput accumulated over every simulation this
    /// harness has run (timing simulation only; functional trace
    /// construction is excluded).
    #[must_use]
    pub fn perf(&self) -> &Throughput {
        &self.perf
    }

    /// Cycle-accounting aggregate (productive vs attributed stall
    /// cycles) over every simulation this harness has run. Deterministic
    /// — unlike [`Harness::perf`] it carries no wall-clock values, so
    /// it is safe to include in golden outputs.
    #[must_use]
    pub fn stall_summary(&self) -> &StallSummary {
        &self.stalls
    }

    /// Runs an experiment grid, fanning the jobs across `threads`
    /// worker threads ([`par_map`]).
    ///
    /// Traces are materialized up front ([`Harness::traces`], once per
    /// distinct workload); the workers then share them read-only.
    /// Results come back in job order, and because every simulation is
    /// single-threaded and deterministic, the output is bit-identical
    /// for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if any job fails; use [`Harness::try_sweep`] to degrade
    /// gracefully instead.
    pub fn sweep(&mut self, jobs: &[Job], threads: usize) -> Vec<SimStats> {
        let (stats, errors) = self.try_sweep(jobs, threads);
        assert!(
            errors.is_empty(),
            "sweep job failed: {} ({})",
            errors[0].label,
            errors[0].message
        );
        stats
    }

    /// Runs an experiment grid without aborting on individual-job
    /// failure: a job that returns a simulation error *or panics* is
    /// isolated, its slot in the returned stats is a default-valued
    /// placeholder, and a structured [`JobError`] records what
    /// happened. The remaining jobs still run to completion.
    pub fn try_sweep(&mut self, jobs: &[Job], threads: usize) -> (Vec<SimStats>, Vec<JobError>) {
        self.try_sweep_with(jobs, threads, |_, _| {})
    }

    /// [`Harness::try_sweep`] with a per-job completion callback.
    ///
    /// `on_done(index, result)` fires once per job, from the worker
    /// thread that finished it, as soon as the result is known —
    /// completion *order* is thread-schedule dependent, but each call's
    /// content is deterministic. On success the callback also receives
    /// the job's windowed-metrics series (empty unless the job set
    /// [`Job::with_metrics_window`]), so a caller can record or report
    /// progress as each job finishes.
    ///
    /// A job whose *trace* cannot be materialized (workload assembly or
    /// emulation failure) is reported as a [`JobError`] like any other
    /// failure; the remaining jobs still run.
    pub fn try_sweep_with(
        &mut self,
        jobs: &[Job],
        threads: usize,
        on_done: impl Fn(usize, Result<(&SimStats, &[WindowSample]), &JobError>) + Sync,
    ) -> (Vec<SimStats>, Vec<JobError>) {
        let traces = self.traces(jobs);
        let results = par_map(jobs.len(), threads, |i| {
            let outcome = match &traces[i] {
                Ok(trace) => run_job_isolated(trace, &jobs[i]),
                Err(e) => Err(e.clone()),
            };
            match outcome {
                Ok(r) => {
                    on_done(i, Ok((&r.0, r.2.as_slice())));
                    Ok(r)
                }
                Err(failure) => {
                    let err = JobError::from_failure(i, jobs[i].label(), failure);
                    on_done(i, Err(&err));
                    Err(err)
                }
            }
        });
        // Accumulate in job order so the total is thread-count
        // independent apart from the wall-clock values themselves.
        let mut errors = Vec::new();
        let stats = results
            .into_iter()
            .map(|r| match r {
                Ok((stats, perf, _)) => {
                    self.perf.add(&perf);
                    self.stalls.add_run(&stats);
                    stats
                }
                Err(e) => {
                    errors.push(e);
                    SimStats::default()
                }
            })
            .collect();
        (stats, errors)
    }
}

/// Arithmetic mean.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (n−1 denominator); 0 for fewer than two
/// samples.
#[must_use]
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Formats replicated samples as `mean±stddev` with `decimals` fraction
/// digits; a single sample renders without the `±` suffix.
#[must_use]
pub fn pm(xs: &[f64], decimals: usize) -> String {
    if xs.len() < 2 {
        format!("{:.decimals$}", mean(xs))
    } else {
        format!("{:.decimals$}±{:.decimals$}", mean(xs), stddev(xs))
    }
}

/// A fixed-width text table printer for the figure binaries.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numeric-looking cells, left-align labels.
                let numeric = cell
                    .chars()
                    .all(|ch| ch.is_ascii_digit() || "+-.%x".contains(ch));
                if numeric && i > 0 {
                    line.push_str(&format!("{cell:>w$}", w = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<w$}", w = widths[i]));
                }
            }
            line
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// The table as a JSON object: `{"header": [...], "rows": [[...]]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let header: Json = self.header.iter().map(|h| Json::from(h.as_str())).collect();
        let rows: Json = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| Json::from(c.as_str())).collect::<Json>())
            .collect();
        Json::obj().field("header", header).field("rows", rows)
    }
}

/// Prints a figure's result table, honouring `--json`.
///
/// In text mode this reproduces the binaries' traditional layout: the
/// title, a parenthesized note including the quick-mode flag, a blank
/// line, then the aligned table. `perf` (usually [`Harness::perf`])
/// reports the host-side wall-clock throughput of the runs behind the
/// figure: in JSON it lands in a trailing `"perf"` field; in text mode
/// it goes to *stderr*, keeping stdout captures byte-stable across
/// machines.
///
/// `errors` (usually the second half of [`Harness::try_sweep`]) lists
/// the grid cells that failed: in JSON they become an `"errors"` array
/// before `"perf"`; in text mode each is reported on stderr. Callers
/// are expected to exit nonzero when the slice is non-empty.
///
/// `stalls` (usually [`Harness::stall_summary`]) is the deterministic
/// cycle-accounting aggregate behind the figure: in JSON it lands in a
/// `"stalls"` field after `"table"`; in text mode it prints one stderr
/// line, keeping stdout captures byte-stable.
pub fn emit(
    cli: &Cli,
    title: &str,
    note: &str,
    table: &Table,
    stalls: &StallSummary,
    errors: &[JobError],
    perf: &Throughput,
) {
    let report = Report {
        title,
        note,
        table,
        extra: None,
    };
    report.print(cli, stalls, errors, perf);
}

/// The end of every harness-run figure binary: prints the table through
/// [`emit`] with the harness's stall and perf totals, then exits 1 if any
/// job failed. `extra` is one more JSON field, placed after `"table"`
/// (text mode leaves it out).
pub fn finish(
    cli: &Cli,
    title: &str,
    note: &str,
    table: &Table,
    extra: Option<(&str, Json)>,
    h: &Harness,
    errors: &[JobError],
) {
    let report = Report {
        title,
        note,
        table,
        extra,
    };
    report.print(cli, h.stall_summary(), errors, h.perf());
    if !errors.is_empty() {
        std::process::exit(1);
    }
}

/// What [`emit`] and [`finish`] print besides the harness totals.
struct Report<'a> {
    title: &'a str,
    note: &'a str,
    table: &'a Table,
    extra: Option<(&'a str, Json)>,
}

impl Report<'_> {
    fn print(self, cli: &Cli, stalls: &StallSummary, errors: &[JobError], perf: &Throughput) {
        if cli.json {
            let mut out = Json::obj()
                .field("title", self.title)
                .field("note", self.note)
                .field("quick", cli.quick)
                .field("table", self.table.to_json());
            if let Some((key, value)) = self.extra {
                out = out.field(key, value);
            }
            let out = out
                .field("stalls", stalls.to_json())
                .field(
                    "errors",
                    errors.iter().map(JobError::to_json).collect::<Json>(),
                )
                .field("perf", perf.to_json());
            println!("{out}");
            return;
        }
        println!("{}", self.title);
        if self.note.is_empty() {
            println!("(quick mode: {})\n", cli.quick);
        } else {
            println!("({}, quick mode: {})\n", self.note, cli.quick);
        }
        print!("{}", self.table.render());
        for e in errors {
            eprintln!("error: job {} ({}): {}", e.index, e.label, e.message);
        }
        if stalls.cycles > 0 {
            let b = &stalls.stalls;
            eprintln!(
                "stalls: {} of {} cycles productive; frontend {}, deps {}, issue {}, \
                 fu {}, irb-port {}, exec {}, commit {}, rewind {}",
                stalls.productive_cycles,
                stalls.cycles,
                b.frontend_empty,
                b.waiting_deps,
                b.issue_starved,
                b.fu_contention,
                b.irb_port,
                b.execution,
                b.commit_blocked,
                b.rewind,
            );
        }
        if perf.wall_seconds > 0.0 {
            eprintln!(
                "perf: {:.2}s wall, {:.2}M cycles/s, {:.2}M insts/s \
                 ({} sim cycles, {} committed insts)",
                perf.wall_seconds,
                perf.cycles_per_sec() / 1e6,
                perf.insts_per_sec() / 1e6,
                perf.sim_cycles,
                perf.committed_insts,
            );
        }
    }
}

/// Formats a ratio as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Formats an IPC with three decimals.
#[must_use]
pub fn ipc(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["app", "ipc"]);
        t.row(vec!["gzip", "1.234"]);
        t.row(vec!["a", "2.0"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn empty_table_renders_without_panicking() {
        // Regression: `2 * (cols - 1)` underflowed for a header-less
        // table; the separator math must saturate instead.
        let t = Table::new(Vec::<String>::new());
        let s = t.render();
        assert_eq!(s, "\n\n");
        let mut one = Table::new(vec!["only"]);
        one.row(vec!["x"]);
        assert!(one.render().contains("only"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn table_to_json_shape() {
        let mut t = Table::new(vec!["app", "ipc"]);
        t.row(vec!["gzip", "1.234"]);
        assert_eq!(
            t.to_json().to_string(),
            r#"{"header":["app","ipc"],"rows":[["gzip","1.234"]]}"#
        );
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    /// The shared flags plus `--seeds` and `--metrics-window`.
    const ALL_SHARED: FlagTable = FlagTable {
        synopsis: "",
        positionals: 0,
        flags: &[
            &SHARED_FLAGS,
            &[SEEDS_FLAG, Flag::value("--metrics-window", "N", "")],
        ],
    };

    #[test]
    fn cli_parses_shared_flags() {
        let cli = Cli::try_from_vec(
            &RECOVERY_CLI,
            &args(&[
                "--quick",
                "--json",
                "--threads",
                "3",
                "--forwarding",
                "per-stream",
            ]),
        )
        .expect("valid");
        assert!(cli.quick);
        assert!(cli.json);
        assert_eq!(cli.threads, 3);
        assert_eq!(cli.flags.value("--forwarding"), Some("per-stream"));
        // A flag the figure's table does not declare is refused.
        assert_eq!(
            Cli::try_from_vec(&FIGURE_CLI, &args(&["--forwarding", "shared"])).err(),
            Some(FlagError::Unknown("--forwarding".into()))
        );
    }

    #[test]
    fn env_flag_truthiness_treats_zero_and_false_as_off() {
        use std::ffi::OsStr;
        // Regression: REDSIM_QUICK=0 used to enable quick mode because
        // the check was `var_os(..).is_some()`.
        assert!(!env_value_enabled(None));
        assert!(!env_value_enabled(Some(OsStr::new(""))));
        assert!(!env_value_enabled(Some(OsStr::new("0"))));
        assert!(!env_value_enabled(Some(OsStr::new("false"))));
        assert!(!env_value_enabled(Some(OsStr::new("FALSE"))));
        assert!(!env_value_enabled(Some(OsStr::new("False"))));
        assert!(env_value_enabled(Some(OsStr::new("1"))));
        assert!(env_value_enabled(Some(OsStr::new("true"))));
        assert!(env_value_enabled(Some(OsStr::new("yes"))));
        // "00" is deliberately on: only the exact spellings are off.
        assert!(env_value_enabled(Some(OsStr::new("00"))));
    }

    #[test]
    fn cli_rejects_nonpositive_thread_and_seed_counts() {
        let refused = |v: &[&str]| match Cli::try_from_vec(&ALL_SHARED, &args(v)) {
            Err(FlagError::Invalid { flag, value, .. }) => Some((flag, value)),
            _ => None,
        };
        assert_eq!(
            refused(&["--threads", "0"]),
            Some(("--threads", "0".into()))
        );
        assert_eq!(
            refused(&["--threads", "many"]),
            Some(("--threads", "many".into()))
        );
        assert_eq!(refused(&["--seeds", "0"]), Some(("--seeds", "0".into())));
        assert_eq!(refused(&["--seeds", "-3"]), Some(("--seeds", "-3".into())));
        let ok = Cli::try_from_vec(&ALL_SHARED, &args(&["--threads", "2", "--seeds", "3"]))
            .expect("valid");
        assert_eq!((ok.threads, ok.seeds), (2, 3));
    }

    #[test]
    fn cli_rejects_a_zero_metrics_window() {
        // Regression: `--metrics-window 0` used to flow through to the
        // sampler (or be silently reinterpreted per binary) instead of
        // being a typed usage error like `--threads 0` / `--seeds 0`.
        for bad in ["0", "lots"] {
            let e = Cli::try_from_vec(&ALL_SHARED, &args(&["--metrics-window", bad]));
            assert!(
                matches!(
                    e,
                    Err(FlagError::Invalid {
                        flag: "--metrics-window",
                        ..
                    })
                ),
                "{bad}: {e:?}"
            );
        }
        let ok = Cli::try_from_vec(&ALL_SHARED, &args(&["--metrics-window", "512"]));
        assert_eq!(ok.expect("valid").metrics_window, Some(512));
        let none = Cli::try_from_vec(&ALL_SHARED, &[]).expect("valid");
        assert_eq!(none.metrics_window, None);
    }

    #[test]
    fn cli_rejects_a_numeric_flag_without_a_value() {
        // Regression: a numeric flag given as the last argument matched
        // no `--flag value` pair, so `fig2 --threads` ran the default
        // (every core) instead of failing; the same held for the rate
        // overrides, so `fig_faults --fu-rate` ran the default rates.
        for (table, v) in [
            (&ALL_SHARED, &["--quick", "--threads"][..]),
            (&ALL_SHARED, &["--seeds"]),
            (&ALL_SHARED, &["--threads", "2", "--metrics-window"]),
            (&FAULTS_CLI, &["--quick", "--threads", "2", "--fu-rate"]),
        ] {
            let e = Cli::try_from_vec(table, &args(v)).err();
            assert!(
                matches!(e, Some(FlagError::MissingValue(_))),
                "{v:?}: {e:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "valid shared CLI arguments")]
    fn from_vec_panics_on_rejected_arguments() {
        let _ = Cli::try_from_vec(&FIGURE_CLI, &args(&["--threads", "0"]))
            .expect("valid shared CLI arguments");
    }

    #[test]
    fn harness_accumulates_a_conserving_stall_summary() {
        let mut h = Harness::new(true);
        let cfg = MachineConfig::paper_baseline();
        let s1 = h
            .sweep(&[Job::new(Workload::Gzip, ExecMode::Sie, &cfg)], 1)
            .remove(0);
        let jobs = vec![Job::new(Workload::Gzip, ExecMode::DieIrb, &cfg)];
        let swept = h.sweep(&jobs, 1);
        let sum = h.stall_summary();
        assert_eq!(sum.cycles, s1.cycles + swept[0].cycles);
        assert_eq!(
            sum.productive_cycles + sum.stalls.total(),
            sum.cycles,
            "aggregated cycle accounting must still partition"
        );
    }

    #[test]
    fn harness_trace_is_cached_and_stable() {
        let mut h = Harness::new(true);
        let a = h.trace(Workload::Gzip);
        let b = h.trace(Workload::Gzip);
        assert!(Arc::ptr_eq(&a, &b), "second call reuses the cached trace");
        assert!(!a.is_empty());
    }

    #[test]
    fn sweep_matches_individual_runs() {
        let mut h = Harness::new(true);
        let cfg = MachineConfig::paper_baseline();
        let jobs = vec![
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg),
            Job::new(Workload::Gzip, ExecMode::Die, &cfg),
            Job::new(Workload::Mcf, ExecMode::DieIrb, &cfg),
        ];
        let swept = h.sweep(&jobs, 1);
        for (s, job) in swept.iter().zip(&jobs) {
            let trace = h.trace(job.workload);
            assert_eq!(*s, run_job_isolated(&trace, job).expect("job runs").0);
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let mut h = Harness::new(true);
        let cfg = MachineConfig::paper_baseline();
        let mut jobs = Vec::new();
        for w in [Workload::Gzip, Workload::Mcf] {
            for mode in [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb] {
                jobs.push(Job::new(w, mode, &cfg));
            }
        }
        jobs.push(
            Job::new(Workload::Gzip, ExecMode::Die, &cfg).with_faults(FaultConfig {
                fu_rate: 1e-4,
                seed: 7,
                ..FaultConfig::none()
            }),
        );
        let serial = h.sweep(&jobs, 1);
        let parallel = h.sweep(&jobs, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_returns_results_in_index_order() {
        for threads in [1, 2, 8] {
            let squares = par_map(50, threads, |i| i * i);
            assert_eq!(squares, (0..50).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_runs_every_index_exactly_once() {
        for (n, threads) in [(0, 4), (3, 8), (17, 1), (17, 4)] {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map(n, threads, |i| runs[i].fetch_add(1, Ordering::Relaxed));
            assert_eq!(
                out,
                vec![0; n],
                "n={n} threads={threads}: no index ran twice"
            );
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "n={n} threads={threads}: every index ran"
            );
        }
    }

    #[test]
    fn par_map_on_one_thread_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = par_map(5, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller), "no thread was spawned");
    }

    #[test]
    fn sweep_of_empty_grid_is_empty() {
        let mut h = Harness::new(true);
        assert!(h.sweep(&[], 8).is_empty());
    }

    #[test]
    fn stddev_and_pm_formatting() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert_eq!(stddev(&[2.0, 4.0]), f64::sqrt(2.0));
        assert_eq!(pm(&[1.25], 2), "1.25");
        assert_eq!(pm(&[1.0, 2.0], 1), "1.5±0.7");
    }

    #[test]
    fn input_seed_changes_the_cached_trace() {
        let mut h = Harness::new(true);
        let base = h.try_trace_for(Workload::Gzip, None).expect("trace");
        let same = h.try_trace_for(Workload::Gzip, None).expect("trace");
        assert!(Arc::ptr_eq(&base, &same));
        let other = h.try_trace_for(Workload::Gzip, Some(99)).expect("trace");
        assert!(!Arc::ptr_eq(&base, &other), "seeds get distinct traces");
    }

    #[test]
    fn try_sweep_isolates_a_panicking_job() {
        let mut h = Harness::new(true);
        let cfg = MachineConfig::paper_baseline();
        // fu_rate 2.0 is invalid; `run_job` rejects it through
        // `Simulator::try_with_faults`, exercising the error path.
        let bad = FaultConfig {
            fu_rate: 2.0,
            ..FaultConfig::none()
        };
        let jobs = vec![
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg),
            Job::new(Workload::Gzip, ExecMode::Die, &cfg).with_faults(bad),
            Job::new(Workload::Gzip, ExecMode::DieIrb, &cfg),
        ];
        let (stats, errors) = h.try_sweep(&jobs, 2);
        assert_eq!(stats.len(), 3);
        assert!(stats[0].ipc() > 0.0, "healthy jobs still complete");
        assert!(stats[2].ipc() > 0.0, "healthy jobs still complete");
        assert_eq!(
            stats[1],
            SimStats::default(),
            "failed slot is a placeholder"
        );
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].index, 1);
        assert_eq!(errors[0].label, "gzip/Die");
        assert!(
            errors[0].message.contains("invalid fault configuration"),
            "panic message survives: {}",
            errors[0].message
        );
    }

    #[test]
    #[should_panic(expected = "sweep job failed")]
    fn sweep_still_panics_on_job_failure() {
        let mut h = Harness::new(true);
        let cfg = MachineConfig::paper_baseline();
        let bad = FaultConfig {
            fu_rate: -1.0,
            ..FaultConfig::none()
        };
        let jobs = vec![Job::new(Workload::Gzip, ExecMode::Die, &cfg).with_faults(bad)];
        let _ = h.sweep(&jobs, 1);
    }

    #[test]
    fn try_sweep_with_reports_every_completion() {
        use std::sync::Mutex;
        let mut h = Harness::new(true);
        let cfg = MachineConfig::paper_baseline();
        let jobs = vec![
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg),
            Job::new(Workload::Gzip, ExecMode::Die, &cfg),
        ];
        let seen = Mutex::new(Vec::new());
        let (stats, errors) = h.try_sweep_with(&jobs, 2, |i, r| {
            seen.lock().unwrap().push((i, r.is_ok()));
        });
        assert!(errors.is_empty());
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, true), (1, true)]);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn metrics_windows_flow_through_the_callback() {
        use std::sync::Mutex;
        let mut h = Harness::new(true);
        let cfg = MachineConfig::paper_baseline();
        let jobs = vec![
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg).with_metrics_window(512),
            Job::new(Workload::Gzip, ExecMode::Sie, &cfg),
        ];
        let committed = Mutex::new(0u64);
        let (stats, errors) = h.try_sweep_with(&jobs, 1, |i, r| {
            let (s, windows) = r.expect("jobs succeed");
            if i == 0 {
                assert!(!windows.is_empty(), "windowed job yields samples");
                let cycle_sum: u64 = windows.iter().map(WindowSample::cycles).sum();
                assert_eq!(cycle_sum, s.cycles, "windows tile the whole run");
                *committed.lock().unwrap() =
                    windows.iter().map(|w| w.counters.committed_insts).sum();
            } else {
                assert!(windows.is_empty(), "metrics-free job yields none");
            }
        });
        assert!(errors.is_empty());
        assert_eq!(*committed.lock().unwrap(), stats[0].committed_insts);
        assert_eq!(
            stats[0], stats[1],
            "metrics collection is observationally pure"
        );
    }

    #[test]
    fn panic_payloads_are_preserved_verbatim() {
        let mut h = Harness::new(true);
        let trace = h.trace(Workload::Gzip);
        let mut cfg = MachineConfig::paper_baseline();
        cfg.fetch_width = 0; // Simulator::new panics in validate().
        let job = Job::new(Workload::Gzip, ExecMode::Sie, &cfg);
        let err = match run_job_isolated(&trace, &job) {
            Err(e) => e,
            Ok(_) => panic!("an invalid config must fail the job"),
        };
        assert_eq!(err.kind, JobErrorKind::Panic);
        assert_eq!(
            err.panic_payload.as_deref(),
            Some("fetch width must be positive"),
            "the payload survives without any prefix or rewording"
        );
        assert_eq!(err.message, "panic: fetch width must be positive");
    }

    #[test]
    fn error_kinds_classify_and_round_trip() {
        assert!(!JobErrorKind::Sim.is_transient());
        assert!(!JobErrorKind::Trace.is_transient());
        assert!(JobErrorKind::Panic.is_transient());
        assert!(JobErrorKind::Deadline.is_transient());
        assert!(JobErrorKind::Io.is_transient());
        assert!(JobErrorKind::Injected.is_transient());
        for k in [
            JobErrorKind::Sim,
            JobErrorKind::Trace,
            JobErrorKind::Panic,
            JobErrorKind::Deadline,
            JobErrorKind::Io,
            JobErrorKind::Injected,
        ] {
            assert_eq!(JobErrorKind::parse_lossy(k.as_str()), k);
        }
        // Unknown spellings degrade to the non-retried kind.
        assert_eq!(JobErrorKind::parse_lossy("gamma-ray"), JobErrorKind::Sim);
    }

    #[test]
    fn a_raised_cancel_flag_fails_the_job_as_a_deadline() {
        use std::sync::atomic::AtomicBool;
        let mut h = Harness::new(true);
        let trace = h.trace(Workload::Gzip);
        let cfg = MachineConfig::paper_baseline();
        let flag = Arc::new(AtomicBool::new(true)); // already expired
        let job = Job::new(Workload::Gzip, ExecMode::Sie, &cfg).with_cancel(Arc::clone(&flag));
        let err = match run_job_isolated(&trace, &job) {
            Err(e) => e,
            Ok(_) => panic!("a pre-raised flag must cancel the run"),
        };
        assert_eq!(err.kind, JobErrorKind::Deadline);
        assert!(
            err.message.contains("host wall-clock deadline"),
            "message names the mechanism: {}",
            err.message
        );
        // An unarmed job over the same trace is untouched by the flag.
        let clean = Job::new(Workload::Gzip, ExecMode::Sie, &cfg);
        let (stats, _, _) = run_job_isolated(&trace, &clean).expect("clean run completes");
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn job_error_json_carries_kind_and_panic_payload() {
        let err = JobError {
            index: 3,
            label: "gzip/Sie".into(),
            message: "panic: boom".into(),
            kind: JobErrorKind::Panic,
            panic_payload: Some("boom".into()),
        };
        let s = err.to_json().to_string();
        assert!(s.contains(r#""kind":"panic""#), "{s}");
        assert!(s.contains(r#""panic":"boom""#), "{s}");
        let plain = JobError {
            index: 0,
            label: "gzip/Sie".into(),
            message: "pipeline made no progress near cycle 7".into(),
            kind: JobErrorKind::Sim,
            panic_payload: None,
        };
        let s = plain.to_json().to_string();
        assert!(s.contains(r#""kind":"sim""#), "{s}");
        assert!(!s.contains(r#""panic""#), "no payload field when none: {s}");
    }

    #[test]
    fn watchdog_job_comes_back_flagged_not_failed() {
        let mut h = Harness::new(true);
        let cfg = MachineConfig::paper_baseline();
        let jobs = vec![Job::new(Workload::Gzip, ExecMode::Sie, &cfg).with_watchdog(50)];
        let (stats, errors) = h.try_sweep(&jobs, 1);
        assert!(errors.is_empty(), "a tripped watchdog is not a job error");
        assert!(stats[0].watchdog_fired);
    }
}
