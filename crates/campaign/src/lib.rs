#![warn(missing_docs)]

//! # redsim-campaign
//!
//! A fault-injection campaign runner built for interruption: it
//! enumerates a deterministic list of *shards* (one simulation per
//! `(scenario, workload, fault-seed)` cell), builds their traces with
//! the bench [`Harness::traces`], fans them across the same ordered
//! pool the figure sweeps use ([`redsim_bench::par_map`]), and
//! checkpoints every completed shard to an append-only JSONL *progress
//! manifest* so a killed campaign resumes where it stopped. What is its
//! own is the supervision of each shard, the abort flag a failed append
//! raises, and the append itself.
//!
//! Robustness properties, by construction rather than by testing luck:
//!
//! * **Deterministic shard list** — [`CampaignSpec::shards`] derives
//!   the full grid from the spec alone; the spec's canonical JSON is
//!   hashed ([`CampaignSpec::fingerprint`]) into the manifest header so
//!   a resume against a *different* campaign is rejected, never merged.
//! * **Per-shard isolation** — a shard that panics or returns a
//!   simulation error is recorded as a structured failure
//!   (`"ok":false`) and the remaining shards still run
//!   ([`supervisor::execute_shard`] runs each attempt through
//!   [`redsim_bench::run_job_isolated`], which wraps it in
//!   `catch_unwind`).
//! * **Livelock containment** — the spec's watchdog deadline bounds
//!   every shard in simulated cycles; a tripped watchdog classifies the
//!   shard's pending faults as `Hang` and completes normally.
//! * **Byte-identical reports** — progress lines land in completion
//!   order (thread-schedule dependent) but each line's *content* is
//!   deterministic, and the final report embeds the record lines sorted
//!   by shard id. Any thread count, and any interrupt/resume split,
//!   produces the identical report file.
//! * **Crash-consistent manifests** — the manifest ([`manifest`]) is a
//!   [`framed_log`]: every record carries its own checksum; a torn
//!   trailing frame (the process was killed mid-write) is discarded on
//!   resume and its shard re-runs, while a damaged *interior* frame is
//!   a typed [`CampaignError::Corrupt`] naming the line — never a
//!   silent skip.
//!   Resume rewrites the manifest and writes the report atomically
//!   (temp file + rename + fsync barriers per [`FsyncPolicy`]), and all
//!   filesystem traffic flows through a swappable [`Io`] backend so the
//!   chaos tests can inject EINTR, short writes, ENOSPC, fsync failures
//!   and kills at every write boundary.
//! * **Supervised shards** — each shard runs under the [`supervisor`]:
//!   host wall-clock deadlines (distinct from the simulated-cycle
//!   watchdog), deterministic retry with capped exponential backoff for
//!   transient failures, and quarantine with graceful degradation when
//!   the retry budget runs out.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use redsim_bench::{par_map, Harness, RATE_FLAGS, SEEDS_FLAG, SHARED_FLAGS};
pub use redsim_bench::{Job, JobError, JobErrorKind, JobFailure};
use redsim_core::{
    ExecMode, FaultConfig, FaultLifecycle, FlightRecorder, ForwardingPolicy, Histogram,
    Instrumentation, MachineConfig, NullMetrics, SimStats, StallBreakdown, StallSummary,
    TraceSource, WindowSample,
};
use redsim_util::flags::{Flag, FlagTable};
use redsim_util::framed_log::{self, Appender};
use redsim_util::hash::FxHasher;
use redsim_util::io::{atomic_write, FsyncPolicy, Io, RealIo};
use redsim_util::Json;
use redsim_workloads::Workload;

pub mod manifest;
pub mod supervisor;

use manifest::header_line;
use supervisor::execute_shard;
pub use supervisor::{DeadlineMonitor, FlakePlan, RetryPolicy, ShardFailure};

/// The command line of `fig_coverage`: the figure flags, `--seeds`,
/// `--metrics-window`, the strike-rate overrides, then its own.
#[rustfmt::skip]
pub const COVERAGE_CLI: FlagTable = FlagTable::new("[options]", 0, &[&SHARED_FLAGS, &[
    SEEDS_FLAG,
    Flag::value("--metrics-window", "N", "IPC series window in cycles (default 10000)"),
], &RATE_FLAGS, &[
    Flag::value("--out", "PATH", "campaign files base (default target/campaign/fig_coverage)"),
    Flag::switch("--resume", "skip the shards the manifest records"),
    Flag::value("--interrupt-after", "K", "stop after K new shards, exit 3"),
    Flag::value("--watchdog", "N", "per-shard deadline in cycles (default 50000000)"),
    Flag::value("--retry-max", "N", "attempts per shard before quarantine (default 3)"),
    Flag::value("--backoff-ms", "MS", "base retry backoff, doubling (default 25)"),
    Flag::value("--host-deadline-ms", "MS", "host wall-clock deadline per attempt"),
    Flag::value("--fsync", "always|critical|never", "manifest durability (default critical)"),
    Flag::value("--chaos-seed", "S", "route campaign IO through a chaos backend"),
    Flag::value("--chaos-rate", "R", "chaos per-op fault rate (default 0.02; needs --chaos-seed)"),
    Flag::value("--chaos-kill-after", "N", "chaos: emulate a SIGKILL at the N-th IO op (needs --chaos-seed)"),
]]);

/// Process exit codes shared by the campaign binaries, so scripts can
/// tell the degradation modes apart.
pub mod exit_codes {
    /// Completed, but at least one shard is recorded as failed.
    pub const SHARD_FAILURES: i32 = 1;
    /// Usage error, spec mismatch, or a corrupt manifest.
    pub const USAGE: i32 = 2;
    /// Interrupted with shards still pending (resume to continue).
    pub const INTERRUPTED: i32 = 3;
    /// Completed with quarantined shards: every failure was transient
    /// and the retry budget ran out — partial results are in the
    /// report.
    pub const QUARANTINED: i32 = 4;
    /// A host IO failure stopped the campaign; re-run with `--resume`.
    pub const IO: i32 = 5;
}

/// One fault-injection scenario: an execution mode plus where and how
/// often to strike.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short stable name, used in shard labels and the report summary.
    pub name: String,
    /// Execution mode under test.
    pub mode: ExecMode,
    /// Strike sites and rates (replica `r` shifts `seed` by `1000·r`).
    pub faults: FaultConfig,
    /// Forwarding policy — the §3.4 shared-bus escapes exist only under
    /// [`ForwardingPolicy::PrimaryToBoth`].
    pub forwarding: ForwardingPolicy,
}

/// The full, self-describing campaign definition. Everything the
/// runner does — the shard list, each shard's job, the manifest
/// fingerprint — derives deterministically from this value.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The scenarios to sweep.
    pub scenarios: Vec<Scenario>,
    /// The workloads each scenario runs over.
    pub workloads: Vec<Workload>,
    /// Fault-seed replicas per `(scenario, workload)` cell.
    pub seeds: u32,
    /// Use the tiny workload instances.
    pub quick: bool,
    /// Per-shard watchdog deadline in simulated cycles; a shard that
    /// reaches it resolves pending faults as `Hang` instead of spinning
    /// forever.
    pub watchdog: Option<u64>,
    /// Windowed-metrics collection: `Some(n)` samples each shard's IPC
    /// time series every `n` simulated cycles, records the per-window
    /// milli-IPC values in the manifest, and aggregates them into
    /// per-scenario percentile summaries in the report. `None` keeps
    /// the manifest metrics-free.
    pub metrics_window: Option<u64>,
}

/// One cell of the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position in the deterministic shard list (the manifest key).
    pub id: usize,
    /// Index into [`CampaignSpec::scenarios`].
    pub scenario: usize,
    /// The workload this shard simulates.
    pub workload: Workload,
    /// Fault-seed replica number (`0..spec.seeds`).
    pub rep: u64,
}

impl CampaignSpec {
    /// The deterministic shard list: scenarios × workloads × replicas,
    /// in declaration order.
    #[must_use]
    pub fn shards(&self) -> Vec<Shard> {
        let mut out = Vec::new();
        for (si, _) in self.scenarios.iter().enumerate() {
            for &w in &self.workloads {
                for rep in 0..u64::from(self.seeds) {
                    out.push(Shard {
                        id: out.len(),
                        scenario: si,
                        workload: w,
                        rep,
                    });
                }
            }
        }
        out
    }

    /// The shard's human-readable label (`scenario/workload#sN`).
    #[must_use]
    pub fn label(&self, shard: &Shard) -> String {
        format!(
            "{}/{}#s{}",
            self.scenarios[shard.scenario].name,
            shard.workload.name(),
            shard.rep
        )
    }

    /// Builds the bench [`Job`] for one shard.
    #[must_use]
    pub fn job(&self, shard: &Shard) -> Job {
        let sc = &self.scenarios[shard.scenario];
        let mut cfg = MachineConfig::paper_baseline();
        cfg.forwarding = sc.forwarding;
        let faults = FaultConfig {
            seed: sc.faults.seed + 1000 * shard.rep,
            ..sc.faults
        };
        let mut job = Job::new(shard.workload, sc.mode, &cfg).with_faults(faults);
        if let Some(w) = self.watchdog {
            job = job.with_watchdog(w);
        }
        if let Some(mw) = self.metrics_window {
            job = job.with_metrics_window(mw);
        }
        job
    }

    /// Canonical JSON rendering of the spec — the fingerprint input.
    #[must_use]
    pub fn canonical(&self) -> String {
        let scenarios: Json = self
            .scenarios
            .iter()
            .map(|s| {
                Json::obj()
                    .field("name", s.name.as_str())
                    .field("mode", format!("{:?}", s.mode).as_str())
                    .field("fu_rate", s.faults.fu_rate)
                    .field("forward_rate", s.faults.forward_rate)
                    .field("irb_rate", s.faults.irb_rate)
                    .field("seed", s.faults.seed)
                    .field("forwarding", format!("{:?}", s.forwarding).as_str())
            })
            .collect();
        let workloads: Json = self
            .workloads
            .iter()
            .map(|w| Json::from(w.name()))
            .collect();
        let mut spec = Json::obj()
            .field("scenarios", scenarios)
            .field("workloads", workloads)
            .field("seeds", u64::from(self.seeds))
            .field("quick", self.quick);
        if let Some(w) = self.watchdog {
            spec = spec.field("watchdog", w);
        }
        if let Some(mw) = self.metrics_window {
            spec = spec.field("metrics_window", mw);
        }
        spec.to_string()
    }

    /// A deterministic 64-bit fingerprint of the canonical spec. Stored
    /// in the manifest header; a resume whose spec hashes differently
    /// is rejected instead of silently mixing two campaigns.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write(self.canonical().as_bytes());
        h.finish()
    }
}

/// How to run a campaign: parallelism, resume behaviour, file
/// placement, durability policy and supervision limits.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads for the shard sweep.
    pub threads: usize,
    /// Reuse an existing progress manifest, re-running only the shards
    /// it does not record.
    pub resume: bool,
    /// Test hook: complete at most this many *new* shards, then return
    /// [`CampaignOutcome::Interrupted`] (the binaries exit with code 3).
    pub interrupt_after: Option<usize>,
    /// The append-only JSONL progress manifest.
    pub progress_path: PathBuf,
    /// The final report (written only when every shard is recorded).
    pub report_path: PathBuf,
    /// When set, every shard whose watchdog fired is replayed under a
    /// flight recorder and its trace tail dumped to a sidecar file.
    pub hang_dumps: Option<HangDumpOptions>,
    /// The filesystem backend every manifest/report byte flows through.
    /// [`RealIo`] in production; the chaos tests swap in a fault-
    /// injecting [`redsim_util::io::ChaosIo`].
    pub io: Arc<dyn Io>,
    /// When to fsync manifest records and rewrite/report barriers.
    pub fsync: FsyncPolicy,
    /// Retry discipline for transient shard failures.
    pub retry: RetryPolicy,
    /// Host wall-clock deadline per shard *attempt*; `None` leaves
    /// attempts unbounded in host time (the simulated-cycle watchdog
    /// still applies).
    pub host_deadline: Option<Duration>,
    /// Test hook: a deterministic injected-fault schedule. Not part of
    /// the spec fingerprint, so flaky and clean runs share manifests —
    /// which is what makes retry determinism testable.
    pub flake: Option<FlakePlan>,
}

impl CampaignOptions {
    /// Defaults: single-threaded, no resume, real filesystem, critical
    /// fsync, default retry policy, no deadline, no flake plan.
    #[must_use]
    pub fn new(progress_path: impl Into<PathBuf>, report_path: impl Into<PathBuf>) -> Self {
        CampaignOptions {
            threads: 1,
            resume: false,
            interrupt_after: None,
            progress_path: progress_path.into(),
            report_path: report_path.into(),
            hang_dumps: None,
            io: Arc::new(RealIo),
            fsync: FsyncPolicy::default(),
            retry: RetryPolicy::default(),
            host_deadline: None,
            flake: None,
        }
    }
}

/// Where and how large the hang flight-recorder sidecars are.
#[derive(Debug, Clone)]
pub struct HangDumpOptions {
    /// Sidecar base path; shard `N` dumps to `<base>.hang-N.trace.json`.
    pub base: PathBuf,
    /// Flight-recorder capacity: the newest events kept from the replay.
    pub capacity: usize,
}

/// The sidecar path for one hung shard under `base`.
#[must_use]
pub fn hang_trace_path(base: &Path, shard_id: usize) -> PathBuf {
    PathBuf::from(format!("{}.hang-{shard_id}.trace.json", base.display()))
}

/// Campaign failure: I/O trouble, a manifest that does not belong to
/// this campaign, or one damaged at rest.
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem error on the manifest or report. Transient from the
    /// campaign's point of view: a `--resume` re-run picks up from the
    /// last durable record.
    Io(std::io::Error),
    /// The progress manifest exists but its header does not match this
    /// spec (different fingerprint, shard count or format version), or
    /// a record is out of range.
    Mismatch(String),
    /// An *interior* manifest record failed its checksum or did not
    /// parse. A torn tail is tolerated (the kill window), but damage
    /// before the tail means the file was corrupted at rest — refusing
    /// beats silently re-running shards whose results exist.
    Corrupt {
        /// 1-based line number of the damaged record.
        line: usize,
        /// What exactly failed (framing, checksum, JSON).
        detail: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign i/o error: {e}"),
            CampaignError::Mismatch(m) => write!(f, "campaign manifest mismatch: {m}"),
            CampaignError::Corrupt { line, detail } => {
                write!(f, "campaign manifest corrupt at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// A completed campaign: every shard recorded, report written.
#[derive(Debug)]
pub struct CampaignReport {
    /// The spec fingerprint the manifest carries.
    pub fingerprint: u64,
    /// Verbatim record lines, sorted by shard id (dense `0..shards`).
    pub records: Vec<String>,
    /// Shards recorded as failed (`"ok":false`), quarantined ones
    /// included.
    pub failed: Vec<JobError>,
    /// The quarantined subset of `failed`: transient failures that
    /// survived every retry. Partial results for these shards are
    /// excluded from the aggregates but the campaign still completed —
    /// the binaries exit with [`exit_codes::QUARANTINED`].
    pub quarantined: Vec<JobError>,
    /// The exact report text written to `report_path`.
    pub report: String,
    /// Fault-lifecycle sums of the successful shards, indexed by
    /// scenario, then fault-seed replica (summed over workloads).
    pub lifecycles: Vec<Vec<FaultLifecycle>>,
    /// Stall accounting summed over the successful shards.
    pub stalls: StallSummary,
    /// Flight-recorder sidecars written for hung shards (empty unless
    /// [`CampaignOptions::hang_dumps`] was set and a watchdog fired).
    pub hang_traces: Vec<PathBuf>,
}

/// What a [`run_campaign`] call achieved.
#[derive(Debug)]
pub enum CampaignOutcome {
    /// All shards recorded; the final report was written.
    Complete(Box<CampaignReport>),
    /// Stopped by `interrupt_after` with shards still pending.
    Interrupted {
        /// Shards recorded in the manifest so far.
        completed: usize,
        /// Total shards in the campaign.
        total: usize,
    },
}

fn lifecycle_json(l: &FaultLifecycle) -> Json {
    Json::obj()
        .field("injected", l.injected)
        .field("detected", l.detected)
        .field("masked", l.masked)
        .field("silent", l.silent)
        .field("hung", l.hung)
        .field("detection_latency_sum", l.detection_latency_sum)
        .field("detection_latency_max", l.detection_latency_max)
        .field(
            "latency_histogram",
            l.latency_histogram
                .iter()
                .map(|&b| Json::from(b))
                .collect::<Json>(),
        )
        .field("squash_depth_sum", l.squash_depth_sum)
        .field("refetch_penalty_sum", l.refetch_penalty_sum)
}

/// The inverse of [`lifecycle_json`]; a missing count reads 0.
fn lifecycle_from_json(j: &Json) -> FaultLifecycle {
    let g = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut l = FaultLifecycle {
        injected: g("injected"),
        detected: g("detected"),
        masked: g("masked"),
        silent: g("silent"),
        hung: g("hung"),
        detection_latency_sum: g("detection_latency_sum"),
        detection_latency_max: g("detection_latency_max"),
        squash_depth_sum: g("squash_depth_sum"),
        refetch_penalty_sum: g("refetch_penalty_sum"),
        ..FaultLifecycle::default()
    };
    let buckets = j.get("latency_histogram").and_then(Json::items);
    for (b, v) in l.latency_histogram.iter_mut().zip(buckets.unwrap_or(&[])) {
        *b = v.as_u64().unwrap_or(0);
    }
    l
}

/// What a failed shard writes into its record: the terminal failure,
/// the attempts spent, and the supervisor's verdict.
#[derive(Debug, Clone, Copy)]
struct FailureInfo<'a> {
    failure: &'a JobFailure,
    attempts: u32,
    quarantined: bool,
}

/// The deterministic record line for one completed shard. Successful
/// shards that ran with a metrics window append their per-window
/// milli-IPC series (integers — exactly mergeable downstream).
/// Successful records carry no attempt count: which attempt finally
/// succeeded is host history, and keeping it out of the record is what
/// makes reports byte-identical regardless of retry schedule.
fn record_line(
    shard: &Shard,
    label: &str,
    result: Result<(&SimStats, &[WindowSample]), FailureInfo<'_>>,
) -> String {
    let base = Json::obj()
        .field("kind", "shard")
        .field("id", shard.id)
        .field("scenario", shard.scenario)
        .field("rep", shard.rep)
        .field("label", label);
    match result {
        Ok((s, windows)) => {
            let mut j = base
                .field("ok", true)
                .field("cycles", s.cycles)
                .field("committed_insts", s.committed_insts)
                .field("milli_ipc", s.milli_ipc())
                .field("reuse_pass_permille", s.irb.reuse_pass_permille())
                .field("watchdog_fired", s.watchdog_fired)
                .field("active_commit_cycles", s.active_commit_cycles)
                .field("stalls", s.stalls.to_json())
                .field("injected_fu", s.faults.injected_fu)
                .field("injected_forward", s.faults.injected_forward)
                .field("injected_irb", s.faults.injected_irb)
                .field("legacy_detected", s.faults.detected)
                .field("legacy_escaped", s.faults.escaped)
                .field("silent_sie", s.faults.silent_sie)
                .field("lifecycle", lifecycle_json(&s.fault_lifecycle));
            if !windows.is_empty() {
                j = j.field(
                    "win_milli_ipc",
                    windows
                        .iter()
                        .map(|w| Json::from(w.milli_ipc()))
                        .collect::<Json>(),
                );
            }
            j.to_string()
        }
        Err(info) => {
            let mut j = base
                .field("ok", false)
                .field("error", info.failure.message.as_str())
                .field("ekind", info.failure.kind.as_str())
                .field("attempts", u64::from(info.attempts))
                .field("quarantined", info.quarantined);
            if let Some(p) = &info.failure.panic_payload {
                j = j.field("panic", p.as_str());
            }
            j.to_string()
        }
    }
}

/// Per-scenario counts beside the lifecycle sums.
#[derive(Debug, Default)]
struct ScenarioTally {
    failed: u64,
    quarantined: u64,
    watchdog: u64,
    /// Per-window milli-IPC values across every shard of the
    /// scenario. Bucket-wise mergeable, so the percentiles are a
    /// pure function of the record set — byte-identical at any
    /// thread count or interrupt/resume split.
    ipc_hist: Histogram,
}

/// Everything the report, the failure lists, the hang dumps and
/// [`CampaignReport`] read, folded out of the record lines in one pass.
#[derive(Debug)]
struct Tally {
    /// Scenario × replica, over the successful shards.
    lifecycles: Vec<Vec<FaultLifecycle>>,
    scenarios: Vec<ScenarioTally>,
    stalls: StallSummary,
    /// Failed shards in id order, quarantined ones included.
    failed: Vec<JobError>,
    quarantined: Vec<JobError>,
    /// Ids of the shards whose watchdog fired.
    hung: Vec<usize>,
}

impl Tally {
    /// Parses each record once and drops its parse tree before the
    /// next. Every record was written by [`record_line`] or passed
    /// [`manifest::check_record`] against its shard on resume, so the
    /// fold indexes by `shards[id]` and never by a record's own fields.
    fn fold(spec: &CampaignSpec, shards: &[Shard], records: &BTreeMap<usize, String>) -> Tally {
        let mut t = Tally {
            lifecycles: vec![
                vec![FaultLifecycle::default(); spec.seeds as usize];
                spec.scenarios.len()
            ],
            scenarios: spec
                .scenarios
                .iter()
                .map(|_| ScenarioTally::default())
                .collect(),
            stalls: StallSummary::default(),
            failed: Vec::new(),
            quarantined: Vec::new(),
            hung: Vec::new(),
        };
        for (&id, line) in records {
            let shard = &shards[id];
            let j = Json::parse(line).expect("records are checked on entry");
            debug_assert_eq!(manifest::check_record(&j, shard), Ok(()));
            let flag = |k: &str| j.get(k).and_then(Json::as_bool) == Some(true);
            let count = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
            let text = |k: &str| j.get(k).and_then(Json::as_str);
            let sc = &mut t.scenarios[shard.scenario];
            if !flag("ok") {
                let err = JobError {
                    index: id,
                    label: text("label").unwrap_or("?").to_owned(),
                    message: text("error").unwrap_or("unrecorded error").to_owned(),
                    kind: JobErrorKind::parse_lossy(text("ekind").unwrap_or("sim")),
                    panic_payload: text("panic").map(str::to_owned),
                };
                sc.failed += 1;
                if flag("quarantined") {
                    sc.quarantined += 1;
                    t.quarantined.push(err.clone());
                }
                t.failed.push(err);
                continue;
            }
            if flag("watchdog_fired") {
                sc.watchdog += 1;
                t.hung.push(id);
            }
            for w in j.get("win_milli_ipc").and_then(Json::items).unwrap_or(&[]) {
                sc.ipc_hist.record(w.as_u64().unwrap_or(0));
            }
            t.stalls.cycles += count("cycles");
            t.stalls.productive_cycles += count("active_commit_cycles");
            if let Some(b) = j.get("stalls").and_then(StallBreakdown::from_json) {
                t.stalls.stalls.add(&b);
            }
            if let Some(l) = j.get("lifecycle") {
                t.lifecycles[shard.scenario][shard.rep as usize].add(&lifecycle_from_json(l));
            }
        }
        t
    }
}

/// The per-scenario summary embedded in the report.
fn summary_json(spec: &CampaignSpec, tally: &Tally) -> Json {
    spec.scenarios
        .iter()
        .zip(&tally.scenarios)
        .zip(&tally.lifecycles)
        .map(|((sc, a), reps)| {
            let mut l = FaultLifecycle::default();
            reps.iter().for_each(|r| l.add(r));
            let mut j = Json::obj()
                .field("scenario", sc.name.as_str())
                .field("injected", l.injected)
                .field("detected", l.detected)
                .field("masked", l.masked)
                .field("silent", l.silent)
                .field("hung", l.hung)
                .field("coverage", l.coverage())
                .field("avf", l.avf())
                .field("mean_detection_latency", l.mean_detection_latency())
                .field("failed_shards", a.failed)
                .field("quarantined_shards", a.quarantined)
                .field("watchdog_shards", a.watchdog);
            if a.ipc_hist.count() > 0 {
                j = j.field(
                    "win_milli_ipc",
                    Json::obj()
                        .field("windows", a.ipc_hist.count())
                        .field("p50", a.ipc_hist.percentile(50))
                        .field("p90", a.ipc_hist.percentile(90))
                        .field("p99", a.ipc_hist.percentile(99)),
                );
            }
            j
        })
        .collect()
}

/// Assembles the final report text: header fields, the per-scenario
/// summary, then every record line verbatim, sorted by shard id. Pure
/// function of the record set — hence byte-identical however the
/// campaign was scheduled, interrupted or resumed.
fn report_text(
    spec: &CampaignSpec,
    fingerprint: u64,
    records: &BTreeMap<usize, String>,
    tally: &Tally,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"fingerprint\":\"{fingerprint:016x}\",\"shards\":{},\"failed\":{},\"quarantined\":{},\"summary\":{},\"records\":[",
        records.len(),
        tally.failed.len(),
        tally.quarantined.len(),
        summary_json(spec, tally),
    ));
    for (i, line) in records.values().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(line);
    }
    out.push_str("]}\n");
    out
}

/// Runs (or resumes) a campaign.
///
/// Completed shards checkpoint to `opts.progress_path` as they finish
/// (each supervised by `opts.retry` / `opts.host_deadline`); when every
/// shard is recorded the final report is written atomically to
/// `opts.report_path` and returned. With `opts.interrupt_after` set, at
/// most that many new shards complete before the run stops with
/// [`CampaignOutcome::Interrupted`].
///
/// # Errors
///
/// [`CampaignError::Io`] on filesystem trouble (resume to continue
/// from the last durable record), [`CampaignError::Mismatch`] when
/// resuming against a manifest written by a different campaign, and
/// [`CampaignError::Corrupt`] when an interior manifest record is
/// damaged.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, CampaignError> {
    let io = opts.io.as_ref();
    let shards = spec.shards();
    let fingerprint = spec.fingerprint();
    let header = header_line(fingerprint, shards.len());

    if let Some(dir) = opts.progress_path.parent() {
        io.create_dir_all(dir)?;
    }
    if let Some(dir) = opts.report_path.parent() {
        io.create_dir_all(dir)?;
    }

    let mut done = if opts.resume {
        manifest::load(io, &opts.progress_path, &header, &shards)?
    } else {
        BTreeMap::new()
    };
    // Rewrite the manifest cleanly, so a torn tail from a previous
    // kill never precedes the lines appended next.
    framed_log::rewrite(
        io,
        &opts.progress_path,
        &header,
        done.values(),
        opts.fsync.sync_barriers(),
    )?;

    let mut pending: Vec<Shard> = shards
        .iter()
        .filter(|s| !done.contains_key(&s.id))
        .copied()
        .collect();
    let interrupted = match opts.interrupt_after {
        Some(k) if pending.len() > k => {
            pending.truncate(k);
            true
        }
        _ => false,
    };

    if !pending.is_empty() {
        let jobs: Vec<Job> = pending.iter().map(|s| spec.job(s)).collect();
        let traces = Harness::new(spec.quick).traces(&jobs);
        let sink = Appender::open(io, &opts.progress_path, opts.fsync.sync_records())?;
        let monitor = opts.host_deadline.map(|_| DeadlineMonitor::new());
        // A failed append latches in the sink; the flag stops every
        // worker from running the shards still queued behind it.
        let abort = AtomicBool::new(false);
        let fresh = par_map(pending.len(), opts.threads, |i| {
            if abort.load(Ordering::Relaxed) {
                return None;
            }
            let shard = &pending[i];
            let label = spec.label(shard);
            let injected = opts.flake.as_ref().map_or(0, |f| f.failures_for(shard.id));
            let line = match &traces[i] {
                Err(f) => record_line(
                    shard,
                    &label,
                    Err(FailureInfo {
                        failure: f,
                        attempts: 1,
                        quarantined: false,
                    }),
                ),
                Ok(trace) => match execute_shard(
                    trace,
                    &jobs[i],
                    &opts.retry,
                    monitor.as_ref(),
                    opts.host_deadline,
                    injected,
                ) {
                    Ok((stats, windows)) => record_line(shard, &label, Ok((&stats, &windows))),
                    Err(sf) => record_line(
                        shard,
                        &label,
                        Err(FailureInfo {
                            failure: &sf.failure,
                            attempts: sf.attempts,
                            quarantined: sf.quarantined,
                        }),
                    ),
                },
            };
            if sink.append(&line) {
                Some((shard.id, line))
            } else {
                abort.store(true, Ordering::Relaxed);
                None
            }
        });
        if let Some(e) = sink.error() {
            return Err(CampaignError::Io(e));
        }
        done.extend(fresh.into_iter().flatten());
    }

    if interrupted || done.len() < shards.len() {
        return Ok(CampaignOutcome::Interrupted {
            completed: done.len(),
            total: shards.len(),
        });
    }

    let tally = Tally::fold(spec, &shards, &done);
    let report = report_text(spec, fingerprint, &done, &tally);
    atomic_write(
        io,
        &opts.report_path,
        report.as_bytes(),
        opts.fsync.sync_barriers(),
    )?;

    let mut hang_traces = Vec::new();
    if let Some(dump) = &opts.hang_dumps {
        let mut h = Harness::new(spec.quick);
        for &id in &tally.hung {
            if let Some(p) = dump_hang_trace(spec, &shards[id], opts, dump, &mut h) {
                hang_traces.push(p);
            }
        }
    }

    Ok(CampaignOutcome::Complete(Box::new(CampaignReport {
        fingerprint,
        records: done.into_values().collect(),
        failed: tally.failed,
        quarantined: tally.quarantined,
        report,
        lifecycles: tally.lifecycles,
        stalls: tally.stalls,
        hang_traces,
    })))
}

/// Replays one hung shard deterministically under a flight recorder and
/// writes its Chrome-trace sidecar atomically through the campaign's
/// [`Io`], so a kill mid-dump never leaves a partial sidecar for a
/// resume to keep. The replay is single-threaded and a pure function of
/// the shard's job, so the sidecar bytes are identical however the
/// campaign itself was scheduled. Best-effort post-mortem: a replay or
/// I/O failure skips the sidecar, never fails the campaign.
fn dump_hang_trace(
    spec: &CampaignSpec,
    shard: &Shard,
    opts: &CampaignOptions,
    dump: &HangDumpOptions,
    harness: &mut Harness,
) -> Option<PathBuf> {
    let path = hang_trace_path(&dump.base, shard.id);
    if opts.io.exists(&path) {
        return Some(path); // resumed campaign: the dump is already on disk
    }
    let job = spec.job(shard);
    let trace = harness.try_trace_for(job.workload, job.input_seed).ok()?;
    let mut recorder = FlightRecorder::new(dump.capacity);
    // The shard already ran to classification once; the replay exists
    // only for its event tail, so the stats result is discarded.
    let _ = job.simulator().ok()?.run_source_instrumented(
        &mut TraceSource::new(&trace),
        Instrumentation {
            tracer: &mut recorder,
            metrics: &mut NullMetrics,
            profiler: None,
        },
    );
    let bytes = format!("{}\n", recorder.to_chrome_json());
    atomic_write(
        opts.io.as_ref(),
        &path,
        bytes.as_bytes(),
        opts.fsync.sync_barriers(),
    )
    .ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            scenarios: vec![
                Scenario {
                    name: "die/fu".into(),
                    mode: ExecMode::Die,
                    faults: FaultConfig {
                        fu_rate: 2e-4,
                        seed: 11,
                        ..FaultConfig::none()
                    },
                    forwarding: ForwardingPolicy::PrimaryToBoth,
                },
                Scenario {
                    name: "sie/fu".into(),
                    mode: ExecMode::Sie,
                    faults: FaultConfig {
                        fu_rate: 2e-4,
                        seed: 11,
                        ..FaultConfig::none()
                    },
                    forwarding: ForwardingPolicy::PrimaryToBoth,
                },
            ],
            workloads: vec![Workload::Gzip],
            seeds: 2,
            quick: true,
            watchdog: Some(5_000_000),
            metrics_window: None,
        }
    }

    /// The summary JSON of `records` under `spec`.
    fn summary(spec: &CampaignSpec, records: &BTreeMap<usize, String>) -> String {
        summary_json(spec, &Tally::fold(spec, &spec.shards(), records)).to_string()
    }

    #[test]
    fn shard_list_is_dense_and_deterministic() {
        let spec = tiny_spec();
        let shards = spec.shards();
        assert_eq!(shards.len(), 4);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.id, i);
        }
        assert_eq!(shards, spec.shards());
        assert_eq!(spec.label(&shards[1]), "die/fu/gzip#s1");
    }

    #[test]
    fn fingerprint_tracks_the_spec() {
        let spec = tiny_spec();
        let mut other = tiny_spec();
        other.seeds = 3;
        assert_ne!(spec.fingerprint(), other.fingerprint());
        assert_eq!(spec.fingerprint(), tiny_spec().fingerprint());
        let mut windowed = tiny_spec();
        windowed.metrics_window = Some(4096);
        assert_ne!(spec.fingerprint(), windowed.fingerprint());
    }

    #[test]
    fn window_series_lands_in_records_and_summary_percentiles() {
        let spec = tiny_spec();
        let shard = Shard {
            id: 0,
            scenario: 0,
            workload: Workload::Gzip,
            rep: 0,
        };
        let stats = SimStats::default();
        let w = WindowSample {
            end_cycle: 1000,
            counters: redsim_core::WindowCounters {
                committed_insts: 1500, // 1500 milli-IPC over 1000 cycles
                ..Default::default()
            },
            ..Default::default()
        };
        let line = record_line(&shard, "l", Ok((&stats, &[w, w, w])));
        assert!(line.contains("\"win_milli_ipc\":[1500,1500,1500]"));

        let mut records = BTreeMap::new();
        records.insert(0, line);
        assert!(summary(&spec, &records).contains("\"win_milli_ipc\":{\"windows\":3,\"p50\":1500"));

        // Without windows the summary stays metrics-free.
        let bare = record_line(&shard, "l", Ok((&stats, &[])));
        assert!(!bare.contains("win_milli_ipc"));
        records.insert(0, bare);
        assert!(!summary(&spec, &records).contains("win_milli_ipc"));
    }

    #[test]
    fn replica_shifts_the_fault_seed_only() {
        let spec = tiny_spec();
        let shards = spec.shards();
        let j0 = spec.job(&shards[0]);
        let j1 = spec.job(&shards[1]);
        assert_eq!(j0.faults.unwrap().seed + 1000, j1.faults.unwrap().seed);
        assert_eq!(j0.mode, j1.mode);
        assert_eq!(j0.watchdog, Some(5_000_000));
    }

    #[test]
    fn failure_records_carry_the_supervision_verdict() {
        let spec = tiny_spec();
        let shard = spec.shards()[3];
        let failure = JobFailure {
            kind: JobErrorKind::Panic,
            message: "panic: boom".into(),
            panic_payload: Some("boom".into()),
        };
        let line = record_line(
            &shard,
            "l",
            Err(FailureInfo {
                failure: &failure,
                attempts: 3,
                quarantined: true,
            }),
        );
        let j = Json::parse(&line).expect("record parses");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("ekind").and_then(Json::as_str), Some("panic"));
        assert_eq!(j.get("attempts").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("quarantined").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("panic").and_then(Json::as_str), Some("boom"));

        let mut records = BTreeMap::new();
        records.insert(3, line);
        let tally = Tally::fold(&spec, &spec.shards(), &records);
        assert_eq!(tally.failed.len(), 1);
        assert_eq!(tally.quarantined.len(), 1);
        assert_eq!(tally.failed[0].kind, JobErrorKind::Panic);
        assert_eq!(tally.failed[0].panic_payload.as_deref(), Some("boom"));
        assert_eq!(tally.scenarios[1].quarantined, 1);
    }

    #[test]
    fn report_text_is_a_pure_function_of_the_records() {
        let spec = tiny_spec();
        let mut records = BTreeMap::new();
        records.insert(
            0,
            r#"{"kind":"shard","id":0,"scenario":0,"rep":0,"label":"l","ok":false,"error":"boom"}"#
                .to_owned(),
        );
        let tally = Tally::fold(&spec, &spec.shards(), &records);
        let a = report_text(&spec, 7, &records, &tally);
        let b = report_text(&spec, 7, &records, &tally);
        assert_eq!(a, b);
        assert!(a.contains("\"failed\":1"));
        let parsed = Json::parse(a.trim_end()).expect("report is valid json");
        assert_eq!(
            parsed.get("fingerprint").and_then(Json::as_str),
            Some("0000000000000007")
        );
    }
}
