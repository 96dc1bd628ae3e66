//! The traced run. It replays one round of the workload's jobs in
//! process through each layer's public functions, records a span around
//! every call (spans come only from this file: nothing inside the
//! program is instrumented), and derives the per-layer metrics from
//! those spans.
//!
//! The passes, each over the workload's own inputs:
//!
//! 1. trace layers, per distinct trace: `Workload::source`, `assemble`,
//!    `Emulator::run_trace`, the trace codec, the store's persist path
//!    and its three tiers (build, disk hit, memory hit);
//! 2. the core on every trace in SIE, DIE, DIE-IRB and DIE with FU
//!    faults, then DIE-IRB again under the host profiler;
//! 3. `Harness::try_sweep` over the fault-free runs of pass 2;
//! 4. the daemon's call path, per job: journal append, `TraceStore::get`,
//!    `JobSpec::to_job`, `execute_shard`, `SimStats::to_json`, result
//!    payload, journal append — untraced, traced, untraced again, so the
//!    difference is the tracing overhead;
//! 5. journal appends under each fsync policy and `Engine::open` on the
//!    journal pass 4 wrote;
//! 6. the campaign layer: each shard through `execute_shard`, then
//!    `run_campaign` on one and on two threads;
//! 7. a live daemon: ping round trips, fresh-connection accepts, and the
//!    first jobs through a client beside an open-loop HTTP poller.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use redsim_bench::{Harness, Job};
use redsim_campaign::supervisor::{execute_shard, RetryPolicy};
use redsim_campaign::{run_campaign, CampaignOptions, CampaignOutcome, CampaignSpec};
use redsim_core::{
    ExecMode, FaultConfig, HostPhase, HostProfiler, Instrumentation, MachineConfig, NullMetrics,
    NullTracer, SimStats, Simulator, SliceSource,
};
use redsim_isa::asm::assemble;
use redsim_isa::emu::Emulator;
use redsim_isa::trace::DynInst;
use redsim_isa::trace_io::{read_trace, write_trace};
use redsim_serve::engine::{Engine, EngineOptions};
use redsim_serve::journal::{self, JournalSink};
use redsim_serve::spec::{JobSpec, DEFAULT_TRACE_BUDGET};
use redsim_serve::store::{TraceOrigin, TraceStore};
use redsim_util::io::{atomic_write, FsyncPolicy, Io, RealIo};
use redsim_util::{hash::fx64, Json};

use crate::plan::{self, Kind, PAPER_MODES};
use crate::proc::{Conn, Daemon, PidRegistry, ScratchDir};
use crate::report::{ms, WorkloadResult};
use crate::serve::{closed_loop, poll, StopOnDrop, POLL_HZ};
use crate::span::Tracer;
use crate::stats::percentile;
use crate::RunConfig;

/// The core runs per trace: span name, mode, whether FU faults strike.
const CORE_RUNS: [(&str, ExecMode, bool); 4] = [
    ("core.sie", ExecMode::Sie, false),
    ("core.die", ExecMode::Die, false),
    ("core.die_irb", ExecMode::DieIrb, false),
    ("core.fault", ExecMode::Die, true),
];

/// `fig_coverage`'s functional-unit strike rate and seed.
const FU_FAULTS: FaultConfig = FaultConfig {
    fu_rate: 2e-4,
    forward_rate: 0.0,
    irb_rate: 0.0,
    seed: 11,
};

/// Pings timed on one open connection.
const PINGS: usize = 200;
/// Fresh connections timed from connect to the first answer.
const ACCEPTS: usize = 100;
/// Jobs sent through the live daemon for the queue-overhead comparison.
const QUEUE_JOBS: usize = 12;
/// GETs the poller sends at least, so p90 has ten samples beyond it.
const MIN_POLLS: usize = 120;
/// `Engine::open` repetitions.
const ENGINE_OPENS: usize = 3;

/// A distinct trace of the workload: the first job using it (its id)
/// and that job's spec.
type TraceInput = (u64, JobSpec);

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mib(bytes: f64) -> f64 {
    bytes / f64::from(1u32 << 20)
}

/// Runs the traced variant of the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> WorkloadResult {
    let mut res = WorkloadResult::new(cfg.kind.name());
    let mut tr = Tracer::new(true);
    let jobs = plan::replay_jobs(cfg.kind, cfg.size, cfg.seed);
    let inputs = distinct_traces(&jobs);
    let primed = cfg.kind == Kind::ServeWarm;

    // Passes run in an order that keeps at most one copy of the traces
    // resident: pass 1's, then the harness's, then each replay store's.
    let traces = trace_layers(&mut tr, &mut res, &inputs, &cfg.dir);
    let plain = core_pass(&mut tr, &mut res, &inputs, &traces);
    profiler_pass(&mut tr, &mut res, &inputs, &traces, &plain);
    drop(traces);
    harness_pass(&mut tr, &mut res, &inputs, &plain);
    let replay_walls = replay_passes(&mut tr, &mut res, &jobs, &inputs, primed, &cfg.dir);
    campaign_pass(
        &mut tr,
        &mut res,
        &plan::campaign_probe_spec(cfg.kind, cfg.size, cfg.seed),
        &cfg.dir,
    );
    net_pass(&mut tr, &mut res, cfg, &jobs, &inputs, &replay_walls);

    res.selftime_ms = tr.selftime_ms_by_name();
    let events: Json = tr
        .chrome_events(cfg.kind as u64 + 1, cfg.kind.name())
        .into_iter()
        .collect();
    let spans = Json::obj().field("traceEvents", events).to_string();
    if let Err(e) = std::fs::write(spans_path(&cfg.dir), spans) {
        res.fail(format!("writing spans: {e}"));
    }
    res
}

/// Where a traced workload process leaves its spans for the parent.
#[must_use]
pub fn spans_path(dir: &Path) -> PathBuf {
    dir.with_extension("spans.json")
}

/// The distinct traces the jobs need, each with the first job using it.
fn distinct_traces(jobs: &[JobSpec]) -> Vec<TraceInput> {
    let mut seen = HashMap::new();
    let mut out = Vec::new();
    for (i, spec) in jobs.iter().enumerate() {
        if seen.insert((spec.workload, spec.params()), i).is_none() {
            out.push((i as u64, spec.clone()));
        }
    }
    out
}

/// Pass 1: the trace layers and the store's persist path and tiers.
fn trace_layers(
    tr: &mut Tracer,
    res: &mut WorkloadResult,
    inputs: &[TraceInput],
    dir: &Path,
) -> Vec<Option<Arc<[DynInst]>>> {
    let barrier = FsyncPolicy::default().sync_barriers();
    let io: Arc<dyn Io> = Arc::new(RealIo);
    let probe = dir.join("store-probe");
    let (mut source, mut asm) = (Vec::new(), Vec::new());
    let (mut emu_insts, mut emu_s) = (0u64, 0.0);
    let (mut bytes_total, mut enc_s, mut dec_s) = (0usize, 0.0, 0.0);
    let (mut persist, mut build, mut disk, mut mem) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut out = Vec::new();
    for (job, spec) in inputs {
        let job = Some(*job);
        let params = spec.params();
        let (src, d) = tr.span("workloads.source", job, |_| spec.workload.source(params));
        source.push(ms(d));
        let (program, d) = tr.span("isa.asm", job, |_| assemble(&src));
        asm.push(ms(d));
        let program = match program {
            Ok(p) => p,
            Err(e) => {
                res.fail(format!("{}: {e}", spec.workload));
                out.push(None);
                continue;
            }
        };
        let (trace, d) = tr.span("isa.emu", job, |_| {
            Emulator::new(&program).run_trace(DEFAULT_TRACE_BUDGET)
        });
        let trace = match trace {
            Ok(t) => t,
            Err(e) => {
                res.fail(format!("{}: {e}", spec.workload));
                out.push(None);
                continue;
            }
        };
        emu_insts += trace.len() as u64;
        emu_s += d.as_secs_f64();
        let (bytes, d) = tr.span("isa.trace_io.encode", job, |_| {
            let mut b = Vec::new();
            write_trace(&mut b, &trace).map(|()| b)
        });
        enc_s += d.as_secs_f64();
        match bytes {
            Ok(bytes) => {
                bytes_total += bytes.len();
                let (back, d) =
                    tr.span("isa.trace_io.decode", job, |_| read_trace(bytes.as_slice()));
                dec_s += d.as_secs_f64();
                res.check(back.as_ref().is_ok_and(|b| *b == trace), || {
                    format!("{}: the trace codec does not round-trip", spec.workload)
                });
            }
            Err(e) => res.fail(format!("{}: encode: {e}", spec.workload)),
        }

        // The store's persist path: encode, then an atomic replace with
        // the default policy's durability barrier.
        let target = dir.join("persist-probe.rtrc");
        let (written, d) = tr.span("serve.store.persist", job, |_| {
            let mut b = Vec::new();
            write_trace(&mut b, &trace)
                .map_err(|e| std::io::Error::other(e.to_string()))
                .and_then(|()| atomic_write(io.as_ref(), &target, &b, barrier))
        });
        res.check(written.is_ok(), || format!("persist probe: {written:?}"));
        persist.push(ms(d));
        let _ = std::fs::remove_file(&target);

        // The store's tiers: a build in a fresh store, then a disk hit
        // in a second store over the same directory (a restarted
        // daemon's), then a memory hit in that one.
        let _ = std::fs::remove_dir_all(&probe);
        match TraceStore::open(Arc::clone(&io), probe.clone(), barrier) {
            Ok(store) => {
                let d = tier(
                    tr,
                    res,
                    "serve.store.build",
                    job,
                    &store,
                    spec,
                    TraceOrigin::Built,
                );
                build.push(ms(d));
            }
            Err(e) => res.fail(format!("store probe: {e}")),
        }
        match TraceStore::open(Arc::clone(&io), probe.clone(), barrier) {
            Ok(store) => {
                let d = tier(
                    tr,
                    res,
                    "serve.store.disk_hit",
                    job,
                    &store,
                    spec,
                    TraceOrigin::Disk,
                );
                disk.push(ms(d));
                let d = tier(
                    tr,
                    res,
                    "serve.store.mem_hit",
                    job,
                    &store,
                    spec,
                    TraceOrigin::Memory,
                );
                mem.push(us(d));
            }
            Err(e) => res.fail(format!("store probe: {e}")),
        }
        let _ = std::fs::remove_dir_all(&probe);
        out.push(Some(Arc::from(trace)));
    }
    let n = inputs.len();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    res.set("workloads.source_ms", mean(&source), n);
    res.set("isa.asm_ms", mean(&asm), n);
    res.set("isa.emu_mips", emu_insts as f64 / emu_s / 1e6, n);
    res.set(
        "isa.trace_io.encode_mib_s",
        mib(bytes_total as f64) / enc_s,
        n,
    );
    res.set(
        "isa.trace_io.decode_mib_s",
        mib(bytes_total as f64) / dec_s,
        n,
    );
    res.set(
        "isa.trace_io.bytes_per_inst",
        bytes_total as f64 / emu_insts as f64,
        n,
    );
    res.set_median("serve.store.persist_ms_p50", &persist);
    res.set_median("serve.store.build_ms_p50", &build);
    res.set_median("serve.store.disk_hit_ms_p50", &disk);
    res.set_median("serve.store.mem_hit_us_p50", &mem);
    out
}

/// One `TraceStore::get` that must be served from tier `want`.
fn tier(
    tr: &mut Tracer,
    res: &mut WorkloadResult,
    name: &'static str,
    job: Option<u64>,
    store: &TraceStore,
    spec: &JobSpec,
    want: TraceOrigin,
) -> Duration {
    let (got, d) = tr.span(name, job, |_| store.get(spec, DEFAULT_TRACE_BUDGET));
    let origin = got.as_ref().map(|g| g.1).ok();
    res.check(origin == Some(want), || {
        format!("{}: {name} served from {origin:?}", spec.workload)
    });
    d
}

/// One replayed job's journal records and render time.
struct Replayed {
    records: [String; 2],
    stats_json: Duration,
}

/// The result payload the engine journals for a successful job.
fn ok_payload(fp: &str, s: &SimStats) -> String {
    Json::obj()
        .field("ok", true)
        .field("fp", fp)
        .field("cycles", s.cycles)
        .field("insts", s.committed_insts)
        .field("milli_ipc", s.milli_ipc())
        .field("watchdog", s.watchdog_fired)
        .to_string()
}

/// One job through the daemon's call path.
fn replay_one(
    tr: &mut Tracer,
    store: &TraceStore,
    sink: &JournalSink,
    id: u64,
    spec: &JobSpec,
) -> Result<Replayed, String> {
    let job_record = journal::job_record(id, spec);
    if !tr
        .span("serve.journal.append", None, |_| sink.append(&job_record))
        .0
    {
        return Err(format!("journal append: {:?}", sink.error()));
    }
    let (got, _) = tr.span("serve.store.get", None, |_| {
        store.get(spec, DEFAULT_TRACE_BUDGET)
    });
    let (trace, _) = got.map_err(|e| e.to_string())?;
    let (job, _) = tr.span("serve.spec.to_job", None, |_| spec.to_job());
    let (out, _) = tr.span("campaign.execute_shard", None, |_| {
        execute_shard(&trace, &job, &RetryPolicy::default(), None, None, 0)
    });
    let (stats, _) = out.map_err(|f| f.failure.message)?;
    if stats.committed_insts != trace.len() as u64 || !stats.stall_conservation_holds() {
        return Err(format!(
            "committed {} of {} (conservation {})",
            stats.committed_insts,
            trace.len(),
            stats.stall_conservation_holds()
        ));
    }
    let (_, stats_json) = tr.span("core.stats_json", None, |_| stats.to_json().to_string());
    let (payload, _) = tr.span("serve.result", None, |_| {
        ok_payload(&spec.fingerprint_hex(), &stats)
    });
    let done_record = journal::done_record(id, &payload);
    if !tr
        .span("serve.journal.append", None, |_| sink.append(&done_record))
        .0
    {
        return Err(format!("journal append: {:?}", sink.error()));
    }
    Ok(Replayed {
        records: [job_record, done_record],
        stats_json,
    })
}

/// What one replay pass leaves behind.
struct ReplayRun {
    walls_ms: Vec<f64>,
    jobs: Vec<Result<Replayed, String>>,
    store: TraceStore,
    state: ScratchDir,
}

/// Replays `jobs` through the daemon's call path in a fresh state
/// directory laid out as a daemon's (journal plus `traces/`), primed with
/// every trace first when `primed`.
fn replay(
    tr: &mut Tracer,
    jobs: &[JobSpec],
    inputs: &[TraceInput],
    primed: bool,
    dir: PathBuf,
) -> std::io::Result<ReplayRun> {
    let policy = FsyncPolicy::default();
    let io: Arc<dyn Io> = Arc::new(RealIo);
    let state = ScratchDir::create(dir)?;
    let traces_dir = state.path().join("traces");
    if primed {
        let store = TraceStore::open(Arc::clone(&io), traces_dir.clone(), policy.sync_barriers())?;
        for (_, spec) in inputs {
            store
                .get(spec, DEFAULT_TRACE_BUDGET)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
    }
    let journal_path = state.path().join("jobs.progress.jsonl");
    atomic_write(
        io.as_ref(),
        &journal_path,
        format!("{}\n", journal::header_line()).as_bytes(),
        policy.sync_barriers(),
    )?;
    let store = TraceStore::open(Arc::clone(&io), traces_dir, policy.sync_barriers())?;
    let sink = JournalSink::open(io.as_ref(), &journal_path, policy.sync_records())?;
    let mut run = ReplayRun {
        walls_ms: Vec::new(),
        jobs: Vec::new(),
        store,
        state,
    };
    for (i, spec) in jobs.iter().enumerate() {
        let id = i as u64;
        let t0 = Instant::now();
        let (out, _) = tr.span("serve.job", Some(id), |tr| {
            replay_one(tr, &run.store, &sink, id, spec)
        });
        run.walls_ms.push(ms(t0.elapsed()));
        run.jobs.push(out);
    }
    Ok(run)
}

/// Pass 4: the daemon's call path, untraced, traced, then untraced
/// again; the traced pass against the mean of the two around it is the
/// tracing overhead, with steady drift between passes cancelled. Host
/// noise can swamp that difference, so the recorder's own cost (spans
/// recorded times the measured cost of one) is noted beside it. Returns
/// the untraced per-job wall times (the in-process reference the live
/// daemon is compared with).
fn replay_passes(
    tr: &mut Tracer,
    res: &mut WorkloadResult,
    jobs: &[JobSpec],
    inputs: &[TraceInput],
    primed: bool,
    dir: &Path,
) -> Vec<f64> {
    let untraced = |res: &mut WorkloadResult, tag: &str| -> Option<Vec<f64>> {
        match replay(&mut Tracer::new(false), jobs, inputs, primed, dir.join(tag)) {
            Ok(run) => Some(run.walls_ms),
            Err(e) => {
                res.fail(format!("untraced replay: {e}"));
                None
            }
        }
    };
    let Some(before) = untraced(res, "replay-off-1") else {
        return Vec::new();
    };
    let spans_before = tr.spans().len();
    let run = match replay(tr, jobs, inputs, primed, dir.join("replay")) {
        Ok(run) => run,
        Err(e) => {
            res.fail(format!("traced replay: {e}"));
            return before;
        }
    };
    let replay_spans = tr.spans().len() - spans_before;
    for (spec, out) in jobs.iter().zip(&run.jobs) {
        res.op(out.is_ok(), || {
            format!("{}: {:?}", spec.canonical(), out.as_ref().err())
        });
    }
    let stats = run.store.stats();
    res.set("serve.store.builds", stats.builds as f64, 1);
    res.set("serve.store.disk_hits", stats.disk_hits as f64, 1);
    res.set("serve.store.mem_hits", stats.mem_hits as f64, 1);
    // What the memory tier holds once the round is replayed.
    let mut resident = 0usize;
    for (_, spec) in inputs {
        if let Ok((t, TraceOrigin::Memory)) = run.store.get(spec, DEFAULT_TRACE_BUDGET) {
            resident += t.len() * std::mem::size_of::<DynInst>();
        }
    }
    res.set(
        "serve.store.resident_mib",
        mib(resident as f64),
        inputs.len(),
    );
    let renders: Vec<f64> = run
        .jobs
        .iter()
        .flatten()
        .map(|r| us(r.stats_json))
        .collect();
    res.set_median("core.stats_json_us", &renders);
    let ReplayRun {
        walls_ms: traced,
        jobs: replayed,
        store,
        state,
    } = run;
    drop(store); // free the memory tier before the next pass builds its own
    let after = untraced(res, "replay-off-2").unwrap_or_else(|| before.clone());
    let walls: Vec<f64> = before
        .iter()
        .zip(&after)
        .map(|(a, b)| (a + b) / 2.0)
        .collect();
    let (off, on): (f64, f64) = (walls.iter().sum(), traced.iter().sum());
    res.note("replay_untraced_ms", off);
    res.note("replay_traced_ms", on);
    res.note("tracing_overhead_pct", (on - off) / off * 100.0);
    let cost_ns = Tracer::cost_per_span_ns(100_000);
    res.note("span_cost_ns", cost_ns);
    res.note(
        "span_cost_pct",
        (replay_spans as f64 * cost_ns / 1e6) / on * 100.0,
    );

    let records: Vec<&[String; 2]> = replayed.iter().flatten().map(|r| &r.records).collect();
    journal_pass(tr, res, &records, dir);
    engine_pass(tr, res, state.path());
    walls
}

/// Pass 5a: journal appends under each fsync policy.
fn journal_pass(tr: &mut Tracer, res: &mut WorkloadResult, records: &[&[String; 2]], dir: &Path) {
    let io = RealIo;
    let policies = [
        (
            FsyncPolicy::Always,
            "serve.journal.append_us.always",
            "serve.journal.append.always",
        ),
        (
            FsyncPolicy::Critical,
            "serve.journal.append_us.critical",
            "serve.journal.append.critical",
        ),
        (
            FsyncPolicy::Never,
            "serve.journal.append_us.never",
            "serve.journal.append.never",
        ),
    ];
    let mut sinks = Vec::new();
    for (policy, metric, span) in policies {
        let path = dir.join(format!("{span}.jsonl"));
        let sink = atomic_write(
            &io,
            &path,
            format!("{}\n", journal::header_line()).as_bytes(),
            true,
        )
        .and_then(|()| JournalSink::open(&io, &path, policy.sync_records()));
        match sink {
            Ok(s) => sinks.push((s, metric, span, Vec::new())),
            Err(e) => res.fail(format!("{span}: {e}")),
        }
    }
    for rec in records.iter().flat_map(|r| r.iter()) {
        for (sink, _, span, times) in &mut sinks {
            let (ok, d) = tr.span(span, None, |_| sink.append(rec));
            res.check(ok, || format!("{span} failed"));
            times.push(us(d));
        }
    }
    for (_, metric, span, times) in sinks {
        let _ = std::fs::remove_file(dir.join(format!("{span}.jsonl")));
        res.set_median(metric, &times);
    }
}

/// Pass 5b: `Engine::open` on the journal and store the replay left.
fn engine_pass(tr: &mut Tracer, res: &mut WorkloadResult, state: &Path) {
    let mut opens = Vec::new();
    for _ in 0..ENGINE_OPENS {
        let opts = EngineOptions {
            workers: 2,
            ..EngineOptions::default()
        };
        let (engine, d) = tr.span("serve.engine.open", None, |_| {
            Engine::open(Arc::new(RealIo), state, opts)
        });
        match engine {
            Ok(engine) => {
                opens.push(ms(d));
                res.check(engine.status().queued == 0, || {
                    "reopened journal re-queued jobs".into()
                });
                if let Err(e) = engine.close() {
                    res.fail(format!("engine close: {e}"));
                }
            }
            Err(e) => res.fail(format!("engine open: {e}")),
        }
    }
    res.set_median("serve.engine.open_ms", &opens);
}

/// Fault-free core run times per trace: SIE, DIE, DIE-IRB seconds.
type PlainTimes = Vec<Option<[f64; 3]>>;

/// Pass 2: the core in each mode on every trace, plus the model's own
/// (simulated, host-independent) statistics.
fn core_pass(
    tr: &mut Tracer,
    res: &mut WorkloadResult,
    inputs: &[TraceInput],
    traces: &[Option<Arc<[DynInst]>>],
) -> PlainTimes {
    let cfg = MachineConfig::paper_baseline();
    let mut insts = [0u64; 4];
    let mut time = [0.0f64; 4];
    let mut plain = Vec::new();
    let (mut cycles, mut committed) = ([0u64; 3], [0u64; 3]);
    let (mut irb_hits, mut irb_lookups) = (0u64, 0u64);
    let mut recovered = Vec::new();
    for ((job, spec), trace) in inputs.iter().zip(traces) {
        let Some(trace) = trace else {
            plain.push(None);
            continue;
        };
        let mut secs_by_mode = [0.0; 3];
        let mut ipc = [0.0; 3];
        for (k, (name, mode, faulty)) in CORE_RUNS.into_iter().enumerate() {
            let mut sim = Simulator::new(cfg.clone(), mode);
            if faulty {
                sim = sim
                    .try_with_faults(FU_FAULTS)
                    .expect("fig_coverage's fault rates are valid");
            }
            let (out, d) = tr.span(name, Some(*job), |_| {
                sim.run_source(&mut SliceSource::new(trace))
            });
            let s = match out {
                Ok(s) => s,
                Err(e) => {
                    res.fail(format!("{name} {}: {e}", spec.workload));
                    continue;
                }
            };
            res.check(
                s.committed_insts == trace.len() as u64 && s.stall_conservation_holds(),
                || {
                    format!(
                        "{name} {}: committed {} of {}",
                        spec.workload,
                        s.committed_insts,
                        trace.len()
                    )
                },
            );
            insts[k] += s.committed_insts;
            time[k] += d.as_secs_f64();
            if k < 3 {
                secs_by_mode[k] = d.as_secs_f64();
                ipc[k] = s.ipc();
                cycles[k] += s.cycles;
                committed[k] += s.committed_insts;
            }
            if mode == ExecMode::DieIrb {
                irb_hits += s.irb.buffer.pc_hits + s.irb.buffer.victim_hits;
                irb_lookups += s.irb.buffer.lookups;
            }
        }
        plain.push(Some(secs_by_mode));
        let gap = ipc[0] - ipc[1];
        if gap > 1e-9 {
            recovered.push((ipc[2] - ipc[1]) / gap * 1000.0);
        }
    }
    let n = inputs.len();
    for (k, metric) in [
        "core.sie_mips",
        "core.die_mips",
        "core.die_irb_mips",
        "core.fault_mips",
    ]
    .into_iter()
    .enumerate()
    {
        res.set(metric, insts[k] as f64 / time[k] / 1e6, n);
    }
    for (k, metric) in [
        "model.milli_ipc.sie",
        "model.milli_ipc.die",
        "model.milli_ipc.die_irb",
    ]
    .into_iter()
    .enumerate()
    {
        res.set(metric, (committed[k] * 1000 / cycles[k].max(1)) as f64, n);
    }
    res.set(
        "model.irb_hit_permille",
        (irb_hits * 1000 / irb_lookups.max(1)) as f64,
        n,
    );
    let mean = recovered.iter().sum::<f64>() / recovered.len().max(1) as f64;
    res.set(
        "model.loss_recovered_permille",
        mean.round(),
        recovered.len(),
    );
    plain
}

/// Pass 2b: DIE-IRB under the host profiler — phase shares and the
/// profiler's own overhead against the plain runs.
fn profiler_pass(
    tr: &mut Tracer,
    res: &mut WorkloadResult,
    inputs: &[TraceInput],
    traces: &[Option<Arc<[DynInst]>>],
    plain: &PlainTimes,
) {
    let cfg = MachineConfig::paper_baseline();
    let mut prof = HostProfiler::new();
    let (mut profiled, mut unprofiled) = (0.0, 0.0);
    for (((job, spec), trace), plain) in inputs.iter().zip(traces).zip(plain) {
        let (Some(trace), Some(plain)) = (trace, plain) else {
            continue;
        };
        let sim = Simulator::new(cfg.clone(), ExecMode::DieIrb);
        let (out, d) = tr.span("core.die_irb.profiled", Some(*job), |_| {
            sim.run_source_instrumented(
                &mut SliceSource::new(trace),
                Instrumentation {
                    tracer: &mut NullTracer,
                    metrics: &mut NullMetrics,
                    profiler: Some(&mut prof),
                },
            )
        });
        if let Err(e) = out {
            res.fail(format!("profiled {}: {e}", spec.workload));
            continue;
        }
        profiled += d.as_secs_f64();
        unprofiled += plain[2];
    }
    let total = prof.total_nanos().max(1) as f64;
    for (phase, metric) in [
        (HostPhase::Fetch, "core.phase.fetch_share"),
        (HostPhase::Schedule, "core.phase.schedule_share"),
        (HostPhase::Execute, "core.phase.execute_share"),
        (HostPhase::Writeback, "core.phase.writeback_share"),
        (HostPhase::Commit, "core.phase.commit_share"),
    ] {
        res.set(metric, prof.nanos(phase) as f64 / total, inputs.len());
    }
    res.set(
        "core.profiler_overhead",
        profiled / unprofiled - 1.0,
        inputs.len(),
    );
}

/// Pass 3: the figure harness's sweep over the fault-free runs of pass 2,
/// against the sum of those direct `Simulator::run_source` times.
fn harness_pass(
    tr: &mut Tracer,
    res: &mut WorkloadResult,
    inputs: &[TraceInput],
    plain: &PlainTimes,
) {
    let Some((_, first)) = inputs.first() else {
        return;
    };
    let mut h = Harness::new(first.quick);
    let mut jobs: Vec<Job> = Vec::new();
    let mut direct = 0.0;
    for ((_, spec), plain) in inputs.iter().zip(plain) {
        let Some(plain) = plain else { continue };
        if let Err(e) = h.try_trace_for(spec.workload, spec.input_seed) {
            res.fail(format!("harness trace {}: {e}", spec.workload));
            continue;
        }
        for mode in PAPER_MODES {
            jobs.push(
                JobSpec {
                    mode,
                    watchdog: None,
                    faults: None,
                    ..spec.clone()
                }
                .to_job(),
            );
        }
        direct += plain.iter().sum::<f64>();
    }
    let ((_, errors), d) = tr.span("bench.harness.sweep", None, |_| h.try_sweep(&jobs, 1));
    for e in &errors {
        res.fail(format!("harness {}: {}", e.label, e.message));
    }
    res.set(
        "bench.harness_overhead_pct",
        (d.as_secs_f64() - direct) / direct * 100.0,
        jobs.len(),
    );
}

/// Pass 6: the campaign layer — every shard through `execute_shard`, then
/// the whole campaign through `run_campaign` on one and two threads.
fn campaign_pass(tr: &mut Tracer, res: &mut WorkloadResult, spec: &CampaignSpec, dir: &Path) {
    let mut h = Harness::new(spec.quick);
    let mut traces = HashMap::new();
    for &w in &spec.workloads {
        match h.try_trace_for(w, None) {
            Ok(t) => {
                traces.insert(w, t);
            }
            Err(e) => res.fail(format!("campaign trace {w}: {e}")),
        }
    }
    let retry = RetryPolicy::default();
    let mut shard_ms = Vec::new();
    for shard in spec.shards() {
        let Some(trace) = traces.get(&shard.workload) else {
            continue;
        };
        let job = spec.job(&shard);
        let (out, d) = tr.span("campaign.execute_shard", Some(shard.id as u64), |_| {
            execute_shard(trace, &job, &retry, None, None, 0)
        });
        res.check(out.is_ok(), || {
            format!("shard {}: failed", spec.label(&shard))
        });
        shard_ms.push(ms(d));
    }
    drop((h, traces));
    let mut campaign = |threads: usize, name: &'static str| -> Option<f64> {
        let out = ScratchDir::create(dir.join(format!("probe-{name}")));
        let Ok(out) = out else {
            res.fail(format!("{name}: state directory"));
            return None;
        };
        let mut opts = CampaignOptions::new(
            out.path().join("probe.progress.jsonl"),
            out.path().join("probe.report.json"),
        );
        opts.threads = threads;
        let (outcome, d) = tr.span(name, None, |_| run_campaign(spec, &opts));
        match outcome {
            Ok(CampaignOutcome::Complete(r)) if r.failed.is_empty() => Some(d.as_secs_f64()),
            other => {
                res.fail(format!("{name}: {other:?}"));
                None
            }
        }
    };
    let one = campaign(1, "campaign.run_1t");
    let two = campaign(2, "campaign.run_2t");
    let direct_s = shard_ms.iter().sum::<f64>() / 1e3;
    res.set_median("campaign.shard_ms_p50", &shard_ms);
    res.set_or_fail(
        "campaign.overhead_pct",
        one.map(|w| (w - direct_s) / direct_s * 100.0),
        shard_ms.len(),
    );
    res.set_or_fail(
        "campaign.scaling_2t",
        one.zip(two).map(|(a, b)| a / (2.0 * b)),
        shard_ms.len(),
    );
}

/// Poller acceptance for the live-daemon probe: a job the client has not
/// submitted yet is a valid 404.
fn any_answer(_path: &str, status: u16, _body: &str) -> bool {
    status == 200 || status == 404
}

/// Pass 7: a live daemon — ping round trips on an open connection,
/// connect-to-first-answer on fresh connections, and the round's first
/// jobs through one closed-loop client beside the open-loop poller;
/// each job's daemon latency minus its in-process replay is the queue
/// overhead (the net layer, the queue and the worker hand-off).
fn net_pass(
    tr: &mut Tracer,
    res: &mut WorkloadResult,
    cfg: &RunConfig,
    jobs: &[JobSpec],
    inputs: &[TraceInput],
    replay_ms: &[f64],
) {
    let registry = PidRegistry::new(&cfg.dir);
    let started = ScratchDir::create(cfg.dir.join("net")).and_then(|dir| {
        if cfg.kind == Kind::ServeWarm {
            let store = TraceStore::open(
                Arc::new(RealIo),
                dir.path().join("traces"),
                FsyncPolicy::default().sync_barriers(),
            )?;
            for (_, spec) in inputs {
                store
                    .get(spec, DEFAULT_TRACE_BUDGET)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            }
        }
        let (daemon, _) = Daemon::start(&cfg.serve_bin, dir.path(), &registry)?;
        Ok((dir, daemon))
    });
    let (_dir, daemon) = match started {
        Ok(x) => x,
        Err(e) => {
            res.fail(format!("daemon start: {e}"));
            return;
        }
    };
    let ping = Json::obj().field("op", "ping");
    let mut rtt = Vec::new();
    match daemon.connect() {
        Ok(mut conn) => {
            for _ in 0..PINGS {
                let (out, d) = tr.span("serve.net.ping", None, |_| conn.request_ok(&ping));
                res.check(out.is_ok(), || format!("ping: {out:?}"));
                rtt.push(us(d));
            }
        }
        Err(e) => res.fail(format!("connect: {e}")),
    }
    let mut accept = Vec::new();
    for _ in 0..ACCEPTS {
        let (out, d) = tr.span("serve.net.accept", None, |_| {
            Conn::connect(daemon.sock()).and_then(|mut c| c.request_ok(&ping))
        });
        res.check(out.is_ok(), || format!("accept: {out:?}"));
        accept.push(ms(d));
    }
    let k = jobs.len().min(QUEUE_JOBS).min(replay_ms.len());
    let stop = AtomicBool::new(false);
    let seed = fx64(format!("net poll {} {}", cfg.kind.name(), cfg.seed).as_bytes());
    let ((_, outs), polls) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            poll(
                daemon.sock(),
                seed,
                POLL_HZ,
                MIN_POLLS,
                k as u64,
                any_answer,
                &stop,
            )
        });
        let (out, _) = tr.span("serve.net.jobs", None, |_| {
            let _stop = StopOnDrop(&stop);
            closed_loop(daemon.sock(), &jobs[..k], 1)
        });
        (out, poller.join().expect("poller thread"))
    });
    let mut overhead = Vec::new();
    for (j, out) in outs.iter().enumerate() {
        match out {
            Ok(done) => overhead.push(done.latency_ms - replay_ms[j]),
            Err(e) => res.fail(format!("{}: {e}", jobs[j].canonical())),
        }
    }
    for f in &polls.failures {
        res.fail(f.clone());
    }
    res.check(daemon.stop(), || "daemon ignored shutdown".into());
    res.set_median("serve.net.rtt_us_p50", &rtt);
    res.set_median("serve.net.accept_ms_p50", &accept);
    let lat = &polls.latencies_ms;
    res.set_or_fail("serve.net.http_p50_ms", percentile(lat, 50), lat.len());
    res.set_or_fail("serve.net.http_p90_ms", percentile(lat, 90), lat.len());
    res.set_median("serve.queue_overhead_ms_p50", &overhead);
}
