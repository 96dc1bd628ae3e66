//! The job engine: a durable work queue over the campaign shard
//! supervisor.
//!
//! Submissions are deduplicated on the spec fingerprint and journaled
//! before they are acknowledged, so the engine's durable state is
//! exactly the set of acknowledged jobs plus their results. Worker
//! threads pull from a condvar-fronted queue and run each job through
//! [`execute_shard`] — the same retry/backoff/quarantine/host-deadline
//! discipline campaign shards get. Results are integers, bools and
//! strings only, a pure function of the spec, which is what makes the
//! compacted journal byte-identical at any worker count and across
//! any kill/restart schedule.
//!
//! The first journal-append failure latches the engine into an
//! aborted state (the same latch the campaign manifest has): no further
//! submissions are acknowledged and workers stop, so only the
//! journal's final line can ever be torn.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use redsim_campaign::supervisor::{execute_shard, DeadlineMonitor, RetryPolicy};
use redsim_core::{attribution_to_json, Histogram, MetricsRegistry, SimStats};
use redsim_util::io::{FsyncPolicy, Io};
use redsim_util::Json;

use crate::journal::{self, JournalSink, JournalState};
use crate::spec::{JobSpec, DEFAULT_TRACE_BUDGET};
use crate::store::TraceStore;
use crate::ServeError;

/// Engine tuning: worker-pool width, durability, and the supervision
/// discipline handed to [`execute_shard`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Where the durability barriers sit on the journal write path.
    pub fsync: FsyncPolicy,
    /// Retry discipline for transient job failures.
    pub retry: RetryPolicy,
    /// Host wall-clock deadline per attempt, if any.
    pub host_deadline: Option<Duration>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            workers: 1,
            fsync: FsyncPolicy::default(),
            retry: RetryPolicy::default(),
            host_deadline: None,
        }
    }
}

/// A counted client-request category: the native protocol ops plus
/// raw HTTP GETs. Every request the daemon answers increments exactly
/// one of these, so the `/metrics` counters partition the request
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Native `ping` op.
    Ping,
    /// Native `submit` op.
    Submit,
    /// Native `wait` op.
    Wait,
    /// Native `status` op.
    Status,
    /// Native `metrics` op.
    Metrics,
    /// Native `shutdown` op.
    Shutdown,
    /// Raw HTTP GET (the observability API, including `/metrics`).
    Http,
}

impl RequestKind {
    /// All kinds, in exposition order.
    pub const ALL: [RequestKind; 7] = [
        RequestKind::Ping,
        RequestKind::Submit,
        RequestKind::Wait,
        RequestKind::Status,
        RequestKind::Metrics,
        RequestKind::Shutdown,
        RequestKind::Http,
    ];

    /// The kind's wire spelling (used in metric names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Ping => "ping",
            RequestKind::Submit => "submit",
            RequestKind::Wait => "wait",
            RequestKind::Status => "status",
            RequestKind::Metrics => "metrics",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Http => "http",
        }
    }

    fn index(self) -> usize {
        match self {
            RequestKind::Ping => 0,
            RequestKind::Submit => 1,
            RequestKind::Wait => 2,
            RequestKind::Status => 3,
            RequestKind::Metrics => 4,
            RequestKind::Shutdown => 5,
            RequestKind::Http => 6,
        }
    }
}

/// A point-in-time queue summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusSnapshot {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs with a result (successes and failures).
    pub done: usize,
    /// Done jobs whose result is a failure.
    pub failed: usize,
    /// The next id a submission would get.
    pub next_id: u64,
}

struct QState {
    queue: VecDeque<u64>,
    /// Acknowledged jobs, their results and the next id: what the
    /// journal holds.
    journal: JournalState,
    /// fingerprint → id of the first submission with that spec.
    by_fp: HashMap<u64, u64>,
    running: BTreeSet<u64>,
    stop: bool,
    io_error: Option<String>,
}

struct EngineMetrics {
    submitted: u64,
    dedup_hits: u64,
    failed: u64,
    latency_ms: Histogram,
}

struct Shared {
    io: Arc<dyn Io>,
    journal_path: PathBuf,
    opts: EngineOptions,
    store: TraceStore,
    sink: JournalSink,
    monitor: Option<DeadlineMonitor>,
    q: Mutex<QState>,
    work_cv: Condvar,
    done_cv: Condvar,
    metrics: Mutex<EngineMetrics>,
    started: Instant,
    requests: [AtomicU64; 7],
}

/// The durable job engine. Cheap to share behind an `Arc`; all
/// methods take `&self`.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("journal", &self.shared.journal_path)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Opens (or resumes) an engine over `state_dir`: loads the
    /// journal, compacts it atomically (dropping any torn tail from
    /// disk), re-queues every acknowledged job without a result, and
    /// spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`]/[`ServeError::Mismatch`] on a damaged
    /// or foreign journal, [`ServeError::Io`] when the state directory
    /// or journal cannot be prepared.
    pub fn open(
        io: Arc<dyn Io>,
        state_dir: &Path,
        opts: EngineOptions,
    ) -> Result<Self, ServeError> {
        io.create_dir_all(state_dir)?;
        let journal_path = state_dir.join("jobs.progress.jsonl");
        let state = journal::load(io.as_ref(), &journal_path)?;
        // Compact on open: the on-disk journal starts every run clean
        // (no torn tail, records in id order).
        journal::compact(
            io.as_ref(),
            &journal_path,
            &state,
            opts.fsync.sync_barriers(),
        )?;
        let store = TraceStore::open(
            Arc::clone(&io),
            state_dir.join("traces"),
            opts.fsync.sync_barriers(),
        )?;
        let sink = JournalSink::open(io.as_ref(), &journal_path, opts.fsync.sync_records())?;

        let JournalState { specs, results, .. } = &state;
        let by_fp: HashMap<u64, u64> = specs.iter().map(|(&id, s)| (s.fingerprint(), id)).collect();
        let queue: VecDeque<u64> = specs
            .keys()
            .filter(|id| !results.contains_key(id))
            .copied()
            .collect();
        let failed = results.values().filter(|r| !result_is_ok(r)).count() as u64;
        let submitted = specs.len() as u64;

        let shared = Arc::new(Shared {
            io,
            journal_path,
            monitor: opts.host_deadline.is_some().then(DeadlineMonitor::new),
            store,
            sink,
            q: Mutex::new(QState {
                queue,
                journal: state,
                by_fp,
                running: BTreeSet::new(),
                stop: false,
                io_error: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            metrics: Mutex::new(EngineMetrics {
                submitted,
                dedup_hits: 0,
                failed,
                latency_ms: Histogram::new(),
            }),
            started: Instant::now(),
            requests: Default::default(),
            opts,
        });
        let workers = (0..shared.opts.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Engine {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Submits a job. Returns its id and whether the submission was
    /// deduplicated against an identical earlier one (in which case
    /// the id is the earlier job's — re-submission is idempotent, so
    /// a client can blindly replay its submissions after a crash).
    ///
    /// The job record is journaled *before* the submission is
    /// acknowledged: an id returned from here survives `kill -9`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Stopped`] after shutdown, [`ServeError::Io`] when
    /// the journal append failed (the submission is NOT acknowledged
    /// and the engine latches).
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    pub fn submit(&self, spec: &JobSpec) -> Result<(u64, bool), ServeError> {
        let fp = spec.fingerprint();
        let mut q = self.shared.q.lock().expect("engine queue lock");
        if q.stop {
            return Err(ServeError::Stopped);
        }
        if let Some(e) = &q.io_error {
            return Err(ServeError::Io(std::io::Error::other(e.clone())));
        }
        if let Some(&id) = q.by_fp.get(&fp) {
            self.shared.metrics.lock().expect("metrics lock").dedup_hits += 1;
            return Ok((id, true));
        }
        let id = q.journal.next_id;
        if !self.shared.sink.append(&journal::job_record(id, spec)) {
            let e = self
                .shared
                .sink
                .error()
                .map_or_else(|| "journal append failed".to_owned(), |e| e.to_string());
            q.io_error = Some(e.clone());
            self.shared.work_cv.notify_all();
            self.shared.done_cv.notify_all();
            return Err(ServeError::Io(std::io::Error::other(e)));
        }
        q.journal.next_id = id + 1;
        q.journal.specs.insert(id, spec.clone());
        q.by_fp.insert(fp, id);
        q.queue.push_back(id);
        self.shared.metrics.lock().expect("metrics lock").submitted += 1;
        drop(q);
        self.shared.work_cv.notify_one();
        Ok((id, false))
    }

    /// The result of a job, if it has one: the canonical result JSON.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn result(&self, id: u64) -> Option<String> {
        self.shared
            .q
            .lock()
            .expect("engine queue lock")
            .journal
            .results
            .get(&id)
            .cloned()
    }

    /// Blocks until job `id` has a result, the timeout expires
    /// (`Ok(None)`), or the engine stops/aborts.
    ///
    /// # Errors
    ///
    /// [`ServeError::Stopped`] when the engine shut down before the
    /// job completed, [`ServeError::Io`] when the journal latched.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    pub fn wait(&self, id: u64, timeout: Option<Duration>) -> Result<Option<String>, ServeError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut q = self.shared.q.lock().expect("engine queue lock");
        loop {
            if let Some(res) = q.journal.results.get(&id) {
                return Ok(Some(res.clone()));
            }
            if let Some(e) = &q.io_error {
                return Err(ServeError::Io(std::io::Error::other(e.clone())));
            }
            if q.stop {
                return Err(ServeError::Stopped);
            }
            q = match deadline {
                None => self.shared.done_cv.wait(q).expect("engine queue lock"),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    self.shared
                        .done_cv
                        .wait_timeout(q, left)
                        .expect("engine queue lock")
                        .0
                }
            };
        }
    }

    /// Blocks until every queued and running job has a result.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the journal latched mid-drain (the
    /// remaining jobs will re-run on restart).
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    pub fn drain(&self) -> Result<(), ServeError> {
        let mut q = self.shared.q.lock().expect("engine queue lock");
        loop {
            if let Some(e) = &q.io_error {
                return Err(ServeError::Io(std::io::Error::other(e.clone())));
            }
            if q.queue.is_empty() && q.running.is_empty() {
                return Ok(());
            }
            if q.stop {
                return Err(ServeError::Stopped);
            }
            q = self.shared.done_cv.wait(q).expect("engine queue lock");
        }
    }

    /// A point-in-time queue summary.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn status(&self) -> StatusSnapshot {
        let q = self.shared.q.lock().expect("engine queue lock");
        StatusSnapshot {
            queued: q.queue.len(),
            running: q.running.len(),
            done: q.journal.results.len(),
            failed: q
                .journal
                .results
                .values()
                .filter(|r| !result_is_ok(r))
                .count(),
            next_id: q.journal.next_id,
        }
    }

    /// Whether shutdown has been requested.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn stopped(&self) -> bool {
        self.shared.q.lock().expect("engine queue lock").stop
    }

    /// Blocks until shutdown has been requested.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    pub fn wait_stopped(&self) {
        let mut q = self.shared.q.lock().expect("engine queue lock");
        while !q.stop {
            q = self.shared.done_cv.wait(q).expect("engine queue lock");
        }
    }

    /// Requests shutdown: workers finish their in-flight job and
    /// exit; queued jobs stay journaled and re-run on the next open.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    pub fn stop(&self) {
        self.shared.q.lock().expect("engine queue lock").stop = true;
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
    }

    /// Stops the engine, joins the workers, and compacts the journal
    /// to its canonical rendering (header + records in id order).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the compaction write fails (e.g. the
    /// chaos backend was killed); the appended journal on disk is
    /// still recoverable.
    pub fn close(&self) -> Result<(), ServeError> {
        self.stop();
        self.join_workers();
        let q = self.shared.q.lock().expect("engine queue lock");
        journal::compact(
            self.shared.io.as_ref(),
            &self.shared.journal_path,
            &q.journal,
            self.shared.opts.fsync.sync_barriers(),
        )?;
        Ok(())
    }

    /// Counts one answered client request of the given kind. Called
    /// by the transport layer; a relaxed atomic so the hot native
    /// dispatch path takes no lock.
    pub fn count_request(&self, kind: RequestKind) {
        self.shared.requests[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// One line per journaled job, in id order: id, lifecycle state
    /// (`queued`/`running`/`done`/`failed`) and the spec fingerprint.
    /// This is the `/jobs` listing — derived purely from queue state,
    /// so it is deterministic for a drained engine.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn jobs_json(&self) -> Json {
        let q = self.shared.q.lock().expect("engine queue lock");
        q.journal
            .specs
            .iter()
            .map(|(&id, spec)| {
                let state = match q.journal.results.get(&id) {
                    Some(res) if result_is_ok(res) => "done",
                    Some(_) => "failed",
                    None if q.running.contains(&id) => "running",
                    None => "queued",
                };
                Json::obj()
                    .field("id", id)
                    .field("state", state)
                    .field("fp", spec.fingerprint_hex())
                    .field("workload", spec.workload.name())
                    .field("mode", spec.mode.name())
            })
            .collect()
    }

    /// Whether job `id` has been acknowledged (journaled) by this
    /// engine — distinguishes "not finished yet" from "never existed"
    /// for the HTTP results API.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn knows(&self, id: u64) -> bool {
        self.shared
            .q
            .lock()
            .expect("engine queue lock")
            .journal
            .specs
            .contains_key(&id)
    }

    /// Trace-store counters (for the cache-effectiveness tests and
    /// the metrics endpoint).
    #[must_use]
    pub fn store_stats(&self) -> crate::store::StoreStats {
        self.shared.store.stats()
    }

    /// The metrics registry behind `/metrics`: queue gauges, cache
    /// counters and the per-job latency histogram.
    ///
    /// # Panics
    ///
    /// Panics if an engine mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let status = self.status();
        let store = self.shared.store.stats();
        let m = self.shared.metrics.lock().expect("metrics lock");
        let mut reg = MetricsRegistry::new();
        reg.counter(
            "serve_jobs_submitted_total",
            "Acknowledged job submissions (deduplicated re-submissions excluded)",
            m.submitted,
        );
        reg.counter(
            "serve_jobs_dedup_hits_total",
            "Submissions answered by an identical earlier job",
            m.dedup_hits,
        );
        reg.gauge(
            "serve_jobs_queued",
            "Jobs waiting for a worker",
            status.queued as f64,
        );
        reg.gauge(
            "serve_jobs_running",
            "Jobs currently executing",
            status.running as f64,
        );
        reg.gauge("serve_jobs_done", "Jobs with a result", status.done as f64);
        reg.gauge(
            "serve_jobs_failed",
            "Done jobs whose result is a failure",
            status.failed as f64,
        );
        reg.counter(
            "serve_trace_cache_mem_hits_total",
            "Traces served from the in-process map",
            store.mem_hits,
        );
        reg.counter(
            "serve_trace_cache_disk_hits_total",
            "Traces deserialized from the content-addressed store",
            store.disk_hits,
        );
        reg.counter(
            "serve_trace_cache_builds_total",
            "Traces assembled and emulated from source",
            store.builds,
        );
        let lookups = store.mem_hits + store.disk_hits + store.builds;
        reg.gauge(
            "serve_trace_cache_hit_ratio",
            "Fraction of trace lookups served without re-emulation",
            if lookups == 0 {
                0.0
            } else {
                (store.mem_hits + store.disk_hits) as f64 / lookups as f64
            },
        );
        reg.gauge(
            "serve_trace_cache_resident_bytes",
            "Heap bytes held by the trace store's memory tier",
            self.shared.store.resident_bytes() as f64,
        );
        reg.histogram(
            "serve_job_latency_ms",
            "Wall-clock milliseconds per completed job (trace + simulation + retries)",
            m.latency_ms.clone(),
        );
        drop(m);
        reg.gauge(
            "redsim_serve_uptime_seconds",
            "Seconds since this engine was opened",
            self.shared.started.elapsed().as_secs_f64(),
        );
        for kind in RequestKind::ALL {
            reg.counter(
                match kind {
                    RequestKind::Ping => "serve_requests_ping_total",
                    RequestKind::Submit => "serve_requests_submit_total",
                    RequestKind::Wait => "serve_requests_wait_total",
                    RequestKind::Status => "serve_requests_status_total",
                    RequestKind::Metrics => "serve_requests_metrics_total",
                    RequestKind::Shutdown => "serve_requests_shutdown_total",
                    RequestKind::Http => "serve_requests_http_total",
                },
                "Client requests answered, by request kind",
                self.shared.requests[kind.index()].load(Ordering::Relaxed),
            );
        }
        reg
    }

    fn join_workers(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker handle lock")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop();
        self.join_workers();
    }
}

/// Whether a result payload is a success (`"ok":true`). Results are
/// engine-written, so string matching on the canonical prefix is
/// exact.
fn result_is_ok(res: &str) -> bool {
    res.starts_with("{\"ok\":true")
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, spec) = {
            let mut q = shared.q.lock().expect("engine queue lock");
            loop {
                if q.stop || q.io_error.is_some() {
                    return;
                }
                if let Some(id) = q.queue.pop_front() {
                    let spec = q
                        .journal
                        .specs
                        .get(&id)
                        .expect("queued id has a spec")
                        .clone();
                    q.running.insert(id);
                    break (id, spec);
                }
                q = shared.work_cv.wait(q).expect("engine queue lock");
            }
        };
        let t0 = Instant::now();
        let (res, ok) = run_spec(shared, &spec);
        let latency_ms = t0.elapsed().as_millis() as u64;

        let mut q = shared.q.lock().expect("engine queue lock");
        q.running.remove(&id);
        if shared.sink.append(&journal::done_record(id, &res)) {
            q.journal.results.insert(id, res);
            let mut m = shared.metrics.lock().expect("metrics lock");
            m.latency_ms.record(latency_ms);
            if !ok {
                m.failed += 1;
            }
        } else {
            // Latch: the result is lost from this process, the job
            // stays journaled without a result and re-runs on the
            // next open — identical bytes, nothing diverges.
            q.io_error = Some(
                shared
                    .sink
                    .error()
                    .map_or_else(|| "journal append failed".to_owned(), |e| e.to_string()),
            );
            shared.work_cv.notify_all();
        }
        drop(q);
        shared.done_cv.notify_all();
    }
}

/// Runs one spec to its canonical result payload. Every field is an
/// integer, bool or string, and every value is a deterministic
/// function of the spec — the byte-identity property rests here.
fn run_spec(shared: &Shared, spec: &JobSpec) -> (String, bool) {
    let fp = spec.fingerprint_hex();
    let trace = match shared.store.get(spec, DEFAULT_TRACE_BUDGET) {
        Ok((trace, _origin)) => trace,
        Err(e) => {
            let res = Json::obj()
                .field("ok", false)
                .field("fp", fp.as_str())
                .field("stage", "trace")
                .field("error", e.to_string())
                .to_string();
            return (res, false);
        }
    };
    let job = spec.to_job();
    match execute_shard(
        &trace,
        &job,
        &shared.opts.retry,
        shared.monitor.as_ref(),
        shared.opts.host_deadline,
        0,
    ) {
        Ok((stats, _windows)) => (ok_payload(&fp, &stats), true),
        Err(sf) => {
            let res = Json::obj()
                .field("ok", false)
                .field("fp", fp.as_str())
                .field("stage", "sim")
                .field("error", sf.failure.message.as_str())
                .field("kind", sf.failure.kind.as_str())
                .field("attempts", sf.attempts)
                .field("quarantined", sf.quarantined)
                .to_string();
            (res, false)
        }
    }
}

/// The success payload. `"ok":true` must stay the first field — it is
/// the prefix [`result_is_ok`] matches on. The `"attribution"` section
/// appears only when the spec asked for it, so pre-attribution stored
/// results stay byte-identical.
fn ok_payload(fp: &str, stats: &SimStats) -> String {
    let j = Json::obj()
        .field("ok", true)
        .field("fp", fp)
        .field("cycles", stats.cycles)
        .field("insts", stats.committed_insts)
        .field("milli_ipc", stats.milli_ipc())
        .field("watchdog", stats.watchdog_fired);
    match &stats.attribution {
        Some(a) => j
            .field("reuse_pass_permille", stats.irb.reuse_pass_permille())
            .field("attribution", attribution_to_json(a))
            .to_string(),
        None => j.to_string(),
    }
}
