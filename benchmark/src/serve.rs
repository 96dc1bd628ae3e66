//! serve-cold and serve-warm: closed-loop clients driving a
//! `redsim-serve serve --unix … --workers 2` child, plus serve-warm's
//! open-loop HTTP poller.
//!
//! Both restart the daemon before every round. The daemon's memory tier
//! keeps every trace it has touched, so a daemon kept across rounds
//! would grow with the number of rounds a run happens to fit; a fresh
//! daemon per round keeps rounds identical and `peak_rss_mib` a property
//! of one round's traffic.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use redsim_isa::emu::Emulator;
use redsim_serve::spec::{JobSpec, DEFAULT_TRACE_BUDGET};
use redsim_util::hash::fx64;
use redsim_util::{Json, Rng};

use crate::plan::{self, Kind};
use crate::proc::{http_get, prom_value, Conn, Daemon, PidRegistry, ScratchDir, CLIENT_TIMEOUT};
use crate::report::{ms, set_end_to_end, timed_rounds, JobTime, Round, WorkloadResult, SETUP_REPS};
use crate::stats::{percentile, poisson_schedule};
use crate::RunConfig;

/// Closed-loop clients of serve-cold, one persistent connection each.
pub const COLD_CLIENTS: usize = 2;

/// serve-warm's closed-loop client, beside its poller.
pub const WARM_CLIENTS: usize = 1;

/// serve-warm's poller: Poisson arrivals per second.
pub const POLL_HZ: f64 = 30.0;

/// Every this many polls is a `GET /metrics` instead of a job result.
pub const METRICS_EVERY: usize = 10;

/// One answered job.
#[derive(Debug, Clone)]
pub struct JobDone {
    /// Client-side latency from sending the submit to receiving the
    /// result, in ms.
    pub latency_ms: f64,
    /// The result payload.
    pub res: Json,
}

/// Submits `spec` and waits for its result on one connection.
///
/// # Errors
///
/// Transport errors, refusals, or a response without an id or result.
pub fn submit_wait(conn: &mut Conn, spec: &JobSpec) -> io::Result<JobDone> {
    let t0 = Instant::now();
    let spec_json = Json::parse(&spec.canonical())
        .map_err(|e| io::Error::other(format!("canonical spec: {e}")))?;
    let ack = conn.request_ok(&Json::obj().field("op", "submit").field("spec", spec_json))?;
    let id = ack
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| io::Error::other(format!("submit answer without id: {ack}")))?;
    let done = conn.request_ok(
        &Json::obj()
            .field("op", "wait")
            .field("id", id)
            .field("timeout_ms", CLIENT_TIMEOUT.as_millis() as u64),
    )?;
    let res = done
        .get("res")
        .cloned()
        .ok_or_else(|| io::Error::other(format!("wait answer without result: {done}")))?;
    Ok(JobDone {
        latency_ms: ms(t0.elapsed()),
        res,
    })
}

/// Runs `specs` through `clients` closed-loop clients, each on its own
/// persistent connection, taking jobs in order from a shared queue.
/// Returns the wall time and each job's outcome, in spec order.
pub fn closed_loop(
    sock: &Path,
    specs: &[JobSpec],
    clients: usize,
) -> (Duration, Vec<io::Result<JobDone>>) {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<io::Result<JobDone>>> = specs.iter().map(|_| OnceLock::new()).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut conn = Conn::connect(sock);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let out = match &mut conn {
                        Ok(c) => submit_wait(c, &specs[i]),
                        Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
                    };
                    if out.is_err() {
                        conn = Conn::connect(sock); // a failed request may leave the stream mid-line
                    }
                    let _ = slots[i].set(out);
                }
            });
        }
    });
    let wall = t0.elapsed();
    let outs = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|| Err(io::Error::other("job never ran")))
        })
        .collect();
    (wall, outs)
}

/// The committed instructions a good result reports.
fn result_insts(res: &Json) -> Option<u64> {
    (res.get("ok").and_then(Json::as_bool) == Some(true))
        .then(|| res.get("insts").and_then(Json::as_u64))
        .flatten()
}

/// Counts the outcome of the job in `slot` and adds a good one to the
/// round; returns the good result's committed instructions.
fn tally(
    res: &mut WorkloadResult,
    round: &mut Round,
    slot: usize,
    spec: &JobSpec,
    out: &io::Result<JobDone>,
) -> Option<u64> {
    let insts = out.as_ref().ok().and_then(|d| result_insts(&d.res));
    res.op(insts.is_some(), || match out {
        Ok(d) => format!("{}: {}", spec.canonical(), d.res),
        Err(e) => format!("{}: {e}", spec.canonical()),
    });
    if let (Some(insts), Ok(done)) = (insts, out) {
        round.jobs.push(JobTime {
            slot,
            ms: done.latency_ms,
            insts,
        });
    }
    insts
}

/// The instruction count of a spec's trace by in-process emulation —
/// the reference the daemon's answers are checked against.
fn emulated_insts(spec: &JobSpec) -> Result<u64, String> {
    let program = spec
        .workload
        .program(spec.params())
        .map_err(|e| e.to_string())?;
    Emulator::new(&program)
        .run(DEFAULT_TRACE_BUDGET)
        .map_err(|e| e.to_string())
}

/// Checks every answered job's instruction count against an in-process
/// emulation of the same spec (outside the timed phase).
fn verify_insts(res: &mut WorkloadResult, answered: &[(JobSpec, u64)]) {
    let mut reference = HashMap::new();
    for (spec, insts) in answered {
        let want = reference
            .entry((spec.workload, spec.params()))
            .or_insert_with(|| emulated_insts(spec));
        res.check(want.as_ref() == Ok(insts), || {
            format!(
                "{}: daemon committed {insts}, emulation says {want:?}",
                spec.canonical()
            )
        });
    }
}

/// Checks the daemon's trace-store counters for one round.
fn check_store(res: &mut WorkloadResult, daemon: &Daemon, want: [(&str, usize); 3]) {
    match daemon.scrape() {
        Ok(text) => {
            for (name, n) in want {
                let got = prom_value(&text, name);
                res.check(got == Some(n as f64), || {
                    format!("{name}: {got:?}, expected {n}")
                });
            }
        }
        Err(e) => res.fail(format!("scrape /metrics: {e}")),
    }
}

/// Runs serve-cold.
#[must_use]
pub fn run_cold(cfg: &RunConfig) -> WorkloadResult {
    let mut res = WorkloadResult::new(Kind::ServeCold.name());
    let registry = PidRegistry::new(&cfg.dir);
    let mut setup = Vec::new();
    let mut peak = None::<f64>;
    let mut answered = Vec::new();
    let mut first_round = String::new();
    let rounds = timed_rounds(cfg.seconds, |r| {
        let mut round = Round::default();
        let started = ScratchDir::create(cfg.dir.join(format!("cold-{r}"))).and_then(|dir| {
            let (daemon, ready) = Daemon::start(&cfg.serve_bin, dir.path(), &registry)?;
            Ok((dir, daemon, ready))
        });
        let (_dir, daemon, ready) = match started {
            Ok(x) => x,
            Err(e) => {
                res.fail(format!("round {r}: daemon start: {e}"));
                return round;
            }
        };
        setup.push(ready.as_secs_f64());
        let specs = plan::cold_round(cfg.size, cfg.seed, r);
        let (wall, outs) = closed_loop(daemon.sock(), &specs, COLD_CLIENTS);
        round.wall = wall;
        for (slot, (spec, out)) in specs.iter().zip(&outs).enumerate() {
            if let Some(insts) = tally(&mut res, &mut round, slot, spec, out) {
                answered.push((spec.clone(), insts));
            }
            if r == 0 {
                if let Ok(d) = out {
                    first_round.push_str(&d.res.to_string());
                    first_round.push('\n');
                }
            }
        }
        check_store(
            &mut res,
            &daemon,
            [
                ("serve_trace_cache_builds_total", specs.len()),
                ("serve_trace_cache_disk_hits_total", 0),
                ("serve_trace_cache_mem_hits_total", 0),
            ],
        );
        peak = max_opt(peak, daemon.peak_rss_mib());
        res.check(daemon.stop(), || {
            format!("round {r}: daemon ignored shutdown")
        });
        round
    });
    verify_insts(&mut res, &answered);
    res.digest = Some(format!("{:016x}", fx64(first_round.as_bytes())));
    set_end_to_end(&mut res, &setup, &rounds, COLD_CLIENTS, peak);
    res
}

/// What serve-warm's poller saw.
#[derive(Debug, Default)]
pub struct PollStats {
    /// Latency of each answered GET, from when it was due, in ms.
    pub latencies_ms: Vec<f64>,
    /// How late each GET was sent, in ms.
    pub late_ms: Vec<f64>,
    /// Failed GETs.
    pub failures: Vec<String>,
}

impl PollStats {
    fn merge(&mut self, other: PollStats) {
        self.latencies_ms.extend(other.latencies_ms);
        self.late_ms.extend(other.late_ms);
        self.failures.extend(other.failures);
    }
}

/// An open-loop poller: `GET /jobs/<id>` on short-lived connections at
/// Poisson times (`rate_hz`, seeded by `seed`), every
/// [`METRICS_EVERY`]-th a `GET /metrics`, until `stop` is raised and at
/// least `min_polls` were sent. Each GET is timed from when it was due,
/// so a stall also charges the requests queued behind it. `accept`
/// decides which answers count as good.
pub fn poll(
    sock: &Path,
    seed: u64,
    rate_hz: f64,
    min_polls: usize,
    ids: u64,
    accept: fn(&str, u16, &str) -> bool,
    stop: &AtomicBool,
) -> PollStats {
    let mut stats = PollStats::default();
    let mut rng = Rng::new(seed ^ 0x9011);
    let t0 = Instant::now();
    for (i, due) in poisson_schedule(seed, rate_hz).enumerate() {
        let due = t0 + due;
        loop {
            let now = Instant::now();
            if i >= min_polls && stop.load(Ordering::Relaxed) {
                return stats;
            }
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
        }
        stats.late_ms.push(ms(Instant::now() - due));
        let path = if i % METRICS_EVERY == METRICS_EVERY - 1 || ids == 0 {
            "/metrics".to_owned()
        } else {
            format!("/jobs/{}", rng.below(ids))
        };
        match http_get(sock, &path) {
            Ok((status, body)) if accept(&path, status, &body) => {
                stats.latencies_ms.push(ms(Instant::now() - due));
            }
            Ok((status, body)) => stats.failures.push(format!("GET {path}: {status} {body}")),
            Err(e) => stats.failures.push(format!("GET {path}: {e}")),
        }
    }
    stats
}

/// Raises a stop flag when dropped, so a poller stops even when the
/// client beside it panics.
#[derive(Debug)]
pub struct StopOnDrop<'a>(pub &'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// serve-warm's acceptance: every polled job is finished, so its result
/// is served; `/metrics` carries the job counters.
fn finished_job_served(path: &str, status: u16, body: &str) -> bool {
    status == 200
        && if path == "/metrics" {
            body.contains("serve_jobs_submitted_total")
        } else {
            Json::parse(body).is_ok_and(|j| j.get("ok").and_then(Json::as_bool) == Some(true))
        }
}

/// Primes a daemon on `dir` with serve-warm's SIE jobs, stops it, and
/// restarts it on the same state (journal reopen, store reopen).
fn prime(
    cfg: &RunConfig,
    dir: &Path,
    registry: &Arc<PidRegistry>,
    res: &mut WorkloadResult,
) -> io::Result<()> {
    let primes = plan::warm_prime(cfg.size, cfg.seed);
    let (daemon, _) = Daemon::start(&cfg.serve_bin, dir, registry)?;
    let (_, outs) = closed_loop(daemon.sock(), &primes, COLD_CLIENTS);
    for (spec, out) in primes.iter().zip(&outs) {
        let good = out
            .as_ref()
            .ok()
            .and_then(|d| result_insts(&d.res))
            .is_some();
        res.check(good, || format!("priming {}: {out:?}", spec.canonical()));
    }
    daemon.stop();
    let (daemon, _) = Daemon::start(&cfg.serve_bin, dir, registry)?;
    daemon.stop();
    Ok(())
}

/// Runs serve-warm.
#[must_use]
pub fn run_warm(cfg: &RunConfig) -> WorkloadResult {
    let mut res = WorkloadResult::new(Kind::ServeWarm.name());
    let registry = PidRegistry::new(&cfg.dir);
    let primes = plan::warm_prime(cfg.size, cfg.seed);

    let mut setup = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let primed = ScratchDir::create(cfg.dir.join(format!("warm-{rep}")))
            .and_then(|dir| prime(cfg, dir.path(), &registry, &mut res).map(|()| dir));
        match primed {
            Ok(dir) => {
                setup.push(t0.elapsed().as_secs_f64());
                state = Some(dir);
            }
            Err(e) => res.fail(format!("set-up: {e}")),
        }
    }
    let Some(state) = state else {
        set_end_to_end(&mut res, &setup, &[], WARM_CLIENTS, None);
        return res;
    };

    let traces = primes.len();
    let mut known_ids = primes.len() as u64;
    let mut peak = None::<f64>;
    let mut polls = PollStats::default();
    let mut answered = Vec::new();
    let mut by_job: HashMap<String, Vec<String>> = HashMap::new();
    let mut first_round = String::new();
    let rounds = timed_rounds(cfg.seconds, |r| {
        let mut round = Round::default();
        let daemon = match Daemon::start(&cfg.serve_bin, state.path(), &registry) {
            Ok((d, _)) => d,
            Err(e) => {
                res.fail(format!("round {r}: daemon restart: {e}"));
                return round;
            }
        };
        let specs = plan::warm_round(cfg.size, cfg.seed, r);
        let stop = AtomicBool::new(false);
        let poll_seed = fx64(format!("serve-warm poll {} {r}", cfg.seed).as_bytes());
        let ((wall, outs), stats) = std::thread::scope(|s| {
            let poller = s.spawn(|| {
                poll(
                    daemon.sock(),
                    poll_seed,
                    POLL_HZ,
                    0,
                    known_ids,
                    finished_job_served,
                    &stop,
                )
            });
            let out = {
                let _stop = StopOnDrop(&stop);
                closed_loop(daemon.sock(), &specs, WARM_CLIENTS)
            };
            (out, poller.join().expect("poller thread"))
        });
        round.wall = wall;
        for f in &stats.failures {
            res.op(false, || f.clone());
        }
        res.attempted += stats.latencies_ms.len() as u64;
        polls.merge(stats);
        for (slot, (spec, out)) in specs.iter().zip(&outs).enumerate() {
            if let Some(insts) = tally(&mut res, &mut round, slot, spec, out) {
                answered.push((spec.clone(), insts));
            }
            if let Ok(d) = out {
                // Results must not depend on the round (only the
                // never-reached watchdog, and so the fingerprint, do).
                let key = format!("{}/{:?}", spec.workload, spec.mode);
                let outcome = ["cycles", "insts", "milli_ipc"]
                    .map(|k| d.res.get(k).map_or_else(String::new, Json::to_string))
                    .join(",");
                by_job.entry(key).or_default().push(outcome);
                if r == 0 {
                    first_round.push_str(&d.res.to_string());
                    first_round.push('\n');
                }
            }
        }
        check_store(
            &mut res,
            &daemon,
            [
                ("serve_trace_cache_builds_total", 0),
                ("serve_trace_cache_disk_hits_total", traces),
                ("serve_trace_cache_mem_hits_total", specs.len() - traces),
            ],
        );
        known_ids += specs.len() as u64;
        peak = max_opt(peak, daemon.peak_rss_mib());
        res.check(daemon.stop(), || {
            format!("round {r}: daemon ignored shutdown")
        });
        round
    });
    for (job, outcomes) in &by_job {
        res.check(outcomes.windows(2).all(|w| w[0] == w[1]), || {
            format!("{job}: results differ between rounds: {outcomes:?}")
        });
    }
    verify_insts(&mut res, &answered);
    res.digest = Some(format!("{:016x}", fx64(first_round.as_bytes())));
    note_polls(&mut res, &polls);
    set_end_to_end(&mut res, &setup, &rounds, WARM_CLIENTS, peak);
    res
}

/// The larger of two optional readings.
fn max_opt(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) | (None, x) => x,
    }
}

/// Adds the poller's latency percentiles and lateness to the notes.
fn note_polls(res: &mut WorkloadResult, polls: &PollStats) {
    let lat = &polls.latencies_ms;
    res.note("http_gets", lat.len());
    if let Some(p50) = percentile(lat, 50) {
        res.note("http_p50_ms", p50);
    }
    if let Some(p90) = percentile(lat, 90) {
        res.note("http_p90_ms", p90);
    }
    if let Some(max) = polls.late_ms.iter().copied().reduce(f64::max) {
        res.note("poller_late_max_ms", max);
        res.note(
            "poller_late_mean_ms",
            polls.late_ms.iter().sum::<f64>() / polls.late_ms.len() as f64,
        );
    }
}
