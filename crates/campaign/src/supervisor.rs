//! The shard supervisor: host wall-clock deadlines, deterministic
//! retry with capped exponential backoff, and quarantine.
//!
//! The campaign's simulated-cycle watchdog bounds a shard *inside* the
//! simulation; this module bounds it from *outside*. Each attempt can
//! be armed with a host deadline (a background monitor thread raises
//! the job's cancellation flag when the wall clock expires), and a
//! failed attempt is retried only when its [`JobErrorKind`] is
//! transient — deterministic failures re-fail identically, so retrying
//! them only burns time. A shard that exhausts its retry budget is
//! *quarantined*: recorded as failed with `"quarantined":true`, the
//! campaign degrades gracefully instead of aborting.
//!
//! Everything the supervisor decides is a pure function of the attempt
//! outcomes, so given a deterministic fault schedule (a [`FlakePlan`],
//! or none) the records it produces are byte-identical at any thread
//! count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use redsim_bench::{run_job_isolated, Job, JobErrorKind, JobFailure};
use redsim_core::{SimStats, WindowSample};
use redsim_isa::trace::Trace;

/// Retry discipline for transient shard failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per shard (first try included). The cap on
    /// redundant re-execution — 1 disables retry entirely.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubled per further attempt.
    pub backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The pause after failed attempt number `attempt` (0-based):
    /// `backoff << attempt`, saturating, capped at `backoff_cap`.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.backoff_cap);
        exp.min(self.backoff_cap)
    }
}

/// A deterministic injected-fault schedule for tests: the listed shards
/// fail their first `failures` attempts with a transient
/// [`JobErrorKind::Injected`] error before running for real. Lives in
/// the options (not the spec), so a flaky run and a clean run share a
/// fingerprint and their manifests interoperate — which is exactly what
/// the retry-determinism property needs to be testable.
#[derive(Debug, Clone)]
pub struct FlakePlan {
    /// Shard ids the plan applies to.
    pub shards: Vec<usize>,
    /// Attempts to fail per listed shard before succeeding.
    pub failures: u32,
}

impl FlakePlan {
    /// Injected failures scheduled for `shard_id`.
    #[must_use]
    pub fn failures_for(&self, shard_id: usize) -> u32 {
        if self.shards.contains(&shard_id) {
            self.failures
        } else {
            0
        }
    }
}

/// A shard that ran out of road: its last failure, how many attempts
/// were spent, and whether the supervisor quarantined it (transient
/// failure, retry budget exhausted) or failed it fast (persistent).
#[derive(Debug)]
pub struct ShardFailure {
    /// The last attempt's failure.
    pub failure: JobFailure,
    /// Attempts consumed (>= 1).
    pub attempts: u32,
    /// `true` when a *transient* failure survived every retry; the
    /// shard is excluded from the campaign's aggregates but the sweep
    /// itself degrades gracefully.
    pub quarantined: bool,
}

struct MonitorState {
    next_id: u64,
    /// Armed deadlines: id → (expiry instant, flag to raise).
    armed: BTreeMap<u64, (Instant, Arc<AtomicBool>)>,
    shutdown: bool,
}

struct MonitorShared {
    state: Mutex<MonitorState>,
    cv: Condvar,
}

/// A background thread that raises cancellation flags when host
/// wall-clock deadlines expire. One monitor serves every worker of a
/// campaign: arming is a map insert plus a condvar nudge, so per-shard
/// overhead stays negligible. Dropping the monitor shuts the thread
/// down.
pub struct DeadlineMonitor {
    shared: Arc<MonitorShared>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for DeadlineMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadlineMonitor").finish_non_exhaustive()
    }
}

impl Default for DeadlineMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl DeadlineMonitor {
    /// Spawns the monitor thread.
    #[must_use]
    pub fn new() -> Self {
        let shared = Arc::new(MonitorShared {
            state: Mutex::new(MonitorState {
                next_id: 0,
                armed: BTreeMap::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut st = shared.state.lock().expect("monitor lock");
                loop {
                    if st.shutdown {
                        break;
                    }
                    let now = Instant::now();
                    let mut earliest: Option<Instant> = None;
                    let mut due = Vec::new();
                    for (&id, (at, _)) in &st.armed {
                        if *at <= now {
                            due.push(id);
                        } else if earliest.is_none_or(|e| *at < e) {
                            earliest = Some(*at);
                        }
                    }
                    for id in due {
                        if let Some((_, flag)) = st.armed.remove(&id) {
                            flag.store(true, Ordering::Relaxed);
                        }
                    }
                    st = match earliest {
                        Some(at) => {
                            let wait = at.saturating_duration_since(Instant::now());
                            shared.cv.wait_timeout(st, wait).expect("monitor lock").0
                        }
                        None => shared.cv.wait(st).expect("monitor lock"),
                    };
                }
            })
        };
        DeadlineMonitor {
            shared,
            thread: Some(thread),
        }
    }

    /// Arms a deadline `after` from now and returns the guard holding
    /// the flag to attach via [`Job::with_cancel`]. A zero deadline
    /// raises the flag synchronously — the deterministic path the
    /// quarantine tests lean on (no thread-timing dependence at all).
    #[must_use]
    pub fn arm(&self, after: Duration) -> DeadlineGuard {
        let flag = Arc::new(AtomicBool::new(false));
        if after.is_zero() {
            flag.store(true, Ordering::Relaxed);
            return DeadlineGuard {
                shared: Arc::clone(&self.shared),
                id: None,
                flag,
            };
        }
        let mut st = self.shared.state.lock().expect("monitor lock");
        let id = st.next_id;
        st.next_id += 1;
        st.armed
            .insert(id, (Instant::now() + after, Arc::clone(&flag)));
        drop(st);
        self.shared.cv.notify_one();
        DeadlineGuard {
            shared: Arc::clone(&self.shared),
            id: Some(id),
            flag,
        }
    }
}

impl Drop for DeadlineMonitor {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("monitor lock");
            st.shutdown = true;
        }
        self.cv_notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl DeadlineMonitor {
    fn cv_notify(&self) {
        self.shared.cv.notify_all();
    }
}

/// An armed deadline; dropping it disarms the monitor entry (the run
/// finished first) and releases the flag.
pub struct DeadlineGuard {
    shared: Arc<MonitorShared>,
    id: Option<u64>,
    flag: Arc<AtomicBool>,
}

impl DeadlineGuard {
    /// The cancellation flag to attach to the job.
    #[must_use]
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let mut st = self.shared.state.lock().expect("monitor lock");
            st.armed.remove(&id);
        }
    }
}

/// Runs one shard under the full supervision discipline: injected
/// flake failures first (tests), then real attempts, each optionally
/// bounded by a host deadline; transient failures retry with capped
/// exponential backoff up to the policy's attempt budget.
///
/// # Errors
///
/// [`ShardFailure`] when the shard never succeeded — `quarantined`
/// distinguishes an exhausted retry budget from a fail-fast persistent
/// error.
pub fn execute_shard(
    trace: &Trace,
    job: &Job,
    retry: &RetryPolicy,
    monitor: Option<&DeadlineMonitor>,
    host_deadline: Option<Duration>,
    injected_failures: u32,
) -> Result<(SimStats, Vec<WindowSample>), ShardFailure> {
    let max_attempts = retry.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        let outcome = if attempt < injected_failures {
            Err(JobFailure::new(
                JobErrorKind::Injected,
                "injected transient fault",
            ))
        } else {
            let mut job = job.clone();
            let _guard = match (monitor, host_deadline) {
                (Some(m), Some(d)) => {
                    let g = m.arm(d);
                    job = job.with_cancel(g.flag());
                    Some(g)
                }
                _ => None,
            };
            run_job_isolated(trace, &job).map(|(stats, _perf, windows)| (stats, windows))
        };
        let failure = match outcome {
            Ok(r) => return Ok(r),
            Err(f) => f,
        };
        attempt += 1;
        if !failure.kind.is_transient() {
            return Err(ShardFailure {
                failure,
                attempts: attempt,
                quarantined: false,
            });
        }
        if attempt >= max_attempts {
            return Err(ShardFailure {
                failure,
                attempts: attempt,
                quarantined: true,
            });
        }
        std::thread::sleep(retry.backoff_for(attempt - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(130),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(25));
        assert_eq!(p.backoff_for(1), Duration::from_millis(50));
        assert_eq!(p.backoff_for(2), Duration::from_millis(100));
        assert_eq!(p.backoff_for(3), Duration::from_millis(130));
        assert_eq!(p.backoff_for(63), Duration::from_millis(130));
    }

    #[test]
    fn flake_plan_targets_only_listed_shards() {
        let plan = FlakePlan {
            shards: vec![1, 3],
            failures: 2,
        };
        assert_eq!(plan.failures_for(1), 2);
        assert_eq!(plan.failures_for(3), 2);
        assert_eq!(plan.failures_for(0), 0);
    }

    #[test]
    fn zero_deadline_raises_the_flag_synchronously() {
        let m = DeadlineMonitor::new();
        let g = m.arm(Duration::ZERO);
        assert!(g.flag().load(Ordering::Relaxed));
    }

    #[test]
    fn expired_deadline_raises_the_flag_and_drop_disarms() {
        let m = DeadlineMonitor::new();
        let g = m.arm(Duration::from_millis(5));
        let flag = g.flag();
        let t0 = Instant::now();
        while !flag.load(Ordering::Relaxed) {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "deadline never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(g);
        // A disarmed deadline never fires: arm far out, drop, wait past
        // nothing — the map no longer holds the entry.
        let g2 = m.arm(Duration::from_secs(3600));
        let flag2 = g2.flag();
        drop(g2);
        std::thread::sleep(Duration::from_millis(10));
        assert!(!flag2.load(Ordering::Relaxed));
    }
}
