//! paper-matrix: every SPEC stand-in at default scale × SIE/DIE/DIE-IRB
//! on the paper-baseline machine, driven through
//! `Harness::try_sweep_with` on one thread — the paper's matrix.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use redsim_bench::{Harness, Job};
use redsim_serve::spec::JobSpec;
use redsim_util::hash::fx64;

use crate::plan::{self, Kind};
use crate::proc::peak_rss_mib;
use crate::report::{ms, set_end_to_end, timed_rounds, JobTime, Round, WorkloadResult, SETUP_REPS};
use crate::RunConfig;

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> WorkloadResult {
    let mut res = WorkloadResult::new(Kind::PaperMatrix.name());
    let specs = plan::paper_jobs(cfg.size, cfg.seed);
    let jobs: Vec<Job> = specs.iter().map(JobSpec::to_job).collect();
    let input_seed = Some(plan::paper_input_seed(cfg.seed));

    // Set-up: materialize every trace through a fresh harness cache.
    let mut setup = Vec::new();
    let mut lens = HashMap::new();
    let mut harness = None;
    for _ in 0..SETUP_REPS {
        drop(harness.take()); // free the previous cache before the next build
        let t0 = Instant::now();
        let mut h = Harness::new(cfg.size == plan::Size::Smoke);
        for &w in cfg.size.kernels() {
            match h.try_trace_for(w, input_seed) {
                Ok(t) => {
                    lens.insert(w, t.len() as u64);
                }
                Err(e) => res.fail(format!("trace {w}: {e}")),
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
        harness = Some(h);
    }
    let mut harness = harness.expect("at least one set-up repetition");

    let mut digests: Vec<u64> = Vec::new();
    let rounds = timed_rounds(cfg.seconds, |_| {
        let done = Mutex::new(vec![None; jobs.len()]);
        let t0 = Instant::now();
        let (stats, errors) = harness.try_sweep_with(&jobs, 1, |i, _| {
            done.lock().expect("completion stamps")[i] = Some(Instant::now());
        });
        let wall = t0.elapsed();
        let done = done.into_inner().expect("completion stamps");
        let mut round = Round {
            wall,
            ..Round::default()
        };
        // One thread runs the jobs back to back, so each job's latency
        // is the gap since the previous completion.
        let mut prev = t0;
        let mut latency = vec![None; jobs.len()];
        for (i, at) in done.into_iter().enumerate() {
            if let Some(at) = at {
                latency[i] = Some(ms(at - prev));
                prev = at;
            }
        }
        let mut text = String::new();
        for (i, (job, s)) in jobs.iter().zip(&stats).enumerate() {
            if let Some(e) = errors.iter().find(|e| e.index == i) {
                res.op(false, || format!("{}: {}", e.label, e.message));
                continue;
            }
            res.op(true, String::new);
            res.check(Some(&s.committed_insts) == lens.get(&job.workload), || {
                format!(
                    "{}: committed {} of its trace",
                    job.label(),
                    s.committed_insts
                )
            });
            res.check(s.stall_conservation_holds(), || {
                format!("{}: stall cycles do not conserve", job.label())
            });
            if let Some(ms) = latency[i] {
                round.jobs.push(JobTime {
                    slot: i,
                    ms,
                    insts: s.committed_insts,
                });
            }
            text.push_str(&s.to_json().to_string());
            text.push('\n');
        }
        digests.push(fx64(text.as_bytes()));
        round
    });
    res.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        "simulated statistics differ between rounds".to_owned()
    });
    res.digest = digests.first().map(|d| format!("{d:016x}"));
    set_end_to_end(&mut res, &setup, &rounds, 1, peak_rss_mib(None));
    res
}
