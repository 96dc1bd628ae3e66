//! fault-campaign: `run_campaign` on the `fig_coverage` grid with two
//! worker threads, a fresh manifest per round.
//!
//! Shard latencies come from the campaign's own IO seam: the manifest
//! appender writes one record per finished shard through the [`Io`]
//! backend, so a backend that timestamps those records sees every
//! completion. Workers take shards in id order and take the next one
//! right after appending, so shard `k` starts at the `(k - threads)`-th
//! completion (the first `threads` start when the manifest opens).

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use redsim_bench::Harness;
use redsim_campaign::{run_campaign, CampaignOptions, CampaignOutcome, CampaignSpec};
use redsim_core::StallBreakdown;
use redsim_util::hash::fx64;
use redsim_util::io::{Io, IoFile, RealIo};
use redsim_util::Json;

use crate::plan::{self, Kind};
use crate::proc::{peak_rss_mib, ScratchDir};
use crate::report::{ms, set_end_to_end, timed_rounds, JobTime, Round, WorkloadResult, SETUP_REPS};
use crate::RunConfig;

/// Worker threads of the measured campaign.
pub const THREADS: usize = 2;

#[derive(Debug, Default)]
struct Stamps {
    opened: Option<Instant>,
    records: Vec<(Instant, Vec<u8>)>,
}

/// An [`Io`] over the real filesystem that timestamps every line
/// appended to an append-mode file (the campaign's progress manifest).
#[derive(Debug, Default)]
pub struct StampIo {
    stamps: Arc<Mutex<Stamps>>,
}

struct StampFile {
    inner: Box<dyn IoFile>,
    line: Vec<u8>,
    stamps: Arc<Mutex<Stamps>>,
}

impl IoFile for StampFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        for &b in &buf[..n] {
            if b == b'\n' {
                let line = std::mem::take(&mut self.line);
                self.stamps
                    .lock()
                    .expect("stamp lock")
                    .records
                    .push((Instant::now(), line));
            } else {
                self.line.push(b);
            }
        }
        Ok(n)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl Io for StampIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        RealIo.read_to_string(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealIo.create_dir_all(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        RealIo.create(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        let inner = RealIo.open_append(path)?;
        self.stamps.lock().expect("stamp lock").opened = Some(Instant::now());
        Ok(Box::new(StampFile {
            inner,
            line: Vec::new(),
            stamps: Arc::clone(&self.stamps),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealIo.rename(from, to)
    }

    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
}

impl StampIo {
    /// Per-shard latencies in ms, indexed by shard id, for a campaign
    /// of `shards` shards on `threads` workers with nothing resumed.
    #[must_use]
    pub fn shard_latencies_ms(&self, shards: usize, threads: usize) -> Vec<Option<f64>> {
        let st = self.stamps.lock().expect("stamp lock");
        let ids: Vec<(Instant, Option<usize>)> = st
            .records
            .iter()
            .map(|(at, line)| (*at, shard_id(line)))
            .collect();
        shard_latencies_ms(st.opened, &ids, shards, threads)
    }
}

fn shard_id(line: &[u8]) -> Option<usize> {
    let j = Json::parse(std::str::from_utf8(line).ok()?).ok()?;
    usize::try_from(j.get("rec")?.get("id")?.as_u64()?).ok()
}

/// Shard `k` starts when the manifest opens (`k < threads`) or at the
/// `(k - threads)`-th completion, and ends at its own record.
fn shard_latencies_ms(
    opened: Option<Instant>,
    records: &[(Instant, Option<usize>)],
    shards: usize,
    threads: usize,
) -> Vec<Option<f64>> {
    let mut out = vec![None; shards];
    let Some(opened) = opened else { return out };
    let mut done: Vec<Instant> = records.iter().map(|r| r.0).collect();
    done.sort_unstable();
    for &(at, id) in records {
        let Some(id) = id.filter(|&k| k < shards) else {
            continue;
        };
        let start = if id < threads {
            Some(opened)
        } else {
            done.get(id - threads).copied()
        };
        out[id] = start.map(|s| ms(at.saturating_duration_since(s)));
    }
    out
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> WorkloadResult {
    let mut res = WorkloadResult::new(Kind::FaultCampaign.name());
    let spec = plan::campaign_spec(cfg.size, cfg.seed);

    // Set-up: the campaign's trace materialization, timed on its own;
    // every round repeats it inside `run_campaign`, as every campaign does.
    let mut setup = Vec::new();
    let mut lens = std::collections::HashMap::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut h = Harness::new(spec.quick);
        for &w in &spec.workloads {
            match h.try_trace_for(w, None) {
                Ok(t) => {
                    lens.insert(w.name(), t.len() as u64);
                }
                Err(e) => res.fail(format!("trace {w}: {e}")),
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
    }

    let shards = spec.shards().len();
    let mut digests = Vec::new();
    let rounds = timed_rounds(cfg.seconds, |r| {
        let mut round = Round::default();
        let dir = match ScratchDir::create(cfg.dir.join(format!("campaign-{r}"))) {
            Ok(d) => d,
            Err(e) => {
                res.fail(format!("round {r}: {e}"));
                return round;
            }
        };
        let io = Arc::new(StampIo::default());
        let mut opts = CampaignOptions::new(
            dir.path().join("coverage.progress.jsonl"),
            dir.path().join("coverage.report.json"),
        );
        opts.threads = THREADS;
        opts.io = Arc::clone(&io) as Arc<dyn Io>;
        let t0 = Instant::now();
        let outcome = run_campaign(&spec, &opts);
        round.wall = t0.elapsed();
        let report = match outcome {
            Ok(CampaignOutcome::Complete(report)) => report,
            Ok(CampaignOutcome::Interrupted { completed, total }) => {
                res.fail(format!("round {r}: interrupted at {completed}/{total}"));
                return round;
            }
            Err(e) => {
                res.fail(format!("round {r}: {e}"));
                return round;
            }
        };
        let latency = io.shard_latencies_ms(shards, THREADS);
        let seen = latency.iter().flatten().count();
        res.check(seen == shards, || {
            format!("round {r}: {seen} of {shards} shard completions seen")
        });
        for line in &report.records {
            let ok = check_record(&mut res, &spec, line, &lens);
            res.op(ok.is_some(), || format!("round {r}: shard failed: {line}"));
            if let Some((slot, insts)) = ok {
                if let Some(&Some(ms)) = latency.get(slot) {
                    round.jobs.push(JobTime { slot, ms, insts });
                }
            }
        }
        digests.push(fx64(report.report.as_bytes()));
        round
    });
    res.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        "campaign reports differ between rounds".to_owned()
    });
    res.digest = digests.first().map(|d| format!("{d:016x}"));
    set_end_to_end(&mut res, &setup, &rounds, THREADS, peak_rss_mib(None));
    res
}

/// Checks one shard record: it succeeded without the watchdog firing,
/// committed its whole trace, and its stall cycles conserve. Returns
/// the shard id and committed instructions of a good record.
fn check_record(
    res: &mut WorkloadResult,
    spec: &CampaignSpec,
    line: &str,
    lens: &std::collections::HashMap<&str, u64>,
) -> Option<(usize, u64)> {
    let j = Json::parse(line).ok()?;
    let u = |k: &str| j.get(k).and_then(Json::as_u64);
    if j.get("ok").and_then(Json::as_bool) != Some(true)
        || j.get("watchdog_fired").and_then(Json::as_bool) != Some(false)
    {
        return None;
    }
    let label = j.get("label").and_then(Json::as_str).unwrap_or("?");
    let workload = spec
        .workloads
        .iter()
        .find(|w| label.contains(&format!("/{}#", w.name())))?;
    let insts = u("committed_insts")?;
    res.check(lens.get(workload.name()) == Some(&insts), || {
        format!("{label}: committed {insts} of its trace")
    });
    let stalls = j.get("stalls").and_then(StallBreakdown::from_json)?;
    res.check(
        u("active_commit_cycles")? + stalls.total() == u("cycles")?,
        || format!("{label}: stall cycles do not conserve"),
    );
    Some((usize::try_from(u("id")?).ok()?, insts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn shard_starts_follow_completions_in_fetch_order() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Two workers: shards 0 and 1 start at open; 1 finishes first
        // (10 ms), so shard 2 starts then; 0 finishes at 15, starting 3.
        let records = [
            (at(10), Some(1)),
            (at(15), Some(0)),
            (at(40), Some(2)),
            (at(45), Some(3)),
        ];
        let lat = shard_latencies_ms(Some(t0), &records, 4, 2);
        assert_eq!(lat, vec![Some(15.0), Some(10.0), Some(30.0), Some(30.0)]);
        assert_eq!(
            shard_id(br#"{"crc":"x","rec":{"kind":"shard","id":7}}"#),
            Some(7)
        );
    }
}
