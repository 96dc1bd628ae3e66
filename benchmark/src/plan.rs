//! The seeded inputs of the four workloads. Everything the program
//! receives — job specs, input seeds, fault seeds — is generated here
//! from the benchmark seed, so the same seed gives the same inputs.
//! Seed 0 reproduces the figure harness's inputs (`0xC0FFEE`) and
//! `fig_coverage`'s fault seeds.

use redsim_campaign::{CampaignSpec, Scenario};
use redsim_core::{ExecMode, FaultConfig, ForwardingPolicy};
use redsim_serve::spec::JobSpec;
use redsim_util::hash::fx64;
use redsim_workloads::Workload;

/// The four workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's matrix through the figure harness.
    PaperMatrix,
    /// The `fig_coverage` fault campaign.
    FaultCampaign,
    /// Fresh inputs submitted to a daemon.
    ServeCold,
    /// Replays on stored traces beside an HTTP poller.
    ServeWarm,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::PaperMatrix,
        Kind::FaultCampaign,
        Kind::ServeCold,
        Kind::ServeWarm,
    ];

    /// The workload's name in `BENCHMARK.json` and every report.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperMatrix => "paper-matrix",
            Kind::FaultCampaign => "fault-campaign",
            Kind::ServeCold => "serve-cold",
            Kind::ServeWarm => "serve-warm",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input size: the measured size, or the test-only smoke size that runs
/// every code path on the three smallest kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size `BENCHMARK.json` describes.
    Full,
    /// Test-only: tiny kernels, so all four workloads finish in seconds.
    Smoke,
}

impl Size {
    /// The SPEC stand-ins a workload iterates over at this size.
    #[must_use]
    pub fn kernels(self) -> &'static [Workload] {
        match self {
            Size::Full => &Workload::ALL,
            Size::Smoke => &[Workload::Gzip, Workload::Vortex, Workload::Twolf],
        }
    }
}

/// The figure harness's default input seed.
pub const FIGURE_SEED: u64 = 0xC0FFEE;

/// The paper's three execution modes.
pub const PAPER_MODES: [ExecMode; 3] = [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb];

/// The modes serve-warm replays on its stored SIE traces.
pub const WARM_MODES: [ExecMode; 3] = [ExecMode::Die, ExecMode::DieIrb, ExecMode::SieIrb];

/// A simulated-cycle watchdog far beyond any job's length. serve-warm
/// adds the round number to it, so each round's specs have fresh
/// fingerprints (no dedup answers) while the traces stay shared.
pub const WARM_WATCHDOG: u64 = 1 << 40;

/// The benchmark seed's shift of every campaign scenario's fault seed;
/// wider than the campaign's own replica stride of 1000.
pub const FAULT_SEED_STRIDE: u64 = 1_000_000;

/// paper-matrix's input seed: seed 0 is the figure harness's input and
/// seed `s` shifts it by `s`, as `fig_recovery --seeds` replicas do.
#[must_use]
pub fn paper_input_seed(seed: u64) -> u64 {
    FIGURE_SEED.wrapping_add(seed)
}

fn derived_seed(tag: &str, seed: u64, index: u64) -> u64 {
    fx64(format!("{tag} {seed} {index}").as_bytes())
}

/// paper-matrix: every kernel × SIE/DIE/DIE-IRB on the paper-baseline
/// machine, kernel-major like `fig_recovery`.
#[must_use]
pub fn paper_jobs(size: Size, seed: u64) -> Vec<JobSpec> {
    size.kernels()
        .iter()
        .flat_map(|&w| {
            PAPER_MODES.map(|mode| JobSpec {
                quick: size == Size::Smoke,
                input_seed: Some(paper_input_seed(seed)),
                ..JobSpec::new(w, mode)
            })
        })
        .collect()
}

/// The `fig_coverage` grid: its seven scenarios over `workloads`, with
/// `replicas` fault-seed replicas, `fig_coverage`'s watchdog and metrics
/// window, and every fault seed shifted by the benchmark seed.
fn coverage_spec(workloads: &[Workload], replicas: u32, quick: bool, seed: u64) -> CampaignSpec {
    let shared = ForwardingPolicy::PrimaryToBoth;
    let per_stream = ForwardingPolicy::PerStream;
    let shift = seed.wrapping_mul(FAULT_SEED_STRIDE);
    let fu = FaultConfig {
        fu_rate: 2e-4,
        seed: 11u64.wrapping_add(shift),
        ..FaultConfig::none()
    };
    let irb = FaultConfig {
        irb_rate: 0.05,
        seed: 13u64.wrapping_add(shift),
        ..FaultConfig::none()
    };
    let bus = FaultConfig {
        forward_rate: 1e-4,
        seed: 17u64.wrapping_add(shift),
        ..FaultConfig::none()
    };
    let sc = |name: &str, mode, faults, forwarding| Scenario {
        name: name.to_owned(),
        mode,
        faults,
        forwarding,
    };
    CampaignSpec {
        scenarios: vec![
            sc("sie/fu", ExecMode::Sie, fu, shared),
            sc("die/fu", ExecMode::Die, fu, shared),
            sc("die-irb/fu", ExecMode::DieIrb, fu, shared),
            sc("die-irb/irb", ExecMode::DieIrb, irb, shared),
            sc("die-irb/bus-shared", ExecMode::DieIrb, bus, shared),
            sc("die/bus-per-stream", ExecMode::Die, bus, per_stream),
            sc("die-irb/bus-per-stream", ExecMode::DieIrb, bus, per_stream),
        ],
        workloads: workloads.to_vec(),
        seeds: replicas,
        quick,
        watchdog: Some(50_000_000),
        metrics_window: Some(10_000),
    }
}

/// fault-campaign: the `fig_coverage` grid at default scale (gzip, gcc,
/// twolf, equake) with 2 fault-seed replicas per cell.
#[must_use]
pub fn campaign_spec(size: Size, seed: u64) -> CampaignSpec {
    match size {
        Size::Full => coverage_spec(
            &[
                Workload::Gzip,
                Workload::Gcc,
                Workload::Twolf,
                Workload::Equake,
            ],
            2,
            false,
            seed,
        ),
        Size::Smoke => coverage_spec(&[Workload::Gzip, Workload::Twolf], 2, true, seed),
    }
}

/// The campaign the traced run measures the campaign layer on:
/// fault-campaign's own grid with one fault-seed replica (replicas only
/// shift fault seeds, and one keeps the traced run short), and the tiny
/// `fig_coverage` grid with one replica for every other workload.
#[must_use]
pub fn campaign_probe_spec(kind: Kind, size: Size, seed: u64) -> CampaignSpec {
    match (kind, size) {
        (Kind::FaultCampaign, _) => CampaignSpec {
            seeds: 1,
            ..campaign_spec(size, seed)
        },
        (_, Size::Full) => coverage_spec(
            &[
                Workload::Gzip,
                Workload::Gcc,
                Workload::Twolf,
                Workload::Equake,
            ],
            1,
            true,
            seed,
        ),
        (_, Size::Smoke) => coverage_spec(&[Workload::Gzip, Workload::Twolf], 1, true, seed),
    }
}

/// The kernels by the length of their tiny instance, longest first
/// (bzip2 runs 0.9 M instructions, vortex 22 K).
const TINY_LONGEST_FIRST: [Workload; 12] = [
    Workload::Bzip2,
    Workload::Equake,
    Workload::Art,
    Workload::Wupwise,
    Workload::Ammp,
    Workload::Parser,
    Workload::Mcf,
    Workload::Gcc,
    Workload::Vpr,
    Workload::Twolf,
    Workload::Gzip,
    Workload::Vortex,
];

/// serve-cold, round `round`: one tiny job per kernel, modes rotating
/// SIE/DIE/DIE-IRB by kernel, each with an input seed no earlier job
/// used — so every job misses dedup and the trace store. Jobs go out
/// longest first, so the two clients finish a round together rather
/// than one idling behind the last long job.
#[must_use]
pub fn cold_round(size: Size, seed: u64, round: usize) -> Vec<JobSpec> {
    let n = size.kernels().len();
    let mut jobs: Vec<JobSpec> = size
        .kernels()
        .iter()
        .enumerate()
        .map(|(i, &w)| JobSpec {
            input_seed: Some(derived_seed("serve-cold", seed, (round * n + i) as u64)),
            ..JobSpec::new(w, PAPER_MODES[i % PAPER_MODES.len()])
        })
        .collect();
    jobs.sort_by_key(|j| TINY_LONGEST_FIRST.iter().position(|&w| w == j.workload));
    jobs
}

/// The input seed of serve-warm's stored trace for kernel `index`.
fn warm_input_seed(seed: u64, index: usize) -> u64 {
    derived_seed("serve-warm", seed, index as u64)
}

/// serve-warm's set-up: one tiny SIE job per kernel, whose traces the
/// daemon stores.
#[must_use]
pub fn warm_prime(size: Size, seed: u64) -> Vec<JobSpec> {
    size.kernels()
        .iter()
        .enumerate()
        .map(|(i, &w)| JobSpec {
            input_seed: Some(warm_input_seed(seed, i)),
            ..JobSpec::new(w, ExecMode::Sie)
        })
        .collect()
}

/// serve-warm, round `round`: DIE, DIE-IRB and SIE-IRB on every stored
/// trace, kernel-major, so each trace's first touch after a restart is
/// a disk hit and its next two are memory hits.
#[must_use]
pub fn warm_round(size: Size, seed: u64, round: usize) -> Vec<JobSpec> {
    size.kernels()
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| {
            WARM_MODES.map(|mode| JobSpec {
                input_seed: Some(warm_input_seed(seed, i)),
                watchdog: Some(WARM_WATCHDOG + round as u64),
                ..JobSpec::new(w, mode)
            })
        })
        .collect()
}

/// One round of a workload's jobs as the specs the traced run replays
/// through the daemon's call path. Campaign shards become their nearest
/// spec: mode, faults and watchdog carry over; the forwarding policy and
/// metrics window are not spec fields, so the replay runs them on the
/// paper-baseline machine without windows.
#[must_use]
pub fn replay_jobs(kind: Kind, size: Size, seed: u64) -> Vec<JobSpec> {
    match kind {
        Kind::PaperMatrix => paper_jobs(size, seed),
        Kind::FaultCampaign => {
            let spec = campaign_spec(size, seed);
            spec.shards()
                .iter()
                .map(|shard| {
                    let job = spec.job(shard);
                    JobSpec {
                        quick: spec.quick,
                        watchdog: job.watchdog,
                        faults: job.faults,
                        ..JobSpec::new(job.workload, job.mode)
                    }
                })
                .collect()
        }
        Kind::ServeCold => cold_round(size, seed, 0),
        Kind::ServeWarm => warm_round(size, seed, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(specs: &[JobSpec]) -> Vec<String> {
        specs.iter().map(JobSpec::canonical).collect()
    }

    #[test]
    fn job_lists_are_deterministic_and_differ_across_seeds() {
        for kind in Kind::ALL {
            for size in [Size::Full, Size::Smoke] {
                let a = canon(&replay_jobs(kind, size, 3));
                assert_eq!(a, canon(&replay_jobs(kind, size, 3)), "{kind:?}");
                assert_ne!(a, canon(&replay_jobs(kind, size, 4)), "{kind:?}");
                assert!(!a.is_empty());
            }
        }
        assert_ne!(
            canon(&warm_prime(Size::Full, 0)),
            canon(&warm_prime(Size::Full, 1))
        );
        assert_ne!(
            campaign_probe_spec(Kind::ServeCold, Size::Full, 0).canonical(),
            campaign_probe_spec(Kind::ServeCold, Size::Full, 1).canonical()
        );
    }

    #[test]
    fn seed_zero_reproduces_the_figure_inputs() {
        let jobs = paper_jobs(Size::Full, 0);
        assert_eq!(jobs.len(), 36);
        assert!(jobs
            .iter()
            .all(|j| j.params() == j.workload.default_params()));
        let spec = campaign_spec(Size::Full, 0);
        assert_eq!(spec.shards().len(), 56);
        let seeds: Vec<u64> = spec.scenarios.iter().map(|s| s.faults.seed).collect();
        assert_eq!(
            seeds,
            [11, 11, 11, 13, 17, 17, 17],
            "fig_coverage's fault seeds"
        );
    }

    #[test]
    fn serve_jobs_never_repeat_a_fingerprint_or_a_cold_input() {
        let mut fps = std::collections::HashSet::new();
        let mut cold_inputs = std::collections::HashSet::new();
        for round in 0..4 {
            for spec in cold_round(Size::Full, 0, round) {
                assert!(fps.insert(spec.fingerprint()));
                assert!(cold_inputs.insert(spec.input_seed));
            }
            for spec in warm_round(Size::Full, 0, round) {
                assert!(fps.insert(spec.fingerprint()));
            }
        }
        for spec in warm_prime(Size::Full, 0) {
            assert!(fps.insert(spec.fingerprint()));
        }
        // Every warm round touches exactly the primed traces.
        let primed: std::collections::HashSet<_> = warm_prime(Size::Full, 0)
            .iter()
            .map(|s| (s.workload, s.input_seed))
            .collect();
        let touched: std::collections::HashSet<_> = warm_round(Size::Full, 0, 2)
            .iter()
            .map(|s| (s.workload, s.input_seed))
            .collect();
        assert_eq!(primed, touched);
    }
}
