//! Transient-fault injection (§3.4's redundancy scenarios).
//!
//! Three injection sites, matching the paper's analysis:
//!
//! * **Functional units** — a bit flip in the result one copy computes.
//!   Caught by the commit-stage pair comparison (scenario *i/ii × a*).
//! * **The IRB array** — a strike on a buffered result. The reuse test
//!   compares *operands*, so the corrupt result flows to commit where
//!   the primary stream's ALU execution exposes it: this is exactly why
//!   the paper argues the IRB needs no dedicated protection.
//! * **The shared forwarding bus** — under
//!   [`ForwardingPolicy::PrimaryToBoth`](crate::ForwardingPolicy) a
//!   corrupted forwarded value feeds *both* streams' consumers
//!   identically (the paper's Figure 6(c)): the copies agree and the
//!   fault escapes, the acknowledged residual vulnerability. Under
//!   [`ForwardingPolicy::PerStream`](crate::ForwardingPolicy) the same
//!   strike hits one stream only and is detected (Figure 6(b)).
//!
//! Beyond the coarse counters in [`FaultStats`], the injector tracks
//! every strike through its full lifecycle as a [`FaultRecord`]: the
//! [`FaultSite`], the injection cycle, and a terminal [`FaultOutcome`]
//! assigned by the pipeline — `Detected` at a commit-stage pair
//! mismatch (with detection latency and recovery cost), `Masked` when
//! the corruption never reached architectural state,
//! `SilentCorruption` when a wrong value committed unchecked, or
//! `Hang` when the run's watchdog expired first. The aggregate view is
//! the [`FaultLifecycle`] block of
//! [`SimStats`](crate::SimStats).

use std::error::Error;
use std::fmt;

use redsim_util::Rng;

/// Fault-injection configuration. All rates are per-event
/// probabilities; zero disables a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that one copy's functional-unit execution is struck.
    pub fu_rate: f64,
    /// Probability that a result broadcast is struck on the bus.
    pub forward_rate: f64,
    /// Per-cycle probability of a strike on a random IRB slot.
    pub irb_rate: f64,
    /// RNG seed, so injections replay deterministically.
    pub seed: u64,
}

/// A rejected [`FaultConfig`]: which rate field was invalid and why.
///
/// Rates are probabilities; anything outside `[0, 1]` (or not a number
/// at all) would silently skew an experiment or never fire, so
/// construction via [`FaultConfig::new`] refuses it up front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// The rate is NaN or infinite.
    NotFinite {
        /// Name of the offending rate field.
        field: &'static str,
    },
    /// The rate is below zero.
    Negative {
        /// Name of the offending rate field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The rate exceeds 1.0 (probabilities are capped at certainty).
    AboveOne {
        /// Name of the offending rate field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::NotFinite { field } => {
                write!(f, "fault rate `{field}` must be a finite number")
            }
            FaultConfigError::Negative { field, value } => {
                write!(f, "fault rate `{field}` must be >= 0 (got {value})")
            }
            FaultConfigError::AboveOne { field, value } => {
                write!(
                    f,
                    "fault rate `{field}` is a probability and must be <= 1 (got {value})"
                )
            }
        }
    }
}

impl Error for FaultConfigError {}

impl FaultConfig {
    /// No faults.
    #[must_use]
    pub const fn none() -> Self {
        FaultConfig {
            fu_rate: 0.0,
            forward_rate: 0.0,
            irb_rate: 0.0,
            seed: 0,
        }
    }

    /// Creates a validated configuration: every rate must be a finite
    /// probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the first offending field as a [`FaultConfigError`].
    pub fn new(
        fu_rate: f64,
        forward_rate: f64,
        irb_rate: f64,
        seed: u64,
    ) -> Result<Self, FaultConfigError> {
        let c = FaultConfig {
            fu_rate,
            forward_rate,
            irb_rate,
            seed,
        };
        c.validate()?;
        Ok(c)
    }

    /// Checks every rate field (see [`FaultConfig::new`]).
    ///
    /// # Errors
    ///
    /// Returns the first offending field as a [`FaultConfigError`].
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        for (field, value) in [
            ("fu_rate", self.fu_rate),
            ("forward_rate", self.forward_rate),
            ("irb_rate", self.irb_rate),
        ] {
            if !value.is_finite() {
                return Err(FaultConfigError::NotFinite { field });
            }
            if value < 0.0 {
                return Err(FaultConfigError::Negative { field, value });
            }
            if value > 1.0 {
                return Err(FaultConfigError::AboveOne { field, value });
            }
        }
        Ok(())
    }

    /// `true` if any site can fire.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.fu_rate > 0.0 || self.forward_rate > 0.0 || self.irb_rate > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Detection accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected into functional-unit results.
    pub injected_fu: u64,
    /// Faults injected onto the forwarding bus.
    pub injected_forward: u64,
    /// Faults injected into IRB slots (valid entries struck).
    pub injected_irb: u64,
    /// Pair mismatches detected at commit (each triggers a rewind).
    pub detected: u64,
    /// Commits where a tainted pair nonetheless matched — the fault
    /// escaped the sphere of replication.
    pub escaped: u64,
    /// Commits of tainted instructions in SIE (no checking exists):
    /// silent data corruption.
    pub silent_sie: u64,
}

impl FaultStats {
    /// Fraction of commit-visible faults that were detected.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let seen = self.detected + self.escaped + self.silent_sie;
        if seen == 0 {
            0.0
        } else {
            self.detected as f64 / seen as f64
        }
    }
}

/// Where a fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A functional-unit result bit flip.
    Fu,
    /// A forwarding-bus strike on a result broadcast.
    Forward,
    /// A strike on a valid IRB array slot.
    Irb,
}

impl FaultSite {
    /// Stable lowercase name (manifest / JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Fu => "fu",
            FaultSite::Forward => "forward",
            FaultSite::Irb => "irb",
        }
    }
}

/// The terminal state of an injected fault — exactly one per fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// The commit-stage pair comparison caught the corruption and the
    /// pair was rewound.
    Detected,
    /// The corruption never changed an architectural value: the struck
    /// state was overwritten, never consumed, or cancelled out before
    /// commit.
    Masked,
    /// A wrong architectural value committed with no detection — the
    /// checker matched (or no checker exists, as in SIE).
    SilentCorruption,
    /// The run's watchdog deadline expired while the fault was still
    /// unresolved (e.g. a rewind livelock).
    Hang,
}

impl FaultOutcome {
    /// Stable lowercase name (manifest / JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::Detected => "detected",
            FaultOutcome::Masked => "masked",
            FaultOutcome::SilentCorruption => "silent",
            FaultOutcome::Hang => "hang",
        }
    }
}

/// One injected fault's lifecycle record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Injection site.
    pub site: FaultSite,
    /// Cycle the strike happened.
    pub injected_at: u64,
    /// Terminal outcome; `None` while still in flight (resolved to
    /// [`FaultOutcome::Masked`] or [`FaultOutcome::Hang`] when the run
    /// ends).
    pub outcome: Option<FaultOutcome>,
    /// Cycle the outcome was assigned.
    pub resolved_at: u64,
    /// In-flight RUU entries behind the detected pair at rewind time —
    /// the window of speculative work exposed to the recovery.
    pub squash_depth: u64,
    /// Front-end re-fetch penalty charged on detection, in cycles.
    pub refetch_penalty: u64,
}

impl FaultRecord {
    /// Strike-to-resolution latency in cycles (detection latency for
    /// detected faults).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.resolved_at.saturating_sub(self.injected_at)
    }
}

/// Number of log2 detection-latency buckets in [`FaultLifecycle`].
pub const LATENCY_BUCKETS: usize = 16;

/// Aggregate per-fault lifecycle statistics: every injected fault lands
/// in exactly one outcome counter, so
/// `injected == detected + masked + silent + hung` always holds (the
/// conservation invariant the tests enforce generatively).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLifecycle {
    /// Lifecycle records created (all sites).
    pub injected: u64,
    /// Faults caught by the commit-stage comparison.
    pub detected: u64,
    /// Faults that never corrupted architectural state.
    pub masked: u64,
    /// Faults that committed a wrong value silently.
    pub silent: u64,
    /// Faults unresolved when the watchdog expired.
    pub hung: u64,
    /// Sum of detection latencies over detected faults.
    pub detection_latency_sum: u64,
    /// Largest single detection latency.
    pub detection_latency_max: u64,
    /// Detection-latency histogram: bucket 0 is latency 0, bucket `i`
    /// holds latencies in `[2^(i-1), 2^i)`, and the last bucket is
    /// open-ended.
    pub latency_histogram: [u64; LATENCY_BUCKETS],
    /// Total in-flight RUU entries exposed behind detected pairs
    /// (recovery cost).
    pub squash_depth_sum: u64,
    /// Total front-end re-fetch cycles charged by detections.
    pub refetch_penalty_sum: u64,
}

impl FaultLifecycle {
    /// The histogram bucket a detection latency falls into.
    #[must_use]
    pub fn latency_bucket(latency: u64) -> usize {
        if latency == 0 {
            0
        } else {
            ((u64::BITS - latency.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// `injected == detected + masked + silent + hung` — every fault
    /// has exactly one terminal outcome.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.injected == self.detected + self.masked + self.silent + self.hung
    }

    /// Accumulates another run's lifecycle into this one: every count
    /// and sum adds, the latency maximum takes the larger, and the
    /// histograms add bucket by bucket.
    pub fn add(&mut self, other: &FaultLifecycle) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.masked += other.masked;
        self.silent += other.silent;
        self.hung += other.hung;
        self.detection_latency_sum += other.detection_latency_sum;
        self.detection_latency_max = self.detection_latency_max.max(other.detection_latency_max);
        for (b, o) in self
            .latency_histogram
            .iter_mut()
            .zip(&other.latency_histogram)
        {
            *b += o;
        }
        self.squash_depth_sum += other.squash_depth_sum;
        self.refetch_penalty_sum += other.refetch_penalty_sum;
    }

    /// Mean detection latency over detected faults.
    #[must_use]
    pub fn mean_detection_latency(&self) -> f64 {
        if self.detected == 0 {
            0.0
        } else {
            self.detection_latency_sum as f64 / self.detected as f64
        }
    }

    /// Fraction of architecturally visible faults (detected + silent)
    /// that were detected — the coverage a redundancy scheme claims.
    /// With no visible fault nothing escaped, so coverage is 1.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let visible = self.detected + self.silent;
        if visible == 0 {
            1.0
        } else {
            self.detected as f64 / visible as f64
        }
    }

    /// AVF-style vulnerability: the fraction of injected faults that
    /// reached architectural state at all (detected or silent).
    #[must_use]
    pub fn avf(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            (self.detected + self.silent) as f64 / self.injected as f64
        }
    }
}

/// The injector: a deterministic RNG deciding where lightning strikes,
/// plus the per-fault lifecycle ledger.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: Rng,
    stats: FaultStats,
    records: Vec<FaultRecord>,
}

impl FaultInjector {
    /// Creates an injector.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            rng: Rng::new(config.seed),
            config,
            stats: FaultStats::default(),
            records: Vec::new(),
        }
    }

    /// Whether any injection site is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Mutable statistics (the commit stage records detections).
    pub fn stats_mut(&mut self) -> &mut FaultStats {
        &mut self.stats
    }

    /// The per-fault lifecycle ledger, in injection order (a fault's id
    /// is its index here).
    #[must_use]
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    fn record(&mut self, site: FaultSite, cycle: u64) -> u32 {
        let id = u32::try_from(self.records.len()).expect("fewer than 2^32 faults");
        self.records.push(FaultRecord {
            site,
            injected_at: cycle,
            outcome: None,
            resolved_at: 0,
            squash_depth: 0,
            refetch_penalty: 0,
        });
        id
    }

    /// Possibly corrupts a functional-unit result at `cycle`. Returns
    /// the (maybe flipped) bits and the fault id if one was injected.
    pub fn strike_fu(&mut self, bits: u64, cycle: u64) -> (u64, Option<u32>) {
        if self.config.fu_rate > 0.0 && self.rng.chance(self.config.fu_rate) {
            self.stats.injected_fu += 1;
            let bit = self.rng.below(64);
            let id = self.record(FaultSite::Fu, cycle);
            (bits ^ 1 << bit, Some(id))
        } else {
            (bits, None)
        }
    }

    /// Decides whether this result broadcast is struck on the bus at
    /// `cycle`; returns the XOR mask to apply to every consumer's view
    /// plus the fault id (`None` if no strike).
    pub fn strike_forward(&mut self, cycle: u64) -> Option<(u64, u32)> {
        if self.config.forward_rate > 0.0 && self.rng.chance(self.config.forward_rate) {
            self.stats.injected_forward += 1;
            let mask = 1 << self.rng.below(64);
            let id = self.record(FaultSite::Forward, cycle);
            Some((mask, id))
        } else {
            None
        }
    }

    /// Rolls the per-cycle IRB strike; returns the slot and bit to flip
    /// if one fires. The caller flips it (and reports back whether a
    /// valid entry was struck via [`FaultInjector::record_irb_strike`]).
    pub fn roll_irb_strike(&mut self, num_slots: usize) -> Option<(usize, u32)> {
        if self.config.irb_rate > 0.0 && self.rng.chance(self.config.irb_rate) {
            let slot = self.rng.index(num_slots);
            let bit = self.rng.below(64) as u32;
            Some((slot, bit))
        } else {
            None
        }
    }

    /// Records that an IRB strike landed on a valid entry at `cycle`;
    /// returns the fault id.
    pub fn record_irb_strike(&mut self, cycle: u64) -> u32 {
        self.stats.injected_irb += 1;
        self.record(FaultSite::Irb, cycle)
    }

    /// Marks fault `id` detected at `cycle`, with its recovery cost.
    /// The first terminal outcome wins; later calls are no-ops, so a
    /// fault reused or forwarded into several copies still resolves
    /// exactly once.
    pub fn resolve_detected(&mut self, id: u32, cycle: u64, squash_depth: u64, refetch: u64) {
        let r = &mut self.records[id as usize];
        if r.outcome.is_none() {
            r.outcome = Some(FaultOutcome::Detected);
            r.resolved_at = cycle;
            r.squash_depth = squash_depth;
            r.refetch_penalty = refetch;
        }
    }

    /// Marks fault `id` as silent corruption at `cycle` (first terminal
    /// outcome wins).
    pub fn resolve_silent(&mut self, id: u32, cycle: u64) {
        let r = &mut self.records[id as usize];
        if r.outcome.is_none() {
            r.outcome = Some(FaultOutcome::SilentCorruption);
            r.resolved_at = cycle;
        }
    }

    /// Assigns `outcome` to every still-pending fault (end of run:
    /// [`FaultOutcome::Masked`]; watchdog expiry: [`FaultOutcome::Hang`]).
    pub fn resolve_all_pending(&mut self, outcome: FaultOutcome, cycle: u64) {
        for r in &mut self.records {
            if r.outcome.is_none() {
                r.outcome = Some(outcome);
                r.resolved_at = cycle;
            }
        }
    }

    /// Aggregates the ledger into the [`FaultLifecycle`] stats block.
    ///
    /// # Panics
    ///
    /// Panics if any fault is still pending — the pipeline must call
    /// [`FaultInjector::resolve_all_pending`] first.
    #[must_use]
    pub fn lifecycle(&self) -> FaultLifecycle {
        let mut l = FaultLifecycle::default();
        for r in &self.records {
            l.injected += 1;
            match r.outcome.expect("every fault resolved before aggregation") {
                FaultOutcome::Detected => {
                    l.detected += 1;
                    let lat = r.latency();
                    l.detection_latency_sum += lat;
                    l.detection_latency_max = l.detection_latency_max.max(lat);
                    l.latency_histogram[FaultLifecycle::latency_bucket(lat)] += 1;
                    l.squash_depth_sum += r.squash_depth;
                    l.refetch_penalty_sum += r.refetch_penalty;
                }
                FaultOutcome::Masked => l.masked += 1,
                FaultOutcome::SilentCorruption => l.silent += 1,
                FaultOutcome::Hang => l.hung += 1,
            }
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = FaultInjector::new(FaultConfig::none());
        assert!(!inj.enabled());
        for v in 0..1000u64 {
            let (bits, hit) = inj.strike_fu(v, v);
            assert_eq!(bits, v);
            assert!(hit.is_none());
            assert!(inj.strike_forward(v).is_none());
            assert!(inj.roll_irb_strike(64).is_none());
        }
        assert!(inj.records().is_empty());
    }

    #[test]
    fn always_on_fu_fault_flips_exactly_one_bit() {
        let mut inj = FaultInjector::new(FaultConfig {
            fu_rate: 1.0,
            ..FaultConfig::none()
        });
        for v in [0u64, u64::MAX, 0xdead_beef] {
            let (bits, hit) = inj.strike_fu(v, 0);
            assert!(hit.is_some());
            assert_eq!((bits ^ v).count_ones(), 1);
        }
        assert_eq!(inj.stats().injected_fu, 3);
        assert_eq!(inj.records().len(), 3);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut inj = FaultInjector::new(FaultConfig {
                fu_rate: 0.5,
                forward_rate: 0.5,
                irb_rate: 0.5,
                seed,
            });
            let mut log = Vec::new();
            for v in 0..100u64 {
                log.push(inj.strike_fu(v, v).0);
                log.push(inj.strike_forward(v).map_or(0, |(m, _)| m));
            }
            log
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn strike_sites_are_pinned_for_a_fixed_seed() {
        // Pins the exact injection sites produced by seed 0xFA_0001. If
        // this fails, the PRNG (or how the injector draws from it)
        // changed, and every published fault-injection figure shifts.
        let mut inj = FaultInjector::new(FaultConfig {
            fu_rate: 1.0,
            irb_rate: 1.0,
            forward_rate: 1.0,
            seed: 0xFA_0001,
        });
        let fu: Vec<u64> = (0..4).map(|_| inj.strike_fu(0, 0).0).collect();
        let fwd: Vec<u64> = (0..3)
            .map(|_| inj.strike_forward(0).expect("rate 1.0 fires").0)
            .collect();
        let irb: Vec<(usize, u32)> = (0..3).map(|_| inj.roll_irb_strike(1024).unwrap()).collect();
        assert_eq!(fu, [1 << 12, 1 << 60, 1 << 37, 1 << 28]);
        assert_eq!(fwd, [1 << 57, 1 << 54, 1 << 31]);
        assert_eq!(irb, [(653, 28), (1002, 44), (842, 48)]);
        assert_eq!(inj.stats().injected_fu, 4);
        assert_eq!(inj.stats().injected_forward, 3);
    }

    #[test]
    fn coverage_math() {
        let s = FaultStats {
            detected: 9,
            escaped: 1,
            ..FaultStats::default()
        };
        assert!((s.coverage() - 0.9).abs() < 1e-12);
        assert_eq!(FaultStats::default().coverage(), 0.0);
    }

    #[test]
    fn forward_strike_mask_is_single_bit_or_zero() {
        let mut inj = FaultInjector::new(FaultConfig {
            forward_rate: 1.0,
            ..FaultConfig::none()
        });
        let (m, _) = inj.strike_forward(0).expect("rate 1.0 fires");
        assert_eq!(m.count_ones(), 1);
    }

    #[test]
    fn config_validation_rejects_bad_rates() {
        assert!(FaultConfig::new(0.5, 0.0, 1.0, 1).is_ok());
        assert_eq!(
            FaultConfig::new(f64::NAN, 0.0, 0.0, 0),
            Err(FaultConfigError::NotFinite { field: "fu_rate" })
        );
        assert_eq!(
            FaultConfig::new(0.0, f64::INFINITY, 0.0, 0),
            Err(FaultConfigError::NotFinite {
                field: "forward_rate"
            })
        );
        assert_eq!(
            FaultConfig::new(0.0, -0.1, 0.0, 0),
            Err(FaultConfigError::Negative {
                field: "forward_rate",
                value: -0.1
            })
        );
        assert_eq!(
            FaultConfig::new(0.0, 0.0, 1.5, 0),
            Err(FaultConfigError::AboveOne {
                field: "irb_rate",
                value: 1.5
            })
        );
        let msg = FaultConfig::new(2.0, 0.0, 0.0, 0).unwrap_err().to_string();
        assert!(msg.contains("fu_rate") && msg.contains('2'), "{msg}");
    }

    #[test]
    fn lifecycle_first_terminal_outcome_wins() {
        let mut inj = FaultInjector::new(FaultConfig {
            fu_rate: 1.0,
            ..FaultConfig::none()
        });
        let (_, id) = inj.strike_fu(0, 10);
        let id = id.expect("rate 1.0 fires");
        inj.resolve_detected(id, 25, 6, 8);
        inj.resolve_silent(id, 30); // loses: already detected
        let (_, id2) = inj.strike_fu(0, 12);
        inj.resolve_silent(id2.unwrap(), 40);
        let (_, _pending) = inj.strike_fu(0, 13);
        inj.resolve_all_pending(FaultOutcome::Masked, 50);

        let l = inj.lifecycle();
        assert_eq!(
            (l.injected, l.detected, l.masked, l.silent, l.hung),
            (3, 1, 1, 1, 0)
        );
        assert!(l.conservation_holds());
        assert_eq!(l.detection_latency_sum, 15);
        assert_eq!(l.detection_latency_max, 15);
        assert_eq!(l.squash_depth_sum, 6);
        assert_eq!(l.refetch_penalty_sum, 8);
        assert_eq!(l.latency_histogram[FaultLifecycle::latency_bucket(15)], 1);
        assert!((l.mean_detection_latency() - 15.0).abs() < 1e-12);
        assert!((l.coverage() - 0.5).abs() < 1e-12);
        assert!((l.avf() - 2.0 / 3.0).abs() < 1e-12);

        // Two runs add up; the latency maximum stays a maximum.
        let mut sum = l;
        sum.add(&FaultLifecycle {
            injected: 1,
            detected: 1,
            detection_latency_sum: 4,
            detection_latency_max: 4,
            ..FaultLifecycle::default()
        });
        assert_eq!((sum.injected, sum.detected, sum.silent), (4, 2, 1));
        assert_eq!(sum.detection_latency_sum, 19);
        assert_eq!(sum.detection_latency_max, 15);
        assert!(sum.conservation_holds());
        assert_eq!(sum.latency_histogram.iter().sum::<u64>(), 1);
    }

    #[test]
    fn nothing_visible_means_full_coverage() {
        let masked_only = FaultLifecycle {
            injected: 3,
            masked: 3,
            ..FaultLifecycle::default()
        };
        assert_eq!(masked_only.coverage(), 1.0);
        assert_eq!(masked_only.avf(), 0.0);
        assert_eq!(FaultLifecycle::default().coverage(), 1.0);
    }

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(FaultLifecycle::latency_bucket(0), 0);
        assert_eq!(FaultLifecycle::latency_bucket(1), 1);
        assert_eq!(FaultLifecycle::latency_bucket(2), 2);
        assert_eq!(FaultLifecycle::latency_bucket(3), 2);
        assert_eq!(FaultLifecycle::latency_bucket(4), 3);
        assert_eq!(FaultLifecycle::latency_bucket(1 << 20), LATENCY_BUCKETS - 1);
        assert_eq!(
            FaultLifecycle::latency_bucket(u64::MAX),
            LATENCY_BUCKETS - 1
        );
    }

    #[test]
    fn pending_faults_panic_if_aggregated_unresolved() {
        let mut inj = FaultInjector::new(FaultConfig {
            fu_rate: 1.0,
            ..FaultConfig::none()
        });
        let _ = inj.strike_fu(0, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.lifecycle()));
        assert!(r.is_err(), "unresolved fault must not aggregate silently");
    }
}
