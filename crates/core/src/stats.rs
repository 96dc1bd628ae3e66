//! End-of-run simulation statistics.

use redsim_irb::{AttrCounters, IrbStats, ReuseAttribution, REUSE_CLASS_NAMES};
use redsim_mem::CacheStats;
use redsim_util::Json;

use crate::fault::{FaultLifecycle, FaultStats};

/// Integer ratio `numerator * 1000 / denominator`, zero when the
/// denominator is zero — the byte-stable `permille` convention used
/// alongside every float ratio in `--json` output (see `milli_ipc`).
#[must_use]
fn permille(numerator: u64, denominator: u64) -> u64 {
    (numerator * 1000).checked_div(denominator).unwrap_or(0)
}

/// Why the fetch stage produced no instructions in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchStallKind {
    /// Waiting for a mispredicted branch to resolve plus the redirect
    /// penalty (the wrong-path window).
    BranchRecovery,
    /// Waiting on an instruction-cache miss.
    ICacheMiss,
    /// The fetch queue is full (back-end pressure).
    QueueFull,
    /// A BTB-miss bubble on a taken control instruction.
    BtbBubble,
}

/// Front-end prediction summary (copied out of the front end at the end
/// of a run).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BranchSummary {
    /// Conditional branches fetched.
    pub cond_branches: u64,
    /// Conditional mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect jumps fetched.
    pub indirect_jumps: u64,
    /// Indirect mispredictions.
    pub indirect_mispredicts: u64,
    /// BTB-miss bubbles.
    pub btb_miss_bubbles: u64,
}

impl BranchSummary {
    /// Conditional-branch misprediction rate in `[0, 1]`.
    #[must_use]
    pub fn cond_mispredict_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }
}

/// IRB summary: buffer stats plus pipeline-level reuse outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IrbSummary {
    /// The buffer's own counters (lookups, hits, conflicts...).
    pub buffer: IrbStats,
    /// Reuse tests passed (duplicates that skipped the ALUs).
    pub reuse_passed: u64,
    /// Reuse tests failed.
    pub reuse_failed: u64,
    /// Lookups denied a read port.
    pub lookups_port_starved: u64,
    /// Inserts denied a write port.
    pub inserts_port_starved: u64,
}

impl IrbSummary {
    /// Fraction of reuse tests that passed.
    #[must_use]
    pub fn reuse_pass_rate(&self) -> f64 {
        let n = self.reuse_passed + self.reuse_failed;
        if n == 0 {
            0.0
        } else {
            self.reuse_passed as f64 / n as f64
        }
    }

    /// [`IrbSummary::reuse_pass_rate`] as an exact integer per-mille
    /// (byte-stable across hosts, like `milli_ipc`).
    #[must_use]
    pub fn reuse_pass_permille(&self) -> u64 {
        permille(self.reuse_passed, self.reuse_passed + self.reuse_failed)
    }

    /// Buffer hit rate (PC + victim hits over lookups) as an exact
    /// integer per-mille.
    #[must_use]
    pub fn hit_permille(&self) -> u64 {
        permille(
            self.buffer.pc_hits + self.buffer.victim_hits,
            self.buffer.lookups,
        )
    }
}

/// One [`AttrCounters`] tally as a flat JSON object.
fn attr_counters_json(c: &AttrCounters) -> Json {
    Json::obj()
        .field("lookups", c.lookups)
        .field("hits", c.hits)
        .field("passes", c.passes)
        .field("fails", c.fails)
}

/// A [`ReuseAttribution`] as a JSON object — the `"attribution"` field
/// of [`SimStats::to_json`] and of `redsim-serve` result payloads.
///
/// Shape: `classes` keyed by class name, `hot_pcs`/`loops` arrays in
/// the deterministic top-K order, plus the `folded_pcs`/`folded_loops`/
/// `outside` conservation buckets.
#[must_use]
pub fn attribution_to_json(a: &ReuseAttribution) -> Json {
    let mut classes = Json::obj();
    for (i, name) in REUSE_CLASS_NAMES.iter().enumerate() {
        classes = classes.field(name, attr_counters_json(&a.classes[i]));
    }
    let pc_site = |s: &redsim_irb::PcSite| {
        Json::obj()
            .field("pc", s.pc)
            .field("class", REUSE_CLASS_NAMES[s.class as usize])
            .field("lookups", s.counters.lookups)
            .field("hits", s.counters.hits)
            .field("passes", s.counters.passes)
            .field("fails", s.counters.fails)
    };
    let loop_site = |l: &redsim_irb::LoopSite| {
        Json::obj()
            .field("head", l.head)
            .field("lookups", l.counters.lookups)
            .field("hits", l.counters.hits)
            .field("passes", l.counters.passes)
            .field("fails", l.counters.fails)
    };
    Json::obj()
        .field("classes", classes)
        .field("hot_pcs", a.hot_pcs.iter().map(pc_site).collect::<Json>())
        .field("folded_pcs", attr_counters_json(&a.folded_pcs))
        .field("loops", a.loops.iter().map(loop_site).collect::<Json>())
        .field("folded_loops", attr_counters_json(&a.folded_loops))
        .field("outside", attr_counters_json(&a.outside))
}

/// Wall-clock throughput of one or more timing-simulation runs: how
/// fast the *host* chews through simulated work (the `"perf"` field of
/// a figure's `--json` output), as opposed to the simulated machine's
/// own IPC.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Throughput {
    /// Host seconds spent inside the timing simulation.
    pub wall_seconds: f64,
    /// Simulated cycles advanced in that time.
    pub sim_cycles: u64,
    /// Architected instructions committed in that time.
    pub committed_insts: u64,
}

impl Throughput {
    /// Accumulates another run into this record.
    pub fn add(&mut self, other: &Throughput) {
        self.wall_seconds += other.wall_seconds;
        self.sim_cycles += other.sim_cycles;
        self.committed_insts += other.committed_insts;
    }

    /// Simulated cycles per host second.
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / self.wall_seconds
        }
    }

    /// Committed instructions per host second.
    #[must_use]
    pub fn insts_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.committed_insts as f64 / self.wall_seconds
        }
    }

    /// The record as a flat JSON object (the `"perf"` field of the
    /// figure binaries' `--json` output).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("wall_seconds", self.wall_seconds)
            .field("sim_cycles", self.sim_cycles)
            .field("committed_insts", self.committed_insts)
            .field("cycles_per_sec", self.cycles_per_sec())
            .field("insts_per_sec", self.insts_per_sec())
    }
}

/// Per-cycle stall attribution. Every simulated cycle in which no
/// instruction retired is charged to *exactly one* cause, keyed off the
/// oldest unretired copy — the instruction whose progress gates commit.
/// Together with productive cycles this partitions the whole run:
///
/// ```text
/// active_commit_cycles + stalls.total() == cycles
/// ```
///
/// (see [`SimStats::stall_conservation_holds`]). The taxonomy follows
/// the paper's Section 3 decomposition of where ALU-bandwidth pressure
/// shows up: front-end supply, data dependences, issue-slot pressure,
/// FU contention, IRB port starvation, execution latency, retirement
/// limits and DIE rewind recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// The window held no copies — the front end supplied nothing
    /// (branch recovery, I-cache misses, BTB bubbles; the
    /// `fetch_stalls_*` counters say which).
    pub frontend_empty: u64,
    /// Oldest unretired copy was waiting on operands (data
    /// dependences, including loads feeding it).
    ///
    /// Cannot fire under the committed-path model: the copy's producers
    /// are older, so they retired in an earlier cycle (a retirement in
    /// this cycle makes it productive, and commit runs first in each
    /// cycle), and each one broadcast its result at writeback, which
    /// woke the copy, before it could retire. The field stays because
    /// the report and figure JSON carry it.
    pub waiting_deps: u64,
    /// Oldest copy was ready but the previous cycle's issue bandwidth
    /// was exhausted before reaching it.
    pub issue_starved: u64,
    /// Oldest copy was ready with issue bandwidth to spare but lost
    /// functional-unit (or D-cache port) arbitration.
    pub fu_contention: u64,
    /// Oldest copy was ready but its IRB lookup had been denied a read
    /// port, so the reuse test could not serve it.
    pub irb_port: u64,
    /// Oldest copy was in flight (functional-unit or memory latency).
    pub execution: u64,
    /// The head was done but could not retire, or its pair partner was
    /// not in the RUU. An unfinished partner is charged by its own
    /// state instead.
    ///
    /// Cannot fire on a machine that retires at all. Dispatch inserts a
    /// pair's two copies together, so the partner is always present.
    /// Commit runs first in each cycle with the whole commit width and
    /// a free D-cache port, so a done head retires (or rewinds) unless
    /// something already retired this cycle, and that cycle is
    /// productive. Only a dual-mode machine with commit width 1, which
    /// never retires a pair, charges it.
    pub commit_blocked: u64,
    /// A DIE pair mismatch rewound the head pair this cycle.
    pub rewind: u64,
}

impl StallBreakdown {
    /// Total attributed stall cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.frontend_empty
            + self.waiting_deps
            + self.issue_starved
            + self.fu_contention
            + self.irb_port
            + self.execution
            + self.commit_blocked
            + self.rewind
    }

    /// Accumulates another breakdown into this one.
    pub fn add(&mut self, other: &StallBreakdown) {
        self.frontend_empty += other.frontend_empty;
        self.waiting_deps += other.waiting_deps;
        self.issue_starved += other.issue_starved;
        self.fu_contention += other.fu_contention;
        self.irb_port += other.irb_port;
        self.execution += other.execution;
        self.commit_blocked += other.commit_blocked;
        self.rewind += other.rewind;
    }

    /// The breakdown as a flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("frontend_empty", self.frontend_empty)
            .field("waiting_deps", self.waiting_deps)
            .field("issue_starved", self.issue_starved)
            .field("fu_contention", self.fu_contention)
            .field("irb_port", self.irb_port)
            .field("execution", self.execution)
            .field("commit_blocked", self.commit_blocked)
            .field("rewind", self.rewind)
    }

    /// Reads a breakdown back out of [`StallBreakdown::to_json`] output
    /// (missing fields read as zero; `None` only for a non-object).
    #[must_use]
    pub fn from_json(j: &Json) -> Option<StallBreakdown> {
        let g = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        j.get("frontend_empty")?;
        Some(StallBreakdown {
            frontend_empty: g("frontend_empty"),
            waiting_deps: g("waiting_deps"),
            issue_starved: g("issue_starved"),
            fu_contention: g("fu_contention"),
            irb_port: g("irb_port"),
            execution: g("execution"),
            commit_blocked: g("commit_blocked"),
            rewind: g("rewind"),
        })
    }
}

/// Cycle-accounting aggregate across every simulation a harness ran:
/// total cycles, the productive (committing) share, and the stall
/// breakdown for the rest. Emitted as the `"stalls"` field of the
/// figure binaries' `--json` output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallSummary {
    /// Total simulated cycles across the aggregated runs.
    pub cycles: u64,
    /// Cycles in which at least one instruction committed.
    pub productive_cycles: u64,
    /// Where the remaining cycles went.
    pub stalls: StallBreakdown,
}

impl StallSummary {
    /// Folds one run's statistics into the aggregate.
    pub fn add_run(&mut self, s: &SimStats) {
        self.cycles += s.cycles;
        self.productive_cycles += s.active_commit_cycles;
        self.stalls.add(&s.stalls);
    }

    /// The aggregate as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("cycles", self.cycles)
            .field("productive_cycles", self.productive_cycles)
            .field("breakdown", self.stalls.to_json())
    }
}

/// Everything a run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Architected (per-program) instructions committed.
    pub committed_insts: u64,
    /// RUU entries committed (copies; 2× in dual modes).
    pub committed_copies: u64,
    /// Copies issued to functional units.
    pub fu_issues: u64,
    /// Duplicate copies that bypassed the functional units via reuse.
    pub fu_bypasses: u64,
    /// Integer-ALU-pool operations issued (the contended resource).
    pub int_alu_ops: u64,
    /// Integer-ALU-pool busy unit-cycles (utilization numerator).
    pub int_alu_busy_cycles: u64,
    /// Cycles in which at least one instruction was committed.
    pub active_commit_cycles: u64,
    /// Where every non-committing cycle went, one cause per cycle;
    /// `active_commit_cycles + stalls.total() == cycles` always.
    pub stalls: StallBreakdown,
    /// Sum of RUU occupancy over cycles (for the average).
    pub ruu_occupancy_sum: u64,
    /// Cycles the fetch stage delivered nothing, by cause.
    pub fetch_stalls_branch: u64,
    /// I-cache-miss fetch stalls.
    pub fetch_stalls_icache: u64,
    /// Fetch-queue-full stalls.
    pub fetch_stalls_queue: u64,
    /// BTB-bubble stalls.
    pub fetch_stalls_btb: u64,
    /// Cycles dispatch was blocked by a full RUU.
    pub dispatch_stalls_ruu: u64,
    /// Cycles dispatch was blocked by a full LSQ.
    pub dispatch_stalls_lsq: u64,
    /// Front-end prediction summary.
    pub branches: BranchSummary,
    /// L1I cache stats.
    pub l1i: CacheStats,
    /// L1D cache stats.
    pub l1d: CacheStats,
    /// L2 cache stats.
    pub l2: CacheStats,
    /// IRB summary (zeroed in modes without an IRB).
    pub irb: IrbSummary,
    /// DIE pair checks performed at commit.
    pub pairs_checked: u64,
    /// Pair mismatches (each triggers a rewind).
    pub pair_mismatches: u64,
    /// Fault-injection accounting.
    pub faults: FaultStats,
    /// Per-fault lifecycle classification (every injected fault lands
    /// in exactly one terminal outcome; see
    /// [`FaultLifecycle::conservation_holds`]).
    pub fault_lifecycle: FaultLifecycle,
    /// `true` if the run was cut short by the watchdog deadline
    /// ([`Simulator::with_watchdog`](crate::Simulator::with_watchdog));
    /// pending faults were then classified as hangs.
    pub watchdog_fired: bool,
    /// Reuse attribution (opcode class × PC × loop), present only when
    /// the run was configured with
    /// [`Simulator::with_attribution`](crate::Simulator::with_attribution).
    /// `None` keeps disabled runs byte-identical: the field is omitted
    /// from [`SimStats::to_json`] and never allocated.
    pub attribution: Option<Box<ReuseAttribution>>,
}

impl SimStats {
    /// Architected instructions per cycle — the paper's metric.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_insts as f64 / self.cycles as f64
        }
    }

    /// [`SimStats::ipc`] ×1000 as an exact integer (byte-stable across
    /// hosts; the aggregation currency of the metrics and campaign
    /// layers).
    #[must_use]
    pub fn milli_ipc(&self) -> u64 {
        permille(self.committed_insts, self.cycles)
    }

    /// Copies (RUU entries) per cycle — the machine's raw throughput.
    #[must_use]
    pub fn copy_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_copies as f64 / self.cycles as f64
        }
    }

    /// Average RUU occupancy.
    #[must_use]
    pub fn avg_ruu_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ruu_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Integer-ALU pool utilization in `[0, 1]`, given the pool size.
    #[must_use]
    pub fn int_alu_utilization(&self, int_alus: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.int_alu_busy_cycles as f64 / (self.cycles * int_alus as u64) as f64
        }
    }

    /// Percentage IPC loss of `self` relative to a baseline run
    /// (positive = slower than baseline). The y-axis of Figure 2.
    #[must_use]
    pub fn ipc_loss_vs(&self, baseline: &SimStats) -> f64 {
        let (a, b) = (self.ipc(), baseline.ipc());
        if b == 0.0 {
            0.0
        } else {
            (1.0 - a / b) * 100.0
        }
    }

    /// Fraction of eligible duplicate work served by the IRB.
    #[must_use]
    pub fn bypass_fraction(&self) -> f64 {
        let n = self.fu_issues + self.fu_bypasses;
        if n == 0 {
            0.0
        } else {
            self.fu_bypasses as f64 / n as f64
        }
    }

    /// [`SimStats::bypass_fraction`] as an exact integer per-mille.
    #[must_use]
    pub fn bypass_permille(&self) -> u64 {
        permille(self.fu_bypasses, self.fu_issues + self.fu_bypasses)
    }

    /// Whether the cycle-accounting invariant holds: every simulated
    /// cycle is either productive or attributed to exactly one stall
    /// cause.
    #[must_use]
    pub fn stall_conservation_holds(&self) -> bool {
        self.active_commit_cycles + self.stalls.total() == self.cycles
    }

    /// The full statistics record as a JSON object (the machine-readable
    /// form behind the bench harness's `--json` flag).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let cache = |c: &CacheStats| {
            Json::obj()
                .field("accesses", c.accesses)
                .field("hits", c.hits)
                .field("writebacks", c.writebacks)
        };
        let j = Json::obj()
            .field("cycles", self.cycles)
            .field("committed_insts", self.committed_insts)
            .field("committed_copies", self.committed_copies)
            .field("ipc", self.ipc())
            .field("milli_ipc", self.milli_ipc())
            .field("fu_issues", self.fu_issues)
            .field("fu_bypasses", self.fu_bypasses)
            .field("bypass_permille", self.bypass_permille())
            .field("int_alu_ops", self.int_alu_ops)
            .field("int_alu_busy_cycles", self.int_alu_busy_cycles)
            .field("active_commit_cycles", self.active_commit_cycles)
            .field("stalls", self.stalls.to_json())
            .field("ruu_occupancy_sum", self.ruu_occupancy_sum)
            .field(
                "fetch_stalls",
                Json::obj()
                    .field("branch", self.fetch_stalls_branch)
                    .field("icache", self.fetch_stalls_icache)
                    .field("queue", self.fetch_stalls_queue)
                    .field("btb", self.fetch_stalls_btb),
            )
            .field(
                "dispatch_stalls",
                Json::obj()
                    .field("ruu", self.dispatch_stalls_ruu)
                    .field("lsq", self.dispatch_stalls_lsq),
            )
            .field(
                "branches",
                Json::obj()
                    .field("cond_branches", self.branches.cond_branches)
                    .field("cond_mispredicts", self.branches.cond_mispredicts)
                    .field("indirect_jumps", self.branches.indirect_jumps)
                    .field("indirect_mispredicts", self.branches.indirect_mispredicts)
                    .field("btb_miss_bubbles", self.branches.btb_miss_bubbles),
            )
            .field("l1i", cache(&self.l1i))
            .field("l1d", cache(&self.l1d))
            .field("l2", cache(&self.l2))
            .field(
                "irb",
                Json::obj()
                    .field("lookups", self.irb.buffer.lookups)
                    .field("pc_hits", self.irb.buffer.pc_hits)
                    .field("victim_hits", self.irb.buffer.victim_hits)
                    .field("inserts", self.irb.buffer.inserts)
                    .field("conflict_evictions", self.irb.buffer.conflict_evictions)
                    .field("invalidations", self.irb.buffer.invalidations)
                    .field("reuse_passed", self.irb.reuse_passed)
                    .field("reuse_failed", self.irb.reuse_failed)
                    .field("reuse_pass_permille", self.irb.reuse_pass_permille())
                    .field("hit_permille", self.irb.hit_permille())
                    .field("lookups_port_starved", self.irb.lookups_port_starved)
                    .field("inserts_port_starved", self.irb.inserts_port_starved),
            )
            .field("pairs_checked", self.pairs_checked)
            .field("pair_mismatches", self.pair_mismatches)
            .field(
                "faults",
                Json::obj()
                    .field("injected_fu", self.faults.injected_fu)
                    .field("injected_forward", self.faults.injected_forward)
                    .field("injected_irb", self.faults.injected_irb)
                    .field("detected", self.faults.detected)
                    .field("escaped", self.faults.escaped)
                    .field("silent_sie", self.faults.silent_sie),
            )
            .field(
                "fault_lifecycle",
                Json::obj()
                    .field("injected", self.fault_lifecycle.injected)
                    .field("detected", self.fault_lifecycle.detected)
                    .field("masked", self.fault_lifecycle.masked)
                    .field("silent", self.fault_lifecycle.silent)
                    .field("hung", self.fault_lifecycle.hung)
                    .field(
                        "detection_latency_sum",
                        self.fault_lifecycle.detection_latency_sum,
                    )
                    .field(
                        "detection_latency_max",
                        self.fault_lifecycle.detection_latency_max,
                    )
                    .field(
                        "latency_histogram",
                        self.fault_lifecycle
                            .latency_histogram
                            .iter()
                            .map(|&n| Json::from(n))
                            .collect::<Json>(),
                    )
                    .field("squash_depth_sum", self.fault_lifecycle.squash_depth_sum)
                    .field(
                        "refetch_penalty_sum",
                        self.fault_lifecycle.refetch_penalty_sum,
                    ),
            )
            .field("watchdog_fired", self.watchdog_fired);
        // Omitted entirely when attribution is off, so disabled runs
        // stay byte-identical to pre-attribution output.
        match &self.attribution {
            Some(a) => j.field("attribution", attribution_to_json(a)),
            None => j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_loss_matches_figure2_definition() {
        let base = SimStats {
            cycles: 100,
            committed_insts: 200,
            ..SimStats::default()
        };
        let slower = SimStats {
            cycles: 100,
            committed_insts: 150,
            ..SimStats::default()
        };
        assert!((slower.ipc_loss_vs(&base) - 25.0).abs() < 1e-12);
        assert!((base.ipc_loss_vs(&base)).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_bounded() {
        let s = SimStats {
            cycles: 100,
            int_alu_busy_cycles: 250,
            ..SimStats::default()
        };
        let u = s.int_alu_utilization(4);
        assert!((u - 0.625).abs() < 1e-12);
    }

    #[test]
    fn reuse_pass_rate_zero_when_unused() {
        assert_eq!(IrbSummary::default().reuse_pass_rate(), 0.0);
    }

    #[test]
    fn permille_fields_match_float_ratios() {
        let s = SimStats {
            cycles: 3,
            committed_insts: 2,
            fu_issues: 1,
            fu_bypasses: 3,
            ..SimStats::default()
        };
        assert_eq!(s.milli_ipc(), 666);
        assert_eq!(s.bypass_permille(), 750);
        assert_eq!(SimStats::default().milli_ipc(), 0);
        let irb = IrbSummary {
            reuse_passed: 1,
            reuse_failed: 2,
            ..IrbSummary::default()
        };
        assert_eq!(irb.reuse_pass_permille(), 333);
        assert_eq!(IrbSummary::default().hit_permille(), 0);
    }

    #[test]
    fn attribution_omitted_from_json_when_disabled() {
        let s = SimStats::default();
        assert!(!s.to_json().to_string().contains("attribution"));
        let on = SimStats {
            attribution: Some(Box::default()),
            ..SimStats::default()
        };
        let txt = on.to_json().to_string();
        assert!(txt.contains("\"attribution\""));
        assert!(txt.contains("\"hot_pcs\""));
        assert!(txt.contains("\"outside\""));
    }

    #[test]
    fn stall_breakdown_total_and_add() {
        let a = StallBreakdown {
            frontend_empty: 1,
            waiting_deps: 2,
            issue_starved: 3,
            fu_contention: 4,
            irb_port: 5,
            execution: 6,
            commit_blocked: 7,
            rewind: 8,
        };
        assert_eq!(a.total(), 36);
        let mut b = a;
        b.add(&a);
        assert_eq!(b.total(), 72);
        assert_eq!(b.rewind, 16);
    }

    #[test]
    fn stall_breakdown_json_round_trips() {
        let a = StallBreakdown {
            frontend_empty: 10,
            waiting_deps: 20,
            execution: 30,
            ..StallBreakdown::default()
        };
        let j = a.to_json();
        let back = StallBreakdown::from_json(&Json::parse(&j.to_string()).expect("parses"))
            .expect("object");
        assert_eq!(back, a);
        assert_eq!(StallBreakdown::from_json(&Json::obj()), None);
    }

    #[test]
    fn stall_conservation_checks_the_partition() {
        let mut s = SimStats {
            cycles: 10,
            active_commit_cycles: 6,
            ..SimStats::default()
        };
        s.stalls.waiting_deps = 4;
        assert!(s.stall_conservation_holds());
        s.stalls.waiting_deps = 5;
        assert!(!s.stall_conservation_holds());
    }

    #[test]
    fn stall_summary_accumulates_runs() {
        let mut s = SimStats {
            cycles: 10,
            active_commit_cycles: 6,
            ..SimStats::default()
        };
        s.stalls.execution = 4;
        let mut sum = StallSummary::default();
        sum.add_run(&s);
        sum.add_run(&s);
        assert_eq!(sum.cycles, 20);
        assert_eq!(sum.productive_cycles, 12);
        assert_eq!(sum.stalls.execution, 8);
    }
}
