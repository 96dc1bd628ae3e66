use super::*;
use crate::config::{MachineConfig, SchedulerModel};
use redsim_isa::asm::assemble;

fn run(src: &str, mode: ExecMode) -> SimStats {
    let p = assemble(src).expect("assemble");
    Simulator::new(MachineConfig::tiny(), mode)
        .run_program(&p)
        .expect("run")
}

fn run_cfg(src: &str, mode: ExecMode, cfg: MachineConfig) -> SimStats {
    let p = assemble(src).expect("assemble");
    Simulator::new(cfg, mode).run_program(&p).expect("run")
}

/// A loop whose body is a chain of truly dependent single-cycle adds:
/// sustained IPC must stay near 1 in SIE (the loop keeps the I-cache
/// warm so the dependence chain, not cold fetch misses, dominates).
fn serial_chain(iters: usize) -> String {
    let mut s = format!("main: li s0, {iters}\nloop:\n");
    for _ in 0..16 {
        s.push_str(" addi t0, t0, 1\n");
    }
    s.push_str(" addi s0, s0, -1\n bnez s0, loop\n halt\n");
    s
}

/// A loop of independent adds across registers: IPC limited by the ALU
/// count, not by dependences.
fn parallel_adds(iters: usize) -> String {
    let mut s = format!("main: li s0, {iters}\nloop:\n");
    for _ in 0..4 {
        s.push_str(" addi t0, t0, 1\n addi t1, t1, 1\n addi t2, t2, 1\n addi t3, t3, 1\n");
    }
    s.push_str(" addi s0, s0, -1\n bnez s0, loop\n halt\n");
    s
}

/// Committed-path length of a program (the emulator's ground truth).
fn trace_len(src: &str) -> u64 {
    let p = assemble(src).expect("assemble");
    let mut emu = redsim_isa::emu::Emulator::new(&p);
    emu.run(10_000_000).expect("emulate")
}

#[test]
fn sie_commits_every_instruction_exactly_once() {
    let stats = run(
        "main: li a0, 3\n li a1, 4\n add a2, a0, a1\n halt\n",
        ExecMode::Sie,
    );
    assert_eq!(stats.committed_insts, 4);
    assert_eq!(stats.committed_copies, 4);
    assert_eq!(stats.pairs_checked, 0, "no pairs in SIE");
}

#[test]
fn die_commits_two_copies_per_instruction() {
    let stats = run(
        "main: li a0, 3\n li a1, 4\n add a2, a0, a1\n halt\n",
        ExecMode::Die,
    );
    assert_eq!(stats.committed_insts, 4);
    assert_eq!(stats.committed_copies, 8);
    assert!(
        stats.pairs_checked >= 3,
        "value-producing pairs are checked"
    );
    assert_eq!(stats.pair_mismatches, 0, "fault-free run never mismatches");
}

#[test]
fn serial_chain_ipc_is_at_most_one() {
    let stats = run(&serial_chain(300), ExecMode::Sie);
    let ipc = stats.ipc();
    assert!(ipc <= 1.2, "dependence chain pins IPC near 1, got {ipc}");
    assert!(ipc > 0.85, "chain should stay near IPC 1, got {ipc}");
}

#[test]
fn parallel_work_is_limited_by_alu_count() {
    // tiny() has 2 integer ALUs and issue width 4.
    let stats = run(&parallel_adds(200), ExecMode::Sie);
    let ipc = stats.ipc();
    assert!(ipc <= 2.1, "2 ALUs cap IPC at 2, got {ipc}");
    assert!(
        ipc > 1.6,
        "independent work should saturate the ALUs, got {ipc}"
    );
}

#[test]
fn die_halves_alu_limited_throughput() {
    let sie = run(&parallel_adds(200), ExecMode::Sie);
    let die = run(&parallel_adds(200), ExecMode::Die);
    assert!(
        die.ipc() < sie.ipc() * 0.65,
        "DIE must roughly halve ALU-bound IPC: sie={} die={}",
        sie.ipc(),
        die.ipc()
    );
}

#[test]
fn doubling_alus_recovers_die_throughput() {
    let die = run(&parallel_adds(200), ExecMode::Die);
    let die2x = run_cfg(
        &parallel_adds(200),
        ExecMode::Die,
        MachineConfig::tiny().with_double_alus(),
    );
    assert!(
        die2x.ipc() > die.ipc() * 1.3,
        "2xALU must lift ALU-bound DIE: die={} die2x={}",
        die.ipc(),
        die2x.ipc()
    );
}

#[test]
fn die_irb_recovers_alu_bandwidth_on_reusable_work() {
    // An outer loop that recomputes the same inner values every
    // iteration: classic instruction reuse. The duplicate stream should
    // ride the IRB after the first iteration.
    let src = r#"
    main:
        li s0, 60            # outer trip count
    outer:
        li t0, 1
        li t1, 2
        add t2, t0, t1
        add t3, t2, t1
        xor t4, t2, t3
        and t5, t4, t3
        or  t6, t5, t0
        addi s0, s0, -1
        bnez s0, outer
        halt
    "#;
    let die = run(src, ExecMode::Die);
    let die_irb = run(src, ExecMode::DieIrb);
    assert!(die_irb.fu_bypasses > 0, "reuse must fire");
    assert!(
        die_irb.ipc() >= die.ipc(),
        "IRB must not slow DIE down: die={} die_irb={}",
        die.ipc(),
        die_irb.ipc()
    );
    assert!(
        die_irb.irb.buffer.hit_rate() > 0.5,
        "tight loop should hit the IRB often, got {}",
        die_irb.irb.buffer.hit_rate()
    );
}

#[test]
fn die_irb_never_commits_wrong_counts() {
    let src = serial_chain(100);
    let n = trace_len(&src);
    let die_irb = run(&src, ExecMode::DieIrb);
    assert_eq!(die_irb.committed_insts, n);
    assert_eq!(die_irb.committed_copies, 2 * n);
}

#[test]
fn reuse_test_fails_when_operands_change() {
    // The add's operand changes every iteration: the IRB hits on PC but
    // the reuse test must fail each time (operand mismatch).
    let src = r#"
    main:
        li s0, 50
    loop:
        add s1, s1, s0       # s1 changes every iteration
        addi s0, s0, -1
        bnez s0, loop
        halt
    "#;
    let stats = run(src, ExecMode::DieIrb);
    assert!(
        stats.irb.reuse_failed > 30,
        "changing operands must fail the reuse test, failed={}",
        stats.irb.reuse_failed
    );
}

#[test]
fn branch_mispredictions_cost_cycles() {
    // A data-dependent unpredictable-ish branch pattern vs a fixed one.
    let predictable = r#"
    main:
        li s0, 200
    loop:
        addi s0, s0, -1
        bnez s0, loop
        halt
    "#;
    let stats = run(predictable, ExecMode::Sie);
    assert!(
        stats.branches.cond_mispredicts <= 4,
        "loop branch must be learned, got {}",
        stats.branches.cond_mispredicts
    );
}

#[test]
fn memory_dependences_are_respected_in_timing() {
    // store then load same address: the load's completion must follow
    // the store's issue; functionally the value is always right, but the
    // run must terminate with all instructions committed.
    let src = r#"
        .data
    buf: .space 8
        .text
    main:
        la s0, buf
        li t0, 123
        sd t0, 0(s0)
        ld t1, 0(s0)
        puti t1
        halt
    "#;
    for mode in [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb] {
        let stats = run(src, mode);
        assert_eq!(stats.committed_insts, 6, "{mode:?}");
    }
}

#[test]
fn runs_are_deterministic() {
    let src = serial_chain(120);
    let a = run(&src, ExecMode::DieIrb);
    let b = run(&src, ExecMode::DieIrb);
    assert_eq!(a, b);
}

#[test]
fn sie_irb_bypasses_without_duplication() {
    let src = r#"
    main:
        li s0, 40
    outer:
        li t0, 7
        li t1, 9
        add t2, t0, t1
        mul t3, t0, t1
        addi s0, s0, -1
        bnez s0, outer
        halt
    "#;
    let stats = run(src, ExecMode::SieIrb);
    assert!(stats.fu_bypasses > 0, "SIE-IRB must reuse");
    assert_eq!(stats.committed_copies, stats.committed_insts);
}

#[test]
fn fp_heavy_code_contends_for_fp_units() {
    let src = r#"
    main:
        li s0, 30
        li t0, 3
        fcvt.d.l f1, t0
    loop:
        fmul.d f2, f1, f1
        fmul.d f3, f1, f1
        fadd.d f4, f2, f3
        addi s0, s0, -1
        bnez s0, loop
        putf f4
        halt
    "#;
    let sie = run(src, ExecMode::Sie);
    let die = run(src, ExecMode::Die);
    // tiny() has one fp-mul unit: duplication must hurt.
    assert!(die.cycles > sie.cycles);
}

#[test]
fn unpipelined_divider_serializes() {
    let src = r#"
    main:
        li t0, 1000
        li t1, 7
        div t2, t0, t1
        div t3, t0, t1
        div t4, t0, t1
        halt
    "#;
    let stats = run(src, ExecMode::Sie);
    // 3 divides at 20 cycles on one unpipelined unit: at least 60 cycles.
    assert!(stats.cycles >= 60, "got {}", stats.cycles);
}

#[test]
fn fault_free_runs_report_no_faults() {
    let stats = run(&serial_chain(50), ExecMode::Die);
    assert_eq!(stats.faults.detected, 0);
    assert_eq!(stats.faults.escaped, 0);
    assert_eq!(stats.faults.injected_fu, 0);
}

#[test]
fn die_detects_fu_faults_and_recovers() {
    let p = assemble(&serial_chain(400)).unwrap();
    let stats = Simulator::new(MachineConfig::tiny(), ExecMode::Die)
        .try_with_faults(FaultConfig {
            fu_rate: 0.02,
            ..FaultConfig::none()
        })
        .expect("valid fault configuration")
        .run_program(&p)
        .expect("run");
    assert!(stats.faults.injected_fu > 0, "faults must fire");
    assert!(stats.faults.detected > 0, "DIE must detect them");
    assert_eq!(stats.faults.silent_sie, 0);
    assert_eq!(
        stats.committed_insts,
        trace_len(&serial_chain(400)),
        "rewinds must not lose instructions"
    );
    assert_eq!(stats.pair_mismatches, stats.faults.detected);
}

#[test]
fn sie_suffers_silent_corruption_under_the_same_faults() {
    let p = assemble(&serial_chain(400)).unwrap();
    let stats = Simulator::new(MachineConfig::tiny(), ExecMode::Sie)
        .try_with_faults(FaultConfig {
            fu_rate: 0.02,
            ..FaultConfig::none()
        })
        .expect("valid fault configuration")
        .run_program(&p)
        .expect("run");
    assert!(stats.faults.injected_fu > 0);
    assert_eq!(stats.faults.detected, 0, "SIE has no checker");
    assert!(stats.faults.silent_sie > 0, "corruption goes silent");
}

#[test]
fn irb_strikes_are_detected_at_commit() {
    // High reuse + constant IRB strikes: corrupted buffered results that
    // get reused must be exposed by the commit comparison against the
    // primary's ALU execution (§3.4).
    let src = r#"
    main:
        li s0, 300
    outer:
        li t0, 1
        li t1, 2
        add t2, t0, t1
        add t3, t2, t1
        addi s0, s0, -1
        bnez s0, outer
        halt
    "#;
    let p = assemble(src).unwrap();
    let stats = Simulator::new(MachineConfig::tiny(), ExecMode::DieIrb)
        .try_with_faults(FaultConfig {
            irb_rate: 0.8,
            seed: 42,
            ..FaultConfig::none()
        })
        .expect("valid fault configuration")
        .run_program(&p)
        .expect("run");
    assert!(stats.faults.injected_irb > 0, "IRB strikes must land");
    assert!(
        stats.faults.detected > 0,
        "a reused corrupt result must mismatch the primary's execution"
    );
    assert_eq!(stats.committed_insts, 1802);
}

#[test]
fn common_mode_forwarding_faults_escape_primary_to_both() {
    // Figure 6(c): a strike on the shared forwarding bus feeds both
    // streams the same wrong operand; the copies agree and the fault
    // escapes the sphere of replication.
    let p = assemble(&serial_chain(300)).unwrap();
    let cfg = MachineConfig::tiny(); // forwarding: PrimaryToBoth
    let stats = Simulator::new(cfg, ExecMode::DieIrb)
        .try_with_faults(FaultConfig {
            forward_rate: 0.05,
            seed: 3,
            ..FaultConfig::none()
        })
        .expect("valid fault configuration")
        .run_program(&p)
        .expect("run");
    assert!(stats.faults.injected_forward > 0);
    assert!(stats.faults.escaped > 0, "common-mode faults escape");
    assert_eq!(
        stats.faults.detected, 0,
        "both copies agree on the wrong value"
    );
}

#[test]
fn per_stream_forwarding_faults_are_detected() {
    // Figure 6(b): with per-stream forwarding the same strike corrupts
    // one stream only, so the commit comparison catches it.
    let p = assemble(&serial_chain(300)).unwrap();
    let stats = Simulator::new(MachineConfig::tiny(), ExecMode::Die)
        .try_with_faults(FaultConfig {
            forward_rate: 0.05,
            seed: 3,
            ..FaultConfig::none()
        })
        .expect("valid fault configuration")
        .run_program(&p)
        .expect("run");
    assert!(stats.faults.injected_forward > 0);
    assert!(
        stats.faults.detected > 0,
        "single-stream corruption is caught"
    );
}

#[test]
fn stats_are_internally_consistent() {
    let stats = run(&parallel_adds(100), ExecMode::DieIrb);
    assert_eq!(stats.committed_copies, 2 * stats.committed_insts);
    assert!(stats.fu_issues + stats.fu_bypasses >= stats.committed_copies / 2);
    assert!(stats.active_commit_cycles <= stats.cycles);
    assert!(stats.irb.buffer.pc_hits <= stats.irb.buffer.lookups);
    assert!(stats.avg_ruu_occupancy() <= MachineConfig::tiny().ruu_size as f64);
}

#[test]
fn empty_program_runs_and_reports_zero() {
    let p = assemble("main: halt\n").unwrap();
    let stats = Simulator::new(MachineConfig::tiny(), ExecMode::Sie)
        .run_program(&p)
        .unwrap();
    assert_eq!(stats.committed_insts, 1);
    assert!(stats.cycles > 0);
}

#[test]
fn ipc_ordering_sie_geq_dieirb_geq_die_on_mixed_code() {
    // The paper's headline ordering on a workload with both reusable
    // and non-reusable duplicate work.
    let src = r#"
        .data
    arr: .space 256
        .text
    main:
        li s0, 80
        la s1, arr
    outer:
        li t0, 5
        li t1, 6
        add t2, t0, t1
        mul t3, t0, t1
        ld t4, 0(s1)
        add t5, t4, t2
        sd t5, 8(s1)
        xor t6, t3, t5
        addi s0, s0, -1
        bnez s0, outer
        halt
    "#;
    let sie = run(src, ExecMode::Sie);
    let die = run(src, ExecMode::Die);
    let die_irb = run(src, ExecMode::DieIrb);
    assert!(sie.ipc() >= die_irb.ipc() * 0.99, "SIE is the ceiling");
    assert!(
        die_irb.ipc() >= die.ipc(),
        "DIE-IRB must sit between DIE and SIE: sie={} die_irb={} die={}",
        sie.ipc(),
        die_irb.ipc(),
        die.ipc()
    );
}

#[test]
fn clustered_die_avoids_fu_contention() {
    // ALU-bound independent work: plain DIE halves throughput, but a
    // replicated duplicate cluster should track SIE closely.
    let src = parallel_adds(200);
    let sie = run(&src, ExecMode::Sie);
    let die = run(&src, ExecMode::Die);
    let clustered = run(&src, ExecMode::DieCluster);
    assert!(
        clustered.ipc() > die.ipc() * 1.2,
        "replicated FUs must relieve the contention: die={} cluster={}",
        die.ipc(),
        clustered.ipc()
    );
    assert!(
        clustered.ipc() <= sie.ipc() * 1.02,
        "a cluster cannot beat SIE: sie={} cluster={}",
        sie.ipc(),
        clustered.ipc()
    );
    assert_eq!(clustered.committed_insts, trace_len(&src));
}

#[test]
fn cluster_delay_slows_load_dependent_duplicates() {
    let src = r#"
        .data
    buf: .space 256
        .text
    main:
        la s0, buf
        li s1, 200
    loop:
        ld t0, 0(s0)
        add t1, t0, t0
        sd t1, 8(s0)
        addi s1, s1, -1
        bnez s1, loop
        halt
    "#;
    let mut fast = MachineConfig::tiny();
    fast.cluster_delay = 0;
    let mut slow = MachineConfig::tiny();
    slow.cluster_delay = 12;
    let p = assemble(src).unwrap();
    let f = Simulator::new(fast, ExecMode::DieCluster)
        .run_program(&p)
        .unwrap();
    let s = Simulator::new(slow, ExecMode::DieCluster)
        .run_program(&p)
        .unwrap();
    assert!(
        s.cycles > f.cycles,
        "inter-cluster latency must cost cycles: fast={} slow={}",
        f.cycles,
        s.cycles
    );
}

#[test]
fn scheduler_models_order_as_section_3_3_argues() {
    // Reusable work: data-capture bypass (free) should beat the
    // pipelined non-data-capture variant (reuse test one cycle late),
    // which should beat the naive variant (reuse saves no bandwidth).
    let src = r#"
    main:
        li s0, 150
    outer:
        li t0, 3
        li t1, 4
        add t2, t0, t1
        add t3, t2, t1
        xor t4, t2, t3
        or  t5, t4, t0
        addi s0, s0, -1
        bnez s0, outer
        halt
    "#;
    let p = assemble(src).unwrap();
    let run_sched = |m: SchedulerModel| {
        let mut cfg = MachineConfig::tiny();
        cfg.scheduler = m;
        Simulator::new(cfg, ExecMode::DieIrb)
            .run_program(&p)
            .unwrap()
    };
    let dc = run_sched(SchedulerModel::DataCapture);
    let pipe = run_sched(SchedulerModel::NonDataCapturePipelined);
    let naive = run_sched(SchedulerModel::NonDataCaptureNaive);
    assert!(dc.fu_bypasses > 0 && pipe.fu_bypasses > 0 && naive.fu_bypasses > 0);
    assert!(
        dc.ipc() >= pipe.ipc(),
        "data-capture cannot lose to the delayed test: dc={} pipe={}",
        dc.ipc(),
        pipe.ipc()
    );
    assert!(
        pipe.ipc() >= naive.ipc(),
        "wasting FUs cannot win: pipe={} naive={}",
        pipe.ipc(),
        naive.ipc()
    );
    // The naive variant burns a functional unit per bypass.
    assert!(naive.fu_issues > dc.fu_issues);
    // All three commit identically.
    assert_eq!(dc.committed_insts, naive.committed_insts);
}

#[test]
fn ruu_full_stalls_are_counted() {
    // A serial divider chain at the head of the in-order commit stream
    // backs the whole window up (looped, so the I-cache stays warm and
    // fetch keeps feeding the RUU).
    let mut src = String::from("main: li t0, 1000000\n li t1, 3\n li s0, 40\nloop:\n");
    src.push_str(" div t2, t0, t1\n div t3, t2, t1\n");
    for _ in 0..12 {
        src.push_str(" addi t4, t4, 1\n");
    }
    src.push_str(" addi s0, s0, -1\n bnez s0, loop\n halt\n");
    let stats = run(&src, ExecMode::Die);
    assert!(
        stats.dispatch_stalls_ruu > 0,
        "a 32-entry RUU must fill behind 20-cycle divides"
    );
}

#[test]
fn lsq_full_stalls_are_counted() {
    // More outstanding memory ops than the tiny 16-entry LSQ holds.
    let mut src =
        String::from(".data\nbuf: .space 4096\n.text\nmain: la s0, buf\n li s1, 30\nloop:\n");
    for i in 0..24 {
        src.push_str(&format!(" sd t0, {}(s0)\n", i * 8));
    }
    src.push_str(" addi s1, s1, -1\n bnez s1, loop\n halt\n");
    let stats = run(&src, ExecMode::Sie);
    assert!(
        stats.dispatch_stalls_lsq > 0,
        "24 in-flight stores must fill a 16-entry LSQ"
    );
}

#[test]
fn icache_misses_stall_fetch_on_large_footprints() {
    // A straight-line program much larger than the 1 KB tiny L1I.
    let mut src = String::from("main:\n");
    for _ in 0..600 {
        src.push_str(" addi t0, t0, 1\n");
    }
    src.push_str(" halt\n");
    let stats = run(&src, ExecMode::Sie);
    assert!(stats.fetch_stalls_icache > 0);
    assert!(stats.l1i.misses() > 100, "4.8KB of code through a 1KB L1I");
}

#[test]
fn emulator_faults_propagate_as_sim_errors() {
    let p = assemble("main: li t0, 4\n ld t1, 0(t0)\n halt\n").unwrap();
    let err = Simulator::new(MachineConfig::tiny(), ExecMode::Sie)
        .run_program(&p)
        .unwrap_err();
    assert!(matches!(err, SimError::Emu(_)), "{err}");
    assert!(err.to_string().contains("bad memory address"), "{err}");
}

#[test]
fn budget_exhaustion_propagates() {
    let p = assemble("spin: j spin\n").unwrap();
    let err = Simulator::new(MachineConfig::tiny(), ExecMode::Sie)
        .with_budget(1000)
        .run_program(&p)
        .unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
}

#[test]
fn stats_source_trait_object_compatible() {
    // run_source takes &mut dyn InstructionSource — exercise with both
    // source kinds behind the trait.
    use crate::source::{EmulatorSource, TraceSource};
    let p = assemble("main: li a0, 1\n halt\n").unwrap();
    let cfg = MachineConfig::tiny();
    let mut emu_src = EmulatorSource::new(&p, 100);
    let a = Simulator::new(cfg.clone(), ExecMode::Sie)
        .run_source(&mut emu_src)
        .unwrap();
    let trace = redsim_isa::trace::Trace::record(p, 100).unwrap();
    let mut trace_src = TraceSource::new(&trace);
    let b = Simulator::new(cfg, ExecMode::Sie)
        .run_source(&mut trace_src)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn per_stream_forwarding_ablation_changes_timing_not_function() {
    let src = serial_chain(80);
    let n = trace_len(&src);
    let p = assemble(&src).unwrap();
    let mut cfg = MachineConfig::tiny();
    cfg.forwarding = crate::config::ForwardingPolicy::PerStream;
    let stats = Simulator::new(cfg, ExecMode::DieIrb)
        .run_program(&p)
        .unwrap();
    assert_eq!(stats.committed_insts, n);
}

#[test]
fn irb_sizes_are_monotone_enough() {
    // Larger IRBs can shuffle timing slightly but must not collapse.
    let src = r#"
    main:
        li s0, 100
    o:  li t0, 1
        li t1, 2
        add t2, t0, t1
        addi s0, s0, -1
        bnez s0, o
        halt
    "#;
    let p = assemble(src).unwrap();
    let ipc_at = |entries: usize| {
        let mut cfg = MachineConfig::tiny();
        cfg.irb.entries = entries;
        Simulator::new(cfg, ExecMode::DieIrb)
            .run_program(&p)
            .unwrap()
            .ipc()
    };
    let small = ipc_at(16);
    let big = ipc_at(1024);
    assert!(big >= small * 0.95, "16: {small}, 1024: {big}");
}

#[test]
fn zero_dcache_port_config_is_rejected() {
    let mut cfg = MachineConfig::tiny();
    cfg.dcache.ports = 0;
    let r = std::panic::catch_unwind(|| Simulator::new(cfg, ExecMode::Sie));
    assert!(r.is_err(), "validation must reject zero d-cache ports");
}

#[test]
fn wrong_path_fetch_pollutes_the_icache() {
    // An unpredictable branch pattern with a large taken-side target:
    // wrong-path streaming must add I-cache traffic.
    let src = r#"
    main:
        li s0, 300
        li s2, 0
    loop:
        andi t0, s0, 5
        beqz t0, far
    near:
        addi s2, s2, 1
        j cont
    far:
        addi s2, s2, 2
    cont:
        addi s0, s0, -1
        bnez s0, loop
        puti s2
        halt
    "#;
    let p = assemble(src).unwrap();
    let base = MachineConfig::tiny();
    let off = Simulator::new(base.clone(), ExecMode::Sie)
        .run_program(&p)
        .unwrap();
    let mut cfg = base;
    cfg.wrong_path_fetch = true;
    let on = Simulator::new(cfg, ExecMode::Sie).run_program(&p).unwrap();
    assert!(
        on.l1i.accesses > off.l1i.accesses,
        "wrong-path streaming must add I-cache accesses: off={} on={}",
        off.l1i.accesses,
        on.l1i.accesses
    );
    assert_eq!(on.committed_insts, off.committed_insts);
}

#[test]
fn stl_forwarding_speeds_store_load_pairs() {
    let src = r#"
        .data
    buf: .space 64
        .text
    main:
        la s0, buf
        li s1, 300
    loop:
        sd s1, 0(s0)
        ld t0, 0(s0)        # immediately reloads the stored value
        add t1, t1, t0
        addi s1, s1, -1
        bnez s1, loop
        halt
    "#;
    let p = assemble(src).unwrap();
    let base = MachineConfig::tiny();
    let slow = Simulator::new(base.clone(), ExecMode::Sie)
        .run_program(&p)
        .unwrap();
    let mut cfg = base;
    cfg.stl_forwarding = true;
    let fast = Simulator::new(cfg, ExecMode::Sie).run_program(&p).unwrap();
    assert!(
        fast.cycles < slow.cycles,
        "forwarding must beat the cache round trip: fwd={} cache={}",
        fast.cycles,
        slow.cycles
    );
    assert_eq!(fast.committed_insts, slow.committed_insts);
}

#[test]
fn perfect_branch_prediction_removes_recovery_stalls() {
    // A data-dependent branch pattern the tiny bimodal cannot learn.
    let src = r#"
    main:
        li s0, 400
        li s4, 12345
    loop:
        li t0, 1103515245
        mul s4, s4, t0
        addi s4, s4, 12345
        srli t1, s4, 16
        andi t1, t1, 1
        beqz t1, even
        addi s2, s2, 3
        j next
    even:
        addi s2, s2, 5
    next:
        addi s0, s0, -1
        bnez s0, loop
        halt
    "#;
    let p = assemble(src).unwrap();
    let real = Simulator::new(MachineConfig::tiny(), ExecMode::Sie)
        .run_program(&p)
        .unwrap();
    let mut cfg = MachineConfig::tiny();
    cfg.perfect_branch_prediction = true;
    let oracle = Simulator::new(cfg, ExecMode::Sie).run_program(&p).unwrap();
    assert!(
        real.branches.cond_mispredicts > 50,
        "pattern must confound bimodal"
    );
    assert_eq!(
        oracle.fetch_stalls_branch, 0,
        "oracle never waits on branches"
    );
    assert!(
        oracle.ipc() > real.ipc() * 1.1,
        "removing mispredicts must pay: real={} oracle={}",
        real.ipc(),
        oracle.ipc()
    );
    assert_eq!(oracle.committed_insts, real.committed_insts);
}

#[test]
fn long_latency_filter_restricts_reuse_to_expensive_ops() {
    // Loop with reusable cheap ALU work and reusable multiplies.
    let src = r#"
    main:
        li s0, 120
    loop:
        li t0, 6
        li t1, 7
        add t2, t0, t1
        mul t3, t0, t1
        addi s0, s0, -1
        bnez s0, loop
        halt
    "#;
    let p = assemble(src).unwrap();
    let all = Simulator::new(MachineConfig::tiny(), ExecMode::DieIrb)
        .run_program(&p)
        .unwrap();
    let mut cfg = MachineConfig::tiny();
    cfg.reuse_long_latency_only = true;
    let filtered = Simulator::new(cfg, ExecMode::DieIrb)
        .run_program(&p)
        .unwrap();
    assert!(filtered.fu_bypasses > 0, "multiplies still reuse");
    assert!(
        filtered.fu_bypasses < all.fu_bypasses / 2,
        "the cheap-op reuse must be gone: all={} filtered={}",
        all.fu_bypasses,
        filtered.fu_bypasses
    );
}

#[test]
fn last_store_map_is_pruned_as_stores_commit() {
    // Dozens of distinct addresses, stored over many loop iterations.
    // Before prune-on-commit the memory-dependence map kept one entry
    // per address ever stored for the life of the run; with pruning,
    // every address's final writer removes its own entry at commit, so
    // the map must be empty once the program drains.
    let mut src =
        String::from(".data\nbuf: .space 4096\n.text\nmain: la s0, buf\n li s1, 40\nloop:\n");
    for i in 0..32 {
        src.push_str(&format!(" sd t0, {}(s0)\n", i * 8));
    }
    src.push_str(" addi s1, s1, -1\n bnez s1, loop\n halt\n");
    let p = assemble(&src).expect("assemble");
    let cfg = MachineConfig::tiny();
    for mode in [ExecMode::Sie, ExecMode::Die] {
        let mut source = EmulatorSource::new(&p, 10_000_000);
        let mut tracer = NullTracer;
        let mut metrics = NullMetrics;
        let sim = Simulator::new(cfg.clone(), mode);
        let mut m = Machine::new(
            &sim,
            Instrumentation {
                tracer: &mut tracer,
                metrics: &mut metrics,
                profiler: None,
            },
        );
        m.run(&mut source).expect("run");
        assert!(
            m.last_store.is_empty(),
            "{mode:?}: {} stale store entries survived commit",
            m.last_store.len()
        );
    }
}

#[test]
fn scan_reference_engine_matches_event_driven() {
    // The scan is the oracle for the event-driven scheduler: debug
    // builds check the ready bitsets and the completion calendar
    // against it every cycle, on dependence-heavy, ILP-heavy and
    // memory-heavy kernels, in every mode.
    let mut mem =
        String::from(".data\nbuf: .space 512\n.text\nmain: la s0, buf\n li s1, 25\nloop:\n");
    for i in 0..8 {
        mem.push_str(&format!(" sd t0, {}(s0)\n ld t1, {}(s0)\n", i * 8, i * 8));
    }
    mem.push_str(" addi s1, s1, -1\n bnez s1, loop\n halt\n");
    for src in [serial_chain(40), parallel_adds(40), mem] {
        for mode in [ExecMode::Sie, ExecMode::Die, ExecMode::DieIrb] {
            let s = run(&src, mode);
            assert!(s.committed_insts > 0, "{mode:?}");
        }
    }
}

#[test]
// A run-time check on purpose: a test profile without debug assertions
// must fail here, by name, rather than compile the oracle out.
#[allow(clippy::assertions_on_constants)]
fn scheduler_oracle_is_compiled_into_test_builds() {
    assert!(
        cfg!(debug_assertions),
        "the scan oracle runs only with debug assertions; keep them on in [profile.test]"
    );
}

/// Steps `m` one cycle, as `Machine::run` does without a profiler.
fn step(m: &mut Machine<'_>, source: &mut EmulatorSource) {
    m.fill_lookahead(source).expect("fill");
    m.cycle += 1;
    m.begin_cycle();
    m.commit();
    m.writeback();
    m.issue();
    m.dispatch();
    m.fetch(source).expect("fetch");
}

/// Runs `parallel_adds` in SIE, stepping cycle by cycle, until
/// `corrupt` reports that it tampered with the scheduler's state; then
/// steps on until the oracle must have seen it.
fn tamper_mid_run(corrupt: impl Fn(&mut Machine<'_>) -> bool) {
    let p = assemble(&parallel_adds(20)).expect("assemble");
    let mut source = EmulatorSource::new(&p, 10_000_000);
    let (mut tracer, mut metrics) = (NullTracer, NullMetrics);
    let sim = Simulator::new(MachineConfig::tiny(), ExecMode::Sie);
    let mut m = Machine::new(
        &sim,
        Instrumentation {
            tracer: &mut tracer,
            metrics: &mut metrics,
            profiler: None,
        },
    );
    let mut tampered = false;
    for _ in 0..1_000 {
        step(&mut m, &mut source);
        tampered = tampered || corrupt(&mut m);
    }
    panic!("tampered = {tampered}, yet no oracle fired");
}

#[test]
#[should_panic(expected = "issue oracle")]
fn issue_oracle_catches_a_lost_ready_bit() {
    tamper_mid_run(|m| {
        let head = m.ruu.head_seq();
        let Some(seq) =
            (head..head + m.ruu.len() as u64).find(|&s| m.ruu.state(s) == EntryState::Ready)
        else {
            return false;
        };
        m.remove_ready(seq);
        true
    });
}

#[test]
#[should_panic(expected = "writeback oracle")]
fn writeback_oracle_catches_a_lost_completion() {
    tamper_mid_run(|m| {
        if m.calendar.pending() == 0 {
            return false;
        }
        // Drop every filed completion; the issued entries they stood
        // for still come due.
        m.calendar = Calendar::new();
        true
    });
}
