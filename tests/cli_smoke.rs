//! End-to-end smoke tests of the command-line tools, exercising the
//! assemble -> container -> emulate -> trace -> simulate flow exactly
//! as a user would.

use std::path::PathBuf;
use std::process::Command;

fn tmpdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("redsim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn write_demo(dir: &std::path::Path) -> PathBuf {
    let p = dir.join("demo.s");
    std::fs::write(
        &p,
        "main: li s0, 100\nloop: addi s0, s0, -1\n add s1, s1, s0\n bnez s0, loop\n puti s1\n halt\n",
    )
    .unwrap();
    p
}

#[test]
fn asm_emu_sim_pipeline() {
    let dir = tmpdir();
    let src = write_demo(&dir);
    let prog = dir.join("demo.rprog");
    let trace = dir.join("demo.rtrc");

    // Assemble.
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-asm"))
        .args([src.to_str().unwrap(), "--out", prog.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "asm: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(prog.exists());

    // Emulate with trace capture: sum 0..=99 = 4950.
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-emu"))
        .args([
            prog.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "emu: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4950"), "emu output: {stdout}");

    // Simulate from the captured trace.
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-sim"))
        .args(["--trace", trace.to_str().unwrap(), "--mode", "die-irb"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "sim: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("IPC:"), "sim output: {stdout}");
    assert!(stdout.contains("pairs checked:"), "sim output: {stdout}");
}

#[test]
fn asm_listing_mode() {
    let dir = tmpdir();
    let src = write_demo(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-asm"))
        .args([src.to_str().unwrap(), "--list"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bne s0, zero, loop"), "{stdout}");
}

#[test]
fn sim_runs_builtin_workloads() {
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-sim"))
        .args(["--workload", "vortex", "--scale", "1", "--mode", "die"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mode:                Die"), "{stdout}");
}

#[test]
fn workload_list_and_emit() {
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-workload"))
        .arg("list")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["gzip", "ammp", "mcf"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-workload"))
        .args(["emit", "parser", "--scale", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("wordcmp"));
}

#[test]
fn errors_are_clean_not_panics() {
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-sim"))
        .args(["--workload", "nonesuch"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_redsim-asm"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage exit code");
}

#[test]
fn compare_mode_prints_all_three() {
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-sim"))
        .args(["--compare", "--workload", "gzip", "--scale", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["Sie", "Die", "DieIrb", "vs SIE"] {
        assert!(stdout.contains(needle), "{stdout}");
    }
}

#[test]
fn fidelity_flags_are_accepted() {
    let dir = tmpdir();
    let src = write_demo(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_redsim-sim"))
        .args([
            src.to_str().unwrap(),
            "--mode",
            "die-cluster",
            "--wrong-path",
            "--stl-forwarding",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("DieCluster"));
}

/// Runs `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn every_table_refuses_unknown_and_value_less_flags() {
    let asm = env!("CARGO_BIN_EXE_redsim-asm");
    let emu = env!("CARGO_BIN_EXE_redsim-emu");
    let sim = env!("CARGO_BIN_EXE_redsim-sim");
    let workload = env!("CARGO_BIN_EXE_redsim-workload");
    for (bin, args) in [
        (asm, &["x.s", "--bogus"][..]),
        (asm, &["x.s", "--out"]),
        (emu, &["x.s", "--bogus"]),
        (emu, &["x.s", "--budget"]),
        (
            sim,
            &["--workload", "gzip", "--scale", "1", "--mdoe", "die"],
        ),
        (sim, &["--workload", "gzip", "--scale", "1", "--budget"]),
        (sim, &["--compare", "--workload", "gzip", "--bogus"]),
        (sim, &["--compare", "--workload", "gzip", "--scale"]),
        // Flags compare does not honour are refused, not dropped.
        (sim, &["--compare", "--workload", "gzip", "--mode", "die"]),
        (
            sim,
            &["--compare", "--workload", "gzip", "--fault-fu", "0.1"],
        ),
        (workload, &["emit", "gzip", "--bogus"]),
        (workload, &["emit", "gzip", "--seed"]),
        (workload, &["list", "--scale", "2"]),
        (workload, &["emit", "gzip", "--seed", "1", "--seed", "2"]),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    }
    for bin in [asm, emu, sim, workload] {
        let out = Command::new(bin).arg("--help").output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        assert!(String::from_utf8_lossy(&out.stdout).contains("--help"));
    }
}

#[test]
fn a_trace_replay_refuses_a_budget() {
    // Regression: a replayed .rtrc ignored --budget and printed the
    // whole trace's count for any budget.
    let dir = tmpdir();
    let src = write_demo(&dir);
    let trace = dir.join("budget.rtrc");
    let trace = trace.to_str().unwrap();
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_redsim-emu"),
        &[src.to_str().unwrap(), "--trace-out", trace],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let sim = env!("CARGO_BIN_EXE_redsim-sim");
    for args in [
        &["--trace", trace, "--budget", "1000"][..],
        &["--compare", "--trace", trace, "--budget", "1000"],
    ] {
        let (code, stderr) = run(sim, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("`--budget` cannot be used with `--trace`"),
            "{args:?}: {stderr}"
        );
    }
    let (code, stderr) = run(sim, &["--trace", trace]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn compare_honours_the_workload_seed() {
    // Regression: --compare generated the workload from its default
    // seed whatever --seed said, so every seed printed the same cycles.
    let cycles = |seed: Option<&str>| {
        let mut args = vec!["--compare", "--workload", "gzip", "--scale", "1"];
        args.extend(seed.map(|s| ["--seed", s]).into_iter().flatten());
        let out = Command::new(env!("CARGO_BIN_EXE_redsim-sim"))
            .args(&args)
            .output()
            .unwrap();
        assert!(out.status.success(), "{args:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let default_seed = redsim_workloads::Workload::Gzip.default_params().seed;
    assert_eq!(cycles(None), cycles(Some(&default_seed.to_string())));
    assert_ne!(cycles(None), cycles(Some("5")));
}

#[test]
fn oversized_data_segments_fail_cleanly() {
    let dir = tmpdir();
    let src = dir.join("huge.s");
    std::fs::write(&src, ".data\nx: .space 4000000000000\n.text\nmain: halt\n").unwrap();
    let (code, stderr) = run(env!("CARGO_BIN_EXE_redsim-asm"), &[src.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cap"), "{stderr}");
}
