//! `fig_coverage` refuses a flag its table does not declare, a value
//! flag given last, and a chaos knob without `--chaos-seed`, with exit 2
//! and the usage, before it writes any campaign file.

use std::process::Command;

#[test]
fn coverage_refuses_unknown_and_value_less_flags() {
    let dir = std::env::temp_dir().join(format!("redsim-coverage-flags-{}", std::process::id()));
    let out_base = dir.join("c");
    let out_base = out_base.to_str().unwrap();
    for tail in [
        &["--bogus"][..],
        &["--watchdog"],
        &["--fu-rate"],
        &["--resume", "--resume"],
        &["--watchdog", "0"],
        &["--fsync", "sometimes"],
        &["--chaos-seed", "1", "--chaos-rate", "2"],
        // Chaos knobs without a chaos backend to tune.
        &["--chaos-rate", "1"],
        &["--chaos-kill-after", "3"],
    ] {
        let mut args = vec!["--quick", "--threads", "1", "--out", out_base];
        args.extend_from_slice(tail);
        let out = Command::new(env!("CARGO_BIN_EXE_fig_coverage"))
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{args:?}: {stderr}");
    }
    assert!(!dir.exists(), "a refused campaign wrote {dir:?}");
}
