//! Every figure binary refuses a flag its table does not declare and a
//! value flag given last, with exit 2 and the usage, before it
//! simulates anything; `--help` prints the usage and exits 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The figure binaries, all built beside `fig2`.
fn figures() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_BIN_EXE_fig2")).parent().unwrap();
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut bins: Vec<PathBuf> = std::fs::read_dir(src)
        .unwrap()
        .map(|e| dir.join(e.unwrap().path().file_stem().unwrap()))
        .map(|p| p.with_extension(std::env::consts::EXE_EXTENSION))
        .collect();
    bins.sort();
    assert_eq!(bins.len(), 15);
    bins
}

fn run(bin: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("REDSIM_QUICK")
        .output()
        .unwrap()
}

#[test]
fn every_figure_refuses_unknown_and_value_less_flags() {
    for bin in figures() {
        for args in [
            &["--quick", "--threads", "2", "--bogus"][..],
            &["--quick", "--threads"],
            &["--qiuck"],
            &["--quick", "--quick"],
            &["--quick", "stray"],
        ] {
            let out = run(&bin, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin:?} {args:?}: {stderr}");
            assert!(stderr.contains("usage: "), "{bin:?} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin:?} {args:?} printed a result");
        }
        let out = run(&bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin:?} --help");
        assert!(String::from_utf8_lossy(&out.stdout).contains("--threads <N>"));
    }
}

#[test]
fn fault_figure_rates_are_checked_before_the_sweep() {
    let faults = Path::new(env!("CARGO_BIN_EXE_fig_faults"));
    // Regression: a trailing rate flag ran the default rates.
    let out = run(faults, &["--quick", "--threads", "2", "--fu-rate"]);
    assert_eq!(out.status.code(), Some(2));
    // A negative rate parses and reaches FaultConfig::validate.
    let out = run(faults, &["--quick", "--irb-rate", "-1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid fault configuration: fault rate `irb_rate` must be >= 0"),
        "{stderr}"
    );
}
