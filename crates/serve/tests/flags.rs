//! Each `redsim-serve` subcommand refuses a flag its table does not
//! declare and a value flag given last, with exit 2 and the usage,
//! before it opens a state directory or a connection.

use std::process::Command;

use redsim_serve::COMMANDS;

#[test]
fn every_subcommand_refuses_unknown_and_value_less_flags() {
    let bin = env!("CARGO_BIN_EXE_redsim-serve");
    let dir = std::env::temp_dir().join(format!("redsim-serve-flags-{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    let mut cases: Vec<Vec<&str>> = vec![vec!["--bogus"], vec!["bogus"], vec![]];
    for (cmd, _) in COMMANDS {
        cases.push(vec![cmd, "--state-dir", dir, "--bogus"]);
        cases.push(vec![cmd, "--state-dir"]);
        cases.push(vec![cmd, "--state-dir", dir, "--state-dir", dir]);
    }
    cases.push(vec![
        "submit",
        "--state-dir",
        dir,
        "--workload",
        "gzip",
        "--listen",
        "x",
    ]);
    cases.push(vec!["serve", "--state-dir", dir, "--workers", "many"]);
    cases.push(vec!["serve", "--workers", "2"]);
    for args in cases {
        let out = Command::new(bin).args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(dir).exists(),
        "a refused command touched {dir}"
    );
    for args in [
        vec!["--help"],
        vec!["serve", "--help"],
        vec!["status", "--help"],
    ] {
        let out = Command::new(bin).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
    }
}
