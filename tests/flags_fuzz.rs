//! Seeded fuzzing of the one command-line parser against every binary's
//! table: the figures, `fig_coverage`, each `redsim-serve` subcommand and
//! the four command-line tools.
//!
//! Each iteration picks a table and builds an argument list from its own
//! rows (with and without values), typos of them, unknown flags, repeats,
//! `--help`, negative numbers, empty strings and stray words. Then:
//!
//! * neither the parse nor a typed lookup of any declared flag panics;
//! * an accepted parse holds only declared flags, each at most once, a
//!   value exactly for the flags that take one, and no more positionals
//!   than the table allows;
//! * a refusal names the offending argument, which is in the list.

use std::panic;
use std::time::{Duration, Instant};

use redsim_core::FaultConfig;
use redsim_util::flags::{Flag, FlagError, FlagTable, Parsed};
use redsim_util::Rng;

const SEED: u64 = 0xf1a6_5eed_0000_0021;
const ITERATIONS: usize = 20_000;
const BUDGET: Duration = Duration::from_secs(5);

fn tables() -> Vec<(&'static str, FlagTable)> {
    let mut t = vec![
        ("figure", redsim_bench::FIGURE_CLI),
        ("fig_recovery", redsim_bench::RECOVERY_CLI),
        ("fig_faults", redsim_bench::FAULTS_CLI),
        ("fig_coverage", redsim_campaign::COVERAGE_CLI),
        ("redsim-serve", redsim_serve::TOP_CLI),
        ("redsim-asm", redsim::cli::ASM),
        ("redsim-emu", redsim::cli::EMU),
        ("redsim-sim", redsim::cli::SIM),
        ("redsim-sim --compare", redsim::cli::COMPARE),
        ("redsim-workload", redsim::cli::WORKLOAD),
    ];
    t.extend(redsim_serve::COMMANDS);
    t
}

fn rows(table: &FlagTable) -> Vec<Flag> {
    table.flags.iter().flat_map(|g| g.iter().copied()).collect()
}

/// A misspelling of `name`: a dropped, doubled or swapped character, or
/// a different case.
fn typo(rng: &mut Rng, name: &str) -> String {
    let mut c: Vec<char> = name.chars().collect();
    let i = 2 + rng.index(c.len() - 2);
    match rng.index(4) {
        0 => {
            c.remove(i);
        }
        1 => c.insert(i, c[i]),
        2 if i + 1 < c.len() => c.swap(i, i + 1),
        _ => return name.to_uppercase(),
    }
    c.into_iter().collect()
}

/// A value-shaped argument: numbers (negative too), words, empty.
fn value(rng: &mut Rng) -> String {
    match rng.index(7) {
        0 => String::new(),
        1 => format!("-{}", rng.index(100)),
        2 => format!("{}", rng.unit_f64()),
        3 => "-0.5".to_owned(),
        4 => ["die-irb", "per-stream", "never", "gzip", "é"][rng.index(5)].to_owned(),
        5 => "18446744073709551616".to_owned(),
        _ => rng.index(10_000).to_string(),
    }
}

fn arguments(rng: &mut Rng, rows: &[Flag]) -> Vec<String> {
    let mut args = Vec::new();
    for _ in 0..rng.index(7) {
        let row = (!rows.is_empty()).then(|| rows[rng.index(rows.len())]);
        match (rng.index(10), row) {
            (0..=4, Some(row)) => {
                args.push(row.name.to_owned());
                if row.value.is_some() && rng.index(6) != 0 {
                    args.push(value(rng));
                }
            }
            (5, Some(row)) => args.push(typo(rng, row.name)),
            (6, _) => args.push(["--bogus", "--", "-x", "--help", "--=1"][rng.index(5)].to_owned()),
            (7, _) => args.push(value(rng)),
            (8, _) if !args.is_empty() => args.push(args[rng.index(args.len())].clone()),
            _ => args.push(["prog.s", "list", "emit", "gzip"][rng.index(4)].to_owned()),
        }
    }
    args
}

/// Every typed lookup of every declared value flag, to show none panics.
fn look_up_everything(p: &Parsed, rows: &[Flag]) {
    for row in rows.iter().filter(|r| r.value.is_some()) {
        let _ = p.get::<u64>(row.name);
        let _ = p.get::<i64>(row.name);
        let _ = p.positive::<u32>(row.name);
        if let Ok(Some(rate)) = p.get::<f64>(row.name) {
            let _ = FaultConfig {
                irb_rate: rate,
                ..FaultConfig::none()
            }
            .validate();
        }
    }
}

fn check_accepted(p: &Parsed, args: &[String], table: &FlagTable, rows: &[Flag]) {
    assert!(p.positionals().len() <= table.positionals);
    let given: Vec<_> = p.given().collect();
    for (i, (name, v)) in given.iter().enumerate() {
        let row = rows
            .iter()
            .find(|r| r.name == *name)
            .expect("a declared flag");
        assert_eq!(row.value.is_some(), v.is_some(), "{name} value");
        assert!(given[..i].iter().all(|(n, _)| n != name), "{name} twice");
    }
    // Nothing is dropped: every argument is a flag, a value or a
    // positional, and no value starts with `--`.
    let flags = args.iter().filter(|a| a.starts_with("--")).count();
    let values = given.iter().filter(|(_, v)| v.is_some()).count();
    assert_eq!(flags, given.len(), "{args:?}");
    assert_eq!(
        flags + values + p.positionals().len(),
        args.len(),
        "{args:?}"
    );
}

fn check_refused(e: &FlagError, args: &[String], rows: &[Flag]) {
    let token = match e {
        FlagError::Help => "--help",
        FlagError::Unknown(t) => {
            assert!(rows.iter().all(|r| r.name != t.as_str()), "{t} is declared");
            t.as_str()
        }
        FlagError::Unexpected(t) => {
            assert!(!t.starts_with("--"), "{t} is a flag");
            t.as_str()
        }
        FlagError::MissingValue(f) => {
            assert!(rows.iter().any(|r| r.name == *f && r.value.is_some()));
            *f
        }
        FlagError::Repeated(f) => {
            assert!(args.iter().filter(|a| a == f).count() >= 2, "{f} once");
            *f
        }
        FlagError::Required(_) | FlagError::Invalid { .. } => {
            panic!("the parser itself never returns {e:?}")
        }
    };
    assert!(
        args.iter().any(|a| a == token),
        "{token:?} is not in the list"
    );
    if *e != FlagError::Help {
        assert!(e.to_string().contains(&format!("`{token}`")), "{e}");
    }
}

#[test]
fn every_table_parses_generated_argument_lists_safely() {
    let tables = tables();
    let mut rng = Rng::new(SEED);
    let start = Instant::now();
    let (mut accepted, mut refused) = (0, 0);
    for it in 0..ITERATIONS {
        if start.elapsed() > BUDGET {
            break;
        }
        let (name, table) = tables[rng.index(tables.len())];
        let rows = rows(&table);
        let args = arguments(&mut rng, &rows);
        let outcome = panic::catch_unwind(|| {
            let r = table.parse(&args);
            if let Ok(p) = &r {
                look_up_everything(p, &rows);
            }
            r
        })
        .unwrap_or_else(|_| panic!("iteration {it}: {name} panicked on {args:?}"));
        match outcome {
            Ok(p) => {
                check_accepted(&p, &args, &table, &rows);
                accepted += 1;
            }
            Err(e) => {
                check_refused(&e, &args, &rows);
                refused += 1;
            }
        }
    }
    // Both outcomes must be common, or the generator has gone blind.
    assert!(
        accepted > 500 && refused > 500,
        "{accepted} accepted, {refused} refused"
    );
}

#[test]
fn a_negative_rate_reaches_fault_validation_unchanged() {
    let args = ["--quick", "--irb-rate", "-1"].map(String::from);
    let cli = redsim_bench::Cli::try_from_vec(&redsim_bench::FAULTS_CLI, &args).expect("parses");
    let rate = cli.flags.get::<f64>("--irb-rate").expect("a number");
    let e = FaultConfig {
        irb_rate: rate.expect("given"),
        ..FaultConfig::none()
    }
    .validate()
    .unwrap_err();
    assert_eq!(e.to_string(), "fault rate `irb_rate` must be >= 0 (got -1)");
}
