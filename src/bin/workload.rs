//! `redsim-workload` — inspect the built-in SPEC CPU2000 stand-ins.
//!
//! ```text
//! redsim-workload list                          table of workloads
//! redsim-workload emit <name> [--scale n] [--seed s]   print the assembly
//! redsim-workload mix  <name> [--scale n] [--seed s]   dynamic instruction mix
//! ```

use redsim::cli::WORKLOAD;
use redsim_cli::die;
use redsim_util::flags::{self, FlagError, Parsed};
use redsim_workloads::{mix::InstMix, Params, Workload};

/// The workload `name` at `--scale` and `--seed`; an unknown name or a
/// bad value exits 2.
fn workload(name: &str, args: &Parsed) -> (Workload, Params) {
    let Some(w) = Workload::from_name(name) else {
        args.fail(&FlagError::Invalid {
            flag: "<NAME>",
            value: name.to_owned(),
            reason: "unknown workload; try `redsim-workload list`".to_owned(),
        });
    };
    let d = w.default_params();
    let scale = args.or_exit(args.get("--scale")).unwrap_or(d.scale);
    let seed = args.or_exit(args.get("--seed")).unwrap_or(d.seed);
    (w, Params::new(scale, seed))
}

fn main() {
    let args = WORKLOAD.parse_or_exit(&flags::args());
    match args.positionals() {
        [cmd] if cmd == "list" => {
            if let Some((flag, _)) = args.given().next() {
                args.fail(&FlagError::Unexpected(flag.to_owned()));
            }
            println!(
                "{:<10} {:<6} {:>13}  models",
                "name", "suite", "default-scale"
            );
            println!("{}", "-".repeat(48));
            for w in Workload::ALL {
                println!(
                    "{:<10} {:<6} {:>13}  SPEC CPU2000 {}",
                    w.name(),
                    if w.is_fp() { "fp" } else { "int" },
                    w.default_params().scale,
                    w.name()
                );
            }
        }
        [cmd, name] if cmd == "emit" => {
            let (w, params) = workload(name, &args);
            print!("{}", w.source(params));
        }
        [cmd, name] if cmd == "mix" => {
            let (w, params) = workload(name, &args);
            let program = w
                .program(params)
                .unwrap_or_else(|e| die(&format!("generation failed: {e}")));
            match InstMix::from_program(&program, 500_000_000) {
                Ok(m) => println!("{m}"),
                Err(e) => die(&format!("profiling failed: {e}")),
            }
        }
        [cmd] if cmd == "emit" || cmd == "mix" => args.fail(&FlagError::Required("<NAME>")),
        [] => args.fail(&FlagError::Required("a command: list, emit or mix")),
        other => args.fail(&FlagError::Unexpected(other.join(" "))),
    }
}
