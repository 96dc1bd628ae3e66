//! `redsim-serve` — the simulation-as-a-service daemon and its client.
//!
//! ```text
//! redsim-serve serve --state-dir <dir> [options]      run the daemon
//! redsim-serve submit --connect <ep> --workload <w> [options]
//! redsim-serve status|metrics|shutdown --connect <ep>
//! ```
//!
//! Each subcommand's flags are its table in [`redsim_serve::COMMANDS`];
//! `redsim-serve <command> --help` prints them.
//!
//! `--connect` takes `tcp <addr>`, `unix <path>`, a bare `<host>:<port>`,
//! or `--state-dir <dir>` to read the daemon's `endpoint` file. The
//! daemon prints `listening tcp <addr>` (or `unix`) on stdout and
//! writes the same endpoint to `<state-dir>/endpoint` so scripts can
//! find an ephemeral port.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use redsim_cli::die;
use redsim_core::{ExecMode, FaultConfig};
use redsim_serve::engine::{Engine, EngineOptions};
use redsim_serve::net::{serve_tcp, Client};
use redsim_serve::spec::JobSpec;
use redsim_serve::{COMMANDS, TOP_CLI};
use redsim_util::flags::{self, FlagError, Parsed};
use redsim_util::io::{FsyncPolicy, RealIo};
use redsim_util::Json;
use redsim_workloads::Workload;

fn main() {
    let argv = flags::args();
    let Some((cmd, table)) = argv
        .first()
        .and_then(|c| COMMANDS.iter().find(|(name, _)| name == c))
    else {
        let e = TOP_CLI.parse(&argv).err();
        TOP_CLI.fail(&e.unwrap_or(FlagError::Required("a subcommand")));
    };
    let args = table.parse_or_exit(&argv[1..]);
    match *cmd {
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "metrics" => cmd_metrics(&args),
        op => cmd_request(&args, &Json::obj().field("op", op)),
    }
}

fn state_dir(args: &Parsed) -> PathBuf {
    match args.value("--state-dir") {
        Some(d) => PathBuf::from(d),
        None => args.fail(&FlagError::Required("--state-dir")),
    }
}

fn cmd_serve(args: &Parsed) {
    let dir = state_dir(args);
    let fsync = args.map("--fsync", |p| {
        FsyncPolicy::parse(p).ok_or_else(|| "expects always|critical|never".to_owned())
    });
    let opts = EngineOptions {
        workers: args.or_exit(args.get("--workers")).unwrap_or(1),
        fsync: args.or_exit(fsync).unwrap_or_default(),
        host_deadline: args
            .or_exit(args.get("--deadline-ms"))
            .map(std::time::Duration::from_millis),
        ..EngineOptions::default()
    };
    let engine = Arc::new(
        Engine::open(Arc::new(RealIo), &dir, opts).unwrap_or_else(|e| die(&e.to_string())),
    );

    if let Some(path) = args.value("--unix") {
        serve_on_unix(&engine, &dir, path);
    } else {
        let addr = args.value("--listen").unwrap_or("127.0.0.1:0");
        let listener =
            TcpListener::bind(addr).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
        let local = listener
            .local_addr()
            .unwrap_or_else(|e| die(&format!("local_addr: {e}")));
        announce(&dir, &format!("tcp {local}"));
        serve_tcp(&engine, &listener).unwrap_or_else(|e| die(&format!("accept loop: {e}")));
    }
    engine
        .close()
        .unwrap_or_else(|e| die(&format!("final journal compaction: {e}")));
}

#[cfg(unix)]
fn serve_on_unix(engine: &Arc<Engine>, dir: &Path, path: &str) {
    use redsim_serve::net::serve_unix;
    let _ = std::fs::remove_file(path); // stale socket from a previous run
    let listener = std::os::unix::net::UnixListener::bind(path)
        .unwrap_or_else(|e| die(&format!("bind {path}: {e}")));
    announce(dir, &format!("unix {path}"));
    serve_unix(engine, &listener).unwrap_or_else(|e| die(&format!("accept loop: {e}")));
    let _ = std::fs::remove_file(path);
}

#[cfg(not(unix))]
fn serve_on_unix(_engine: &Arc<Engine>, _dir: &Path, _path: &str) {
    die("--unix is not available on this platform");
}

/// Prints the endpoint and records it in `<state-dir>/endpoint` so
/// scripts can find an ephemeral port.
fn announce(dir: &Path, endpoint: &str) {
    println!("listening {endpoint}");
    if let Err(e) = std::fs::write(dir.join("endpoint"), format!("{endpoint}\n")) {
        eprintln!("warning: could not write endpoint file: {e}");
    }
}

fn connect(args: &Parsed) -> Client {
    let endpoint = match args.value("--connect") {
        Some(ep) => ep.to_owned(),
        None => {
            let dir = state_dir(args);
            let path = dir.join("endpoint");
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("{}: {e}", path.display())))
        }
    };
    Client::connect(&endpoint).unwrap_or_else(|e| die(&format!("connect {}: {e}", endpoint.trim())))
}

fn cmd_request(args: &Parsed, req: &Json) {
    let mut client = connect(args);
    let resp = client.request(req).unwrap_or_else(|e| die(&e.to_string()));
    println!("{resp}");
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        std::process::exit(1);
    }
}

fn cmd_metrics(args: &Parsed) {
    let mut client = connect(args);
    let resp = client
        .request(&Json::obj().field("op", "metrics"))
        .unwrap_or_else(|e| die(&e.to_string()));
    match resp.get("prometheus").and_then(Json::as_str) {
        Some(text) => print!("{text}"),
        None => die(&format!("unexpected response: {resp}")),
    }
}

fn cmd_submit(args: &Parsed) {
    let workload = args.map("--workload", |w| {
        Workload::from_name(w).ok_or_else(|| "unknown workload".to_owned())
    });
    let Some(workload) = args.or_exit(workload) else {
        args.fail(&FlagError::Required("--workload"));
    };
    let mode = args.map("--mode", |m| {
        ExecMode::from_name(m).ok_or_else(|| "unknown mode".to_owned())
    });
    let mut spec = JobSpec::new(workload, args.or_exit(mode).unwrap_or(ExecMode::Sie));
    spec.quick = !args.has("--full");
    spec.input_seed = args.or_exit(args.get("--seed"));
    spec.watchdog = args.or_exit(args.get("--watchdog"));
    let rate = |flag| args.or_exit(args.get(flag)).unwrap_or(0.0);
    let (fu, bus, irb) = (rate("--fault-fu"), rate("--fault-bus"), rate("--fault-irb"));
    if fu != 0.0 || bus != 0.0 || irb != 0.0 {
        spec.faults = Some(FaultConfig {
            fu_rate: fu,
            forward_rate: bus,
            irb_rate: irb,
            seed: args.or_exit(args.get("--fault-seed")).unwrap_or(0),
        });
    }
    spec.attribution = args.has("--attribution");

    let mut client = connect(args);
    let spec_json = Json::parse(&spec.canonical()).expect("canonical spec is JSON");
    let resp = client
        .request(&Json::obj().field("op", "submit").field("spec", spec_json))
        .unwrap_or_else(|e| die(&e.to_string()));
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        die(&format!("submit refused: {resp}"));
    }
    let id = resp
        .get("id")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| die(&format!("unexpected response: {resp}")));
    println!("{resp}");
    if args.has("--wait") {
        let resp = client
            .request(&Json::obj().field("op", "wait").field("id", id))
            .unwrap_or_else(|e| die(&e.to_string()));
        println!("{resp}");
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            std::process::exit(1);
        }
    }
}
