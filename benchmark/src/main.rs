//! `redsim-benchmark` — see `README.md` beside this crate.
//!
//! ```text
//! redsim-benchmark [run] [--workload W[,W…]] [--seed N] [--seconds S]
//!                  [--trace [0|1]] [--out PATH] [--bless]
//! redsim-benchmark compare <base> <new>
//! redsim-benchmark perturb --factor F <in> <out>
//! ```
//!
//! `run` (the default) runs each workload in a child process and prints
//! one line per metric, then, as its last line of output, a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. It exits 1 when
//! any operation failed or any output was wrong, 2 on usage errors.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use redsim_benchmark::catalog::catalog;
use redsim_benchmark::compare::{self, document};
use redsim_benchmark::plan::{Kind, Size};
use redsim_benchmark::proc::{reap_orphans, serve_bin, ScratchDir};
use redsim_benchmark::report::WorkloadResult;
use redsim_benchmark::{golden, layers, run_workload, RunConfig};
use redsim_cli::Args;
use redsim_util::Json;

const USAGE: &str = "usage: redsim-benchmark [run] [--workload W[,W...]] [--seed N] [--seconds S] [--trace [0|1]] [--out PATH] [--bless]\n\
     \x20      redsim-benchmark compare <base> <new>\n\
     \x20      redsim-benchmark perturb --factor F <in> <out>";

/// Where workload processes keep their state and traced runs their spans.
const STATE_ROOT: &str = "target/benchmark";

/// A workload process that has not finished by then is killed.
const WORKER_DEADLINE: Duration = Duration::from_secs(170);

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("worker") => worker(&argv[1..]),
        Some("compare") => compare_cmd(&argv[1..]),
        Some("perturb") => perturb_cmd(&Args::parse(argv[1..].iter().cloned())),
        Some("run") => run_cmd(&argv[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        _ => run_cmd(&argv),
    };
    std::process::exit(code);
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("error: {msg}\n{USAGE}");
    2
}

/// The run's settings, as parsed from the command line.
struct RunOptions {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out: Option<PathBuf>,
    bless: bool,
}

fn parse_run(argv: &[String]) -> Result<RunOptions, String> {
    const KNOWN: [&str; 7] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--out",
        "--bless",
        "--smoke",
    ];
    if let Some(flag) = argv
        .iter()
        .find(|a| a.starts_with("--") && !KNOWN.contains(&a.as_str()))
    {
        return Err(format!("unknown flag {flag}"));
    }
    let args = Args::parse(argv.iter().cloned());
    if let Some(p) = args.positional().first() {
        return Err(format!("unexpected argument {p:?}"));
    }
    let kinds = match args.value_of("--workload") {
        None => Kind::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|w| Kind::from_name(w).ok_or_else(|| format!("unknown workload {w:?}")))
            .collect::<Result<_, _>>()?,
    };
    let trace = match (args.has("--trace"), args.value_of("--trace")) {
        (false, _) => false,
        (true, None | Some("1")) => true,
        (true, Some("0")) => false,
        (true, Some(v)) => return Err(format!("--trace takes 0 or 1, got {v:?}")),
    };
    let seconds: f64 = args.parsed_or("--seconds", catalog().run_seconds as f64)?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(RunOptions {
        kinds,
        seed: args.parsed_or("--seed", 0u64)?,
        seconds,
        trace,
        size: if args.has("--smoke") {
            Size::Smoke
        } else {
            Size::Full
        },
        out: args.value_of("--out").map(PathBuf::from),
        bless: args.has("--bless"),
    })
}

fn run_cmd(argv: &[String]) -> i32 {
    let opts = match parse_run(argv) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    if let Err(e) = std::fs::create_dir_all(STATE_ROOT) {
        eprintln!("error: {STATE_ROOT}: {e}");
        return 1;
    }
    let mut results = Vec::new();
    let mut events = Vec::new();
    for &kind in &opts.kinds {
        let (r, spans) = spawn_worker(kind, &opts);
        events.extend(spans);
        results.push(r);
    }
    if opts.seed == 0 && opts.size == Size::Full && !opts.trace {
        check_goldens(&mut results, opts.bless);
    }
    print_table(&results, opts.trace);
    if opts.trace {
        let path = Path::new(STATE_ROOT).join("trace.json");
        let body = Json::obj()
            .field("traceEvents", Json::Arr(events))
            .to_string();
        match std::fs::write(&path, body) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return 1;
            }
        }
    }
    if let Some(out) = &opts.out {
        let doc = document(&results, opts.seed, opts.trace, opts.seconds);
        if let Err(e) = std::fs::write(out, format!("{doc}\n")) {
            eprintln!("error: {}: {e}", out.display());
            return 1;
        }
    }
    let line = summary_line(&results, opts.trace);
    println!("{line}");
    if results.iter().all(WorkloadResult::correct) {
        0
    } else {
        1
    }
}

/// Runs one workload in a child process (so its peak resident set is its
/// own), then stops anything it left running and removes its state.
fn spawn_worker(kind: Kind, opts: &RunOptions) -> (WorkloadResult, Vec<Json>) {
    let failed = |msg: String| {
        let mut r = WorkloadResult::new(kind.name());
        r.fail(msg);
        (r, Vec::new())
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return failed(format!("current executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .args(["--workload", kind.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return failed(format!("spawn: {e}")),
    };
    let dir = worker_dir(kind, child.id());
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let t0 = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if t0.elapsed() < WORKER_DEADLINE => {
                std::thread::sleep(Duration::from_millis(20));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    reap_orphans(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let text = reader.join().unwrap_or_default();
    let spans_path = layers::spans_path(&dir);
    let spans = std::fs::read_to_string(&spans_path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| {
            j.get("traceEvents")
                .and_then(Json::items)
                .map(<[Json]>::to_vec)
        })
        .unwrap_or_default();
    let _ = std::fs::remove_file(&spans_path);
    let Some(status) = status else {
        return failed(format!("killed after {}s", WORKER_DEADLINE.as_secs()));
    };
    let parsed = text
        .lines()
        .last()
        .ok_or_else(|| "no output".to_owned())
        .and_then(|l| Json::parse(l).map_err(|e| e.to_string()))
        .and_then(|j| WorkloadResult::from_json(&j));
    match parsed {
        Ok(mut r) => {
            if !status.success() && r.correct() {
                r.fail(format!("workload process exited with {status}"));
            }
            (r, spans)
        }
        Err(e) => failed(format!("workload process ({status}): {e}")),
    }
}

fn worker_dir(kind: Kind, pid: u32) -> PathBuf {
    Path::new(STATE_ROOT).join(format!("{}-{pid}", kind.name()))
}

/// The child side: runs one workload and prints its record as the last
/// line of standard output.
fn worker(argv: &[String]) -> i32 {
    let opts = match parse_run(argv) {
        Ok(o) if o.kinds.len() == 1 => o,
        Ok(_) => return usage_error("worker runs exactly one workload"),
        Err(e) => return usage_error(&e),
    };
    let kind = opts.kinds[0];
    let serve = match serve_bin() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: locating redsim-serve: {e}");
            return 1;
        }
    };
    let dir = match ScratchDir::create(worker_dir(kind, std::process::id())) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: state directory: {e}");
            return 1;
        }
    };
    let cfg = RunConfig {
        kind,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        size: opts.size,
        dir: dir.path().to_owned(),
        serve_bin: serve,
    };
    if opts.trace {
        eprintln!("{}: traced run (seed {})", kind.name(), opts.seed);
    } else {
        eprintln!(
            "{}: running (seed {}, at least {}s)",
            kind.name(),
            opts.seed,
            opts.seconds
        );
    }
    let r = run_workload(&cfg);
    drop(dir);
    println!("{}", r.to_json());
    i32::from(!r.correct())
}

/// Compares each workload's digest with the golden one (or records it
/// with `--bless`).
fn check_goldens(results: &mut [WorkloadResult], bless: bool) {
    let mut golden = match golden::load() {
        Ok(g) => g,
        Err(e) => {
            for r in results.iter_mut() {
                r.fail(e.clone());
            }
            return;
        }
    };
    for r in results.iter_mut() {
        let Some(digest) = r.digest.clone() else {
            continue;
        };
        if bless {
            if r.correct() {
                golden.insert(r.workload.clone(), digest);
            }
            continue;
        }
        let want = golden.get(&r.workload).cloned();
        r.check(want.as_deref() == Some(digest.as_str()), || {
            format!(
                "digest {digest} differs from the golden {} ({}; rerun with --bless after an intended model change)",
                want.as_deref().unwrap_or("(none)"),
                golden::path().display()
            )
        });
    }
    if bless {
        match golden::store(&golden) {
            Ok(()) => println!("blessed {}", golden::path().display()),
            Err(e) => eprintln!("error: {}: {e}", golden::path().display()),
        }
    }
}

/// Prints every metric by name with its unit, sample count and bound,
/// then each workload's operation counts and problems.
fn print_table(results: &[WorkloadResult], trace: bool) {
    let defs = if trace {
        &catalog().per_layer
    } else {
        &catalog().end_to_end
    };
    println!(
        "{:<16} {:<34} {:>14} {:<8} {:>8} {:>6}",
        "workload", "metric", "value", "unit", "samples", "bound"
    );
    for r in results {
        for def in defs {
            let (value, samples) = r
                .metrics
                .get(&def.name)
                .map_or(("missing".to_owned(), String::new()), |m| {
                    (format!("{:.4}", m.value), m.samples.to_string())
                });
            let bound = def
                .bound
                .map_or_else(String::new, |b| format!("{:.0}%", b * 100.0));
            println!(
                "{:<16} {:<34} {value:>14} {:<8} {samples:>8} {bound:>6}",
                r.workload, def.name, def.unit
            );
        }
        println!(
            "{:<16} ops {} failed {} correct {}",
            r.workload,
            r.attempted,
            r.failed,
            if r.correct() { "yes" } else { "NO" }
        );
        for (name, v) in &r.notes {
            println!("{:<16} note {name} = {v}", r.workload);
        }
        for p in &r.problems {
            println!("{:<16} problem: {p}", r.workload);
        }
    }
}

/// The closing line: correctness, operation counts and the metrics —
/// named as declared for a single workload, `<workload>/<metric>` for
/// several.
fn summary_line(results: &[WorkloadResult], trace: bool) -> Json {
    let defs = if trace {
        &catalog().per_layer
    } else {
        &catalog().end_to_end
    };
    let mut metrics = Json::obj();
    for r in results {
        for def in defs {
            if let Some(m) = r.metrics.get(&def.name) {
                let name = if results.len() == 1 {
                    def.name.clone()
                } else {
                    format!("{}/{}", r.workload, def.name)
                };
                metrics = metrics.field(
                    &name,
                    Json::obj()
                        .field("value", m.value)
                        .field("unit", def.unit.as_str()),
                );
            }
        }
    }
    Json::obj()
        .field("correct", results.iter().all(WorkloadResult::correct))
        .field(
            "attempted",
            results.iter().map(|r| r.attempted).sum::<u64>(),
        )
        .field("failed", results.iter().map(|r| r.failed).sum::<u64>())
        .field("metrics", metrics)
}

fn compare_cmd(argv: &[String]) -> i32 {
    let [base, new] = argv else {
        return usage_error("compare takes <base> <new>");
    };
    let load = |p: &str| compare::load_runs(Path::new(p));
    let report = load(base)
        .and_then(|b| load(new).map(|n| (b, n)))
        .and_then(|(b, n)| compare::compare(&b, &n));
    match report {
        Ok(c) => {
            print!("{}", compare::render(&c));
            i32::from(c.regressed())
        }
        Err(e) => usage_error(&e),
    }
}

fn perturb_cmd(args: &Args) -> i32 {
    let factor: f64 = match args.value_of("--factor").map(str::parse) {
        Some(Ok(f)) if f > 0.0 => f,
        _ => return usage_error("perturb needs --factor F (a positive number)"),
    };
    let [input, output] = args.positional() else {
        return usage_error("perturb takes <in> <out>");
    };
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => return usage_error(&format!("{input}: {e}")),
    };
    let mut out = String::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match Json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|j| compare::perturb(&j, factor))
        {
            Ok(doc) => out.push_str(&format!("{doc}\n")),
            Err(e) => return usage_error(&format!("{input}: {e}")),
        }
    }
    match std::fs::write(output, out) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {output}: {e}");
            1
        }
    }
}
