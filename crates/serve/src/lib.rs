//! Simulation-as-a-service: a long-running daemon that accepts job
//! submissions over a line-delimited JSON protocol, runs them on a
//! pool of worker threads under the campaign shard supervisor
//! (retry, quarantine, host deadlines), and persists every accepted
//! job through a crash-consistent journal so a `kill -9` at any write
//! boundary loses nothing that was acknowledged.
//!
//! The crate is layered bottom-up:
//!
//! * [`spec`] — the canonical job description ([`spec::JobSpec`]) and
//!   its fx64 fingerprint. The fingerprint is the identity of a job:
//!   submissions are deduplicated on it, so re-submitting after a
//!   crash (or from an impatient client) is idempotent.
//! * [`store`] — a content-addressed trace store. Committed-path
//!   traces are keyed by a fingerprint of the workload *source text*,
//!   its parameters, the emulation budget and a store version standing
//!   in for the assembler/emulator revision; identical requests never
//!   re-assemble or re-emulate, in memory or across restarts.
//! * [`journal`] — the durable job log, a
//!   [`redsim_util::framed_log`] (`{"crc":…,"rec":…}` frames) like the
//!   campaign manifest. A torn tail from a kill mid-append is discarded
//!   and its job re-runs; interior damage is a typed refusal.
//! * [`engine`] — the work queue: submission, worker threads driving
//!   [`redsim_campaign::supervisor::execute_shard`], result
//!   memoization, and the metrics registry behind `/metrics`.
//! * [`net`] — the wire protocol: one blocking accept loop shared by
//!   TCP and unix sockets over `std::net`, answering a new connection
//!   at once and woken on shutdown by a self-connect rather than a
//!   poll, speaking one JSON object per line, plus a minimal HTTP/1.1
//!   GET observability API:
//!   `/metrics` for Prometheus scrapers and `/jobs`, `/jobs/<id>`,
//!   `/jobs/<id>/attribution` serving stored deterministic JSON
//!   results.
//!
//! Everything a job produces is a deterministic function of its spec,
//! so the journal a drained server compacts to is byte-identical at
//! any worker count and across any kill/restart schedule — the
//! property `tests/serve_recovery.rs` sweeps for.
//!
//! The `redsim-serve` binary's command lines are [`COMMANDS`], one
//! table per subcommand.

pub mod engine;
pub mod journal;
pub mod net;
pub mod spec;
pub mod store;

use std::fmt;
use std::io;

use redsim_util::flags::{Flag, FlagTable};

/// How a client finds the daemon.
#[rustfmt::skip]
const ENDPOINT: [Flag; 2] = [
    Flag::value("--connect", "EP", "`tcp ADDR`, `unix PATH` or a bare ADDR"),
    Flag::value("--state-dir", "DIR", "read the endpoint from DIR/endpoint"),
];

/// `redsim-serve` with no or an unknown subcommand.
pub const TOP_CLI: FlagTable = FlagTable::new(
    "<serve|submit|status|metrics|shutdown> [options]\n\
     (`redsim-serve <command> --help` lists a command's options)",
    0,
    &[],
);

/// Each `redsim-serve` subcommand and its command line.
#[rustfmt::skip]
pub const COMMANDS: [(&str, FlagTable); 5] = {
    const SERVE: FlagTable = FlagTable::new("serve --state-dir <DIR> [options]", 0, &[&[
        Flag::value("--state-dir", "DIR", "journal, trace store and endpoint file"),
        Flag::value("--listen", "ADDR", "TCP listen address (default 127.0.0.1:0)"),
        Flag::value("--unix", "PATH", "listen on a unix socket instead"),
        Flag::value("--workers", "N", "worker threads (default 1)"),
        Flag::value("--fsync", "always|critical|never", "journal durability (default critical)"),
        Flag::value("--deadline-ms", "MS", "host wall-clock deadline per attempt"),
    ]]);
    const SUBMIT: FlagTable = FlagTable::new("submit --workload <W> [options]", 0, &[&ENDPOINT, &[
        Flag::value("--workload", "W", "the workload to run"),
        Flag::value("--mode", "MODE", "sie|die|die-irb|sie-irb|die-cluster (default sie)"),
        Flag::switch("--full", "default workload sizing (quick otherwise)"),
        Flag::value("--seed", "N", "workload input seed"),
        Flag::value("--watchdog", "N", "deadline in simulated cycles"),
        Flag::value("--fault-fu", "R", "FU strike rate"),
        Flag::value("--fault-bus", "R", "forwarding-bus strike rate"),
        Flag::value("--fault-irb", "R", "IRB strike rate"),
        Flag::value("--fault-seed", "N", "fault seed (default 0)"),
        Flag::switch("--attribution", "carry the reuse-attribution breakdown"),
        Flag::switch("--wait", "block for the result and print it"),
    ]]);
    const CLIENT: FlagTable = FlagTable::new("<status|metrics|shutdown> [options]", 0, &[&ENDPOINT]);
    [("serve", SERVE), ("submit", SUBMIT), ("status", CLIENT), ("metrics", CLIENT), ("shutdown", CLIENT)]
};

/// A serve-layer failure: host IO on the durable path, journal damage,
/// or a request arriving after shutdown.
#[derive(Debug)]
pub enum ServeError {
    /// Host IO failed on the durable path (journal append, compaction).
    /// The engine latches the first such error and refuses further
    /// work, mirroring the campaign manifest discipline.
    Io(io::Error),
    /// The journal is damaged at rest: an interior record failed its
    /// checksum or does not parse. Restart refuses rather than
    /// silently re-running jobs whose results exist.
    Corrupt {
        /// 1-based journal line of the damaged record.
        line: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// The journal belongs to a different format version.
    Mismatch(String),
    /// The engine is stopping (or stopped); the request was refused.
    Stopped,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "journal io error: {e}"),
            ServeError::Corrupt { line, detail } => {
                write!(f, "journal corrupt at line {line}: {detail}")
            }
            ServeError::Mismatch(m) => write!(f, "journal mismatch: {m}"),
            ServeError::Stopped => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}
