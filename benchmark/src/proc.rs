//! The processes the benchmark starts and talks to: `redsim-serve`
//! daemons on unix sockets, clients whose reads time out, and the
//! bookkeeping that guarantees every daemon is stopped and every state
//! directory removed.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use redsim_util::Json;

/// How long a client waits for any one response before the request
/// counts as failed (a dead daemon becomes failed operations, not a
/// hang).
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a daemon gets to exit after a `shutdown` op before it is
/// killed.
pub const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// How long a started daemon gets to answer its first ping.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// The file, inside a workload's state directory, listing the daemons
/// that are running, so the parent process can stop them if the
/// workload process dies first.
pub const PID_FILE: &str = "daemon.pids";

/// Peak resident set (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status` (`None` for the benchmark's own process means
/// `/proc/self`).
#[must_use]
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A directory that is removed, with everything in it, when dropped —
/// on every exit path, unwinding included.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` (and its parents), clearing anything already there.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from creating the directory.
    pub fn create(path: PathBuf) -> io::Result<Self> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The set of running daemon pids, mirrored to a [`PID_FILE`].
#[derive(Debug)]
pub struct PidRegistry {
    path: PathBuf,
    pids: Mutex<Vec<u32>>,
}

impl PidRegistry {
    /// A registry mirrored to `dir/`[`PID_FILE`].
    #[must_use]
    pub fn new(dir: &Path) -> Arc<Self> {
        Arc::new(PidRegistry {
            path: dir.join(PID_FILE),
            pids: Mutex::new(Vec::new()),
        })
    }

    fn update(&self, f: impl FnOnce(&mut Vec<u32>)) {
        let mut pids = self.pids.lock().expect("pid registry lock");
        f(&mut pids);
        let text: String = pids.iter().map(|p| format!("{p}\n")).collect();
        if let Err(e) = std::fs::write(&self.path, text) {
            eprintln!("warning: {}: {e}", self.path.display());
        }
    }
}

/// Stops every daemon a dead workload process left listed in
/// `dir/`[`PID_FILE`] and waits until each has ended.
pub fn reap_orphans(dir: &Path) {
    let Ok(text) = std::fs::read_to_string(dir.join(PID_FILE)) else {
        return;
    };
    for pid in text.lines().filter_map(|l| l.trim().parse::<u32>().ok()) {
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        if !String::from_utf8_lossy(&cmdline).contains("redsim-serve") {
            continue; // already gone (and the pid possibly reused)
        }
        let _ = Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status();
        let t0 = Instant::now();
        while is_running(pid) && t0.elapsed() < SHUTDOWN_GRACE {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Whether `pid` exists and is not a zombie.
fn is_running(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rsplit(')')
            .next()
            .and_then(|rest| rest.split_whitespace().next())
            .is_some_and(|state| state != "Z"),
        Err(_) => false,
    }
}

/// A line-protocol connection whose reads and writes time out.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Connects to a daemon's unix socket.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from connecting or configuring the socket.
    pub fn connect(sock: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(sock)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Transport errors (a timeout included), end of stream, or a
    /// response that is not JSON.
    pub fn request(&mut self, req: &Json) -> io::Result<Json> {
        writeln!(self.writer, "{req}")?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Json::parse(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Sends a request and requires `"ok":true` in the response.
    ///
    /// # Errors
    ///
    /// As [`Conn::request`], or `Other` carrying a refused response.
    pub fn request_ok(&mut self, req: &Json) -> io::Result<Json> {
        let resp = self.request(req)?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(resp)
        } else {
            Err(io::Error::other(format!("refused: {resp}")))
        }
    }
}

/// One HTTP/1.1 GET on a fresh connection (the daemon closes it after
/// responding): the status code and the body.
///
/// # Errors
///
/// Transport errors (a timeout included) or a malformed response.
pub fn http_get(sock: &Path, path: &str) -> io::Result<(u16, String)> {
    let mut stream = UnixStream::connect(sock)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: redsim\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, body.to_owned()))
}

/// A running `redsim-serve serve` child on a unix socket. Dropping it
/// stops it: a `shutdown` op first, then SIGKILL after
/// [`SHUTDOWN_GRACE`].
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
    registry: Arc<PidRegistry>,
}

impl Daemon {
    /// Starts `bin serve` over `state_dir` with 2 workers and the
    /// default fsync policy, and waits until it answers a ping. Returns
    /// the daemon and the time from spawn to that first answer.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that exits or stays silent for
    /// [`START_TIMEOUT`].
    pub fn start(
        bin: &Path,
        state_dir: &Path,
        registry: &Arc<PidRegistry>,
    ) -> io::Result<(Daemon, Duration)> {
        let sock = state_dir.join("sock");
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--unix")
            .arg(&sock)
            .args(["--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        registry.update(|p| p.push(pid));
        let mut daemon = Daemon {
            child: Some(child),
            sock,
            registry: Arc::clone(registry),
        };
        loop {
            let answered = Conn::connect(&daemon.sock)
                .and_then(|mut c| c.request_ok(&Json::obj().field("op", "ping")));
            if answered.is_ok() {
                return Ok((daemon, t0.elapsed()));
            }
            let exited = daemon.child.as_mut().map_or(Ok(None), Child::try_wait)?;
            if let Some(status) = exited {
                return Err(io::Error::other(format!(
                    "daemon exited at start: {status}"
                )));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon did not answer a ping",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's unix socket.
    #[must_use]
    pub fn sock(&self) -> &Path {
        &self.sock
    }

    /// A new line-protocol connection.
    ///
    /// # Errors
    ///
    /// As [`Conn::connect`].
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.sock)
    }

    /// The daemon's peak resident set so far, in MiB.
    #[must_use]
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(self.child.as_ref().map(Child::id))
    }

    /// The daemon's Prometheus exposition, scraped over HTTP.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-200 status.
    pub fn scrape(&self) -> io::Result<String> {
        match http_get(&self.sock, "/metrics")? {
            (200, body) => Ok(body),
            (status, _) => Err(io::Error::other(format!("GET /metrics: {status}"))),
        }
    }

    /// Stops the daemon: a `shutdown` op, then SIGKILL if it has not
    /// exited within [`SHUTDOWN_GRACE`]. Returns whether it exited on
    /// its own.
    pub fn stop(mut self) -> bool {
        self.shutdown()
    }

    fn shutdown(&mut self) -> bool {
        let Some(mut child) = self.child.take() else {
            return true;
        };
        let _ = Conn::connect(&self.sock)
            .and_then(|mut c| c.request(&Json::obj().field("op", "shutdown")));
        let t0 = Instant::now();
        let clean = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if t0.elapsed() < SHUTDOWN_GRACE => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break false;
                }
            }
        };
        let pid = child.id();
        self.registry.update(|p| p.retain(|&q| q != pid));
        clean
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one counter or gauge from a Prometheus exposition.
#[must_use]
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == name).then(|| v.trim().parse().ok()).flatten()
    })
}

/// The `redsim-serve` binary built beside this one.
///
/// # Errors
///
/// When the current executable's path is unknown.
pub fn serve_bin() -> io::Result<PathBuf> {
    Ok(std::env::current_exe()?.with_file_name("redsim-serve"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_values_are_read_by_exact_name() {
        let text = "# HELP a x\n# TYPE a counter\na 3\nab 4\nc_bucket{le=\"1\"} 2\n";
        assert_eq!(prom_value(text, "a"), Some(3.0));
        assert_eq!(prom_value(text, "ab"), Some(4.0));
        assert_eq!(prom_value(text, "missing"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mib(None).is_some_and(|m| m > 0.0));
    }
}
