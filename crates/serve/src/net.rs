//! The wire layer: blocking `std::net` servers and a small client.
//!
//! The native protocol is one JSON object per line in each direction:
//!
//! ```text
//! → {"op":"submit","spec":{"workload":"gzip","mode":"die-irb"}}
//! ← {"ok":true,"id":0,"cached":false}
//! → {"op":"wait","id":0}
//! ← {"ok":true,"id":0,"res":{"ok":true,"fp":"…","cycles":…}}
//! ```
//!
//! Ops: `ping`, `submit`, `wait` (optional `timeout_ms`), `status`,
//! `metrics`, `shutdown`. Errors come back as
//! `{"ok":false,"error":"…"}` and keep the connection open; a
//! malformed line closes it.
//!
//! A connection whose first line is an HTTP request line is treated
//! as HTTP/1.1 with no HTTP stack in the tree: `GET /metrics` answers
//! with the Prometheus text exposition, `GET /jobs`,
//! `GET /jobs/<id>` and `GET /jobs/<id>/attribution` serve the stored
//! deterministic JSON results, non-GET methods get 405 and unknown
//! paths 404. Request lines are capped at [`MAX_REQUEST_LINE`] bytes,
//! so an oversized request cannot make the server buffer unbounded
//! input.
//!
//! TCP and unix listeners share one accept loop that blocks in
//! `accept`, so a new connection is answered at once. Stopping the
//! engine wakes it: a watcher thread waits for the stop and then
//! connects to the listener itself. Each connection gets its own
//! thread, and an idle one re-checks the stop flag every 500 ms.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use redsim_util::Json;

use crate::engine::{Engine, RequestKind};
use crate::spec::JobSpec;
use crate::ServeError;

/// Hard cap on one request line (native op or HTTP request/header
/// line). Longer lines are rejected and the connection closed before
/// the buffer can grow past this.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// How many HTTP header lines are drained before responding; anything
/// beyond is ignored (the connection closes after the response).
const MAX_HTTP_HEADERS: usize = 64;

/// Serves the native protocol (and `GET /metrics`) on a TCP listener
/// until the engine is stopped (e.g. by a `shutdown` op).
///
/// # Errors
///
/// Any `io::Error` from the listener itself, after which the engine is
/// stopped; per-connection errors only close that connection.
pub fn serve_tcp(engine: &Arc<Engine>, listener: &TcpListener) -> io::Result<()> {
    listener.set_nonblocking(false)?;
    // The stop watcher connects here; a wildcard bind is reachable on
    // loopback.
    let mut wake_addr = listener.local_addr()?;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match wake_addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    accept_loop(
        engine,
        || listener.accept().map(|(stream, _peer)| Stream::Tcp(stream)),
        move || TcpStream::connect(wake_addr).map(drop),
    )
}

/// Unix-socket twin of [`serve_tcp`].
///
/// # Errors
///
/// Any `io::Error` from the listener itself, after which the engine is
/// stopped.
#[cfg(unix)]
pub fn serve_unix(engine: &Arc<Engine>, listener: &UnixListener) -> io::Result<()> {
    listener.set_nonblocking(false)?;
    let wake_addr = listener.local_addr()?;
    accept_loop(
        engine,
        || {
            listener
                .accept()
                .map(|(stream, _peer)| Stream::Unix(stream))
        },
        move || UnixStream::connect_addr(&wake_addr).map(drop),
    )
}

/// One end of a connection, TCP or unix socket, on either side.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// The accept loop both transports share. It blocks in `accept` and
/// never polls: a watcher thread waits for the engine to stop, then
/// calls `wake`, which opens one connection to the listener so the
/// blocked `accept` returns and the loop sees the stop flag.
///
/// A pending connection aborted or reset before `accept` took it, and
/// an interrupted `accept`, are retried, as accept(2) asks. A
/// connection whose setup fails is dropped alone. Any other `accept`
/// error stops the engine, so the watcher returns, and ends the loop
/// with that error.
fn accept_loop(
    engine: &Arc<Engine>,
    mut accept: impl FnMut() -> io::Result<Stream>,
    wake: impl FnOnce() -> io::Result<()> + Send + 'static,
) -> io::Result<()> {
    let listening = Arc::new(AtomicBool::new(true));
    // Not a scoped thread: should the loop panic, the watcher is left
    // parked rather than joined, so the panic is not turned into a hang.
    let watcher = {
        let engine = Arc::clone(engine);
        let listening = Arc::clone(&listening);
        std::thread::spawn(move || {
            engine.wait_stopped();
            // After a listener error nothing is left to wake, and a
            // full backlog could block the connect.
            if listening.load(Ordering::SeqCst) {
                // Should this fail, the next client wakes the loop.
                let _ = wake();
            }
        })
    };
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let result = loop {
        let accepted = accept();
        if engine.stopped() {
            break Ok(());
        }
        let stream = match accepted {
            Ok(stream) => stream,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => {
                listening.store(false, Ordering::SeqCst);
                engine.stop();
                break Err(e);
            }
        };
        conns.retain(|h| !h.is_finished());
        // An idle connection re-checks the stop flag on each timeout.
        let Ok(reader) = stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .and_then(|()| stream.try_clone())
        else {
            continue;
        };
        let engine = Arc::clone(engine);
        let spawned = std::thread::Builder::new().spawn(move || {
            let mut stream = stream;
            handle_conn(&engine, BufReader::new(reader), &mut stream);
        });
        if let Ok(h) = spawned {
            conns.push(h);
        }
    };
    for h in conns {
        let _ = h.join();
    }
    watcher.join().expect("stop watcher thread");
    result
}

/// Reads a line of at most [`MAX_REQUEST_LINE`] bytes, treating a
/// read timeout as "check the stop flag and keep waiting" so idle
/// keep-alive connections don't pin the server. A timeout mid-line
/// keeps the partial bytes and resumes.
///
/// An overlong line fails with `InvalidData` *before* buffering past
/// the cap — a client streaming an unterminated line can never make
/// the server allocate unbounded memory.
fn read_line_polling<R: BufRead>(
    engine: &Engine,
    reader: &mut R,
    line: &mut String,
) -> io::Result<usize> {
    line.clear();
    let mut bytes = Vec::new();
    loop {
        let (used, done) = match reader.fill_buf() {
            Ok([]) => break, // EOF: hand back any partial line, like read_line.
            Ok(available) => match available.iter().position(|&b| b == b'\n') {
                Some(i) => ((i + 1).min(available.len()), true),
                None => (available.len(), false),
            },
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if engine.stopped() {
                    return Ok(0);
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if bytes.len() + used > MAX_REQUEST_LINE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request line exceeds the 64 KiB cap",
            ));
        }
        bytes.extend_from_slice(&reader.fill_buf()?[..used]);
        reader.consume(used);
        if done {
            break;
        }
    }
    match String::from_utf8(bytes) {
        Ok(s) => {
            line.push_str(&s);
            Ok(line.len())
        }
        Err(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request line is not UTF-8",
        )),
    }
}

/// Whether a first line spells an HTTP request line (any method);
/// native-protocol lines are JSON objects, which never do.
fn looks_like_http(line: &str) -> bool {
    let line = line.trim_end();
    line.ends_with("HTTP/1.1") || line.ends_with("HTTP/1.0")
}

/// Drives one connection: HTTP if it opens with a request line,
/// otherwise the line protocol until EOF, error, or a `shutdown` op.
fn handle_conn<R: BufRead>(engine: &Engine, mut reader: R, writer: &mut dyn Write) {
    let mut line = String::new();
    if read_line_polling(engine, &mut reader, &mut line).unwrap_or(0) == 0 {
        return;
    }
    if looks_like_http(&line) {
        let _ = respond_http(engine, &line, &mut reader, writer);
        return;
    }
    loop {
        let (response, shutdown) = dispatch(engine, line.trim_end());
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if shutdown {
            return;
        }
        match read_line_polling(engine, &mut reader, &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Answers one HTTP request (already-read request line in `first`).
fn respond_http<R: BufRead>(
    engine: &Engine,
    first: &str,
    reader: &mut R,
    writer: &mut dyn Write,
) -> io::Result<()> {
    engine.count_request(RequestKind::Http);
    // Drain the request headers up to the blank line, each bounded by
    // the request-line cap and at most MAX_HTTP_HEADERS of them.
    let mut line = String::new();
    for _ in 0..MAX_HTTP_HEADERS {
        if read_line_polling(engine, reader, &mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
    }
    let mut parts = first.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let (status, content_type, body) = route(engine, method, path);
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

/// Resolves one HTTP request to (status, content type, body).
fn route(engine: &Engine, method: &str, path: &str) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n".to_owned(),
        );
    }
    if path == "/metrics" {
        return (
            "200 OK",
            "text/plain; version=0.0.4",
            engine.metrics_registry().to_prometheus(),
        );
    }
    if path == "/jobs" {
        return ("200 OK", "application/json", engine.jobs_json().to_string());
    }
    if let Some(rest) = path.strip_prefix("/jobs/") {
        let (id, attribution) = match rest.strip_suffix("/attribution") {
            Some(id) => (id, true),
            None => (rest, false),
        };
        if let Ok(id) = id.parse::<u64>() {
            return job_route(engine, id, attribution);
        }
    }
    (
        "404 Not Found",
        "text/plain",
        "not found; try /metrics, /jobs, /jobs/<id>, /jobs/<id>/attribution\n".to_owned(),
    )
}

/// `GET /jobs/<id>` serves the stored result payload verbatim;
/// `/jobs/<id>/attribution` extracts just its `"attribution"` section
/// (`null` when the job ran without attribution). A known job without
/// a result yet answers `{"id":…,"done":false}`; an id the engine
/// never acknowledged is 404.
fn job_route(engine: &Engine, id: u64, attribution: bool) -> (&'static str, &'static str, String) {
    match engine.result(id) {
        Some(res) if attribution => {
            let attr = Json::parse(&res)
                .ok()
                .and_then(|j| j.get("attribution").cloned())
                .unwrap_or(Json::Null);
            ("200 OK", "application/json", attr.to_string())
        }
        Some(res) => ("200 OK", "application/json", res),
        None if engine.knows(id) => (
            "200 OK",
            "application/json",
            Json::obj().field("id", id).field("done", false).to_string(),
        ),
        None => (
            "404 Not Found",
            "application/json",
            Json::obj()
                .field("error", "unknown job")
                .field("id", id)
                .to_string(),
        ),
    }
}

fn err_response(msg: &str) -> Json {
    Json::obj().field("ok", false).field("error", msg)
}

fn serve_error_response(e: &ServeError) -> Json {
    err_response(&e.to_string())
}

/// Executes one request line, returning the response and whether the
/// connection (and server) should shut down.
fn dispatch(engine: &Engine, line: &str) -> (Json, bool) {
    let j = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => return (err_response(&format!("bad request: {e}")), false),
    };
    let op = j.get("op").and_then(Json::as_str).unwrap_or("");
    match op {
        "ping" => engine.count_request(RequestKind::Ping),
        "submit" => engine.count_request(RequestKind::Submit),
        "wait" => engine.count_request(RequestKind::Wait),
        "status" => engine.count_request(RequestKind::Status),
        "metrics" => engine.count_request(RequestKind::Metrics),
        "shutdown" => engine.count_request(RequestKind::Shutdown),
        _ => {}
    }
    let response = match op {
        "ping" => Json::obj().field("ok", true).field("pong", true),
        "submit" => match j.get("spec").map(JobSpec::parse) {
            None => err_response("submit needs a \"spec\" object"),
            Some(Err(e)) => err_response(&e.to_string()),
            Some(Ok(spec)) => match engine.submit(&spec) {
                Ok((id, cached)) => Json::obj()
                    .field("ok", true)
                    .field("id", id)
                    .field("cached", cached),
                Err(e) => serve_error_response(&e),
            },
        },
        "wait" => match j.get("id").and_then(Json::as_u64) {
            None => err_response("wait needs an \"id\""),
            Some(id) => {
                let timeout = j
                    .get("timeout_ms")
                    .and_then(Json::as_u64)
                    .map(Duration::from_millis);
                match engine.wait(id, timeout) {
                    Ok(Some(res)) => {
                        let res = Json::parse(&res).unwrap_or_else(|_| Json::Str(res.clone()));
                        Json::obj()
                            .field("ok", true)
                            .field("id", id)
                            .field("res", res)
                    }
                    Ok(None) => err_response("timeout"),
                    Err(e) => serve_error_response(&e),
                }
            }
        },
        "status" => {
            let s = engine.status();
            Json::obj()
                .field("ok", true)
                .field("queued", s.queued)
                .field("running", s.running)
                .field("done", s.done)
                .field("failed", s.failed)
                .field("next_id", s.next_id)
        }
        "metrics" => Json::obj()
            .field("ok", true)
            .field("prometheus", engine.metrics_registry().to_prometheus()),
        "shutdown" => {
            engine.stop();
            Json::obj().field("ok", true).field("stopping", true)
        }
        other => err_response(&format!("unknown op {other:?}")),
    };
    (response, op == "shutdown")
}

/// A blocking line-protocol client.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to an endpoint: `tcp <addr>`, `unix <path>`, or a
    /// bare `<host>:<port>`.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from connecting, or `InvalidInput` for an
    /// endpoint spelling this build cannot reach.
    pub fn connect(endpoint: &str) -> io::Result<Client> {
        let endpoint = endpoint.trim();
        if let Some(path) = endpoint.strip_prefix("unix ") {
            return Self::connect_unix(Path::new(path.trim()));
        }
        let addr = endpoint.strip_prefix("tcp ").unwrap_or(endpoint).trim();
        Self::connect_tcp(addr)
    }

    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from `TcpStream::connect`.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        Self::over(Stream::Tcp(TcpStream::connect(addr)?))
    }

    /// Connects over a unix socket.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from `UnixStream::connect`; `InvalidInput` on
    /// non-unix builds.
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        #[cfg(unix)]
        {
            Self::over(Stream::Unix(UnixStream::connect(path)?))
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "unix sockets are not available on this platform",
            ))
        }
    }

    fn over(stream: Stream) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads one response line.
    ///
    /// # Errors
    ///
    /// Any transport `io::Error`, or `InvalidData` when the response
    /// is not a JSON object.
    pub fn request(&mut self, req: &Json) -> io::Result<Json> {
        writeln!(self.writer, "{req}")?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use redsim_util::io::RealIo;
    use std::sync::mpsc;

    #[test]
    fn an_aborted_pending_connection_does_not_end_the_accept_loop() {
        let dir = std::env::temp_dir().join(format!("redsim-net-{}-aborted", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(
            Engine::open(Arc::new(RealIo), &dir, EngineOptions::default()).expect("open engine"),
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let (done_tx, done_rx) = mpsc::channel();
        let server = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut aborted = false;
                let accept = || {
                    if std::mem::replace(&mut aborted, true) {
                        listener.accept().map(|(stream, _peer)| Stream::Tcp(stream))
                    } else {
                        Err(io::ErrorKind::ConnectionAborted.into())
                    }
                };
                let result =
                    accept_loop(&engine, accept, move || TcpStream::connect(addr).map(drop));
                done_tx.send(result.map_err(|e| e.kind())).expect("report");
            })
        };

        let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
        let pong = client
            .request(&Json::obj().field("op", "ping"))
            .expect("the connection after the aborted one is answered");
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        assert!(
            !engine.stopped(),
            "a retried error must not stop the engine"
        );

        drop(client);
        engine.stop();
        let result = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the loop returns once the engine stops");
        assert_eq!(result, Ok(()));
        server.join().expect("server thread");
        engine.close().expect("close");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
