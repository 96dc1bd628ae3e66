//! Transport tests for the shared accept loop: a full session over
//! the unix socket, the stop paths the blocking `accept` must wake
//! from (an `Engine::stop` with no client, a wildcard TCP bind), a run
//! of back-to-back fresh connections, and a maximally nested request
//! line that must not take the daemon down. Every server result comes
//! back through a channel with a bounded wait, so a loop that never
//! wakes fails its test instead of hanging the suite.

#![cfg(unix)]

use std::io::{BufRead, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

use redsim_core::ExecMode;
use redsim_serve::engine::{Engine, EngineOptions};
use redsim_serve::net::{serve_tcp, serve_unix, Client};
use redsim_serve::spec::JobSpec;
use redsim_util::io::RealIo;
use redsim_util::Json;
use redsim_workloads::Workload;

/// How long a test waits for the accept loop to return.
const BOUND: Duration = Duration::from_secs(30);

fn test_dir(tag: &str) -> PathBuf {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let d = base.join(format!("transport-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A socket path short enough for `sun_path` (about 100 bytes), which a
/// deep target directory could exceed.
fn socket_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("redsim-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn open(dir: &Path) -> Arc<Engine> {
    Arc::new(Engine::open(Arc::new(RealIo), dir, EngineOptions::default()).expect("open engine"))
}

/// Runs `serve` on its own thread; its result arrives on the channel.
fn spawn<F>(serve: F) -> Receiver<std::io::Result<()>>
where
    F: FnOnce() -> std::io::Result<()> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(serve());
    });
    rx
}

fn served_tcp(engine: &Arc<Engine>, listener: TcpListener) -> Receiver<std::io::Result<()>> {
    let engine = Arc::clone(engine);
    spawn(move || serve_tcp(&engine, &listener))
}

fn served_unix(engine: &Arc<Engine>, listener: UnixListener) -> Receiver<std::io::Result<()>> {
    let engine = Arc::clone(engine);
    spawn(move || serve_unix(&engine, &listener))
}

fn assert_returns_ok(server: &Receiver<std::io::Result<()>>, what: &str) {
    match server.recv_timeout(BOUND) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => panic!("{what}: the accept loop failed: {e}"),
        Err(_) => panic!("{what}: the accept loop did not return within {BOUND:?}"),
    }
}

fn ping(client: &mut Client) {
    let pong = client
        .request(&Json::obj().field("op", "ping"))
        .expect("ping");
    assert_eq!(
        pong.get("pong").and_then(Json::as_bool),
        Some(true),
        "{pong}"
    );
}

#[test]
fn a_unix_socket_session_runs_a_job_serves_http_and_shuts_down() {
    let dir = test_dir("unix-session");
    let sock = socket_path("session");
    let engine = open(&dir);
    let server = served_unix(&engine, UnixListener::bind(&sock).expect("bind unix"));

    let mut client = Client::connect(&format!("unix {}", sock.display())).expect("connect");
    ping(&mut client);
    let spec = Json::parse(&JobSpec::new(Workload::Gzip, ExecMode::DieIrb).canonical())
        .expect("spec json");
    let submitted = client
        .request(&Json::obj().field("op", "submit").field("spec", spec))
        .expect("submit");
    let id = submitted.get("id").and_then(Json::as_u64).expect("id");
    let done = client
        .request(
            &Json::obj()
                .field("op", "wait")
                .field("id", id)
                .field("timeout_ms", 120_000u64),
        )
        .expect("wait");
    let res = done.get("res").expect("result payload");
    assert_eq!(res.get("ok").and_then(Json::as_bool), Some(true), "{done}");

    let mut raw = UnixStream::connect(&sock).expect("http connect");
    raw.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("http request");
    let mut resp = String::new();
    raw.read_to_string(&mut resp).expect("http response");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(resp.contains("serve_jobs_submitted_total 1"), "{resp}");

    let stopping = client
        .request(&Json::obj().field("op", "shutdown"))
        .expect("shutdown");
    assert_eq!(stopping.get("stopping").and_then(Json::as_bool), Some(true));
    assert_returns_ok(&server, "unix shutdown op");
    engine.close().expect("close");
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn engine_stop_alone_ends_both_transports() {
    let dir = test_dir("stop");
    let sock = socket_path("stop");
    let engine = open(&dir);
    let tcp = served_tcp(&engine, TcpListener::bind("127.0.0.1:0").expect("bind tcp"));
    let unix = served_unix(&engine, UnixListener::bind(&sock).expect("bind unix"));

    let stopper = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.stop())
    };
    stopper.join().expect("stopper thread");
    assert_returns_ok(&tcp, "tcp after Engine::stop");
    assert_returns_ok(&unix, "unix after Engine::stop");
    engine.close().expect("close");
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn a_wildcard_tcp_bind_is_woken_through_loopback() {
    let dir = test_dir("wildcard");
    let engine = open(&dir);
    let server = served_tcp(&engine, TcpListener::bind("0.0.0.0:0").expect("bind"));
    engine.stop();
    assert_returns_ok(&server, "tcp bound to 0.0.0.0");
    engine.close().expect("close");
}

#[test]
fn back_to_back_fresh_connections_are_each_answered() {
    let dir = test_dir("fresh");
    let engine = open(&dir);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = served_tcp(&engine, listener);

    for _ in 0..50 {
        let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
        ping(&mut client);
    }
    // The loop is back in a blocking accept; the stop must still wake it.
    engine.stop();
    assert_returns_ok(&server, "tcp after 50 connections");
    engine.close().expect("close");
}

#[test]
fn a_line_of_brackets_at_the_length_cap_gets_an_error_and_the_daemon_keeps_serving() {
    let dir = test_dir("deep");
    let engine = open(&dir);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = served_tcp(&engine, listener);

    // 64 KiB − 1 brackets plus the newline: the longest line the daemon
    // reads. An uncapped recursive parser overflows the connection
    // thread's stack on it and aborts the whole process.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(BOUND)).expect("read timeout");
    let mut line = "[".repeat(64 * 1024 - 1);
    line.push('\n');
    raw.write_all(line.as_bytes()).expect("send the deep line");
    let mut reply = String::new();
    std::io::BufReader::new(&raw)
        .read_line(&mut reply)
        .expect("error reply");
    let reply = Json::parse(reply.trim_end()).expect("reply is JSON");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "{reply}"
    );
    assert!(
        reply
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("nesting")),
        "{reply}"
    );

    let mut client = Client::connect_tcp(&addr.to_string()).expect("connect after");
    ping(&mut client);
    engine.stop();
    assert_returns_ok(&server, "tcp after the deep line");
    engine.close().expect("close");
}
