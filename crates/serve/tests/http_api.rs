//! HTTP observability-API tests: the `/jobs` results routes, the
//! error surface (404 unknown routes, 405 non-GET methods, the
//! bounded request line), the scrape shape of the request-type and
//! uptime metrics, and an HTTP round-trip of a stored result against
//! a killed-and-restarted server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use redsim_core::ExecMode;
use redsim_serve::engine::{Engine, EngineOptions};
use redsim_serve::net::{serve_tcp, Client, MAX_REQUEST_LINE};
use redsim_serve::spec::JobSpec;
use redsim_util::io::RealIo;
use redsim_util::Json;
use redsim_workloads::Workload;

fn test_dir(tag: &str) -> PathBuf {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let d = base.join(format!("http-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn options() -> EngineOptions {
    EngineOptions {
        workers: 2,
        ..EngineOptions::default()
    }
}

fn open(dir: &Path) -> Arc<Engine> {
    Arc::new(Engine::open(Arc::new(RealIo), dir, options()).expect("open engine"))
}

/// Binds an ephemeral port and serves `engine` on it until shutdown.
fn spawn_server(engine: &Arc<Engine>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let engine = Arc::clone(engine);
    let handle = std::thread::spawn(move || serve_tcp(&engine, &listener).expect("accept loop"));
    (addr, handle)
}

/// One raw HTTP exchange; returns the full response (headers + body).
fn http(addr: SocketAddr, request: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("http connect");
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    s.write_all(request.as_bytes()).expect("http request");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("http response");
    resp
}

fn get(addr: SocketAddr, path: &str) -> String {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

fn body_of(resp: &str) -> &str {
    resp.split_once("\r\n\r\n").expect("header/body split").1
}

/// Submits a spec over the native protocol and waits for its result.
fn submit_and_wait(client: &mut Client, spec: &JobSpec) -> u64 {
    let spec_json = Json::parse(&spec.canonical()).expect("spec json");
    let resp = client
        .request(&Json::obj().field("op", "submit").field("spec", spec_json))
        .expect("submit");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    let id = resp.get("id").and_then(Json::as_u64).expect("id");
    let done = client
        .request(
            &Json::obj()
                .field("op", "wait")
                .field("id", id)
                .field("timeout_ms", 300_000u64),
        )
        .expect("wait");
    assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true), "{done}");
    id
}

/// Reads the value of a single-valued metric line from an exposition.
fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from exposition:\n{text}"))
        .trim()
        .parse()
        .expect("metric value parses")
}

#[test]
fn jobs_routes_serve_stored_results_and_attribution() {
    let dir = test_dir("routes");
    let engine = open(&dir);
    let (addr, server) = spawn_server(&engine);
    let mut client = Client::connect(&format!("tcp {addr}")).expect("connect");

    let mut with_attr = JobSpec::new(Workload::Gzip, ExecMode::SieIrb);
    with_attr.attribution = true;
    let plain = JobSpec::new(Workload::Gzip, ExecMode::Sie);
    let attr_id = submit_and_wait(&mut client, &with_attr);
    let plain_id = submit_and_wait(&mut client, &plain);

    // The listing: one entry per journaled job, in id order, done.
    let resp = get(addr, "/jobs");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(resp.contains("Content-Type: application/json"), "{resp}");
    let listing = Json::parse(body_of(&resp)).expect("listing is JSON");
    let Json::Arr(entries) = &listing else {
        panic!("listing is an array: {listing}");
    };
    assert_eq!(entries.len(), 2);
    for (entry, id) in entries.iter().zip([attr_id, plain_id]) {
        assert_eq!(entry.get("id").and_then(Json::as_u64), Some(id));
        assert_eq!(entry.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(entry.get("workload").and_then(Json::as_str), Some("gzip"));
    }

    // `/jobs/<id>` serves the stored payload verbatim.
    let resp = get(addr, &format!("/jobs/{attr_id}"));
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert_eq!(
        body_of(&resp),
        engine.result(attr_id).expect("stored result"),
        "the route must not re-render the stored payload"
    );
    let payload = Json::parse(body_of(&resp)).expect("payload is JSON");
    assert_eq!(payload.get("ok").and_then(Json::as_bool), Some(true));

    // `/jobs/<id>/attribution` extracts just the attribution section,
    // with the full class taxonomy present.
    let resp = get(addr, &format!("/jobs/{attr_id}/attribution"));
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    let attr = Json::parse(body_of(&resp)).expect("attribution is JSON");
    let classes = attr.get("classes").expect("classes section");
    for name in ["alu", "mul", "div", "mem", "branch"] {
        let c = classes
            .get(name)
            .unwrap_or_else(|| panic!("class {name} present"));
        assert!(c.get("lookups").and_then(Json::as_u64).is_some());
    }
    assert!(attr.get("loops").is_some(), "loop breakdown present");
    assert!(attr.get("hot_pcs").is_some(), "hot-PC table present");

    // A job that ran without attribution answers `null`.
    let resp = get(addr, &format!("/jobs/{plain_id}/attribution"));
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert_eq!(body_of(&resp).trim(), "null");

    // Unknown ids and unknown routes are 404; non-GET is 405.
    assert!(get(addr, "/jobs/999").starts_with("HTTP/1.1 404"), "id 999");
    assert!(get(addr, "/jobs/zzz").starts_with("HTTP/1.1 404"), "bad id");
    assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"), "bad path");
    let resp = http(addr, "POST /jobs HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    let resp = http(addr, "DELETE /jobs/0 HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");

    client
        .request(&Json::obj().field("op", "shutdown"))
        .expect("shutdown");
    server.join().expect("server thread");
    engine.close().expect("close");
}

#[test]
fn oversized_request_lines_are_rejected_without_buffering_them() {
    let dir = test_dir("oversize");
    let engine = open(&dir);
    let (addr, server) = spawn_server(&engine);

    // A request line far past the cap, never newline-terminated: the
    // server must drop the connection once the cap is crossed rather
    // than buffer the stream indefinitely.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let flood = vec![b'A'; MAX_REQUEST_LINE + 8192];
        // The server may reset mid-write once it gives up reading.
        let _ = s.write_all(&flood);
        let mut resp = String::new();
        let n = s.read_to_string(&mut resp).unwrap_or(0);
        assert_eq!(n, 0, "no response to an oversized request: {resp}");
    }

    // The server survives and still answers well-formed requests.
    let resp = get(addr, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");

    let mut client = Client::connect(&format!("tcp {addr}")).expect("connect");
    client
        .request(&Json::obj().field("op", "shutdown"))
        .expect("shutdown");
    server.join().expect("server thread");
    engine.close().expect("close");
}

#[test]
fn metrics_expose_uptime_and_per_request_type_counters() {
    let dir = test_dir("scrape");
    let engine = open(&dir);
    let (addr, server) = spawn_server(&engine);
    let mut client = Client::connect(&format!("tcp {addr}")).expect("connect");

    client
        .request(&Json::obj().field("op", "ping"))
        .expect("ping");
    client
        .request(&Json::obj().field("op", "status"))
        .expect("status");
    get(addr, "/jobs");

    let resp = get(addr, "/metrics");
    let text = body_of(&resp);
    // Scrape-shape regression: the new families are typed and present.
    assert!(
        text.contains("# TYPE redsim_serve_uptime_seconds gauge"),
        "{text}"
    );
    for kind in [
        "ping", "submit", "wait", "status", "metrics", "shutdown", "http",
    ] {
        assert!(
            text.contains(&format!("# TYPE serve_requests_{kind}_total counter")),
            "missing serve_requests_{kind}_total:\n{text}"
        );
    }
    assert!(metric_value(text, "redsim_serve_uptime_seconds") >= 0.0);
    assert_eq!(metric_value(text, "serve_requests_ping_total"), 1.0);
    assert_eq!(metric_value(text, "serve_requests_status_total"), 1.0);
    assert_eq!(metric_value(text, "serve_requests_submit_total"), 0.0);
    // /jobs, then this very scrape: the counter includes the request
    // being answered.
    assert!(metric_value(text, "serve_requests_http_total") >= 2.0);

    client
        .request(&Json::obj().field("op", "shutdown"))
        .expect("shutdown");
    server.join().expect("server thread");
    engine.close().expect("close");
}

#[test]
fn stored_results_round_trip_over_http_after_kill_and_restart() {
    let dir = test_dir("restart");

    // Session 1: run one attribution job to completion, then die
    // without the graceful close/compaction (a stand-in for kill -9
    // after the done record hit the journal).
    let mut spec = JobSpec::new(Workload::Gzip, ExecMode::DieIrb);
    spec.attribution = true;
    let (id, reference) = {
        let engine = open(&dir);
        let (id, _cached) = engine.submit(&spec).expect("submit");
        engine.drain().expect("drain");
        let res = engine.result(id).expect("result");
        drop(engine); // no close(): the journal stays in appended form
        (id, res)
    };
    assert!(reference.starts_with("{\"ok\":true"), "{reference}");
    assert!(reference.contains("\"attribution\""), "{reference}");

    // Session 2: a restarted server must serve the byte-identical
    // stored payload over HTTP without re-running anything.
    let engine = open(&dir);
    let (addr, server) = spawn_server(&engine);
    let resp = get(addr, &format!("/jobs/{id}"));
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert_eq!(body_of(&resp), reference, "restart changed a stored result");

    let listing = get(addr, "/jobs");
    assert!(
        body_of(&listing).contains("\"state\":\"done\""),
        "{listing}"
    );

    let mut client = Client::connect(&format!("tcp {addr}")).expect("connect");
    client
        .request(&Json::obj().field("op", "shutdown"))
        .expect("shutdown");
    server.join().expect("server thread");
    engine.close().expect("close");
}
