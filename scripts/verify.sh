#!/usr/bin/env bash
# Full offline verification: formatting, lints, release build, the test
# suite, the end-to-end smokes (the flags smoke first), a bench smoke
# that byte-compares every figure's quick golden at one and at eight
# threads, and a build of the benchmark/ package with its unit tests.
# Run from anywhere; no network access is needed (the workspace has
# zero external dependencies).
#
#   scripts/verify.sh               # everything
#   scripts/verify.sh bench-smoke   # only the golden/threads smoke
#                                   # (assumes a release build exists)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Wall-clock throughput ("perf") fields vary run to run by design;
# strip them before any byte-identical comparison.
strip_perf() {
    sed -E 's/,"perf":\{[^{}]*\}//'
}

bench_smoke() {
    # Simulated stats must stay byte-identical to the committed
    # quick-mode goldens at one thread (the sweep runs inline) and at
    # eight (the shared worker pool), so the pool can never change a
    # result. Host performance is judged by benchmark/run.sh compare,
    # whose gate benchmark-build unit-tests.
    echo "==> quick-mode figure goldens at --threads 1 and 8"
    local fig
    # Every figure binary must have a golden, so a new figure cannot
    # skip the byte-compare below.
    for fig in crates/bench/src/bin/*.rs; do
        local name
        name=$(basename "$fig" .rs)
        if [ ! -f "results/quick/$name.json" ]; then
            echo "FAIL: figure binary $name has no golden results/quick/$name.json" >&2
            exit 1
        fi
    done
    for fig in results/quick/*.json; do
        local name threads json
        name=$(basename "$fig" .json)
        for threads in 1 8; do
            json=$("target/release/$name" --quick --json --threads "$threads")
            if ! strip_perf <<<"$json" | cmp -s - "$fig"; then
                echo "FAIL: $name --quick --json --threads $threads differs from committed $fig" >&2
                exit 1
            fi
        done
        # The --json shape: the title first, the wall-clock perf last.
        if [ "$name" = fig_recovery ]; then
            case "$json" in
                '{"title":'*'"perf":{"wall_seconds":'*) ;;
                *) echo "FAIL: --json output shape is wrong: $json" >&2; exit 1 ;;
            esac
        fi
    done
}

metrics_smoke() {
    # The windowed-metrics path end-to-end: a quick DIE-IRB run with
    # --metrics-out/--metrics-prom must produce a JSONL series whose
    # windows tile the run and a Prometheus exposition of the registry.
    echo "==> redsim-sim --metrics-out windowed time-series smoke"
    local out=target/metrics-smoke.jsonl
    local prom=target/metrics-smoke.prom
    run target/release/redsim-sim --workload gzip --scale 1 \
        --mode die-irb --metrics-window 1000 \
        --metrics-out "$out" --metrics-prom "$prom" >/dev/null
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$out" <<'EOF'
import json, sys
windows = [json.loads(l) for l in open(sys.argv[1])]
assert windows, "metrics dump has no windows"
edge = 0
for i, w in enumerate(windows):
    assert w["window"] == i, f"window {i} has index {w['window']}"
    assert w["start_cycle"] == edge, f"window {i} leaves a gap"
    assert w["end_cycle"] > w["start_cycle"], f"window {i} is empty"
    edge = w["end_cycle"]
assert any(w["irb"]["lookups"] > 0 for w in windows), "DIE-IRB run never touched the IRB"
assert all("milli_ipc" in w and "stalls" in w for w in windows)
EOF
    else
        grep -q '"window":0,' "$out" || {
            echo "FAIL: $out is missing window 0" >&2; exit 1; }
    fi
    grep -q '^# HELP redsim_cycles_total ' "$prom" || {
        echo "FAIL: $prom is not a Prometheus exposition" >&2; exit 1; }
    grep -q '^redsim_window_milli_ipc_count ' "$prom" || {
        echo "FAIL: $prom is missing the IPC histogram" >&2; exit 1; }
}

trace_smoke() {
    # The observability layer end-to-end: a quick DIE-IRB workload run
    # with --trace-out must produce parseable Chrome-trace JSON carrying
    # the expected pipeline and IRB event names.
    echo "==> redsim-sim --trace-out chrome-trace smoke"
    local out=target/trace-smoke.trace.json
    run target/release/redsim-sim --workload gzip --scale 1 \
        --mode die-irb --trace-out "$out" >/dev/null
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "trace has no events"
names = {e["name"] for e in events}
expected = {"fetch", "dispatch", "issue", "execute", "writeback",
            "commit", "irb_lookup", "irb_hit", "irb_insert"}
missing = expected - names
assert not missing, f"missing event names: {sorted(missing)}"
phases = {e["ph"] for e in events}
assert "X" in phases and "i" in phases, f"unexpected phase set: {phases}"
assert doc["metadata"]["tool"] == "redsim"
EOF
    else
        # Fallback: structural grep when python3 is unavailable.
        local name
        for name in fetch dispatch issue execute writeback commit \
                irb_lookup irb_hit irb_insert; do
            if ! grep -q "\"name\":\"$name\"" "$out"; then
                echo "FAIL: trace is missing \"$name\" events" >&2
                exit 1
            fi
        done
    fi
}

trace_file_smoke() {
    # The .rtrc interchange path end-to-end: redsim-emu --trace-out
    # writes a tiny kernel's committed trace, redsim-sim --trace replays
    # the file, and its stats must match redsim-sim run on the program
    # directly, in every mode. No in-process cache uses this format, so
    # this is what keeps it exercised.
    echo "==> redsim-emu --trace-out -> redsim-sim --trace smoke"
    local dir=target/trace-file-smoke
    rm -rf "$dir"
    mkdir -p "$dir"
    target/release/redsim-workload emit gzip --scale 1 >"$dir/gzip.s"
    target/release/redsim-emu "$dir/gzip.s" --trace-out "$dir/gzip.rtrc" >/dev/null
    local mode direct replay
    for mode in sie die die-irb sie-irb die-cluster; do
        direct=$(target/release/redsim-sim "$dir/gzip.s" --mode "$mode")
        replay=$(target/release/redsim-sim --trace "$dir/gzip.rtrc" --mode "$mode")
        case "$direct" in
            *'IPC:'*) ;;
            *) echo "FAIL: redsim-sim printed no stats in $mode: $direct" >&2; exit 1 ;;
        esac
        if [ "$direct" != "$replay" ]; then
            echo "FAIL: --trace replay differs from the direct run in $mode" >&2
            diff <(echo "$direct") <(echo "$replay") >&2 || true
            exit 1
        fi
    done
}

campaign_smoke() {
    # The resumable fault-injection campaign end-to-end: a full tiny
    # run, then the same campaign interrupted partway (exit code 3) and
    # resumed with a different thread count. The two final reports must
    # be byte-identical — the checkpoint/resume machinery may never
    # change a result.
    echo "==> fig_coverage campaign interrupt/resume determinism check"
    local bin=target/release/fig_coverage
    local dir=target/campaign-smoke
    rm -rf "$dir"
    mkdir -p "$dir"
    run "$bin" --quick --json --threads 4 --out "$dir/full" >/dev/null

    local rc=0
    "$bin" --quick --json --threads 1 --interrupt-after 5 \
        --out "$dir/split" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "FAIL: interrupted campaign must exit with code 3, got $rc" >&2
        exit 1
    fi
    if [ -e "$dir/split.report.json" ]; then
        echo "FAIL: an interrupted campaign must not write a report" >&2
        exit 1
    fi
    run "$bin" --quick --json --threads 8 --resume --out "$dir/split" >/dev/null

    if ! cmp -s "$dir/full.report.json" "$dir/split.report.json"; then
        echo "FAIL: resumed campaign report differs from the uninterrupted one" >&2
        exit 1
    fi
}

chaos_smoke() {
    # The chaos-recovery guarantee end-to-end: a campaign run under an
    # injected host-fault schedule (EINTR, short and torn writes,
    # ENOSPC, fsync failures, a hard kill) must degrade to exit code 5
    # with a resumable manifest, and --resume must converge to the
    # byte-identical report of a clean run.
    echo "==> fig_coverage chaos-recovery determinism check"
    local bin=target/release/fig_coverage
    local dir=target/chaos-smoke
    rm -rf "$dir"
    mkdir -p "$dir"
    run "$bin" --quick --json --threads 4 --out "$dir/clean" >/dev/null

    # A hard kill at an early IO boundary: graceful IO degradation is
    # exit code 5, and no report may exist yet.
    local rc=0
    "$bin" --quick --json --threads 2 --chaos-seed 1 --chaos-rate 0 \
        --chaos-kill-after 6 --out "$dir/chaos" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 5 ]; then
        echo "FAIL: a chaos kill must exit with code 5, got $rc" >&2
        exit 1
    fi
    if [ -e "$dir/chaos.report.json" ]; then
        echo "FAIL: a killed campaign must not leave a report" >&2
        exit 1
    fi

    # Resume under fresh random fault schedules (every family at once)
    # until a round survives; each failing round must still exit 5, and
    # the surviving round's report must match the clean run.
    local i=0
    while :; do
        rc=0
        "$bin" --quick --json --resume --threads $((1 + i % 4)) \
            --chaos-seed $((100 + i)) --chaos-rate 0.05 \
            --out "$dir/chaos" >/dev/null 2>&1 || rc=$?
        [ "$rc" -eq 0 ] && break
        if [ "$rc" -ne 5 ]; then
            echo "FAIL: chaos round $i exited $rc (want 0 or 5)" >&2
            exit 1
        fi
        i=$((i + 1))
        if [ "$i" -ge 30 ]; then
            echo "FAIL: chaos campaign never converged in 30 rounds" >&2
            exit 1
        fi
    done
    echo "==> chaos campaign converged after $i faulted round(s)"
    if ! cmp -s "$dir/clean.report.json" "$dir/chaos.report.json"; then
        echo "FAIL: chaos-recovered report differs from the clean one" >&2
        exit 1
    fi
}

# Waits for a daemon told to shut down to exit, and requires a clean
# exit. The wait is bounded (10 s) so an accept loop that never wakes
# fails the smoke instead of hanging CI.
await_daemon_exit() {
    local pid=$1 log=$2 i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 200 ]; then
            echo "FAIL: redsim-serve did not exit within 10 s of shutdown" >&2
            kill -9 "$pid" 2>/dev/null || true
            cat "$log" >&2
            exit 1
        fi
        sleep 0.05
    done
    wait "$pid" || {
        echo "FAIL: redsim-serve exited with status $? after shutdown" >&2
        cat "$log" >&2
        exit 1
    }
}

serve_smoke() {
    # The simulation-as-a-service daemon end-to-end with the real
    # binary: submit over TCP, scrape /metrics, `kill -9` the daemon,
    # restart it on the same state directory, and require the replayed
    # submission to be answered from the journal ("cached":true) with
    # no re-assembly or re-emulation. A last round serves the same
    # state directory on a unix socket. The server log is kept as a
    # file so CI can publish it as an artifact on failure.
    echo "==> redsim-serve kill -9 / restart / cache smoke"
    local bin=target/release/redsim-serve
    local dir=target/serve-smoke
    local log="$dir/server.log"
    rm -rf "$dir"
    mkdir -p "$dir"

    start_daemon() {
        "$bin" serve --state-dir "$dir" --workers 2 "$@" >>"$log" 2>&1 &
        serve_pid=$!
        # The daemon writes `<state-dir>/endpoint` once it is listening.
        local i=0
        until [ -s "$dir/endpoint" ]; do
            if ! kill -0 "$serve_pid" 2>/dev/null; then
                echo "FAIL: redsim-serve died during startup" >&2
                cat "$log" >&2
                exit 1
            fi
            i=$((i + 1))
            if [ "$i" -ge 200 ]; then
                echo "FAIL: redsim-serve never announced an endpoint" >&2
                cat "$log" >&2
                exit 1
            fi
            sleep 0.05
        done
    }

    start_daemon
    local first second
    first=$("$bin" submit --state-dir "$dir" --workload gzip \
        --mode die-irb --wait | tail -1)
    case "$first" in
        '{"ok":true,'*'"cycles":'*) ;;
        *) echo "FAIL: first submission did not succeed: $first" >&2
           cat "$log" >&2; exit 1 ;;
    esac
    "$bin" metrics --state-dir "$dir" | grep -q \
        '^serve_trace_cache_builds_total 1$' || {
        echo "FAIL: the first job must build exactly one trace" >&2
        cat "$log" >&2; exit 1
    }

    # Hard-kill the daemon and restart it on the same state directory.
    kill -9 "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true
    rm -f "$dir/endpoint"
    start_daemon

    # A replayed submission is answered from the journal: same result,
    # no new trace build, and the ack says "cached".
    second=$("$bin" submit --state-dir "$dir" --workload gzip \
        --mode die-irb --wait)
    case "$second" in
        *'"cached":true'*) ;;
        *) echo "FAIL: replay after restart was not served from the journal: $second" >&2
           cat "$log" >&2; exit 1 ;;
    esac
    if [ "$(tail -1 <<<"$second")" != "$first" ]; then
        echo "FAIL: replayed result differs from the original" >&2
        echo "  first:  $first" >&2
        echo "  second: $(tail -1 <<<"$second")" >&2
        cat "$log" >&2
        exit 1
    fi
    "$bin" metrics --state-dir "$dir" | grep -q \
        '^serve_trace_cache_builds_total 0$' || {
        echo "FAIL: the restarted daemon re-built a cached trace" >&2
        cat "$log" >&2; exit 1
    }

    run "$bin" shutdown --state-dir "$dir"
    await_daemon_exit "$serve_pid" "$log"

    # The unix-socket round: a new job through the endpoint file, then
    # a shutdown that must end the daemon and remove its socket.
    rm -f "$dir/endpoint"
    start_daemon --unix "$dir/sock"
    local third
    third=$("$bin" submit --state-dir "$dir" --workload gzip \
        --mode sie --wait | tail -1)
    case "$third" in
        '{"ok":true,'*'"cycles":'*) ;;
        *) echo "FAIL: submission over the unix socket did not succeed: $third" >&2
           cat "$log" >&2; exit 1 ;;
    esac
    run "$bin" shutdown --state-dir "$dir"
    await_daemon_exit "$serve_pid" "$log"
    if [ -e "$dir/sock" ]; then
        echo "FAIL: redsim-serve left its unix socket behind" >&2
        exit 1
    fi
}

attribution_smoke() {
    # The reuse-attribution telemetry end-to-end: the fig_reuse_anatomy
    # sweep (all five modes, both engines, attribution on) must satisfy
    # the conservation contract — per-class lookup/hit/pass counters sum
    # exactly to the aggregate IrbSummary totals, and the hot-PC and
    # loop decompositions cover the same events — byte-identically at
    # any thread count. Then the serve daemon's HTTP observability API
    # is scraped: /jobs, /jobs/<id>/attribution, /metrics (uptime and
    # request-type counters), plus the 404 surface. The sweep JSON is
    # kept as a file so CI can publish it as an artifact on failure.
    echo "==> fig_reuse_anatomy conservation + serve attribution API smoke"
    local bin=target/release/fig_reuse_anatomy
    local out="$PWD/target/attribution-smoke.json"
    "$bin" --quick --json --threads 1 >"$out"
    local many
    many=$("$bin" --quick --json --threads 4)
    if [ "$(strip_perf <"$out")" != "$(strip_perf <<<"$many")" ]; then
        echo "FAIL: fig_reuse_anatomy --threads 4 differs from --threads 1" >&2
        exit 1
    fi
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
anatomy = doc["anatomy"]
assert anatomy, "no anatomy entries"
KEYS = ("lookups", "hits", "passes", "fails")
by_cell = {}
for e in anatomy:
    tag = (e["workload"], e["mode"], e["engine"])
    a, irb = e["attribution"], e["irb"]
    cls = a["classes"]
    assert set(cls) == {"alu", "mul", "div", "mem", "branch"}, tag
    tot = {k: sum(c[k] for c in cls.values()) for k in KEYS}
    assert tot["lookups"] == irb["lookups"], tag
    assert tot["hits"] == irb["hits"], tag
    assert tot["passes"] == irb["reuse_passed"], tag
    assert tot["fails"] == irb["reuse_failed"], tag
    pc = {k: sum(p[k] for p in a["hot_pcs"]) + a["folded_pcs"][k] for k in KEYS}
    assert pc == tot, f"{tag}: hot-PC decomposition diverges"
    lp = {k: sum(l[k] for l in a["loops"]) + a["folded_loops"][k] + a["outside"][k]
          for k in KEYS}
    assert lp == tot, f"{tag}: loop decomposition diverges"
    if e["mode"] not in ("SieIrb", "DieIrb"):
        assert tot["lookups"] == 0, f"{tag}: an IRB-less mode attributed lookups"
    by_cell.setdefault(tag[:2], {})[e["engine"]] = json.dumps(a, sort_keys=True)
for cell, by_engine in by_cell.items():
    assert by_engine["event"] == by_engine["scan"], f"{cell}: engines diverge"
print(f"attribution conservation OK: {len(anatomy)} jobs, {len(by_cell)} cells")
EOF
    else
        grep -q '"anatomy":\[' "$out" || {
            echo "FAIL: $out has no anatomy section" >&2; exit 1; }
    fi

    # The serve daemon's observability API over real HTTP.
    local serve=target/release/redsim-serve
    local dir=target/attribution-serve-smoke
    local log="$dir/server.log"
    rm -rf "$dir"
    mkdir -p "$dir"
    "$serve" serve --state-dir "$dir" --workers 2 >>"$log" 2>&1 &
    local serve_pid=$!
    local i=0
    until [ -s "$dir/endpoint" ]; do
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "FAIL: redsim-serve died during startup" >&2
            cat "$log" >&2
            exit 1
        fi
        i=$((i + 1))
        if [ "$i" -ge 200 ]; then
            echo "FAIL: redsim-serve never announced an endpoint" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.05
    done
    local ack
    ack=$("$serve" submit --state-dir "$dir" --workload gzip \
        --mode die-irb --attribution --wait)
    ack=$(head -1 <<<"$ack")
    case "$ack" in
        '{"ok":true,"id":'*) ;;
        *) echo "FAIL: attribution submission was refused: $ack" >&2
           cat "$log" >&2; exit 1 ;;
    esac
    local jid
    jid=$(sed -E 's/.*"id":([0-9]+).*/\1/' <<<"$ack")
    local addr
    addr=$(sed -n 's/^tcp //p' "$dir/endpoint")
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$addr" "$jid" <<'EOF' || { cat target/attribution-serve-smoke/server.log >&2; exit 1; }
import json, socket, sys
addr, jid = sys.argv[1].strip(), sys.argv[2]
host, port = addr.rsplit(":", 1)
def get(path):
    s = socket.create_connection((host, int(port)), timeout=30)
    s.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    data = b""
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    s.close()
    head, _, body = data.decode().partition("\r\n\r\n")
    return head.split("\r\n")[0], body
status, body = get(f"/jobs/{jid}")
assert "200" in status, (status, body)
payload = json.loads(body)
assert payload["ok"] is True and "attribution" in payload, body
status, body = get(f"/jobs/{jid}/attribution")
assert "200" in status, (status, body)
attr = json.loads(body)
assert set(attr["classes"]) == {"alu", "mul", "div", "mem", "branch"}, body
assert attr == payload["attribution"], "attribution route must serve the stored section"
status, body = get("/jobs")
assert "200" in status, (status, body)
listing = json.loads(body)
assert any(e["id"] == int(jid) and e["state"] == "done" for e in listing), body
status, body = get("/metrics")
assert "200" in status, (status, body)
assert "redsim_serve_uptime_seconds" in body, body
assert "serve_requests_http_total" in body, body
assert "serve_requests_submit_total 1" in body, body
status, body = get("/nope")
assert "404" in status, (status, body)
print("serve attribution endpoints OK")
EOF
    else
        echo "==> python3 unavailable; skipping the HTTP endpoint scrape"
    fi
    run "$serve" shutdown --state-dir "$dir"
    await_daemon_exit "$serve_pid" "$log"
}

flags_smoke() {
    # Every binary parses its flag table: an unknown flag and a value
    # flag given last exit 2 before anything runs (each call is bounded
    # to 10 s, far below any simulation), and --help exits 0.
    echo "==> every binary refuses unknown and value-less flags with exit 2"
    local t=target/release
    expect() {
        local want=$1 rc=0
        shift
        timeout 10 "$@" >/dev/null 2>&1 || rc=$?
        if [ "$rc" -ne "$want" ]; then
            echo "FAIL: '$*' exited $rc, want $want" >&2
            exit 1
        fi
    }
    local fig name
    for fig in crates/bench/src/bin/*.rs fig_coverage; do
        name=$(basename "$fig" .rs)
        expect 2 "$t/$name" --quick --threads 2 --bogus
        expect 2 "$t/$name" --quick --threads
        expect 0 "$t/$name" --help
    done
    expect 2 "$t/redsim-asm" x.s --bogus
    expect 2 "$t/redsim-asm" x.s --out
    expect 2 "$t/redsim-emu" x.s --bogus
    expect 2 "$t/redsim-emu" x.s --budget
    expect 2 "$t/redsim-workload" emit gzip --bogus
    expect 2 "$t/redsim-workload" emit gzip --scale
    expect 2 "$t/redsim-sim" --compare --workload gzip --bogus
    expect 2 "$t/redsim-sim" --compare --workload gzip --mode die
    local bin
    for bin in redsim-asm redsim-emu redsim-sim redsim-workload redsim-serve; do
        expect 0 "$t/$bin" --help
    done
    local cmd
    for cmd in serve submit status metrics shutdown; do
        expect 2 "$t/redsim-serve" "$cmd" --state-dir target/flags-smoke --bogus
        expect 2 "$t/redsim-serve" "$cmd" --state-dir
        expect 0 "$t/redsim-serve" "$cmd" --help
    done
    # The reported cases: a typo, an unknown flag, a value-less budget
    # and a value-less rate each used to run and exit 0.
    expect 2 "$t/redsim-sim" --workload gzip --scale 1 --mdoe die
    expect 2 "$t/redsim-sim" --workload gzip --scale 1 --bogus
    expect 2 "$t/redsim-sim" --workload gzip --scale 1 --budget
    expect 2 "$t/fig_faults" --quick --threads 2 --fu-rate
    expect 2 "$t/fig2" --qiuck
    if [ -e target/flags-smoke ]; then
        echo "FAIL: a refused redsim-serve command created its state directory" >&2
        exit 1
    fi
}

benchmark_build() {
    # The benchmark package (benchmark/, its own workspace) builds the
    # repository's crates by path, so a crate API change that breaks it
    # must fail here, not only when the benchmark next runs. It shares
    # benchmark/run.sh's default target directory.
    echo "==> benchmark package build + unit tests"
    run env CARGO_TARGET_DIR="$PWD/target" cargo build --offline --release \
        --manifest-path benchmark/Cargo.toml --bins
    run env CARGO_TARGET_DIR="$PWD/target" cargo test --offline \
        --manifest-path benchmark/Cargo.toml --lib
}

if [ "${1:-}" = "benchmark-build" ]; then
    benchmark_build
    echo "OK: benchmark build passed"
    exit 0
fi

if [ "${1:-}" = "flags-smoke" ]; then
    flags_smoke
    echo "OK: flags smoke passed"
    exit 0
fi

if [ "${1:-}" = "serve-smoke" ]; then
    serve_smoke
    echo "OK: serve smoke passed"
    exit 0
fi

if [ "${1:-}" = "attribution-smoke" ]; then
    attribution_smoke
    echo "OK: attribution smoke passed"
    exit 0
fi

if [ "${1:-}" = "bench-smoke" ]; then
    bench_smoke
    echo "OK: bench smoke passed"
    exit 0
fi

if [ "${1:-}" = "campaign-smoke" ]; then
    campaign_smoke
    echo "OK: campaign smoke passed"
    exit 0
fi

if [ "${1:-}" = "chaos-smoke" ]; then
    chaos_smoke
    echo "OK: chaos smoke passed"
    exit 0
fi

if [ "${1:-}" = "trace-smoke" ]; then
    trace_smoke
    echo "OK: trace smoke passed"
    exit 0
fi

if [ "${1:-}" = "trace-file-smoke" ]; then
    trace_file_smoke
    echo "OK: trace-file smoke passed"
    exit 0
fi

if [ "${1:-}" = "metrics-smoke" ]; then
    metrics_smoke
    echo "OK: metrics smoke passed"
    exit 0
fi

run cargo fmt --all -- --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
run cargo build --offline --release --workspace
run cargo test --offline --workspace -q
flags_smoke
trace_smoke
trace_file_smoke
metrics_smoke
campaign_smoke
chaos_smoke
serve_smoke
attribution_smoke
bench_smoke
benchmark_build

echo "OK: all checks passed"
