//! Chaos suite: the daemon must stay fully serviceable after every
//! injected fault. Each scenario drives one failure mode — stalled
//! clients, mid-request disconnects, truncated frames, forced solver
//! panics, expired deadlines, queue overload — and then proves recovery
//! the strongest way available: a fresh `ping` + `solve` whose `result`
//! is **byte-identical** to the locally rendered report.
//!
//! Server-side fault hooks (`"fault": "panic"`, `"fault_sleep_ms"`,
//! `"fault": "expire_deadline"`) only exist under the `faults` feature,
//! which this test target enables via the root dev-dependency; release
//! builds of `resd` never compile them in.

use resilience::core::engine::{Engine, SolveOptions};
use resilience::prelude::*;
use server::client::{Client, RetryPolicy};
use server::dbtext::{parse_database_with_labels, to_text};
use server::faults;
use server::jsonio::{self, JsonValue};
use server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::Workload;

/// `q_vc`: witnesses are the edges of `S` between `R`-nodes, so resilience
/// is minimum vertex cover — NP-hard, the exact branch-and-bound path.
const QVC: &str = "R(x), S(x,y), R(y)";

fn start_server(config: ServerConfig) -> (SocketAddr, ServerGuard) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (
        addr,
        ServerGuard {
            flag,
            handle: Some(handle),
        },
    )
}

struct ServerGuard {
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A small `q_vc` instance (5-cycle plus a chord) with known structure,
/// used for the byte-identity probes.
fn easy_instance_text() -> String {
    "S(0,1)\nS(1,2)\nS(2,3)\nS(3,4)\nS(4,0)\nS(0,2)\n\
     R(0)\nR(1)\nR(2)\nR(3)\nR(4)\n"
        .to_string()
}

/// A dense-ish random `q_vc` instance big enough that exact vertex cover
/// cannot finish inside any test deadline.
fn hard_instance_text() -> String {
    let q = parse_query(QVC).unwrap();
    let mut workload = Workload::new(42);
    let mut db = workload.random_graph_relation(&q, "S", 200, 0.1);
    workload.saturate_unary_relations(&q, &mut db, 200);
    to_text(&db)
}

/// Uploads query + instance and returns `(query_id, db_id, expected)`
/// where `expected` is the locally rendered `report_json` the daemon's
/// `solve` result must reproduce byte for byte (tag `"t"`).
fn upload(client: &mut Client, db_text: &str) -> (String, String, String) {
    let (qid, _, _) = client.compile(QVC).unwrap();
    let (did, _) = client.load_text(&qid, db_text).unwrap();
    let q = parse_query(QVC).unwrap();
    let (db, _) = parse_database_with_labels(&q, db_text).unwrap();
    let frozen = db.freeze();
    let report = Engine::compile(&q)
        .solve(&frozen, &SolveOptions::new())
        .unwrap();
    let expected = jsonio::report_json("t", &frozen, &report);
    (qid, did, expected)
}

/// The post-fault serviceability probe: fresh connection, `ping`, then a
/// `solve` whose result must be byte-identical to the local rendering.
fn assert_serviceable(addr: SocketAddr, qid: &str, did: &str, expected: &str) {
    let mut probe = Client::connect(addr).unwrap();
    let (pong, _) = probe.request("{\"op\": \"ping\"}").unwrap();
    assert_eq!(pong.get("pong").and_then(JsonValue::as_bool), Some(true));
    let (_, raw) = probe
        .request(&format!(
            "{{\"op\": \"solve\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \"tag\": \"t\"}}"
        ))
        .unwrap();
    assert_eq!(jsonio::extract_raw(&raw, "result"), Some(expected));
}

#[test]
fn stalled_client_does_not_wedge_the_daemon() {
    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(2));
    let mut client = Client::connect(addr).unwrap();
    let (qid, did, expected) = upload(&mut client, &easy_instance_text());
    drop(client); // workers serve a connection to completion; free the slot

    // A client that writes half a request and then just sits there.
    let stalled = faults::stalled_client(&addr.to_string(), b"{\"op\": \"pi").unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert_serviceable(addr, &qid, &did, &expected);

    // Completing the line after the long stall still gets an answer: the
    // worker kept accumulating the partial frame across read timeouts.
    let mut stalled = stalled;
    stalled.write_all(b"ng\"}\n").unwrap();
    let mut reader = BufReader::new(stalled);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\": true"), "got: {line}");
    assert_serviceable(addr, &qid, &did, &expected);
}

#[test]
fn mid_request_disconnect_is_survivable_with_one_worker() {
    // One worker: if the dropped connection wedged or killed it, the probe
    // below could never be answered.
    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(1));
    let mut client = Client::connect(addr).unwrap();
    let (qid, did, expected) = upload(&mut client, &easy_instance_text());
    drop(client); // free the single worker for the fault + probes

    for _ in 0..3 {
        faults::disconnect_mid_request(&addr.to_string(), b"{\"op\": \"solve\", \"query").unwrap();
        assert_serviceable(addr, &qid, &did, &expected);
    }
}

#[test]
fn truncated_and_pathological_frames_get_structured_errors() {
    let (addr, _guard) = start_server(
        ServerConfig::new("127.0.0.1:0")
            .workers(2)
            .max_line_bytes(4096),
    );
    let mut client = Client::connect(addr).unwrap();
    let (qid, did, expected) = upload(&mut client, &easy_instance_text());

    // Truncated JSON (complete frame, incomplete document) → parse error.
    let resp =
        faults::send_raw_line(&addr.to_string(), b"{\"op\": \"solve\", \"query_id\": ").unwrap();
    let v = jsonio::parse_json(&resp).unwrap();
    assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("parse"));

    // Garbage bytes → parse error, not a hang or crash.
    let resp = faults::send_raw_line(&addr.to_string(), b"\x01\x02garbage\xff").unwrap();
    let v = jsonio::parse_json(&resp).unwrap();
    assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("parse"));

    // A depth bomb inside a well-formed frame → structured bad_request.
    let bomb = format!("{}{}{}", "{\"op\": ", "[".repeat(80), "1]}");
    let resp = faults::send_raw_line(&addr.to_string(), bomb.as_bytes()).unwrap();
    let v = jsonio::parse_json(&resp).unwrap();
    assert_eq!(
        v.get("kind").and_then(JsonValue::as_str),
        Some("bad_request")
    );

    // A frame over the server's line cap → bad_request, connection closed.
    let oversized = format!("{{\"op\": \"ping\", \"pad\": \"{}\"}}", "x".repeat(8192));
    let resp = faults::send_raw_line(&addr.to_string(), oversized.as_bytes()).unwrap();
    let v = jsonio::parse_json(&resp).unwrap();
    assert_eq!(
        v.get("kind").and_then(JsonValue::as_str),
        Some("bad_request")
    );

    assert_serviceable(addr, &qid, &did, &expected);
}

#[test]
fn forced_solver_panic_answers_internal_and_the_worker_survives() {
    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(1));
    let mut client = Client::connect(addr).unwrap();
    let (qid, did, expected) = upload(&mut client, &easy_instance_text());

    for _ in 0..3 {
        // The panic fires inside the dispatch catch_unwind; the same
        // connection and the same (sole) worker must keep serving.
        let raw = client
            .request_raw(&format!(
                "{{\"op\": \"solve\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \
                 \"fault\": \"panic\"}}"
            ))
            .unwrap();
        let v = jsonio::parse_json(&raw).unwrap();
        assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("internal"));

        let (_, raw) = client
            .request(&format!(
                "{{\"op\": \"solve\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \
                 \"tag\": \"t\"}}"
            ))
            .unwrap();
        assert_eq!(jsonio::extract_raw(&raw, "result"), Some(expected.as_str()));
    }
    drop(client); // free the single worker for the fresh probe
    assert_serviceable(addr, &qid, &did, &expected);
}

#[test]
fn expired_deadline_returns_cancelled_and_session_state_survives() {
    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(2));
    let mut client = Client::connect(addr).unwrap();
    let (qid, did, expected) = upload(&mut client, &easy_instance_text());

    // Solve with an injected already-expired deadline: structured
    // `cancelled`, no bounds (nothing ran).
    let raw = client
        .request_raw(&format!(
            "{{\"op\": \"solve\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \
             \"fault\": \"expire_deadline\"}}"
        ))
        .unwrap();
    let v = jsonio::parse_json(&raw).unwrap();
    assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("cancelled"));
    assert!(v.get("bounds").is_some_and(JsonValue::is_null));

    // The same holds mid-session, and the session stays usable: the next
    // resolve answers exactly what an untouched local session would.
    client
        .request(&format!(
            "{{\"op\": \"session\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \
             \"session_id\": \"s\"}}"
        ))
        .unwrap();
    let raw = client
        .request_raw("{\"op\": \"resolve\", \"session_id\": \"s\", \"fault\": \"expire_deadline\"}")
        .unwrap();
    let v = jsonio::parse_json(&raw).unwrap();
    assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("cancelled"));
    let (v, _) = client
        .request("{\"op\": \"resolve\", \"session_id\": \"s\"}")
        .unwrap();
    assert!(v.get("event").is_some(), "session did not survive: {v:?}");

    assert_serviceable(addr, &qid, &did, &expected);
}

#[test]
fn hard_instance_cancels_within_the_deadline_with_valid_bounds() {
    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(2));
    let mut client = Client::connect(addr).unwrap();
    let (qid, _, _) = client.compile(QVC).unwrap();
    let (did, _) = client.load_text(&qid, &hard_instance_text()).unwrap();

    let timeout_ms = 400u64;
    let started = Instant::now();
    let raw = client
        .request_raw(&format!(
            "{{\"op\": \"solve\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \
             \"options\": {{\"timeout_ms\": {timeout_ms}}}}}"
        ))
        .unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(timeout_ms + 50),
        "cancellation took {elapsed:?}, deadline was {timeout_ms}ms + 50ms grace"
    );
    let v = jsonio::parse_json(&raw).unwrap();
    assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("cancelled"));
    let bounds = v.get("bounds").expect("cancelled response carries bounds");
    assert!(!bounds.is_null(), "expected anytime bounds, got null");
    let lower = bounds.get("lower").and_then(JsonValue::as_usize).unwrap();
    let upper = bounds.get("upper").and_then(JsonValue::as_usize).unwrap();
    let nodes = bounds
        .get("nodes_explored")
        .and_then(JsonValue::as_usize)
        .unwrap();
    assert!(lower >= 1, "dense instance has a positive packing bound");
    assert!(
        lower <= upper,
        "anytime interval inverted: [{lower}, {upper}]"
    );
    assert!(
        nodes > 0,
        "search should have explored nodes before cancelling"
    );

    // The daemon is still fully serviceable afterwards (fresh upload so the
    // identity probe uses a tractable instance).
    drop(client);
    let mut fresh = Client::connect(addr).unwrap();
    let (qid2, did2, expected) = upload(&mut fresh, &easy_instance_text());
    drop(fresh);
    assert_serviceable(addr, &qid2, &did2, &expected);
}

/// `q_ACconf`: a linear-flow query, so its sessions re-solve through the
/// resident warm flow network.
const QACCONF: &str = "A(x), R(x,y), R(z,y), C(z)";

#[test]
fn warm_flow_resolve_cancels_within_its_deadline_and_resolves_identically() {
    // 1000 constants, 3000 random R-edges, unary relations saturated: the
    // warm rebuild a resolve runs after `reset` + `delete` takes several
    // times the deadline, even in release builds.
    let q = parse_query(QACCONF).unwrap();
    let mut workload = Workload::new(3);
    let mut db = workload.random_symmetric_relation(&q, "R", 1000, 3000, 0.0);
    workload.saturate_unary_relations(&q, &mut db, 1000);
    let text = to_text(&db);
    let victim = text
        .lines()
        .find(|l| l.starts_with("R("))
        .unwrap()
        .to_string();

    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(2));
    let mut client = Client::connect(addr).unwrap();
    let (qid, _, _) = client.compile(QACCONF).unwrap();
    let (did, _) = client.load_text(&qid, &text).unwrap();
    let open_and_delete = |client: &mut Client, sid: &str| {
        client
            .request(&format!(
                "{{\"op\": \"session\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \
                 \"session_id\": \"{sid}\"}}"
            ))
            .unwrap();
        client
            .request(&format!("{{\"op\": \"reset\", \"session_id\": \"{sid}\"}}"))
            .unwrap();
        client
            .request(&format!(
                "{{\"op\": \"delete\", \"session_id\": \"{sid}\", \"tuple\": \"{victim}\"}}"
            ))
            .unwrap();
    };
    let resolve = |client: &mut Client, sid: &str| {
        let (_, raw) = client
            .request(&format!(
                "{{\"op\": \"resolve\", \"session_id\": \"{sid}\"}}"
            ))
            .unwrap();
        jsonio::extract_raw(&raw, "event").unwrap().to_string()
    };

    open_and_delete(&mut client, "s");
    let timeout_ms = 1u64;
    let started = Instant::now();
    let raw = client
        .request_raw(&format!(
            "{{\"op\": \"resolve\", \"session_id\": \"s\", \
             \"options\": {{\"timeout_ms\": {timeout_ms}}}}}"
        ))
        .unwrap();
    let elapsed = started.elapsed();
    let v = jsonio::parse_json(&raw).unwrap();
    assert_eq!(
        v.get("kind").and_then(JsonValue::as_str),
        Some("cancelled"),
        "warm resolve ignored its deadline: {}",
        &raw[..raw.len().min(240)]
    );
    assert!(
        elapsed < Duration::from_millis(timeout_ms + 50),
        "cancellation took {elapsed:?}, deadline was {timeout_ms}ms + 50ms grace"
    );

    // The cancelled resolve left no trace: the next plain resolve answers
    // byte for byte what a fresh session with the same deletion answers.
    let resumed = resolve(&mut client, "s");
    open_and_delete(&mut client, "fresh");
    assert_eq!(resumed, resolve(&mut client, "fresh"));
}

#[test]
fn queue_overload_refuses_with_retry_hint_and_recovers() {
    // Admission control is per *request* now, not per connection: with one
    // worker and a one-slot queue, a long-running request plus one queued
    // request mean the next frame — from any connection, idle ones cost
    // nothing — is answered `overloaded` with a retry hint, on a connection
    // that stays open.
    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(1).queue_depth(1));
    let mut client = Client::connect(addr).unwrap();
    let (qid, did, expected) = upload(&mut client, &easy_instance_text());
    drop(client);

    // Occupy the sole worker for a while...
    let addr_str = addr.to_string();
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(&*addr_str).unwrap();
        let raw = c
            .request_raw("{\"op\": \"ping\", \"fault_sleep_ms\": 600}")
            .unwrap();
        assert!(raw.contains("pong"));
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...fill the one queue slot with a second request...
    let mut filler = TcpStream::connect(addr).unwrap();
    filler.write_all(b"{\"op\": \"ping\"}\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // ...and a further request is refused immediately with a structured
    // overloaded error carrying a retry hint.
    let mut refused = Client::connect(addr).unwrap();
    let raw = refused.request_raw("{\"op\": \"ping\"}").unwrap();
    let v = jsonio::parse_json(&raw).unwrap();
    assert_eq!(
        v.get("kind").and_then(JsonValue::as_str),
        Some("overloaded")
    );
    assert!(v
        .get("retry_after_ms")
        .and_then(JsonValue::as_usize)
        .is_some());
    // The refusal did not tear down the connection: the same socket gets
    // answers again once the worker drains (give it the busy window).
    std::thread::sleep(Duration::from_millis(700));
    let (pong, _) = refused.request("{\"op\": \"ping\"}").unwrap();
    assert_eq!(pong.get("pong").and_then(JsonValue::as_bool), Some(true));
    drop(refused);

    // The queued filler was answered, not dropped.
    let mut filler = BufReader::new(filler);
    let mut line = String::new();
    filler.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\": true"), "got: {line}");
    drop(filler);

    busy.join().unwrap();

    // A retrying client rides a fresh overload window out on backoff alone.
    let addr_str = addr.to_string();
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(&*addr_str).unwrap();
        let raw = c
            .request_raw("{\"op\": \"ping\", \"fault_sleep_ms\": 400}")
            .unwrap();
        assert!(raw.contains("pong"));
    });
    std::thread::sleep(Duration::from_millis(100));
    let mut filler = TcpStream::connect(addr).unwrap();
    filler.write_all(b"{\"op\": \"ping\"}\n").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let patient = RetryPolicy {
        attempts: 40,
        base_delay_ms: 25,
        max_delay_ms: 100,
    };
    let mut retrying = Client::connect_retrying(&addr.to_string(), patient).unwrap();
    let (pong, _) = retrying.request("{\"op\": \"ping\"}").unwrap();
    assert_eq!(pong.get("pong").and_then(JsonValue::as_bool), Some(true));
    drop(retrying);
    drop(filler);
    busy.join().unwrap();

    assert_serviceable(addr, &qid, &did, &expected);
}

#[test]
fn slow_loris_and_idle_horde_do_not_delay_solves() {
    // 512 held-open idle keep-alive connections plus a byte-at-a-time
    // slow-loris writer: neither may pin a worker, so a concurrent solve
    // must stay within a bounded factor of the unloaded baseline.
    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(2));
    let mut client = Client::connect(addr).unwrap();
    let (qid, did, expected) = upload(&mut client, &easy_instance_text());

    // Baseline: the easy solve with nothing else connected.
    let solve_req = format!(
        "{{\"op\": \"solve\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \"tag\": \"t\"}}"
    );
    let started = Instant::now();
    for _ in 0..3 {
        client.request(&solve_req).unwrap();
    }
    let baseline = started.elapsed() / 3;

    // The idle horde: connected, never writing a byte.
    let horde: Vec<TcpStream> = (0..512)
        .map(|i| {
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connection {i} refused: {e}"))
        })
        .collect();

    // The slow loris: one byte of a valid ping every few milliseconds.
    let stop = Arc::new(AtomicBool::new(false));
    let loris_stop = Arc::clone(&stop);
    let loris = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        let frame = b"{\"op\": \"ping\"}\n";
        let mut sent = 0usize;
        while !loris_stop.load(Ordering::SeqCst) {
            s.write_all(&frame[sent..sent + 1]).unwrap();
            sent = (sent + 1) % frame.len();
            std::thread::sleep(Duration::from_millis(2));
        }
        s
    });

    // Solves sampled while the horde sits and the loris trickles.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    for _ in 0..3 {
        let (_, raw) = client.request(&solve_req).unwrap();
        assert_eq!(jsonio::extract_raw(&raw, "result"), Some(expected.as_str()));
    }
    let loaded = started.elapsed() / 3;

    // Bounded factor: generous (shared CI hardware; the loris thread and
    // 512 sockets add real scheduler noise) but far below the
    // seconds-per-connection a thread-per-connection server would burn.
    let bound = baseline * 20 + Duration::from_millis(500);
    assert!(
        loaded <= bound,
        "solve under idle horde took {loaded:?} (baseline {baseline:?}, bound {bound:?})"
    );

    // The loris's frame completes eventually once we let it finish a whole
    // line quickly — the accumulated partial frame was kept across passes.
    stop.store(true, Ordering::SeqCst);
    let mut s = loris.join().unwrap();
    s.write_all(b"\n{\"op\": \"ping\"}\n").unwrap();
    let mut reader = BufReader::new(s);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(!line.is_empty(), "loris connection got no answer");

    drop(horde);
    assert_serviceable(addr, &qid, &did, &expected);
}

#[test]
fn mid_pipeline_disconnect_leaves_daemon_byte_identical() {
    // A client pipelines several frames, reads only part of the answers and
    // vanishes mid-stream; with one worker, any wedge would be fatal for
    // the probe. The daemon must keep answering byte-identically.
    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(1));
    let mut client = Client::connect(addr).unwrap();
    let (qid, did, expected) = upload(&mut client, &easy_instance_text());
    drop(client);

    for round in 0..3 {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut burst = String::new();
        for _ in 0..4 {
            burst.push_str("{\"op\": \"ping\"}\n");
        }
        burst.push_str(&format!(
            "{{\"op\": \"solve\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \"tag\": \"t\"}}\n"
        ));
        s.write_all(burst.as_bytes()).unwrap();
        if round % 2 == 0 {
            // Read one answer, then vanish with the rest in flight.
            let mut reader = BufReader::new(&s);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"pong\": true"), "got: {line}");
        }
        drop(s);
        assert_serviceable(addr, &qid, &did, &expected);
    }
}

#[test]
fn pipelined_frames_answer_in_arrival_order() {
    // One write carrying many frames: every response arrives, in order,
    // and the solve in the middle is byte-identical to the local report.
    let (addr, _guard) = start_server(ServerConfig::new("127.0.0.1:0").workers(2));
    let mut client = Client::connect(addr).unwrap();
    let (qid, did, expected) = upload(&mut client, &easy_instance_text());
    drop(client);

    let mut s = TcpStream::connect(addr).unwrap();
    let mut burst = String::new();
    burst.push_str("{\"op\": \"ping\"}\n");
    burst.push_str(&format!(
        "{{\"op\": \"solve\", \"query_id\": \"{qid}\", \"db_id\": \"{did}\", \"tag\": \"t\"}}\n"
    ));
    burst.push_str("{\"op\": \"nonsense\"}\n");
    burst.push_str("{\"op\": \"ping\"}\n");
    s.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(s);
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    assert!(read_line().contains("\"pong\": true"));
    let solve = read_line();
    assert_eq!(
        jsonio::extract_raw(solve.trim(), "result"),
        Some(expected.as_str())
    );
    let err = read_line();
    assert!(err.contains("\"bad_request\""), "got: {err}");
    assert!(read_line().contains("\"pong\": true"));
}
