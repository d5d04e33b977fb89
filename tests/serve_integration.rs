//! End-to-end contract of the `chatls serve` stack over real TCP.
//!
//! One [`ChatLsService`] (one quick expert database, one session pool)
//! is shared by the servers in the file, so the tests also exercise the
//! pool under concurrent access; the one test that asserts an exact pool
//! build count runs on a private service instead:
//!
//! - concurrent clients get byte-identical responses, and the served
//!   script is exactly what the one-shot CLI pipeline produces;
//! - a full admission queue answers `429` with `Retry-After` instead of
//!   resetting the connection;
//! - an expired deadline answers `504` and does not poison the pooled
//!   session (the next request on the same design succeeds);
//! - graceful shutdown drains in-flight requests before the listener
//!   goes away;
//! - multi-turn sessions stream SSE over a real socket, stay warm on
//!   turn 2, and survive a client that disconnects mid-stream.
//!
//! Each test uses designs no other test touches, so pool hit/miss and
//! cold/warm expectations are independent of test ordering.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use chatls::database::{DbConfig, ExpertDatabase};
use chatls::pipeline::{prepare_task, ChatLs};
use chatls::ChatLsService;
use chatls_serve::{ServeConfig, Server, ShutdownHandle};

/// One service (database + session pool) for the whole test binary.
fn service() -> Arc<ChatLsService> {
    static SVC: OnceLock<Arc<ChatLsService>> = OnceLock::new();
    Arc::clone(SVC.get_or_init(|| {
        Arc::new(ChatLsService::new(ExpertDatabase::build(&DbConfig::quick()), 16))
    }))
}

type Running = (String, ShutdownHandle, std::thread::JoinHandle<std::io::Result<()>>);

/// Binds a fresh server on port 0 over the shared service and runs it on
/// a background thread.
fn start_server(workers: usize, queue_depth: usize, timeout_ms: u64) -> Running {
    start_server_on(service(), workers, queue_depth, timeout_ms)
}

/// [`start_server`] over a caller-chosen service.
fn start_server_on(
    svc: Arc<ChatLsService>,
    workers: usize,
    queue_depth: usize,
    timeout_ms: u64,
) -> Running {
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), workers, queue_depth, timeout_ms };
    let server = Server::bind(config, svc).expect("bind port 0");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

struct Reply {
    status: u16,
    headers: String,
    body: String,
}

/// One blocking HTTP/1.1 exchange (`Connection: close` on both sides).
fn http(addr: &str, method: &str, path: &str, body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {head:.80}"));
    Reply { status, headers: head.to_ascii_lowercase(), body: body.to_string() }
}

fn customize_body(design: &str) -> String {
    format!("{{\"design\": \"{design}\"}}")
}

/// A tiny inline design unique to one test (unique module name → unique
/// pool fingerprint, independent of every other test).
fn inline_design_body(name: &str) -> String {
    format!(
        "{{\"verilog\": \"module {name}(input clk, input a, input b, output reg y); \
         always @(posedge clk) y <= a & b; endmodule\", \"top\": \"{name}\"}}"
    )
}

/// The `data:` payloads of every SSE frame named `event` in `body`.
fn sse_data(body: &str, event: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut lines = body.lines().peekable();
    while let Some(line) = lines.next() {
        if line == format!("event: {event}") {
            let mut data = String::new();
            while let Some(next) = lines.peek() {
                let Some(chunk) = next.strip_prefix("data: ") else { break };
                if !data.is_empty() {
                    data.push('\n');
                }
                data.push_str(chunk);
                lines.next();
            }
            out.push(data);
        }
    }
    out
}

/// The `"script"` field of a customize response body.
fn script_of(body: &str) -> String {
    let v = serde_json::parse_value(body).expect("JSON response body");
    v.get("script").and_then(|s| s.as_str()).expect("script field").to_string()
}

#[test]
fn concurrent_responses_are_byte_identical_and_match_the_pipeline() {
    let (addr, shutdown, join) = start_server(4, 64, 0);
    // 6 concurrent clients over 2 designs; every response for a design
    // must be byte-for-byte the same whether it was served cold, warm,
    // or raced against another cold request for the same fingerprint.
    let designs = ["fft", "simd"];
    let mut handles = Vec::new();
    for i in 0..6 {
        let addr = addr.clone();
        let design = designs[i % designs.len()];
        handles.push(std::thread::spawn(move || {
            let reply = http(&addr, "POST", "/v1/customize", &customize_body(design));
            assert_eq!(reply.status, 200, "customize {design}: {}", reply.body);
            (design, reply.body)
        }));
    }
    let replies: Vec<(&str, String)> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();
    for design in designs {
        let bodies: Vec<&String> =
            replies.iter().filter(|(d, _)| *d == design).map(|(_, b)| b).collect();
        // The pool field differs between the first (miss) and later
        // (hit) responses; everything else must be identical, so strip
        // it before comparing.
        let strip = |b: &str| b.replace("\"pool\":\"miss\"", "").replace("\"pool\":\"hit\"", "");
        for other in &bodies[1..] {
            assert_eq!(strip(bodies[0]), strip(other), "{design}: concurrent responses diverged");
        }
        // And the served script is exactly what the one-shot pipeline
        // (the `chatls customize` code path) produces.
        let svc = service();
        let design_obj = chatls_designs::by_name(design).unwrap();
        let task = prepare_task(&design_obj, "optimize timing at the fixed clock");
        let expected = ChatLs::new(svc.db()).customize(&design_obj, &task, 0);
        assert_eq!(
            script_of(bodies[0]),
            expected.script(),
            "{design}: served script diverged from the CLI pipeline"
        );
    }
    shutdown.shutdown();
    join.join().expect("server thread").expect("server run");
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One worker, queue depth 1: occupy the worker with a heavy cold
    // customize, then burst fast requests to overflow the queue.
    let (addr, shutdown, join) = start_server(1, 1, 0);
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || http(&addr, "POST", "/v1/customize", &customize_body("swerv")))
    };
    // Let the slow request get admitted and picked up by the worker.
    std::thread::sleep(Duration::from_millis(300));
    // The burst must be concurrent: a sequential closed loop never holds
    // more than one connection open, so the queue could never overflow.
    let burst: Vec<Reply> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || http(&addr, "GET", "/healthz", ""))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("burst client"))
        .collect();
    let rejected: Vec<&Reply> = burst.iter().filter(|r| r.status == 429).collect();
    assert!(
        !rejected.is_empty(),
        "burst against a busy single worker with queue depth 1 must overflow; got {:?}",
        burst.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    for r in &rejected {
        assert!(r.headers.contains("retry-after:"), "429 carries Retry-After: {}", r.headers);
        assert!(r.body.contains("error"), "429 carries the JSON error envelope: {}", r.body);
    }
    // Admitted requests (and the slow one) still complete normally.
    assert!(burst.iter().all(|r| r.status == 429 || r.status == 200));
    let slow = slow.join().expect("slow client");
    assert_eq!(slow.status, 200, "in-flight request survived the burst: {}", slow.body);
    shutdown.shutdown();
    join.join().expect("server thread").expect("server run");
}

#[test]
fn expired_deadline_answers_504_and_does_not_poison_the_pool() {
    // Two servers over the SAME service/pool: one with a 1 ms deadline
    // (everything substantive times out), one without deadlines.
    let (tight_addr, tight_shutdown, tight_join) = start_server(2, 16, 1);
    let (ok_addr, ok_shutdown, ok_join) = start_server(2, 16, 0);

    let timed_out = http(&tight_addr, "POST", "/v1/customize", &customize_body("sha3"));
    assert_eq!(timed_out.status, 504, "1 ms deadline must expire: {}", timed_out.body);
    assert!(timed_out.body.contains("deadline"), "504 names the deadline: {}", timed_out.body);

    // The same design through the shared pool still serves correctly:
    // the cancelled request left no half-built session behind.
    let ok = http(&ok_addr, "POST", "/v1/customize", &customize_body("sha3"));
    assert_eq!(ok.status, 200, "pool survived the 504: {}", ok.body);
    let svc = service();
    let design = chatls_designs::by_name("sha3").unwrap();
    let task = prepare_task(&design, "optimize timing at the fixed clock");
    let expected = ChatLs::new(svc.db()).customize(&design, &task, 0);
    assert_eq!(script_of(&ok.body), expected.script(), "post-504 script diverged");

    tight_shutdown.shutdown();
    ok_shutdown.shutdown();
    tight_join.join().expect("tight server").expect("tight run");
    ok_join.join().expect("ok server").expect("ok run");
}

#[test]
fn non_2xx_responses_carry_the_uniform_error_envelope() {
    // Two servers over the shared service: one unconstrained, one with a
    // 1 ms deadline so a substantive request produces the 504 path.
    let (addr, shutdown, join) = start_server(2, 16, 0);
    let (tight_addr, tight_shutdown, tight_join) = start_server(2, 16, 1);
    let cases = [
        (http(&addr, "GET", "/no/such/path", ""), 404, "not_found"),
        (http(&addr, "GET", "/v1/customize", ""), 405, "method_not_allowed"),
        (http(&addr, "POST", "/v1/customize", "{not json"), 400, "bad_request"),
        (http(&addr, "POST", "/v1/customize", "{\"design\": \"missing\"}"), 404, "unknown_design"),
        (
            http(&tight_addr, "POST", "/v1/customize", &customize_body("jpeg")),
            504,
            "deadline_exceeded",
        ),
    ];
    for (reply, status, code) in cases {
        assert_eq!(reply.status, status, "{code}: {}", reply.body);
        assert!(
            reply.headers.contains("content-type: application/json"),
            "{code}: error responses are JSON: {}",
            reply.headers
        );
        let v = serde_json::parse_value(&reply.body)
            .unwrap_or_else(|e| panic!("{code}: envelope must parse ({e:?}): {}", reply.body));
        let error = v
            .get("error")
            .unwrap_or_else(|| panic!("{code}: missing error object: {}", reply.body));
        assert_eq!(error.get("code").and_then(|c| c.as_str()), Some(code), "{}", reply.body);
        let message = error.get("message").and_then(|m| m.as_str()).unwrap_or_default();
        assert!(!message.is_empty(), "{code}: empty error message: {}", reply.body);
        if status == 405 {
            assert!(reply.headers.contains("allow:"), "405 carries Allow: {}", reply.headers);
        }
    }
    shutdown.shutdown();
    tight_shutdown.shutdown();
    join.join().expect("server thread").expect("server run");
    tight_join.join().expect("tight server").expect("tight run");
}

#[test]
fn version_endpoint_reports_build_identity() {
    let (addr, shutdown, join) = start_server(2, 16, 0);
    let reply = http(&addr, "GET", "/v1/version", "");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let v = serde_json::parse_value(&reply.body).expect("version JSON");
    assert!(v.get("git").and_then(|g| g.as_str()).is_some(), "{}", reply.body);
    let profile = v.get("profile").and_then(|p| p.as_str());
    assert!(matches!(profile, Some("debug") | Some("release")), "{}", reply.body);
    // A standalone (non-sharded) daemon identifies itself as such.
    assert_eq!(v.get("shard").and_then(|s| s.as_str()), Some("standalone"), "{}", reply.body);
    assert_eq!(
        v.get("protocol").and_then(|p| p.as_f64()),
        Some(f64::from(chatls_serve::PROTOCOL_VERSION)),
        "{}",
        reply.body
    );
    // The capability handshake: agent front-end features are advertised
    // so routers and clients can discover them without probing paths.
    let caps: Vec<&str> = v
        .get("capabilities")
        .and_then(|c| c.as_array())
        .expect("capabilities array")
        .iter()
        .filter_map(|c| c.as_str())
        .collect();
    assert!(caps.contains(&"mcp") && caps.contains(&"sessions"), "{}", reply.body);
    shutdown.shutdown();
    join.join().expect("server thread").expect("server run");
}

#[test]
fn streaming_session_turns_stay_warm_over_real_tcp() {
    let (addr, shutdown, join) = start_server(2, 16, 0);
    let created = http(&addr, "POST", "/v1/session", &inline_design_body("itg_sse_probe"));
    assert_eq!(created.status, 201, "{}", created.body);
    let id = serde_json::parse_value(&created.body)
        .expect("create JSON")
        .get("session")
        .and_then(|s| s.as_str())
        .expect("session id")
        .to_string();
    let turn_path = format!("/v1/session/{id}/turn");

    let turn1 = http(&addr, "POST", &turn_path, "{\"seed\": 0}");
    assert_eq!(turn1.status, 200, "{}", turn1.body);
    assert!(
        turn1.headers.contains("content-type: text/event-stream"),
        "turns stream SSE: {}",
        turn1.headers
    );
    // The full event vocabulary arrives in order over the wire.
    let stages: Vec<String> = sse_data(&turn1.body, "stage")
        .iter()
        .map(|d| {
            serde_json::parse_value(d)
                .unwrap()
                .get("name")
                .and_then(|n| n.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(stages, ["embed", "retrieve", "draft", "refine"], "{}", turn1.body);
    assert!(!sse_data(&turn1.body, "thought").is_empty(), "CoT steps stream: {}", turn1.body);
    assert!(
        sse_data(&turn1.body, "qor_delta").len() >= 2,
        "cold run streams per-command QoR deltas: {}",
        turn1.body
    );
    assert_eq!(sse_data(&turn1.body, "result").len(), 1, "{}", turn1.body);
    let header1 = serde_json::parse_value(&sse_data(&turn1.body, "turn")[0]).unwrap();
    assert_eq!(header1.get("sta").and_then(|s| s.as_str()), Some("fresh"), "{}", turn1.body);

    // Turn 2 on the same session: the mapped design and STA state are
    // reused — no template rebuild, carried timing graph.
    let turn2 = http(&addr, "POST", &turn_path, "{\"request\": \"trade area for speed\"}");
    assert_eq!(turn2.status, 200, "{}", turn2.body);
    let header2 = serde_json::parse_value(&sse_data(&turn2.body, "turn")[0]).unwrap();
    assert_eq!(header2.get("turn").and_then(|t| t.as_u64()), Some(1), "{}", turn2.body);
    assert_eq!(header2.get("sta").and_then(|s| s.as_str()), Some("carried"), "{}", turn2.body);
    assert_eq!(sse_data(&turn2.body, "result").len(), 1, "{}", turn2.body);

    let closed = http(&addr, "POST", &format!("/v1/session/{id}/close"), "");
    assert_eq!(closed.status, 200, "{}", closed.body);
    let gone = http(&addr, "POST", &turn_path, "{}");
    assert_eq!(gone.status, 404, "closed sessions answer 404: {}", gone.body);
    shutdown.shutdown();
    join.join().expect("server thread").expect("server run");
}

#[test]
fn client_disconnect_mid_sse_leaves_the_session_healthy() {
    // A private service: its pool's build count moves only with this
    // test's requests, never with builds other tests run meanwhile.
    let svc = Arc::new(ChatLsService::new(ExpertDatabase::build(&DbConfig::quick()), 16));
    let (addr, shutdown, join) = start_server_on(Arc::clone(&svc), 2, 16, 0);
    let created = http(&addr, "POST", "/v1/session", &inline_design_body("itg_gone_probe"));
    assert_eq!(created.status, 201, "{}", created.body);
    let id = serde_json::parse_value(&created.body)
        .expect("create JSON")
        .get("session")
        .and_then(|s| s.as_str())
        .expect("session id")
        .to_string();
    let turn_path = format!("/v1/session/{id}/turn");
    let builds_before = svc.pool().stats().builds;

    // Start a turn, read just the head + first frame, then vanish.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let request = format!(
            "POST {turn_path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{{}}"
        );
        stream.write_all(request.as_bytes()).expect("write request");
        let mut first = [0u8; 64];
        let n = stream.read(&mut first).expect("first bytes");
        assert!(n > 0, "the stream must have started before the disconnect");
        // Dropping the stream closes the socket mid-turn.
    }

    // The server cancels the turn cooperatively and releases the session:
    // the next turn on the same id succeeds end to end. Immediately after
    // the disconnect the abort may still be in flight, so tolerate a
    // transient 409 while it unwinds.
    let mut reply = http(&addr, "POST", &turn_path, "{}");
    for _ in 0..200 {
        if reply.status != 409 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        reply = http(&addr, "POST", &turn_path, "{}");
    }
    assert_eq!(reply.status, 200, "session must recover after a disconnect: {}", reply.body);
    let result = sse_data(&reply.body, "result");
    assert_eq!(result.len(), 1, "recovered turn runs to completion: {}", reply.body);
    // Whether the abort landed mid-pipeline or the turn drained into the
    // dead socket, the pooled template was never rebuilt. (That a
    // cancelled synthesis run is never memoized is locked deterministically
    // by the in-process disconnect tests in `chatls::agent`.)
    assert_eq!(
        svc.pool().stats().builds,
        builds_before,
        "a disconnect must never invalidate the pooled session template"
    );
    shutdown.shutdown();
    join.join().expect("server thread").expect("server run");
}

#[test]
fn graceful_shutdown_drains_inflight_requests() {
    let (addr, shutdown, join) = start_server(2, 16, 0);
    // A heavy cold request that will still be running when we shut down.
    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            http(&addr, "POST", "/v1/customize", &customize_body("dynamic_node"))
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    shutdown.shutdown();
    join.join().expect("server thread").expect("server run");
    // The in-flight request completed rather than being cut off…
    let reply = inflight.join().expect("in-flight client");
    assert_eq!(reply.status, 200, "drained request completed: {}", reply.body);
    // …and the listener is gone afterwards.
    assert!(TcpStream::connect(&addr).is_err(), "listener must be closed after graceful shutdown");
}
