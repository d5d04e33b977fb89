//! Load generator for `chatls serve`: miss-storm, closed-loop and
//! open-loop phases over an in-process server.
//!
//! Spawns the serving stack in-process (port 0), then drives three
//! phases, in order:
//!
//! 1. **Miss storm** (cold pool): K clients fire the same design
//!    concurrently. With single-flight coalescing the pool runs exactly
//!    one template build — asserted via the pool's build counter — and
//!    every response is byte-identical (modulo the hit/miss accounting
//!    field).
//! 2. **Closed loop**: N client threads walk a fixed request mix (warm
//!    customizes, batched evals, health probes), each sending its next
//!    request only after the previous response arrives. Offered load
//!    adapts to service rate, which flatters tail latency — that is the
//!    point of phase 3.
//! 3. **Open loop**: requests depart on a fixed arrival schedule
//!    (`--rate`, default a third of the measured closed-loop throughput) and
//!    latency is measured from the *scheduled* departure, so queueing
//!    delay the server causes is charged to the server instead of
//!    silently throttling the generator. This is the honest tail number.
//! 4. **Sessions** (`--sessions`): concurrent multi-turn streaming
//!    sessions over the warm pool, recording time-to-first-event and
//!    per-turn latency; asserts the turns never rebuild a pooled
//!    session template.
//!
//! After the phases, asserts the single-flight acceptance invariant
//! (total template builds == distinct designs driven), a cold-customize
//! ceiling (`--cold-guard-ms N`, default 55 — fails if the first
//! customize on a cold design exceeds N ms; 0 disables) and optionally a
//! tail-latency guard (`--tail-guard R` fails the process if open-loop
//! warm p99 exceeds `max(R x p50, 250ms)`).
//!
//! Merges the `serve/…` rows into `BENCH_synth.json` at the workspace
//! root (replacing earlier `serve/…` rows, keeping everything else) —
//! unless `--smoke` is given, which runs a fast CI-sized profile and
//! writes nothing.
//!
//! With `--shards N` the binary instead runs the **cluster comparison**:
//! the same closed-loop mix against a single-process server first, then
//! against N shard processes (this binary re-exec'd in a hidden
//! `--shard-server` mode, each with its own warm pool) behind an
//! in-process consistent-hash router. Asserts the aggregate pool hit
//! rate does not regress versus single-process and that per-shard
//! `shard{i}.serve.pool.*` rows surface in the router's `/metrics`;
//! `--throughput-guard R` additionally fails unless cluster req/s >=
//! R x single-process.
//!
//! ```text
//! cargo run --release -p chatls-bench --bin load_serve \
//!     [-- --threads 4 --requests 50 --storm-clients 16 \
//!         --rate 300 --open-seconds 5 --tail-guard 40 --cold-guard-ms 55 \
//!         --sessions --session-clients 4 --session-turns 3 --smoke]
//! cargo run --release -p chatls-bench --bin load_serve -- --smoke --shards 2
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chatls::cluster::{allocate_shard_ports, stop_child};
use chatls::database::{DbConfig, ExpertDatabase};
use chatls::{design_key_fn, ChatLsService};
use chatls_serve::{ClusterConfig, ClusterRouter, ServeConfig, Server, ShardSpec};

/// Designs in the request mix: three database designs plus a benchmark
/// design, so the pool sees repeats without a single hot key.
const DESIGNS: &[&str] = &["fft", "simd", "sha3", "dynamic_node"];

/// One blocking HTTP/1.1 exchange (`Connection: close` on both sides);
/// returns the status code and the elapsed wall time in nanoseconds.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, u64) {
    let started = Instant::now();
    let (status, _) = http_full(addr, method, path, body);
    (status, started.elapsed().as_nanos() as u64)
}

/// One blocking exchange returning `(status, body)`.
fn http_full(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to in-process server");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {:.80}", text));
    let payload = match text.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    (status, payload)
}

fn http_body(addr: &str, method: &str, path: &str, body: &str) -> String {
    http_full(addr, method, path, body).1
}

fn quantile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1]
}

fn human_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// A `serve.<name> <value>` line from the plain-text metrics exposition.
fn metric(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or(0.0)
}

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn customize_body(design: &str) -> String {
    format!("{{\"design\": \"{design}\"}}")
}

/// One streaming session turn over raw TCP. Returns
/// `(time_to_first_event_ns, full_turn_ns)` measured from connect, and
/// asserts the SSE stream carried a terminal `result` frame.
fn session_turn(addr: &str, path: &str, body: &str) -> (u64, u64) {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect for session turn");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write turn request");
    let mut buf = [0u8; 4096];
    let mut raw: Vec<u8> = Vec::new();
    let mut ttfe_ns = None;
    loop {
        let n = stream.read(&mut buf).expect("read turn stream");
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if ttfe_ns.is_none() && raw.windows(7).any(|w| w == b"event: ") {
            ttfe_ns = Some(started.elapsed().as_nanos() as u64);
        }
    }
    let turn_ns = started.elapsed().as_nanos() as u64;
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains("\nevent: result\n"), "turn must end in a result frame: {text:.300}");
    (ttfe_ns.expect("turn stream produced no events"), turn_ns)
}

/// One `GET /healthz` probe that tolerates connection failure (the
/// target may still be building its database). True on a 200.
fn try_health(addr: &str) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else { return false };
    let request = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    if stream.write_all(request.as_bytes()).is_err() {
        return false;
    }
    let mut response = Vec::new();
    if stream.read_to_end(&mut response).is_err() {
        return false;
    }
    String::from_utf8_lossy(&response).split_whitespace().nth(1) == Some("200")
}

/// The closed-loop request mix shared by the single-process and cluster
/// measurements: mostly warm customizes, some batched evals, an
/// occasional health probe. Returns the wall time plus sorted customize
/// and eval latencies.
fn closed_loop(addr: &str, threads: usize, per_thread: usize) -> (Duration, Vec<u64>, Vec<u64>) {
    let next = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..threads {
        let addr = addr.to_string();
        let next = Arc::clone(&next);
        handles.push(std::thread::spawn(move || {
            let mut customize_ns = Vec::new();
            let mut eval_ns = Vec::new();
            for _ in 0..per_thread {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let design = DESIGNS[i % DESIGNS.len()];
                match i % 10 {
                    8 => {
                        let body = format!(
                            "{{\"design\": \"{design}\", \"scripts\": [\
                             \"create_clock -period 1.4 [get_ports clk]\\ncompile\\n\", \
                             \"create_clock -period 1.4 [get_ports clk]\\ncompile -map_effort high\\n\"]}}"
                        );
                        let (status, ns) = http(&addr, "POST", "/v1/eval", &body);
                        assert_eq!(status, 200, "eval failed");
                        eval_ns.push(ns);
                    }
                    9 => {
                        let (status, _) = http(&addr, "GET", "/healthz", "");
                        assert_eq!(status, 200, "healthz failed");
                    }
                    _ => {
                        let (status, ns) =
                            http(&addr, "POST", "/v1/customize", &customize_body(design));
                        assert_eq!(status, 200, "customize failed");
                        customize_ns.push(ns);
                    }
                }
            }
            (customize_ns, eval_ns)
        }));
    }
    let mut customize_ns = Vec::new();
    let mut eval_ns = Vec::new();
    for h in handles {
        let (c, e) = h.join().expect("client thread");
        customize_ns.extend(c);
        eval_ns.extend(e);
    }
    let wall = started.elapsed();
    customize_ns.sort_unstable();
    eval_ns.sort_unstable();
    (wall, customize_ns, eval_ns)
}

/// Hidden child mode behind `--shards`: one shard process, reached by
/// the parent re-executing its own binary (the only portable way to
/// find it outside a test harness). Builds its own quick database and
/// serves until SIGTERM.
fn run_shard_server() {
    let id: usize = arg("--shard-id", 0);
    let port: u16 = arg("--shard-port", 0);
    eprintln!("shard {id}: building expert database (quick)…");
    let db = ExpertDatabase::build(&DbConfig::quick());
    let service = Arc::new(ChatLsService::new(db, 16).with_shard(id));
    chatls_serve::install_signal_handlers();
    let config = ServeConfig {
        addr: format!("127.0.0.1:{port}"),
        queue_depth: 512,
        workers: ServeConfig::default().workers.max(4),
        ..ServeConfig::default()
    };
    let server = Server::bind(config, service).expect("bind shard port");
    server.run().expect("shard server");
}

/// `--shards N`: drives the same closed-loop mix first against a
/// single-process server, then against N self-exec'd shard processes
/// behind an in-process [`ClusterRouter`] front door. Asserts the
/// aggregate pool hit rate does not regress versus single-process and
/// that per-shard rows surface in the router's /metrics; reports the
/// throughput and warm-p99 comparison.
fn run_cluster_mode(shards: usize, smoke: bool) {
    let threads: usize = arg("--threads", if smoke { 2 } else { 4 });
    let per_thread: usize = arg("--requests", if smoke { 10 } else { 50 });
    // 0 = report only; R fails unless cluster req/s >= R x single-process.
    let throughput_guard: f64 = arg("--throughput-guard", 0.0);
    let total = threads * per_thread;

    // Baseline: single process, same warm-up and mix.
    eprintln!("building expert database (quick)…");
    let db = ExpertDatabase::build(&DbConfig::quick());
    let service = Arc::new(ChatLsService::new(db, 16));
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 512,
        workers: ServeConfig::default().workers.max(4),
        ..ServeConfig::default()
    };
    let server = Server::bind(config, service).expect("bind port 0");
    let addr = server.local_addr().expect("bound address").to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());
    for design in DESIGNS {
        let (status, _) = http(&addr, "POST", "/v1/customize", &customize_body(design));
        assert_eq!(status, 200, "baseline warm-up failed");
    }
    let (base_wall, base_customize, _) = closed_loop(&addr, threads, per_thread);
    let base_rps = total as f64 / base_wall.as_secs_f64();
    let base_metrics = http_body(&addr, "GET", "/metrics", "");
    let base_hits = metric(&base_metrics, "serve.pool.hit");
    let base_misses = metric(&base_metrics, "serve.pool.miss");
    let base_hit_rate = if base_hits + base_misses > 0.0 {
        100.0 * base_hits / (base_hits + base_misses)
    } else {
        0.0
    };
    shutdown.shutdown();
    server_thread.join().expect("server thread").expect("server run");
    let base_p99 = quantile(&base_customize, 0.99);
    eprintln!("single-process baseline: {base_rps:.1} req/s, hit rate {base_hit_rate:.1}%");

    // Cluster: spawn the shard fleet, wait until every shard answers
    // /healthz (each builds its own database first), then put the
    // consistent-hash router in front.
    let exe = std::env::current_exe().expect("own executable path");
    let ports = allocate_shard_ports(shards).expect("allocate shard ports");
    let peer_list: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let mut children: Vec<Child> = ports
        .iter()
        .enumerate()
        .map(|(id, port)| {
            Command::new(&exe)
                .arg("--shard-server")
                .args(["--shard-id", &id.to_string()])
                .args(["--shard-port", &port.to_string()])
                .spawn()
                .expect("spawn shard process")
        })
        .collect();
    for (id, peer) in peer_list.iter().enumerate() {
        let deadline = Instant::now() + Duration::from_secs(120);
        while !try_health(peer) {
            assert!(Instant::now() < deadline, "shard {id} never became healthy on {peer}");
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    let specs: Vec<ShardSpec> = peer_list
        .iter()
        .enumerate()
        .map(|(id, addr)| ShardSpec { id, addr: addr.parse().expect("loopback address") })
        .collect();
    let router = ClusterRouter::start(specs, design_key_fn(), ClusterConfig::default());
    let front_config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 512,
        workers: ServeConfig::default().workers.max(4),
        ..ServeConfig::default()
    };
    let front = Server::bind(front_config, router).expect("bind front door");
    let front_addr = front.local_addr().expect("front address").to_string();
    let front_shutdown = front.shutdown_handle();
    let front_thread = std::thread::spawn(move || front.run());
    eprintln!("cluster: {shards} shards behind http://{front_addr}");
    for design in DESIGNS {
        let (status, _) = http(&front_addr, "POST", "/v1/customize", &customize_body(design));
        assert_eq!(status, 200, "cluster warm-up failed");
    }
    let (cluster_wall, cluster_customize, _) = closed_loop(&front_addr, threads, per_thread);
    let cluster_rps = total as f64 / cluster_wall.as_secs_f64();
    let metrics = http_body(&front_addr, "GET", "/metrics", "");
    front_shutdown.shutdown();
    front_thread.join().expect("front thread").expect("front run");
    for child in &mut children {
        stop_child(child);
    }

    // The router's aggregated /metrics must carry one row set per shard.
    for id in 0..shards {
        assert!(
            metrics.contains(&format!("shard{id}.serve.pool.hit")),
            "router /metrics is missing shard {id} pool rows"
        );
    }
    let hits = metric(&metrics, "cluster.pool.hit");
    let misses = metric(&metrics, "cluster.pool.miss");
    let cluster_hit_rate = if hits + misses > 0.0 { 100.0 * hits / (hits + misses) } else { 0.0 };
    let cluster_p99 = quantile(&cluster_customize, 0.99);

    println!(
        "single-process: {base_rps:.1} req/s, pool hit rate {base_hit_rate:.1}%, warm p99 {}",
        human_time(base_p99 as f64)
    );
    println!(
        "{shards}-shard cluster: {cluster_rps:.1} req/s, pool hit rate {cluster_hit_rate:.1}%, \
         warm p99 {}",
        human_time(cluster_p99 as f64)
    );
    println!(
        "cluster p99 / single-process p99 = {:.2}",
        cluster_p99 as f64 / (base_p99 as f64).max(1.0)
    );

    // Consistent hashing gives each design exactly one owner, so the
    // fleet pays the same one-build-per-design cost the single process
    // does; the aggregate hit rate must not regress (0.5pp slack covers
    // scrape-timing noise).
    assert!(
        cluster_hit_rate + 0.5 >= base_hit_rate,
        "aggregate pool hit rate {cluster_hit_rate:.1}% fell below single-process \
         {base_hit_rate:.1}%"
    );
    eprintln!(
        "hit-rate guard ok: cluster {cluster_hit_rate:.1}% >= single-process {base_hit_rate:.1}%"
    );
    if throughput_guard > 0.0 {
        assert!(
            cluster_rps >= throughput_guard * base_rps,
            "cluster {cluster_rps:.1} req/s below {throughput_guard:.2} x single-process \
             {base_rps:.1} req/s"
        );
        eprintln!("throughput guard ok: {cluster_rps:.1} >= {throughput_guard:.2} x {base_rps:.1}");
    }
}

/// Phase 1: K clients, one design, cold pool. Returns storm latencies.
/// Panics unless exactly one template build ran and all responses agree.
fn miss_storm(addr: &str, svc: &ChatLsService, clients: usize) -> Vec<u64> {
    let builds_before = svc.pool().stats().builds;
    let design = DESIGNS[0];
    let results: Vec<(u64, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let started = Instant::now();
                    let (status, body) =
                        http_full(addr, "POST", "/v1/customize", &customize_body(design));
                    assert_eq!(status, 200, "storm customize failed: {body:.200}");
                    (started.elapsed().as_nanos() as u64, body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("storm client")).collect()
    });
    let stats = svc.pool().stats();
    let builds = stats.builds - builds_before;
    assert_eq!(
        builds, 1,
        "miss storm must coalesce onto one template build (single-flight), saw {builds}"
    );
    // Byte-identity modulo the pool-accounting field: exactly one
    // builder reports "miss".
    let normalize = |b: &str| b.replace("\"pool\":\"hit\"", "\"pool\":\"miss\"");
    let misses = results.iter().filter(|(_, b)| b.contains("\"pool\":\"miss\"")).count();
    assert_eq!(misses, 1, "exactly one storm client may report the pool miss");
    let first = normalize(&results[0].1);
    for (_, body) in &results[1..] {
        assert_eq!(normalize(body), first, "storm responses must be byte-identical");
    }
    eprintln!(
        "miss storm: {clients} clients, 1 design, cold pool -> {builds} build, \
         {} coalesced waits",
        stats.coalesced_waits
    );
    let mut ns: Vec<u64> = results.into_iter().map(|(ns, _)| ns).collect();
    ns.sort_unstable();
    ns
}

fn main() {
    if has_flag("--shard-server") {
        run_shard_server();
        return;
    }
    let smoke = has_flag("--smoke");
    let shards: usize = arg("--shards", 0usize);
    if shards > 0 {
        run_cluster_mode(shards, smoke);
        return;
    }
    let threads: usize = arg("--threads", if smoke { 2 } else { 4 });
    let per_thread: usize = arg("--requests", if smoke { 10 } else { 50 });
    let storm_clients: usize = arg("--storm-clients", if smoke { 8 } else { 16 });
    let open_seconds: f64 = arg("--open-seconds", if smoke { 2.0 } else { 5.0 });
    let open_clients: usize = arg("--open-clients", 32);
    // 0 = auto-calibrate to 70% of the measured closed-loop throughput,
    // so the open-loop phase measures the tail at a fixed, sustainable
    // utilization instead of saturating (or idling) the host.
    let rate_arg: f64 = arg("--rate", 0.0);
    // 0 = report only. CI passes a generous bound.
    let tail_guard: f64 = arg("--tail-guard", if smoke { 40.0 } else { 0.0 });
    // Ceiling on the cold customize (template build + first script run),
    // in ms; 0 disables. One-shot by nature — the pool is only cold
    // once — so the default carries slack over the measured ~30 ms.
    let cold_guard_ms: f64 = arg("--cold-guard-ms", 55.0);

    eprintln!("building expert database (quick)…");
    let db = ExpertDatabase::build(&DbConfig::quick());
    let service = Arc::new(ChatLsService::new(db, 16));
    let svc = Arc::clone(&service);
    // At least 4 workers even on small hosts: a single worker would
    // serialize requests and the miss storm could never exercise the
    // single-flight path over HTTP. (Not more: on a 1-core host extra
    // workers only add interference to the closed-loop measurement.)
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 512,
        workers: ServeConfig::default().workers.max(4),
        ..ServeConfig::default()
    };
    let server = Server::bind(config, service).expect("bind port 0");
    let addr = server.local_addr().expect("bound address").to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());
    eprintln!("server on {addr}; {threads} client threads x {per_thread} requests");

    // Phase 1 — miss storm against the cold pool (must run first: it is
    // the only moment the pool is guaranteed cold). No warmer is spawned
    // in this binary, so build counts stay deterministic.
    let storm_ns = miss_storm(&addr, &svc, storm_clients);
    let storm_p50 = quantile(&storm_ns, 0.50);

    // Cold-vs-warm on a second design: the first customize pays mapping +
    // baseline synthesis; the repeat should come from the warm pool.
    let (status, cold_ns) = http(&addr, "POST", "/v1/customize", &customize_body(DESIGNS[1]));
    assert_eq!(status, 200, "cold customize failed");
    let (_, warm_once_ns) = http(&addr, "POST", "/v1/customize", &customize_body(DESIGNS[1]));
    eprintln!(
        "cold customize {} -> warm repeat {}",
        human_time(cold_ns as f64),
        human_time(warm_once_ns as f64)
    );
    if cold_guard_ms > 0.0 {
        let bound_ns = (cold_guard_ms * 1e6) as u64;
        assert!(
            cold_ns <= bound_ns,
            "cold customize took {} (ceiling {}): template build regressed",
            human_time(cold_ns as f64),
            human_time(bound_ns as f64)
        );
        eprintln!("cold guard ok: {} <= {cold_guard_ms:.0} ms", human_time(cold_ns as f64));
    }

    // Warm the rest of the catalog serially so the closed/open loops
    // measure warm steady state; cold cost has its own row above, and
    // the final build-count assertion still covers these builds.
    for design in &DESIGNS[2..] {
        let (status, _) = http(&addr, "POST", "/v1/customize", &customize_body(design));
        assert_eq!(status, 200, "warm-up customize failed");
    }

    // Phase 2 — closed loop: each thread walks the mix — mostly warm
    // customizes, some batched evals, an occasional health probe.
    let (wall, customize_ns, eval_ns) = closed_loop(&addr, threads, per_thread);
    let total = threads * per_thread;
    let rps = total as f64 / wall.as_secs_f64();

    // Phase 3 — open loop at a fixed arrival rate over the (now warm)
    // customize mix. Latency is measured from each request's scheduled
    // departure, so server-side queueing counts against the server.
    // A third of the closed-loop throughput keeps the open-loop phase at
    // a moderate utilization, where p99 measures dispatch jitter rather
    // than standing-queue growth — at half the measured rate, transient
    // bursts on a small host already push p99 past 10x p50.
    let open_rate = if rate_arg > 0.0 { rate_arg } else { (rps / 3.0).max(20.0) };
    let open_total = (open_rate * open_seconds).round().max(1.0) as usize;
    eprintln!(
        "open loop: {open_rate:.0} req/s for {open_seconds:.1}s ({open_total} requests, \
         {open_clients} clients)"
    );
    let open_start = Instant::now() + Duration::from_millis(50);
    let open_next = Arc::new(AtomicUsize::new(0));
    let mut open_handles = Vec::new();
    for _ in 0..open_clients.min(open_total) {
        let addr = addr.clone();
        let open_next = Arc::clone(&open_next);
        open_handles.push(std::thread::spawn(move || {
            let mut lat_ns = Vec::new();
            loop {
                let i = open_next.fetch_add(1, Ordering::Relaxed);
                if i >= open_total {
                    return lat_ns;
                }
                let scheduled = open_start + Duration::from_secs_f64(i as f64 / open_rate);
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                let design = DESIGNS[i % DESIGNS.len()];
                let (status, _) = http(&addr, "POST", "/v1/customize", &customize_body(design));
                assert_eq!(status, 200, "open-loop customize failed");
                lat_ns.push(Instant::now().duration_since(scheduled).as_nanos() as u64);
            }
        }));
    }
    let mut open_ns: Vec<u64> = Vec::new();
    for h in open_handles {
        open_ns.extend(h.join().expect("open-loop client"));
    }
    let open_wall = Instant::now().duration_since(open_start);
    let open_rps = open_ns.len() as f64 / open_wall.as_secs_f64();
    open_ns.sort_unstable();

    // Phase 4 (`--sessions`) — concurrent multi-turn streaming sessions
    // over the now-warm pool. Every turn must reuse the pooled template
    // (zero builds across the phase); turn 2+ additionally carries the
    // incremental-STA state inside the session, which is what the
    // per-turn latency actually measures.
    let mut session_ttfe_ns: Vec<u64> = Vec::new();
    let mut session_turn_ns: Vec<u64> = Vec::new();
    if has_flag("--sessions") {
        let session_clients: usize = arg("--session-clients", if smoke { 2 } else { 4 });
        let session_turns: usize = arg("--session-turns", if smoke { 2 } else { 3 });
        let builds_before = svc.pool().stats().builds;
        let addr_ref: &str = &addr;
        let results: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..session_clients)
                .map(|c| {
                    s.spawn(move || {
                        let design = DESIGNS[c % DESIGNS.len()];
                        let (status, created) =
                            http_full(addr_ref, "POST", "/v1/session", &customize_body(design));
                        assert_eq!(status, 201, "session create failed: {created:.200}");
                        let id = serde_json::parse_value(&created)
                            .expect("session create JSON")
                            .get("session")
                            .and_then(|s| s.as_str())
                            .expect("session id")
                            .to_string();
                        let path = format!("/v1/session/{id}/turn");
                        let mut ttfe = Vec::new();
                        let mut turns = Vec::new();
                        for t in 0..session_turns {
                            let body = format!(
                                "{{\"seed\": {c}, \"request\": \"turn {t}: rebalance timing and area\"}}"
                            );
                            let (first_ns, total_ns) = session_turn(addr_ref, &path, &body);
                            ttfe.push(first_ns);
                            turns.push(total_ns);
                        }
                        let (status, _) =
                            http_full(addr_ref, "POST", &format!("/v1/session/{id}/close"), "");
                        assert_eq!(status, 200, "session close failed");
                        (ttfe, turns)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session client")).collect()
        });
        for (ttfe, turns) in results {
            session_ttfe_ns.extend(ttfe);
            session_turn_ns.extend(turns);
        }
        session_ttfe_ns.sort_unstable();
        session_turn_ns.sort_unstable();
        let built = svc.pool().stats().builds - builds_before;
        assert_eq!(
            built, 0,
            "session turns over warm designs must never rebuild templates, saw {built}"
        );
        eprintln!(
            "sessions: {session_clients} clients x {session_turns} turns -> 0 builds, \
             ttfe p50 {}",
            human_time(quantile(&session_ttfe_ns, 0.50) as f64)
        );
    }

    let metrics = http_body(&addr, "GET", "/metrics", "");
    let hits = metric(&metrics, "serve.pool.hit");
    let misses = metric(&metrics, "serve.pool.miss");
    let hit_rate = if hits + misses > 0.0 { 100.0 * hits / (hits + misses) } else { 0.0 };

    shutdown.shutdown();
    server_thread.join().expect("server thread").expect("server run");

    // Acceptance invariant: across every phase, the pool built each
    // distinct design exactly once — the single-flight proof at scale.
    let final_stats = svc.pool().stats();
    assert_eq!(
        final_stats.builds,
        DESIGNS.len() as u64,
        "total template builds must equal distinct designs driven ({})",
        DESIGNS.len()
    );
    eprintln!(
        "single-flight: {} builds for {} distinct designs, {} coalesced waits, \
         inflight peak {}",
        final_stats.builds,
        DESIGNS.len(),
        final_stats.coalesced_waits,
        final_stats.inflight_builds_peak
    );

    let p50 = quantile(&customize_ns, 0.50);
    let p95 = quantile(&customize_ns, 0.95);
    let p99 = quantile(&customize_ns, 0.99);
    let eval_p50 = quantile(&eval_ns, 0.50);
    let open_p50 = quantile(&open_ns, 0.50);
    let open_p95 = quantile(&open_ns, 0.95);
    let open_p99 = quantile(&open_ns, 0.99);
    println!("{total} requests in {:.2}s ({rps:.1} req/s) [closed loop]", wall.as_secs_f64());
    println!(
        "customize warm p50 {} p95 {} p99 {} ({} samples)",
        human_time(p50 as f64),
        human_time(p95 as f64),
        human_time(p99 as f64),
        customize_ns.len()
    );
    println!("eval p50 {} ({} samples)", human_time(eval_p50 as f64), eval_ns.len());
    println!(
        "open loop @ {open_rate:.0} req/s: p50 {} p95 {} p99 {} ({} samples, {open_rps:.1} req/s achieved)",
        human_time(open_p50 as f64),
        human_time(open_p95 as f64),
        human_time(open_p99 as f64),
        open_ns.len()
    );
    println!(
        "miss storm ({storm_clients} clients): p50 {} -> 1 build",
        human_time(storm_p50 as f64)
    );
    println!("session-pool hit rate {hit_rate:.1}% ({hits:.0} hits / {misses:.0} misses)");
    if !session_turn_ns.is_empty() {
        println!(
            "sessions: ttfe p50 {} | turn p50 {} p99 {} ({} turns)",
            human_time(quantile(&session_ttfe_ns, 0.50) as f64),
            human_time(quantile(&session_turn_ns, 0.50) as f64),
            human_time(quantile(&session_turn_ns, 0.99) as f64),
            session_turn_ns.len()
        );
    }

    // Tail guard: open-loop warm p99 within `tail_guard` x p50 (plus an
    // absolute floor so microsecond-scale p50s don't make the ratio
    // meaninglessly strict).
    if tail_guard > 0.0 && !open_ns.is_empty() {
        let bound = (tail_guard * open_p50 as f64).max(250e6);
        assert!(
            (open_p99 as f64) <= bound,
            "open-loop warm p99 {} exceeds tail guard {} ({}x p50 {})",
            human_time(open_p99 as f64),
            human_time(bound),
            tail_guard,
            human_time(open_p50 as f64)
        );
        eprintln!(
            "tail guard ok: open-loop p99/p50 = {:.1} (bound {tail_guard:.0})",
            open_p99 as f64 / (open_p50 as f64).max(1.0)
        );
    }

    if smoke {
        eprintln!("--smoke: skipping BENCH_synth.json write");
        return;
    }

    #[derive(serde::Serialize)]
    struct Row {
        name: String,
        mean_ns: f64,
        mean_human: String,
        iters: u64,
    }
    let row = |name: &str, ns: f64, human: String, iters: u64| Row {
        name: name.to_string(),
        mean_ns: ns,
        mean_human: human,
        iters,
    };
    let mut rows = vec![
        row("serve/customize_cold_ns", cold_ns as f64, human_time(cold_ns as f64), 1),
        row(
            "serve/customize_warm_p50_ns",
            p50 as f64,
            human_time(p50 as f64),
            customize_ns.len() as u64,
        ),
        row(
            "serve/customize_warm_p95_ns",
            p95 as f64,
            human_time(p95 as f64),
            customize_ns.len() as u64,
        ),
        row(
            "serve/customize_warm_p99_ns",
            p99 as f64,
            human_time(p99 as f64),
            customize_ns.len() as u64,
        ),
        row(
            "serve/eval_p50_ns",
            eval_p50 as f64,
            human_time(eval_p50 as f64),
            eval_ns.len() as u64,
        ),
        row("serve/throughput_rps", rps, format!("{rps:.1} req/s"), total as u64),
        row(
            "serve/pool_hit_rate_pct",
            hit_rate,
            format!("{hit_rate:.1} %"),
            (hits + misses) as u64,
        ),
        row(
            "serve/open_loop_rate_rps",
            open_rate,
            format!("{open_rate:.1} req/s"),
            open_ns.len() as u64,
        ),
        row(
            "serve/open_loop_warm_p50_ns",
            open_p50 as f64,
            human_time(open_p50 as f64),
            open_ns.len() as u64,
        ),
        row(
            "serve/open_loop_warm_p95_ns",
            open_p95 as f64,
            human_time(open_p95 as f64),
            open_ns.len() as u64,
        ),
        row(
            "serve/open_loop_warm_p99_ns",
            open_p99 as f64,
            human_time(open_p99 as f64),
            open_ns.len() as u64,
        ),
        row(
            "serve/open_loop_throughput_rps",
            open_rps,
            format!("{open_rps:.1} req/s"),
            open_ns.len() as u64,
        ),
        row(
            "serve/miss_storm_p50_ns",
            storm_p50 as f64,
            human_time(storm_p50 as f64),
            storm_ns.len() as u64,
        ),
        row(
            "serve/miss_storm_builds",
            1.0,
            format!("1 build / {storm_clients} clients"),
            storm_clients as u64,
        ),
    ];
    if !session_turn_ns.is_empty() {
        let ttfe_p50 = quantile(&session_ttfe_ns, 0.50);
        let turn_p50 = quantile(&session_turn_ns, 0.50);
        let turn_p99 = quantile(&session_turn_ns, 0.99);
        rows.push(row(
            "serve/session_ttfe_p50_ns",
            ttfe_p50 as f64,
            human_time(ttfe_p50 as f64),
            session_ttfe_ns.len() as u64,
        ));
        rows.push(row(
            "serve/session_turn_p50_ns",
            turn_p50 as f64,
            human_time(turn_p50 as f64),
            session_turn_ns.len() as u64,
        ));
        rows.push(row(
            "serve/session_turn_p99_ns",
            turn_p99 as f64,
            human_time(turn_p99 as f64),
            session_turn_ns.len() as u64,
        ));
    }

    // Merge into BENCH_synth.json: replace earlier serve/ rows, keep the
    // synth-bench rows untouched.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_synth.json");
    let mut merged: Vec<serde_json::Value> = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::parse_value(&text) {
            Ok(serde_json::Value::Seq(rows)) => rows
                .into_iter()
                .filter(|r| {
                    r.get("name").and_then(|n| n.as_str()).is_none_or(|n| !n.starts_with("serve/"))
                })
                .collect(),
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    merged.extend(rows.iter().map(serde::Serialize::serialize));
    let doc = serde_json::Value::Seq(merged);
    match serde_json::to_string_pretty(&doc) {
        Ok(json) => match std::fs::write(path, json + "\n") {
            Ok(()) => println!("[artifact] {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        },
        Err(e) => eprintln!("could not serialize bench results: {e}"),
    }
}
