//! Cluster mode: `chatls serve --shards N` runs N shard processes (each
//! the same binary, each with its own warm [`chatls_serve::SessionPool`])
//! behind one [`ClusterRouter`] front door, all zero-dependency.
//!
//! This module owns the pieces that are application-specific or
//! process-level:
//!
//! - [`design_key_fn`] — the routing [`KeyFn`]: the same design
//!   fingerprint the shards key their pools and caches by, so each
//!   design's warm state lives on the one shard the ring sends it to.
//! - [`run_cluster`] — the supervisor: allocates shard ports, spawns the
//!   shard processes via a caller-supplied closure (the CLI re-execs
//!   `chatls serve --shard-id …`; the bench harness re-execs itself),
//!   respawns any shard that dies, serves the router, and tears the
//!   fleet down (SIGTERM first, then kill) when the front door drains.
//!
//! The transport-level routing machinery (hash ring, health state
//! machine, retry, probes) lives application-agnostically in
//! [`chatls_serve::router`].

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chatls_designs::GeneratedDesign;
use chatls_serve::{
    AppHandler, ClusterConfig, ClusterRouter, KeyFn, Request, ServeConfig, Server, ShardSpec,
};

use crate::eval::design_fingerprint;

/// How often the supervisor checks for dead shard processes.
const RESPAWN_POLL: Duration = Duration::from_millis(200);

/// How long a SIGTERM'd shard gets to drain before being killed.
const TERM_GRACE: Duration = Duration::from_secs(5);

/// The design fingerprint a request body routes by — computed exactly the
/// way the shard's request handling computes it, so the router's ring
/// placement and the shards' cache keys agree. Catalog lookups are
/// memoized (generating a catalog design's source costs more than a
/// request should pay twice).
///
/// Returns `None` for bodies that name no design (malformed JSON, health
/// probes, …); the router then falls back to hashing the raw request.
pub fn design_key_fn() -> KeyFn {
    let catalog: Mutex<HashMap<String, Option<u64>>> = Mutex::new(HashMap::new());
    Arc::new(move |req: &Request| {
        if req.body.is_empty() {
            return None;
        }
        let body = serde_json::parse_value(&String::from_utf8_lossy(&req.body)).ok()?;
        if let Some(name) = body.get("design").and_then(|v| v.as_str()) {
            let mut cache = catalog.lock().unwrap();
            if let Some(fp) = cache.get(name) {
                return *fp;
            }
            let fp = chatls_designs::by_name(name).map(|d| design_fingerprint(&d));
            cache.insert(name.to_string(), fp);
            return fp;
        }
        // Inline designs: mirror the field defaults of the service's
        // design resolution so the fingerprint matches byte-for-byte.
        let verilog = body.get("verilog").and_then(|v| v.as_str())?;
        let top = body.get("top").and_then(|v| v.as_str())?;
        let period = body.get("period").and_then(|v| v.as_f64()).unwrap_or(1.0);
        Some(design_fingerprint(&GeneratedDesign {
            name: format!("inline:{top}"),
            category: chatls_designs::Category::VectorArithmetic,
            source: verilog.to_string(),
            top: top.to_string(),
            modules: Vec::new(),
            default_period: period,
        }))
    })
}

/// Allocates `n` distinct free loopback ports by briefly binding each.
/// The listeners are dropped before the shards spawn — a tiny race window
/// in exchange for zero configuration; a shard that loses the race exits
/// at bind and the supervisor's respawn loop retries it.
pub fn allocate_shard_ports(n: usize) -> std::io::Result<Vec<u16>> {
    // Hold all listeners until every port is chosen so the same port is
    // never handed out twice.
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
    listeners.iter().map(|l| l.local_addr().map(|a| a.port())).collect()
}

/// Sends SIGTERM (graceful drain) to `pid` on unix; no-op elsewhere.
fn terminate(pid: u32) {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        // SIGTERM = 15 on every unix the toolchain targets.
        unsafe {
            kill(pid as i32, 15);
        }
    }
    #[cfg(not(unix))]
    let _ = pid;
}

/// SIGTERMs `child`, waits up to [`TERM_GRACE`] for it to drain, then
/// kills it outright. Public so the bench harness can drain the shard
/// fleet it spawns the same way the CLI supervisor does.
pub fn stop_child(child: &mut Child) {
    terminate(child.id());
    let deadline = Instant::now() + TERM_GRACE;
    while Instant::now() < deadline {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(_) => break,
        }
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// Everything [`run_cluster`] needs besides the shard-spawning closure.
pub struct ClusterOpts {
    /// Front-door server config (the router binds `config.addr`).
    pub config: ServeConfig,
    /// Number of shard processes.
    pub shards: usize,
    /// Router tuning; [`ClusterConfig::default`] is right outside tests.
    pub cluster: ClusterConfig,
}

/// Runs a sharded cluster to completion: spawns `opts.shards` shard
/// processes via `spawn` (called with the shard id and its port), serves
/// the consistent-hash router on the front address, respawns shards that
/// die, and tears everything down once the router drains (SIGTERM/SIGINT).
///
/// `banner` receives the bound front address for the startup log line.
pub fn run_cluster(
    opts: ClusterOpts,
    spawn: impl Fn(usize, u16) -> std::io::Result<Child> + Send + 'static,
    banner: impl FnOnce(SocketAddr),
) -> Result<(), String> {
    let ports =
        allocate_shard_ports(opts.shards).map_err(|e| format!("allocating shard ports: {e}"))?;
    let specs: Vec<ShardSpec> = ports
        .iter()
        .enumerate()
        .map(|(id, port)| ShardSpec { id, addr: SocketAddr::from(([127, 0, 0, 1], *port)) })
        .collect();
    let mut children = Vec::with_capacity(opts.shards);
    for (id, port) in ports.iter().enumerate() {
        let child = spawn(id, *port).map_err(|e| format!("spawning shard {id}: {e}"))?;
        children.push(child);
    }
    let children = Arc::new(Mutex::new(children));
    let router = ClusterRouter::start(specs, design_key_fn(), opts.cluster);
    chatls_serve::install_signal_handlers();
    let server = Server::bind(opts.config, Arc::clone(&router) as Arc<dyn AppHandler>)
        .map_err(|e| format!("binding front door: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("resolving bound address: {e}"))?;
    banner(addr);
    // Respawn loop: a shard that exits (crash, OOM kill, operator kill
    // during a hot restart) is relaunched with the same id and port; the
    // router's probes re-admit it once it answers /healthz again.
    let stop = Arc::new(AtomicBool::new(false));
    let respawner = {
        let children = Arc::clone(&children);
        let ports = ports.clone();
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("chatls-shard-respawn".to_string())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    {
                        let mut children = children.lock().unwrap();
                        for (id, child) in children.iter_mut().enumerate() {
                            if let Ok(Some(status)) = child.try_wait() {
                                chatls_obs::counter("cluster.shard.respawns").inc();
                                eprintln!("chatls serve: shard {id} exited ({status}), respawning");
                                match spawn(id, ports[id]) {
                                    Ok(new_child) => *child = new_child,
                                    Err(e) => {
                                        eprintln!("chatls serve: respawning shard {id}: {e}")
                                    }
                                }
                            }
                        }
                    }
                    std::thread::sleep(RESPAWN_POLL);
                }
            })
            .expect("spawn shard respawn thread")
    };
    let served = server.run().map_err(|e| format!("serving: {e}"));
    // Drained: stop respawning, then drain the fleet.
    stop.store(true, Ordering::SeqCst);
    let _ = respawner.join();
    for child in children.lock().unwrap().iter_mut() {
        stop_child(child);
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(body: &str) -> Option<u64> {
        let req = Request {
            method: "POST".to_string(),
            path: "/v1/customize".to_string(),
            body: body.as_bytes().to_vec(),
            ..Default::default()
        };
        design_key_fn()(&req)
    }

    #[test]
    fn key_fn_matches_service_fingerprints() {
        let design = chatls_designs::by_name("fft").unwrap();
        assert_eq!(key_of("{\"design\": \"fft\"}"), Some(design_fingerprint(&design)));
        // Same key regardless of other body fields.
        assert_eq!(key_of("{\"design\": \"fft\", \"seed\": 3}"), Some(design_fingerprint(&design)));
        // Inline designs fingerprint identically to the service's
        // resolution (name inline:<top>, default period 1.0).
        let inline = GeneratedDesign {
            name: "inline:t".to_string(),
            category: chatls_designs::Category::VectorArithmetic,
            source: "module t(input a, output y); assign y = a; endmodule".to_string(),
            top: "t".to_string(),
            modules: Vec::new(),
            default_period: 1.0,
        };
        assert_eq!(
            key_of(
                "{\"verilog\": \"module t(input a, output y); assign y = a; endmodule\", \
                 \"top\": \"t\"}"
            ),
            Some(design_fingerprint(&inline))
        );
    }

    #[test]
    fn key_fn_declines_unroutable_bodies() {
        assert_eq!(key_of(""), None);
        assert_eq!(key_of("not json"), None);
        assert_eq!(key_of("{\"design\": \"no_such_design\"}"), None);
        assert_eq!(key_of("{\"seed\": 1}"), None);
    }

    #[test]
    fn allocated_ports_are_distinct() {
        let ports = allocate_shard_ports(4).unwrap();
        let mut unique = ports.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "{ports:?}");
    }
}
