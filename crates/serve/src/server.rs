//! The serving core: accept loop, bounded admission queue, worker pool,
//! per-request deadlines and graceful drain.
//!
//! Life of a request:
//!
//! 1. The acceptor thread accepts the connection. If the admission queue
//!    is at `queue_depth`, the connection is handed to a short-lived
//!    rejector thread that answers `429 Too Many Requests` (with
//!    `Retry-After`) and closes — backpressure never costs the acceptor
//!    per-connection I/O or a queue slot.
//! 2. Otherwise the connection is queued with its admission timestamp.
//!    The per-request deadline (`timeout_ms`) starts here, so time spent
//!    queued counts against it.
//! 3. A worker pops the connection, parses the request, builds a
//!    [`CancelToken`] carrying the deadline and dispatches to the
//!    application [`AppHandler`]. A request already past its deadline is
//!    answered `504` without touching the handler.
//! 4. On SIGTERM/SIGINT (or [`ShutdownHandle::shutdown`]) the acceptor
//!    stops accepting, workers drain every queued connection, and
//!    [`AppHandler::on_shutdown`] runs once for final flushes (telemetry).
//!    No admitted request is dropped.
//!
//! Between connections the acceptor blocks in `poll(2)` until the
//! listener is readable, so a new connection is accepted the moment it
//! arrives. The wait is capped at [`ACCEPT_WAIT`]: the shutdown flag is
//! therefore observed within that cap even on an idle server (a signal
//! landing on the acceptor thread wakes it at once, because `poll` is
//! never restarted after a handler). A bare blocking `accept` would not
//! do: the signal handlers are installed with `SA_RESTART`, so SIGTERM
//! would never wake it. Off Unix the acceptor falls back to nonblocking
//! `accept` plus a short sleep.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use chatls_exec::CancelToken;

use crate::http::{read_request, Request, Response};
use crate::route::Router;

/// Internal header carrying the remaining request budget (milliseconds)
/// when the cluster router proxies to a shard: the shard tightens its
/// own deadline to the smaller of its `--timeout-ms` and this value, so
/// a proxied request can never outlive the router's patience.
pub const DEADLINE_HEADER: &str = "x-chatls-deadline-ms";

/// The application side of the server: routes one parsed request to a
/// response, honouring the request's cancel token.
///
/// Implementations must be safe to call from many worker threads at once.
/// When the token fires mid-request the handler should abandon the work
/// at the next stage boundary and return [`Response::gateway_timeout`];
/// the server never kills a worker preemptively.
pub trait AppHandler: Send + Sync + 'static {
    /// Produces the response for `req`. `cancel` fires at the request
    /// deadline and on shutdown-with-deadline; poll it at stage
    /// boundaries.
    fn handle(&self, req: &Request, cancel: &CancelToken) -> Response;

    /// Streaming hook, tried before [`AppHandler::handle`]: when the
    /// request is one this application streams (SSE turns), the
    /// implementation writes the *entire* response onto `stream` itself
    /// — head, frames and any pre-stream error — and returns the status
    /// it answered for metrics. Returning `None` (the default) hands the
    /// request to the buffered [`AppHandler::handle`] path.
    fn handle_streaming(
        &self,
        req: &Request,
        cancel: &CancelToken,
        stream: &mut TcpStream,
    ) -> Option<u16> {
        let _ = (req, cancel, stream);
        None
    }

    /// Runs once after the last in-flight request has drained, before
    /// the server exits — the place to flush telemetry.
    fn on_shutdown(&self) {}

    /// The application's route table. Implementations build their
    /// [`Router`] here (typically once, storing it in the constructor)
    /// and dispatch through it from [`AppHandler::handle`]; the default
    /// is an empty table (every request 404s).
    fn routes() -> Router<Self>
    where
        Self: Sized,
    {
        Router::new()
    }
}

/// Server tuning knobs (the `chatls serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080`. Port 0 picks a free port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded admission-queue depth; beyond it connections get `429`.
    pub queue_depth: usize,
    /// Per-request deadline in milliseconds, measured from admission.
    /// `0` disables deadlines.
    pub timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8),
            queue_depth: 64,
            timeout_ms: 30_000,
        }
    }
}

/// Set by the process signal handlers; observed by every running server.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that request graceful shutdown of
/// every [`Server::run`] loop in the process. Idempotent; async-signal-
/// safe (the handler only stores a flag).
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// No-op off Unix; use a [`ShutdownHandle`] instead.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Longest the acceptor waits for a connection before it re-checks the
/// shutdown flag: the worst-case delay before an idle server notices a
/// [`ShutdownHandle::shutdown`] or a signal handled on another thread.
const ACCEPT_WAIT: Duration = Duration::from_millis(50);

/// Blocks until `listener` has a pending connection, a signal
/// interrupts the wait, or `timeout` passes. Errors are ignored: the
/// acceptor's next `accept` reports anything real.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut pollfd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `pollfd` is one initialized `struct pollfd` (same layout
    // via `repr(C)`) that outlives the call, and `nfds` is 1, so poll
    // reads and writes only that struct. `fd` stays open: `listener` is
    // borrowed for the whole call.
    unsafe {
        poll(&mut pollfd, 1, timeout_ms);
    }
}

/// Off Unix: a short sleep, after which the acceptor retries `accept`.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, _timeout: Duration) {
    std::thread::sleep(Duration::from_millis(5));
}

/// Requests graceful shutdown of the [`Server`] it came from.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Asks the server to stop accepting, drain and exit.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    conns: VecDeque<(TcpStream, Instant)>,
    /// Set once the acceptor has stopped; workers drain then exit.
    closed: bool,
}

/// A bound listener plus its configuration; [`Server::run`] serves until
/// shutdown.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    handler: Arc<dyn AppHandler>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured address. Fails fast on a taken port.
    pub fn bind(config: ServeConfig, handler: Arc<dyn AppHandler>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self { listener, config, handler, shutdown: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers the same graceful shutdown as SIGTERM.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: Arc::clone(&self.shutdown) }
    }

    fn should_stop(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNALED.load(Ordering::SeqCst)
    }

    /// Serves until SIGTERM/SIGINT or the shutdown handle fires, then
    /// drains and returns. Blocks the calling thread; workers run beside
    /// it.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState { conns: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        });
        let depth_gauge = chatls_obs::gauge("serve.queue.depth");
        let rejected = chatls_obs::counter("serve.queue.rejected");
        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let handler = Arc::clone(&self.handler);
                let timeout_ms = self.config.timeout_ms;
                std::thread::spawn(move || worker_loop(&queue, handler.as_ref(), timeout_ms))
            })
            .collect();

        // Accept until shutdown: nonblocking accept, and when it would
        // block, wait for the listener to become readable (bounded, so
        // the shutdown flag is re-checked at least every ACCEPT_WAIT).
        while !self.should_stop() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let mut state = queue.state.lock().unwrap();
                    if state.conns.len() >= self.config.queue_depth {
                        drop(state);
                        rejected.inc();
                        chatls_obs::counter_dyn("serve.http.429").inc();
                        reject_connection(stream);
                        continue;
                    }
                    state.conns.push_back((stream, Instant::now()));
                    depth_gauge.set(state.conns.len() as i64);
                    drop(state);
                    queue.ready.notify_one();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    wait_readable(&self.listener, ACCEPT_WAIT);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // A transient accept error (EMFILE, aborted handshake)
                    // must not kill the daemon.
                    chatls_obs::counter("serve.accept.errors").inc();
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }

        // Drain: close the queue so workers exit once it is empty, then
        // wait for every in-flight request to finish.
        {
            let mut state = queue.state.lock().unwrap();
            state.closed = true;
        }
        queue.ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        self.handler.on_shutdown();
        Ok(())
    }
}

/// Concurrent 429 rejector threads; beyond this a rejection flood gets a
/// best-effort write on the acceptor thread instead of a drained goodbye.
static REJECTORS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
const MAX_REJECTORS: usize = 32;
/// Bounds on draining a rejected client's request bytes: a trickling or
/// oversized sender must never pin a thread.
const REJECT_DRAIN_MAX_BYTES: usize = 64 * 1024;
const REJECT_DRAIN_DEADLINE: Duration = Duration::from_millis(250);

/// Answers `429` without parsing the request, off the acceptor thread —
/// under overload the acceptor must keep accepting, so it never does
/// per-connection I/O beyond the handoff.
///
/// Closing with unread request bytes in the receive buffer would RST the
/// connection and the client kernel would discard the 429 before the
/// client reads it, so the rejector signals end-of-response and then
/// drains what the client sent — bounded by [`REJECT_DRAIN_MAX_BYTES`]
/// and [`REJECT_DRAIN_DEADLINE`] so a malicious trickler cannot hold the
/// thread.
fn reject_connection(mut stream: TcpStream) {
    fn answer_and_drain(mut stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        Response::too_many_requests(1).write_to(&mut stream);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let deadline = Instant::now() + REJECT_DRAIN_DEADLINE;
        let mut sink = [0u8; 1024];
        let mut drained = 0usize;
        use std::io::Read as _;
        while drained < REJECT_DRAIN_MAX_BYTES && Instant::now() < deadline {
            match stream.read(&mut sink) {
                Ok(n) if n > 0 => drained += n,
                _ => break,
            }
        }
    }
    if REJECTORS.fetch_add(1, Ordering::SeqCst) >= MAX_REJECTORS {
        REJECTORS.fetch_sub(1, Ordering::SeqCst);
        // Rejection flood: skip the drain rather than spawn without
        // bound. The write is best-effort; an RST here is acceptable.
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        Response::too_many_requests(1).write_to(&mut stream);
        return;
    }
    let spawned =
        std::thread::Builder::new().name("chatls-serve-reject".to_string()).spawn(move || {
            answer_and_drain(stream);
            REJECTORS.fetch_sub(1, Ordering::SeqCst);
        });
    if let Err(e) = spawned {
        // Could not spawn (resource exhaustion): the stream moved into the
        // failed closure was dropped with it; just release the slot.
        REJECTORS.fetch_sub(1, Ordering::SeqCst);
        let _ = e;
    }
}

fn worker_loop(queue: &Queue, handler: &dyn AppHandler, timeout_ms: u64) {
    let depth_gauge = chatls_obs::gauge("serve.queue.depth");
    loop {
        let popped = {
            let mut state = queue.state.lock().unwrap();
            loop {
                if let Some(entry) = state.conns.pop_front() {
                    depth_gauge.set(state.conns.len() as i64);
                    break Some(entry);
                }
                if state.closed {
                    break None;
                }
                let (next, _timeout) =
                    queue.ready.wait_timeout(state, Duration::from_millis(100)).unwrap();
                state = next;
            }
        };
        let Some((stream, admitted)) = popped else { return };
        handle_connection(stream, admitted, handler, timeout_ms);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    admitted: Instant,
    handler: &dyn AppHandler,
    timeout_ms: u64,
) {
    let cancel = if timeout_ms == 0 {
        CancelToken::never()
    } else {
        CancelToken::with_deadline(admitted + Duration::from_millis(timeout_ms))
    };
    // The socket read budget follows the request deadline (a slow-loris
    // client must not hold a worker past --timeout-ms), capped at 10s for
    // deadline-less configs. set_read_timeout rejects zero, so an already
    // expired deadline still gets a minimal floor; the expiry check below
    // turns the stale request into a 504 either way.
    let io_timeout = cancel
        .remaining()
        .map_or(Duration::from_secs(10), |r| r.min(Duration::from_secs(10)))
        .max(Duration::from_millis(10));
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let record = |status: u16, endpoint: &str| {
        chatls_obs::counter_dyn(&format!("serve.http.{status}")).inc();
        chatls_obs::counter_dyn(&format!("serve.req.{endpoint}")).inc();
        chatls_obs::histogram("serve.latency_ns", chatls_obs::DURATION_NS_BOUNDS)
            .record(admitted.elapsed().as_nanos() as f64);
    };
    let (endpoint, response) = match read_request(&mut stream) {
        // A read that failed because the deadline consumed its socket
        // budget is an expiry, not a client error.
        Err(_) if cancel.is_cancelled() => {
            ("invalid", Response::gateway_timeout("deadline exceeded while reading request"))
        }
        Err(bad) => ("invalid", bad),
        Ok(req) => {
            let endpoint = known_endpoint(&req.path);
            let cancel = tighten_deadline(&cancel, &req);
            let response = if cancel.is_cancelled() {
                // Spent its whole budget in the queue: same contract as
                // an in-flight expiry, without burning handler work.
                Response::gateway_timeout("deadline exceeded while queued")
            } else {
                // Streaming requests (SSE sessions) write the socket
                // themselves; only the metrics tail runs for them.
                if let Some(status) = handler.handle_streaming(&req, &cancel, &mut stream) {
                    record(status, endpoint);
                    return;
                }
                handler.handle(&req, &cancel)
            };
            (endpoint, response)
        }
    };
    record(response.status, endpoint);
    response.write_to(&mut stream);
}

/// Honours [`DEADLINE_HEADER`] from an upstream router: the effective
/// deadline is the *earlier* of the locally configured one and
/// now + the header's remaining budget. A malformed value is ignored
/// (the local deadline still applies); the header can only tighten.
fn tighten_deadline(cancel: &CancelToken, req: &Request) -> CancelToken {
    let Some(budget_ms) = req.header(DEADLINE_HEADER).and_then(|v| v.parse::<u64>().ok()) else {
        return cancel.clone();
    };
    let proxied = Instant::now() + Duration::from_millis(budget_ms);
    match cancel.deadline() {
        Some(local) if local <= proxied => cancel.clone(),
        _ => CancelToken::with_deadline(proxied),
    }
}

/// Maps a request path onto a bounded set of metric labels, so arbitrary
/// paths cannot grow the registry without bound.
fn known_endpoint(path: &str) -> &'static str {
    match path {
        "/v1/customize" => "customize",
        "/v1/eval" => "eval",
        "/v1/lint" => "lint",
        "/v1/version" => "version",
        "/v1/mcp" => "mcp",
        "/v1/session" => "session",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/telemetry" => "telemetry",
        p if p.starts_with("/v1/session/") => "session",
        p if p.starts_with("/admin/") => "admin",
        _ => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;

    /// Blocks each request until released; counts handled requests.
    struct GateHandler {
        release: Arc<(Mutex<bool>, Condvar)>,
        handled: AtomicUsize,
        shutdowns: AtomicUsize,
    }

    impl GateHandler {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                release: Arc::new((Mutex::new(false), Condvar::new())),
                handled: AtomicUsize::new(0),
                shutdowns: AtomicUsize::new(0),
            })
        }

        fn open_gate(&self) {
            let (lock, cvar) = &*self.release;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
    }

    impl AppHandler for GateHandler {
        fn handle(&self, req: &Request, cancel: &CancelToken) -> Response {
            let (lock, cvar) = &*self.release;
            let mut open = lock.lock().unwrap();
            while !*open {
                if cancel.is_cancelled() {
                    return Response::gateway_timeout("deadline exceeded");
                }
                let (next, _) = cvar.wait_timeout(open, Duration::from_millis(10)).unwrap();
                open = next;
            }
            drop(open);
            self.handled.fetch_add(1, Ordering::SeqCst);
            Response::json(200, format!("{{\"path\": \"{}\"}}", req.path))
        }

        fn on_shutdown(&self) {
            self.shutdowns.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn request(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let status: u16 = text.split_whitespace().nth(1).and_then(|w| w.parse().ok()).unwrap_or(0);
        let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    fn spawn_server(
        handler: Arc<dyn AppHandler>,
        queue_depth: usize,
        timeout_ms: u64,
    ) -> (std::net::SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
        let config =
            ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 2, queue_depth, timeout_ms };
        let server = Server::bind(config, handler).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, shutdown, join)
    }

    #[test]
    fn serves_and_shuts_down_cleanly() {
        let gate = GateHandler::new();
        gate.open_gate();
        let (addr, shutdown, join) = spawn_server(gate.clone(), 8, 5_000);
        let (status, body) = request(addr, "/ping");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"path\": \"/ping\"}");
        shutdown.shutdown();
        join.join().unwrap();
        assert_eq!(gate.shutdowns.load(Ordering::SeqCst), 1, "on_shutdown must run once");
    }

    #[test]
    fn overflow_connections_get_429_with_retry_after() {
        let gate = GateHandler::new();
        // Gate closed: workers park on the first requests, the queue
        // fills, and the next connection must bounce.
        let (addr, shutdown, join) = spawn_server(gate.clone(), 1, 30_000);
        let mut parked = Vec::new();
        // 2 workers + queue depth 1 = 3 connections absorbed.
        for _ in 0..3 {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET /park HTTP/1.1\r\n\r\n").unwrap();
            parked.push(s);
        }
        // Queue occupancy is asynchronous; poll until the bounce appears.
        let deadline = Instant::now() + Duration::from_secs(5);
        let bounced = loop {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            write!(s, "GET /extra HTTP/1.1\r\n\r\n").unwrap();
            let mut text = String::new();
            let _ = s.read_to_string(&mut text);
            if text.starts_with("HTTP/1.1 429") {
                break text;
            }
            assert!(Instant::now() < deadline, "queue never filled; last response: {text}");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(bounced.contains("Retry-After:"), "{bounced}");
        gate.open_gate();
        shutdown.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn trickling_rejected_client_does_not_block_the_acceptor() {
        let gate = GateHandler::new();
        let (addr, shutdown, join) = spawn_server(gate.clone(), 1, 30_000);
        // Saturate by construction: 2 workers + 1 queue slot = 3 live
        // parked connections. Park one at a time and verify each was
        // absorbed (no answer within 300ms) rather than transiently
        // bounced (a 429 can fire while a worker is mid-pop); retried
        // parks make saturation deterministic before the trickler runs.
        let mut parked = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while parked.len() < 3 {
            assert!(Instant::now() < deadline, "could not saturate the server");
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
            write!(s, "GET /park HTTP/1.1\r\n\r\n").unwrap();
            let mut text = String::new();
            let _ = s.read_to_string(&mut text);
            if text.is_empty() {
                parked.push(s); // silent: absorbed and gated
            }
            // else: bounced (429) or closed — retry
        }
        let probe = || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            write!(s, "GET /probe HTTP/1.1\r\n\r\n").unwrap();
            let mut text = String::new();
            let _ = s.read_to_string(&mut text);
            text
        };
        // A rejected client that trickles bytes forever: with the drain on
        // the acceptor thread this would pin accept(); it must not.
        let mut trickler = TcpStream::connect(addr).unwrap();
        let trickle = std::thread::spawn(move || {
            for _ in 0..200 {
                if trickler.write_all(b"x").is_err() {
                    break; // rejector hit its drain bound and closed us
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        // Further connections keep getting prompt 429s while the trickler
        // is live (each probe is bounded by its 2s read timeout).
        for i in 0..3 {
            let text = probe();
            assert!(
                text.starts_with("HTTP/1.1 429"),
                "acceptor pinned by trickling client (probe {i} got: {text:?})"
            );
        }
        trickle.join().unwrap();
        gate.open_gate();
        shutdown.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn drain_completes_queued_requests() {
        let gate = GateHandler::new();
        let (addr, shutdown, join) = spawn_server(gate.clone(), 16, 30_000);
        let clients: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let (status, _) = request(addr, &format!("/drain{i}"));
                    status
                })
            })
            .collect();
        // Let the requests get admitted, then shut down while they are
        // still gated: every one must finish with 200, none dropped.
        std::thread::sleep(Duration::from_millis(100));
        shutdown.shutdown();
        gate.open_gate();
        join.join().unwrap();
        for c in clients {
            assert_eq!(c.join().unwrap(), 200, "in-flight request dropped during drain");
        }
        assert_eq!(gate.handled.load(Ordering::SeqCst), 4);
    }

    /// Answers every request at once, touching nothing.
    struct NoopHandler;

    impl AppHandler for NoopHandler {
        fn handle(&self, _req: &Request, _cancel: &CancelToken) -> Response {
            Response::json(200, "{}".to_string())
        }
    }

    #[test]
    fn idle_server_accepts_sequential_requests_without_delay() {
        let (addr, shutdown, join) = spawn_server(Arc::new(NoopHandler), 8, 5_000);
        let median_round_trip = || {
            let mut round_trips: Vec<Duration> = (0..21)
                .map(|_| {
                    let started = Instant::now();
                    let (status, _) = request(addr, "/noop");
                    assert_eq!(status, 200);
                    started.elapsed()
                })
                .collect();
            round_trips.sort();
            round_trips[round_trips.len() / 2]
        };
        // A sleeping acceptor adds most of its sleep to every request
        // that arrives while it naps, so each round's median sits near
        // the sleep; a readiness wait adds nothing. On a busy host the
        // scheduler can delay one round as much, hence a few rounds.
        let fast = Duration::from_millis(1);
        let mut medians = Vec::new();
        for _ in 0..5 {
            medians.push(median_round_trip());
            if medians[medians.len() - 1] < fast {
                break;
            }
        }
        assert!(medians.iter().any(|m| *m < fast), "median round trip per round: {medians:?}");
        shutdown.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_is_prompt_on_a_server_that_never_accepted() {
        let (_addr, shutdown, join) = spawn_server(Arc::new(NoopHandler), 8, 5_000);
        // Let the acceptor settle into its readiness wait.
        std::thread::sleep(Duration::from_millis(20));
        let (done_tx, done) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            join.join().unwrap();
            let _ = done_tx.send(());
        });
        let started = Instant::now();
        shutdown.shutdown();
        // Fails (instead of hanging) if the acceptor blocks for good.
        let drained = done.recv_timeout(ACCEPT_WAIT * 10);
        assert!(
            drained.is_ok(),
            "run() still blocked {:?} after shutdown with no connection ever made",
            started.elapsed()
        );
        waiter.join().unwrap();
    }

    #[test]
    fn expired_deadline_yields_504() {
        let gate = GateHandler::new();
        // 30ms budget, gate stays closed: the handler observes the token
        // firing and reports 504.
        let (addr, shutdown, join) = spawn_server(gate.clone(), 8, 30);
        let (status, body) = request(addr, "/slow");
        assert_eq!(status, 504, "{body}");
        assert_eq!(gate.handled.load(Ordering::SeqCst), 0);
        // The pool is not poisoned: later requests still succeed.
        gate.open_gate();
        let (status, _) = request(addr, "/after");
        assert_eq!(status, 200);
        shutdown.shutdown();
        join.join().unwrap();
    }
}
