//! SynthServe: the zero-dependency request-serving layer behind
//! `chatls serve`.
//!
//! Everything is `std`-only — `TcpListener`, worker threads, a `Mutex` +
//! `Condvar` admission queue — so the workspace keeps building offline.
//! The crate is application-agnostic: it knows HTTP framing, queueing,
//! deadlines, session pooling and drain; the ChatLS pipeline plugs in
//! from `crates/core` through the [`AppHandler`] trait. That inversion
//! keeps the dependency arrow pointing one way (core → serve) and lets
//! the queue/deadline/drain machinery be tested with a controllable
//! dummy handler.
//!
//! - [`http`] — minimal HTTP/1.1 request parsing and response writing
//!   (one request per connection, `Connection: close`).
//! - [`server`] — [`Server`]: accept loop, bounded queue with `429`
//!   backpressure, per-request [`chatls_exec::CancelToken`] deadlines,
//!   SIGTERM/SIGINT graceful drain.
//! - [`pool`] — [`SessionPool`]: the LRU fingerprint → warm-artifact
//!   map behind `serve.pool.hit`/`.miss` metrics.

pub mod http;
pub mod pool;
pub mod registry;
pub mod route;
pub mod router;
pub mod server;
pub mod sse;

/// Version of the HTTP surface (endpoints + error envelope). The cluster
/// router refuses to route to a shard advertising a different value on
/// `GET /v1/version`, so a mixed-version fleet fails loud instead of
/// subtly.
pub const PROTOCOL_VERSION: u32 = 1;

pub use http::{json_escape, percent_decode, read_response, Request, Response};
pub use pool::{PoolError, PoolStats, SessionPool};
pub use registry::{SessionRegistry, TurnError};
pub use route::{HandlerFn, Router};
pub use router::{ClusterConfig, ClusterRouter, HashRing, Health, KeyFn, ShardSpec};
pub use server::{
    install_signal_handlers, AppHandler, ServeConfig, Server, ShutdownHandle, DEADLINE_HEADER,
};
pub use sse::{BufferSink, EventSink, SseWriter};

/// The `GET /v1/version` payload: build identity, protocol version and
/// feature capabilities. `shard` names who is answering — `"router"`, a
/// shard id like `"0"`, or `"standalone"` for a single-process daemon.
/// `capabilities` lists optional surfaces this process serves (`"mcp"`,
/// `"sessions"`, `"cluster"`); clients feature-detect on it and must
/// tolerate entries they do not recognize.
pub fn version_payload(shard: &str, protocol: u32, capabilities: &[&str]) -> String {
    let caps = capabilities.iter().map(|c| json_escape(c)).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"git\": {}, \"profile\": \"{}\", \"shard\": {}, \"protocol\": {protocol}, \
         \"capabilities\": [{caps}]}}\n",
        json_escape(option_env!("CHATLS_GIT_HASH").unwrap_or("unknown")),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        json_escape(shard),
    )
}
