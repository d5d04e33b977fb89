//! The ChatLS backend for `chatls serve`: routes the HTTP endpoints the
//! `chatls-serve` crate accepts onto the customize/eval pipeline.
//!
//! The serving crate owns transport, queueing, deadlines and drain; this
//! module owns the application semantics:
//!
//! - `POST /v1/customize` — full CircuitMentor → SynthRAG → SynthExpert
//!   pipeline for a named catalog design or inline Verilog; returns the
//!   final script, its QoR and lint diagnostics. The returned `script` is
//!   byte-identical to `chatls customize <design>` stdout for the same
//!   database and seed.
//! - `POST /v1/eval` — scores one or more caller-supplied scripts on a
//!   design (batched on the global [`ExecPool`], memoized in the global
//!   [`QorCache`]). Scripts with error-severity lint findings are
//!   rejected with 400 *before* a session or deadline is burned, unless
//!   the body sets `"lenient": true`.
//! - `POST /v1/lint` — static analysis only: the full mechanical +
//!   ScriptIR diagnostic list for a script, with netlist-aware rules
//!   when the body also names a design (or carries inline Verilog).
//! - `GET /healthz`, `GET /metrics` (plain-text registry exposition),
//!   `GET /telemetry` (the `chatls.telemetry.v1` JSON document).
//!
//! Warm path: prepared designs — the mapped [`SessionTemplate`], the
//! stage-1 design embedding and the baseline [`TaskContext`] per request
//! string — live in an LRU [`SessionPool`] keyed by design fingerprint,
//! so repeat requests skip parse/lower/map, the circuit graph and GNN
//! embedding, *and* the baseline synthesis run. Pool misses are
//! single-flight: concurrent cold requests for one design coalesce onto a
//! single template build, and [`ChatLsService::spawn_warmer`] pre-builds
//! the benchmark catalog in the background at startup (rate-limited,
//! cancelled on drain). The per-design task cache is itself LRU-bounded
//! ([`TASK_CACHE_CAP`]): request strings are client-supplied and must not
//! grow daemon memory without bound. Pooled state is immutable (sessions
//! stamp copy-on-write snapshots per request); a deadline that fires
//! mid-request aborts that request only and cannot poison the pool.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use chatls_designs::GeneratedDesign;
use chatls_exec::{CancelToken, Cancelled, ExecPool};
use chatls_obs::ObsCtx;
use chatls_serve::{
    version_payload, AppHandler, PoolError, Request, Response, Router, SessionPool,
    SessionRegistry, PROTOCOL_VERSION,
};
use chatls_synth::{QorReport, SessionBuilder, SessionTemplate};
use serde::Serialize;

use crate::database::ExpertDatabase;
use crate::eval::{design_fingerprint, run_carried, QorCache};
use crate::llm::TaskContext;
use crate::pipeline::{prepare_task_in, ChatLs};

/// Cap on cached task contexts per pooled design. The request string is
/// client-supplied, so this map must stay bounded no matter how many
/// distinct strings arrive; beyond the cap the least-recently-used entry
/// is evicted (the next identical request re-pays one baseline run,
/// nothing breaks).
const TASK_CACHE_CAP: usize = 16;

/// LRU-bounded map of user request string → prepared [`TaskContext`].
/// Contexts are deterministic per design and request, so caching cannot
/// change a response.
#[derive(Default)]
struct TaskCache {
    /// request → (context, last-use tick).
    entries: HashMap<String, (TaskContext, u64)>,
    /// Monotonic use clock; the minimum-tick entry is the LRU victim.
    tick: u64,
}

impl TaskCache {
    /// The cached context for `request`, refreshing its LRU position.
    fn get(&mut self, request: &str) -> Option<TaskContext> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(request).map(|entry| {
            entry.1 = tick;
            entry.0.clone()
        })
    }

    /// Caches `task` under `request`, evicting the least-recently-used
    /// entry once [`TASK_CACHE_CAP`] is reached.
    fn insert(&mut self, request: &str, task: TaskContext) {
        if !self.entries.contains_key(request) && self.entries.len() >= TASK_CACHE_CAP {
            if let Some(oldest) =
                self.entries.iter().min_by_key(|(_, (_, t))| *t).map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.tick += 1;
        self.entries.insert(request.to_string(), (task, self.tick));
    }
}

/// A design's warm serving state: the mapped template, the stage-1
/// design embedding, and the baseline task context per distinct user
/// request string.
///
/// The pooled template never fills its cleanup memo: each eval batch,
/// customize request and agent session synthesizes through its own
/// [`PreparedDesign::scoped_template`], whose memo (one cleaned copy of the
/// design) lives exactly as long as that scope. A memo left on every
/// pooled template would hold one more design copy per pool entry.
pub struct PreparedDesign {
    template: SessionTemplate,
    /// Stage 1's result ([`crate::pipeline::embed_design`]), filled by
    /// the first customization of this design and reused by every later
    /// one. It depends only on the design, which the pool key pins, and
    /// on the service's one database.
    embedding: OnceLock<Vec<f32>>,
    /// Bounded per-request task contexts (see [`TaskCache`]).
    tasks: Mutex<TaskCache>,
}

impl PreparedDesign {
    /// The mapped session template with a fresh cleanup memo
    /// ([`SessionTemplate::scoped`]), for one request or agent session.
    pub(crate) fn scoped_template(&self) -> SessionTemplate {
        self.template.scoped()
    }

    /// Whether the pooled template's own cleanup memo was ever filled.
    #[cfg(test)]
    pub(crate) fn pooled_memo_filled(&self) -> bool {
        self.template.cleanup_memoized()
    }

    /// The stage-1 memo to hand to [`ChatLs::try_customize`].
    pub(crate) fn embedding(&self) -> &OnceLock<Vec<f32>> {
        &self.embedding
    }
}

/// The application handler behind `chatls serve`.
pub struct ChatLsService {
    db: ExpertDatabase,
    pool: SessionPool<PreparedDesign, Response>,
    /// Long-lived streaming sessions (`POST /v1/session` + turns).
    sessions: SessionRegistry<crate::agent::AgentSession>,
    /// The declarative endpoint table, built once at construction.
    routes: Router<Self>,
    /// This process's shard id in a cluster; `None` for a standalone
    /// daemon.
    shard: Option<usize>,
}

/// Default user request, matching the `chatls customize` CLI default so
/// a body without `request` reproduces the CLI's output.
pub(crate) const DEFAULT_REQUEST: &str = "optimize timing at the fixed clock";

/// Pause between consecutive startup warming builds. Template builds are
/// CPU-bound (~hundreds of ms each); the gap keeps the warmer from
/// monopolizing cores that request-serving workers need.
const WARM_STARTUP_PACE: Duration = Duration::from_millis(25);

/// Builds the pooled warm state for one design: the mapped
/// [`SessionTemplate`] plus an empty task cache.
fn build_prepared(design: &GeneratedDesign) -> Result<PreparedDesign, Response> {
    let template = SessionBuilder::new(design.netlist(), chatls_liberty::nangate45())
        .obs(ObsCtx::global().clone())
        .template()
        .map_err(|e| Response::error(400, "mapping_failed", &format!("mapping failed: {e}")))?;
    Ok(PreparedDesign {
        template,
        embedding: OnceLock::new(),
        tasks: Mutex::new(TaskCache::default()),
    })
}

/// Sleeps for `total`, waking early if `cancel` fires. Returns `true`
/// when the sleep ended because of cancellation.
fn sleep_cancellable(cancel: &CancelToken, total: Duration) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if cancel.is_cancelled() {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// The speculative warming loop behind [`ChatLsService::spawn_warmer`],
/// split out (pool + explicit catalog) so tests can drive it with tiny
/// inline designs and a fast pace.
///
/// Pre-builds the catalog — at most `pool.capacity()` entries, so warming
/// can never evict its own work — pausing `pace` between builds, then
/// returns. Entries evicted later are rebuilt by the next request that
/// needs them.
pub fn run_pool_warmer(
    pool: &SessionPool<PreparedDesign, Response>,
    catalog: &[GeneratedDesign],
    cancel: &CancelToken,
    pace: Duration,
) {
    for design in catalog.iter().take(pool.capacity()) {
        if cancel.is_cancelled() {
            return;
        }
        pool.warm(design_fingerprint(design), || build_prepared(design));
        if sleep_cancellable(cancel, pace) {
            return;
        }
    }
}

#[derive(Serialize)]
pub(crate) struct CustomizeResponse {
    pub(crate) design: String,
    pub(crate) seed: u64,
    /// `"hit"` when the design's template came warm from the pool.
    pub(crate) pool: String,
    pub(crate) script: String,
    pub(crate) qor: QorReport,
    pub(crate) lint: chatls_lint::LintStats,
}

#[derive(Serialize)]
struct EvalResponse {
    design: String,
    results: Vec<EvalResult>,
}

#[derive(Serialize)]
struct EvalResult {
    ok: bool,
    qor: QorReport,
}

#[derive(Serialize)]
struct LintResponse {
    clean: bool,
    errors: usize,
    warnings: usize,
    diagnostics: Vec<chatls_lint::Diagnostic>,
}

/// The `details` object of a `lint_rejected` error envelope.
#[derive(Serialize)]
struct LintRejectionDetails {
    /// Index into the request's `scripts` array of the offending script.
    script_index: usize,
    diagnostics: Vec<chatls_lint::Diagnostic>,
}

impl ChatLsService {
    /// A service over `db`, pooling at most `max_sessions` prepared
    /// designs.
    pub fn new(db: ExpertDatabase, max_sessions: usize) -> Self {
        Self {
            db,
            pool: SessionPool::new(max_sessions),
            sessions: SessionRegistry::new(
                crate::agent::STREAM_SESSION_CAPACITY,
                crate::agent::STREAM_SESSION_IDLE_TTL,
            ),
            routes: <Self as AppHandler>::routes(),
            shard: None,
        }
    }

    /// Marks this service as shard `id` of a cluster: `/healthz` and
    /// `/v1/version` report the id.
    pub fn with_shard(mut self, id: usize) -> Self {
        self.shard = Some(id);
        self
    }

    /// The session pool (tests and the load generator inspect occupancy
    /// and per-instance build/coalesce statistics).
    pub fn pool(&self) -> &SessionPool<PreparedDesign, Response> {
        &self.pool
    }

    /// The expert database the service answers from.
    pub fn db(&self) -> &ExpertDatabase {
        &self.db
    }

    /// The streaming-session registry (tests inspect occupancy).
    pub fn sessions(&self) -> &SessionRegistry<crate::agent::AgentSession> {
        &self.sessions
    }

    /// Resolves the design a request body names: the `design` key looks
    /// up the built-in catalog; alternatively `verilog` + `top` (+
    /// optional `period`, default 1.0 ns) carry an inline design.
    pub(crate) fn resolve_design(body: &serde::Value) -> Result<GeneratedDesign, Response> {
        if let Some(name) = body.get("design").and_then(|v| v.as_str()) {
            return chatls_designs::by_name(name).ok_or_else(|| {
                Response::error(
                    404,
                    "unknown_design",
                    &format!("unknown design '{name}' (see `chatls designs`)"),
                )
            });
        }
        let Some(verilog) = body.get("verilog").and_then(|v| v.as_str()) else {
            return Err(Response::error(
                400,
                "bad_request",
                "body needs either \"design\" or \"verilog\"+\"top\"",
            ));
        };
        let Some(top) = body.get("top").and_then(|v| v.as_str()) else {
            return Err(Response::error(
                400,
                "bad_request",
                "inline \"verilog\" needs a \"top\" module name",
            ));
        };
        let period = body.get("period").and_then(|v| v.as_f64()).unwrap_or(1.0);
        if !(period.is_finite() && period > 0.0) {
            return Err(Response::error(
                400,
                "bad_request",
                "\"period\" must be a positive number",
            ));
        }
        // Validate up front: the catalog accessors panic on bad source
        // (a generator bug there), but user payloads must fail softly.
        let sf = chatls_verilog::parse(verilog).map_err(|e| {
            Response::error(400, "invalid_verilog", &format!("verilog parse error: {e}"))
        })?;
        chatls_verilog::lower_to_netlist(&sf, top).map_err(|e| {
            Response::error(400, "invalid_verilog", &format!("elaboration error: {e}"))
        })?;
        Ok(GeneratedDesign {
            name: format!("inline:{top}"),
            category: chatls_designs::Category::VectorArithmetic,
            source: verilog.to_string(),
            top: top.to_string(),
            modules: Vec::new(),
            default_period: period,
        })
    }

    /// The pooled warm state for `design`, built on first use.
    ///
    /// Misses are single-flight: the first request becomes the sole
    /// builder and concurrent requests for the same design park on its
    /// build, so a miss storm pays one template build, not K. A parked
    /// request whose own deadline fires answers 504 without disturbing
    /// the build; a builder whose deadline has already fired answers 504
    /// *before* paying the map (waiters receive the same 504 and the
    /// next request rebuilds cleanly — failed builds never poison the
    /// pool).
    pub(crate) fn prepared(
        &self,
        design: &GeneratedDesign,
        cancel: &CancelToken,
    ) -> Result<(std::sync::Arc<PreparedDesign>, bool), Response> {
        let fp = design_fingerprint(design);
        match self.pool.get_or_build_cancellable(fp, cancel, || {
            if cancel.is_cancelled() {
                return Err(Response::gateway_timeout(
                    "deadline exceeded before session template build",
                ));
            }
            build_prepared(design)
        }) {
            Ok(out) => Ok(out),
            Err(PoolError::Build(resp)) => Err(resp),
            Err(PoolError::Cancelled) => Err(Response::gateway_timeout(
                "deadline exceeded while awaiting session template build",
            )),
        }
    }

    /// Speculatively builds the pooled state for `design` if absent —
    /// the single-design warming step. Participates in single-flight
    /// (a request arriving mid-warm parks on the warmer's build) and
    /// does not touch pool hit/miss accounting. Returns `true` when this
    /// call built the entry.
    pub fn warm_design(&self, design: &GeneratedDesign) -> bool {
        self.pool.warm(design_fingerprint(design), || build_prepared(design))
    }

    /// Spawns the speculative warmer thread: pre-builds the full
    /// serveable catalog at startup — database designs first (the common
    /// request targets), then benchmarks — rate-limited so warming never
    /// starves request-serving workers. Fire `cancel` (the CLI does so
    /// once the server drains) to stop it early; the thread exits at the
    /// next build boundary.
    pub fn spawn_warmer(&self, cancel: CancelToken) -> std::thread::JoinHandle<()> {
        let pool = self.pool.clone();
        let mut catalog = chatls_designs::database_designs();
        catalog.extend(chatls_designs::benchmarks());
        std::thread::Builder::new()
            .name("chatls-warmer".into())
            .spawn(move || run_pool_warmer(&pool, &catalog, &cancel, WARM_STARTUP_PACE))
            .expect("spawn pool warmer thread")
    }

    /// The task context for (`design`, `request`), from the per-design
    /// cache or prepared fresh (one baseline synthesis run on `scope`, a
    /// [`PreparedDesign::scoped_template`] of `prepared`).
    pub(crate) fn task_for(
        &self,
        design: &GeneratedDesign,
        prepared: &PreparedDesign,
        scope: &SessionTemplate,
        request: &str,
        cancel: &CancelToken,
    ) -> Result<TaskContext, Cancelled> {
        if let Some(task) = prepared.tasks.lock().unwrap().get(request) {
            return Ok(task);
        }
        let task = prepare_task_in(design, request, scope, cancel)?;
        prepared.tasks.lock().unwrap().insert(request, task.clone());
        Ok(task)
    }

    /// The full customize flow for an already-parsed request body — the
    /// shared core behind `POST /v1/customize` and the MCP `customize`
    /// tool, so both transports produce the same payload for the same
    /// body.
    pub(crate) fn customize_payload(
        &self,
        body: &serde::Value,
        cancel: &CancelToken,
    ) -> Result<CustomizeResponse, Response> {
        let design = Self::resolve_design(body)?;
        let seed = body.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
        let request =
            body.get("request").and_then(|v| v.as_str()).unwrap_or(DEFAULT_REQUEST).to_string();
        let (prepared, pool_hit) = self.prepared(&design, cancel)?;
        // The baseline and the final run share one cleanup memo.
        let scope = prepared.scoped_template();
        let deadline_resp =
            |what: &str| Response::gateway_timeout(&format!("deadline exceeded during {what}"));
        let task = self
            .task_for(&design, &prepared, &scope, &request, cancel)
            .map_err(|Cancelled| deadline_resp("baseline synthesis"))?;
        let outcome = ChatLs::new(&self.db)
            .try_customize(&design, prepared.embedding(), &task, seed, cancel, &mut |_| {})
            .map_err(|Cancelled| deadline_resp("script customization"))?;
        let fp = design_fingerprint(&design);
        let (qor, _ok) = QorCache::global()
            .get_or_run_cancellable(fp, outcome.script(), || {
                run_carried(&scope, outcome.script(), None, cancel, None)
                    .map(|(qor, ok, _)| (qor, ok))
            })
            .map_err(|Cancelled| deadline_resp("final synthesis"))?;
        Ok(CustomizeResponse {
            design: design.name.clone(),
            seed,
            pool: if pool_hit { "hit" } else { "miss" }.to_string(),
            script: outcome.script().to_string(),
            qor,
            lint: outcome.lint_stats(),
        })
    }

    fn handle_customize(&self, req: &Request, cancel: &CancelToken) -> Response {
        let body = match serde_json::parse_value(&req.body_text()) {
            Ok(v) => v,
            Err(e) => {
                return Response::error(400, "bad_request", &format!("invalid JSON body: {e}"))
            }
        };
        let payload = match self.customize_payload(&body, cancel) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        match serde_json::to_string(&payload) {
            Ok(json) => Response::json(200, json),
            Err(e) => internal_error(&e),
        }
    }

    pub(crate) fn handle_eval(&self, req: &Request, cancel: &CancelToken) -> Response {
        let body = match serde_json::parse_value(&req.body_text()) {
            Ok(v) => v,
            Err(e) => {
                return Response::error(400, "bad_request", &format!("invalid JSON body: {e}"))
            }
        };
        let design = match Self::resolve_design(&body) {
            Ok(d) => d,
            Err(resp) => return resp,
        };
        let scripts: Vec<String> = if let Some(one) = body.get("script").and_then(|v| v.as_str()) {
            vec![one.to_string()]
        } else if let Some(many) = body.get("scripts").and_then(|v| v.as_array()) {
            let mut out = Vec::with_capacity(many.len());
            for s in many {
                match s.as_str() {
                    Some(s) => out.push(s.to_string()),
                    None => {
                        return Response::error(
                            400,
                            "bad_request",
                            "\"scripts\" must be an array of strings",
                        )
                    }
                }
            }
            out
        } else {
            return Response::error(400, "bad_request", "body needs \"script\" or \"scripts\"");
        };
        if scripts.is_empty() {
            return Response::error(400, "bad_request", "\"scripts\" must not be empty");
        }
        // Admission lint: an error-severity script would burn a session
        // (and possibly the request deadline) only to fail, so reject it
        // up front — unless the caller opts out with `"lenient": true`
        // (e.g. to score a known-bad script's `ok: false` result).
        let lenient = body.get("lenient").and_then(|v| v.as_bool()).unwrap_or(false);
        if !lenient {
            for (i, script) in scripts.iter().enumerate() {
                let report = chatls_lint::lint_script(script);
                if report.has_errors() {
                    chatls_obs::counter("core.lint.rejections").inc();
                    let message = format!(
                        "script {i} fails lint with {} error(s); \
                         pass \"lenient\": true to evaluate anyway",
                        report.error_count()
                    );
                    let details =
                        LintRejectionDetails { script_index: i, diagnostics: report.diagnostics };
                    return match serde_json::to_string(&details) {
                        Ok(json) => {
                            Response::error_with_details(400, "lint_rejected", &message, &json)
                        }
                        Err(e) => internal_error(&e),
                    };
                }
            }
        }
        let (prepared, _hit) = match self.prepared(&design, cancel) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let fp = design_fingerprint(&design);
        // Batch: fan the scripts out on the global pool; each evaluation
        // is memoized in the global QorCache. Index-ordered results keep
        // the response aligned with the request array. The batch's runs
        // share one cleanup memo: the first compile fills it, the rest
        // adopt it.
        let template = &prepared.scoped_template();
        let runs = ExecPool::global().run_cancellable(cancel, scripts.len(), |i| {
            QorCache::global().get_or_run_cancellable(fp, &scripts[i], || {
                run_carried(template, &scripts[i], None, cancel, None).map(|(qor, ok, _)| (qor, ok))
            })
        });
        let results: Result<Vec<EvalResult>, Cancelled> = match runs {
            Err(Cancelled) => Err(Cancelled),
            Ok(rows) => {
                rows.into_iter().map(|r| r.map(|(qor, ok)| EvalResult { ok, qor })).collect()
            }
        };
        let results = match results {
            Ok(r) => r,
            Err(Cancelled) => {
                return Response::gateway_timeout("deadline exceeded during script evaluation")
            }
        };
        let payload = EvalResponse { design: design.name.clone(), results };
        match serde_json::to_string(&payload) {
            Ok(json) => Response::json(200, json),
            Err(e) => internal_error(&e),
        }
    }

    /// `POST /v1/lint`: static analysis without synthesis. Body carries
    /// `script` plus, optionally, the same design keys as `/v1/eval`
    /// (`design`, or `verilog`+`top`) to enable the netlist-aware rules
    /// (SL013 port existence checks and friends).
    fn handle_lint(&self, req: &Request, _cancel: &CancelToken) -> Response {
        let body = match serde_json::parse_value(&req.body_text()) {
            Ok(v) => v,
            Err(e) => {
                return Response::error(400, "bad_request", &format!("invalid JSON body: {e}"))
            }
        };
        let Some(script) = body.get("script").and_then(|v| v.as_str()) else {
            return Response::error(400, "bad_request", "body needs a \"script\" string");
        };
        let report = if body.get("design").is_some() || body.get("verilog").is_some() {
            let design = match Self::resolve_design(&body) {
                Ok(d) => d,
                Err(resp) => return resp,
            };
            chatls_lint::lint_script_for_design(script, &design.netlist())
        } else {
            chatls_lint::lint_script(script)
        };
        chatls_obs::counter("core.lint.requests").inc();
        let payload = LintResponse {
            clean: report.is_clean(),
            errors: report.error_count(),
            warnings: report.warning_count(),
            diagnostics: report.diagnostics,
        };
        match serde_json::to_string(&payload) {
            Ok(json) => Response::json(200, json),
            Err(e) => internal_error(&e),
        }
    }

    fn handle_healthz(&self, _req: &Request, _cancel: &CancelToken) -> Response {
        let designs = chatls_designs::benchmarks().len() + chatls_designs::database_designs().len();
        let shard = match self.shard {
            Some(id) => id.to_string(),
            None => "null".to_string(),
        };
        Response::json(
            200,
            format!(
                "{{\"status\": \"ok\", \"designs\": {designs}, \"pooled\": {}, \
                 \"pool_capacity\": {}, \"pid\": {}, \"shard\": {shard}}}\n",
                self.pool.len(),
                self.pool.capacity(),
                std::process::id(),
            ),
        )
    }

    fn handle_metrics(&self, _req: &Request, _cancel: &CancelToken) -> Response {
        crate::eval::sync_eval_gauges();
        Response::text(200, chatls_obs::render_metrics_plain())
    }

    fn handle_telemetry(&self, _req: &Request, _cancel: &CancelToken) -> Response {
        Response::json(200, ObsCtx::global().telemetry_json())
    }

    /// `GET /v1/version`: build + protocol identity plus the feature
    /// `capabilities` list. The cluster router checks `protocol` here
    /// before admitting a shard to the ring — and only `protocol`, so
    /// capabilities it does not recognize never fail the handshake.
    fn handle_version(&self, _req: &Request, _cancel: &CancelToken) -> Response {
        let (label, caps): (String, &[&str]) = match self.shard {
            Some(id) => (id.to_string(), &["mcp", "sessions", "cluster"]),
            None => ("standalone".to_string(), &["mcp", "sessions"]),
        };
        Response::json(200, version_payload(&label, PROTOCOL_VERSION, caps))
    }
}

/// Uniform 500 envelope for response-serialization failures.
fn internal_error(err: &dyn std::fmt::Display) -> Response {
    Response::error(500, "internal", &format!("response serialization: {err}"))
}

impl AppHandler for ChatLsService {
    fn routes() -> Router<Self> {
        Router::new()
            .get("/healthz", "healthz", Self::handle_healthz)
            .get("/metrics", "metrics", Self::handle_metrics)
            .get("/telemetry", "telemetry", Self::handle_telemetry)
            .get("/v1/version", "version", Self::handle_version)
            .post("/v1/customize", "customize", Self::handle_customize)
            .post("/v1/eval", "eval", Self::handle_eval)
            .post("/v1/lint", "lint", Self::handle_lint)
            .post("/v1/mcp", "mcp", Self::handle_mcp)
            .post("/v1/session", "session", Self::handle_session_create)
            .post_prefix("/v1/session/", "session", Self::handle_session_subpath)
    }

    fn handle_streaming(
        &self,
        req: &Request,
        cancel: &CancelToken,
        stream: &mut std::net::TcpStream,
    ) -> Option<u16> {
        self.handle_session_streaming(req, cancel, stream)
    }

    fn handle(&self, req: &Request, cancel: &CancelToken) -> Response {
        let obs = ObsCtx::global();
        let _span = if obs.is_enabled() {
            Some(obs.span(&format!("serve.handle.{}", self.routes.label_of(req))))
        } else {
            None
        };
        self.routes.dispatch(self, req, cancel)
    }

    fn on_shutdown(&self) {
        // Refresh point-in-time gauges so the terminal telemetry sink
        // (run by the CLI after `Server::run` returns) sees final values.
        crate::eval::sync_eval_gauges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit_mentor::build_circuit_graph;
    use crate::database::DbConfig;
    use crate::testutil::quick_db;
    use std::sync::OnceLock;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            body: body.as_bytes().to_vec(),
            ..Default::default()
        }
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".to_string(), path: path.to_string(), ..Default::default() }
    }

    /// One shared service for the whole binary; tests that assert pool
    /// hit/miss use designs no other test touches. The capacity leaves
    /// headroom over the distinct designs the tests touch so no test can
    /// evict another's entry mid-assertion.
    fn service() -> &'static ChatLsService {
        static SVC: OnceLock<ChatLsService> = OnceLock::new();
        SVC.get_or_init(|| ChatLsService::new(ExpertDatabase::build(&DbConfig::quick()), 16))
    }

    #[test]
    fn healthz_reports_ok() {
        let svc = service();
        let resp = svc.handle(&get("/healthz"), &CancelToken::never());
        assert_eq!(resp.status, 200);
        let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap()).unwrap();
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let svc = service();
        assert_eq!(svc.handle(&get("/nope"), &CancelToken::never()).status, 404);
        assert_eq!(svc.handle(&post("/healthz", ""), &CancelToken::never()).status, 405);
        assert_eq!(svc.handle(&get("/v1/customize"), &CancelToken::never()).status, 405);
    }

    #[test]
    fn customize_returns_script_and_pool_warms_up() {
        let svc = service();
        let req = post("/v1/customize", "{\"design\": \"fft\", \"seed\": 0}");
        let cold = svc.handle(&req, &CancelToken::never());
        assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
        let cold_v = serde_json::parse_value(&String::from_utf8(cold.body).unwrap()).unwrap();
        assert_eq!(cold_v.get("pool").and_then(|v| v.as_str()), Some("miss"));
        let script = cold_v.get("script").and_then(|v| v.as_str()).unwrap().to_string();
        assert!(script.contains("create_clock"), "{script}");
        assert!(
            cold_v.get("qor").and_then(|q| q.get("area")).and_then(|a| a.as_f64()).unwrap() > 0.0
        );
        // Warm repeat: pool hit, identical script.
        let warm = svc.handle(&req, &CancelToken::never());
        let warm_v = serde_json::parse_value(&String::from_utf8(warm.body).unwrap()).unwrap();
        assert_eq!(warm_v.get("pool").and_then(|v| v.as_str()), Some("hit"));
        assert_eq!(warm_v.get("script").and_then(|v| v.as_str()), Some(script.as_str()));
    }

    #[test]
    fn customize_matches_direct_pipeline_output() {
        let svc = service();
        let resp =
            svc.handle(&post("/v1/customize", "{\"design\": \"aes\"}"), &CancelToken::never());
        let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap()).unwrap();
        let served = v.get("script").and_then(|s| s.as_str()).unwrap();
        // The one-shot path the CLI takes.
        let design = chatls_designs::by_name("aes").unwrap();
        let task = crate::pipeline::prepare_task(&design, DEFAULT_REQUEST);
        let outcome = ChatLs::new(quick_db()).customize(&design, &task, 0);
        assert_eq!(served, outcome.script(), "served script diverged from the CLI pipeline");
    }

    /// Stage 1 is memoized per pooled design: a repeat customize builds
    /// no circuit graph, and the memo holds exactly the embedding a fresh
    /// CircuitMentor pass computes — for a catalog and an inline design.
    #[test]
    fn warm_customize_reuses_the_memoized_stage_one_embedding() {
        let svc = service();
        // Stage 1 runs on the calling thread, so this thread's count is
        // this test's alone.
        let graphs = || crate::circuit_mentor::GRAPH_BUILDS.with(|n| n.get());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let inline = "{\"verilog\": \"module memo_probe(input clk, input a, input b, \
                      output reg y); always @(posedge clk) y <= a | b; endmodule\", \
                      \"top\": \"memo_probe\"}";
        for body in ["{\"design\": \"riscv32i\"}", inline] {
            let design =
                ChatLsService::resolve_design(&serde_json::parse_value(body).unwrap()).unwrap();
            let script = |resp: Response| {
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap()).unwrap();
                v.get("script").and_then(|s| s.as_str()).unwrap().to_string()
            };
            let before = graphs();
            let cold = script(svc.handle(&post("/v1/customize", body), &CancelToken::never()));
            assert_eq!(graphs() - before, 1, "{}: first use computes stage 1", design.name);
            let before = graphs();
            let warm = script(svc.handle(&post("/v1/customize", body), &CancelToken::never()));
            assert_eq!(graphs(), before, "{}: a warm customize built a circuit graph", design.name);
            assert_eq!(warm, cold);
            let (prepared, hit) = svc.prepared(&design, &CancelToken::never()).unwrap();
            assert!(hit, "{}: pooled entry evicted mid-test", design.name);
            let memo = prepared.embedding().get().expect("stage 1 memoized on first use");
            let fresh = svc.db().mentor().design_embedding(&build_circuit_graph(&design));
            assert_eq!(bits(memo), bits(&fresh), "{}: memoized embedding differs", design.name);
        }
    }

    #[test]
    fn eval_scores_batches_in_request_order() {
        let svc = service();
        // `lenient` lets the unlintable third script through to runtime
        // scoring (where it earns its `ok: false`).
        let body = "{\"design\": \"simd\", \"lenient\": true, \"scripts\": [\
            \"create_clock -period 1.4 [get_ports clk]\\ncompile\\n\", \
            \"create_clock -period 1.4 [get_ports clk]\\ncompile -map_effort high\\n\", \
            \"definitely not tcl (\\n\"]}";
        let resp = svc.handle(&post("/v1/eval", body), &CancelToken::never());
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap()).unwrap();
        let results = v.get("results").and_then(|r| r.as_array()).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("ok").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(results[1].get("ok").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(results[2].get("ok").and_then(|b| b.as_bool()), Some(false));
    }

    #[test]
    fn inline_verilog_is_accepted_and_garbage_is_400() {
        let svc = service();
        let ok = svc.handle(
            &post(
                "/v1/eval",
                "{\"verilog\": \"module t(input a, input b, output y); assign y = a ^ b; endmodule\", \
                 \"top\": \"t\", \"lenient\": true, \"script\": \"compile\\n\"}",
            ),
            &CancelToken::never(),
        );
        assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));
        let bad = svc.handle(
            &post(
                "/v1/eval",
                "{\"verilog\": \"module broken(\", \"top\": \"broken\", \"script\": \"compile\"}",
            ),
            &CancelToken::never(),
        );
        assert_eq!(bad.status, 400);
        let missing = svc.handle(
            &post("/v1/customize", "{\"design\": \"no_such_design\"}"),
            &CancelToken::never(),
        );
        assert_eq!(missing.status, 404);
    }

    #[test]
    fn task_cache_stays_bounded_under_distinct_request_strings() {
        let svc = service();
        // A one-gate inline design keeps the per-request baseline run cheap.
        let body = serde_json::parse_value(
            "{\"verilog\": \"module taskcache_probe(input a, input b, output y); \
             assign y = a & b; endmodule\", \"top\": \"taskcache_probe\"}",
        )
        .unwrap();
        let design = ChatLsService::resolve_design(&body).unwrap();
        let (prepared, _) = svc.prepared(&design, &CancelToken::never()).unwrap();
        let scope = prepared.scoped_template();
        for i in 0..TASK_CACHE_CAP + 5 {
            let req = format!("request variant {i}");
            svc.task_for(&design, &prepared, &scope, &req, &CancelToken::never()).unwrap();
        }
        let guard = prepared.tasks.lock().unwrap();
        let len = guard.entries.len();
        assert!(len <= TASK_CACHE_CAP, "task cache grew to {len}");
        let newest = format!("request variant {}", TASK_CACHE_CAP + 4);
        assert!(guard.entries.contains_key(&newest), "most recent request must stay cached");
    }

    #[test]
    fn eval_rejects_error_scripts_at_admission() {
        let svc = service();
        // SL007 (compile with no clock) is error severity: rejected
        // before any session or synthesis work happens.
        let resp = svc.handle(
            &post("/v1/eval", "{\"design\": \"simd\", \"script\": \"compile\\n\"}"),
            &CancelToken::never(),
        );
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap()).unwrap();
        let err = v.get("error").expect("rejection must use the uniform error envelope");
        assert_eq!(err.get("code").and_then(|c| c.as_str()), Some("lint_rejected"));
        let details = err.get("details").expect("lint_rejected carries details");
        assert_eq!(details.get("script_index").and_then(|i| i.as_u64()), Some(0));
        let diags = details.get("diagnostics").and_then(|d| d.as_array()).unwrap();
        assert!(
            diags.iter().any(|d| d.get("code").and_then(|c| c.as_str()) == Some("SL007")),
            "rejection must carry the triggering diagnostic"
        );
        // The lenient escape hatch admits the same script for runtime
        // scoring (it earns an `ok: false` instead of a 400).
        let lenient = svc.handle(
            &post(
                "/v1/eval",
                "{\"design\": \"simd\", \"lenient\": true, \"script\": \"compile\\n\"}",
            ),
            &CancelToken::never(),
        );
        assert_eq!(lenient.status, 200, "{}", String::from_utf8_lossy(&lenient.body));
    }

    #[test]
    fn lint_endpoint_reports_semantic_diagnostics() {
        let svc = service();
        // SL016: the first fanout write is dead (overwritten unread).
        let resp = svc.handle(
            &post(
                "/v1/lint",
                "{\"script\": \"create_clock -period 1.0 [get_ports clk]\\n\
                 set_max_fanout 16\\nset_max_fanout 8\\ncompile\\n\"}",
            ),
            &CancelToken::never(),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap()).unwrap();
        assert_eq!(v.get("errors").and_then(|e| e.as_u64()), Some(0));
        assert_eq!(v.get("clean").and_then(|c| c.as_bool()), Some(false));
        let diags = v.get("diagnostics").and_then(|d| d.as_array()).unwrap();
        assert!(diags.iter().any(|d| d.get("code").and_then(|c| c.as_str()) == Some("SL016")));
        // Naming a design enables the netlist-aware rules (SL013).
        let ctx = svc.handle(
            &post(
                "/v1/lint",
                "{\"design\": \"fft\", \"script\": \"create_clock -period 1.0 \
                 [get_ports no_such_port]\\ncompile\\n\"}",
            ),
            &CancelToken::never(),
        );
        assert_eq!(ctx.status, 200, "{}", String::from_utf8_lossy(&ctx.body));
        let cv = serde_json::parse_value(&String::from_utf8(ctx.body).unwrap()).unwrap();
        let cdiags = cv.get("diagnostics").and_then(|d| d.as_array()).unwrap();
        assert!(cdiags.iter().any(|d| d.get("code").and_then(|c| c.as_str()) == Some("SL013")));
        // Method and body validation.
        assert_eq!(svc.handle(&get("/v1/lint"), &CancelToken::never()).status, 405);
        assert_eq!(svc.handle(&post("/v1/lint", "{}"), &CancelToken::never()).status, 400);
    }

    #[test]
    fn equivalent_scripts_share_one_qor_cache_entry() {
        let svc = service();
        // A dedicated inline design keeps this test's cache keys disjoint
        // from every other test sharing the global QorCache.
        let verilog = "module canonprobe(input clk, input a, input b, output reg y); \
                       always @(posedge clk) y <= a & b; endmodule";
        let a = "create_clock -period 1.1 [get_ports clk]\nset_max_fanout 8\ncompile\nreport_qor\n";
        let b = "# same constraints, different spelling\nlink\nset_max_fanout 16\n\
                 set_max_fanout 8\ncreate_clock -period 1.1 [get_ports clk]\ncompile\n";
        let req = |script: &str| {
            post(
                "/v1/eval",
                &format!(
                    "{{\"verilog\": {}, \"top\": \"canonprobe\", \"script\": {}}}",
                    serde_json::to_string(&verilog).unwrap(),
                    serde_json::to_string(&script).unwrap()
                ),
            )
        };
        let first = svc.handle(&req(a), &CancelToken::never());
        assert_eq!(first.status, 200, "{}", String::from_utf8_lossy(&first.body));
        let body = serde_json::parse_value(&format!(
            "{{\"verilog\": {}, \"top\": \"canonprobe\"}}",
            serde_json::to_string(&verilog).unwrap()
        ))
        .unwrap();
        let design = ChatLsService::resolve_design(&body).unwrap();
        let fp = crate::eval::design_fingerprint(&design);
        // Script b was never evaluated, yet its canonical key is already
        // resident: semantic canonicalization collapsed it onto a's entry.
        assert!(
            QorCache::global().contains(fp, b),
            "equivalent script must map to the already-cached key"
        );
        let hits_before = QorCache::global().stats().hits;
        let second = svc.handle(&req(b), &CancelToken::never());
        assert_eq!(second.status, 200, "{}", String::from_utf8_lossy(&second.body));
        assert!(
            QorCache::global().stats().hits > hits_before,
            "second eval must be served from the cache, not re-synthesized"
        );
        // And the responses carry bitwise-identical QoR.
        let qa = serde_json::parse_value(&String::from_utf8(first.body).unwrap()).unwrap();
        let qb = serde_json::parse_value(&String::from_utf8(second.body).unwrap()).unwrap();
        let pick = |v: &serde::Value| {
            serde_json::to_string(
                v.get("results").and_then(|r| r.as_array()).unwrap()[0].get("qor").unwrap(),
            )
            .unwrap()
        };
        assert_eq!(pick(&qa), pick(&qb));
    }

    /// Tentpole: N concurrent cold requests for one design coalesce onto
    /// a single template build. Exactly one response reports a pool miss
    /// (the builder); everyone else resumes from its build and reports a
    /// hit — and all responses are byte-identical once the pool field is
    /// normalized. (Exact build/waiter counts are locked deterministically
    /// by the pool-level tests in `chatls-serve`.)
    #[test]
    fn concurrent_cold_requests_coalesce_onto_one_build() {
        let svc = service();
        // A dedicated inline design: this test owns its fingerprint.
        let body = "{\"verilog\": \"module coalesce_probe(input clk, input a, input b, \
                     output reg y); always @(posedge clk) y <= a ^ b; endmodule\", \
                     \"top\": \"coalesce_probe\", \"seed\": 0}";
        let bodies: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let resp = svc.handle(&post("/v1/customize", body), &CancelToken::never());
                        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                        resp.body
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let misses = bodies
            .iter()
            .filter(|b| String::from_utf8_lossy(b).contains("\"pool\":\"miss\""))
            .count();
        assert_eq!(misses, 1, "exactly one request may build; the rest must coalesce");
        // Byte-identical modulo the pool-accounting field.
        let normalize =
            |b: &[u8]| String::from_utf8_lossy(b).replace("\"pool\":\"hit\"", "\"pool\":\"miss\"");
        let first = normalize(&bodies[0]);
        for b in &bodies[1..] {
            assert_eq!(normalize(b), first, "coalesced responses must be byte-identical");
        }
    }

    /// A builder whose deadline already fired answers 504 without paying
    /// the template build, and the next request rebuilds cleanly — a
    /// cancelled build never poisons the pool.
    #[test]
    fn cancelled_builder_yields_504_and_next_request_rebuilds() {
        let svc = service();
        let body = "{\"verilog\": \"module cancel_probe(input clk, input a, output reg y); \
                     always @(posedge clk) y <= ~a; endmodule\", \"top\": \"cancel_probe\"}";
        let fired = CancelToken::new();
        fired.cancel();
        let resp = svc.handle(&post("/v1/customize", body), &fired);
        assert_eq!(resp.status, 504, "{}", String::from_utf8_lossy(&resp.body));
        let retry = svc.handle(&post("/v1/customize", body), &CancelToken::never());
        assert_eq!(retry.status, 200, "{}", String::from_utf8_lossy(&retry.body));
        let v = serde_json::parse_value(&String::from_utf8(retry.body).unwrap()).unwrap();
        assert_eq!(
            v.get("pool").and_then(|p| p.as_str()),
            Some("miss"),
            "the cancelled build must not have left an entry behind"
        );
    }

    /// Warming builds absent designs exactly once and subsequent traffic
    /// hits the warmed entry.
    #[test]
    fn warm_design_prebuilds_the_pool_entry() {
        let svc = service();
        let design = chatls_designs::by_name("sha3").unwrap();
        assert!(svc.warm_design(&design), "first warm must build");
        assert!(!svc.warm_design(&design), "second warm must be a no-op");
        let resp =
            svc.handle(&post("/v1/customize", "{\"design\": \"sha3\"}"), &CancelToken::never());
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap()).unwrap();
        assert_eq!(
            v.get("pool").and_then(|p| p.as_str()),
            Some("hit"),
            "traffic after warming must hit the pool"
        );
    }

    /// The warmer pre-builds its catalog and returns — driven here with
    /// tiny inline designs, a private pool and a fast pace.
    #[test]
    fn pool_warmer_prebuilds_the_catalog() {
        let gen = |name: &str| GeneratedDesign {
            name: format!("warmprobe_{name}"),
            category: chatls_designs::Category::VectorArithmetic,
            source: format!(
                "module warmprobe_{name}(input clk, input a, output reg y); \
                 always @(posedge clk) y <= a; endmodule"
            ),
            top: format!("warmprobe_{name}"),
            modules: Vec::new(),
            default_period: 1.0,
        };
        let catalog = vec![gen("a"), gen("b")];
        let pool: SessionPool<PreparedDesign, Response> = SessionPool::new(2);
        run_pool_warmer(&pool, &catalog, &CancelToken::new(), Duration::from_millis(1));
        assert_eq!(pool.stats().warmed, 2);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn fired_deadline_yields_504_and_does_not_poison_the_pool() {
        let svc = service();
        // Warm the pool first so the cancelled request hits the warm path.
        let req = post("/v1/customize", "{\"design\": \"dynamic_node\"}");
        assert_eq!(svc.handle(&req, &CancelToken::never()).status, 200);
        let fired = CancelToken::new();
        fired.cancel();
        let resp = svc.handle(&req, &fired);
        assert_eq!(resp.status, 504, "{}", String::from_utf8_lossy(&resp.body));
        // The pooled template must still serve good responses.
        let again = svc.handle(&req, &CancelToken::never());
        assert_eq!(again.status, 200);
    }

    /// Every non-2xx body carries the uniform error envelope with a
    /// stable machine-readable code.
    #[test]
    fn error_responses_use_the_uniform_envelope() {
        let svc = service();
        let cancel = CancelToken::never();
        let code_of = |resp: Response| {
            let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap())
                .expect("error body must be JSON");
            let err = v.get("error").expect("error body must have an \"error\" object").clone();
            assert!(err.get("message").and_then(|m| m.as_str()).is_some());
            err.get("code").and_then(|c| c.as_str()).unwrap().to_string()
        };
        assert_eq!(code_of(svc.handle(&get("/nope"), &cancel)), "not_found");
        assert_eq!(code_of(svc.handle(&post("/healthz", ""), &cancel)), "method_not_allowed");
        assert_eq!(code_of(svc.handle(&post("/v1/eval", "not json"), &cancel)), "bad_request");
        assert_eq!(
            code_of(svc.handle(&post("/v1/customize", "{\"design\": \"nope\"}"), &cancel)),
            "unknown_design"
        );
        assert_eq!(
            code_of(svc.handle(
                &post(
                    "/v1/eval",
                    "{\"verilog\": \"module broken(\", \"top\": \"broken\", \
                     \"script\": \"compile\"}"
                ),
                &cancel
            )),
            "invalid_verilog"
        );
        let fired = CancelToken::new();
        fired.cancel();
        assert_eq!(
            code_of(svc.handle(&post("/v1/customize", "{\"design\": \"fft\"}"), &fired)),
            "deadline_exceeded"
        );
    }

    #[test]
    fn version_endpoint_reports_identity_and_protocol() {
        let svc = service();
        let resp = svc.handle(&get("/v1/version"), &CancelToken::never());
        assert_eq!(resp.status, 200);
        let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap()).unwrap();
        assert_eq!(v.get("protocol").and_then(|p| p.as_u64()), Some(PROTOCOL_VERSION as u64));
        assert_eq!(v.get("shard").and_then(|s| s.as_str()), Some("standalone"));
        let caps: Vec<&str> = v
            .get("capabilities")
            .and_then(|c| c.as_array())
            .expect("version payload lists capabilities")
            .iter()
            .filter_map(|c| c.as_str())
            .collect();
        assert_eq!(caps, ["mcp", "sessions"], "standalone daemon capabilities");
        assert!(v.get("git").and_then(|g| g.as_str()).is_some());
        let profile = v.get("profile").and_then(|p| p.as_str()).unwrap();
        assert!(profile == "debug" || profile == "release", "{profile}");
    }

    #[test]
    fn healthz_reports_pid_and_shard() {
        let svc = service();
        let resp = svc.handle(&get("/healthz"), &CancelToken::never());
        let v = serde_json::parse_value(&String::from_utf8(resp.body).unwrap()).unwrap();
        assert_eq!(v.get("pid").and_then(|p| p.as_u64()), Some(std::process::id() as u64));
        assert!(v.get("shard").unwrap().is_null(), "standalone daemon reports shard: null");
    }
}
