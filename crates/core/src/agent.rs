//! AgentGate: the agent-facing front end.
//!
//! Two surfaces, both dispatching into [`ChatLsService`] so results are
//! byte-identical to the CLI and the plain HTTP endpoints:
//!
//! - **MCP tools** — [`ChatLsService`] implements
//!   [`chatls_mcp::ToolBackend`], exposing `customize`, `eval` and `lint`
//!   as Model Context Protocol tools. The same dispatcher serves both
//!   transports: `chatls mcp` (JSON-RPC 2.0 over stdio) and
//!   `POST /v1/mcp` on the HTTP daemon.
//! - **Streaming sessions** — `POST /v1/session` creates a long-lived
//!   session pinned to a pooled [`PreparedDesign`];
//!   `POST /v1/session/{id}/turn` streams the turn's progress as
//!   Server-Sent Events (pipeline stages, chain-of-thought revision
//!   steps, per-command QoR deltas, the final script and result). Turn
//!   2+ reuses the session's mapped design, its memoized stage-1
//!   embedding *and* the previous turn's incremental-STA state: the
//!   template is never rebuilt, no circuit graph is built, and the timing
//!   graph arrives pre-allocated (invalidated, so correctness never
//!   depends on carried timing values).
//!
//! SSE event vocabulary, in emission order per turn: `turn` (header),
//! `stage` ×4 (`embed`/`retrieve`/`draft`/`refine`), `thought` per
//! revision step, `script`, then either `qor_delta` per executed command
//! (live synthesis) or one `qor_cached` (QorCache hit), and finally
//! `result` — or `error` with the stable envelope code vocabulary
//! (`deadline_exceeded`, …) if the turn aborts.
//!
//! A client that disconnects mid-stream fires the turn's cancel token at
//! the next event emission; the synthesis run aborts cooperatively, the
//! truncated QoR is never memoized (the cache's cancelled-run rule), and
//! the session is released un-poisoned for the next turn.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use chatls_designs::GeneratedDesign;
use chatls_exec::{CancelToken, Cancelled};
use chatls_mcp::{ToolBackend, ToolError, ToolOutput};
use chatls_serve::{json_escape, EventSink, Request, Response, SseWriter, TurnError};
use chatls_synth::{CommandObserver, QorReport, SessionTemplate, TimingGraph};
use serde::{Serialize, Value};

use crate::eval::{design_fingerprint, run_carried, QorCache};
use crate::llm::{TaskContext, TimingSummary};
use crate::pipeline::{ChatLs, PipelineEvent};
use crate::service::{ChatLsService, PreparedDesign};

/// Most streaming sessions the registry holds before evicting the
/// least-recently-used idle one.
pub const STREAM_SESSION_CAPACITY: usize = 64;

/// Idle time after which a session expires (no turn claimed it).
pub const STREAM_SESSION_IDLE_TTL: Duration = Duration::from_secs(300);

/// Synthetic HTTP status recorded for turns aborted by a client
/// disconnect (the SSE head was already written as 200; this value only
/// feeds the `serve.http.*` counters).
pub const CLIENT_GONE: u16 = 499;

/// State carried from one turn to the next.
#[derive(Default)]
struct TurnState {
    /// Completed turns (the next turn's 0-based index).
    turns_done: u64,
    /// The previous turn's task context, its baseline rewritten from the
    /// measured run by the feedback rule [`ChatLs::iterate`] shares.
    task: Option<TaskContext>,
    /// The previous turn's timing graph, detached after the final
    /// synthesis run. Re-attached (and invalidated) on the next turn so
    /// the arena allocations survive across turns.
    graph: Option<TimingGraph>,
}

/// One long-lived streaming session: the resolved design pinned to its
/// pooled warm state, plus the turn-to-turn carryover.
///
/// The [`Arc<PreparedDesign>`] pin is the warm-turn guarantee: however
/// the session pool churns between turns, this session's template stays
/// alive and mapped, so turn 2+ never triggers a template rebuild
/// (`PoolStats::builds` stays flat). The session synthesizes through its
/// own scoped copy of that template, so the turn-1 baseline and every
/// turn's run share one cleanup memo, dropped with the session.
pub struct AgentSession {
    design: GeneratedDesign,
    prepared: Arc<PreparedDesign>,
    template: SessionTemplate,
    turns: Mutex<TurnState>,
}

impl AgentSession {
    /// A fresh session over `design`, pinned to its pooled `prepared`
    /// state.
    pub fn new(design: GeneratedDesign, prepared: Arc<PreparedDesign>) -> Self {
        let template = prepared.scoped_template();
        Self { design, prepared, template, turns: Mutex::new(TurnState::default()) }
    }

    /// The design this session customizes.
    pub fn design(&self) -> &GeneratedDesign {
        &self.design
    }

    /// Completed turns so far.
    pub fn turns_done(&self) -> u64 {
        self.turns.lock().expect("agent session poisoned").turns_done
    }

    /// Whether a detached timing graph is waiting for the next turn.
    pub fn has_carried_graph(&self) -> bool {
        self.turns.lock().expect("agent session poisoned").graph.is_some()
    }

    /// Runs `script` through the carried-graph run on the pinned
    /// template, re-attaching the previous turn's timing graph (if any)
    /// and streaming per-command [`chatls_synth::CommandEvent`]s through
    /// `observer`. A completed run stores its timing graph for the next
    /// turn and returns its QoR, validity and the next turn's baseline
    /// ([`TimingSummary::from_run`]). A cancelled run discards the graph
    /// with the aborted session (truncated STA state must not survive).
    fn synthesize(
        &self,
        script: &str,
        cancel: &CancelToken,
        observer: CommandObserver,
    ) -> Result<(QorReport, bool, TimingSummary), Cancelled> {
        let carried = self.turns.lock().expect("agent session poisoned").graph.take();
        if carried.is_some() {
            chatls_obs::counter("serve.session.sta_carryover").inc();
        }
        let (qor, ok, mut session) =
            run_carried(&self.template, script, carried, cancel, Some(observer))?;
        let next = TimingSummary::from_run(&qor, &session.timing_report());
        self.turns.lock().expect("agent session poisoned").graph =
            Some(session.detach_timing_graph());
        Ok((qor, ok, next))
    }
}

/// Builds a JSON object [`Value`] from key/value pairs.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// Event emission wrapper that turns a failed write (client hung up)
/// into cooperative turn cancellation: the token fires, the pipeline and
/// the synthesis run abort at their next checkpoint, and nothing else is
/// emitted.
struct TurnEmitter<'a> {
    sink: &'a mut dyn EventSink,
    turn_cancel: CancelToken,
    client_gone: bool,
}

impl TurnEmitter<'_> {
    fn emit(&mut self, event: &str, data: &Value) {
        if self.client_gone {
            return;
        }
        let payload = serde_json::to_string(data).unwrap_or_else(|_| "{}".to_string());
        if self.sink.emit(event, &payload).is_err() {
            self.client_gone = true;
            self.turn_cancel.cancel();
            chatls_obs::counter("serve.session.disconnects").inc();
        }
    }

    fn error(&mut self, code: &str, message: &str) {
        self.emit("error", &obj(vec![("code", s(code)), ("message", s(message))]));
    }
}

impl ChatLsService {
    /// `POST /v1/session`: create a streaming session for the body's
    /// design (same design keys as `/v1/customize`). Answers `201` with
    /// the session id; the template build (on a cold pool) happens here,
    /// so every subsequent turn starts warm.
    pub(crate) fn handle_session_create(&self, req: &Request, cancel: &CancelToken) -> Response {
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
        let (prepared, pool_hit) = match self.prepared(&design, cancel) {
            Ok(p) => p,
            Err(resp) => return resp,
        };
        let name = design.name.clone();
        let id = self.sessions().create(AgentSession::new(design, prepared));
        Response::json(
            201,
            format!(
                "{{\"session\": {}, \"design\": {}, \"pool\": \"{}\"}}\n",
                json_escape(&id),
                json_escape(&name),
                if pool_hit { "hit" } else { "miss" },
            ),
        )
    }

    /// Non-streaming `POST /v1/session/{id}/...` dispatch: `/close`
    /// deletes the session; `/turn` only exists as an SSE stream (the
    /// server routes it through [`ChatLsService::handle_session_streaming`]
    /// before this table is consulted, so reaching here means a
    /// non-streaming transport such as the cluster router proxied it).
    pub(crate) fn handle_session_subpath(&self, req: &Request, _cancel: &CancelToken) -> Response {
        let Some(rest) = req.path.strip_prefix("/v1/session/") else {
            return Response::error(404, "not_found", "no such endpoint");
        };
        if let Some(id) = rest.strip_suffix("/close") {
            return if self.sessions().remove(id) {
                Response::json(200, "{\"closed\": true}\n".to_string())
            } else {
                Response::error(404, "unknown_session", "no such session (expired or evicted?)")
            };
        }
        if rest.ends_with("/turn") {
            return Response::error(
                400,
                "streaming_only",
                "session turns stream as Server-Sent Events; connect to the daemon directly",
            );
        }
        Response::error(404, "not_found", "session endpoints: POST {id}/turn, POST {id}/close")
    }

    /// The streaming hook: intercepts `POST /v1/session/{id}/turn` and
    /// serves it as an SSE stream over the raw connection. Pre-stream
    /// failures (bad body, unknown or busy session) answer as plain
    /// enveloped HTTP errors — nothing SSE has been written yet.
    pub(crate) fn handle_session_streaming(
        &self,
        req: &Request,
        cancel: &CancelToken,
        stream: &mut std::net::TcpStream,
    ) -> Option<u16> {
        if req.method != "POST" {
            return None;
        }
        let id = req.path.strip_prefix("/v1/session/")?.strip_suffix("/turn")?;
        if id.is_empty() {
            return None;
        }
        let body = req.body_text();
        let outcome = {
            let mut writer = SseWriter::new(stream);
            self.run_turn(id, &body, &mut writer, cancel)
        };
        match outcome {
            Ok(status) => Some(status),
            Err(resp) => {
                let status = resp.status;
                resp.write_to(stream);
                Some(status)
            }
        }
    }

    /// Runs one session turn, streaming progress into `sink`.
    ///
    /// Public within the crate behind the transport adapters so tests can
    /// drive turns with a [`chatls_serve::BufferSink`] (including its
    /// deterministic mid-stream disconnect mode) without a socket.
    ///
    /// # Errors
    ///
    /// A pre-stream failure — malformed body, unknown session (404),
    /// busy session (409) — returns the plain HTTP [`Response`] to send
    /// instead of a stream; `sink` is untouched in that case.
    pub fn run_turn(
        &self,
        id: &str,
        body: &str,
        sink: &mut dyn EventSink,
        cancel: &CancelToken,
    ) -> Result<u16, Response> {
        let body = serde_json::parse_value(body)
            .map_err(|e| Response::error(400, "bad_request", &format!("invalid JSON body: {e}")))?;
        let session = self.sessions().begin_turn(id).map_err(|e| match e {
            TurnError::Unknown => {
                Response::error(404, "unknown_session", "no such session (expired or evicted?)")
            }
            TurnError::Busy => {
                Response::error(409, "session_busy", "another turn is in flight on this session")
            }
        })?;
        chatls_obs::counter("serve.session.turns").inc();
        let status = self.stream_turn(id, &session, &body, sink, cancel);
        self.sessions().end_turn(id);
        Ok(status)
    }

    /// The turn body proper: session claimed, events flowing.
    fn stream_turn(
        &self,
        id: &str,
        session: &AgentSession,
        body: &Value,
        sink: &mut dyn EventSink,
        cancel: &CancelToken,
    ) -> u16 {
        // The turn token mirrors the request deadline and additionally
        // fires on client disconnect; the request token itself is polled
        // at every event emission.
        let turn_cancel = match cancel.deadline() {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::new(),
        };
        let mut emitter =
            TurnEmitter { sink, turn_cancel: turn_cancel.clone(), client_gone: false };

        let seed = body.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
        let (turn_index, carried_task) = {
            let state = session.turns.lock().expect("agent session poisoned");
            (state.turns_done, state.task.clone())
        };
        // Default request: turn 1 matches the CLI; later turns keep the
        // session's previous goal unless the body names a new one.
        let request = body
            .get("request")
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .or_else(|| carried_task.as_ref().map(|t| t.user_request.clone()))
            .unwrap_or_else(|| crate::service::DEFAULT_REQUEST.to_string());
        // Turn-offset seed: a repeated request on the next turn explores a
        // different customization instead of replaying the last one.
        let eff_seed = seed.wrapping_add(turn_index);

        emitter.emit(
            "turn",
            &obj(vec![
                ("session", s(id)),
                ("turn", Value::U64(turn_index)),
                ("design", s(&session.design.name)),
                ("request", s(&request)),
                ("seed", Value::U64(eff_seed)),
                ("sta", s(if session.has_carried_graph() { "carried" } else { "fresh" })),
            ]),
        );

        // Task context: turn 1 pays (or shares) the baseline synthesis
        // run; turn 2+ rewrites the carried task's baseline from the
        // previous turn's measured QoR — no pool access, no rebuilds.
        let task = match carried_task {
            Some(mut task) => {
                task.user_request = request.clone();
                task
            }
            None => {
                let (design, prepared) = (&session.design, &session.prepared);
                match self.task_for(design, prepared, &session.template, &request, &turn_cancel) {
                    Ok(task) => task,
                    Err(Cancelled) => {
                        emitter.error(
                            "deadline_exceeded",
                            "deadline exceeded during baseline synthesis",
                        );
                        return if emitter.client_gone { CLIENT_GONE } else { 200 };
                    }
                }
            }
        };

        // The pipeline, streaming stage starts and chain-of-thought steps.
        let chatls = ChatLs::new(self.db());
        let outcome = {
            let emitter = &mut emitter;
            let request_cancel = cancel;
            let mut progress = |event: PipelineEvent<'_>| {
                if request_cancel.is_cancelled() {
                    emitter.turn_cancel.cancel();
                }
                match event {
                    PipelineEvent::Stage { name } => {
                        emitter.emit("stage", &obj(vec![("name", s(name))]))
                    }
                    PipelineEvent::Thought(step) => emitter.emit("thought", &step.serialize()),
                }
            };
            chatls.try_customize(
                &session.design,
                session.prepared.embedding(),
                &task,
                eff_seed,
                &turn_cancel,
                &mut progress,
            )
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(Cancelled) => {
                emitter.error("deadline_exceeded", "turn cancelled during script customization");
                return if emitter.client_gone { CLIENT_GONE } else { 200 };
            }
        };
        let script = outcome.script().to_string();
        emitter.emit("script", &obj(vec![("script", s(&script))]));

        // Final synthesis: QorCache hit answers instantly; a live run
        // streams one `qor_delta` per executed command through the
        // session's observer while this thread drains and emits them.
        let fp = design_fingerprint(&session.design);
        // Hand-off slot for the next turn's baseline computed inside the
        // run closure, whose return type the cache fixes to `(QoR, ok)`.
        let fed: Mutex<Option<TimingSummary>> = Mutex::new(None);
        let (qor, ok, qor_source) = match QorCache::global().peek(fp, &script) {
            Some((qor, ok)) => {
                emitter.emit(
                    "qor_cached",
                    &obj(vec![("ok", Value::Bool(ok)), ("qor", qor.serialize())]),
                );
                (qor, ok, "cache")
            }
            None => {
                let run = std::thread::scope(|scope| {
                    let (tx, rx) = mpsc::channel::<chatls_synth::CommandEvent>();
                    let observer = CommandObserver::new(move |event| {
                        let _ = tx.send(event.clone());
                    });
                    let runner_cancel = turn_cancel.clone();
                    let script = &script;
                    let fed = &fed;
                    let runner = scope.spawn(move || {
                        QorCache::global().get_or_run_cancellable(fp, script, || {
                            session.synthesize(script, &runner_cancel, observer).map(
                                |(qor, ok, next)| {
                                    *fed.lock().expect("baseline hand-off poisoned") = Some(next);
                                    (qor, ok)
                                },
                            )
                        })
                    });
                    for event in rx {
                        emitter.emit("qor_delta", &event.serialize());
                    }
                    runner.join()
                });
                match run {
                    Ok(Ok((qor, ok))) => (qor, ok, "run"),
                    Ok(Err(Cancelled)) => {
                        emitter.error(
                            "deadline_exceeded",
                            "turn cancelled during final synthesis; nothing was memoized",
                        );
                        return if emitter.client_gone { CLIENT_GONE } else { 200 };
                    }
                    Err(_) => {
                        emitter.error("internal", "synthesis runner panicked");
                        return if emitter.client_gone { CLIENT_GONE } else { 200 };
                    }
                }
            }
        };

        // Feed the measured result back into the next turn's context. A
        // session adopts every turn as its next baseline (where
        // `ChatLs::iterate` rejects a regressing round), and baseline_script
        // becomes this script. A cache-served QoR has no fresh report, so
        // the previous critical path stands.
        let baseline = fed.into_inner().expect("baseline hand-off poisoned").unwrap_or_else(|| {
            TimingSummary {
                wns: qor.wns,
                cps: qor.cps,
                tns: qor.tns,
                area: qor.area,
                ..task.baseline.clone()
            }
        });
        {
            let mut next = task.clone();
            next.baseline = baseline;
            next.baseline_script = script.clone();
            let mut state = session.turns.lock().expect("agent session poisoned");
            state.turns_done = turn_index + 1;
            state.task = Some(next);
        }

        emitter.emit(
            "result",
            &obj(vec![
                ("design", s(&session.design.name)),
                ("turn", Value::U64(turn_index)),
                ("seed", Value::U64(eff_seed)),
                ("ok", Value::Bool(ok)),
                ("script", s(&script)),
                ("qor", qor.serialize()),
                ("lint", outcome.lint_stats().serialize()),
                ("qor_source", s(qor_source)),
            ]),
        );
        if emitter.client_gone {
            CLIENT_GONE
        } else {
            200
        }
    }

    /// `POST /v1/mcp`: the HTTP face of the MCP dispatcher. One JSON-RPC
    /// message per request; notifications (no reply) answer `204`.
    pub(crate) fn handle_mcp(&self, req: &Request, cancel: &CancelToken) -> Response {
        match chatls_mcp::handle_message(self, &req.body_text(), cancel) {
            Some(reply) => Response::json(200, reply),
            None => Response::text(204, String::new()),
        }
    }
}

impl ToolBackend for ChatLsService {
    /// MCP tool dispatch. Results are byte-identical to the equivalent
    /// CLI/HTTP surface:
    ///
    /// - `customize` text = the final script, exactly `chatls customize`
    ///   stdout; structured content is the `/v1/customize` payload.
    /// - `eval` text = the `/v1/eval` response body (it runs through the
    ///   very same handler).
    /// - `lint` text = `chatls lint --json` stdout (pretty-printed
    ///   [`chatls_lint::LintReport`] plus trailing newline).
    fn call_tool(
        &self,
        tool: &str,
        args: &Value,
        cancel: &CancelToken,
    ) -> Result<ToolOutput, ToolError> {
        let envelope_err =
            |resp: Response| ToolError::from_envelope(&String::from_utf8_lossy(&resp.body));
        match tool {
            "customize" => {
                let payload = self.customize_payload(args, cancel).map_err(envelope_err)?;
                let structured = serde_json::to_string(&payload)
                    .ok()
                    .and_then(|json| serde_json::parse_value(&json).ok());
                Ok(ToolOutput { text: payload.script.clone(), structured })
            }
            "eval" => {
                let body = serde_json::to_string(args)
                    .map_err(|e| ToolError::new("internal", format!("serializing args: {e}")))?;
                let req = Request {
                    method: "POST".to_string(),
                    path: "/v1/eval".to_string(),
                    body: body.into_bytes(),
                    ..Default::default()
                };
                let resp = self.handle_eval(&req, cancel);
                let text = String::from_utf8_lossy(&resp.body).into_owned();
                if resp.status != 200 {
                    return Err(ToolError::from_envelope(&text));
                }
                let structured = serde_json::parse_value(&text).ok();
                Ok(ToolOutput { text, structured })
            }
            "lint" => {
                let Some(script) = args.get("script").and_then(|v| v.as_str()) else {
                    return Err(ToolError::new("bad_request", "lint needs a \"script\" string"));
                };
                let report = if args.get("design").is_some() || args.get("verilog").is_some() {
                    let design = Self::resolve_design(args).map_err(envelope_err)?;
                    chatls_lint::lint_script_for_design(script, &design.netlist())
                } else {
                    chatls_lint::lint_script(script)
                };
                chatls_obs::counter("core.lint.requests").inc();
                let mut text = serde_json::to_string_pretty(&report)
                    .map_err(|e| ToolError::new("internal", format!("serializing report: {e}")))?;
                text.push('\n');
                let structured = serde_json::parse_value(&text).ok();
                Ok(ToolOutput { text, structured })
            }
            other => Err(ToolError::new("not_found", format!("unknown tool '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{DbConfig, ExpertDatabase};
    use crate::pipeline::prepare_task;
    use chatls_serve::{AppHandler, BufferSink};
    use std::sync::OnceLock;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            body: body.as_bytes().to_vec(),
            ..Default::default()
        }
    }

    /// One shared service for this module (separate from the service.rs
    /// test instance; designs used here are either catalog reads or
    /// module-unique inline probes). Its pool-wide build count moves with
    /// every test, so tests that assert it exactly use
    /// [`private_service`].
    fn service() -> &'static ChatLsService {
        static SVC: OnceLock<ChatLsService> = OnceLock::new();
        SVC.get_or_init(private_service)
    }

    /// A service of the test's own: its pool's build count moves only
    /// with that test's requests, never with builds that tests running
    /// meanwhile add to the shared one.
    fn private_service() -> ChatLsService {
        ChatLsService::new(ExpertDatabase::build(&DbConfig::quick()), 16)
    }

    /// The `name`s of a turn's `stage` events, in order.
    fn stage_names(sink: &BufferSink) -> Vec<String> {
        sink.data_of("stage")
            .iter()
            .map(|d| {
                let v = serde_json::parse_value(d).unwrap();
                v.get("name").and_then(|n| n.as_str()).unwrap().to_string()
            })
            .collect()
    }

    fn never() -> CancelToken {
        CancelToken::never()
    }

    /// A tiny unique inline design (unique module name → unique design
    /// fingerprint → private pool entry and QorCache key space).
    fn inline_body(name: &str) -> String {
        format!(
            "{{\"verilog\": \"module {name}(input clk, input a, input b, output reg y); \
             always @(posedge clk) y <= a ^ b; endmodule\", \"top\": \"{name}\"}}"
        )
    }

    fn parse(body: &[u8]) -> Value {
        serde_json::parse_value(&String::from_utf8_lossy(body)).expect("JSON body")
    }

    #[test]
    fn mcp_tool_results_match_cli_and_http_surfaces() {
        let svc = service();
        // customize: text is exactly the CLI's stdout (the final script).
        let args = serde_json::parse_value("{\"design\": \"fft\", \"seed\": 0}").unwrap();
        let out = svc.call_tool("customize", &args, &never()).expect("customize tool");
        let design = chatls_designs::by_name("fft").unwrap();
        let task = prepare_task(&design, crate::service::DEFAULT_REQUEST);
        let outcome = ChatLs::new(svc.db()).customize(&design, &task, 0);
        assert_eq!(out.text, outcome.trace.script, "tool text must be the CLI script verbatim");
        let structured = out.structured.expect("customize returns structured content");
        assert_eq!(
            structured.get("script").and_then(|v| v.as_str()),
            Some(outcome.trace.script.as_str())
        );
        // eval: text is exactly the /v1/eval response body.
        let eval_args = serde_json::parse_value(
            "{\"design\": \"fft\", \"lenient\": true, \
             \"script\": \"create_clock -period 1.4 [get_ports clk]\\ncompile\\n\"}",
        )
        .unwrap();
        let eval_out = svc.call_tool("eval", &eval_args, &never()).expect("eval tool");
        let http =
            svc.handle(&post("/v1/eval", &serde_json::to_string(&eval_args).unwrap()), &never());
        assert_eq!(http.status, 200, "{}", String::from_utf8_lossy(&http.body));
        assert_eq!(eval_out.text.as_bytes(), &http.body[..], "eval text must be the endpoint body");
        // lint: text is exactly `chatls lint --json` stdout.
        let script = "create_clock -period 1.0 [get_ports clk]\nset_max_fanout 16\n\
                      set_max_fanout 8\ncompile\n";
        let lint_args = Value::Map(vec![("script".to_string(), Value::Str(script.to_string()))]);
        let lint_out = svc.call_tool("lint", &lint_args, &never()).expect("lint tool");
        let report = chatls_lint::lint_script(script);
        let mut expected = serde_json::to_string_pretty(&report).unwrap();
        expected.push('\n');
        assert_eq!(lint_out.text, expected, "lint text must be the CLI --json stdout verbatim");
        // Errors keep the stable envelope vocabulary across the MCP seam.
        let bad = serde_json::parse_value("{\"design\": \"no_such_design\"}").unwrap();
        let err = svc.call_tool("customize", &bad, &never()).unwrap_err();
        assert_eq!(err.code, "unknown_design");
    }

    #[test]
    fn mcp_http_endpoint_round_trips_jsonrpc() {
        let svc = service();
        let list = svc.handle(
            &post("/v1/mcp", "{\"jsonrpc\": \"2.0\", \"id\": 1, \"method\": \"tools/list\"}"),
            &never(),
        );
        assert_eq!(list.status, 200, "{}", String::from_utf8_lossy(&list.body));
        let v = parse(&list.body);
        let tools = v
            .get("result")
            .and_then(|r| r.get("tools"))
            .and_then(|t| t.as_array())
            .expect("tools array");
        assert_eq!(tools.len(), 3);
        // A notification gets no JSON-RPC reply: bare 204.
        let note = svc.handle(
            &post("/v1/mcp", "{\"jsonrpc\": \"2.0\", \"method\": \"notifications/initialized\"}"),
            &never(),
        );
        assert_eq!(note.status, 204);
        assert!(note.body.is_empty());
        // tools/call over HTTP produces the same text as the backend call
        // (i.e. the same bytes the stdio transport frames).
        let call = svc.handle(
            &post(
                "/v1/mcp",
                "{\"jsonrpc\": \"2.0\", \"id\": 2, \"method\": \"tools/call\", \"params\": \
                 {\"name\": \"customize\", \"arguments\": {\"design\": \"fft\", \"seed\": 0}}}",
            ),
            &never(),
        );
        assert_eq!(call.status, 200, "{}", String::from_utf8_lossy(&call.body));
        let cv = parse(&call.body);
        let text = cv
            .get("result")
            .and_then(|r| r.get("content"))
            .and_then(|c| c.as_array())
            .and_then(|c| c.first())
            .and_then(|c| c.get("text"))
            .and_then(|t| t.as_str())
            .expect("content[0].text");
        let args = serde_json::parse_value("{\"design\": \"fft\", \"seed\": 0}").unwrap();
        let direct = svc.call_tool("customize", &args, &never()).unwrap();
        assert_eq!(text, direct.text, "HTTP and direct dispatch must agree byte-for-byte");
    }

    /// Tentpole acceptance: a multi-turn session streams incremental
    /// events and its second turn reuses the mapped design and the
    /// incremental-STA state — zero template builds after turn 1.
    #[test]
    fn session_turns_stream_events_and_stay_warm() {
        let svc = &private_service();
        let create = svc.handle(&post("/v1/session", &inline_body("agent_warm_probe")), &never());
        assert_eq!(create.status, 201, "{}", String::from_utf8_lossy(&create.body));
        let cv = parse(&create.body);
        let id = cv.get("session").and_then(|s| s.as_str()).expect("session id").to_string();
        let builds_after_create = svc.pool().stats().builds;

        let mut sink = BufferSink::new();
        let status = svc.run_turn(&id, "{\"seed\": 0}", &mut sink, &never()).expect("turn 1");
        assert_eq!(status, 200);
        let names = sink.names();
        assert_eq!(names.first(), Some(&"turn"));
        assert_eq!(names.last(), Some(&"result"));
        assert_eq!(stage_names(&sink), ["embed", "retrieve", "draft", "refine"]);
        assert!(!sink.data_of("thought").is_empty(), "CoT revision steps must stream");
        assert_eq!(sink.data_of("script").len(), 1);
        // Fresh design → cache miss → live synthesis with per-command deltas.
        assert!(
            sink.data_of("qor_delta").len() >= 2,
            "live synthesis streams per-command QoR deltas: {names:?}"
        );
        let turn1 = serde_json::parse_value(sink.data_of("turn")[0]).unwrap();
        assert_eq!(turn1.get("turn").and_then(|t| t.as_u64()), Some(0));
        assert_eq!(turn1.get("sta").and_then(|s| s.as_str()), Some("fresh"));
        let result1 = serde_json::parse_value(sink.data_of("result")[0]).unwrap();
        assert_eq!(result1.get("qor_source").and_then(|q| q.as_str()), Some("run"));

        // Turn 2: new request, same session — warm everything.
        let mut sink2 = BufferSink::new();
        let status2 = svc
            .run_turn(
                &id,
                "{\"request\": \"reduce area without hurting timing\"}",
                &mut sink2,
                &never(),
            )
            .expect("turn 2");
        assert_eq!(status2, 200);
        let turn2 = serde_json::parse_value(sink2.data_of("turn")[0]).unwrap();
        assert_eq!(turn2.get("turn").and_then(|t| t.as_u64()), Some(1));
        assert_eq!(
            turn2.get("sta").and_then(|s| s.as_str()),
            Some("carried"),
            "turn 2 must reuse the detached incremental-STA state"
        );
        assert_eq!(
            svc.pool().stats().builds,
            builds_after_create,
            "turn 2 must not rebuild the session template"
        );
        assert_eq!(sink2.data_of("result").len(), 1, "{:?}", sink2.names());
        // Session bookkeeping advanced.
        assert_eq!(
            svc.sessions().begin_turn(&id).map(|s| s.turns_done()),
            Ok(2),
            "two turns completed"
        );
        svc.sessions().end_turn(&id);
        // Close tears the session down.
        let close = svc.handle(&post(&format!("/v1/session/{id}/close"), ""), &never());
        assert_eq!(close.status, 200);
        assert_eq!(
            svc.sessions().begin_turn(&id).map(|_| ()),
            Err(chatls_serve::TurnError::Unknown)
        );
    }

    #[test]
    fn turn_errors_are_plain_pre_stream_responses() {
        let svc = service();
        let mut sink = BufferSink::new();
        // Unknown session: enveloped 404, nothing streamed.
        let resp = svc.run_turn("s0-nope", "{}", &mut sink, &never()).unwrap_err();
        assert_eq!(resp.status, 404);
        let v = parse(&resp.body);
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")).and_then(|c| c.as_str()),
            Some("unknown_session")
        );
        assert!(sink.events.is_empty(), "pre-stream failures must not write events");
        // Busy session: enveloped 409.
        let create = svc.handle(&post("/v1/session", &inline_body("agent_busy_probe")), &never());
        let id = parse(&create.body).get("session").and_then(|s| s.as_str()).unwrap().to_string();
        let _claim = svc.sessions().begin_turn(&id).expect("claim");
        let busy = svc.run_turn(&id, "{}", &mut sink, &never()).unwrap_err();
        assert_eq!(busy.status, 409);
        assert_eq!(
            parse(&busy.body).get("error").and_then(|e| e.get("code")).and_then(|c| c.as_str()),
            Some("session_busy")
        );
        svc.sessions().end_turn(&id);
        // Malformed body: enveloped 400.
        let bad = svc.run_turn(&id, "not json", &mut sink, &never()).unwrap_err();
        assert_eq!(bad.status, 400);
        // The streaming-only guard for proxied (non-SSE) transports.
        let proxied = svc.handle(&post(&format!("/v1/session/{id}/turn"), "{}"), &never());
        assert_eq!(proxied.status, 400);
        assert_eq!(
            parse(&proxied.body).get("error").and_then(|e| e.get("code")).and_then(|c| c.as_str()),
            Some("streaming_only")
        );
    }

    /// Satellite: a client that disconnects mid-stream cancels the turn
    /// cooperatively and leaves the session (and pool) healthy for the
    /// next turn.
    #[test]
    fn disconnect_mid_stream_cancels_and_session_survives() {
        let svc = &private_service();
        let create = svc.handle(&post("/v1/session", &inline_body("agent_gone_probe")), &never());
        assert_eq!(create.status, 201);
        let id = parse(&create.body).get("session").and_then(|s| s.as_str()).unwrap().to_string();
        let builds = svc.pool().stats().builds;
        // The client vanishes after two events (turn header + first stage).
        let mut sink = BufferSink::failing_after(2);
        let status = svc.run_turn(&id, "{}", &mut sink, &never()).expect("claimed turn");
        assert_eq!(status, CLIENT_GONE, "disconnect must be recorded, not 200");
        assert_eq!(sink.events.len(), 2, "nothing streams past the disconnect");
        // The aborted turn left no partial carryover behind.
        let session = svc.sessions().begin_turn(&id).expect("session must not stay busy");
        assert_eq!(session.turns_done(), 0, "aborted turns must not count");
        assert!(!session.has_carried_graph(), "no truncated STA state may be carried");
        svc.sessions().end_turn(&id);
        // And the very same session serves the next turn end to end, with
        // a live (never pre-memoized) synthesis run.
        let mut retry = BufferSink::new();
        let status = svc.run_turn(&id, "{}", &mut retry, &never()).expect("retry turn");
        assert_eq!(status, 200);
        let result = serde_json::parse_value(retry.data_of("result")[0]).unwrap();
        assert_eq!(
            result.get("qor_source").and_then(|q| q.as_str()),
            Some("run"),
            "the aborted turn must not have memoized anything for this script"
        );
        assert_eq!(svc.pool().stats().builds, builds, "disconnects never trigger rebuilds");
    }

    /// Turns 2 and 3 of a session reuse the pooled design's memoized
    /// stage-1 embedding — no circuit graph is built — and still stream
    /// all four stage events.
    #[test]
    fn later_turns_skip_stage_one_but_stream_every_stage() {
        let svc = service();
        let create = svc.handle(&post("/v1/session", &inline_body("agent_memo_probe")), &never());
        assert_eq!(create.status, 201, "{}", String::from_utf8_lossy(&create.body));
        let id = parse(&create.body).get("session").and_then(|s| s.as_str()).unwrap().to_string();
        // Stage 1 runs on the calling thread, so this thread's count is
        // this test's alone.
        let graphs = || crate::circuit_mentor::GRAPH_BUILDS.with(|n| n.get());
        for turn in 1..=3u64 {
            let before = graphs();
            let mut sink = BufferSink::new();
            let status = svc.run_turn(&id, "{}", &mut sink, &never()).expect("claimed turn");
            assert_eq!(status, 200, "turn {turn}: {:?}", sink.names());
            let built = graphs() - before;
            assert_eq!(built, u64::from(turn == 1), "turn {turn} built {built} circuit graphs");
            assert_eq!(stage_names(&sink), ["embed", "retrieve", "draft", "refine"], "turn {turn}");
        }
    }

    /// The multi-turn feedback rule is shared: driven with one request and
    /// seed, a session reproduces every round `ChatLs::iterate` adopted —
    /// same script, bitwise-same QoR — turn for turn. The design is a
    /// catalog design renamed for this test alone, so no other test shares
    /// its QorCache keys. Its clock is tightened from 2.24 to 1.44 ns: there
    /// it improves for three rounds without closing timing, so every turn
    /// is fed back from a live run, and its later scripts depend on the
    /// fed-back critical path, not only on the QoR.
    #[test]
    fn session_turns_replay_iterate_round_for_round() {
        const SEED: u64 = 0;
        let svc = &private_service();
        let source = chatls_designs::by_name("dynamic_node").unwrap();
        let top = format!("{}_feedback_probe", source.top);
        let verilog = source.source.replacen(
            &format!("module {}(", source.top),
            &format!("module {top}("),
            1,
        );
        let body = format!(
            "{{\"verilog\": {}, \"top\": \"{top}\", \"period\": 1.44}}",
            serde_json::to_string(&verilog).unwrap()
        );
        let design =
            ChatLsService::resolve_design(&serde_json::parse_value(&body).unwrap()).unwrap();
        let records =
            ChatLs::new(svc.db()).iterate(&design, crate::service::DEFAULT_REQUEST, 3, SEED);
        // A rejected (regressing) round is recorded as a copy of the round
        // before it; it was never fed back and has no session twin.
        let adopted = records
            .iter()
            .enumerate()
            .take_while(|&(i, r)| i == 0 || r.script != records[i - 1].script)
            .count();
        assert!(adopted >= 2, "only {adopted} round(s) to compare: {records:?}");

        let create = svc.handle(&post("/v1/session", &body), &never());
        assert_eq!(create.status, 201, "{}", String::from_utf8_lossy(&create.body));
        let id = parse(&create.body).get("session").and_then(|s| s.as_str()).unwrap().to_string();
        for (turn, record) in records[..adopted].iter().enumerate() {
            let mut sink = BufferSink::new();
            let status = svc
                .run_turn(&id, &format!("{{\"seed\": {SEED}}}"), &mut sink, &never())
                .expect("claimed turn");
            assert_eq!(status, 200, "turn {turn}: {:?}", sink.names());
            let result = serde_json::parse_value(sink.data_of("result")[0]).unwrap();
            assert_eq!(
                result.get("qor_source").and_then(|q| q.as_str()),
                Some("run"),
                "turn {turn} must be fed back from a live run"
            );
            assert_eq!(
                result.get("script").and_then(|s| s.as_str()),
                Some(record.script.as_str()),
                "turn {turn} diverged from iterate round {turn}"
            );
            let qor = result.get("qor").expect("result carries the QoR");
            let bits = |key: &str| qor.get(key).and_then(|v| v.as_f64()).map(f64::to_bits);
            assert_eq!(
                [bits("wns"), bits("cps"), bits("area")],
                [record.wns, record.cps, record.area].map(|x| Some(x.to_bits())),
                "turn {turn} QoR differs from iterate round {turn}"
            );
        }
    }

    /// A pooled template never keeps a cleaned design: an eval batch and an
    /// agent session each fill a memo of their own scope, which dies with
    /// them, so the pool holds one design copy per entry.
    #[test]
    fn pooled_templates_never_fill_a_cleanup_memo() {
        let svc = service();
        let design_body = inline_body("memo_scope_probe");
        let body = serde_json::parse_value(&design_body).unwrap();
        let design = ChatLsService::resolve_design(&body).unwrap();
        let scripts: Vec<String> = ["compile", "compile -map_effort high", "compile\\ncompile"]
            .iter()
            .map(|o| format!("\"create_clock -period 1.0 [get_ports clk]\\n{o}\\n\""))
            .collect();
        let eval_body = format!(
            "{}, \"scripts\": [{}]}}",
            design_body.trim_end_matches('}'),
            scripts.join(", ")
        );
        let eval = svc.handle(&post("/v1/eval", &eval_body), &never());
        assert_eq!(eval.status, 200, "{}", String::from_utf8_lossy(&eval.body));
        let (prepared, hit) = svc.prepared(&design, &never()).unwrap();
        assert!(hit, "the batch pooled the design");
        assert!(!prepared.pooled_memo_filled(), "an eval batch filled the pooled memo");

        let create = svc.handle(&post("/v1/session", &design_body), &never());
        assert_eq!(create.status, 201, "{}", String::from_utf8_lossy(&create.body));
        let id = parse(&create.body).get("session").and_then(|s| s.as_str()).unwrap().to_string();
        let status = svc.run_turn(&id, "{\"seed\": 0}", &mut BufferSink::new(), &never());
        assert_eq!(status.expect("turn"), 200);
        let session = svc.sessions().begin_turn(&id).expect("live session");
        assert!(session.template.cleanup_memoized(), "the turn's compiles used the session's memo");
        drop(session);
        svc.sessions().end_turn(&id);
        let close = svc.handle(&post(&format!("/v1/session/{id}/close"), ""), &never());
        assert_eq!(close.status, 200);
        assert!(!prepared.pooled_memo_filled(), "a session filled the pooled memo");
    }

    /// Satellite: a synthesis run cancelled mid-script is never memoized
    /// and never donates its truncated timing graph to the next turn —
    /// the composition the SSE turn path relies on.
    #[test]
    fn cancelled_synthesis_never_memoizes_or_carries_truncated_sta() {
        let svc = service();
        let body = serde_json::parse_value(&inline_body("agent_cancel_probe")).unwrap();
        let design = ChatLsService::resolve_design(&body).unwrap();
        let (prepared, _) = svc.prepared(&design, &never()).unwrap();
        let fp = design_fingerprint(&design);
        let session = AgentSession::new(design, prepared);
        let script = "create_clock -period 1.0 [get_ports clk]\ncompile\nreport_qor\n";
        // The observer fires after the first command completes and cancels
        // the token — the session aborts before `compile`.
        let cancel = CancelToken::new();
        let trigger = cancel.clone();
        let observer = CommandObserver::new(move |event| {
            if event.index == 0 {
                trigger.cancel();
            }
        });
        let aborted = QorCache::global().get_or_run_cancellable(fp, script, || {
            session.synthesize(script, &cancel, observer).map(|(qor, ok, _)| (qor, ok))
        });
        assert!(aborted.is_err(), "mid-script cancellation must surface as Cancelled");
        assert!(!QorCache::global().contains(fp, script), "a truncated QoR must never be memoized");
        assert!(!session.has_carried_graph(), "truncated STA state must die with the run");
        // A clean run afterwards succeeds and detaches its graph for the
        // next turn.
        let observer = CommandObserver::new(|_| {});
        let (qor, ok, next) =
            session.synthesize(script, &CancelToken::never(), observer).expect("clean run");
        assert!(ok);
        assert!(qor.area > 0.0);
        assert!(!next.critical_modules.is_empty());
        assert!(session.has_carried_graph(), "a completed run carries its timing graph forward");
    }
}
