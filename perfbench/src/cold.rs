//! `cold_sessions`: two clients each run whole agent sessions — create
//! with inline Verilog under a never-seen top name, three SSE turns,
//! close — against a pool filled to capacity, so every session builds
//! one template and evicts one.

use std::collections::HashMap;
use std::time::Instant;

use chatls::eval::QorCache;
use chatls::llm::TimingSummary;
use chatls::pipeline::prepare_task_in;
use chatls::{ChatLs, ExpertDatabase, TaskContext};
use chatls_designs::GeneratedDesign;
use chatls_exec::CancelToken;
use chatls_serve::{json_escape, AppHandler, BufferSink, Request};
use chatls_synth::{QorReport, SessionBuilder, SessionTemplate, TimingGraph};
use serde_json::Value;

use crate::common::{critical_path, EndToEnd, Qor, Report, Stack};
use crate::common::{fresh_template, gain_pct, par_map, script_ok, set_up, shape, timed};
use crate::gen::{self, Rng, Session};
use crate::stats::mean_or_zero;
use crate::trace::{customize_layers, write_spans, Spans, Traced};
use crate::{http, stats, Config};

pub const NAME: &str = "cold_sessions";
pub const CLIENTS: usize = 2;
/// Nominal completed sessions per second on the 2-core reference machine.
pub const RATE: f64 = 6.0;
pub const TAIL_Q: f64 = 0.90;
/// Sessions whose later turns are re-derived and whose every QoR is
/// re-run on a newly built template.
const SESSION_SAMPLE: usize = 4;
/// Sessions the traced run replays and times in-process.
const REPLAY: usize = 16;

fn inline_body(design: &GeneratedDesign) -> String {
    format!(
        "{{\"verilog\": {}, \"top\": \"{}\", \"period\": {}}}",
        json_escape(&design.source),
        design.top,
        design.default_period
    )
}

fn turn_body(request: &str, seed: u64) -> String {
    format!("{{\"seed\": {seed}, \"request\": \"{request}\"}}")
}

/// What one turn's `result` frame said.
#[derive(Clone, Debug, PartialEq)]
struct TurnResult {
    script: String,
    qor: Option<Qor>,
    /// `qor_source`: `run` or `cache`.
    source: String,
}

impl TurnResult {
    fn of(events: &[(String, String)]) -> Option<TurnResult> {
        let (_, data) = events.last().filter(|(e, _)| e == "result")?;
        let v = http::json(data);
        Some(TurnResult {
            script: v.get("script")?.as_str()?.to_string(),
            qor: v.get("qor").and_then(Qor::from_json),
            source: v.get("qor_source")?.as_str()?.to_string(),
        })
    }
}

struct Rec {
    created: bool,
    turns: Vec<(u16, Option<f64>, Option<TurnResult>)>,
    closed: bool,
    ms: f64,
}

/// Create (201 + pool miss), three turns, close — one closed-loop op.
fn session_op(addr: &str, sources: &HashMap<&str, GeneratedDesign>, s: &Session) -> Rec {
    let started = Instant::now();
    let design = gen::renamed(&sources[s.source], &s.top);
    let (status, resp) =
        http::exchange(addr, "POST", "/v1/session", &inline_body(&design)).unwrap_or_default();
    let v = http::json(&resp);
    let id = v.get("session").and_then(Value::as_str).unwrap_or_default().to_string();
    let created = status == 201 && v.get("pool").and_then(Value::as_str) == Some("miss");
    let mut turns = Vec::new();
    for (request, seed) in &s.turns {
        let path = format!("/v1/session/{id}/turn");
        match http::sse(addr, &path, &turn_body(request, *seed)) {
            Ok(t) => turns.push((
                t.status,
                t.ttfe.map(|d| d.as_secs_f64() * 1e3),
                TurnResult::of(&t.events),
            )),
            Err(_) => turns.push((0, None, None)),
        }
    }
    let path = format!("/v1/session/{id}/close");
    let closed = http::exchange(addr, "POST", &path, "").is_ok_and(|(s, _)| s == 200);
    Rec { created, turns, closed, ms: started.elapsed().as_secs_f64() * 1e3 }
}

/// Reference state per source design: the design and its library task
/// context (the request only names the goal; the baseline run, and so
/// the baseline CPS, is the same for every request).
struct SourceRef {
    design: GeneratedDesign,
    task: TaskContext,
}

/// The session's turn-1 task as the server derives it for the renamed
/// design.
fn first_task(src: &SourceRef, design: &GeneratedDesign, request: &str) -> TaskContext {
    let mut task = src.task.clone();
    task.design_name = design.name.clone();
    task.user_request = request.to_string();
    task
}

/// How a session is re-derived turn by turn: through the library (the
/// output check) or through the layers inside spans (the traced replay).
trait Deriver {
    fn customize(&mut self, task: &TaskContext, seed: u64) -> String;
    /// The QorCache key the served turn peeks with.
    fn cache_key(&mut self, script: &str) -> String;
    /// Synthesizes a script the session has not run: QoR and critical path.
    fn run(&mut self, script: &str) -> (QorReport, (Vec<String>, bool));
}

/// The served turn loop: effective seed `seed + turn`, a QorCache peek
/// per turn (only this session's earlier turns can hit, the design being
/// unseen), and the next task's baseline rewritten from this turn's QoR
/// and critical path (the previous path when the QoR came from cache).
fn derive_turns(s: &Session, mut task: TaskContext, d: &mut dyn Deriver) -> Vec<TurnResult> {
    let mut seen: HashMap<String, QorReport> = HashMap::new();
    let mut out = Vec::new();
    for (i, (request, seed)) in s.turns.iter().enumerate() {
        task.user_request = request.to_string();
        let script = d.customize(&task, seed + i as u64);
        let key = d.cache_key(&script);
        let (qor, source, (critical_modules, starts_at_input)) = match seen.get(&key) {
            Some(q) => (
                q.clone(),
                "cache",
                (task.baseline.critical_modules.clone(), task.baseline.starts_at_input),
            ),
            None => {
                let (q, path) = d.run(&script);
                seen.insert(key, q.clone());
                (q, "run", path)
            }
        };
        out.push(TurnResult {
            script: script.clone(),
            qor: Some(Qor::of(&qor)),
            source: source.to_string(),
        });
        task.baseline = TimingSummary {
            wns: qor.wns,
            cps: qor.cps,
            tns: qor.tns,
            area: qor.area,
            critical_modules,
            starts_at_input,
        };
        task.baseline_script = script;
    }
    out
}

/// The output check's deriver: `ChatLs::customize` and fresh runs on a
/// newly built template of the renamed design.
struct Library<'a> {
    chatls: ChatLs<'a>,
    design: GeneratedDesign,
    template: SessionTemplate,
}

impl Deriver for Library<'_> {
    fn customize(&mut self, task: &TaskContext, seed: u64) -> String {
        self.chatls.customize(&self.design, task, seed).script().to_string()
    }

    fn cache_key(&mut self, script: &str) -> String {
        chatls::canonicalize_script(script)
    }

    fn run(&mut self, script: &str) -> (QorReport, (Vec<String>, bool)) {
        let mut session = self.template.session();
        let result = session.run_script(script);
        (result.qor, critical_path(&mut session))
    }
}

/// The traced replay's deriver: each layer call inside its span, and
/// synthesis on a stamp carrying the previous run's timing graph.
struct Replay<'a> {
    spans: &'a mut Spans,
    db: &'a ExpertDatabase,
    design: GeneratedDesign,
    template: SessionTemplate,
    graph: Option<TimingGraph>,
}

impl Deriver for Replay<'_> {
    fn customize(&mut self, task: &TaskContext, seed: u64) -> String {
        customize_layers(self.spans, self.db, &self.design, task, seed)
    }

    fn cache_key(&mut self, script: &str) -> String {
        self.spans.time("eval.canon", || chatls::canonicalize_script(script))
    }

    fn run(&mut self, script: &str) -> (QorReport, (Vec<String>, bool)) {
        // The served run keys the QorCache once more before running.
        self.cache_key(script);
        let (template, graph) = (&self.template, &mut self.graph);
        self.spans.time("synth.run", || {
            let mut session = template.session();
            if let Some(g) = graph.take() {
                session.attach_timing_graph(g);
            }
            let result = session.run_script(script);
            let path = critical_path(&mut session);
            *graph = Some(session.detach_timing_graph());
            (result.qor, path)
        })
    }
}

/// Re-derives a whole session with the library, for the output check.
fn reference_session(db: &ExpertDatabase, src: &SourceRef, s: &Session) -> Vec<TurnResult> {
    let design = gen::renamed(&src.design, &s.top);
    let task = first_task(src, &design, s.turns[0].0);
    let template = fresh_template(&design);
    derive_turns(s, task, &mut Library { chatls: ChatLs::new(db), design, template })
}

/// One session through the layers in the order the served path calls
/// them: create (validation parse/lower, then the pool build's own
/// parse/lower, Liberty and mapping), the turn-1 baseline, then the
/// turns.
fn replay_session(
    spans: &mut Spans,
    db: &ExpertDatabase,
    src: &SourceRef,
    s: &Session,
) -> Vec<TurnResult> {
    let design = gen::renamed(&src.design, &s.top);
    let parse = |spans: &mut Spans| {
        let sf = spans.time("verilog.parse", || chatls_verilog::parse(&design.source));
        let sf = sf.expect("renamed catalog RTL parses");
        spans
            .time("verilog.lower", || chatls_verilog::lower_to_netlist(&sf, &design.top))
            .expect("renamed catalog RTL lowers")
    };
    parse(spans);
    let netlist = parse(spans);
    let library = spans.time("liberty.build", chatls_liberty::nangate45);
    let template = spans
        .time("synth.map", || SessionBuilder::new(netlist, library).template())
        .expect("catalog designs map onto the library");
    let task = spans
        .time("synth.baseline", || {
            prepare_task_in(&design, s.turns[0].0, &template, &CancelToken::never())
        })
        .expect("a never-token cannot cancel");
    derive_turns(s, task, &mut Replay { spans, db, design, template, graph: None })
}

pub fn run(cfg: &Config) -> Report {
    let per_client = cfg.ops(RATE, TAIL_Q, CLIENTS * gen::ROTATION_CYCLE) / CLIENTS;
    let plan = gen::cold_plan(cfg.seed, CLIENTS, per_client);
    let names: Vec<&'static str> =
        gen::ROTATION_SMALL.iter().chain(gen::ROTATION_MID.iter()).copied().collect();
    let sources: HashMap<&str, GeneratedDesign> =
        names.iter().map(|&n| (n, gen::design(n))).collect();

    let warm_up = |stack: &Stack| {
        for s in &plan.fill {
            let design = gen::renamed(&sources[s.source], &s.top);
            let (status, resp) =
                http::exchange(&stack.addr, "POST", "/v1/session", &inline_body(&design))
                    .expect("pool fill");
            assert_eq!(status, 201, "pool-fill session create");
            let id = http::json(&resp).get("session").and_then(Value::as_str).map(str::to_string);
            let path = format!("/v1/session/{}/close", id.expect("session id"));
            http::exchange(&stack.addr, "POST", &path, "").expect("pool-fill close");
        }
        for s in &plan.warmup {
            let rec = session_op(&stack.addr, &sources, s);
            assert!(rec.created && rec.closed, "warm-up session");
        }
        assert_eq!(stack.service.pool().len(), gen::POOL_CAPACITY, "pool filled to capacity");
    };
    let (stack, (), setup) = set_up(warm_up);

    let t = timed(&stack.addr, &plan.clients, |_, s| session_op(&stack.addr, &sources, s));
    let sessions = t.ops();
    let carried_runs: usize = t
        .records
        .iter()
        .flatten()
        .flat_map(|r| r.turns.iter().skip(1))
        .filter(|(_, _, res)| res.as_ref().is_some_and(|r| r.source == "run"))
        .count();
    shape(
        t.delta("serve.pool.builds") == sessions as f64
            && t.delta("serve.pool.evictions") == sessions as f64,
        "cold_sessions builds one template and evicts one per session",
    );
    shape(
        t.delta("serve.session.sta_carryover") == carried_runs as f64,
        "cold_sessions carries the timing graph into every later turn that runs synthesis",
    );

    // ---- output checks (outside the timed window)
    let db = stack.db();
    let refs: HashMap<&str, SourceRef> = names
        .iter()
        .copied()
        .zip(par_map(&names, |name| {
            let design = gen::design(name);
            let template = fresh_template(&design);
            let task = prepare_task_in(&design, gen::REQUESTS[0], &template, &CancelToken::never())
                .expect("a never-token cannot cancel");
            SourceRef { design, task }
        }))
        .collect();
    let chatls = ChatLs::new(db);
    let all: Vec<(&Session, &Rec)> =
        plan.clients.iter().zip(&t.records).flat_map(|(ss, rs)| ss.iter().zip(rs)).collect();
    let mut rng = Rng::stream(cfg.seed, "cold.sample");
    let sample: Vec<usize> = rng.permutation(all.len())[..SESSION_SAMPLE.min(all.len())].to_vec();
    let reference: HashMap<usize, Vec<TurnResult>> = sample
        .iter()
        .copied()
        .zip(par_map(&sample, |&i| reference_session(db, &refs[all[i].0.source], all[i].0)))
        .collect();
    let mut failed = 0;
    let mut gains = Vec::new();
    let mut ttfe = Vec::new();
    for (i, (s, r)) in all.iter().enumerate() {
        let src = &refs[s.source];
        let period = src.design.default_period;
        let mut good = r.created && r.closed && r.turns.len() == gen::TURNS;
        for (turn, (status, first_event, res)) in r.turns.iter().enumerate() {
            ttfe.extend(*first_event);
            let Some(res) = res.as_ref().filter(|_| *status == 200) else {
                good = false;
                continue;
            };
            good &= script_ok(&res.script, period);
            if turn == 0 {
                let design = gen::renamed(&src.design, &s.top);
                let task = first_task(src, &design, s.turns[0].0);
                good &= chatls.customize(&design, &task, s.turns[0].1).script() == res.script;
            }
            if let Some(reference) = reference.get(&i) {
                good &= reference[turn] == *res;
            }
            match res.qor {
                Some(q) => gains.push(gain_pct(q.cps(), src.task.baseline.cps, period)),
                None => good = false,
            }
        }
        if !good {
            failed += 1;
        }
    }

    let mut report = Report { attempted: sessions, failed, ..Report::default() };
    let latencies: Vec<f64> = t.records.iter().flatten().map(|r| r.ms).collect();
    if !cfg.trace {
        EndToEnd {
            setup: &setup,
            latencies_ms: latencies,
            wall_s: t.wall_s,
            cpu_s: t.cpu_s,
            peak_heap_bytes: t.peak_heap_bytes,
            qor_gain_pct: mean_or_zero(&gains),
            tail_q: TAIL_Q,
        }
        .fill(&mut report, NAME);
        stack.stop();
        return report;
    }

    // ---- traced replay: the served session path, layer by layer.
    let order: Vec<usize> = (0..REPLAY.min(per_client) / CLIENTS)
        .flat_map(|j| (0..CLIENTS).map(move |c| c * per_client + j))
        .collect();
    let mut spans = Spans::new();
    for (op, &i) in order.iter().enumerate() {
        let (s, r) = all[i];
        spans.begin_op(op);
        let replayed = replay_session(&mut spans, db, &refs[s.source], s);
        spans.exit();
        let served: Vec<Option<&TurnResult>> = r.turns.iter().map(|(_, _, t)| t.as_ref()).collect();
        if served != replayed.iter().map(Some).collect::<Vec<_>>() {
            report.failed += 1;
            eprintln!("{NAME} trace: replayed turns differ from the served session {}", s.top);
        }
    }
    let op_ms = mean_or_zero(&order.iter().map(|&i| all[i].1.ms).collect::<Vec<f64>>());
    let never = CancelToken::never();
    let post = |path: String, body: String| Request {
        method: "POST".to_string(),
        path,
        body: body.into_bytes(),
        ..Default::default()
    };
    let mut create_ms = Vec::new();
    let mut turn_ms = Vec::new();
    let mut handler = Vec::new();
    // The replayed sessions themselves: the pool evicted their templates
    // long ago, and with the QorCache cleared every turn synthesizes what
    // the served turn did (only a session's own earlier turns can hit).
    QorCache::global().clear();
    for &i in &order {
        let s = all[i].0;
        let design = gen::renamed(&sources[s.source], &s.top);
        let started = Instant::now();
        let resp = stack.service.handle(&post("/v1/session".into(), inline_body(&design)), &never);
        let created = started.elapsed().as_secs_f64() * 1e3;
        let v = http::json(&String::from_utf8_lossy(&resp.body));
        assert!(
            resp.status == 201 && v.get("pool").and_then(Value::as_str) == Some("miss"),
            "in-process session create builds its template"
        );
        let id = v.get("session").and_then(Value::as_str).expect("session id").to_string();
        let mut turns = 0.0;
        for (request, seed) in &s.turns {
            let mut sink = BufferSink::new();
            let started = Instant::now();
            let status = stack
                .service
                .run_turn(&id, &turn_body(request, *seed), &mut sink, &never)
                .expect("in-process turn");
            turns += started.elapsed().as_secs_f64() * 1e3;
            assert!(status == 200 && TurnResult::of(&sink.events).is_some(), "in-process turn");
        }
        let started = Instant::now();
        let resp =
            stack.service.handle(&post(format!("/v1/session/{id}/close"), String::new()), &never);
        let closed = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(resp.status, 200, "in-process close");
        create_ms.push(created);
        turn_ms.push(turns);
        handler.push(created + turns + closed);
    }
    let handler_ms = mean_or_zero(&handler);
    Traced {
        spans: &spans,
        replayed: order.len(),
        handler_ms,
        op_ms,
        reconcile_ms: handler_ms,
        mcp_self_ms: 0.0,
        agent_create_ms: mean_or_zero(&create_ms),
        agent_turn_ms: mean_or_zero(&turn_ms),
        agent_ttfe_ms: if ttfe.is_empty() { 0.0 } else { stats::median(&ttfe) },
        timed: &t,
        setup: &setup,
    }
    .fill(&mut report, NAME);
    write_spans(&spans, NAME, cfg.seed);
    stack.stop();
    report
}
