//! `warm_customize`: two clients send `POST /v1/customize` (every fourth
//! op as an MCP `tools/call customize`) over a fully warmed key set, so
//! every op hits the session pool, the task cache and the QorCache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use chatls::pipeline::prepare_task_in;
use chatls::ChatLs;
use chatls_exec::CancelToken;
use chatls_serve::{AppHandler, Request};
use chatls_synth::SessionTemplate;
use serde_json::Value;

use crate::common::{fresh_template, gain_pct, par_map, script_ok, set_up, shape, timed};
use crate::common::{EndToEnd, Qor, Report, Stack};
use crate::gen::{self, Key, Rng, WarmOp};
use crate::stats::mean_or_zero;
use crate::trace::{customize_layers, write_spans, Spans, Traced};
use crate::{http, Config};

pub const NAME: &str = "warm_customize";
pub const CLIENTS: usize = 2;
/// Nominal completed ops per second on the 2-core reference machine;
/// sizes the fixed op count from `--seconds`.
pub const RATE: f64 = 350.0;
/// Tail percentile reported as `tail_ms`.
pub const TAIL_Q: f64 = 0.90;
/// Keys whose served QoR is re-run on a newly built template.
const QOR_SAMPLE: usize = 4;
/// Ops the traced run replays.
const REPLAY: usize = 256;

fn customize_body(k: &Key) -> String {
    format!(
        "{{\"design\": \"{}\", \"seed\": {}, \"request\": \"{}\"}}",
        k.design, k.seed, k.request
    )
}

fn mcp_body(k: &Key) -> String {
    format!(
        "{{\"jsonrpc\": \"2.0\", \"id\": 1, \"method\": \"tools/call\", \"params\": \
         {{\"name\": \"customize\", \"arguments\": {}}}}}",
        customize_body(k)
    )
}

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        path: path.to_string(),
        body: body.as_bytes().to_vec(),
        ..Default::default()
    }
}

/// Script and QoR out of a `/v1/customize` body or an MCP reply.
fn extract(mcp: bool, body: &str) -> (Option<String>, Option<Qor>) {
    let v = http::json(body);
    if mcp {
        let result = v.get("result");
        let text = result
            .and_then(|r| r.get("content"))
            .and_then(Value::as_array)
            .and_then(|c| c.first())
            .and_then(|c| c.get("text"))
            .and_then(Value::as_str);
        let qor = result.and_then(|r| r.get("structuredContent")).and_then(|s| s.get("qor"));
        return (text.map(str::to_string), qor.and_then(Qor::from_json));
    }
    (
        v.get("script").and_then(Value::as_str).map(str::to_string),
        v.get("qor").and_then(Qor::from_json),
    )
}

struct Rec {
    key: usize,
    status: u16,
    ms: f64,
    /// Index into the client's interned scripts.
    script: Option<usize>,
    qor: Option<Qor>,
}

/// Per-client interning of returned scripts (a client sees one script
/// per key, so the table stays tiny), with the first key that got each.
#[derive(Default)]
struct Interner {
    index: HashMap<String, usize>,
    scripts: Vec<(String, usize)>,
}

impl Interner {
    fn id(&mut self, script: String, key: usize) -> usize {
        if let Some(&i) = self.index.get(&script) {
            return i;
        }
        self.scripts.push((script.clone(), key));
        self.index.insert(script, self.scripts.len() - 1);
        self.scripts.len() - 1
    }
}

/// Reference state for one catalog design, built outside the timed
/// window: a fresh template and the library task context.
struct DesignRef {
    design: chatls_designs::GeneratedDesign,
    template: SessionTemplate,
    task: chatls::TaskContext,
}

pub fn run(cfg: &Config) -> Report {
    let per_client = cfg.ops(RATE, TAIL_Q, CLIENTS * gen::warm_cycle()) / CLIENTS;
    let plan = gen::warm_plan(cfg.seed, CLIENTS, per_client);
    let bodies: Vec<String> = plan.keys.iter().map(customize_body).collect();
    let mcp_bodies: Vec<String> = plan.keys.iter().map(mcp_body).collect();

    let warm_up = |stack: &Stack| {
        // Two threads take whole designs off one queue, largest first, so
        // no design is built twice at once and the threads finish close
        // together.
        let mut designs: Vec<Vec<usize>> = Vec::new();
        for (k, key) in plan.keys.iter().enumerate() {
            match designs.last_mut() {
                Some(ks) if plan.keys[ks[0]].design == key.design => ks.push(k),
                _ => designs.push(vec![k]),
            }
        }
        designs.reverse();
        let next = AtomicUsize::new(0);
        par_map(&[0, 1], |_| {
            while let Some(ks) = designs.get(next.fetch_add(1, Ordering::Relaxed)) {
                for &k in ks {
                    let (status, _) =
                        http::exchange(&stack.addr, "POST", "/v1/customize", &bodies[k])
                            .expect("warm-up");
                    assert_eq!(status, 200, "warm-up customize {:?}", plan.keys[k]);
                }
            }
        });
        let (status, _) =
            http::exchange(&stack.addr, "POST", "/v1/mcp", &mcp_bodies[0]).expect("warm-up MCP");
        assert_eq!(status, 200, "warm-up MCP call");
    };
    let (stack, (), setup) = set_up(warm_up);

    let interners: Vec<Mutex<Interner>> = (0..CLIENTS).map(|_| Mutex::default()).collect();
    let t = timed(&stack.addr, &plan.clients, |c, op: &WarmOp| {
        let (path, body) = if op.mcp {
            ("/v1/mcp", &mcp_bodies[op.key])
        } else {
            ("/v1/customize", &bodies[op.key])
        };
        let started = Instant::now();
        let res = http::exchange(&stack.addr, "POST", path, body);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let (status, body) = res.unwrap_or((0, String::new()));
        let (script, qor) = if status == 200 { extract(op.mcp, &body) } else { (None, None) };
        let script = script.map(|s| interners[c].lock().expect("interner poisoned").id(s, op.key));
        Rec { key: op.key, status, ms, script, qor }
    });
    let ops = t.ops();
    shape(
        t.delta("serve.pool.builds") == 0.0 && t.delta("serve.pool.miss") == 0.0,
        "warm_customize does no pool builds in the timed phase",
    );
    shape(
        t.delta("core.qorcache.misses") == 0.0 && t.delta("core.qorcache.hits") > 0.0,
        "warm_customize QorCache hit ratio is 1.0",
    );

    // ---- output checks (outside the timed window)
    let db = stack.db();
    let names: Vec<&'static str> = {
        let mut n: Vec<&'static str> = plan.keys.iter().map(|k| k.design).collect();
        n.dedup();
        n
    };
    let refs: HashMap<&str, DesignRef> = names
        .iter()
        .copied()
        .zip(par_map(&names, |name| {
            let design = gen::design(name);
            let template = fresh_template(&design);
            let task = prepare_task_in(&design, gen::REQUESTS[0], &template, &CancelToken::never())
                .expect("a never-token cannot cancel");
            DesignRef { design, template, task }
        }))
        .collect();
    let task_for = |k: &Key| {
        let mut task = refs[k.design].task.clone();
        task.user_request = k.request.to_string();
        task
    };
    let chatls = ChatLs::new(db);
    let library: Vec<String> = plan
        .keys
        .iter()
        .map(|k| {
            chatls.customize(&refs[k.design].design, &task_for(k), k.seed).script().to_string()
        })
        .collect();
    let mut rng = Rng::stream(cfg.seed, "warm.qor_sample");
    let sample: Vec<usize> = rng.permutation(plan.keys.len())[..QOR_SAMPLE].to_vec();
    let fresh_qor: HashMap<usize, Qor> = sample
        .iter()
        .copied()
        .zip(par_map(&sample, |&k| {
            let (qor, _) =
                chatls::eval::run_script_in(&refs[plan.keys[k].design].template, &library[k]);
            Qor::of(&qor)
        }))
        .collect();
    let interners: Vec<Interner> =
        interners.into_iter().map(|m| m.into_inner().expect("interner poisoned")).collect();
    let script_passes: Vec<Vec<bool>> = interners
        .iter()
        .map(|i| {
            i.scripts
                .iter()
                .map(|(s, k)| script_ok(s, refs[plan.keys[*k].design].design.default_period))
                .collect()
        })
        .collect();
    let mut first_qor: HashMap<usize, Qor> = HashMap::new();
    let mut failed = 0;
    let mut gains = Vec::new();
    for (c, recs) in t.records.iter().enumerate() {
        for r in recs {
            let k = &plan.keys[r.key];
            let dref = &refs[k.design];
            let script_good = r.script.is_some_and(|id| {
                script_passes[c][id] && interners[c].scripts[id].0 == library[r.key]
            });
            let qor_good = r.qor.is_some_and(|q| {
                let first = *first_qor.entry(r.key).or_insert(q);
                q == first && fresh_qor.get(&r.key).is_none_or(|f| *f == q)
            });
            if r.status != 200 || !script_good || !qor_good {
                failed += 1;
                continue;
            }
            let q = r.qor.expect("checked above");
            gains.push(gain_pct(q.cps(), dref.task.baseline.cps, dref.design.default_period));
        }
    }

    let mut report = Report { attempted: ops, failed, ..Report::default() };
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

    // ---- traced replay
    let replay: Vec<WarmOp> = (0..REPLAY.min(per_client) / CLIENTS)
        .flat_map(|i| plan.clients.iter().map(move |ops| ops[i]))
        .collect();
    let op_ms = mean_or_zero(
        &(0..replay.len() / CLIENTS)
            .flat_map(|i| t.records.iter().map(move |recs| recs[i].ms))
            .collect::<Vec<f64>>(),
    );
    let mut spans = Spans::new();
    let mut handler = Vec::new();
    let mut mcp_extra = 0.0;
    let never = CancelToken::never();
    for (i, op) in replay.iter().enumerate() {
        let k = &plan.keys[op.key];
        spans.begin_op(i);
        let design = spans
            .time("designs.by_name", || chatls_designs::by_name(k.design))
            .expect("catalog design");
        let task = task_for(k);
        let script = customize_layers(&mut spans, db, &design, &task, k.seed);
        spans.time("eval.canon", || chatls::canonicalize_script(&script));
        spans.exit();
        if script != library[op.key] {
            report.failed += 1;
            eprintln!("{NAME} trace: replayed script differs from the served one for {k:?}");
        }
        let started = Instant::now();
        let resp = stack.service.handle(&post("/v1/customize", &bodies[op.key]), &never);
        let plain_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(resp.status, 200, "in-process customize");
        if op.mcp {
            let started = Instant::now();
            let resp = stack.service.handle(&post("/v1/mcp", &mcp_bodies[op.key]), &never);
            let mcp_ms = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(resp.status, 200, "in-process MCP call");
            handler.push(mcp_ms);
            mcp_extra += mcp_ms - plain_ms;
        } else {
            handler.push(plain_ms);
        }
    }
    let handler_ms = mean_or_zero(&handler);
    Traced {
        spans: &spans,
        replayed: replay.len(),
        handler_ms,
        op_ms,
        reconcile_ms: handler_ms,
        mcp_self_ms: mcp_extra / replay.len() as f64,
        agent_create_ms: 0.0,
        agent_turn_ms: 0.0,
        agent_ttfe_ms: 0.0,
        timed: &t,
        setup: &setup,
    }
    .fill(&mut report, NAME);
    write_spans(&spans, NAME, cfg.seed);
    stack.stop();
    report
}
