//! `eval_sweep`: one client sends Pass@5-shaped `POST /v1/eval` batches —
//! four fresh grammar scripts plus one equivalent rewrite of a script it
//! scored earlier — on small and mid-size catalog designs.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use chatls::eval::QorCache;
use chatls_exec::CancelToken;
use chatls_serve::{json_escape, AppHandler, Request};
use chatls_synth::SessionTemplate;
use serde_json::Value;

use crate::common::{fresh_template, gain_pct, par_map, set_up, shape, timed};
use crate::common::{EndToEnd, Qor, Report, Stack};
use crate::gen::{self, Batch, Rng};
use crate::stats::mean_or_zero;
use crate::trace::{write_spans, Spans, Traced};
use crate::{http, Config};

pub const NAME: &str = "eval_sweep";
pub const CLIENTS: usize = 1;
/// Nominal completed batches per second on the 2-core reference machine.
pub const RATE: f64 = 8.0;
pub const TAIL_Q: f64 = 0.90;
/// Scored scripts whose served QoR is re-run on a newly built template.
const QOR_SAMPLE: usize = 8;
/// Batches the traced run replays and times in-process.
const REPLAY: usize = 30;

fn body(b: &Batch) -> String {
    let scripts: Vec<String> = b.scripts.iter().map(|s| json_escape(s)).collect();
    format!("{{\"design\": \"{}\", \"scripts\": [{}]}}", b.design, scripts.join(", "))
}

/// Per-script QoR of one served batch (empty unless it answered 200).
fn results(status: u16, body: &str) -> Vec<Option<Qor>> {
    if status != 200 {
        return Vec::new();
    }
    let v = http::json(body);
    v.get("results")
        .and_then(Value::as_array)
        .map(|rs| rs.iter().map(|r| r.get("qor").and_then(Qor::from_json)).collect())
        .unwrap_or_default()
}

struct Rec {
    status: u16,
    ms: f64,
    qors: Vec<Option<Qor>>,
}

pub fn run(cfg: &Config) -> Report {
    let ops = cfg.ops(RATE, TAIL_Q, CLIENTS * gen::ROTATION_CYCLE);
    let plan = gen::eval_plan(cfg.seed, ops);
    let warm_up = |stack: &Stack| {
        plan.warmup
            .iter()
            .map(|b| {
                let (status, resp) =
                    http::exchange(&stack.addr, "POST", "/v1/eval", &body(b)).expect("warm-up");
                assert_eq!(status, 200, "warm-up eval on {}", b.design);
                results(status, &resp)
            })
            .collect::<Vec<_>>()
    };
    let (stack, warm_results, setup) = set_up(warm_up);

    let bodies: Vec<String> = plan.ops.iter().map(body).collect();
    let clients = vec![(0..plan.ops.len()).collect::<Vec<usize>>()];
    let t = timed(&stack.addr, &clients, |_, &i| {
        let started = Instant::now();
        let res = http::exchange(&stack.addr, "POST", "/v1/eval", &bodies[i]);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let (status, resp) = res.unwrap_or((0, String::new()));
        Rec { status, ms, qors: results(status, &resp) }
    });
    let recs = &t.records[0];
    shape(
        t.delta("serve.pool.builds") == 0.0 && t.delta("serve.pool.miss") == 0.0,
        "eval_sweep does no pool builds in the timed phase",
    );
    shape(
        t.delta("core.qorcache.hits") == plan.ops.len() as f64
            && t.delta("core.qorcache.misses") == ((gen::BATCH - 1) * plan.ops.len()) as f64,
        "eval_sweep QorCache hits equal its rewrites",
    );

    // ---- output checks (outside the timed window)
    let names: Vec<&'static str> =
        gen::ROTATION_SMALL.iter().chain(gen::ROTATION_MID.iter()).copied().collect();
    let refs: HashMap<&str, (SessionTemplate, f64, f64)> = names
        .iter()
        .copied()
        .zip(par_map(&names, |name| {
            let design = gen::design(name);
            let template = fresh_template(&design);
            let period = design.default_period;
            let (base, _) =
                chatls::eval::run_script_in(&template, &chatls::baseline_script(period));
            (template, base.cps, period)
        }))
        .collect();
    // Served QoR of every script, by design and script, first scoring wins.
    let mut served: HashMap<(&str, &str), Qor> = HashMap::new();
    for (b, qors) in plan.warmup.iter().zip(&warm_results) {
        for (s, q) in b.scripts.iter().zip(qors) {
            served.insert((b.design, s.as_str()), q.expect("warm-up QoR"));
        }
    }
    let mut rng = Rng::stream(cfg.seed, "eval.qor_sample");
    let mut sample: Vec<(usize, usize)> = (0..QOR_SAMPLE / 2)
        .map(|_| rng.below(plan.ops.len()))
        .map(|i| (i, plan.ops[i].rewrite.as_ref().expect("timed batches rewrite").0))
        .collect();
    sample.extend((0..QOR_SAMPLE / 2).map(|_| (rng.below(plan.ops.len()), rng.below(gen::BATCH))));
    let fresh: Vec<Qor> = par_map(&sample, |&(i, slot)| {
        let b = &plan.ops[i];
        Qor::of(&chatls::eval::run_script_in(&refs[b.design].0, &b.scripts[slot]).0)
    });
    let fresh: HashMap<(usize, usize), Qor> = sample.into_iter().zip(fresh).collect();
    let mut failed = 0;
    let mut gains = Vec::new();
    for (i, (b, r)) in plan.ops.iter().zip(recs).enumerate() {
        let (_, base_cps, period) = refs[b.design];
        let mut good = r.status == 200 && r.qors.len() == gen::BATCH;
        for (slot, (s, q)) in b.scripts.iter().zip(&r.qors).enumerate() {
            let Some(q) = *q else {
                good = false;
                continue;
            };
            if let Some((rw, source)) = &b.rewrite {
                if *rw == slot && served.get(&(b.design, source.as_str())) != Some(&q) {
                    good = false;
                }
            }
            if fresh.get(&(i, slot)).is_some_and(|f| *f != q) {
                good = false;
            }
            served.entry((b.design, s.as_str())).or_insert(q);
            gains.push(gain_pct(q.cps(), base_cps, period));
        }
        if !good {
            failed += 1;
        }
    }

    let mut report = Report { attempted: plan.ops.len(), failed, ..Report::default() };
    let latencies: Vec<f64> = recs.iter().map(|r| r.ms).collect();
    let cpu_ms_per_op = t.cpu_s * 1e3 / plan.ops.len() as f64;
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

    // ---- traced replay: the served eval path, script by script.
    let mut spans = Spans::new();
    let mut memo: HashSet<(&str, String)> = HashSet::new();
    for b in &plan.warmup {
        for s in &b.scripts {
            memo.insert((b.design, chatls_lint::canonical_script(s).expect("provable")));
        }
    }
    let replayed = REPLAY.min(plan.ops.len());
    let op_ms = mean_or_zero(&latencies[..replayed]);
    for (i, b) in plan.ops.iter().take(replayed).enumerate() {
        spans.begin_op(i);
        spans.time("designs.by_name", || chatls_designs::by_name(b.design)).expect("catalog");
        for s in &b.scripts {
            let report = spans.time("lint.admission", || chatls_lint::lint_script(s));
            assert!(!report.has_errors(), "grammar scripts are lint-clean");
        }
        for (slot, s) in b.scripts.iter().enumerate() {
            let canon = spans.time("eval.canon", || chatls::canonicalize_script(s));
            if memo.insert((b.design, canon)) {
                let (qor, _) =
                    spans.time("synth.run", || chatls::eval::run_script_in(&refs[b.design].0, s));
                if recs[i].qors.get(slot).copied().flatten() != Some(Qor::of(&qor)) {
                    report.failed += 1;
                    eprintln!("{NAME} trace: replayed QoR differs for batch {i} slot {slot}");
                }
            }
        }
        spans.exit();
    }
    // The replayed batches themselves, in order, from a QorCache holding
    // only the set-up scripts: every script misses or hits as it did when
    // served.
    QorCache::global().clear();
    let never = CancelToken::never();
    let handle = |b: &Batch| {
        let req = Request {
            method: "POST".to_string(),
            path: "/v1/eval".to_string(),
            body: body(b).into_bytes(),
            ..Default::default()
        };
        let started = Instant::now();
        let resp = stack.service.handle(&req, &never);
        assert_eq!(resp.status, 200, "in-process eval");
        started.elapsed().as_secs_f64() * 1e3
    };
    for b in &plan.warmup {
        handle(b);
    }
    let handler: Vec<f64> = plan.ops[..replayed].iter().map(handle).collect();
    Traced {
        spans: &spans,
        replayed,
        handler_ms: mean_or_zero(&handler),
        op_ms,
        // Batches fan out over the cores, so the layers reconcile against
        // CPU per op rather than handler wall time.
        reconcile_ms: cpu_ms_per_op,
        mcp_self_ms: 0.0,
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
