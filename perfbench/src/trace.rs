//! The traced replay's span recorder, the layer calls it wraps, and the
//! per-layer metric table.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions (the program itself carries no spans for this). A
//! layer's number is its self time: span duration minus the part its
//! child spans cover, summed over the replay and divided by the ops
//! replayed.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use chatls::{build_circuit_graph, ExpertDatabase, Generator, SynthExpert, SynthRag, TaskContext};
use chatls_designs::GeneratedDesign;

use crate::common::{ratio, Report, Setup, Timed};
use crate::stats;

/// Layer spans and their per-layer metrics, in the order the served
/// path reaches them.
const LAYERS: [(&str, &str); 14] = [
    ("verilog.parse", "verilog.parse_ms"),
    ("verilog.lower", "verilog.lower_ms"),
    ("liberty.build", "liberty.build_ms"),
    ("synth.map", "synth.map_ms"),
    ("designs.by_name", "designs.by_name_ms"),
    ("lint.admission", "lint.admission_ms"),
    ("synth.baseline", "synth.baseline_ms"),
    ("mentor.graph", "mentor.graph_ms"),
    ("mentor.embed", "mentor.embed_ms"),
    ("synthrag.retrieve", "synthrag.retrieve_ms"),
    ("llm.draft", "llm.draft_ms"),
    ("synthexpert.refine", "synthexpert.refine_ms"),
    ("eval.canon", "eval.canon_ms"),
    ("synth.run", "synth.run_ms"),
];

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    op: usize,
}

/// In-memory span log; written out once the run ends.
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
    origin: Instant,
}

impl Spans {
    pub fn new() -> Self {
        Spans { spans: Vec::new(), open: Vec::new(), op: 0, origin: Instant::now() }
    }

    /// Opens a span (child of the innermost open span).
    pub fn enter(&mut self, name: &'static str) {
        let now = Instant::now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: now, end: now, parent, op: self.op });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end = Instant::now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Opens the root span of replayed op `op`.
    pub fn begin_op(&mut self, op: usize) {
        self.op = op;
        self.enter("op");
    }

    /// Self time per span name, in milliseconds, summed over the log.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += ((s.end - s.start).as_secs_f64() - c) * 1e3;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name,
                s.op,
                (s.start - self.origin).as_secs_f64() * 1e6,
                (s.end - self.origin).as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

/// The four pipeline stages exactly as `ChatLs::try_customize` runs
/// them (embedding unbatched — bitwise equal to the served batched one),
/// each in its layer span. Returns the final script.
pub fn customize_layers(
    spans: &mut Spans,
    db: &ExpertDatabase,
    design: &GeneratedDesign,
    task: &TaskContext,
    seed: u64,
) -> String {
    let graph = spans.time("mentor.graph", || build_circuit_graph(design));
    let embedding = spans.time("mentor.embed", || db.mentor().design_embedding(&graph));
    let rag = SynthRag::new(db);
    let similar = spans.time("synthrag.retrieve", || rag.similar_designs(&embedding, 3));
    let draft = spans.time("llm.draft", || {
        let mut draft = chatls::gpt_like().generate(task, seed);
        if let Some(best) = similar.first() {
            draft.push_str("\n# retrieved strategy from similar design\n");
            for line in best.script.lines() {
                draft.push_str(line);
                draft.push('\n');
            }
        }
        draft
    });
    spans.time("synthexpert.refine", || SynthExpert::new(rag).refine(task, &draft)).script
}

/// Everything the per-layer table is computed from.
pub struct Traced<'a, T> {
    pub spans: &'a Spans,
    /// Ops the replay covered.
    pub replayed: usize,
    /// Mean in-process handler time per op (ms).
    pub handler_ms: f64,
    /// Mean served op latency of the timed run (ms).
    pub op_ms: f64,
    /// What `unattributed_ms` subtracts the layers from (ms per op).
    pub reconcile_ms: f64,
    pub mcp_self_ms: f64,
    pub agent_create_ms: f64,
    pub agent_turn_ms: f64,
    pub agent_ttfe_ms: f64,
    pub timed: &'a Timed<T>,
    pub setup: &'a Setup,
}

impl<T> Traced<'_, T> {
    /// Fills every per-layer metric (zero where the workload never
    /// reaches the layer) and prints the reconciliation.
    pub fn fill(&self, report: &mut Report, workload: &str) {
        let self_ms = self.spans.self_ms();
        let per_op = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / self.replayed as f64;
        let mut layers_sum = 0.0;
        for (span, metric) in LAYERS {
            let v = per_op(span);
            layers_sum += v;
            report.set(metric, v, "ms");
        }
        let unattributed = self.reconcile_ms - layers_sum - self.mcp_self_ms;
        let serve_self = self.op_ms - self.handler_ms;
        println!(
            "{workload} trace: op {:.3} ms = serve.self {serve_self:.3} + handler {:.3}; \
             reconciled {:.3} ms = layers {layers_sum:.3} + mcp.self {:.3} + unattributed \
             {unattributed:.3} (replay self {:.3}, {} ops replayed)",
            self.op_ms,
            self.handler_ms,
            self.reconcile_ms,
            self.mcp_self_ms,
            per_op("op"),
            self.replayed,
        );
        let t = self.timed;
        let ops = t.ops() as f64;
        let d = |name: &str| t.delta(name);
        report.set("serve.self_ms", serve_self, "ms");
        report.set("mcp.self_ms", self.mcp_self_ms, "ms");
        report.set("unattributed_ms", unattributed, "ms");
        report.set(
            "mentor.embed_batch_size",
            ratio(d("core.mentor.embed_batched"), d("core.mentor.embed_batches")),
            "count",
        );
        report.set(
            "synthexpert.lint_repairs_per_op",
            d("core.synthexpert.lint_repairs") / ops,
            "count",
        );
        report.set(
            "eval.qorcache_hit_ratio",
            ratio(d("core.qorcache.hits"), d("core.qorcache.hits") + d("core.qorcache.misses")),
            "ratio",
        );
        report.set(
            "eval.semantic_canon_ratio",
            ratio(d("core.canon.semantic"), d("core.canon.semantic") + d("core.canon.textual")),
            "ratio",
        );
        report.set("synth.sta_full_builds_per_op", d("synth.sta.full_builds") / ops, "count");
        report.set(
            "synth.sta_incremental_per_op",
            d("synth.sta.incremental_updates") / ops,
            "count",
        );
        report.set("exec.pool_tasks_per_op", d("exec.pool.tasks") / ops, "count");
        report.set("serve.pool_builds_per_op", d("serve.pool.builds") / ops, "count");
        report.set("serve.pool_evictions_per_op", d("serve.pool.evictions") / ops, "count");
        report.set(
            "serve.pool_hit_ratio",
            ratio(d("serve.pool.hit"), d("serve.pool.hit") + d("serve.pool.miss")),
            "ratio",
        );
        report.set("agent.create_ms", self.agent_create_ms, "ms");
        report.set("agent.turn_ms", self.agent_turn_ms, "ms");
        report.set("agent.ttfe_ms", self.agent_ttfe_ms, "ms");
        report.set(
            "agent.carryover_ratio",
            ratio(d("serve.session.sta_carryover"), d("serve.session.turns")),
            "ratio",
        );
        report.set("database.build_s", stats::median(&self.setup.db_build_s), "s");
    }
}

/// Writes the span log under `.perfbench/` in the working directory.
pub fn write_spans(spans: &Spans, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!(".perfbench/spans-{workload}-seed{seed}.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => println!("{workload} trace: spans written to {}", path.display()),
        Err(e) => eprintln!("{workload} trace: could not write {}: {e}", path.display()),
    }
}
