//! Evaluation harness: the paper's §V protocols.
//!
//! - [`pass_at_k`] — the Table III protocol: each model customizes the
//!   baseline script `k` times (one customization iteration each, clock
//!   period fixed); the best run by timing-then-area is reported. Scripts
//!   that change the clock period are disqualified, and failed scripts
//!   count with their abort-point QoR.
//! - [`f1_score`] / [`RetrievalEval`] — the Fig. 5 protocol: precision,
//!   recall and F1 of retrieved sets against ground truth.

use crate::llm::{respects_fixed_period, Generator, TaskContext};
use chatls_designs::GeneratedDesign;
use chatls_exec::{fnv1a, CacheStats, CancelToken, Cancelled, ExecPool, ShardedCache};
use chatls_liberty::nangate45;
use chatls_obs::ObsCtx;
use chatls_synth::{
    CommandObserver, QorReport, SessionBuilder, SessionTemplate, SynthSession, TimingGraph,
};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Result of one evaluated model on one design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRow {
    /// Model name.
    pub model: String,
    /// Design name.
    pub design: String,
    /// Best run's WNS (ns).
    pub wns: f64,
    /// Best run's CPS (ns).
    pub cps: f64,
    /// Best run's TNS (ns).
    pub tns: f64,
    /// Best run's area (µm²).
    pub area: f64,
    /// How many of the k samples executed without error and with a legal
    /// period.
    pub valid_samples: usize,
    /// Seed of the best sample.
    pub best_seed: u64,
}

/// Stable 64-bit fingerprint of a design: everything that determines its
/// synthesis outcome (name, RTL source, top module, default period).
/// Editing the catalog entry changes the fingerprint, so stale QoR cache
/// entries can never be served for a modified design.
pub fn design_fingerprint(design: &GeneratedDesign) -> u64 {
    let mut buf = Vec::with_capacity(design.source.len() + 64);
    buf.extend_from_slice(design.name.as_bytes());
    buf.push(0);
    buf.extend_from_slice(design.top.as_bytes());
    buf.push(0);
    buf.extend_from_slice(design.default_period.to_bits().to_le_bytes().as_slice());
    buf.extend_from_slice(design.source.as_bytes());
    fnv1a(&buf)
}

/// Canonical form of a script for cache keying.
///
/// Scripts that ScriptIR proves runnable are normalized through
/// [`chatls_lint::canonical_script`]: pure commands (aliases, reports,
/// `write`) dropped, provably-dead and no-op constraint writes
/// eliminated, commuting adjacent constraints sorted. Two scripts with
/// the same semantic canonical form are *guaranteed* to produce
/// bitwise-identical `(QoR, ok)` pairs (the differential oracle in
/// `tests/scriptir_integration.rs` enforces this across the design
/// catalog), so
/// textually-distinct but equivalent scripts share one QorCache entry.
///
/// Scripts the prover declines (unknown commands, grammar violations,
/// unprovable runtime values) fall back to the textual form:
/// leading/trailing whitespace trimmed per line, blank lines and
/// whole-line `#` comments dropped. The two key spaces cannot collide:
/// a semantic key is itself a provable script, and provability is a
/// function of the text — so no unprovable script's textual key can
/// equal any semantic key. The `core.canon.semantic` and
/// `core.canon.textual` counters record which form each call produced.
pub fn canonicalize_script(script: &str) -> String {
    if let Some(canon) = chatls_lint::canonical_script(script) {
        chatls_obs::counter("core.canon.semantic").inc();
        return canon;
    }
    chatls_obs::counter("core.canon.textual").inc();
    let mut out = String::with_capacity(script.len());
    for line in script.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        out.push_str(t);
        out.push('\n');
    }
    out
}

/// Memoized synthesis results: (design fingerprint, canonical script) →
/// (QoR, valid). Sharded and lock-striped ([`ShardedCache`]), so parallel
/// `pass_at_k` workers and concurrent bench sweeps share one cache
/// without serializing on a single lock.
///
/// Only the `(QoR, ok)` pair of a run is cached, never the session it
/// left behind. `ChatLs::iterate` needs every round's timing report, so
/// it bypasses the cache; a session turn goes through it and, on a hit,
/// keeps its previous critical path.
pub struct QorCache {
    inner: ShardedCache<(u64, String), (QorReport, bool)>,
}

/// Entry cap for every [`QorCache`] (LRU per shard beyond it). Far above
/// what a bench sweep touches, but it keeps a long-running `chatls serve`
/// daemon bounded when untrusted clients submit endless distinct
/// (design, script) pairs to `/v1/eval`.
pub const QOR_CACHE_CAPACITY: usize = 16 * 1024;

impl QorCache {
    /// An empty cache, capped at [`QOR_CACHE_CAPACITY`] entries.
    /// Hit/miss counters are mirrored into the obs registry as
    /// `core.qorcache.hits` / `core.qorcache.misses` (every instance
    /// feeds the same process-wide counters; the local [`CacheStats`]
    /// stay per-instance).
    pub fn new() -> Self {
        Self { inner: ShardedCache::named_bounded("core.qorcache", QOR_CACHE_CAPACITY) }
    }

    /// The process-wide cache shared by the default [`pass_at_k`] entry
    /// point and the serving layer.
    pub fn global() -> &'static QorCache {
        static GLOBAL: OnceLock<QorCache> = OnceLock::new();
        GLOBAL.get_or_init(QorCache::new)
    }

    /// The cached result for `script` on the design fingerprinted `fp`,
    /// or `run()` memoized under that key.
    pub fn get_or_run<F: FnOnce() -> (QorReport, bool)>(
        &self,
        fp: u64,
        script: &str,
        run: F,
    ) -> (QorReport, bool) {
        self.inner.get_or_insert_with((fp, canonicalize_script(script)), run)
    }

    /// [`QorCache::get_or_run`] with a cooperative cancel token. A hit is
    /// served regardless of token state (it costs nothing); on a miss the
    /// run may abort, and a cancelled run is *not* memoized — the next
    /// caller re-runs the script rather than being served a truncated
    /// QoR.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the miss path's run was aborted.
    pub fn get_or_run_cancellable<F: FnOnce() -> Result<(QorReport, bool), Cancelled>>(
        &self,
        fp: u64,
        script: &str,
        run: F,
    ) -> Result<(QorReport, bool), Cancelled> {
        let key = (fp, canonicalize_script(script));
        if let Some(v) = self.inner.peek(&key) {
            // Route through get_or_insert_with so the hit is counted.
            return Ok(self.inner.get_or_insert_with(key, || v));
        }
        let value = run()?;
        // Two concurrent misses may both run; get_or_insert_with keeps one
        // entry either way (runs are deterministic per key).
        Ok(self.inner.get_or_insert_with(key, || value))
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Number of memoized (design, script) pairs.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// True when `script` on the design fingerprinted `fp` would hit —
    /// i.e. some previously-run script shares its canonical key. Does not
    /// touch hit/miss counters or LRU order; used by tests to prove that
    /// equivalent scripts collapse to one entry.
    pub fn contains(&self, fp: u64, script: &str) -> bool {
        self.inner.peek(&(fp, canonicalize_script(script))).is_some()
    }

    /// The cached `(QoR, ok)` for `script` on `fp`, or `None` — without
    /// running anything and without touching hit/miss counters or LRU
    /// order. A session turn peeks first, so a hit streams one
    /// `qor_cached` event instead of per-command deltas.
    pub fn peek(&self, fp: u64, script: &str) -> Option<(QorReport, bool)> {
        self.inner.peek(&(fp, canonicalize_script(script)))
    }

    /// Drops all entries and zeroes the counters.
    pub fn clear(&self) {
        self.inner.clear()
    }
}

impl Default for QorCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Emits evaluation-engine telemetry on stderr through the obs metrics
/// sink: the migrated `core.qorcache.*` hit/miss counters (plus a fresh
/// `core.qorcache.entries` gauge snapshot) and the `synth.sta.*`
/// incremental-STA counters, all in the registry's one
/// `stage.subsystem.metric` schema. Stdout is never touched, so experiment
/// output stays byte-identical whatever the cache and timing-graph hit
/// patterns were; `--quiet` / [`chatls_obs::set_global_quiet`] suppresses
/// the emission entirely. When the process-wide [`chatls_obs::ObsCtx`] is
/// enabled (`CHATLS_TELEMETRY`), emission is deferred to the terminal
/// `finish()` sink so the metrics tables print exactly once.
pub fn print_eval_telemetry() {
    sync_eval_gauges();
    if !chatls_obs::ObsCtx::global().is_enabled() {
        chatls_obs::emit_metrics_stderr();
    }
}

/// Refreshes the point-in-time gauges the eval engine owns (currently the
/// global QorCache entry count) so sinks render current values. Called by
/// [`print_eval_telemetry`] and by the CLI right before it finalizes the
/// telemetry document.
pub fn sync_eval_gauges() {
    chatls_obs::gauge("core.qorcache.entries").set(QorCache::global().len() as i64);
}

/// Builds the reusable session template for a design: Verilog elaborated
/// and mapped onto the library once; sessions stamp out cheaply from it.
/// Spans land in the process-wide [`ObsCtx::global`] context.
///
/// # Panics
///
/// Panics if the design cannot be mapped onto the library (catalog bug).
pub fn session_template(design: &GeneratedDesign) -> SessionTemplate {
    session_template_obs(design, ObsCtx::global())
}

/// [`session_template`] with an explicit observability context: the
/// mapping step and every script command on stamped sessions record spans
/// there.
///
/// # Panics
///
/// Panics if the design cannot be mapped onto the library (catalog bug).
pub fn session_template_obs(design: &GeneratedDesign, obs: &ObsCtx) -> SessionTemplate {
    SessionBuilder::new(design.netlist(), nangate45())
        .obs(obs.clone())
        .template()
        .expect("library covers all primitive gates")
}

/// Runs `script` on a session stamped from `template`: the one synthesis
/// run behind the served paths and both multi-turn loops
/// ([`crate::pipeline::ChatLs::iterate`] and an agent session's turns).
/// Returns the QoR, whether the whole script ran without error, and the
/// session the run left behind, from which a multi-turn loop reads the
/// timing report and detaches the timing graph for its next run.
///
/// - `carried` is the previous run's timing graph, when the loop kept
///   one. It is re-attached invalidated, so only its allocations carry
///   over and the QoR is bitwise the one a fresh stamp measures.
/// - `cancel` is checked before every command and inside the long
///   optimization passes. The template is never mutated, so a cancelled
///   run cannot poison later stamps.
/// - `observer` receives a [`chatls_synth::CommandEvent`] per executed
///   command.
///
/// # Errors
///
/// Returns [`Cancelled`] when the token fired mid-run; the aborted
/// session, carried graph included, is dropped.
pub(crate) fn run_carried(
    template: &SessionTemplate,
    script: &str,
    carried: Option<TimingGraph>,
    cancel: &CancelToken,
    observer: Option<CommandObserver>,
) -> Result<(QorReport, bool, SynthSession), Cancelled> {
    let mut session = template.session();
    if let Some(graph) = carried {
        session.attach_timing_graph(graph);
    }
    session.set_cancel_token(cancel.clone());
    session.set_command_observer(observer);
    let result = session.run_script(script);
    if result.was_cancelled() {
        return Err(Cancelled);
    }
    let ok = result.ok();
    Ok((result.qor, ok, session))
}

/// Runs a script on a session stamped from `template`; returns the QoR
/// and whether the run was fully valid. The never-cancel, nothing-carried
/// form of the run the serving layer and the multi-turn loops share.
pub fn run_script_in(template: &SessionTemplate, script: &str) -> (QorReport, bool) {
    let (qor, ok, _) = run_carried(template, script, None, &CancelToken::never(), None)
        .expect("a never-token cannot cancel a run");
    (qor, ok)
}

/// The Table III protocol: best of `k` customizations.
///
/// Selection prefers (1) legal, error-free runs, (2) higher CPS,
/// (3) smaller area.
///
/// Seeds are evaluated on the global [`ExecPool`] against the global
/// [`QorCache`]; see [`pass_at_k_on`] for the determinism contract.
pub fn pass_at_k(
    model: &dyn Generator,
    design: &GeneratedDesign,
    task: &TaskContext,
    k: u64,
) -> EvalRow {
    pass_at_k_on(ExecPool::global(), QorCache::global(), ObsCtx::global(), model, design, task, k)
}

/// [`pass_at_k`] with explicit execution resources and observability
/// context.
///
/// The `k` candidate scripts are generated and synthesized in parallel on
/// `pool` (generators are deterministic per `(task, seed)` and scripts
/// are pure functions of the pristine design, so order of evaluation
/// cannot matter); the winner is then selected by a serial scan in seed
/// order, reproducing the serial loop's first-better-wins tie-breaking
/// exactly. The returned row is identical for any pool width.
///
/// The design is elaborated and mapped at most once per call (lazily — a
/// fully cached evaluation never touches the Verilog), and the baseline
/// QoR used to score disqualified samples is computed at most once
/// instead of once per disqualified seed.
///
/// Telemetry: the call runs under a `core.eval.pass_at_k` span in `obs`
/// (worker-side spans surface as roots — the pool boundary is kept
/// visible), samples count into `core.eval.samples`, per-sample wall time
/// into the `core.eval.sample_wall_ns` histogram, and period-tampering
/// disqualifications into `core.eval.disqualified`.
pub fn pass_at_k_on(
    pool: &ExecPool,
    cache: &QorCache,
    obs: &ObsCtx,
    model: &dyn Generator,
    design: &GeneratedDesign,
    task: &TaskContext,
    k: u64,
) -> EvalRow {
    let _span = if obs.is_enabled() { Some(obs.span("core.eval.pass_at_k")) } else { None };
    chatls_obs::counter("core.eval.samples").add(k);
    let disqualified = chatls_obs::counter("core.eval.disqualified");
    let sample_wall =
        chatls_obs::histogram("core.eval.sample_wall_ns", chatls_obs::DURATION_NS_BOUNDS);
    let fp = design_fingerprint(design);
    let template: OnceLock<SessionTemplate> = OnceLock::new();
    let template = || template.get_or_init(|| session_template_obs(design, obs));
    // Baseline QoR for disqualified samples: invariant across seeds, so
    // computed at most once per call (and usually served by the cache —
    // the baseline is what every evaluation in a sweep re-runs).
    let baseline: OnceLock<QorReport> = OnceLock::new();
    let samples: Vec<(QorReport, bool)> = pool.run(k as usize, |i| {
        let started = std::time::Instant::now();
        let script = model.generate(task, i as u64);
        let legal = respects_fixed_period(&script, task.period);
        let sample = if legal {
            let (qor, ok) = cache.get_or_run(fp, &script, || run_script_in(template(), &script));
            (qor, ok && legal)
        } else {
            // Disqualified: the period was tampered with. Score as the
            // baseline (no improvement) to mirror a rejected submission.
            disqualified.inc();
            let q = baseline
                .get_or_init(|| {
                    cache
                        .get_or_run(fp, &task.baseline_script, || {
                            run_script_in(template(), &task.baseline_script)
                        })
                        .0
                })
                .clone();
            (q, false)
        };
        sample_wall.record(started.elapsed().as_nanos() as f64);
        sample
    });
    let mut best: Option<(QorReport, bool, u64)> = None;
    let mut valid = 0usize;
    for (seed, (qor, sample_valid)) in samples.into_iter().enumerate() {
        if sample_valid {
            valid += 1;
        }
        let better = match &best {
            None => true,
            Some((bq, bvalid, _)) => {
                (sample_valid, qor.cps, -qor.area) > (*bvalid, bq.cps, -bq.area)
            }
        };
        if better {
            best = Some((qor, sample_valid, seed as u64));
        }
    }
    let (qor, _, best_seed) = best.expect("k >= 1");
    EvalRow {
        model: model.name().to_string(),
        design: design.name.clone(),
        wns: qor.wns,
        cps: qor.cps,
        tns: qor.tns,
        area: qor.area,
        valid_samples: valid,
        best_seed,
    }
}

/// Precision/recall/F1 of a retrieval (Fig. 5, Eq. 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct RetrievalEval {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl RetrievalEval {
    /// Precision = TP / (TP + FP); 0 when undefined.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Recall = TP / (TP + FN); 0 when undefined.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// F1 = 2PR / (P + R); 0 when undefined.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accumulates another evaluation's counts (micro-averaging).
    pub fn merge(&mut self, other: RetrievalEval) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

/// Scores one retrieval: `retrieved` against the `relevant` ground truth.
pub fn f1_score<T: PartialEq>(retrieved: &[T], relevant: &[T]) -> RetrievalEval {
    let tp = retrieved.iter().filter(|r| relevant.contains(r)).count();
    RetrievalEval { tp, fp: retrieved.len() - tp, fn_: relevant.len() - tp }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{baseline_script, prepare_task};
    use chatls_designs::by_name;

    struct FixedScript(String);

    impl Generator for FixedScript {
        fn name(&self) -> &str {
            "fixed"
        }

        fn generate(&self, _task: &TaskContext, _seed: u64) -> String {
            self.0.clone()
        }
    }

    #[test]
    fn f1_math() {
        let e = f1_score(&["a", "b", "c"], &["a", "b", "d", "e"]);
        assert_eq!(e.tp, 2);
        assert_eq!(e.fp, 1);
        assert_eq!(e.fn_, 2);
        assert!((e.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((e.recall() - 0.5).abs() < 1e-12);
        let f1 = e.f1();
        assert!((f1 - (2.0 * (2.0 / 3.0) * 0.5 / (2.0 / 3.0 + 0.5))).abs() < 1e-12);
    }

    #[test]
    fn f1_empty_sets_are_zero_not_nan() {
        let e = f1_score::<&str>(&[], &[]);
        assert_eq!(e.f1(), 0.0);
        assert_eq!(e.precision(), 0.0);
    }

    #[test]
    fn merge_micro_averages() {
        let mut a = f1_score(&["x"], &["x"]);
        a.merge(f1_score(&["y"], &["z"]));
        assert_eq!((a.tp, a.fp, a.fn_), (1, 1, 1));
    }

    #[test]
    fn pass_at_k_prefers_valid_and_faster() {
        let d = by_name("riscv32i").unwrap();
        let task = prepare_task(&d, "optimize timing");
        // A fixed valid high-effort script: one sample suffices.
        let model = FixedScript(format!(
            "create_clock -period {:.3} [get_ports clk]\nset_wire_load_model -name 5K_heavy_1k\ncompile -map_effort high\n",
            task.period
        ));
        let row = pass_at_k(&model, &d, &task, 2);
        assert_eq!(row.valid_samples, 2);
        assert!(row.cps >= task.baseline.cps - 1e-9);
    }

    #[test]
    fn pass_at_k_disqualifies_period_changes() {
        let d = by_name("riscv32i").unwrap();
        let task = prepare_task(&d, "optimize timing");
        let model = FixedScript("create_clock -period 99.0 [get_ports clk]\ncompile\n".to_string());
        let row = pass_at_k(&model, &d, &task, 1);
        assert_eq!(row.valid_samples, 0);
        // Scored as baseline, not as the 99ns fantasy.
        assert!((row.cps - task.baseline.cps).abs() < 0.05, "{} vs {}", row.cps, task.baseline.cps);
    }

    #[test]
    fn baseline_script_matches_task() {
        let d = by_name("aes").unwrap();
        let s = baseline_script(d.default_period);
        assert!(s.contains("create_clock"));
        assert!(chatls_synth::script::parse_script(&s).is_ok());
    }

    #[test]
    fn semantic_canon_collapses_equivalent_scripts_to_one_entry() {
        // Textually distinct, semantically identical: comments, aliases,
        // reports, a dead fanout write, and permuted adjacent constraints.
        let a = "create_clock -period 1.1 [get_ports clk]\nset_max_fanout 8\ncompile\nreport_qor\n";
        let b = "# tuned variant\nlink\nset_max_fanout 16\nset_max_fanout 8\n\
                 create_clock -period 1.1 [get_ports clk]\ncompile\nreport_timing\n";
        assert_eq!(canonicalize_script(a), canonicalize_script(b));

        let cache = QorCache::new();
        let qor = QorReport {
            design: "canon-test".into(),
            wns: 0.1,
            cps: 1.0,
            tns: 0.0,
            area: 42.0,
            leakage: 0.0,
            cells: 10,
            registers: 2,
        };
        let first = cache.get_or_run(7, a, || (qor.clone(), true));
        // The equivalent script must be served from cache: the closure
        // proving "no second synthesis run" by panicking if invoked.
        let second = cache.get_or_run(7, b, || panic!("equivalent script re-synthesized"));
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.contains(7, b));
    }

    #[test]
    fn unprovable_scripts_fall_back_to_textual_canon() {
        // Unknown command: the prover declines, textual rules apply.
        let src = "  frobnicate\n\n# comment\ncompile\n";
        assert_eq!(canonicalize_script(src), "frobnicate\ncompile\n");
        // And distinct fallible library lookups never collapse.
        let a = "create_clock -period 1.0 [get_ports clk]\nset_wire_load_model -name A\ncompile\n";
        let b = "create_clock -period 1.0 [get_ports clk]\nset_wire_load_model -name B\ncompile\n";
        assert_ne!(canonicalize_script(a), canonicalize_script(b));
    }
}
