//! The ChatLS pipeline: the paper's Fig. 2 workflow end to end.
//!
//! Given a user request, the design, its baseline script and the tool's
//! baseline report, [`ChatLs::customize`]:
//!
//! 1. runs **CircuitMentor** ([`embed_design`]) — builds the circuit
//!    graph and computes the design embedding with the database's trained
//!    GNN (the serving layer memoizes this per pooled design),
//! 2. queries **SynthRAG** — retrieves similar designs with their measured
//!    best strategies (graph-embedding retrieval, Eq. 4 + Eq. 5 rerank),
//! 3. lets the **Generator** (a fallible one-shot LLM stand-in) draft a
//!    customized script, augmented with the retrieved expert strategy, and
//! 4. hands the draft to **SynthExpert**, which revises every reasoning
//!    step against retrieval (manual validation, critical-path evidence,
//!    trait alignment) before emitting the final script.

use std::sync::OnceLock;

use crate::circuit_mentor::{build_circuit_graph, detect_traits};
use crate::database::{DesignHit, ExpertDatabase};
use crate::eval::run_carried;
use crate::llm::{Generator, OneShot, OneShotProfile, TaskContext, TimingSummary};
use crate::synthexpert::{ExpertTrace, SynthExpert};
use crate::synthrag::SynthRag;
use chatls_designs::GeneratedDesign;
use chatls_exec::{CancelToken, Cancelled};
use chatls_obs::ObsCtx;
use chatls_synth::SessionTemplate;
use serde::{Deserialize, Serialize};

/// Stage 1, CircuitMentor: builds the design's circuit graph and embeds
/// it with the database's trained GNN. The result depends only on the
/// design and the database, so the serving layer computes it once per
/// pooled design and hands the memo to [`ChatLs::try_customize`].
pub fn embed_design(db: &ExpertDatabase, design: &GeneratedDesign) -> Vec<f32> {
    db.mentor().design_embedding(&build_circuit_graph(design))
}

/// The baseline script the evaluation customizes (the paper adapts the
/// OpenROAD scripts to Design Compiler format; this is that adaptation).
pub fn baseline_script(period: f64) -> String {
    format!(
        "read_verilog design.v\nlink\ncreate_clock -period {period:.3} [get_ports clk]\n\
         set_wire_load_model -name 5K_heavy_1k\ncompile\nreport_qor\n"
    )
}

/// Runs the baseline script and condenses the report into a
/// [`TaskContext`] for the generators.
///
/// # Panics
///
/// Panics if the design cannot be mapped onto the library (generator bug).
pub fn prepare_task(design: &GeneratedDesign, user_request: &str) -> TaskContext {
    let template = crate::eval::session_template(design);
    prepare_task_in(design, user_request, &template, &CancelToken::never())
        .expect("a never-token cannot cancel task preparation")
}

/// [`prepare_task`] against an already-built [`SessionTemplate`] (the
/// serving layer's warm path: parse/lower/map is not re-paid per
/// request), honouring `cancel` at the baseline-synthesis boundary.
///
/// The template must have been built for `design`; the mapped design
/// keeps the lowered netlist verbatim, so trait detection and the
/// baseline run are byte-for-byte the ones [`prepare_task`] computes.
///
/// # Errors
///
/// Returns [`Cancelled`] when `cancel` fires before or during the
/// baseline synthesis run.
pub fn prepare_task_in(
    design: &GeneratedDesign,
    user_request: &str,
    template: &SessionTemplate,
    cancel: &CancelToken,
) -> Result<TaskContext, Cancelled> {
    let obs = ObsCtx::global();
    let _span = if obs.is_enabled() { Some(obs.span("core.prepare_task")) } else { None };
    cancel.checkpoint()?;
    let traits = detect_traits(&template.design().netlist);
    let script = baseline_script(design.default_period);
    let (qor, _, mut session) = run_carried(template, &script, None, cancel, None)?;
    let timing = session.timing_report();
    Ok(TaskContext {
        design_name: design.name.clone(),
        period: design.default_period,
        baseline_script: script,
        user_request: user_request.to_string(),
        traits,
        baseline: TimingSummary::from_run(&qor, &timing),
        timing_lint: chatls_lint::lint_timing(&timing).diagnostics,
    })
}

/// Everything ChatLS produced for one customization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChatLsOutcome {
    /// The design embedding CircuitMentor computed.
    pub embedding: Vec<f32>,
    /// Similar designs retrieved by SynthRAG, best first.
    pub similar: Vec<DesignHit>,
    /// The initial (fallible) draft before revision.
    pub draft: String,
    /// The SynthExpert revision trace.
    pub trace: ExpertTrace,
}

impl ChatLsOutcome {
    /// The final customized script.
    pub fn script(&self) -> &str {
        &self.trace.script
    }

    /// Condensed ScriptLint statistics: findings on the raw draft vs. on
    /// the final script. A healthy run has `final_errors == 0` however
    /// broken the draft was.
    pub fn lint_stats(&self) -> chatls_lint::LintStats {
        let count =
            |ds: &[chatls_lint::Diagnostic], sev| ds.iter().filter(|d| d.severity == sev).count();
        chatls_lint::LintStats {
            draft_errors: count(&self.trace.draft_lint, chatls_lint::Severity::Error),
            draft_warnings: count(&self.trace.draft_lint, chatls_lint::Severity::Warning),
            final_errors: count(&self.trace.final_lint, chatls_lint::Severity::Error),
            final_warnings: count(&self.trace.final_lint, chatls_lint::Severity::Warning),
        }
    }
}

/// A progress event emitted while [`ChatLs::try_customize`] runs — the
/// seam streaming front ends (SSE sessions) turn into wire events as the
/// pipeline produces them.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineEvent<'a> {
    /// A pipeline stage is starting: `"embed"`, `"retrieve"`, `"draft"`
    /// or `"refine"`.
    Stage {
        /// Stage name (bounded set, usable as a metric label).
        name: &'static str,
    },
    /// One SynthExpert chain-of-thought revision step (emitted in order
    /// once refinement completes).
    Thought(&'a crate::synthexpert::ThoughtStep),
}

/// The ChatLS framework instance.
pub struct ChatLs<'db> {
    db: &'db ExpertDatabase,
    drafter: OneShot,
    obs: ObsCtx,
    /// Number of similar designs to retrieve.
    pub retrieve_k: usize,
}

impl<'db> ChatLs<'db> {
    /// Creates a ChatLS instance over a built expert database, recording
    /// telemetry into the process-wide [`ObsCtx::global`] context.
    ///
    /// The internal drafting model uses the same fallibility profile as the
    /// GPT-4o baseline: ChatLS's advantage in the evaluation comes from
    /// retrieval grounding and stepwise revision, not from a better
    /// underlying "model".
    pub fn new(db: &'db ExpertDatabase) -> Self {
        Self {
            db,
            drafter: OneShot::new(OneShotProfile::gpt_like()),
            obs: ObsCtx::global().clone(),
            retrieve_k: 3,
        }
    }

    /// Replaces the observability context spans are recorded into.
    pub fn with_obs(mut self, obs: ObsCtx) -> Self {
        self.obs = obs;
        self
    }

    /// The database in use.
    pub fn database(&self) -> &ExpertDatabase {
        self.db
    }

    /// Full pipeline with intermediate artifacts. Each stage runs inside
    /// its own span (`core.mentor.embed`, `core.synthrag.retrieve`,
    /// `core.draft.generate`, `core.synthexpert.refine`) under a
    /// `core.pipeline.customize` parent.
    pub fn customize(
        &self,
        design: &GeneratedDesign,
        task: &TaskContext,
        seed: u64,
    ) -> ChatLsOutcome {
        self.try_customize(design, &OnceLock::new(), task, seed, &CancelToken::never(), &mut |_| {})
            .expect("a never-token cannot cancel customization")
    }

    /// [`ChatLs::customize`] as the serving layer runs it.
    ///
    /// - `embedding` memoizes stage 1: an empty cell is filled with
    ///   [`embed_design`], a filled one is used as is. Share a cell only
    ///   between calls on the same design and database.
    /// - `cancel` is honoured at every stage boundary. A fired token
    ///   abandons the remaining stages; no partial outcome is returned,
    ///   because a script from an unrevised draft must never be served.
    /// - `progress` receives a [`PipelineEvent::Stage`] as each stage
    ///   starts (`embed` included, memoized or not) and a
    ///   [`PipelineEvent::Thought`] per chain-of-thought revision step.
    ///   It runs on the pipeline thread, must be cheap and must not
    ///   panic.
    ///
    /// Neither the memo nor the events perturb the outcome: it is
    /// bitwise identical to [`ChatLs::customize`].
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when `cancel` fires between stages.
    pub fn try_customize(
        &self,
        design: &GeneratedDesign,
        embedding: &OnceLock<Vec<f32>>,
        task: &TaskContext,
        seed: u64,
        cancel: &CancelToken,
        progress: &mut dyn FnMut(PipelineEvent<'_>),
    ) -> Result<ChatLsOutcome, Cancelled> {
        let on = self.obs.is_enabled();
        let _span = if on { Some(self.obs.span("core.pipeline.customize")) } else { None };
        // 1. CircuitMentor.
        cancel.checkpoint()?;
        progress(PipelineEvent::Stage { name: "embed" });
        let embedding = {
            let _s = if on { Some(self.obs.span("core.mentor.embed")) } else { None };
            embedding.get_or_init(|| embed_design(self.db, design)).clone()
        };
        // 2. SynthRAG: similar designs + their measured best strategies.
        cancel.checkpoint()?;
        progress(PipelineEvent::Stage { name: "retrieve" });
        let rag = SynthRag::new(self.db);
        let similar = {
            let _s = if on { Some(self.obs.span("core.synthrag.retrieve")) } else { None };
            let similar = rag.similar_designs(&embedding, self.retrieve_k);
            chatls_obs::counter("core.synthrag.queries").inc();
            chatls_obs::counter("core.synthrag.retrieved").add(similar.len() as u64);
            similar
        };
        // 3. Draft: the fallible base model, augmented with the retrieved
        //    expert strategy body (RAG-augmented generation).
        cancel.checkpoint()?;
        progress(PipelineEvent::Stage { name: "draft" });
        let mut draft = {
            let _s = if on { Some(self.obs.span("core.draft.generate")) } else { None };
            self.drafter.generate(task, seed)
        };
        if let Some(best) = similar.first() {
            draft.push_str("\n# retrieved strategy from similar design\n");
            for line in best.script.lines() {
                // The retrieved script's clock belongs to the other design;
                // step T1 of the revision restores this design's period.
                draft.push_str(line);
                draft.push('\n');
            }
        }
        // 4. SynthExpert revision (CoT × RAG).
        cancel.checkpoint()?;
        progress(PipelineEvent::Stage { name: "refine" });
        let trace = {
            let _s = if on { Some(self.obs.span("core.synthexpert.refine")) } else { None };
            let expert = SynthExpert::new(rag);
            expert.refine(task, &draft)
        };
        for step in &trace.steps {
            progress(PipelineEvent::Thought(step));
        }
        Ok(ChatLsOutcome { embedding, similar, draft, trace })
    }
}

/// One round of the iterative flow: the achieved QoR and the script used.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index (0 = the first customization).
    pub iteration: usize,
    /// Script run this iteration.
    pub script: String,
    /// WNS achieved.
    pub wns: f64,
    /// CPS achieved.
    pub cps: f64,
    /// Area achieved.
    pub area: f64,
}

impl<'db> ChatLs<'db> {
    /// Iterative resynthesis (paper §V-B: "logic synthesis is inherently an
    /// iterative process"): customize, synthesize, feed the fresh report
    /// back, and customize again, up to `iterations` rounds or until timing
    /// closes.
    ///
    /// Each round's baseline is the previous round's run, condensed by the
    /// feedback rule an agent session's turns share, so later rounds see
    /// the updated critical path and slack — the feedback loop the paper's
    /// Fig. 2 shows from the tool reports. Rounds synthesize through the
    /// session's carried-graph run. The loop's own policy is best-so-far:
    /// a round that regresses is rejected and ends the loop, where a
    /// session adopts every turn.
    pub fn iterate(
        &self,
        design: &GeneratedDesign,
        user_request: &str,
        iterations: usize,
        seed: u64,
    ) -> Vec<IterationRecord> {
        let never = CancelToken::never();
        // One elaboration + mapping for the whole loop; the baseline and
        // every round stamp sessions from the shared template.
        let template = crate::eval::session_template(design);
        let mut task = prepare_task_in(design, user_request, &template, &never)
            .expect("a never-token cannot cancel task preparation");
        let mut records: Vec<IterationRecord> = Vec::new();
        let mut graph = None;
        for iteration in 0..iterations {
            let script = self.customize(design, &task, seed + iteration as u64).trace.script;
            let (qor, _, mut session) = run_carried(&template, &script, graph.take(), &never, None)
                .expect("a never-token cannot cancel a run");
            // Best-so-far semantics: a round that regresses is rejected and
            // the flow keeps the previous script (and stops — the
            // escalation ladder has nothing better to offer).
            if let Some(prev) = records.last() {
                if qor.cps < prev.cps {
                    let mut keep = prev.clone();
                    keep.iteration = iteration;
                    records.push(keep);
                    break;
                }
            }
            records.push(IterationRecord {
                iteration,
                script: script.clone(),
                wns: qor.wns,
                cps: qor.cps,
                area: qor.area,
            });
            if qor.wns >= 0.0 {
                break;
            }
            // Feed the new report back into the next round's context.
            task.baseline = TimingSummary::from_run(&qor, &session.timing_report());
            task.baseline_script = script;
            graph = Some(session.detach_timing_graph());
        }
        records
    }
}

impl Generator for ChatLs<'_> {
    fn name(&self) -> &str {
        "ChatLS"
    }

    fn generate(&self, task: &TaskContext, seed: u64) -> String {
        // Resolve the design by name: the Generator interface only carries
        // the task, matching how the baselines are driven.
        let design = chatls_designs::by_name(&task.design_name)
            .or_else(|| {
                chatls_designs::soc_configs(8, 42)
                    .into_iter()
                    .find(|c| c.name == task.design_name)
                    .map(|c| c.design)
            })
            .unwrap_or_else(|| panic!("unknown design '{}'", task.design_name));
        self.customize(&design, task, seed).trace.script
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::quick_db;
    use chatls_designs::by_name;
    use chatls_synth::SessionBuilder;

    #[test]
    fn prepare_task_summarizes_baseline() {
        let d = by_name("aes").unwrap();
        let task = prepare_task(&d, "optimize timing");
        assert_eq!(task.period, d.default_period);
        assert!(task.baseline.area > 0.0);
        assert!(!task.baseline.critical_modules.is_empty());
    }

    #[test]
    fn customize_produces_runnable_script() {
        let db = quick_db();
        let chatls = ChatLs::new(db);
        let d = by_name("aes").unwrap();
        let task = prepare_task(&d, "optimize timing");
        let outcome = chatls.customize(&d, &task, 0);
        assert!(!outcome.similar.is_empty());
        assert_eq!(outcome.embedding.len(), db.mentor().embedding_dim());
        let mut session =
            SessionBuilder::new(d.netlist(), chatls_liberty::nangate45()).session().unwrap();
        let r = session.run_script(outcome.script());
        assert!(r.ok(), "{:?}\n{}", r.error, outcome.script());
    }

    #[test]
    fn chatls_never_changes_the_period() {
        let db = quick_db();
        let chatls = ChatLs::new(db);
        let d = by_name("dynamic_node").unwrap();
        let task = prepare_task(&d, "optimize timing");
        for seed in 0..8 {
            let script = chatls.generate(&task, seed);
            assert!(
                crate::llm::respects_fixed_period(&script, task.period),
                "seed {seed}:\n{script}"
            );
        }
    }

    #[test]
    fn iterate_runs_and_never_regresses() {
        let db = quick_db();
        let chatls = ChatLs::new(db);
        let d = by_name("aes").unwrap();
        let records = chatls.iterate(&d, "close timing", 2, 0);
        assert!(!records.is_empty());
        for w in records.windows(2) {
            assert!(w[1].wns >= w[0].wns - 1e-9, "iteration regressed: {w:?}");
        }
        // aes closes within the budget; the loop stops early once met.
        assert!(records.last().unwrap().wns >= 0.0);
    }

    #[test]
    fn outcome_records_lint_stats_and_final_script_is_error_free() {
        let db = quick_db();
        let chatls = ChatLs::new(db);
        let d = by_name("aes").unwrap();
        let task = prepare_task(&d, "optimize timing");
        let outcome = chatls.customize(&d, &task, 3);
        let stats = outcome.lint_stats();
        assert_eq!(stats.final_errors, 0, "final lint: {:?}", outcome.trace.final_lint);
        let report = chatls_lint::lint_script(outcome.script());
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn chatls_beats_baseline_timing_on_aes() {
        let db = quick_db();
        let chatls = ChatLs::new(db);
        let d = by_name("aes").unwrap();
        let task = prepare_task(&d, "optimize timing");
        let script = chatls.generate(&task, 1);
        let mut session =
            SessionBuilder::new(d.netlist(), chatls_liberty::nangate45()).session().unwrap();
        let r = session.run_script(&script);
        assert!(r.ok());
        assert!(
            r.qor.cps >= task.baseline.cps,
            "chatls {} vs baseline {}",
            r.qor.cps,
            task.baseline.cps
        );
    }
}
