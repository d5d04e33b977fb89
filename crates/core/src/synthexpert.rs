//! SynthExpert: iterative script refinement with CoT + RAG
//! (paper §IV-C, Eq. 6).
//!
//! Given a drafted script, SynthExpert walks a fixed chain of thought
//! steps. At each step `Tᵢ` it formulates a retrieval query `Qᵢ`, fetches
//! `Rᵢ = Retrieve(Qᵢ)` through SynthRAG, and revises the step's view of the
//! script (`Tᵢ*`), so every decision is grounded in retrieved evidence:
//!
//! 1. **Constraint integrity** — the clock period and base configuration
//!    must survive customization (evaluation rule).
//! 2. **Command validation** — every command is checked against the
//!    retrieved manual entry; hallucinated commands are repaired to their
//!    nearest documented counterpart or dropped, invalid option values are
//!    fixed from the synopsis.
//! 3. **Critical-path evidence** — the code of modules on the reported
//!    critical path is fetched (graph-structure retrieval) and summarized.
//! 4. **Strategy alignment** — the dominant design traits are matched
//!    against manual guidance and the expert database's measured
//!    strategies; missing levers are inserted, mismatched ones replaced.
//! 5. **Objective check** — area commands are kept only when the timing
//!    budget allows (or the user asked for area).
//! 6. **Assembly** — commands are deduplicated and ordered
//!    constraints-first, reports-last.

use crate::llm::TaskContext;
use crate::synthrag::SynthRag;
use chatls_lint::Diagnostic;
use chatls_synth::script::{parse_script, Command};
use chatls_synth::tool::parse_fanout_limit;
use serde::{Deserialize, Serialize};

/// One revised thought step (`Tᵢ` → `Tᵢ*`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThoughtStep {
    /// Step index.
    pub index: usize,
    /// The reasoning step `Tᵢ`.
    pub thought: String,
    /// The formulated retrieval query `Qᵢ`.
    pub query: String,
    /// Summaries of the retrieved information `Rᵢ`.
    pub retrieved: Vec<String>,
    /// Human-readable description of the revision applied (empty if the
    /// step confirmed the draft).
    pub revision: String,
}

/// The full refinement trace plus the final script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpertTrace {
    /// All thought steps in order.
    pub steps: Vec<ThoughtStep>,
    /// The final customized script.
    pub script: String,
    /// ScriptLint diagnostics on the incoming draft, before any revision.
    pub draft_lint: Vec<Diagnostic>,
    /// ScriptLint diagnostics remaining on the final script (expected
    /// empty; anything here survived every repair pass).
    pub final_lint: Vec<Diagnostic>,
}

/// The SynthExpert refinement engine.
pub struct SynthExpert<'db> {
    rag: SynthRag<'db>,
}

impl<'db> SynthExpert<'db> {
    /// Creates an expert over a retrieval facade.
    pub fn new(rag: SynthRag<'db>) -> Self {
        Self { rag }
    }

    /// The underlying retriever.
    pub fn rag(&self) -> &SynthRag<'db> {
        &self.rag
    }

    /// Refines a drafted script for the task, returning the trace.
    pub fn refine(&self, task: &TaskContext, draft: &str) -> ExpertTrace {
        chatls_obs::counter("core.synthexpert.refinements").inc();
        let draft_lint = chatls_lint::lint_script(draft).diagnostics;
        let mut steps = Vec::new();
        let mut commands: Vec<String> = draft
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();

        // T1: constraint integrity.
        {
            let mut revision = String::new();
            let want = format!("create_clock -period {:.3} [get_ports clk]", task.period);
            let mut found = false;
            for line in commands.iter_mut() {
                if line.starts_with("create_clock") {
                    found = true;
                    if !period_matches(line, task.period) {
                        revision = format!("restored the fixed clock period {:.3} ns", task.period);
                        *line = want.clone();
                    }
                }
            }
            if !found {
                commands.insert(0, want);
                revision = "inserted the mandatory create_clock".into();
            }
            if !commands.iter().any(|l| l.starts_with("set_wire_load_model")) {
                commands.insert(1, "set_wire_load_model -name 5K_heavy_1k".into());
                if revision.is_empty() {
                    revision = "inserted the baseline wireload model".into();
                }
            }
            steps.push(ThoughtStep {
                index: 1,
                thought: "Verify the base configuration (clock period, wireload) is unchanged"
                    .into(),
                query: "create_clock requirements".into(),
                retrieved: self
                    .rag
                    .lookup_command("create_clock")
                    .map(|e| vec![e.requirements.to_string()])
                    .unwrap_or_default(),
                revision,
            });
        }

        // T2: command validation against the manual.
        {
            let mut retrieved = Vec::new();
            let mut revisions = Vec::new();
            let mut validated = Vec::new();
            for line in &commands {
                match self.validate_command(line) {
                    Validation::Ok => validated.push(line.clone()),
                    Validation::Repaired(fixed, why) => {
                        revisions.push(why);
                        validated.push(fixed);
                    }
                    Validation::Dropped(why) => revisions.push(why),
                }
                if let Some(name) = first_word(line) {
                    if let Some(e) = self.rag.lookup_command(name) {
                        retrieved.push(format!("{}: {}", e.name, e.synopsis));
                    }
                }
            }
            commands = validated;
            // ScriptLint pass: the manual check above catches hallucinated
            // commands; the linter additionally catches malformed options,
            // ordering hazards and redundancy — and repairs them statically,
            // before any simulated synthesis runs.
            let report = chatls_lint::lint_script(&commands.join("\n"));
            if report.has_mechanical_findings() {
                let outcome = chatls_lint::repair_script(&commands.join("\n"));
                commands = outcome.script.lines().map(str::to_string).collect();
                chatls_obs::counter("core.synthexpert.lint_repairs")
                    .add(outcome.fixes.len() as u64);
                revisions.extend(outcome.fixes);
                retrieved.push(format!(
                    "lint: {} error(s), {} warning(s) flagged statically",
                    report.error_count(),
                    report.warning_count()
                ));
            }
            // Semantic findings (SL015+) have no mechanical rewrite; they
            // ride along as retrieved evidence so later steps — and the
            // trace consumer — see what the effect model proved about the
            // draft (dead writes, inert reports, contradictory exceptions).
            let semantic: Vec<&chatls_lint::Diagnostic> =
                report.diagnostics.iter().filter(|d| !d.is_mechanical()).collect();
            if !semantic.is_empty() {
                chatls_obs::counter("core.synthexpert.semantic_findings")
                    .add(semantic.len() as u64);
                retrieved.extend(semantic.iter().map(|d| format!("scriptir: {d}")));
            }
            retrieved.sort();
            retrieved.dedup();
            steps.push(ThoughtStep {
                index: 2,
                thought: "Validate every command and option against the tool manual".into(),
                query: "manual lookup for each drafted command".into(),
                retrieved,
                revision: revisions.join("; "),
            });
        }

        // T3: critical-path evidence.
        {
            let code = self.rag.code_for_path(&task.baseline.critical_modules);
            let mut retrieved: Vec<String> = code
                .iter()
                .map(|(name, text)| format!("{name} ({} lines)", text.lines().count()))
                .collect();
            // Timing-analysis hazards from the baseline run (e.g. NL006
            // cycle remnants): the expert must know when the slack numbers
            // it is reasoning from are single-pass pessimistic.
            retrieved.extend(task.timing_lint.iter().map(|d| d.to_string()));
            steps.push(ThoughtStep {
                index: 3,
                thought: "Inspect the modules on the reported critical path".into(),
                query: format!("code for path modules {:?}", task.baseline.critical_modules),
                retrieved,
                revision: String::new(),
            });
        }

        // T4: strategy alignment with design traits + database evidence.
        {
            let traits = &task.traits;
            let mut tags: Vec<&str> = Vec::new();
            if traits.high_fanout() {
                tags.push("fanout");
            }
            if traits.deep_logic() {
                tags.push("depth");
                tags.push("pipeline");
            }
            if traits.hierarchical() {
                tags.push("hierarchy");
            }
            let db_strategies = self.rag.database().strategies_for_tags(&tags);
            let manual_hits = self.rag.manual_search(&trait_question(traits), 3);
            let mut retrieved: Vec<String> = db_strategies
                .iter()
                .take(3)
                .map(|(n, cps)| format!("database strategy {n} (mean cps {cps:.3})"))
                .collect();
            retrieved.extend(manual_hits.iter().map(|h| format!("manual: {}", h.command)));

            let mut revisions = Vec::new();
            let joined = commands.join("\n");
            if traits.high_fanout()
                && !joined.contains("balance_buffers")
                && !joined.contains("set_max_fanout")
            {
                insert_before_reports(&mut commands, "set_max_fanout 10");
                insert_before_reports(&mut commands, "compile -map_effort high");
                insert_before_reports(&mut commands, "balance_buffers");
                insert_before_reports(&mut commands, "compile -map_effort high");
                revisions.push("added fanout buffering (high-fanout nets dominate)".to_string());
            }
            if traits.deep_logic()
                && traits.registers > 0
                && !joined.contains("optimize_registers")
                && !joined.contains("-retime")
            {
                insert_before_reports(&mut commands, "optimize_registers");
                insert_before_reports(&mut commands, "compile -map_effort high");
                revisions.push("added register retiming (deep combinational cones)".to_string());
            }
            if traits.hierarchical()
                && task.baseline.critical_modules.len() > 1
                && !joined.contains("ungroup")
                && !joined.contains("compile_ultra")
            {
                commands.insert(first_compile_index(&commands), "ungroup -all".to_string());
                revisions.push("ungrouped hierarchy (critical path crosses modules)".to_string());
            }
            if traits.enable_heavy()
                && wants_area(&task.user_request)
                && !joined.contains("insert_clock_gating")
            {
                let at = first_compile_index(&commands);
                commands.insert(at, "set_clock_gating_style -sequential_cell latch".to_string());
                commands.insert(at + 1, "insert_clock_gating".to_string());
                revisions.push("added clock gating (enable-register bank, area goal)".to_string());
            }
            if task.baseline.starts_at_input && !joined.contains("set_driving_cell") {
                // Graph-structure retrieval: pick the strongest buffer from
                // the target library to model the external driver.
                let cell = self
                    .rag
                    .strongest_cell("BUF")
                    .map(|c| c.name)
                    .unwrap_or_else(|| "BUF_X8".to_string());
                commands.insert(
                    first_compile_index(&commands),
                    format!("set_driving_cell -lib_cell {cell} [all_inputs]"),
                );
                retrieved.push(format!("library: strongest buffer {cell}"));
                revisions.push(
                    "specified the external driving cell (critical path launches at an input)"
                        .to_string(),
                );
            }
            if !joined.contains("compile") {
                insert_before_reports(&mut commands, "compile -map_effort high");
                revisions.push("draft had no compile at all".to_string());
            }
            // Escalation (iterative resynthesis): when the previous script
            // already applied the first-line levers and timing still fails,
            // reach for the stronger hammer — tighter fanout, wider critical
            // range, retiming under compile_ultra.
            let prior = &task.baseline_script;
            let already_tried = prior.contains("balance_buffers")
                || prior.contains("optimize_registers")
                || prior.contains("set_driving_cell");
            if task.baseline.wns < 0.0 && already_tried {
                if !commands.iter().any(|c| c.starts_with("set_critical_range")) {
                    insert_before_reports(&mut commands, "set_critical_range 0.2");
                }
                if !commands.iter().any(|c| c == "set_max_fanout 8") {
                    commands.retain(|c| !c.starts_with("set_max_fanout"));
                    insert_before_reports(&mut commands, "set_max_fanout 8");
                }
                insert_before_reports(&mut commands, "compile_ultra -retime");
                insert_before_reports(&mut commands, "balance_buffers");
                insert_before_reports(&mut commands, "compile -map_effort high");
                revisions.push(
                    "escalated: previous iteration's levers left violations, adding retimed ultra pass"
                        .to_string(),
                );
            }
            steps.push(ThoughtStep {
                index: 4,
                thought: "Match optimization commands to the design's dominant traits".into(),
                query: trait_question(traits),
                retrieved,
                revision: revisions.join("; "),
            });
        }

        // T5: objective check — area commands vs. timing budget.
        {
            let mut revision = String::new();
            // Database evidence: area recovery downsizes off-critical cells,
            // which *reduces* the load their drivers see — it never worsens
            // CPS (the tool refuses regressions) and usually reclaims area.
            // So the final recovery pass is kept for timing requests too.
            if !commands.iter().any(|c| c.starts_with("set_max_area")) {
                insert_before_reports(&mut commands, "set_max_area 0");
                insert_before_reports(&mut commands, "compile -map_effort high");
                revision = "appended area recovery: retrieved outcomes show it is timing-safe and reclaims area".into();
            }
            steps.push(ThoughtStep {
                index: 5,
                thought: "Reconcile area commands with the timing budget and the user goal".into(),
                query: "set_max_area usage".into(),
                retrieved: self
                    .rag
                    .lookup_command("set_max_area")
                    .map(|e| vec![e.description.to_string()])
                    .unwrap_or_default(),
                revision,
            });
        }

        // T6: assembly — dedupe consecutive repeats, order, final report.
        {
            let mut ordered = order_commands(commands);
            if !ordered.iter().any(|c| c.starts_with("report_qor")) {
                ordered.push("report_qor".to_string());
            }
            let script = ordered.join("\n") + "\n";
            steps.push(ThoughtStep {
                index: 6,
                thought: "Assemble the final script: constraints first, reports last".into(),
                query: String::new(),
                retrieved: Vec::new(),
                revision: String::new(),
            });
            let final_lint = chatls_lint::lint_script(&script).diagnostics;
            chatls_obs::counter("core.synthexpert.rounds").add(steps.len() as u64);
            ExpertTrace { steps, script, draft_lint, final_lint }
        }
    }

    fn validate_command(&self, line: &str) -> Validation {
        let parsed = match parse_script(line) {
            Ok(cmds) if cmds.len() == 1 => cmds.into_iter().next().expect("one command"),
            _ => return Validation::Dropped(format!("dropped unparseable line '{line}'")),
        };
        let name = parsed.name.clone();
        if self.rag.lookup_command(&name).is_none() {
            // Hallucination: repair to the nearest documented command when
            // the match is strong, else drop.
            return match self.rag.nearest_command(&name) {
                Some(hit) if hit.score > 0.3 && is_optimization(&hit.command) => {
                    Validation::Repaired(
                        hit.command.clone(),
                        format!(
                            "replaced unknown command '{name}' with documented '{}'",
                            hit.command
                        ),
                    )
                }
                _ => Validation::Dropped(format!("dropped unknown command '{name}'")),
            };
        }
        // Option-value validation for the commands with enum options.
        if name == "compile" {
            if let Some(v) = parsed.option("-map_effort") {
                if !matches!(v, "low" | "medium" | "high") {
                    return Validation::Repaired(
                        "compile -map_effort high".into(),
                        format!("fixed invalid -map_effort '{v}' to 'high'"),
                    );
                }
            }
        }
        if name == "compile_ultra" {
            let ok_flags = parsed.args.iter().filter_map(|a| a.as_word()).all(|w| {
                !w.starts_with('-') || matches!(w, "-incremental" | "-no_autoungroup" | "-retime")
            });
            if !ok_flags {
                return Validation::Repaired(
                    "compile_ultra".into(),
                    "stripped undocumented compile_ultra options".into(),
                );
            }
        }
        // Fanout limits follow the tool's own rule (`parse_fanout_limit`).
        if name == "balance_buffers" {
            if let Some(v) = parsed.option("-max_fanout") {
                if parse_fanout_limit(v).is_none() {
                    return Validation::Repaired(
                        "balance_buffers -max_fanout 10".into(),
                        format!("fixed -max_fanout '{v}' to 10: {FANOUT_RULE}"),
                    );
                }
            }
        }
        if name == "set_max_fanout"
            && parsed.positional().first().and_then(|v| parse_fanout_limit(v)).is_none()
        {
            return Validation::Dropped(format!("dropped '{line}': {FANOUT_RULE}"));
        }
        if name == "set_max_area"
            && parsed.positional().first().and_then(|v| v.parse::<f64>().ok()).is_none()
        {
            return Validation::Repaired(
                "set_max_area 0".into(),
                "fixed non-numeric set_max_area value".into(),
            );
        }
        Validation::Ok
    }
}

/// The fanout-limit rule, as validation messages name it.
const FANOUT_RULE: &str = "a fanout limit must be an integer of at least 2";

enum Validation {
    Ok,
    Repaired(String, String),
    Dropped(String),
}

fn period_matches(line: &str, period: f64) -> bool {
    parse_script(line)
        .ok()
        .and_then(|cmds| cmds.into_iter().next())
        .and_then(|c: Command| c.option("-period").and_then(|v| v.parse::<f64>().ok()))
        .map(|p| (p - period).abs() < 1e-6)
        .unwrap_or(false)
}

fn first_word(line: &str) -> Option<&str> {
    line.split_whitespace().next()
}

/// Natural-language question describing the design's dominant traits, used
/// as the manual-retrieval query `Qᵢ` of the strategy-alignment step.
fn trait_question(traits: &crate::circuit_mentor::DesignTraits) -> String {
    let mut parts = Vec::new();
    if traits.high_fanout() {
        parts.push(format!("high fanout nets up to {} sinks", traits.max_fanout));
    }
    if traits.deep_logic() {
        parts.push(format!(
            "deep combinational logic of {} levels before registers",
            traits.logic_depth
        ));
    }
    if traits.hierarchical() {
        parts.push(format!("hierarchy of {} module paths", traits.module_paths));
    }
    if traits.enable_heavy() {
        parts.push("many enable registers holding values".to_string());
    }
    if parts.is_empty() {
        parts.push("general timing optimization".to_string());
    }
    format!("which command helps a design with {}", parts.join(" and "))
}

fn wants_area(request: &str) -> bool {
    let r = request.to_lowercase();
    r.contains("area") || r.contains("power") || r.contains("smaller")
}

fn is_optimization(command: &str) -> bool {
    matches!(
        command,
        "compile"
            | "compile_ultra"
            | "optimize_registers"
            | "balance_buffers"
            | "ungroup"
            | "insert_clock_gating"
    )
}

fn insert_before_reports(commands: &mut Vec<String>, cmd: &str) {
    let pos = commands
        .iter()
        .position(|c| c.starts_with("report_") || c.starts_with("write"))
        .unwrap_or(commands.len());
    commands.insert(pos, cmd.to_string());
}

fn first_compile_index(commands: &[String]) -> usize {
    commands.iter().position(|c| c.starts_with("compile")).unwrap_or(commands.len())
}

/// Orders commands: constraints → structure setup → optimization → reports.
fn order_commands(commands: Vec<String>) -> Vec<String> {
    fn rank(cmd: &str) -> u8 {
        let name = cmd.split_whitespace().next().unwrap_or("");
        match name {
            "read_verilog" | "analyze" | "elaborate" | "current_design" | "link" => 0,
            "create_clock" => 1,
            "set_input_delay"
            | "set_output_delay"
            | "set_wire_load_model"
            | "set_driving_cell"
            | "set_max_fanout"
            | "set_critical_range"
            | "set_max_area"
            | "set_clock_gating_style" => 2,
            "ungroup" | "insert_clock_gating" => 3,
            "report_timing" | "report_area" | "report_qor" | "write" | "check_design" => 9,
            _ => 5, // compiles and optimizations keep their relative order
        }
    }
    let mut out: Vec<(usize, String)> = commands.into_iter().enumerate().collect();
    out.sort_by_key(|(i, c)| (rank(c), *i));
    // Constraint-class commands are idempotent: keep the first occurrence
    // only. Optimization commands may legitimately repeat, so for those we
    // drop only identical consecutive duplicates.
    let mut result: Vec<String> = Vec::new();
    for (_, c) in out {
        let r = rank(&c);
        if r <= 3 || r == 9 {
            if result.contains(&c) {
                continue;
            }
        } else if result.last().map(|l| l == &c).unwrap_or(false) {
            continue;
        }
        result.push(c);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit_mentor::detect_traits;
    use crate::llm::{TaskContext, TimingSummary};
    use crate::synthrag::SynthRag;
    use crate::testutil::quick_db;
    use chatls_designs::by_name;

    fn task(name: &str, request: &str, cps: f64) -> TaskContext {
        let d = by_name(name).unwrap();
        TaskContext {
            design_name: d.name.clone(),
            period: d.default_period,
            baseline_script: String::new(),
            user_request: request.into(),
            traits: detect_traits(&d.netlist()),
            baseline: TimingSummary { cps, wns: cps.min(0.0), ..TimingSummary::default() },
            timing_lint: Vec::new(),
        }
    }

    fn expert() -> SynthExpert<'static> {
        SynthExpert::new(SynthRag::new(quick_db()))
    }

    #[test]
    fn repairs_changed_clock_period() {
        let t = task("aes", "optimize timing", -0.1);
        let draft = "create_clock -period 5.0 [get_ports clk]\ncompile\n";
        let trace = expert().refine(&t, draft);
        assert!(trace.script.contains(&format!("-period {:.3}", t.period)), "{}", trace.script);
        assert!(!trace.script.contains("5.0"));
        assert!(trace.steps[0].revision.contains("period"));
    }

    #[test]
    fn drops_or_repairs_hallucinated_commands() {
        let t = task("aes", "optimize timing", -0.1);
        let draft =
            "create_clock -period 1.100 [get_ports clk]\nfix_timing_violations -all\ncompile\n";
        let trace = expert().refine(&t, draft);
        assert!(!trace.script.contains("fix_timing_violations"), "{}", trace.script);
        assert!(trace.steps[1].revision.contains("fix_timing_violations"));
        // Result must execute cleanly.
        let d = by_name("aes").unwrap();
        let mut session =
            chatls_synth::SessionBuilder::new(d.netlist(), chatls_liberty::nangate45())
                .session()
                .unwrap();
        let r = session.run_script(&trace.script);
        assert!(r.ok(), "{:?}", r.error);
    }

    #[test]
    fn fixes_invalid_option_values() {
        let t = task("riscv32i", "optimize timing", 0.5);
        let draft = "create_clock -period 2.000 [get_ports clk]\ncompile -map_effort extreme\n";
        let trace = expert().refine(&t, draft);
        assert!(trace.script.contains("compile -map_effort high"));
        assert!(!trace.script.contains("extreme"));
        // Fanout limits below 2, or not integers, are repaired or dropped
        // with the rule named; 2 itself passes.
        for (line, kept) in [
            ("balance_buffers -max_fanout fast", "balance_buffers -max_fanout 10"),
            ("balance_buffers -max_fanout 0", "balance_buffers -max_fanout 10"),
            ("balance_buffers -max_fanout 1", "balance_buffers -max_fanout 10"),
            ("balance_buffers -max_fanout 2", "balance_buffers -max_fanout 2"),
            ("set_max_fanout 1", ""),
            ("set_max_fanout 0", ""),
            ("set_max_fanout", ""),
            ("set_max_fanout 2", "set_max_fanout 2"),
        ] {
            let draft = format!("create_clock -period 2.000 [get_ports clk]\n{line}\ncompile\n");
            let trace = expert().refine(&t, &draft);
            let revision = &trace.steps[1].revision;
            assert_eq!(revision.contains("at least 2"), kept != line, "{line}: {revision}");
            let has = |want: &str| trace.script.lines().any(|l| l == want);
            assert!(kept.is_empty() || has(kept), "{line}: {}", trace.script);
            assert!(kept == line || !has(line), "{line}: {}", trace.script);
        }
    }

    #[test]
    fn adds_buffering_for_high_fanout_designs() {
        let t = task("ethmac", "optimize timing", -0.5);
        let draft = "create_clock -period 1.000 [get_ports clk]\ncompile\n";
        let trace = expert().refine(&t, draft);
        assert!(trace.script.contains("balance_buffers"), "{}", trace.script);
        assert!(trace.steps[3].revision.contains("fanout"));
    }

    #[test]
    fn adds_retiming_for_deep_logic() {
        let t = task("tinyRocket", "optimize timing", -0.8);
        let draft = "create_clock -period 1.150 [get_ports clk]\ncompile\n";
        let trace = expert().refine(&t, draft);
        assert!(trace.script.contains("optimize_registers"), "{}", trace.script);
    }

    #[test]
    fn keeps_area_commands_when_requested_and_met() {
        let t = task("riscv32i", "reduce area, timing already met", 0.6);
        let draft = "create_clock -period 2.000 [get_ports clk]\ncompile\n";
        let trace = expert().refine(&t, draft);
        assert!(trace.script.contains("set_max_area"), "{}", trace.script);
    }

    #[test]
    fn constraints_precede_compiles_and_reports_are_last() {
        let t = task("aes", "optimize timing", -0.1);
        let draft = "report_timing\ncompile\nset_critical_range 0.1\ncreate_clock -period 1.100 [get_ports clk]\n";
        let trace = expert().refine(&t, draft);
        let lines: Vec<&str> = trace.script.lines().collect();
        let clock = lines.iter().position(|l| l.starts_with("create_clock")).unwrap();
        let compile = lines.iter().position(|l| l.starts_with("compile")).unwrap();
        let report = lines.iter().rposition(|l| l.starts_with("report")).unwrap();
        assert!(clock < compile && compile < report, "{}", trace.script);
    }

    #[test]
    fn duplicate_constraints_are_merged() {
        let t = task("aes", "optimize timing", -0.1);
        let draft = "create_clock -period 1.100 [get_ports clk]
                     set_wire_load_model -name 5K_heavy_1k
                     compile
                     set_wire_load_model -name 5K_heavy_1k
                     compile
";
        let trace = expert().refine(&t, draft);
        let wl = trace.script.matches("set_wire_load_model").count();
        assert_eq!(
            wl, 1,
            "constraints are idempotent:
{}",
            trace.script
        );
        // Repeated compiles survive (they are legitimate re-optimization).
        assert!(trace.script.matches("compile").count() >= 2);
    }

    #[test]
    fn appends_area_recovery_for_timing_requests() {
        let t = task("riscv32i", "optimize timing", 0.5);
        let trace = expert().refine(
            &t, "compile
",
        );
        assert!(trace.script.contains("set_max_area 0"), "{}", trace.script);
        assert!(trace.steps[4].revision.contains("area recovery"));
    }

    #[test]
    fn trace_records_six_steps_with_queries() {
        let t = task("fft", "optimize timing", 0.1);
        let trace = expert().refine(&t, "compile\n");
        assert_eq!(trace.steps.len(), 6);
        assert!(trace.steps.iter().take(5).any(|s| !s.retrieved.is_empty()));
    }

    #[test]
    fn lint_flagged_draft_is_repaired_statically() {
        // The draft is riddled with lint findings: an invalid enum value,
        // an undocumented flag, a premature write, a duplicate clock.
        // refine() must fix all of them purely statically — this test never
        // constructs a SynthSession, so no simulated synthesis can run.
        let t = task("aes", "optimize timing", -0.1);
        let draft = "create_clock -period 1.100 [get_ports clk]
write -format verilog
create_clock -period 1.100 [get_ports clk]
compile -map_effort ultra -fast
";
        let trace = expert().refine(&t, draft);
        assert!(
            trace.draft_lint.iter().any(|d| d.code == "SL006"),
            "draft lint must flag the bad enum: {:?}",
            trace.draft_lint
        );
        assert!(
            trace.draft_lint.iter().any(|d| d.code == "SL009"),
            "draft lint must flag the premature write: {:?}",
            trace.draft_lint
        );
        assert!(trace.script.contains("compile -map_effort high"), "{}", trace.script);
        assert!(!trace.script.contains("-fast"), "{}", trace.script);
        assert_eq!(trace.script.matches("create_clock").count(), 1, "{}", trace.script);
        let lines: Vec<&str> = trace.script.lines().collect();
        let write = lines.iter().position(|l| l.starts_with("write")).unwrap();
        let compile = lines.iter().position(|l| l.starts_with("compile")).unwrap();
        assert!(compile < write, "write stays after compile:\n{}", trace.script);
        assert!(
            trace.final_lint.iter().all(|d| d.severity != chatls_lint::Severity::Error),
            "final script must lint error-free: {:?}",
            trace.final_lint
        );
        assert!(
            trace.steps[1].revision.contains("removed duplicate create_clock"),
            "T2 records the lint repairs: {}",
            trace.steps[1].revision
        );
    }

    #[test]
    fn refined_scripts_always_execute() {
        // Run every hallucinated baseline draft through refine and the tool.
        use crate::llm::{claude_like, gpt_like, Generator};
        let lib = chatls_liberty::nangate45();
        for name in ["aes", "dynamic_node"] {
            let t = task(name, "optimize timing", -0.1);
            let d = by_name(name).unwrap();
            let nl = d.netlist();
            for seed in 0..6 {
                for g in [gpt_like(), claude_like()] {
                    let draft = g.generate(&t, seed);
                    let trace = expert().refine(&t, &draft);
                    let mut session = chatls_synth::SessionBuilder::new(nl.clone(), lib.clone())
                        .session()
                        .unwrap();
                    let r = session.run_script(&trace.script);
                    assert!(
                        r.ok(),
                        "{name} seed {seed} {}: {:?}\n{}",
                        g.name(),
                        r.error,
                        trace.script
                    );
                }
            }
        }
    }
}
