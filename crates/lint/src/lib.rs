//! ScriptLint: rule-based static analysis for synthesis scripts and
//! netlists.
//!
//! The ChatLS paper attributes most one-shot script failures to
//! hallucinated commands and malformed options — failures the simulated
//! tool only reports *after* an (expensive) synthesis run aborts. This
//! crate catches the same class of defects statically, in microseconds,
//! so the SynthExpert revision loop can repair drafts before any
//! simulated synthesis runs, and the `chatls lint` CLI can vet scripts
//! standalone.
//!
//! # Script rules
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | SL000 | error    | script does not parse (unbalanced bracket/quote) |
//! | SL001 | error    | unknown command (not in the tool manual) |
//! | SL002 | warning  | flag the command does not document |
//! | SL003 | warning  | same flag given more than once |
//! | SL004 | error    | option or positional needs a value that is absent |
//! | SL005 | error    | value must be numeric (or a positive integer) |
//! | SL006 | error    | value outside the documented enum (`-map_effort ultra`) |
//! | SL007 | error    | compile before create_clock (unconstrained mapping) |
//! | SL008 | warning  | insert_clock_gating without set_clock_gating_style |
//! | SL009 | warning  | write before any compile (emits unoptimized netlist) |
//! | SL010 | warning  | set_fix_hold before the last compile |
//! | SL011 | warning  | duplicate create_clock |
//! | SL012 | warning  | set_max_area shadowed before any compile uses it |
//! | SL013 | warning  | `[get_ports …]` names a port the design lacks |
//! | SL014 | error    | required option missing (`create_clock` without `-period`) |
//!
//! # Semantic rules (ScriptIR)
//!
//! Rules SL015–SL024 come from abstract interpretation over the effect
//! model in [`effects`]: every command declares which facets of the
//! abstract tool state it reads and writes, and the interpreter in
//! [`interp`] walks the lowered [`ir::ScriptIr`] to find sequences that
//! are grammatically fine but semantically inert or contradictory.
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | SL015 | warning  | input/output delay set before any create_clock |
//! | SL016 | warning  | dead write: constraint overwritten before anything reads it |
//! | SL017 | warning  | report before any optimization pass (reports the raw netlist) |
//! | SL018 | warning  | rewrite with the value the facet already has |
//! | SL019 | warning  | repeat compile with unchanged constraints and design |
//! | SL020 | warning  | contradictory exceptions (stacking multicycles, false+multicycle) |
//! | SL021 | warning  | optimizer-only knob written after the last pass that could read it |
//! | SL022 | warning  | design mutated after the last report |
//! | SL023 | warning  | exact-duplicate false path (exception matching is set-like) |
//! | SL024 | warning  | ungroup when the hierarchy is already flat |
//!
//! The same effect model powers prove-safe semantic canonicalization
//! ([`canonical_script`]), and `chatls lint --explain <CODE>` prints the
//! registered rationale/example/fix for every rule ([`explain_rule`]).
//!
//! Netlist issues from [`chatls_verilog::netlist::Netlist::lint`] surface
//! through [`lint_netlist`] under their `NL0xx` codes (NL001 multiple
//! drivers, NL002 floating net, NL003 combinational loop, NL004 dead
//! gate, NL005 dangling reference). Timing-analysis hazards surface
//! through [`lint_timing`] (NL006: combinational cycle remnants make the
//! reported arrivals single-pass pessimistic).
//!
//! The argument grammar comes from
//! [`chatls_synth::tool::command_specs`], which is kept in lockstep with
//! the interpreter: everything the tool rejects lints as an error, and
//! every script that lints error-free parses and starts executing.
//!
//! # Examples
//!
//! ```
//! let report = chatls_lint::lint_script("compile -map_effort ultra\n");
//! assert!(report.has_errors());
//! assert!(report.diagnostics.iter().any(|d| d.code == "SL006"));
//!
//! let fixed = chatls_lint::repair_script(
//!     "create_clock -period 1.0 [get_ports clk]\ncompile -map_effort ultra\n");
//! assert!(fixed.script.contains("-map_effort high"));
//! assert!(fixed.remaining.is_clean());
//! ```

use chatls_synth::script::{parse_script, Arg, Command};
use chatls_synth::tool::{
    accepted_commands, command_spec, parse_fanout_limit, CommandSpec, ValueKind,
};
use chatls_verilog::netlist::Netlist;
use serde::{Deserialize, Serialize};
use std::fmt;

pub mod canon;
pub mod effects;
mod explain;
pub mod interp;
pub mod ir;

pub use canon::{canonical_commands, canonical_script};
pub use explain::{all_rule_codes, explain_rule, RuleExplanation};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Stylistic or latent problem; the tool still runs the script.
    Warning,
    /// The tool rejects the script, or the result is meaningless.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule code (`"SL001"`, `"NL003"`, …).
    pub code: String,
    /// Severity class.
    pub severity: Severity,
    /// 1-based script line (0 for whole-netlist findings).
    pub line: u32,
    /// What is wrong, naming the offending command/flag/net.
    pub message: String,
    /// Concrete fix, when one is known.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// True for the grammar/pattern rules (SL000–SL014) that
    /// [`repair_script`] can fix mechanically, and for netlist rules.
    /// The semantic family (SL015–SL024) flags intent rather than
    /// malformed syntax: those findings have no one mechanical rewrite,
    /// so repair loops must not trigger on them.
    pub fn is_mechanical(&self) -> bool {
        match self.code.strip_prefix("SL").and_then(|n| n.parse::<u32>().ok()) {
            Some(n) => n <= 14,
            None => true,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if self.line > 0 {
            write!(f, " line {}", self.line)?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (suggestion: {s})")?;
        }
        Ok(())
    }
}

/// All diagnostics for one lint run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct LintReport {
    /// Findings in script order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// True when any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// True when there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when any mechanically-repairable finding is present (see
    /// [`Diagnostic::is_mechanical`]). The SynthExpert repair loop keys
    /// on this rather than [`Self::is_clean`], so semantic advisories
    /// never perturb a script the repairer has nothing to do for.
    pub fn has_mechanical_findings(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_mechanical)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(f, "{} error(s), {} warning(s)", self.error_count(), self.warning_count())
    }
}

/// Condensed before/after lint statistics for one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct LintStats {
    /// Errors on the incoming draft.
    pub draft_errors: usize,
    /// Warnings on the incoming draft.
    pub draft_warnings: usize,
    /// Errors remaining on the final script.
    pub final_errors: usize,
    /// Warnings remaining on the final script.
    pub final_warnings: usize,
}

fn diag(
    code: &str,
    severity: Severity,
    line: u32,
    message: String,
    suggestion: Option<String>,
) -> Diagnostic {
    Diagnostic { code: code.into(), severity, line, message, suggestion }
}

/// Lints a script source without design context (rules SL000–SL012, SL014).
pub fn lint_script(src: &str) -> LintReport {
    lint_script_inner(src, None)
}

/// Lints a script against a design, additionally checking `[get_ports …]`
/// references (rule SL013).
pub fn lint_script_for_design(src: &str, netlist: &Netlist) -> LintReport {
    lint_script_inner(src, Some(netlist))
}

fn lint_script_inner(src: &str, netlist: Option<&Netlist>) -> LintReport {
    match parse_script(src) {
        Ok(commands) => lint_commands(&commands, netlist),
        Err(e) => {
            chatls_obs::counter("core.lint.runs").inc();
            chatls_obs::counter("core.lint.errors").inc();
            LintReport {
                diagnostics: vec![diag(
                    "SL000",
                    Severity::Error,
                    e.line,
                    format!("syntax error: {}", e.message),
                    None,
                )],
            }
        }
    }
}

/// Lints parsed commands (the surface SynthExpert uses mid-revision).
pub fn lint_commands(commands: &[Command], netlist: Option<&Netlist>) -> LintReport {
    let known = accepted_commands();
    let mut out = Vec::new();

    // Ordering state threaded through the script.
    let mut clock_line: Option<u32> = None;
    let mut gating_style_seen = false;
    let mut compile_seen = false;
    let mut pending_max_area: Option<u32> = None;
    let mut fix_holds: Vec<(usize, u32)> = Vec::new();
    let mut last_optimization: Option<(usize, u32)> = None;

    for (idx, cmd) in commands.iter().enumerate() {
        if !known.contains(&cmd.name.as_str()) {
            let suggestion =
                nearest(&cmd.name, &known).map(|(n, _)| format!("did you mean '{n}'?"));
            out.push(diag(
                "SL001",
                Severity::Error,
                cmd.line,
                format!("unknown command '{}' (not in the tool manual)", cmd.name),
                suggestion,
            ));
            continue;
        }
        if let Some(spec) = command_spec(&cmd.name) {
            lint_args(cmd, spec, &mut out);
        }
        if let Some(nl) = netlist {
            lint_port_refs(cmd, nl, &mut out);
        }
        match cmd.name.as_str() {
            "create_clock" => {
                if let Some(first) = clock_line {
                    out.push(diag(
                        "SL011",
                        Severity::Warning,
                        cmd.line,
                        format!("duplicate create_clock (clock already defined at line {first})"),
                        Some("remove it; the period is fixed by the task".into()),
                    ));
                } else {
                    clock_line = Some(cmd.line);
                }
            }
            "compile" | "compile_ultra" => {
                if clock_line.is_none() {
                    out.push(diag(
                        "SL007",
                        Severity::Error,
                        cmd.line,
                        format!(
                            "{} runs before any create_clock: mapping is unconstrained",
                            cmd.name
                        ),
                        Some("define the clock with create_clock -period <ns> first".into()),
                    ));
                }
                compile_seen = true;
                pending_max_area = None;
                last_optimization = Some((idx, cmd.line));
            }
            "optimize_registers" | "balance_buffers" => {
                last_optimization = Some((idx, cmd.line));
            }
            "set_max_area" => {
                if let Some(prev) = pending_max_area {
                    out.push(diag(
                        "SL012",
                        Severity::Warning,
                        prev,
                        format!(
                            "set_max_area at line {prev} is shadowed by line {} before any compile uses it",
                            cmd.line
                        ),
                        Some("remove the earlier set_max_area".into()),
                    ));
                }
                pending_max_area = Some(cmd.line);
            }
            "set_clock_gating_style" => gating_style_seen = true,
            "insert_clock_gating" if !gating_style_seen => {
                out.push(diag(
                    "SL008",
                    Severity::Warning,
                    cmd.line,
                    "insert_clock_gating without a prior set_clock_gating_style".into(),
                    Some("add set_clock_gating_style -sequential_cell latch before it".into()),
                ));
            }
            "write" if !compile_seen => {
                out.push(diag(
                    "SL009",
                    Severity::Warning,
                    cmd.line,
                    "write before any compile emits the unoptimized netlist".into(),
                    Some("move write after the final compile".into()),
                ));
            }
            "set_fix_hold" => fix_holds.push((idx, cmd.line)),
            _ => {}
        }
    }
    // SL010: compilation after set_fix_hold can disturb the inserted
    // hold-delay buffers. Compared by position, not source line — repairs
    // reorder commands without renumbering them.
    if let Some((opt_idx, opt_line)) = last_optimization {
        for &(_, line) in fix_holds.iter().filter(|&&(i, _)| i < opt_idx) {
            out.push(diag(
                "SL010",
                Severity::Warning,
                line,
                format!(
                    "set_fix_hold runs before the last optimization pass (line {opt_line}); \
                     later compilation may disturb the inserted hold buffers"
                ),
                Some("move set_fix_hold after the final compile".into()),
            ));
        }
    }
    // Semantic pass: effect-model abstract interpretation (SL015–SL024).
    out.extend(interp::analyze(&ir::ScriptIr::lower(commands)));

    out.sort_by_key(|d| d.line);
    let report = LintReport { diagnostics: out };
    chatls_obs::counter("core.lint.runs").inc();
    chatls_obs::counter("core.lint.errors").add(report.error_count() as u64);
    chatls_obs::counter("core.lint.warnings").add(report.warning_count() as u64);
    report
}

/// Checks one command's flags, option values and positionals against its
/// [`CommandSpec`] (rules SL002–SL006, SL014).
fn lint_args(cmd: &Command, spec: &CommandSpec, out: &mut Vec<Diagnostic>) {
    let words: Vec<Option<&str>> = cmd.args.iter().map(|a| a.as_word()).collect();
    let is_flag = |w: &str| w.starts_with('-') && w.parse::<f64>().is_err();
    let known_flags: Vec<&str> = spec.options.iter().map(|o| o.flag).collect();

    let mut seen_flags: Vec<&str> = Vec::new();
    for (i, w) in words.iter().enumerate() {
        let Some(w) = *w else { continue };
        if !is_flag(w) {
            continue;
        }
        if !known_flags.contains(&w) {
            let suggestion = nearest(w, &known_flags)
                .map(|(f, _)| format!("did you mean '{f}'?"))
                .or_else(|| {
                    Some(format!("{} takes no flags", spec.name)).filter(|_| known_flags.is_empty())
                });
            out.push(diag(
                "SL002",
                Severity::Warning,
                cmd.line,
                format!("{} does not document flag '{w}'", spec.name),
                suggestion,
            ));
            continue;
        }
        if seen_flags.contains(&w) {
            out.push(diag(
                "SL003",
                Severity::Warning,
                cmd.line,
                format!("flag '{w}' given more than once to {}", spec.name),
                Some("keep only the last occurrence".into()),
            ));
        }
        seen_flags.push(w);
        let opt = spec.options.iter().find(|o| o.flag == w).expect("flag is known");
        if opt.value == ValueKind::Flag {
            continue;
        }
        // The value is the next argument; another flag, a bracket (for
        // non-word kinds) or end of command means it is missing.
        let next = cmd.args.get(i + 1);
        let value = match next {
            Some(Arg::Word(v)) if !is_flag(v) => Some(v.as_str()),
            Some(Arg::Bracket(_)) if opt.value == ValueKind::Word => continue,
            _ => None,
        };
        match value {
            None => out.push(diag(
                "SL004",
                Severity::Error,
                cmd.line,
                format!("flag '{w}' of {} needs a value", spec.name),
                None,
            )),
            Some(v) => lint_value(cmd.line, spec.name, w, v, opt.value, out),
        }
    }

    // Required options and at-least-one-of groups (SL014).
    for opt in spec.options.iter().filter(|o| o.required) {
        if !seen_flags.contains(&opt.flag) {
            out.push(diag(
                "SL014",
                Severity::Error,
                cmd.line,
                format!("{} requires option '{}'", spec.name, opt.flag),
                Some(format!("add {} {}", opt.flag, value_hint(opt.value))),
            ));
        }
    }
    // set_false_path accepts a bare [get_ports …] as its -from.
    let any_satisfied = spec.requires_any.is_empty()
        || spec.requires_any.iter().any(|f| seen_flags.contains(f))
        || (spec.name == "set_false_path" && cmd.bracket("get_ports").is_some());
    if !any_satisfied {
        out.push(diag(
            "SL014",
            Severity::Error,
            cmd.line,
            format!("{} needs at least one of: {}", spec.name, spec.requires_any.join(", ")),
            None,
        ));
    }

    // Positionals.
    let positionals = cmd.positional();
    for (i, pos) in spec.positional.iter().enumerate() {
        match positionals.get(i) {
            None if pos.required => out.push(diag(
                "SL004",
                Severity::Error,
                cmd.line,
                format!("{} needs a {} argument", spec.name, value_hint(pos.value)),
                None,
            )),
            None => {}
            Some(v) => lint_value(cmd.line, spec.name, "argument", v, pos.value, out),
        }
    }
}

/// Checks one provided value against its expected kind (SL005/SL006).
fn lint_value(
    line: u32,
    command: &str,
    what: &str,
    value: &str,
    kind: ValueKind,
    out: &mut Vec<Diagnostic>,
) {
    match kind {
        ValueKind::Flag | ValueKind::Word => {}
        ValueKind::Number => {
            if value.parse::<f64>().is_err() {
                out.push(diag(
                    "SL005",
                    Severity::Error,
                    line,
                    format!("{command}: {what} value '{value}' is not a number"),
                    None,
                ));
            }
        }
        ValueKind::PositiveInt | ValueKind::FanoutLimit => {
            if let Some((rule, _)) = integer_rule(kind).filter(|(_, ok)| !ok(value)) {
                out.push(diag(
                    "SL005",
                    Severity::Error,
                    line,
                    format!("{command}: {what} value '{value}' is not {rule}"),
                    None,
                ));
            }
        }
        ValueKind::Enum(allowed) => {
            if !allowed.contains(&value) {
                let fix = enum_fix(value, allowed);
                out.push(diag(
                    "SL006",
                    Severity::Error,
                    line,
                    format!(
                        "{command}: {what} value '{value}' is not one of {}",
                        allowed.join("|")
                    ),
                    Some(format!("use '{fix}'")),
                ));
            }
        }
    }
}

/// What an integer value must be, and the check that it is.
type IntegerRule = (&'static str, fn(&str) -> bool);

/// The rule an integer value kind holds its values to. The fanout limit
/// is the tool's own [`parse_fanout_limit`], so the two accept exactly
/// the same values.
fn integer_rule(kind: ValueKind) -> Option<IntegerRule> {
    match kind {
        ValueKind::PositiveInt => {
            Some(("a positive integer", |v| v.parse::<u64>().is_ok_and(|n| n > 0)))
        }
        ValueKind::FanoutLimit => {
            Some(("an integer of at least 2", |v| parse_fanout_limit(v).is_some()))
        }
        _ => None,
    }
}

/// Short human description of a value kind, for suggestions.
fn value_hint(kind: ValueKind) -> &'static str {
    match kind {
        ValueKind::Flag => "",
        ValueKind::Number => "<number>",
        ValueKind::PositiveInt => "<positive integer>",
        ValueKind::FanoutLimit => "<integer >= 2>",
        ValueKind::Enum(_) => "<choice>",
        ValueKind::Word => "<value>",
    }
}

/// SL013: every `[get_ports X]` must name a port of the design. The clock
/// and bit-sliced ports (`data[3]` nets of port `data`) count.
fn lint_port_refs(cmd: &Command, netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    fn walk<'a>(cmd: &'a Command, hits: &mut Vec<(&'a Command, &'a str)>) {
        for arg in &cmd.args {
            if let Arg::Bracket(inner) = arg {
                if inner.name == "get_ports" {
                    for p in inner.positional() {
                        hits.push((inner, p));
                    }
                }
                walk(inner, hits);
            }
        }
    }
    let mut refs = Vec::new();
    walk(cmd, &mut refs);
    if refs.is_empty() {
        return;
    }
    let mut ports: Vec<&str> = Vec::new();
    for (name, _) in netlist.inputs.iter().chain(netlist.outputs.iter()) {
        // `data[3]` bit nets answer to the base port name `data`.
        ports.push(name.split('[').next().unwrap_or(name));
        ports.push(name);
    }
    if let Some(clk) = &netlist.clock {
        ports.push(clk);
    }
    for (_, port) in refs {
        let base = port.split('[').next().unwrap_or(port);
        if !ports.contains(&port) && !ports.contains(&base) {
            out.push(diag(
                "SL013",
                Severity::Warning,
                cmd.line,
                format!("get_ports names '{port}', which is not a port of '{}'", netlist.name),
                nearest(port, &ports).map(|(p, _)| format!("did you mean '{p}'?")),
            ));
        }
    }
}

/// Converts the netlist's structural issues into diagnostics.
///
/// NL001 (multiple drivers), NL003 (combinational loop) and NL005
/// (dangling reference) are errors — simulation and timing analysis are
/// meaningless on such a netlist. NL002 (floating net) and NL004 (dead
/// gate) are warnings: wasteful but well-defined.
pub fn lint_netlist(netlist: &Netlist) -> LintReport {
    let diagnostics = netlist
        .lint()
        .into_iter()
        .map(|issue| {
            let severity = match issue.code.as_str() {
                "NL002" | "NL004" => Severity::Warning,
                _ => Severity::Error,
            };
            diag(&issue.code, severity, 0, issue.message, None)
        })
        .collect();
    LintReport { diagnostics }
}

/// Lints a timing report for analysis-quality hazards (rule NL006).
///
/// NL006 fires when the combinational topo sort left gates on feedback
/// loops: arrival times through those cones are single-pass pessimistic
/// rather than fixed-point values, so the reported WNS/CPS/TNS may
/// understate the design's real timing. Surfaced to SynthExpert so a
/// revision round knows the numbers it is optimizing against are suspect.
pub fn lint_timing(report: &chatls_synth::TimingReport) -> LintReport {
    let mut diagnostics = Vec::new();
    if report.combinational_cycles > 0 {
        diagnostics.push(diag(
            "NL006",
            Severity::Warning,
            0,
            format!(
                "{} combinational gate(s) sit on feedback loops; arrival times through \
                 them are single-pass pessimistic, not fixed-point values",
                report.combinational_cycles
            ),
            Some("break the combinational cycle (e.g. register the loop) before trusting WNS/CPS/TNS".into()),
        ));
    }
    LintReport { diagnostics }
}

/// Result of [`repair_script`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairOutcome {
    /// The repaired script (trailing newline included).
    pub script: String,
    /// Human-readable descriptions of the repairs applied, in order.
    pub fixes: Vec<String>,
    /// Diagnostics still present after repair (problems that need
    /// information the linter does not have, e.g. a missing clock period).
    pub remaining: LintReport,
}

/// Applies every mechanical fix the lint rules admit:
///
/// - drops unknown commands and lines that do not parse,
/// - strips undocumented and duplicate flags,
/// - drops flags whose value is missing and commands whose required
///   option/positional cannot be invented,
/// - snaps invalid enum values to the nearest documented choice,
/// - removes duplicate `create_clock` and shadowed `set_max_area`,
/// - reorders to defuse ordering hazards (clock before compile, write
///   and `set_fix_hold` after the last compile, gating style before
///   `insert_clock_gating`).
///
/// The result is re-linted; anything unfixable is in
/// [`RepairOutcome::remaining`].
pub fn repair_script(src: &str) -> RepairOutcome {
    let mut fixes = Vec::new();
    let commands = match parse_script(src) {
        Ok(c) => c,
        Err(_) => {
            // Structural parse failure: salvage the lines that parse alone.
            let mut kept = Vec::new();
            for line in src.lines() {
                match parse_script(line) {
                    Ok(cmds) => kept.extend(cmds),
                    Err(e) => {
                        fixes.push(format!("dropped unparseable line {}: {}", e.line, e.message))
                    }
                }
            }
            kept
        }
    };
    let repaired = repair_commands(commands, &mut fixes);
    let mut script: String = repaired.iter().map(|c| render_command(c) + "\n").collect();
    if script.is_empty() {
        script = String::new();
    }
    let remaining = lint_commands(&repaired, None);
    RepairOutcome { script, fixes, remaining }
}

fn repair_commands(mut commands: Vec<Command>, fixes: &mut Vec<String>) -> Vec<Command> {
    let known = accepted_commands();

    // Unknown commands are dropped (callers with retrieval, like
    // SynthExpert, substitute the nearest documented command *before*
    // handing the script here).
    commands.retain(|c| {
        let keep = known.contains(&c.name.as_str());
        if !keep {
            fixes.push(format!("dropped unknown command '{}' (line {})", c.name, c.line));
        }
        keep
    });

    // Per-command argument surgery.
    let mut kept: Vec<Command> = Vec::new();
    for mut cmd in commands {
        if let Some(spec) = command_spec(&cmd.name) {
            if !repair_args(&mut cmd, spec, fixes) {
                continue;
            }
        }
        kept.push(cmd);
    }
    let mut commands = kept;

    // Duplicate create_clock: keep the first.
    let mut clock_seen = false;
    commands.retain(|c| {
        if c.name == "create_clock" {
            if clock_seen {
                fixes.push(format!("removed duplicate create_clock (line {})", c.line));
                return false;
            }
            clock_seen = true;
        }
        true
    });

    // Shadowed set_max_area: keep only the last of each run uninterrupted
    // by a compile.
    let mut shadowed: Vec<usize> = Vec::new();
    let mut pending: Option<usize> = None;
    for (i, c) in commands.iter().enumerate() {
        match c.name.as_str() {
            "set_max_area" => {
                if let Some(prev) = pending.replace(i) {
                    shadowed.push(prev);
                }
            }
            "compile" | "compile_ultra" => pending = None,
            _ => {}
        }
    }
    for &i in shadowed.iter().rev() {
        fixes.push(format!("removed shadowed set_max_area (line {})", commands[i].line));
        commands.remove(i);
    }

    // Ordering hazards.
    let first_compile = |cmds: &[Command]| cmds.iter().position(|c| c.name.starts_with("compile"));
    let is_opt = |c: &Command| {
        matches!(
            c.name.as_str(),
            "compile" | "compile_ultra" | "optimize_registers" | "balance_buffers"
        )
    };

    // Clock before the first compile.
    if let (Some(ci), Some(ki)) =
        (first_compile(&commands), commands.iter().position(|c| c.name == "create_clock"))
    {
        if ki > ci {
            let clock = commands.remove(ki);
            fixes
                .push(format!("moved create_clock (line {}) before the first compile", clock.line));
            commands.insert(ci, clock);
        }
    }
    // Gating style before insert_clock_gating.
    if let Some(gi) = commands.iter().position(|c| c.name == "insert_clock_gating") {
        match commands.iter().position(|c| c.name == "set_clock_gating_style") {
            Some(si) if si < gi => {}
            Some(si) => {
                let style = commands.remove(si);
                fixes.push("moved set_clock_gating_style before insert_clock_gating".into());
                commands.insert(gi, style);
            }
            None => {
                let line = commands[gi].line;
                fixes.push("inserted set_clock_gating_style before insert_clock_gating".into());
                commands.insert(
                    gi,
                    Command {
                        name: "set_clock_gating_style".into(),
                        args: vec![Arg::Word("-sequential_cell".into()), Arg::Word("latch".into())],
                        line,
                    },
                );
            }
        }
    }
    // write and set_fix_hold after the last optimization pass.
    if let Some(last_opt) = commands.iter().rposition(is_opt) {
        let mut moved: Vec<Command> = Vec::new();
        let mut i = 0;
        let mut boundary = last_opt;
        while i < boundary {
            if matches!(commands[i].name.as_str(), "write" | "set_fix_hold") {
                let c = commands.remove(i);
                fixes.push(format!(
                    "moved {} (line {}) after the last optimization pass",
                    c.name, c.line
                ));
                moved.push(c);
                boundary -= 1;
            } else {
                i += 1;
            }
        }
        for c in moved {
            boundary += 1;
            commands.insert(boundary, c);
        }
    }
    commands
}

/// Fixes one command's arguments in place. Returns `false` when the
/// command is unsalvageable (a required value is missing) and must be
/// dropped.
fn repair_args(cmd: &mut Command, spec: &CommandSpec, fixes: &mut Vec<String>) -> bool {
    let is_flag = |w: &str| w.starts_with('-') && w.parse::<f64>().is_err();
    let mut seen: Vec<String> = Vec::new();
    let mut args: Vec<Arg> = Vec::new();
    let mut it = cmd.args.iter().cloned().peekable();
    while let Some(arg) = it.next() {
        let Some(word) = arg.as_word().map(str::to_string) else {
            args.push(arg);
            continue;
        };
        if !is_flag(&word) {
            args.push(arg);
            continue;
        }
        let Some(opt) = spec.options.iter().find(|o| o.flag == word) else {
            fixes.push(format!(
                "stripped undocumented flag '{word}' from {} (line {})",
                spec.name, cmd.line
            ));
            continue;
        };
        if seen.contains(&word) {
            // Drop the earlier occurrence's value too? The later wins in
            // the tool via `option`'s first match — actually the *first*
            // match wins there, so drop this repeat and its value.
            if opt.value != ValueKind::Flag {
                if let Some(next) = it.peek() {
                    if next.as_word().map(|w| !is_flag(w)).unwrap_or(false) {
                        it.next();
                    }
                }
            }
            fixes.push(format!(
                "removed repeated flag '{word}' from {} (line {})",
                spec.name, cmd.line
            ));
            continue;
        }
        seen.push(word.clone());
        if opt.value == ValueKind::Flag {
            args.push(arg);
            continue;
        }
        // Value-taking flag: inspect the next argument.
        let next_word_ok = match it.peek() {
            Some(Arg::Word(v)) => !is_flag(v),
            Some(Arg::Bracket(_)) => opt.value == ValueKind::Word,
            None => false,
        };
        if !next_word_ok {
            if opt.required {
                fixes.push(format!(
                    "dropped {} (line {}): required option '{word}' has no value",
                    spec.name, cmd.line
                ));
                return false;
            }
            fixes.push(format!(
                "stripped valueless flag '{word}' from {} (line {})",
                spec.name, cmd.line
            ));
            seen.pop();
            continue;
        }
        let value = it.next().expect("peeked");
        let fixed_value = match (&value, opt.value) {
            (Arg::Word(v), ValueKind::Enum(allowed)) if !allowed.contains(&v.as_str()) => {
                let snap = enum_fix(v, allowed);
                fixes.push(format!(
                    "replaced invalid value '{v}' of '{word}' with '{snap}' (line {})",
                    cmd.line
                ));
                Arg::Word(snap.to_string())
            }
            (Arg::Word(v), ValueKind::Number) if v.parse::<f64>().is_err() => {
                if opt.required {
                    fixes.push(format!(
                        "dropped {} (line {}): '{word}' value '{v}' is not a number",
                        spec.name, cmd.line
                    ));
                    return false;
                }
                fixes.push(format!(
                    "stripped flag '{word}' with non-numeric value '{v}' (line {})",
                    cmd.line
                ));
                seen.pop();
                continue;
            }
            (Arg::Word(v), kind) if integer_rule(kind).is_some_and(|(_, ok)| !ok(v)) => {
                if opt.required {
                    let rule = integer_rule(kind).map_or("", |(rule, _)| rule);
                    fixes.push(format!(
                        "dropped {} (line {}): '{word}' value '{v}' is not {rule}",
                        spec.name, cmd.line
                    ));
                    return false;
                }
                fixes.push(format!(
                    "stripped flag '{word}' with invalid value '{v}' (line {})",
                    cmd.line
                ));
                seen.pop();
                continue;
            }
            _ => value,
        };
        args.push(arg);
        args.push(fixed_value);
    }
    cmd.args = args;

    // Required options that never appeared make the command unrunnable.
    for opt in spec.options.iter().filter(|o| o.required) {
        if !seen.iter().any(|s| s == opt.flag) {
            fixes.push(format!(
                "dropped {} (line {}): required option '{}' missing",
                spec.name, cmd.line, opt.flag
            ));
            return false;
        }
    }
    let any_satisfied = spec.requires_any.is_empty()
        || seen.iter().any(|s| spec.requires_any.contains(&s.as_str()))
        || (spec.name == "set_false_path" && cmd.bracket("get_ports").is_some());
    if !any_satisfied {
        if spec.name == "ungroup" {
            // The only supported form is `ungroup -all`; complete it.
            cmd.args.insert(0, Arg::Word("-all".into()));
            fixes.push(format!("completed ungroup to 'ungroup -all' (line {})", cmd.line));
        } else {
            fixes.push(format!(
                "dropped {} (line {}): needs one of {}",
                spec.name,
                cmd.line,
                spec.requires_any.join(", ")
            ));
            return false;
        }
    }
    // Missing or malformed required positionals.
    let positionals = cmd.positional();
    for (i, pos) in spec.positional.iter().enumerate() {
        let ok = match positionals.get(i) {
            None => !pos.required,
            Some(v) => match pos.value {
                ValueKind::Number => v.parse::<f64>().is_ok(),
                kind => integer_rule(kind).is_none_or(|(_, ok)| ok(v)),
            },
        };
        if !ok {
            fixes.push(format!(
                "dropped {} (line {}): needs a valid {} argument",
                spec.name,
                cmd.line,
                value_hint(pos.value)
            ));
            return false;
        }
    }
    true
}

/// Renders a parsed command back to script text.
pub fn render_command(cmd: &Command) -> String {
    // A brace-quoted first word parses as the command name, so a name
    // with metacharacters needs the same re-quoting as any argument.
    let mut out = render_arg(&Arg::Word(cmd.name.clone()));
    for arg in &cmd.args {
        out.push(' ');
        out.push_str(&render_arg(arg));
    }
    out
}

fn render_arg(arg: &Arg) -> String {
    match arg {
        Arg::Word(w) if needs_quoting(w) => {
            if !w.contains('}') {
                // Brace quoting is verbatim: everything up to the first
                // unescaped '}' is the word, so any '}'‑free word survives.
                format!("{{{w}}}")
            } else if !w.contains('"') {
                format!("\"{w}\"")
            } else {
                // A word with both '}' and '"' has no faithful quoting in
                // this Tcl subset; emit it bare. canon's fidelity check
                // turns any resulting drift into a fallback, never a
                // wrong cache key.
                w.clone()
            }
        }
        Arg::Word(w) => w.clone(),
        Arg::Bracket(c) => format!("[{}]", render_command(c)),
    }
}

/// Words that would change meaning if rendered bare: empty words,
/// whitespace (word splitting), `[`/`]` (command substitution), `#`
/// (comment start at depth 0), `;` (command separator), quotes and
/// braces (quoting operators).
fn needs_quoting(w: &str) -> bool {
    w.is_empty()
        || w.chars().any(char::is_whitespace)
        || w.contains(['[', ']', '#', ';', '"', '{', '}'])
}

/// Nearest enum choice for an invalid value. When nothing is plausibly a
/// typo (e.g. `-map_effort ultra`), falls back to the last documented
/// choice — specs list choices weakest-first, so `ultra` snaps to `high`.
fn enum_fix<'a>(value: &str, allowed: &[&'a str]) -> &'a str {
    nearest(value, allowed).map(|(c, _)| c).unwrap_or_else(|| allowed[allowed.len() - 1])
}

/// Closest string in `candidates` within half its length in edits, for
/// "did you mean" suggestions.
fn nearest<'a>(word: &str, candidates: &[&'a str]) -> Option<(&'a str, usize)> {
    candidates
        .iter()
        .map(|&c| (c, edit_distance(word, c)))
        .filter(|&(c, d)| d > 0 && d <= word.len().max(c.len()) / 2)
        .min_by_key(|&(_, d)| d)
}

/// Levenshtein distance, O(len(a)·len(b)).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(report: &LintReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    const CLEAN: &str = "create_clock -period 1.100 [get_ports clk]
set_wire_load_model -name 5K_heavy_1k
compile -map_effort high
report_qor
";

    #[test]
    fn clean_script_has_no_diagnostics() {
        let r = lint_script(CLEAN);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn sl000_syntax_error() {
        let r = lint_script("create_clock [get_ports clk\n");
        assert_eq!(codes(&r), vec!["SL000"]);
        assert!(r.has_errors());
    }

    #[test]
    fn sl001_unknown_command_with_suggestion() {
        let r = lint_script("create_clock -period 1.0 [get_ports clk]\ncompile_ulta\n");
        assert!(codes(&r).contains(&"SL001"));
        let d = r.diagnostics.iter().find(|d| d.code == "SL001").unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.line, 2);
        assert!(d.suggestion.as_deref().unwrap().contains("compile_ultra"), "{d:?}");
    }

    #[test]
    fn sl001_clean_on_known_commands() {
        assert!(!codes(&lint_script(CLEAN)).contains(&"SL001"));
    }

    #[test]
    fn sl002_unknown_flag() {
        let r = lint_script("create_clock -period 1.0 [get_ports clk]\ncompile -effort high\n");
        let d = r.diagnostics.iter().find(|d| d.code == "SL002").unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.suggestion.as_deref().unwrap().contains("-map_effort"));
        assert!(!codes(&lint_script(CLEAN)).contains(&"SL002"));
    }

    #[test]
    fn sl003_duplicate_flag() {
        let r = lint_script(
            "create_clock -period 1.0 [get_ports clk]\ncompile -incremental -incremental\n",
        );
        assert!(codes(&r).contains(&"SL003"));
        assert!(!codes(&lint_script(CLEAN)).contains(&"SL003"));
    }

    #[test]
    fn sl004_missing_option_value() {
        let r = lint_script("create_clock -period [get_ports clk]\n");
        assert!(codes(&r).contains(&"SL004"), "{r}");
        let r2 = lint_script("set_max_area\n");
        assert!(codes(&r2).contains(&"SL004"), "missing positional: {r2}");
        assert!(!codes(&lint_script(CLEAN)).contains(&"SL004"));
    }

    #[test]
    fn sl005_non_numeric_value() {
        let r = lint_script("set_max_area lots\n");
        assert!(codes(&r).contains(&"SL005"));
        let r2 = lint_script("set_max_fanout 0\n");
        assert!(codes(&r2).contains(&"SL005"), "zero fanout: {r2}");
        assert!(!codes(&lint_script("set_max_area 0\n")).contains(&"SL005"));
    }

    #[test]
    fn sl006_invalid_enum_value() {
        let r =
            lint_script("create_clock -period 1.0 [get_ports clk]\ncompile -map_effort ultra\n");
        let d = r.diagnostics.iter().find(|d| d.code == "SL006").unwrap();
        assert!(d.suggestion.as_deref().unwrap().contains("high"));
        assert!(!codes(&lint_script(CLEAN)).contains(&"SL006"));
    }

    #[test]
    fn sl007_compile_before_clock() {
        let r = lint_script("compile\ncreate_clock -period 1.0 [get_ports clk]\n");
        let d = r.diagnostics.iter().find(|d| d.code == "SL007").unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(!codes(&lint_script(CLEAN)).contains(&"SL007"));
    }

    #[test]
    fn sl008_gating_without_style() {
        let r =
            lint_script("create_clock -period 1.0 [get_ports clk]\ninsert_clock_gating\ncompile\n");
        assert!(codes(&r).contains(&"SL008"));
        let clean = lint_script(
            "create_clock -period 1.0 [get_ports clk]\nset_clock_gating_style -sequential_cell latch\ninsert_clock_gating\ncompile\n",
        );
        assert!(!codes(&clean).contains(&"SL008"));
    }

    #[test]
    fn sl009_write_before_compile() {
        let r = lint_script(
            "create_clock -period 1.0 [get_ports clk]\nwrite -format verilog\ncompile\n",
        );
        assert!(codes(&r).contains(&"SL009"));
        let clean = lint_script(
            "create_clock -period 1.0 [get_ports clk]\ncompile\nwrite -format verilog\n",
        );
        assert!(!codes(&clean).contains(&"SL009"));
    }

    #[test]
    fn sl010_fix_hold_before_last_compile() {
        let r = lint_script(
            "create_clock -period 1.0 [get_ports clk]\ncompile\nset_fix_hold\ncompile\n",
        );
        assert!(codes(&r).contains(&"SL010"));
        let clean =
            lint_script("create_clock -period 1.0 [get_ports clk]\ncompile\nset_fix_hold\n");
        assert!(!codes(&clean).contains(&"SL010"));
    }

    #[test]
    fn sl011_duplicate_create_clock() {
        let r = lint_script(
            "create_clock -period 1.0 [get_ports clk]\ncreate_clock -period 2.0 [get_ports clk]\ncompile\n",
        );
        assert!(codes(&r).contains(&"SL011"));
        assert!(!codes(&lint_script(CLEAN)).contains(&"SL011"));
    }

    #[test]
    fn sl012_shadowed_set_max_area() {
        let r = lint_script(
            "create_clock -period 1.0 [get_ports clk]\nset_max_area 100\nset_max_area 0\ncompile\n",
        );
        assert!(codes(&r).contains(&"SL012"));
        let clean = lint_script(
            "create_clock -period 1.0 [get_ports clk]\nset_max_area 100\ncompile\nset_max_area 0\ncompile\n",
        );
        assert!(!codes(&clean).contains(&"SL012"));
    }

    #[test]
    fn sl013_unknown_port_needs_design() {
        use chatls_verilog::netlist::Netlist;
        let mut nl = Netlist::new("top");
        let clk = nl.add_net("clk");
        let d = nl.add_net("data[0]");
        nl.inputs.push(("clk".into(), clk));
        nl.inputs.push(("data[0]".into(), d));
        nl.clock = Some("clk".into());
        let src = "create_clock -period 1.0 [get_ports clk]\nset_false_path -from [get_ports dta]\ncompile\n";
        assert!(!codes(&lint_script(src)).contains(&"SL013"), "no design, no check");
        let r = lint_script_for_design(src, &nl);
        let diag = r.diagnostics.iter().find(|d| d.code == "SL013").unwrap();
        assert!(diag.suggestion.as_deref().unwrap().contains("data"), "{diag:?}");
        let ok = lint_script_for_design(
            "create_clock -period 1.0 [get_ports clk]\nset_false_path -from [get_ports data]\ncompile\n",
            &nl,
        );
        assert!(!codes(&ok).contains(&"SL013"), "base port name matches bits");
    }

    #[test]
    fn sl014_missing_required_option() {
        let r = lint_script("create_clock [get_ports clk]\n");
        assert!(codes(&r).contains(&"SL014"));
        let r2 = lint_script("create_clock -period 1.0 [get_ports clk]\nset_false_path\ncompile\n");
        assert!(codes(&r2).contains(&"SL014"));
        let ok = lint_script(
            "create_clock -period 1.0 [get_ports clk]\nset_false_path -from [get_ports clk]\ncompile\n",
        );
        assert!(!codes(&ok).contains(&"SL014"));
        let via_bracket = lint_script(
            "create_clock -period 1.0 [get_ports clk]\nset_false_path [get_ports clk]\ncompile\n",
        );
        assert!(!codes(&via_bracket).contains(&"SL014"), "bracket satisfies set_false_path");
    }

    #[test]
    fn netlist_issues_map_to_diagnostics() {
        use chatls_verilog::netlist::{GateKind, Netlist};
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        nl.inputs.push(("a".into(), a));
        nl.outputs.push(("y".into(), y));
        nl.add_gate(GateKind::Buf, &[a], y, "t");
        assert!(lint_netlist(&nl).is_clean());
        nl.add_gate(GateKind::Not, &[a], y, "t");
        let r = lint_netlist(&nl);
        assert!(r.has_errors());
        assert!(codes(&r).contains(&"NL001"));
    }

    #[test]
    fn repair_fixes_enum_and_strips_unknown_flags() {
        let out = repair_script(
            "create_clock -period 1.0 [get_ports clk]\ncompile -map_effort ultra -fast\n",
        );
        assert!(out.script.contains("compile -map_effort high"), "{}", out.script);
        assert!(!out.script.contains("-fast"));
        assert!(out.remaining.is_clean(), "{}", out.remaining);
        assert!(out.fixes.len() >= 2, "{:?}", out.fixes);
    }

    #[test]
    fn repair_drops_unknown_and_unsalvageable_commands() {
        let out = repair_script(
            "create_clock -period 1.0 [get_ports clk]\nmagic_fix -all\nset_wire_load_model\ncompile\n",
        );
        assert!(!out.script.contains("magic_fix"));
        assert!(!out.script.contains("set_wire_load_model"), "required -name missing");
        assert!(out.remaining.is_clean(), "{}", out.remaining);
    }

    #[test]
    fn repair_moves_clock_before_compile() {
        let out = repair_script("compile\ncreate_clock -period 1.0 [get_ports clk]\n");
        let clock = out.script.lines().position(|l| l.starts_with("create_clock")).unwrap();
        let compile = out.script.lines().position(|l| l == "compile").unwrap();
        assert!(clock < compile, "{}", out.script);
        assert!(out.remaining.is_clean(), "{}", out.remaining);
    }

    #[test]
    fn repair_inserts_gating_style_and_postpones_fix_hold() {
        let out = repair_script(
            "create_clock -period 1.0 [get_ports clk]\nset_fix_hold\ninsert_clock_gating\ncompile\n",
        );
        let lines: Vec<&str> = out.script.lines().collect();
        let style = lines.iter().position(|l| l.starts_with("set_clock_gating_style")).unwrap();
        let gating = lines.iter().position(|l| *l == "insert_clock_gating").unwrap();
        let hold = lines.iter().position(|l| *l == "set_fix_hold").unwrap();
        let compile = lines.iter().position(|l| *l == "compile").unwrap();
        assert!(style < gating, "{}", out.script);
        assert!(hold > compile, "{}", out.script);
        assert!(out.remaining.is_clean(), "{}", out.remaining);
    }

    #[test]
    fn repair_removes_duplicate_clock_and_shadowed_area() {
        let out = repair_script(
            "create_clock -period 1.0 [get_ports clk]\ncreate_clock -period 2.0 [get_ports clk]\nset_max_area 500\nset_max_area 0\ncompile\n",
        );
        assert_eq!(out.script.matches("create_clock").count(), 1);
        assert_eq!(out.script.matches("set_max_area").count(), 1);
        assert!(out.script.contains("set_max_area 0"), "later value wins: {}", out.script);
        assert!(out.script.contains("-period 1.0"), "first clock wins: {}", out.script);
        assert!(out.remaining.is_clean(), "{}", out.remaining);
    }

    #[test]
    fn repair_salvages_partially_unparseable_scripts() {
        let out = repair_script("compile\ncreate_clock -period 1.0 [get_ports clk\n");
        assert!(out.script.contains("compile"), "{}", out.script);
        assert!(out.fixes.iter().any(|f| f.contains("unparseable")), "{:?}", out.fixes);
    }

    #[test]
    fn render_roundtrips_through_the_parser() {
        let src = "create_clock -period 1.100 [get_ports clk]\nset_dont_touch {u core/u alu}\n";
        let cmds = parse_script(src).unwrap();
        for cmd in &cmds {
            let text = render_command(cmd);
            let reparsed = parse_script(&text).unwrap();
            assert_eq!(reparsed.len(), 1);
            assert_eq!(&reparsed[0].name, &cmd.name);
            assert_eq!(reparsed[0].args.len(), cmd.args.len(), "{text}");
        }
    }

    #[test]
    fn repaired_scripts_execute_in_the_tool() {
        let sf = chatls_verilog::parse(
            "module m(input clk, input [7:0] a, b, output reg [7:0] q);
                 always @(posedge clk) q <= a + b;
             endmodule",
        )
        .unwrap();
        let nl = chatls_verilog::lower_to_netlist(&sf, "m").unwrap();
        let broken = "compile -map_effort ultra -fast
create_clock -period 1.0 [get_ports clk]
magic_timing_fix -now
set_max_area lots
report_qor
";
        assert!(lint_script(broken).has_errors());
        let out = repair_script(broken);
        assert!(out.remaining.is_clean(), "{}", out.remaining);
        let mut session =
            chatls_synth::SessionBuilder::new(nl, chatls_liberty::nangate45()).session().unwrap();
        let r = session.run_script(&out.script);
        assert!(r.ok(), "{:?}\n{}", r.error, out.script);
    }

    #[test]
    fn fanout_limit_of_one_is_an_error_and_repairs_to_a_runnable_script() {
        // A limit of 1 has no buffer tree; the tool rejects it, so lint
        // must too, before synthesis.
        for script in [
            "create_clock -period 3.5 [get_ports clk]\nbalance_buffers -max_fanout 1\n",
            "create_clock -period 3.5 [get_ports clk]\nset_max_fanout 1\nbalance_buffers\n",
        ] {
            let r = lint_script(script);
            let d = r.diagnostics.iter().find(|d| d.code == "SL005").expect("SL005");
            assert_eq!(d.line, 2, "{r}");
            assert!(d.message.ends_with("value '1' is not an integer of at least 2"), "{r}");
            let out = repair_script(script);
            assert!(out.remaining.is_clean(), "{}", out.remaining);
            assert!(!out.script.contains(" 1\n"), "{}", out.script);
        }
        assert!(!codes(&lint_script("set_max_fanout 2\nbalance_buffers -max_fanout 2\n"))
            .contains(&"SL005"));
    }

    #[test]
    fn report_serializes_to_json() {
        let r = lint_script("compile -map_effort ultra\n");
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("SL006"), "{json}");
        assert!(json.contains("severity"), "{json}");
    }

    #[test]
    fn at_least_ten_distinct_rule_codes_exist() {
        let mut seen: Vec<String> = Vec::new();
        let cases = [
            "create_clock [get_ports clk\n",
            "frobnicate\n",
            "compile -effort high -incremental -incremental -map_effort ultra\ncreate_clock -period 1.0 [get_ports clk]\ncreate_clock -period 1.0 [get_ports clk]\n",
            "set_max_area\nset_max_area x\n",
            "create_clock -period 1.0 [get_ports clk]\nwrite\ninsert_clock_gating\nset_fix_hold\nset_max_area 1\nset_max_area 0\ncompile\nset_false_path\n",
        ];
        for case in cases {
            for d in lint_script(case).diagnostics {
                if !seen.contains(&d.code) {
                    seen.push(d.code);
                }
            }
        }
        assert!(seen.len() >= 10, "only {} codes: {seen:?}", seen.len());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("compile", "compile"), 0);
        assert_eq!(edit_distance("compile", "compiel"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(nearest("compiel", &["compile", "link"]).unwrap().0, "compile");
        assert!(nearest("zzzzzzzz", &["compile"]).is_none());
    }
}
