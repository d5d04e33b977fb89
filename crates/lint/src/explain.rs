//! Rule explanations for `chatls lint --explain <CODE>`.
//!
//! Every diagnostic code the analyzers can emit has a registered
//! explanation: why the rule exists, a minimal example that trips it, and
//! the mechanical fix (when one exists).

/// One rule's documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleExplanation {
    /// Stable rule code (`"SL016"`, `"NL003"`, …).
    pub code: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Why the rule exists — what goes wrong when it fires.
    pub rationale: &'static str,
    /// A minimal script (or netlist situation) that trips the rule.
    pub example: &'static str,
    /// The mechanical fix.
    pub fix: &'static str,
}

const RULES: &[RuleExplanation] = &[
    RuleExplanation {
        code: "SL000",
        title: "script does not parse",
        rationale: "An unbalanced bracket, brace or quote makes the whole script unreadable; \
                    the tool rejects it before running anything.",
        example: "create_clock -period 1.0 [get_ports clk\n",
        fix: "balance the '[', '{' or '\"' — repair_script salvages the lines that parse alone",
    },
    RuleExplanation {
        code: "SL001",
        title: "unknown command",
        rationale: "The command is not in the tool manual, so the run aborts the moment it is \
                    reached. Hallucinated commands are the top one-shot failure mode.",
        example: "optimise_design\n",
        fix: "replace it with the documented command it resembles, or delete it",
    },
    RuleExplanation {
        code: "SL002",
        title: "undocumented flag",
        rationale: "The tool silently ignores flags it does not document, so the option the \
                    author relied on never takes effect.",
        example: "compile -effort high\n",
        fix: "use the documented spelling (e.g. -map_effort) or drop the flag",
    },
    RuleExplanation {
        code: "SL003",
        title: "repeated flag",
        rationale: "When a flag is given twice, the first occurrence wins and the second is \
                    dead text — usually a stale edit.",
        example: "compile -map_effort low -map_effort high\n",
        fix: "keep only the intended occurrence",
    },
    RuleExplanation {
        code: "SL004",
        title: "missing value",
        rationale: "A value-taking option or required positional with nothing after it makes \
                    the command unrunnable.",
        example: "set_input_delay\n",
        fix: "supply the value, or drop the flag/command",
    },
    RuleExplanation {
        code: "SL005",
        title: "non-numeric value",
        rationale: "The tool parses the value as a number (or a positive integer, or a \
                    fanout limit of at least 2) and aborts when it cannot.",
        example: "create_clock -period fast [get_ports clk]\n",
        fix: "replace the value with a number",
    },
    RuleExplanation {
        code: "SL006",
        title: "value outside the documented enum",
        rationale: "Enum-valued options reject anything outside the documented choices; \
                    'ultra' is not a map_effort.",
        example: "compile -map_effort ultra\n",
        fix: "snap to the nearest documented choice (repair picks 'high')",
    },
    RuleExplanation {
        code: "SL007",
        title: "compile before create_clock",
        rationale: "Mapping without a clock is unconstrained: the optimizer has no target \
                    period, so timing QoR is meaningless.",
        example: "compile\ncreate_clock -period 1.0 [get_ports clk]\n",
        fix: "move create_clock -period <ns> before the first compile",
    },
    RuleExplanation {
        code: "SL008",
        title: "insert_clock_gating without a style",
        rationale: "Without set_clock_gating_style the tool warns and inserts its default \
                    gating, which is rarely what the author meant.",
        example: "create_clock -period 1.0 [get_ports clk]\ncompile\ninsert_clock_gating\n",
        fix: "add set_clock_gating_style -sequential_cell latch before it",
    },
    RuleExplanation {
        code: "SL009",
        title: "write before any compile",
        rationale: "Writing the netlist before mapping emits the raw, unoptimized design.",
        example: "write -format verilog\ncompile\n",
        fix: "move write after the final compile",
    },
    RuleExplanation {
        code: "SL010",
        title: "set_fix_hold before the last compile",
        rationale: "Later compilation can rip out the hold-delay buffers the fix inserted, \
                    silently undoing it.",
        example: "create_clock -period 1.0 [get_ports clk]\nset_fix_hold clk\ncompile\n",
        fix: "move set_fix_hold after the final optimization pass",
    },
    RuleExplanation {
        code: "SL011",
        title: "duplicate create_clock",
        rationale: "The later definition silently overrides the earlier one; with a fixed \
                    task period a second clock is always a mistake.",
        example: "create_clock -period 1.0 [get_ports clk]\ncreate_clock -period 2.0 [get_ports clk]\n",
        fix: "remove the duplicate; the period is fixed by the task",
    },
    RuleExplanation {
        code: "SL012",
        title: "shadowed set_max_area",
        rationale: "An area target overwritten before any compile reads it never constrains \
                    anything.",
        example: "set_max_area 100\nset_max_area 0\ncompile\n",
        fix: "remove the earlier set_max_area",
    },
    RuleExplanation {
        code: "SL013",
        title: "get_ports names a missing port",
        rationale: "Constraints on ports the design lacks are silently vacuous — the delay \
                    or exception applies to nothing.",
        example: "set_input_delay 0.2 [get_ports nonexistent]\n",
        fix: "use a real port name (the diagnostic suggests the nearest one)",
    },
    RuleExplanation {
        code: "SL014",
        title: "required option missing",
        rationale: "Commands like create_clock without -period or ungroup without -all abort \
                    at runtime.",
        example: "create_clock [get_ports clk]\n",
        fix: "add the required option (repair completes ungroup to 'ungroup -all')",
    },
    RuleExplanation {
        code: "SL015",
        title: "delay constraint before any clock",
        rationale: "Input/output delays are defined relative to a clock edge; setting them \
                    before any create_clock suggests the script is misordered or the clock \
                    was forgotten.",
        example: "set_input_delay 0.2 [all_inputs]\ncreate_clock -period 1.0 [get_ports clk]\n",
        fix: "define the clock first, then the delays",
    },
    RuleExplanation {
        code: "SL016",
        title: "dead constraint write",
        rationale: "A constraint overwritten before anything reads it has no effect at all — \
                    the effect model proves no compile, report or final QoR analysis ever \
                    sees the first value.",
        example: "set_input_delay 0.1 [all_inputs]\nset_input_delay 0.2 [all_inputs]\ncompile\n",
        fix: "remove the dead write, or move an optimization between the two",
    },
    RuleExplanation {
        code: "SL017",
        title: "report before any optimization",
        rationale: "Reports before the first compile describe the raw translated netlist, \
                    not the design being signed off; the numbers mislead a revision loop.",
        example: "create_clock -period 1.0 [get_ports clk]\nreport_qor\ncompile\n",
        fix: "move the report after the first compile",
    },
    RuleExplanation {
        code: "SL018",
        title: "redundant rewrite",
        rationale: "Writing a constraint with the value it already has (numerically, not \
                    textually) changes nothing; it is noise that hides real edits.",
        example: "set_max_fanout 8\nset_max_fanout 8\ncompile\nbalance_buffers\n",
        fix: "remove the redundant command",
    },
    RuleExplanation {
        code: "SL019",
        title: "repeat compile with nothing changed",
        rationale: "A compile at the same or lower effort, with no constraint or design \
                    change since the previous compile, re-runs an optimization that has \
                    already converged — pure wasted runtime.",
        example: "create_clock -period 1.0 [get_ports clk]\ncompile\ncompile\n",
        fix: "remove it, or change a constraint between the two compiles",
    },
    RuleExplanation {
        code: "SL020",
        title: "contradictory timing exceptions",
        rationale: "Multicycle bonuses apply cumulatively — one bonus per matching \
                    exception — so repeated multicycles silently stack, and a multicycle on \
                    an endpoint a false path already excludes can never matter.",
        example: "set_multicycle_path 2 -to q\nset_multicycle_path 2 -to q\ncompile\n",
        fix: "keep a single exception per endpoint",
    },
    RuleExplanation {
        code: "SL021",
        title: "post-compile constraint that never takes effect",
        rationale: "Optimizer-only knobs (max_area, max_fanout, critical_range, gating \
                    style) are read only by optimization passes; written after the last one, \
                    they constrain nothing — the final QoR analysis never looks at them.",
        example: "create_clock -period 1.0 [get_ports clk]\ncompile\nset_max_fanout 8\n",
        fix: "move it before the final optimization pass, or remove it",
    },
    RuleExplanation {
        code: "SL022",
        title: "design mutated after the last report",
        rationale: "An optimization after the last report leaves every printed report \
                    describing a stale design.",
        example: "create_clock -period 1.0 [get_ports clk]\ncompile\nreport_qor\ncompile -map_effort high\n",
        fix: "add a report after it, or move it before the existing reports",
    },
    RuleExplanation {
        code: "SL023",
        title: "duplicate false path",
        rationale: "Exception matching is set-like: an exact duplicate set_false_path is \
                    provably a no-op.",
        example: "set_false_path -from [get_ports clk]\nset_false_path -from [get_ports clk]\n",
        fix: "remove the duplicate exception",
    },
    RuleExplanation {
        code: "SL024",
        title: "redundant ungroup",
        rationale: "After ungroup -all, or after compile_ultra's auto-ungroup, there is no \
                    hierarchy left to dissolve.",
        example: "create_clock -period 1.0 [get_ports clk]\ncompile_ultra\nungroup -all\n",
        fix: "remove the redundant ungroup",
    },
    RuleExplanation {
        code: "NL001",
        title: "net with multiple drivers",
        rationale: "Two gates driving one net make simulation and timing analysis \
                    meaningless — the electrical value is undefined.",
        example: "two assign statements targeting the same wire",
        fix: "rewrite the netlist so each net has exactly one driver",
    },
    RuleExplanation {
        code: "NL002",
        title: "floating net",
        rationale: "A net with no driver reads X forever; downstream logic is wasted.",
        example: "a wire declared and read but never assigned",
        fix: "drive the net or delete the logic that reads it",
    },
    RuleExplanation {
        code: "NL003",
        title: "combinational loop",
        rationale: "A cycle with no register makes levelized simulation and static timing \
                    ill-defined.",
        example: "assign a = b & c; assign b = a | d;",
        fix: "break the loop with a register",
    },
    RuleExplanation {
        code: "NL004",
        title: "dead gate",
        rationale: "A gate whose output reaches no primary output or register burns area \
                    for nothing.",
        example: "logic cone feeding only an unused wire",
        fix: "delete the dead cone (or connect its output)",
    },
    RuleExplanation {
        code: "NL005",
        title: "dangling reference",
        rationale: "A gate input naming a net that does not exist means the netlist was \
                    mis-generated; nothing downstream can be trusted.",
        example: "an AND gate reading wire 'n42' that no statement declares",
        fix: "regenerate or hand-fix the netlist so every reference resolves",
    },
    RuleExplanation {
        code: "NL006",
        title: "pessimistic arrivals through feedback",
        rationale: "Gates left on combinational feedback loops get single-pass arrival \
                    times, not fixed-point values, so WNS/CPS/TNS may understate reality.",
        example: "timing a netlist that still contains a combinational cycle",
        fix: "break the combinational cycle before trusting the timing numbers",
    },
];

/// All documented rule codes, in order.
pub fn all_rule_codes() -> Vec<&'static str> {
    RULES.iter().map(|r| r.code).collect()
}

/// Looks up the explanation for a rule code (case-insensitive).
pub fn explain_rule(code: &str) -> Option<&'static RuleExplanation> {
    RULES.iter().find(|r| r.code.eq_ignore_ascii_case(code))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_nonempty_explanation() {
        for rule in RULES {
            assert!(!rule.title.is_empty(), "{}", rule.code);
            assert!(!rule.rationale.is_empty(), "{}", rule.code);
            assert!(!rule.example.is_empty(), "{}", rule.code);
            assert!(!rule.fix.is_empty(), "{}", rule.code);
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_total_over_known_codes() {
        assert_eq!(explain_rule("sl016").unwrap().code, "SL016");
        assert!(explain_rule("SL099").is_none());
        assert_eq!(all_rule_codes().len(), 25 + 6);
    }

    #[test]
    fn script_rule_examples_actually_trip_their_rule() {
        // SL013 needs design context (a netlist); every other script rule
        // must fire on its own example through the plain entry point.
        for rule in RULES.iter().filter(|r| r.code.starts_with("SL") && r.code != "SL013") {
            let report = crate::lint_script(rule.example);
            assert!(
                report.diagnostics.iter().any(|d| d.code == rule.code),
                "{}: example does not trip the rule:\n{}\ngot: {report}",
                rule.code,
                rule.example
            );
        }
    }
}
