//! Simulated script generators (the LLM layer).
//!
//! The paper compares ChatLS against GPT-4o and Claude 3.5 Sonnet, each
//! customizing a baseline script in one shot. Real LLM endpoints are not
//! available here, so the generators are **simulated policy models** whose
//! behaviour reproduces the failure and success modes the paper measures:
//!
//! - [`gpt_like`] / [`claude_like`] draft from the prompt alone. They carry a
//!   seeded *hallucination model* — a per-sample chance of emitting a
//!   command that is not in the tool manual, an invalid option value, or a
//!   forbidden constraint change — and a *shallow-analysis model*: their
//!   choice of optimization command is weakly correlated with the design's
//!   actual traits. Their biases differ (GPT-4o favours area commands,
//!   Claude adds more commands with higher variance), mirroring Table III.
//! - The ChatLS generator (in [`crate::pipeline`]) drafts with retrieved
//!   context and then revises each reasoning step against retrieval
//!   (SynthExpert), which is exactly what removes those failure modes.
//!
//! All generators are deterministic per `(task, seed)`.

use crate::circuit_mentor::DesignTraits;
use chatls_synth::{QorReport, TimingReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Condensed tool feedback handed to generators (the paper's "reports
/// generated by the logic synthesis tool").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TimingSummary {
    /// Worst negative slack of the baseline run (ns).
    pub wns: f64,
    /// Critical path slack of the baseline run (ns).
    pub cps: f64,
    /// Total negative slack of the baseline run (ns).
    pub tns: f64,
    /// Area of the baseline run (µm²).
    pub area: f64,
    /// Module paths on the baseline critical path.
    pub critical_modules: Vec<String>,
    /// True when the baseline critical path launches from a primary input
    /// (the external drive assumption throttles it).
    pub starts_at_input: bool,
}

impl TimingSummary {
    /// The multi-turn feedback rule, shared by task preparation,
    /// `ChatLs::iterate` and agent-session turns: the baseline the next
    /// customization round sees after a synthesis run that measured `qor`
    /// and reported `timing`. The critical modules are the module paths
    /// along `timing`'s critical path, de-duplicated in first-seen order;
    /// `starts_at_input` is set when that path launches from a primary
    /// input (its first step has no driving cell).
    pub(crate) fn from_run(qor: &QorReport, timing: &TimingReport) -> Self {
        let mut critical_modules: Vec<String> = Vec::new();
        for step in &timing.critical_path {
            if !critical_modules.contains(&step.module_path) {
                critical_modules.push(step.module_path.clone());
            }
        }
        Self {
            wns: qor.wns,
            cps: qor.cps,
            tns: qor.tns,
            area: qor.area,
            critical_modules,
            starts_at_input: timing.critical_path.first().is_some_and(|s| s.cell.is_empty()),
        }
    }
}

/// Everything a generator sees when customizing a script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskContext {
    /// Design name.
    pub design_name: String,
    /// Clock period fixed by the baseline (must not be changed).
    pub period: f64,
    /// The baseline script being customized.
    pub baseline_script: String,
    /// The user's natural-language request.
    pub user_request: String,
    /// Netlist traits (available to every model; baselines use them only
    /// shallowly, per the simulation).
    pub traits: DesignTraits,
    /// Baseline synthesis report.
    pub baseline: TimingSummary,
    /// Timing-analysis hazards from the baseline run (e.g. NL006 when
    /// combinational cycle remnants make the reported slacks suspect);
    /// SynthExpert surfaces these during refinement.
    pub timing_lint: Vec<chatls_lint::Diagnostic>,
}

/// A script generator.
pub trait Generator: Sync {
    /// Model name for reports.
    fn name(&self) -> &str;

    /// Produces a customized script for the task. Deterministic per
    /// `(task, seed)`.
    fn generate(&self, task: &TaskContext, seed: u64) -> String;
}

/// Commands that do not exist in the tool manual — the hallucination pool.
pub const HALLUCINATED_COMMANDS: &[&str] = &[
    "optimize_netlist -timing",
    "set_auto_retime true",
    "fix_timing_violations -all",
    "compile_incremental_timing",
    "set_route_optimization high",
];

/// Invalid option spellings for real commands.
pub const BAD_OPTIONS: &[&str] = &[
    "compile -map_effort extreme",
    "compile_ultra -effort max",
    "balance_buffers -max_fanout fast",
    "set_max_area minimum",
];

/// Shared one-shot drafting logic with per-model biases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OneShotProfile {
    /// Model name.
    pub model: String,
    /// Probability of a hallucinated command per sample.
    pub hallucination_rate: f64,
    /// Probability of an invalid option value per sample.
    pub bad_option_rate: f64,
    /// Probability of illegally changing the clock period.
    pub period_change_rate: f64,
    /// Probability that the chosen optimization actually matches the
    /// design's dominant trait (shallow analysis quality).
    pub trait_match_rate: f64,
    /// Probability of appending area-focused commands.
    pub area_focus_rate: f64,
    /// Probability of appending extra (harmless but area-costly) commands.
    pub verbosity_rate: f64,
}

impl OneShotProfile {
    /// The GPT-4o-like profile: decent hit rate, area-leaning.
    pub fn gpt_like() -> Self {
        Self {
            model: "GPT-4o (simulated)".into(),
            hallucination_rate: 0.18,
            bad_option_rate: 0.10,
            period_change_rate: 0.06,
            trait_match_rate: 0.45,
            area_focus_rate: 0.55,
            verbosity_rate: 0.20,
        }
    }

    /// The Claude-3.5-Sonnet-like profile: similar hit rate, more verbose,
    /// higher variance in added commands.
    pub fn claude_like() -> Self {
        Self {
            model: "Claude 3.5 Sonnet (simulated)".into(),
            hallucination_rate: 0.16,
            bad_option_rate: 0.12,
            period_change_rate: 0.05,
            trait_match_rate: 0.45,
            area_focus_rate: 0.25,
            verbosity_rate: 0.55,
        }
    }
}

/// The dominant trait's ideal optimization body, used to score whether a
/// shallow model "guessed right".
pub fn trait_matched_body(traits: &DesignTraits) -> &'static str {
    if traits.high_fanout() {
        "set_max_fanout 10\ncompile -map_effort high\nbalance_buffers\ncompile -map_effort high"
    } else if traits.deep_logic() && traits.registers > 0 {
        "compile\noptimize_registers\ncompile -map_effort high"
    } else if traits.hierarchical() {
        "ungroup -all\nset_critical_range 0.1\ncompile -map_effort high\noptimize_registers\ncompile -map_effort high"
    } else {
        "set_critical_range 0.1\ncompile -map_effort high"
    }
}

/// Generic optimization bodies a shallow model picks from when it guesses.
const GENERIC_BODIES: &[&str] = &[
    "compile_ultra",
    "compile -map_effort high",
    "compile\noptimize_registers\ncompile",
    "set_max_fanout 16\ncompile -map_effort high",
    "ungroup -all\ncompile -map_effort high",
    "compile_ultra -no_autoungroup",
    "set_driving_cell -lib_cell BUF_X4 [all_inputs]\ncompile -map_effort high",
];

/// A one-shot baseline generator parameterized by a profile.
#[derive(Debug, Clone)]
pub struct OneShot {
    profile: OneShotProfile,
}

impl OneShot {
    /// Creates a generator from a profile.
    pub fn new(profile: OneShotProfile) -> Self {
        Self { profile }
    }
}

/// GPT-4o-like baseline.
pub fn gpt_like() -> OneShot {
    OneShot::new(OneShotProfile::gpt_like())
}

/// Claude-3.5-Sonnet-like baseline.
pub fn claude_like() -> OneShot {
    OneShot::new(OneShotProfile::claude_like())
}

impl Generator for OneShot {
    fn name(&self) -> &str {
        &self.profile.model
    }

    fn generate(&self, task: &TaskContext, seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(&task.design_name));
        let p = &self.profile;
        let mut period = task.period;
        if rng.gen_bool(p.period_change_rate) {
            // Illegal: "optimizes" by relaxing the clock.
            period *= 1.0 + rng.gen_range(0.05..0.3);
        }
        let mut script = format!(
            "create_clock -period {period:.3} [get_ports clk]\nset_wire_load_model -name 5K_heavy_1k\n"
        );
        // Optimization body: trait-matched with probability
        // `trait_match_rate`, otherwise a generic guess.
        let body = if rng.gen_bool(p.trait_match_rate) {
            trait_matched_body(&task.traits).to_string()
        } else {
            GENERIC_BODIES[rng.gen_range(0..GENERIC_BODIES.len())].to_string()
        };
        script.push_str(&body);
        script.push('\n');
        if rng.gen_bool(p.area_focus_rate) {
            script.push_str("set_max_area 0\ncompile -map_effort high\n");
        }
        if rng.gen_bool(p.verbosity_rate) {
            // Extra commands: harmless reporting plus an area-costly
            // critical-range widening.
            script.push_str(
                "set_critical_range 0.25\ncompile -map_effort high\nreport_timing\nreport_area\n",
            );
        }
        if rng.gen_bool(p.bad_option_rate) {
            let bad = BAD_OPTIONS[rng.gen_range(0..BAD_OPTIONS.len())];
            insert_midway(&mut script, bad, &mut rng);
        }
        if rng.gen_bool(p.hallucination_rate) {
            let h = HALLUCINATED_COMMANDS[rng.gen_range(0..HALLUCINATED_COMMANDS.len())];
            insert_midway(&mut script, h, &mut rng);
        }
        script.push_str("report_qor\n");
        script
    }
}

fn insert_midway(script: &mut String, cmd: &str, rng: &mut StdRng) {
    let lines: Vec<&str> = script.lines().collect();
    let pos = rng.gen_range(1..=lines.len());
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    out.insert(pos.min(out.len()), cmd.to_string());
    *script = out.join("\n");
    script.push('\n');
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// Checks a script against the task's fixed constraints: returns `false`
/// when the script changed the clock period (forbidden by the evaluation
/// protocol).
pub fn respects_fixed_period(script: &str, period: f64) -> bool {
    for cmd in chatls_synth::script::parse_script(script).unwrap_or_default() {
        if cmd.name == "create_clock" {
            if let Some(p) = cmd.option("-period").and_then(|v| v.parse::<f64>().ok()) {
                if (p - period).abs() > 1e-6 {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit_mentor::detect_traits;
    use chatls_designs::by_name;

    fn task(name: &str) -> TaskContext {
        let d = by_name(name).unwrap();
        let traits = detect_traits(&d.netlist());
        TaskContext {
            design_name: d.name.clone(),
            period: d.default_period,
            baseline_script: format!(
                "create_clock -period {:.3} [get_ports clk]\ncompile\n",
                d.default_period
            ),
            user_request: "optimize timing".into(),
            traits,
            baseline: TimingSummary::default(),
            timing_lint: Vec::new(),
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let t = task("riscv32i");
        let g = gpt_like();
        assert_eq!(g.generate(&t, 3), g.generate(&t, 3));
        assert_ne!(g.generate(&t, 3), g.generate(&t, 4));
    }

    #[test]
    fn scripts_always_parse() {
        // Even hallucinated scripts are syntactically valid Tcl — the
        // failure is semantic (unknown command), as in the paper.
        for name in ["aes", "ethmac", "jpeg"] {
            let t = task(name);
            for seed in 0..20 {
                for g in [gpt_like(), claude_like()] {
                    let s = g.generate(&t, seed);
                    chatls_synth::script::parse_script(&s)
                        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}\n{s}", g.name()));
                }
            }
        }
    }

    #[test]
    fn hallucinations_occur_at_expected_rate() {
        let t = task("aes");
        let g = gpt_like();
        let mut bad = 0;
        let n = 200;
        for seed in 0..n {
            let s = g.generate(&t, seed);
            let has_unknown =
                HALLUCINATED_COMMANDS.iter().any(|h| s.contains(h.split(' ').next().unwrap()))
                    || BAD_OPTIONS.iter().any(|b| s.contains(b));
            if has_unknown {
                bad += 1;
            }
        }
        let rate = bad as f64 / n as f64;
        assert!(rate > 0.1 && rate < 0.5, "rate {rate}");
    }

    #[test]
    fn period_is_usually_fixed_sometimes_not() {
        let t = task("jpeg");
        let g = claude_like();
        let mut violations = 0;
        for seed in 0..100 {
            if !respects_fixed_period(&g.generate(&t, seed), t.period) {
                violations += 1;
            }
        }
        assert!(violations > 0 && violations < 30, "{violations} period changes");
    }

    #[test]
    fn trait_matched_body_selects_per_trait() {
        let eth = task("ethmac");
        assert!(trait_matched_body(&eth.traits).contains("balance_buffers"));
        // A deep-but-narrow design retimes; a flat shallow one just compiles.
        let deep = DesignTraits {
            max_fanout: 10,
            logic_depth: 150,
            enable_reg_fraction: 0.1,
            xor_fraction: 0.1,
            module_paths: 2,
            registers: 64,
            gates: 5000,
        };
        assert!(trait_matched_body(&deep).contains("optimize_registers"));
        let flat = DesignTraits { logic_depth: 20, registers: 0, ..deep };
        assert!(trait_matched_body(&flat).contains("compile"));
    }

    #[test]
    fn profiles_differ_in_bias() {
        let g = OneShotProfile::gpt_like();
        let c = OneShotProfile::claude_like();
        assert!(g.area_focus_rate > c.area_focus_rate);
        assert!(c.verbosity_rate > g.verbosity_rate);
    }
}
