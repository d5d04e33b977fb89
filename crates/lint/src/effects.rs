//! Effect signatures: what each script command reads and writes over the
//! abstract tool-state lattice.
//!
//! The signatures mirror `SynthSession::run_command` exactly — that
//! correspondence is what makes the abstract interpreter ([`crate::interp`])
//! and the prove-safe canonicalizer ([`crate::canon`]) sound. Three
//! properties of the interpreter matter most:
//!
//! - Constraint commands **overwrite** their facet (`set_input_delay 0.2`
//!   replaces any earlier delay) — except the timing-exception commands,
//!   which **append** to `Constraints::exceptions` (and multicycle bonuses
//!   apply *cumulatively*, so repeats are not redundant).
//! - Optimization commands read the constraint state and mutate the design;
//!   the run's final QoR is one more read of every STA-visible facet.
//! - A handful of commands can fail at runtime even with spec-valid
//!   arguments (library lookups, design-state preconditions). Those are
//!   *fallible*: the canonicalizer treats them as barriers because the QoR
//!   at an abort point depends on exactly which constraints were applied
//!   before it.

use chatls_synth::script::Command;
use chatls_synth::tool::NO_OP_COMMANDS;

/// One slot of the abstract tool state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Facet {
    /// Clock period + port (`create_clock`).
    Clock = 0,
    /// Input arrival delay (`set_input_delay`).
    InputDelay = 1,
    /// Output required-time delay (`set_output_delay`).
    OutputDelay = 2,
    /// Wireload model (`set_wire_load_model`).
    WireLoad = 3,
    /// Assumed external driver resistance (`set_driving_cell`).
    DrivingCell = 4,
    /// Area-recovery target (`set_max_area`).
    MaxArea = 5,
    /// Near-critical slack band (`set_critical_range`).
    CriticalRange = 6,
    /// Fanout limit consumed by `balance_buffers` (`set_max_fanout`).
    MaxFanout = 7,
    /// Clock-gating style armed (`set_clock_gating_style`).
    GatingStyle = 8,
    /// Timing exceptions — append-only (`set_false_path`,
    /// `set_multicycle_path`).
    Exceptions = 9,
    /// The mapped design itself (compiles, retiming, buffering, gating).
    Design = 10,
}

/// Number of [`Facet`] variants (bitset width).
pub const FACET_COUNT: usize = 11;

/// All facets, in declaration order.
pub const ALL_FACETS: [Facet; FACET_COUNT] = [
    Facet::Clock,
    Facet::InputDelay,
    Facet::OutputDelay,
    Facet::WireLoad,
    Facet::DrivingCell,
    Facet::MaxArea,
    Facet::CriticalRange,
    Facet::MaxFanout,
    Facet::GatingStyle,
    Facet::Exceptions,
    Facet::Design,
];

impl Facet {
    /// Human-readable name of the command family that writes this facet.
    pub fn describe(self) -> &'static str {
        match self {
            Facet::Clock => "clock (create_clock)",
            Facet::InputDelay => "input delay (set_input_delay)",
            Facet::OutputDelay => "output delay (set_output_delay)",
            Facet::WireLoad => "wireload model (set_wire_load_model)",
            Facet::DrivingCell => "driving cell (set_driving_cell)",
            Facet::MaxArea => "area target (set_max_area)",
            Facet::CriticalRange => "critical range (set_critical_range)",
            Facet::MaxFanout => "fanout limit (set_max_fanout)",
            Facet::GatingStyle => "clock-gating style (set_clock_gating_style)",
            Facet::Exceptions => "timing exceptions (set_false_path/set_multicycle_path)",
            Facet::Design => "design state",
        }
    }
}

/// A small set of [`Facet`]s (bitset over [`FACET_COUNT`] bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FacetSet(u16);

impl FacetSet {
    /// The empty set.
    pub const EMPTY: FacetSet = FacetSet(0);

    /// A set holding exactly the given facets.
    pub const fn of(facets: &[Facet]) -> FacetSet {
        let mut bits = 0u16;
        let mut i = 0;
        while i < facets.len() {
            bits |= 1 << facets[i] as u16;
            i += 1;
        }
        FacetSet(bits)
    }

    /// Union.
    pub const fn union(self, other: FacetSet) -> FacetSet {
        FacetSet(self.0 | other.0)
    }

    /// Membership.
    pub const fn contains(self, facet: Facet) -> bool {
        self.0 & (1 << facet as u16) != 0
    }

    /// True when no facet is in the set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when the two sets share a facet.
    pub const fn intersects(self, other: FacetSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Facets in the set, in declaration order.
    pub fn iter(self) -> impl Iterator<Item = Facet> {
        ALL_FACETS.into_iter().filter(move |&f| self.contains(f))
    }
}

/// Coarse behavioural class of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Accepted but state-free (`read_verilog`, `link`, `echo`, …).
    Alias,
    /// Writes constraint facets only.
    Constraint,
    /// Reads constraints and mutates the design (`compile`, `ungroup`,
    /// `balance_buffers`, `insert_clock_gating`, `set_fix_hold`, …).
    Optimize,
    /// Pure read that renders into the log (`report_*`, `check_design`).
    Report,
    /// Pure read that emits an artifact (`write`).
    Output,
}

/// Declared effect signature of one command occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectSig {
    /// Facets the command reads.
    pub reads: FacetSet,
    /// Facets the command writes.
    pub writes: FacetSet,
    /// Behavioural class.
    pub kind: Kind,
    /// True when the command can error at runtime even with spec-valid
    /// arguments (library lookups, design-state preconditions). Fallible
    /// commands are canonicalization barriers.
    pub fallible: bool,
    /// True when the write appends (timing exceptions) rather than
    /// overwrites.
    pub append: bool,
}

/// Facets the final implicit QoR read consumes — every run ends with a
/// timing/area analysis against the *current* constraint state, so writes
/// to these facets are live even with no compile after them.
pub const STA_FACETS: FacetSet = FacetSet::of(&[
    Facet::Clock,
    Facet::InputDelay,
    Facet::OutputDelay,
    Facet::WireLoad,
    Facet::DrivingCell,
    Facet::Exceptions,
    Facet::Design,
]);

/// Facets only optimization passes consume; the final QoR read never
/// looks at them. A write here with no subsequent optimizer can never
/// take effect.
pub const OPTIMIZER_ONLY_FACETS: FacetSet =
    FacetSet::of(&[Facet::MaxArea, Facet::CriticalRange, Facet::MaxFanout, Facet::GatingStyle]);

/// Everything an optimization pass may consult. Deliberately
/// over-approximate: an optimizer that is *assumed* to read a facet can
/// only make the analysis more conservative (a spurious read blocks a
/// dead-write proof; it never invents one).
const OPTIMIZE_READS: FacetSet = STA_FACETS.union(OPTIMIZER_ONLY_FACETS);

const fn set(facets: &[Facet]) -> FacetSet {
    FacetSet::of(facets)
}

/// The effect signature for a command, or `None` when the command is not
/// in the tool manual.
pub fn effect_sig(cmd: &Command) -> Option<EffectSig> {
    let sig = |reads, writes, kind, fallible, append| {
        Some(EffectSig { reads, writes, kind, fallible, append })
    };
    let constraint =
        |facet, fallible| sig(FacetSet::EMPTY, set(&[facet]), Kind::Constraint, fallible, false);
    let optimize =
        |fallible| sig(OPTIMIZE_READS, set(&[Facet::Design]), Kind::Optimize, fallible, false);
    match cmd.name.as_str() {
        // No-op aliases: accepted, logged, no state.
        name if NO_OP_COMMANDS.contains(&name) => {
            sig(FacetSet::EMPTY, FacetSet::EMPTY, Kind::Alias, false, false)
        }
        "create_clock" => constraint(Facet::Clock, false),
        "set_input_delay" => constraint(Facet::InputDelay, false),
        "set_output_delay" => constraint(Facet::OutputDelay, false),
        // Library lookup can fail at runtime: barrier.
        "set_wire_load_model" => constraint(Facet::WireLoad, true),
        "set_driving_cell" => constraint(Facet::DrivingCell, true),
        "set_max_area" => constraint(Facet::MaxArea, false),
        "set_critical_range" => constraint(Facet::CriticalRange, false),
        "set_max_fanout" => constraint(Facet::MaxFanout, false),
        "set_clock_gating_style" => constraint(Facet::GatingStyle, false),
        "set_false_path" | "set_multicycle_path" => {
            sig(FacetSet::EMPTY, set(&[Facet::Exceptions]), Kind::Constraint, false, true)
        }
        "compile"
        | "compile_ultra"
        | "balance_buffers"
        | "ungroup"
        | "insert_clock_gating"
        | "set_fix_hold" => optimize(false),
        // Errors when the design has no registers to retime.
        "optimize_registers" => optimize(true),
        "report_timing" | "report_area" | "report_qor" | "report_power" | "report_hold" => {
            sig(STA_FACETS, FacetSet::EMPTY, Kind::Report, false, false)
        }
        "check_design" => sig(set(&[Facet::Design]), FacetSet::EMPTY, Kind::Report, false, false),
        "write" => sig(set(&[Facet::Design]), FacetSet::EMPTY, Kind::Output, false, false),
        _ => None,
    }
}

/// Normalized abstract value a constraint write stores, used to prove two
/// writes equal (`set_input_delay 0.20` ≡ `set_input_delay 0.2`). `None`
/// when the command is not a constraint write or the value is opaque.
pub fn abstract_value(cmd: &Command) -> Option<String> {
    let num = |v: &str| v.parse::<f64>().ok().map(|f| format!("{f:?}"));
    let first_pos = |cmd: &Command| cmd.positional().first().copied().map(str::to_string);
    match cmd.name.as_str() {
        "create_clock" => {
            let period = num(cmd.option("-period")?)?;
            let port = cmd
                .bracket("get_ports")
                .and_then(|g| g.positional().first().map(|s| s.to_string()))
                .unwrap_or_default();
            Some(format!("{period}@{port}"))
        }
        "set_input_delay" | "set_output_delay" | "set_max_area" | "set_critical_range" => {
            num(&first_pos(cmd)?)
        }
        "set_max_fanout" => first_pos(cmd)?.parse::<u64>().ok().map(|n| n.to_string()),
        "set_wire_load_model" => cmd.option("-name").map(str::to_string),
        "set_driving_cell" => cmd.option("-lib_cell").map(str::to_string),
        // The interpreter ignores the arguments entirely: any invocation
        // sets the same "armed" bit.
        "set_clock_gating_style" => Some("armed".to_string()),
        "set_false_path" => {
            let from = cmd
                .bracket("get_ports")
                .and_then(|g| g.positional().first().map(|s| s.to_string()))
                .or_else(|| cmd.option("-from").map(str::to_string));
            let to = cmd.option("-to").map(str::to_string);
            Some(format!("false:from={}:to={}", from.unwrap_or_default(), to.unwrap_or_default()))
        }
        "set_multicycle_path" => {
            let n = cmd.positional().first()?.parse::<u32>().ok()?;
            let to = cmd.option("-to")?;
            Some(format!("mc:to={to}:n={n}"))
        }
        _ => None,
    }
}

/// Whether a spec-valid command is *provably* infallible given its literal
/// arguments — the extra runtime checks `run_command` performs beyond the
/// argument grammar.
pub fn provably_infallible(cmd: &Command) -> bool {
    match cmd.name.as_str() {
        // Library lookups / design-state preconditions cannot be
        // discharged statically.
        "set_wire_load_model" | "set_driving_cell" | "optimize_registers" => false,
        // `-period` must be strictly positive at runtime.
        "create_clock" => cmd
            .option("-period")
            .and_then(|v| v.parse::<f64>().ok())
            .map(|p| p > 0.0)
            .unwrap_or(false),
        // Value must be non-negative at runtime.
        "set_max_area" | "set_critical_range" => cmd
            .positional()
            .first()
            .and_then(|v| v.parse::<f64>().ok())
            .map(|v| v >= 0.0)
            .unwrap_or(false),
        // The tool parses the multiplier as u32 (the grammar only checks
        // u64), so an over-wide literal would abort at runtime.
        "set_multicycle_path" => cmd
            .positional()
            .first()
            .and_then(|v| v.parse::<u32>().ok())
            .map(|n| n >= 1)
            .unwrap_or(false),
        "set_max_fanout" => cmd
            .positional()
            .first()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|n| n > 0)
            .unwrap_or(false),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatls_synth::script::parse_script;

    fn cmd(src: &str) -> Command {
        parse_script(src).unwrap().remove(0)
    }

    #[test]
    fn facet_set_basics() {
        let s = FacetSet::of(&[Facet::Clock, Facet::MaxArea]);
        assert!(s.contains(Facet::Clock));
        assert!(!s.contains(Facet::Design));
        assert!(s.intersects(STA_FACETS));
        assert_eq!(s.iter().count(), 2);
        assert!(FacetSet::EMPTY.is_empty());
    }

    #[test]
    fn signatures_mirror_the_interpreter() {
        let c = effect_sig(&cmd("compile -map_effort high")).unwrap();
        assert_eq!(c.kind, Kind::Optimize);
        assert!(c.writes.contains(Facet::Design));
        assert!(c.reads.contains(Facet::MaxArea), "compile runs area recovery");
        assert!(!c.fallible);

        let w = effect_sig(&cmd("set_wire_load_model -name 5K_heavy_1k")).unwrap();
        assert!(w.fallible, "library lookup can fail at runtime");

        let f = effect_sig(&cmd("set_false_path -from [get_ports a]")).unwrap();
        assert!(f.append, "exceptions accumulate");

        let r = effect_sig(&cmd("report_qor")).unwrap();
        assert_eq!(r.kind, Kind::Report);
        assert!(r.writes.is_empty());

        assert!(effect_sig(&cmd("frobnicate")).is_none());
    }

    #[test]
    fn abstract_values_normalize_numerals() {
        assert_eq!(
            abstract_value(&cmd("set_input_delay 0.20")),
            abstract_value(&cmd("set_input_delay 0.2"))
        );
        assert_ne!(
            abstract_value(&cmd("set_input_delay 0.2")),
            abstract_value(&cmd("set_input_delay 0.3"))
        );
        assert_eq!(
            abstract_value(&cmd("create_clock -period 1.50 [get_ports clk]")),
            abstract_value(&cmd("create_clock -period 1.5 [get_ports clk]"))
        );
        assert_eq!(
            abstract_value(&cmd("set_clock_gating_style -sequential_cell latch")),
            abstract_value(&cmd("set_clock_gating_style"))
        );
    }

    #[test]
    fn provability_checks_runtime_preconditions() {
        assert!(provably_infallible(&cmd("create_clock -period 1.0 [get_ports clk]")));
        assert!(!provably_infallible(&cmd("create_clock -period -1.0 [get_ports clk]")));
        assert!(!provably_infallible(&cmd("set_max_area -3")));
        assert!(provably_infallible(&cmd("set_max_area 0")));
        assert!(!provably_infallible(&cmd("set_wire_load_model -name 5K_heavy_1k")));
        assert!(!provably_infallible(&cmd("set_multicycle_path 99999999999 -to q")));
        assert!(provably_infallible(&cmd("compile")));
    }
}
