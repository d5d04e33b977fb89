//! Static timing analysis over a mapped design.
//!
//! Implements the classic topological arrival-time propagation with the
//! linear delay model from [`chatls_liberty`]: gate delay =
//! `intrinsic + drive_resistance × load`, loads from sink pin caps plus the
//! configured wireload model. Endpoints are flip-flop D pins (required =
//! period − setup) and primary outputs (required = period − output delay).
//!
//! Reported metrics match the paper's Table III/IV columns:
//! **WNS** (worst negative slack, 0 when met), **CPS** (critical path
//! slack, signed), **TNS** (total negative slack), and cell **area**.

use crate::design::{FlatLists, MappedDesign};
use chatls_liberty::Library;
use chatls_verilog::netlist::GateKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Timing constraints and analysis knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraints {
    /// Clock period in ns.
    pub clock_period: f64,
    /// Clock port name (informational).
    pub clock_port: Option<String>,
    /// Arrival time of primary inputs relative to the clock edge (ns).
    pub input_delay: f64,
    /// Required margin on primary outputs (ns).
    pub output_delay: f64,
    /// Wireload model name; `None` = ideal wires.
    pub wire_load: Option<String>,
    /// Area target for area recovery (`set_max_area`), if any.
    pub max_area: Option<f64>,
    /// Slack band near critical treated as critical (`set_critical_range`).
    pub critical_range: f64,
    /// Drive resistance of the cell assumed to drive primary inputs
    /// (`set_driving_cell`), in ns/fF; input arrival = input delay +
    /// this × input-net load.
    pub input_drive_resistance: f64,
    /// Timing exceptions (`set_false_path`, `set_multicycle_path`).
    pub exceptions: Vec<TimingException>,
}

/// A timing exception applied during analysis.
///
/// `-from` is supported for primary-input launch points (the named input's
/// paths are excluded from arrival propagation); `-to` matches endpoints by
/// name prefix (a register's Q-net name or a primary output). This is the
/// practical subset the synthesis scripts in this workspace use; full
/// through-point exceptions would require per-path tagging.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TimingException {
    /// `set_false_path -from <port>`: paths launched at the port are
    /// unconstrained.
    FalseFrom(String),
    /// `set_false_path -to <endpoint prefix>`: matching endpoints are
    /// unconstrained.
    FalseTo(String),
    /// `set_multicycle_path <n> -to <endpoint prefix>`: matching endpoints
    /// get `n` clock periods.
    MulticycleTo(String, u32),
}

impl Default for Constraints {
    fn default() -> Self {
        Self {
            clock_period: 1.0,
            clock_port: None,
            input_delay: 0.0,
            output_delay: 0.0,
            wire_load: Some("5K_heavy_1k".into()),
            max_area: None,
            critical_range: 0.05,
            input_drive_resistance: 0.002,
            exceptions: Vec::new(),
        }
    }
}

/// One step of a reported timing path, source to endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathStep {
    /// Net name at this step.
    pub net: String,
    /// Library cell driving the net (empty for primary inputs).
    pub cell: String,
    /// Hierarchical module path of the driving gate.
    pub module_path: String,
    /// Arrival time at this net (ns).
    pub arrival: f64,
}

/// A slack record for a timing endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointSlack {
    /// Endpoint description (register data pin or primary output name).
    pub endpoint: String,
    /// Hierarchical module path of the endpoint.
    pub module_path: String,
    /// Arrival time (ns).
    pub arrival: f64,
    /// Required time (ns).
    pub required: f64,
    /// Slack = required − arrival (ns).
    pub slack: f64,
}

/// Full timing report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Worst negative slack: `min(0, min slack)` (ns).
    pub wns: f64,
    /// Critical path slack: the signed minimum endpoint slack (ns).
    pub cps: f64,
    /// Total negative slack: sum of negative endpoint slacks (ns).
    pub tns: f64,
    /// All endpoint slacks, worst first.
    pub endpoints: Vec<EndpointSlack>,
    /// The critical path, source first.
    pub critical_path: Vec<PathStep>,
    /// Number of live combinational gates left on feedback loops. When
    /// nonzero, arrival times through those cones are single-pass
    /// pessimistic, not fixed-point values.
    pub combinational_cycles: usize,
}

/// The three figures a timing-driven pass or a QoR reads: what
/// [`TimingReport`] carries without the endpoint names, module paths and
/// critical-path trace that only a report prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackSummary {
    /// Worst negative slack: `min(0, cps)` (ns).
    pub wns: f64,
    /// Critical path slack: the signed minimum endpoint slack, or the
    /// clock period when no endpoint is constrained (ns).
    pub cps: f64,
    /// Total negative slack (ns).
    pub tns: f64,
}

impl SlackSummary {
    /// The summary of endpoint `slacks` sorted worst first (a report's
    /// order), so that TNS adds the same terms in the same order and every
    /// bit matches the report's.
    fn from_sorted(mut slacks: impl Iterator<Item = f64>, clock_period: f64) -> Self {
        let first = slacks.next();
        let cps = first.unwrap_or(clock_period);
        let tns = first.into_iter().chain(slacks).map(|s| s.min(0.0)).sum();
        Self { wns: cps.min(0.0), cps, tns }
    }
}

impl TimingReport {
    /// WNS, CPS and TNS of this report.
    pub fn summary(&self) -> SlackSummary {
        SlackSummary { wns: self.wns, cps: self.cps, tns: self.tns }
    }

    /// Worst slack per hierarchical module path (endpoint attribution).
    pub fn module_slacks(&self) -> HashMap<String, f64> {
        let mut map: HashMap<String, f64> = HashMap::new();
        for ep in &self.endpoints {
            let entry = map.entry(ep.module_path.clone()).or_insert(f64::INFINITY);
            if ep.slack < *entry {
                *entry = ep.slack;
            }
        }
        map
    }

    /// True when all endpoints meet timing.
    pub fn met(&self) -> bool {
        self.cps >= 0.0
    }
}

/// Quality-of-results summary (one Table III/IV row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QorReport {
    /// Design name.
    pub design: String,
    /// Worst negative slack (ns); 0.00 when timing is met.
    pub wns: f64,
    /// Critical path slack (ns); positive when timing is met.
    pub cps: f64,
    /// Total negative slack (ns).
    pub tns: f64,
    /// Cell area (µm²).
    pub area: f64,
    /// Leakage power (relative units).
    pub leakage: f64,
    /// Live cell count.
    pub cells: usize,
    /// Register count.
    pub registers: usize,
}

impl fmt::Display for QorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "**** QoR report: {} ****", self.design)?;
        writeln!(f, "  WNS : {:>9.2} ns", self.wns)?;
        writeln!(f, "  CPS : {:>9.2} ns", self.cps)?;
        writeln!(f, "  TNS : {:>9.2} ns", self.tns)?;
        writeln!(f, "  Area: {:>11.2} um^2", self.area)?;
        writeln!(f, "  Cells: {}  Registers: {}", self.cells, self.registers)
    }
}

/// Arrival times, loads and the topological order used to compute them.
pub(crate) struct Arrivals {
    pub(crate) arrival: Vec<f64>,
    pub(crate) loads: Vec<f64>,
    pub(crate) order: Vec<usize>,
    pub(crate) driver: Vec<Option<usize>>,
    /// Live combinational gates stuck on feedback loops.
    pub(crate) cycles: usize,
}

/// Per-net arrival/required/slack view used by timing-driven passes.
#[derive(Debug, Clone, PartialEq)]
pub struct SlackMap {
    /// Arrival time per net (ns); `-inf` for unreached nets.
    pub arrival: Vec<f64>,
    /// Required time per net (ns); `+inf` for unconstrained nets.
    pub required: Vec<f64>,
}

impl SlackMap {
    /// Slack of a net: `required − arrival` (`+inf` when unconstrained).
    pub fn slack(&self, net: u32) -> f64 {
        self.required[net as usize] - self.arrival[net as usize].max(0.0)
    }
}

/// Computes per-net arrival and required times (backward propagation from
/// endpoints), for timing-driven optimization passes.
pub fn slack_map(design: &MappedDesign, library: &Library, constraints: &Constraints) -> SlackMap {
    let a = compute_arrivals(design, library, constraints);
    let required = required_times(design, library, constraints, &a.loads, &a.order);
    SlackMap { arrival: a.arrival, required }
}

/// Delay in ns from input `pin` of library cell `cell` to its output under
/// `load` fF; 0 when the cell has no such arc (constants).
#[inline]
pub(crate) fn arc_delay(library: &Library, cell: u32, pin: usize, load: f64) -> f64 {
    library.input_arc(cell, pin).map_or(0.0, |arc| arc.delay(load))
}

/// Setup requirement in ns of register cell `cell` (0.05 without one).
fn setup_time(library: &Library, cell: u32) -> f64 {
    library.cell_by_id(cell).and_then(|c| c.ff.as_ref()).map_or(0.05, |ff| ff.setup)
}

/// Launch arrival in ns of a register output: its cell's clock-to-Q delay
/// under `load` fF (0.1 without one).
pub(crate) fn clk_to_q(library: &Library, cell: u32, load: f64) -> f64 {
    library.cell_by_id(cell).and_then(|c| c.ff.as_ref()).map_or(0.1, |ff| ff.clk_to_q.delay(load))
}

/// Backward required-time propagation over `order` (any valid topological
/// order of the live combinational gates; tombstoned entries are skipped).
pub(crate) fn required_times(
    design: &MappedDesign,
    library: &Library,
    constraints: &Constraints,
    loads: &[f64],
    order: &[usize],
) -> Vec<f64> {
    let nets = design.netlist.nets.len();
    let mut required = vec![f64::INFINITY; nets];
    for (gi, gate) in design.netlist.gates.iter().enumerate() {
        if design.is_dead(gi) || !gate.kind.is_sequential() {
            continue;
        }
        let setup = setup_time(library, design.cells[gi]);
        let d = gate.inputs[0] as usize;
        required[d] = required[d].min(constraints.clock_period - setup);
    }
    for (_, id) in &design.netlist.outputs {
        let r = constraints.clock_period - constraints.output_delay;
        required[*id as usize] = required[*id as usize].min(r);
    }
    for &gi in order.iter().rev() {
        if design.is_dead(gi) {
            continue;
        }
        let gate = &design.netlist.gates[gi];
        let out_req = required[gate.output as usize];
        if !out_req.is_finite() {
            continue;
        }
        let load = loads[gate.output as usize];
        for (pin, &inp) in gate.inputs.iter().enumerate() {
            let r = out_req - arc_delay(library, design.cells[gi], pin, load);
            if r < required[inp as usize] {
                required[inp as usize] = r;
            }
        }
    }
    required
}

/// How a net sources its arrival time when it has no live driver gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PiKind {
    /// Not a primary input: unreached (`-inf`) without a driver.
    NotPi,
    /// Normal primary input: `input_delay + drive_resistance × load`.
    Normal,
    /// The clock port: arrives at 0.
    Clock,
    /// `set_false_path -from` launch point: excluded (`-inf`).
    FalseFrom,
}

impl PiKind {
    /// Setup-analysis arrival of a net of this kind carrying `load` fF.
    pub(crate) fn setup_arrival(self, constraints: &Constraints, load: f64) -> f64 {
        match self {
            // Excluded launch points carry -inf so that downstream max()
            // never sees them above other sources.
            PiKind::NotPi | PiKind::FalseFrom => f64::NEG_INFINITY,
            PiKind::Clock => 0.0,
            PiKind::Normal => constraints.input_delay + constraints.input_drive_resistance * load,
        }
    }
}

/// True when port bit `name` is `port` itself or one of its bits `port[i]`.
fn names_port(name: &str, port: &str) -> bool {
    name.strip_prefix(port).is_some_and(|rest| rest.is_empty() || rest.starts_with('['))
}

/// Classifies every primary input, calling `each(net, kind)` in port order.
///
/// The clock port (`create_clock [get_ports …]`, else the netlist's clock)
/// and its bits are [`PiKind::Clock`]. With `false_from`, a
/// `set_false_path -from` launch point is [`PiKind::FalseFrom`], even when
/// it is the clock; hold analysis passes `false`, since `-from` excludes
/// setup paths only. Every other input is [`PiKind::Normal`].
pub(crate) fn classify_inputs(
    design: &MappedDesign,
    constraints: &Constraints,
    false_from: bool,
    mut each: impl FnMut(u32, PiKind),
) {
    let clock = constraints.clock_port.as_deref().or(design.netlist.clock.as_deref());
    for (name, id) in &design.netlist.inputs {
        let excluded = false_from
            && constraints
                .exceptions
                .iter()
                .any(|e| matches!(e, TimingException::FalseFrom(p) if names_port(name, p)));
        let kind = if excluded {
            PiKind::FalseFrom
        } else if clock.is_some_and(|c| names_port(name, c)) {
            PiKind::Clock
        } else {
            PiKind::Normal
        };
        each(*id, kind);
    }
}

/// Longest combinational depth of each gate in `order` (a topological
/// order of live combinational gates, as from [`comb_topo`]), written into
/// `level` (resized to the gate count, 0 for gates not in `order`).
/// Sequential drivers start a path at level 0.
pub(crate) fn gate_levels(
    design: &MappedDesign,
    order: &[usize],
    driver: &[Option<usize>],
    level: &mut Vec<u32>,
) {
    level.clear();
    level.resize(design.netlist.gates.len(), 0);
    for &gi in order {
        let mut lvl = 0u32;
        for &inp in &design.netlist.gates[gi].inputs {
            if let Some(d) = driver[inp as usize] {
                if !design.is_dead(d) && !design.netlist.gates[d].kind.is_sequential() {
                    lvl = lvl.max(level[d] + 1);
                }
            }
        }
        level[gi] = lvl;
    }
}

pub(crate) fn compute_arrivals(
    design: &MappedDesign,
    library: &Library,
    constraints: &Constraints,
) -> Arrivals {
    let nets = design.netlist.nets.len();
    let loads = design.net_loads(library, constraints.wire_load.as_deref());
    let mut arrival = vec![f64::NEG_INFINITY; nets];

    // Sources: primary inputs and register outputs.
    classify_inputs(design, constraints, true, |id, kind| {
        arrival[id as usize] = kind.setup_arrival(constraints, loads[id as usize]);
    });
    for (gi, gate) in design.netlist.gates.iter().enumerate() {
        if design.is_dead(gi) || !gate.kind.is_sequential() {
            continue;
        }
        let out = gate.output as usize;
        arrival[out] = clk_to_q(library, design.cells[gi], loads[out]);
    }

    // Topological propagation over live combinational gates.
    let driver = design.driver_map();
    let (order, cycles) = comb_topo(design, &driver);
    propagate_arrivals_serial(design, library, &order, &loads, &mut arrival);

    Arrivals { arrival, loads, order, driver, cycles }
}

/// The arrival walk: gates in topological order, each taking
/// `max(input arrival + arc delay)` over its pins. Cycle remnants, which
/// [`comb_topo`] appends after the acyclic prefix, get one pessimistic pass.
fn propagate_arrivals_serial(
    design: &MappedDesign,
    library: &Library,
    order: &[usize],
    loads: &[f64],
    arrival: &mut [f64],
) {
    for &gi in order {
        let gate = &design.netlist.gates[gi];
        let cell = design.cells[gi];
        let out_load = loads[gate.output as usize];
        let mut worst = match gate.kind {
            GateKind::Const0 | GateKind::Const1 => 0.0,
            _ => f64::NEG_INFINITY,
        };
        for (pin, &inp) in gate.inputs.iter().enumerate() {
            // Excluded launch points carry -inf and must not re-enter as
            // t=0: a false path stays false through the whole cone.
            let in_arr = arrival[inp as usize];
            let arc_delay = arc_delay(library, cell, pin, out_load);
            if in_arr + arc_delay > worst {
                worst = in_arr + arc_delay;
            }
        }
        if worst > arrival[gate.output as usize] {
            arrival[gate.output as usize] = worst;
        }
    }
}

/// Runs static timing analysis.
///
/// Dead (tombstoned) gates are ignored. Combinational loops make arrival
/// times ill-defined; the propagation is capped at graph-size iterations so
/// the analysis terminates, and loop nets report pessimistic arrivals.
pub fn analyze(
    design: &MappedDesign,
    library: &Library,
    constraints: &Constraints,
) -> TimingReport {
    let Arrivals { arrival, loads, order: _, driver, cycles } =
        compute_arrivals(design, library, constraints);
    report_from_parts(design, library, constraints, &arrival, &loads, &driver, cycles)
}

/// Which endpoint a slack belongs to.
#[derive(Debug, Clone, Copy)]
enum Endpoint {
    /// The data pin of register gate `gi`, named `<Q net>/D`.
    Register(usize),
    /// Primary output `i` (an index into `netlist.outputs`), named by its
    /// port.
    Output(usize),
}

/// One constrained endpoint, identified by index only: the report names
/// the endpoints it prints, the summary never does.
#[derive(Debug, Clone, Copy)]
struct EndpointTiming {
    at: Endpoint,
    /// The net the arrival was read from; the critical-path trace starts
    /// there.
    net: u32,
    arrival: f64,
    required: f64,
    slack: f64,
}

/// The one endpoint walk behind the report and the summary: every register
/// data pin, then every primary output, in design order, skipping
/// unreached endpoints and those a `-to` false path drops, with any
/// multicycle periods added to the required time.
fn for_each_endpoint(
    design: &MappedDesign,
    library: &Library,
    constraints: &Constraints,
    arrival: &[f64],
    mut each: impl FnMut(EndpointTiming),
) {
    let mut visit = |at: Endpoint, net: u32, name: &str, suffix: &str, required: f64| {
        let arr = arrival[net as usize];
        if !arr.is_finite() {
            return; // unconstrained: all launch points excluded/unreached
        }
        let arr = arr.max(0.0);
        if let Some(required) = required_after_exceptions(constraints, name, suffix, required) {
            each(EndpointTiming { at, net, arrival: arr, required, slack: required - arr });
        }
    };
    for (gi, gate) in design.netlist.gates.iter().enumerate() {
        if design.is_dead(gi) || !gate.kind.is_sequential() {
            continue;
        }
        let required = constraints.clock_period - setup_time(library, design.cells[gi]);
        let q = &design.netlist.nets[gate.output as usize];
        visit(Endpoint::Register(gi), gate.inputs[0], q, "/D", required);
    }
    for (i, (name, id)) in design.netlist.outputs.iter().enumerate() {
        let required = constraints.clock_period - constraints.output_delay;
        visit(Endpoint::Output(i), *id, name, "", required);
    }
}

/// The `-to` exceptions on the endpoint named `name` then `suffix`: `None`
/// when a false path drops it, else `required` plus any multicycle
/// periods.
fn required_after_exceptions(
    constraints: &Constraints,
    name: &str,
    suffix: &str,
    mut required: f64,
) -> Option<f64> {
    let names = |prefix: &str| names_endpoint(prefix, name, suffix);
    for e in &constraints.exceptions {
        if matches!(e, TimingException::FalseTo(p) if names(p)) {
            return None;
        }
    }
    for e in &constraints.exceptions {
        if let TimingException::MulticycleTo(p, n) = e {
            if *n >= 1 && names(p) {
                required += constraints.clock_period * (*n as f64 - 1.0);
            }
        }
    }
    Some(required)
}

/// True when `prefix` begins the endpoint name `name` followed by
/// `suffix`, without building that name.
fn names_endpoint(prefix: &str, name: &str, suffix: &str) -> bool {
    match prefix.strip_prefix(name) {
        Some(rest) => suffix.starts_with(rest),
        None => name.starts_with(prefix),
    }
}

/// Worst slack first. Sorts are stable, so endpoints with equal slacks
/// keep their walk order.
fn by_slack(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Builds the full [`TimingReport`] from already-computed arrivals and
/// loads — the shared back half of [`analyze`], also used by the
/// incremental [`crate::timing_graph::TimingGraph`].
pub(crate) fn report_from_parts(
    design: &MappedDesign,
    library: &Library,
    constraints: &Constraints,
    arrival: &[f64],
    loads: &[f64],
    driver: &[Option<usize>],
    cycles: usize,
) -> TimingReport {
    let registers = design.netlist.gates.iter().filter(|g| g.kind.is_sequential()).count();
    let mut endpoints = Vec::with_capacity(registers + design.netlist.outputs.len());
    for_each_endpoint(design, library, constraints, arrival, |ep| endpoints.push(ep));
    endpoints.sort_by(|a, b| by_slack(a.slack, b.slack));
    let critical_path = endpoints
        .first()
        .map(|ep| trace_path(design, library, arrival, loads, ep.net, driver))
        .unwrap_or_default();
    let SlackSummary { wns, cps, tns } =
        SlackSummary::from_sorted(endpoints.iter().map(|ep| ep.slack), constraints.clock_period);
    let netlist = &design.netlist;
    let endpoints = endpoints
        .iter()
        .map(|ep| {
            let (endpoint, module_path) = match ep.at {
                Endpoint::Register(gi) => {
                    let gate = &netlist.gates[gi];
                    let q = &netlist.nets[gate.output as usize];
                    (format!("{q}/D"), netlist.path(gate.path).to_string())
                }
                Endpoint::Output(i) => (
                    netlist.outputs[i].0.clone(),
                    driver[ep.net as usize].map_or_else(
                        || netlist.name.clone(),
                        |gi| netlist.path(netlist.gates[gi].path).to_string(),
                    ),
                ),
            };
            EndpointSlack {
                endpoint,
                module_path,
                arrival: ep.arrival,
                required: ep.required,
                slack: ep.slack,
            }
        })
        .collect();
    TimingReport { wns, cps, tns, endpoints, critical_path, combinational_cycles: cycles }
}

/// The [`SlackSummary`] of already-computed arrivals: bitwise the figures
/// [`report_from_parts`] reports, from the same endpoint walk, without
/// naming an endpoint or tracing a path. `slacks` is scratch space, so
/// that a caller that keeps it allocates nothing here.
pub(crate) fn summary_from_parts(
    design: &MappedDesign,
    library: &Library,
    constraints: &Constraints,
    arrival: &[f64],
    slacks: &mut Vec<f64>,
) -> SlackSummary {
    slacks.clear();
    for_each_endpoint(design, library, constraints, arrival, |ep| slacks.push(ep.slack));
    slacks.sort_by(|&a, &b| by_slack(a, b));
    SlackSummary::from_sorted(slacks.iter().copied(), constraints.clock_period)
}

/// Minimum (fastest-path) arrival times, for hold analysis.
///
/// Sources launch at the same clock edge that captures: primary inputs at
/// `input_delay`, register outputs at their clock-to-Q intrinsic delay.
/// Gate arcs contribute their intrinsic delay only (the fastest corner of
/// the linear model).
pub fn min_arrivals(
    design: &MappedDesign,
    library: &Library,
    constraints: &Constraints,
) -> Vec<f64> {
    let driver = design.driver_map();
    let (order, _) = comb_topo(design, &driver);
    min_arrivals_in(design, library, constraints, &order)
}

/// Forward minimum-arrival propagation over `order` (any valid topological
/// order of the live combinational gates; tombstoned entries are skipped).
pub(crate) fn min_arrivals_in(
    design: &MappedDesign,
    library: &Library,
    constraints: &Constraints,
    order: &[usize],
) -> Vec<f64> {
    let nets = design.netlist.nets.len();
    let mut arrival = vec![f64::INFINITY; nets];
    // Hold ignores `-from`: a false-path clock port still launches at 0.
    classify_inputs(design, constraints, false, |id, kind| {
        arrival[id as usize] = if kind == PiKind::Clock { 0.0 } else { constraints.input_delay };
    });
    for (gi, gate) in design.netlist.gates.iter().enumerate() {
        if design.is_dead(gi) || !gate.kind.is_sequential() {
            continue;
        }
        let clk_q = library.cell_by_id(design.cells[gi]).and_then(|c| c.ff.as_ref());
        arrival[gate.output as usize] = clk_q.map_or(0.05, |ff| ff.clk_to_q.intrinsic);
    }
    for &gi in order {
        if design.is_dead(gi) {
            continue;
        }
        let gate = &design.netlist.gates[gi];
        let mut best = match gate.kind {
            GateKind::Const0 | GateKind::Const1 => 0.0,
            _ => f64::INFINITY,
        };
        for (pin, &inp) in gate.inputs.iter().enumerate() {
            let in_arr = arrival[inp as usize].max(0.0);
            let arc = library.input_arc(design.cells[gi], pin).map_or(0.0, |arc| arc.intrinsic);
            if in_arr + arc < best {
                best = in_arr + arc;
            }
        }
        if best < arrival[gate.output as usize] {
            arrival[gate.output as usize] = best;
        }
    }
    arrival
}

/// Hold-timing report: slack of every register data pin against its hold
/// requirement, worst first.
pub fn hold_slacks(
    design: &MappedDesign,
    library: &Library,
    constraints: &Constraints,
) -> Vec<EndpointSlack> {
    let min_arr = min_arrivals(design, library, constraints);
    hold_from_min(design, library, &min_arr)
}

/// Hold endpoints from already-computed minimum arrivals — the shared back
/// half of [`hold_slacks`], also used by the incremental timing graph.
pub(crate) fn hold_from_min(
    design: &MappedDesign,
    library: &Library,
    min_arr: &[f64],
) -> Vec<EndpointSlack> {
    let mut endpoints = Vec::new();
    for (gi, gate) in design.netlist.gates.iter().enumerate() {
        if design.is_dead(gi) || !gate.kind.is_sequential() {
            continue;
        }
        let hold = library
            .cell_by_id(design.cells[gi])
            .and_then(|c| c.ff.as_ref())
            .map_or(0.01, |ff| ff.hold);
        let arr = min_arr[gate.inputs[0] as usize];
        let arr = if arr.is_finite() { arr.max(0.0) } else { 0.0 };
        endpoints.push(EndpointSlack {
            endpoint: format!("{}/D (hold)", &design.netlist.nets[gate.output as usize]),
            module_path: design.netlist.path(gate.path).to_string(),
            arrival: arr,
            required: hold,
            slack: arr - hold,
        });
    }
    endpoints.sort_by(|a, b| a.slack.partial_cmp(&b.slack).unwrap_or(std::cmp::Ordering::Equal));
    endpoints
}

/// Full QoR (timing + area) in one call.
pub fn qor(design: &MappedDesign, library: &Library, constraints: &Constraints) -> QorReport {
    let a = compute_arrivals(design, library, constraints);
    let summary = summary_from_parts(design, library, constraints, &a.arrival, &mut Vec::new());
    qor_from_summary(design, library, &summary)
}

/// QoR from an already-computed slack summary plus the design's area
/// figures.
pub(crate) fn qor_from_summary(
    design: &MappedDesign,
    library: &Library,
    timing: &SlackSummary,
) -> QorReport {
    QorReport {
        design: design.netlist.name.clone(),
        wns: timing.wns,
        cps: timing.cps,
        tns: timing.tns,
        area: design.area(library),
        leakage: design.leakage(library),
        cells: design.live_gates(),
        registers: design
            .netlist
            .gates
            .iter()
            .enumerate()
            .filter(|(i, g)| !design.is_dead(*i) && g.kind.is_sequential())
            .count(),
    }
}

/// Kahn topological order over live combinational gates; gates on cycles
/// are appended last (pessimistic single-pass arrivals). Returns the order
/// and the number of appended cycle-remnant gates.
///
/// The consumer adjacency is one flat table ([`FlatLists`]) instead of a
/// `Vec` per gate, so a full ordering of a 40k-gate design performs a
/// handful of allocations, not 40k. Each gate's consumers are listed in the
/// (consumer gate, pin) order the per-gate-`Vec` formulation visited them,
/// so the resulting order is identical.
pub(crate) fn comb_topo(design: &MappedDesign, driver: &[Option<usize>]) -> (Vec<usize>, usize) {
    let n = design.netlist.gates.len();
    // Live combinational driver per net, flattened so the edge passes
    // index a compact u32 array instead of chasing into the gate table.
    // Built by replaying `driver_map`'s overwrite order (last live driver
    // wins) with the sequential-gate filter applied at each step, which
    // yields exactly `driver[net]` filtered to combinational drivers while
    // scanning the gate table sequentially.
    const NO_GATE: u32 = u32::MAX;
    let mut comb_drv = vec![NO_GATE; driver.len()];
    for (gi, gate) in design.netlist.gates.iter().enumerate() {
        if !design.is_dead(gi) {
            comb_drv[gate.output as usize] =
                if gate.kind.is_sequential() { NO_GATE } else { gi as u32 };
        }
    }
    let live_comb =
        |gi: usize| !design.is_dead(gi) && !design.netlist.gates[gi].kind.is_sequential();
    let comb_drv = &comb_drv;
    let mut consumers = FlatLists::default();
    consumers.refill(n, || {
        (0..n).filter(|&gi| live_comb(gi)).flat_map(move |gi| {
            design.netlist.gates[gi].inputs.iter().filter_map(move |&inp| {
                let dep = comb_drv[inp as usize];
                (dep != NO_GATE).then_some((dep as usize, gi as u32))
            })
        })
    });
    let mut indeg = vec![0u32; n];
    for g in 0..n {
        for &c in consumers.get(g) {
            indeg[c as usize] += 1;
        }
    }
    // Kahn's walk; the queue, in pop order, is the topological order.
    let mut order: Vec<usize> = Vec::with_capacity((0..n).filter(|&gi| live_comb(gi)).count());
    order.extend((0..n).filter(|&gi| indeg[gi] == 0 && live_comb(gi)));
    let mut qi = 0;
    while qi < order.len() {
        let g = order[qi];
        qi += 1;
        for &c in consumers.get(g) {
            let c = c as usize;
            indeg[c] -= 1;
            if indeg[c] == 0 {
                order.push(c);
            }
        }
    }
    // Append any cycle remnants deterministically.
    let mut cycles = 0;
    for (gi, &deg) in indeg.iter().enumerate() {
        if deg > 0 && live_comb(gi) {
            order.push(gi);
            cycles += 1;
        }
    }
    (order, cycles)
}

/// The critical path into the endpoint whose arrival is `net`'s: walks
/// back from `net` through the input that set each gate's max arrival.
fn trace_path(
    design: &MappedDesign,
    library: &Library,
    arrival: &[f64],
    loads: &[f64],
    net: u32,
    driver: &[Option<usize>],
) -> Vec<PathStep> {
    let mut net = Some(net);
    let mut steps = Vec::new();
    let mut guard = 0;
    while let Some(cur) = net {
        guard += 1;
        if guard > design.netlist.gates.len() + 2 {
            break;
        }
        match driver[cur as usize] {
            None => {
                steps.push(PathStep {
                    net: design.netlist.nets[cur as usize].to_string(),
                    cell: String::new(),
                    module_path: design.netlist.name.clone(),
                    arrival: arrival[cur as usize].max(0.0),
                });
                break;
            }
            Some(gi) => {
                let gate = &design.netlist.gates[gi];
                steps.push(PathStep {
                    net: design.netlist.nets[cur as usize].to_string(),
                    cell: library
                        .cell_by_id(design.cells[gi])
                        .map_or(String::new(), |c| c.name.clone()),
                    module_path: design.netlist.path(gate.path).to_string(),
                    arrival: arrival[cur as usize].max(0.0),
                });
                if gate.kind.is_sequential() || gate.inputs.is_empty() {
                    break;
                }
                // Walk to the input that set the max arrival.
                let out_load = loads[gate.output as usize];
                let mut best_in = gate.inputs[0];
                let mut best_arr = f64::NEG_INFINITY;
                for (pin, &inp) in gate.inputs.iter().enumerate() {
                    let a = arrival[inp as usize].max(0.0)
                        + arc_delay(library, design.cells[gi], pin, out_load);
                    if a > best_arr {
                        best_arr = a;
                        best_in = inp;
                    }
                }
                net = Some(best_in);
            }
        }
    }
    steps.reverse();
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatls_liberty::nangate45;
    use chatls_verilog::{lower_to_netlist, parse};

    fn map(src: &str, top: &str) -> MappedDesign {
        let sf = parse(src).unwrap();
        let nl = lower_to_netlist(&sf, top).unwrap();
        MappedDesign::map(nl, &nangate45()).unwrap()
    }

    fn cons(period: f64) -> Constraints {
        Constraints { clock_period: period, ..Constraints::default() }
    }

    #[test]
    fn comb_chain_arrival_accumulates() {
        let d = map(
            "module c(input a, output y);
                wire w1, w2;
                assign w1 = ~a;
                assign w2 = ~w1;
                assign y = ~w2;
            endmodule",
            "c",
        );
        let lib = nangate45();
        let r = analyze(&d, &lib, &cons(10.0));
        assert!(r.met());
        // Three inverters plus buffers: arrival must exceed one INV delay.
        let ep = r.endpoints.iter().find(|e| e.endpoint == "y").unwrap();
        assert!(ep.arrival > 0.02, "arrival {}", ep.arrival);
    }

    #[test]
    fn tight_clock_fails_timing() {
        let d = map(
            "module m(input [7:0] a, b, input clk, output reg [7:0] q);
                always @(posedge clk) q <= a * b;
            endmodule",
            "m",
        );
        let lib = nangate45();
        let fast = analyze(&d, &lib, &cons(0.1));
        let slow = analyze(&d, &lib, &cons(50.0));
        assert!(fast.cps < 0.0, "multiplier cannot close 0.1ns: cps={}", fast.cps);
        assert!(slow.met());
        assert_eq!(fast.wns, fast.cps.min(0.0));
    }

    #[test]
    fn slack_identity_holds_everywhere() {
        let d = map(
            "module m(input [3:0] a, b, input clk, output reg [3:0] q);
                always @(posedge clk) q <= a + b;
            endmodule",
            "m",
        );
        let lib = nangate45();
        let r = analyze(&d, &lib, &cons(1.0));
        for ep in &r.endpoints {
            assert!((ep.slack - (ep.required - ep.arrival)).abs() < 1e-9);
        }
        let min_slack = r.endpoints.iter().map(|e| e.slack).fold(f64::INFINITY, f64::min);
        assert!((r.cps - min_slack).abs() < 1e-9);
        let tns: f64 = r.endpoints.iter().map(|e| e.slack.min(0.0)).sum();
        assert!((r.tns - tns).abs() < 1e-9);
        assert!(r.wns <= 0.0);
    }

    #[test]
    fn register_to_register_path_includes_clk_q_and_setup() {
        let d = map(
            "module p(input clk, d, output reg q2);
                reg q1;
                always @(posedge clk) begin q1 <= d; q2 <= ~q1; end
            endmodule",
            "p",
        );
        let lib = nangate45();
        let r = analyze(&d, &lib, &cons(1.0));
        // Endpoint q2/D: arrival >= clk_q(DFF) + inv delay.
        let ep = r
            .endpoints
            .iter()
            .find(|e| e.endpoint.contains("q2") && e.endpoint.ends_with("/D"))
            .unwrap();
        assert!(ep.arrival > 0.09, "arrival {} must include clk->q", ep.arrival);
        assert!(ep.required < 1.0, "required {} must include setup", ep.required);
    }

    #[test]
    fn critical_path_trace_is_monotone() {
        let d = map(
            "module m(input [7:0] a, b, input clk, output reg [7:0] q);
                always @(posedge clk) q <= (a + b) * (a - b);
            endmodule",
            "m",
        );
        let lib = nangate45();
        let r = analyze(&d, &lib, &cons(1.0));
        assert!(r.critical_path.len() >= 2);
        for w in r.critical_path.windows(2) {
            assert!(w[0].arrival <= w[1].arrival + 1e-9, "path arrivals must not decrease");
        }
    }

    #[test]
    fn wireload_model_slows_design() {
        let d = map(
            "module f(input a, input clk, output reg [15:0] q);
                always @(posedge clk) q <= {16{a}};
            endmodule",
            "f",
        );
        let lib = nangate45();
        let heavy =
            analyze(&d, &lib, &Constraints { wire_load: Some("5K_heavy_1k".into()), ..cons(1.0) });
        let ideal = analyze(&d, &lib, &Constraints { wire_load: None, ..cons(1.0) });
        assert!(heavy.cps < ideal.cps, "heavy {} vs ideal {}", heavy.cps, ideal.cps);
    }

    #[test]
    fn qor_report_fields_consistent() {
        let d = map(
            "module m(input [3:0] a, input clk, output reg [3:0] q);
                always @(posedge clk) q <= a + 4'd1;
            endmodule",
            "m",
        );
        let lib = nangate45();
        let q = qor(&d, &lib, &cons(2.0));
        assert_eq!(q.registers, 4);
        assert!(q.area > 4.0 * 4.5, "at least four DFFs of area");
        assert!(q.cells > 4);
        let text = q.to_string();
        assert!(text.contains("WNS"));
        assert!(text.contains("um^2"));
    }

    #[test]
    fn module_slacks_attribute_paths() {
        let d = map(
            "module slow(input [7:0] x, output [7:0] y); assign y = x * x; endmodule
             module top(input [7:0] a, input clk, output reg [7:0] q);
                wire [7:0] w;
                slow u_slow (.x(a), .y(w));
                always @(posedge clk) q <= w;
             endmodule",
            "top",
        );
        let lib = nangate45();
        let r = analyze(&d, &lib, &cons(0.3));
        let slacks = r.module_slacks();
        assert!(slacks.keys().any(|k| k == "top"), "keys: {:?}", slacks.keys());
    }

    #[test]
    fn hold_ignores_false_from_on_the_clock_port() {
        // `a` is named the clock port and a `-from` launch point at once.
        let d = map(
            "module m(input a, b, clk, output reg q);
                always @(posedge clk) q <= a & b;
            endmodule",
            "m",
        );
        let lib = nangate45();
        let c = Constraints {
            clock_port: Some("a".into()),
            input_delay: 0.3,
            exceptions: vec![TimingException::FalseFrom("a".into())],
            ..cons(1.0)
        };
        let net = |port: &str| d.netlist.inputs.iter().find(|(n, _)| n == port).unwrap().1;
        let (a, b) = (net("a") as usize, net("b") as usize);
        // Setup: `-from` excludes the port, clock or not.
        let setup = slack_map(&d, &lib, &c).arrival;
        assert_eq!(setup[a], f64::NEG_INFINITY);
        assert_eq!(
            setup[b].to_bits(),
            (0.3 + c.input_drive_resistance * d.net_loads(&lib, c.wire_load.as_deref())[b])
                .to_bits()
        );
        // Hold: the clock port still launches at 0, other inputs at their
        // input delay.
        let hold = min_arrivals(&d, &lib, &c);
        assert_eq!(hold[a], 0.0);
        assert_eq!(hold[b], 0.3);
    }
}
