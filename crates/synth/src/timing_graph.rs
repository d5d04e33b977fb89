//! Incremental static timing analysis.
//!
//! [`TimingGraph`] is a persistent companion to a [`MappedDesign`]: it
//! caches the graph structure full STA rebuilds from scratch on every call
//! (driver map, sink lists, per-net loads, levelized topological order) and
//! the propagated arrival times. Localized edits made through
//! [`TimingView`] — a cell resize, a gate kill — seed a level-ordered dirty
//! worklist; re-propagation walks only the affected fanout cone and stops
//! early when an arrival converges to its previous bit pattern. Structural
//! edits that grow the netlist (buffer insertion, retiming) invalidate the
//! graph wholesale and the next query rebuilds it via the same code path
//! the full analyzer uses.
//!
//! Determinism: on an acyclic graph, forward max-propagation and backward
//! min-propagation produce bitwise-identical values over *any* valid
//! topological order, because every gate is evaluated exactly once from the
//! final values of its inputs and `f64::max`/`min` over a fixed set is
//! order-free. The worklist processes gates in ascending (level, index)
//! order — a valid order — and net loads are re-summed over sink lists kept
//! in the same (gate, pin) order the full rebuild uses, so incremental
//! results match `sta::analyze` bit for bit. Designs with combinational
//! cycle remnants fall back to a full rebuild on any edit, since there the
//! single-pass order itself defines the (pessimistic) result.
//!
//! `CHATLS_STA_CHECK=1` (or [`set_sta_check`]) arms an oracle mode: every
//! query recomputes from scratch and asserts bitwise equality of
//! WNS/CPS/TNS and every endpoint slack.

use crate::design::MappedDesign;
use crate::sta::{self, Constraints, EndpointSlack, SlackMap, TimingReport};
use chatls_liberty::{Library, WireLoadModel};
use chatls_verilog::netlist::GateKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static STA_CHECK_FORCE: AtomicBool = AtomicBool::new(false);

/// The process-wide `synth.sta.*` counters in the obs registry, resolved
/// once. These are the single source of truth — [`sta_telemetry`] reads
/// them and the telemetry sinks render them, so there is exactly one copy
/// of each count.
fn sta_counters(
) -> (&'static chatls_obs::Counter, &'static chatls_obs::Counter, &'static chatls_obs::Counter) {
    type Handles =
        (&'static chatls_obs::Counter, &'static chatls_obs::Counter, &'static chatls_obs::Counter);
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    *HANDLES.get_or_init(|| {
        (
            chatls_obs::counter("synth.sta.full_builds"),
            chatls_obs::counter("synth.sta.incremental_updates"),
            chatls_obs::counter("synth.sta.clean_hits"),
        )
    })
}

/// Process-wide incremental-STA counters (summed across threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaTelemetry {
    /// Times a query rebuilt the graph from scratch.
    pub full_builds: u64,
    /// Times a query flushed a dirty worklist instead of rebuilding.
    pub incremental_updates: u64,
    /// Times a query found the graph clean and reused cached results.
    pub clean_hits: u64,
}

/// Snapshot of the process-wide incremental-STA counters (now backed by the
/// `synth.sta.*` counters in the obs registry).
pub fn sta_telemetry() -> StaTelemetry {
    let (full, incr, clean) = sta_counters();
    StaTelemetry {
        full_builds: full.get(),
        incremental_updates: incr.get(),
        clean_hits: clean.get(),
    }
}

/// Resets the incremental-STA counters (benchmarks and tests).
pub fn reset_sta_telemetry() {
    let (full, incr, clean) = sta_counters();
    full.reset();
    incr.reset();
    clean.reset();
}

fn sta_check_env() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("CHATLS_STA_CHECK").map(|v| v == "1" || v == "true").unwrap_or(false)
    })
}

/// True when oracle cross-checking is armed (`CHATLS_STA_CHECK=1` or
/// [`set_sta_check`]).
pub fn sta_check_enabled() -> bool {
    STA_CHECK_FORCE.load(Ordering::Relaxed) || sta_check_env()
}

/// Programmatically arms (or disarms) oracle cross-checking, independent of
/// the `CHATLS_STA_CHECK` environment variable. Tests use this to avoid
/// process-global env races.
pub fn set_sta_check(on: bool) {
    STA_CHECK_FORCE.store(on, Ordering::Relaxed);
}

/// How a net sources its arrival time when it has no live driver gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PiKind {
    /// Not a primary input: unreached (`-inf`) without a driver.
    NotPi,
    /// Normal primary input: `input_delay + drive_resistance × load`.
    Normal,
    /// The clock port: arrives at 0.
    Clock,
    /// `set_false_path -from` launch point: excluded (`-inf`).
    FalseFrom,
}

/// Persistent incremental STA state for one [`MappedDesign`].
///
/// All queries go through [`TimingView`]; the graph itself only stores
/// caches and never outlives a geometry change unvalidated: queries compare
/// gate/net counts and the constraint set against the cached build and
/// rebuild on any mismatch, so a stale graph can produce wrong answers only
/// if a design is mutated behind the view's back *without* changing
/// geometry — which the mutation hooks exist to prevent.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    // Cached structure.
    driver: Vec<Option<usize>>,
    sinks: Vec<Vec<(usize, usize)>>,
    order: Vec<usize>,
    level: Vec<u32>,
    is_po: Vec<bool>,
    pi_kind: Vec<PiKind>,
    cycles: usize,
    wlm: Option<WireLoadModel>,
    // Cached values.
    arrival: Vec<f64>,
    loads: Vec<f64>,
    /// Arrival a net would have with no combinational driver (primary-input
    /// or register-output launch value; `-inf` otherwise).
    source: Vec<f64>,
    // Lazily derived results.
    required: Option<Vec<f64>>,
    min_arrival: Option<Vec<f64>>,
    report: Option<TimingReport>,
    hold: Option<Vec<EndpointSlack>>,
    // Validity bookkeeping.
    cached_constraints: Option<Constraints>,
    gates_len: usize,
    nets_len: usize,
    full_dirty: bool,
    heap: BinaryHeap<Reverse<(u32, usize)>>,
    in_dirty: Vec<bool>,
    /// Nets whose load must be re-summed before the next propagation.
    /// Deferred and deduplicated so a sizing pass that touches many sinks
    /// of one net re-sums it once, not once per edit.
    load_dirty: Vec<usize>,
    load_dirty_flag: Vec<bool>,
    /// Gate → index into `library.cells` (`u32::MAX` = unmapped/unknown).
    /// `Library::cell` hashes the name on every call (an Fx-hashed index,
    /// `crates/liberty/src/model.rs`); a session's library never changes, so
    /// the persistent graph resolves each gate once per rebuild and patches
    /// single entries on resize.
    cell_idx: Vec<u32>,
    /// Per-library-cell input pin capacitances, in pin order.
    cell_input_caps: Vec<Vec<f64>>,
    /// Per-library-cell position of the output pin.
    cell_out_pin: Vec<Option<usize>>,
    /// Cell name → first library index (the `Library::cell` semantics).
    cell_by_name: std::collections::HashMap<String, u32>,
    /// Per-library-cell next drive variant up/down (`u32::MAX` = none),
    /// precomputed so sizing passes skip the scan-and-sort per candidate.
    cell_next_up: Vec<u32>,
    cell_next_down: Vec<u32>,
    /// Per-graph copy of the telemetry counters (the process-wide atomics
    /// aggregate across threads; this one is race-free for a single graph).
    local: StaTelemetry,
}

impl Default for TimingGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingGraph {
    /// An empty graph; the first query performs a full build.
    pub fn new() -> Self {
        Self {
            driver: Vec::new(),
            sinks: Vec::new(),
            order: Vec::new(),
            level: Vec::new(),
            is_po: Vec::new(),
            pi_kind: Vec::new(),
            cycles: 0,
            wlm: None,
            arrival: Vec::new(),
            loads: Vec::new(),
            source: Vec::new(),
            required: None,
            min_arrival: None,
            report: None,
            hold: None,
            cached_constraints: None,
            gates_len: 0,
            nets_len: 0,
            full_dirty: true,
            heap: BinaryHeap::new(),
            in_dirty: Vec::new(),
            load_dirty: Vec::new(),
            load_dirty_flag: Vec::new(),
            cell_idx: Vec::new(),
            cell_input_caps: Vec::new(),
            cell_out_pin: Vec::new(),
            cell_by_name: std::collections::HashMap::new(),
            cell_next_up: Vec::new(),
            cell_next_down: Vec::new(),
            local: StaTelemetry::default(),
        }
    }

    /// This graph's own build/update/hit counters (independent of the
    /// process-wide [`sta_telemetry`] aggregates).
    pub fn stats(&self) -> StaTelemetry {
        self.local
    }

    /// Marks everything stale; the next query rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.full_dirty = true;
        self.derived_stale();
    }

    /// Live combinational gates left on feedback loops at the last build.
    pub fn combinational_cycles(&self) -> usize {
        self.cycles
    }

    fn derived_stale(&mut self) {
        self.required = None;
        self.min_arrival = None;
        self.report = None;
        self.hold = None;
    }

    /// True when the graph's bookkeeping no longer matches the design shape
    /// (a mutation bypassed the hooks); forces a rebuild.
    fn geometry_mismatch(&self, design: &MappedDesign) -> bool {
        self.gates_len != design.netlist.gates.len() || self.nets_len != design.netlist.nets.len()
    }

    fn ensure(&mut self, design: &MappedDesign, library: &Library, constraints: &Constraints) {
        let pending = !self.heap.is_empty() || !self.load_dirty.is_empty();
        let stale = self.full_dirty
            || self.geometry_mismatch(design)
            || self.cached_constraints.as_ref() != Some(constraints)
            || (self.cycles > 0 && pending);
        let (full_builds, incr_updates, clean_hits) = sta_counters();
        if stale {
            self.rebuild(design, library, constraints);
            full_builds.inc();
            self.local.full_builds += 1;
        } else if pending {
            self.flush(design, library);
            if self.full_dirty {
                // Worklist guard tripped (unexpected structure): fall back.
                self.rebuild(design, library, constraints);
                full_builds.inc();
                self.local.full_builds += 1;
            } else {
                incr_updates.inc();
                self.local.incremental_updates += 1;
            }
        } else {
            clean_hits.inc();
            self.local.clean_hits += 1;
        }
    }

    /// Full rebuild through the oracle path (`sta::compute_arrivals`).
    fn rebuild(&mut self, design: &MappedDesign, library: &Library, constraints: &Constraints) {
        let a = sta::compute_arrivals(design, library, constraints);
        self.arrival = a.arrival;
        self.loads = a.loads;
        self.order = a.order;
        self.driver = a.driver;
        self.cycles = a.cycles;
        // Refill the per-net sink lists in place: the inner vectors are a
        // slab keyed to this graph's lifetime, so the rebuilds a session
        // triggers (one per fix_timing_violations round, for instance)
        // reuse their allocations instead of paying one Vec per net.
        let nets_len = design.netlist.nets.len();
        for s in &mut self.sinks {
            s.clear();
        }
        self.sinks.resize_with(nets_len, Vec::new);
        for (i, g) in design.netlist.gates.iter().enumerate() {
            if design.is_dead(i) {
                continue;
            }
            for (pin, &inp) in g.inputs.iter().enumerate() {
                self.sinks[inp as usize].push((i, pin));
            }
        }
        self.is_po.clear();
        self.is_po.resize(nets_len, false);
        for (_, id) in &design.netlist.outputs {
            self.is_po[*id as usize] = true;
        }
        self.wlm = constraints.wire_load.as_deref().and_then(|w| library.wire_load(w)).cloned();
        // Levels: longest combinational depth, from the fresh topo order.
        self.level.clear();
        self.level.resize(design.netlist.gates.len(), 0);
        for &gi in &self.order {
            let gate = &design.netlist.gates[gi];
            let mut lvl = 0u32;
            for &inp in &gate.inputs {
                if let Some(d) = self.driver[inp as usize] {
                    if !design.is_dead(d) && !design.netlist.gates[d].kind.is_sequential() {
                        lvl = lvl.max(self.level[d] + 1);
                    }
                }
            }
            self.level[gi] = lvl;
        }
        // Source arrivals, replicating compute_arrivals' initialization.
        let nets = design.netlist.nets.len();
        self.pi_kind.clear();
        self.pi_kind.resize(nets, PiKind::NotPi);
        self.source.clear();
        self.source.resize(nets, f64::NEG_INFINITY);
        let clock_name = constraints.clock_port.clone().or_else(|| design.netlist.clock.clone());
        let clock_prefix = clock_name.as_deref().map(|c| format!("{c}["));
        let false_prefixes: Vec<(&str, String)> = constraints
            .exceptions
            .iter()
            .filter_map(|e| match e {
                sta::TimingException::FalseFrom(p) => Some((p.as_str(), format!("{p}["))),
                _ => None,
            })
            .collect();
        for (name, id) in &design.netlist.inputs {
            let is_clock = clock_name
                .as_deref()
                .zip(clock_prefix.as_deref())
                .map(|(c, cp)| name == c || name.starts_with(cp))
                .unwrap_or(false);
            let false_from = false_prefixes.iter().any(|(p, pp)| name == p || name.starts_with(pp));
            self.pi_kind[*id as usize] = if false_from {
                PiKind::FalseFrom
            } else if is_clock {
                PiKind::Clock
            } else {
                PiKind::Normal
            };
            self.source[*id as usize] = self.pi_source_value(constraints, *id as usize);
        }
        for (gi, gate) in design.netlist.gates.iter().enumerate() {
            if design.is_dead(gi) || !gate.kind.is_sequential() {
                continue;
            }
            self.source[gate.output as usize] =
                seq_launch(design, library, gi, self.loads[gate.output as usize]);
        }
        self.gates_len = design.netlist.gates.len();
        self.nets_len = nets;
        self.cached_constraints = Some(constraints.clone());
        self.heap.clear();
        self.in_dirty = vec![false; self.gates_len];
        self.load_dirty.clear();
        self.load_dirty_flag = vec![false; nets];
        // Cell-resolution caches: per-library data once, per-gate indices
        // through a name map so the rebuild itself stays linear.
        if self.cell_input_caps.len() != library.cells.len() {
            self.cell_input_caps = library
                .cells
                .iter()
                .map(|c| {
                    c.pins
                        .iter()
                        .filter(|p| p.direction == chatls_liberty::PinDir::Input)
                        .map(|p| p.capacitance)
                        .collect()
                })
                .collect();
            self.cell_out_pin = library
                .cells
                .iter()
                .map(|c| c.pins.iter().position(|p| p.direction == chatls_liberty::PinDir::Output))
                .collect();
            self.cell_by_name = std::collections::HashMap::new();
            for (i, cell) in library.cells.iter().enumerate() {
                // First occurrence wins, matching `Library::cell`'s find-first.
                self.cell_by_name.entry(cell.name.clone()).or_insert(i as u32);
            }
            let resolve_next = |up: bool| -> Vec<u32> {
                library
                    .cells
                    .iter()
                    .map(|c| {
                        crate::passes::next_drive(library, &c.name, up)
                            .and_then(|n| self.cell_by_name.get(&n).copied())
                            .unwrap_or(u32::MAX)
                    })
                    .collect()
            };
            self.cell_next_up = resolve_next(true);
            self.cell_next_down = resolve_next(false);
        }
        self.cell_idx = design
            .cells
            .iter()
            .map(|n| self.cell_by_name.get(n.as_str()).copied().unwrap_or(u32::MAX))
            .collect();
        self.full_dirty = false;
        self.derived_stale();
    }

    /// Arc delay of input `pin` of the cell at library index `ci` under
    /// `load` — same arithmetic as [`sta::arc_delay_for`], resolved through
    /// the per-graph caches instead of name scans.
    fn arc_delay_cached(&self, library: &Library, ci: u32, pin: usize, load: f64) -> f64 {
        if ci == u32::MAX {
            return 0.0;
        }
        let Some(oi) = self.cell_out_pin[ci as usize] else {
            return 0.0;
        };
        let o = &library.cells[ci as usize].pins[oi];
        o.timing.get(pin).or_else(|| o.timing.first()).map(|arc| arc.delay(load)).unwrap_or(0.0)
    }

    fn pi_source_value(&self, constraints: &Constraints, net: usize) -> f64 {
        match self.pi_kind[net] {
            PiKind::NotPi | PiKind::FalseFrom => f64::NEG_INFINITY,
            PiKind::Clock => 0.0,
            PiKind::Normal => {
                constraints.input_delay + constraints.input_drive_resistance * self.loads[net]
            }
        }
    }

    fn push_dirty(&mut self, gi: usize) {
        if !self.in_dirty[gi] {
            self.in_dirty[gi] = true;
            self.heap.push(Reverse((self.level[gi], gi)));
        }
    }

    /// Marks the live combinational consumers of `net` dirty.
    fn dirty_sinks_of(&mut self, design: &MappedDesign, net: usize) {
        let entries = std::mem::take(&mut self.sinks[net]);
        let mut last = usize::MAX;
        for &(gi, _) in &entries {
            if gi == last {
                continue;
            }
            last = gi;
            if !design.is_dead(gi) && !design.netlist.gates[gi].kind.is_sequential() {
                self.push_dirty(gi);
            }
        }
        self.sinks[net] = entries;
    }

    /// Re-sums the load of `net` over its sink list, replicating the
    /// per-net body of [`MappedDesign::net_loads`] term for term.
    fn recompute_load(&mut self, design: &MappedDesign, library: &Library, net: usize) {
        let mut cap = 0.0;
        let mut fanout = 0u32;
        for &(gi, pin) in &self.sinks[net] {
            fanout += 1;
            let ci = self.cell_idx[gi];
            if ci == u32::MAX {
                // Unmapped or unknown cell contributes no pin cap, matching
                // the `net_loads` body.
                continue;
            }
            let caps = &self.cell_input_caps[ci as usize];
            if let Some(c) = caps.get(pin).or_else(|| caps.first()) {
                cap += c;
            }
        }
        if self.is_po[net] {
            fanout += 1;
            cap += 2.0;
        }
        if let Some(w) = &self.wlm {
            if fanout > 0 {
                cap += w.wire_cap(fanout);
            }
        }
        if cap.to_bits() != self.loads[net].to_bits() {
            self.loads[net] = cap;
            self.on_load_changed(design, library, net);
        }
    }

    /// A net's load changed: refresh its source arrival (loads feed the
    /// primary-input drive formula and register clock-to-Q delay) and dirty
    /// whoever computes from it.
    fn on_load_changed(&mut self, design: &MappedDesign, library: &Library, net: usize) {
        let live_driver = self.driver[net].filter(|&gi| !design.is_dead(gi));
        match live_driver {
            Some(gi) if design.netlist.gates[gi].kind.is_sequential() => {
                let src = seq_launch(design, library, gi, self.loads[net]);
                self.source[net] = src;
                if src.to_bits() != self.arrival[net].to_bits() {
                    self.arrival[net] = src;
                    self.dirty_sinks_of(design, net);
                }
            }
            Some(gi) => {
                // Combinational driver: its arc delays see the new load.
                let constraints = self.cached_constraints.clone();
                if let Some(cc) = &constraints {
                    self.source[net] = self.pi_source_value(cc, net);
                }
                self.push_dirty(gi);
            }
            None => {
                let constraints = self.cached_constraints.clone();
                if let Some(cc) = &constraints {
                    let src = self.pi_source_value(cc, net);
                    self.source[net] = src;
                    if src.to_bits() != self.arrival[net].to_bits() {
                        self.arrival[net] = src;
                        self.dirty_sinks_of(design, net);
                    }
                }
            }
        }
    }

    /// True when so much of the design is already dirty that a flat rebuild
    /// beats worklist propagation. Mass edits (a sizing pass touching most
    /// of the critical cone) would otherwise re-sum shared nets once per
    /// edited sink and then walk nearly the whole graph through the heap;
    /// past this point the edit hooks stop doing incremental bookkeeping
    /// and the next query rebuilds once. The rebuild runs the same code
    /// path as the full analyzer, so results are unaffected.
    /// True when so much of the graph is already on the worklist that a
    /// flat rebuild beats heap-ordered propagation; the edit hooks then
    /// stop doing incremental bookkeeping and the next query rebuilds once
    /// through the same code path the full analyzer uses, so results are
    /// unaffected.
    fn mass_dirty(&self, design: &MappedDesign) -> bool {
        self.heap.len() > (design.netlist.gates.len() / 2).max(1024)
    }

    /// O(1) next-drive lookup through the per-library tables, or `None`
    /// when the caches cannot be trusted (graph stale or different
    /// library); the inner option is the [`crate::passes::next_drive`]
    /// result.
    pub(crate) fn next_drive_cached(
        &self,
        design: &MappedDesign,
        library: &Library,
        gi: usize,
        up: bool,
    ) -> Option<Option<String>> {
        if self.full_dirty
            || self.geometry_mismatch(design)
            || self.cell_next_up.len() != library.cells.len()
        {
            return None;
        }
        let ci = self.cell_idx[gi];
        if ci == u32::MAX {
            return Some(None);
        }
        let n = if up { self.cell_next_up[ci as usize] } else { self.cell_next_down[ci as usize] };
        Some((n != u32::MAX).then(|| library.cells[n as usize].name.clone()))
    }

    fn mark_load_dirty(&mut self, net: usize) {
        if !self.load_dirty_flag[net] {
            self.load_dirty_flag[net] = true;
            self.load_dirty.push(net);
        }
    }

    /// Hook: `design.cells[gi]` was just reassigned.
    pub(crate) fn note_resize(&mut self, design: &MappedDesign, library: &Library, gi: usize) {
        if self.full_dirty || self.geometry_mismatch(design) || self.mass_dirty(design) {
            self.invalidate();
            return;
        }
        self.derived_stale();
        self.cell_idx[gi] =
            self.cell_by_name.get(design.cells[gi].as_str()).copied().unwrap_or(u32::MAX);
        let gate = &design.netlist.gates[gi];
        let out = gate.output as usize;
        let seq = gate.kind.is_sequential();
        // New cell, new input pin caps: upstream nets see a new load
        // (re-summed lazily, once per net, at the next query).
        for i in 0..design.netlist.gates[gi].inputs.len() {
            self.mark_load_dirty(design.netlist.gates[gi].inputs[i] as usize);
        }
        if seq {
            // Refresh the launch value now; if the output load is itself
            // dirty, the flush re-fires this with the final load.
            let src = seq_launch(design, library, gi, self.loads[out]);
            self.source[out] = src;
            if src.to_bits() != self.arrival[out].to_bits() {
                self.arrival[out] = src;
                self.dirty_sinks_of(design, out);
            }
        } else {
            // New arcs: the gate's own delay changed.
            self.push_dirty(gi);
        }
    }

    /// Hook: gate `gi` was just tombstoned.
    pub(crate) fn note_kill(&mut self, design: &MappedDesign, _library: &Library, gi: usize) {
        if self.full_dirty || self.geometry_mismatch(design) || self.mass_dirty(design) {
            self.invalidate();
            return;
        }
        self.derived_stale();
        let inputs = design.netlist.gates[gi].inputs;
        for &inp in &inputs {
            self.sinks[inp as usize].retain(|&(g, _)| g != gi);
            self.mark_load_dirty(inp as usize);
        }
        let out = design.netlist.gates[gi].output as usize;
        if self.driver[out] == Some(gi) {
            self.driver[out] = None;
            let constraints = self.cached_constraints.clone();
            if let Some(cc) = &constraints {
                let src = self.pi_source_value(cc, out);
                self.source[out] = src;
                if src.to_bits() != self.arrival[out].to_bits() {
                    self.arrival[out] = src;
                    self.dirty_sinks_of(design, out);
                }
            }
        }
    }

    /// Drains the dirty worklist in ascending (level, gate) order —
    /// a valid topological order, since kills only remove edges and
    /// resizes keep the structure, so cached levels stay ranks.
    fn flush(&mut self, design: &MappedDesign, library: &Library) {
        // Phase 1: re-sum every load-dirty net exactly once. Loads are
        // independent of each other, so the order is immaterial; changed
        // loads seed the arrival worklist through `on_load_changed`.
        let nets = std::mem::take(&mut self.load_dirty);
        for &net in &nets {
            self.load_dirty_flag[net] = false;
        }
        for &net in &nets {
            self.recompute_load(design, library, net);
        }
        // Phase 2: propagate arrivals through the dirty cone.
        let budget = 4 * design.netlist.gates.len() + 16;
        let mut processed = 0usize;
        while let Some(Reverse((_, gi))) = self.heap.pop() {
            if !self.in_dirty[gi] {
                continue;
            }
            self.in_dirty[gi] = false;
            if design.is_dead(gi) {
                continue;
            }
            let gate = &design.netlist.gates[gi];
            if gate.kind.is_sequential() {
                continue;
            }
            processed += 1;
            if processed > budget {
                // A gate re-dirtied after evaluation means the level ranks
                // are not a valid order (unexpected structure): bail out.
                self.invalidate();
                return;
            }
            let out = gate.output as usize;
            if self.driver[out] != Some(gi) {
                continue;
            }
            let ci = self.cell_idx[gi];
            let out_load = self.loads[out];
            let mut worst = match gate.kind {
                GateKind::Const0 | GateKind::Const1 => 0.0,
                _ => f64::NEG_INFINITY,
            };
            for (pin, &inp) in gate.inputs.iter().enumerate() {
                let in_arr = self.arrival[inp as usize];
                let arc_delay = self.arc_delay_cached(library, ci, pin, out_load);
                if in_arr + arc_delay > worst {
                    worst = in_arr + arc_delay;
                }
            }
            let new = if worst > self.source[out] { worst } else { self.source[out] };
            if new.to_bits() != self.arrival[out].to_bits() {
                self.arrival[out] = new;
                self.dirty_sinks_of(design, out);
            }
        }
    }

    fn report_mut(
        &mut self,
        design: &MappedDesign,
        library: &Library,
        constraints: &Constraints,
    ) -> &TimingReport {
        self.ensure(design, library, constraints);
        if self.report.is_none() {
            let report = {
                let setup_of = |gi: usize| {
                    let ci = self.cell_idx[gi];
                    if ci == u32::MAX {
                        0.05
                    } else {
                        library.cells[ci as usize].ff.as_ref().map(|ff| ff.setup).unwrap_or(0.05)
                    }
                };
                sta::report_from_parts_with(
                    design,
                    library,
                    constraints,
                    &self.arrival,
                    &self.loads,
                    &self.driver,
                    self.cycles,
                    &setup_of,
                )
            };
            self.report = Some(report);
        }
        if sta_check_enabled() {
            let fresh = sta::analyze(design, library, constraints);
            check_reports(self.report.as_ref().unwrap(), &fresh);
        }
        self.report.as_ref().unwrap()
    }

    /// Backward min-required pass over the cached order — same arithmetic
    /// as [`sta::required_times`], resolved through the per-graph caches.
    fn required_cached(
        &self,
        design: &MappedDesign,
        library: &Library,
        constraints: &Constraints,
    ) -> Vec<f64> {
        let nets = design.netlist.nets.len();
        let mut required = vec![f64::INFINITY; nets];
        for (gi, gate) in design.netlist.gates.iter().enumerate() {
            if design.is_dead(gi) || !gate.kind.is_sequential() {
                continue;
            }
            let ci = self.cell_idx[gi];
            let setup = if ci == u32::MAX {
                0.05
            } else {
                library.cells[ci as usize].ff.as_ref().map(|ff| ff.setup).unwrap_or(0.05)
            };
            let d = gate.inputs[0] as usize;
            required[d] = required[d].min(constraints.clock_period - setup);
        }
        for (_, id) in &design.netlist.outputs {
            let r = constraints.clock_period - constraints.output_delay;
            required[*id as usize] = required[*id as usize].min(r);
        }
        for &gi in self.order.iter().rev() {
            if design.is_dead(gi) {
                continue;
            }
            let gate = &design.netlist.gates[gi];
            let ci = self.cell_idx[gi];
            let out_req = required[gate.output as usize];
            if !out_req.is_finite() {
                continue;
            }
            let load = self.loads[gate.output as usize];
            for (pin, &inp) in gate.inputs.iter().enumerate() {
                let r = out_req - self.arc_delay_cached(library, ci, pin, load);
                if r < required[inp as usize] {
                    required[inp as usize] = r;
                }
            }
        }
        required
    }

    fn slack_map_mut(
        &mut self,
        design: &MappedDesign,
        library: &Library,
        constraints: &Constraints,
    ) -> SlackMap {
        self.ensure(design, library, constraints);
        if self.required.is_none() {
            self.required = Some(self.required_cached(design, library, constraints));
        }
        let map =
            SlackMap { arrival: self.arrival.clone(), required: self.required.clone().unwrap() };
        if sta_check_enabled() {
            let fresh = sta::slack_map(design, library, constraints);
            check_vec(&map.arrival, &fresh.arrival, "slack_map arrival");
            check_vec(&map.required, &fresh.required, "slack_map required");
        }
        map
    }

    fn hold_mut(
        &mut self,
        design: &MappedDesign,
        library: &Library,
        constraints: &Constraints,
    ) -> &[EndpointSlack] {
        self.ensure(design, library, constraints);
        if self.min_arrival.is_none() {
            self.min_arrival =
                Some(sta::min_arrivals_in(design, library, constraints, &self.order));
        }
        if self.hold.is_none() {
            self.hold =
                Some(sta::hold_from_min(design, library, self.min_arrival.as_ref().unwrap()));
        }
        if sta_check_enabled() {
            let fresh = sta::hold_slacks(design, library, constraints);
            let cached = self.hold.as_ref().unwrap();
            assert_eq!(cached.len(), fresh.len(), "CHATLS_STA_CHECK: hold endpoint count");
            for (c, f) in cached.iter().zip(&fresh) {
                assert_eq!(c.endpoint, f.endpoint, "CHATLS_STA_CHECK: hold endpoint order");
                assert_eq!(
                    c.slack.to_bits(),
                    f.slack.to_bits(),
                    "CHATLS_STA_CHECK: hold slack diverged at {}",
                    c.endpoint
                );
            }
        }
        self.hold.as_ref().unwrap()
    }
}

/// Launch arrival of a live sequential gate's output under `load`.
fn seq_launch(design: &MappedDesign, library: &Library, gi: usize, load: f64) -> f64 {
    library
        .cell(&design.cells[gi])
        .and_then(|c| c.ff.as_ref())
        .map(|ff| ff.clk_to_q.delay(load))
        .unwrap_or(0.1)
}

fn check_vec(cached: &[f64], fresh: &[f64], what: &str) {
    assert_eq!(cached.len(), fresh.len(), "CHATLS_STA_CHECK: {what} length");
    for (i, (c, f)) in cached.iter().zip(fresh).enumerate() {
        assert_eq!(
            c.to_bits(),
            f.to_bits(),
            "CHATLS_STA_CHECK: {what} diverged at net {i}: incremental {c} vs fresh {f}"
        );
    }
}

fn check_reports(cached: &TimingReport, fresh: &TimingReport) {
    assert_eq!(cached.wns.to_bits(), fresh.wns.to_bits(), "CHATLS_STA_CHECK: WNS diverged");
    assert_eq!(cached.cps.to_bits(), fresh.cps.to_bits(), "CHATLS_STA_CHECK: CPS diverged");
    assert_eq!(cached.tns.to_bits(), fresh.tns.to_bits(), "CHATLS_STA_CHECK: TNS diverged");
    assert_eq!(
        cached.endpoints.len(),
        fresh.endpoints.len(),
        "CHATLS_STA_CHECK: endpoint count diverged"
    );
    for (c, f) in cached.endpoints.iter().zip(&fresh.endpoints) {
        assert_eq!(c.endpoint, f.endpoint, "CHATLS_STA_CHECK: endpoint order diverged");
        assert_eq!(
            c.slack.to_bits(),
            f.slack.to_bits(),
            "CHATLS_STA_CHECK: endpoint slack diverged at {}",
            c.endpoint
        );
        assert_eq!(
            c.arrival.to_bits(),
            f.arrival.to_bits(),
            "CHATLS_STA_CHECK: endpoint arrival diverged at {}",
            c.endpoint
        );
    }
    assert_eq!(cached, fresh, "CHATLS_STA_CHECK: timing reports diverged");
}

/// A mutable lens over a design plus its timing graph: reads serve from the
/// incremental cache, writes go through hooks that keep the cache honest.
///
/// The timing-driven passes take a `TimingView` instead of a bare
/// `&mut MappedDesign` so that every edit is visible to the graph.
pub struct TimingView<'a> {
    design: &'a mut MappedDesign,
    graph: &'a mut TimingGraph,
    library: &'a Library,
    constraints: &'a Constraints,
    cancel: chatls_exec::CancelToken,
}

impl<'a> TimingView<'a> {
    /// Lenses `design` and `graph` together under `library`/`constraints`.
    pub fn new(
        design: &'a mut MappedDesign,
        graph: &'a mut TimingGraph,
        library: &'a Library,
        constraints: &'a Constraints,
    ) -> Self {
        Self { design, graph, library, constraints, cancel: chatls_exec::CancelToken::never() }
    }

    /// Attaches a cooperative cancel token; the iterative optimization
    /// passes poll [`Self::is_cancelled`] between rounds and stop early
    /// once it fires.
    pub fn with_cancel(mut self, token: chatls_exec::CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// True once the attached cancel token has fired (deadline exceeded
    /// or shutdown). Always false for the default never-token.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The design in its current state.
    pub fn design(&self) -> &MappedDesign {
        self.design
    }

    /// The target library.
    pub fn library(&self) -> &'a Library {
        self.library
    }

    /// The active constraints.
    pub fn constraints(&self) -> &'a Constraints {
        self.constraints
    }

    /// Full timing report, served incrementally.
    pub fn report(&mut self) -> &TimingReport {
        self.graph.report_mut(self.design, self.library, self.constraints)
    }

    /// QoR summary sharing the cached timing build with [`Self::report`]
    /// (the timing and area halves see one graph construction).
    pub fn qor(&mut self) -> crate::sta::QorReport {
        let report = self.graph.report_mut(self.design, self.library, self.constraints);
        sta::qor_from_timing(self.design, self.library, report)
    }

    /// Per-net arrival/required snapshot (same shape as [`sta::slack_map`]).
    pub fn slack_map(&mut self) -> SlackMap {
        self.graph.slack_map_mut(self.design, self.library, self.constraints)
    }

    /// Hold endpoint slacks, worst first (same as [`sta::hold_slacks`]).
    pub fn hold_slacks(&mut self) -> &[EndpointSlack] {
        self.graph.hold_mut(self.design, self.library, self.constraints)
    }

    /// Next drive strength up/down for gate `gi`, equivalent to
    /// [`crate::passes::next_drive`] on its current cell. Served O(1) from
    /// the graph's per-library tables when they are current; falls back to
    /// the library scan otherwise. Never flushes pending edits.
    pub fn next_drive(&self, gi: usize, up: bool) -> Option<String> {
        match self.graph.next_drive_cached(self.design, self.library, gi, up) {
            Some(cached) => cached,
            None => crate::passes::next_drive(self.library, &self.design.cells[gi], up),
        }
    }

    /// Reassigns gate `gi`'s library cell; dirties its input-net loads and
    /// its fanout cone.
    pub fn resize_cell(&mut self, gi: usize, cell: String) {
        self.design.cells[gi] = cell;
        self.graph.note_resize(self.design, self.library, gi);
    }

    /// Tombstones gate `gi`; dirties its former input-net loads and the
    /// cone below its output.
    pub fn kill_gate(&mut self, gi: usize) {
        self.design.kill(gi);
        self.graph.note_kill(self.design, self.library, gi);
    }

    /// Repoints input `pin` of gate `gi` to `net`. Structural: invalidates
    /// the graph (the next query rebuilds).
    pub fn rewire_input(&mut self, gi: usize, pin: usize, net: u32) {
        self.design.netlist.gates[gi].inputs[pin] = net;
        self.graph.invalidate();
    }

    /// Repoints gate `gi`'s output to `net`. Structural: invalidates.
    pub fn rewire_output(&mut self, gi: usize, net: u32) {
        self.design.netlist.gates[gi].output = net;
        self.graph.invalidate();
    }

    /// Appends a gate (geometry change: invalidates); returns its index.
    pub fn push_gate(&mut self, gate: chatls_verilog::netlist::Gate, cell: String) -> usize {
        self.graph.invalidate();
        self.design.push_gate(gate, cell)
    }

    /// Adds a net (geometry change: invalidates); returns its id.
    pub fn add_net(&mut self, name: String) -> u32 {
        self.graph.invalidate();
        self.design.netlist.add_net(name)
    }

    /// Arbitrary design mutation; conservatively invalidates the graph.
    pub fn with_design_mut<R>(&mut self, f: impl FnOnce(&mut MappedDesign) -> R) -> R {
        self.graph.invalidate();
        f(self.design)
    }

    /// Clones the (design, graph) pair for later [`TimingView::restore`].
    pub fn snapshot(&self) -> (MappedDesign, TimingGraph) {
        (self.design.clone(), self.graph.clone())
    }

    /// Restores a snapshot taken by [`TimingView::snapshot`].
    pub fn restore(&mut self, snap: (MappedDesign, TimingGraph)) {
        *self.design = snap.0;
        *self.graph = snap.1;
    }
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

    const PIPE: &str = "module pipe(input clk, input [15:0] a, b, output reg [15:0] q);
        always @(posedge clk) q <= (a + b) + (a ^ b) + (a & b);
    endmodule";

    #[test]
    fn clean_graph_matches_analyze_bitwise() {
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let c = cons(0.6);
        let mut g = TimingGraph::new();
        let mut view = TimingView::new(&mut d, &mut g, &lib, &c);
        let incremental = view.report().clone();
        let fresh = sta::analyze(view.design(), &lib, &c);
        check_reports(&incremental, &fresh);
    }

    #[test]
    fn resize_updates_incrementally_and_matches() {
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let c = cons(0.6);
        let mut g = TimingGraph::new();
        {
            let mut view = TimingView::new(&mut d, &mut g, &lib, &c);
            view.report();
            // Upsize a handful of gates through the hook.
            let candidates: Vec<usize> = (0..view.design().netlist.gates.len())
                .filter(|&gi| view.design().cells[gi].starts_with("XOR2"))
                .take(4)
                .collect();
            for gi in candidates {
                let next = crate::passes::next_drive(&lib, &view.design().cells[gi], true).unwrap();
                view.resize_cell(gi, next);
            }
            let incremental = view.report().clone();
            let fresh = sta::analyze(view.design(), &lib, &c);
            check_reports(&incremental, &fresh);
        }
        let t = g.stats();
        assert_eq!(t.full_builds, 1, "resizes must not force a rebuild");
        assert_eq!(t.incremental_updates, 1, "resizes must flush the worklist once");
    }

    #[test]
    fn kill_updates_incrementally_and_matches() {
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let c = cons(0.6);
        let mut g = TimingGraph::new();
        let mut view = TimingView::new(&mut d, &mut g, &lib, &c);
        view.report();
        // Kill a gate with no sinks after sweep would — here, any XOR; the
        // design becomes logically wrong but timing must still match.
        let victim = view.design().cells.iter().position(|c| c.starts_with("XOR2")).unwrap();
        view.kill_gate(victim);
        let incremental = view.report().clone();
        let fresh = sta::analyze(view.design(), &lib, &c);
        check_reports(&incremental, &fresh);
    }

    #[test]
    fn constraint_change_forces_rebuild() {
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let mut g = TimingGraph::new();
        let c1 = cons(0.6);
        let r1 = {
            let mut view = TimingView::new(&mut d, &mut g, &lib, &c1);
            view.report().clone()
        };
        let c2 = cons(1.2);
        let r2 = {
            let mut view = TimingView::new(&mut d, &mut g, &lib, &c2);
            view.report().clone()
        };
        assert!(r2.cps > r1.cps);
        check_reports(&r2, &sta::analyze(&d, &lib, &c2));
    }

    #[test]
    fn clean_queries_hit_cache() {
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let c = cons(0.6);
        let mut g = TimingGraph::new();
        {
            let mut view = TimingView::new(&mut d, &mut g, &lib, &c);
            view.report();
            view.report();
            view.slack_map();
        }
        let t = g.stats();
        assert_eq!(t.full_builds, 1, "clean queries must not rebuild");
        assert!(t.clean_hits >= 2);
        // The process-wide aggregates move in the same direction.
        let global = sta_telemetry();
        assert!(global.full_builds >= 1 && global.clean_hits >= 2);
    }

    #[test]
    fn slack_and_hold_match_oracles_after_edits() {
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let c = cons(0.6);
        let mut g = TimingGraph::new();
        let mut view = TimingView::new(&mut d, &mut g, &lib, &c);
        view.report();
        for gi in 0..view.design().netlist.gates.len() {
            if view.design().cells[gi].starts_with("NAND2") {
                if let Some(next) = crate::passes::next_drive(&lib, &view.design().cells[gi], true)
                {
                    view.resize_cell(gi, next);
                }
            }
        }
        let sm = view.slack_map();
        let fresh = sta::slack_map(view.design(), &lib, &c);
        check_vec(&sm.arrival, &fresh.arrival, "arrival");
        check_vec(&sm.required, &fresh.required, "required");
        let hold = view.hold_slacks().to_vec();
        let fresh_hold = sta::hold_slacks(view.design(), &lib, &c);
        assert_eq!(hold, fresh_hold);
    }
}
