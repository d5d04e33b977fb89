//! Incremental static timing analysis.
//!
//! [`TimingGraph`] is a persistent companion to a [`MappedDesign`]: it
//! caches the graph structure full STA rebuilds from scratch on every call
//! (driver map, a flat sink table, per-net loads, levelized topological
//! order) and the propagated arrival times. Localized edits made through
//! [`TimingView`] — a cell resize, a gate kill — seed a level-ordered dirty
//! worklist; re-propagation walks only the affected fanout cone and stops
//! early when an arrival converges to its previous bit pattern. Structural
//! edits that grow the netlist (buffer insertion, retiming) run as
//! [`TimingView::trial`]s: a fresh graph times the edited design through
//! the same code path the full analyzer uses, and a rolled-back trial gets
//! the pre-trial graph back.
//!
//! Invalidation reaches only as far as an edit did. A pass run through
//! [`TimingView::with_design_mut`] that reports no change (all-zero
//! [`PassStats`]) keeps the graph, since every pass's stats count each
//! edit it makes. `ungroup -all` rewrites module paths only, which reach
//! the derived reports but no arrival. A constraint change falls into one
//! of four classes, by what the cached state read from it:
//! - `max_area` and `critical_range` are timing-inert: everything stays;
//! - `clock_period`, `output_delay` and the `-to`/multicycle exceptions
//!   move required times only: arrivals stay, derived results drop;
//! - `input_delay` and `input_drive_resistance` move input sources: each
//!   normal primary input is re-seeded and the change propagates through
//!   the dirty worklist;
//! - `wire_load`, `clock_port` and the `-from` exceptions change loads or
//!   launch points: full rebuild.
//!
//! Queries come in two tiers. [`TimingView::cps`] and [`TimingView::qor`]
//! read a [`SlackSummary`] (WNS, CPS, TNS) from one walk over the cached
//! arrivals, naming no endpoint and tracing no path; [`TimingView::report`]
//! builds the full [`TimingReport`] from the same walk, for the callers
//! that print it. Both sort the endpoint slacks the same stable way, so
//! the summary's figures are the report's, bit for bit.
//!
//! Determinism: on an acyclic graph, forward max-propagation and backward
//! min-propagation produce bitwise-identical values over *any* valid
//! topological order, because every gate is evaluated exactly once from the
//! final values of its inputs and `f64::max`/`min` over a fixed set is
//! order-free. The worklist processes gates in ascending (level, index)
//! order — a valid order — and net loads are re-summed over the live
//! entries of a sink table kept in the (gate, pin) order the full rebuild
//! uses, so incremental results match `sta::analyze` bit for bit. Designs
//! with combinational cycle remnants fall back to a full rebuild on any
//! edit, since there the single-pass order itself defines the
//! (pessimistic) result.
//!
//! Cell data comes from the [`Library`] by each gate's cell id, exactly as
//! `sta::analyze` reads it, so the graph keeps no per-cell state of its
//! own: a resize changes the id, and the next flush reads the new cell.
//!
//! `CHATLS_STA_CHECK=1` (or a live [`StaCheckGuard`]) arms an oracle mode:
//! every query recomputes from scratch and asserts bitwise equality of
//! WNS/CPS/TNS and, for a report, every endpoint slack.

use crate::design::{EditJournal, FlatLists, MappedDesign};
use crate::passes::PassStats;
use crate::sta::{
    self, Constraints, EndpointSlack, PiKind, SlackMap, SlackSummary, TimingException, TimingReport,
};
use chatls_liberty::{Library, WireLoadModel};
use chatls_verilog::netlist::GateKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Live [`StaCheckGuard`]s in the process. The count publishes no other
/// data, so relaxed accesses suffice.
static STA_CHECK_GUARDS: AtomicUsize = AtomicUsize::new(0);

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

/// True when oracle cross-checking is armed: `CHATLS_STA_CHECK=1`, or
/// while any [`StaCheckGuard`] lives.
pub fn sta_check_enabled() -> bool {
    STA_CHECK_GUARDS.load(Ordering::Relaxed) > 0 || sta_check_env()
}

/// Arms oracle cross-checking for the whole process while it lives,
/// independent of the `CHATLS_STA_CHECK` environment variable. Guards
/// count: dropping one leaves the oracle armed while another lives, so
/// concurrent tests cannot disarm each other's checked runs.
#[must_use = "the oracle is armed only while the guard lives"]
#[derive(Debug)]
pub struct StaCheckGuard(());

impl StaCheckGuard {
    /// Arms the oracle until the returned guard drops.
    pub fn arm() -> Self {
        STA_CHECK_GUARDS.fetch_add(1, Ordering::Relaxed);
        Self(())
    }
}

impl Drop for StaCheckGuard {
    fn drop(&mut self) {
        STA_CHECK_GUARDS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How far a constraint change reaches into the cached timing state,
/// ordered by how much of it must be recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ConstraintReach {
    /// Only timing-inert fields (`max_area`, `critical_range`) differ.
    Inert,
    /// Required times move: the derived results drop, arrivals stay.
    Required,
    /// Primary-input sources move: re-seed and propagate.
    Sources,
    /// Loads or launch points move: full rebuild.
    Launch,
}

impl ConstraintReach {
    fn between(old: &Constraints, new: &Constraints) -> Self {
        // Destructured so that a new field has to be classified here.
        let Constraints {
            clock_period,
            clock_port,
            input_delay,
            output_delay,
            wire_load,
            max_area: _,
            critical_range: _,
            input_drive_resistance,
            exceptions,
        } = new;
        fn false_from(c: &Constraints) -> impl Iterator<Item = &TimingException> {
            c.exceptions.iter().filter(|e| matches!(e, TimingException::FalseFrom(_)))
        }
        if *wire_load != old.wire_load
            || *clock_port != old.clock_port
            || !false_from(old).eq(false_from(new))
        {
            Self::Launch
        } else if *input_delay != old.input_delay
            || *input_drive_resistance != old.input_drive_resistance
        {
            Self::Sources
        } else if *clock_period != old.clock_period
            || *output_delay != old.output_delay
            || *exceptions != old.exceptions
        {
            Self::Required
        } else {
            Self::Inert
        }
    }
}

/// Persistent incremental STA state for one [`MappedDesign`].
///
/// All queries go through [`TimingView`]; the graph itself only stores
/// caches and never outlives a geometry change unvalidated: queries compare
/// gate/net counts against the cached build and rebuild on any mismatch,
/// so a stale graph can produce wrong answers only if a design is mutated
/// behind the view's back *without* changing geometry — which the mutation
/// hooks exist to prevent. Each query also compares the constraints with
/// the ones the cache was built under and drops only what the changed
/// fields feed: nothing for `max_area`/`critical_range`, the derived
/// results for clock period, output delay and `-to` exceptions, re-seeded
/// input sources for input delay and drive, a full rebuild for wire load,
/// clock port and `-from` exceptions. A [`TimingView::with_design_mut`]
/// pass whose [`PassStats`] report no change keeps the graph as it is.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    // Cached structure.
    driver: Vec<Option<usize>>,
    /// Per net, its `(gate, pin)` sinks at the last full build, in (gate,
    /// pin) order. A kill leaves its pins in place: readers skip dead
    /// gates, which keeps the order every load sum is taken in.
    sinks: FlatLists<(u32, u32)>,
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
    summary: Option<SlackSummary>,
    report: Option<TimingReport>,
    hold: Option<Vec<EndpointSlack>>,
    /// Scratch endpoint slacks for the summary, kept so that summaries
    /// allocate nothing once the graph has been built.
    slacks: Vec<f64>,
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
            sinks: FlatLists::default(),
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
            summary: None,
            report: None,
            hold: None,
            slacks: Vec::new(),
            cached_constraints: None,
            gates_len: 0,
            nets_len: 0,
            full_dirty: true,
            heap: BinaryHeap::new(),
            in_dirty: Vec::new(),
            load_dirty: Vec::new(),
            load_dirty_flag: Vec::new(),
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
        self.summary = None;
        self.report = None;
        self.hold = None;
    }

    /// True when the graph's bookkeeping no longer matches the design shape
    /// (a mutation bypassed the hooks); forces a rebuild.
    fn geometry_mismatch(&self, design: &MappedDesign) -> bool {
        self.gates_len != design.netlist.gates.len() || self.nets_len != design.netlist.nets.len()
    }

    fn ensure(&mut self, design: &MappedDesign, library: &Library, constraints: &Constraints) {
        let stale = self.full_dirty
            || self.geometry_mismatch(design)
            || !self.adopt_constraints(design, library, constraints);
        let pending = !self.heap.is_empty() || !self.load_dirty.is_empty();
        let stale = stale || (self.cycles > 0 && pending);
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

    /// Moves the cache onto `constraints`, dropping only what the changed
    /// fields feed (see the type docs). False when only a full rebuild can
    /// catch up.
    fn adopt_constraints(
        &mut self,
        design: &MappedDesign,
        library: &Library,
        constraints: &Constraints,
    ) -> bool {
        let Some(old) = &self.cached_constraints else {
            return false;
        };
        if old == constraints {
            return true;
        }
        let reach = ConstraintReach::between(old, constraints);
        if reach == ConstraintReach::Launch {
            return false;
        }
        self.cached_constraints = Some(constraints.clone());
        if reach >= ConstraintReach::Required {
            self.derived_stale();
        }
        if reach == ConstraintReach::Sources {
            // Same refresh as a load change on each normal input: the new
            // source value propagates through the worklist.
            for (_, id) in &design.netlist.inputs {
                if self.pi_kind[*id as usize] == PiKind::Normal {
                    self.on_load_changed(design, library, *id as usize);
                }
            }
        }
        true
    }

    /// Full rebuild through the oracle path (`sta::compute_arrivals`).
    fn rebuild(&mut self, design: &MappedDesign, library: &Library, constraints: &Constraints) {
        let a = sta::compute_arrivals(design, library, constraints);
        self.arrival = a.arrival;
        self.loads = a.loads;
        self.order = a.order;
        self.driver = a.driver;
        self.cycles = a.cycles;
        self.cached_constraints = Some(constraints.clone());
        // Refill the flat sink table in place, so the rebuilds a session
        // triggers (after each structural cleanup, for instance) reuse its
        // two buffers.
        let nets_len = design.netlist.nets.len();
        self.sinks.refill(nets_len, || {
            let live =
                design.netlist.gates.iter().enumerate().filter(|&(gi, _)| !design.is_dead(gi));
            live.flat_map(|(gi, g)| {
                let pins = g.inputs.iter().enumerate();
                pins.map(move |(pin, &net)| (net as usize, (gi as u32, pin as u32)))
            })
        });
        self.is_po.clear();
        self.is_po.resize(nets_len, false);
        for (_, id) in &design.netlist.outputs {
            self.is_po[*id as usize] = true;
        }
        self.wlm = constraints.wire_load.as_deref().and_then(|w| library.wire_load(w)).cloned();
        sta::gate_levels(design, &self.order, &self.driver, &mut self.level);
        // Source arrivals, as compute_arrivals initialized them.
        let nets = design.netlist.nets.len();
        self.pi_kind.clear();
        self.pi_kind.resize(nets, PiKind::NotPi);
        self.source.clear();
        self.source.resize(nets, f64::NEG_INFINITY);
        sta::classify_inputs(design, constraints, true, |id, kind| {
            self.pi_kind[id as usize] = kind;
            self.source[id as usize] = kind.setup_arrival(constraints, self.loads[id as usize]);
        });
        for (gi, gate) in design.netlist.gates.iter().enumerate() {
            if design.is_dead(gi) || !gate.kind.is_sequential() {
                continue;
            }
            let out = gate.output as usize;
            self.source[out] = sta::clk_to_q(library, design.cells[gi], self.loads[out]);
        }
        self.gates_len = design.netlist.gates.len();
        self.nets_len = nets;
        self.heap.clear();
        self.in_dirty = vec![false; self.gates_len];
        self.load_dirty.clear();
        self.load_dirty_flag = vec![false; nets];
        self.full_dirty = false;
        self.derived_stale();
    }

    /// Source arrival of `net` as a primary input under the cached
    /// constraints (`-inf` for non-inputs and `-from` launch points).
    fn pi_source_value(&self, net: usize) -> f64 {
        let c = self.cached_constraints.as_ref().expect("sources are set after a build");
        self.pi_kind[net].setup_arrival(c, self.loads[net])
    }

    fn push_dirty(&mut self, gi: usize) {
        if !self.in_dirty[gi] {
            self.in_dirty[gi] = true;
            self.heap.push(Reverse((self.level[gi], gi)));
        }
    }

    /// Marks the live combinational consumers of `net` dirty.
    fn dirty_sinks_of(&mut self, design: &MappedDesign, net: usize) {
        let sinks = std::mem::take(&mut self.sinks);
        let mut last = u32::MAX;
        for &(gi, _) in sinks.get(net) {
            if gi == last {
                continue;
            }
            last = gi;
            let gi = gi as usize;
            if !design.is_dead(gi) && !design.netlist.gates[gi].kind.is_sequential() {
                self.push_dirty(gi);
            }
        }
        self.sinks = sinks;
    }

    /// Re-sums the load of `net` over its live sinks, replicating the
    /// per-net body of [`MappedDesign::net_loads`] term for term.
    fn recompute_load(&mut self, design: &MappedDesign, library: &Library, net: usize) {
        let mut cap = 0.0;
        let mut fanout = 0u32;
        for &(gi, pin) in self.sinks.get(net) {
            if design.is_dead(gi as usize) {
                continue;
            }
            fanout += 1;
            if let Some(c) = library.input_cap(design.cells[gi as usize], pin as usize) {
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
                let src = sta::clk_to_q(library, design.cells[gi], self.loads[net]);
                self.source[net] = src;
                if src.to_bits() != self.arrival[net].to_bits() {
                    self.arrival[net] = src;
                    self.dirty_sinks_of(design, net);
                }
            }
            Some(gi) => {
                // Combinational driver: its arc delays see the new load.
                self.source[net] = self.pi_source_value(net);
                self.push_dirty(gi);
            }
            None => self.set_undriven_source(design, net),
        }
    }

    /// Refreshes the source of `net`, which has no live driver, and
    /// dirties its sinks when its arrival moved.
    fn set_undriven_source(&mut self, design: &MappedDesign, net: usize) {
        let src = self.pi_source_value(net);
        self.source[net] = src;
        if src.to_bits() != self.arrival[net].to_bits() {
            self.arrival[net] = src;
            self.dirty_sinks_of(design, net);
        }
    }

    /// True when so much of the graph is already on the worklist that a
    /// flat rebuild beats heap-ordered propagation; the edit hooks then
    /// stop doing incremental bookkeeping and the next query rebuilds once
    /// through the same code path the full analyzer uses, so results are
    /// unaffected.
    fn mass_dirty(&self, design: &MappedDesign) -> bool {
        self.heap.len() > (design.netlist.gates.len() / 2).max(1024)
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
            let src = sta::clk_to_q(library, design.cells[gi], self.loads[out]);
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

    /// Hook: gate `gi` was just tombstoned. Its sink pins stay in the
    /// table; the load re-sum of its input nets skips them.
    pub(crate) fn note_kill(&mut self, design: &MappedDesign, _library: &Library, gi: usize) {
        if self.full_dirty || self.geometry_mismatch(design) || self.mass_dirty(design) {
            self.invalidate();
            return;
        }
        self.derived_stale();
        for &inp in &design.netlist.gates[gi].inputs {
            self.mark_load_dirty(inp as usize);
        }
        let out = design.netlist.gates[gi].output as usize;
        if self.driver[out] == Some(gi) {
            self.driver[out] = None;
            self.set_undriven_source(design, out);
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
            let out_load = self.loads[out];
            let mut worst = match gate.kind {
                GateKind::Const0 | GateKind::Const1 => 0.0,
                _ => f64::NEG_INFINITY,
            };
            for (pin, &inp) in gate.inputs.iter().enumerate() {
                let in_arr = self.arrival[inp as usize];
                let arc_delay = sta::arc_delay(library, design.cells[gi], pin, out_load);
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
            let report = sta::report_from_parts(
                design,
                library,
                constraints,
                &self.arrival,
                &self.loads,
                &self.driver,
                self.cycles,
            );
            self.summary = Some(report.summary());
            self.report = Some(report);
        }
        if sta_check_enabled() {
            let fresh = sta::analyze(design, library, constraints);
            check_reports(self.report.as_ref().unwrap(), &fresh);
        }
        self.report.as_ref().unwrap()
    }

    /// WNS, CPS and TNS without the report: one endpoint walk over the
    /// cached arrivals, reusing the graph's scratch slacks.
    fn summary_mut(
        &mut self,
        design: &MappedDesign,
        library: &Library,
        constraints: &Constraints,
    ) -> SlackSummary {
        self.ensure(design, library, constraints);
        let summary = *self.summary.get_or_insert_with(|| {
            sta::summary_from_parts(design, library, constraints, &self.arrival, &mut self.slacks)
        });
        if sta_check_enabled() {
            check_summary(&summary, &sta::analyze(design, library, constraints).summary());
        }
        summary
    }

    fn slack_map_mut(
        &mut self,
        design: &MappedDesign,
        library: &Library,
        constraints: &Constraints,
    ) -> SlackMap {
        self.ensure(design, library, constraints);
        if self.required.is_none() {
            self.required =
                Some(sta::required_times(design, library, constraints, &self.loads, &self.order));
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

fn check_summary(cached: &SlackSummary, fresh: &SlackSummary) {
    assert_eq!(cached.wns.to_bits(), fresh.wns.to_bits(), "CHATLS_STA_CHECK: WNS diverged");
    assert_eq!(cached.cps.to_bits(), fresh.cps.to_bits(), "CHATLS_STA_CHECK: CPS diverged");
    assert_eq!(cached.tns.to_bits(), fresh.tns.to_bits(), "CHATLS_STA_CHECK: TNS diverged");
}

fn check_reports(cached: &TimingReport, fresh: &TimingReport) {
    check_summary(&cached.summary(), &fresh.summary());
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

/// What a session knows about how its design came to be: the two facts
/// that let `compile` reuse or skip its cleanup. The [`TimingView`] edit
/// hooks keep it current, since every edit a command makes goes through
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Provenance {
    /// The design equals the template's pristine design up to module
    /// paths: nothing has edited it but `ungroup -all`.
    pub(crate) pristine: bool,
    /// The last cleanup returned all-zero stats and no structural edit
    /// followed (resizes and `ungroup -all` do not count: no cleanup pass
    /// reads cells or module paths).
    pub(crate) clean: bool,
}

impl Provenance {
    /// A freshly stamped session: the template's design, never cleaned.
    pub(crate) const PRISTINE: Self = Self { pristine: true, clean: false };
    /// After a structural edit.
    pub(crate) const EDITED: Self = Self { pristine: false, clean: false };
}

/// The process-wide `synth.cleanup.*` counters in the obs registry.
pub(crate) struct CleanupCounters {
    /// Cleanup memos filled (`synth.cleanup.memo_fills`).
    pub(crate) memo_fills: &'static chatls_obs::Counter,
    /// Compiles that adopted a filled memo (`synth.cleanup.memo_hits`).
    pub(crate) memo_hits: &'static chatls_obs::Counter,
    /// Cleanups skipped on a clean design (`synth.cleanup.skipped`).
    pub(crate) skipped: &'static chatls_obs::Counter,
}

/// The [`CleanupCounters`], resolved (and registered together) once.
pub(crate) fn cleanup_counters() -> &'static CleanupCounters {
    static COUNTERS: OnceLock<CleanupCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| CleanupCounters {
        memo_fills: chatls_obs::counter("synth.cleanup.memo_fills"),
        memo_hits: chatls_obs::counter("synth.cleanup.memo_hits"),
        skipped: chatls_obs::counter("synth.cleanup.skipped"),
    })
}

/// A mutable lens over a design plus its timing graph: reads serve from the
/// incremental cache, writes go through hooks that keep the cache honest.
///
/// The timing-driven passes take a `TimingView` instead of a bare
/// `&mut MappedDesign` so that every edit is visible to the graph, and to
/// the session's [`Provenance`] when the view tracks one.
pub struct TimingView<'a> {
    design: &'a mut MappedDesign,
    graph: &'a mut TimingGraph,
    library: &'a Library,
    constraints: &'a Constraints,
    cancel: chatls_exec::CancelToken,
    provenance: Option<&'a mut Provenance>,
}

impl<'a> TimingView<'a> {
    /// Lenses `design` and `graph` together under `library`/`constraints`.
    pub fn new(
        design: &'a mut MappedDesign,
        graph: &'a mut TimingGraph,
        library: &'a Library,
        constraints: &'a Constraints,
    ) -> Self {
        Self {
            design,
            graph,
            library,
            constraints,
            cancel: chatls_exec::CancelToken::never(),
            provenance: None,
        }
    }

    /// Tracks `provenance` through this view's edit hooks. An untracked
    /// view knows nothing about its design's history, so it never skips a
    /// cleanup.
    pub(crate) fn tracking(mut self, provenance: &'a mut Provenance) -> Self {
        self.provenance = Some(provenance);
        self
    }

    /// Records a structural edit: the design is neither pristine nor clean.
    fn edited(&mut self) {
        if let Some(p) = self.provenance.as_deref_mut() {
            *p = Provenance::EDITED;
        }
    }

    /// True when the tracked session knows its design clean: a cleanup
    /// would return all-zero stats.
    pub(crate) fn is_clean(&self) -> bool {
        self.provenance.as_deref().is_some_and(|p| p.clean)
    }

    /// `compile`'s cleanup ([`crate::passes::cleanup`]) through
    /// [`Self::with_design_mut`], skipped on a design known clean: it
    /// would change nothing, and the graph stays either way. Counts each
    /// skip in `synth.cleanup.skipped`.
    pub(crate) fn cleanup(&mut self) -> PassStats {
        if self.is_clean() {
            cleanup_counters().skipped.inc();
            self.check_clean();
            return PassStats::default();
        }
        let library = self.library;
        let stats = self.with_design_mut(|design| crate::passes::cleanup(design, library));
        if let Some(p) = self.provenance.as_deref_mut() {
            p.clean = stats == PassStats::default();
        }
        stats
    }

    /// Under the oracle ([`sta_check_enabled`]), asserts that a cleanup
    /// of a copy of the design returns all-zero stats: the proof behind
    /// every skipped cleanup and final `sweep`.
    pub(crate) fn check_clean(&self) {
        if sta_check_enabled() {
            let stats = crate::passes::cleanup(&mut self.design.clone(), self.library);
            assert_eq!(
                stats,
                PassStats::default(),
                "CHATLS_STA_CHECK: a skipped cleanup would have changed the design"
            );
        }
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

    /// Full timing report, served incrementally: endpoint names, module
    /// paths and the critical-path trace, for `report_timing` and callers
    /// that print them. Passes read [`Self::cps`] instead.
    pub fn report(&mut self) -> &TimingReport {
        self.graph.report_mut(self.design, self.library, self.constraints)
    }

    /// Critical path slack, bitwise [`Self::report`]'s, from the slack
    /// summary: no endpoint is named and no path traced.
    pub fn cps(&mut self) -> f64 {
        self.graph.summary_mut(self.design, self.library, self.constraints).cps
    }

    /// QoR of the current design: the slack summary (bitwise the
    /// report's WNS, CPS and TNS) plus the area figures.
    pub fn qor(&mut self) -> crate::sta::QorReport {
        let summary = self.graph.summary_mut(self.design, self.library, self.constraints);
        sta::qor_from_summary(self.design, self.library, &summary)
    }

    /// Per-net arrival/required snapshot (same shape as [`sta::slack_map`]).
    pub fn slack_map(&mut self) -> SlackMap {
        self.graph.slack_map_mut(self.design, self.library, self.constraints)
    }

    /// Hold endpoint slacks, worst first (same as [`sta::hold_slacks`]).
    pub fn hold_slacks(&mut self) -> &[EndpointSlack] {
        self.graph.hold_mut(self.design, self.library, self.constraints)
    }

    /// Reassigns gate `gi`'s library cell; dirties its input-net loads and
    /// its fanout cone.
    pub fn resize_cell(&mut self, gi: usize, cell: u32) {
        self.design.cells[gi] = cell;
        self.graph.note_resize(self.design, self.library, gi);
        // Still clean: no cleanup pass reads cells.
        if let Some(p) = self.provenance.as_deref_mut() {
            p.pristine = false;
        }
    }

    /// Tombstones gate `gi`; dirties its former input-net loads and the
    /// cone below its output.
    pub fn kill_gate(&mut self, gi: usize) {
        self.design.kill(gi);
        self.graph.note_kill(self.design, self.library, gi);
        self.edited();
    }

    /// Arbitrary design mutation by a pass that counts every edit it makes
    /// in its [`PassStats`]. The graph is invalidated only when the stats
    /// report a change, so a pass that finds nothing to do keeps it (and
    /// the design stays as pristine and as clean as it was).
    pub fn with_design_mut(&mut self, f: impl FnOnce(&mut MappedDesign) -> PassStats) -> PassStats {
        let stats = f(self.design);
        if stats != PassStats::default() {
            self.graph.invalidate();
            self.edited();
        }
        stats
    }

    /// `ungroup -all` ([`crate::passes::ungroup_all`]); returns the number
    /// of gates moved to the top. Module paths feed only the derived
    /// reports, so the arrivals stay cached, and no cleanup pass reads
    /// them, so the design stays as pristine and as clean as it was.
    pub fn ungroup_all(&mut self) -> usize {
        let moved = crate::passes::ungroup_all(self.design);
        if moved > 0 {
            self.graph.derived_stale();
        }
        moved
    }

    /// Runs `edit` as a trial and keeps it only if `keep(cps_before,
    /// cps_after)` holds; returns the edit's result when it was kept.
    ///
    /// This is the one rule behind every QoR-gated structural edit (the
    /// `compile -map_effort high` and `balance_buffers` buffer trials and
    /// each retime move): read CPS, run `edit` through an [`EditJournal`],
    /// read CPS again, then keep or roll back. Nothing is cloned. The
    /// pre-trial graph is moved aside while a fresh one times the edited
    /// design (one full build, as any structural edit costs); a rollback
    /// undoes the journal and puts the pre-trial graph back, still current
    /// for the restored design, so every later query answers bitwise as if
    /// the trial had never run. The counters ([`TimingGraph::stats`]) count
    /// the trial's own build either way.
    pub fn trial<T>(
        &mut self,
        edit: impl FnOnce(&mut EditJournal<'_>) -> T,
        keep: impl FnOnce(f64, f64) -> bool,
    ) -> Option<T> {
        let before = self.cps();
        let mut journal = EditJournal::new(self.design);
        let out = edit(&mut journal);
        let fresh = TimingGraph { local: self.graph.local, ..TimingGraph::new() };
        let pre_trial = std::mem::replace(self.graph, fresh);
        let after = self.graph.summary_mut(journal.design(), self.library, self.constraints).cps;
        if keep(before, after) {
            self.edited();
            return Some(out);
        }
        journal.rollback();
        *self.graph = TimingGraph { local: self.graph.local, ..pre_trial };
        None
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

    /// True when library cell `cell` exists and its name starts with `prefix`.
    fn named(lib: &Library, cell: u32, prefix: &str) -> bool {
        lib.cell_by_id(cell).is_some_and(|c| c.name.starts_with(prefix))
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
                .filter(|&gi| named(&lib, view.design().cells[gi], "XOR2"))
                .take(4)
                .collect();
            for gi in candidates {
                let next = lib.next_drive(view.design().cells[gi], true).unwrap();
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
        let victim = view.design().cells.iter().position(|&c| named(&lib, c, "XOR2")).unwrap();
        view.kill_gate(victim);
        let incremental = view.report().clone();
        let fresh = sta::analyze(view.design(), &lib, &c);
        check_reports(&incremental, &fresh);
    }

    /// Report, slack map and hold slacks all equal their oracles bitwise.
    fn assert_matches_oracles(view: &mut TimingView, lib: &Library, c: &Constraints) {
        let report = view.report().clone();
        check_reports(&report, &sta::analyze(view.design(), lib, c));
        let sm = view.slack_map();
        let fresh = sta::slack_map(view.design(), lib, c);
        check_vec(&sm.arrival, &fresh.arrival, "arrival");
        check_vec(&sm.required, &fresh.required, "required");
        let hold = view.hold_slacks().to_vec();
        assert_eq!(hold, sta::hold_slacks(view.design(), lib, c));
    }

    #[test]
    fn constraint_change_forces_rebuild() {
        // Wire load, clock port and `-from` exceptions move loads or launch
        // points: each change rebuilds.
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let mut g = TimingGraph::new();
        let base = cons(0.6);
        let changes = [
            Constraints { wire_load: None, ..base.clone() },
            Constraints { wire_load: None, clock_port: Some("a[0]".into()), ..base.clone() },
            Constraints {
                wire_load: None,
                clock_port: Some("a[0]".into()),
                exceptions: vec![TimingException::FalseFrom("b".into())],
                ..base.clone()
            },
        ];
        TimingView::new(&mut d, &mut g, &lib, &base).report();
        for (i, c) in changes.iter().enumerate() {
            assert_matches_oracles(&mut TimingView::new(&mut d, &mut g, &lib, c), &lib, c);
            assert_eq!(g.stats().full_builds, i as u64 + 2, "change {i} must rebuild");
        }
    }

    #[test]
    fn constraint_classes_keep_what_timing_did_not_read() {
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let mut g = TimingGraph::new();
        let base = cons(0.6);
        TimingView::new(&mut d, &mut g, &lib, &base).report();
        let mut c = base.clone();
        let mut step = |c: &Constraints, g: &mut TimingGraph| {
            let before = g.stats();
            assert_matches_oracles(&mut TimingView::new(&mut d, g, &lib, c), &lib, c);
            let after = g.stats();
            assert_eq!(after.full_builds, before.full_builds, "no constraint here rebuilds");
            after.incremental_updates - before.incremental_updates
        };
        // Timing-inert and required-time changes reuse the arrivals.
        c.max_area = Some(10.0);
        c.critical_range = 0.3;
        assert_eq!(step(&c, &mut g), 0);
        c.clock_period = 1.2;
        c.output_delay = 0.1;
        c.exceptions.push(TimingException::FalseTo("q[3]".into()));
        c.exceptions.push(TimingException::MulticycleTo("q[1]".into(), 2));
        assert_eq!(step(&c, &mut g), 0);
        // Input delay and drive re-seed the inputs through the worklist.
        c.input_delay = 0.2;
        assert_eq!(step(&c, &mut g), 1);
        c.input_drive_resistance = 0.01;
        assert_eq!(step(&c, &mut g), 1);
    }

    #[test]
    fn no_op_passes_and_ungroup_keep_the_arrivals() {
        let src = "module sub(input [7:0] x, output [7:0] y); assign y = x + 8'd3; endmodule
            module top(input clk, input [7:0] a, output reg [7:0] q);
                wire [7:0] w;
                sub u (.x(a), .y(w));
                always @(posedge clk) q <= w;
            endmodule";
        let mut d = map(src, "top");
        crate::passes::sweep(&mut d);
        let lib = nangate45();
        let c = cons(0.3);
        let mut g = TimingGraph::new();
        let mut view = TimingView::new(&mut d, &mut g, &lib, &c);
        view.report();
        assert_eq!(view.with_design_mut(crate::passes::sweep), PassStats::default());
        assert!(view.ungroup_all() > 0);
        assert_matches_oracles(&mut view, &lib, &c);
        assert!(view.report().critical_path.iter().all(|s| s.module_path == "top"));
        assert_eq!(g.stats().full_builds, 1, "a no-op pass and ungroup must not rebuild");
    }

    #[test]
    fn restore_keeps_the_trial_builds_counted() {
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let c = cons(0.6);
        let mut g = TimingGraph::new();
        {
            let mut view = TimingView::new(&mut d, &mut g, &lib, &c);
            view.report();
            let mut added = 0;
            let kept = view.trial(
                |edit| added = crate::passes::buffer_high_fanout_in(edit, &lib, 2).added,
                |_, _| false,
            );
            assert!(kept.is_none(), "the trial must roll back");
            assert!(added > 0, "the trial must be structural");
            assert_matches_oracles(&mut view, &lib, &c);
        }
        let stats = g.stats();
        assert_eq!(stats.full_builds, 2, "the rolled-back trial's build still counts");
        assert_eq!(stats.incremental_updates, 0, "the restored graph is current");
    }

    /// The edit hooks keep a tracked session's provenance: a kept trial, a
    /// kill or a pass that changed something leaves the design neither
    /// pristine nor clean; a resize clears only pristine; a rolled-back
    /// trial, a no-op pass and `ungroup -all` change nothing.
    #[test]
    fn edit_hooks_keep_the_provenance() {
        let mut d = map(PIPE, "pipe");
        let lib = nangate45();
        let c = cons(0.6);
        let mut g = TimingGraph::new();
        let both = Provenance { pristine: true, clean: true };
        let mut p = both;
        let mut view = TimingView::new(&mut d, &mut g, &lib, &c).tracking(&mut p);
        let split = |edit: &mut EditJournal<'_>| {
            assert!(crate::passes::buffer_high_fanout_in(edit, &lib, 2).added > 0);
        };
        assert!(view.trial(split, |_, _| false).is_none());
        assert_eq!(view.with_design_mut(|_| PassStats::default()), PassStats::default());
        assert!(view.ungroup_all() > 0);
        assert!(view.is_clean());
        assert_eq!(view.cleanup(), PassStats::default(), "a clean design skips its cleanup");
        let gi = (0..view.design().cells.len())
            .find(|&gi| lib.next_drive(view.design().cells[gi], true).is_some())
            .expect("a resizable gate");
        view.resize_cell(gi, lib.next_drive(view.design().cells[gi], true).unwrap());
        drop(view);
        assert_eq!(p, Provenance { pristine: false, clean: true });
        for edit in 0..3 {
            let mut p = both;
            let mut view = TimingView::new(&mut d, &mut g, &lib, &c).tracking(&mut p);
            match edit {
                0 => assert!(view.trial(split, |_, _| true).is_some()),
                1 => view.kill_gate(gi),
                _ => {
                    let added = PassStats { added: 1, ..PassStats::default() };
                    view.with_design_mut(|_| added);
                }
            }
            drop(view);
            assert_eq!(p, Provenance::EDITED, "edit {edit}");
        }
        // A cleanup that changes something leaves the design unclean; one
        // that changes nothing proves it clean.
        let mut fresh = map(PIPE, "pipe");
        let mut p = Provenance::PRISTINE;
        let mut view = TimingView::new(&mut fresh, &mut g, &lib, &c).tracking(&mut p);
        let mut rounds = 0;
        while view.cleanup() != PassStats::default() {
            assert!(!view.is_clean());
            rounds += 1;
        }
        assert!(rounds > 0 && view.is_clean());
    }

    #[test]
    fn duplicate_cell_names_resolve_like_analyze() {
        // A second cell under an existing name, appended after mapping: the
        // design's ids still name the cells it was mapped to, and the graph
        // must read them exactly as the analyzer does.
        let mut d = map(PIPE, "pipe");
        let mut lib = nangate45();
        let mut slow = lib.cell("DFF_X1").expect("DFF_X1").clone();
        slow.ff.as_mut().expect("a flip-flop").setup *= 3.0;
        let mut lib_cells = lib.cells.clone();
        lib_cells.push(slow);
        lib = Library::new(lib.name.clone(), lib_cells, lib.wire_loads.clone(), None);
        let c = cons(0.6);
        let mut g = TimingGraph::new();
        assert_matches_oracles(&mut TimingView::new(&mut d, &mut g, &lib, &c), &lib, &c);
    }

    /// A graph with combinational cycle remnants rebuilds on any pending
    /// edit, since there the single-pass order defines the (pessimistic)
    /// arrivals that a worklist flush could not reproduce.
    #[test]
    fn cyclic_graph_rebuilds_on_any_edit() {
        use chatls_verilog::netlist::Netlist;
        let mut nl = Netlist::new("loopy");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let w1 = nl.add_net("w1");
        let w2 = nl.add_net("w2");
        let y = nl.add_net("y");
        let z = nl.add_net("z");
        nl.inputs.push(("a".into(), a));
        nl.inputs.push(("b".into(), b));
        nl.outputs.push(("y".into(), y));
        nl.outputs.push(("z".into(), z));
        // a NAND w2 -> w1; w1 NOT -> w2 (feedback); w1 AND w2 -> y; and
        // apart from the loop, NOT b -> z.
        nl.add_gate(GateKind::Nand, &[a, w2], w1, "loopy");
        nl.add_gate(GateKind::Not, &[w1], w2, "loopy");
        nl.add_gate(GateKind::And, &[w1, w2], y, "loopy");
        nl.add_gate(GateKind::Not, &[b], z, "loopy");
        let lib = nangate45();
        let mut d = MappedDesign::map(nl, &lib).unwrap();
        let c = cons(1.0);
        assert!(sta::analyze(&d, &lib, &c).combinational_cycles > 0, "the fixture has a cycle");
        let mut g = TimingGraph::new();
        TimingView::new(&mut d, &mut g, &lib, &c).report();
        // A resize on the loop, then one on the gate the loop never reaches.
        for (step, out) in [w1, z].into_iter().enumerate() {
            let mut view = TimingView::new(&mut d, &mut g, &lib, &c);
            let gi = view.design().netlist.gates.iter().position(|g| g.output == out).unwrap();
            let larger = lib.next_drive(view.design().cells[gi], true).expect("a larger cell");
            view.resize_cell(gi, larger);
            let report = view.report().clone();
            let fresh = sta::analyze(view.design(), &lib, &c);
            check_reports(&report, &fresh);
            let q = view.qor();
            check_summary(&SlackSummary { wns: q.wns, cps: q.cps, tns: q.tns }, &fresh.summary());
            let sm = view.slack_map();
            let fresh_sm = sta::slack_map(view.design(), &lib, &c);
            check_vec(&sm.arrival, &fresh_sm.arrival, "arrival");
            check_vec(&sm.required, &fresh_sm.required, "required");
            let t = g.stats();
            assert_eq!(t.full_builds, step as u64 + 2, "resize {step} must rebuild");
            assert_eq!(t.incremental_updates, 0, "a cyclic graph never flushes a worklist");
        }
    }

    #[test]
    fn oracle_stays_armed_until_the_last_guard_drops() {
        // No other test in this binary arms the oracle.
        let (armed, dropped) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let (both, after_one) = std::thread::scope(|s| {
            let other = s.spawn(|| {
                let guard = StaCheckGuard::arm();
                armed.wait();
                dropped.wait();
                let after_one = sta_check_enabled();
                drop(guard);
                after_one
            });
            let guard = StaCheckGuard::arm();
            armed.wait();
            let both = sta_check_enabled();
            drop(guard);
            dropped.wait();
            (both, other.join().expect("guard thread"))
        });
        assert!(both, "armed while both guards live");
        assert!(after_one, "one dropped guard must not disarm the other's run");
        assert_eq!(sta_check_enabled(), sta_check_env(), "disarmed once the last guard drops");
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
            if named(&lib, view.design().cells[gi], "NAND2") {
                if let Some(next) = lib.next_drive(view.design().cells[gi], true) {
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
