//! Netlist optimization passes — the machinery behind the DC-style
//! commands (`compile`, `compile_ultra`, `optimize_registers`,
//! `balance_buffers`, `insert_clock_gating`, `ungroup`).
//!
//! Every pass preserves functionality; the crate's tests prove it by
//! simulating random stimulus before and after each pass.

use crate::design::MappedDesign;
use crate::timing_graph::TimingView;
use chatls_liberty::Library;
use chatls_verilog::netlist::{Gate, GateKind, InputList, MAX_GATE_ARITY};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};

/// Statistics returned by a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PassStats {
    /// Gates removed.
    pub removed: usize,
    /// Gates added.
    pub added: usize,
    /// Gates whose cell assignment changed.
    pub resized: usize,
}

impl PassStats {
    /// Merges another pass's stats into this one.
    pub fn merge(&mut self, other: PassStats) {
        self.removed += other.removed;
        self.added += other.added;
        self.resized += other.resized;
    }
}

/// Removes buffers by rewiring their sinks and deletes dead gates.
///
/// A buffer whose output is a primary output (or a net with no other legal
/// driver) is kept. Runs to fixpoint.
pub fn sweep(design: &mut MappedDesign) -> PassStats {
    let mut stats = PassStats::default();
    let nets = design.netlist.nets.len();
    let mut is_po = vec![false; nets];
    for (_, id) in &design.netlist.outputs {
        is_po[*id as usize] = true;
    }

    // Buffer removal. Instead of rewiring every sink per buffer (quadratic
    // in buffer count), build the net-forwarding map of all removable
    // buffers at once, resolve chains transitively, and rewrite every gate
    // input through it in one pass. The fixpoint the per-buffer formulation
    // reached across rounds is exactly the transitive closure.
    let mut forward: Vec<u32> = (0..nets as u32).collect();
    let mut any_buf = false;
    for gi in 0..design.netlist.gates.len() {
        if design.is_dead(gi) {
            continue;
        }
        let gate = &design.netlist.gates[gi];
        if gate.kind != GateKind::Buf || gate.dont_touch || is_po[gate.output as usize] {
            continue;
        }
        // First buffer wins on (degenerate) multi-driver nets, matching
        // the order the per-buffer rewiring visited them.
        if forward[gate.output as usize] == gate.output {
            forward[gate.output as usize] = gate.inputs[0];
        }
        any_buf = true;
        design.kill(gi);
        stats.removed += 1;
    }
    if any_buf {
        // Path-halving resolution; the step cap makes degenerate buffer
        // cycles terminate (they collapse to dead self-loops either way).
        let resolve = |forward: &[u32], mut net: u32| -> u32 {
            let mut steps = 0usize;
            while forward[net as usize] != net && steps <= nets {
                net = forward[net as usize];
                steps += 1;
            }
            net
        };
        let resolved: Vec<u32> = (0..nets as u32).map(|n| resolve(&forward, n)).collect();
        for g in design.netlist.gates.iter_mut() {
            for inp in g.inputs.iter_mut() {
                *inp = resolved[*inp as usize];
            }
            if let Some(e) = g.enable {
                g.enable = Some(resolved[e as usize]);
            }
            if let Some(r) = g.async_reset {
                g.async_reset = Some(resolved[r as usize]);
            }
        }
    }

    // Dead gate elimination: no sinks and not a primary output. A kill can
    // orphan its input nets' drivers, so cascade through a worklist — the
    // same closure the round-based formulation reached by re-scanning.
    let mut uses = vec![0u32; nets];
    let mut driver_of: Vec<Vec<u32>> = vec![Vec::new(); nets];
    for (gi, g) in design.netlist.gates.iter().enumerate() {
        if design.is_dead(gi) {
            continue;
        }
        driver_of[g.output as usize].push(gi as u32);
        for &inp in &g.inputs {
            uses[inp as usize] += 1;
        }
        if let Some(e) = g.enable {
            uses[e as usize] += 1;
        }
        if let Some(r) = g.async_reset {
            uses[r as usize] += 1;
        }
    }
    let mut worklist: Vec<u32> = Vec::new();
    for gi in 0..design.netlist.gates.len() {
        if !design.is_dead(gi) {
            let out = design.netlist.gates[gi].output as usize;
            if uses[out] == 0 && !is_po[out] {
                worklist.push(gi as u32);
            }
        }
    }
    let mut released: Vec<u32> = Vec::new();
    while let Some(gi) = worklist.pop() {
        let gi = gi as usize;
        if design.is_dead(gi) {
            continue;
        }
        design.kill(gi);
        stats.removed += 1;
        released.clear();
        released.extend_from_slice(&design.netlist.gates[gi].inputs);
        released.extend(design.netlist.gates[gi].enable);
        released.extend(design.netlist.gates[gi].async_reset);
        for &net in &released {
            uses[net as usize] -= 1;
            if uses[net as usize] == 0 && !is_po[net as usize] {
                for &d in &driver_of[net as usize] {
                    if !design.is_dead(d as usize) {
                        worklist.push(d);
                    }
                }
            }
        }
    }
    stats
}

/// Constant propagation: simplifies gates with constant inputs, then sweeps.
///
/// Rewrites like `AND(x, 1) → BUF(x)` and `XOR(x, 0) → BUF(x)`; fully
/// constant gates become constant drivers.
pub fn const_propagate(design: &mut MappedDesign, library: &Library) -> PassStats {
    let mut stats = PassStats::default();
    let buf_cell = library.variants("BUF").first().map(|c| c.name.clone()).unwrap_or_default();
    let inv_cell = library.variants("INV").first().map(|c| c.name.clone()).unwrap_or_default();
    loop {
        // Net constness from live constant drivers.
        let mut constness: Vec<Option<bool>> = vec![None; design.netlist.nets.len()];
        for (gi, g) in design.netlist.gates.iter().enumerate() {
            if design.is_dead(gi) {
                continue;
            }
            match g.kind {
                GateKind::Const0 => constness[g.output as usize] = Some(false),
                GateKind::Const1 => constness[g.output as usize] = Some(true),
                _ => {}
            }
        }
        let mut changed = false;
        for gi in 0..design.netlist.gates.len() {
            if design.is_dead(gi) {
                continue;
            }
            let (kind, inputs) = (design.netlist.gates[gi].kind, design.netlist.gates[gi].inputs);
            let mut cv = [None; MAX_GATE_ARITY];
            for (c, &i) in cv.iter_mut().zip(inputs.iter()) {
                *c = constness[i as usize];
            }
            let buf = |i: usize| {
                Some((GateKind::Buf, InputList::from_slice(&[inputs[i]]), buf_cell.as_str()))
            };
            let inv = |i: usize| {
                Some((GateKind::Not, InputList::from_slice(&[inputs[i]]), inv_cell.as_str()))
            };
            let tie = |v: bool| {
                Some((
                    if v { GateKind::Const1 } else { GateKind::Const0 },
                    InputList::default(),
                    "",
                ))
            };
            // (new kind, new inputs, new cell)
            let rewrite: Option<(GateKind, InputList, &str)> = match kind {
                GateKind::And => match (cv[0], cv[1]) {
                    (Some(false), _) | (_, Some(false)) => tie(false),
                    (Some(true), _) => buf(1),
                    (_, Some(true)) => buf(0),
                    _ => None,
                },
                GateKind::Or => match (cv[0], cv[1]) {
                    (Some(true), _) | (_, Some(true)) => tie(true),
                    (Some(false), _) => buf(1),
                    (_, Some(false)) => buf(0),
                    _ => None,
                },
                GateKind::Xor => match (cv[0], cv[1]) {
                    (Some(a), Some(b)) => tie(a ^ b),
                    (Some(false), _) => buf(1),
                    (_, Some(false)) => buf(0),
                    (Some(true), _) => inv(1),
                    (_, Some(true)) => inv(0),
                    (None, None) => None,
                },
                GateKind::Not => cv[0].and_then(|v| tie(!v)),
                GateKind::Mux => match cv[0] {
                    Some(false) => buf(1),
                    Some(true) => buf(2),
                    // mux(s, a, a) = a
                    None if inputs[1] == inputs[2] => buf(1),
                    None => None,
                },
                _ => None,
            };
            if let Some((kind, inputs, cell)) = rewrite {
                let slot = &mut design.netlist.gates[gi];
                slot.kind = kind;
                slot.inputs = inputs;
                cell.clone_into(&mut design.cells[gi]);
                stats.resized += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    stats.merge(sweep(design));
    stats
}

/// Structural hashing: merges gates computing the identical function of
/// the identical input nets (common-subexpression elimination).
///
/// Bit-blasted arithmetic recomputes shared terms constantly (`a+b` used by
/// two consumers lowers twice); this pass folds them. Commutative kinds
/// hash with sorted inputs. Registers and protected gates are skipped.
///
/// Runs in rounds to a fixpoint: in each round the lowest-indexed gate of
/// every key group keeps its key, every other member that does not drive a
/// primary output dies, and each reader of a dead member's net (dead gates
/// and register `enable`/`async_reset` pins included) is rewired to the
/// keeper's net. The rounds are event-driven: groups persist, and a round
/// re-keys only the gates whose pins the previous round rewired, so the
/// pass is linear in gates plus rewired pins rather than in gates × rounds.
pub fn strash(design: &mut MappedDesign) -> PassStats {
    let mut stats = PassStats::default();
    let gate_count = design.netlist.gates.len();
    let mut groups = StrashGroups::default();
    for gi in 0..gate_count {
        if strash_member(design, gi) {
            groups.join(strash_key(&design.netlist.gates[gi]), gi as u32);
        }
    }
    let mut is_po = vec![false; design.netlist.nets.len()];
    for (_, id) in &design.netlist.outputs {
        is_po[*id as usize] = true;
    }
    let mut kills = Vec::new();
    groups.fold(design, &is_po, &mut kills);
    if kills.is_empty() {
        return stats;
    }

    // Net → reader pins, as intrusive lists over pin slots
    // (`gate * PIN_SLOTS + pin`); forwarding a net splices its whole list.
    assert!(gate_count * PIN_SLOTS < NO_SLOT as usize, "too many gates for u32 pin slots");
    let mut head = vec![NO_SLOT; is_po.len()];
    let mut next = vec![NO_SLOT; gate_count * PIN_SLOTS];
    for (gi, g) in design.netlist.gates.iter().enumerate() {
        let pins = g.inputs.iter().copied().enumerate();
        let pins = pins.chain(g.enable.map(|e| (ENABLE_PIN, e)));
        for (pin, net) in pins.chain(g.async_reset.map(|r| (RESET_PIN, r))) {
            let slot = gi * PIN_SLOTS + pin;
            next[slot] = head[net as usize];
            head[net as usize] = slot as u32;
        }
    }
    // Round in which each gate's pins were last rewired.
    let mut rewired_in = vec![0u32; gate_count];
    let (mut round, mut moved, mut rewired) = (0u32, Vec::new(), Vec::new());
    while !kills.is_empty() {
        round += 1;
        kills.sort_unstable();
        for &(gi, _) in &kills {
            design.kill(gi as usize);
        }
        stats.removed += kills.len();
        // Detach every forwarded net's readers before moving any, so each
        // pin moves once per round; the highest-indexed kill of a net wins.
        moved.clear();
        for &(gi, canonical) in kills.iter().rev() {
            let dup = design.netlist.gates[gi as usize].output as usize;
            moved.push((std::mem::replace(&mut head[dup], NO_SLOT), canonical));
        }
        rewired.clear();
        for &(mut slot, canonical) in &moved {
            while slot != NO_SLOT {
                let (gi, pin) = (slot as usize / PIN_SLOTS, slot as usize % PIN_SLOTS);
                if rewired_in[gi] != round {
                    rewired_in[gi] = round;
                    rewired.push(gi);
                    if strash_member(design, gi) {
                        groups.leave(strash_key(&design.netlist.gates[gi]), gi as u32);
                    }
                }
                let g = &mut design.netlist.gates[gi];
                match pin {
                    ENABLE_PIN => g.enable = Some(canonical),
                    RESET_PIN => g.async_reset = Some(canonical),
                    _ => g.inputs[pin] = canonical,
                }
                let following = next[slot as usize];
                next[slot as usize] = head[canonical as usize];
                head[canonical as usize] = slot;
                slot = following;
            }
        }
        for &gi in &rewired {
            if strash_member(design, gi) {
                groups.join(strash_key(&design.netlist.gates[gi]), gi as u32);
            }
        }
        groups.fold(design, &is_po, &mut kills);
    }
    stats
}

/// A gate's structural-hash key: its kind and its inputs, sorted when the
/// kind is commutative.
type StrashKey = (GateKind, InputList);

/// Pin slots per gate in `strash`'s reader lists: the inline inputs, then
/// `enable` and `async_reset`.
const ENABLE_PIN: usize = MAX_GATE_ARITY + 1;
const RESET_PIN: usize = MAX_GATE_ARITY + 2;
const PIN_SLOTS: usize = MAX_GATE_ARITY + 3;
const NO_SLOT: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Strash keys computed on this thread: lets tests bound the pass's
    /// work, undisturbed by tests running on other threads.
    static STRASH_KEYS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// True for a live gate `strash` may merge: not sequential, not protected.
fn strash_member(design: &MappedDesign, gi: usize) -> bool {
    let g = &design.netlist.gates[gi];
    !design.is_dead(gi) && !g.kind.is_sequential() && !g.dont_touch
}

fn strash_key(gate: &Gate) -> StrashKey {
    #[cfg(test)]
    STRASH_KEYS.with(|n| n.set(n.get() + 1));
    let mut inputs = gate.inputs;
    if matches!(
        gate.kind,
        GateKind::And
            | GateKind::Or
            | GateKind::Xor
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xnor
    ) {
        inputs.sort_unstable();
    }
    (gate.kind, inputs)
}

/// `strash`'s live gates grouped by key, kept across rounds.
#[derive(Default)]
struct StrashGroups {
    /// The lowest-indexed member of every key.
    keeper: HashMap<StrashKey, u32>,
    /// The other members of keys that have several, in index order, and
    /// whether the key is queued in `dirty`.
    others: HashMap<StrashKey, (Vec<u32>, bool)>,
    /// Keys that gained a member since they were last folded.
    dirty: Vec<StrashKey>,
}

impl StrashGroups {
    fn join(&mut self, key: StrashKey, gi: u32) {
        let member = match self.keeper.entry(key) {
            Entry::Vacant(v) => {
                v.insert(gi);
                return;
            }
            Entry::Occupied(mut o) if gi < *o.get() => o.insert(gi),
            Entry::Occupied(_) => gi,
        };
        let (others, queued) = self.others.entry(key).or_default();
        others.insert(others.partition_point(|&m| m < member), member);
        if !*queued {
            *queued = true;
            self.dirty.push(key);
        }
    }

    /// Removes gate `gi` from the group of `key`, its key before a rewire.
    fn leave(&mut self, key: StrashKey, gi: u32) {
        let Entry::Occupied(mut o) = self.others.entry(key) else {
            self.keeper.remove(&key);
            return;
        };
        let others = &mut o.get_mut().0;
        if self.keeper[&key] == gi {
            self.keeper.insert(key, others.remove(0));
        } else if let Ok(at) = others.binary_search(&gi) {
            others.remove(at);
        }
        if others.is_empty() {
            o.remove();
        }
    }

    /// Folds every queued key: each member but the keeper that does not
    /// drive a primary output leaves the group and lands in `kills` as
    /// `(gate, keeper's net)`.
    fn fold(&mut self, design: &MappedDesign, is_po: &[bool], kills: &mut Vec<(u32, u32)>) {
        kills.clear();
        let gates = &design.netlist.gates;
        for key in self.dirty.drain(..) {
            let Entry::Occupied(mut o) = self.others.entry(key) else { continue };
            let canonical = gates[self.keeper[&key] as usize].output;
            let (others, queued) = o.get_mut();
            *queued = false;
            others.retain(|&m| {
                let keep = is_po[gates[m as usize].output as usize];
                if !keep {
                    kills.push((m, canonical));
                }
                keep
            });
            if others.is_empty() {
                o.remove();
            }
        }
    }
}

/// Inverter absorption (technology remapping): merges `NOT(AND)` → NAND,
/// `NOT(OR)` → NOR, `NOT(XOR)` → XNOR, collapses inverter pairs, and
/// rewrites `NOT(NAND)` back to AND (double negation through the mapper).
///
/// Each merge removes a gate and a logic level — the classic win of mapping
/// onto the inverting cells a CMOS library is built from. Only applies when
/// the inner gate's output feeds exactly the inverter (fanout 1).
pub fn absorb_inverters(design: &mut MappedDesign, library: &Library) -> PassStats {
    let mut stats = PassStats::default();
    let cell_for = |kind: GateKind| -> Option<String> {
        crate::design::base_cell_for(kind)
            .and_then(|b| library.variants(b).first().map(|c| c.name.clone()))
    };
    loop {
        let mut changed = false;
        // The adjacency maps stay valid across the simple merges below
        // (they only retire the inner gate and its single-sink net), but a
        // NOT-NOT collapse rewires sinks; that case restarts the sweep so
        // the maps are rebuilt.
        let mut restart = false;
        let driver = design.driver_map();
        let sinks = design.sink_map();
        let primary_outputs: Vec<u32> = design.netlist.outputs.iter().map(|(_, id)| *id).collect();
        for gi in 0..design.netlist.gates.len() {
            if restart {
                break;
            }
            if design.is_dead(gi) {
                continue;
            }
            let gate = &design.netlist.gates[gi];
            if gate.kind != GateKind::Not {
                continue;
            }
            let (src_net, out) = (gate.inputs[0], gate.output);
            let inner_gi = match driver[src_net as usize] {
                Some(g) => g,
                None => continue,
            };
            if design.is_dead(inner_gi) {
                continue;
            }
            let inner = &design.netlist.gates[inner_gi];
            if inner.dont_touch
                || sinks[src_net as usize].len() != 1
                || primary_outputs.contains(&src_net)
            {
                continue;
            }
            let (inner_kind, inner_inputs) = (inner.kind, inner.inputs);
            let merged_kind = match inner_kind {
                GateKind::And => GateKind::Nand,
                GateKind::Or => GateKind::Nor,
                GateKind::Xor => GateKind::Xnor,
                GateKind::Nand => GateKind::And,
                GateKind::Nor => GateKind::Or,
                GateKind::Xnor => GateKind::Xor,
                // NOT(NOT(x)) — rewire sinks of the outer NOT to x.
                GateKind::Not => {
                    let x = inner_inputs[0];
                    if primary_outputs.contains(&out) {
                        // Keep a buffer to drive the output.
                        design.netlist.gates[gi].kind = GateKind::Buf;
                        design.netlist.gates[gi].inputs = InputList::from_slice(&[x]);
                        if let Some(c) = cell_for(GateKind::Buf) {
                            design.cells[gi] = c;
                        }
                    } else {
                        for other in design.netlist.gates.iter_mut() {
                            for inp in other.inputs.iter_mut() {
                                if *inp == out {
                                    *inp = x;
                                }
                            }
                        }
                        design.kill(gi);
                        stats.removed += 1;
                    }
                    design.kill(inner_gi);
                    stats.removed += 1;
                    changed = true;
                    restart = true;
                    continue;
                }
                _ => continue,
            };
            let cell = match cell_for(merged_kind) {
                Some(c) => c,
                None => continue,
            };
            // The outer NOT becomes the merged gate; the inner gate dies.
            design.netlist.gates[gi].kind = merged_kind;
            design.netlist.gates[gi].inputs = inner_inputs;
            design.cells[gi] = cell;
            design.kill(inner_gi);
            stats.removed += 1;
            stats.resized += 1;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    stats
}

/// Timing-driven gate sizing: upsizes cells on near-critical nets.
///
/// Each round computes the slack map and bumps every driver of a net whose
/// slack is within `constraints.critical_range` of the worst slack to the
/// next drive variant. Rounds that fail to improve CPS are rolled back.
pub fn size_cells(view: &mut TimingView, rounds: usize) -> PassStats {
    let mut stats = PassStats::default();
    let critical_range = view.constraints().critical_range;
    for _ in 0..rounds {
        if view.is_cancelled() {
            break;
        }
        let before_cps = view.report().cps;
        // Keep pushing until there is a little positive margin (the
        // critical range), not just bare closure.
        if before_cps >= critical_range.max(0.0) {
            break;
        }
        let slacks = view.slack_map();
        let threshold = before_cps + critical_range;
        let mut round_edits: Vec<(usize, String)> = Vec::new();
        for gi in 0..view.design().netlist.gates.len() {
            let design = view.design();
            if design.is_dead(gi) || design.cells[gi].is_empty() {
                continue;
            }
            let out = design.netlist.gates[gi].output;
            if slacks.slack(out) > threshold {
                continue;
            }
            if let Some(next) = view.next_drive(gi, true) {
                round_edits.push((gi, design.cells[gi].clone()));
                view.resize_cell(gi, next);
                stats.resized += 1;
            }
        }
        if round_edits.is_empty() {
            break;
        }
        let after_cps = view.report().cps;
        if after_cps < before_cps {
            // Roll back through the hooks so the graph stays incremental.
            for (gi, old) in round_edits.into_iter().rev() {
                view.resize_cell(gi, old);
            }
            break;
        }
    }
    stats
}

/// Area recovery: downsizes drivers of nets with comfortable slack.
///
/// Active when `set_max_area` is configured; never accepted if it worsens
/// CPS below zero or below its previous value.
pub fn area_recovery(view: &mut TimingView) -> PassStats {
    let mut stats = PassStats::default();
    let critical_range = view.constraints().critical_range;
    let clock_period = view.constraints().clock_period;
    let before_cps = view.report().cps;
    let slacks = view.slack_map();
    // Downsizing reduces the input capacitance the upstream drivers see, so
    // recovery often *helps* timing; still, the pass never commits a CPS
    // regression. A failed aggressive attempt retries more conservatively.
    for attempt in 0..2 {
        let margin = critical_range.max(0.05) * if attempt == 0 { 4.0 } else { 12.0 };
        let mut attempt_edits: Vec<(usize, String)> = Vec::new();
        for gi in 0..view.design().netlist.gates.len() {
            let design = view.design();
            if design.is_dead(gi) || design.cells[gi].is_empty() {
                continue;
            }
            let out = design.netlist.gates[gi].output;
            let s = slacks.slack(out);
            if s.is_finite() && s > margin {
                if let Some(prev) = view.next_drive(gi, false) {
                    attempt_edits.push((gi, design.cells[gi].clone()));
                    view.resize_cell(gi, prev);
                }
            }
        }
        let after_cps = view.report().cps;
        // Accept when timing did not regress, or when the design still has
        // a very comfortable margin (≥ a quarter period) — the slack-rich
        // regime where trading slack for area is what set_max_area asks.
        let comfortable = 0.25 * clock_period;
        if after_cps + 1e-9 >= before_cps || after_cps >= comfortable {
            stats.resized = attempt_edits.len();
            return stats;
        }
        for (gi, old) in attempt_edits.into_iter().rev() {
            view.resize_cell(gi, old);
        }
    }
    stats
}

/// Next drive variant up (`up = true`) or down of a cell, if any.
pub fn next_drive(library: &Library, cell_name: &str, up: bool) -> Option<String> {
    let cell = library.cell(cell_name)?;
    let variants = library.variants(cell.base_name());
    let pos = variants.iter().position(|c| c.name == cell_name)?;
    let next = if up { pos.checked_add(1)? } else { pos.checked_sub(1)? };
    variants.get(next).map(|c| c.name.clone())
}

/// Buffer balancing: splits nets with more than `max_fanout` sinks into a
/// buffer tree (strongest buffers available), recursively.
pub fn buffer_high_fanout(
    design: &mut MappedDesign,
    library: &Library,
    max_fanout: usize,
) -> PassStats {
    let mut stats = PassStats::default();
    let buf = match library.variants("BUF").last() {
        Some(c) => c.name.clone(),
        None => return stats,
    };
    // The sink map is built once and maintained across splits (a split
    // moves a net's sinks onto the new buffer nets and leaves every other
    // net untouched), so each iteration costs a scan of the net table
    // instead of a full map rebuild.
    let mut sinks = design.sink_map();
    loop {
        let mut worst: Option<(usize, usize)> = None; // (net, fanout)
        for (net, s) in sinks.iter().enumerate() {
            if s.len() > max_fanout && worst.map(|(_, f)| s.len() > f).unwrap_or(true) {
                worst = Some((net, s.len()));
            }
        }
        let (net, _) = match worst {
            Some(w) => w,
            None => break,
        };
        let net_sinks = std::mem::take(&mut sinks[net]);
        let path = design
            .netlist
            .gates
            .get(net_sinks[0].0)
            .map(|g| g.path.clone())
            .unwrap_or_else(|| design.netlist.name.clone());
        // Split sinks into groups; each group gets a buffer.
        for group in net_sinks.chunks(max_fanout) {
            let new_net = design.netlist.add_net(format!(
                "{}$buf{}",
                design.netlist.nets[net].name,
                design.netlist.nets.len()
            ));
            let gate = chatls_verilog::netlist::Gate {
                kind: GateKind::Buf,
                inputs: InputList::from_slice(&[net as u32]),
                output: new_net,
                path: path.clone(),
                reset_value: false,
                async_reset: None,
                enable: None,
                dont_touch: true,
            };
            let buf_gi = design.push_gate(gate, buf.clone());
            stats.added += 1;
            for &(gi, pin) in group {
                design.netlist.gates[gi].inputs[pin] = new_net;
            }
            sinks.push(group.to_vec());
            sinks[net].push((buf_gi, 0));
        }
    }
    stats
}

/// Register retiming (`optimize_registers`): moves the endpoint register of
/// the worst path backward across its driving gate when legal, repeatedly,
/// as long as CPS improves.
///
/// Legality: the driving gate's output must feed only this register bank,
/// the gate's zero-input value must be 0 (reset-state preservation), and —
/// unless `ungrouped` — the gate and register share a module path.
pub fn retime(view: &mut TimingView, ungrouped: bool, max_moves: usize) -> PassStats {
    let mut stats = PassStats::default();
    let dff_cell = match view.library().variants("DFF").first() {
        Some(c) => c.name.clone(),
        None => return stats,
    };
    for _ in 0..max_moves {
        if view.is_cancelled() {
            break;
        }
        let (before_met, before_cps) = {
            let r = view.report();
            (r.met(), r.cps)
        };
        if before_met {
            break;
        }
        let slacks = view.slack_map();
        let design = view.design();
        let driver = design.driver_map();
        let sinks = design.sink_map();
        // Candidate: live DFF with the worst D-pin slack whose driver is a
        // legal comb gate.
        let mut candidate: Option<(usize, usize)> = None; // (dff, gate)
        let mut worst_slack = f64::INFINITY;
        for (gi, gate) in design.netlist.gates.iter().enumerate() {
            if design.is_dead(gi) || !gate.kind.is_sequential() || gate.enable.is_some() {
                continue;
            }
            let d_net = gate.inputs[0];
            let s = slacks.slack(d_net);
            if s >= worst_slack || s >= 0.0 {
                continue;
            }
            let drv = match driver[d_net as usize] {
                Some(d) => d,
                None => continue,
            };
            let drv_gate = &design.netlist.gates[drv];
            let legal_kind = matches!(
                drv_gate.kind,
                GateKind::And | GateKind::Or | GateKind::Xor | GateKind::Buf | GateKind::Mux
            );
            let exclusive = sinks[d_net as usize].len() == 1
                && !design.netlist.outputs.iter().any(|(_, id)| *id == d_net);
            let same_module = ungrouped || drv_gate.path == gate.path;
            if legal_kind && exclusive && same_module {
                worst_slack = s;
                candidate = Some((gi, drv));
            }
        }
        let (dff_i, gate_i) = match candidate {
            Some(c) => c,
            None => break,
        };
        // Apply: register each input of the gate, gate drives old Q directly.
        let snapshot = view.snapshot();
        let comb = view.design().netlist.gates[gate_i].clone();
        let moved_inputs = comb.inputs.len();
        view.with_design_mut(|design| {
            let q_net = design.netlist.gates[dff_i].output;
            let path = design.netlist.gates[dff_i].path.clone();
            let mut new_inputs = Vec::with_capacity(comb.inputs.len());
            for (k, &inp) in comb.inputs.iter().enumerate() {
                let nq = design.netlist.add_net(format!(
                    "{}$ret{}_{k}",
                    design.netlist.nets[q_net as usize].name,
                    design.netlist.nets.len()
                ));
                let dff = chatls_verilog::netlist::Gate {
                    kind: GateKind::Dff,
                    inputs: InputList::from_slice(&[inp]),
                    output: nq,
                    path: path.clone(),
                    reset_value: false,
                    async_reset: None,
                    enable: None,
                    dont_touch: false,
                };
                design.push_gate(dff, dff_cell.clone());
                new_inputs.push(nq);
            }
            design.netlist.gates[gate_i].inputs = new_inputs.into();
            design.netlist.gates[gate_i].output = q_net;
            design.kill(dff_i);
        });
        stats.added += moved_inputs;
        stats.removed += 1;
        let after_cps = view.report().cps;
        if after_cps <= before_cps {
            view.restore(snapshot);
            stats.added = stats.added.saturating_sub(moved_inputs);
            stats.removed = stats.removed.saturating_sub(1);
            break;
        }
    }
    stats
}

/// Clock gating (`insert_clock_gating`): converts the hold-mux idiom
/// `q ← mux(en, q, d)` into an enabled register, deleting the mux.
///
/// Area and D-path delay both improve; the enable-hold behaviour is
/// preserved exactly (the simulator models enabled registers natively).
pub fn insert_clock_gating(design: &mut MappedDesign) -> PassStats {
    let mut stats = PassStats::default();
    let driver = design.driver_map();
    let sinks = design.sink_map();
    for gi in 0..design.netlist.gates.len() {
        if design.is_dead(gi) {
            continue;
        }
        let gate = design.netlist.gates[gi].clone();
        if !gate.kind.is_sequential() || gate.enable.is_some() {
            continue;
        }
        let d_net = gate.inputs[0];
        let mux_i = match driver[d_net as usize] {
            Some(m) => m,
            None => continue,
        };
        let mux = design.netlist.gates[mux_i].clone();
        if mux.kind != GateKind::Mux {
            continue;
        }
        // Hold pattern: mux(sel, q, d) — the "false" leg recirculates Q.
        if mux.inputs[1] != gate.output {
            continue;
        }
        // Mux must feed only this register.
        if sinks[d_net as usize].len() != 1
            || design.netlist.outputs.iter().any(|(_, id)| *id == d_net)
        {
            continue;
        }
        design.netlist.gates[gi].inputs[0] = mux.inputs[2];
        design.netlist.gates[gi].enable = Some(mux.inputs[0]);
        design.kill(mux_i);
        stats.removed += 1;
    }
    stats.merge(sweep(design));
    stats
}

/// Hold fixing (`set_fix_hold`): inserts protected delay buffers in front
/// of register data pins whose fastest path arrives before the hold
/// requirement.
pub fn fix_hold(view: &mut TimingView) -> PassStats {
    let mut stats = PassStats::default();
    let buf = match view.library().variants("BUF").first() {
        Some(c) => c.name.clone(),
        None => return stats,
    };
    for _ in 0..8 {
        if view.is_cancelled() {
            break;
        }
        let violations: Vec<String> = view
            .hold_slacks()
            .iter()
            .filter(|e| e.slack < 0.0)
            .map(|e| e.endpoint.clone())
            .collect();
        if violations.is_empty() {
            break;
        }
        let added = view.with_design_mut(|design| {
            let mut added = 0usize;
            for gi in 0..design.netlist.gates.len() {
                if design.is_dead(gi) || !design.netlist.gates[gi].kind.is_sequential() {
                    continue;
                }
                let q = design.netlist.gates[gi].output;
                let name = format!("{}/D (hold)", design.netlist.nets[q as usize].name);
                if !violations.contains(&name) {
                    continue;
                }
                let d = design.netlist.gates[gi].inputs[0];
                let path = design.netlist.gates[gi].path.clone();
                let new_net = design.netlist.add_net(format!(
                    "{}$hold{}",
                    design.netlist.nets[d as usize].name,
                    design.netlist.nets.len()
                ));
                let gate = chatls_verilog::netlist::Gate {
                    kind: GateKind::Buf,
                    inputs: InputList::from_slice(&[d]),
                    output: new_net,
                    path,
                    reset_value: false,
                    async_reset: None,
                    enable: None,
                    dont_touch: true,
                };
                design.push_gate(gate, buf.clone());
                design.netlist.gates[gi].inputs[0] = new_net;
                added += 1;
            }
            added
        });
        stats.added += added;
        if added == 0 {
            break;
        }
    }
    stats
}

/// `ungroup -all`: dissolves hierarchy by rewriting every gate's module
/// path to the top name, unlocking cross-boundary optimization.
pub fn ungroup_all(design: &mut MappedDesign) -> usize {
    let top = design.netlist.name.clone();
    let mut changed = 0;
    for g in design.netlist.gates.iter_mut() {
        if g.path != top {
            g.path = top.clone();
            changed += 1;
        }
    }
    changed
}

/// Compile effort level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Effort {
    /// `compile -map_effort low`: cleanup only.
    Low,
    /// `compile` (medium): cleanup + 2 sizing rounds.
    Medium,
    /// `compile -map_effort high` / `compile_ultra`: cleanup + fanout
    /// buffering + 5 sizing rounds (+ area recovery under `set_max_area`).
    High,
}

/// The main mapping-and-optimization pipeline behind `compile`.
pub fn compile(view: &mut TimingView, effort: Effort) -> PassStats {
    let mut stats = PassStats::default();
    let library = view.library();
    let max_area = view.constraints().max_area;
    stats.merge(view.with_design_mut(|design| {
        let mut s = const_propagate(design, library);
        s.merge(strash(design));
        s.merge(absorb_inverters(design, library));
        s.merge(strash(design));
        s
    }));
    match effort {
        Effort::Low => {}
        Effort::Medium => {
            stats.merge(size_cells(view, 2));
        }
        Effort::High => {
            // Size first (structural hashing trades fanout for area, so the
            // netlist usually needs drive repair), then try buffering, then
            // size again around the new trees.
            stats.merge(size_cells(view, 3));
            // Fanout buffering is only kept when it helps the clock: blind
            // buffer trees on met designs would add delay for nothing.
            let snapshot = view.snapshot();
            let before_cps = view.report().cps;
            let buf_stats = view.with_design_mut(|design| buffer_high_fanout(design, library, 12));
            let after_cps = view.report().cps;
            if after_cps < before_cps {
                view.restore(snapshot);
            } else {
                stats.merge(buf_stats);
            }
            stats.merge(size_cells(view, 3));
            if max_area.is_some() {
                stats.merge(area_recovery(view));
            }
        }
    }
    stats.merge(view.with_design_mut(sweep));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::{qor, Constraints};
    use chatls_liberty::nangate45;
    use chatls_verilog::netlist::Simulator;
    use chatls_verilog::{lower_to_netlist, parse};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn map(src: &str, top: &str) -> MappedDesign {
        let sf = parse(src).unwrap();
        let nl = lower_to_netlist(&sf, top).unwrap();
        MappedDesign::map(nl, &nangate45()).unwrap()
    }

    fn cons(period: f64) -> Constraints {
        Constraints { clock_period: period, ..Constraints::default() }
    }

    /// Runs a timing-driven pass through a throwaway graph + view.
    fn with_view<R>(
        d: &mut MappedDesign,
        lib: &Library,
        c: &Constraints,
        f: impl FnOnce(&mut TimingView) -> R,
    ) -> R {
        let mut g = crate::timing_graph::TimingGraph::new();
        let mut view = TimingView::new(d, &mut g, lib, c);
        f(&mut view)
    }

    /// Collects outputs over random stimulus for equivalence checking.
    fn signature(design: &MappedDesign, seed: u64, cycles: usize) -> Vec<u64> {
        let mut d = design.clone();
        d.compact();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = Simulator::new(&d.netlist);
        let ports: Vec<String> = {
            let mut p: Vec<String> = d
                .netlist
                .inputs
                .iter()
                .map(|(n, _)| n.split('[').next().unwrap_or(n).to_string())
                .collect();
            p.sort();
            p.dedup();
            p
        };
        let out_ports: Vec<String> = {
            let mut p: Vec<String> = d
                .netlist
                .outputs
                .iter()
                .map(|(n, _)| n.split('[').next().unwrap_or(n).to_string())
                .collect();
            p.sort();
            p.dedup();
            p
        };
        let mut sig = Vec::new();
        for _ in 0..cycles {
            for port in &ports {
                sim.set_input_u64(port, rng.gen());
            }
            sim.step().unwrap();
            sim.settle().unwrap();
            for port in &out_ports {
                sig.push(sim.output_u64(port));
            }
        }
        sig
    }

    const ALU_SRC: &str =
        "module alu(input clk, input [7:0] a, b, input [1:0] op, output reg [7:0] y);
        wire [7:0] r;
        assign r = (op == 2'd0) ? a + b :
                   (op == 2'd1) ? a - b :
                   (op == 2'd2) ? (a & b) : (a ^ b);
        always @(posedge clk) y <= r;
    endmodule";

    #[test]
    fn sweep_preserves_function() {
        let mut d = map(ALU_SRC, "alu");
        let before = signature(&d, 1, 30);
        let stats = sweep(&mut d);
        assert!(stats.removed > 0, "lowering emits buffers; sweep must remove some");
        assert_eq!(signature(&d, 1, 30), before);
        d.compact();
        d.netlist.check().unwrap();
    }

    #[test]
    fn const_propagate_preserves_function_and_shrinks() {
        let mut d = map(
            "module c(input clk, input [3:0] a, output reg [3:0] y);
                always @(posedge clk) y <= (a & 4'hF) | (a & 4'h0) ^ (4'b0101 & 4'b0011);
            endmodule",
            "c",
        );
        let lib = nangate45();
        let before_sig = signature(&d, 2, 30);
        let before_gates = d.live_gates();
        const_propagate(&mut d, &lib);
        assert!(d.live_gates() < before_gates);
        assert_eq!(signature(&d, 2, 30), before_sig);
    }

    #[test]
    fn sizing_improves_failing_timing() {
        let mut d = map(
            "module m(input clk, input [7:0] a, b, output reg [7:0] q);
                always @(posedge clk) q <= a * b;
            endmodule",
            "m",
        );
        let lib = nangate45();
        let c = cons(1.2);
        sweep(&mut d);
        let before = qor(&d, &lib, &c);
        let sig = signature(&d, 3, 20);
        with_view(&mut d, &lib, &c, |v| size_cells(v, 5));
        let after = qor(&d, &lib, &c);
        assert!(after.cps > before.cps, "sizing must help: {} -> {}", before.cps, after.cps);
        assert!(after.area > before.area, "upsizing costs area");
        assert_eq!(signature(&d, 3, 20), sig);
    }

    #[test]
    fn buffer_balancing_improves_high_fanout_timing() {
        // One input fans out to 64 XOR gates -> heavy wireload.
        let mut src = String::from(
            "module f(input clk, input a, input [63:0] b, output reg [63:0] q);\n wire [63:0] w;\n",
        );
        src.push_str("assign w = b ^ {64{a}};\n");
        src.push_str("always @(posedge clk) q <= w;\nendmodule");
        let mut d = map(&src, "f");
        let lib = nangate45();
        let c = cons(0.8);
        sweep(&mut d);
        let before = qor(&d, &lib, &c);
        let sig = signature(&d, 4, 10);
        let stats = buffer_high_fanout(&mut d, &lib, 12);
        assert!(stats.added > 0);
        let after = qor(&d, &lib, &c);
        assert!(
            after.cps > before.cps,
            "buffering must reduce fanout delay: {} -> {}",
            before.cps,
            after.cps
        );
        assert_eq!(signature(&d, 4, 10), sig);
        d.compact();
        d.netlist.check().unwrap();
    }

    #[test]
    fn retime_moves_register_and_improves_cps() {
        // Unbalanced pipeline: deep logic before the register, nothing after.
        let mut d = map(
            "module r(input clk, input [15:0] a, b, output reg [15:0] q);
                always @(posedge clk) q <= (a + b) + (a ^ b) + (a & b);
            endmodule",
            "r",
        );
        let lib = nangate45();
        let c = cons(0.45);
        sweep(&mut d);
        let before = qor(&d, &lib, &c);
        assert!(before.cps < 0.0, "test needs a violating start: {}", before.cps);
        let stats = with_view(&mut d, &lib, &c, |v| retime(v, false, 64));
        let after = qor(&d, &lib, &c);
        assert!(stats.added > 0, "retime should move registers");
        assert!(after.cps > before.cps, "retime must help: {} -> {}", before.cps, after.cps);
        d.compact();
        d.netlist.check().unwrap();
    }

    #[test]
    fn retime_respects_module_boundaries_unless_ungrouped() {
        let src = "module stage(input [15:0] x, output [15:0] y);
                assign y = (x + 16'd7) * 16'd3;
            endmodule
            module top(input clk, input [15:0] a, output reg [15:0] q);
                wire [15:0] w;
                stage u_s (.x(a), .y(w));
                always @(posedge clk) q <= w;
            endmodule";
        let lib = nangate45();
        let c = cons(0.4);
        let mut grouped = map(src, "top");
        sweep(&mut grouped);
        let g_stats = with_view(&mut grouped, &lib, &c, |v| retime(v, false, 16));
        let mut ungrouped = map(src, "top");
        sweep(&mut ungrouped);
        ungroup_all(&mut ungrouped);
        let u_stats = with_view(&mut ungrouped, &lib, &c, |v| retime(v, true, 16));
        // Grouped: the worst path's driver lives in u_s, so no move.
        assert_eq!(g_stats.added, 0, "must not retime across a module boundary");
        assert!(u_stats.added > 0, "ungrouped retime should move registers");
    }

    #[test]
    fn clock_gating_removes_hold_muxes() {
        let mut d = map(
            "module g(input clk, en, input [7:0] dIn, output reg [7:0] q);
                always @(posedge clk) if (en) q <= dIn;
            endmodule",
            "g",
        );
        let lib = nangate45();
        sweep(&mut d);
        let sig = signature(&d, 5, 40);
        let before_area = d.area(&lib);
        let stats = insert_clock_gating(&mut d);
        assert_eq!(stats.removed, 8, "one hold mux per bit");
        assert!(d.area(&lib) < before_area);
        assert_eq!(signature(&d, 5, 40), sig, "enable-hold behaviour must be preserved");
    }

    #[test]
    fn compile_high_beats_compile_low_on_timing() {
        let lib = nangate45();
        let c = cons(1.0);
        let mut low = map(ALU_SRC, "alu");
        with_view(&mut low, &lib, &c, |v| compile(v, Effort::Low));
        let mut high = map(ALU_SRC, "alu");
        with_view(&mut high, &lib, &c, |v| compile(v, Effort::High));
        let q_low = qor(&low, &lib, &c);
        let q_high = qor(&high, &lib, &c);
        assert!(
            q_high.cps >= q_low.cps,
            "high effort never worse: {} vs {}",
            q_high.cps,
            q_low.cps
        );
    }

    #[test]
    fn area_recovery_reduces_area_when_slack_rich() {
        let mut d = map(ALU_SRC, "alu");
        let lib = nangate45();
        let c = Constraints { max_area: Some(0.0), ..cons(20.0) };
        sweep(&mut d);
        // Upsize everything first so recovery has something to reclaim.
        for (gi, cell) in d.cells.clone().iter().enumerate() {
            if let Some(up) = next_drive(&lib, cell, true) {
                d.cells[gi] = up;
            }
        }
        let before = d.area(&lib);
        let sig = signature(&d, 6, 20);
        with_view(&mut d, &lib, &c, area_recovery);
        assert!(d.area(&lib) < before, "recovery must reclaim area");
        assert_eq!(signature(&d, 6, 20), sig);
        assert!(qor(&d, &lib, &c).cps >= 0.0);
    }

    #[test]
    fn ungroup_rewrites_paths() {
        let mut d = map(
            "module sub(input x, output y); assign y = ~x; endmodule
             module top(input a, output z); sub u (.x(a), .y(z)); endmodule",
            "top",
        );
        assert!(d.netlist.gates.iter().any(|g| g.path == "top/u"));
        ungroup_all(&mut d);
        assert!(d.netlist.gates.iter().all(|g| g.path == "top" || g.path == "$const"));
    }
}

#[cfg(test)]
mod strash_reference;

#[cfg(test)]
mod strash_tests {
    use super::*;
    use chatls_liberty::nangate45;
    use chatls_verilog::{lower_to_netlist, parse};

    fn map(src: &str, top: &str) -> MappedDesign {
        let sf = parse(src).unwrap();
        let nl = lower_to_netlist(&sf, top).unwrap();
        MappedDesign::map(nl, &nangate45()).unwrap()
    }

    #[test]
    fn merges_duplicate_subexpressions() {
        // a+b lowered twice: once per output. strash folds the adders.
        let mut d = map(
            "module m(input [7:0] a, b, output [7:0] y1, y2);
                assign y1 = (a + b) ^ 8'h55;
                assign y2 = (a + b) ^ 8'hAA;
            endmodule",
            "m",
        );
        sweep(&mut d);
        let before = d.live_gates();
        let stats = strash(&mut d);
        assert!(stats.removed > 10, "two identical adders must fold, removed {}", stats.removed);
        assert!(d.live_gates() < before);
        d.compact();
        d.netlist.check().unwrap();
    }

    #[test]
    fn commutative_inputs_fold_regardless_of_order() {
        let mut nl = chatls_verilog::netlist::Netlist::new("t");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        let z = nl.add_net("z");
        nl.inputs.extend([("a".into(), a), ("b".into(), b)]);
        nl.outputs.push(("z".into(), z));
        nl.add_gate(GateKind::And, &[a, b], x, "t");
        nl.add_gate(GateKind::And, &[b, a], y, "t");
        nl.add_gate(GateKind::Xor, &[x, y], z, "t");
        let lib = nangate45();
        let mut d = MappedDesign::map(nl, &lib).unwrap();
        let stats = strash(&mut d);
        assert_eq!(stats.removed, 1, "AND(a,b) == AND(b,a)");
        // z = x ^ x = 0 afterwards; const-prop would finish the job.
    }

    #[test]
    fn preserves_function_on_multiplier() {
        use chatls_verilog::netlist::Simulator;
        let mut d = map(
            "module m(input [4:0] a, b, output [9:0] p1, output [9:0] p2);
                assign p1 = a * b;
                assign p2 = a * b;
            endmodule",
            "m",
        );
        sweep(&mut d);
        strash(&mut d);
        d.compact();
        d.netlist.check().unwrap();
        for (a, b) in [(3u64, 7u64), (31, 31), (0, 19), (25, 13)] {
            let mut sim = Simulator::new(&d.netlist);
            sim.set_input_u64("a", a);
            sim.set_input_u64("b", b);
            sim.settle().unwrap();
            assert_eq!(sim.output_u64("p1"), a * b);
            assert_eq!(sim.output_u64("p2"), a * b);
        }
    }
}

#[cfg(test)]
mod absorb_tests {
    use super::*;
    use crate::sta::{qor, Constraints};
    use chatls_liberty::nangate45;
    use chatls_verilog::netlist::Simulator;
    use chatls_verilog::{lower_to_netlist, parse};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn map(src: &str, top: &str) -> MappedDesign {
        let sf = parse(src).unwrap();
        let nl = lower_to_netlist(&sf, top).unwrap();
        MappedDesign::map(nl, &nangate45()).unwrap()
    }

    fn signature(design: &MappedDesign, seed: u64, cycles: usize) -> Vec<u64> {
        let mut d = design.clone();
        d.compact();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = Simulator::new(&d.netlist);
        let in_ports: Vec<String> = {
            let mut p: Vec<String> = d
                .netlist
                .inputs
                .iter()
                .map(|(n, _)| n.split('[').next().unwrap_or(n).to_string())
                .collect();
            p.sort();
            p.dedup();
            p
        };
        let out_ports: Vec<String> = {
            let mut p: Vec<String> = d
                .netlist
                .outputs
                .iter()
                .map(|(n, _)| n.split('[').next().unwrap_or(n).to_string())
                .collect();
            p.sort();
            p.dedup();
            p
        };
        let mut sig = Vec::new();
        for _ in 0..cycles {
            for port in &in_ports {
                sim.set_input_u64(port, rng.gen());
            }
            sim.step().unwrap();
            sim.settle().unwrap();
            for port in &out_ports {
                sig.push(sim.output_u64(port));
            }
        }
        sig
    }

    #[test]
    fn absorbs_not_of_and_into_nand() {
        // eq comparison lowers to XOR tree + OR reduce + NOT: absorption food.
        let mut d = map("module m(input [7:0] a, b, output y); assign y = a == b; endmodule", "m");
        let lib = nangate45();
        sweep(&mut d);
        let sig = signature(&d, 1, 40);
        let before = d.live_gates();
        let stats = absorb_inverters(&mut d, &lib);
        assert!(stats.removed > 0, "equality logic must offer merges");
        assert!(d.live_gates() < before);
        assert!(d
            .cells
            .iter()
            .any(|c| c.starts_with("NOR2") || c.starts_with("NAND2") || c.starts_with("XNOR2")));
        assert_eq!(signature(&d, 1, 40), sig);
        d.compact();
        d.netlist.check().unwrap();
    }

    #[test]
    fn absorption_reduces_area_and_never_hurts_delay_shape() {
        let lib = nangate45();
        let constraints = Constraints { clock_period: 2.0, ..Constraints::default() };
        let mut d = map(
            "module m(input clk, input [7:0] a, b, output reg ok);
                always @(posedge clk) ok <= (a == b) || (a + b == 8'd9);
            endmodule",
            "m",
        );
        sweep(&mut d);
        let before = qor(&d, &lib, &constraints);
        let sig = signature(&d, 2, 30);
        absorb_inverters(&mut d, &lib);
        let after = qor(&d, &lib, &constraints);
        assert!(after.area < before.area, "{} -> {}", before.area, after.area);
        assert!(after.cps >= before.cps - 1e-9, "{} -> {}", before.cps, after.cps);
        assert_eq!(signature(&d, 2, 30), sig);
    }

    #[test]
    fn double_inverter_collapses() {
        let mut d = map(
            "module m(input a, output y); wire t; assign t = ~a; assign y = ~t; endmodule",
            "m",
        );
        let lib = nangate45();
        sweep(&mut d);
        let sig = signature(&d, 3, 10);
        absorb_inverters(&mut d, &lib);
        sweep(&mut d);
        d.compact();
        assert_eq!(signature(&d, 3, 10), sig);
        assert!(
            !d.netlist.gates.iter().any(|g| g.kind == GateKind::Not),
            "both inverters must be gone"
        );
    }

    #[test]
    fn keeps_inner_gate_with_multiple_sinks() {
        // y1 = a&b, y2 = ~(a&b): the AND has fanout 2 and must survive.
        let mut d = map(
            "module m(input a, b, output y1, y2);
                wire t;
                assign t = a & b;
                assign y1 = t;
                assign y2 = ~t;
            endmodule",
            "m",
        );
        let lib = nangate45();
        sweep(&mut d);
        let sig = signature(&d, 4, 10);
        absorb_inverters(&mut d, &lib);
        assert_eq!(signature(&d, 4, 10), sig);
    }
}
