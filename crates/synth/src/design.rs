//! A technology-mapped design: gate netlist + library cell assignment.

use chatls_liberty::Library;
use chatls_verilog::netlist::{Gate, GateKind, InputList, NetId, Netlist};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error produced by mapping or optimization passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesisError {
    /// Description.
    pub message: String,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "synthesis error: {}", self.message)
    }
}

impl Error for SynthesisError {}

pub(crate) fn serr(m: impl Into<String>) -> SynthesisError {
    SynthesisError { message: m.into() }
}

/// [`MappedDesign::cells`] entry of a gate with no library cell (constants).
pub const NO_CELL: u32 = u32::MAX;

/// Library cell base name for each primitive gate kind; `None` for
/// zero-area pseudo-cells (constants).
pub fn base_cell_for(kind: GateKind) -> Option<&'static str> {
    match kind {
        GateKind::Const0 | GateKind::Const1 => None,
        GateKind::Buf => Some("BUF"),
        GateKind::Not => Some("INV"),
        GateKind::And => Some("AND2"),
        GateKind::Or => Some("OR2"),
        GateKind::Xor => Some("XOR2"),
        GateKind::Nand => Some("NAND2"),
        GateKind::Nor => Some("NOR2"),
        GateKind::Xnor => Some("XNOR2"),
        GateKind::Mux => Some("MUX2"),
        GateKind::Dff => Some("DFF"),
    }
}

/// A mapped design: the netlist plus a library cell per gate.
///
/// `cells[i]` is the [`Library::cell_id`] of the cell implementing
/// `netlist.gates[i]`, or [`NO_CELL`] for constants. Ids are resolved once,
/// when a gate gets its cell, and index the library the design was mapped
/// with; every analysis of the design must pass that library.
/// Optimization passes mutate gates and cells in lock step;
/// [`MappedDesign::compact`] removes tombstoned gates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappedDesign {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Library cell id per gate (parallel to `netlist.gates`).
    pub cells: Vec<u32>,
    /// Tombstones: dead gates awaiting [`MappedDesign::compact`].
    dead: Vec<bool>,
}

impl MappedDesign {
    /// Maps every gate onto the lowest-drive variant of its base cell.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] if the library lacks a needed base cell.
    pub fn map(netlist: Netlist, library: &Library) -> Result<Self, SynthesisError> {
        // One library lookup per gate kind, not per gate.
        let mut by_kind: Vec<(GateKind, u32)> = Vec::new();
        let mut cells = Vec::with_capacity(netlist.gates.len());
        for gate in &netlist.gates {
            let id = match by_kind.iter().find(|(kind, _)| *kind == gate.kind) {
                Some(&(_, id)) => id,
                None => {
                    let id = match base_cell_for(gate.kind) {
                        None => NO_CELL,
                        Some(base) => library.variant_id(base, false).ok_or_else(|| {
                            serr(format!("library has no cell for base '{base}'"))
                        })?,
                    };
                    by_kind.push((gate.kind, id));
                    id
                }
            };
            cells.push(id);
        }
        let dead = vec![false; netlist.gates.len()];
        Ok(Self { netlist, cells, dead })
    }

    /// Number of live gates.
    pub fn live_gates(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// True if gate `i` is tombstoned.
    pub fn is_dead(&self, i: usize) -> bool {
        self.dead[i]
    }

    /// Tombstones gate `i`.
    pub fn kill(&mut self, i: usize) {
        self.dead[i] = true;
    }

    /// Appends a gate with a cell assignment; returns its index.
    pub fn push_gate(&mut self, gate: Gate, cell: u32) -> usize {
        self.netlist.gates.push(gate);
        self.cells.push(cell);
        self.dead.push(false);
        self.netlist.gates.len() - 1
    }

    /// Total cell area in µm² (live gates only).
    pub fn area(&self, library: &Library) -> f64 {
        self.netlist
            .gates
            .iter()
            .zip(&self.cells)
            .zip(&self.dead)
            .filter(|(_, &dead)| !dead)
            .map(|((_, &cell), _)| library.cell_by_id(cell).map_or(0.0, |c| c.area))
            .sum()
    }

    /// Total leakage power (relative units, live gates only).
    pub fn leakage(&self, library: &Library) -> f64 {
        self.netlist
            .gates
            .iter()
            .zip(&self.cells)
            .zip(&self.dead)
            .filter(|(_, &dead)| !dead)
            .map(|((_, &cell), _)| library.cell_by_id(cell).map_or(0.0, |c| c.leakage))
            .sum()
    }

    /// Removes tombstoned gates, keeping nets untouched.
    pub fn compact(&mut self) {
        let mut gates = Vec::with_capacity(self.live_gates());
        let mut cells = Vec::with_capacity(self.live_gates());
        for ((gate, cell), &dead) in
            self.netlist.gates.drain(..).zip(self.cells.drain(..)).zip(&self.dead)
        {
            if !dead {
                gates.push(gate);
                cells.push(cell);
            }
        }
        self.netlist.gates = gates;
        self.cells = cells;
        self.dead = vec![false; self.netlist.gates.len()];
    }

    /// Map from net id to the (live) gate index driving it.
    pub fn driver_map(&self) -> Vec<Option<usize>> {
        let mut map = vec![None; self.netlist.nets.len()];
        for (i, g) in self.netlist.gates.iter().enumerate() {
            if !self.dead[i] {
                map[g.output as usize] = Some(i);
            }
        }
        map
    }

    /// Map from net id to `(gate index, input pin position)` of live sinks.
    ///
    /// One heap block per net, so no pass calls it: passes count sinks with
    /// [`Self::fanout_counts`] and gather the pins they need into flat
    /// tables. It stays as the plain reference the tests check those
    /// against (and the buffer split's reference copy reads).
    pub fn sink_map(&self) -> Vec<Vec<(usize, usize)>> {
        let mut map = vec![Vec::new(); self.netlist.nets.len()];
        for (i, g) in self.netlist.gates.iter().enumerate() {
            if self.dead[i] {
                continue;
            }
            for (pin, &inp) in g.inputs.iter().enumerate() {
                map[inp as usize].push((i, pin));
            }
        }
        map
    }

    /// Live sink pins per net: the length of each [`Self::sink_map`] list,
    /// without building the lists. Data pins only, as buffering moves only
    /// data pins; a check that a net has a single reader uses
    /// [`Self::reader_counts`].
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.netlist.nets.len()];
        for (i, g) in self.netlist.gates.iter().enumerate() {
            if !self.dead[i] {
                for &inp in &g.inputs {
                    counts[inp as usize] += 1;
                }
            }
        }
        counts
    }

    /// Live reader pins per net: data pins plus register `enable` and
    /// `async_reset` pins. A pass that deletes or moves a net's driver
    /// because one gate reads it checks this count, so a register that
    /// gates on the net keeps its driver.
    pub fn reader_counts(&self) -> Vec<u32> {
        let mut counts = self.fanout_counts();
        for (i, g) in self.netlist.gates.iter().enumerate() {
            if !self.dead[i] {
                for net in g.enable.into_iter().chain(g.async_reset) {
                    counts[net as usize] += 1;
                }
            }
        }
        counts
    }

    /// Per-net load in fF: sink pin capacitances plus wireload.
    ///
    /// `wire_load` may be `None` to model ideal wires.
    ///
    /// Walks the gates once instead of materializing a sink map, adding
    /// each live gate's input-pin caps to the nets it reads. Per net, the
    /// additions land in (gate index, pin) order, then the primary-output
    /// load, then the wireload term — the order the incremental timing
    /// graph re-sums a net in, so both produce the same bits.
    pub fn net_loads(&self, library: &Library, wire_load: Option<&str>) -> Vec<f64> {
        let wlm = wire_load.and_then(|w| library.wire_load(w));
        let nets = self.netlist.nets.len();
        let mut loads = vec![0.0f64; nets];
        let mut fanout = vec![0u32; nets];
        // DFF data pin is inputs[0]; clock pin load is implicit.
        for (gi, gate) in self.netlist.gates.iter().enumerate() {
            if self.dead[gi] {
                continue;
            }
            for (pin, &inp) in gate.inputs.iter().enumerate() {
                fanout[inp as usize] += 1;
                if let Some(c) = library.input_cap(self.cells[gi], pin) {
                    loads[inp as usize] += c;
                }
            }
        }
        // A primary output adds one standard load (once per net, even if
        // several output ports alias the same net).
        let mut is_po = vec![false; nets];
        for (_, id) in &self.netlist.outputs {
            if !is_po[*id as usize] {
                is_po[*id as usize] = true;
                fanout[*id as usize] += 1;
                loads[*id as usize] += 2.0;
            }
        }
        if let Some(w) = wlm {
            for (net, &f) in fanout.iter().enumerate() {
                if f > 0 {
                    loads[net] += w.wire_cap(f);
                }
            }
        }
        loads
    }
}

/// Lists keyed by a dense index (a net, a gate), stored flat: one item
/// array plus where each list starts, so a table of a hundred thousand
/// lists is two allocations, not one per list. Refilling reuses both
/// buffers, so a table kept across rebuilds allocates only when the design
/// has grown.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatLists<T> {
    /// List `k` is `items[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> FlatLists<T> {
    /// Refills the table with `lists` lists from the `(list, item)` pairs
    /// `pairs()` yields. It is called twice, once to size the lists and
    /// once to place the items, so it must yield the same pairs both
    /// times; each list keeps its items in yield order.
    pub(crate) fn refill<I>(&mut self, lists: usize, pairs: impl Fn() -> I)
    where
        I: Iterator<Item = (usize, T)>,
    {
        // `starts[k + 2]` counts list `k`. After the running sum,
        // `starts[k + 1]` is where list `k` begins; placing an item
        // advances it, so that it ends where list `k + 1` begins.
        self.starts.clear();
        self.starts.resize(lists + 2, 0);
        for (k, _) in pairs() {
            self.starts[k + 2] += 1;
        }
        for k in 2..lists + 2 {
            self.starts[k] += self.starts[k - 1];
        }
        self.items.clear();
        self.items.resize(self.starts[lists + 1] as usize, T::default());
        for (k, item) in pairs() {
            let at = &mut self.starts[k + 1];
            self.items[*at as usize] = item;
            *at += 1;
        }
        self.starts.pop();
    }

    /// List `k`.
    pub(crate) fn get(&self, k: usize) -> &[T] {
        &self.items[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

/// A journaled edit of a [`MappedDesign`]: reads, plus exactly the edits
/// trial bodies make, each recorded so that a rollback can undo the lot
/// without the design ever having been copied. Trial bodies get one from
/// [`crate::TimingView::trial`].
///
/// Appended nets and gates are undone by truncating the net names,
/// `gates`, `cells` and the dead flags to their lengths when the journal
/// opened. An in-place edit of a gate that existed then (a rewired pin,
/// new inputs and output, a kill) first saves a copy of that gate and its
/// dead flag; rollback replays the saves in reverse. The journal holds the
/// design's only mutable borrow, so an edit cannot bypass it. Dropping the
/// journal keeps the edits.
#[derive(Debug)]
pub struct EditJournal<'a> {
    design: &'a mut MappedDesign,
    gates_mark: usize,
    nets_mark: usize,
    /// `(index, gate, dead flag)` of each pre-existing gate before an edit.
    saved: Vec<(usize, Gate, bool)>,
}

impl<'a> EditJournal<'a> {
    /// Opens a journal over `design` in its current state.
    pub(crate) fn new(design: &'a mut MappedDesign) -> Self {
        let gates_mark = design.netlist.gates.len();
        let nets_mark = design.netlist.nets.len();
        Self { design, gates_mark, nets_mark, saved: Vec::new() }
    }

    /// The design with every edit so far applied.
    pub fn design(&self) -> &MappedDesign {
        self.design
    }

    /// Saves gate `gi` and its dead flag if it predates the journal; gates
    /// the journal appended are truncated away instead.
    fn save(&mut self, gi: usize) {
        if gi < self.gates_mark {
            self.saved.push((gi, self.design.netlist.gates[gi], self.design.dead[gi]));
        }
    }

    /// Adds a net ([`Netlist::add_net`]); returns its id.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        self.design.netlist.add_net(name)
    }

    /// Appends a gate ([`MappedDesign::push_gate`]); returns its index.
    pub fn push_gate(&mut self, gate: Gate, cell: u32) -> usize {
        self.design.push_gate(gate, cell)
    }

    /// Rewires input `pin` of gate `gi` to `net`.
    pub fn rewire_input(&mut self, gi: usize, pin: usize, net: NetId) {
        self.save(gi);
        self.design.netlist.gates[gi].inputs[pin] = net;
    }

    /// Replaces gate `gi`'s inputs and output net.
    pub fn rewire_gate(&mut self, gi: usize, inputs: InputList, output: NetId) {
        self.save(gi);
        let gate = &mut self.design.netlist.gates[gi];
        gate.inputs = inputs;
        gate.output = output;
    }

    /// Tombstones gate `gi` ([`MappedDesign::kill`]).
    pub fn kill(&mut self, gi: usize) {
        self.save(gi);
        self.design.kill(gi);
    }

    /// Undoes every edit: the design equals its state when the journal
    /// opened.
    pub(crate) fn rollback(self) {
        let design = self.design;
        for &(gi, gate, dead) in self.saved.iter().rev() {
            design.netlist.gates[gi] = gate;
            design.dead[gi] = dead;
        }
        design.netlist.gates.truncate(self.gates_mark);
        design.cells.truncate(self.gates_mark);
        design.dead.truncate(self.gates_mark);
        design.netlist.nets.truncate(self.nets_mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatls_liberty::nangate45;
    use chatls_verilog::{lower_to_netlist, parse};

    fn small() -> MappedDesign {
        let sf = parse(
            "module m(input a, b, clk, output reg q);
                wire w;
                assign w = a ^ b;
                always @(posedge clk) q <= w;
            endmodule",
        )
        .unwrap();
        let nl = lower_to_netlist(&sf, "m").unwrap();
        MappedDesign::map(nl, &nangate45()).unwrap()
    }

    /// Cell names per gate, `""` for constants.
    fn names(d: &MappedDesign, lib: &Library) -> Vec<String> {
        d.cells
            .iter()
            .map(|&c| lib.cell_by_id(c).map_or(String::new(), |c| c.name.clone()))
            .collect()
    }

    #[test]
    fn maps_to_x1_variants() {
        let d = small();
        let names = names(&d, &nangate45());
        assert!(names.iter().all(|c| c.is_empty() || c.ends_with("_X1")));
        assert!(names.iter().any(|c| c == "XOR2_X1"));
        assert!(names.iter().any(|c| c == "DFF_X1"));
        // Constants, and only constants, have no cell.
        for (gate, &cell) in d.netlist.gates.iter().zip(&d.cells) {
            assert_eq!(cell == NO_CELL, base_cell_for(gate.kind).is_none());
        }
    }

    #[test]
    fn area_positive_and_additive() {
        let lib = nangate45();
        let mut d = small();
        let a1 = d.area(&lib);
        assert!(a1 > 0.0);
        // Killing a gate reduces area.
        let victim = names(&d, &lib).iter().position(|c| c == "XOR2_X1").unwrap();
        d.kill(victim);
        assert!(d.area(&lib) < a1);
    }

    #[test]
    fn compact_removes_dead() {
        let mut d = small();
        let before = d.netlist.gates.len();
        d.kill(0);
        d.compact();
        assert_eq!(d.netlist.gates.len(), before - 1);
        assert_eq!(d.cells.len(), before - 1);
    }

    #[test]
    fn net_loads_grow_with_fanout() {
        let lib = nangate45();
        let sf = parse(
            "module f(input a, output [7:0] y);
                assign y = {8{a}} ^ 8'hA5;
            endmodule",
        )
        .unwrap();
        let nl = lower_to_netlist(&sf, "f").unwrap();
        let d = MappedDesign::map(nl, &lib).unwrap();
        let loads = d.net_loads(&lib, Some("5K_heavy_1k"));
        let sinks = d.sink_map();
        // The net for `a` has high fanout; find it and a low-fanout net.
        let a_net = d.netlist.inputs[0].1 as usize;
        let max_load = loads[a_net];
        let low = sinks
            .iter()
            .enumerate()
            .find(|(_, s)| s.len() == 1)
            .map(|(n, _)| loads[n])
            .unwrap_or(0.0);
        assert!(max_load > low, "fanout load {max_load} should exceed single-sink load {low}");
    }

    #[test]
    fn flat_lists_keep_yield_order_and_refill_in_place() {
        let mut table = FlatLists::default();
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (3, 'd'), (0, 'e')];
        table.refill(4, || pairs.iter().copied());
        let lists: Vec<Vec<char>> = (0..4).map(|k| table.get(k).to_vec()).collect();
        assert_eq!(lists, [vec!['b', 'e'], vec![], vec!['a', 'c'], vec!['d']]);
        table.refill(2, || [(1, 'x')].into_iter());
        assert_eq!((table.get(0), table.get(1)), (&[][..], &['x'][..]));
    }

    #[test]
    fn fanout_counts_match_sink_map_on_every_catalog_design() {
        let lib = nangate45();
        let catalog =
            chatls_designs::benchmarks().into_iter().chain(chatls_designs::database_designs());
        for design in catalog {
            let mut d = MappedDesign::map(design.netlist(), &lib).unwrap();
            // Once as mapped, once with the buffers and dead logic a sweep
            // tombstones.
            for swept in [false, true] {
                if swept {
                    crate::passes::sweep(&mut d);
                }
                let lens: Vec<u32> = d.sink_map().iter().map(|s| s.len() as u32).collect();
                assert_eq!(d.fanout_counts(), lens, "{} (swept: {swept})", design.name);
            }
        }
    }

    #[test]
    fn wireload_none_reduces_load() {
        let lib = nangate45();
        let d = small();
        let with = d.net_loads(&lib, Some("5K_heavy_1k"));
        let without = d.net_loads(&lib, None);
        let sum_with: f64 = with.iter().sum();
        let sum_without: f64 = without.iter().sum();
        assert!(sum_with > sum_without);
    }
}
