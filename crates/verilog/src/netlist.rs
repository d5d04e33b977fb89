//! Gate-level netlist: the output of RTL lowering and the input to the
//! simulated synthesis tool.
//!
//! A [`Netlist`] is a flat sea of two-input gates, inverters, 2:1 muxes and
//! D flip-flops connected by single-bit nets. Every gate records the
//! hierarchical instance path it was lowered from, which the synthesis tool
//! uses for per-module reporting and which CircuitMentor uses to tie timing
//! paths back to source modules.
//!
//! Names live in per-netlist tables, not in the records that use them: net
//! names in one flat [`NetNames`] buffer, module paths in
//! [`Netlist::paths`], which each [`Gate`] indexes by [`PathId`]. A gate is
//! therefore a plain `Copy` record, and copying or dropping a netlist is a
//! handful of buffer copies or frees whatever its size. The serde form is
//! the per-record one all the same: nets as `{"name": …}` objects, gates
//! with their path strings.
//!
//! The module also contains a small event-free functional simulator
//! ([`Netlist::eval_comb`] / [`Simulator`]) used by tests to prove that
//! optimization passes preserve functionality.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Index of a net within a [`Netlist`].
pub type NetId = u32;

/// Index of a gate within a [`Netlist`].
pub type GateId = u32;

/// Primitive gate kinds produced by RTL lowering.
///
/// Technology mapping in the synthesis crate maps these onto library cells;
/// until then delay/area are abstract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Constant 0 driver (no inputs).
    Const0,
    /// Constant 1 driver (no inputs).
    Const1,
    /// Buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input XOR.
    Xor,
    /// 2-input NAND (introduced by the mapper's inverter absorption; RTL
    /// lowering never emits it).
    Nand,
    /// 2-input NOR (mapper-introduced).
    Nor,
    /// 2-input XNOR (mapper-introduced).
    Xnor,
    /// 2:1 multiplexer; inputs are `[sel, a, b]`, output is `sel ? b : a`.
    Mux,
    /// D flip-flop; inputs are `[d]` or `[d, reset]`.
    ///
    /// The reset, when present, is asynchronous and drives the register to
    /// its `reset_value` (encoded by the lowering as a mux on `d` for sync
    /// resets, or as the second input here for async).
    Dff,
}

impl GateKind {
    /// Number of data inputs this gate kind expects (Dff may have 1 or 2).
    pub fn arity(self) -> usize {
        match self {
            GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Buf | GateKind::Not => 1,
            GateKind::And | GateKind::Or | GateKind::Xor => 2,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor => 2,
            GateKind::Mux => 3,
            GateKind::Dff => 1,
        }
    }

    /// True for sequential elements.
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff)
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Xor => "XOR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux => "MUX",
            GateKind::Dff => "DFF",
        };
        f.write_str(s)
    }
}

/// The names of a netlist's nets (`"top/u_alu/sum[3]"`), stored flat: one
/// text buffer plus where each name ends, so a netlist's names are two
/// heap blocks however many nets it has. `names[id]` is net `id`'s name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetNames {
    text: String,
    /// Name `k` ends at `ends[k]` and starts where name `k - 1` ends.
    ends: Vec<u32>,
}

impl NetNames {
    /// Number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no names.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Name `id`, or `None` past the end.
    pub fn get(&self, id: usize) -> Option<&str> {
        let end = *self.ends.get(id)? as usize;
        Some(&self.text[self.start(id)..end])
    }

    /// Appends a name.
    ///
    /// # Panics
    ///
    /// Panics if the names would exceed 4 GiB of text.
    pub fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(u32::try_from(self.text.len()).expect("net names exceed 4 GiB"));
    }

    /// Keeps the first `len` names.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.text.truncate(self.start(len));
            self.ends.truncate(len);
        }
    }

    /// The names in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|id| &self[id])
    }

    /// Where name `id` starts in the text.
    fn start(&self, id: usize) -> usize {
        if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        }
    }
}

impl std::ops::Index<usize> for NetNames {
    type Output = str;
    fn index(&self, id: usize) -> &str {
        self.get(id).unwrap_or_else(|| panic!("net {id} out of range of {} names", self.len()))
    }
}

/// Index of a module path in [`Netlist::paths`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathId(pub u32);

/// Maximum number of data inputs any [`GateKind`] takes ([`GateKind::Mux`]'s
/// select + two data nets); [`InputList`] keeps one spare slot of headroom.
pub const MAX_GATE_ARITY: usize = 3;

/// A gate's input nets, stored inline in the [`Gate`].
///
/// Gate arity is structurally bounded by [`MAX_GATE_ARITY`], so the list
/// never needs a heap block. That keeps [`Gate`] a flat `Copy` record:
/// cloning a netlist (a stamped session's first edit runs one) copies its
/// gates as one block. Serializes exactly like a `Vec<NetId>`.
///
/// Dereferences to `[NetId]`, so indexing, iteration and slice methods work
/// unchanged; `push` panics if the fixed capacity would overflow.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputList {
    buf: [NetId; MAX_GATE_ARITY + 1],
    len: u8,
}

impl InputList {
    /// Builds a list from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `nets.len()` exceeds the inline capacity.
    pub fn from_slice(nets: &[NetId]) -> Self {
        let mut list = Self::default();
        assert!(
            nets.len() <= list.buf.len(),
            "gate input list of {} nets exceeds max arity {}",
            nets.len(),
            list.buf.len()
        );
        list.buf[..nets.len()].copy_from_slice(nets);
        list.len = nets.len() as u8;
        list
    }

    /// Appends a net.
    ///
    /// # Panics
    ///
    /// Panics if the list is at capacity.
    pub fn push(&mut self, net: NetId) {
        assert!((self.len as usize) < self.buf.len(), "gate input list at max arity");
        self.buf[self.len as usize] = net;
        self.len += 1;
    }

    /// The inputs as a slice.
    pub fn as_slice(&self) -> &[NetId] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::Deref for InputList {
    type Target = [NetId];
    fn deref(&self) -> &[NetId] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::DerefMut for InputList {
    fn deref_mut(&mut self) -> &mut [NetId] {
        &mut self.buf[..self.len as usize]
    }
}

// Equality/hashing cover only the live prefix — the unused tail slots are
// not part of the value.
impl PartialEq for InputList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for InputList {}

impl std::hash::Hash for InputList {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<&[NetId]> for InputList {
    fn from(nets: &[NetId]) -> Self {
        Self::from_slice(nets)
    }
}

impl From<Vec<NetId>> for InputList {
    fn from(nets: Vec<NetId>) -> Self {
        Self::from_slice(&nets)
    }
}

impl<'a> IntoIterator for &'a InputList {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut InputList {
    type Item = &'a mut NetId;
    type IntoIter = std::slice::IterMut<'a, NetId>;
    fn into_iter(self) -> Self::IntoIter {
        let len = self.len as usize;
        self.buf[..len].iter_mut()
    }
}

impl Serialize for InputList {
    fn serialize(&self) -> serde::Value {
        self.as_slice().serialize()
    }
}

impl Deserialize for InputList {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let nets = Vec::<NetId>::deserialize(v)?;
        if nets.len() > MAX_GATE_ARITY + 1 {
            return Err(serde::DeError::msg(format!(
                "gate input list of {} nets exceeds max arity",
                nets.len()
            )));
        }
        Ok(Self::from_slice(&nets))
    }
}

/// A gate instance.
///
/// Its module path is an id into its netlist's [`Netlist::paths`], so two
/// gates compare equal only within one netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Gate kind.
    pub kind: GateKind,
    /// Input nets, in kind-specific order.
    pub inputs: InputList,
    /// Output net.
    pub output: NetId,
    /// Hierarchical instance path of the module this gate was lowered from
    /// (`"top/u_core/u_alu"`; `"top"` for gates in the root module), as an
    /// index into [`Netlist::paths`] ([`Netlist::path`] reads it).
    pub path: PathId,
    /// For [`GateKind::Dff`]: value the register takes under reset.
    pub reset_value: bool,
    /// For [`GateKind::Dff`]: asynchronous reset net, if any.
    pub async_reset: Option<NetId>,
    /// For [`GateKind::Dff`]: active-high clock/load enable; when the net is
    /// low the register holds its value. `None` = always enabled. Inserted
    /// by the synthesis tool's clock-gating pass, never by RTL lowering.
    pub enable: Option<NetId>,
    /// Protects the gate from cleanup passes (`set_dont_touch` semantics);
    /// set on deliberately inserted buffer trees.
    pub dont_touch: bool,
}

/// One structural problem found by [`Netlist::lint`].
///
/// `code` is a stable `NL0xx` rule identifier (see the table on
/// [`Netlist::lint`]); `message` names the offending net or gate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetlistIssue {
    /// Stable rule code (`"NL001"` …).
    pub code: String,
    /// Human-readable description naming the offending element.
    pub message: String,
}

/// A flattened gate-level netlist.
///
/// Equality compares gates by their path strings, not their [`PathId`]s,
/// so it does not depend on the order of [`Netlist::paths`] (a netlist
/// read back from JSON lists only the paths its gates use).
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// Top module name.
    pub name: String,
    /// All net names, indexed by [`NetId`].
    pub nets: NetNames,
    /// All gates.
    pub gates: Vec<Gate>,
    /// Module paths, each listed once; [`Gate::path`] indexes them.
    pub paths: Vec<String>,
    /// Primary input nets with port bit names (`clk` and resets included).
    pub inputs: Vec<(String, NetId)>,
    /// Primary output nets with port bit names.
    pub outputs: Vec<(String, NetId)>,
    /// Name of the clock signal, if the design is sequential.
    pub clock: Option<String>,
}

impl Netlist {
    /// Creates an empty netlist with the given top name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    /// Adds a net and returns its id.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        let id = self.nets.len() as NetId;
        self.nets.push(name.as_ref());
        id
    }

    /// The id of module path `path` in [`Netlist::paths`], appending it
    /// if it is new.
    pub fn intern_path(&mut self, path: &str) -> PathId {
        // Lowering adds a module's gates in a run, so the newest paths are
        // the likeliest matches.
        let id = match self.paths.iter().rposition(|p| p == path) {
            Some(id) => id,
            None => {
                self.paths.push(path.to_string());
                self.paths.len() - 1
            }
        };
        PathId(id as u32)
    }

    /// The module path `id` names.
    pub fn path(&self, id: PathId) -> &str {
        &self.paths[id.0 as usize]
    }

    /// Adds a combinational gate and returns the id of its output net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the gate kind's arity, or if
    /// the kind is [`GateKind::Dff`] (use [`Netlist::add_dff`]).
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output: NetId,
        path: &str,
    ) -> GateId {
        assert!(!kind.is_sequential(), "use add_dff for sequential gates");
        assert_eq!(inputs.len(), kind.arity(), "gate {kind} expects {} inputs", kind.arity());
        let id = self.gates.len() as GateId;
        let path = self.intern_path(path);
        self.gates.push(Gate {
            kind,
            inputs: InputList::from_slice(inputs),
            output,
            path,
            reset_value: false,
            async_reset: None,
            enable: None,
            dont_touch: false,
        });
        id
    }

    /// Adds a D flip-flop.
    pub fn add_dff(
        &mut self,
        d: NetId,
        q: NetId,
        path: &str,
        reset_value: bool,
        async_reset: Option<NetId>,
    ) -> GateId {
        let id = self.gates.len() as GateId;
        let path = self.intern_path(path);
        self.gates.push(Gate {
            kind: GateKind::Dff,
            inputs: InputList::from_slice(&[d]),
            output: q,
            path,
            reset_value,
            async_reset,
            enable: None,
            dont_touch: false,
        });
        id
    }

    /// Number of sequential elements.
    pub fn num_registers(&self) -> usize {
        self.gates.iter().filter(|g| g.kind.is_sequential()).count()
    }

    /// Number of combinational gates.
    pub fn num_comb_gates(&self) -> usize {
        self.gates.len() - self.num_registers()
    }

    /// Map from net id to the gate driving it, if any.
    pub fn driver_map(&self) -> Vec<Option<GateId>> {
        let mut map = vec![None; self.nets.len()];
        for (i, g) in self.gates.iter().enumerate() {
            map[g.output as usize] = Some(i as GateId);
        }
        map
    }

    /// Map from net id to the gate ids consuming it.
    pub fn fanout_map(&self) -> Vec<Vec<GateId>> {
        let mut map = vec![Vec::new(); self.nets.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                map[inp as usize].push(i as GateId);
            }
            if let Some(r) = g.async_reset {
                map[r as usize].push(i as GateId);
            }
            if let Some(e) = g.enable {
                map[e as usize].push(i as GateId);
            }
        }
        map
    }

    /// Checks structural sanity: every net driven at most once; every gate
    /// input refers to an existing net; every primary output is driven or is
    /// a primary input.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check(&self) -> Result<(), String> {
        let mut driven = vec![false; self.nets.len()];
        for (name, id) in &self.inputs {
            let slot = driven
                .get_mut(*id as usize)
                .ok_or_else(|| format!("input {name} refers to missing net {id}"))?;
            if *slot {
                return Err(format!("input net {name} is multiply driven"));
            }
            *slot = true;
        }
        for (gi, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                if inp as usize >= self.nets.len() {
                    return Err(format!("gate {gi} input refers to missing net {inp}"));
                }
            }
            let out = g.output as usize;
            if out >= self.nets.len() {
                return Err(format!("gate {gi} output refers to missing net {}", g.output));
            }
            if driven[out] {
                return Err(format!("net '{}' is multiply driven", &self.nets[out]));
            }
            driven[out] = true;
        }
        for (name, id) in &self.outputs {
            if *id as usize >= self.nets.len() {
                return Err(format!("output {name} refers to missing net {id}"));
            }
            if !driven[*id as usize] {
                return Err(format!("primary output '{name}' is undriven"));
            }
        }
        Ok(())
    }

    /// Structural lint: the structured counterpart of [`Netlist::check`].
    ///
    /// Where `check` stops at the first violation and reports it as a bare
    /// string, `lint` walks the whole netlist and returns every issue it
    /// finds as a [`NetlistIssue`] with a stable rule code:
    ///
    /// | code  | meaning |
    /// |-------|---------|
    /// | NL001 | net driven by more than one source |
    /// | NL002 | floating net: consumed but never driven |
    /// | NL003 | combinational loop |
    /// | NL004 | dead gate: output feeds nothing |
    /// | NL005 | dangling reference to a net id outside the netlist |
    ///
    /// Never panics, even on malformed netlists (dangling ids suppress the
    /// analyses that would need to index through them).
    pub fn lint(&self) -> Vec<NetlistIssue> {
        let mut issues = Vec::new();
        let n = self.nets.len();
        let net_name = |id: NetId| -> String {
            self.nets.get(id as usize).map_or_else(|| format!("<net {id}>"), str::to_string)
        };

        // NL005: dangling net references (checked first; they poison the
        // index-based analyses below).
        let mut dangling = false;
        let flag_ref = |issues: &mut Vec<NetlistIssue>, id: NetId, what: String| {
            if id as usize >= n {
                issues.push(NetlistIssue {
                    code: "NL005".into(),
                    message: format!("{what} refers to missing net {id}"),
                });
                true
            } else {
                false
            }
        };
        for (name, id) in &self.inputs {
            dangling |= flag_ref(&mut issues, *id, format!("primary input '{name}'"));
        }
        for (name, id) in &self.outputs {
            dangling |= flag_ref(&mut issues, *id, format!("primary output '{name}'"));
        }
        for (gi, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                dangling |= flag_ref(&mut issues, inp, format!("gate {gi} ({}) input", g.kind));
            }
            dangling |= flag_ref(&mut issues, g.output, format!("gate {gi} ({}) output", g.kind));
            if let Some(r) = g.async_reset {
                dangling |= flag_ref(&mut issues, r, format!("gate {gi} ({}) async reset", g.kind));
            }
            if let Some(e) = g.enable {
                dangling |= flag_ref(&mut issues, e, format!("gate {gi} ({}) enable", g.kind));
            }
        }
        if dangling {
            return issues;
        }

        // Driver census (primary inputs count as drivers, as in `check`).
        let mut drivers: Vec<u32> = vec![0; n];
        for (_, id) in &self.inputs {
            drivers[*id as usize] += 1;
        }
        for g in &self.gates {
            drivers[g.output as usize] += 1;
        }
        // NL001: multiple drivers.
        for (id, &count) in drivers.iter().enumerate() {
            if count > 1 {
                issues.push(NetlistIssue {
                    code: "NL001".into(),
                    message: format!(
                        "net '{}' is driven by {count} sources",
                        net_name(id as NetId)
                    ),
                });
            }
        }
        // NL002: floating nets — consumed somewhere but never driven.
        let fanout = self.fanout_map();
        let mut consumed: Vec<bool> = fanout.iter().map(|f| !f.is_empty()).collect();
        for (_, id) in &self.outputs {
            consumed[*id as usize] = true;
        }
        for (id, (&count, &used)) in drivers.iter().zip(consumed.iter()).enumerate() {
            if used && count == 0 {
                issues.push(NetlistIssue {
                    code: "NL002".into(),
                    message: format!(
                        "net '{}' floats: consumed but undriven",
                        net_name(id as NetId)
                    ),
                });
            }
        }
        // NL003: combinational loops.
        if let Err(cycle) = self.topo_order() {
            issues.push(NetlistIssue { code: "NL003".into(), message: cycle });
        }
        // NL004: dead gates — output feeds no gate and no primary output.
        let is_output: std::collections::HashSet<NetId> =
            self.outputs.iter().map(|(_, id)| *id).collect();
        for (gi, g) in self.gates.iter().enumerate() {
            if g.dont_touch {
                continue;
            }
            if fanout[g.output as usize].is_empty() && !is_output.contains(&g.output) {
                issues.push(NetlistIssue {
                    code: "NL004".into(),
                    message: format!(
                        "gate {gi} ({}) drives net '{}' which feeds nothing",
                        g.kind,
                        net_name(g.output)
                    ),
                });
            }
        }
        issues
    }

    /// Topological order of combinational gates (inputs and register outputs
    /// are sources; registers are not ordered).
    ///
    /// # Errors
    ///
    /// Returns the names of nets on a combinational cycle if one exists.
    pub fn topo_order(&self) -> Result<Vec<GateId>, String> {
        let mut indegree: Vec<u32> = Vec::with_capacity(self.gates.len());
        let driver = self.driver_map();
        // A combinational gate depends on the combinational gates driving
        // its inputs.
        let dep_of = |net: NetId| -> Option<GateId> {
            driver[net as usize].filter(|&gid| !self.gates[gid as usize].kind.is_sequential())
        };
        let mut consumers: Vec<Vec<GateId>> = vec![Vec::new(); self.gates.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            if g.kind.is_sequential() {
                indegree.push(0);
                continue;
            }
            let mut deg = 0;
            for &inp in &g.inputs {
                if let Some(dep) = dep_of(inp) {
                    consumers[dep as usize].push(gi as GateId);
                    deg += 1;
                }
            }
            indegree.push(deg);
        }
        let mut queue: Vec<GateId> = (0..self.gates.len() as GateId)
            .filter(|&g| !self.gates[g as usize].kind.is_sequential() && indegree[g as usize] == 0)
            .collect();
        let mut order = Vec::new();
        let mut qi = 0;
        while qi < queue.len() {
            let g = queue[qi];
            qi += 1;
            order.push(g);
            for &c in &consumers[g as usize] {
                indegree[c as usize] -= 1;
                if indegree[c as usize] == 0 {
                    queue.push(c);
                }
            }
        }
        let comb_total = self.num_comb_gates();
        if order.len() != comb_total {
            let stuck: Vec<&str> = self
                .gates
                .iter()
                .enumerate()
                .filter(|(i, g)| !g.kind.is_sequential() && indegree[*i] > 0)
                .take(5)
                .map(|(_, g)| &self.nets[g.output as usize])
                .collect();
            return Err(format!("combinational cycle through nets: {}", stuck.join(", ")));
        }
        Ok(order)
    }

    /// Evaluates the combinational logic for the given input assignment and
    /// current register state, returning all net values.
    ///
    /// `inputs` maps primary-input net ids to values; `regs` maps DFF output
    /// net ids to their current state. Missing entries default to `false`.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist has a combinational cycle.
    pub fn eval_comb(
        &self,
        inputs: &HashMap<NetId, bool>,
        regs: &HashMap<NetId, bool>,
    ) -> Result<Vec<bool>, String> {
        let order = self.topo_order()?;
        let mut values = vec![false; self.nets.len()];
        for (&net, &v) in inputs {
            values[net as usize] = v;
        }
        for (&net, &v) in regs {
            values[net as usize] = v;
        }
        for gid in order {
            let g = &self.gates[gid as usize];
            let v = match g.kind {
                GateKind::Const0 => false,
                GateKind::Const1 => true,
                GateKind::Buf => values[g.inputs[0] as usize],
                GateKind::Not => !values[g.inputs[0] as usize],
                GateKind::And => values[g.inputs[0] as usize] & values[g.inputs[1] as usize],
                GateKind::Or => values[g.inputs[0] as usize] | values[g.inputs[1] as usize],
                GateKind::Xor => values[g.inputs[0] as usize] ^ values[g.inputs[1] as usize],
                GateKind::Nand => !(values[g.inputs[0] as usize] & values[g.inputs[1] as usize]),
                GateKind::Nor => !(values[g.inputs[0] as usize] | values[g.inputs[1] as usize]),
                GateKind::Xnor => !(values[g.inputs[0] as usize] ^ values[g.inputs[1] as usize]),
                GateKind::Mux => {
                    if values[g.inputs[0] as usize] {
                        values[g.inputs[2] as usize]
                    } else {
                        values[g.inputs[1] as usize]
                    }
                }
                GateKind::Dff => continue,
            };
            values[g.output as usize] = v;
        }
        Ok(values)
    }
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        let same_gate = |a: &Gate, b: &Gate| {
            Gate { path: b.path, ..*a } == *b && self.path(a.path) == other.path(b.path)
        };
        self.name == other.name
            && self.nets == other.nets
            && self.gates.len() == other.gates.len()
            && self.gates.iter().zip(&other.gates).all(|(a, b)| same_gate(a, b))
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.clock == other.clock
    }
}

/// Field `name` of the serialized record `ty`, with the record and field
/// named in any error.
fn field<T: Deserialize>(v: &serde::Value, ty: &str, name: &str) -> Result<T, serde::DeError> {
    T::deserialize(&v[name]).map_err(|e| serde::DeError::msg(format!("{ty}.{name}: {e}")))
}

/// A serialized record with `fields` in the given order.
fn record(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Serialize for Netlist {
    fn serialize(&self) -> serde::Value {
        let nets = self.nets.iter().map(|name| record(vec![("name", name.serialize())]));
        let gates = self.gates.iter().map(|g| {
            record(vec![
                ("kind", g.kind.serialize()),
                ("inputs", g.inputs.serialize()),
                ("output", g.output.serialize()),
                ("path", self.path(g.path).serialize()),
                ("reset_value", g.reset_value.serialize()),
                ("async_reset", g.async_reset.serialize()),
                ("enable", g.enable.serialize()),
                ("dont_touch", g.dont_touch.serialize()),
            ])
        });
        record(vec![
            ("name", self.name.serialize()),
            ("nets", serde::Value::Seq(nets.collect())),
            ("gates", serde::Value::Seq(gates.collect())),
            ("inputs", self.inputs.serialize()),
            ("outputs", self.outputs.serialize()),
            ("clock", self.clock.serialize()),
        ])
    }
}

impl Deserialize for Netlist {
    /// Reads the form [`Serialize`] writes; [`Netlist::paths`] comes back
    /// as the gates' paths in order of first use.
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let records = |name: &str| -> Result<&[serde::Value], serde::DeError> {
            let list = &v[name];
            let expected = || serde::DeError::expected("array", list);
            let err = || serde::DeError::msg(format!("Netlist.{name}: {}", expected()));
            list.as_array().map(Vec::as_slice).ok_or_else(err)
        };
        let mut nl = Netlist::new(field::<String>(v, "Netlist", "name")?);
        for net in records("nets")? {
            nl.nets.push(&field::<String>(net, "Netlist.nets: Net", "name")?);
        }
        for g in records("gates")? {
            const GATE: &str = "Netlist.gates: Gate";
            let gate = Gate {
                kind: field(g, GATE, "kind")?,
                inputs: field(g, GATE, "inputs")?,
                output: field(g, GATE, "output")?,
                path: nl.intern_path(&field::<String>(g, GATE, "path")?),
                reset_value: field(g, GATE, "reset_value")?,
                async_reset: field(g, GATE, "async_reset")?,
                enable: field(g, GATE, "enable")?,
                dont_touch: field(g, GATE, "dont_touch")?,
            };
            nl.gates.push(gate);
        }
        nl.inputs = field(v, "Netlist", "inputs")?;
        nl.outputs = field(v, "Netlist", "outputs")?;
        nl.clock = field(v, "Netlist", "clock")?;
        Ok(nl)
    }
}

/// Cycle-accurate simulator over a [`Netlist`].
///
/// # Examples
///
/// ```
/// # use chatls_verilog::netlist::{Netlist, GateKind, Simulator};
/// let mut nl = Netlist::new("t");
/// let a = nl.add_net("a");
/// let q = nl.add_net("q");
/// nl.inputs.push(("a".into(), a));
/// nl.outputs.push(("q".into(), q));
/// nl.add_dff(a, q, "t", false, None);
/// let mut sim = Simulator::new(&nl);
/// sim.set_input("a", &[1]);
/// sim.step().unwrap();
/// sim.settle().unwrap();
/// assert_eq!(sim.output("q"), Some(1));
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    inputs: HashMap<NetId, bool>,
    regs: HashMap<NetId, bool>,
    values: Vec<bool>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with all registers reset to their reset values.
    pub fn new(netlist: &'a Netlist) -> Self {
        let mut regs = HashMap::new();
        for g in &netlist.gates {
            if g.kind.is_sequential() {
                regs.insert(g.output, g.reset_value);
            }
        }
        Self { netlist, inputs: HashMap::new(), regs, values: vec![false; netlist.nets.len()] }
    }

    /// Sets a (possibly multi-bit) primary input by port name. `bits[0]` is
    /// bit 0. Port bit nets are named `port` (scalar) or `port[i]`.
    pub fn set_input(&mut self, port: &str, bits: &[u8]) {
        for (name, id) in &self.netlist.inputs {
            if name == port {
                self.inputs.insert(*id, bits.first().copied().unwrap_or(0) != 0);
            } else if let Some(idx) = bit_index(name, port) {
                self.inputs.insert(*id, bits.get(idx).copied().unwrap_or(0) != 0);
            }
        }
    }

    /// Sets a primary input port from an integer value, LSB = bit 0.
    pub fn set_input_u64(&mut self, port: &str, value: u64) {
        let bits: Vec<u8> = (0..64).map(|i| ((value >> i) & 1) as u8).collect();
        self.set_input(port, &bits);
    }

    /// Evaluates combinational logic and advances registers by one clock.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist has a combinational cycle.
    pub fn step(&mut self) -> Result<(), String> {
        self.values = self.netlist.eval_comb(&self.inputs, &self.regs)?;
        let mut next = HashMap::with_capacity(self.regs.len());
        for g in &self.netlist.gates {
            if !g.kind.is_sequential() {
                continue;
            }
            let reset_active = g.async_reset.map(|r| self.values[r as usize]).unwrap_or(false);
            let enabled = g.enable.map(|e| self.values[e as usize]).unwrap_or(true);
            let v = if reset_active {
                g.reset_value
            } else if enabled {
                self.values[g.inputs[0] as usize]
            } else {
                self.regs.get(&g.output).copied().unwrap_or(g.reset_value)
            };
            next.insert(g.output, v);
        }
        self.regs = next;
        Ok(())
    }

    /// Evaluates combinational logic only (no register update).
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist has a combinational cycle.
    pub fn settle(&mut self) -> Result<(), String> {
        self.values = self.netlist.eval_comb(&self.inputs, &self.regs)?;
        Ok(())
    }

    /// Reads a scalar output value after [`Simulator::step`]/[`settle`].
    ///
    /// [`settle`]: Simulator::settle
    pub fn output(&self, port: &str) -> Option<u8> {
        self.netlist
            .outputs
            .iter()
            .find(|(n, _)| n == port)
            .map(|(_, id)| self.values[*id as usize] as u8)
    }

    /// Snapshot of every net's value after the last `step`/`settle`.
    ///
    /// Index = net id. Used by power estimation to count toggles.
    pub fn values_snapshot(&self) -> Vec<bool> {
        self.values.clone()
    }

    /// Reads a multi-bit output as an integer, LSB = bit 0.
    pub fn output_u64(&self, port: &str) -> u64 {
        let mut v = 0u64;
        for (name, id) in &self.netlist.outputs {
            if name == port && self.values[*id as usize] {
                v |= 1;
            } else if let Some(idx) = bit_index(name, port) {
                if idx < 64 && self.values[*id as usize] {
                    v |= 1 << idx;
                }
            }
        }
        v
    }
}

/// If `name` is `port[i]`, returns `Some(i)`.
fn bit_index(name: &str, port: &str) -> Option<usize> {
    let rest = name.strip_prefix(port)?;
    let inner = rest.strip_prefix('[')?.strip_suffix(']')?;
    inner.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_netlist() -> Netlist {
        let mut nl = Netlist::new("xor2");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y = nl.add_net("y");
        nl.inputs.push(("a".into(), a));
        nl.inputs.push(("b".into(), b));
        nl.outputs.push(("y".into(), y));
        nl.add_gate(GateKind::Xor, &[a, b], y, "xor2");
        nl
    }

    #[test]
    fn xor_truth_table() {
        let nl = xor_netlist();
        for (a, b, y) in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)] {
            let mut sim = Simulator::new(&nl);
            sim.set_input("a", &[a]);
            sim.set_input("b", &[b]);
            sim.settle().unwrap();
            assert_eq!(sim.output("y"), Some(y), "a={a} b={b}");
        }
    }

    #[test]
    fn check_catches_multiple_drivers() {
        let mut nl = xor_netlist();
        let a = 0;
        let y = 2;
        nl.add_gate(GateKind::Buf, &[a], y, "xor2");
        assert!(nl.check().unwrap_err().contains("multiply driven"));
    }

    #[test]
    fn check_catches_undriven_output() {
        let mut nl = Netlist::new("bad");
        let y = nl.add_net("y");
        nl.outputs.push(("y".into(), y));
        assert!(nl.check().unwrap_err().contains("undriven"));
    }

    #[test]
    fn topo_detects_cycle() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_gate(GateKind::Not, &[a], b, "loop");
        nl.add_gate(GateKind::Not, &[b], a, "loop");
        assert!(nl.topo_order().unwrap_err().contains("cycle"));
    }

    #[test]
    fn register_pipeline_delays_by_one_cycle() {
        let mut nl = Netlist::new("pipe");
        let d = nl.add_net("d");
        let q1 = nl.add_net("q1");
        let q2 = nl.add_net("q2");
        nl.inputs.push(("d".into(), d));
        nl.outputs.push(("q2".into(), q2));
        nl.add_dff(d, q1, "pipe", false, None);
        nl.add_dff(q1, q2, "pipe", false, None);
        let mut sim = Simulator::new(&nl);
        sim.set_input("d", &[1]);
        sim.step().unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("q2"), Some(0), "after one clock");
        sim.step().unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("q2"), Some(1), "after two clocks");
    }

    #[test]
    fn async_reset_overrides_data() {
        let mut nl = Netlist::new("r");
        let d = nl.add_net("d");
        let rst = nl.add_net("rst");
        let q = nl.add_net("q");
        nl.inputs.push(("d".into(), d));
        nl.inputs.push(("rst".into(), rst));
        nl.outputs.push(("q".into(), q));
        nl.add_dff(d, q, "r", false, Some(rst));
        let mut sim = Simulator::new(&nl);
        sim.set_input("d", &[1]);
        sim.set_input("rst", &[1]);
        sim.step().unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("q"), Some(0));
        sim.set_input("rst", &[0]);
        sim.step().unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output("q"), Some(1));
    }

    #[test]
    fn mux_selects_correct_input() {
        let mut nl = Netlist::new("m");
        let s = nl.add_net("s");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y = nl.add_net("y");
        nl.inputs.extend([("s".into(), s), ("a".into(), a), ("b".into(), b)]);
        nl.outputs.push(("y".into(), y));
        nl.add_gate(GateKind::Mux, &[s, a, b], y, "m");
        let mut sim = Simulator::new(&nl);
        sim.set_input("a", &[1]);
        sim.set_input("b", &[0]);
        sim.set_input("s", &[0]);
        sim.settle().unwrap();
        assert_eq!(sim.output("y"), Some(1));
        sim.set_input("s", &[1]);
        sim.settle().unwrap();
        assert_eq!(sim.output("y"), Some(0));
    }

    fn codes(issues: &[NetlistIssue]) -> Vec<&str> {
        issues.iter().map(|i| i.code.as_str()).collect()
    }

    #[test]
    fn lint_clean_netlist_reports_nothing() {
        assert!(xor_netlist().lint().is_empty());
    }

    #[test]
    fn lint_flags_multiple_drivers() {
        let mut nl = xor_netlist();
        nl.add_gate(GateKind::Buf, &[0], 2, "xor2");
        assert!(codes(&nl.lint()).contains(&"NL001"));
    }

    #[test]
    fn lint_flags_floating_net() {
        let mut nl = Netlist::new("f");
        let a = nl.add_net("a"); // never driven
        let y = nl.add_net("y");
        nl.outputs.push(("y".into(), y));
        nl.add_gate(GateKind::Buf, &[a], y, "f");
        let issues = nl.lint();
        assert!(codes(&issues).contains(&"NL002"), "{issues:?}");
        assert!(issues.iter().any(|i| i.message.contains("'a'")));
    }

    #[test]
    fn lint_flags_combinational_loop() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_gate(GateKind::Not, &[a], b, "loop");
        nl.add_gate(GateKind::Not, &[b], a, "loop");
        assert!(codes(&nl.lint()).contains(&"NL003"));
    }

    #[test]
    fn lint_flags_dead_gate_but_not_dont_touch() {
        let mut nl = xor_netlist();
        let dead = nl.add_net("dead");
        let gid = nl.add_gate(GateKind::Not, &[0], dead, "xor2");
        assert!(codes(&nl.lint()).contains(&"NL004"));
        nl.gates[gid as usize].dont_touch = true;
        assert!(!codes(&nl.lint()).contains(&"NL004"));
    }

    #[test]
    fn lint_flags_dangling_reference_without_panicking() {
        let mut nl = Netlist::new("bad");
        let y = nl.add_net("y");
        nl.outputs.push(("y".into(), y));
        let path = nl.intern_path("bad");
        nl.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: InputList::from_slice(&[99]),
            output: y,
            path,
            reset_value: false,
            async_reset: None,
            enable: None,
            dont_touch: false,
        });
        let issues = nl.lint();
        assert_eq!(codes(&issues), vec!["NL005"]);
    }

    #[test]
    fn bit_index_parses() {
        assert_eq!(bit_index("bus[3]", "bus"), Some(3));
        assert_eq!(bit_index("bus", "bus"), None);
        assert_eq!(bit_index("other[3]", "bus"), None);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_arity_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::And, &[a], y, "t");
    }
}
