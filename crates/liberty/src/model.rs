//! In-memory model of a Liberty-style technology library.
//!
//! The model is a deliberate simplification of real Liberty: NLDM lookup
//! tables are replaced by a **linear delay model** per timing arc,
//! `delay = intrinsic + drive_resistance × load_capacitance`, which is the
//! classic synthesis textbook model and preserves the trade-offs the ChatLS
//! experiments depend on (drive strengths vs. area, fanout vs. delay,
//! wireload-dominated nets). See DESIGN.md for the substitution rationale.
//!
//! Units: time in ns, capacitance in fF, area in µm², resistance in ns/fF.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Direction of a cell pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PinDir {
    /// Input pin.
    Input,
    /// Output pin.
    Output,
}

impl fmt::Display for PinDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PinDir::Input => "input",
            PinDir::Output => "output",
        })
    }
}

/// A timing arc from `related_pin` to the owning output pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingArc {
    /// Input pin the arc starts at.
    pub related_pin: String,
    /// Fixed delay component in ns.
    pub intrinsic: f64,
    /// Load-dependent component in ns/fF.
    pub drive_resistance: f64,
}

impl TimingArc {
    /// Arc delay in ns for the given load capacitance in fF.
    pub fn delay(&self, load_ff: f64) -> f64 {
        self.intrinsic + self.drive_resistance * load_ff
    }
}

/// A cell pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pin {
    /// Pin name.
    pub name: String,
    /// Direction.
    pub direction: PinDir,
    /// Input capacitance in fF (0 for outputs).
    pub capacitance: f64,
    /// Boolean function for output pins (informational).
    pub function: Option<String>,
    /// Timing arcs terminating at this (output) pin.
    pub timing: Vec<TimingArc>,
}

/// Sequential metadata for flip-flop cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlipFlopSpec {
    /// Clock pin name.
    pub clock_pin: String,
    /// Data pin name.
    pub data_pin: String,
    /// Output pin name.
    pub output_pin: String,
    /// Setup time requirement in ns.
    pub setup: f64,
    /// Hold time requirement in ns.
    pub hold: f64,
    /// Clock-to-Q delay arc.
    pub clk_to_q: TimingArc,
}

/// A library cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Cell name, e.g. `NAND2_X2`.
    pub name: String,
    /// Area in µm².
    pub area: f64,
    /// Leakage power in nW (relative scale).
    pub leakage: f64,
    /// Pins.
    pub pins: Vec<Pin>,
    /// Present iff the cell is a flip-flop.
    pub ff: Option<FlipFlopSpec>,
}

impl Cell {
    /// Looks up a pin by name.
    pub fn pin(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// The single output pin.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no output pin (malformed library).
    pub fn output_pin(&self) -> &Pin {
        self.pins
            .iter()
            .find(|p| p.direction == PinDir::Output)
            .unwrap_or_else(|| panic!("cell {} has no output pin", self.name))
    }

    /// Input pins in declaration order.
    pub fn input_pins(&self) -> impl Iterator<Item = &Pin> {
        self.pins.iter().filter(|p| p.direction == PinDir::Input)
    }

    /// Drive strength parsed from a `_X<n>` suffix; 1 when absent.
    pub fn drive_strength(&self) -> u32 {
        self.name.rsplit_once("_X").and_then(|(_, s)| s.parse().ok()).unwrap_or(1)
    }

    /// Base function name without the drive suffix (`NAND2_X2` → `NAND2`).
    pub fn base_name(&self) -> &str {
        self.name.rsplit_once("_X").map(|(b, _)| b).unwrap_or(&self.name)
    }

    /// Worst-case arc delay from any input to the output for a load.
    pub fn worst_delay(&self, load_ff: f64) -> f64 {
        self.pins.iter().flat_map(|p| &p.timing).map(|arc| arc.delay(load_ff)).fold(0.0, f64::max)
    }

    /// True for sequential cells.
    pub fn is_sequential(&self) -> bool {
        self.ff.is_some()
    }
}

/// A wireload model: estimates wire capacitance from fanout count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireLoadModel {
    /// Model name, e.g. `5K_heavy_1k`.
    pub name: String,
    /// Capacitance per unit length in fF.
    pub capacitance_per_length: f64,
    /// Resistance per unit length (informational; folded into delay via cap).
    pub resistance_per_length: f64,
    /// Extrapolation slope (length per extra fanout beyond the table).
    pub slope: f64,
    /// `(fanout, length)` table, ascending by fanout.
    pub fanout_length: Vec<(u32, f64)>,
}

impl WireLoadModel {
    /// Estimated wire length for a net with `fanout` sinks.
    ///
    /// Uses the table where available and linear `slope` extrapolation for
    /// larger fanouts, matching Liberty semantics.
    pub fn length(&self, fanout: u32) -> f64 {
        if self.fanout_length.is_empty() {
            return self.slope * fanout as f64;
        }
        // Exact or interpolated from the table.
        for window in self.fanout_length.windows(2) {
            let (f0, l0) = window[0];
            let (f1, l1) = window[1];
            if fanout <= f0 {
                return l0;
            }
            if fanout <= f1 {
                let t = (fanout - f0) as f64 / (f1 - f0) as f64;
                return l0 + t * (l1 - l0);
            }
        }
        let (fmax, lmax) = *self.fanout_length.last().expect("non-empty");
        if fanout <= fmax {
            return lmax;
        }
        lmax + self.slope * (fanout - fmax) as f64
    }

    /// Estimated wire capacitance in fF for a net with `fanout` sinks.
    pub fn wire_cap(&self, fanout: u32) -> f64 {
        self.capacitance_per_length * self.length(fanout)
    }
}

/// A technology library.
///
/// Cells are addressed by name or by their index into [`Library::cells`]
/// (a [`Library::cell_id`]). The per-cell lookups — the name index, each
/// cell's input-pin capacitances and output arcs, and the next drive
/// variant up and down — come from tables built on first use. They assume
/// `cells` is no longer mutated afterwards: the library is construct-once
/// data everywhere in this workspace (parsed or baked in, then shared
/// behind `Arc`). Cloning or deserializing resets the tables. An id outside
/// the library names no cell: it has no pins, no arcs and no drive
/// variants.
#[derive(Debug)]
pub struct Library {
    /// Library name.
    pub name: String,
    /// Cells.
    pub cells: Vec<Cell>,
    /// Wireload models.
    pub wire_loads: Vec<WireLoadModel>,
    /// Name of the default wireload model.
    pub default_wire_load: Option<String>,
    /// Lazily built per-cell tables (not serialized).
    tables: OnceLock<CellTables>,
}

/// What [`Library`] resolves once per cell instead of scanning pins or
/// names per lookup.
#[derive(Debug)]
struct CellTables {
    /// Cell name → index; the last of two same-named cells wins.
    index: HashMap<String, u32>,
    /// Input-pin capacitances per cell, in pin order.
    input_caps: Vec<Box<[f64]>>,
    /// Position of each cell's first output pin in its `pins`.
    output_pin: Vec<Option<usize>>,
    /// Next drive variant per cell, `[down, up]`.
    next_drive: Vec<[Option<u32>; 2]>,
}

impl CellTables {
    fn build(cells: &[Cell]) -> Self {
        let index: HashMap<String, u32> =
            cells.iter().enumerate().map(|(i, c)| (c.name.clone(), i as u32)).collect();
        // Drive variants per base name, weakest first: what
        // `Library::variants` returns, as indices.
        let mut variants: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, c) in cells.iter().enumerate() {
            variants.entry(c.base_name()).or_default().push(i);
        }
        for v in variants.values_mut() {
            v.sort_by_key(|&i| cells[i].drive_strength());
        }
        // A cell steps from the first variant carrying its name to the
        // neighbouring variant, which resolves by name like any lookup.
        let next_drive = cells
            .iter()
            .map(|c| {
                let v = &variants[c.base_name()];
                let pos = v.iter().position(|&i| cells[i].name == c.name).expect("own variant");
                let step = |next: Option<usize>| {
                    next.and_then(|n| v.get(n)).map(|&i| index[cells[i].name.as_str()])
                };
                [step(pos.checked_sub(1)), step(pos.checked_add(1))]
            })
            .collect();
        Self {
            input_caps: cells
                .iter()
                .map(|c| c.input_pins().map(|p| p.capacitance).collect())
                .collect(),
            output_pin: cells
                .iter()
                .map(|c| c.pins.iter().position(|p| p.direction == PinDir::Output))
                .collect(),
            next_drive,
            index,
        }
    }
}

impl Serialize for Library {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("name".to_string(), self.name.serialize()),
            ("cells".to_string(), self.cells.serialize()),
            ("wire_loads".to_string(), self.wire_loads.serialize()),
            ("default_wire_load".to_string(), self.default_wire_load.serialize()),
        ])
    }
}

impl Deserialize for Library {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Library::new(
            Deserialize::deserialize(&v["name"])?,
            Deserialize::deserialize(&v["cells"])?,
            Deserialize::deserialize(&v["wire_loads"])?,
            Deserialize::deserialize(&v["default_wire_load"])?,
        ))
    }
}

impl Clone for Library {
    fn clone(&self) -> Self {
        Self::new(
            self.name.clone(),
            self.cells.clone(),
            self.wire_loads.clone(),
            self.default_wire_load.clone(),
        )
    }
}

impl PartialEq for Library {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.cells == other.cells
            && self.wire_loads == other.wire_loads
            && self.default_wire_load == other.default_wire_load
    }
}

impl Library {
    /// Creates a library from its parts.
    pub fn new(
        name: String,
        cells: Vec<Cell>,
        wire_loads: Vec<WireLoadModel>,
        default_wire_load: Option<String>,
    ) -> Self {
        Self { name, cells, wire_loads, default_wire_load, tables: OnceLock::new() }
    }

    #[inline]
    fn tables(&self) -> &CellTables {
        self.tables.get_or_init(|| CellTables::build(&self.cells))
    }

    /// Looks up a cell by exact name.
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.cell_id(name).and_then(|id| self.cell_by_id(id))
    }

    /// Index of the cell named `name` into [`Library::cells`], for callers
    /// that keep compact `u32` links instead of strings. The last of two
    /// same-named cells wins.
    pub fn cell_id(&self, name: &str) -> Option<u32> {
        self.tables().index.get(name).copied()
    }

    /// The cell at a [`Library::cell_id`] index; `None` for an id outside
    /// the library.
    #[inline]
    pub fn cell_by_id(&self, id: u32) -> Option<&Cell> {
        self.cells.get(id as usize)
    }

    /// Capacitance in fF that input `pin` of cell `id` presents: its
    /// `pin`-th input pin's, or its first input pin's when it has fewer.
    #[inline]
    pub fn input_cap(&self, id: u32, pin: usize) -> Option<f64> {
        let caps = self.tables().input_caps.get(id as usize)?;
        caps.get(pin).or_else(|| caps.first()).copied()
    }

    /// The timing arc from input `pin` of cell `id` to its output: the
    /// output pin's `pin`-th arc, or its first when it has fewer.
    #[inline]
    pub fn input_arc(&self, id: u32, pin: usize) -> Option<&TimingArc> {
        let out = (*self.tables().output_pin.get(id as usize)?)?;
        let arcs = &self.cells[id as usize].pins[out].timing;
        arcs.get(pin).or_else(|| arcs.first())
    }

    /// [`Library::cell_id`] of the next drive variant of cell `id` up
    /// (`up = true`) or down, if any: its neighbour in
    /// [`Library::variants`] of its base name.
    #[inline]
    pub fn next_drive(&self, id: u32, up: bool) -> Option<u32> {
        self.tables().next_drive.get(id as usize)?[up as usize]
    }

    /// [`Library::cell_id`] of the weakest (`strongest = false`) or the
    /// strongest drive variant of a base function, if the library has one.
    pub fn variant_id(&self, base: &str, strongest: bool) -> Option<u32> {
        let variants = self.variants(base);
        let cell = if strongest { variants.last() } else { variants.first() }?;
        self.cell_id(&cell.name)
    }

    /// Looks up a wireload model by name.
    pub fn wire_load(&self, name: &str) -> Option<&WireLoadModel> {
        self.wire_loads.iter().find(|w| w.name == name)
    }

    /// The default wireload model, if configured and present.
    pub fn default_wire_load_model(&self) -> Option<&WireLoadModel> {
        self.default_wire_load.as_deref().and_then(|n| self.wire_load(n))
    }

    /// All drive variants of a base function, sorted by ascending drive.
    ///
    /// # Examples
    ///
    /// ```
    /// let lib = chatls_liberty::nangate45();
    /// let invs = lib.variants("INV");
    /// assert!(invs.len() >= 2);
    /// assert!(invs[0].drive_strength() < invs[1].drive_strength());
    /// ```
    pub fn variants(&self, base: &str) -> Vec<&Cell> {
        let mut v: Vec<&Cell> = self.cells.iter().filter(|c| c.base_name() == base).collect();
        v.sort_by_key(|c| c.drive_strength());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wlm() -> WireLoadModel {
        WireLoadModel {
            name: "t".into(),
            capacitance_per_length: 2.0,
            resistance_per_length: 0.1,
            slope: 0.5,
            fanout_length: vec![(1, 1.0), (2, 2.0), (4, 5.0)],
        }
    }

    #[test]
    fn wireload_table_lookup() {
        let w = wlm();
        assert_eq!(w.length(1), 1.0);
        assert_eq!(w.length(2), 2.0);
        assert_eq!(w.length(4), 5.0);
    }

    #[test]
    fn wireload_interpolates() {
        let w = wlm();
        assert!((w.length(3) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn wireload_extrapolates_with_slope() {
        let w = wlm();
        assert!((w.length(6) - (5.0 + 0.5 * 2.0)).abs() < 1e-9);
    }

    #[test]
    fn wireload_cap_scales_with_length() {
        let w = wlm();
        assert!((w.wire_cap(2) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn wireload_below_table_clamps() {
        let mut w = wlm();
        w.fanout_length = vec![(2, 2.0), (4, 5.0)];
        assert_eq!(w.length(1), 2.0);
    }

    #[test]
    fn arc_delay_is_linear() {
        let arc = TimingArc { related_pin: "A".into(), intrinsic: 0.01, drive_resistance: 0.005 };
        assert!((arc.delay(10.0) - 0.06).abs() < 1e-12);
    }

    /// The by-name walk the next-drive table replaces: the neighbour of the
    /// cell's name among the variants of its base name, resolved by name.
    fn next_drive_by_name(lib: &Library, name: &str, up: bool) -> Option<u32> {
        let cell = lib.cell(name)?;
        let variants = lib.variants(cell.base_name());
        let pos = variants.iter().position(|c| c.name == name)?;
        let next = if up { pos.checked_add(1)? } else { pos.checked_sub(1)? };
        variants.get(next).and_then(|c| lib.cell_id(&c.name))
    }

    #[test]
    fn per_cell_tables_match_the_pins_and_the_by_name_walk() {
        let nangate = crate::nangate45();
        // The same cells with a second `INV_X2` appended: names resolve to
        // the last copy, steps start from the first variant so named.
        let mut cells = nangate.cells.clone();
        cells.push(nangate.cell("INV_X2").expect("INV_X2").clone());
        let duplicated = Library::new("dup".into(), cells, Vec::new(), None);
        for lib in [&nangate, &duplicated] {
            let mut steps = 0;
            for (id, cell) in lib.cells.iter().enumerate() {
                let id = id as u32;
                for up in [false, true] {
                    let step = lib.next_drive(id, up);
                    assert_eq!(
                        step,
                        next_drive_by_name(lib, &cell.name, up),
                        "{} up {up}",
                        cell.name
                    );
                    steps += usize::from(step.is_some());
                }
                // Pin `k` of a gate reads the `k`-th input pin, or the first
                // when the cell has fewer.
                let inputs: Vec<f64> = cell
                    .pins
                    .iter()
                    .filter(|p| p.direction == PinDir::Input)
                    .map(|p| p.capacitance)
                    .collect();
                let arcs = cell
                    .pins
                    .iter()
                    .find(|p| p.direction == PinDir::Output)
                    .map_or(&[][..], |p| p.timing.as_slice());
                for pin in 0..inputs.len().max(arcs.len()) + 2 {
                    let cap = inputs.get(pin).or(inputs.first()).copied();
                    assert_eq!(lib.input_cap(id, pin), cap, "{} pin {pin}", cell.name);
                    let arc = arcs.get(pin).or(arcs.first());
                    assert_eq!(lib.input_arc(id, pin), arc, "{} pin {pin}", cell.name);
                }
            }
            assert!(steps > 0, "the library has drive variants to step between");
            assert_eq!(lib.cell_by_id(u32::MAX), None);
            assert_eq!(lib.input_cap(u32::MAX, 0), None);
            assert_eq!(lib.input_arc(u32::MAX, 0), None);
            assert_eq!(lib.next_drive(u32::MAX, true), None);
        }
        assert_eq!(duplicated.cell_id("INV_X2"), Some(duplicated.cells.len() as u32 - 1));
    }

    #[test]
    fn drive_strength_parsing() {
        let c = Cell { name: "NAND2_X4".into(), area: 1.0, leakage: 1.0, pins: vec![], ff: None };
        assert_eq!(c.drive_strength(), 4);
        assert_eq!(c.base_name(), "NAND2");
        let p = Cell { name: "WEIRD".into(), area: 1.0, leakage: 1.0, pins: vec![], ff: None };
        assert_eq!(p.drive_strength(), 1);
        assert_eq!(p.base_name(), "WEIRD");
    }
}
