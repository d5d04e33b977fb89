//! Simulated logic-synthesis tool (Design Compiler substitute).
//!
//! The ChatLS paper evaluates customized synthesis scripts by running them
//! through Synopsys Design Compiler against the Nangate 45nm library. This
//! crate reproduces that loop end to end in Rust:
//!
//! - [`script`] — a Tcl-subset parser for DC-style scripts.
//! - [`tool::SynthSession`] — the command interpreter: constraint commands
//!   (`create_clock`, `set_max_area`, `set_wire_load_model`, …),
//!   optimization commands (`compile`, `compile_ultra`,
//!   `optimize_registers`, `balance_buffers`, `ungroup`,
//!   `insert_clock_gating`) and reports. Unknown or ill-formed commands
//!   abort the run — the failure mode of hallucinated scripts.
//! - [`passes`] — the functionally-verified optimization passes behind
//!   those commands (sweep, constant propagation, sizing, buffering,
//!   retiming, clock gating, area recovery).
//! - [`sta`] — static timing analysis producing WNS/CPS/TNS/area, the
//!   metrics of the paper's Tables III and IV.
//! - [`tool::command_manual`] — the tool's user manual; SynthRAG's
//!   text-retrieval corpus is built from these entries.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use chatls_synth::tool::SessionBuilder;
//!
//! let sf = chatls_verilog::parse(
//!     "module m(input clk, input [7:0] a, b, output reg [7:0] q);
//!          always @(posedge clk) q <= a + b;
//!      endmodule")?;
//! let netlist = chatls_verilog::lower_to_netlist(&sf, "m")?;
//! let mut session = SessionBuilder::new(netlist, chatls_liberty::nangate45()).session()?;
//! let result = session.run_script(
//!     "create_clock -period 1.0 [get_ports clk]\ncompile\nreport_qor");
//! assert!(result.ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod design;
pub mod netlist_out;
pub mod passes;
pub mod power;
pub mod script;
pub mod sta;
pub mod timing_graph;
pub mod tool;

pub use design::{EditJournal, MappedDesign, SynthesisError, NO_CELL};
pub use sta::{Constraints, QorReport, TimingReport};
pub use timing_graph::{
    reset_sta_telemetry, sta_check_enabled, sta_telemetry, StaCheckGuard, StaTelemetry,
    TimingGraph, TimingView,
};
pub use tool::{
    command_manual, CommandEvent, CommandObserver, ManualEntry, RunResult, ScriptError,
    SessionBuilder, SessionTemplate, SynthSession,
};
