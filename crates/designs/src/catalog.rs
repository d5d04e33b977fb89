//! The design catalog: generators for the paper's benchmark designs
//! (Table IV) and database designs (Table II).
//!
//! Third-party RTL cannot be shipped, so each design is a deterministic
//! generator reproducing the original's *structural signature*: the mix of
//! arithmetic/control/memory modules, pipeline depth, fanout profile and
//! relative size ordering (see DESIGN.md, substitution table). Absolute
//! gate counts are scaled down for tractable experiment runtimes; the
//! Table IV ordering (riscv32i < aes < dynamic_node < tinyRocket < ethmac
//! < jpeg < swerv) is preserved and locked by tests.

use crate::blocks;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Design category (Table II rows plus benchmark categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// CPU cores (Rocket, Sodor, riscv32i, swerv, tinyRocket).
    ProcessorCore,
    /// ML accelerators (NVDLA, Gemmini).
    MlAccelerator,
    /// Vector/SIMD arithmetic.
    VectorArithmetic,
    /// DSP (FFT, JPEG).
    SignalProcessing,
    /// Cryptographic arithmetic (SHA3, AES).
    CryptoArithmetic,
    /// Network interfaces (ethmac).
    NetworkInterface,
    /// NoC routers (dynamic_node).
    NocRouter,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::ProcessorCore => "Processor Core",
            Category::MlAccelerator => "Machine Learning Accelerator",
            Category::VectorArithmetic => "Vector Arithmetic",
            Category::SignalProcessing => "Signal Processing",
            Category::CryptoArithmetic => "Cryptographic Arithmetic",
            Category::NetworkInterface => "Network Interface",
            Category::NocRouter => "NoC Router",
        };
        f.write_str(s)
    }
}

/// Functional kind of a module (CircuitMentor's classification target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleKind {
    /// Adders, multipliers, ALUs, butterflies.
    Arithmetic,
    /// FSMs and decoders.
    Control,
    /// Register files and FIFOs.
    Memory,
    /// Crossbars and fanout hubs.
    Interface,
    /// Diffusion rounds and S-boxes.
    Crypto,
}

/// Ground-truth info about one module of a generated design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuleInfo {
    /// Module name in the source.
    pub name: String,
    /// Functional kind.
    pub kind: ModuleKind,
}

/// A generated design with its ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedDesign {
    /// Design name (matches the paper's tables).
    pub name: String,
    /// Category.
    pub category: Category,
    /// Full Verilog source.
    pub source: String,
    /// Top module name.
    pub top: String,
    /// Per-module ground truth (excludes the top).
    pub modules: Vec<ModuleInfo>,
    /// Clock period (ns) used by the baseline script for this design.
    pub default_period: f64,
}

impl GeneratedDesign {
    /// Parses and lowers the design to a gate netlist.
    ///
    /// # Panics
    ///
    /// Panics if the generator produced invalid source — a bug, covered by
    /// the crate tests.
    pub fn netlist(&self) -> chatls_verilog::netlist::Netlist {
        let sf = chatls_verilog::parse(&self.source)
            .unwrap_or_else(|e| panic!("design {}: {e}", self.name));
        chatls_verilog::lower_to_netlist(&sf, &self.top)
            .unwrap_or_else(|e| panic!("design {}: {e}", self.name))
    }

    /// Parses the design source to an AST.
    ///
    /// # Panics
    ///
    /// Panics if the generator produced invalid source.
    pub fn ast(&self) -> chatls_verilog::ast::SourceFile {
        chatls_verilog::parse(&self.source).unwrap_or_else(|e| panic!("design {}: {e}", self.name))
    }
}

struct Builder {
    name: String,
    category: Category,
    default_period: f64,
    source: String,
    modules: Vec<ModuleInfo>,
    instances: Vec<String>,
    wires: Vec<String>,
    top_extra: Vec<String>,
    outputs: Vec<(String, u32, String)>, // (port, width, driving expr)
    inputs: Vec<(String, u32)>,
}

impl Builder {
    fn new(name: &str, category: Category, period: f64) -> Self {
        Self {
            name: name.into(),
            category,
            default_period: period,
            source: String::new(),
            modules: Vec::new(),
            instances: Vec::new(),
            wires: Vec::new(),
            top_extra: Vec::new(),
            outputs: Vec::new(),
            inputs: Vec::new(),
        }
    }

    fn module(&mut self, src: String, name: &str, kind: ModuleKind) -> &mut Self {
        self.source.push_str(&src);
        self.modules.push(ModuleInfo { name: name.into(), kind });
        self
    }

    fn wire(&mut self, decl: &str) -> &mut Self {
        self.wires.push(decl.to_string());
        self
    }

    fn inst(&mut self, text: &str) -> &mut Self {
        self.instances.push(text.to_string());
        self
    }

    fn input(&mut self, name: &str, width: u32) -> &mut Self {
        self.inputs.push((name.into(), width));
        self
    }

    fn output(&mut self, name: &str, width: u32, expr: &str) -> &mut Self {
        self.outputs.push((name.into(), width, expr.into()));
        self
    }

    fn extra(&mut self, text: &str) -> &mut Self {
        self.top_extra.push(text.to_string());
        self
    }

    fn finish(mut self) -> GeneratedDesign {
        use std::fmt::Write;
        let mut top = String::new();
        write!(top, "module {}(input clk, input rst", self.name).unwrap();
        for (n, w) in &self.inputs {
            if *w == 1 {
                write!(top, ", input {n}").unwrap();
            } else {
                write!(top, ", input [{}:0] {n}", w - 1).unwrap();
            }
        }
        for (n, w, _) in &self.outputs {
            if *w == 1 {
                write!(top, ", output {n}").unwrap();
            } else {
                write!(top, ", output [{}:0] {n}", w - 1).unwrap();
            }
        }
        writeln!(top, ");").unwrap();
        for w in &self.wires {
            writeln!(top, "  {w}").unwrap();
        }
        for i in &self.instances {
            writeln!(top, "  {i}").unwrap();
        }
        for e in &self.top_extra {
            writeln!(top, "  {e}").unwrap();
        }
        for (n, _, expr) in &self.outputs {
            writeln!(top, "  assign {n} = {expr};").unwrap();
        }
        writeln!(top, "endmodule").unwrap();
        self.source.push_str(&top);
        GeneratedDesign {
            name: self.name.clone(),
            category: self.category,
            source: self.source,
            top: self.name,
            modules: self.modules,
            default_period: self.default_period,
        }
    }
}

/// `aes` (OpenCores): pipelined diffusion rounds + S-boxes over a 32-bit
/// lane; deep XOR cones with a marginal baseline clock.
///
/// Default periods across the suite are calibrated (see
/// `calibrate_periods`) so the baseline slack signs match Table IV:
/// aes/dynamic_node/jpeg/ethmac/tinyRocket violate, riscv32i/swerv meet.
pub fn aes() -> GeneratedDesign {
    let mut b = Builder::new("aes", Category::CryptoArithmetic, 3.50);
    b.module(blocks::xor_round("aes_round", 32, 6), "aes_round", ModuleKind::Crypto);
    b.module(blocks::sbox("aes_sbox", 32), "aes_sbox", ModuleKind::Crypto);
    b.module(blocks::regfile("aes_keymem", 8, 32), "aes_keymem", ModuleKind::Memory);
    b.module(blocks::fsm("aes_ctrl", 12), "aes_ctrl", ModuleKind::Control);
    b.input("din", 32).input("key", 32).input("we", 1).input("addr", 3);
    for r in 0..2u32 {
        b.wire(&format!("wire [31:0] rk{r}, rs{r}, rq{r};"));
        b.extra(&format!("reg [31:0] st{r};"));
    }
    b.wire("wire [31:0] kw;");
    b.wire("wire [3:0] cs;");
    b.wire("wire cbusy;");
    b.inst("aes_keymem u_keymem (.clk(clk), .we(we), .waddr(addr), .raddr(addr), .wdata(key), .rdata(kw));");
    b.inst("aes_ctrl u_ctrl (.clk(clk), .rst(rst), .ev(din[3:0]), .state(cs), .busy(cbusy));");
    for r in 0..2u32 {
        let prev = if r == 0 { "din".to_string() } else { format!("st{}", r - 1) };
        b.inst(&format!("aes_round u_round{r} (.x({prev}), .k(kw ^ {{28'd0, cs}}), .y(rk{r}));"));
        b.inst(&format!("aes_sbox u_sbox{r} (.x(rk{r}), .y(rs{r}));"));
        b.extra(&format!("always @(posedge clk) st{r} <= rs{r} ^ {{31'd0, cbusy}};"));
    }
    b.output("dout", 32, "st1");
    b.finish()
}

/// `dynamic_node` (OPDB NoC router): 5-port crossbar, per-port FIFOs and
/// route-compute FSMs.
pub fn dynamic_node() -> GeneratedDesign {
    let mut b = Builder::new("dynamic_node", Category::NocRouter, 2.24);
    b.module(blocks::crossbar("dn_xbar", 5, 32), "dn_xbar", ModuleKind::Interface);
    b.module(blocks::fifo("dn_fifo", 6, 32), "dn_fifo", ModuleKind::Memory);
    b.module(blocks::fsm("dn_route", 16), "dn_route", ModuleKind::Control);
    b.module(blocks::alu("dn_credit", 16), "dn_credit", ModuleKind::Arithmetic);
    for p in 0..5u32 {
        b.input(&format!("in{p}"), 32);
        b.wire(&format!("wire [31:0] fq{p}, xo{p};"));
        b.wire(&format!("wire [3:0] rt{p};"));
        b.wire(&format!("wire busy{p};"));
        b.inst(&format!(
            "dn_fifo u_fifo{p} (.clk(clk), .shift(in{p}[0]), .din(in{p}), .dout(fq{p}));"
        ));
        b.inst(&format!(
            "dn_route u_route{p} (.clk(clk), .rst(rst), .ev(in{p}[7:4]), .state(rt{p}), .busy(busy{p}));"
        ));
    }
    b.wire("wire [15:0] credit;");
    b.inst("dn_credit u_credit (.a({busy4, busy3, busy2, busy1, busy0, 11'd0}), .b(fq0[15:0]), .op(rt0[2:0]), .y(credit));");
    let mut xbar = String::from("dn_xbar u_xbar (");
    for p in 0..5 {
        xbar.push_str(&format!(".in{p}(fq{p}), .sel{p}(rt{p}[2:0]), "));
    }
    for p in 0..5 {
        xbar.push_str(&format!(".out{p}(xo{p}){}", if p < 4 { ", " } else { "" }));
    }
    xbar.push_str(");");
    b.inst(&xbar);
    b.output("out0", 32, "xo0 ^ {16'd0, credit}");
    b.output("out1", 32, "xo1");
    b.output("out2", 32, "xo2");
    b.output("out3", 32, "xo3");
    b.output("out4", 32, "xo4");
    b.finish()
}

/// `ethmac` (OpenCores Ethernet MAC): streaming FIFOs, CRC-like XOR cone,
/// and control signals with very high fanout — the buffering workload.
pub fn ethmac() -> GeneratedDesign {
    let mut b = Builder::new("ethmac", Category::NetworkInterface, 9.00);
    b.module(blocks::fanout_hub("em_hub", 64), "em_hub", ModuleKind::Interface);
    b.module(blocks::fifo("em_fifo", 8, 32), "em_fifo", ModuleKind::Memory);
    b.module(blocks::xor_round("em_crc", 32, 12), "em_crc", ModuleKind::Crypto);
    b.module(blocks::fsm("em_txctl", 24), "em_txctl", ModuleKind::Control);
    b.module(blocks::regfile("em_cfg", 32, 32), "em_cfg", ModuleKind::Memory);
    b.input("rxd", 64).input("cfg_we", 1).input("cfg_addr", 5).input("cfg_wdata", 32);
    for h in 0..6u32 {
        b.wire(&format!("wire [63:0] lanes{h};"));
        let src = if h == 0 { "rxd".to_string() } else { format!("lanes{}", h - 1) };
        b.inst(&format!(
            "em_hub u_hub{h} (.clk(clk), .data({src}), .mask({{cfg_rd, cfg_rd}}), .lanes(lanes{h}));"
        ));
    }
    for f in 0..8u32 {
        b.wire(&format!("wire [31:0] fo{f};"));
        let lo = (f % 2) * 32;
        let hi = lo + 31;
        b.inst(&format!(
            "em_fifo u_fifo{f} (.clk(clk), .shift(lanes5[{f}]), .din(lanes{}[{hi}:{lo}]), .dout(fo{f}));",
            f % 6
        ));
    }
    b.wire("wire [31:0] crc, cfg_rd;");
    b.wire("wire [4:0] txs;");
    b.wire("wire txbusy;");
    b.inst("em_crc u_crc (.x(fo0 ^ fo1 ^ fo4), .k(fo2 ^ fo3 ^ fo5), .y(crc));");
    b.wire("wire [31:0] crc2;");
    b.inst("em_crc u_crc2 (.x(fo6 ^ crc), .k(fo7), .y(crc2));");
    b.inst("em_txctl u_tx (.clk(clk), .rst(rst), .ev(crc2[3:0]), .state(txs), .busy(txbusy));");
    b.inst("em_cfg u_cfg (.clk(clk), .we(cfg_we), .waddr(cfg_addr), .raddr(crc[4:0]), .wdata(cfg_wdata), .rdata(cfg_rd));");
    b.extra("reg [31:0] txreg;");
    b.extra("always @(posedge clk) txreg <= crc2 ^ {27'd0, txs} ^ {31'd0, txbusy};");
    b.output("txd", 32, "txreg");
    b.output("irq", 1, "txbusy");
    b.finish()
}

/// `jpeg` (OpenCores JPEG encoder): DCT MAC banks, butterfly stages and a
/// quantizer lookup — the largest arithmetic workload.
pub fn jpeg() -> GeneratedDesign {
    let mut b = Builder::new("jpeg", Category::SignalProcessing, 6.27);
    b.module(blocks::mac("jp_mac", 16), "jp_mac", ModuleKind::Arithmetic);
    b.module(blocks::butterfly("jp_bfly", 8, 16), "jp_bfly", ModuleKind::Arithmetic);
    b.module(blocks::sbox("jp_quant", 16), "jp_quant", ModuleKind::Crypto);
    b.module(blocks::fifo("jp_buf", 6, 32), "jp_buf", ModuleKind::Memory);
    b.module(blocks::fsm("jp_ctl", 20), "jp_ctl", ModuleKind::Control);
    b.input("px", 64).input("coef", 16);
    for m in 0..6u32 {
        b.wire(&format!("wire [31:0] acc{m};"));
        let lo = (m % 4) * 16;
        let hi = lo + 15;
        let prev = if m == 0 { "{16'd0, coef}".to_string() } else { format!("acc{}", m - 1) };
        b.inst(&format!(
            "jp_mac u_mac{m} (.clk(clk), .a(px[{hi}:{lo}]), .b(coef), .acc_in({prev}), .acc(acc{m}));"
        ));
    }
    b.wire("wire [15:0] by0, by1, by2, by3, by4, by5, by6, by7;");
    b.inst(
        "jp_bfly u_bfly (.clk(clk), .x0(acc0[15:0]), .x1(acc1[15:0]), .x2(acc2[15:0]), \
         .x3(acc3[15:0]), .x4(acc4[15:0]), .x5(acc5[15:0]), .x6(acc0[31:16]), .x7(acc5[31:16]), \
         .y0(by0), .y1(by1), .y2(by2), .y3(by3), .y4(by4), .y5(by5), .y6(by6), .y7(by7));",
    );
    b.wire("wire [15:0] q0, q1;");
    b.inst("jp_quant u_quant0 (.x(by0 ^ by1), .y(q0));");
    b.inst("jp_quant u_quant1 (.x(by2 + by3), .y(q1));");
    b.wire("wire [31:0] streamed;");
    b.wire("wire [4:0] jstate;");
    b.wire("wire jbusy;");
    b.inst("jp_buf u_buf (.clk(clk), .shift(jbusy), .din({q0, q1}), .dout(streamed));");
    b.inst("jp_ctl u_ctl (.clk(clk), .rst(rst), .ev(by4[3:0]), .state(jstate), .busy(jbusy));");
    b.output("bits", 32, "streamed ^ {by5, by6}");
    b.output("done", 1, "jbusy");
    b.finish()
}

/// `riscv32i` (picorv32-class core): single ALU, small register file and a
/// control FSM — the smallest benchmark, comfortably meeting timing.
pub fn riscv32i() -> GeneratedDesign {
    let mut b = Builder::new("riscv32i", Category::ProcessorCore, 5.91);
    b.module(blocks::alu("rv_alu", 32), "rv_alu", ModuleKind::Arithmetic);
    b.module(blocks::regfile("rv_rf", 8, 32), "rv_rf", ModuleKind::Memory);
    b.module(blocks::fsm("rv_ctl", 8), "rv_ctl", ModuleKind::Control);
    b.input("instr", 32);
    b.wire("wire [31:0] rs1, alu_y;");
    b.wire("wire [2:0] st;");
    b.wire("wire busy;");
    b.inst("rv_ctl u_ctl (.clk(clk), .rst(rst), .ev(instr[3:0]), .state(st), .busy(busy));");
    b.inst("rv_rf u_rf (.clk(clk), .we(busy), .waddr(instr[2:0]), .raddr(instr[18:16]), .wdata(alu_y), .rdata(rs1));");
    b.inst("rv_alu u_alu (.a(rs1), .b(instr), .op(instr[14:12]), .y(alu_y));");
    b.extra("reg [31:0] pc;");
    b.extra("always @(posedge clk) if (busy) pc <= pc + 32'd4;");
    b.output("pc_out", 32, "pc");
    b.output("result", 32, "alu_y");
    b.finish()
}

/// `swerv` (Western Digital SweRV EH1-class): dual-issue — two ALUs, two
/// MACs, a large register file and deep buffers. The largest benchmark,
/// meeting timing at its generous baseline clock.
pub fn swerv() -> GeneratedDesign {
    let mut b = Builder::new("swerv", Category::ProcessorCore, 11.21);
    b.module(blocks::alu("sw_alu", 32), "sw_alu", ModuleKind::Arithmetic);
    b.module(blocks::mac("sw_mac", 16), "sw_mac", ModuleKind::Arithmetic);
    b.module(blocks::regfile("sw_rf", 16, 32), "sw_rf", ModuleKind::Memory);
    b.module(blocks::fsm("sw_lsu", 24), "sw_lsu", ModuleKind::Control);
    b.module(blocks::fifo("sw_ibuf", 8, 32), "sw_ibuf", ModuleKind::Memory);
    b.module(blocks::xor_round("sw_bpu", 32, 6), "sw_bpu", ModuleKind::Crypto);
    b.input("i0", 32).input("i1", 32).input("i2", 32).input("i3", 32);
    for lane in 0..4u32 {
        let i = format!("i{lane}");
        b.wire(&format!("wire [31:0] rs{lane}, y{lane}, fq{lane};"));
        b.wire(&format!("wire [31:0] macq{lane};"));
        b.inst(&format!(
            "sw_ibuf u_ibuf{lane} (.clk(clk), .shift({i}[0]), .din({i}), .dout(fq{lane}));"
        ));
        b.inst(&format!(
            "sw_rf u_rf{lane} (.clk(clk), .we(fq{lane}[1]), .waddr(fq{lane}[7:4]), .raddr(fq{lane}[11:8]), .wdata(y{lane}), .rdata(rs{lane}));"
        ));
        b.inst(&format!(
            "sw_alu u_alu{lane} (.a(rs{lane}), .b(fq{lane}), .op(fq{lane}[14:12]), .y(y{lane}));"
        ));
        b.inst(&format!(
            "sw_mac u_mac{lane} (.clk(clk), .a(rs{lane}[15:0]), .b(fq{lane}[15:0]), .acc_in(y{lane}), .acc(macq{lane}));"
        ));
    }
    b.wire("wire [31:0] bp;");
    b.wire("wire [4:0] ls;");
    b.wire("wire lbusy;");
    b.inst("sw_bpu u_bpu (.x(y0 ^ y1 ^ y2), .k(macq0 ^ macq1 ^ macq3), .y(bp));");
    b.inst("sw_lsu u_lsu (.clk(clk), .rst(rst), .ev(bp[3:0]), .state(ls), .busy(lbusy));");
    b.extra("reg [31:0] retire0, retire1;");
    b.extra("always @(posedge clk) begin retire0 <= macq0 ^ bp ^ macq2; retire1 <= (macq1 ^ macq3) + {27'd0, ls}; end");
    b.output("r0", 32, "retire0");
    b.output("r1", 32, "retire1");
    b.output("stall", 1, "lbusy");
    b.finish()
}

/// `tinyRocket` (Rocket-chip small config): ALU + 16×16 multiplier +
/// register file behind an unbalanced pipeline — the retiming workload
/// with a deep baseline violation.
pub fn tiny_rocket() -> GeneratedDesign {
    let mut b = Builder::new("tinyRocket", Category::ProcessorCore, 6.65);
    b.module(blocks::alu("tr_alu", 32), "tr_alu", ModuleKind::Arithmetic);
    b.module(blocks::mac("tr_mul", 16), "tr_mul", ModuleKind::Arithmetic);
    b.module(blocks::regfile("tr_rf", 16, 32), "tr_rf", ModuleKind::Memory);
    b.module(blocks::unbalanced_pipe("tr_exu", 32), "tr_exu", ModuleKind::Arithmetic);
    b.module(blocks::fsm("tr_ctl", 12), "tr_ctl", ModuleKind::Control);
    b.input("instr", 32);
    b.wire("wire [31:0] rs1, alu_y, exq, mulq;");
    b.wire("wire [3:0] st;");
    b.wire("wire busy;");
    b.inst("tr_ctl u_ctl (.clk(clk), .rst(rst), .ev(instr[3:0]), .state(st), .busy(busy));");
    b.inst("tr_rf u_rf (.clk(clk), .we(busy), .waddr(instr[3:0]), .raddr(instr[19:16]), .wdata(exq), .rdata(rs1));");
    b.inst("tr_alu u_alu (.a(rs1), .b(instr), .op(instr[14:12]), .y(alu_y));");
    b.inst("tr_mul u_mul (.clk(clk), .a(rs1[15:0]), .b(instr[15:0]), .acc_in(alu_y), .acc(mulq));");
    b.inst("tr_exu u_exu (.clk(clk), .a(alu_y), .b(mulq), .q2(exq));");
    b.output("wb", 32, "exq");
    b.output("mul_out", 32, "mulq");
    b.finish()
}

/// `Rocket` (Table II): a larger Rocket-chip-class core.
pub fn rocket() -> GeneratedDesign {
    let mut d = tiny_rocket();
    d = scale_processor("rocket", d, 2);
    d.category = Category::ProcessorCore;
    d
}

/// `Sodor` (Table II): an educational single-issue core.
pub fn sodor() -> GeneratedDesign {
    let mut d = riscv32i();
    d.name = "sodor".into();
    d.source = d.source.replace("riscv32i", "sodor").replace("rv_", "so_");
    d.top = "sodor".into();
    for m in &mut d.modules {
        m.name = m.name.replace("rv_", "so_");
    }
    d
}

/// `NVDLA` (Table II): a MAC-array ML accelerator.
pub fn nvdla() -> GeneratedDesign {
    mac_array_design("nvdla", Category::MlAccelerator, 8, 16)
}

/// `Gemmini` (Table II): a systolic-array ML accelerator with scratchpad.
pub fn gemmini() -> GeneratedDesign {
    let mut b = mac_array_builder("gemmini", Category::MlAccelerator, 6, 16);
    b.module(blocks::regfile("gm_spad", 16, 32), "gm_spad", ModuleKind::Memory);
    b.wire("wire [31:0] sp_rd;");
    b.inst("gm_spad u_spad (.clk(clk), .we(act[0]), .waddr(act[4:1]), .raddr(act[8:5]), .wdata(m0), .rdata(sp_rd));");
    b.output("sp_out", 32, "sp_rd");
    b.finish_with_default_outputs()
}

/// `SIMD` (Table II): parallel vector lanes.
pub fn simd() -> GeneratedDesign {
    let mut b = Builder::new("simd", Category::VectorArithmetic, 1.4);
    b.module(blocks::alu("sv_lane", 16), "sv_lane", ModuleKind::Arithmetic);
    b.module(blocks::butterfly("sv_shuffle", 4, 16), "sv_shuffle", ModuleKind::Arithmetic);
    b.input("va", 64).input("vb", 64).input("vop", 3);
    for l in 0..4u32 {
        let lo = l * 16;
        let hi = lo + 15;
        b.wire(&format!("wire [15:0] ly{l};"));
        b.inst(&format!(
            "sv_lane u_lane{l} (.a(va[{hi}:{lo}]), .b(vb[{hi}:{lo}]), .op(vop), .y(ly{l}));"
        ));
    }
    b.wire("wire [15:0] sy0, sy1, sy2, sy3;");
    b.inst("sv_shuffle u_shuf (.clk(clk), .x0(ly0), .x1(ly1), .x2(ly2), .x3(ly3), .y0(sy0), .y1(sy1), .y2(sy2), .y3(sy3));");
    b.output("vout", 64, "{sy3, sy2, sy1, sy0}");
    b.finish()
}

/// `FFT` (Table II, MachSuite): cascaded butterfly stages.
pub fn fft() -> GeneratedDesign {
    let mut b = Builder::new("fft", Category::SignalProcessing, 1.5);
    b.module(blocks::butterfly("ff_bfly", 8, 16), "ff_bfly", ModuleKind::Arithmetic);
    b.module(blocks::mac("ff_twiddle", 16), "ff_twiddle", ModuleKind::Arithmetic);
    b.input("xin", 64);
    for st in 0..3u32 {
        for l in 0..8u32 {
            b.wire(&format!("wire [15:0] s{st}_{l};"));
        }
    }
    let mut first = String::from("ff_bfly u_b0 (.clk(clk)");
    for l in 0..8u32 {
        let lo = (l % 4) * 16;
        first.push_str(&format!(", .x{l}(xin[{}:{}])", lo + 15, lo));
    }
    for l in 0..8u32 {
        first.push_str(&format!(", .y{l}(s0_{l})"));
    }
    first.push_str(");");
    b.inst(&first);
    for st in 1..3u32 {
        let p = st - 1;
        let mut inst = format!("ff_bfly u_b{st} (.clk(clk)");
        for l in 0..8u32 {
            // Stride permutation between stages.
            let src = (l * 2 + l / 4) % 8;
            inst.push_str(&format!(", .x{l}(s{p}_{src})"));
        }
        for l in 0..8u32 {
            inst.push_str(&format!(", .y{l}(s{st}_{l})"));
        }
        inst.push_str(");");
        b.inst(&inst);
    }
    b.wire("wire [31:0] tw;");
    b.inst("ff_twiddle u_tw (.clk(clk), .a(s2_0), .b(s2_1), .acc_in({s2_2, s2_3}), .acc(tw));");
    b.output("xout", 64, "{s2_4, s2_5, s2_6, s2_7}");
    b.output("twiddle", 32, "tw");
    b.finish()
}

/// `SHA3` (Table II, Chipyard): deep keccak-like diffusion rounds.
pub fn sha3() -> GeneratedDesign {
    let mut b = Builder::new("sha3", Category::CryptoArithmetic, 1.2);
    b.module(blocks::xor_round("sh_theta", 32, 12), "sh_theta", ModuleKind::Crypto);
    b.module(blocks::sbox("sh_chi", 32), "sh_chi", ModuleKind::Crypto);
    b.module(blocks::fsm("sh_ctl", 10), "sh_ctl", ModuleKind::Control);
    b.input("msg", 32);
    b.wire("wire [31:0] t0, t1, c0;");
    b.wire("wire [3:0] hs;");
    b.wire("wire hbusy;");
    b.extra("reg [31:0] state0, state1;");
    b.inst("sh_ctl u_ctl (.clk(clk), .rst(rst), .ev(msg[3:0]), .state(hs), .busy(hbusy));");
    b.inst("sh_theta u_theta0 (.x(state0), .k(msg), .y(t0));");
    b.inst("sh_chi u_chi0 (.x(t0), .y(c0));");
    b.inst("sh_theta u_theta1 (.x(state1), .k(c0), .y(t1));");
    b.extra("always @(posedge clk) begin state0 <= c0; state1 <= t1 ^ {28'd0, hs}; end");
    b.output("digest", 32, "state1");
    b.output("ready", 1, "hbusy");
    b.finish()
}

/// One catalog entry: a design's name and its constructor.
type Entry = (&'static str, fn() -> GeneratedDesign);

/// Name → constructor for every catalog design: the seven Table IV
/// benchmarks in the paper's row order, then the seven Table II
/// database designs. [`benchmarks`], [`database_designs`] and
/// [`by_name`] all read this one table, so a lookup builds only the
/// design it names.
const CATALOG: [Entry; 14] = [
    ("aes", aes),
    ("dynamic_node", dynamic_node),
    ("ethmac", ethmac),
    ("jpeg", jpeg),
    ("riscv32i", riscv32i),
    ("swerv", swerv),
    ("tinyRocket", tiny_rocket),
    ("rocket", rocket),
    ("sodor", sodor),
    ("nvdla", nvdla),
    ("gemmini", gemmini),
    ("simd", simd),
    ("fft", fft),
    ("sha3", sha3),
];

/// How many leading [`CATALOG`] entries are benchmarks.
const BENCHMARK_COUNT: usize = 7;

fn build_all(entries: &[Entry]) -> Vec<GeneratedDesign> {
    entries.iter().map(|(_, build)| build()).collect()
}

/// All seven Table IV benchmark designs, in the paper's row order.
pub fn benchmarks() -> Vec<GeneratedDesign> {
    build_all(&CATALOG[..BENCHMARK_COUNT])
}

/// All Table II database designs.
pub fn database_designs() -> Vec<GeneratedDesign> {
    build_all(&CATALOG[BENCHMARK_COUNT..])
}

/// Looks up any design (benchmark or database) by name, building only
/// that one.
pub fn by_name(name: &str) -> Option<GeneratedDesign> {
    CATALOG.iter().find(|(n, _)| *n == name).map(|(_, build)| build())
}

// ---- helpers for derived designs ----

fn scale_processor(name: &str, base: GeneratedDesign, _factor: u32) -> GeneratedDesign {
    // Rename and widen the tinyRocket profile: a second execution lane.
    let mut d = base;
    let src = d.source.replace("tinyRocket", name).replace("tr_", "rk_");
    d.source = src;
    d.top = name.into();
    d.name = name.into();
    for m in &mut d.modules {
        m.name = m.name.replace("tr_", "rk_");
    }
    d
}

struct MacArrayBuilder {
    b: Builder,
    rows: u32,
}

fn mac_array_builder(name: &str, category: Category, rows: u32, width: u32) -> MacArrayBuilder {
    let mut b = Builder::new(name, category, 1.8);
    b.module(blocks::mac("ma_pe", width), "ma_pe", ModuleKind::Arithmetic);
    b.module(blocks::fsm("ma_seq", 16), "ma_seq", ModuleKind::Control);
    b.module(blocks::fifo("ma_act", 4, 32), "ma_act", ModuleKind::Memory);
    b.input("wts", 64).input("acts", 32);
    b.wire("wire [31:0] act;");
    b.wire("wire [3:0] ss;");
    b.wire("wire sbusy;");
    b.inst("ma_act u_act (.clk(clk), .shift(acts[0]), .din(acts), .dout(act));");
    b.inst("ma_seq u_seq (.clk(clk), .rst(rst), .ev(acts[3:0]), .state(ss), .busy(sbusy));");
    for r in 0..rows {
        b.wire(&format!("wire [31:0] m{r};"));
        let prev = if r == 0 { "{16'd0, act[15:0]}".to_string() } else { format!("m{}", r - 1) };
        let lo = (r % 4) * 16;
        let hi = lo + 15;
        b.inst(&format!(
            "ma_pe u_pe{r} (.clk(clk), .a(wts[{hi}:{lo}]), .b(act[15:0]), .acc_in({prev}), .acc(m{r}));"
        ));
    }
    MacArrayBuilder { b, rows }
}

impl MacArrayBuilder {
    fn module(&mut self, src: String, name: &str, kind: ModuleKind) -> &mut Self {
        self.b.module(src, name, kind);
        self
    }

    fn wire(&mut self, w: &str) -> &mut Self {
        self.b.wire(w);
        self
    }

    fn inst(&mut self, i: &str) -> &mut Self {
        self.b.inst(i);
        self
    }

    fn output(&mut self, n: &str, w: u32, e: &str) -> &mut Self {
        self.b.output(n, w, e);
        self
    }

    fn finish_with_default_outputs(mut self) -> GeneratedDesign {
        let last = self.rows - 1;
        self.b.output("sum", 32, &format!("m{last}"));
        self.b.output("busy", 1, "sbusy");
        self.b.finish()
    }
}

fn mac_array_design(name: &str, category: Category, rows: u32, width: u32) -> GeneratedDesign {
    mac_array_builder(name, category, rows, width).finish_with_default_outputs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_parse_lower_and_check() {
        for d in benchmarks() {
            let nl = d.netlist();
            nl.check().unwrap_or_else(|e| panic!("{}: {e}", d.name));
            assert!(nl.num_comb_gates() > 100, "{} too small", d.name);
            assert!(nl.num_registers() > 10, "{} needs registers", d.name);
        }
    }

    #[test]
    fn all_database_designs_parse_and_lower() {
        for d in database_designs() {
            let nl = d.netlist();
            nl.check().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        }
    }

    #[test]
    fn benchmark_names_match_paper() {
        let names: Vec<String> = benchmarks().into_iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec!["aes", "dynamic_node", "ethmac", "jpeg", "riscv32i", "swerv", "tinyRocket"]
        );
    }

    #[test]
    fn database_names_match_paper() {
        let names: Vec<String> = database_designs().into_iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["rocket", "sodor", "nvdla", "gemmini", "simd", "fft", "sha3"]);
    }

    #[test]
    fn by_name_finds_both_sets() {
        assert!(by_name("aes").is_some());
        assert!(by_name("gemmini").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn by_name_returns_every_listed_design_unchanged() {
        for d in benchmarks().into_iter().chain(database_designs()) {
            assert_eq!(by_name(&d.name).as_ref(), Some(&d), "{} differs through by_name", d.name);
        }
        for unknown in ["", "AES", "aes ", "tinyrocket", "inline:aes"] {
            assert!(by_name(unknown).is_none(), "'{unknown}' must not resolve");
        }
    }

    #[test]
    fn size_ordering_matches_table_iv() {
        // Gate count must follow the paper's area ordering:
        // riscv32i < aes < dynamic_node < tinyRocket < ethmac < jpeg < swerv
        let order = ["riscv32i", "aes", "dynamic_node", "tinyRocket", "ethmac", "jpeg", "swerv"];
        let mut sizes = Vec::new();
        for name in order {
            let d = by_name(name).unwrap();
            sizes.push((name, d.netlist().gates.len()));
        }
        for pair in sizes.windows(2) {
            assert!(
                pair[0].1 < pair[1].1,
                "size order violated: {}={} !< {}={}",
                pair[0].0,
                pair[0].1,
                pair[1].0,
                pair[1].1
            );
        }
    }

    #[test]
    fn module_ground_truth_names_exist_in_source() {
        for d in benchmarks().into_iter().chain(database_designs()) {
            let ast = d.ast();
            for m in &d.modules {
                assert!(
                    ast.module(&m.name).is_some(),
                    "{}: module {} missing from source",
                    d.name,
                    m.name
                );
            }
        }
    }

    #[test]
    fn designs_are_deterministic() {
        assert_eq!(aes().source, aes().source);
        assert_eq!(jpeg().source, jpeg().source);
    }

    #[test]
    fn ethmac_has_high_fanout_signature() {
        let nl = ethmac().netlist();
        let max_fanout = nl.fanout_map().iter().map(|f| f.len()).max().unwrap();
        assert!(max_fanout >= 32, "ethmac must have a high-fanout net, got {max_fanout}");
    }

    #[test]
    fn categories_cover_table_ii() {
        let cats: Vec<Category> = database_designs().iter().map(|d| d.category).collect();
        assert!(cats.contains(&Category::ProcessorCore));
        assert!(cats.contains(&Category::MlAccelerator));
        assert!(cats.contains(&Category::VectorArithmetic));
        assert!(cats.contains(&Category::SignalProcessing));
        assert!(cats.contains(&Category::CryptoArithmetic));
    }
}
