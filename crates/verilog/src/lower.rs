//! Elaboration and RTL-to-gate lowering.
//!
//! [`lower_to_netlist`] flattens a module hierarchy into a [`Netlist`] of
//! primitive gates: word-level operators are bit-blasted (ripple-carry
//! adders, array multipliers, barrel shifters, mux trees), `always
//! @(posedge …)` blocks infer D flip-flops, and `always @(*)` blocks become
//! mux-tree combinational logic.
//!
//! # Supported semantics and simplifications
//!
//! - All arithmetic is unsigned; widths follow a simplified rule set
//!   (operands extend to the wider width; comparisons yield 1 bit).
//! - Asynchronous resets in the sensitivity list are lowered as synchronous
//!   mux-on-data resets; the simulated synthesis flow treats both alike.
//! - In clocked blocks every right-hand side reads the register values at
//!   clock-edge entry (nonblocking semantics); in `always @(*)` blocks reads
//!   see prior writes (blocking semantics).
//! - Incompletely assigned targets of `always @(*)` default to 0 instead of
//!   inferring a latch.

use crate::ast::*;
use crate::error::ElaborateError;
use crate::netlist::{GateKind, NetId, Netlist};
use std::collections::HashMap;

/// Flattens `top` (and everything it instantiates) into a gate netlist.
///
/// # Errors
///
/// Returns [`ElaborateError`] when the module is unknown, a parameter or
/// range is not compile-time constant, a signal is referenced before
/// declaration, or a construct outside the supported subset is used.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sf = chatls_verilog::parse(
///     "module inv(input a, output y); assign y = ~a; endmodule")?;
/// let nl = chatls_verilog::lower_to_netlist(&sf, "inv")?;
/// assert!(nl.num_comb_gates() >= 1);
/// # Ok(())
/// # }
/// ```
pub fn lower_to_netlist(sf: &SourceFile, top: &str) -> Result<Netlist, ElaborateError> {
    let mut lw =
        Lowerer { sf, nl: Netlist::new(top), const0: None, const1: None, fresh: 0, depth: 0 };
    let module = sf.module(top).ok_or_else(|| err(top, format!("top module '{top}' not found")))?;

    let mut ctx = ModuleCtx {
        module_name: top.to_string(),
        path: top.to_string(),
        params: HashMap::new(),
        signals: HashMap::new(),
    };
    lw.declare_params(module, &mut ctx, &[])?;
    // Allocate nets for ports; inputs become primary inputs.
    for port in &module.ports {
        let bits = lw.declare_signal(&mut ctx, &port.name, port.range.as_ref())?;
        match port.dir {
            PortDir::Input => {
                for (i, &b) in bits.bits.iter().enumerate() {
                    let name = bit_name(&port.name, &bits, i);
                    lw.nl.inputs.push((name, b));
                }
            }
            PortDir::Output => {
                for (i, &b) in bits.bits.iter().enumerate() {
                    let name = bit_name(&port.name, &bits, i);
                    lw.nl.outputs.push((name, b));
                }
            }
            PortDir::Inout => {
                return Err(err(top, "inout ports are not supported".to_string()));
            }
        }
    }
    lw.lower_module_body(module, &mut ctx)?;
    lw.nl.check().map_err(|m| err(top, format!("lowered netlist failed check: {m}")))?;
    Ok(lw.nl)
}

fn err(module: &str, message: String) -> ElaborateError {
    ElaborateError { module: module.to_string(), message }
}

/// Bits of a declared signal, LSB first, plus the declared LSB offset so
/// `sig[i]` maps to `bits[i - lsb]`.
#[derive(Debug, Clone)]
struct SignalBits {
    lsb: u64,
    bits: Vec<NetId>,
}

impl SignalBits {
    fn width(&self) -> usize {
        self.bits.len()
    }
}

fn bit_name(port: &str, bits: &SignalBits, i: usize) -> String {
    if bits.width() == 1 && bits.lsb == 0 {
        port.to_string()
    } else {
        format!("{port}[{}]", bits.lsb + i as u64)
    }
}

struct ModuleCtx {
    module_name: String,
    path: String,
    params: HashMap<String, u64>,
    signals: HashMap<String, SignalBits>,
}

struct Lowerer<'a> {
    sf: &'a SourceFile,
    nl: Netlist,
    const0: Option<NetId>,
    const1: Option<NetId>,
    fresh: u64,
    depth: u32,
}

const MAX_DEPTH: u32 = 64;

impl<'a> Lowerer<'a> {
    fn fresh_net(&mut self, hint: &str) -> NetId {
        self.fresh += 1;
        let n = self.fresh;
        self.nl.add_net(format!("${hint}${n}"))
    }

    fn const_bit(&mut self, value: bool) -> NetId {
        if value {
            if let Some(c) = self.const1 {
                return c;
            }
            let n = self.nl.add_net("$const1");
            self.nl.add_gate(GateKind::Const1, &[], n, "$const");
            self.const1 = Some(n);
            n
        } else {
            if let Some(c) = self.const0 {
                return c;
            }
            let n = self.nl.add_net("$const0");
            self.nl.add_gate(GateKind::Const0, &[], n, "$const");
            self.const0 = Some(n);
            n
        }
    }

    fn gate(&mut self, kind: GateKind, inputs: &[NetId], path: &str, hint: &str) -> NetId {
        let out = self.fresh_net(hint);
        self.nl.add_gate(kind, inputs, out, path);
        out
    }

    fn not(&mut self, a: NetId, path: &str) -> NetId {
        self.gate(GateKind::Not, &[a], path, "not")
    }

    fn and(&mut self, a: NetId, b: NetId, path: &str) -> NetId {
        self.gate(GateKind::And, &[a, b], path, "and")
    }

    fn or(&mut self, a: NetId, b: NetId, path: &str) -> NetId {
        self.gate(GateKind::Or, &[a, b], path, "or")
    }

    fn xor(&mut self, a: NetId, b: NetId, path: &str) -> NetId {
        self.gate(GateKind::Xor, &[a, b], path, "xor")
    }

    fn mux(&mut self, sel: NetId, a0: NetId, a1: NetId, path: &str) -> NetId {
        self.gate(GateKind::Mux, &[sel, a0, a1], path, "mux")
    }

    /// Declares parameters, applying instance overrides (name → value).
    fn declare_params(
        &mut self,
        module: &Module,
        ctx: &mut ModuleCtx,
        overrides: &[(String, u64)],
    ) -> Result<(), ElaborateError> {
        for item in &module.items {
            if let Item::Param(p) = item {
                let value = if let Some((_, v)) =
                    overrides.iter().find(|(n, _)| !p.local && *n == p.name)
                {
                    *v
                } else {
                    self.const_eval(&p.value, ctx)?
                };
                ctx.params.insert(p.name.clone(), value);
            }
        }
        Ok(())
    }

    fn const_eval(&self, e: &Expr, ctx: &ModuleCtx) -> Result<u64, ElaborateError> {
        let fail = |m: String| err(&ctx.module_name, m);
        Ok(match e {
            Expr::Literal { value, .. } => *value,
            Expr::Ident(name) => *ctx
                .params
                .get(name)
                .ok_or_else(|| fail(format!("'{name}' is not a constant parameter")))?,
            Expr::Unary { op, operand } => {
                let v = self.const_eval(operand, ctx)?;
                match op {
                    UnaryOp::Not => !v,
                    UnaryOp::LogicalNot => (v == 0) as u64,
                    UnaryOp::Neg => v.wrapping_neg(),
                    UnaryOp::ReduceAnd => (v == u64::MAX) as u64,
                    UnaryOp::ReduceOr => (v != 0) as u64,
                    UnaryOp::ReduceXor => (v.count_ones() % 2) as u64,
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.const_eval(lhs, ctx)?;
                let b = self.const_eval(rhs, ctx)?;
                match op {
                    BinaryOp::Add => a.wrapping_add(b),
                    BinaryOp::Sub => a.wrapping_sub(b),
                    BinaryOp::Mul => a.wrapping_mul(b),
                    BinaryOp::And => a & b,
                    BinaryOp::Or => a | b,
                    BinaryOp::Xor => a ^ b,
                    BinaryOp::LogicalAnd => ((a != 0) && (b != 0)) as u64,
                    BinaryOp::LogicalOr => ((a != 0) || (b != 0)) as u64,
                    BinaryOp::Eq => (a == b) as u64,
                    BinaryOp::Ne => (a != b) as u64,
                    BinaryOp::Lt => (a < b) as u64,
                    BinaryOp::Le => (a <= b) as u64,
                    BinaryOp::Gt => (a > b) as u64,
                    BinaryOp::Ge => (a >= b) as u64,
                    BinaryOp::Shl => a.checked_shl(b as u32).unwrap_or(0),
                    BinaryOp::Shr => a.checked_shr(b as u32).unwrap_or(0),
                }
            }
            Expr::Ternary { cond, then_expr, else_expr } => {
                if self.const_eval(cond, ctx)? != 0 {
                    self.const_eval(then_expr, ctx)?
                } else {
                    self.const_eval(else_expr, ctx)?
                }
            }
            other => {
                return Err(fail(format!("expression is not compile-time constant: {other:?}")))
            }
        })
    }

    fn range_bounds(
        &self,
        range: Option<&Range>,
        ctx: &ModuleCtx,
    ) -> Result<(u64, u64), ElaborateError> {
        match range {
            None => Ok((0, 0)),
            Some(r) => {
                let msb = self.const_eval(&r.msb, ctx)?;
                let lsb = self.const_eval(&r.lsb, ctx)?;
                if msb < lsb {
                    return Err(err(
                        &ctx.module_name,
                        format!("descending ranges are not supported ([{msb}:{lsb}])"),
                    ));
                }
                Ok((msb, lsb))
            }
        }
    }

    fn declare_signal(
        &mut self,
        ctx: &mut ModuleCtx,
        name: &str,
        range: Option<&Range>,
    ) -> Result<SignalBits, ElaborateError> {
        let (msb, lsb) = self.range_bounds(range, ctx)?;
        let width = (msb - lsb + 1) as usize;
        let bits: Vec<NetId> = (0..width)
            .map(|i| {
                let net_name = if width == 1 && lsb == 0 {
                    format!("{}/{name}", ctx.path)
                } else {
                    format!("{}/{name}[{}]", ctx.path, lsb + i as u64)
                };
                self.nl.add_net(net_name)
            })
            .collect();
        let sig = SignalBits { lsb, bits };
        ctx.signals.insert(name.to_string(), sig.clone());
        Ok(sig)
    }

    /// Declares body nets and lowers assigns, always blocks and instances.
    fn lower_module_body(
        &mut self,
        module: &Module,
        ctx: &mut ModuleCtx,
    ) -> Result<(), ElaborateError> {
        // Pass 1: declare all body nets so forward references resolve.
        for item in &module.items {
            if let Item::Net(d) = item {
                for name in &d.names {
                    self.declare_signal(ctx, name, d.range.as_ref())?;
                }
            }
        }
        // Pass 2: lower behaviour.
        for item in &module.items {
            match item {
                Item::Net(_) | Item::Param(_) => {}
                Item::Assign(a) => self.lower_continuous_assign(a, ctx)?,
                Item::Always(a) => self.lower_always(a, ctx)?,
                Item::Instance(inst) => self.lower_instance(inst, ctx)?,
            }
        }
        Ok(())
    }

    fn lower_continuous_assign(
        &mut self,
        a: &Assign,
        ctx: &ModuleCtx,
    ) -> Result<(), ElaborateError> {
        let targets = self.lvalue_bits(&a.lhs, ctx)?;
        let env = Env::from_ctx(ctx);
        let value = self.lower_expr(&a.rhs, targets.len(), &env, ctx)?;
        let path = ctx.path.clone();
        for (t, v) in targets.iter().zip(&value) {
            self.nl.add_gate(GateKind::Buf, &[*v], *t, &path);
        }
        Ok(())
    }

    /// Resolves an lvalue to the declared nets it denotes (LSB first).
    fn lvalue_bits(&mut self, e: &Expr, ctx: &ModuleCtx) -> Result<Vec<NetId>, ElaborateError> {
        let fail = |m: String| err(&ctx.module_name, m);
        match e {
            Expr::Ident(name) => {
                let sig = ctx
                    .signals
                    .get(name)
                    .ok_or_else(|| fail(format!("assignment to undeclared signal '{name}'")))?;
                Ok(sig.bits.clone())
            }
            Expr::BitSelect { base, index } => {
                let name = ident_of(base)
                    .ok_or_else(|| fail("bit-select target must be a plain identifier".into()))?;
                let idx = self.const_eval(index, ctx)?;
                let sig = ctx
                    .signals
                    .get(name)
                    .ok_or_else(|| fail(format!("assignment to undeclared signal '{name}'")))?;
                let pos = idx
                    .checked_sub(sig.lsb)
                    .and_then(|p| sig.bits.get(p as usize))
                    .ok_or_else(|| fail(format!("bit index {idx} out of range for '{name}'")))?;
                Ok(vec![*pos])
            }
            Expr::PartSelect { base, msb, lsb } => {
                let name = ident_of(base)
                    .ok_or_else(|| fail("part-select target must be a plain identifier".into()))?;
                let msb = self.const_eval(msb, ctx)?;
                let lsb = self.const_eval(lsb, ctx)?;
                let sig = ctx
                    .signals
                    .get(name)
                    .ok_or_else(|| fail(format!("assignment to undeclared signal '{name}'")))?
                    .clone();
                if msb < lsb {
                    return Err(fail(format!("descending part-select on '{name}'")));
                }
                let lo = lsb
                    .checked_sub(sig.lsb)
                    .ok_or_else(|| fail(format!("part-select below range of '{name}'")))?
                    as usize;
                let hi = (msb - sig.lsb) as usize;
                if hi >= sig.width() {
                    return Err(fail(format!("part-select above range of '{name}'")));
                }
                Ok(sig.bits[lo..=hi].to_vec())
            }
            Expr::Concat(parts) => {
                // Verilog concat is MSB-first; accumulate from the last part.
                let mut bits = Vec::new();
                for p in parts.iter().rev() {
                    bits.extend(self.lvalue_bits(p, ctx)?);
                }
                Ok(bits)
            }
            other => Err(fail(format!("unsupported assignment target: {other:?}"))),
        }
    }

    fn lower_always(&mut self, a: &Always, ctx: &ModuleCtx) -> Result<(), ElaborateError> {
        let mut targets = Vec::new();
        collect_targets(&a.body, &mut targets);
        targets.sort();
        targets.dedup();
        match &a.sensitivity {
            Sensitivity::Combinational => {
                // Targets default to constant 0 (no latch inference).
                let mut env = Env::from_ctx(ctx);
                let zero = self.const_bit(false);
                for t in &targets {
                    let width = ctx
                        .signals
                        .get(t)
                        .ok_or_else(|| err(&ctx.module_name, format!("undeclared '{t}'")))?
                        .width();
                    env.values.insert(t.clone(), vec![zero; width]);
                }
                self.exec_stmt(&a.body, &mut env, None, ctx)?;
                let path = ctx.path.clone();
                for t in &targets {
                    let declared = ctx.signals[t].bits.clone();
                    let computed = env.values[t].clone();
                    for (d, c) in declared.iter().zip(&computed) {
                        self.nl.add_gate(GateKind::Buf, &[*c], *d, &path);
                    }
                }
            }
            Sensitivity::Clocked { clock, reset } => {
                if self.nl.clock.is_none() {
                    self.nl.clock = Some(clock.clone());
                }
                // Targets hold their value by default (read Q).
                let entry = Env::from_ctx(ctx);
                let mut env = entry.clone();
                self.exec_stmt(&a.body, &mut env, Some(&entry), ctx)?;
                let path = ctx.path.clone();
                for t in &targets {
                    let q_bits = ctx.signals[t].bits.clone();
                    let d_bits = env.values[t].clone();
                    for (q, d) in q_bits.iter().zip(&d_bits) {
                        // Async resets are folded into the data path: the
                        // exec above already muxed on the reset condition if
                        // the body tested it; reset_value metadata is kept 0.
                        self.nl.add_dff(*d, *q, &path, false, None);
                    }
                }
                let _ = reset; // semantics folded into the body mux
            }
        }
        Ok(())
    }

    fn lower_instance(
        &mut self,
        inst: &Instance,
        ctx: &mut ModuleCtx,
    ) -> Result<(), ElaborateError> {
        if self.depth >= MAX_DEPTH {
            return Err(err(
                &ctx.module_name,
                format!("instantiation deeper than {MAX_DEPTH} levels (recursive hierarchy?)"),
            ));
        }
        let child = self
            .sf
            .module(&inst.module)
            .ok_or_else(|| err(&ctx.module_name, format!("unknown module '{}'", inst.module)))?;
        let mut overrides = Vec::new();
        for (name, value) in &inst.params {
            overrides.push((name.clone(), self.const_eval(value, ctx)?));
        }
        let mut child_ctx = ModuleCtx {
            module_name: inst.module.clone(),
            path: format!("{}/{}", ctx.path, inst.name),
            params: HashMap::new(),
            signals: HashMap::new(),
        };
        self.declare_params(child, &mut child_ctx, &overrides)?;

        let parent_env = Env::from_ctx(ctx);
        for port in &child.ports {
            let conn = inst.connections.iter().find(|(p, _)| p == &port.name);
            match port.dir {
                PortDir::Input => {
                    let (msb, lsb) = self.range_bounds(port.range.as_ref(), &child_ctx)?;
                    let width = (msb - lsb + 1) as usize;
                    let bits = match conn {
                        Some((_, Some(expr))) => self.lower_expr(expr, width, &parent_env, ctx)?,
                        _ => vec![self.const_bit(false); width],
                    };
                    child_ctx.signals.insert(port.name.clone(), SignalBits { lsb, bits });
                }
                PortDir::Output => {
                    // The child drives the parent's lvalue nets directly.
                    let (msb, lsb) = self.range_bounds(port.range.as_ref(), &child_ctx)?;
                    let width = (msb - lsb + 1) as usize;
                    let bits = match conn {
                        Some((_, Some(expr))) => {
                            let b = self.lvalue_bits(expr, ctx)?;
                            if b.len() != width {
                                return Err(err(
                                    &ctx.module_name,
                                    format!(
                                        "output port '{}' of '{}' is {width} bits but connection is {}",
                                        port.name,
                                        inst.module,
                                        b.len()
                                    ),
                                ));
                            }
                            b
                        }
                        _ => (0..width)
                            .map(|i| {
                                self.nl.add_net(format!("{}/{}_nc[{i}]", child_ctx.path, port.name))
                            })
                            .collect(),
                    };
                    child_ctx.signals.insert(port.name.clone(), SignalBits { lsb, bits });
                }
                PortDir::Inout => {
                    return Err(err(&ctx.module_name, "inout ports are not supported".into()))
                }
            }
        }
        self.depth += 1;
        let result = self.lower_module_body(child, &mut child_ctx);
        self.depth -= 1;
        result
    }

    /// Executes a procedural statement, updating the symbolic environment.
    ///
    /// When `frozen` is `Some`, right-hand sides and conditions are
    /// evaluated against that snapshot (nonblocking semantics for clocked
    /// blocks); when `None`, reads see prior writes (blocking semantics).
    fn exec_stmt(
        &mut self,
        s: &Stmt,
        env: &mut Env,
        frozen: Option<&Env>,
        ctx: &ModuleCtx,
    ) -> Result<(), ElaborateError> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Block(stmts) => {
                for st in stmts {
                    self.exec_stmt(st, env, frozen, ctx)?;
                }
                Ok(())
            }
            Stmt::Assign { lhs, rhs, .. } => {
                let (name, lo, width) = self.target_slice(lhs, env, ctx)?;
                let value = self.lower_expr(rhs, width, frozen.unwrap_or(env), ctx)?;
                let entry = env.values.get_mut(&name).expect("target present in env");
                entry[lo..lo + width].copy_from_slice(&value);
                Ok(())
            }
            Stmt::If { cond, then_stmt, else_stmt } => {
                let c = self.lower_expr_to_bool(cond, frozen.unwrap_or(env), ctx)?;
                let mut then_env = env.clone();
                self.exec_stmt(then_stmt, &mut then_env, frozen, ctx)?;
                let mut else_env = env.clone();
                if let Some(e) = else_stmt {
                    self.exec_stmt(e, &mut else_env, frozen, ctx)?;
                }
                self.merge_envs(c, then_env, else_env, env, ctx);
                Ok(())
            }
            Stmt::Case { scrutinee, arms, default } => {
                let read = frozen.unwrap_or(env);
                let nat = self.natural_width(scrutinee, read, ctx);
                let scrut = self.lower_expr(scrutinee, nat, read, ctx)?;
                // Build a priority chain from the last arm to the first so
                // earlier arms win, matching Verilog case semantics.
                let mut result_env = env.clone();
                if let Some(d) = default {
                    self.exec_stmt(d, &mut result_env, frozen, ctx)?;
                }
                for (labels, body) in arms.iter().rev() {
                    let mut match_any: Option<NetId> = None;
                    for label in labels {
                        let lval =
                            self.lower_expr(label, scrut.len(), frozen.unwrap_or(env), ctx)?;
                        let eq = self.equality(&scrut, &lval, &ctx.path);
                        match_any = Some(match match_any {
                            None => eq,
                            Some(prev) => self.or(prev, eq, &ctx.path),
                        });
                    }
                    let cond = match match_any {
                        Some(c) => c,
                        None => continue,
                    };
                    let mut arm_env = env.clone();
                    self.exec_stmt(body, &mut arm_env, frozen, ctx)?;
                    let fallthrough = result_env.clone();
                    self.merge_envs(cond, arm_env, fallthrough, &mut result_env, ctx);
                }
                *env = result_env;
                Ok(())
            }
        }
    }

    /// Resolves a procedural assignment target to `(signal, low_bit, width)`
    /// and makes sure the signal is present in the environment.
    fn target_slice(
        &mut self,
        lhs: &Expr,
        env: &mut Env,
        ctx: &ModuleCtx,
    ) -> Result<(String, usize, usize), ElaborateError> {
        let fail = |m: String| err(&ctx.module_name, m);
        let ensure = |env: &mut Env, ctx: &ModuleCtx, name: &str| -> Result<(), ElaborateError> {
            if !env.values.contains_key(name) {
                let sig = ctx
                    .signals
                    .get(name)
                    .ok_or_else(|| fail(format!("assignment to undeclared '{name}'")))?;
                env.values.insert(name.to_string(), sig.bits.clone());
            }
            Ok(())
        };
        match lhs {
            Expr::Ident(name) => {
                ensure(env, ctx, name)?;
                let w = env.values[name].len();
                Ok((name.clone(), 0, w))
            }
            Expr::BitSelect { base, index } => {
                let name = ident_of(base)
                    .ok_or_else(|| fail("bit-select target must be an identifier".into()))?;
                ensure(env, ctx, name)?;
                let idx = self.const_eval(index, ctx)?;
                let lsb = ctx.signals[name].lsb;
                let pos = idx
                    .checked_sub(lsb)
                    .ok_or_else(|| fail(format!("bit index {idx} below range of '{name}'")))?
                    as usize;
                if pos >= env.values[name].len() {
                    return Err(fail(format!("bit index {idx} above range of '{name}'")));
                }
                Ok((name.to_string(), pos, 1))
            }
            Expr::PartSelect { base, msb, lsb } => {
                let name = ident_of(base)
                    .ok_or_else(|| fail("part-select target must be an identifier".into()))?;
                ensure(env, ctx, name)?;
                let m = self.const_eval(msb, ctx)?;
                let l = self.const_eval(lsb, ctx)?;
                let off = ctx.signals[name].lsb;
                let lo = l
                    .checked_sub(off)
                    .ok_or_else(|| fail(format!("part-select below range of '{name}'")))?
                    as usize;
                let w = (m - l + 1) as usize;
                if lo + w > env.values[name].len() {
                    return Err(fail(format!("part-select above range of '{name}'")));
                }
                Ok((name.to_string(), lo, w))
            }
            other => Err(fail(format!("unsupported procedural target: {other:?}"))),
        }
    }

    /// Muxes every signal that differs between the two branch environments.
    fn merge_envs(
        &mut self,
        cond: NetId,
        then_env: Env,
        else_env: Env,
        out: &mut Env,
        ctx: &ModuleCtx,
    ) {
        let path = ctx.path.clone();
        let mut keys: Vec<String> =
            then_env.values.keys().chain(else_env.values.keys()).cloned().collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let t = then_env.values.get(&key);
            let e = else_env.values.get(&key);
            let merged = match (t, e) {
                (Some(tv), Some(ev)) if tv == ev => tv.clone(),
                (Some(tv), Some(ev)) => tv
                    .iter()
                    .zip(ev)
                    .map(|(&tb, &eb)| if tb == eb { tb } else { self.mux(cond, eb, tb, &path) })
                    .collect(),
                (Some(tv), None) => tv.clone(),
                (None, Some(ev)) => ev.clone(),
                (None, None) => continue,
            };
            out.values.insert(key, merged);
        }
    }

    /// Natural (context-free) width of an expression.
    fn natural_width(&self, e: &Expr, env: &Env, ctx: &ModuleCtx) -> usize {
        match e {
            Expr::Ident(name) => env
                .values
                .get(name)
                .map(|b| b.len())
                .or_else(|| ctx.signals.get(name).map(|s| s.width()))
                .unwrap_or(1),
            Expr::Literal { width, value } => width
                .map(|w| w as usize)
                .unwrap_or_else(|| (64 - value.leading_zeros()).max(1) as usize),
            Expr::BitSelect { .. } => 1,
            Expr::PartSelect { msb, lsb, .. } => {
                let m = self.const_eval(msb, ctx).unwrap_or(0);
                let l = self.const_eval(lsb, ctx).unwrap_or(0);
                (m.saturating_sub(l) + 1) as usize
            }
            Expr::Unary { op, operand } => match op {
                UnaryOp::LogicalNot
                | UnaryOp::ReduceAnd
                | UnaryOp::ReduceOr
                | UnaryOp::ReduceXor => 1,
                UnaryOp::Not | UnaryOp::Neg => self.natural_width(operand, env, ctx),
            },
            Expr::Binary { op, lhs, rhs } => match op {
                BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge
                | BinaryOp::LogicalAnd
                | BinaryOp::LogicalOr => 1,
                BinaryOp::Shl | BinaryOp::Shr => self.natural_width(lhs, env, ctx),
                _ => self.natural_width(lhs, env, ctx).max(self.natural_width(rhs, env, ctx)),
            },
            Expr::Ternary { then_expr, else_expr, .. } => {
                self.natural_width(then_expr, env, ctx).max(self.natural_width(else_expr, env, ctx))
            }
            Expr::Concat(parts) => parts.iter().map(|p| self.natural_width(p, env, ctx)).sum(),
            Expr::Repeat { count, expr } => {
                let c = self.const_eval(count, ctx).unwrap_or(1) as usize;
                c * self.natural_width(expr, env, ctx)
            }
        }
    }

    fn lower_expr_to_bool(
        &mut self,
        e: &Expr,
        env: &Env,
        ctx: &ModuleCtx,
    ) -> Result<NetId, ElaborateError> {
        let nat = self.natural_width(e, env, ctx);
        let bits = self.lower_expr(e, nat, env, ctx)?;
        Ok(self.reduce_or(&bits, &ctx.path))
    }

    /// Lowers `e` to exactly `width` bits (zero-extended / truncated).
    fn lower_expr(
        &mut self,
        e: &Expr,
        width: usize,
        env: &Env,
        ctx: &ModuleCtx,
    ) -> Result<Vec<NetId>, ElaborateError> {
        let mut bits = self.lower_natural(e, env, ctx, width)?;
        let zero = self.const_bit(false);
        bits.resize(width, zero);
        Ok(bits)
    }

    /// Lowers `e` at its natural width (or `hint` where context matters).
    fn lower_natural(
        &mut self,
        e: &Expr,
        env: &Env,
        ctx: &ModuleCtx,
        hint: usize,
    ) -> Result<Vec<NetId>, ElaborateError> {
        let path = ctx.path.clone();
        let fail = |m: String| err(&ctx.module_name, m);
        match e {
            Expr::Ident(name) => {
                if let Some(bits) = env.values.get(name) {
                    return Ok(bits.clone());
                }
                if let Some(&v) = ctx.params.get(name) {
                    return Ok(self.literal_bits(v, hint.max(1)));
                }
                Err(fail(format!("use of undeclared signal '{name}'")))
            }
            Expr::Literal { value, width } => {
                let w = width
                    .map(|w| w as usize)
                    .unwrap_or(hint.max(1))
                    .max((64 - value.leading_zeros()).max(1) as usize);
                Ok(self.literal_bits(*value, w))
            }
            Expr::BitSelect { base, index } => {
                let name = ident_of(base)
                    .ok_or_else(|| fail("bit-select base must be an identifier".into()))?;
                let bits = env
                    .values
                    .get(name)
                    .cloned()
                    .ok_or_else(|| fail(format!("use of undeclared signal '{name}'")))?;
                let lsb = ctx.signals.get(name).map(|s| s.lsb).unwrap_or(0);
                if let Ok(idx) = self.const_eval(index, ctx) {
                    let pos = idx
                        .checked_sub(lsb)
                        .and_then(|p| bits.get(p as usize).copied())
                        .ok_or_else(|| {
                            fail(format!("bit index {idx} out of range for '{name}'"))
                        })?;
                    Ok(vec![pos])
                } else {
                    // Dynamic bit select: mux tree over the index.
                    let iw = (usize::BITS - (bits.len() - 1).leading_zeros()).max(1) as usize;
                    let sel = self.lower_expr(index, iw, env, ctx)?;
                    Ok(vec![self.dynamic_select(&bits, &sel, &path)])
                }
            }
            Expr::PartSelect { base, msb, lsb } => {
                let name = ident_of(base)
                    .ok_or_else(|| fail("part-select base must be an identifier".into()))?;
                let bits = env
                    .values
                    .get(name)
                    .cloned()
                    .ok_or_else(|| fail(format!("use of undeclared signal '{name}'")))?;
                let off = ctx.signals.get(name).map(|s| s.lsb).unwrap_or(0);
                let m = self.const_eval(msb, ctx)?;
                let l = self.const_eval(lsb, ctx)?;
                if m < l {
                    return Err(fail(format!("descending part-select on '{name}'")));
                }
                let lo = l
                    .checked_sub(off)
                    .ok_or_else(|| fail(format!("part-select below range of '{name}'")))?
                    as usize;
                let hi = (m - off) as usize;
                if hi >= bits.len() {
                    return Err(fail(format!("part-select above range of '{name}'")));
                }
                Ok(bits[lo..=hi].to_vec())
            }
            Expr::Unary { op, operand } => match op {
                UnaryOp::Not => {
                    let nat = self.natural_width(operand, env, ctx).max(hint);
                    let bits = self.lower_expr(operand, nat, env, ctx)?;
                    Ok(bits.iter().map(|&b| self.not(b, &path)).collect())
                }
                UnaryOp::Neg => {
                    let nat = self.natural_width(operand, env, ctx).max(hint);
                    let bits = self.lower_expr(operand, nat, env, ctx)?;
                    let zero = vec![self.const_bit(false); nat];
                    Ok(self.subtract(&zero, &bits, &path))
                }
                UnaryOp::LogicalNot => {
                    let nat = self.natural_width(operand, env, ctx);
                    let bits = self.lower_expr(operand, nat, env, ctx)?;
                    let any = self.reduce_or(&bits, &path);
                    Ok(vec![self.not(any, &path)])
                }
                UnaryOp::ReduceAnd => {
                    let nat = self.natural_width(operand, env, ctx);
                    let bits = self.lower_expr(operand, nat, env, ctx)?;
                    Ok(vec![self.reduce(&bits, GateKind::And, &path)])
                }
                UnaryOp::ReduceOr => {
                    let nat = self.natural_width(operand, env, ctx);
                    let bits = self.lower_expr(operand, nat, env, ctx)?;
                    Ok(vec![self.reduce_or(&bits, &path)])
                }
                UnaryOp::ReduceXor => {
                    let nat = self.natural_width(operand, env, ctx);
                    let bits = self.lower_expr(operand, nat, env, ctx)?;
                    Ok(vec![self.reduce(&bits, GateKind::Xor, &path)])
                }
            },
            Expr::Binary { op, lhs, rhs } => {
                use BinaryOp::*;
                let wide = self
                    .natural_width(lhs, env, ctx)
                    .max(self.natural_width(rhs, env, ctx))
                    .max(if matches!(op, Add | Sub | Mul | And | Or | Xor) { hint } else { 0 })
                    .max(1);
                match op {
                    And | Or | Xor => {
                        let a = self.lower_expr(lhs, wide, env, ctx)?;
                        let b = self.lower_expr(rhs, wide, env, ctx)?;
                        let kind = match op {
                            And => GateKind::And,
                            Or => GateKind::Or,
                            _ => GateKind::Xor,
                        };
                        Ok(a.iter()
                            .zip(&b)
                            .map(|(&x, &y)| self.gate(kind, &[x, y], &path, "bit"))
                            .collect())
                    }
                    Add => {
                        let a = self.lower_expr(lhs, wide, env, ctx)?;
                        let b = self.lower_expr(rhs, wide, env, ctx)?;
                        Ok(self.adder(&a, &b, None, &path).0)
                    }
                    Sub => {
                        let a = self.lower_expr(lhs, wide, env, ctx)?;
                        let b = self.lower_expr(rhs, wide, env, ctx)?;
                        Ok(self.subtract(&a, &b, &path))
                    }
                    Mul => {
                        let a = self.lower_expr(lhs, wide, env, ctx)?;
                        let b = self.lower_expr(rhs, wide, env, ctx)?;
                        Ok(self.multiplier(&a, &b, wide, &path))
                    }
                    Eq | Ne => {
                        let a = self.lower_expr(lhs, wide, env, ctx)?;
                        let b = self.lower_expr(rhs, wide, env, ctx)?;
                        let eq = self.equality(&a, &b, &path);
                        Ok(vec![if *op == Ne { self.not(eq, &path) } else { eq }])
                    }
                    Lt | Le | Gt | Ge => {
                        let a = self.lower_expr(lhs, wide, env, ctx)?;
                        let b = self.lower_expr(rhs, wide, env, ctx)?;
                        // a < b  == borrow out of a - b.
                        let lt = self.less_than(&a, &b, &path);
                        let bit = match op {
                            Lt => lt,
                            Ge => self.not(lt, &path),
                            Gt => self.less_than(&b, &a, &path),
                            _ => {
                                let gt = self.less_than(&b, &a, &path);
                                self.not(gt, &path)
                            }
                        };
                        Ok(vec![bit])
                    }
                    LogicalAnd | LogicalOr => {
                        let la = self.lower_expr_to_bool(lhs, env, ctx)?;
                        let lb = self.lower_expr_to_bool(rhs, env, ctx)?;
                        Ok(vec![if *op == LogicalAnd {
                            self.and(la, lb, &path)
                        } else {
                            self.or(la, lb, &path)
                        }])
                    }
                    Shl | Shr => {
                        let w = self.natural_width(lhs, env, ctx).max(hint).max(1);
                        let a = self.lower_expr(lhs, w, env, ctx)?;
                        if let Ok(s) = self.const_eval(rhs, ctx) {
                            Ok(self.const_shift(&a, s as usize, *op == Shl))
                        } else {
                            let sw = (usize::BITS - (w.max(2) - 1).leading_zeros()) as usize;
                            let s = self.lower_expr(rhs, sw, env, ctx)?;
                            Ok(self.barrel_shift(&a, &s, *op == Shl, &path))
                        }
                    }
                }
            }
            Expr::Ternary { cond, then_expr, else_expr } => {
                let c = self.lower_expr_to_bool(cond, env, ctx)?;
                let w = self
                    .natural_width(then_expr, env, ctx)
                    .max(self.natural_width(else_expr, env, ctx))
                    .max(hint)
                    .max(1);
                let t = self.lower_expr(then_expr, w, env, ctx)?;
                let f = self.lower_expr(else_expr, w, env, ctx)?;
                Ok(t.iter().zip(&f).map(|(&tb, &fb)| self.mux(c, fb, tb, &path)).collect())
            }
            Expr::Concat(parts) => {
                let mut bits = Vec::new();
                for p in parts.iter().rev() {
                    let w = self.natural_width(p, env, ctx);
                    bits.extend(self.lower_expr(p, w, env, ctx)?);
                }
                Ok(bits)
            }
            Expr::Repeat { count, expr } => {
                let c = self.const_eval(count, ctx)? as usize;
                let w = self.natural_width(expr, env, ctx);
                let inner = self.lower_expr(expr, w, env, ctx)?;
                let mut bits = Vec::with_capacity(c * w);
                for _ in 0..c {
                    bits.extend(inner.iter().copied());
                }
                Ok(bits)
            }
        }
    }

    fn literal_bits(&mut self, value: u64, width: usize) -> Vec<NetId> {
        (0..width).map(|i| self.const_bit(i < 64 && (value >> i) & 1 == 1)).collect()
    }

    fn reduce(&mut self, bits: &[NetId], kind: GateKind, path: &str) -> NetId {
        assert!(!bits.is_empty());
        let mut layer = bits.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.gate(kind, &[pair[0], pair[1]], path, "red")
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    fn reduce_or(&mut self, bits: &[NetId], path: &str) -> NetId {
        self.reduce(bits, GateKind::Or, path)
    }

    fn equality(&mut self, a: &[NetId], b: &[NetId], path: &str) -> NetId {
        let diffs: Vec<NetId> = a.iter().zip(b).map(|(&x, &y)| self.xor(x, y, path)).collect();
        let any = self.reduce_or(&diffs, path);
        self.not(any, path)
    }

    /// Ripple-carry adder; returns (sum bits, carry out).
    fn adder(
        &mut self,
        a: &[NetId],
        b: &[NetId],
        carry_in: Option<NetId>,
        path: &str,
    ) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len());
        let mut carry = carry_in.unwrap_or_else(|| self.const_bit(false));
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor(x, y, path);
            let s = self.xor(xy, carry, path);
            let c1 = self.and(x, y, path);
            let c2 = self.and(xy, carry, path);
            carry = self.or(c1, c2, path);
            sum.push(s);
        }
        (sum, carry)
    }

    fn subtract(&mut self, a: &[NetId], b: &[NetId], path: &str) -> Vec<NetId> {
        let nb: Vec<NetId> = b.iter().map(|&x| self.not(x, path)).collect();
        let one = self.const_bit(true);
        self.adder(a, &nb, Some(one), path).0
    }

    /// Unsigned `a < b` via the borrow of `a - b`.
    fn less_than(&mut self, a: &[NetId], b: &[NetId], path: &str) -> NetId {
        let nb: Vec<NetId> = b.iter().map(|&x| self.not(x, path)).collect();
        let one = self.const_bit(true);
        let (_, carry) = self.adder(a, &nb, Some(one), path);
        self.not(carry, path)
    }

    /// Array multiplier truncated to `width` result bits.
    fn multiplier(&mut self, a: &[NetId], b: &[NetId], width: usize, path: &str) -> Vec<NetId> {
        let zero = self.const_bit(false);
        let mut acc = vec![zero; width];
        for (i, &bi) in b.iter().enumerate().take(width) {
            // Partial product: (a << i) & replicate(bi)
            let mut pp = vec![zero; width];
            for (j, &aj) in a.iter().enumerate() {
                if i + j < width {
                    pp[i + j] = self.and(aj, bi, path);
                }
            }
            acc = self.adder(&acc, &pp, None, path).0;
        }
        acc
    }

    fn const_shift(&mut self, a: &[NetId], s: usize, left: bool) -> Vec<NetId> {
        let zero = self.const_bit(false);
        let w = a.len();
        let mut out = vec![zero; w];
        for i in 0..w {
            if left {
                if i >= s {
                    out[i] = a[i - s];
                }
            } else if i + s < w {
                out[i] = a[i + s];
            }
        }
        out
    }

    fn barrel_shift(&mut self, a: &[NetId], s: &[NetId], left: bool, path: &str) -> Vec<NetId> {
        let mut cur = a.to_vec();
        for (stage, &sbit) in s.iter().enumerate() {
            let amount = 1usize << stage;
            if amount >= cur.len() {
                // Shifting by >= width zeroes everything when the bit is set.
                let zero = self.const_bit(false);
                cur = cur.iter().map(|&b| self.mux(sbit, b, zero, path)).collect();
                continue;
            }
            let shifted = self.const_shift(&cur, amount, left);
            cur = cur
                .iter()
                .zip(&shifted)
                .map(|(&keep, &shf)| self.mux(sbit, keep, shf, path))
                .collect();
        }
        cur
    }

    fn dynamic_select(&mut self, bits: &[NetId], sel: &[NetId], path: &str) -> NetId {
        // Recursive mux tree on the selector bits.
        fn go(lw: &mut Lowerer, bits: &[NetId], sel: &[NetId], path: &str) -> NetId {
            if bits.len() == 1 || sel.is_empty() {
                return bits[0];
            }
            let top = sel[sel.len() - 1];
            let half = 1usize << (sel.len() - 1);
            let (lo, hi) = bits.split_at(bits.len().min(half));
            let lo_v = go(lw, lo, &sel[..sel.len() - 1], path);
            let hi_v = if hi.is_empty() {
                lw.const_bit(false)
            } else {
                go(lw, hi, &sel[..sel.len() - 1], path)
            };
            lw.mux(top, lo_v, hi_v, path)
        }
        go(self, bits, sel, path)
    }
}

/// Symbolic environment: signal name → current bit values.
#[derive(Debug, Clone)]
struct Env {
    values: HashMap<String, Vec<NetId>>,
}

impl Env {
    fn from_ctx(ctx: &ModuleCtx) -> Self {
        let values = ctx.signals.iter().map(|(k, v)| (k.clone(), v.bits.clone())).collect();
        Self { values }
    }
}

fn ident_of(e: &Expr) -> Option<&str> {
    match e {
        Expr::Ident(name) => Some(name),
        _ => None,
    }
}

/// Collects the names of all signals assigned anywhere in a statement.
fn collect_targets(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Empty => {}
        Stmt::Block(stmts) => stmts.iter().for_each(|st| collect_targets(st, out)),
        Stmt::Assign { lhs, .. } => collect_target_names(lhs, out),
        Stmt::If { then_stmt, else_stmt, .. } => {
            collect_targets(then_stmt, out);
            if let Some(e) = else_stmt {
                collect_targets(e, out);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for (_, body) in arms {
                collect_targets(body, out);
            }
            if let Some(d) = default {
                collect_targets(d, out);
            }
        }
    }
}

fn collect_target_names(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Ident(name) => out.push(name.clone()),
        Expr::BitSelect { base, .. } | Expr::PartSelect { base, .. } => {
            collect_target_names(base, out)
        }
        Expr::Concat(parts) => parts.iter().for_each(|p| collect_target_names(p, out)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Simulator;
    use crate::parser::parse;

    fn lower(src: &str, top: &str) -> Netlist {
        let sf = parse(src).unwrap();
        lower_to_netlist(&sf, top).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn adder_is_functionally_correct() {
        let nl = lower(
            "module add(input [3:0] a, b, output [4:0] y); assign y = a + b; endmodule",
            "add",
        );
        nl.check().unwrap();
        for a in 0..16u64 {
            for b in 0..16u64 {
                let mut sim = Simulator::new(&nl);
                sim.set_input_u64("a", a);
                sim.set_input_u64("b", b);
                sim.settle().unwrap();
                assert_eq!(sim.output_u64("y"), a + b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn subtractor_wraps_like_verilog() {
        let nl = lower(
            "module sub(input [3:0] a, b, output [3:0] y); assign y = a - b; endmodule",
            "sub",
        );
        for (a, b) in [(5u64, 3u64), (3, 5), (0, 1), (15, 15)] {
            let mut sim = Simulator::new(&nl);
            sim.set_input_u64("a", a);
            sim.set_input_u64("b", b);
            sim.settle().unwrap();
            assert_eq!(sim.output_u64("y"), a.wrapping_sub(b) & 0xF, "a={a} b={b}");
        }
    }

    #[test]
    fn multiplier_small_exhaustive() {
        let nl = lower(
            "module mul(input [3:0] a, b, output [7:0] y); assign y = a * b; endmodule",
            "mul",
        );
        for a in 0..16u64 {
            for b in 0..16u64 {
                let mut sim = Simulator::new(&nl);
                sim.set_input_u64("a", a);
                sim.set_input_u64("b", b);
                sim.settle().unwrap();
                assert_eq!(sim.output_u64("y"), a * b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn comparators_match_reference() {
        let nl = lower(
            "module cmp(input [2:0] a, b, output lt, le, gt, ge, eq, ne);
                assign lt = a < b; assign le = a <= b;
                assign gt = a > b; assign ge = a >= b;
                assign eq = a == b; assign ne = a != b;
            endmodule",
            "cmp",
        );
        for a in 0..8u64 {
            for b in 0..8u64 {
                let mut sim = Simulator::new(&nl);
                sim.set_input_u64("a", a);
                sim.set_input_u64("b", b);
                sim.settle().unwrap();
                assert_eq!(sim.output("lt"), Some((a < b) as u8));
                assert_eq!(sim.output("le"), Some((a <= b) as u8));
                assert_eq!(sim.output("gt"), Some((a > b) as u8));
                assert_eq!(sim.output("ge"), Some((a >= b) as u8));
                assert_eq!(sim.output("eq"), Some((a == b) as u8));
                assert_eq!(sim.output("ne"), Some((a != b) as u8));
            }
        }
    }

    #[test]
    fn shifts_constant_and_dynamic() {
        let nl = lower(
            "module sh(input [7:0] a, input [2:0] s, output [7:0] l, r, lc);
                assign l = a << s; assign r = a >> s; assign lc = a << 2;
            endmodule",
            "sh",
        );
        for a in [0x01u64, 0x80, 0xA5, 0xFF] {
            for s in 0..8u64 {
                let mut sim = Simulator::new(&nl);
                sim.set_input_u64("a", a);
                sim.set_input_u64("s", s);
                sim.settle().unwrap();
                assert_eq!(sim.output_u64("l"), (a << s) & 0xFF, "a={a:x} s={s} <<");
                assert_eq!(sim.output_u64("r"), (a >> s) & 0xFF, "a={a:x} s={s} >>");
                assert_eq!(sim.output_u64("lc"), (a << 2) & 0xFF);
            }
        }
    }

    #[test]
    fn counter_counts() {
        let nl = lower(
            "module counter(input clk, rst, output reg [3:0] q);
                always @(posedge clk or posedge rst)
                    if (rst) q <= 4'd0; else q <= q + 4'd1;
            endmodule",
            "counter",
        );
        assert_eq!(nl.num_registers(), 4);
        assert_eq!(nl.clock.as_deref(), Some("clk"));
        let mut sim = Simulator::new(&nl);
        sim.set_input("rst", &[1]);
        sim.step().unwrap();
        sim.set_input("rst", &[0]);
        for expected in 1..=5u64 {
            sim.step().unwrap();
            sim.settle().unwrap();
            assert_eq!(sim.output_u64("q"), expected);
        }
    }

    #[test]
    fn case_statement_priority() {
        let nl = lower(
            "module dec(input [1:0] s, output reg [3:0] y);
                always @(*) case (s)
                    2'd0: y = 4'b0001;
                    2'd1: y = 4'b0010;
                    2'd2: y = 4'b0100;
                    default: y = 4'b1000;
                endcase
            endmodule",
            "dec",
        );
        for (s, y) in [(0u64, 1u64), (1, 2), (2, 4), (3, 8)] {
            let mut sim = Simulator::new(&nl);
            sim.set_input_u64("s", s);
            sim.settle().unwrap();
            assert_eq!(sim.output_u64("y"), y, "s={s}");
        }
    }

    #[test]
    fn hierarchy_flattens_with_paths() {
        let nl = lower(
            "module full_adder(input a, b, cin, output s, cout);
                assign s = a ^ b ^ cin;
                assign cout = (a & b) | (cin & (a ^ b));
            endmodule
            module top(input [1:0] x, y, output [2:0] sum);
                wire c0;
                full_adder fa0 (.a(x[0]), .b(y[0]), .cin(1'b0), .s(sum[0]), .cout(c0));
                full_adder fa1 (.a(x[1]), .b(y[1]), .cin(c0), .s(sum[1]), .cout(sum[2]));
            endmodule",
            "top",
        );
        assert!(nl.gates.iter().any(|g| nl.path(g.path) == "top/fa0"));
        assert!(nl.gates.iter().any(|g| nl.path(g.path) == "top/fa1"));
        for x in 0..4u64 {
            for y in 0..4u64 {
                let mut sim = Simulator::new(&nl);
                sim.set_input_u64("x", x);
                sim.set_input_u64("y", y);
                sim.settle().unwrap();
                assert_eq!(sim.output_u64("sum"), x + y, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn parameterized_instance_width() {
        let nl = lower(
            "module reg_w #(parameter W = 2) (input clk, input [W-1:0] d, output reg [W-1:0] q);
                always @(posedge clk) q <= d;
            endmodule
            module top(input clk, input [7:0] d, output [7:0] q);
                reg_w #(.W(8)) u (.clk(clk), .d(d), .q(q));
            endmodule",
            "top",
        );
        assert_eq!(nl.num_registers(), 8);
    }

    #[test]
    fn concat_and_repeat_lower() {
        let nl = lower(
            "module c(input [1:0] a, output [5:0] y);
                assign y = {a, 2'b01, {2{a[1]}}};
            endmodule",
            "c",
        );
        let mut sim = Simulator::new(&nl);
        sim.set_input_u64("a", 0b10);
        sim.settle().unwrap();
        // y = {10, 01, 11} = 0b10_01_11
        assert_eq!(sim.output_u64("y"), 0b100111);
    }

    #[test]
    fn ternary_lowers_to_mux() {
        let nl = lower(
            "module m(input s, input [3:0] a, b, output [3:0] y);
                assign y = s ? a : b;
            endmodule",
            "m",
        );
        let mut sim = Simulator::new(&nl);
        sim.set_input_u64("a", 5);
        sim.set_input_u64("b", 9);
        sim.set_input("s", &[1]);
        sim.settle().unwrap();
        assert_eq!(sim.output_u64("y"), 5);
        sim.set_input("s", &[0]);
        sim.settle().unwrap();
        assert_eq!(sim.output_u64("y"), 9);
    }

    #[test]
    fn undeclared_signal_errors() {
        let sf = parse("module m(output y); assign y = ghost; endmodule").unwrap();
        let e = lower_to_netlist(&sf, "m").unwrap_err();
        assert!(e.to_string().contains("ghost"));
    }

    #[test]
    fn unknown_top_errors() {
        let sf = parse("module m; endmodule").unwrap();
        assert!(lower_to_netlist(&sf, "nope").is_err());
    }

    #[test]
    fn dynamic_bit_select_reads() {
        let nl = lower(
            "module d(input [7:0] a, input [2:0] i, output y);
                assign y = a[i];
            endmodule",
            "d",
        );
        for i in 0..8u64 {
            let mut sim = Simulator::new(&nl);
            sim.set_input_u64("a", 0b1010_0110);
            sim.set_input_u64("i", i);
            sim.settle().unwrap();
            assert_eq!(sim.output("y"), Some(((0b1010_0110u64 >> i) & 1) as u8), "i={i}");
        }
    }

    #[test]
    fn nonblocking_swap_reads_entry_values() {
        // The classic NBA litmus test: a <= b; b <= a; swaps every cycle.
        let nl = lower(
            "module swap(input clk, init, output reg a, b);
                always @(posedge clk)
                    if (init) begin a <= 1'b0; b <= 1'b1; end
                    else begin a <= b; b <= a; end
            endmodule",
            "swap",
        );
        let mut sim = Simulator::new(&nl);
        sim.set_input("init", &[1]);
        sim.step().unwrap();
        sim.set_input("init", &[0]);
        sim.step().unwrap();
        sim.settle().unwrap();
        assert_eq!((sim.output("a"), sim.output("b")), (Some(1), Some(0)));
        sim.step().unwrap();
        sim.settle().unwrap();
        assert_eq!((sim.output("a"), sim.output("b")), (Some(0), Some(1)));
    }

    #[test]
    fn if_without_else_holds_register_value() {
        let nl = lower(
            "module hold(input clk, en, input [3:0] d, output reg [3:0] q);
                always @(posedge clk) if (en) q <= d;
            endmodule",
            "hold",
        );
        let mut sim = Simulator::new(&nl);
        sim.set_input("en", &[1]);
        sim.set_input_u64("d", 7);
        sim.step().unwrap();
        sim.set_input("en", &[0]);
        sim.set_input_u64("d", 2);
        sim.step().unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.output_u64("q"), 7, "value must hold when enable is low");
    }
}
