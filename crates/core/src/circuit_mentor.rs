//! CircuitMentor: graph-based circuit analysis (paper §IV-A, Fig. 3).
//!
//! CircuitMentor turns a design into two linked representations:
//!
//! 1. a **property graph** in [`chatls_graphdb`] — design → module-instance
//!    nodes carrying the module source code and structural stats, with
//!    `CONTAINS`/`CONNECTS` relationships — which SynthRAG's
//!    graph-structure retrieval queries with Cypher, and
//! 2. a **feature graph** for the hierarchical GraphSAGE model, whose
//!    trained embeddings power SynthRAG's graph-embedding retrieval.
//!
//! It also computes netlist-level [`DesignTraits`] (fanout profile, logic
//! depth, enable-register fraction, hierarchy) that the CoT reasoning steps
//! consult when choosing optimization commands.

use crate::features::{ModuleStats, FEATURE_DIM};
use chatls_designs::{GeneratedDesign, ModuleKind};
use chatls_gnn::{train, Aggregator, FeatureGraph, MetricLoss, SageModel, TrainConfig, Trained};
use chatls_graphdb::{Graph, NodeId, Value};
use chatls_tensor::Matrix;
use chatls_verilog::ast::{Module, SourceFile};
use chatls_verilog::netlist::{GateKind, Netlist};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One elaborated module instance in the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceInfo {
    /// Hierarchical path (`top/u_core/u_alu`).
    pub path: String,
    /// Module definition name.
    pub module: String,
    /// Ground-truth kind when the generator supplied one.
    pub kind: Option<ModuleKind>,
}

/// The dual graph representation of one design.
#[derive(Debug, Clone)]
pub struct CircuitGraph {
    /// Property graph for Cypher retrieval.
    pub db: Graph,
    /// Feature graph for the GNN.
    pub feature_graph: FeatureGraph,
    /// Instance table; row `i` corresponds to feature-graph node `i`.
    pub instances: Vec<InstanceInfo>,
    /// Design name.
    pub design_name: String,
    /// Property-graph node id of the design node.
    pub design_node: NodeId,
}

impl CircuitGraph {
    /// Feature-graph node index of a module instance path.
    pub fn node_of_path(&self, path: &str) -> Option<usize> {
        self.instances.iter().position(|i| i.path == path)
    }
}

#[cfg(test)]
thread_local! {
    /// Circuit graphs built on this thread: lets tests check that a warm
    /// path builds none, undisturbed by tests running on other threads.
    pub(crate) static GRAPH_BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Builds the dual graph representation from a generated design.
///
/// # Panics
///
/// Panics if the design source does not parse (generator bug).
pub fn build_circuit_graph(design: &GeneratedDesign) -> CircuitGraph {
    #[cfg(test)]
    GRAPH_BUILDS.with(|n| n.set(n.get() + 1));
    let ast = design.ast();
    let kind_of = |module: &str| design.modules.iter().find(|m| m.name == module).map(|m| m.kind);

    let mut db = Graph::new();
    let design_node = db.add_node(
        ["Design"],
        [
            ("name", Value::from(design.name.clone())),
            ("category", Value::from(design.category.to_string())),
            ("period", Value::Float(design.default_period)),
        ],
    );

    let mut instances: Vec<InstanceInfo> = Vec::new();
    let mut features: Vec<Vec<f32>> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut module_ids: Vec<u32> = Vec::new();
    let mut module_index: HashMap<String, u32> = HashMap::new();
    let mut db_nodes: Vec<NodeId> = Vec::new();

    // Recursive elaboration of the instance tree (AST-level, no params).
    fn walk(
        sf: &SourceFile,
        module: &Module,
        path: String,
        parent: Option<usize>,
        ctx: &mut WalkCtx<'_>,
    ) {
        let idx = ctx.instances.len();
        let stats = ModuleStats::of(module);
        ctx.instances.push(InstanceInfo {
            path: path.clone(),
            module: module.name.clone(),
            kind: (ctx.kind_of)(&module.name),
        });
        ctx.features.push(stats.features());
        let next_module_id = ctx.module_index.len() as u32;
        let mid = *ctx.module_index.entry(module.name.clone()).or_insert(next_module_id);
        ctx.module_ids.push(mid);
        let kind_str = (ctx.kind_of)(&module.name)
            .map(|k| format!("{k:?}").to_lowercase())
            .unwrap_or_else(|| "unknown".to_string());
        let node = ctx.db.add_node(
            ["Module"],
            [
                ("name", Value::from(module.name.clone())),
                ("path", Value::from(path.clone())),
                ("code", Value::from(chatls_verilog::print_module(module))),
                ("kind", Value::from(kind_str)),
                ("reg_bits", Value::Int(stats.reg_bits as i64)),
                ("instances", Value::Int(stats.instances as i64)),
                ("muls", Value::Int(stats.mul as i64)),
            ],
        );
        ctx.db_nodes.push(node);
        if let Some(p) = parent {
            ctx.edges.push((p as u32, idx as u32));
            let pnode = ctx.db_nodes[p];
            ctx.db.add_rel(pnode, node, "CONTAINS", [("inst", Value::from(path.clone()))]);
        }
        // Sibling connections: instances in this module sharing a net.
        let mut conn_nets: Vec<(String, usize)> = Vec::new();
        let children: Vec<usize> = module
            .instances()
            .filter_map(|inst| {
                let child = sf.module(&inst.module)?;
                let child_path = format!("{path}/{}", inst.name);
                let child_idx = ctx.instances.len();
                walk(sf, child, child_path, Some(idx), ctx);
                // Collect nets this child connects to.
                for (_, conn) in &inst.connections {
                    if let Some(chatls_verilog::ast::Expr::Ident(net)) = conn {
                        conn_nets.push((net.clone(), child_idx));
                    }
                }
                Some(child_idx)
            })
            .collect();
        let _ = children;
        // Add CONNECTS edges between children sharing a net name. Nets are
        // visited in first-appearance order, never HashMap iteration order:
        // edge order feeds the GNN float accumulation and the graph-db
        // relationship ids, so a randomized order would make embeddings and
        // query output vary run to run.
        let mut by_net: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut net_order: Vec<&str> = Vec::new();
        for (net, child) in &conn_nets {
            let peers = by_net.entry(net.as_str()).or_default();
            if peers.is_empty() {
                net_order.push(net.as_str());
            }
            peers.push(*child);
        }
        let mut linked: Vec<(usize, usize)> = Vec::new();
        for peers in net_order.iter().map(|net| &by_net[net]) {
            for w in peers.windows(2) {
                let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
                if a != b && !linked.contains(&(a, b)) {
                    linked.push((a, b));
                    ctx.edges.push((a as u32, b as u32));
                    ctx.db.add_rel(
                        ctx.db_nodes[a],
                        ctx.db_nodes[b],
                        "CONNECTS",
                        Vec::<(&str, Value)>::new(),
                    );
                }
            }
        }
    }

    struct WalkCtx<'a> {
        db: &'a mut Graph,
        instances: &'a mut Vec<InstanceInfo>,
        features: &'a mut Vec<Vec<f32>>,
        edges: &'a mut Vec<(u32, u32)>,
        module_ids: &'a mut Vec<u32>,
        module_index: &'a mut HashMap<String, u32>,
        db_nodes: &'a mut Vec<NodeId>,
        kind_of: &'a dyn Fn(&str) -> Option<ModuleKind>,
    }

    let top = ast.module(&design.top).expect("top module exists");
    {
        let mut ctx = WalkCtx {
            db: &mut db,
            instances: &mut instances,
            features: &mut features,
            edges: &mut edges,
            module_ids: &mut module_ids,
            module_index: &mut module_index,
            db_nodes: &mut db_nodes,
            kind_of: &kind_of,
        };
        walk(&ast, top, design.top.clone(), None, &mut ctx);
    }
    // Design CONTAINS the top instance.
    db.add_rel(design_node, db_nodes[0], "CONTAINS", [("inst", Value::from(design.top.clone()))]);

    let n = instances.len();
    let mut feat = Matrix::zeros(n, FEATURE_DIM);
    for (i, f) in features.iter().enumerate() {
        feat.set_row(i, f);
    }
    let num_modules = module_index.len().max(1) as u32;
    let feature_graph = FeatureGraph::with_modules(feat, edges, module_ids, num_modules);

    CircuitGraph { db, feature_graph, instances, design_name: design.name.clone(), design_node }
}

/// Netlist-level traits that drive command selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignTraits {
    /// Maximum data-net fanout (clock excluded).
    pub max_fanout: usize,
    /// Longest combinational path, in gate levels.
    pub logic_depth: usize,
    /// Fraction of registers written through an enable-recirculation mux.
    pub enable_reg_fraction: f64,
    /// Fraction of combinational gates that are arithmetic-typical
    /// (XOR-heavy cones).
    pub xor_fraction: f64,
    /// Number of distinct hierarchical module paths.
    pub module_paths: usize,
    /// Total register count.
    pub registers: usize,
    /// Total gate count.
    pub gates: usize,
}

impl DesignTraits {
    /// High-fanout data nets dominate: buffering is the right lever.
    ///
    /// The threshold is calibrated against the benchmark suite: enable nets
    /// feeding hold-mux selects are excluded (those are clock-gating
    /// candidates), so only genuinely routed broadcast nets count.
    pub fn high_fanout(&self) -> bool {
        self.max_fanout >= 64
    }

    /// Deep combinational cones: retiming/sizing is the right lever.
    /// Calibrated for bit-blasted netlists where a 32-bit ripple adder
    /// alone contributes ~64 levels.
    pub fn deep_logic(&self) -> bool {
        self.logic_depth >= 96
    }

    /// Many enable registers: clock gating recovers area.
    pub fn enable_heavy(&self) -> bool {
        self.enable_reg_fraction >= 0.5
    }

    /// Multi-module hierarchy: ungrouping may unlock cross-boundary moves.
    pub fn hierarchical(&self) -> bool {
        self.module_paths > 6
    }
}

/// Computes [`DesignTraits`] from a gate netlist.
pub fn detect_traits(netlist: &Netlist) -> DesignTraits {
    let fanout = netlist.fanout_map();
    // Exclude nets that are not real routed wires: constants (tie cells are
    // per-instance in a real flow) and the clock tree.
    let mut excluded: Vec<u32> = netlist
        .inputs
        .iter()
        .filter(|(n, _)| {
            netlist
                .clock
                .as_deref()
                .map(|c| n == c || n.starts_with(&format!("{c}[")))
                .unwrap_or(false)
        })
        .map(|(_, id)| *id)
        .collect();
    for g in &netlist.gates {
        if matches!(g.kind, GateKind::Const0 | GateKind::Const1) {
            excluded.push(g.output);
        }
    }
    // Identify hold-mux select sinks: `q <- mux(en, q, d)` enables are
    // clock-gating candidates, not buffering targets, so an enable net's
    // fanout onto those selects is not counted as data fanout.
    let driver = netlist.driver_map();
    let mut hold_mux: Vec<bool> = vec![false; netlist.gates.len()];
    for g in &netlist.gates {
        if !g.kind.is_sequential() {
            continue;
        }
        if let Some(drv) = driver[g.inputs[0] as usize] {
            let d = &netlist.gates[drv as usize];
            if d.kind == GateKind::Mux && (d.inputs[1] == g.output || d.inputs[2] == g.output) {
                hold_mux[drv as usize] = true;
            }
        }
    }
    let max_fanout = fanout
        .iter()
        .enumerate()
        .filter(|(net, _)| !excluded.contains(&(*net as u32)))
        .map(|(net, sinks)| {
            sinks
                .iter()
                .filter(|&&gid| {
                    let g = &netlist.gates[gid as usize];
                    // Skip hold-mux select pins fed by this net.
                    !(hold_mux[gid as usize]
                        && g.kind == GateKind::Mux
                        && g.inputs[0] == net as u32)
                })
                .count()
        })
        .max()
        .unwrap_or(0);

    // Logic depth via levelization.
    let mut level = vec![0u32; netlist.nets.len()];
    let mut depth = 0u32;
    if let Ok(order) = netlist.topo_order() {
        for gid in order {
            let g = &netlist.gates[gid as usize];
            let in_level = g.inputs.iter().map(|&i| level[i as usize]).max().unwrap_or(0);
            let l = in_level + 1;
            level[g.output as usize] = l;
            depth = depth.max(l);
        }
    }

    // Enable registers: D driven by a mux recirculating Q.
    let driver = netlist.driver_map();
    let mut regs = 0usize;
    let mut enable_regs = 0usize;
    for g in &netlist.gates {
        if !g.kind.is_sequential() {
            continue;
        }
        regs += 1;
        if g.enable.is_some() {
            enable_regs += 1;
            continue;
        }
        if let Some(drv) = driver[g.inputs[0] as usize] {
            let d = &netlist.gates[drv as usize];
            if d.kind == GateKind::Mux && (d.inputs[1] == g.output || d.inputs[2] == g.output) {
                enable_regs += 1;
            }
        }
    }

    let comb = netlist.num_comb_gates().max(1);
    let xor_gates =
        netlist.gates.iter().filter(|g| matches!(g.kind, GateKind::Xor | GateKind::Xnor)).count();
    let mut paths: Vec<&str> = netlist.gates.iter().map(|g| g.path.as_str()).collect();
    paths.sort();
    paths.dedup();

    DesignTraits {
        max_fanout,
        logic_depth: depth as usize,
        enable_reg_fraction: if regs == 0 { 0.0 } else { enable_regs as f64 / regs as f64 },
        xor_fraction: xor_gates as f64 / comb as f64,
        module_paths: paths.len(),
        registers: regs,
        gates: netlist.gates.len(),
    }
}

/// CircuitMentor: the trained analysis model plus graph construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CircuitMentor {
    model: SageModel,
    history: Vec<chatls_gnn::EpochStats>,
}

impl CircuitMentor {
    /// Creates an untrained mentor (random embeddings; useful for tests).
    pub fn untrained(seed: u64) -> Self {
        Self {
            model: SageModel::new(&[FEATURE_DIM, 32, 16], Aggregator::Mean, seed),
            history: Vec::new(),
        }
    }

    /// Trains the GNN with metric learning over a labelled corpus
    /// (paper Fig. 4): designs of the same category are pulled together.
    pub fn train_on(corpus: &[(GeneratedDesign, u32)], config: Option<TrainConfig>) -> Self {
        let graphs: Vec<FeatureGraph> =
            corpus.iter().map(|(d, _)| build_circuit_graph(d).feature_graph).collect();
        let labels: Vec<u32> = corpus.iter().map(|(_, l)| *l).collect();
        let config = config.unwrap_or(TrainConfig {
            dims: vec![FEATURE_DIM, 32, 16],
            aggregator: Aggregator::Mean,
            loss: MetricLoss::Contrastive { margin: 1.0 },
            epochs: 120,
            learning_rate: 0.01,
            seed: 7,
        });
        let Trained { model, history } = train(&graphs, &labels, &config);
        Self { model, history }
    }

    /// Embedding dimensionality.
    pub fn embedding_dim(&self) -> usize {
        self.model.out_dim()
    }

    /// Training telemetry (empty for untrained mentors).
    pub fn history(&self) -> &[chatls_gnn::EpochStats] {
        &self.history
    }

    /// Global design embedding (paper `z_global`).
    pub fn design_embedding(&self, graph: &CircuitGraph) -> Vec<f32> {
        self.model.embed_graph(&graph.feature_graph)
    }

    /// Global embeddings for a batch of designs in one GNN pass: the
    /// node-feature matrices are stacked so each layer runs a single
    /// weight matmul for the whole corpus. Bitwise identical to mapping
    /// [`Self::design_embedding`] over the batch.
    pub fn design_embeddings(&self, graphs: &[&CircuitGraph]) -> Vec<Vec<f32>> {
        let feature_graphs: Vec<&FeatureGraph> = graphs.iter().map(|g| &g.feature_graph).collect();
        self.model.embed_graphs(&feature_graphs)
    }

    /// Per-module embeddings: `(module name, embedding)`.
    pub fn module_embeddings(&self, graph: &CircuitGraph) -> Vec<(String, Vec<f32>)> {
        let m = self.model.embed_modules(&graph.feature_graph);
        // Module index ↔ name: reconstruct from instances.
        let mut names: Vec<Option<String>> = vec![None; m.rows()];
        for (i, inst) in graph.instances.iter().enumerate() {
            let mid = graph.feature_graph.modules[i] as usize;
            if names[mid].is_none() {
                names[mid] = Some(inst.module.clone());
            }
        }
        names
            .into_iter()
            .enumerate()
            .filter_map(|(mid, name)| name.map(|n| (n, m.row(mid).to_vec())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatls_designs::by_name;

    #[test]
    fn builds_graph_for_every_benchmark() {
        for d in chatls_designs::benchmarks() {
            let g = build_circuit_graph(&d);
            assert!(!g.instances.is_empty(), "{}", d.name);
            assert_eq!(g.instances.len(), g.feature_graph.num_nodes());
            assert!(g.db.node_count() > g.instances.len(), "design node + modules");
        }
    }

    #[test]
    fn graph_db_queryable_for_module_code() {
        let d = by_name("riscv32i").unwrap();
        let g = build_circuit_graph(&d);
        let rs = chatls_graphdb::query(&g.db, "MATCH (m:Module {name: 'rv_alu'}) RETURN m.code")
            .unwrap();
        let code = rs.scalar().unwrap().to_string();
        assert!(code.contains("module rv_alu"), "{code}");
    }

    #[test]
    fn contains_relationships_span_hierarchy() {
        let d = by_name("aes").unwrap();
        let g = build_circuit_graph(&d);
        let rs = chatls_graphdb::query(
            &g.db,
            "MATCH (d:Design)-[:CONTAINS]->(t:Module)-[:CONTAINS]->(m:Module) RETURN count(*)",
        )
        .unwrap();
        match rs.scalar().unwrap() {
            Value::Int(n) => assert!(*n >= 4, "aes top contains rounds/sboxes, got {n}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn traits_detect_high_fanout_on_ethmac() {
        let eth = by_name("ethmac").unwrap();
        let t = detect_traits(&eth.netlist());
        assert!(t.high_fanout(), "ethmac max_fanout = {}", t.max_fanout);
    }

    #[test]
    fn traits_detect_deep_logic_on_jpeg() {
        let j = by_name("jpeg").unwrap();
        let t = detect_traits(&j.netlist());
        assert!(t.deep_logic(), "jpeg depth = {}", t.logic_depth);
    }

    #[test]
    fn traits_detect_enable_registers_on_regfile_design() {
        let rv = by_name("riscv32i").unwrap();
        let t = detect_traits(&rv.netlist());
        assert!(t.enable_reg_fraction > 0.3, "regfile-heavy: {}", t.enable_reg_fraction);
    }

    #[test]
    fn embeddings_have_model_dim() {
        let mentor = CircuitMentor::untrained(3);
        let g = build_circuit_graph(&by_name("fft").unwrap());
        assert_eq!(mentor.design_embedding(&g).len(), mentor.embedding_dim());
        let mods = mentor.module_embeddings(&g);
        assert!(!mods.is_empty());
        assert!(mods.iter().all(|(_, e)| e.len() == mentor.embedding_dim()));
    }

    #[test]
    fn training_separates_categories() {
        // Small corpus: crypto vs arithmetic-heavy designs.
        let corpus: Vec<(GeneratedDesign, u32)> = vec![
            (by_name("sha3").unwrap(), 0),
            (by_name("aes").unwrap(), 0),
            (by_name("fft").unwrap(), 1),
            (by_name("nvdla").unwrap(), 1),
        ];
        let cfg = TrainConfig {
            dims: vec![FEATURE_DIM, 16, 8],
            aggregator: Aggregator::Mean,
            loss: MetricLoss::Contrastive { margin: 1.0 },
            epochs: 60,
            learning_rate: 0.02,
            seed: 5,
        };
        let mentor = CircuitMentor::train_on(&corpus, Some(cfg));
        let hist = mentor.history();
        assert!(hist.last().unwrap().separation > hist.first().unwrap().separation);
    }

    #[test]
    fn single_module_design_still_embeds() {
        // Flattened design: the graph collapses to one node; global pooling
        // must still produce a meaningful embedding (paper §IV-A).
        let d = GeneratedDesign {
            name: "flat".into(),
            category: chatls_designs::Category::CryptoArithmetic,
            source: chatls_designs::blocks::xor_round("flat", 16, 4),
            top: "flat".into(),
            modules: vec![],
            default_period: 1.0,
        };
        let g = build_circuit_graph(&d);
        assert_eq!(g.instances.len(), 1);
        let mentor = CircuitMentor::untrained(1);
        let e = mentor.design_embedding(&g);
        assert!(e.iter().any(|&x| x != 0.0));
    }
}
