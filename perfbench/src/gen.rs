//! Seeded inputs: op lists per client, renamed inline designs and the
//! eval script grammar. Everything here is a pure function of the seed.

use std::collections::HashSet;

use chatls_designs::GeneratedDesign;

/// splitmix64: small, fast and fully determined by its state.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `tag` under `seed`.
    pub fn stream(seed: u64, tag: &str) -> Self {
        let h = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Small catalog designs (under 6k gates).
pub const SMALL: [&str; 6] = ["riscv32i", "sodor", "simd", "sha3", "aes", "dynamic_node"];
/// Mid-size catalog designs (8k to 16k gates).
pub const MID: [&str; 4] = ["fft", "tinyRocket", "rocket", "ethmac"];
/// The one large design `warm_customize` serves (40k gates).
pub const LARGE: &str = "swerv";

/// User requests the ops draw from; the first is the CLI default.
pub const REQUESTS: [&str; 6] = [
    "optimize timing at the fixed clock",
    "close timing with the least area growth",
    "shorten the critical path",
    "recover area without losing timing",
    "tame high fanout nets",
    "balance the pipeline stages",
];

/// One op in four of `warm_customize` goes through `POST /v1/mcp`.
pub const MCP_EVERY: usize = 4;
/// Small designs `eval_sweep` and `cold_sessions` rotate through.
pub const ROTATION_SMALL: [&str; 4] = ["riscv32i", "simd", "sha3", "aes"];
/// Mid-size design(s) `eval_sweep` and `cold_sessions` rotate through.
pub const ROTATION_MID: [&str; 1] = ["fft"];
/// Mid-size designs take one op position in five in `eval_sweep` and
/// `cold_sessions`; the other four are small designs.
pub const MID_EVERY: usize = 5;
/// Positions after which every rotation design has appeared equally
/// often; op counts per client are multiples of it.
pub const ROTATION_CYCLE: usize = 5;
/// Scripts per `eval_sweep` batch (Pass@5).
pub const BATCH: usize = 5;
/// Turns per `cold_sessions` session.
pub const TURNS: usize = 3;
/// `chatls serve`'s default session-pool capacity.
pub const POOL_CAPACITY: usize = 16;

/// A catalog design by name (the names above all exist).
pub fn design(name: &str) -> GeneratedDesign {
    chatls_designs::by_name(name).unwrap_or_else(|| panic!("catalog lacks {name}"))
}

/// Size-class cycling shared by `eval_sweep` and `cold_sessions`: op
/// position `i` gets a mid-size design when `i % MID_EVERY ==
/// MID_EVERY - 1`, otherwise the next small design, each class in a
/// seeded order. Over every [`ROTATION_CYCLE`] positions each design of
/// a class appears equally often, so the seed never changes the mix.
pub fn rotation(rng: &mut Rng, n: usize) -> Vec<&'static str> {
    let small = rng.permutation(ROTATION_SMALL.len());
    let mid = rng.permutation(ROTATION_MID.len());
    let (mut s, mut m) = (0, 0);
    (0..n)
        .map(|i| {
            if i % MID_EVERY == MID_EVERY - 1 {
                m += 1;
                ROTATION_MID[mid[(m - 1) % ROTATION_MID.len()]]
            } else {
                s += 1;
                ROTATION_SMALL[small[(s - 1) % ROTATION_SMALL.len()]]
            }
        })
        .collect()
}

// ---------------------------------------------------------------- warm

/// One `warm_customize` key: the request body's design, seed and request.
#[derive(Clone, Debug, PartialEq)]
pub struct Key {
    pub design: &'static str,
    pub seed: u64,
    pub request: &'static str,
}

/// One timed `warm_customize` op: a key index, sent as MCP or plain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmOp {
    pub key: usize,
    pub mcp: bool,
}

#[derive(Debug, PartialEq)]
pub struct WarmPlan {
    pub keys: Vec<Key>,
    pub clients: Vec<Vec<WarmOp>>,
}

/// The small designs and `fft`: each synthesizes in well under 200 ms.
fn quick(name: &str) -> bool {
    SMALL.contains(&name) || name == "fft"
}

/// Keys `warm_customize` serves per design: eight for the quick designs
/// (warming eight keys is cheap), two for the slower ones.
pub fn keys_per_design(name: &str) -> usize {
    if quick(name) {
        8
    } else {
        2
    }
}

/// The `warm_customize` key set and op lists. Each design has a fixed
/// pool of candidate pipeline seeds under one request. A quick design's
/// pool holds one more candidate than it serves keys and the run's seed
/// leaves one out: drawing nearly the whole pool keeps the served
/// scripts' QoR mix — which swings with the pipeline seed on some designs
/// — the same from seed to seed. A slow design serves its whole pool of
/// two: its keys dominate set-up, whose time would otherwise swing with
/// the seed.
///
/// Clients walk the designs round-robin in their own seeded order, and
/// each design's keys in turn, so every design gets the same op share and
/// within a design every key the same share.
pub fn warm_plan(seed: u64, clients: usize, ops_per_client: usize) -> WarmPlan {
    let mut pool_rng = Rng::stream(0, "warm.pool");
    let mut rng = Rng::stream(seed, "warm.keys");
    let mut keys = Vec::new();
    let mut by_design: Vec<Vec<usize>> = Vec::new();
    for &name in SMALL.iter().chain(MID.iter()).chain([LARGE].iter()) {
        let request = REQUESTS[pool_rng.below(REQUESTS.len())];
        let leave_out = quick(name);
        let mut pool = Vec::new();
        while pool.len() < keys_per_design(name) + usize::from(leave_out) {
            let s = pool_rng.next_u64() % 10_000;
            if !pool.contains(&s) {
                pool.push(s);
            }
        }
        if leave_out {
            pool.remove(rng.below(pool.len()));
        }
        by_design.push((keys.len()..keys.len() + pool.len()).collect());
        keys.extend(pool.into_iter().map(|s| Key { design: name, seed: s, request }));
    }
    let clients = (0..clients)
        .map(|c| {
            let mut rng = Rng::stream(seed, &format!("warm.client{c}"));
            let designs = rng.permutation(by_design.len());
            let mut ops = Vec::with_capacity(ops_per_client);
            for i in 0..ops_per_client {
                let round = i / designs.len();
                let ks = &by_design[designs[i % designs.len()]];
                ops.push(WarmOp { key: ks[round % ks.len()], mcp: i % MCP_EVERY == MCP_EVERY - 1 });
            }
            ops
        })
        .collect();
    WarmPlan { keys, clients }
}

/// Ops per `warm_customize` client after which every key has had its
/// exact share: each design once per round, eight rounds.
pub fn warm_cycle() -> usize {
    (SMALL.len() + MID.len() + 1) * 8
}

// ---------------------------------------------------------------- eval

/// One Pass@5-shaped eval batch.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    pub design: &'static str,
    pub scripts: Vec<String>,
    /// `Some((slot, source))`: `scripts[slot]` is an equivalent rewrite
    /// of the earlier fresh script `source` (same design).
    pub rewrite: Option<(usize, String)>,
}

#[derive(Debug, PartialEq)]
pub struct EvalPlan {
    /// Set-up batches: one per design, all fresh.
    pub warmup: Vec<Batch>,
    /// Timed batches.
    pub ops: Vec<Batch>,
}

/// Fresh scripts each set-up batch scores per design.
const WARMUP_SCRIPTS: usize = 2;

/// The eval plan: set-up batches over every rotation design, then timed
/// batches following [`rotation`]. Every timed batch holds four fresh
/// scripts and one rewrite of a fresh script scored earlier on the same
/// design; no two fresh scripts share a canonical form.
pub fn eval_plan(seed: u64, ops: usize) -> EvalPlan {
    let mut grammar = Grammar::new(seed);
    let mut rng = Rng::stream(seed, "eval.ops");
    let mut scored: Vec<(&'static str, String)> = Vec::new();
    let mut warmup = Vec::new();
    for &name in ROTATION_SMALL.iter().chain(ROTATION_MID.iter()) {
        let period = design(name).default_period;
        let scripts: Vec<String> = (0..WARMUP_SCRIPTS).map(|k| grammar.fresh(period, k)).collect();
        scored.extend(scripts.iter().map(|s| (name, s.clone())));
        warmup.push(Batch { design: name, scripts, rewrite: None });
    }
    let order = rotation(&mut rng, ops);
    let mut batches = Vec::with_capacity(order.len());
    for name in order {
        let period = design(name).default_period;
        let slot = rng.below(BATCH);
        let earlier: Vec<&String> =
            scored.iter().filter(|(d, _)| *d == name).map(|(_, s)| s).collect();
        let source = earlier[rng.below(earlier.len())].clone();
        let mut scripts = Vec::with_capacity(BATCH);
        let mut fresh = Vec::new();
        // One fresh script per optimization sequence, in a seeded order.
        let mut sequences = rng.permutation(OPTIMIZE.len()).into_iter();
        for i in 0..BATCH {
            if i == slot {
                scripts.push(grammar.rewrite(&source));
            } else {
                let s = grammar.fresh(period, sequences.next().expect("one sequence per slot"));
                fresh.push(s.clone());
                scripts.push(s);
            }
        }
        scored.extend(fresh.into_iter().map(|s| (name, s)));
        batches.push(Batch { design: name, scripts, rewrite: Some((slot, source)) });
    }
    EvalPlan { warmup, ops: batches }
}

/// The benchmark's script grammar: a clock, a run of commuting
/// constraint writes to distinct facets, then an optimization sequence.
/// Every script is lint-clean and provable, so the QorCache keys it by
/// its semantic canonical form.
pub struct Grammar {
    rng: Rng,
    /// Canonical forms handed out so far (fresh scripts never repeat).
    seen: HashSet<String>,
}

/// Constraint commands the grammar draws values for.
const CONSTRAINTS: [&str; 4] =
    ["set_input_delay", "set_output_delay", "set_max_fanout", "set_critical_range"];

/// Optimization sequences; every timed batch uses each once.
const OPTIMIZE: [&str; BATCH - 1] = [
    "compile",
    "compile -map_effort high",
    "compile\nbalance_buffers",
    "compile -map_effort medium\nbalance_buffers",
];

const REPORTS: [&str; 3] = ["report_qor", "report_timing", "report_area"];

impl Grammar {
    pub fn new(seed: u64) -> Self {
        Grammar { rng: Rng::stream(seed, "eval.grammar"), seen: HashSet::new() }
    }

    /// One write of constraint command `name` with a freshly drawn value.
    fn constraint(&mut self, name: &str) -> String {
        let r = &mut self.rng;
        match name {
            "set_input_delay" => format!("{name} {:.2} [all_inputs]", r.below(11) as f64 / 100.0),
            "set_output_delay" => format!("{name} {:.2} [all_outputs]", r.below(11) as f64 / 100.0),
            "set_max_fanout" => format!("{name} {}", 4 + r.below(37)),
            "set_critical_range" => format!("{name} {:.2}", 0.05 + r.below(56) as f64 / 100.0),
            other => unreachable!("the grammar draws no {other}"),
        }
    }

    /// `lines` as a script, if its canonical form is new.
    fn unseen(&mut self, lines: &[String]) -> Option<String> {
        let script = lines.join("\n") + "\n";
        let canon = chatls_lint::canonical_script(&script)
            .expect("grammar scripts are provable by construction");
        self.seen.insert(canon).then_some(script)
    }

    /// A script ending in optimization sequence `optimize` (an index
    /// into the grammar's sequences) whose canonical form no earlier fresh
    /// script had.
    pub fn fresh(&mut self, period: f64, optimize: usize) -> String {
        loop {
            let mut lines = vec![format!("create_clock -period {period:.3} [get_ports clk]")];
            let picks = 2 + self.rng.below(3);
            for i in self.rng.permutation(CONSTRAINTS.len()).into_iter().take(picks) {
                lines.push(self.constraint(CONSTRAINTS[i]));
            }
            lines.push(OPTIMIZE[optimize].to_string());
            if let Some(script) = self.unseen(&lines) {
                return script;
            }
        }
    }

    /// A semantically equivalent rewrite of `source`: the leading
    /// constraint run reordered, a comment and pure report lines added.
    pub fn rewrite(&mut self, source: &str) -> String {
        let lines: Vec<&str> = source.lines().collect();
        let split = lines
            .iter()
            .position(|l| !l.starts_with("create_clock") && !l.starts_with("set_"))
            .unwrap_or(lines.len());
        let (mut head, tail) = (lines[..split].to_vec(), &lines[split..]);
        while head.len() > 1 && head == lines[..split] {
            self.rng.shuffle(&mut head);
        }
        let mut out = String::from("# resubmitted candidate\n");
        for l in head {
            out.push_str(l);
            out.push('\n');
        }
        for l in tail {
            out.push_str(l);
            out.push('\n');
        }
        out.push_str(REPORTS[self.rng.below(REPORTS.len())]);
        out.push('\n');
        out
    }
}

// ---------------------------------------------------------------- cold

/// One `cold_sessions` op: a whole agent session on a renamed design.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    /// Catalog design whose RTL the session carries.
    pub source: &'static str,
    /// The renamed top module (unique per session and seed).
    pub top: String,
    /// `(request, seed)` per turn.
    pub turns: Vec<(&'static str, u64)>,
}

#[derive(Debug, PartialEq)]
pub struct ColdPlan {
    /// Create-only sessions filling the pool to capacity at set-up.
    pub fill: Vec<Session>,
    /// Full sessions run at set-up to warm every code path.
    pub warmup: Vec<Session>,
    pub clients: Vec<Vec<Session>>,
}

/// The cold plan: pool-filling and warm-up sessions on small designs,
/// then per-client timed sessions following [`rotation`], each on a
/// renamed design with [`TURNS`] turns.
///
/// The pipeline's generator is seeded by the design name, so a session's
/// synthesis work follows its renamed top as much as its turn seeds. Each
/// rotation design therefore has a fixed pool of one more timed session
/// than the run serves on it; the run's seed leaves one out and deals
/// the rest to the clients in a seeded order. Drawing nearly the whole
/// pool keeps the work mix the same from seed to seed, while every top
/// name stays unique within the run (so every fingerprint is unseen).
pub fn cold_plan(seed: u64, clients: usize, per_client: usize) -> ColdPlan {
    let session = |rng: &mut Rng, source: &'static str, top: String| Session {
        source,
        top,
        turns: (0..TURNS)
            .map(|_| (REQUESTS[rng.below(REQUESTS.len())], rng.next_u64() % 10_000))
            .collect(),
    };
    let mut rng = Rng::stream(seed, "cold.setup");
    let mut setup = |src: &'static str, tag: String| {
        session(&mut rng, src, format!("{}_{tag}_{seed:x}", design(src).top))
    };
    let fill = (0..POOL_CAPACITY)
        .map(|k| setup(ROTATION_SMALL[k % ROTATION_SMALL.len()], format!("f{k}")))
        .collect();
    let warmup = (0..2).map(|k| setup(ROTATION_SMALL[k], format!("w{k}"))).collect();
    let orders: Vec<Vec<&'static str>> = (0..clients)
        .map(|c| rotation(&mut Rng::stream(seed, &format!("cold.client{c}")), per_client))
        .collect();
    let mut pool_rng = Rng::stream(0, "cold.pool");
    let mut deal_rng = Rng::stream(seed, "cold.deal");
    let mut decks: Vec<(&'static str, Vec<Session>)> = Vec::new();
    for &name in ROTATION_SMALL.iter().chain(ROTATION_MID.iter()) {
        let served = orders.iter().flatten().filter(|d| **d == name).count();
        let mut pool: Vec<Session> = (0..=served)
            .map(|k| session(&mut pool_rng, name, format!("{}_p{k}", design(name).top)))
            .collect();
        pool.remove(deal_rng.below(pool.len()));
        deal_rng.shuffle(&mut pool);
        decks.push((name, pool));
    }
    let clients = orders
        .into_iter()
        .map(|order| {
            order
                .into_iter()
                .map(|name| {
                    let deck = decks.iter_mut().find(|(d, _)| *d == name).expect("rotation design");
                    deck.1.pop().expect("one pooled session per served slot")
                })
                .collect()
        })
        .collect();
    ColdPlan { fill, warmup, clients }
}

/// `source`'s RTL with its top module declared as `top` instead.
pub fn renamed(source: &GeneratedDesign, top: &str) -> GeneratedDesign {
    let decl = format!("module {}(", source.top);
    assert_eq!(source.source.matches(&decl).count(), 1, "{}: one top declaration", source.name);
    GeneratedDesign {
        name: format!("inline:{top}"),
        category: source.category,
        source: source.source.replacen(&decl, &format!("module {top}("), 1),
        top: top.to_string(),
        modules: Vec::new(),
        default_period: source.default_period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatls::design_fingerprint;

    #[test]
    fn op_lists_are_a_pure_function_of_the_seed() {
        assert_eq!(warm_plan(7, 2, 50), warm_plan(7, 2, 50));
        assert_ne!(warm_plan(7, 2, 50), warm_plan(8, 2, 50));
        assert_eq!(eval_plan(7, 20), eval_plan(7, 20));
        assert_ne!(eval_plan(7, 20), eval_plan(8, 20));
        assert_eq!(cold_plan(7, 2, 10), cold_plan(7, 2, 10));
        assert_ne!(cold_plan(7, 2, 10), cold_plan(8, 2, 10));
    }

    #[test]
    fn clients_split_deterministically_with_a_fixed_make_up() {
        for seed in [1, 2, 3] {
            let plan = warm_plan(seed, 2, 2 * warm_cycle());
            assert_ne!(plan.clients[0], plan.clients[1], "clients walk their own orders");
            for ops in &plan.clients {
                let mcp = ops.iter().filter(|o| o.mcp).count();
                assert_eq!(mcp, ops.len() / MCP_EVERY);
                // Every design gets the same op share, split evenly over
                // its keys.
                for (k, key) in plan.keys.iter().enumerate() {
                    let n = ops.iter().filter(|o| o.key == k).count();
                    assert_eq!(n, 2 * 8 / keys_per_design(key.design), "{key:?}");
                }
            }
            // Over whole cycles every rotation design appears equally often.
            let cycles = 4;
            let expected = |name: &str| {
                if ROTATION_SMALL.contains(&name) {
                    cycles * (MID_EVERY - 1) / ROTATION_SMALL.len()
                } else {
                    cycles
                }
            };
            let cold = cold_plan(seed, 2, cycles * ROTATION_CYCLE);
            for sessions in &cold.clients {
                assert!(sessions.iter().all(|s| s.turns.len() == TURNS));
                for name in ROTATION_SMALL.iter().chain(ROTATION_MID.iter()) {
                    let n = sessions.iter().filter(|s| s.source == *name).count();
                    assert_eq!(n, expected(name), "{name}");
                }
            }
            // Another seed deals the same pooled sessions but at most one
            // per design.
            let tops = |p: &ColdPlan| -> HashSet<String> {
                p.clients.iter().flatten().map(|s| s.top.clone()).collect()
            };
            let other = tops(&cold_plan(seed + 10, 2, cycles * ROTATION_CYCLE));
            let designs = ROTATION_SMALL.len() + ROTATION_MID.len();
            assert!(tops(&cold).difference(&other).count() <= designs);
            let eval = eval_plan(seed, cycles * ROTATION_CYCLE);
            for name in ROTATION_SMALL.iter().chain(ROTATION_MID.iter()) {
                let n = eval.ops.iter().filter(|b| b.design == *name).count();
                assert_eq!(n, expected(name), "{name}");
            }
        }
    }

    #[test]
    fn renamed_designs_have_unseen_fingerprints_and_the_same_gates() {
        let plan = cold_plan(11, 1, 5);
        let mut seen = HashSet::new();
        for name in SMALL.iter().chain(MID.iter()) {
            seen.insert(design_fingerprint(&design(name)));
        }
        for name in ROTATION_SMALL.iter().chain(ROTATION_MID.iter()) {
            assert!(SMALL.contains(name) || MID.contains(name));
        }
        for s in plan.fill.iter().chain(&plan.warmup).chain(&plan.clients[0]) {
            let src = design(s.source);
            let inline = renamed(&src, &s.top);
            assert!(seen.insert(design_fingerprint(&inline)), "{} fingerprint reused", s.top);
            let (a, b) = (src.netlist(), inline.netlist());
            assert_eq!(a.gates.len(), b.gates.len(), "{}", s.top);
            assert_eq!(b.name, s.top);
        }
    }

    #[test]
    fn grammar_scripts_are_lint_clean_and_rewrites_share_their_key() {
        let plan = eval_plan(5, 30);
        let mut keys = HashSet::new();
        for b in plan.warmup.iter().chain(&plan.ops) {
            let period = design(b.design).default_period;
            for (i, s) in b.scripts.iter().enumerate() {
                let report = chatls_lint::lint_script(s);
                assert!(!report.has_errors(), "lint errors in\n{s}\n{report:?}");
                assert!(chatls::llm::respects_fixed_period(s, period));
                let key = chatls::canonicalize_script(s);
                match &b.rewrite {
                    Some((slot, source)) if *slot == i => {
                        assert_ne!(s, source, "a rewrite differs textually");
                        assert_eq!(key, chatls::canonicalize_script(source));
                    }
                    _ => assert!(keys.insert(key), "fresh scripts never share a key:\n{s}"),
                }
            }
        }
    }
}
