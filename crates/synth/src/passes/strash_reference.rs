//! The round-based `strash` that the event-driven pass replaced, kept as the
//! tests' oracle: every round keys every live gate afresh and rewrites
//! every pin of every gate. The tests hold the pass to it bit for bit, in
//! both the resulting `MappedDesign` and the `PassStats`, on the catalog
//! designs and on random netlists built to hit its edge cases, and they
//! bound the keying work the pass does.

use super::*;
use chatls_liberty::nangate45;
use chatls_verilog::netlist::Netlist;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The round-based pass: rescans all gates once per level of duplicated
/// logic, so it keys about depth × gates.
fn strash_reference(design: &mut MappedDesign) -> PassStats {
    let mut stats = PassStats::default();
    loop {
        let mut changed = false;
        let primary_outputs: Vec<u32> = design.netlist.outputs.iter().map(|(_, id)| *id).collect();
        let mut seen: HashMap<(GateKind, Vec<u32>), u32> = HashMap::new();
        let mut replace: Vec<(u32, u32)> = Vec::new(); // (dup net, canonical net)
        for gi in 0..design.netlist.gates.len() {
            if design.is_dead(gi) {
                continue;
            }
            let g = &design.netlist.gates[gi];
            if g.kind.is_sequential() || g.dont_touch {
                continue;
            }
            STRASH_KEYS.with(|n| n.set(n.get() + 1));
            let mut key_inputs = g.inputs;
            let commutative = matches!(
                g.kind,
                GateKind::And
                    | GateKind::Or
                    | GateKind::Xor
                    | GateKind::Nand
                    | GateKind::Nor
                    | GateKind::Xnor
            );
            if commutative {
                key_inputs.sort_unstable();
            }
            match seen.entry((g.kind, key_inputs.to_vec())) {
                Entry::Vacant(v) => {
                    v.insert(g.output);
                }
                Entry::Occupied(o) => {
                    let canonical = *o.get();
                    // A duplicate driving a primary output keeps its gate
                    // (the output net needs a driver).
                    if primary_outputs.contains(&g.output) {
                        continue;
                    }
                    replace.push((g.output, canonical));
                    design.kill(gi);
                    stats.removed += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        let map: HashMap<u32, u32> = replace.into_iter().collect();
        for g in design.netlist.gates.iter_mut() {
            for inp in g.inputs.iter_mut() {
                if let Some(&c) = map.get(inp) {
                    *inp = c;
                }
            }
            if let Some(e) = g.enable {
                if let Some(&c) = map.get(&e) {
                    g.enable = Some(c);
                }
            }
            if let Some(r) = g.async_reset {
                if let Some(&c) = map.get(&r) {
                    g.async_reset = Some(c);
                }
            }
        }
    }
    stats
}

/// Runs `pass` on a copy of `design`; returns its result and how many
/// strash keys it computed.
fn run_counted(
    design: &MappedDesign,
    pass: fn(&mut MappedDesign) -> PassStats,
) -> (MappedDesign, PassStats, u64) {
    let mut d = design.clone();
    let before = STRASH_KEYS.with(|n| n.get());
    let stats = pass(&mut d);
    (d, stats, STRASH_KEYS.with(|n| n.get()) - before)
}

/// Asserts that `strash` and the reference agree exactly on `design`;
/// returns the gates removed.
fn assert_matches_reference(design: &MappedDesign, what: &str) -> usize {
    let (fast, fast_stats, _) = run_counted(design, strash);
    let (slow, slow_stats, _) = run_counted(design, strash_reference);
    assert_eq!(fast_stats, slow_stats, "{what}: pass stats differ");
    // Not assert_eq!: a catalog design's debug dump runs to megabytes.
    assert!(fast == slow, "{what}: designs differ");
    fast_stats.removed
}

#[test]
fn matches_reference_on_every_catalog_design() {
    let lib = nangate45();
    let mut removed = 0;
    for generated in
        chatls_designs::benchmarks().into_iter().chain(chatls_designs::database_designs())
    {
        // The cleanup stage of `compile`, checked at both of its strash calls.
        let mut d = MappedDesign::map(generated.netlist(), &lib).expect("maps");
        const_propagate(&mut d, &lib);
        removed +=
            assert_matches_reference(&d, &format!("{} after const_propagate", generated.name));
        strash(&mut d);
        absorb_inverters(&mut d, &lib);
        removed +=
            assert_matches_reference(&d, &format!("{} after absorb_inverters", generated.name));
    }
    assert!(removed > 0, "the catalog must give strash something to fold");
}

/// A random netlist shaped to hit every rule of the pass. A block of random
/// gates is stamped out several times, each copy reading its own earlier
/// nets, so duplicates chain as deep as the block; copies swap commutative
/// inputs and now and then read an earlier copy's net instead. Some gates
/// drive primary outputs or are `dont_touch`, a few share an output net
/// with another gate, registers sit inside the block and after it (with
/// `enable`/`async_reset` pins on duplicated nets), and a few gates are
/// already dead when the pass runs.
fn edge_case_design(seed: u64) -> MappedDesign {
    use GateKind::*;
    const KINDS: [GateKind; 12] =
        [Const0, Const1, Buf, Not, And, Or, Xor, Nand, Nor, Xnor, Mux, Dff];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new("t");
    let primary: Vec<u32> = (0..3)
        .map(|i| {
            let n = nl.add_net(format!("i{i}"));
            nl.inputs.push((format!("i{i}"), n));
            n
        })
        .collect();
    // Operand `r` names primary input `r`, or else block gate
    // `r - primary.len()` of the same copy; operand 0 often chains to the
    // previous block gate so the duplicated logic runs deep.
    let mut block: Vec<(GateKind, Vec<usize>)> = Vec::new();
    for b in 0..rng.gen_range(3..16usize) {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let mut ops: Vec<usize> =
            (0..kind.arity()).map(|_| rng.gen_range(0..primary.len() + b)).collect();
        if b > 0 && !ops.is_empty() && rng.gen_bool(0.5) {
            ops[0] = primary.len() + b - 1;
        }
        block.push((kind, ops));
    }
    let mut copies: Vec<Vec<u32>> = Vec::new();
    for c in 0..rng.gen_range(2..5usize) {
        let mut own: Vec<u32> = Vec::new();
        for (b, (kind, ops)) in block.iter().enumerate() {
            let mut ins: Vec<u32> = Vec::new();
            for &r in ops {
                ins.push(match r.checked_sub(primary.len()) {
                    None => primary[r],
                    Some(src) if c > 0 && rng.gen_bool(0.15) => copies[rng.gen_range(0..c)][src],
                    Some(src) => own[src],
                });
            }
            if ins.len() == 2 && rng.gen_bool(0.5) {
                ins.swap(0, 1);
            }
            // Rarely, drive a net some earlier gate drives too: lowering
            // never emits one, but the pass must still match the reference.
            let out = match copies.last() {
                Some(prev) if rng.gen_bool(0.03) => prev[rng.gen_range(0..prev.len())],
                _ => nl.add_net(format!("c{c}g{b}")),
            };
            let gi = if *kind == Dff {
                nl.add_dff(ins[0], out, "t", false, None)
            } else {
                nl.add_gate(*kind, &ins, out, "t")
            };
            nl.gates[gi as usize].dont_touch = rng.gen_bool(0.05);
            if rng.gen_bool(0.1) {
                nl.outputs.push((format!("o{c}_{b}"), out));
            }
            own.push(out);
        }
        copies.push(own);
    }
    let nets: Vec<u32> = copies.concat();
    for r in 0..rng.gen_range(0..4usize) {
        let q = nl.add_net(format!("q{r}"));
        let d = nets[rng.gen_range(0..nets.len())];
        let reset = rng.gen_bool(0.5).then(|| nets[rng.gen_range(0..nets.len())]);
        let gi = nl.add_dff(d, q, "t", rng.gen_bool(0.5), reset) as usize;
        if rng.gen_bool(0.5) {
            nl.gates[gi].enable = Some(nets[rng.gen_range(0..nets.len())]);
        }
        nl.outputs.push((format!("q{r}"), q));
    }
    let mut design = MappedDesign::map(nl, &nangate45()).expect("maps");
    for gi in 0..design.netlist.gates.len() {
        if rng.gen_bool(0.05) {
            design.kill(gi);
        }
    }
    design
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn matches_reference_on_random_netlists(seed in any::<u64>()) {
        assert_matches_reference(&edge_case_design(seed), &format!("seed {seed}"));
    }
}

/// Two identical chains fold one level per round. The reference rekeys
/// every gate each round (about depth × gates keys); the pass rekeys only
/// the gate each round rewires.
#[test]
fn folding_deep_duplicate_chains_keys_each_gate_a_bounded_number_of_times() {
    const DEPTH: usize = 500;
    let mut nl = Netlist::new("chains");
    let x = nl.add_net("x");
    let y = nl.add_net("y");
    nl.inputs.extend([("x".into(), x), ("y".into(), y)]);
    for chain in 0..2 {
        let mut prev = x;
        for level in 0..DEPTH {
            let out = nl.add_net(format!("c{chain}_{level}"));
            nl.add_gate(GateKind::And, &[prev, y], out, "chains");
            prev = out;
        }
        nl.outputs.push((format!("z{chain}"), prev));
    }
    let design = MappedDesign::map(nl, &nangate45()).expect("maps");
    let bound = 4 * design.netlist.gates.len() as u64;

    let (folded, stats, keys) = run_counted(&design, strash);
    // Every level folds except the last, whose duplicate drives an output.
    assert_eq!(stats.removed, DEPTH - 1);
    assert!(keys <= bound, "strash keyed {keys} times, bound {bound}");

    let (reference, reference_stats, reference_keys) = run_counted(&design, strash_reference);
    assert_eq!((stats, &folded), (reference_stats, &reference));
    assert!(reference_keys > bound, "the bound must reject the reference ({reference_keys} keys)");
}
