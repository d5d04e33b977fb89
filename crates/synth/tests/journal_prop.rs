//! Property tests: a trial edit through [`TimingView::trial`] leaves no
//! trace when it rolls back, and when it is kept it equals the same edit
//! made without a journal.
//!
//! Random layered netlists with a register bank first receive a few cell
//! resizes through the view, so the pre-trial timing graph holds state of
//! its own. Then one random trial body runs twice: once forced to roll
//! back and once forced to keep. A body mixes buffer trees at random
//! fanout limits, retime-style register moves, kills and pin rewires.
//! After the rollback the design equals its pre-trial clone and the
//! report, slack map and hold slacks equal their pre-trial values bit for
//! bit. After the keep the design equals the body applied straight to a
//! clone, and the timing equals a fresh analysis of it. A resize after
//! each trial checks that the graph the trial left keeps updating
//! correctly.
//!
//! The heap-ordered buffer split is also checked on its own against the
//! scan-based reference: on random nets with equal fanouts and nets that
//! split more than once, and on every catalog design.

use chatls_liberty::{nangate45, Library};
use chatls_synth::passes::{buffer_high_fanout, buffer_high_fanout_in, PassStats};
use chatls_synth::sta::{self, Constraints, EndpointSlack, SlackMap, TimingReport};
use chatls_synth::{EditJournal, MappedDesign, TimingGraph, TimingView, NO_CELL};
use chatls_verilog::netlist::{Gate, GateKind, InputList, Netlist};
use proptest::prelude::*;

/// Random layered DAG: `inputs` primary inputs, `layers` of random gates,
/// a register bank, and a few outputs (same shape as the other property
/// tests, with more registers so register moves have candidates).
fn random_netlist(inputs: usize, layers: usize, per_layer: usize, seed: u64) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut rng = seed;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut pool: Vec<u32> = (0..inputs)
        .map(|i| {
            let n = nl.add_net(format!("in{i}"));
            nl.inputs.push((format!("in{i}"), n));
            n
        })
        .collect();
    for layer in 0..layers {
        let mut new_pool = pool.clone();
        for g in 0..per_layer {
            let kinds = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Not, GateKind::Mux];
            let kind = kinds[(next() % kinds.len() as u64) as usize];
            let pick = |r: u64| pool[(r % pool.len() as u64) as usize];
            let out = nl.add_net(format!("l{layer}g{g}"));
            match kind {
                GateKind::Not => {
                    let a = pick(next());
                    nl.add_gate(GateKind::Not, &[a], out, "rand");
                }
                GateKind::Mux => {
                    let (s, a, b) = (pick(next()), pick(next()), pick(next()));
                    nl.add_gate(GateKind::Mux, &[s, a, b], out, "rand");
                }
                k => {
                    let (a, b) = (pick(next()), pick(next()));
                    nl.add_gate(k, &[a, b], out, "rand");
                }
            }
            new_pool.push(out);
        }
        pool = new_pool;
    }
    for i in 0..5usize {
        let d = pool[(pool.len() - 1 - i * 3 % pool.len()) % pool.len()];
        let q = nl.add_net(format!("q{i}"));
        nl.add_dff(d, q, "rand", false, None);
        nl.outputs.push((format!("q{i}"), q));
    }
    let last = *pool.last().expect("non-empty pool");
    nl.outputs.push(("comb_out".into(), last));
    nl
}

/// The edits a trial body makes, over a journal or straight on a design.
trait Edits {
    fn design(&self) -> &MappedDesign;
    fn add_net(&mut self, name: String) -> u32;
    fn push_gate(&mut self, gate: Gate, cell: u32) -> usize;
    fn rewire_input(&mut self, gi: usize, pin: usize, net: u32);
    fn rewire_gate(&mut self, gi: usize, inputs: InputList, output: u32);
    fn kill(&mut self, gi: usize);
    fn buffer_trees(&mut self, lib: &Library, limit: usize);
}

impl Edits for EditJournal<'_> {
    fn design(&self) -> &MappedDesign {
        EditJournal::design(self)
    }
    fn add_net(&mut self, name: String) -> u32 {
        EditJournal::add_net(self, name)
    }
    fn push_gate(&mut self, gate: Gate, cell: u32) -> usize {
        EditJournal::push_gate(self, gate, cell)
    }
    fn rewire_input(&mut self, gi: usize, pin: usize, net: u32) {
        EditJournal::rewire_input(self, gi, pin, net);
    }
    fn rewire_gate(&mut self, gi: usize, inputs: InputList, output: u32) {
        EditJournal::rewire_gate(self, gi, inputs, output);
    }
    fn kill(&mut self, gi: usize) {
        EditJournal::kill(self, gi);
    }
    fn buffer_trees(&mut self, lib: &Library, limit: usize) {
        buffer_high_fanout_in(self, lib, limit);
    }
}

impl Edits for MappedDesign {
    fn design(&self) -> &MappedDesign {
        self
    }
    fn add_net(&mut self, name: String) -> u32 {
        self.netlist.add_net(name)
    }
    fn push_gate(&mut self, gate: Gate, cell: u32) -> usize {
        MappedDesign::push_gate(self, gate, cell)
    }
    fn rewire_input(&mut self, gi: usize, pin: usize, net: u32) {
        self.netlist.gates[gi].inputs[pin] = net;
    }
    fn rewire_gate(&mut self, gi: usize, inputs: InputList, output: u32) {
        self.netlist.gates[gi].inputs = inputs;
        self.netlist.gates[gi].output = output;
    }
    fn kill(&mut self, gi: usize) {
        MappedDesign::kill(self, gi);
    }
    fn buffer_trees(&mut self, lib: &Library, limit: usize) {
        reference_buffer_trees(self, lib, limit);
    }
}

/// The buffer-tree split written straight against the design, as the pass
/// read before it moved onto the journal and a heap: each round rescans
/// every net's sink list for the worst. The pass must edit exactly as this
/// does and report the same stats.
fn reference_buffer_trees(
    design: &mut MappedDesign,
    lib: &Library,
    max_fanout: usize,
) -> PassStats {
    let mut stats = PassStats::default();
    let Some(buf) = lib.variant_id("BUF", true) else {
        return stats;
    };
    let mut sinks = design.sink_map();
    loop {
        let mut worst: Option<(usize, usize)> = None;
        for (net, s) in sinks.iter().enumerate() {
            if s.len() > max_fanout && worst.map(|(_, f)| s.len() > f).unwrap_or(true) {
                worst = Some((net, s.len()));
            }
        }
        let Some((net, _)) = worst else {
            break;
        };
        let net_sinks = std::mem::take(&mut sinks[net]);
        let path = design.netlist.gates[net_sinks[0].0].path;
        for group in net_sinks.chunks(max_fanout) {
            let name = format!("{}$buf{}", &design.netlist.nets[net], design.netlist.nets.len());
            let new_net = design.netlist.add_net(name);
            let gate = Gate {
                kind: GateKind::Buf,
                inputs: InputList::from_slice(&[net as u32]),
                output: new_net,
                path,
                reset_value: false,
                async_reset: None,
                enable: None,
                dont_touch: true,
            };
            let buf_gi = design.push_gate(gate, buf);
            stats.added += 1;
            for &(gi, pin) in group {
                design.netlist.gates[gi].inputs[pin] = new_net;
            }
            sinks.push(group.to_vec());
            sinks[net].push((buf_gi, 0));
        }
    }
    stats
}

/// Primary inputs whose sink pins number `fanouts`, with the pins of
/// different nets interleaved across two-input gates (a gate may read one
/// net on both pins) and, unless `kill_every` is 0, every `kill_every`-th
/// gate tombstoned, so dead pins interleave too.
fn fanout_design(lib: &Library, fanouts: &[usize], kill_every: usize, seed: u64) -> MappedDesign {
    let mut nl = Netlist::new("fan");
    let nets: Vec<u32> = (0..fanouts.len())
        .map(|i| {
            let n = nl.add_net(format!("in{i}"));
            nl.inputs.push((format!("in{i}"), n));
            n
        })
        .collect();
    let mut claims: Vec<u32> =
        fanouts.iter().enumerate().flat_map(|(i, &f)| std::iter::repeat_n(nets[i], f)).collect();
    let mut rng = seed | 1;
    for k in (1..claims.len()).rev() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        claims.swap(k, (rng % (k as u64 + 1)) as usize);
    }
    for (g, pair) in claims.chunks(2).enumerate() {
        let out = nl.add_net(format!("g{g}"));
        let path = if g % 2 == 0 { "fan" } else { "fan/u_sub" };
        match *pair {
            [a, b] => nl.add_gate(GateKind::And, &[a, b], out, path),
            [a] => nl.add_gate(GateKind::Not, &[a], out, path),
            _ => unreachable!("chunks of two"),
        };
        nl.outputs.push((format!("g{g}"), out));
    }
    let mut design = MappedDesign::map(nl, lib).expect("maps");
    for gi in 0..design.netlist.gates.len() {
        if kill_every > 0 && gi % kill_every == kill_every - 1 {
            design.kill(gi);
        }
    }
    design
}

/// Runs the heap-ordered pass and the scan-based reference on copies of
/// `design` and checks they leave the same design and report the same
/// stats.
fn assert_split_matches_reference(design: &MappedDesign, lib: &Library, limit: usize, what: &str) {
    let (mut pass, mut reference) = (design.clone(), design.clone());
    let stats = buffer_high_fanout(&mut pass, lib, limit);
    let expected = reference_buffer_trees(&mut reference, lib, limit);
    assert_eq!(stats, expected, "{what} at limit {limit}: stats");
    assert!(pass == reference, "{what} at limit {limit}: the split differs from the scan");
}

#[test]
fn buffer_split_matches_the_scan_on_every_catalog_design() {
    let lib = nangate45();
    let catalog =
        chatls_designs::benchmarks().into_iter().chain(chatls_designs::database_designs());
    for design in catalog {
        let mut mapped = MappedDesign::map(design.netlist(), &lib).expect("maps");
        // With the tombstones a sweep leaves.
        chatls_synth::passes::sweep(&mut mapped);
        for limit in [2, 3, 12] {
            assert_split_matches_reference(&mapped, &lib, limit, &design.name);
        }
    }
}

/// One random trial body: each `(pick, kind)` step is a buffer tree at a
/// random fanout limit, a retime-style register move, a kill or a pin
/// rewire. Every choice is read from the design state, so the body makes
/// the same edits over a journal and over a plain design.
fn run_body(edits: &mut impl Edits, lib: &Library, steps: &[(u64, u8)]) {
    let dff = lib.variant_id("DFF", false).expect("a DFF cell");
    for &(pick, kind) in steps {
        let design = edits.design();
        let live: Vec<usize> =
            (0..design.netlist.gates.len()).filter(|&gi| !design.is_dead(gi)).collect();
        if live.is_empty() {
            return;
        }
        let gi = live[(pick % live.len() as u64) as usize];
        match kind % 4 {
            0 => edits.buffer_trees(lib, 2 + (pick % 4) as usize),
            1 => {
                // Move a register back across the comb gate driving its D
                // pin: one new register per gate input, the gate drives Q.
                let driver = design.driver_map();
                let moves: Vec<(usize, usize)> = live
                    .iter()
                    .filter(|&&r| design.netlist.gates[r].kind.is_sequential())
                    .filter_map(|&r| {
                        let d = driver[design.netlist.gates[r].inputs[0] as usize]?;
                        let g = &design.netlist.gates[d];
                        (!g.kind.is_sequential() && !g.inputs.is_empty()).then_some((r, d))
                    })
                    .collect();
                let Some(&(reg, comb)) = moves.get((pick % moves.len().max(1) as u64) as usize)
                else {
                    continue;
                };
                let q = design.netlist.gates[reg].output;
                let comb_inputs = design.netlist.gates[comb].inputs;
                let path = design.netlist.gates[reg].path;
                let mut new_inputs = InputList::default();
                for (k, &inp) in comb_inputs.iter().enumerate() {
                    let nets = &edits.design().netlist.nets;
                    let name = format!("{}$ret{}_{k}", &nets[q as usize], nets.len());
                    let nq = edits.add_net(name);
                    let gate = Gate {
                        kind: GateKind::Dff,
                        inputs: InputList::from_slice(&[inp]),
                        output: nq,
                        path,
                        reset_value: false,
                        async_reset: None,
                        enable: None,
                        dont_touch: false,
                    };
                    edits.push_gate(gate, dff);
                    new_inputs.push(nq);
                }
                edits.rewire_gate(comb, new_inputs, q);
                edits.kill(reg);
            }
            2 => edits.kill(gi),
            _ => {
                let inputs = &design.netlist.inputs;
                let net = inputs[(pick >> 8) as usize % inputs.len()].1;
                let pins = design.netlist.gates[gi].inputs.len();
                if pins > 0 {
                    edits.rewire_input(gi, (pick >> 16) as usize % pins, net);
                }
            }
        }
    }
}

/// Every float a report holds, as bit patterns, plus its names.
fn report_bits(r: &TimingReport) -> (Vec<u64>, Vec<String>, usize) {
    let mut bits = vec![r.wns.to_bits(), r.cps.to_bits(), r.tns.to_bits()];
    let mut names = Vec::new();
    for e in &r.endpoints {
        bits.extend([e.arrival, e.required, e.slack].map(f64::to_bits));
        names.push(format!("{} {}", e.endpoint, e.module_path));
    }
    for s in &r.critical_path {
        bits.push(s.arrival.to_bits());
        names.push(format!("{} {} {}", s.net, s.cell, s.module_path));
    }
    (bits, names, r.combinational_cycles)
}

fn slack_bits(s: &SlackMap) -> Vec<u64> {
    s.arrival.iter().chain(&s.required).map(|v| v.to_bits()).collect()
}

fn hold_bits(h: &[EndpointSlack]) -> Vec<(String, [u64; 3])> {
    h.iter()
        .map(|e| (e.endpoint.clone(), [e.arrival, e.required, e.slack].map(f64::to_bits)))
        .collect()
}

/// The view's report, slack map and hold slacks, bitwise.
type Timing = ((Vec<u64>, Vec<String>, usize), Vec<u64>, Vec<(String, [u64; 3])>);

fn served(view: &mut TimingView) -> Timing {
    let report = report_bits(view.report());
    let slacks = slack_bits(&view.slack_map());
    let hold = hold_bits(view.hold_slacks());
    (report, slacks, hold)
}

fn fresh(design: &MappedDesign, lib: &Library, c: &Constraints) -> Timing {
    (
        report_bits(&sta::analyze(design, lib, c)),
        slack_bits(&sta::slack_map(design, lib, c)),
        hold_bits(&sta::hold_slacks(design, lib, c)),
    )
}

/// Upsizes (or downsizes) the live sized gate `pick` selects.
fn resize(view: &mut TimingView, lib: &Library, pick: u64) {
    let design = view.design();
    let sized: Vec<usize> = (0..design.netlist.gates.len())
        .filter(|&gi| !design.is_dead(gi) && design.cells[gi] != NO_CELL)
        .collect();
    if let Some(&gi) = sized.get((pick % sized.len().max(1) as u64) as usize) {
        if let Some(next) = lib.next_drive(view.design().cells[gi], !pick.is_multiple_of(3)) {
            view.resize_cell(gi, next);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trial_rolls_back_to_the_clone_and_keeps_the_unjournaled_edit(
        seed in 1u64..5000,
        layers in 1usize..4,
        per_layer in 3usize..8,
        period_tenths in 2u64..12,
        resizes in proptest::collection::vec(any::<u64>(), 0..4),
        steps in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..6),
        after in any::<u64>(),
    ) {
        let lib = nangate45();
        let nl = random_netlist(4, layers, per_layer, seed);
        let mut design = MappedDesign::map(nl, &lib).expect("maps");
        let c = Constraints { clock_period: period_tenths as f64 / 10.0, ..Constraints::default() };
        let mut graph = TimingGraph::new();
        let mut view = TimingView::new(&mut design, &mut graph, &lib, &c);
        view.report();
        for &pick in &resizes {
            resize(&mut view, &lib, pick);
        }
        let pre_design = view.design().clone();
        let pre_timing = served(&mut view);
        prop_assert_eq!(&pre_timing, &fresh(&pre_design, &lib, &c), "pre-trial timing");

        // Forced rollback: nothing of the trial may remain.
        let rolled = view.trial(|edit| run_body(edit, &lib, &steps), |_, _| false);
        prop_assert!(rolled.is_none());
        prop_assert!(*view.design() == pre_design, "rollback left the design changed");
        prop_assert_eq!(&served(&mut view), &pre_timing, "rollback left the timing changed");

        // Forced keep: the edit equals the same body without a journal.
        let mut expected = pre_design.clone();
        run_body(&mut expected, &lib, &steps);
        let kept = view.trial(|edit| run_body(edit, &lib, &steps), |_, _| true);
        prop_assert!(kept.is_some());
        prop_assert!(*view.design() == expected, "the kept edit differs from the plain one");
        prop_assert_eq!(&served(&mut view), &fresh(&expected, &lib, &c), "kept timing");

        // The graph the trial left keeps updating incrementally.
        resize(&mut view, &lib, after);
        let design = view.design().clone();
        prop_assert_eq!(&served(&mut view), &fresh(&design, &lib, &c), "after a later resize");
    }

    #[test]
    fn buffer_split_matches_the_scan_on_ties_and_resplits(
        fanouts in proptest::collection::vec(1usize..40, 1..6),
        limit in 2usize..6,
        kill_every in 0usize..7,
        seed in any::<u64>(),
    ) {
        let lib = nangate45();
        // Every fanout twice, so the worst nets tie; one net above the
        // cube of the limit, so it splits three times.
        let mut fanouts = [fanouts.clone(), fanouts].concat();
        fanouts.push(limit.pow(3) + 1 + (seed % 7) as usize);
        let design = fanout_design(&lib, &fanouts, kill_every, seed);
        assert_split_matches_reference(&design, &lib, limit, "fanout design");
    }
}
