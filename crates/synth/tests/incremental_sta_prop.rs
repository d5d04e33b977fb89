//! Property tests: the incremental timing graph is indistinguishable from
//! a from-scratch `analyze()` after arbitrary edit sequences.
//!
//! Random layered netlists receive random sequences of cell resizes, gate
//! kills and buffer insertions through [`TimingView`], mixed with
//! constraint changes of every class, each applied through a fresh view
//! over the new constraints. After every edit the incrementally maintained
//! report must match a fresh full analysis bit for bit — WNS/CPS/TNS and
//! every endpoint slack — and at the end of the sequence the slack map and
//! hold slacks must match their oracles too. The summary tier (`cps()`,
//! `qor()`) must equal the report it skips building, and the `-to`
//! exceptions must drop and stretch exactly the endpoints whose printed
//! names start with their prefixes.

use chatls_liberty::nangate45;
use chatls_synth::passes::buffer_high_fanout;
use chatls_synth::sta::{self, Constraints, QorReport, TimingException, TimingReport};
use chatls_synth::{MappedDesign, StaCheckGuard, TimingGraph, TimingView, NO_CELL};
use chatls_verilog::netlist::{GateKind, Netlist};
use proptest::prelude::*;

/// Random layered DAG: `inputs` primary inputs, `layers` of random gates,
/// a layer of `registers` registers `q<i>`, each also an output, and one
/// combinational output (same shape as passes_prop.rs).
fn random_netlist(
    inputs: usize,
    layers: usize,
    per_layer: usize,
    registers: usize,
    seed: u64,
) -> Netlist {
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
            let kinds = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Not];
            let kind = kinds[(next() % kinds.len() as u64) as usize];
            let pick = |r: u64| pool[(r % pool.len() as u64) as usize];
            let out = nl.add_net(format!("l{layer}g{g}"));
            match kind {
                GateKind::Not => {
                    let a = pick(next());
                    nl.add_gate(GateKind::Not, &[a], out, "rand");
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
    for i in 0..registers {
        let d = pool[(i * 7 + 3) % pool.len()];
        let q = nl.add_net(format!("q{i}"));
        nl.add_dff(d, q, "rand", false, None);
        nl.outputs.push((format!("q{i}"), q));
    }
    let last = *pool.last().expect("non-empty pool");
    nl.outputs.push(("comb_out".into(), last));
    nl
}

/// Bitwise report equality: summary figures and every endpoint.
fn assert_bitwise(incremental: &TimingReport, fresh: &TimingReport, ctx: &str) {
    assert_eq!(incremental.wns.to_bits(), fresh.wns.to_bits(), "WNS diverged {ctx}");
    assert_eq!(incremental.cps.to_bits(), fresh.cps.to_bits(), "CPS diverged {ctx}");
    assert_eq!(incremental.tns.to_bits(), fresh.tns.to_bits(), "TNS diverged {ctx}");
    assert_eq!(incremental.endpoints.len(), fresh.endpoints.len(), "endpoint count {ctx}");
    for (a, b) in incremental.endpoints.iter().zip(&fresh.endpoints) {
        assert_eq!(a.endpoint, b.endpoint, "endpoint order {ctx}");
        assert_eq!(a.arrival.to_bits(), b.arrival.to_bits(), "{}: arrival {ctx}", a.endpoint);
        assert_eq!(a.required.to_bits(), b.required.to_bits(), "{}: required {ctx}", a.endpoint);
        assert_eq!(a.slack.to_bits(), b.slack.to_bits(), "{}: slack {ctx}", a.endpoint);
    }
    assert_eq!(incremental.combinational_cycles, fresh.combinational_cycles, "cycles {ctx}");
}

/// A `-to` prefix against the endpoint names of [`random_netlist`]
/// (registers `q0/D`, `q1/D`, …, outputs `q0`, `q1`, … and `comb_out`):
/// one ending inside a name (`q1` begins `q10` too), at `name/`, at
/// `name/D`, past the endpoint, or on an output port.
fn to_prefix(pick: u64) -> String {
    let q = format!("q{}", pick % 3);
    match (pick / 3) % 7 {
        0 => "q".into(),
        1 => q,
        2 => format!("{q}/"),
        3 => format!("{q}/D"),
        4 => format!("{q}/D/"),
        5 => "comb".into(),
        _ => "comb_out".into(),
    }
}

/// Endpoints as `(name, arrival, required, slack)` bits, by name.
fn endpoint_bits(report: &TimingReport) -> Vec<(String, u64, u64, u64)> {
    let mut bits: Vec<_> = report
        .endpoints
        .iter()
        .map(|e| (e.endpoint.clone(), e.arrival.to_bits(), e.required.to_bits(), e.slack.to_bits()))
        .collect();
    bits.sort();
    bits
}

/// The `-to` exceptions as name matching defines them: the endpoints of
/// an analysis without them, each dropped when a false-path prefix starts
/// its printed name and given `n - 1` more periods for each multicycle
/// prefix that does. `report` must hold exactly these endpoints, worst
/// first.
fn assert_to_exceptions_match_names(
    design: &MappedDesign,
    lib: &chatls_liberty::Library,
    constraints: &Constraints,
    report: &TimingReport,
    ctx: &str,
) {
    let to = |e: &TimingException| {
        matches!(e, TimingException::FalseTo(_) | TimingException::MulticycleTo(..))
    };
    let mut plain = constraints.clone();
    plain.exceptions.retain(|e| !to(e));
    let mut expected = sta::analyze(design, lib, &plain);
    expected.endpoints.retain(|ep| {
        !constraints.exceptions.iter().any(
            |e| matches!(e, TimingException::FalseTo(p) if ep.endpoint.starts_with(p.as_str())),
        )
    });
    for ep in &mut expected.endpoints {
        for e in &constraints.exceptions {
            if let TimingException::MulticycleTo(p, n) = e {
                if ep.endpoint.starts_with(p.as_str()) && *n >= 1 {
                    ep.required += constraints.clock_period * (*n as f64 - 1.0);
                    ep.slack = ep.required - ep.arrival;
                }
            }
        }
    }
    assert_eq!(endpoint_bits(report), endpoint_bits(&expected), "-to endpoints {ctx}");
    let sorted = report.endpoints.windows(2).all(|w| w[0].slack <= w[1].slack);
    assert!(sorted, "endpoints must be worst first {ctx}");
}

/// The summary tier equals the report: `cps` bitwise its CPS, `qor` its
/// WNS, CPS and TNS, and `qor` as a whole the fresh [`sta::qor`].
fn assert_summary_matches(cps: f64, qor: &QorReport, report: &TimingReport, fresh: &QorReport) {
    assert_eq!(cps.to_bits(), report.cps.to_bits(), "cps() vs report CPS");
    for (what, served, reported) in
        [("WNS", qor.wns, report.wns), ("CPS", qor.cps, report.cps), ("TNS", qor.tns, report.tns)]
    {
        assert_eq!(served.to_bits(), reported.to_bits(), "qor() {what} vs report {what}");
    }
    let bits = |q: &QorReport| {
        let figures = [q.wns, q.cps, q.tns, q.area, q.leakage].map(f64::to_bits);
        (q.design.clone(), figures, q.cells, q.registers)
    };
    assert_eq!(bits(qor), bits(fresh), "qor() vs a fresh sta::qor");
}

/// One random edit: a cell resize, a gate kill or a buffer insertion
/// through `view`, or a constraint change of each class. Returns true when
/// the edit may rebuild the graph: a buffer insertion that added a buffer,
/// or a wire-load, clock-port or `-from` change.
fn apply_edit(
    design: &mut MappedDesign,
    graph: &mut TimingGraph,
    lib: &chatls_liberty::Library,
    constraints: &mut Constraints,
    pick: u64,
    kind: u8,
) -> bool {
    let port = format!("in{}", pick % 4);
    match kind % 8 {
        // Timing-inert.
        4 => {
            constraints.max_area = Some((pick % 100) as f64);
            constraints.critical_range = (pick % 7) as f64 * 0.05;
            return false;
        }
        // Required times only.
        5 => {
            match pick % 4 {
                0 => constraints.clock_period = 0.3 + (pick % 17) as f64 * 0.1,
                1 => constraints.output_delay = (pick % 5) as f64 * 0.05,
                2 => {
                    constraints.exceptions.push(TimingException::FalseTo(format!("q{}", pick % 3)))
                }
                _ => constraints
                    .exceptions
                    .push(TimingException::MulticycleTo(format!("q{}", pick % 3), 2)),
            }
            return false;
        }
        // Input sources.
        6 => {
            if pick.is_multiple_of(2) {
                constraints.input_delay = (pick % 5) as f64 * 0.05;
            } else {
                constraints.input_drive_resistance = 0.001 * (1 + pick % 9) as f64;
            }
            return false;
        }
        // Loads or launch points.
        7 => {
            let before = constraints.clone();
            match pick % 3 {
                0 => {
                    constraints.wire_load = match constraints.wire_load {
                        Some(_) => None,
                        None => Some("5K_heavy_1k".into()),
                    }
                }
                1 => constraints.clock_port = Some(port),
                _ => constraints.exceptions.push(TimingException::FalseFrom(port)),
            }
            return *constraints != before;
        }
        _ => {}
    }
    let mut view = TimingView::new(design, graph, lib, constraints);
    let live: Vec<usize> = (0..view.design().netlist.gates.len())
        .filter(|&gi| !view.design().is_dead(gi) && view.design().cells[gi] != NO_CELL)
        .collect();
    if live.is_empty() {
        return false;
    }
    let gi = live[(pick % live.len() as u64) as usize];
    match kind % 8 {
        // Upsize / downsize through the resize hook.
        0 | 1 => {
            let up = kind.is_multiple_of(8);
            if let Some(next) = lib.next_drive(view.design().cells[gi], up) {
                view.resize_cell(gi, next);
            }
            false
        }
        // Kill: timing must track the tombstone even though the netlist is
        // no longer logically meaningful.
        2 => {
            view.kill_gate(gi);
            false
        }
        // Buffer insertion: structural when it inserts anything.
        _ => view.with_design_mut(|d| buffer_high_fanout(d, lib, 2)).added > 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every edit in a random sequence, the incremental report equals
    /// a fresh full analysis bitwise, and the graph only rebuilds for
    /// structural edits.
    #[test]
    fn incremental_matches_fresh_analysis_bitwise(
        seed in 1u64..5000,
        layers in 1usize..4,
        per_layer in 2usize..7,
        period_tenths in 4u64..20,
        edits in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..12),
    ) {
        let lib = nangate45();
        let nl = random_netlist(4, layers, per_layer, 3, seed);
        let mut mapped = MappedDesign::map(nl, &lib).expect("maps");
        let mut constraints = Constraints {
            clock_period: period_tenths as f64 / 10.0,
            ..Constraints::default()
        };
        let mut graph = TimingGraph::new();
        let mut structural = 0u64;
        TimingView::new(&mut mapped, &mut graph, &lib, &constraints).report();
        for (step, &(pick, kind)) in edits.iter().enumerate() {
            if apply_edit(&mut mapped, &mut graph, &lib, &mut constraints, pick, kind) {
                structural += 1;
            }
            let mut view = TimingView::new(&mut mapped, &mut graph, &lib, &constraints);
            let incremental = view.report().clone();
            let fresh = sta::analyze(view.design(), &lib, &constraints);
            assert_bitwise(&incremental, &fresh, &format!("after edit {step}"));
        }
        // Derived views agree with their oracles at the end too.
        let mut view = TimingView::new(&mut mapped, &mut graph, &lib, &constraints);
        let sm = view.slack_map();
        let fresh_sm = sta::slack_map(view.design(), &lib, &constraints);
        for (net, (a, b)) in sm.arrival.iter().zip(&fresh_sm.arrival).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "arrival of net {}", net);
        }
        for (net, (a, b)) in sm.required.iter().zip(&fresh_sm.required).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "required of net {}", net);
        }
        let hold = view.hold_slacks().to_vec();
        let fresh_hold = sta::hold_slacks(view.design(), &lib, &constraints);
        prop_assert_eq!(hold, fresh_hold);
        // Resizes, kills and the other constraint classes ride the
        // worklist or keep the arrivals; only structural edits (and the
        // initial build) may rebuild from scratch.
        let stats = graph.stats();
        prop_assert!(
            stats.full_builds <= 1 + structural,
            "non-structural edits forced rebuilds: {} builds for {} structural edits",
            stats.full_builds,
            structural
        );
    }

    /// The query tiers agree: after every step of a random sequence of
    /// edits, constraint changes and `-to` exceptions, `cps()` and `qor()`
    /// (asked first, so they do not reuse a cached report) equal
    /// `report()`, which equals a fresh analysis, and the report holds the
    /// endpoints name matching keeps.
    #[test]
    fn summary_queries_match_the_report_and_a_fresh_analysis(
        seed in 1u64..5000,
        layers in 1usize..4,
        per_layer in 2usize..7,
        registers in 3usize..24,
        period_hundredths in 5u64..60,
        steps in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..12),
    ) {
        let lib = nangate45();
        // Up to two dozen endpoints, most of them failing a tight clock:
        // enough negative slacks for the order TNS adds them in to show in
        // its bits.
        let nl = random_netlist(4, layers, per_layer, registers, seed);
        let mut mapped = MappedDesign::map(nl, &lib).expect("maps");
        let mut constraints = Constraints {
            clock_period: period_hundredths as f64 / 100.0,
            ..Constraints::default()
        };
        let mut graph = TimingGraph::new();
        for (step, &(pick, kind)) in steps.iter().enumerate() {
            if kind % 3 == 0 {
                let prefix = to_prefix(pick);
                constraints.exceptions.push(if pick % 2 == 0 {
                    TimingException::FalseTo(prefix)
                } else {
                    TimingException::MulticycleTo(prefix, 1 + (pick / 2 % 3) as u32)
                });
            } else {
                apply_edit(&mut mapped, &mut graph, &lib, &mut constraints, pick, kind);
            }
            let ctx = format!("after step {step}");
            let mut view = TimingView::new(&mut mapped, &mut graph, &lib, &constraints);
            let cps = view.cps();
            let qor = view.qor();
            let report = view.report().clone();
            assert_bitwise(&report, &sta::analyze(view.design(), &lib, &constraints), &ctx);
            let fresh_qor = sta::qor(view.design(), &lib, &constraints);
            assert_summary_matches(cps, &qor, &report, &fresh_qor);
            assert_to_exceptions_match_names(view.design(), &lib, &constraints, &report, &ctx);
        }
    }

    /// The `CHATLS_STA_CHECK` oracle hook passes over random edit
    /// sequences: every internal query self-checks against scratch.
    #[test]
    fn oracle_mode_accepts_random_edits(
        seed in 1u64..2000,
        edits in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..6),
    ) {
        let lib = nangate45();
        let nl = random_netlist(4, 2, 5, 3, seed);
        let mut mapped = MappedDesign::map(nl, &lib).expect("maps");
        let mut constraints = Constraints { clock_period: 0.8, ..Constraints::default() };
        let _oracle = StaCheckGuard::arm();
        let mut graph = TimingGraph::new();
        TimingView::new(&mut mapped, &mut graph, &lib, &constraints).report();
        for &(pick, kind) in &edits {
            apply_edit(&mut mapped, &mut graph, &lib, &mut constraints, pick, kind);
            let mut view = TimingView::new(&mut mapped, &mut graph, &lib, &constraints);
            view.report();
            view.slack_map();
        }
        TimingView::new(&mut mapped, &mut graph, &lib, &constraints).hold_slacks();
    }
}

/// With no constrained endpoint, CPS is the clock period in every tier:
/// here the only endpoint is an output whose inputs are all `-from` false
/// paths, and then a design with no endpoint at all.
#[test]
fn unconstrained_designs_report_the_clock_period() {
    let lib = nangate45();
    let mut nl = Netlist::new("open");
    let (a, b, y) = (nl.add_net("a"), nl.add_net("b"), nl.add_net("y"));
    nl.inputs.extend([("a".into(), a), ("b".into(), b)]);
    nl.add_gate(GateKind::And, &[a, b], y, "open");
    let mut no_outputs = nl.clone();
    nl.outputs.push(("y".into(), y));
    let false_from = Constraints {
        clock_period: 1.7,
        exceptions: vec![
            TimingException::FalseFrom("a".into()),
            TimingException::FalseFrom("b".into()),
        ],
        ..Constraints::default()
    };
    no_outputs.name = "closed".into();
    let no_endpoint = Constraints { clock_period: 0.9, ..Constraints::default() };
    for (nl, constraints) in [(nl, false_from), (no_outputs, no_endpoint)] {
        let mut design = MappedDesign::map(nl, &lib).expect("maps");
        let mut graph = TimingGraph::new();
        let mut view = TimingView::new(&mut design, &mut graph, &lib, &constraints);
        let cps = view.cps();
        let qor = view.qor();
        let report = view.report().clone();
        assert!(report.endpoints.is_empty(), "{}: no endpoint is constrained", qor.design);
        assert_eq!(cps.to_bits(), constraints.clock_period.to_bits(), "{}", qor.design);
        assert_eq!(qor.wns, 0.0);
        let fresh = sta::analyze(view.design(), &lib, &constraints);
        assert_bitwise(&report, &fresh, &qor.design);
        assert_summary_matches(cps, &qor, &report, &sta::qor(view.design(), &lib, &constraints));
    }
}
