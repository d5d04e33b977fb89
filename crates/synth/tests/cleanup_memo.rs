//! The cleanup memo and the no-op cleanup skip leave every run bit for bit
//! as it was.
//!
//! A session stamped from a scope whose memo another run already filled
//! must produce the same run log, QoR bits, per-command observer QoRs and
//! final design as the first run on a newly built template, on the
//! catalog designs and script shapes that reach the memo (`compile` and
//! `compile_ultra` in every variant, with `ungroup -all`, clock gating and
//! buffering before them) and the skip (repeated compiles). The adopted
//! cleanup itself is checked against the passes run directly on a plain
//! design, with no memo, no provenance and no session in the way.

use chatls_liberty::nangate45;
use chatls_synth::passes::{compile, ungroup_all, Effort};
use chatls_synth::{
    CommandObserver, Constraints, MappedDesign, QorReport, SessionBuilder, SessionTemplate,
    TimingGraph, TimingView,
};
use std::sync::{Arc, Barrier, Mutex};

const DESIGNS: [&str; 6] = ["riscv32i", "simd", "sha3", "aes", "fft", "tinyRocket"];

/// The script bodies, each run after a `create_clock` at the design's
/// catalog period and followed by `report_qor`.
const SCRIPTS: [&str; 9] = [
    "compile",
    "compile -map_effort high\nbalance_buffers",
    "ungroup -all\ncompile",
    "compile_ultra",
    "compile_ultra -no_autoungroup",
    "compile_ultra -retime",
    "compile\ncompile\ncompile",
    "insert_clock_gating\ncompile",
    "balance_buffers -max_fanout 4\ncompile",
];

fn template(design: &str) -> SessionTemplate {
    let design = chatls_designs::by_name(design).expect("catalog design");
    SessionBuilder::new(design.netlist(), nangate45()).template().expect("maps")
}

fn script(design: &str, body: &str) -> String {
    let period = chatls_designs::by_name(design).expect("catalog design").default_period;
    format!("create_clock -period {period} [get_ports clk]\n{body}\nreport_qor\n")
}

/// Everything a run shows: the result (log and QoR), the QoR after every
/// command, and the final design. QoRs are kept as their `Debug` text,
/// which tells every two bit patterns of a finite float apart.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: String,
    observed: Vec<String>,
    design: MappedDesign,
}

/// Runs `script` on a stamp from `scope`; `after_first` runs inside the
/// observer once the first command after `create_clock` has executed.
fn run_with(
    scope: &SessionTemplate,
    script: &str,
    after_first: impl Fn() + Send + Sync + 'static,
) -> Outcome {
    let observed: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = Arc::clone(&observed);
    let mut session = scope.session();
    session.set_command_observer(Some(CommandObserver::new(move |event| {
        sink.lock().unwrap().push(format!("{} {:?}", event.command, event.qor));
        if event.index == 1 {
            after_first();
        }
    })));
    let result = session.run_script(script);
    assert!(result.ok(), "{script}: {:?}", result.error);
    let observed = observed.lock().unwrap().clone();
    Outcome { result: format!("{result:?}"), observed, design: session.design().clone() }
}

fn run(scope: &SessionTemplate, script: &str) -> Outcome {
    run_with(scope, script, || {})
}

#[test]
fn filled_scope_stamps_match_first_runs_on_new_templates() {
    for design in DESIGNS {
        let filled = template(design);
        run(&filled, &script(design, "compile -map_effort low"));
        assert!(filled.cleanup_memoized(), "{design}: a compile fills the memo");
        for body in SCRIPTS {
            let script = script(design, body);
            let first = run(&template(design), &script);
            assert!(run(&filled, &script) == first, "{design}: {body}");
        }
    }
}

/// Two threads stamp from one scope. In the first round both race to fill
/// the memo; in the second, one thread fills it and runs its next command
/// on its own copy while the other adopts the memo.
#[test]
fn threads_sharing_a_scope_match_first_runs() {
    let design = "aes";
    let (a, b) = (script(design, "compile\ncompile_ultra"), script(design, SCRIPTS[2]));
    let reference = (run(&template(design), &a), run(&template(design), &b));
    for forced in [false, true] {
        let scope = template(design);
        let barrier = Arc::new(Barrier::new(2));
        let outcomes = std::thread::scope(|s| {
            let filler = {
                let (scope, barrier, a) = (&scope, Arc::clone(&barrier), &a);
                s.spawn(move || {
                    if forced {
                        run_with(scope, a, move || {
                            barrier.wait();
                        })
                    } else {
                        barrier.wait();
                        run(scope, a)
                    }
                })
            };
            barrier.wait();
            let adopter = run(&scope, &b);
            (filler.join().expect("filler thread"), adopter)
        });
        assert!(outcomes.0 == reference.0, "forced {forced}: the filling thread's run");
        assert!(outcomes.1 == reference.1, "forced {forced}: the adopting thread's run");
    }
}

/// The session's `compile` and `compile_ultra`, memo-filling and memo-hit
/// runs alike, leave the design the passes leave when run directly on a
/// plain copy of the mapped design, with a real cleanup.
#[test]
fn memo_adoption_equals_the_passes_run_directly() {
    let shapes: [(&str, bool, Effort); 5] = [
        ("compile", false, Effort::Medium),
        ("compile -map_effort high", false, Effort::High),
        ("ungroup -all\ncompile", true, Effort::Medium),
        ("compile_ultra", true, Effort::High),
        ("compile_ultra -no_autoungroup", false, Effort::High),
    ];
    let large = [("swerv", &shapes[..1])];
    let cases = DESIGNS.iter().map(|&d| (d, &shapes[..])).chain(large);
    for (design, shapes) in cases {
        let template = template(design);
        run_session(&template, &script(design, "compile -map_effort low"));
        assert!(template.cleanup_memoized(), "{design}: a compile fills the memo");
        let period = chatls_designs::by_name(design).expect("catalog design").default_period;
        let constraints = Constraints { clock_period: period, ..Constraints::default() };
        for &(body, ungrouped, effort) in shapes {
            let mut direct = template.design().clone();
            if ungrouped {
                ungroup_all(&mut direct);
            }
            let mut graph = TimingGraph::new();
            let mut view =
                TimingView::new(&mut direct, &mut graph, template.library(), &constraints);
            compile(&mut view, effort);
            let qor: QorReport = view.qor();
            let script = script(design, body);
            for (run, scope) in [("filling", template.scoped()), ("memo-hit", template.clone())] {
                let outcome = run_session(&scope, &script);
                assert!(outcome.0 == direct, "{design} {run}: {body}");
                assert_eq!(
                    format!("{:?}", outcome.1),
                    format!("{qor:?}"),
                    "{design} {run}: {body}"
                );
            }
        }
    }
}

/// The final design and QoR of `script` on a stamp from `scope`.
fn run_session(scope: &SessionTemplate, script: &str) -> (MappedDesign, QorReport) {
    let mut session = scope.session();
    let result = session.run_script(script);
    assert!(result.ok(), "{script}: {:?}", result.error);
    (session.design().clone(), result.qor)
}
