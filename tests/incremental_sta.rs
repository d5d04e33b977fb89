//! Session-level guarantees of the incremental timing engine.
//!
//! Scripted synthesis runs keep a persistent [`TimingGraph`] inside the
//! session; repeated reports must be served from cache, every served report
//! must equal a from-scratch analysis bitwise, and arming the
//! `CHATLS_STA_CHECK` oracle must not change a single output byte at any
//! thread count.

use chatls::eval::{pass_at_k_on, session_template, QorCache};
use chatls::llm::gpt_like;
use chatls::pipeline::prepare_task;
use chatls_exec::ExecPool;
use chatls_obs::ObsCtx;
use chatls_synth::sta::{self, QorReport};
use chatls_synth::{CommandObserver, SessionTemplate, StaCheckGuard};
use std::sync::{Arc, Mutex};

const SCRIPT: &str = "create_clock -period 0.9 [get_ports clk]\n\
                      set_max_fanout 12\n\
                      compile\n\
                      report_timing\n\
                      report_qor\n";

#[test]
fn session_reports_match_fresh_analysis_bitwise() {
    let design = chatls_designs::by_name("dynamic_node").expect("benchmark");
    let template = session_template(&design);
    let mut session = template.session();
    let result = session.run_script(SCRIPT);
    assert!(result.ok(), "script must run clean");

    let served = session.timing_report();
    let fresh = sta::analyze(session.design(), session.library(), session.constraints());
    assert_eq!(served.wns.to_bits(), fresh.wns.to_bits());
    assert_eq!(served.cps.to_bits(), fresh.cps.to_bits());
    assert_eq!(served.tns.to_bits(), fresh.tns.to_bits());
    assert_eq!(served.endpoints.len(), fresh.endpoints.len());
    for (a, b) in served.endpoints.iter().zip(&fresh.endpoints) {
        assert_eq!(a.endpoint, b.endpoint);
        assert_eq!(a.slack.to_bits(), b.slack.to_bits());
    }

    // A clean repeat is a cache hit, not a recompute: the process-wide
    // clean-hit counter must advance (it is monotonic, so this holds even
    // with other tests running in parallel).
    let before = chatls_synth::sta_telemetry();
    let repeat = session.timing_report();
    let after = chatls_synth::sta_telemetry();
    assert_eq!(repeat.wns.to_bits(), served.wns.to_bits());
    assert!(after.clean_hits > before.clean_hits, "clean repeat must hit the graph cache");
}

/// Scripts that reach the timing graph in every way an edit or a
/// constraint can: constraint writes of each class after a query and after
/// a `compile`, `-from`/`-to`/multicycle exceptions, ungrouping, retiming,
/// buffer balancing below and above its limit, clock gating, hold fixing,
/// and a `-from` on the clock port, which hold analysis ignores. The last
/// script matches `-to` prefixes against register endpoints (`<Q net>/D`):
/// ending inside a bus name, at a bit, at `bit/`, at `bit/D` and past the
/// endpoint. `{in}` and `{out}` name an input and an output bus, `{reg}` a
/// register bus.
const CLASS_SCRIPTS: [&str; 4] = [
    "create_clock -period 0.9 [get_ports clk]\n\
     report_qor\n\
     set_max_area 0\n\
     set_critical_range 0.1\n\
     set_output_delay 0.05 [all_outputs]\n\
     set_input_delay 0.1 [all_inputs]\n\
     report_timing\n\
     compile\n\
     set_max_area 0\n\
     set_critical_range 0.2\n\
     set_input_delay 0.2 [all_inputs]\n\
     set_driving_cell -lib_cell BUF_X8 [all_inputs]\n\
     report_timing\n\
     set_wire_load_model -name 5K_light_1k\n\
     report_qor\n",
    "create_clock -period 0.9 [get_ports clk]\n\
     compile\n\
     set_false_path -to {out}\n\
     set_multicycle_path 2 -to {out}\n\
     report_timing\n\
     set_false_path -from [get_ports {in}]\n\
     report_timing\n\
     ungroup -all\n\
     report_timing\n\
     compile_ultra -retime\n\
     report_qor\n",
    "create_clock -period 0.9 [get_ports clk]\n\
     compile\n\
     balance_buffers -max_fanout 100000\n\
     balance_buffers -max_fanout 4\n\
     set_clock_gating_style\n\
     insert_clock_gating\n\
     set_fix_hold\n\
     report_hold\n\
     set_false_path -from [get_ports clk]\n\
     report_hold\n\
     report_qor\n",
    "create_clock -period 0.9 [get_ports clk]\n\
     report_qor\n\
     set_multicycle_path 2 -to {reg}\n\
     report_qor\n\
     compile\n\
     set_false_path -to {{reg}[3]}\n\
     set_multicycle_path 3 -to {{reg}[5]/}\n\
     report_timing\n\
     set_false_path -to {{reg}[7]/D}\n\
     set_false_path -to {{reg}[9]/D/}\n\
     report_qor\n",
];

/// Everything a run shows: its log, its final QoR and, when observed, the
/// QoR probed after every command, with floats as bit patterns.
fn run_outputs(template: &SessionTemplate, script: &str, observed: bool) -> String {
    let probes = Arc::new(Mutex::new(Vec::new()));
    let mut session = template.session();
    if observed {
        let sink = Arc::clone(&probes);
        session.set_command_observer(Some(CommandObserver::new(move |event| {
            sink.lock().expect("probe sink").push(qor_bits(&event.qor));
        })));
    }
    let result = session.run_script(script);
    assert!(result.ok(), "script must run clean: {:?}\n{script}", result.error);
    let probes = probes.lock().expect("probe sink").join("\n");
    format!("{}\n{}\n{probes}", result.log.join("\n"), qor_bits(&result.qor))
}

fn qor_bits(q: &QorReport) -> String {
    let bits = [q.wns, q.cps, q.tns, q.area, q.leakage].map(f64::to_bits);
    format!("{} {bits:?} {} {}", q.design, q.cells, q.registers)
}

#[test]
fn oracle_mode_keeps_scripted_outputs_identical() {
    // riscv32i has hold-mux registers for clock gating to convert; simd
    // has none.
    for (name, input, output, register) in
        [("riscv32i", "instr", "pc_out", "riscv32i/u_rf/r1"), ("simd", "va", "vout", "simd/sy1")]
    {
        let design = chatls_designs::by_name(name).expect("benchmark");
        let template = session_template(&design);
        for script in CLASS_SCRIPTS {
            let script =
                script.replace("{in}", input).replace("{out}", output).replace("{reg}", register);
            for observed in [false, true] {
                let plain = run_outputs(&template, &script, observed);
                let oracle = StaCheckGuard::arm();
                let checked = run_outputs(&template, &script, observed);
                drop(oracle);
                assert_eq!(
                    plain, checked,
                    "{name}, observed {observed}: oracle mode must not change a single output \
                     byte\n{script}"
                );
            }
            let unobserved = run_outputs(&template, &script, false);
            let observed = run_outputs(&template, &script, true);
            assert!(observed.starts_with(&unobserved), "an observer must not change the run");
        }
    }
}

/// Full timing-graph builds of one run, from the session's own graph.
fn full_builds(template: &SessionTemplate, script: &str, observed: bool) -> u64 {
    let mut session = template.session();
    if observed {
        session.set_command_observer(Some(CommandObserver::new(|_| {})));
    }
    assert!(session.run_script(script).ok(), "script must run clean");
    session.detach_timing_graph().stats().full_builds
}

#[test]
fn observer_costs_one_full_build_on_constraint_writes() {
    let design = chatls_designs::by_name("aes").expect("benchmark");
    let template = session_template(&design);
    // Every command before the compile writes a constraint: the observer's
    // first probe builds the graph and each later probe reuses it.
    let script = "create_clock -period 3.5 [get_ports clk]\n\
                  set_input_delay 0.1 [all_inputs]\n\
                  set_output_delay 0.1 [all_outputs]\n\
                  set_driving_cell -lib_cell BUF_X8 [all_inputs]\n\
                  set_max_area 0\n\
                  set_critical_range 0.1\n\
                  compile\n\
                  report_qor\n";
    let unobserved = full_builds(&template, script, false);
    assert_eq!(full_builds(&template, script, true), unobserved + 1);
    // The script `chatls customize aes --seed 0` prints.
    let customized = "create_clock -period 3.500 [get_ports clk]\n\
                      set_wire_load_model -name 5K_heavy_1k\n\
                      set_critical_range 0.1\n\
                      set_driving_cell -lib_cell BUF_X8 [all_inputs]\n\
                      set_max_area 0\n\
                      ungroup -all\n\
                      compile -map_effort high\n\
                      optimize_registers\n\
                      compile -map_effort high\n\
                      compile_ultra\n\
                      report_qor\n";
    let observed = full_builds(&template, customized, true);
    assert!(observed <= 5, "observed customized aes run took {observed} full builds");
}

#[test]
fn oracle_mode_is_thread_count_invariant() {
    let design = chatls_designs::by_name("dynamic_node").expect("benchmark");
    let task = prepare_task(&design, "optimize timing");
    let model = gpt_like();

    let _oracle = StaCheckGuard::arm();
    let serial_cache = QorCache::new();
    let serial = pass_at_k_on(
        &ExecPool::new(1),
        &serial_cache,
        &ObsCtx::disabled(),
        &model,
        &design,
        &task,
        3,
    );
    for threads in [2, 4] {
        let cache = QorCache::new();
        let row = pass_at_k_on(
            &ExecPool::new(threads),
            &cache,
            &ObsCtx::disabled(),
            &model,
            &design,
            &task,
            3,
        );
        assert_eq!(serial, row, "{threads}-thread oracle run must match serial");
    }
}
