//! Table III — Performance Comparison for Logic Synthesis Script
//! Customization (Pass@5).
//!
//! For every benchmark design, three models — the simulated GPT-4o
//! baseline, the simulated Claude 3.5 Sonnet baseline, and ChatLS — each
//! customize the baseline script five times (single iteration, fixed clock
//! period); the best run per model is reported, as in the paper.
//!
//! Expected shape (checked at the end): every model improves on the
//! Table IV baseline; ChatLS achieves the best timing on every design;
//! ethmac and tinyRocket keep residual violations after one iteration.

use chatls::eval::{pass_at_k, EvalRow};
use chatls::llm::{claude_like, gpt_like, Generator};
use chatls::pipeline::{prepare_task, ChatLs};
use chatls_bench::{header, save_json};
use chatls_exec::ExecPool;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct Output {
    rows: Vec<EvalRow>,
    baseline: Vec<(String, f64, f64, f64, f64)>,
}

fn main() {
    header("Table III: Pass@5 comparison (GPT-4o sim / Claude 3.5 sim / ChatLS)");
    println!("building expert database (all strategies, full training)…");
    let db = chatls::ExpertDatabase::build(&chatls_bench::full_db_config());
    let chatls = ChatLs::new(&db);
    let gpt = gpt_like();
    let claude = claude_like();
    let models: [&dyn Generator; 3] = [&gpt, &claude, &chatls];

    let mut rows: Vec<EvalRow> = Vec::new();
    let mut baseline = Vec::new();
    println!(
        "\n{:<14} {:<12} {:>8} {:>8} {:>10} {:>12} {:>6}",
        "design", "model", "WNS", "CPS", "TNS", "Area(um2)", "valid"
    );
    // The per-design evaluations are independent: fan them out on the
    // pool, then print the collected blocks in catalog order so stdout is
    // byte-identical to the serial sweep for any CHATLS_THREADS value.
    let designs = chatls_designs::benchmarks();
    let evaluated = ExecPool::global().map(&designs, |design| {
        let task = prepare_task(design, "optimize the design timing at the fixed clock");
        let base = (
            design.name.clone(),
            task.baseline.wns,
            task.baseline.cps,
            task.baseline.tns,
            task.baseline.area,
        );
        let mut block = String::new();
        let mut design_rows = Vec::new();
        for model in models {
            let row = pass_at_k(model, design, &task, 5);
            writeln!(
                block,
                "{:<14} {:<12} {:>8.2} {:>8.2} {:>10.2} {:>12.2} {:>5}/5",
                row.design,
                short(&row.model),
                row.wns,
                row.cps,
                row.tns,
                row.area,
                row.valid_samples
            )
            .expect("writing to a String cannot fail");
            design_rows.push(row);
        }
        (base, design_rows, block)
    });
    for (base, design_rows, block) in evaluated {
        print!("{block}");
        println!();
        baseline.push(base);
        rows.extend(design_rows);
    }

    // Shape checks against the paper.
    let get = |design: &str, model: &str| -> &EvalRow {
        rows.iter().find(|r| r.design == design && r.model.contains(model)).expect("row present")
    };
    let mut violations = Vec::new();
    for (design, _, base_cps, _, _) in &baseline {
        let c = get(design, "ChatLS");
        let g = get(design, "GPT");
        let l = get(design, "Claude");
        // Differences below 20 ps are ties at this model's resolution.
        if c.cps + 0.02 < g.cps.max(l.cps) {
            violations.push(format!(
                "{design}: ChatLS cps {:.3} below best baseline {:.3}",
                c.cps,
                g.cps.max(l.cps)
            ));
        }
        if c.cps + 0.02 < *base_cps {
            violations.push(format!("{design}: ChatLS did not improve on baseline"));
        }
    }
    for hard in ["ethmac", "tinyRocket"] {
        if get(hard, "ChatLS").wns >= 0.0 {
            violations.push(format!("{hard}: expected a residual violation after one iteration"));
        }
    }
    for closable in ["aes", "jpeg", "dynamic_node"] {
        if get(closable, "ChatLS").wns < 0.0 {
            violations.push(format!("{closable}: ChatLS should close timing"));
        }
    }
    if violations.is_empty() {
        println!("Shape check vs. paper Table III: PASS");
    } else {
        println!("Shape check vs. paper Table III: DEVIATIONS");
        for v in &violations {
            println!("  - {v}");
        }
    }
    save_json("tab3_comparison", &Output { rows, baseline });
    // Cache and incremental-STA telemetry go to stderr: stdout and the JSON
    // artifact stay byte-identical whatever the hit pattern was.
    chatls::eval::print_eval_telemetry();
    chatls_bench::finalize_telemetry();
}

fn short(model: &str) -> &str {
    if model.contains("GPT") {
        "GPT-4o"
    } else if model.contains("Claude") {
        "Claude-3.5"
    } else {
        "ChatLS"
    }
}
