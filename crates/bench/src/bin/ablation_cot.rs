//! Ablation: what each ChatLS mechanism contributes (Table III workload).
//!
//! Four variants on every benchmark design (Pass@3 to keep runtime sane):
//!
//! - `one_shot`   — the fallible drafting model alone (≈ the GPT baseline).
//! - `rag_only`   — draft + retrieved expert strategy, **no** SynthExpert
//!   revision: hallucinations and constraint violations survive.
//! - `cot_only`   — SynthExpert revision of the bare draft, **without** the
//!   retrieved similar-design strategy.
//! - `full`       — the complete ChatLS pipeline.

use chatls::circuit_mentor::build_circuit_graph;
use chatls::eval::{pass_at_k, EvalRow};
use chatls::llm::{Generator, OneShot, OneShotProfile, TaskContext};
use chatls::pipeline::{prepare_task, ChatLs};
use chatls::synthexpert::SynthExpert;
use chatls::synthrag::SynthRag;
use chatls::ExpertDatabase;
use chatls_bench::{header, save_json};
use chatls_exec::ExecPool;
use std::fmt::Write as _;

struct RagOnly<'db> {
    db: &'db ExpertDatabase,
    drafter: OneShot,
}

impl Generator for RagOnly<'_> {
    fn name(&self) -> &str {
        "rag_only"
    }

    fn generate(&self, task: &TaskContext, seed: u64) -> String {
        let design = chatls_designs::by_name(&task.design_name).expect("benchmark");
        let graph = build_circuit_graph(&design);
        let emb = self.db.mentor().design_embedding(&graph);
        let rag = SynthRag::new(self.db);
        let mut draft = self.drafter.generate(task, seed);
        if let Some(best) = rag.similar_designs(&emb, 1).first() {
            // Appending the retrieved strategy without revision: the other
            // design's clock constraint comes along unrepaired.
            draft.push('\n');
            draft.push_str(&best.script);
        }
        draft
    }
}

struct CotOnly<'db> {
    db: &'db ExpertDatabase,
    drafter: OneShot,
}

impl Generator for CotOnly<'_> {
    fn name(&self) -> &str {
        "cot_only"
    }

    fn generate(&self, task: &TaskContext, seed: u64) -> String {
        let draft = self.drafter.generate(task, seed);
        let expert = SynthExpert::new(SynthRag::new(self.db));
        expert.refine(task, &draft).script
    }
}

fn main() {
    header("Ablation: one_shot vs rag_only vs cot_only vs full ChatLS (Pass@3)");
    println!("building expert database…");
    let db = ExpertDatabase::build(&chatls_bench::full_db_config());
    let profile = OneShotProfile::gpt_like();
    let one_shot = OneShot::new(profile.clone());
    let rag_only = RagOnly { db: &db, drafter: OneShot::new(profile.clone()) };
    let cot_only = CotOnly { db: &db, drafter: OneShot::new(profile.clone()) };
    let full = ChatLs::new(&db);
    let models: [&dyn Generator; 4] = [&one_shot, &rag_only, &cot_only, &full];

    println!("\n{:<14} {:<22} {:>8} {:>12} {:>6}", "design", "variant", "CPS", "Area", "valid");
    // Per-design ablations are independent: evaluate on the pool, print
    // collected blocks in catalog order (byte-identical to serial).
    let designs = chatls_designs::benchmarks();
    let evaluated = ExecPool::global().map(&designs, |design| {
        let task = prepare_task(design, "optimize timing at the fixed clock");
        let mut block = String::new();
        let mut design_rows = Vec::new();
        for model in models {
            let row = pass_at_k(model, design, &task, 3);
            writeln!(
                block,
                "{:<14} {:<22} {:>8.2} {:>12.1} {:>5}/3",
                row.design, row.model, row.cps, row.area, row.valid_samples
            )
            .expect("writing to a String cannot fail");
            design_rows.push(row);
        }
        (design_rows, block)
    });
    let mut rows: Vec<EvalRow> = Vec::new();
    for (design_rows, block) in evaluated {
        print!("{block}");
        println!();
        rows.extend(design_rows);
    }

    // Summary: mean cps per variant and total invalid samples.
    println!("{:<22} {:>10} {:>14}", "variant", "mean CPS", "valid samples");
    for name in ["GPT-4o (simulated)", "rag_only", "cot_only", "ChatLS"] {
        let sel: Vec<&EvalRow> = rows.iter().filter(|r| r.model == name).collect();
        let mean: f64 = sel.iter().map(|r| r.cps).sum::<f64>() / sel.len() as f64;
        let valid: usize = sel.iter().map(|r| r.valid_samples).sum();
        println!("{name:<22} {mean:>10.3} {valid:>10}/{}", sel.len() * 3);
    }
    println!(
        "\nReading: rag_only inherits good strategies but keeps hallucinations;\n\
         cot_only repairs the script but misses database strategies; the full\n\
         pipeline needs both — the paper's §IV-C argument."
    );
    save_json("ablation_cot", &rows);
    chatls_bench::finalize_telemetry();
}
