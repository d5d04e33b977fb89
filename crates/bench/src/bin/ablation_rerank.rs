//! Ablation: the Eq. 5 rerank (`Score = α·sim + β·c`) on retrieval quality.
//!
//! Sweeps the characteristic weight β over the Fig. 5 workload. The paper
//! motivates the rerank with scale mismatches among same-category designs
//! (ALU vs. systolic array); this ablation quantifies what β buys.

use chatls::circuit_mentor::build_circuit_graph;
use chatls::eval::{f1_score, RetrievalEval};
use chatls_bench::{header, save_json};
use chatls_exec::ExecPool;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    alpha: f32,
    beta: f32,
    f1_at_3: f64,
    mean_best_cps_of_top1: f64,
}

fn main() {
    header("Ablation: Eq. 5 rerank weights over the Fig. 5 workload");
    println!("building expert database…");
    let db = chatls::ExpertDatabase::build(&chatls_bench::full_db_config());
    let configs = chatls_designs::soc_configs(12, 2024);
    // Embedding the SoCs is the heavy part of this ablation; the α/β
    // sweep itself is index math. Fan the embeddings out on the pool.
    let embeddings: Vec<(Vec<f32>, Vec<String>)> = ExecPool::global().map(&configs, |cfg| {
        let g = build_circuit_graph(&cfg.design);
        (db.mentor().design_embedding(&g), cfg.derived_from.clone())
    });

    println!("\n{:>6} {:>6} {:>8} {:>22}", "alpha", "beta", "F1@3", "mean top-1 best cps");
    let mut points = Vec::new();
    for (alpha, beta) in
        [(1.0f32, 0.0f32), (1.0, 0.25), (1.0, 0.5), (1.0, 1.0), (1.0, 2.0), (0.5, 1.0)]
    {
        let mut agg = RetrievalEval::default();
        let mut top1_quality = 0.0f64;
        for (emb, relevant) in &embeddings {
            let hits = db.similar_designs(emb, 3, alpha, beta);
            let names: Vec<String> = hits.iter().map(|h| h.name.clone()).collect();
            agg.merge(f1_score(&names, relevant));
            if let Some(first) = hits.first() {
                if let Some(e) = db.entry(&first.name) {
                    top1_quality += e.best().cps;
                }
            }
        }
        let mean_quality = top1_quality / embeddings.len() as f64;
        println!("{alpha:>6.2} {beta:>6.2} {:>8.3} {:>22.3}", agg.f1(), mean_quality);
        points.push(Point { alpha, beta, f1_at_3: agg.f1(), mean_best_cps_of_top1: mean_quality });
    }
    println!(
        "\nReading: β > 0 trades a little similarity-F1 for retrieving designs\n\
         whose strategies measured better (higher top-1 cps) — the paper's\n\
         stated goal of folding timing/area characteristics into the ranking."
    );
    save_json("ablation_rerank", &points);
    chatls_bench::finalize_telemetry();
}
