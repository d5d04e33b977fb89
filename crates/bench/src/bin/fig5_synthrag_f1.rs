//! Fig. 5 — Performance of SynthRAG.
//!
//! Reproduces the retrieval experiment: Chipyard-style SoC configurations
//! are generated, each is embedded by CircuitMentor, and SynthRAG retrieves
//! the most similar database designs. Ground truth = the components the SoC
//! was assembled from. Reports precision/recall/F1 at several k (the
//! figure's series) for both design-level and module-level retrieval.

use chatls::circuit_mentor::build_circuit_graph;
use chatls::eval::{f1_score, RetrievalEval};
use chatls::synthrag::SynthRag;
use chatls_bench::{header, save_json};
use chatls_exec::ExecPool;
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    k: usize,
    precision: f64,
    recall: f64,
    f1: f64,
}

#[derive(Serialize)]
struct Output {
    design_level: Vec<Series>,
    module_level: Vec<Series>,
    configs: usize,
}

fn main() {
    header("Fig. 5: SynthRAG retrieval F1 over Chipyard-style SoC configs");
    println!("building expert database (full config)…");
    let db = chatls::ExpertDatabase::build(&chatls_bench::full_db_config());
    let rag = SynthRag::new(&db);
    let configs = chatls_designs::soc_configs(12, 2024);

    // Embed every SoC once on the pool (graph extraction + GNN forward is
    // the heavy part and was previously recomputed for every k).
    type SocEmbedding = (Vec<f32>, Vec<(String, Vec<f32>)>);
    let embedded: Vec<SocEmbedding> = ExecPool::global().map(&configs, |cfg| {
        let g = build_circuit_graph(&cfg.design);
        (db.mentor().design_embedding(&g), db.mentor().module_embeddings(&g))
    });

    let mut design_level = Vec::new();
    println!("\ndesign-level retrieval (query: SoC embedding → database designs)");
    println!("{:>3} {:>10} {:>8} {:>8}", "k", "precision", "recall", "F1");
    for k in [1usize, 2, 3, 4, 5] {
        let mut agg = RetrievalEval::default();
        for (cfg, (emb, _)) in configs.iter().zip(&embedded) {
            let hits: Vec<String> =
                rag.similar_designs(emb, k).into_iter().map(|h| h.name).collect();
            agg.merge(f1_score(&hits, &cfg.derived_from));
        }
        println!("{k:>3} {:>10.3} {:>8.3} {:>8.3}", agg.precision(), agg.recall(), agg.f1());
        design_level.push(Series {
            k,
            precision: agg.precision(),
            recall: agg.recall(),
            f1: agg.f1(),
        });
    }

    // Module-level: query each SoC module's embedding; relevant = database
    // modules with the same name (the shared component modules).
    let mut module_level = Vec::new();
    println!("\nmodule-level retrieval (query: module embedding → database modules)");
    println!("{:>3} {:>10} {:>8} {:>8}", "k", "precision", "recall", "F1");
    for k in [1usize, 3, 5] {
        let mut agg = RetrievalEval::default();
        for (_, module_embeddings) in &embedded {
            for (module, emb) in module_embeddings {
                // Ground truth: database entries containing this module.
                let relevant: Vec<String> = db
                    .entries()
                    .iter()
                    .filter(|e| e.module_embeddings.iter().any(|(m, _)| m == module))
                    .map(|e| format!("{}/{}", e.name, module))
                    .collect();
                if relevant.is_empty() {
                    continue;
                }
                let hits: Vec<String> = rag
                    .similar_modules(emb, k)
                    .into_iter()
                    .map(|h| format!("{}/{}", h.design, h.module))
                    .collect();
                agg.merge(f1_score(&hits, &relevant));
            }
        }
        println!("{k:>3} {:>10.3} {:>8.3} {:>8.3}", agg.precision(), agg.recall(), agg.f1());
        module_level.push(Series {
            k,
            precision: agg.precision(),
            recall: agg.recall(),
            f1: agg.f1(),
        });
    }

    // Shape check per the paper: retrieval works (clearly above chance).
    let best_f1 = design_level.iter().map(|s| s.f1).fold(0.0, f64::max);
    let chance = 3.0 / db.entries().len() as f64; // ~random pick baseline
    println!("\nShape check: best design-level F1 {best_f1:.3} vs chance-level {chance:.3}");
    assert!(best_f1 > chance, "retrieval must beat chance");
    save_json("fig5_synthrag_f1", &Output { design_level, module_level, configs: configs.len() });
    chatls_bench::finalize_telemetry();
}
