//! ChatLS: multimodal retrieval-augmented generation and chain-of-thought
//! for logic-synthesis script customization.
//!
//! A faithful Rust reproduction of the DAC 2025 ChatLS framework. Given a
//! design, a baseline synthesis script and a natural-language request, the
//! pipeline produces a customized Design-Compiler-style script:
//!
//! - [`circuit_mentor`] — **CircuitMentor** (paper §IV-A): the circuit is
//!   turned into a property graph + GNN feature graph; a hierarchical
//!   GraphSAGE model trained with metric learning produces design and
//!   module embeddings.
//! - [`synthrag`] — **SynthRAG** (paper §IV-B, Table I): four retrieval
//!   modalities (graph-embedding k-NN with Eq. 5 rerank, Cypher over
//!   module code, Cypher over the target library, text retrieval over the
//!   tool manual with a hybrid reranker).
//! - [`synthexpert`] — **SynthExpert** (paper §IV-C, Eq. 6): a chain of
//!   thought whose every step is revised against fresh retrieval,
//!   repairing hallucinated commands and aligning strategies with the
//!   design's measured traits.
//! - [`pipeline`] — the Fig. 2 orchestration, [`pipeline::ChatLs`], which
//!   also implements the [`llm::Generator`] interface used by the
//!   evaluation.
//! - [`llm`] — simulated GPT-4o / Claude-3.5 baselines with seeded
//!   hallucination models (see the module docs for the substitution
//!   rationale).
//! - [`database`] — the Table II expert database: strategies explored with
//!   the simulated synthesis tool and indexed for retrieval.
//! - [`eval`] — the §V protocols: Pass@5 script quality and retrieval F1.
//!
//! # Examples
//!
//! ```no_run
//! use chatls::database::{DbConfig, ExpertDatabase};
//! use chatls::llm::Generator;
//! use chatls::pipeline::{prepare_task, ChatLs};
//!
//! let db = ExpertDatabase::build(&DbConfig::default());
//! let chatls = ChatLs::new(&db);
//! let design = chatls_designs::by_name("aes").expect("benchmark design");
//! let task = prepare_task(&design, "close timing without growing area");
//! let script = chatls.generate(&task, 0);
//! assert!(script.contains("compile"));
//! ```

pub mod agent;
pub mod circuit_mentor;
pub mod cluster;
pub mod database;
pub mod eval;
pub mod features;
pub mod llm;
pub mod pipeline;
pub mod service;
pub mod synthexpert;
pub mod synthrag;

pub use agent::AgentSession;
pub use circuit_mentor::{build_circuit_graph, detect_traits, CircuitMentor, DesignTraits};
pub use cluster::{design_key_fn, run_cluster, ClusterOpts};
pub use database::{DbConfig, ExpertDatabase};
pub use eval::{
    canonicalize_script, design_fingerprint, f1_score, pass_at_k, pass_at_k_on, session_template,
    EvalRow, QorCache, RetrievalEval,
};
pub use llm::{claude_like, gpt_like, Generator, TaskContext};
pub use pipeline::{baseline_script, prepare_task, ChatLs, ChatLsOutcome};
pub use service::ChatLsService;
pub use synthexpert::{ExpertTrace, SynthExpert, ThoughtStep};
pub use synthrag::SynthRag;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::database::{DbConfig, ExpertDatabase};
    use std::sync::OnceLock;

    /// One shared quick database for the whole test binary.
    pub fn quick_db() -> &'static ExpertDatabase {
        static DB: OnceLock<ExpertDatabase> = OnceLock::new();
        DB.get_or_init(|| ExpertDatabase::build(&DbConfig::quick()))
    }
}
