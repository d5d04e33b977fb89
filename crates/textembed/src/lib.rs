//! Deterministic text embeddings and a document store.
//!
//! This crate replaces the `text-embedding-3-large` API the ChatLS paper
//! uses for *LLM-embedding-based retrieval* over the synthesis tool's user
//! manual (Table I, bottom row). The substitute is a hashed n-gram TF-IDF
//! embedder: unigrams and bigrams are hashed into a fixed-dimension dense
//! vector, weighted by corpus IDF, and L2-normalized. It is deterministic
//! (no network, no model weights) while preserving the retrieval behaviour
//! the pipeline needs — semantically close command descriptions land close
//! in cosine space because they share vocabulary.
//!
//! # Examples
//!
//! ```
//! use chatls_textembed::DocIndex;
//!
//! let mut index = DocIndex::new(128);
//! index.add("retime", "move registers across combinational logic to balance path delays");
//! index.add("ungroup", "dissolve hierarchy boundaries to enable cross-module optimization");
//! index.build();
//! let hits = index.search("balance register placement on long paths", 1);
//! assert_eq!(hits[0].0, "retime");
//! ```

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Splits text into lowercase alphanumeric tokens.
///
/// Underscores are kept so command names like `compile_ultra` stay whole;
/// every other non-alphanumeric byte separates tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// FNV-1a hash, the bucket function for the hashed embedder.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Hashed n-gram TF-IDF embedder.
///
/// Construct with [`Embedder::fit`] on a corpus (to learn IDF weights) and
/// embed any text afterwards. Texts embed deterministically: the same input
/// always produces the same vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedder {
    dim: usize,
    /// Document frequency per vocabulary term observed at fit time.
    idf: HashMap<String, f32>,
    /// ln(N+1) fallback IDF for unseen terms.
    default_idf: f32,
}

impl Embedder {
    /// Learns IDF weights from a corpus and returns the embedder.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn fit<'a>(dim: usize, corpus: impl IntoIterator<Item = &'a str>) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        let mut df: HashMap<String, u32> = HashMap::new();
        let mut n_docs = 0u32;
        for doc in corpus {
            n_docs += 1;
            let mut seen: Vec<String> = Vec::new();
            for term in terms(doc) {
                if !seen.contains(&term) {
                    seen.push(term);
                }
            }
            for t in seen {
                *df.entry(t).or_insert(0) += 1;
            }
        }
        let idf = df
            .into_iter()
            .map(|(t, d)| (t, ((n_docs as f32 + 1.0) / (d as f32 + 1.0)).ln() + 1.0))
            .collect();
        Self { dim, idf, default_idf: ((n_docs as f32 + 1.0).ln() + 1.0) }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embeds a text into a unit-norm vector (all-zero for empty text).
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        // Distinct terms in sorted order, so terms that share a bucket sum
        // in the same order on every run.
        let mut terms = terms(text);
        terms.sort_unstable();
        for run in terms.chunk_by(|a, b| a == b) {
            let term = &run[0];
            let idf = self.idf.get(term).copied().unwrap_or(self.default_idf);
            let weight = (1.0 + (run.len() as f32).ln()) * idf;
            let h = fnv1a(term);
            let bucket = (h % self.dim as u64) as usize;
            // Signed hashing reduces bucket-collision bias.
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[bucket] += sign * weight;
        }
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }
}

/// Unigrams plus adjacent bigrams.
fn terms(text: &str) -> Vec<String> {
    let toks = tokenize(text);
    let mut out = toks.clone();
    for w in toks.windows(2) {
        out.push(format!("{} {}", w[0], w[1]));
    }
    out
}

/// Cosine similarity between two embeddings.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// A searchable store of named documents.
///
/// Build pattern: [`DocIndex::add`] every document, then [`DocIndex::build`]
/// (fits the embedder on the corpus and embeds all documents), then
/// [`DocIndex::search`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DocIndex {
    dim: usize,
    docs: Vec<(String, String)>,
    embedder: Option<Embedder>,
    vectors: Vec<Vec<f32>>,
}

impl DocIndex {
    /// Creates an empty index with the given embedding dimension.
    pub fn new(dim: usize) -> Self {
        Self { dim, docs: Vec::new(), embedder: None, vectors: Vec::new() }
    }

    /// Adds a named document. Call [`DocIndex::build`] afterwards.
    pub fn add(&mut self, name: impl Into<String>, text: impl Into<String>) {
        self.docs.push((name.into(), text.into()));
        self.embedder = None;
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the index holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Fits the embedder on the stored corpus and embeds every document.
    pub fn build(&mut self) {
        let embedder = Embedder::fit(self.dim, self.docs.iter().map(|(_, t)| t.as_str()));
        self.vectors = self.docs.iter().map(|(_, t)| embedder.embed(t)).collect();
        self.embedder = Some(embedder);
    }

    /// Document text by name.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.docs.iter().find(|(n, _)| n == name).map(|(_, t)| t.as_str())
    }

    /// Top-`k` documents by cosine similarity: `(name, text, score)`.
    ///
    /// # Panics
    ///
    /// Panics if [`DocIndex::build`] has not been called since the last add.
    pub fn search(&self, query: &str, k: usize) -> Vec<(&str, &str, f32)> {
        let embedder = self.embedder.as_ref().expect("DocIndex::search called before build()");
        let q = embedder.embed(query);
        let mut scored: Vec<(usize, f32)> =
            self.vectors.iter().enumerate().map(|(i, v)| (i, cosine(&q, v))).collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        scored
            .into_iter()
            .take(k)
            .map(|(i, s)| (self.docs[i].0.as_str(), self.docs[i].1.as_str(), s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_keeps_underscores() {
        assert_eq!(
            tokenize("run compile_ultra -incremental!"),
            vec!["run", "compile_ultra", "incremental"]
        );
    }

    #[test]
    fn tokenizer_lowercases() {
        assert_eq!(tokenize("Set_Max_Delay 5"), vec!["set_max_delay", "5"]);
    }

    #[test]
    fn embedding_is_deterministic() {
        let e = Embedder::fit(64, ["a b c", "c d e"]);
        assert_eq!(e.embed("a c e"), e.embed("a c e"));
        // Four buckets for ~30 terms per text: every bucket sums many
        // colliding terms, so a change in summation order shows in the bits.
        let texts: Vec<String> = (0..40)
            .map(|k| {
                (0..15).map(|j| format!("w{}", (k * 7 + j * j) % 23)).collect::<Vec<_>>().join(" ")
            })
            .collect();
        let e = Embedder::fit(4, texts.iter().map(String::as_str));
        let bits = |t: &str| e.embed(t).iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let unstable: Vec<&String> = texts.iter().filter(|t| bits(t) != bits(t)).collect();
        assert!(
            unstable.is_empty(),
            "{} of {} texts embed differently twice",
            unstable.len(),
            texts.len()
        );
    }

    #[test]
    fn embedding_is_unit_norm() {
        let e = Embedder::fit(64, ["the quick brown fox"]);
        let v = e.embed("quick fox");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = Embedder::fit(64, ["something"]);
        assert!(e.embed("").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn self_similarity_is_one() {
        let e = Embedder::fit(128, ["alpha beta gamma", "delta epsilon"]);
        let v = e.embed("alpha beta");
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn related_texts_closer_than_unrelated() {
        let corpus = [
            "retiming moves registers across combinational logic",
            "buffer insertion fixes high fanout nets",
            "the kitchen recipe uses flour and sugar",
        ];
        let e = Embedder::fit(256, corpus);
        let q = e.embed("move registers to balance logic");
        let close = cosine(&q, &e.embed(corpus[0]));
        let far = cosine(&q, &e.embed(corpus[2]));
        assert!(close > far, "close={close} far={far}");
    }

    #[test]
    fn doc_index_ranks_relevant_first() {
        let mut idx = DocIndex::new(256);
        idx.add(
            "retime",
            "retime moves registers across combinational logic to balance stage delays",
        );
        idx.add("buffer", "insert buffers to split high fanout nets and reduce load");
        idx.add("area", "area recovery downsizes gates off the critical path");
        idx.build();
        let hits = idx.search("high fanout net needs buffering", 3);
        assert_eq!(hits[0].0, "buffer");
    }

    #[test]
    fn doc_index_get_by_name() {
        let mut idx = DocIndex::new(32);
        idx.add("x", "content here");
        idx.build();
        assert_eq!(idx.get("x"), Some("content here"));
        assert_eq!(idx.get("y"), None);
    }

    #[test]
    #[should_panic(expected = "before build")]
    fn search_before_build_panics() {
        let mut idx = DocIndex::new(32);
        idx.add("x", "content");
        idx.search("q", 1);
    }

    #[test]
    fn search_deterministic_ordering() {
        let mut idx = DocIndex::new(64);
        for i in 0..10 {
            idx.add(format!("d{i}"), format!("shared words plus token{i}"));
        }
        idx.build();
        let a: Vec<String> =
            idx.search("shared words", 10).iter().map(|h| h.0.to_string()).collect();
        let b: Vec<String> =
            idx.search("shared words", 10).iter().map(|h| h.0.to_string()).collect();
        assert_eq!(a, b);
    }

    proptest::proptest! {
        #[test]
        fn embed_never_produces_nan(s in "[a-z ]{0,40}") {
            let e = Embedder::fit(32, ["seed corpus text"]);
            let v = e.embed(&s);
            proptest::prop_assert!(v.iter().all(|x| x.is_finite()));
        }
    }
}
