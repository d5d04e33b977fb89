//! Doc truth: every repo path cited in backticks in README.md, DESIGN.md,
//! EXPERIMENTS.md and in the `//` comments under `crates/` and `tests/`
//! names a file or directory that exists. ROADMAP.md and CHANGES.md hold
//! plans and history, so they are not checked.
//!
//! A span is a cited path when it has no whitespace and starts with a
//! tracked top-level directory, `src/` or `benches/`. `:line` and `::item`
//! suffixes are stripped; a `src/` path resolves against the citing crate
//! and a `benches/` path against `crates/bench`.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const TOP_DIRS: [&str; 6] = ["crates", "tests", "examples", "perfbench", "vendor", ".github"];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repo-relative path a backtick span cites, if it cites one;
/// `crate_dir` is the citing crate's directory (`.` for the root crate).
fn cited_path(span: &str, crate_dir: &str) -> Option<PathBuf> {
    if span.chars().any(char::is_whitespace) {
        return None;
    }
    let path = span.split("::").next()?.split(':').next()?;
    let (first, _) = path.split_once('/')?;
    match first {
        "src" => Some(Path::new(crate_dir).join(path)),
        "benches" => Some(Path::new("crates/bench").join(path)),
        _ if TOP_DIRS.contains(&first) => Some(PathBuf::from(path)),
        _ => None,
    }
}

/// `file:line: span` for every cited path in `lines` that does not exist.
fn missing<'a>(
    file: &str,
    crate_dir: &str,
    lines: impl Iterator<Item = (usize, &'a str)>,
) -> Vec<String> {
    let mut out = Vec::new();
    for (no, line) in lines {
        for span in line.split('`').skip(1).step_by(2) {
            if let Some(path) = cited_path(span, crate_dir) {
                if !repo().join(&path).exists() {
                    out.push(format!("{file}:{no}: `{span}`"));
                }
            }
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn cited_paths_parse_as_documented() {
    let cite = |span| cited_path(span, "crates/synth");
    assert_eq!(cite("crates/synth/src/passes.rs:248"), Some("crates/synth/src/passes.rs".into()));
    assert_eq!(cite("crates/core/src/agent.rs:473-496"), Some("crates/core/src/agent.rs".into()));
    assert_eq!(cite("crates/core::llm"), Some("crates/core".into()));
    assert_eq!(cite("src/tool.rs"), Some("crates/synth/src/tool.rs".into()));
    assert_eq!(cite("benches/synth.rs"), Some("crates/bench/benches/synth.rs".into()));
    assert_eq!(cited_path("src/lib.rs", "."), Some("./src/lib.rs".into()));
    for not_a_path in ["top/u_core/u_alu", "/v1/customize", "GET /v1/qor", "passes.rs", "a::b"] {
        assert_eq!(cite(not_a_path), None, "{not_a_path}");
    }
}

#[test]
fn paths_cited_in_docs_and_comments_exist() {
    let mut bad = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(repo().join(doc)).expect("doc readable");
        bad.extend(missing(doc, ".", text.lines().enumerate().map(|(i, l)| (i + 1, l))));
    }
    let mut sources = Vec::new();
    rust_files(&repo().join("crates"), &mut sources);
    rust_files(&repo().join("tests"), &mut sources);
    assert!(sources.len() > 50, "found only {} Rust files", sources.len());
    for source in sources {
        let rel = source.strip_prefix(repo()).expect("under the repo");
        let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
        let crate_dir =
            if parts[0] == "crates" { format!("crates/{}", parts[1]) } else { ".".into() };
        let text = fs::read_to_string(&source).expect("source readable");
        let comments =
            text.lines().enumerate().filter_map(|(i, l)| l.find("//").map(|at| (i + 1, &l[at..])));
        bad.extend(missing(&rel.display().to_string(), &crate_dir, comments));
    }
    assert!(bad.is_empty(), "cited paths that do not exist:\n{}", bad.join("\n"));
}
