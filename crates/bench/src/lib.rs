//! Shared helpers for the ChatLS experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md's experiment index). The
//! helpers here standardize output: each experiment prints a human-readable
//! table and writes machine-readable JSON under `target/experiments/`.

use std::fs;
use std::path::PathBuf;

/// Directory where experiment JSON artifacts are written.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a serializable artifact as pretty JSON and reports the path.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if fs::write(&path, s).is_ok() {
                println!("\n[artifact] {}", path.display());
            }
        }
        Err(e) => eprintln!("failed to serialize {name}: {e}"),
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n==== {title} ====");
}

/// Formats a QoR-style row in the paper's column order.
pub fn qor_row(label: &str, wns: f64, cps: f64, tns: f64, area: f64) -> String {
    format!("{label:<14} {wns:>8.2} {cps:>8.2} {tns:>10.2} {area:>12.2}")
}

/// Column header matching [`qor_row`].
pub fn qor_header() -> String {
    format!("{:<14} {:>8} {:>8} {:>10} {:>12}", "design", "WNS", "CPS", "TNS", "Area(um2)")
}

/// The full database configuration used by the experiments (all strategies,
/// full GNN training). The build is deterministic and takes a few seconds,
/// so each experiment builds its own database in-process rather than
/// loading one a different build may have written.
pub fn full_db_config() -> chatls::DbConfig {
    chatls::DbConfig::default()
}

/// Terminal telemetry sink for the experiment binaries: flushes the global
/// [`chatls_obs::ObsCtx`] — stderr span/metrics summary plus the JSON
/// document when `CHATLS_TELEMETRY` names a path. With telemetry disabled
/// (the default) this is a no-op, so every `main` calls it unconditionally
/// as its last statement; stdout is never touched either way.
pub fn finalize_telemetry() {
    let obs = chatls_obs::ObsCtx::global();
    if obs.is_enabled() {
        if let Err(e) = obs.finish() {
            eprintln!("telemetry: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_align_with_header() {
        let h = qor_header();
        let r = qor_row("aes", -0.17, -0.17, -31.64, 16408.21);
        assert!(h.len() >= r.len() - 6);
        assert!(r.contains("aes"));
    }

    #[test]
    fn save_json_writes_file() {
        save_json("selftest", &vec![1, 2, 3]);
        let path = experiments_dir().join("selftest.json");
        assert!(path.exists());
        let _ = std::fs::remove_file(path);
    }
}
