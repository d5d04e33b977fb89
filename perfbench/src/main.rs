//! Closed-loop benchmark of ChatLS served end to end.
//!
//! Runs one workload against an in-process `chatls serve` stack (quick
//! expert DB, default `ServeConfig`, no pool warmer), checks every
//! output, and prints its metrics as one JSON object on the last line of
//! standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_customize|eval_sweep|cold_sessions \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` also replays
//! the workload's ops through each layer's public functions inside
//! benchmark-side spans and reports the per-layer metrics instead. See
//! `perfbench/README.md`.

mod alloc;
mod cold;
mod common;
mod eval;
mod gen;
mod http;
mod stats;
mod trace;
mod warm;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Command-line settings of one run.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// The run's fixed op count: the workload's nominal rate times
    /// `--seconds`, at least enough samples for its tail percentile,
    /// rounded up to a multiple of `unit` (whole rotation cycles per
    /// client). It depends on nothing measured, so the tail percentile's
    /// rank never moves.
    pub fn ops(&self, rate: f64, tail_q: f64, unit: usize) -> usize {
        let n = ((rate * self.seconds).ceil() as usize).max(stats::min_samples(tail_q));
        n.div_ceil(unit) * unit
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload warm_customize|eval_sweep|cold_sessions \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let seed = value("--seed").map_or(Some(0), |v| v.parse().ok());
    let seconds = value("--seconds").map_or(Some(10.0), |v| v.parse::<f64>().ok());
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let (Some(seed), Some(seconds)) = (seed, seconds.filter(|s| *s > 0.0)) else {
        usage("--seed must be an integer and --seconds a positive number")
    };
    let cfg = Config { seed, seconds, trace };
    let report = match workload {
        warm::NAME => warm::run(&cfg),
        eval::NAME => eval::run(&cfg),
        cold::NAME => cold::run(&cfg),
        other => usage(&format!("unknown workload '{other}'")),
    };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            assert!(value.is_finite(), "{name} measured {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
