//! Extension experiment: iterative resynthesis on the designs that keep
//! residual violations after one iteration.
//!
//! The paper notes (§V-B) that ethmac and tinyRocket "exhibit timing
//! violations, as only a single iteration was executed. … Additional
//! iterations are required to further resolve timing issues." This binary
//! tests that claim end to end: ChatLS runs up to four
//! customize→synthesize→report rounds, each grounded in the previous
//! round's report, and the WNS trajectory is printed.

use chatls::pipeline::ChatLs;
use chatls_bench::{header, save_json};
use chatls_exec::ExecPool;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct Output {
    design: String,
    trajectory: Vec<(usize, f64, f64, f64)>,
}

fn main() {
    header("Extension: iterative resynthesis on the hard designs");
    println!("building expert database…");
    let db = chatls::ExpertDatabase::build(&chatls_bench::full_db_config());
    let chatls = ChatLs::new(&db);

    // The two hard designs iterate independently: run both on the pool,
    // print in fixed order (byte-identical to the serial loop).
    let names = ["ethmac", "tinyRocket"];
    let evaluated = ExecPool::global().map(&names, |name| {
        let design = chatls_designs::by_name(name).expect("benchmark");
        let mut block = String::new();
        writeln!(block, "\n{name} (clock {:.2} ns):", design.default_period).unwrap();
        writeln!(block, "{:>10} {:>8} {:>8} {:>12}", "iteration", "WNS", "CPS", "Area(um2)")
            .unwrap();
        let records = chatls.iterate(&design, "resolve the remaining timing violations", 4, 0);
        let mut trajectory = Vec::new();
        for r in &records {
            writeln!(block, "{:>10} {:>8.3} {:>8.3} {:>12.1}", r.iteration, r.wns, r.cps, r.area)
                .unwrap();
            trajectory.push((r.iteration, r.wns, r.cps, r.area));
        }
        let first = records.first().expect("at least one round");
        let last = records.last().expect("at least one round");
        assert!(
            last.wns >= first.wns,
            "{name}: iterations must not regress ({} -> {})",
            first.wns,
            last.wns
        );
        writeln!(
            block,
            "  -> WNS {:.3} after 1 iteration, {:.3} after {} (paper: more iterations needed)",
            first.wns,
            last.wns,
            records.len()
        )
        .unwrap();
        (Output { design: name.to_string(), trajectory }, block)
    });
    let mut outputs = Vec::new();
    for (output, block) in evaluated {
        print!("{block}");
        outputs.push(output);
    }
    save_json("ablation_iterations", &outputs);
    chatls_bench::finalize_telemetry();
}
