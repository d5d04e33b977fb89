//! Table II — Overview of Hardware Designs in the Database.
//!
//! Builds the expert database from the Table II component set and prints
//! the category → components overview, plus the per-design strategy
//! exploration summary that the paper describes ("synthesized using various
//! optimization and compilation strategies … treated as expert drafts").

use chatls_bench::{header, save_json};
use chatls_exec::ExecPool;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Serialize)]
struct Entry {
    design: String,
    category: String,
    period: f64,
    strategies: Vec<(String, f64, f64)>,
    best: String,
}

fn main() {
    header("Table II: the expert database");
    println!("building (all strategies)…");
    let db = chatls::ExpertDatabase::build(&chatls_bench::full_db_config());

    let mut by_cat: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for e in db.entries() {
        by_cat.entry(e.category.clone()).or_default().push(e.name.clone());
    }
    println!("\n{:<32} components", "category");
    for (cat, designs) in &by_cat {
        println!("{cat:<32} {}", designs.join(", "));
    }

    println!("\nper-design strategy exploration (expert drafts):");
    // Format per-entry blocks on the pool, print in database order.
    let formatted = ExecPool::global().map(db.entries(), |e| {
        let mut block = String::new();
        writeln!(block, "\n  {} (period {:.2} ns)", e.name, e.period).unwrap();
        for o in &e.outcomes {
            writeln!(block, "    {:<14} cps {:>7.3}  area {:>10.1}", o.strategy, o.cps, o.area)
                .unwrap();
        }
        let entry = Entry {
            design: e.name.clone(),
            category: e.category.clone(),
            period: e.period,
            strategies: e.outcomes.iter().map(|o| (o.strategy.clone(), o.cps, o.area)).collect(),
            best: e.best().strategy.clone(),
        };
        (entry, block)
    });
    let mut out = Vec::new();
    for (entry, block) in formatted {
        print!("{block}");
        out.push(entry);
    }
    save_json("tab2_database", &out);
    chatls_bench::finalize_telemetry();
}
