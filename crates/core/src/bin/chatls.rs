//! `chatls` — the command-line interface to the framework.
//!
//! ```text
//! chatls build-db [--quick] [--out chatls_db.json]
//! chatls analyze <design>
//! chatls customize <design> [--request "…"] [--db chatls_db.json] [--seed N]
//! chatls evaluate <design> [--db chatls_db.json] [--k 5]
//! chatls lint <script.tcl> [--design <name>] [--json]
//! chatls designs
//! chatls mcp [--db chatls_db.json]
//! chatls serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!              [--timeout-ms N] [--max-sessions N] [--no-warm]
//!              [--db chatls_db.json] [--shards N]
//! ```
//!
//! `--shards N` switches `serve` into cluster mode: N shard processes
//! (this same binary, each with its own warm session pool) behind a
//! consistent-hash router that speaks the identical HTTP surface. The
//! shard-side flags `--shard-id I` and `--shard-port P` are internal —
//! the supervisor passes them to the shard processes it spawns.
//!
//! Every subcommand also accepts the global `--telemetry-json <path>`
//! (write the JSON telemetry document on exit) and `--quiet` (suppress
//! stderr telemetry) flags; neither changes a byte of stdout.
//!
//! Designs are the built-in benchmark/database generators (`chatls designs`
//! lists them). The expert database is built once with `build-db` and
//! reused from disk by the other subcommands (or rebuilt quickly on the fly
//! when no file exists).

use chatls::circuit_mentor::{build_circuit_graph, detect_traits};
use chatls::eval::pass_at_k;
use chatls::llm::{claude_like, gpt_like, Generator};
use chatls::pipeline::{prepare_task, ChatLs};
use chatls::{DbConfig, ExpertDatabase};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global telemetry flags, valid on every subcommand. They are stripped
    // (flag and value) before dispatch so positional parsing never sees
    // them, and they only touch stderr/JSON sinks — stdout is identical
    // with telemetry on or off.
    let telemetry_json = match take_value_flag(&mut args, "--telemetry-json") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let quiet = take_flag(&mut args, "--quiet");
    if quiet {
        chatls_obs::set_global_quiet(true);
    }
    if let Some(path) = &telemetry_json {
        let ctx = chatls_obs::ObsCtx::new();
        ctx.set_json_path(Some(path.into()));
        chatls_obs::init_global(ctx);
    }
    let mut it = args.iter();
    let cmd = match it.next() {
        Some(c) => c.as_str(),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let rest: Vec<&str> = it.map(String::as_str).collect();
    let obs = chatls_obs::ObsCtx::global();
    let result = {
        let _span = if obs.is_enabled() { Some(obs.span(&format!("cli.{cmd}"))) } else { None };
        match cmd {
            "build-db" => cmd_build_db(&rest),
            "analyze" => cmd_analyze(&rest),
            "customize" => cmd_customize(&rest),
            "evaluate" => cmd_evaluate(&rest),
            "lint" => cmd_lint(&rest),
            "designs" => cmd_designs(),
            "serve" => cmd_serve(&rest),
            "mcp" => cmd_mcp(&rest),
            "help" | "--help" | "-h" => {
                println!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
        }
    };
    // Finalize telemetry on every exit path: stderr summary (unless
    // --quiet) and the JSON document when a path was configured.
    if obs.is_enabled() {
        chatls::eval::sync_eval_gauges();
    }
    let finished = chatls_obs::ObsCtx::global().finish();
    match (result, finished) {
        (Ok(()), Ok(())) => ExitCode::SUCCESS,
        (Err(e), _) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes `flag` from `args`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Removes `flag` and its value from `args`, returning the value.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    args.remove(i);
    Ok(Some(args.remove(i)))
}

const USAGE: &str = "usage:
  chatls build-db [--quick] [--out <file>]   build and persist the expert database
  chatls analyze <design>                    CircuitMentor analysis of a design
  chatls customize <design> [--request R]    produce a customized synthesis script
                   [--db <file>] [--seed N] [--trace]
  chatls evaluate <design> [--db <file>] [--k N]
                                             Pass@k comparison vs simulated baselines
  chatls lint <script> [--design <name>]     ScriptLint static analysis of a script
               [--json] [--fix]              (exit 1 when errors are found)
  chatls lint --explain <CODE>               rationale, example and fix for a rule
                                             (SL0xx/NL0xx; 'all' lists every rule)
  chatls designs                             list built-in designs
  chatls mcp [--db <file>]                   MCP tool server (JSON-RPC 2.0 over
                                             stdio: customize/eval/lint tools;
                                             newline-delimited or Content-Length
                                             framing, auto-detected per message)
  chatls serve [--addr HOST:PORT]            serve the pipeline over HTTP/JSON
               [--workers N] [--queue-depth N] [--timeout-ms N]
               [--max-sessions N] [--db <file>]
               [--no-warm]                   skip background catalog pre-warming
               [--shards N]                  cluster mode: N shard processes
                                             behind a consistent-hash router
                                             (drain/admit via POST
                                             /admin/drain?shard=I, /admin/admit)

global flags (every subcommand):
  --telemetry-json <file>   write the JSON telemetry document (spans + metrics)
  --quiet                   suppress stderr telemetry (stdout is unaffected)";

fn opt<'a>(rest: &'a [&str], flag: &str) -> Option<&'a str> {
    rest.iter().position(|a| *a == flag).and_then(|i| rest.get(i + 1)).copied()
}

fn flag(rest: &[&str], name: &str) -> bool {
    rest.contains(&name)
}

fn positional<'a>(rest: &'a [&str]) -> Option<&'a str> {
    rest.iter().find(|a| !a.starts_with("--")).copied()
}

fn find_design(name: &str) -> Result<chatls_designs::GeneratedDesign, String> {
    chatls_designs::by_name(name)
        .ok_or_else(|| format!("unknown design '{name}' (run `chatls designs` for the list)"))
}

fn open_db(rest: &[&str]) -> Result<ExpertDatabase, String> {
    let path = opt(rest, "--db").unwrap_or("chatls_db.json");
    if std::path::Path::new(path).exists() {
        eprintln!("loading expert database from {path}…");
        ExpertDatabase::load(path).map_err(|e| format!("loading {path}: {e}"))
    } else {
        eprintln!("no database file at {path}; building a quick one (use `chatls build-db` for the full one)…");
        Ok(ExpertDatabase::build(&DbConfig::quick()))
    }
}

fn cmd_build_db(rest: &[&str]) -> Result<(), String> {
    let out = opt(rest, "--out").unwrap_or("chatls_db.json");
    let config = if flag(rest, "--quick") { DbConfig::quick() } else { DbConfig::default() };
    eprintln!(
        "building expert database ({} strategies)…",
        if config.strategies.is_empty() {
            "all".to_string()
        } else {
            config.strategies.len().to_string()
        }
    );
    let db = ExpertDatabase::build(&config);
    db.save(out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out} ({} designs)", db.entries().len());
    Ok(())
}

fn cmd_analyze(rest: &[&str]) -> Result<(), String> {
    let name = positional(rest).ok_or("analyze needs a design name")?;
    let design = find_design(name)?;
    let graph = build_circuit_graph(&design);
    let netlist = design.netlist();
    let traits = detect_traits(&netlist);
    println!("design {name} ({}):", design.category);
    println!(
        "  {} module instances, {} graph nodes, {} relationships",
        graph.instances.len(),
        graph.db.node_count(),
        graph.db.rel_count()
    );
    println!("  {} gates, {} registers", netlist.gates.len(), netlist.num_registers());
    println!(
        "  traits: max fanout {}, depth {}, enable-regs {:.0}%, {} module paths",
        traits.max_fanout,
        traits.logic_depth,
        traits.enable_reg_fraction * 100.0,
        traits.module_paths
    );
    println!(
        "  levers: buffering={} retiming={} ungrouping={} gating={}",
        traits.high_fanout(),
        traits.deep_logic(),
        traits.hierarchical(),
        traits.enable_heavy()
    );
    Ok(())
}

fn cmd_customize(rest: &[&str]) -> Result<(), String> {
    let name = positional(rest).ok_or("customize needs a design name")?;
    let design = find_design(name)?;
    let request = opt(rest, "--request").unwrap_or("optimize timing at the fixed clock");
    let seed: u64 =
        opt(rest, "--seed").unwrap_or("0").parse().map_err(|_| "--seed must be an integer")?;
    let db = open_db(rest)?;
    let chatls = ChatLs::new(&db);
    eprintln!("running baseline synthesis for the report…");
    let task = prepare_task(&design, request);
    let outcome = chatls.customize(&design, &task, seed);
    if flag(rest, "--trace") {
        for step in &outcome.trace.steps {
            eprintln!("T{}: {}", step.index, step.thought);
            if !step.revision.is_empty() {
                eprintln!("    revision: {}", step.revision);
            }
        }
        eprintln!();
    }
    print!("{}", outcome.trace.script);
    Ok(())
}

fn cmd_evaluate(rest: &[&str]) -> Result<(), String> {
    let name = positional(rest).ok_or("evaluate needs a design name")?;
    let design = find_design(name)?;
    let k: u64 = opt(rest, "--k").unwrap_or("5").parse().map_err(|_| "--k must be an integer")?;
    let db = open_db(rest)?;
    let chatls = ChatLs::new(&db);
    let gpt = gpt_like();
    let claude = claude_like();
    let task = prepare_task(&design, "optimize timing at the fixed clock");
    println!(
        "{name}: baseline wns {:.2} cps {:.2} area {:.0} (clock {:.2} ns)\n",
        task.baseline.wns, task.baseline.cps, task.baseline.area, task.period
    );
    println!("{:<26} {:>8} {:>8} {:>12} {:>7}", "model", "WNS", "CPS", "Area", "valid");
    for model in [&gpt as &dyn Generator, &claude, &chatls] {
        let row = pass_at_k(model, &design, &task, k);
        println!(
            "{:<26} {:>8.2} {:>8.2} {:>12.1} {:>5}/{k}",
            row.model, row.wns, row.cps, row.area, row.valid_samples
        );
    }
    Ok(())
}

fn cmd_lint(rest: &[&str]) -> Result<(), String> {
    if let Some(code) = opt(rest, "--explain") {
        return explain_lint_rule(code);
    }
    let path = positional(rest).ok_or("lint needs a script file (or '-' for stdin)")?;
    let src = if path == "-" {
        use std::io::Read;
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).map_err(|e| format!("reading stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
    };
    let report = match opt(rest, "--design") {
        Some(name) => {
            let design = find_design(name)?;
            chatls_lint::lint_script_for_design(&src, &design.netlist())
        }
        None => chatls_lint::lint_script(&src),
    };
    if flag(rest, "--fix") {
        let out = chatls_lint::repair_script(&src);
        for f in &out.fixes {
            eprintln!("fix: {f}");
        }
        print!("{}", out.script);
        return if out.remaining.has_errors() {
            Err(format!("{} error(s) not auto-fixable", out.remaining.error_count()))
        } else {
            Ok(())
        };
    }
    if flag(rest, "--json") {
        println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
    } else {
        for d in &report.diagnostics {
            println!("{path}:{}: {}[{}]: {}", d.line, d.severity, d.code, d.message);
            if let Some(s) = &d.suggestion {
                println!("    suggestion: {s}");
            }
        }
        println!("{} error(s), {} warning(s)", report.error_count(), report.warning_count());
    }
    if report.has_errors() {
        Err(format!("{} lint error(s) in {path}", report.error_count()))
    } else {
        Ok(())
    }
}

/// `chatls lint --explain <CODE>`: prints a rule's registered rationale,
/// a minimal example that trips it, and the recommended fix. `--explain
/// all` lists every registered rule.
fn explain_lint_rule(code: &str) -> Result<(), String> {
    if code.eq_ignore_ascii_case("all") {
        for c in chatls_lint::all_rule_codes() {
            let r = chatls_lint::explain_rule(c).expect("registered code");
            println!("{:<6} {}", r.code, r.title);
        }
        return Ok(());
    }
    let Some(r) = chatls_lint::explain_rule(code) else {
        return Err(format!(
            "unknown rule '{code}' (run `chatls lint --explain all` for the list)"
        ));
    };
    println!("{} — {}", r.code, r.title);
    println!("\nwhy:\n  {}", r.rationale.replace('\n', "\n  "));
    println!("\nexample:\n  {}", r.example.trim_end().replace('\n', "\n  "));
    println!("\nfix:\n  {}", r.fix.replace('\n', "\n  "));
    Ok(())
}

fn cmd_serve(rest: &[&str]) -> Result<(), String> {
    fn numeric<T: std::str::FromStr>(rest: &[&str], name: &str, default: T) -> Result<T, String> {
        match opt(rest, name) {
            Some(v) => v.parse().map_err(|_| format!("{name} must be a number")),
            None => Ok(default),
        }
    }
    let defaults = chatls_serve::ServeConfig::default();
    let shard_port: Option<u16> = opt(rest, "--shard-port")
        .map(|v| v.parse().map_err(|_| "--shard-port must be a port number".to_string()))
        .transpose()?;
    let addr = match shard_port {
        Some(port) => format!("127.0.0.1:{port}"),
        None => opt(rest, "--addr").unwrap_or("127.0.0.1:8080").to_string(),
    };
    let config = chatls_serve::ServeConfig {
        addr,
        workers: numeric(rest, "--workers", defaults.workers)?,
        queue_depth: numeric(rest, "--queue-depth", defaults.queue_depth)?,
        timeout_ms: numeric(rest, "--timeout-ms", defaults.timeout_ms)?,
    };
    let shards: usize = numeric(rest, "--shards", 0)?;
    if shards > 0 {
        return cmd_serve_cluster(rest, config, shards);
    }
    let max_sessions: usize = numeric(rest, "--max-sessions", 16)?;
    let no_warm = flag(rest, "--no-warm");
    let db = open_db(rest)?;
    let mut service = chatls::ChatLsService::new(db, max_sessions);
    // Shard mode (spawned by the --shards supervisor): /healthz and
    // /v1/version report this shard's id.
    if let Some(id) = opt(rest, "--shard-id") {
        let id: usize = id.parse().map_err(|_| "--shard-id must be a number".to_string())?;
        service = service.with_shard(id);
    }
    let service = std::sync::Arc::new(service);
    chatls_serve::install_signal_handlers();
    let server = chatls_serve::Server::bind(config, std::sync::Arc::clone(&service) as _)
        .map_err(|e| format!("binding listener: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("resolving bound address: {e}"))?;
    // Speculative warming: pre-build the benchmark catalog in the
    // background so early traffic skips the cold template build. The
    // token fires once the server has drained, stopping the warmer at
    // its next build boundary. Disable with --no-warm.
    let warm_cancel = chatls_exec::CancelToken::new();
    let warmer = if no_warm { None } else { Some(service.spawn_warmer(warm_cancel.clone())) };
    eprintln!("chatls serve listening on http://{addr} (ctrl-c or SIGTERM to drain and stop)");
    let served = server.run().map_err(|e| format!("serving: {e}"));
    warm_cancel.cancel();
    if let Some(warmer) = warmer {
        let _ = warmer.join();
    }
    served
}

/// `chatls mcp`: the MCP tool server over stdio. Speaks JSON-RPC 2.0 —
/// newline-delimited or `Content-Length`-framed, sniffed per message —
/// and dispatches `tools/call` into the same [`chatls::ChatLsService`]
/// the HTTP daemon serves, so tool results are byte-identical to the
/// CLI subcommands and `/v1/*` endpoints. Stdout carries only protocol
/// frames; diagnostics go to stderr.
fn cmd_mcp(rest: &[&str]) -> Result<(), String> {
    let max_sessions: usize = match opt(rest, "--max-sessions") {
        Some(v) => v.parse().map_err(|_| "--max-sessions must be a number")?,
        None => 16,
    };
    let db = open_db(rest)?;
    let service = chatls::ChatLsService::new(db, max_sessions);
    eprintln!("chatls mcp serving tools on stdio (EOF to exit)");
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    chatls_mcp::serve_stdio(&service, stdin.lock(), stdout.lock())
        .map_err(|e| format!("mcp stdio: {e}"))
}

/// `chatls serve --shards N`: the cluster supervisor. Spawns N shard
/// processes (this same binary with `--shard-id`/`--shard-port`
/// appended and the cluster-level flags stripped), serves the
/// consistent-hash router on the front address, and respawns shards that
/// die. All other `serve` flags pass through to every shard.
fn cmd_serve_cluster(
    rest: &[&str],
    config: chatls_serve::ServeConfig,
    shards: usize,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("resolving own binary: {e}"))?;
    // Forward everything except the flags the supervisor owns.
    let mut forwarded: Vec<String> = Vec::new();
    let supervisor_flags = ["--shards", "--addr", "--workers", "--queue-depth"];
    let mut i = 0;
    while i < rest.len() {
        if supervisor_flags.contains(&rest[i]) {
            i += 2; // skip flag + value
            continue;
        }
        forwarded.push(rest[i].to_string());
        i += 1;
    }
    let opts =
        chatls::ClusterOpts { config, shards, cluster: chatls_serve::ClusterConfig::default() };
    chatls::run_cluster(
        opts,
        move |id, port| {
            std::process::Command::new(&exe)
                .arg("serve")
                .args(["--shard-id", &id.to_string()])
                .args(["--shard-port", &port.to_string()])
                .args(&forwarded)
                .spawn()
        },
        |addr| {
            eprintln!(
                "chatls serve routing {shards} shards on http://{addr} \
                 (ctrl-c or SIGTERM to drain and stop)"
            );
        },
    )
}

fn cmd_designs() -> Result<(), String> {
    println!("benchmark designs (paper Table IV):");
    for d in chatls_designs::benchmarks() {
        println!(
            "  {:<14} {:<30} clock {:.2} ns",
            d.name,
            d.category.to_string(),
            d.default_period
        );
    }
    println!("database designs (paper Table II):");
    for d in chatls_designs::database_designs() {
        println!(
            "  {:<14} {:<30} clock {:.2} ns",
            d.name,
            d.category.to_string(),
            d.default_period
        );
    }
    Ok(())
}
