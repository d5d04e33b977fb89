//! Criterion benchmarks for the synthesis execution engine: `run_script`
//! (fresh session vs. a reusable [`SessionTemplate`]), full vs. incremental
//! STA on the largest catalog design, timing-driven sizing with and without
//! the persistent timing graph, one GNN training epoch, and the tensor
//! matmul kernel.
//!
//! Uses a custom `main` instead of `criterion_main!` so the recorded
//! measurements can be written to `BENCH_synth.json` at the workspace root
//! — the perf trajectory is tracked in-tree from this PR onward. In test
//! mode (`cargo bench -- --test`) every routine runs once, untimed, no file
//! is written, and the CI guards still run — the pipeline fails if a clean
//! repeated query stops hitting the incremental cache, or if obs recording
//! adds measurable overhead to the incremental-STA hot path.

use chatls::eval::{run_script_in, session_template};
use chatls_gnn::{train, TrainConfig};
use chatls_synth::passes::size_cells;
use chatls_synth::sta::{self, Constraints};
use chatls_synth::{MappedDesign, TimingGraph, TimingView, NO_CELL};
use chatls_tensor::Matrix;
use criterion::{BenchResult, Criterion};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use std::hint::black_box;

const SCRIPT: &str = "create_clock -period 9.0 [get_ports clk]\n\
                      compile -map_effort high\n\
                      report_qor\n";

/// The trial path: fft at its 1.5 ns catalog clock runs eight QoR-gated
/// trials (the compile buffer trial, the retime moves, `balance_buffers`)
/// and rolls one of them back.
const RETIME_SCRIPT: &str = "create_clock -period 1.5 [get_ports clk]\n\
                             compile -map_effort high\n\
                             optimize_registers\n\
                             balance_buffers\n\
                             report_qor\n";

fn bench_run_script(c: &mut Criterion) {
    let design = chatls_designs::by_name("aes").expect("catalog design");

    // Cold path: parse + lower + map the netlist for every script run.
    c.bench_function("synth/run_script_aes_fresh_session", |b| {
        b.iter(|| {
            let template = session_template(black_box(&design));
            run_script_in(&template, black_box(SCRIPT))
        })
    });

    // Warm path: build the template once, stamp cheap sessions per run —
    // the `pass_at_k` / database-build regime after the SessionTemplate
    // split. Each run stamps from a fresh scope, so it is the run that
    // fills the scope's cleanup memo: it cleans the pristine design.
    let template = session_template(&design);
    c.bench_function("synth/run_script_aes_from_template", |b| {
        b.iter(|| run_script_in(&black_box(&template).scoped(), black_box(SCRIPT)))
    });
    // A later run in the same scope adopts the cleaned design instead.
    let filled = template.scoped();
    run_script_in(&filled, SCRIPT);
    c.bench_function("synth/run_script_aes_memo_hit", |b| {
        b.iter(|| run_script_in(black_box(&filled), black_box(SCRIPT)))
    });

    let fft = session_template(&chatls_designs::by_name("fft").expect("catalog design"));
    c.bench_function("synth/run_script_fft_retime_from_template", |b| {
        b.iter(|| run_script_in(&black_box(&fft).scoped(), black_box(RETIME_SCRIPT)))
    });
}

fn bench_sta(c: &mut Criterion) {
    // swerv is the largest Table IV catalog design.
    let design = chatls_designs::by_name("swerv").expect("catalog design");
    let template = session_template(&design);
    let mut session = template.session();

    // From-scratch analysis on every iteration — the pre-incremental cost.
    c.bench_function("synth/full_sta_swerv", |b| {
        b.iter(|| {
            sta::analyze(
                black_box(session.design()),
                session.library(),
                black_box(session.constraints()),
            )
        })
    });
    // The session path: served from the persistent graph once warm.
    c.bench_function("synth/qor_swerv", |b| b.iter(|| black_box(&mut session).qor()));
}

/// Upsizes and immediately downsizes one critical gate per iteration so the
/// design returns to its starting state; `query` is charged with making the
/// timing report current again after each pair of edits.
fn resize_roundtrip(
    design: &mut MappedDesign,
    graph: &mut TimingGraph,
    lib: &chatls_liberty::Library,
    cons: &Constraints,
    victims: &[usize],
    i: usize,
    full_recompute: bool,
) -> f64 {
    let gi = victims[i % victims.len()];
    let graph_query = |d: &mut MappedDesign, g: &mut TimingGraph, gi: usize, up: bool| {
        let mut view = TimingView::new(d, g, lib, cons);
        let next = lib.next_drive(view.design().cells[gi], up).expect("drive step");
        view.resize_cell(gi, next);
        view.report().wns
    };
    if full_recompute {
        let up = lib.next_drive(design.cells[gi], true).expect("drive step");
        design.cells[gi] = up;
        let w1 = sta::analyze(design, lib, cons).wns;
        let down = lib.next_drive(design.cells[gi], false).expect("drive step");
        design.cells[gi] = down;
        w1 + sta::analyze(design, lib, cons).wns
    } else {
        graph_query(design, graph, gi, true) + graph_query(design, graph, gi, false)
    }
}

fn bench_incremental_sta(c: &mut Criterion) {
    let design = chatls_designs::by_name("swerv").expect("catalog design");
    let template = session_template(&design);
    let lib = template.library().clone();
    let cons = Constraints { clock_period: 0.9, ..Constraints::default() };
    let mut mapped = template.design().clone();
    // Gates that can step a drive strength both ways.
    let victims: Vec<usize> = (0..mapped.netlist.gates.len())
        .filter(|&gi| {
            !mapped.is_dead(gi)
                && lib.next_drive(mapped.cells[gi], true).is_some()
                && !mapped.netlist.gates[gi].kind.is_sequential()
        })
        .take(64)
        .collect();
    assert!(!victims.is_empty(), "swerv must have resizable gates");

    let mut graph = TimingGraph::new();
    {
        // Warm build outside the timed region.
        let mut view = TimingView::new(&mut mapped, &mut graph, &lib, &cons);
        view.report();
    }
    let mut i = 0usize;
    c.bench_function("synth/incremental_sta_resize_swerv", |b| {
        b.iter(|| {
            i += 1;
            resize_roundtrip(&mut mapped, &mut graph, &lib, &cons, &victims, i, false)
        })
    });
    let mut j = 0usize;
    c.bench_function("synth/full_recompute_resize_swerv", |b| {
        b.iter(|| {
            j += 1;
            resize_roundtrip(&mut mapped, &mut graph, &lib, &cons, &victims, j, true)
        })
    });
}

/// The pre-incremental `size_cells` loop: a fresh full `analyze` and
/// `slack_map` per round, exactly as the pass ran before the persistent
/// timing graph (the comparison baseline for `size_cells_rounds_aes`).
fn size_cells_full_recompute(
    design: &mut MappedDesign,
    library: &chatls_liberty::Library,
    constraints: &Constraints,
    rounds: usize,
) -> usize {
    let mut resized = 0usize;
    for _ in 0..rounds {
        let before = sta::analyze(design, library, constraints);
        if before.cps >= constraints.critical_range.max(0.0) {
            break;
        }
        let slacks = sta::slack_map(design, library, constraints);
        let threshold = before.cps + constraints.critical_range;
        let snapshot = design.cells.clone();
        let mut any = false;
        for gi in 0..design.netlist.gates.len() {
            if design.is_dead(gi) || design.cells[gi] == NO_CELL {
                continue;
            }
            let out = design.netlist.gates[gi].output;
            if slacks.slack(out) > threshold {
                continue;
            }
            if let Some(next) = library.next_drive(design.cells[gi], true) {
                design.cells[gi] = next;
                resized += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
        let after = sta::analyze(design, library, constraints);
        if after.cps < before.cps {
            design.cells = snapshot;
            break;
        }
    }
    resized
}

fn bench_size_cells(c: &mut Criterion) {
    let design = chatls_designs::by_name("aes").expect("catalog design");
    let template = session_template(&design);
    let lib = template.library().clone();
    let cons = Constraints { clock_period: 0.7, ..Constraints::default() };
    let reference = template.design().clone();

    c.bench_function("synth/size_cells_rounds_aes", |b| {
        b.iter(|| {
            let mut d = reference.clone();
            let mut g = TimingGraph::new();
            let mut view = TimingView::new(&mut d, &mut g, &lib, &cons);
            black_box(size_cells(&mut view, 4))
        })
    });
    c.bench_function("synth/size_cells_rounds_aes_full_recompute", |b| {
        b.iter(|| {
            let mut d = reference.clone();
            black_box(size_cells_full_recompute(&mut d, &lib, &cons, 4))
        })
    });
}

/// CI guard: a clean repeated query on an unmodified design must be served
/// from the incremental cache, never by a fresh rebuild. Runs in both bench
/// and `--test` smoke mode, so the pipeline fails if the incremental path
/// regresses to full recomputation.
fn assert_clean_design_hits_cache() {
    let design = chatls_designs::by_name("dynamic_node").expect("catalog design");
    let template = session_template(&design);
    let lib = template.library().clone();
    let cons = Constraints { clock_period: 0.9, ..Constraints::default() };
    let mut mapped = template.design().clone();
    let mut graph = TimingGraph::new();
    {
        let mut view = TimingView::new(&mut mapped, &mut graph, &lib, &cons);
        view.report();
        view.report();
        view.qor();
        view.slack_map();
    }
    let stats = graph.stats();
    assert_eq!(
        stats.full_builds, 1,
        "clean design rebuilt {} times: the incremental path fell back to full recompute",
        stats.full_builds
    );
    assert!(
        stats.clean_hits >= 3,
        "expected >=3 clean-cache hits on an unmodified design, saw {}",
        stats.clean_hits
    );
}

/// CI guard: telemetry must be observation-only. The incremental-STA resize
/// loop touches the obs registry on every query (`synth.sta.*` counters), so
/// timing it with recording enabled vs. paused bounds the whole substrate's
/// hot-path cost. Paused and recording samples interleave, each round
/// timing the same round trip once per side in alternating order, so that
/// a slow spell on a shared box lands on both sides alike; min-of-N per
/// side filters the rest of the scheduler noise. The 5% relative bound
/// carries a small absolute slack because 5% of a ~2ms roundtrip is close
/// to timer jitter on a loaded CI box. Up to three attempts, as in
/// [`assert_under_budget`]: a genuine regression fails all three.
fn assert_obs_overhead_negligible() {
    let design = chatls_designs::by_name("swerv").expect("catalog design");
    let template = session_template(&design);
    let lib = template.library().clone();
    let cons = Constraints { clock_period: 0.9, ..Constraints::default() };
    let mut mapped = template.design().clone();
    let victims: Vec<usize> = (0..mapped.netlist.gates.len())
        .filter(|&gi| {
            !mapped.is_dead(gi)
                && lib.next_drive(mapped.cells[gi], true).is_some()
                && !mapped.netlist.gates[gi].kind.is_sequential()
        })
        .take(64)
        .collect();
    let mut graph = TimingGraph::new();
    {
        let mut view = TimingView::new(&mut mapped, &mut graph, &lib, &cons);
        view.report();
    }

    let mut sample = |paused: bool, i: usize| {
        chatls_obs::pause_recording(paused);
        let start = std::time::Instant::now();
        black_box(resize_roundtrip(&mut mapped, &mut graph, &lib, &cons, &victims, i, false));
        let ns = start.elapsed().as_nanos() as u64;
        chatls_obs::pause_recording(false);
        ns
    };
    // `(paused, recording)` minimum over 12 interleaved rounds.
    let mut interleaved_min = || {
        let (mut paused_ns, mut recording_ns) = (u64::MAX, u64::MAX);
        for i in 0..12 {
            let order = if i % 2 == 0 { [true, false] } else { [false, true] };
            for paused in order {
                let ns = sample(paused, i);
                let side = if paused { &mut paused_ns } else { &mut recording_ns };
                *side = (*side).min(ns);
            }
        }
        (paused_ns, recording_ns)
    };
    // A warm-up round so that both sides measure the same cache state.
    interleaved_min();
    let mut last = (0, 0, 0);
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let (paused_ns, recording_ns) = interleaved_min();
        let bound_ns = paused_ns + paused_ns / 20 + 200_000;
        if recording_ns <= bound_ns {
            return;
        }
        last = (recording_ns, paused_ns, bound_ns);
    }
    let (recording_ns, paused_ns, bound_ns) = last;
    panic!(
        "obs recording overhead too high in 3 attempts: {recording_ns} ns recording vs \
         {paused_ns} ns paused (bound {bound_ns} ns)"
    );
}

/// The scripts the ScriptIR timing budget is written against: one
/// baseline script per benchmark design, plus the report/dead-write
/// shapes the semantic rules have to walk.
fn catalog_lint_scripts() -> Vec<String> {
    let mut scripts: Vec<String> = chatls_designs::benchmarks()
        .iter()
        .map(|d| chatls::baseline_script(d.default_period))
        .collect();
    scripts.push(
        "create_clock -period 2.0 [get_ports clk]\nset_max_fanout 16\nset_max_fanout 8\n\
         set_input_delay 0.2 [all_inputs]\ncompile\ncompile\nreport_qor\nungroup -all\n"
            .to_string(),
    );
    scripts
}

fn bench_lint(c: &mut Criterion) {
    let scripts = catalog_lint_scripts();
    // Full semantic pass: mechanical rules + ScriptIR abstract
    // interpretation + prove-safe canonicalization, over the catalog.
    c.bench_function("lint/scriptir_catalog", |b| {
        b.iter(|| {
            for s in &scripts {
                black_box(chatls_lint::lint_script(black_box(s)));
                black_box(chatls_lint::canonical_script(black_box(s)));
            }
        })
    });
}

/// CI guard: semantic analysis rides the serve admission path (every
/// `/v1/eval` script is linted before a session is burned), so one full
/// catalog pass must stay well under the request budget. Min-of-N
/// filters scheduler noise; 5 ms is ~50x the measured cost, failing
/// only on an algorithmic regression (e.g. the interpreter going
/// quadratic), not on a noisy box.
fn assert_scriptir_analysis_fast() {
    let scripts = catalog_lint_scripts();
    let mut best = u64::MAX;
    for _ in 0..10 {
        let start = std::time::Instant::now();
        for s in &scripts {
            black_box(chatls_lint::lint_script(black_box(s)));
            black_box(chatls_lint::canonical_script(black_box(s)));
        }
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    assert!(
        best < 5_000_000,
        "catalog semantic analysis took {best} ns (budget 5 ms): ScriptIR regressed"
    );
}

fn bench_gnn_epoch(c: &mut Criterion) {
    let corpus = chatls_designs::database_designs();
    let graphs: Vec<_> =
        corpus.iter().map(|d| chatls::build_circuit_graph(d).feature_graph).collect();
    let labels: Vec<u32> = {
        let mut cats: Vec<String> = Vec::new();
        corpus
            .iter()
            .map(|d| {
                let cat = d.category.to_string();
                match cats.iter().position(|c| *c == cat) {
                    Some(i) => i as u32,
                    None => {
                        cats.push(cat);
                        (cats.len() - 1) as u32
                    }
                }
            })
            .collect()
    };
    let config = TrainConfig {
        dims: vec![chatls::features::FEATURE_DIM, 32, 16],
        epochs: 1,
        ..TrainConfig::default()
    };

    c.bench_function("gnn/train_one_epoch_catalog", |b| {
        b.iter(|| train(black_box(&graphs), black_box(&labels), black_box(&config)))
    });
}

/// What the speed probe measures on the reference box when idle. Guard
/// budgets were written against that box; the probe re-measures it at
/// guard time so the budgets track the machine actually running them.
const PROBE_BASELINE_NS: u64 = 530_000;

/// Calibration probe: a plain autovectorized saxpy matmul at the guard
/// shape — the pre-SIMD baseline kernel. Budgets scale by how much
/// slower this probe runs than [`PROBE_BASELINE_NS`], so a shared-box
/// slow spell (or a slower CI host) stretches every budget uniformly
/// while a regression in a guarded kernel — which slows it relative to
/// the probe, not with it — still fails.
fn speed_probe_ns(a: &Matrix, b: &Matrix) -> u64 {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    let t = std::time::Instant::now();
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p];
            let brow = &bd[p * n..p * n + n];
            let orow = &mut out[i * n..i * n + n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    black_box(&out);
    t.elapsed().as_nanos() as u64
}

/// Min-of-N timing with retry: up to three attempts, a short sleep
/// between them, each attempt re-calibrating its budget with the speed
/// probe. Passes as soon as one attempt's best sample lands under the
/// calibrated budget; a genuine regression fails all three.
fn assert_under_budget<F: FnMut()>(name: &str, budget_ns: u64, samples: usize, mut routine: F) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut random = |rows: usize, cols: usize| {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
    };
    let (pa, pb) = (random(128, 256), random(256, 192));
    let mut best = u64::MAX;
    let mut bound = budget_ns;
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let probe = (0..3).map(|_| speed_probe_ns(&pa, &pb)).min().unwrap_or(u64::MAX);
        let scale = (probe as f64 / PROBE_BASELINE_NS as f64).max(1.0);
        bound = bound.max((budget_ns as f64 * scale) as u64);
        for _ in 0..samples {
            let start = std::time::Instant::now();
            routine();
            best = best.min(start.elapsed().as_nanos() as u64);
        }
        if best < bound {
            return;
        }
    }
    panic!(
        "{name} took {best} ns (budget {budget_ns} ns, box-calibrated bound {bound} ns): \
         the fast path regressed"
    );
}

/// CI guard: the register-tiled SIMD matmul must hold its measured
/// speedup. 128x256x192 runs ~240-270 us on the AVX-512 path (~530 us
/// autovectorized baseline); 300 us fails the kernel regressing toward
/// scalar-era cost.
fn assert_matmul_fast() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut random = |rows: usize, cols: usize| {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
    };
    let a = random(128, 256);
    let b = random(256, 192);
    assert_under_budget("tensor/matmul_128x256x192", 300_000, 20, || {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
}

/// CI guard: full STA on the largest catalog design (swerv, about 40k
/// gates). The serial arrival walk measures about 3.5 ms on an idle
/// 2-core reference box; 7 ms (scaled by the speed probe) fails a walk
/// or a timing-graph build that doubles its cost.
fn assert_full_sta_fast() {
    let design = chatls_designs::by_name("swerv").expect("catalog design");
    let template = session_template(&design);
    let session = template.session();
    assert_under_budget("synth/full_sta_swerv", 7_000_000, 5, || {
        black_box(sta::analyze(session.design(), session.library(), session.constraints()));
    });
}

/// CI guard: warm-path execution of `script` on `design` from a prebuilt
/// template — the `pass_at_k` / serve regime — timed as the `row` bench.
/// A `memo_hit` run stamps from a scope whose cleanup memo is filled;
/// otherwise each run stamps from a fresh scope and fills its memo.
fn assert_run_script_fast(design: &str, script: &str, row: &str, budget_ns: u64, memo_hit: bool) {
    let template = session_template(&chatls_designs::by_name(design).expect("catalog design"));
    assert!(run_script_in(&template, script).1, "the timed script must run to its end");
    assert_under_budget(row, budget_ns, 5, || {
        let scope = if memo_hit { template.clone() } else { template.scoped() };
        black_box(run_script_in(&scope, black_box(script)));
    });
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut random = |rows: usize, cols: usize| {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
    };
    let a = random(128, 256);
    let b_mat = random(256, 192);

    c.bench_function("tensor/matmul_128x256x192", |b| {
        b.iter(|| black_box(&a).matmul(black_box(&b_mat)))
    });
}

fn main() {
    assert_clean_design_hits_cache();
    assert_obs_overhead_negligible();
    assert_scriptir_analysis_fast();
    assert_matmul_fast();
    assert_full_sta_fast();
    // Best run about 3.0 ms (min of 150 runs on a shared 2-core box);
    // 9 ms, 3x the best, fails only an algorithmic regression (per-gate
    // heap allocation creeping back in, a pass going quadratic).
    let row = "synth/run_script_aes_from_template";
    assert_run_script_fast("aes", SCRIPT, row, 9_000_000, false);
    // The same script adopting a filled cleanup memo: best run about
    // 1.25 ms against 3.0 ms for the run that fills it (min of 150 runs
    // each, same box); 2.5 ms, 2x the best, fails a memo that stops being
    // adopted as well as an algorithmic regression.
    let row = "synth/run_script_aes_memo_hit";
    assert_run_script_fast("aes", SCRIPT, row, 2_500_000, true);
    // The trial path: eight QoR-gated trial edits, one rolled back. Its
    // best run measured 13-17 ms (min of 40 runs on the same box); 35 ms
    // fails an algorithmic regression, and the speed probe stretches it
    // when the box itself runs slow.
    let row = "synth/run_script_fft_retime_from_template";
    assert_run_script_fast("fft", RETIME_SCRIPT, row, 35_000_000, false);

    let mut criterion = Criterion::default().sample_size(20);
    // Pure-compute kernels first: the synthesis benches leave the
    // process with a large churned heap that slows the SIMD kernels by
    // up to ~30% (page-backing/TLB state, not anything the kernel can
    // control), so measuring them afterwards would charge that
    // interference to the kernel.
    bench_matmul(&mut criterion);
    bench_gnn_epoch(&mut criterion);
    bench_run_script(&mut criterion);
    bench_sta(&mut criterion);
    bench_incremental_sta(&mut criterion);
    bench_size_cells(&mut criterion);
    bench_lint(&mut criterion);

    if criterion::is_test_mode() {
        return;
    }
    // This bench owns the whole ledger, so a filtered run, which measures
    // only some rows, leaves it alone.
    if std::env::args().skip(1).any(|a| !a.starts_with('-')) {
        eprintln!("filtered run: BENCH_synth.json left unchanged");
        return;
    }

    #[derive(serde::Serialize)]
    struct Row {
        name: String,
        mean_ns: f64,
        mean_human: String,
        // Best sample — the noise-robust figure the perf ceilings are
        // checked against (the mean wanders 20-40% on a shared box).
        min_ns: f64,
        min_human: String,
        iters: u64,
    }
    let rows: Vec<Row> = criterion
        .results()
        .iter()
        .map(|r: &BenchResult| Row {
            name: r.name.clone(),
            mean_ns: r.mean_ns,
            mean_human: human_time(r.mean_ns),
            min_ns: r.min_ns,
            min_human: human_time(r.min_ns),
            iters: r.iters,
        })
        .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_synth.json");
    let rows: Vec<serde_json::Value> = rows.iter().map(serde::Serialize::serialize).collect();
    match serde_json::to_string_pretty(&serde_json::Value::Seq(rows)) {
        Ok(json) => match std::fs::write(path, json + "\n") {
            Ok(()) => println!("\n[artifact] {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        },
        Err(e) => eprintln!("could not serialize bench results: {e}"),
    }
}

fn human_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}
