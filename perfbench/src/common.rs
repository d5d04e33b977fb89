//! Pieces every workload shares: the in-process serving stack, repeated
//! set-up, the timed closed loop, QoR comparison and the report.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use chatls::eval::QorCache;
use chatls::{ChatLsService, DbConfig, ExpertDatabase};
use chatls_designs::GeneratedDesign;
use chatls_serve::{AppHandler, ServeConfig, Server, ShutdownHandle};
use chatls_synth::{QorReport, SessionBuilder, SessionTemplate, SynthSession};
use serde_json::Value;

use crate::{alloc, gen, http, stats};

/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// `chatls serve` with no DB file, default flags and `--no-warm`: a
/// quick expert DB, default [`ServeConfig`] on a free port, the default
/// pool capacity and no warmer thread.
pub struct Stack {
    pub service: Arc<ChatLsService>,
    pub addr: String,
    shutdown: ShutdownHandle,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Stack {
    /// Builds the DB and starts the server; also returns the DB build
    /// seconds (the `database.build_s` layer).
    fn start() -> (Stack, f64) {
        let t = Instant::now();
        let db = ExpertDatabase::build(&DbConfig::quick());
        let db_s = t.elapsed().as_secs_f64();
        let service = Arc::new(ChatLsService::new(db, gen::POOL_CAPACITY));
        let config = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
        let handler: Arc<dyn AppHandler> = service.clone();
        let server = Server::bind(config, handler).expect("bind a free local port");
        let addr = server.local_addr().expect("bound address").to_string();
        let shutdown = server.shutdown_handle();
        let server = std::thread::spawn(move || server.run());
        (Stack { service, addr, shutdown, server }, db_s)
    }

    /// Drains the server and joins its thread.
    pub fn stop(self) {
        self.shutdown.shutdown();
        self.server.join().expect("server thread panicked").expect("server loop failed");
    }

    pub fn db(&self) -> &ExpertDatabase {
        self.service.db()
    }
}

/// Set-up timings of the [`SETUP_REPS`] repetitions.
pub struct Setup {
    pub setup_s: Vec<f64>,
    pub db_build_s: Vec<f64>,
}

/// Sets the stack up [`SETUP_REPS`] times, each from a cleared QorCache:
/// DB build, server start and `warm`. Every repetition but the last is
/// stopped again; the last one's stack and warm-up result are returned.
pub fn set_up<W>(warm: impl Fn(&Stack) -> W) -> (Stack, W, Setup) {
    let mut setup = Setup { setup_s: Vec::new(), db_build_s: Vec::new() };
    for rep in 0..SETUP_REPS {
        QorCache::global().clear();
        let t = Instant::now();
        let (stack, db_s) = Stack::start();
        let warmed = warm(&stack);
        setup.setup_s.push(t.elapsed().as_secs_f64());
        setup.db_build_s.push(db_s);
        if rep + 1 == SETUP_REPS {
            return (stack, warmed, setup);
        }
        stack.stop();
    }
    unreachable!("SETUP_REPS is positive")
}

/// What the timed phase measured.
pub struct Timed<T> {
    /// Per client, per op: the client's record.
    pub records: Vec<Vec<T>>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_heap_bytes: usize,
    /// `/metrics` counters after minus before.
    pub delta: HashMap<String, f64>,
}

impl<T> Timed<T> {
    pub fn delta(&self, name: &str) -> f64 {
        self.delta.get(name).copied().unwrap_or(0.0)
    }

    pub fn ops(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }
}

/// The closed loop: one thread per client walks its own op list, sending
/// the next op only after the previous reply. Wall time, process CPU and
/// the heap high-water cover exactly this phase; `/metrics` is read just
/// before and just after it.
pub fn timed<O: Sync, T: Send>(
    addr: &str,
    clients: &[Vec<O>],
    op: impl Fn(usize, &O) -> T + Sync,
) -> Timed<T> {
    let before = http::metrics(addr);
    alloc::reset_peak();
    let cpu0 = stats::process_cpu_s();
    let t0 = Instant::now();
    let records = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let op = &op;
                s.spawn(move || ops.iter().map(|o| op(c, o)).collect::<Vec<T>>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu0;
    let peak_heap_bytes = alloc::peak_bytes();
    let after = http::metrics(addr);
    let delta = after.iter().map(|(k, v)| (k.clone(), v - before.get(k).unwrap_or(&0.0))).collect();
    Timed { records, wall_s, cpu_s, peak_heap_bytes, delta }
}

/// Runs `f` over `items` on two threads (the machine's core count the
/// benchmark is sized for), keeping input order.
pub fn par_map<I: Sync, R: Send>(items: &[I], f: impl Fn(&I) -> R + Sync) -> Vec<R> {
    let mid = items.len().div_ceil(2);
    let (a, b) = items.split_at(mid);
    std::thread::scope(|s| {
        let f = &f;
        let left = s.spawn(move || a.iter().map(f).collect::<Vec<R>>());
        let mut out: Vec<R> = b.iter().map(f).collect();
        let mut all = left.join().expect("reference worker panicked");
        all.append(&mut out);
        all
    })
}

/// A QoR as bits, for bitwise comparison of served and reference runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Qor {
    bits: [u64; 7],
}

impl Qor {
    pub fn of(r: &QorReport) -> Qor {
        Qor {
            bits: [
                r.wns.to_bits(),
                r.cps.to_bits(),
                r.tns.to_bits(),
                r.area.to_bits(),
                r.leakage.to_bits(),
                r.cells as u64,
                r.registers as u64,
            ],
        }
    }

    /// From a served `qor` object (shortest round-trip floats, so the
    /// bits survive JSON).
    pub fn from_json(v: &Value) -> Option<Qor> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64).map(f64::to_bits);
        let u = |k: &str| v.get(k).and_then(Value::as_u64);
        Some(Qor {
            bits: [
                f("wns")?,
                f("cps")?,
                f("tns")?,
                f("area")?,
                f("leakage")?,
                u("cells")?,
                u("registers")?,
            ],
        })
    }

    pub fn cps(&self) -> f64 {
        f64::from_bits(self.bits[1])
    }
}

/// A freshly built template for `design` (never the served pool's).
pub fn fresh_template(design: &GeneratedDesign) -> SessionTemplate {
    SessionBuilder::new(design.netlist(), chatls_liberty::nangate45())
        .template()
        .expect("catalog designs map onto the library")
}

/// A finished run's critical path as the session feedback rule reads
/// it: the distinct module paths along it, and whether it starts at an
/// input port.
pub fn critical_path(session: &mut SynthSession) -> (Vec<String>, bool) {
    let timing = session.timing_report();
    let mut modules: Vec<String> = Vec::new();
    for step in &timing.critical_path {
        if !modules.contains(&step.module_path) {
            modules.push(step.module_path.clone());
        }
    }
    (modules, timing.critical_path.first().map(|s| s.cell.is_empty()).unwrap_or(false))
}

/// Output checks every returned script must pass: the design's period is
/// kept and lint finds no errors.
pub fn script_ok(script: &str, period: f64) -> bool {
    chatls::llm::respects_fixed_period(script, period)
        && !chatls_lint::lint_script(script).has_errors()
}

/// `100 × (cps − baseline) / period`: a script's CPS gain over the
/// design's baseline script, in percent of the clock period.
pub fn gain_pct(cps: f64, baseline_cps: f64, period: f64) -> f64 {
    100.0 * (cps - baseline_cps) / period
}

/// A shape assertion: the run stopped being its workload. Fatal — the
/// benchmark exits without reporting numbers.
pub fn shape(ok: bool, what: &str) {
    if !ok {
        eprintln!("shape assertion failed: {what}");
        std::process::exit(3);
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One workload run's result.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// `name → (value, unit)` in print order.
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }
}

/// End-to-end metrics common to every workload.
pub struct EndToEnd<'a> {
    pub setup: &'a Setup,
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_heap_bytes: usize,
    pub qor_gain_pct: f64,
    pub tail_q: f64,
}

impl EndToEnd<'_> {
    pub fn fill(self, report: &mut Report, workload: &str) {
        let n = self.latencies_ms.len();
        let sorted = stats::sorted(self.latencies_ms);
        let tail = stats::quantile(&sorted, self.tail_q);
        let admitted = stats::tail_percentile(n).map_or(0.0, |q| q * 100.0);
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        println!(
            "{workload}: tail_ms is p{:.0} over {n} ops ({} beyond it; the count admits up to \
             p{admitted:.0}); setup_s reps {:?}; {cores} cores available",
            self.tail_q * 100.0,
            stats::beyond(n, self.tail_q),
            self.setup.setup_s
        );
        report.set("setup_s", stats::median(&self.setup.setup_s), "s");
        report.set("p50_ms", stats::quantile(&sorted, 0.5), "ms");
        report.set("tail_ms", tail, "ms");
        report.set("ops_per_s", n as f64 / self.wall_s, "1/s");
        report.set("cpu_ms_per_op", self.cpu_s * 1e3 / n as f64, "ms");
        report.set("peak_heap_mib", self.peak_heap_bytes as f64 / (1024.0 * 1024.0), "MiB");
        report.set("qor_cps_gain_pct", self.qor_gain_pct, "%");
    }
}
