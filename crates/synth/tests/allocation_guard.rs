//! Allocation guard: one templated run of each synthesis bench script
//! makes at most a fixed number of heap allocations, and copying a mapped
//! design costs a few buffer copies, not one allocation per gate or net.
//!
//! Wall-clock ceilings depend on the host; allocation counts do not. A
//! counting global allocator tallies the allocations this test's thread
//! makes while a session stamped from a prebuilt template runs the script,
//! so a per-net list or a per-endpoint string that creeps back into the
//! synthesis path fails `cargo test` on any machine. Each script is counted
//! twice: as the run that fills its scope's cleanup memo (a fresh
//! `SessionTemplate::scoped` copy per counted run) and as a run that adopts
//! an already filled memo. The counts are the same in debug and release
//! builds.

use chatls_liberty::nangate45;
use chatls_synth::{MappedDesign, RunResult, SessionBuilder, SessionTemplate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The aes script of `crates/bench/benches/synth.rs` (`SCRIPT`).
const AES_SCRIPT: &str = "create_clock -period 9.0 [get_ports clk]\n\
                          compile -map_effort high\n\
                          report_qor\n";

/// The fft trial script of `crates/bench/benches/synth.rs`
/// (`RETIME_SCRIPT`): eight QoR-gated trials, one rolled back.
const FFT_RETIME_SCRIPT: &str = "create_clock -period 1.5 [get_ports clk]\n\
                                 compile -map_effort high\n\
                                 optimize_registers\n\
                                 balance_buffers\n\
                                 report_qor\n";

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations made while the thread-local is torn down
    // are not this test's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes stamping a session from `scope` and
/// running `script` on it; the run must reproduce `expected`.
fn allocations_of_run(scope: &SessionTemplate, script: &str, expected: &RunResult) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let result = scope.session().run_script(script);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(&result, expected, "every counted run must do the same work");
    allocations
}

/// Allocations this thread makes in one run of `script` on a session
/// stamped from a template of catalog design `design`, as `(the run that
/// fills a scope's cleanup memo, a run that adopts a filled memo)`. An
/// uncounted run comes first, so that the library's lookup tables, built
/// on first use, and the process-wide counters are not charged to the
/// counted ones.
fn allocations_per_run(design: &str, script: &str) -> (u64, u64) {
    let design = chatls_designs::by_name(design).expect("catalog design");
    let template = SessionBuilder::new(design.netlist(), nangate45()).template().expect("maps");
    let warm_up = template.scoped().session().run_script(script);
    assert!(warm_up.ok(), "the counted script must run to its end: {:?}", warm_up.error);
    let filling = allocations_of_run(&template.scoped(), script, &warm_up);
    let filled = template.scoped();
    filled.session().run_script(script);
    assert!(filled.cleanup_memoized(), "a compile fills its scope's memo");
    let memo_hit = allocations_of_run(&filled, script, &warm_up);
    (filling, memo_hit)
}

/// Asserts that one run of `script` on `design` allocates at most
/// `filling` times when it fills its scope's cleanup memo and at most
/// `memo_hit` times when it adopts a filled one.
fn assert_allocations_at_most(design: &str, script: &str, filling: u64, memo_hit: u64) {
    let counted = allocations_per_run(design, script);
    for (run, allocations, ceiling) in
        [("memo-filling", counted.0, filling), ("memo-hit", counted.1, memo_hit)]
    {
        assert!(
            allocations <= ceiling,
            "{design}: one {run} templated run made {allocations} heap allocations (ceiling \
             {ceiling}): a per-net list or a per-endpoint string is back on the synthesis path"
        );
    }
}

// Each ceiling is the measured count plus 10%, rounded up to a hundred:
// room for a new log line or report field, none for a return of per-net
// sink lists or of endpoint names that passes never read.

#[test]
fn aes_compile_script_stays_allocation_lean() {
    // Measured: 1,349 filling (one design copy more than a run without a
    // memo, 1,228: the memo's own), 542 adopting.
    assert_allocations_at_most("aes", AES_SCRIPT, 1_500, 600);
}

#[test]
fn fft_trial_script_stays_allocation_lean() {
    // Measured: 1,590 filling (1,416 without a memo), 985 adopting.
    assert_allocations_at_most("fft", FFT_RETIME_SCRIPT, 1_800, 1_100);
}

/// The copy-on-write detach every stamped session's first edit pays:
/// cloning a mapped design allocates once per port name and module path
/// plus a fixed number of tables, however many gates and nets it has.
#[test]
fn design_copies_allocate_per_port_and_path_not_per_gate() {
    let lib = nangate45();
    let catalog =
        chatls_designs::benchmarks().into_iter().chain(chatls_designs::database_designs());
    for design in catalog {
        let mapped = MappedDesign::map(design.netlist(), &lib).expect("maps");
        let nl = &mapped.netlist;
        let ceiling = (nl.inputs.len() + nl.outputs.len() + nl.paths.len() + 16) as u64;
        let before = ALLOCATIONS.with(Cell::get);
        let copy = mapped.clone();
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert!(copy == mapped);
        assert!(
            allocations <= ceiling,
            "{}: copying the design ({} gates, {} nets) made {allocations} heap allocations \
             (ceiling {ceiling}): a per-gate or per-net heap block is back in the netlist",
            design.name,
            nl.gates.len(),
            nl.nets.len()
        );
    }
}
