//! What the three VM workloads share: the size table, the `Kind` an op
//! belongs to, and the timed window that interleaves kinds and team sizes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zomp::trace::{self, MetricsSnapshot};
use zomp_vm::value::{ArrF, ArrI, Value};
use zomp_vm::{Backend, OptLevel, Vm};

use crate::calib::Calibrator;
use crate::spans::{Spans, NO_PARENT};
use crate::stats::{interleave, Rng};

/// Input sizes: constants, never calibrated at run time. `FULL` was fixed
/// once on the 2-vCPU reference host so that every VM op takes 5-15 ms at
/// a team of 1 (`fork_small`: at a team of 2) with a working set of a few
/// MB: on that host short ops with hundreds of samples per series repeat
/// better than long ones, because a burst of interference then lands on a
/// minority of the samples and the median ignores it, and cache-resident
/// data is less exposed to the neighbours' memory traffic. `QUICK` is for
/// the crate's own tests.
pub struct Sizes {
    pub cg_rows: usize,
    /// Row `j` has `cg_row_base + j * 37 % cg_row_spread` nonzeros, so the
    /// nonzero count does not depend on the seed.
    pub cg_row_base: usize,
    pub cg_row_spread: usize,
    pub cg_reps: i64,
    pub ep_m: i64,
    pub ep_mk: i64,
    pub is_keys_log2: u32,
    pub is_max_key_log2: u32,
    pub is_buckets_log2: u32,
    pub stencil_n: usize,
    pub stencil_reps: i64,
    pub dyn_n: usize,
    pub fork_regions: i64,
    pub chunk_n: usize,
    pub chunk_rounds: i64,
    /// `cg_demo(n, reps, t)`, `ep_demo(m, mk, t)`, `is_demo(nkeys, maxlog,
    /// nblog, t)` scalar arguments of the three resident `zagd` programs.
    pub serve_cg: [i64; 2],
    pub serve_ep: [i64; 2],
    pub serve_is: [i64; 3],
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        // The shape of the NPB class-W CG matrix (7 000 rows) at ~66
        // nonzeros a row: 462 k nonzeros, 7.4 MB of `a` + `colidx`.
        cg_rows: 7_000,
        cg_row_base: 50,
        cg_row_spread: 33,
        cg_reps: 10,
        ep_m: 17,
        ep_mk: 14,
        // NPB class W.
        is_keys_log2: 20,
        is_max_key_log2: 16,
        is_buckets_log2: 10,
        stencil_n: 65_536,
        stencil_reps: 4,
        dyn_n: 30_000,
        fork_regions: 200,
        chunk_n: 20_000,
        chunk_rounds: 10,
        serve_cg: [6_000, 8],
        serve_ep: [13, 8],
        serve_is: [8_192, 11, 5],
    };

    pub const QUICK: Sizes = Sizes {
        cg_rows: 400,
        cg_row_base: 10,
        cg_row_spread: 7,
        cg_reps: 2,
        ep_m: 12,
        ep_mk: 8,
        is_keys_log2: 13,
        is_max_key_log2: 10,
        is_buckets_log2: 4,
        stencil_n: 2_048,
        stencil_reps: 3,
        dyn_n: 3_000,
        fork_regions: 20,
        chunk_n: 2_000,
        chunk_rounds: 5,
        serve_cg: [300, 2],
        serve_ep: [10, 8],
        serve_is: [1_024, 9, 4],
    };
}

/// The execution tier a kind's program is meant to land in; set-up
/// reports (does not enforce) whether it still does.
#[derive(Clone, Copy, PartialEq)]
pub enum Tier {
    /// At least one fixed bulk kernel.
    Kernels,
    /// At least one typed template and no fixed kernel.
    Templates,
    /// Neither: the hot loop stays in the bytecode interpreter.
    Interpreter,
    /// The kind measures the runtime, whatever tier its loop body takes.
    Any,
}

/// One kind of op of a VM workload: a function of a prebuilt `Vm`, its
/// inputs, and the independent reference its outputs are checked against.
pub trait Kind {
    fn name(&self) -> &'static str;
    /// Elements one op processes (for ns per element).
    fn elems(&self) -> u64;
    fn tier(&self) -> Tier;
    /// `(unit, source)` of the program, for the compile decomposition.
    fn source(&self) -> (&'static str, &str);
    fn vm(&self) -> &Vm;
    fn entry(&self) -> &'static str;
    /// Reset accumulating outputs, poison the output canaries and build
    /// the argument list (outside the timed call).
    fn args(&self, threads: usize) -> Vec<Value>;
    /// Compute the expected outputs from code that is not under test.
    fn compute_reference(&mut self);
    fn check(&self, threads: usize, ret: &Value) -> Result<(), String>;
    /// Milliseconds of one run of the hand-written `npb` kernel on the
    /// same inputs (the NPB kinds only; traced runs only).
    fn time_reference(&self) -> Option<f64> {
        None
    }
}

pub struct VmWorkload {
    pub kinds: Vec<Box<dyn Kind>>,
    pub inputs_digest: u64,
}

impl VmWorkload {
    /// The last step of set-up: each kind once at a team of 2, so first-run
    /// lazy work (range-hint scans, hot-team start) is paid here.
    pub fn new(kinds: Vec<Box<dyn Kind>>, inputs_digest: u64) -> VmWorkload {
        for k in &kinds {
            k.vm()
                .call_function(k.entry(), k.args(2))
                .unwrap_or_else(|e| panic!("{}: first run failed: {e}", k.name()));
        }
        VmWorkload {
            kinds,
            inputs_digest,
        }
    }
}

/// Fixed kernels and typed templates installed in a program's image.
pub fn installed(vm: &Vm) -> (usize, usize) {
    let funcs = &vm.program.code.funcs;
    (
        funcs.iter().map(|f| f.kernels.len()).sum(),
        funcs.iter().map(|f| f.templates.len()).sum(),
    )
}

pub fn tier_holds(tier: Tier, kernels: usize, templates: usize) -> bool {
    match tier {
        Tier::Kernels => kernels > 0,
        Tier::Templates => kernels == 0 && templates > 0,
        Tier::Interpreter => kernels == 0 && templates == 0,
        Tier::Any => true,
    }
}

fn build_vm(source: &str, unit: &str, backend: Backend, opt: OptLevel) -> Vm {
    Vm::build(source, Some(unit), backend, opt)
        .unwrap_or_else(|e| panic!("{unit} does not compile: {}", e.render(source)))
}

pub fn native_vm(source: &str, unit: &str) -> Vm {
    build_vm(source, unit, Backend::Native, OptLevel::O3)
}

/// The tree-walking interpreter: the oracle the benchmark's own programs
/// are checked against.
pub fn ast_vm(source: &str, unit: &str) -> Vm {
    build_vm(source, unit, Backend::Ast, OptLevel::O0)
}

pub fn arr_f(values: &[f64]) -> Arc<ArrF> {
    let a = ArrF::new(values.len());
    for (i, &v) in values.iter().enumerate() {
        a.set(i as i64, v).expect("index within the new array");
    }
    Arc::new(a)
}

pub fn arr_i(values: &[i64]) -> Arc<ArrI> {
    let a = ArrI::new(values.len());
    for (i, &v) in values.iter().enumerate() {
        a.set(i as i64, v).expect("index within the new array");
    }
    Arc::new(a)
}

pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Timings of one window, `ms[kind][threads - 1]`.
pub struct Series {
    pub ms: Vec<[Vec<f64>; 2]>,
}

impl Series {
    pub fn new(kinds: usize) -> Series {
        Series {
            ms: (0..kinds).map(|_| [Vec::new(), Vec::new()]).collect(),
        }
    }
}

/// Everything a timed window produced. Times are at reference speed
/// (see [`crate::calib`]) unless said otherwise.
pub struct Window {
    /// Ops run with tracing off: the end-to-end numbers.
    pub plain: Series,
    /// The same ops as the clock read them, for the report only.
    pub raw: Series,
    /// Ops run with tracing on (traced runs alternate rounds).
    pub traced: Series,
    /// `npb` reference timings per kind (traced rounds of the NPB kinds).
    pub reference_ms: Vec<Vec<f64>>,
    /// Runtime counter deltas summed over the counted traced ops.
    pub counters: MetricsSnapshot,
    pub counted_ops: u64,
    /// Wall milliseconds of the counted ops, as the clock read them.
    pub counted_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    pub spans: Vec<Spans>,
    pub wall_s: f64,
}

impl Window {
    pub fn new(kinds: usize) -> Window {
        Window {
            plain: Series::new(kinds),
            raw: Series::new(kinds),
            traced: Series::new(kinds),
            reference_ms: vec![Vec::new(); kinds],
            counters: MetricsSnapshot::default(),
            counted_ops: 0,
            counted_ms: 0.0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            spans: Vec::new(),
            wall_s: 0.0,
        }
    }

    pub fn record(&mut self, name: &str, threads: usize, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!("{name}@t{threads}: {e}"));
            }
        }
    }
}

/// `after - before`, field by field, added into `sum`.
pub fn add_delta(sum: &mut MetricsSnapshot, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    macro_rules! acc {
        ($($f:ident),*) => { $( sum.$f += after.$f - before.$f; )* };
    }
    acc!(
        regions,
        chunks_owned,
        chunks_stolen,
        steal_failures,
        barrier_waits,
        barrier_parks,
        reductions,
        kernel_enters,
        kernel_iters,
        kernel_bails,
        deopts,
        quickens
    );
}

/// One op: the timed part is the single call into the system; argument
/// building and output checking sit outside it. With `rec`, the op, the
/// call and the check are recorded as spans, and the runtime's counters
/// are on for the call.
fn run_op(
    kind: &dyn Kind,
    threads: usize,
    rec: Option<(&mut Spans, u32)>,
) -> (
    f64,
    Result<(), String>,
    Option<(MetricsSnapshot, MetricsSnapshot)>,
) {
    let Some((spans, op_id)) = rec else {
        let args = kind.args(threads);
        let t0 = Instant::now();
        let ret = kind.vm().call_function(kind.entry(), args);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let outcome = ret
            .map_err(|e| e.to_string())
            .and_then(|v| kind.check(threads, &v));
        return (ms, outcome, None);
    };
    let op = spans.begin("op", NO_PARENT, op_id);
    let args = kind.args(threads);
    trace::enable_counters();
    let before = trace::metrics();
    let call = spans.begin("vm.exec", op, op_id);
    let ret = kind.vm().call_function(kind.entry(), args);
    spans.end(call);
    let after = trace::metrics();
    trace::disable_all();
    let outcome = spans.time("check", op, op_id, || {
        ret.map_err(|e| e.to_string())
            .and_then(|v| kind.check(threads, &v))
    });
    spans.end(op);
    (spans.duration_ms(call), outcome, Some((before, after)))
}

/// Run rounds of every kind at teams of 1 and 2 until `seconds` have
/// passed. The order of kinds is a seeded permutation, fixed for the run.
/// With `tracing`, every second round is traced: the two sets of rounds
/// see the same host, so their difference is the tracing overhead.
pub fn run_window(wl: &VmWorkload, seed: u64, seconds: f64, tracing: bool) -> Window {
    let n = wl.kinds.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed, "kind-order");
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let schedule = interleave(n);

    let mut w = Window::new(n);
    let mut calib = Calibrator::new();
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch, 0);
    let deadline = Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    let mut op_id = 0u32;
    while epoch.elapsed() < deadline {
        let traced_round = tracing && round.is_multiple_of(2);
        for &(slot, threads) in &schedule {
            let k = order[slot];
            let kind = wl.kinds[k].as_ref();
            let kernel_ms = calib.measure();
            let rec = traced_round.then_some((&mut spans, op_id));
            let (raw_ms, outcome, counters) = run_op(kind, threads, rec);
            let ms = Calibrator::normalise(raw_ms, kernel_ms);
            op_id += 1;
            w.record(kind.name(), threads, outcome);
            if let Some((before, after)) = counters {
                w.traced.ms[k][threads - 1].push(ms);
                if threads == 2 {
                    add_delta(&mut w.counters, &before, &after);
                    w.counted_ops += 1;
                    w.counted_ms += raw_ms;
                } else if let Some(ref_ms) = kind.time_reference() {
                    // The hand-written kernel, interleaved with the Zag op
                    // it is compared to.
                    w.reference_ms[k].push(Calibrator::normalise(ref_ms, kernel_ms));
                }
            } else {
                w.plain.ms[k][threads - 1].push(ms);
                w.raw.ms[k][threads - 1].push(raw_ms);
            }
        }
        round += 1;
    }
    w.wall_s = epoch.elapsed().as_secs_f64();
    w.spans.push(spans);
    w
}
