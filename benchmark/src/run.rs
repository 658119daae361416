//! One run of one workload: set-up (timed, repeated), references, the
//! timed window, and the report — end-to-end metrics from an untraced
//! run, per-layer metrics from a traced one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use zagd::json::Json;
use zomp_vm::Vm;

use crate::calib::Calibrator;
use crate::layers::{self, ZagdBudget};
use crate::metrics::Report;
use crate::serve_mix::{self, ServeWorkload};
use crate::spans::{self, Spans};
use crate::stats::{geomean, median, percentile};
use crate::workload::{self, installed, tier_holds, Sizes, Tier, VmWorkload, Window};
use crate::{npb_native, runtime_fine, vm_generic};

/// Row of the stage spans in the Chrome trace (the window's rows are 0
/// and the client ids).
const STAGE_TID: u32 = 100;

/// In-process repetitions of the whole set-up; `setup_s` is their median.
const SETUP_REPS: usize = 15;

pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: &'static Sizes,
    /// Where a traced run writes its span file and per-layer table.
    pub out_dir: PathBuf,
}

/// A run's report plus the text shown above its JSON line.
pub struct RunOutput {
    pub report: Report,
    pub text: String,
}

/// Repeat `setup`, keeping the last result: median seconds (at reference
/// speed, by a calibration run before each repetition) and the state.
fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut calib = Calibrator::new();
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Free the previous repetition first so peak memory is one set-up.
        drop(state.take());
        let kernel_ms = calib.measure();
        let t0 = Instant::now();
        state = Some(setup());
        secs.push(Calibrator::normalise(t0.elapsed().as_secs_f64(), kernel_ms));
    }
    (median(&secs), state.expect("SETUP_REPS > 0"))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Geometric mean over kinds of each kind's median at `threads`.
fn geomean_p50(series: &workload::Series, threads: usize) -> f64 {
    let medians: Vec<f64> = series.ms.iter().map(|k| median(&k[threads - 1])).collect();
    geomean(&medians)
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    match cfg.workload {
        "npb_native" => run_vm(cfg, npb_native::setup),
        "vm_generic" => run_vm(cfg, vm_generic::setup),
        "runtime_fine" => run_vm(cfg, runtime_fine::setup),
        "serve_mix" => run_serve(cfg),
        other => unreachable!("workload `{other}` was validated by the caller"),
    }
}

/// What both kinds of workload report the same way.
struct Common<'a> {
    cfg: &'a RunConfig,
    kinds: Vec<&'static str>,
    setup_s: f64,
    inputs_digest: u64,
    window: Window,
    text: String,
}

impl Common<'_> {
    fn header(&mut self) {
        let w = &self.window;
        let _ = writeln!(
            self.text,
            "workload {}  seed {}  inputs_digest {:016x}  window {:.1} s  setup {:.3} s  \
             peak rss {:.0} MB  host threads {}",
            self.cfg.workload,
            self.cfg.seed,
            self.inputs_digest,
            w.wall_s,
            self.setup_s,
            peak_rss_mb(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        let _ = writeln!(
            self.text,
            "  untraced ops, ms at reference speed (as the clock read them)\n  \
             {:<12} {:>6} {:>20} {:>9} {:>6} {:>20} {:>9}",
            "kind", "n_t1", "p50_t1", "p95_t1", "n_t2", "p50_t2", "p95_t2"
        );
        for (k, name) in self.kinds.iter().enumerate() {
            let [t1, t2] = &w.plain.ms[k];
            let [raw1, raw2] = &w.raw.ms[k];
            let _ = writeln!(
                self.text,
                "  {:<12} {:>6} {:>9.3} ({:>8.3}) {:>9.3} {:>6} {:>9.3} ({:>8.3}) {:>9.3}",
                name,
                t1.len(),
                median(t1),
                median(raw1),
                percentile(t1, 0.95),
                t2.len(),
                median(t2),
                median(raw2),
                percentile(t2, 0.95),
            );
        }
        for e in &w.errors {
            let _ = writeln!(self.text, "  FAILED {e}");
        }
    }

    /// The gated metrics, from the untraced ops.
    fn end_to_end(&mut self) -> BTreeMap<String, f64> {
        let mut v = BTreeMap::new();
        v.insert("setup_s".to_string(), self.setup_s);
        v.insert(
            "op_ms_p50_t1".to_string(),
            geomean_p50(&self.window.plain, 1),
        );
        v.insert("peak_rss_mb".to_string(), peak_rss_mb());
        for (name, value) in &v {
            let _ = writeln!(self.text, "  {name} = {value:.4}");
        }
        let _ = writeln!(
            self.text,
            "  op_ms_p50_t2 = {:.4} (not gated)\n  ops_total = {}  ops_failed = {}",
            geomean_p50(&self.window.plain, 2),
            self.window.attempted,
            self.window.failed
        );
        v
    }

    /// The per-layer metrics every workload has: the compile pipeline of
    /// its programs, `zomp`'s primitives, the runtime counters per counted
    /// op (`native_pass` runs each kind once under the tier profiler), and
    /// the cost of tracing itself. Stage spans go to `stage_spans`.
    fn shared_layers(
        &self,
        programs: &[(&str, &str)],
        native_pass: impl FnOnce(),
        stage_spans: &mut Spans,
    ) -> BTreeMap<String, f64> {
        let compile = &layers::compile_budget(programs, stage_spans);
        let costs = &layers::runtime_costs();
        let native_iter_frac = layers::native_iter_frac(native_pass);
        let mut v = BTreeMap::new();
        let mut put = |name: &str, value: f64| {
            v.insert(name.to_string(), value);
        };
        put("front.parse_ms", compile.parse_ms);
        put("front.analyze_ms", compile.analyze_ms);
        put("front.preprocess_ms", compile.preprocess_ms);
        put("front.reparse_ms", compile.reparse_ms);
        put("front.src_bytes", compile.src_bytes as f64);
        put("front.ast_nodes", compile.ast_nodes as f64);
        put("vm.compile.lower_ms", compile.lower_ms);
        put("vm.compile.insns_o0", compile.insns_o0 as f64);
        put("vm.optimize.ms", compile.optimize_ms);
        put("vm.optimize.insns", compile.insns_opt as f64);
        put("vm.typeck.ms", compile.typeck_ms);
        put("vm.install.ms", compile.install_ms);
        put("vm.install.kernels", compile.kernels as f64);
        put("vm.install.templates", compile.templates as f64);
        put("vm.compile.total_ms", compile.total_ms);
        put("vm.compile.closure_frac", compile.closure_frac());

        put("zomp.fork_join_us_t2", costs.fork_join_us);
        put("zomp.barrier_us_t2", costs.barrier_us);
        put(
            "zomp.dispatch.dynamic_ns_per_chunk",
            costs.dynamic_ns_per_chunk,
        );
        put("zomp.reduce.merge_us", costs.reduce_merge_us);
        put("zomp.critical_ns", costs.critical_ns);

        let w = &self.window;
        let c = &w.counters;
        let per_op = |count: u64| count as f64 / w.counted_ops as f64;
        put("vm.kernel_enters", per_op(c.kernel_enters));
        put("vm.kernel_iters", per_op(c.kernel_iters));
        put("vm.kernel_bails", per_op(c.kernel_bails));
        put("vm.deopts", per_op(c.deopts));
        put("vm.quickens", per_op(c.quickens));
        put("vm.native_iter_frac", native_iter_frac);
        put("zomp.regions", per_op(c.regions));
        put("zomp.chunks_owned", per_op(c.chunks_owned));
        put("zomp.chunks_stolen", per_op(c.chunks_stolen));
        put("zomp.steal_failures", per_op(c.steal_failures));
        put("zomp.barrier_waits", per_op(c.barrier_waits));
        put("zomp.barrier_parks", per_op(c.barrier_parks));
        put("zomp.reductions", per_op(c.reductions));
        // Computed, not measured: what the counted ops would spend in the
        // runtime if every fork, chunk claim and barrier crossing (one
        // per pair of waits at a team of 2) cost what it costs empty.
        let est_ms = (c.regions as f64 * costs.fork_join_us
            + (c.chunks_owned + c.chunks_stolen) as f64 * costs.dynamic_ns_per_chunk / 1e3
            + c.barrier_waits as f64 / 2.0 * costs.barrier_us)
            / 1e3;
        put("zomp.est_runtime_frac", est_ms / w.counted_ms);

        put("op_ms_p50_t2", geomean_p50(&w.plain, 2));
        put(
            "trace.overhead_frac",
            geomean_p50(&w.traced, 2) / geomean_p50(&w.plain, 2) - 1.0,
        );
        v
    }

    /// Count the spans, then write the span file and the per-layer table
    /// of a traced run.
    fn write_trace_files(&mut self, mut all_spans: Vec<Spans>, values: &mut BTreeMap<String, f64>) {
        all_spans.append(&mut self.window.spans);
        let count: usize = all_spans.iter().map(Spans::len).sum();
        values.insert("trace.spans".to_string(), count as f64);
        let dir = &self.cfg.out_dir;
        std::fs::create_dir_all(dir).expect("create the output directory");
        let spans_path = dir.join(format!("spans_{}.json", self.cfg.workload));
        std::fs::write(&spans_path, spans::chrome_trace_json(&all_spans)).expect("write spans");
        let mut table = String::new();
        let _ = writeln!(table, "per-layer metrics, workload {}", self.cfg.workload);
        for m in crate::metrics::per_layer() {
            let value = values.get(&m.name).copied().unwrap_or(0.0);
            let _ = writeln!(table, "  {:<40} {:>16.4} {}", m.name, value, m.unit);
        }
        let _ = writeln!(table, "\nspans by name: count, total ms, self ms");
        for (name, (count, total, own)) in spans::self_times(&all_spans) {
            let _ = writeln!(table, "  {name:<24} {count:>8} {total:>14.3} {own:>14.3}");
        }
        let table_path = dir.join(format!("layers_{}.txt", self.cfg.workload));
        std::fs::write(&table_path, &table).expect("write the per-layer table");
        self.text.push_str(&table);
        let _ = writeln!(
            self.text,
            "wrote {} and {}",
            spans_path.display(),
            table_path.display()
        );
    }

    fn finish(self, values: BTreeMap<String, f64>) -> RunOutput {
        RunOutput {
            report: Report {
                attempted: self.window.attempted,
                failed: self.window.failed,
                values,
                traced: self.cfg.trace,
            },
            text: self.text,
        }
    }
}

/// One line per kind: does its program still land in the intended tier?
fn mechanism_guard(text: &mut String, name: &str, tier: Tier, vm: &Vm) {
    let (kernels, templates) = installed(vm);
    let verdict = match (tier, tier_holds(tier, kernels, templates)) {
        (Tier::Any, _) => "not tied to a tier",
        (_, true) => "ok",
        (_, false) => "MOVED OFF ITS MECHANISM",
    };
    let _ = writeln!(
        text,
        "  mechanism {name:<12} kernels {kernels} templates {templates}: {verdict}"
    );
}

fn run_vm(cfg: &RunConfig, setup: fn(u64, &Sizes) -> VmWorkload) -> RunOutput {
    let (setup_s, mut wl) = timed_setups(|| setup(cfg.seed, cfg.sizes));
    let mut text = String::new();
    for k in &mut wl.kinds {
        k.compute_reference();
        mechanism_guard(&mut text, k.name(), k.tier(), k.vm());
    }
    let window = workload::run_window(&wl, cfg.seed, cfg.seconds, cfg.trace);
    let mut common = Common {
        cfg,
        kinds: wl.kinds.iter().map(|k| k.name()).collect(),
        setup_s,
        inputs_digest: wl.inputs_digest,
        window,
        text,
    };
    common.header();
    if !cfg.trace {
        let values = common.end_to_end();
        return common.finish(values);
    }

    let mut stage_spans = Spans::new(Instant::now(), STAGE_TID);
    let programs: Vec<(&str, &str)> = wl.kinds.iter().map(|k| k.source()).collect();
    let native_pass = || {
        for k in &wl.kinds {
            let _ = k.vm().call_function(k.entry(), k.args(2));
        }
    };
    let mut values = common.shared_layers(&programs, native_pass, &mut stage_spans);
    let w = &common.window;
    for (k, kind) in wl.kinds.iter().enumerate() {
        let [t1, t2] = &w.traced.ms[k];
        let name = kind.name();
        let mut put = |metric: &str, value: f64| {
            values.insert(format!("vm.exec.{name}.{metric}"), value);
        };
        put("op_ms_p50_t1", median(t1));
        put("op_ms_p50_t2", median(t2));
        put("op_ms_p95_t2", percentile(t2, 0.95));
        put("par_speedup", median(t1) / median(t2));
        put("ns_per_elem_t1", median(t1) * 1e6 / kind.elems() as f64);
        if !w.reference_ms[k].is_empty() {
            let ref_ms = median(&w.reference_ms[k]);
            put("ref_ratio_t1", median(t1) / ref_ms);
            values.insert(format!("npb.{name}.ref_ms_p50_t1"), ref_ms);
        }
    }
    common.write_trace_files(vec![stage_spans], &mut values);
    common.finish(values)
}

fn run_serve(cfg: &RunConfig) -> RunOutput {
    let (setup_s, mut wl) = timed_setups(|| serve_mix::setup(cfg.seed, cfg.sizes));
    wl.compute_reference();
    let mut text = String::new();
    for demo in &wl.demos {
        mechanism_guard(
            &mut text,
            demo.name,
            Tier::Kernels,
            &workload::native_vm(&demo.source, demo.name),
        );
    }
    let mut window = serve_mix::run_window(&wl, cfg.seed, cfg.seconds, cfg.trace);
    if cfg.trace {
        serve_mix::counted_pass(&wl, cfg.seed, &mut window);
    }
    let mut common = Common {
        cfg,
        kinds: serve_mix::KINDS.to_vec(),
        setup_s,
        inputs_digest: wl.inputs_digest,
        window,
        text,
    };
    common.header();
    if !cfg.trace {
        let values = common.end_to_end();
        return common.finish(values);
    }

    let mut stage_spans = Spans::new(Instant::now(), STAGE_TID);
    let programs: Vec<(&str, &str)> = wl
        .demos
        .iter()
        .map(|d| (d.name, d.source.as_str()))
        .collect();
    let native_pass = || {
        for bodies in &wl.hit_bodies {
            let _ = zagd::client::post(wl.addr, "/run", &bodies[1]);
        }
    };
    let mut values = common.shared_layers(&programs, native_pass, &mut stage_spans);
    let zagd = layers::zagd_budget(&wl, &mut stage_spans);
    serve_layers(&mut values, &common.window, &zagd, &wl);
    common.write_trace_files(vec![stage_spans], &mut values);
    common.finish(values)
}

/// The `zagd.*` metrics: the request taken apart, client-side latency per
/// kind (both team sizes pooled), and the server's own `/stats`.
fn serve_layers(
    values: &mut BTreeMap<String, f64>,
    w: &Window,
    zagd: &ZagdBudget,
    wl: &ServeWorkload,
) {
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    put("zagd.json.parse_us", zagd.json_parse_us);
    put("zagd.request.decode_us", zagd.request_decode_us);
    put("zagd.cache.hit_us", zagd.cache_hit_us);
    put("zagd.cache.miss_ms", zagd.cache_miss_ms);
    put("zagd.execute.hit_ms", zagd.execute_hit_ms);
    put("zagd.execute.miss_ms", zagd.execute_miss_ms);
    put("zagd.server.overhead_ms", zagd.server_overhead_ms);
    for (k, kind) in serve_mix::KINDS.iter().enumerate() {
        let pooled: Vec<f64> = w.traced.ms[k].iter().flatten().copied().collect();
        put(&format!("zagd.req.{kind}_ms_p50"), median(&pooled));
        put(
            &format!("zagd.req.{kind}_ms_p95"),
            percentile(&pooled, 0.95),
        );
    }
    // The counted pass ran after the window.
    put(
        "zagd.req_per_s",
        (w.attempted - w.counted_ops) as f64 / w.wall_s,
    );
    let stats = wl.stats();
    let count = |path: &[&str]| -> f64 {
        path.iter()
            .try_fold(&stats, |j, key| j.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    put("zagd.cache.hit_frac", count(&["cache", "hit_rate"]));
    put("zagd.rejected", count(&["rejected"]));
    put("zagd.timeouts", count(&["timeouts"]));
    put("zagd.abandoned", count(&["abandoned"]));
}

#[cfg(test)]
mod tests {
    use super::*;

    type Setup = fn(u64, &Sizes) -> VmWorkload;
    const VM_SETUPS: [Setup; 3] = [npb_native::setup, vm_generic::setup, runtime_fine::setup];

    #[test]
    fn same_seed_same_inputs_and_counts_other_seed_other_inputs() {
        for setup in VM_SETUPS {
            let (a, b, c) = (
                setup(11, &Sizes::QUICK),
                setup(11, &Sizes::QUICK),
                setup(12, &Sizes::QUICK),
            );
            assert_eq!(a.inputs_digest, b.inputs_digest);
            assert_ne!(a.inputs_digest, c.inputs_digest);
            // Sizes do not depend on the seed.
            for (x, y) in a.kinds.iter().zip(&c.kinds) {
                assert_eq!(x.elems(), y.elems(), "{}", x.name());
            }
            // The exact counts of the compile decomposition repeat.
            let counts = |wl: &VmWorkload| {
                let programs: Vec<(&str, &str)> = wl.kinds.iter().map(|k| k.source()).collect();
                let b = layers::compile_budget(&programs, &mut Spans::new(Instant::now(), 0));
                (
                    b.src_bytes,
                    b.ast_nodes,
                    b.insns_o0,
                    b.insns_opt,
                    b.kernels,
                    b.templates,
                )
            };
            assert_eq!(counts(&a), counts(&b));
            assert!(counts(&a).2 > 0);
        }
        let (a, b, c) = (
            serve_mix::setup(11, &Sizes::QUICK),
            serve_mix::setup(11, &Sizes::QUICK),
            serve_mix::setup(12, &Sizes::QUICK),
        );
        assert_eq!(a.inputs_digest, b.inputs_digest);
        assert_ne!(a.inputs_digest, c.inputs_digest);
    }

    #[test]
    fn every_quick_op_matches_its_reference_at_both_team_sizes() {
        for setup in VM_SETUPS {
            let mut wl = setup(5, &Sizes::QUICK);
            for k in &mut wl.kinds {
                k.compute_reference();
            }
            let w = workload::run_window(&wl, 5, 0.2, false);
            assert!(w.attempted as usize >= 2 * wl.kinds.len());
            assert_eq!(w.failed, 0, "{:?}", w.errors);
        }
    }

    #[test]
    fn a_wrong_output_is_counted_as_a_failed_op() {
        // References computed for one seed, inputs generated from another.
        let mut reference = vm_generic::setup(1, &Sizes::QUICK);
        for k in &mut reference.kinds {
            k.compute_reference();
        }
        let other = vm_generic::setup(2, &Sizes::QUICK);
        for (want, got) in reference.kinds.iter().zip(&other.kinds) {
            let ret = got
                .vm()
                .call_function(got.entry(), got.args(1))
                .expect("op runs");
            // `want` checks its own arrays, which the op did not write:
            // the canaries (or the stale result) must fail the check.
            let _ = want.args(1);
            assert!(want.check(1, &ret).is_err(), "{}", want.name());
        }
    }
}
