//! The per-layer decompositions of a traced run, all taken from outside:
//! the compile pipeline stage by stage, `zomp`'s primitives with empty
//! bodies, and a `zagd` request piece by piece. Each calls only public
//! functions of the layer it times.

use std::hint::black_box;
use std::time::Instant;

use zagd::json::Json;
use zagd::{client, ProgramCache, RunRequest};
use zomp::prelude::*;
use zomp_vm::{Backend, OptLevel};

use crate::serve_mix::ServeWorkload;
use crate::spans::{Spans, NO_PARENT};
use crate::stats::median;

/// Repetitions of each compile stage / `zagd` piece; the median is kept.
const STAGE_REPS: usize = 9;

/// Median milliseconds of `reps` runs of `f`, each recorded as a span.
/// Results are dropped outside the spans, for the stages and the total
/// alike.
fn stage<T>(
    spans: &mut Spans,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut ms = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let id = spans.begin(name, NO_PARENT, u32::MAX);
        let out = black_box(f());
        spans.end(id);
        ms.push(spans.duration_ms(id));
        last = Some(out);
    }
    (median(&ms), last.expect("reps > 0"))
}

/// The compile pipeline of a workload's programs, summed over programs.
#[derive(Default)]
pub struct CompileBudget {
    pub parse_ms: f64,
    pub analyze_ms: f64,
    pub preprocess_ms: f64,
    pub reparse_ms: f64,
    pub lower_ms: f64,
    pub optimize_ms: f64,
    pub typeck_ms: f64,
    pub install_ms: f64,
    /// `zomp_vm::compile_opt`, the whole pipeline in one call.
    pub total_ms: f64,
    pub src_bytes: u64,
    pub ast_nodes: u64,
    pub insns_o0: u64,
    pub insns_opt: u64,
    pub kernels: u64,
    pub templates: u64,
}

impl CompileBudget {
    /// Sum of the stages over the one-call total: near 1 when the stages
    /// account for the pipeline.
    pub fn closure_frac(&self) -> f64 {
        let stages = self.parse_ms
            + self.analyze_ms
            + self.preprocess_ms
            + self.reparse_ms
            + self.lower_ms
            + self.optimize_ms
            + self.typeck_ms
            + self.install_ms;
        stages / self.total_ms
    }
}

/// Run the `--opt=3` pipeline of `compile_opt` one public stage at a
/// time, the same calls in the same order as `zomp_vm::interp`.
pub fn compile_budget(programs: &[(&str, &str)], spans: &mut Spans) -> CompileBudget {
    let mut b = CompileBudget::default();
    let fail = |unit: &str, source: &str, d: zomp_front::Diag| -> ! {
        panic!("{unit} does not compile: {}", d.render(source))
    };
    for &(unit, source) in programs {
        let (ms, ast) = stage(spans, "front.parse", STAGE_REPS, || {
            zomp_front::parse(source)
        });
        let ast = ast.unwrap_or_else(|d| fail(unit, source, d));
        b.parse_ms += ms;
        b.src_bytes += source.len() as u64;
        b.ast_nodes += ast.nodes.len() as u64;

        let (ms, _) = stage(spans, "front.analyze", STAGE_REPS, || {
            zomp_front::analyze(&ast, unit)
        });
        b.analyze_ms += ms;

        let (ms, lowered) = stage(spans, "front.preprocess", STAGE_REPS, || {
            zomp_front::preprocess::preprocess_named(source, unit)
        });
        let lowered = lowered.unwrap_or_else(|d| fail(unit, source, d));
        b.preprocess_ms += ms;

        let (ms, ast) = stage(spans, "front.reparse", STAGE_REPS, || {
            zomp_front::parse(&lowered)
        });
        let ast = ast.unwrap_or_else(|d| fail(unit, &lowered, d));
        b.reparse_ms += ms;

        // The later stages rewrite the image in place, so each repetition
        // lowers afresh (untimed) and the stage is timed by hand.
        let mut lower = Vec::new();
        let mut optimize = Vec::new();
        let mut typeck = Vec::new();
        let mut install = Vec::new();
        let mut counts = [0u64; 4];
        for _ in 0..STAGE_REPS {
            let id = spans.begin("vm.compile.lower", NO_PARENT, u32::MAX);
            let mut image = zomp_vm::compile::compile_image(&ast);
            spans.end(id);
            lower.push(spans.duration_ms(id));
            let insns = |image: &zomp_vm::bytecode::Image| -> u64 {
                image.funcs.iter().map(|f| f.code.len() as u64).sum()
            };
            let insns_o0 = insns(&image);

            let id = spans.begin("vm.optimize", NO_PARENT, u32::MAX);
            let nfuncs = image.funcs.len();
            for f in &mut image.funcs {
                zomp_vm::optimize::optimize_fn(f, OptLevel::O3, nfuncs);
            }
            spans.end(id);
            optimize.push(spans.duration_ms(id));
            let insns_opt = insns(&image);

            let id = spans.begin("vm.typeck", NO_PARENT, u32::MAX);
            zomp_vm::typeck::specialize_image(&mut image);
            spans.end(id);
            typeck.push(spans.duration_ms(id));

            let id = spans.begin("vm.install", NO_PARENT, u32::MAX);
            zomp_vm::kernels::install_image(&mut image);
            spans.end(id);
            install.push(spans.duration_ms(id));

            // The same every repetition.
            let installed = |count: fn(&zomp_vm::bytecode::CompiledFn) -> usize| -> u64 {
                image.funcs.iter().map(|f| count(f) as u64).sum()
            };
            counts = [
                insns_o0,
                insns_opt,
                installed(|f| f.kernels.len()),
                installed(|f| f.templates.len()),
            ];
        }
        b.insns_o0 += counts[0];
        b.insns_opt += counts[1];
        b.kernels += counts[2];
        b.templates += counts[3];
        b.lower_ms += median(&lower);
        b.optimize_ms += median(&optimize);
        b.typeck_ms += median(&typeck);
        b.install_ms += median(&install);

        let (ms, program) = stage(spans, "vm.compile.total", STAGE_REPS, || {
            zomp_vm::compile_opt(source, Some(unit), OptLevel::O3)
        });
        if let Err(d) = program {
            fail(unit, source, d);
        }
        b.total_ms += ms;
    }
    b
}

/// `zomp`'s primitives at a team of 2 with empty bodies.
pub struct RuntimeCosts {
    pub fork_join_us: f64,
    pub barrier_us: f64,
    /// Wall nanoseconds per chunk of a `schedule(dynamic, 1)` loop drained
    /// by the team (both threads claiming).
    pub dynamic_ns_per_chunk: f64,
    /// What the reduction protocol adds to a 2-iteration parallel loop.
    pub reduce_merge_us: f64,
    pub critical_ns: f64,
}

/// Median of 5 batches of `per_batch` operations, in nanoseconds per
/// operation.
fn ns_per_op(per_batch: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let ns: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&ns)
}

pub fn runtime_costs() -> RuntimeCosts {
    const CALLS: u64 = 2_000;
    const CHUNKS: u64 = 100_000;
    let team = || Parallel::new().num_threads(2);
    let fork_ns = ns_per_op(CALLS, || {
        for _ in 0..CALLS {
            fork_call(team(), |ctx| {
                black_box(ctx.thread_num());
            });
        }
    });
    let barrier_ns = ns_per_op(CALLS, || {
        fork_call(team(), |ctx| {
            for _ in 0..CALLS {
                ctx.barrier();
            }
        });
    });
    let chunk_ns = ns_per_op(CHUNKS, || {
        parallel_for(team(), Schedule::dynamic(Some(1)), 0..CHUNKS as i64, |i| {
            black_box(i);
        });
    });
    let for_ns = ns_per_op(CALLS, || {
        for _ in 0..CALLS {
            parallel_for(team(), Schedule::static_default(), 0..2, |i| {
                black_box(i);
            });
        }
    });
    let reduce_ns = ns_per_op(CALLS, || {
        for _ in 0..CALLS {
            black_box(parallel_reduce(
                team(),
                Schedule::static_default(),
                0..2,
                0i64,
                RedOp::Add,
                |i, acc| *acc += i,
            ));
        }
    });
    let rt = zomp::Runtime::global();
    let critical_ns = ns_per_op(CHUNKS, || {
        for i in 0..CHUNKS {
            rt.critical(|| black_box(i));
        }
    });
    RuntimeCosts {
        fork_join_us: fork_ns / 1e3,
        barrier_us: barrier_ns / 1e3,
        dynamic_ns_per_chunk: chunk_ns,
        reduce_merge_us: (reduce_ns - for_ns).max(0.0) / 1e3,
        critical_ns,
    }
}

/// One `zagd` request taken apart.
#[derive(Default)]
pub struct ZagdBudget {
    pub json_parse_us: f64,
    pub request_decode_us: f64,
    pub cache_hit_us: f64,
    pub cache_miss_ms: f64,
    pub execute_hit_ms: f64,
    pub execute_miss_ms: f64,
    /// A sequential HTTP round trip of a hit minus `execute` on the same
    /// bodies: sockets, framing, queueing, the per-request thread.
    pub server_overhead_ms: f64,
}

/// Call `Json::parse`, `RunRequest::from_json`, `ProgramCache::
/// get_or_compile` and `request::execute` directly on the workload's own
/// request bodies (team of 2), on a cache of the benchmark's own.
pub fn zagd_budget(wl: &ServeWorkload, spans: &mut Spans) -> ZagdBudget {
    let cache = ProgramCache::new(64);
    let decode = |body: &str| {
        RunRequest::from_json(&Json::parse(body).expect("request body is JSON"))
            .expect("request body decodes")
    };
    let mut sums = ZagdBudget::default();
    // Above the run's own nonces (below 2^31 plus the requests sent).
    let mut nonce = 1i64 << 40;
    for (demo, bodies) in wl.demos.iter().zip(&wl.hit_bodies) {
        let hit = &bodies[1];
        let (ms, json) = stage(spans, "zagd.json.parse", STAGE_REPS, || Json::parse(hit));
        let json = json.expect("request body is JSON");
        sums.json_parse_us += ms * 1e3;
        let (ms, req) = stage(spans, "zagd.request.decode", STAGE_REPS, || {
            RunRequest::from_json(&json)
        });
        let req = req.expect("request body decodes");
        sums.request_decode_us += ms * 1e3;

        let compile = |source: &str| {
            cache
                .get_or_compile(source, None, Backend::Native, OptLevel::O3)
                .expect("demo compiles")
        };
        compile(&demo.source);
        let (ms, _) = stage(spans, "zagd.cache.hit", STAGE_REPS, || {
            compile(&demo.source)
        });
        sums.cache_hit_us += ms * 1e3;
        let (ms, _) = stage(spans, "zagd.cache.miss", STAGE_REPS, || {
            nonce += 1;
            compile(&demo.miss_source(nonce))
        });
        sums.cache_miss_ms += ms;

        let (ms, out) = stage(spans, "zagd.execute.hit", STAGE_REPS, || {
            zagd::execute(&cache, &req)
        });
        assert_eq!(out.status, 200, "execute failed: {}", out.body.render());
        sums.execute_hit_ms += ms;
        let (ms, _) = stage(spans, "zagd.execute.miss", STAGE_REPS, || {
            nonce += 1;
            zagd::execute(&cache, &decode(&demo.miss_body(nonce, 2)))
        });
        sums.execute_miss_ms += ms;

        let (ms, reply) = stage(spans, "zagd.http.hit", STAGE_REPS, || {
            client::post(wl.addr, "/run", hit)
        });
        assert_eq!(reply.expect("sequential hit request").status, 200);
        sums.server_overhead_ms += ms;
    }
    // Means over the three demos.
    let n = wl.demos.len() as f64;
    ZagdBudget {
        json_parse_us: sums.json_parse_us / n,
        request_decode_us: sums.request_decode_us / n,
        cache_hit_us: sums.cache_hit_us / n,
        cache_miss_ms: sums.cache_miss_ms / n,
        execute_hit_ms: sums.execute_hit_ms / n,
        execute_miss_ms: sums.execute_miss_ms / n,
        server_overhead_ms: (sums.server_overhead_ms - sums.execute_hit_ms) / n,
    }
}

/// Share of worksharing-loop iterations that ran in a native tier (fixed
/// kernels or templates) while `ops` ran, from `zomp::profile::
/// tier_report`. The event rings are small and write-once, so this is a
/// single pass, not the whole window; a ring that fills drops events and
/// the share is then over the recorded ones.
pub fn native_iter_frac(ops: impl FnOnce()) -> f64 {
    zomp::profile::reset();
    zomp::profile::enable();
    ops();
    zomp::profile::disable();
    let tiers = zomp::profile::tier_report();
    let total: u64 = tiers.iter().map(|t| t.total_iters).sum();
    let native: u64 = tiers.iter().map(|t| t.native_iters).sum();
    if total == 0 {
        0.0
    } else {
        native as f64 / total as f64
    }
}
