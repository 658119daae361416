//! The names, units and directions of every reported metric: the one
//! table `BENCHMARK.json`, the reports and `--aa` are all written from.

use std::collections::BTreeMap;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "npb_native",
        "the paper's CG/EP/IS ports at --opt=3: vm::kernels and zomp bulk dispatch do the work, front/compile/interp/zagd none",
    ),
    (
        "vm_generic",
        "a typed stencil the template tier takes and a loop that must stay interpreted: vm::templates and vm::interp work, vm::kernels none",
    ),
    (
        "runtime_fine",
        "200 tiny parallel regions and a schedule(dynamic,1) loop of 20000 chunks: zomp fork/join, chunk claims, barrier, single, critical dominate",
    ),
    (
        "serve_mix",
        "2 closed-loop zagd clients, 3 cache hits to 1 never-seen source: HTTP, JSON, program cache and the compile pipeline are on the timed path",
    ),
];

/// How long one run measures unless `--seconds` says otherwise; also
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 25;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The gated metrics; every workload reports all of them, lower is
/// better. Times are at reference speed (see `calib`). The team-of-2 time
/// is measured and reported (`op_ms_p50_t2` of a traced run) but not
/// gated: the reference host's two vCPUs are at times two real cores and
/// at times siblings of one, for minutes on end, so the same code's
/// team-of-2 time moves by up to 2x between runs.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50_t1",
        unit: "ms",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.15,
    },
];

/// The seven kinds whose op is one `Vm::call_function`.
pub const VM_KINDS: [&str; 7] = ["cg", "ep", "is", "stencil", "dyn", "fork_small", "chunk1"];
pub const NPB_KINDS: [&str; 3] = ["cg", "ep", "is"];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every per-layer metric of a traced run, in report order. A traced run
/// prints all of them; one that does not apply to the workload (a `zagd`
/// figure on `npb_native`, another workload's kind) reads 0.
pub fn per_layer() -> Vec<PerLayer> {
    const LOWER: &str = "lower";
    const HIGHER: &str = "higher";
    let mut t: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        t.push(PerLayer { name, unit, better })
    };
    add("op_ms_p50_t2".into(), "ms", LOWER);
    for (name, unit) in [
        ("front.parse_ms", "ms"),
        ("front.analyze_ms", "ms"),
        ("front.preprocess_ms", "ms"),
        ("front.reparse_ms", "ms"),
        ("front.src_bytes", "count"),
        ("front.ast_nodes", "count"),
        ("vm.compile.lower_ms", "ms"),
        ("vm.compile.insns_o0", "count"),
        ("vm.optimize.ms", "ms"),
        ("vm.optimize.insns", "count"),
        ("vm.typeck.ms", "ms"),
        ("vm.install.ms", "ms"),
    ] {
        add(name.into(), unit, LOWER);
    }
    add("vm.install.kernels".into(), "count", HIGHER);
    add("vm.install.templates".into(), "count", HIGHER);
    add("vm.compile.total_ms".into(), "ms", LOWER);
    add("vm.compile.closure_frac".into(), "ratio", HIGHER);
    for kind in VM_KINDS {
        add(format!("vm.exec.{kind}.op_ms_p50_t1"), "ms", LOWER);
        add(format!("vm.exec.{kind}.op_ms_p50_t2"), "ms", LOWER);
        add(format!("vm.exec.{kind}.op_ms_p95_t2"), "ms", LOWER);
        add(format!("vm.exec.{kind}.par_speedup"), "ratio", HIGHER);
        add(format!("vm.exec.{kind}.ns_per_elem_t1"), "ns", LOWER);
    }
    add("vm.kernel_enters".into(), "count/op", HIGHER);
    add("vm.kernel_iters".into(), "count/op", HIGHER);
    add("vm.kernel_bails".into(), "count/op", LOWER);
    add("vm.deopts".into(), "count/op", LOWER);
    add("vm.quickens".into(), "count/op", LOWER);
    add("vm.native_iter_frac".into(), "ratio", HIGHER);
    for kind in NPB_KINDS {
        add(format!("npb.{kind}.ref_ms_p50_t1"), "ms", LOWER);
        add(format!("vm.exec.{kind}.ref_ratio_t1"), "ratio", LOWER);
    }
    for (name, unit) in [
        ("zomp.fork_join_us_t2", "us"),
        ("zomp.barrier_us_t2", "us"),
        ("zomp.dispatch.dynamic_ns_per_chunk", "ns"),
        ("zomp.reduce.merge_us", "us"),
        ("zomp.critical_ns", "ns"),
        ("zomp.regions", "count/op"),
        ("zomp.chunks_owned", "count/op"),
        ("zomp.chunks_stolen", "count/op"),
        ("zomp.steal_failures", "count/op"),
        ("zomp.barrier_waits", "count/op"),
        ("zomp.barrier_parks", "count/op"),
        ("zomp.reductions", "count/op"),
        ("zomp.est_runtime_frac", "ratio"),
        ("zagd.json.parse_us", "us"),
        ("zagd.request.decode_us", "us"),
        ("zagd.cache.hit_us", "us"),
        ("zagd.cache.miss_ms", "ms"),
        ("zagd.execute.hit_ms", "ms"),
        ("zagd.execute.miss_ms", "ms"),
        ("zagd.server.overhead_ms", "ms"),
        ("zagd.req.hit_ms_p50", "ms"),
        ("zagd.req.hit_ms_p95", "ms"),
        ("zagd.req.miss_ms_p50", "ms"),
        ("zagd.req.miss_ms_p95", "ms"),
    ] {
        add(name.into(), unit, LOWER);
    }
    add("zagd.req_per_s".into(), "1/s", HIGHER);
    add("zagd.cache.hit_frac".into(), "ratio", HIGHER);
    add("zagd.rejected".into(), "count", LOWER);
    add("zagd.timeouts".into(), "count", LOWER);
    add("zagd.abandoned".into(), "count", LOWER);
    add("trace.overhead_frac".into(), "ratio", LOWER);
    add("trace.spans".into(), "count", HIGHER);
    t
}

/// The result of one run of one workload.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `name -> value`: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub values: BTreeMap<String, f64>,
    pub traced: bool,
}

impl Report {
    /// The last line of a run's output, as the driver reads it.
    pub fn json_line(&self) -> String {
        let names: Vec<(String, &str)> = if self.traced {
            per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit))
                .collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                // A ratio whose base was never measured is not a number;
                // JSON has no spelling for that, so it reads 0.
                let value = self.values.get(name).copied().filter(|v| v.is_finite());
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    value.unwrap_or(0.0)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The text of `BENCHMARK.json` (`--describe` prints it; a test holds the
/// committed file to it).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in layers
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name.to_string()), "{name} used twice");
        }
        for (name, why) in WORKLOADS {
            assert!(ok_name(name) && seen.insert(name.to_string()));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= END_TO_END[0].bound));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json is out of date: regenerate it with --describe"
        );
    }

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut r = Report {
            attempted: 12,
            failed: 0,
            values: BTreeMap::new(),
            traced: false,
        };
        for m in &END_TO_END {
            r.values.insert(m.name.into(), 1.5);
        }
        let json = zagd::Json::parse(&r.json_line()).expect("valid JSON");
        assert_eq!(
            json.get("correct").and_then(zagd::Json::as_bool),
            Some(true)
        );
        assert_eq!(json.get("attempted").and_then(zagd::Json::as_i64), Some(12));
        assert_eq!(json.get("failed").and_then(zagd::Json::as_i64), Some(0));
        let metrics = json.get("metrics").expect("metrics");
        for m in &END_TO_END {
            let entry = metrics.get(m.name).expect(m.name);
            assert_eq!(entry.get("value").and_then(zagd::Json::as_f64), Some(1.5));
            assert_eq!(entry.get("unit").and_then(zagd::Json::as_str), Some(m.unit));
        }
        r.traced = true;
        let json = zagd::Json::parse(&r.json_line()).expect("valid JSON");
        let zagd::Json::Obj(map) = json.get("metrics").expect("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(map.len(), per_layer().len());
    }
}
