//! Request decoding and single-program execution.
//!
//! A `POST /run` body is a JSON object:
//!
//! ```json
//! {
//!   "source":  "fn main() void { ... }",     // required
//!   "unit":    "pi.zag",                     // optional label for traces
//!   "entry":   "main",                       // default "main"
//!   "args":    [4, 2.5, {"f64": [1, 2]}],    // default []
//!   "backend": "ast" | "bytecode" | "native",// default "bytecode"
//!   "opt":     0 | 3,                        // default 3 (the service
//!                                            // compiles once, runs many)
//!   "threads": 4,                            // nthreads-var for this run
//!   "schedule": "dynamic,64",                // run-sched-var for this run
//!   "check":   "warn" | "deny",              // lint gating, default warn
//!   "timeout_ms": 5000                       // per-request deadline
//! }
//! ```
//!
//! Each request executes on its own [`zomp::Runtime`] built from these
//! fields and nothing else — the daemon's `OMP_*`/`ZOMP_*` environment is
//! deliberately not consulted, so two concurrent requests with different
//! `threads`/`schedule` cannot observe each other's ICVs.

use std::sync::Arc;
use std::time::Instant;

use zomp::config::CheckMode;
use zomp::ExecConfig;
use zomp_front::{Diag, Severity};
use zomp_vm::value::{ArrF, ArrI};
use zomp_vm::{Backend, OptLevel, Value, Vm};

use crate::cache::ProgramCache;
use crate::json::{obj, Json};

/// A decoded `/run` request.
pub struct RunRequest {
    pub source: String,
    pub unit: Option<String>,
    pub entry: String,
    pub args: Vec<Value>,
    pub cfg: ExecConfig,
    pub timeout_ms: Option<u64>,
}

impl RunRequest {
    /// Decode a request body. Unknown fields are rejected so a typo'd
    /// knob fails loudly instead of silently running with defaults.
    pub fn from_json(body: &Json) -> Result<RunRequest, String> {
        let Json::Obj(map) = body else {
            return Err("request body must be a JSON object".into());
        };
        const KNOWN: [&str; 10] = [
            "source",
            "unit",
            "entry",
            "args",
            "backend",
            "opt",
            "threads",
            "schedule",
            "check",
            "timeout_ms",
        ];
        for k in map.keys() {
            if !KNOWN.contains(&k.as_str()) {
                return Err(format!("unknown request field `{k}`"));
            }
        }
        let source = body
            .get("source")
            .and_then(Json::as_str)
            .ok_or("missing required string field `source`")?
            .to_string();

        // `opt` is left to default to 3: the whole point of the cache is to
        // pay for the best image once and reuse it.
        let mut cfg = ExecConfig::new();
        if let Some(v) = body.get("backend") {
            let s = v.as_str().ok_or("`backend` must be a string")?;
            cfg.parse_flag(&format!("--backend={s}"), &mut std::iter::empty())
                .map_err(|e| e.to_string())?;
        }
        if let Some(v) = body.get("opt") {
            let n = v.as_i64().ok_or("`opt` must be an integer")?;
            cfg.parse_flag(&format!("--opt={n}"), &mut std::iter::empty())?;
        }
        if let Some(v) = body.get("threads") {
            let n = v.as_i64().ok_or("`threads` must be an integer")?;
            cfg.parse_flag(&format!("--threads={n}"), &mut std::iter::empty())?;
        }
        if let Some(v) = body.get("schedule") {
            let s = v.as_str().ok_or("`schedule` must be a string")?;
            cfg.parse_flag(&format!("--schedule={s}"), &mut std::iter::empty())?;
        }
        if let Some(v) = body.get("check") {
            cfg.check = match v.as_str() {
                Some("warn") => CheckMode::Warn,
                Some("deny") => CheckMode::Deny,
                _ => return Err("`check` must be \"warn\" or \"deny\"".into()),
            };
        }

        let args = match body.get("args") {
            None => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(json_to_value)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("`args` must be an array".into()),
        };

        Ok(RunRequest {
            source,
            unit: body.get("unit").and_then(Json::as_str).map(str::to_string),
            entry: body
                .get("entry")
                .and_then(Json::as_str)
                .unwrap_or("main")
                .to_string(),
            args,
            cfg,
            timeout_ms: body
                .get("timeout_ms")
                .and_then(Json::as_i64)
                .map(|n| n.max(1) as u64),
        })
    }

    pub fn backend(&self) -> Backend {
        self.cfg.backend.map(Backend::from).unwrap_or_default()
    }

    pub fn opt(&self) -> OptLevel {
        self.cfg.opt.map(OptLevel::from_index).unwrap_or_default()
    }
}

/// Convert a JSON argument to a VM value. Numbers follow the JSON
/// spelling (`4` is `Int`, `4.0` is `Float`); arrays must be typed
/// explicitly (`{"f64": [...]}` / `{"i64": [...]}`) because an all-integer
/// JSON array is otherwise ambiguous between the two array types.
fn json_to_value(v: &Json) -> Result<Value, String> {
    match v {
        Json::Int(n) => Ok(Value::Int(*n)),
        Json::Float(x) => Ok(Value::Float(*x)),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Str(s) => Ok(Value::Str(Arc::from(s.as_str()))),
        Json::Obj(m) if m.len() == 1 => match (m.get("f64"), m.get("i64")) {
            (Some(Json::Arr(items)), None) => {
                let arr = ArrF::new(items.len());
                for (i, item) in items.iter().enumerate() {
                    let x = item
                        .as_f64()
                        .ok_or_else(|| format!("f64 array element {i} is not a number"))?;
                    arr.set(i as i64, x).map_err(|e| e.to_string())?;
                }
                Ok(Value::ArrF(Arc::new(arr)))
            }
            (None, Some(Json::Arr(items))) => {
                let arr = ArrI::new(items.len());
                for (i, item) in items.iter().enumerate() {
                    let x = item
                        .as_i64()
                        .ok_or_else(|| format!("i64 array element {i} is not an integer"))?;
                    arr.set(i as i64, x).map_err(|e| e.to_string())?;
                }
                Ok(Value::ArrI(Arc::new(arr)))
            }
            _ => Err("array arguments are {\"f64\": [...]} or {\"i64\": [...]}".into()),
        },
        other => Err(format!("unsupported argument {}", other.render())),
    }
}

/// Convert an execution result back to JSON. Arrays come back as their
/// typed wrapper; handles that make no sense outside the VM (pointers,
/// reduction cells) render as their type name.
fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Void | Value::Undefined => Json::Null,
        Value::Int(n) => Json::Int(*n),
        Value::Float(x) => Json::Float(*x),
        Value::Bool(b) => Json::Bool(*b),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::ArrF(a) => obj([(
            "f64",
            Json::Arr(
                (0..a.len() as i64)
                    .map(|i| Json::Float(a.get(i).unwrap_or(f64::NAN)))
                    .collect(),
            ),
        )]),
        Value::ArrI(a) => obj([(
            "i64",
            Json::Arr(
                (0..a.len() as i64)
                    .map(|i| Json::Int(a.get(i).unwrap_or(0)))
                    .collect(),
            ),
        )]),
        other => Json::Str(format!("<{}>", other.type_name())),
    }
}

/// One diagnostic as a JSON value: severity, stable code, byte offset
/// plus resolved line/column, message, and the optional label/note.
pub fn diag_to_json(d: &Diag, source: &str) -> Json {
    let (line, col) = d.line_col(source);
    let mut fields = vec![
        (
            "severity".to_string(),
            Json::Str(
                match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                    Severity::Remark => "remark",
                }
                .to_string(),
            ),
        ),
        ("code".to_string(), Json::Str(d.code.to_string())),
        ("offset".to_string(), Json::Int(d.offset as i64)),
        ("line".to_string(), Json::Int(line as i64)),
        ("col".to_string(), Json::Int(col as i64)),
        ("message".to_string(), Json::Str(d.message.clone())),
    ];
    if let Some(l) = &d.label {
        fields.push(("label".to_string(), Json::Str(l.clone())));
    }
    if let Some(n) = &d.note {
        fields.push(("note".to_string(), Json::Str(n.clone())));
    }
    Json::Obj(fields.into_iter().collect())
}

/// The service-level outcome of one request, before HTTP framing.
pub struct RunOutcome {
    /// HTTP status the response maps to (200, 422 compile/lint failure,
    /// 500 runtime error).
    pub status: u16,
    pub body: Json,
}

/// Compile (through `cache`) and execute one request on its own runtime.
/// Everything the program observed or produced is in the returned JSON:
/// result value, print output, lint warnings, cache disposition, timings.
pub fn execute(cache: &ProgramCache, req: &RunRequest) -> RunOutcome {
    let t0 = Instant::now();
    let (program, cached) =
        match cache.get_or_compile(&req.source, req.unit.as_deref(), req.backend(), req.opt()) {
            Ok(ok) => ok,
            Err(d) => {
                return RunOutcome {
                    status: 422,
                    body: obj([
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str("compile error".into())),
                        (
                            "diagnostics",
                            Json::Arr(vec![diag_to_json(&d, &req.source)]),
                        ),
                    ]),
                }
            }
        };
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;

    let diags: Vec<Json> = program
        .diags
        .iter()
        .map(|d| diag_to_json(d, &req.source))
        .collect();
    if req.cfg.check == CheckMode::Deny && !program.diags.is_empty() {
        return RunOutcome {
            status: 422,
            body: obj([
                ("ok", Json::Bool(false)),
                ("error", Json::Str("check=deny: lint findings".into())),
                ("diagnostics", Json::Arr(diags)),
            ]),
        };
    }

    let vm = Vm::from_program(program, req.backend(), req.cfg.make_runtime());
    let t1 = Instant::now();
    let result = vm.call_function(&req.entry, req.args.clone());
    let run_ms = t1.elapsed().as_secs_f64() * 1e3;
    let output = Json::Arr(
        vm.output
            .lock()
            .iter()
            .map(|l| Json::Str(l.clone()))
            .collect(),
    );

    match result {
        Ok(v) => RunOutcome {
            status: 200,
            body: obj([
                ("ok", Json::Bool(true)),
                ("result", value_to_json(&v)),
                ("output", output),
                ("diagnostics", Json::Arr(diags)),
                ("cached", Json::Bool(cached)),
                ("compile_ms", Json::Float(compile_ms)),
                ("run_ms", Json::Float(run_ms)),
            ]),
        },
        Err(e) => RunOutcome {
            status: 500,
            body: obj([
                ("ok", Json::Bool(false)),
                ("error", Json::Str(e.to_string())),
                ("output", output),
                ("cached", Json::Bool(cached)),
            ]),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_body(body: &str) -> RunOutcome {
        let cache = ProgramCache::new(8);
        let req = RunRequest::from_json(&Json::parse(body).unwrap()).unwrap();
        execute(&cache, &req)
    }

    #[test]
    fn executes_entry_with_typed_args() {
        let out = run_body(
            r#"{"source": "fn add(a: i64, b: f64) f64 {\n    return @intToFloat(a) + b;\n}\n",
                "entry": "add", "args": [4, 2.5]}"#,
        );
        assert_eq!(out.status, 200, "{}", out.body.render());
        assert_eq!(out.body.get("result"), Some(&Json::Float(6.5)));
        assert_eq!(out.body.get("cached"), Some(&Json::Bool(false)));
    }

    #[test]
    fn array_args_round_trip() {
        let out = run_body(
            r#"{"source": "fn total(a: []f64, n: i64) f64 {\n    var s: f64 = 0.0;\n    var i: i64 = 0;\n    while (i < n) : (i += 1) {\n        s = s + a[i];\n    }\n    return s;\n}\n",
                "entry": "total", "args": [{"f64": [1, 2.5, 3]}, 3]}"#,
        );
        assert_eq!(out.status, 200, "{}", out.body.render());
        assert_eq!(out.body.get("result"), Some(&Json::Float(6.5)));
    }

    #[test]
    fn compile_error_is_a_structured_diagnostic() {
        let out = run_body(r#"{"source": "fn main() void {\n    print(;\n}\n"}"#);
        assert_eq!(out.status, 422);
        assert_eq!(out.body.get("ok"), Some(&Json::Bool(false)));
        let diags = out.body.get("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(diags.len(), 1);
        assert!(diags[0].get("line").unwrap().as_i64().unwrap() >= 1);
        assert!(diags[0].get("message").is_some());
    }

    #[test]
    fn runtime_error_reports_500_with_output_so_far() {
        let out = run_body(
            r#"{"source": "fn main() void {\n    print(1);\n    var a: []f64 = @allocF(2);\n    print(a[5]);\n}\n"}"#,
        );
        assert_eq!(out.status, 500);
        assert_eq!(out.body.get("ok"), Some(&Json::Bool(false)));
        let output = out.body.get("output").unwrap().as_arr().unwrap();
        assert_eq!(output.len(), 1);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let parsed = Json::parse(r#"{"source": "x", "theads": 4}"#).unwrap();
        let e = match RunRequest::from_json(&parsed) {
            Ok(_) => panic!("unknown field accepted"),
            Err(e) => e,
        };
        assert!(e.contains("theads"), "{e}");
    }

    #[test]
    fn removed_opt_level_is_rejected_with_the_valid_ones() {
        for gone in [1, 2] {
            let parsed = Json::parse(&format!(r#"{{"source": "x", "opt": {gone}}}"#)).unwrap();
            let e = match RunRequest::from_json(&parsed) {
                Ok(_) => panic!("`opt: {gone}` accepted"),
                Err(e) => e,
            };
            assert!(e.contains("expected 0 or 3"), "{e}");
        }
    }

    #[test]
    fn per_request_threads_reach_the_program() {
        let out = run_body(
            r#"{"source": "fn main() void {\n    print(omp.get_max_threads());\n}\n", "threads": 3}"#,
        );
        assert_eq!(out.status, 200, "{}", out.body.render());
        let output = out.body.get("output").unwrap().as_arr().unwrap();
        assert_eq!(output[0].as_str(), Some("3"));
    }
}
