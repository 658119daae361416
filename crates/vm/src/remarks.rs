//! Optimization remarks (`zag --remarks[=json]`).
//!
//! Recompiles a program and reports, from the final image and what the
//! passes recorded ([`PassData`]), through the unified [`Diag`] API, what
//! the tiered compiler actually did — the compile-time half of the
//! observability layer (the runtime half is `zomp::trace` / `zag
//! --profile`):
//!
//! - **`kernel-installed`** — a loop lowered to one of the native
//!   bulk-kernel shapes ([`KernelKind::NAMES`], `--opt=3`), named.
//! - **`kernel-missed`** — a loop that stayed interpreted, with a
//!   machine-readable reason: `call-boundary` (naming every call left
//!   in the loop and, in brackets, why it is still one: a program
//!   function carries the inliner's slug — `over-budget (47 > 24)`,
//!   `has-loop`, `calls`, `omp-call`, `recursive`, `arity`, `indirect`,
//!   `uninit-read`, `growth-cap`, see [`crate::inline::Kept`], plus
//!   `runs as one native LCG step` for a verified `randlc` — and a
//!   runtime entry point or builtin says `runtime` / `builtin`),
//!   `unsupported-op`, or `shape`.
//! - **`inlined`** — a direct call replaced by its callee's body
//!   (`--opt=3`, [`crate::inline`]), by its pc in the `[pre-opt]`
//!   listing of `--dump-bytecode`.
//! - **`opt-pipeline`** — per-function fold/copy-propagation, local
//!   CSE, dead-store-elimination and fusion counts (`--opt=3`).
//!
//! Remarks belonging to a pragma loop carry its `unit:line` label (the
//! same label the preprocessor threads into `ws_begin`/`fork_call` for
//! runtime spans), so `--remarks` and `--profile` rows join on it.

use std::collections::BTreeMap;

use zomp::json::{obj, Json};
use zomp_front::Diag;

use crate::bytecode::{CompiledFn, Image, Insn, OmpFn};
use crate::compile::{compile_source, PassData};
use crate::inline::{InlineData, Kept};
use crate::kernels::KernelKind;
use crate::optimize::{jump_target, OptLevel};
use crate::value::Value;

/// Compile `source` at `opt` and return the optimization remarks. `unit`
/// labels pragma loops `unit:line` (normally the source path, as in
/// [`crate::compile_opt`]).
pub fn collect(source: &str, unit: &str, opt: OptLevel) -> Result<Vec<Diag>, Diag> {
    let (image, data) = compile_source(source, unit, opt)?;
    if opt == OptLevel::O0 {
        // No pass runs on the oracle stream: nothing to remark on.
        return Ok(Vec::new());
    }
    Ok(assemble(source, &image, &data))
}

fn assemble(source: &str, image: &Image, data: &PassData) -> Vec<Diag> {
    let mut out = Vec::new();
    for (fi, f) in image.funcs.iter().enumerate() {
        kernel_remarks(source, image, fi, &data.inline, &mut out);
        for site in data.inline.sites.iter().filter(|s| s.caller == fi) {
            out.push(Diag::remark(
                "inlined",
                0,
                format!(
                    "fn `{}`: inlined `{}` ({} insns) at pc {}",
                    f.name, image.funcs[site.callee].name, site.insns, site.pc
                ),
            ));
        }
        if let Some(stats) = data.opt_stats.get(fi) {
            if stats.any() {
                out.push(Diag::remark(
                    "opt-pipeline",
                    0,
                    format!(
                        "fn `{}`: {} folded/copy-propagated, {} local CSE, {} dead stores removed, {} fused away",
                        f.name, stats.folded, stats.cse, stats.dse, stats.fused
                    ),
                ));
            }
        }
    }
    out
}

/// `kernel-installed` for every `BulkLoop` and `template-installed`
/// for every `TemplateLoop` in the final stream, then `kernel-missed`
/// (with a reason) for every remaining back-edge loop that is not
/// part of the worksharing protocol itself.
fn kernel_remarks(
    source: &str,
    image: &Image,
    fi: usize,
    inline: &InlineData,
    out: &mut Vec<Diag>,
) {
    let f = &image.funcs[fi];
    for (pc, insn) in f.code.iter().enumerate() {
        let Insn::BulkLoop { kidx } = insn else {
            continue;
        };
        let desc = &f.kernels[*kidx as usize];
        let mut d = Diag::remark(
            "kernel-installed",
            label_offset(source, desc.label),
            format!(
                "fn `{}`: kernel installed: {} (pc {pc}){}",
                f.name,
                desc.kind.name(),
                desc.kind
                    .note()
                    .map(|n| format!(" [{n}]"))
                    .unwrap_or_default()
            ),
        );
        if !desc.label.is_empty() {
            d = d.with_label(desc.label);
        }
        out.push(d);
    }
    for (pc, insn) in f.code.iter().enumerate() {
        let Insn::TemplateLoop { tidx } = insn else {
            continue;
        };
        let desc = &f.templates[*tidx as usize];
        let mut d = Diag::remark(
            "template-installed",
            label_offset(source, desc.label),
            format!(
                "fn `{}`: template installed: typed loop, {} insns (pc {pc}), {}",
                f.name,
                desc.prog.ninsns,
                desc.prog.verdict()
            ),
        );
        if !desc.label.is_empty() {
            d = d.with_label(desc.label);
        }
        out.push(d);
    }
    for row in misses(image, fi, inline) {
        let d = Diag::remark(
            "kernel-missed",
            label_offset(source, &row.label),
            row.message(),
        );
        out.push(d.with_note(row.note).with_label(row.label));
    }
}

/// The `kernel-missed` rows of function `fi`: every back-edge loop that
/// no installed kernel or template span covers and that is not part of
/// the worksharing protocol itself.
fn misses(image: &Image, fi: usize, inline: &InlineData) -> Vec<MissRow> {
    let f = &image.funcs[fi];
    // Installed spans: the BulkLoop/TemplateLoop pc and everything to
    // its exit — the replaced loop body (including any nested loop the
    // shape subsumes, e.g. matvec-rows' inner gather) lives in that
    // range.
    let installed: Vec<(usize, usize)> = (f.code.iter().enumerate())
        .filter_map(|(pc, insn)| match insn {
            Insn::BulkLoop { kidx } => Some((pc, f.kernels[*kidx as usize].exit as usize)),
            Insn::TemplateLoop { tidx } => Some((pc, f.templates[*tidx as usize].exit as usize)),
            _ => None,
        })
        .collect();
    (loops_of(f).into_iter())
        .filter(|&(head, tail)| {
            !installed.iter().any(|&(s, e)| head >= s && head < e)
                && !is_chunk_pull_loop(f, head, tail)
        })
        .map(|(head, tail)| {
            let (reason, note) = classify_miss(image, fi, inline, head, tail, &installed);
            MissRow {
                func: f.name.clone(),
                label: miss_label(image, f, head),
                head,
                tail,
                reason,
                note,
            }
        })
        .collect()
}

/// Label for a `kernel-missed` row. Loops under a worksharing pragma
/// get its `unit:line` label; loops outside any labelled pragma (e.g.
/// inside a helper function the pragma body calls) are attributed to
/// the unique pragma label enclosing the function's call sites, and
/// failing that to a stable `fn:<name>` slug — so every miss row has
/// a non-empty key that `--profile` rows can join on.
fn miss_label(image: &Image, f: &CompiledFn, head: usize) -> String {
    let own = crate::kernels::loop_label(f, head);
    if !own.is_empty() {
        return own.to_string();
    }
    let fi = image.by_name.get(&f.name).copied();
    let mut found: Option<&'static str> = None;
    for g in &image.funcs {
        for (pc, insn) in g.code.iter().enumerate() {
            let referenced = match insn {
                Insn::Call { func, .. } => Some(*func as usize) == fi,
                // Fork/task sites pass the outlined function as a
                // `Fn` constant rather than a direct call.
                Insn::Const { k, .. } => matches!(
                    g.consts.get(*k as usize),
                    Some(Value::Fn(n)) if n.as_ref() == f.name
                ),
                _ => false,
            };
            if !referenced {
                continue;
            }
            let l = crate::kernels::loop_label(g, pc);
            if l.is_empty() {
                continue;
            }
            match found {
                None => found = Some(l),
                Some(prev) if prev == l => {}
                // Ambiguous: called from more than one pragma.
                Some(_) => return format!("fn:{}", f.name),
            }
        }
    }
    found
        .map(str::to_string)
        .unwrap_or_else(|| format!("fn:{}", f.name))
}

/// Why the kernel matcher could not take a loop, most actionable
/// reason first: a call boundary beats everything (the note says why
/// each callee was not inlined, which is what would have to change),
/// then an opcode no shape
/// covers, and finally a plain shape mismatch, whose note also names the
/// template tier's refusal. Returns `(slug, note)`; the slug is
/// the stable machine-readable vocabulary promised in the module docs
/// ([`MissRow::reason`]). Instructions inside an `installed`
/// kernel span are skipped: they were subsumed by a `BulkLoop` and no
/// longer block the *enclosing* loop, so naming them (e.g. the
/// `randlc` call inside an installed `lcg-fill`) would be noise.
fn classify_miss(
    image: &Image,
    fi: usize,
    inline: &InlineData,
    head: usize,
    tail: usize,
    installed: &[(usize, usize)],
) -> (&'static str, String) {
    let f = &image.funcs[fi];
    let mut callees: Vec<String> = Vec::new();
    let mut push = |c: String| {
        if !callees.contains(&c) {
            callees.push(c);
        }
    };
    let mut unsupported: Option<&'static str> = None;
    for pc in head..=tail.min(f.code.len().saturating_sub(1)) {
        if installed.iter().any(|&(s, e)| pc >= s && pc < e) {
            continue;
        }
        match f.code[pc] {
            Insn::Call { func, n, .. } => {
                let g = func as usize;
                // Every direct call left at `--opt=3` was refused.
                let mut why = (inline.why_kept(image, fi, g, n))
                    .map_or("not-inlined".to_string(), |k| k.to_string());
                if image.funcs[g].lcg {
                    why += ", runs as one native LCG step";
                }
                push(format!("`{}` [{why}]", image.funcs[g].name));
            }
            Insn::CallValue { .. } => push(format!("a function value [{}]", Kept::Indirect)),
            Insn::OmpCall { func, .. } => push(format!("`omp.{}` [runtime]", func.path())),
            // A pure builtin is a template op, not a call.
            Insn::Builtin { op, .. } if crate::builtins::PURE.iter().any(|&(o, _)| o == op) => {}
            Insn::Builtin { name_k, .. } => {
                let name: &str = match f.consts.get(name_k as usize) {
                    Some(Value::Str(s)) => s,
                    _ => "@builtin",
                };
                push(format!("`{name}` [builtin]"));
            }
            Insn::Print { .. } => unsupported = unsupported.or(Some("print")),
            Insn::NewCell { .. } => unsupported = unsupported.or(Some("newcell")),
            Insn::CellGet { .. } => unsupported = unsupported.or(Some("cellget")),
            Insn::CellSet { .. } => unsupported = unsupported.or(Some("cellset")),
            Insn::StorePtr { .. } => unsupported = unsupported.or(Some("storeptr")),
            Insn::ElemAddr { .. } => unsupported = unsupported.or(Some("elemaddr")),
            Insn::AddrDeref { .. } => unsupported = unsupported.or(Some("addrderef")),
            _ => {}
        }
    }
    if !callees.is_empty() {
        (
            "call-boundary",
            format!("calls that stayed calls: {}", callees.join(", ")),
        )
    } else if let Some(op) = unsupported {
        (
            "unsupported-op",
            format!("`{op}` has no bulk-kernel lowering"),
        )
    } else {
        // What the template tier refused it for: `shape` for a nested or
        // branching loop, else the rule (see `templates::match_at`).
        let template = match crate::templates::match_at(f, head) {
            Err(why) => why,
            Ok(_) => "installs".to_string(),
        };
        (
            "shape",
            format!(
                "loop bounds/indexing structure matches none of the {} kernel shapes: {}; template: {template}",
                KernelKind::NAMES.len(),
                KernelKind::NAMES.join(", ")
            ),
        )
    }
}

/// One `kernel-missed` row, before it is rendered as a remark.
struct MissRow {
    /// Enclosing function name.
    func: String,
    /// The loop's label (see `miss_label`): its worksharing pragma's
    /// `unit:line`, the one pragma its function is called from, or
    /// `fn:<name>`.
    label: String,
    /// Loop head pc in the final instruction stream.
    head: usize,
    /// The loop's furthest back-edge pc.
    tail: usize,
    /// Stable reason slug: `call-boundary`, `unsupported-op`, or
    /// `shape`.
    reason: &'static str,
    /// Human-readable detail (callee names, blocking opcode, ...).
    note: String,
}

impl MissRow {
    /// The message of this row's `kernel-missed` remark.
    fn message(&self) -> String {
        let reason = match self.reason {
            "call-boundary" => "call boundary",
            "unsupported-op" => "unsupported opcode",
            _ => "shape mismatch",
        };
        format!(
            "fn `{}`: loop at pc {}..{} not lowered to a bulk kernel: {reason}",
            self.func, self.head, self.tail
        )
    }
}

/// Whether the loop `head..=tail` claims chunks: the `while (ws_next(ws))`
/// driver loop is the worksharing protocol, not a compute loop; its
/// *inner* chunk loop is reported separately.
fn is_chunk_pull_loop(f: &CompiledFn, head: usize, tail: usize) -> bool {
    f.code[head..=tail].iter().any(|insn| {
        matches!(
            insn,
            Insn::WsNext { .. }
                | Insn::OmpCall {
                    func: OmpFn::WsNext,
                    ..
                }
        )
    })
}

/// Back-edge loops of a function: `head -> furthest back-edge pc`.
fn loops_of(f: &CompiledFn) -> Vec<(usize, usize)> {
    let mut map: BTreeMap<usize, usize> = BTreeMap::new();
    for (pc, insn) in f.code.iter().enumerate() {
        let Some(to) = jump_target(insn).map(|t| t as usize) else {
            continue;
        };
        if to <= pc {
            let e = map.entry(to).or_insert(pc);
            *e = (*e).max(pc);
        }
    }
    map.into_iter().collect()
}

/// Byte offset of the line a `unit:line` label names, so rendered
/// remarks point at the pragma. `0` for unlabelled remarks.
fn label_offset(source: &str, label: &str) -> usize {
    let Some(line) = label
        .rsplit(':')
        .next()
        .and_then(|l| l.parse::<usize>().ok())
    else {
        return 0;
    };
    source
        .split_inclusive('\n')
        .take(line.saturating_sub(1))
        .map(str::len)
        .sum()
}

/// Render remarks as a JSON array (`zag --remarks=json`), with
/// line/column resolved against `source` exactly like [`Diag::render`].
pub fn render_json(diags: &[Diag], source: &str) -> String {
    let text = |s: Option<&str>| s.map_or(Json::Null, Json::from);
    let rows = diags.iter().map(|d| {
        let at = d.offset.min(source.len());
        let upto = &source[..at];
        let line = upto.matches('\n').count() + 1;
        let col = at - upto.rfind('\n').map_or(0, |p| p + 1) + 1;
        obj([
            ("code", d.code.into()),
            ("line", Json::Int(line as i64)),
            ("col", Json::Int(col as i64)),
            ("label", text(d.label.as_deref())),
            ("message", d.message.as_str().into()),
            ("note", text(d.note.as_deref())),
        ])
    });
    Json::Arr(rows.collect()).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOPY: &str = r#"fn main() void {
    var n: i64 = 64;
    var a: []f64 = @allocF(64);
    //$omp parallel num_threads(2) shared(a) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < n) : (i += 1) {
            a[i] = 1.0;
        }
    }
    print(a[0]);
}
"#;

    #[test]
    fn collect_reports_opt_remarks() {
        let diags = collect(LOOPY, "demo.zag", OptLevel::O3).expect("collect");
        assert!(diags.iter().any(|d| d.code == "opt-pipeline"), "{diags:?}");
        assert!(
            !diags.iter().any(|d| d.code.starts_with("typeck")),
            "{diags:?}"
        );
    }

    #[test]
    fn o3_reports_installed_fill_template_with_pragma_label() {
        let diags = collect(LOOPY, "demo.zag", OptLevel::O3).expect("collect");
        let installed: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "template-installed")
            .collect();
        assert!(
            installed.iter().any(|d| d
                .label
                .as_deref()
                .is_some_and(|l| l.starts_with("demo.zag:"))),
            "{diags:?}"
        );
    }

    #[test]
    fn call_boundary_miss_names_the_callee() {
        // `drain` has a loop, so the inliner leaves it; `half` goes in.
        let src = r#"fn drain(x: *f64, a: f64) f64 {
    while (x.* > 1.0) {
        x.* = x.* * a;
    }
    return x.*;
}
fn half(v: f64) f64 {
    return v * 0.5;
}
fn main() void {
    var n: i64 = 8;
    var s: f64 = 0.0;
    //$omp parallel num_threads(2) shared(s) firstprivate(n)
    {
        var t: f64 = 9.0;
        var i: i64 = 0;
        //$omp while reduction(+: s)
        while (i < n) : (i += 1) {
            s = s + half(drain(&t, 0.5));
        }
    }
    print(s);
}
"#;
        let diags = collect(src, "ep.zag", OptLevel::O3).expect("collect");
        let missed: Vec<_> = diags.iter().filter(|d| d.code == "kernel-missed").collect();
        assert!(
            missed.iter().any(|d| {
                d.message.contains("call boundary")
                    && d.note
                        .as_deref()
                        .is_some_and(|n| n.contains("`drain` [has-loop]") && !n.contains("half"))
            }),
            "{missed:?}"
        );
        assert!(
            diags.iter().any(|d| d.code == "inlined"
                && d.message.contains("inlined `half` (4 insns)")
                && d.message.contains("__omp_outlined_0")),
            "{diags:?}"
        );
        // The slug rides in the note of the JSON form.
        let json = render_json(&diags, src);
        assert!(json.contains("`drain` [has-loop]"), "{json}");
        assert!(json.contains("\"code\":\"inlined\""), "{json}");
    }

    /// A loop neither tier takes says why in the note: here the kernels'
    /// shape list and the template tier's replay rule.
    #[test]
    fn shape_miss_names_the_template_refusal() {
        let src = r#"fn main() void {
    var n: i64 = 8;
    var key: []i64 = @allocI(n);
    var y: []i64 = @allocI(n);
    var h: []i64 = @allocI(n);
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        y[i] = 1;
        h[key[i]] += 1;
    }
    print(h[0]);
}
"#;
        let diags = collect(src, "t.zag", OptLevel::O3).expect("collect");
        let notes: Vec<_> = (diags.iter())
            .filter(|d| d.code == "kernel-missed")
            .filter_map(|d| d.note.as_deref())
            .collect();
        assert!(
            notes
                .iter()
                .any(|n| n.ends_with("; template: fallible-after-store")),
            "{diags:?}"
        );
    }

    #[test]
    fn json_escapes_and_shapes() {
        let msg = "say \"hi\"\tand\r\u{1}";
        let d = Diag::remark("kernel-missed", 3, msg).with_label("a.zag:2");
        let json = Json::parse(&render_json(&[d], "x\ny\n")).expect("remarks parse");
        let [row] = json.as_arr().expect("an array") else {
            panic!("one row: {json:?}")
        };
        assert_eq!(row.get("message"), Some(&Json::from(msg)));
        assert_eq!(row.get("label"), Some(&Json::from("a.zag:2")));
        assert_eq!(row.get("note"), Some(&Json::Null));
        assert_eq!(row.get("line"), Some(&Json::Int(2)));
        assert_eq!(row.get("col"), Some(&Json::Int(2)));
    }
}
