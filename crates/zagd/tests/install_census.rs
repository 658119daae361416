//! Install census: where the native tier lands in every shipped program.
//!
//! Each program compiles at `--opt=3`; for each function the census lists
//! every installed kernel as `(pc, kind)` and every template as `(pc,
//! instruction count, verdict)`, the verdict being `strip` or `scalar:
//! <rule>`. Variant counts are left out on purpose: how many
//! monomorphisations a template carries may change, where it installs
//! and how it runs may not. A compiler change that loses or moves an
//! install, or drops a loop from the strip walk to the scalar chain,
//! shows up as a diff against `tests/golden/install_census.txt`.
//!
//! The programs: `examples/zag/*.zag`, `crates/integration/fixtures/*/*.zag`,
//! the NPB ports of `zomp_bench::ports` and the `zagd::demo` sources.
//! To accept a new census:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p zagd --test install_census
//! ```
//!
//! The second golden, `crates/vm/tests/golden/templates.txt`, prints every
//! installed template of the same programs and the `benchmark` crate's
//! (`benchmark/src/programs.rs`) in full: its variants' binds, ops,
//! write-backs and strip plan, each op function by name. It pins the
//! template decoder's output, not only its verdict; the same
//! `UPDATE_GOLDEN=1` re-blesses it.

use std::fmt::Write as _;
use std::path::Path;

use zomp_vm::bytecode::Insn;
use zomp_vm::compile::compile_source;
use zomp_vm::OptLevel;

/// The `.zag` files directly under `dir`, sorted by name.
fn zag_files(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "zag"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("read source");
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, src)
        })
        .collect()
}

/// Every program of the census as (label, source), in a fixed order.
fn programs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = Vec::new();
    for (name, src) in zag_files(&root.join("examples/zag")) {
        out.push((format!("examples/zag/{name}"), src));
    }
    for group in ["clean", "faults", "racy"] {
        let dir = root.join("crates/integration/fixtures").join(group);
        for (name, src) in zag_files(&dir) {
            out.push((format!("fixtures/{group}/{name}"), src));
        }
    }
    use zomp_bench::ports;
    for (name, src) in [
        ("ports::ZAG_MATVEC", ports::ZAG_MATVEC),
        ("ports::ZAG_EP", ports::ZAG_EP),
        ("ports::ZAG_RANK", ports::ZAG_RANK),
        ("ports::ZAG_TEMPLATE", ports::ZAG_TEMPLATE),
    ] {
        out.push((name.to_string(), src.to_string()));
    }
    out.push(("demo::cg".into(), zagd::demo::cg()));
    out.push(("demo::ep".into(), zagd::demo::ep()));
    out.push(("demo::is".into(), zagd::demo::is()));
    out
}

/// One program's census: a header line, then one line per function that
/// has an install, listing its installs in pc order.
fn census(label: &str, src: &str) -> String {
    let mut out = format!("{label}\n");
    let (image, _) = match compile_source(src, label, OptLevel::O3) {
        Ok(compiled) => compiled,
        Err(e) => {
            let _ = writeln!(out, "  compile error: {}", e.message);
            return out;
        }
    };
    for f in &image.funcs {
        let mut installs = Vec::new();
        for (pc, insn) in f.code.iter().enumerate() {
            match *insn {
                Insn::BulkLoop { kidx } => {
                    let kind = f.kernels[kidx as usize].kind.name();
                    installs.push(format!("{pc}:kernel({kind})"));
                }
                Insn::TemplateLoop { tidx } => {
                    let prog = &f.templates[tidx as usize].prog;
                    let (n, verdict) = (prog.ninsns, prog.verdict());
                    installs.push(format!("{pc}:template({n} insns, {verdict})"));
                }
                _ => {}
            }
        }
        if !installs.is_empty() {
            let _ = writeln!(out, "  fn {}: {}", f.name, installs.join(" "));
        }
    }
    out
}

/// The `benchmark` crate's programs: each `pub const NAME: &str = r#"...";`
/// of `benchmark/src/programs.rs`, read as text (the crate is not a
/// workspace member).
fn benchmark_programs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("benchmark/src/programs.rs")).expect("read");
    let mut out = Vec::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find("pub const ") {
        rest = &rest[at + "pub const ".len()..];
        let name = &rest[..rest.find(':').expect("a typed const")];
        let (open, close) = (rest.find("r#\"").expect("a raw string"), "\"#;");
        let body = &rest[open + 3..];
        let end = body.find(close).expect("a closed raw string");
        out.push((format!("benchmark::{name}"), body[..end].to_string()));
        rest = &body[end..];
    }
    out
}

/// Every installed template of one program, in pc order: a header line
/// per template, then its `{:#?}`.
fn plans(label: &str, src: &str) -> String {
    let mut out = format!("{label}\n");
    let Ok((image, _)) = compile_source(src, label, OptLevel::O3) else {
        return out;
    };
    for f in &image.funcs {
        for (pc, insn) in f.code.iter().enumerate() {
            let Insn::TemplateLoop { tidx } = *insn else {
                continue;
            };
            let desc = &f.templates[tidx as usize];
            let _ = writeln!(out, "  fn {} pc {pc} exit {}:", f.name, desc.exit);
            let text = fold_leaves(&format!("{:#?}", desc.prog));
            let _ = writeln!(out, "    {}", text.replace('\n', "\n    "));
        }
    }
    out
}

/// `{:#?}` output with each innermost block, one that holds no other, on
/// one line: `TOp { f: add_ff, a: 2, .. },` instead of eleven.
fn fold_leaves(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let (opens, closes) = (['{', '(', '['], ['}', ')', ']']);
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        let leaf = |l: &str| {
            l.ends_with(',') && !l.ends_with(opens) && !l.trim_start().starts_with(closes)
        };
        let end = (line.ends_with(opens))
            .then(|| (i + 1..lines.len()).find(|&j| !leaf(lines[j])))
            .flatten()
            .filter(|&j| lines[j].trim_start().starts_with(closes) && !lines[j].ends_with(opens));
        match end {
            Some(j) => {
                let inner: Vec<&str> = lines[i + 1..=j].iter().map(|l| l.trim()).collect();
                out.push(format!("{line} {}", inner.join(" ")));
                i = j + 1;
            }
            None => {
                out.push(line.to_string());
                i += 1;
            }
        }
    }
    out.join("\n")
}

/// Compare `got` with the golden at `path`, or write it under `UPDATE_GOLDEN`.
fn check_golden(path: &str, got: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(Path::new(path).parent().unwrap()).expect("golden dir");
        std::fs::write(path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "{path} drifted; review the diff and re-bless with UPDATE_GOLDEN=1 if intended"
    );
}

#[test]
fn install_sites_match_golden() {
    let got: String = programs().iter().map(|(l, s)| census(l, s)).collect();
    let path = format!(
        "{}/tests/golden/install_census.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    check_golden(&path, &got);
}

/// Each op prints by the name of its row, not by its function's address:
/// an optimised build may fold op functions whose machine code is
/// identical (`k + x` and `x + k`) into one address.
#[test]
fn template_plans_match_golden() {
    let mut all = programs();
    all.extend(benchmark_programs());
    let got: String = all.iter().map(|(l, s)| plans(l, s)).collect();
    let path = format!(
        "{}/../vm/tests/golden/templates.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    check_golden(&path, &got);
}
