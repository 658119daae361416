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

#[test]
fn install_sites_match_golden() {
    let got: String = programs().iter().map(|(l, s)| census(l, s)).collect();
    let path = format!(
        "{}/tests/golden/install_census.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(Path::new(&path).parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "install sites drifted from tests/golden/install_census.txt; \
         review the diff and re-bless with UPDATE_GOLDEN=1 if intended"
    );
}
