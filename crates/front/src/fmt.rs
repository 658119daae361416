//! A canonical formatter: AST back to Zag source.
//!
//! Directives are reconstructed *from their packed clause blocks*, so a
//! format→parse round trip exercises the full Fig. 2 encode/decode path.
//! The output is canonical rather than byte-faithful: expressions are
//! fully parenthesised and one statement goes per line — but re-parsing
//! yields a structurally identical AST (same node-tag sequence), which the
//! round-trip tests pin.

use crate::ast::{Ast, Clauses, DefaultKind, NodeId, RedOpCode, SchedKind, Tag};

/// Format the whole program.
pub fn format(ast: &Ast) -> String {
    let mut out = String::new();
    let root = *ast.node(ast.root);
    for &decl in ast.range(&root) {
        fmt_stmt(ast, decl, 0, &mut out);
        out.push('\n');
    }
    out
}

fn indent(depth: usize, out: &mut String) {
    out.push_str(&"    ".repeat(depth));
}

fn fmt_stmt(ast: &Ast, id: NodeId, depth: usize, out: &mut String) {
    let node = *ast.node(id);
    match node.tag {
        Tag::FnDecl => {
            let n = node.rhs as usize;
            let params = ast.extra(node.lhs, node.lhs + n as u32).to_vec();
            let body = ast.extra_data[(node.lhs as usize) + n];
            indent(depth, out);
            out.push_str(&format!("fn {}(", ast.token_text(node.main_token)));
            for (i, &p) in params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let pn = ast.node(p);
                out.push_str(&format!(
                    "{}: {}",
                    ast.token_text(pn.main_token),
                    ast.token_text(pn.lhs)
                ));
            }
            out.push_str(") void ");
            fmt_block(ast, body, depth, out);
            out.push('\n');
        }
        Tag::Block => {
            indent(depth, out);
            fmt_block(ast, id, depth, out);
            out.push('\n');
        }
        Tag::VarDecl | Tag::ConstDecl => {
            indent(depth, out);
            let kw = if node.tag == Tag::VarDecl {
                "var"
            } else {
                "const"
            };
            out.push_str(&format!("{kw} {}", ast.token_text(node.main_token)));
            if node.lhs > 0 {
                out.push_str(&format!(": {}", ast.token_text(node.lhs - 1)));
            }
            out.push_str(" = ");
            fmt_expr(ast, node.rhs - 1, out);
            out.push_str(";\n");
        }
        Tag::Assign => {
            indent(depth, out);
            fmt_expr(ast, node.lhs, out);
            out.push_str(" = ");
            fmt_expr(ast, node.rhs, out);
            out.push_str(";\n");
        }
        Tag::CompoundAssign => {
            indent(depth, out);
            fmt_expr(ast, node.lhs, out);
            out.push_str(&format!(" {} ", ast.token_text(node.main_token)));
            fmt_expr(ast, node.rhs, out);
            out.push_str(";\n");
        }
        Tag::While => {
            indent(depth, out);
            fmt_while_header(ast, &node, out);
            let body = ast.extra_data[node.rhs as usize];
            fmt_attached(ast, body, depth, out);
        }
        Tag::If => {
            indent(depth, out);
            out.push_str("if (");
            fmt_expr(ast, node.lhs, out);
            out.push_str(") ");
            let then = ast.extra_data[node.rhs as usize];
            let els = ast.extra_data[node.rhs as usize + 1];
            fmt_block(ast, then, depth, out);
            if els > 0 {
                out.push_str(" else ");
                let e = els - 1;
                if ast.node(e).tag == Tag::If {
                    // else-if chains continue on the same line.
                    let mut chain = String::new();
                    fmt_stmt(ast, e, 0, &mut chain);
                    out.push_str(chain.trim_start());
                    return;
                }
                fmt_block(ast, e, depth, out);
            }
            out.push('\n');
        }
        Tag::Return => {
            indent(depth, out);
            out.push_str("return");
            if node.lhs > 0 {
                out.push(' ');
                fmt_expr(ast, node.lhs - 1, out);
            }
            out.push_str(";\n");
        }
        Tag::Break => {
            indent(depth, out);
            out.push_str("break;\n");
        }
        Tag::Continue => {
            indent(depth, out);
            out.push_str("continue;\n");
        }
        Tag::Discard => {
            indent(depth, out);
            out.push_str("_ = ");
            fmt_expr(ast, node.lhs, out);
            out.push_str(";\n");
        }
        Tag::ExprStmt => {
            indent(depth, out);
            fmt_expr(ast, node.lhs, out);
            out.push_str(";\n");
        }
        Tag::OmpParallel
        | Tag::OmpWhile
        | Tag::OmpBarrier
        | Tag::OmpCritical
        | Tag::OmpMaster
        | Tag::OmpSingle
        | Tag::OmpAtomic
        | Tag::OmpThreadprivate => fmt_directive(ast, id, depth, out),
        other => {
            indent(depth, out);
            out.push_str(&format!("/* unformattable {other:?} */\n"));
        }
    }
}

fn fmt_while_header(ast: &Ast, node: &crate::ast::Node, out: &mut String) {
    out.push_str("while (");
    fmt_expr(ast, node.lhs, out);
    out.push(')');
    let cont = ast.extra_data[node.rhs as usize + 1];
    if cont > 0 {
        out.push_str(" : (");
        let c = *ast.node(cont - 1);
        match c.tag {
            Tag::Assign => {
                fmt_expr(ast, c.lhs, out);
                out.push_str(" = ");
                fmt_expr(ast, c.rhs, out);
            }
            Tag::CompoundAssign => {
                fmt_expr(ast, c.lhs, out);
                out.push_str(&format!(" {} ", ast.token_text(c.main_token)));
                fmt_expr(ast, c.rhs, out);
            }
            _ => {
                fmt_expr(ast, c.lhs, out);
            }
        }
        out.push(')');
    }
    out.push(' ');
}

fn fmt_attached(ast: &Ast, body: NodeId, depth: usize, out: &mut String) {
    if ast.node(body).tag == Tag::Block {
        fmt_block(ast, body, depth, out);
        out.push('\n');
    } else {
        out.push('\n');
        fmt_stmt(ast, body, depth + 1, out);
    }
}

fn fmt_block(ast: &Ast, block: NodeId, depth: usize, out: &mut String) {
    let node = *ast.node(block);
    out.push_str("{\n");
    for &stmt in ast.range(&node) {
        fmt_stmt(ast, stmt, depth + 1, out);
    }
    indent(depth, out);
    out.push('}');
}

fn red_op_text(op: RedOpCode) -> &'static str {
    match op {
        RedOpCode::Add => "+",
        RedOpCode::Mul => "*",
        RedOpCode::Min => "min",
        RedOpCode::Max => "max",
        RedOpCode::BitAnd => "&",
        RedOpCode::LogAnd => "and",
        RedOpCode::LogOr => "or",
    }
}

/// Reconstruct a pragma line from the packed clause block.
fn fmt_directive(ast: &Ast, id: NodeId, depth: usize, out: &mut String) {
    let node = *ast.node(id);
    let c = Clauses::read(&ast.extra_data, node.lhs);
    indent(depth, out);
    out.push_str("//$omp ");
    out.push_str(match node.tag {
        Tag::OmpParallel => "parallel",
        Tag::OmpWhile => "while",
        Tag::OmpBarrier => "barrier",
        Tag::OmpCritical => "critical",
        Tag::OmpMaster => "master",
        Tag::OmpSingle => "single",
        Tag::OmpAtomic => "atomic",
        Tag::OmpThreadprivate => "threadprivate",
        _ => unreachable!(),
    });

    // Critical's optional name rides on main_token.
    if node.tag == Tag::OmpCritical
        && ast.tokens[node.main_token as usize].tag == crate::token::Tag::Ident
    {
        out.push_str(&format!(" ({})", ast.token_text(node.main_token)));
    }
    if node.tag == Tag::OmpThreadprivate {
        out.push_str(&format!(
            "({})",
            c.private
                .iter()
                .map(|&t| ast.token_text(t))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push('\n');
        return;
    }

    if let Some(e) = c.num_threads {
        out.push_str(" num_threads(");
        fmt_expr(ast, e, out);
        out.push(')');
    }
    if let Some(e) = c.if_expr {
        out.push_str(" if(");
        fmt_expr(ast, e, out);
        out.push(')');
    }
    if let Some(s) = c.schedule {
        let kind = match s.kind {
            SchedKind::Static => "static",
            SchedKind::Dynamic => "dynamic",
            SchedKind::Guided => "guided",
            SchedKind::Runtime => "runtime",
            SchedKind::Auto => "auto",
            SchedKind::NotSpecified => "static",
        };
        match s.chunk {
            Some(ch) => out.push_str(&format!(" schedule({kind}, {ch})")),
            None => out.push_str(&format!(" schedule({kind})")),
        }
    }
    let place = |t: crate::ast::TokenId| {
        let deref = ast
            .tokens
            .get(t as usize + 1)
            .is_some_and(|n| n.tag == crate::token::Tag::DotStar);
        let base = ast.token_text(t);
        if deref {
            format!("{base}.*")
        } else {
            base.to_string()
        }
    };
    let list = |name: &str, toks: &[u32], out: &mut String| {
        if !toks.is_empty() {
            out.push_str(&format!(
                " {name}({})",
                toks.iter()
                    .map(|&t| place(t))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    };
    list("private", &c.private, out);
    list("firstprivate", &c.firstprivate, out);
    list("shared", &c.shared, out);
    // Reductions grouped per operator to keep the line canonical.
    for op in [
        RedOpCode::Add,
        RedOpCode::Mul,
        RedOpCode::Min,
        RedOpCode::Max,
        RedOpCode::BitAnd,
        RedOpCode::LogAnd,
        RedOpCode::LogOr,
    ] {
        let vars: Vec<String> = c
            .reduction
            .iter()
            .filter(|&&(o, _)| o == op)
            .map(|&(_, t)| place(t))
            .collect();
        if !vars.is_empty() {
            out.push_str(&format!(
                " reduction({}: {})",
                red_op_text(op),
                vars.join(", ")
            ));
        }
    }
    if c.flags.default == DefaultKind::Shared {
        out.push_str(" default(shared)");
    } else if c.flags.default == DefaultKind::None {
        out.push_str(" default(none)");
    }
    if c.flags.collapse > 1 {
        out.push_str(&format!(" collapse({})", c.flags.collapse));
    }
    if c.flags.nowait {
        out.push_str(" nowait");
    }
    out.push('\n');
    if node.rhs > 0 {
        fmt_stmt(ast, node.rhs, depth, out);
    }
}

fn fmt_expr(ast: &Ast, id: NodeId, out: &mut String) {
    let node = *ast.node(id);
    match node.tag {
        Tag::Ident | Tag::IntLit | Tag::FloatLit | Tag::StrLit | Tag::BoolLit => {
            out.push_str(ast.token_text(node.main_token));
        }
        Tag::UndefinedLit => out.push_str("undefined"),
        Tag::BinOp => {
            out.push('(');
            fmt_expr(ast, node.lhs, out);
            out.push_str(&format!(" {} ", ast.token_text(node.main_token)));
            fmt_expr(ast, node.rhs, out);
            out.push(')');
        }
        Tag::UnOp => {
            out.push_str(ast.token_text(node.main_token));
            fmt_expr(ast, node.lhs, out);
        }
        Tag::Call => {
            fmt_expr(ast, node.lhs, out);
            out.push('(');
            for (i, &a) in ast.call_args(&node).iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                fmt_expr(ast, a, out);
            }
            out.push(')');
        }
        Tag::BuiltinCall => {
            out.push_str(ast.token_text(node.main_token));
            out.push('(');
            let args = ast.extra(node.lhs, node.rhs).to_vec();
            for (i, &a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                fmt_expr(ast, a, out);
            }
            out.push(')');
        }
        Tag::Index => {
            fmt_expr(ast, node.lhs, out);
            out.push('[');
            fmt_expr(ast, node.rhs, out);
            out.push(']');
        }
        Tag::Member => {
            fmt_expr(ast, node.lhs, out);
            out.push('.');
            out.push_str(ast.token_text(node.main_token));
        }
        Tag::Deref => {
            fmt_expr(ast, node.lhs, out);
            out.push_str(".*");
        }
        other => out.push_str(&format!("/* expr {other:?} */")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn tags(ast: &Ast) -> Vec<Tag> {
        ast.nodes.iter().map(|n| n.tag).collect()
    }

    /// format → parse produces a structurally identical AST.
    fn roundtrip(src: &str) {
        let a1 = parse(src).map_err(|e| panic!("{}", e.render(src))).unwrap();
        let formatted = format(&a1);
        let a2 = parse(&formatted)
            .map_err(|e| panic!("{}\n--- formatted ---\n{formatted}", e.render(&formatted)))
            .unwrap();
        assert_eq!(tags(&a1), tags(&a2), "--- formatted ---\n{formatted}");
    }

    #[test]
    fn roundtrips_plain_program() {
        roundtrip(
            "fn f(a: i64, b: f64) i64 {\n\
             var x: i64 = a * 2 + 1;\n\
             if (x > 3) { x = x - 1; } else { x = 0; }\n\
             while (x > 0) : (x -= 1) { _ = x; }\n\
             return x;\n\
             }",
        );
    }

    #[test]
    fn roundtrips_pragmas_through_clause_encoding() {
        roundtrip(
            "fn main() void {\n\
             var s: f64 = 0.0;\n\
             var t: i64 = 0;\n\
             //$omp parallel num_threads(4) private(t) shared(s) reduction(+: s) default(shared)\n\
             {\n\
             var i: i64 = 0;\n\
             //$omp while schedule(dynamic, 16) nowait firstprivate(t)\n\
             while (i < 100) : (i += 1) { s = s + 1.0; }\n\
             //$omp barrier\n\
             //$omp critical (mylock)\n{ t = t + 1; }\n\
             //$omp single nowait\n{ t = 0; }\n\
             //$omp master\n{ t = 2; }\n\
             //$omp atomic\nt += 1;\n\
             }\n\
             _ = s;\n\
             }",
        );
    }

    #[test]
    fn roundtrips_collapse_and_min_reduction() {
        roundtrip(
            "fn f() void {\n\
             var lo: i64 = 100;\n\
             var i: i64 = 0;\n\
             //$omp while collapse(2) reduction(min: lo) schedule(static, 3)\n\
             while (i < 4) : (i += 1) {\n\
             var j: i64 = 0;\n\
             while (j < 4) : (j += 1) { _ = lo; }\n\
             }\n\
             }",
        );
    }

    #[test]
    fn roundtrips_expressions_and_builtins() {
        roundtrip(
            "fn f() void {\n\
             var a: []f64 = @allocF(8);\n\
             var p: *f64 = &a;\n\
             a[0] = @sqrt(2.0) * -a[1] + @intToFloat(3);\n\
             p.* = p.* + omp.get_wtime();\n\
             _ = omp.internal.if_threads(true, 4);\n\
             }",
        );
    }

    #[test]
    fn formatted_pragma_line_reconstructs_clauses() {
        let src = "fn f() void {\nvar i: i64 = 0;\n//$omp while schedule(guided, 9) nowait\nwhile (i < 5) : (i += 1) { }\n}";
        let formatted = format(&parse(src).unwrap());
        assert!(
            formatted.contains("//$omp while schedule(guided, 9) nowait"),
            "{formatted}"
        );
    }
}
