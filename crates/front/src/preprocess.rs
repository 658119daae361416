//! The multi-pass source-to-source preprocessor (paper Listing 5).
//!
//! The paper's attempts to graft runtime calls directly into the Zig AST
//! failed (nodes are welded to source locations), so the adopted design is
//! a *preprocessor built into the compiler*: parse, find the directive
//! nodes of the current step, compute a replacement payload per node, apply
//! the replacements while **adjusting source offsets** after each splice,
//! and recurse until no pragmas remain. Replacement order matters: all
//! **parallel regions** are replaced before **worksharing loops**, then the
//! simple directives — "consequently, nested constructs do not require
//! special handling ... as long as they are of different types".
//!
//! Lowering targets are the `omp.internal.*` builtins (the paper's
//! `.omp.internal` namespace, §III-C), including its generic wrappers for
//! the `__kmpc_for_static_*` / `__kmpc_dispatch_*` families (`ws_begin` /
//! `ws_next` / `ws_fini` here).
//!
//! Variable rewriting (§III-B3) happens with **no semantic information**,
//! exactly as in the paper: two identifiers in the same scope refer to the
//! same entity as long as neither is preceded by a period, so shared
//! variables are renamed token-wise (`s` → `__shr_s.*`) across the whole
//! outlined body — including inside nested pragma lines, whose clause
//! grammar therefore accepts dereferenced places.

use crate::ast::{Ast, Clauses, Node, NodeId, RedOpCode, SchedKind, Tag as N, TokenId};
use crate::parser::parse;
use crate::token::Tag as T;
use crate::Diag;

/// Preprocess until no pragmas remain; returns the final pragma-free
/// source.
pub fn preprocess(source: &str) -> Result<String, Diag> {
    Ok(preprocess_parsed(parse(source)?, None)?.source)
}

/// [`preprocess`] with a compilation-unit name (normally the source file
/// path). Each lowered parallel region then carries its pragma's
/// `unit:line` as a leading string argument of `fork_call`, which the
/// runtime's observability layer uses to label the region — trace slices
/// and profile rows point back at the pragma instead of at the VM.
pub fn preprocess_named(source: &str, unit: &str) -> Result<String, Diag> {
    Ok(preprocess_parsed(parse(source)?, Some(unit))?.source)
}

/// Preprocess starting from the caller's parse of the source, and return
/// the parse of the final pragma-free source (its text is `.source`).
/// Each text is parsed once: a source without pragmas comes back as it
/// went in.
pub fn preprocess_parsed(ast: Ast, unit: Option<&str>) -> Result<Ast, Diag> {
    preprocess_inner(ast, unit, None)
}

/// Like [`preprocess`], but also returns each intermediate pass output (for
/// tests and for showing the pipeline in examples).
pub fn preprocess_trace(source: &str) -> Result<(String, Vec<String>), Diag> {
    let mut trace = Vec::new();
    let ast = preprocess_inner(parse(source)?, None, Some(&mut trace))?;
    Ok((ast.source, trace))
}

fn preprocess_inner(
    mut ast: Ast,
    unit: Option<&str>,
    mut trace: Option<&mut Vec<String>>,
) -> Result<Ast, Diag> {
    precheck(&ast)?;
    let mut counter = 0usize;
    // Each iteration eliminates at least one directive; bound generously.
    for _ in 0..256 {
        if !ast.has_pragmas() {
            return Ok(ast);
        }
        let step = if contains(&ast, N::OmpParallel) {
            Step::Parallel
        } else if contains(&ast, N::OmpWhile) {
            Step::While
        } else {
            Step::Simple
        };
        let src = run_pass(&ast, step, &mut counter, unit)?;
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(src.clone());
        }
        ast = parse(&src)?;
    }
    Err(Diag::preprocess(0, "preprocessor did not converge"))
}

/// Refuse on the parse of the user's source what a later round would
/// refuse on text the rounds before it rewrote: a worksharing nest
/// `replace_while` cannot lower, a worksharing loop whose variable reaches
/// it shared (see [`shared_at`]), and `threadprivate`. A worksharing loop
/// inside a `parallel` region is lowered in the outlined function, whose
/// offsets are not the file's, so its error must come from here.
fn precheck(ast: &Ast) -> Result<(), Diag> {
    for id in 0..ast.nodes.len() as NodeId {
        let node = ast.node(id);
        match node.tag {
            N::OmpWhile => {
                let (nest, _) = ws_nest(ast, id, &Clauses::read(&ast.extra_data, node.lhs))?;
                let var = &nest[0].0.var;
                if shared_at(ast, id, var) {
                    return Err(Diag::preprocess(
                        ast.byte_span(node.rhs).0,
                        format!(
                            "the worksharing loop variable `{var}` is shared by its region; \
                             declare it inside the region or make it firstprivate"
                        ),
                    ));
                }
            }
            N::OmpThreadprivate => {
                return Err(Diag::preprocess(
                    ast.byte_span(id).0,
                    "threadprivate requires global variables, which Zag does not have; \
                     use the zomp runtime's ThreadPrivate<T> from Rust instead",
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Whether `var` reaches node `id` as a shared place: the innermost
/// enclosing `parallel` region that lists it in a clause lists it in
/// `shared`. Outlining then rewrites it to `__shr_var.*` throughout that
/// region's body, nested regions included.
fn shared_at(ast: &Ast, id: NodeId, var: &str) -> bool {
    let (start, end) = ast.byte_span(id);
    let mut regions: Vec<(usize, Clauses)> = (0..ast.nodes.len() as NodeId)
        .filter(|&r| ast.node(r).tag == N::OmpParallel)
        .filter_map(|r| {
            let (rs, re) = ast.byte_span(r);
            (rs <= start && end <= re)
                .then(|| (rs, Clauses::read(&ast.extra_data, ast.node(r).lhs)))
        })
        .collect();
    regions.sort_by_key(|&(rs, _)| std::cmp::Reverse(rs));
    let names = |toks: &[TokenId]| toks.iter().any(|&t| ast.token_text(t) == var);
    (regions.iter())
        .find(|(_, c)| {
            names(&c.shared)
                || names(&c.private)
                || names(&c.firstprivate)
                || c.reduction.iter().any(|&(_, t)| ast.token_text(t) == var)
        })
        .is_some_and(|(_, c)| names(&c.shared))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Parallel,
    While,
    Simple,
}

fn contains(ast: &Ast, tag: N) -> bool {
    ast.nodes.iter().any(|n| n.tag == tag)
}

/// A single replacement payload: splice `text` over `span`, optionally
/// appending `appendix` (an outlined function) at end of file.
struct Payload {
    span: (usize, usize),
    text: String,
    appendix: String,
}

fn run_pass(
    ast: &Ast,
    step: Step,
    counter: &mut usize,
    unit: Option<&str>,
) -> Result<String, Diag> {
    // Collect the directive nodes of this step, outermost-first: nodes
    // nested inside another selected node are left for a later iteration.
    let wanted: Vec<NodeId> = (0..ast.nodes.len() as u32)
        .filter(|&id| {
            let t = ast.node(id).tag;
            match step {
                Step::Parallel => t == N::OmpParallel,
                Step::While => t == N::OmpWhile,
                Step::Simple => matches!(
                    t,
                    N::OmpBarrier | N::OmpCritical | N::OmpMaster | N::OmpSingle | N::OmpAtomic
                ),
            }
        })
        .collect();
    let spans: Vec<(usize, usize)> = wanted.iter().map(|&id| ast.byte_span(id)).collect();
    let outermost: Vec<NodeId> = wanted
        .iter()
        .enumerate()
        .filter(|&(i, _)| {
            !spans
                .iter()
                .enumerate()
                .any(|(j, sj)| j != i && sj.0 <= spans[i].0 && spans[i].1 <= sj.1)
        })
        .map(|(_, &id)| id)
        .collect();

    let mut payloads = Vec::new();
    for id in outermost {
        let node = *ast.node(id);
        let payload = match node.tag {
            N::OmpParallel => replace_parallel(ast, id, &node, counter, unit)?,
            N::OmpWhile => replace_while(ast, id, &node, counter, unit)?,
            _ => replace_simple(ast, id, &node)?,
        };
        payloads.push(payload);
    }

    // Apply in source order, adjusting offsets after each replacement
    // (Listing 5's «adjust source offset»).
    payloads.sort_by_key(|p| p.span.0);
    let mut out = ast.source.clone();
    let mut appendix = String::new();
    let mut offset: isize = 0;
    for p in payloads {
        let (s, e) = (
            (p.span.0 as isize + offset) as usize,
            (p.span.1 as isize + offset) as usize,
        );
        out.replace_range(s..e, &p.text);
        offset += p.text.len() as isize - (p.span.1 - p.span.0) as isize;
        appendix.push_str(&p.appendix);
    }
    out.push_str(&appendix);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// A clause list entry resolved to source text: the identifier, and whether
/// the clause spelled it as a dereferenced place (`__shr_x.*`) — which
/// happens when an enclosing parallel pass already rewrote a shared
/// variable.
#[derive(Debug, Clone)]
struct Place {
    ident: String,
    deref: bool,
}

impl Place {
    /// Whether this region received the place as shared from an enclosing
    /// region that itself received it as shared (`__shr___shr_x.*`): the
    /// teams of that region's threads may then reduce into it at the same
    /// time.
    fn passed_through(&self) -> bool {
        let rest = self.ident.strip_prefix("__shr_");
        self.deref && rest.is_some_and(|r| r.starts_with("__shr_"))
    }

    /// The access expression for this place.
    fn access(&self) -> String {
        if self.deref {
            format!("{}.*", self.ident)
        } else {
            self.ident.clone()
        }
    }
}

fn place_of(ast: &Ast, tok: TokenId) -> Place {
    let deref = ast
        .tokens
        .get(tok as usize + 1)
        .is_some_and(|t| t.tag == T::DotStar);
    Place {
        ident: ast.token_text(tok).to_string(),
        deref,
    }
}

/// The lock of a reduction's combine into a place other teams may reduce
/// into at the same time (libomp's reduction lock). Not an identifier, so
/// no `critical` can name it.
const REDUCTION_LOCK: &str = "omp reduction";

/// Combine `place` into the reduction cell `cell` and store the result
/// back, under [`REDUCTION_LOCK`].
fn locked_combine(cell: &str, place: &str) -> String {
    format!(
        "omp.internal.critical_enter(\"{REDUCTION_LOCK}\");\n\
         omp.internal.red_combine({cell}, {place});\n\
         {place} = omp.internal.red_get({cell});\n\
         omp.internal.critical_exit(\"{REDUCTION_LOCK}\");\n"
    )
}

/// One token-wise identifier rewrite (§III-B3): each identifier token
/// equal to `from` and *not preceded by a period* is replaced by `to`; when
/// `strip_deref`, a directly following `.*` is swallowed (used when a
/// dereferenced shared place becomes a plain local accumulator).
struct Rename {
    from: String,
    to: String,
    strip_deref: bool,
}

impl Rename {
    fn new(from: &str, to: String, strip_deref: bool) -> Rename {
        let from = from.to_string();
        Rename {
            from,
            to,
            strip_deref,
        }
    }
}

/// Apply `renames` to `snippet` in order, as if each rewrote the previous
/// one's output, in one walk over one tokenization: each identifier runs
/// through the list, carrying the `.*`s the renames put after it (a later
/// strip swallows those first) ahead of those that followed it.
fn rewrite_idents(snippet: &str, renames: &[Rename]) -> String {
    let Ok(tokens) = crate::token::tokenize(snippet) else {
        return snippet.to_string();
    };
    let mut out = String::with_capacity(snippet.len() + 16);
    let mut cursor = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.tag != T::Ident || (i > 0 && tokens[i - 1].tag == T::Dot) {
            i += 1;
            continue;
        }
        // The `.*`s after it: those the renames added, then the source's.
        let (mut name, mut added) = (t.text(snippet), 0usize);
        let derefs = (tokens[i + 1..].iter())
            .take_while(|n| n.tag == T::DotStar)
            .count();
        let (mut stripped, mut renamed) = (0, false);
        for r in renames {
            if r.from != name {
                continue;
            }
            renamed = true;
            if r.strip_deref && added > 0 {
                added -= 1;
            } else if r.strip_deref && stripped < derefs {
                stripped += 1;
            }
            name = r.to.strip_suffix(".*").unwrap_or(&r.to);
            added += (name.len() < r.to.len()) as usize;
        }
        if renamed {
            out.push_str(&snippet[cursor..t.start as usize]);
            out.push_str(name);
            out.push_str(&".*".repeat(added));
            cursor = tokens[i + stripped].end as usize;
            i += stripped;
        }
        i += 1;
    }
    out.push_str(&snippet[cursor..]);
    out
}

/// The inner text of a block (without its braces).
fn block_inner(ast: &Ast, block: NodeId) -> Result<&str, Diag> {
    let node = ast.node(block);
    if node.tag != N::Block {
        let (s, _) = ast.byte_span(block);
        return Err(Diag::preprocess(s, "directive body must be a block"));
    }
    let (s, e) = ast.byte_span(block);
    Ok(&ast.source[s + 1..e - 1])
}

fn red_op_code(op: RedOpCode) -> u32 {
    op as u32
}

// ---------------------------------------------------------------------------
// Pass 1: parallel regions (function outlining, §III-B1)
// ---------------------------------------------------------------------------

fn replace_parallel(
    ast: &Ast,
    id: NodeId,
    node: &Node,
    counter: &mut usize,
    unit: Option<&str>,
) -> Result<Payload, Diag> {
    let clauses = Clauses::read(&ast.extra_data, node.lhs);
    let region = *counter;
    *counter += 1;
    let fname = format!("__omp_outlined_{region}");
    // Region label for the observability layer: the pragma's `unit:line`
    // in the *current pass* source (for top-level pragmas this is the
    // original line; outlined nested regions shift with the splices).
    let label = unit.map(|u| {
        let (start, _) = ast.byte_span(id);
        let line = ast.source[..start].matches('\n').count() + 1;
        format!("\"{u}:{line}\", ")
    });

    let body = block_inner(ast, node.rhs)?;
    let mut renames = Vec::new();

    // Argument groups of the variadic fork_call: firstprivate by value,
    // shared by pointer, reduction by cell (§III-B1's three ?*anyopaque
    // groups).
    let mut params: Vec<String> = Vec::new();
    let mut args: Vec<String> = Vec::new();
    let mut prologue = String::new();
    let mut epilogue = String::new();
    let mut pre_call = String::new();
    let mut post_call = String::new();

    // An enclosing region's shared variable (`__shr_x.*`) named by a
    // clause that makes it a local of this region: the body's accesses
    // lose their dereference.
    let localize = |renames: &mut Vec<Rename>, p: &Place| {
        if p.deref {
            renames.push(Rename::new(&p.ident, p.ident.clone(), true));
        }
    };
    for &tok in &clauses.firstprivate {
        let p = place_of(ast, tok);
        let local = p.ident.clone();
        params.push(format!("{local}: any"));
        args.push(p.access());
        localize(&mut renames, &p);
    }
    for &tok in &clauses.shared {
        let p = place_of(ast, tok);
        let renamed = format!("__shr_{}", p.ident);
        params.push(format!("{renamed}: any"));
        if p.deref {
            // An enclosing region's shared variable: its pointer passes
            // through, and the body's `__shr_x.*` accesses keep their one
            // dereference under the new name.
            args.push(p.ident.clone());
            renames.push(Rename::new(&p.ident, renamed, false));
        } else {
            args.push(format!("&{}", p.access()));
            // Every use in the body — including in nested pragma clause
            // lists — becomes a pointer access.
            renames.push(Rename::new(&p.ident, format!("{renamed}.*"), false));
        }
    }
    for &(op, tok) in &clauses.reduction {
        let p = place_of(ast, tok);
        let cell = format!("__red_{}_{region}", p.ident);
        let (code, place) = (red_op_code(op), p.access());
        if p.deref {
            // An enclosing region's shared variable, which the other
            // threads of that region may reduce into at the same time: the
            // cell starts from the operator's identity (of the original's
            // type), and after the join combines into the original under
            // the reduction lock.
            pre_call.push_str(&format!(
                "const {cell} = omp.internal.red_cell({code}, \
                 omp.internal.red_identity(omp.internal.red_cell({code}, {place})));\n"
            ));
            post_call.push_str(&locked_combine(&cell, &place));
        } else {
            pre_call.push_str(&format!(
                "const {cell} = omp.internal.red_cell({code}, {place});\n"
            ));
            post_call.push_str(&format!("{place} = omp.internal.red_get({cell});\n"));
        }
        params.push(format!("{cell}: any"));
        args.push(cell.clone());
        prologue.push_str(&format!(
            "var {} : any = omp.internal.red_identity({cell});\n",
            p.ident
        ));
        epilogue.push_str(&format!("omp.internal.red_combine({cell}, {});\n", p.ident));
        localize(&mut renames, &p);
    }
    for &tok in &clauses.private {
        let p = place_of(ast, tok);
        prologue.push_str(&format!("var {} : any = undefined;\n", p.ident));
        localize(&mut renames, &p);
    }
    let body = rewrite_idents(body, &renames);

    // num_threads / if clauses decide the requested team size.
    let nt = match (clauses.num_threads, clauses.if_expr) {
        (Some(e), None) => ast.node_text(e).to_string(),
        (None, None) => "0".to_string(),
        (nt, Some(cond)) => {
            let nt_text = nt
                .map(|e| ast.node_text(e).to_string())
                .unwrap_or("0".into());
            format!(
                "omp.internal.if_threads({}, {nt_text})",
                ast.node_text(cond)
            )
        }
    };

    let call = format!(
        "{{\n{pre_call}omp.internal.fork_call({}{nt}, {fname}{}{});\n{post_call}}}",
        label.as_deref().unwrap_or(""),
        if args.is_empty() { "" } else { ", " },
        args.join(", ")
    );
    let fn_text = format!(
        "\nfn {fname}({}) void {{\n{prologue}{body}\n{epilogue}}}\n",
        params.join(", ")
    );

    Ok(Payload {
        span: ast.byte_span(id),
        text: call,
        appendix: fn_text,
    })
}

// ---------------------------------------------------------------------------
// Pass 2: worksharing loops (§III-B2)
// ---------------------------------------------------------------------------

/// Extract (loop var, cmp code, ub text, incr text, cont text) from the
/// attached while loop, the way §III-B2 describes: comparison operator from
/// the condition, upper bound from its right-hand side, increment from the
/// continuation expression.
pub(crate) struct LoopShape {
    pub(crate) var: String,
    pub(crate) cmp_code: u32,
    pub(crate) ub_text: String,
    pub(crate) incr_text: String,
    pub(crate) cont_text: String,
    pub(crate) body: NodeId,
}

pub(crate) fn loop_shape(ast: &Ast, while_id: NodeId) -> Result<LoopShape, Diag> {
    let w = ast.node(while_id);
    let (wstart, _) = ast.byte_span(while_id);
    let cond = ast.node(w.lhs);
    if cond.tag != N::BinOp {
        return Err(Diag::preprocess(
            wstart,
            "worksharing loop condition must be `var <cmp> bound`",
        ));
    }
    let cmp_tok = ast.tokens[cond.main_token as usize].tag;
    let cmp_code = match cmp_tok {
        T::Lt => 0,
        T::LtEq => 1,
        T::Gt => 2,
        T::GtEq => 3,
        _ => {
            return Err(Diag::preprocess(
                wstart,
                "worksharing loop comparison must be one of < <= > >=",
            ))
        }
    };
    let var_node = ast.node(cond.lhs);
    if var_node.tag != N::Ident {
        return Err(Diag::preprocess(
            wstart,
            "worksharing loop condition must compare the loop variable",
        ));
    }
    let var = ast.token_text(var_node.main_token).to_string();
    let ub_text = ast.node_text(cond.rhs).to_string();

    let body = ast.extra_data[w.rhs as usize];
    let cont = ast.extra_data[w.rhs as usize + 1];
    if cont == 0 {
        return Err(Diag::preprocess(
            wstart,
            "worksharing loops need a `: (i += step)` continuation",
        ));
    }
    let cont_id = cont - 1;
    let cont_node = ast.node(cont_id);
    if cont_node.tag != N::CompoundAssign {
        return Err(Diag::preprocess(
            wstart,
            "worksharing loop continuation must be `i += step` or `i -= step`",
        ));
    }
    let lhs = ast.node(cont_node.lhs);
    if lhs.tag != N::Ident || ast.token_text(lhs.main_token) != var {
        return Err(Diag::preprocess(
            wstart,
            "loop continuation must update the loop variable",
        ));
    }
    let step_text = ast.node_text(cont_node.rhs).to_string();
    let incr_text = match ast.tokens[cont_node.main_token as usize].tag {
        T::PlusEq => step_text,
        T::MinusEq => format!("-({step_text})"),
        _ => {
            return Err(Diag::preprocess(
                wstart,
                "loop continuation must use += or -=",
            ))
        }
    };
    let cont_text = ast.node_text(cont_id).to_string();
    Ok(LoopShape {
        var,
        cmp_code,
        ub_text,
        incr_text,
        cont_text,
        body,
    })
}

/// Each level of a loop nest, outermost first: its shape and its
/// counter's initial value.
pub(crate) type Nest = Vec<(LoopShape, String)>;

/// The perfect nest of `depth` loops under the worksharing directive
/// `directive`, as `collapse(depth)` lowers it: each level's shape and its
/// counter's initial value (the first level's counter starts from the
/// value it holds). Below each level but the last, the body is exactly
/// `{ var j = <init>; while (j …) : (j ±= s) { … } }`, and its declared
/// counter drives its loop. An error carries the level (from 1) the nest
/// breaks at.
pub(crate) fn perfect_nest(ast: &Ast, directive: NodeId, depth: u8) -> Result<Nest, (usize, Diag)> {
    let first = loop_shape(ast, ast.node(directive).rhs).map_err(|e| (1, e))?;
    let var = first.var.clone();
    let mut nest = vec![(first, var)];
    let at = ast.byte_span(directive).0;
    while nest.len() < depth as usize {
        let level = nest.len() + 1;
        let outer = nest[level - 2].0.body;
        let fail = |msg: &str| Err((level, Diag::preprocess(at, msg)));
        let body = ast.node(outer);
        let stmts = if body.tag == N::Block {
            ast.range(body)
        } else {
            &[]
        };
        let perfect = match *stmts {
            [d, w] => {
                (ast.node(d).tag == N::VarDecl && ast.node(w).tag == N::While).then_some((d, w))
            }
            _ => None,
        };
        let Some((decl, inner)) = perfect else {
            return fail(&format!(
                "collapse({depth}) requires the outer body to be exactly \
                 `var j = ...; while (...) : (...) {{ }}`"
            ));
        };
        let decl = ast.node(decl);
        if decl.rhs == 0 {
            return fail("inner counter needs an initializer");
        }
        let shape = loop_shape(ast, inner).map_err(|e| (level, e))?;
        if shape.var != ast.token_text(decl.main_token) {
            return fail("the declared counter must drive the inner loop");
        }
        nest.push((shape, ast.node_text(decl.rhs - 1).to_string()));
    }
    Ok(nest)
}

/// The nest the worksharing directive `id` lowers, and the text inside
/// its innermost body's braces.
fn ws_nest<'a>(ast: &'a Ast, id: NodeId, clauses: &Clauses) -> Result<(Nest, &'a str), Diag> {
    let nest = perfect_nest(ast, id, clauses.flags.collapse.max(1)).map_err(|(_, e)| e)?;
    let body = block_inner(ast, nest[nest.len() - 1].0.body)?;
    Ok((nest, body))
}

/// Lower a worksharing loop, collapsed or not. A single loop workshares
/// its own iteration space. A `collapse(n)` nest workshares the
/// linearised space `0..t1 * … * tn` of its levels' trip counts, and each
/// iteration recovers the level indices from the flat index, outermost
/// first: level `l` is `(idx / (t(l+1) * … * tn)) % tl`.
fn replace_while(
    ast: &Ast,
    id: NodeId,
    node: &Node,
    counter: &mut usize,
    unit: Option<&str>,
) -> Result<Payload, Diag> {
    let clauses = Clauses::read(&ast.extra_data, node.lhs);
    let k = *counter;
    *counter += 1;
    // Loop label for the observability layer, like `replace_parallel`'s
    // region label: the pragma's `unit:line` in the current pass source
    // (loops inside outlined regions shift with the splices). Rides as a
    // leading string argument of `ws_begin`.
    let ws_label = ws_label_arg(ast, id, unit);

    let (nest, body) = ws_nest(ast, id, &clauses)?;
    let mut renames = Vec::new();

    // Schedule kind codes for ws_begin: 0 static, 1 dynamic, 2 guided,
    // 3 runtime (auto maps to static).
    let (kind_code, chunk) = match clauses.schedule {
        None => (0u32, 0u32),
        Some(s) => {
            let code = match s.kind {
                SchedKind::Dynamic => 1,
                SchedKind::Guided => 2,
                SchedKind::Runtime => 3,
                _ => 0,
            };
            (code, s.chunk.unwrap_or(0))
        }
    };

    let (mut pre, mut post) = (String::new(), String::new());
    // Loop privates: fresh names to honour Zig's no-shadowing rule.
    for &tok in &clauses.private {
        let p = place_of(ast, tok);
        let fresh = format!("__prv_{}_{k}", p.ident);
        pre.push_str(&format!("var {fresh}: any = undefined;\n"));
        renames.push(Rename::new(&p.ident, fresh, false));
    }
    for &tok in &clauses.firstprivate {
        let p = place_of(ast, tok);
        let fresh = format!("__prv_{}_{k}", p.ident);
        pre.push_str(&format!("var {fresh}: any = {};\n", p.access()));
        renames.push(Rename::new(&p.ident, fresh, false));
    }

    loop_reductions(ast, &clauses, k, &mut pre, &mut post, &mut renames);
    let body = rewrite_idents(body, &renames);

    // The loop itself: the generic wrapper over __kmpc_for_static_* /
    // __kmpc_dispatch_* (§III-C). Bounds are evaluated once at entry.
    let ws = format!("__ws_{k}");
    let (space, chunk_loop) = match &nest[..] {
        // One loop claims chunks of its own variable's values: no
        // division per iteration, and the bytecode's counted-loop forms
        // see the user's loop.
        [(shape, _)] => {
            let (var, ub) = (&shape.var, format!("__ub_{k}"));
            let inner_cmp = match shape.cmp_code {
                2 | 3 => format!("{var} > {ub}"),
                _ => format!("{var} < {ub}"),
            };
            (
                format!(
                    "{var}, {}, {}, {}",
                    shape.ub_text, shape.incr_text, shape.cmp_code
                ),
                format!(
                    "{var} = omp.internal.ws_lb({ws});\n\
                     const {ub} = omp.internal.ws_ub({ws});\n\
                     while ({inner_cmp}) : ({}) {{\n{body}\n}}\n",
                    shape.cont_text
                ),
            )
        }
        _ => collapsed(&nest, k, &ws, &body, &mut pre),
    };
    // With a reduction the combined value is only safe to read after a
    // barrier, so the barrier stays even under nowait (what Clang does).
    let nowait_flag = (clauses.flags.nowait && clauses.reduction.is_empty()) as u32;
    let text = format!(
        "{{\n{pre}const {ws} = omp.internal.ws_begin({ws_label}{kind_code}, {chunk}, {space});\n\
         while (omp.internal.ws_next({ws})) {{\n{chunk_loop}}}\n\
         omp.internal.ws_fini({ws}, {nowait_flag});\n{post}}}"
    );

    Ok(Payload {
        span: ast.byte_span(id),
        text,
        appendix: String::new(),
    })
}

/// The `ws_begin` space and the chunk loop of a collapsed `nest` (loop
/// `k`), whose set-up goes into `pre`: each level's first value and trip
/// count, each trip checked with the product of those before it (a
/// product past `i64` fails as `loop bound overflow`), then the flat
/// index space and each level's index recovered from it.
fn collapsed(
    nest: &[(LoopShape, String)],
    k: usize,
    ws: &str,
    body: &str,
    pre: &mut String,
) -> (String, String) {
    let n = nest.len();
    let level = |l: usize| (b'a' + l as u8) as char;
    let trip = |l: usize| format!("__trip{}_{k}", level(l));
    let trips = |r: std::ops::Range<usize>| r.map(trip).collect::<Vec<_>>().join(" * ");
    for (l, (_, init)) in nest.iter().enumerate() {
        pre.push_str(&format!("const __lb{}_{k} = {init};\n", level(l)));
    }
    for (l, (s, _)) in nest.iter().enumerate() {
        let before = (l > 0).then(|| format!(", {}", trips(0..l)));
        pre.push_str(&format!(
            "const {} = omp.internal.trip_count(__lb{}_{k}, {}, {}, {}{});\n",
            trip(l),
            level(l),
            s.ub_text,
            s.incr_text,
            s.cmp_code,
            before.unwrap_or_default(),
        ));
    }
    let idx = format!("__idx_{k}");
    let mut chunk_loop = format!(
        "var {idx}: i64 = omp.internal.ws_lb({ws});\n\
         const __idxub_{k} = omp.internal.ws_ub({ws});\n\
         while ({idx} < __idxub_{k}) : ({idx} += 1) {{\n"
    );
    for (l, (s, _)) in nest.iter().enumerate() {
        let quot = match n - 1 - l {
            0 => idx.clone(),
            1 => format!("{idx} / {}", trips(l + 1..n)),
            _ => format!("{idx} / ({})", trips(l + 1..n)),
        };
        let at = match l {
            0 => quot,
            _ if l == n - 1 => format!("{quot} % {}", trip(l)),
            _ => format!("({quot}) % {}", trip(l)),
        };
        let (decl, ty) = if l == 0 { ("", "") } else { ("var ", ": any") };
        chunk_loop.push_str(&format!(
            "{decl}{}{ty} = __lb{}_{k} + ({at}) * ({});\n",
            s.var,
            level(l),
            s.incr_text
        ));
    }
    chunk_loop.push_str(body);
    chunk_loop.push('\n');
    for (s, _) in &nest[1..] {
        chunk_loop.push_str(&format!("_ = {};\n", s.var));
    }
    chunk_loop.push_str("}\n");
    (format!("0, {}, 1, 0", trips(0..n)), chunk_loop)
}

/// Loop reductions: a team-shared cell per variable, a private
/// accumulator, and a write-back after the combine (the "reduction
/// temporaries which may not share their names with the shared variable"
/// of §III-B3), into `pre`, `post` and `renames` of loop `k`.
fn loop_reductions(
    ast: &Ast,
    clauses: &Clauses,
    k: usize,
    pre: &mut String,
    post: &mut String,
    renames: &mut Vec<Rename>,
) {
    for &(op, tok) in &clauses.reduction {
        let p = place_of(ast, tok);
        let cell = format!("__rc_{}_{k}", sanitize(&p.ident));
        let acc = format!("__acc_{}_{k}", sanitize(&p.ident));
        let (code, place) = (red_op_code(op), p.access());
        if p.passed_through() {
            // Other teams may reduce into the place at the same time: the
            // cell starts from the operator's identity, the master combines
            // the team's total into the place under the reduction lock, and
            // the barrier after lets every thread of the team read it.
            pre.push_str(&format!(
                "const {cell} = omp.internal.red_loop_begin({code}, \
                 omp.internal.red_identity(omp.internal.red_cell({code}, {place})));\n"
            ));
            post.push_str(&format!(
                "_ = omp.internal.red_loop_end({cell}, {acc});\n\
                 if (omp.internal.is_master()) {{\n{}}}\nomp.internal.barrier();\n",
                locked_combine(&cell, &place)
            ));
        } else {
            pre.push_str(&format!(
                "const {cell} = omp.internal.red_loop_begin({code}, {place});\n"
            ));
            post.push_str(&format!(
                "{place} = omp.internal.red_loop_end({cell}, {acc});\n"
            ));
        }
        pre.push_str(&format!(
            "var {acc}: any = omp.internal.red_identity({cell});\n"
        ));
        renames.push(Rename::new(&p.ident, acc, p.deref));
    }
}

/// The `"unit:line", ` leading-argument text for `ws_begin` when the
/// translation unit is named, `""` otherwise — the worksharing twin of
/// `replace_parallel`'s region label.
fn ws_label_arg(ast: &Ast, id: NodeId, unit: Option<&str>) -> String {
    unit.map(|u| {
        let (start, _) = ast.byte_span(id);
        let line = ast.source[..start].matches('\n').count() + 1;
        format!("\"{u}:{line}\", ")
    })
    .unwrap_or_default()
}

fn sanitize(ident: &str) -> String {
    ident.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
}

// ---------------------------------------------------------------------------
// Pass 3: simple directives
// ---------------------------------------------------------------------------

fn replace_simple(ast: &Ast, id: NodeId, node: &Node) -> Result<Payload, Diag> {
    let span = ast.byte_span(id);
    let text = match node.tag {
        N::OmpBarrier => "omp.internal.barrier();".to_string(),
        N::OmpMaster => {
            let body = block_inner(ast, node.rhs)?;
            format!("if (omp.internal.is_master()) {{\n{body}\n}}")
        }
        N::OmpSingle => {
            let clauses = Clauses::read(&ast.extra_data, node.lhs);
            let body = block_inner(ast, node.rhs)?;
            format!(
                "if (omp.internal.single_begin()) {{\n{body}\n}}\nomp.internal.single_end({});",
                clauses.flags.nowait as u32
            )
        }
        N::OmpCritical => {
            let name = if ast.tokens[node.main_token as usize].tag == T::Ident {
                ast.token_text(node.main_token)
            } else {
                "" // the unnamed critical
            };
            let body = block_inner(ast, node.rhs)?;
            format!(
                "omp.internal.critical_enter(\"{name}\");\n{{\n{body}\n}}\nomp.internal.critical_exit(\"{name}\");"
            )
        }
        N::OmpAtomic => {
            let stmt = ast.node(node.rhs);
            debug_assert_eq!(stmt.tag, N::CompoundAssign);
            let lhs_text = ast.node_text(stmt.lhs);
            let rhs_text = ast.node_text(stmt.rhs);
            let op = match ast.tokens[stmt.main_token as usize].tag {
                T::PlusEq => 0,
                T::MinusEq => 9, // sub: distinct from Add for the VM RMW
                T::StarEq => 1,
                T::SlashEq => 10,
                _ => unreachable!("parser enforces compound assignment"),
            };
            format!("omp.internal.atomic_rmw(&({lhs_text}), {op}, {rhs_text});")
        }
        _ => unreachable!("replace_simple called on non-simple directive"),
    };
    Ok(Payload {
        span,
        text,
        appendix: String::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(src: &str) -> String {
        preprocess(src)
            .map_err(|e| panic!("{}", e.render(src)))
            .unwrap()
    }

    #[test]
    fn pragma_free_source_is_unchanged() {
        let src = "fn main() void { var x: i64 = 1; x = x + 1; }";
        assert_eq!(pp(src), src);
    }

    #[test]
    fn parallel_region_is_outlined() {
        let src = "fn main() void {\n\
                   var s: i64 = 0;\n\
                   //$omp parallel shared(s) num_threads(4)\n\
                   {\n s = 1;\n }\n\
                   }";
        let out = pp(src);
        assert!(out.contains("fn __omp_outlined_0"), "{out}");
        assert!(
            out.contains("omp.internal.fork_call(4, __omp_outlined_0, &s)"),
            "{out}"
        );
        // Shared access rewritten to a pointer access inside the outline.
        assert!(out.contains("__shr_s.* = 1;"), "{out}");
        // Result parses cleanly with no pragmas left.
        let ast = parse(&out).unwrap();
        assert!(!ast.has_pragmas());
    }

    #[test]
    fn named_units_label_fork_call_with_pragma_line() {
        let src = "fn main() void {\n\
                   var s: i64 = 0;\n\
                   //$omp parallel shared(s) num_threads(4)\n\
                   {\n s = 1;\n }\n\
                   }";
        let out = preprocess_named(src, "demo.zag").unwrap();
        // The pragma sits on line 3; the label rides as the first argument.
        assert!(
            out.contains("omp.internal.fork_call(\"demo.zag:3\", 4, __omp_outlined_0, &s)"),
            "{out}"
        );
        parse(&out).unwrap();
        // The unnamed path stays byte-identical (no label argument).
        assert!(!pp(src).contains("demo.zag"), "unnamed must not label");
    }

    #[test]
    fn named_units_label_ws_begin_with_pragma_line() {
        let src = "fn main() void {\n\
                   var i: i64 = 0;\n\
                   //$omp while schedule(dynamic, 8)\n\
                   while (i < 100) : (i += 1) {\n\
                   }\n\
                   }";
        let out = preprocess_named(src, "demo.zag").unwrap();
        // The worksharing pragma sits on line 3; the label rides as the
        // leading `ws_begin` argument (the loop twin of the fork label).
        assert!(
            out.contains("omp.internal.ws_begin(\"demo.zag:3\", 1, 8, i, 100, 1, 0)"),
            "{out}"
        );
        parse(&out).unwrap();
        // The unnamed path keeps the historical six-argument form.
        assert!(
            pp(src).contains("omp.internal.ws_begin(1, 8, i, 100, 1, 0)"),
            "unnamed must not label"
        );
    }

    #[test]
    fn firstprivate_passed_by_value_private_declared() {
        let src = "fn main() void {\n\
                   var a: i64 = 7;\n\
                   //$omp parallel firstprivate(a) private(t)\n\
                   {\n t = a;\n _ = t;\n }\n\
                   }";
        let out = pp(src);
        assert!(out.contains("fork_call(0, __omp_outlined_0, a)"), "{out}");
        assert!(out.contains("var t : any = undefined;"), "{out}");
        parse(&out).unwrap();
    }

    #[test]
    fn region_reduction_uses_cell_protocol() {
        let src = "fn main() void {\n\
                   var r: f64 = 0.0;\n\
                   //$omp parallel reduction(+: r)\n\
                   {\n r = r + 1.0;\n }\n\
                   _ = r;\n\
                   }";
        let out = pp(src);
        assert!(out.contains("omp.internal.red_cell(0, r)"), "{out}");
        assert!(out.contains("omp.internal.red_identity"), "{out}");
        assert!(out.contains("omp.internal.red_combine"), "{out}");
        assert!(out.contains("r = omp.internal.red_get"), "{out}");
        parse(&out).unwrap();
    }

    #[test]
    fn worksharing_loop_becomes_ws_driver() {
        let src = "fn f() void {\n\
                   var i: i64 = 0;\n\
                   //$omp while schedule(dynamic, 8) nowait\n\
                   while (i < 100) : (i += 1) {\n _ = i;\n }\n\
                   }";
        let out = pp(src);
        assert!(
            out.contains("omp.internal.ws_begin(1, 8, i, 100, 1, 0)"),
            "{out}"
        );
        assert!(out.contains("omp.internal.ws_next"), "{out}");
        assert!(out.contains("omp.internal.ws_fini(__ws_0, 1)"), "{out}");
        parse(&out).unwrap();
    }

    #[test]
    fn loop_reduction_renames_accumulator() {
        // The §III-B3 case: the loop reduction temporary must not share its
        // name with the variable being reduced into.
        let src = "fn f() void {\n\
                   var sum: f64 = 0.0;\n\
                   var i: i64 = 0;\n\
                   //$omp while reduction(+: sum)\n\
                   while (i < 10) : (i += 1) {\n sum = sum + 1.0;\n }\n\
                   _ = sum;\n\
                   }";
        let out = pp(src);
        assert!(out.contains("red_loop_begin(0, sum)"), "{out}");
        assert!(out.contains("__acc_sum_0 = __acc_sum_0 + 1.0;"), "{out}");
        assert!(out.contains("sum = omp.internal.red_loop_end"), "{out}");
        // Reduction forces the barrier: nowait flag 0.
        assert!(out.contains("ws_fini(__ws_0, 0)"), "{out}");
        parse(&out).unwrap();
    }

    #[test]
    fn parallel_then_inner_loop_lowered_over_two_passes() {
        // The canonical CG shape: a parallel region containing a
        // worksharing reduction loop over a shared variable. The parallel
        // pass rewrites `rho` into `__shr_rho.*` everywhere — including in
        // the inner pragma's clause list — and the while pass then reduces
        // into the dereferenced place.
        let src = "fn main() void {\n\
                   var rho: f64 = 0.0;\n\
                   var n: i64 = 64;\n\
                   //$omp parallel shared(rho) firstprivate(n)\n\
                   {\n\
                   var j: i64 = 0;\n\
                   //$omp while reduction(+: rho)\n\
                   while (j < n) : (j += 1) {\n rho = rho + 1.0;\n }\n\
                   }\n\
                   _ = rho;\n\
                   }";
        let (out, trace) = preprocess_trace(src).unwrap();
        assert!(trace.len() >= 2, "two passes minimum");
        // After pass 1 the inner pragma mentions the rewritten place.
        assert!(
            trace[0].contains("reduction(+: __shr_rho.*)"),
            "{}",
            trace[0]
        );
        // Final output reduces into the pointer access.
        assert!(out.contains("red_loop_begin(0, __shr_rho.*)"), "{out}");
        assert!(
            out.contains("__shr_rho.* = omp.internal.red_loop_end"),
            "{out}"
        );
        let ast = parse(&out).unwrap();
        assert!(!ast.has_pragmas());
    }

    /// A loop reduction on a place its region passes through from an outer
    /// region's shared variable combines the team's total into it under
    /// the reduction lock, not by a plain store.
    #[test]
    fn passed_through_loop_reduction_combines_under_the_lock() {
        let src = "fn f() void {\n\
                   var v: i64 = 0;\n\
                   //$omp parallel shared(v)\n{\n\
                   //$omp parallel shared(v)\n{\n\
                   var i: i64 = 0;\n\
                   //$omp while reduction(+: v)\n\
                   while (i < 4) : (i += 1) { v = v + 1; }\n\
                   }\n}\n}";
        let out = pp(src);
        assert!(out.contains("_ = omp.internal.red_loop_end"), "{out}");
        assert!(
            out.contains("critical_enter(\"omp reduction\");\nomp.internal.red_combine"),
            "{out}"
        );
        assert!(
            !out.contains("__shr_v.* = omp.internal.red_loop_end"),
            "{out}"
        );
        parse(&out).unwrap();
    }

    #[test]
    fn simple_directives_lower() {
        let src = "fn f() void {\n\
                   var x: i64 = 0;\n\
                   //$omp barrier\n\
                   //$omp master\n{ x = 1; }\n\
                   //$omp single nowait\n{ x = 2; }\n\
                   //$omp critical (lock1)\n{ x = 3; }\n\
                   //$omp atomic\nx += 5;\n\
                   }";
        let out = pp(src);
        assert!(out.contains("omp.internal.barrier();"), "{out}");
        assert!(out.contains("if (omp.internal.is_master())"), "{out}");
        assert!(out.contains("omp.internal.single_begin()"), "{out}");
        assert!(out.contains("omp.internal.single_end(1);"), "{out}");
        assert!(out.contains("critical_enter(\"lock1\")"), "{out}");
        assert!(out.contains("atomic_rmw(&(x), 0, 5)"), "{out}");
        parse(&out).unwrap();
    }

    #[test]
    fn variable_rewrite_respects_member_access() {
        // `foo.s` must not be rewritten when `s` is shared — "two
        // identifiers refer to the same entity as long as neither is
        // preceded by a period".
        let r = rewrite_idents(
            "s = foo.s + s;",
            &[Rename::new("s", "__shr_s.*".into(), false)],
        );
        assert_eq!(r, "__shr_s.* = foo.s + __shr_s.*;");
    }

    /// One walk over the renames gives the text their one-by-one
    /// application gives, also where a rename renames what an earlier one
    /// wrote, or strips a `.*` an earlier one added.
    #[test]
    fn one_rename_walk_equals_renaming_one_by_one() {
        let body = "x = x.* + y; foo.x = __shr_x.* + __shr_x; y.*.* = x + acc.*; acc = x.y;";
        let r = |from: &str, to: &str, strip| Rename::new(from, to.into(), strip);
        let lists = [
            vec![r("x", "__shr_x.*", false), r("__shr_x", "__shr_x", true)],
            vec![
                r("__shr_x", "__shr___shr_x", false),
                r("x", "__shr_x.*", false),
            ],
            vec![
                r("x", "__shr_x.*", false),
                r("__shr_x", "__shr___shr_x.*", false),
            ],
            vec![
                r("y", "acc.*", false),
                r("acc", "acc", true),
                r("acc", "z", true),
            ],
            vec![r("y", "y", true), r("y", "y", true), r("x", "acc", true)],
        ];
        for renames in lists {
            let mut one_by_one = body.to_string();
            for rename in &renames {
                one_by_one = rewrite_idents(&one_by_one, std::slice::from_ref(rename));
            }
            assert_eq!(rewrite_idents(body, &renames), one_by_one);
        }
    }

    #[test]
    fn rewrite_strips_deref_for_accumulators() {
        let r = rewrite_idents(
            "x.* = x.* + a[x.*];",
            &[Rename::new("x", "acc".into(), true)],
        );
        assert_eq!(r, "acc = acc + a[acc];");
    }

    #[test]
    fn offsets_adjust_across_multiple_replacements() {
        let src = "fn f() void {\n\
                   //$omp barrier\n\
                   var x: i64 = 0;\n\
                   //$omp barrier\n\
                   _ = x;\n\
                   //$omp barrier\n\
                   }";
        let out = pp(src);
        assert_eq!(out.matches("omp.internal.barrier();").count(), 3, "{out}");
        parse(&out).unwrap();
    }

    #[test]
    fn threadprivate_reports_clear_error() {
        let src = "//$omp threadprivate(g)\nfn f() void { }";
        let err = preprocess(src).unwrap_err();
        assert!(err.message.contains("threadprivate"));
    }

    /// A worksharing loop the lowering refuses is reported where it stands
    /// in the user's file, inside a `parallel` region (whose loops are
    /// lowered in the outlined function, appended past the file's end) as
    /// outside one: a bad comparison, a broken collapsed nest, and a body
    /// that is not a block.
    #[test]
    fn refused_loop_renders_the_same_line_col_inside_a_region() {
        let cases = [
            ("", "while (i != 10) : (i += 1) { t = t + i; }"),
            (" collapse(2)", "while (i < 10) : (i += 1) { t = t + i; }"),
            ("", "while (i < 10) : (i += 1) t = t + i;"),
        ];
        for (clauses, lp) in cases {
            let file = |region: &str| {
                format!(
                    "fn main() void {{\n    var t: i64 = 0;\n    {region}\n    {{\n        \
                     var i: i64 = 0;\n        //$omp while{clauses}\n        {lp}\n    }}\n    \
                     print(t);\n}}\n"
                )
            };
            let (inside, outside) = (file("//$omp parallel shared(t)"), file(""));
            let err_in = preprocess(&inside).unwrap_err();
            let err_out = preprocess(&outside).unwrap_err();
            assert_eq!(err_in.message, err_out.message, "{lp}");
            assert_eq!(
                err_in.line_col(&inside),
                err_out.line_col(&outside),
                "{lp}: {}",
                err_in.render(&inside)
            );
            assert!(
                err_in.line_col(&inside).0 <= 7,
                "{}",
                err_in.render(&inside)
            );
        }
    }

    /// A worksharing loop over a variable its region shares is refused at
    /// the loop; a nested region that makes the variable firstprivate
    /// lowers it.
    #[test]
    fn loop_variable_shared_by_its_region_is_refused_at_the_loop() {
        let file = |inner: &str| {
            format!(
                "fn main() void {{\n    var i: i64 = 0;\n    //$omp parallel shared(i)\n    {{\n        \
                 {inner}\n        {{\n            //$omp while\n            \
                 while (i < 10) : (i += 1) {{ }}\n        }}\n    }}\n}}\n"
            )
        };
        let shared = file("");
        let err = preprocess(&shared).unwrap_err();
        assert_eq!(err.line_col(&shared), (8, 13), "{}", err.render(&shared));
        assert!(
            err.message.contains("`i` is shared by its region"),
            "{}",
            err.message
        );
        preprocess(&file("//$omp parallel firstprivate(i)")).expect("a firstprivate copy lowers");
    }

    #[test]
    fn downward_loop_shape() {
        let src = "fn f() void {\n\
                   var i: i64 = 10;\n\
                   //$omp while\n\
                   while (i > 0) : (i -= 1) {\n _ = i;\n }\n\
                   }";
        let out = pp(src);
        assert!(out.contains("ws_begin(0, 0, i, 0, -(1), 2)"), "{out}");
        assert!(out.contains("while (i > __ub_0)"), "{out}");
        parse(&out).unwrap();
    }

    /// Starting from the caller's parse changes nothing: on every program
    /// the repository ships (`examples/zag/` and the integration
    /// fixtures), [`preprocess_parsed`] gives [`preprocess_named`]'s text,
    /// or its error, and the parse of that text.
    #[test]
    fn preprocess_parsed_agrees_with_preprocess_named() {
        use crate::dump::dump_tree;
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut dirs = vec![root.join("examples/zag")];
        let fixtures = std::fs::read_dir(root.join("crates/integration/fixtures")).unwrap();
        dirs.extend(fixtures.map(|d| d.unwrap().path()));
        let mut checked = 0;
        for dir in dirs {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_none_or(|e| e != "zag") {
                    continue;
                }
                let src = std::fs::read_to_string(&path).unwrap();
                let unit = path.display().to_string();
                let named = preprocess_named(&src, &unit);
                let parsed = parse(&src).and_then(|ast| preprocess_parsed(ast, Some(&unit)));
                match (named, parsed) {
                    (Ok(text), Ok(ast)) => {
                        assert_eq!(ast.source, text, "{unit}");
                        assert_eq!(dump_tree(&ast), dump_tree(&parse(&text).unwrap()), "{unit}");
                        checked += 1;
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!((a.offset, a.message), (b.offset, b.message), "{unit}")
                    }
                    (a, b) => panic!("{unit}: {a:?} vs {:?}", b.map(|ast| ast.source)),
                }
            }
        }
        assert!(checked >= 10, "only {checked} programs preprocessed");
    }
}
