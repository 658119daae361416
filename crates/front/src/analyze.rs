//! Post-parse data-sharing analysis: the `zag --check` lint.
//!
//! The paper's preprocessor rewrites shared variables to pointer accesses
//! but leaves data-sharing *correctness* entirely to the programmer — a
//! write to a shared scalar inside a worksharing loop compiles silently
//! and races at runtime. This pass runs on the original, pragma-bearing
//! AST (before any preprocessing) and classifies every variable occurring
//! in a `parallel`/worksharing region into its sharing class:
//!
//! ```text
//!           unknown (undeclared: functions, modules like `omp`)
//!              │
//!           local      — declared inside the region: one per thread
//!              │
//!        ┌─ private ───────┐
//!        │  firstprivate   │   listed in a clause: privatized copies
//!        │  reduction(op)  │
//!        │  induction      │   the worksharing loop counter
//!        └────────┬────────┘
//!              shared      — explicit `shared(...)` or the default
//! ```
//!
//! and emits a [`Diag`] warning for each rule violation. Rules (the `code`
//! of the produced diagnostic is the rule id):
//!
//! * `race-shared-write` — a write to a shared scalar inside a
//!   worksharing loop body with no reduction/atomic/critical protection.
//! * `default-none-unlisted` — a `default(none)` region references an
//!   outer variable listed in no data-sharing clause.
//! * `reduction-outside-combine` — a reduction variable is read or
//!   written outside its combine pattern (`r op= e`, `r = r op e`,
//!   `r = @min(r, e)`).
//! * `induction-in-clause` — the loop induction variable appears in a
//!   `private`/`shared`/... clause of its own loop.
//! * `collapse-imperfect` — `collapse(n)` over a nest that is not
//!   perfectly nested (`{ var j = ...; while ... }` only).
//! * `collapse-nonrect` — a collapsed inner loop whose bounds depend on
//!   the outer induction variable (non-rectangular nest).
//! * `nowait-unsynced-read` — a `nowait` loop's written shareds are read
//!   again before the next barrier.
//! * `clause-conflict` — one variable in two data-sharing clauses of the
//!   same directive.
//!
//! Every diagnostic is labelled with the owning pragma's `unit:line`, the
//! same label [`crate::preprocess::preprocess_named`] threads into
//! `fork_call` for the observability layer.

use std::collections::{HashMap, HashSet};

use crate::ast::{Ast, Clauses, DefaultKind, Node, NodeId, RedOpCode, SchedKind, Tag as N};
use crate::diag::Diag;
use crate::preprocess::{loop_shape, perfect_nest};

/// Run the data-sharing lint over a parsed, still-pragma'd AST. `unit` is
/// the compilation-unit name used in diagnostic labels (`unit:line`).
/// Returns warnings only — the caller decides whether they deny.
pub fn analyze(ast: &Ast, unit: &str) -> Vec<Diag> {
    let mut a = Analyzer {
        ast,
        unit,
        diags: Vec::new(),
        scopes: Vec::new(),
        regions: Vec::new(),
        ws_loops: Vec::new(),
        protected: 0,
        threadprivate: HashSet::new(),
    };
    let root = ast.node(ast.root);
    // Top-level `threadprivate` directives declare per-thread storage:
    // writes to those names never race.
    for &id in ast.range(root) {
        if ast.node(id).tag == N::OmpThreadprivate {
            let c = Clauses::read(&ast.extra_data, ast.node(id).lhs);
            for &tok in &c.private {
                a.threadprivate.insert(ast.token_text(tok).to_string());
            }
        }
    }
    for &id in ast.range(root) {
        if ast.node(id).tag == N::FnDecl {
            a.walk_fn(id);
        }
    }
    a.diags
}

/// One textual `parallel` region being walked.
struct Region {
    /// `unit:line` of the pragma.
    label: String,
    /// Byte offset of the pragma (diagnostic anchor).
    offset: usize,
    default: DefaultKind,
    private: HashSet<String>,
    firstprivate: HashSet<String>,
    shared: HashSet<String>,
    reduction: HashMap<String, RedOpCode>,
    /// Scope-stack depth at region entry: names resolving below this
    /// depth were declared outside the region.
    outer_depth: usize,
    /// Names already reported by `default-none-unlisted` (dedup).
    flagged_none: HashSet<String>,
}

impl Region {
    fn listed(&self, name: &str) -> bool {
        self.private.contains(name)
            || self.firstprivate.contains(name)
            || self.shared.contains(name)
            || self.reduction.contains_key(name)
    }
}

/// One worksharing loop being walked.
struct WsLoop {
    label: String,
    private: HashSet<String>,
    firstprivate: HashSet<String>,
    reduction: HashSet<String>,
    induction: Option<String>,
    /// Names already reported by `race-shared-write` under this loop.
    flagged_race: HashSet<String>,
}

struct Analyzer<'a> {
    ast: &'a Ast,
    unit: &'a str,
    diags: Vec<Diag>,
    /// Lexical scopes of declared names (params, var/const decls).
    scopes: Vec<HashSet<String>>,
    regions: Vec<Region>,
    ws_loops: Vec<WsLoop>,
    /// Depth of enclosing `atomic`/`critical`/`master`/`single`
    /// constructs: writes under them are serialized, not racy.
    protected: usize,
    threadprivate: HashSet<String>,
}

impl<'a> Analyzer<'a> {
    // -- helpers ------------------------------------------------------------

    fn pragma_label(&self, id: NodeId) -> (String, usize) {
        let (start, _) = self.ast.byte_span(id);
        let line = self.ast.source[..start].matches('\n').count() + 1;
        (format!("{}:{line}", self.unit), start)
    }

    fn warn(&mut self, code: &'static str, offset: usize, label: &str, msg: String) -> &mut Diag {
        self.diags
            .push(Diag::warning(code, offset, msg).with_label(label));
        self.diags.last_mut().expect("just pushed")
    }

    /// Scope depth a name resolves at, innermost-out; `None` = undeclared
    /// (a function, a module path head like `omp`, or a typo the
    /// interpreter will report).
    fn resolve_depth(&self, name: &str) -> Option<usize> {
        (0..self.scopes.len())
            .rev()
            .find(|&d| self.scopes[d].contains(name))
    }

    fn declare(&mut self, name: &str) {
        if let Some(top) = self.scopes.last_mut() {
            top.insert(name.to_string());
        }
    }

    /// Does the subtree mention `name` as an identifier?
    fn mentions(&self, id: NodeId, name: &str) -> bool {
        let n = self.ast.node(id);
        if n.tag == N::Ident {
            return self.ast.token_text(n.main_token) == name;
        }
        self.children(id).iter().any(|&c| self.mentions(c, name))
    }

    /// Child node ids of a node, for generic traversal. Clause-block
    /// extra indices are not nodes; only the expression node ids stored
    /// in the clause header (num_threads, if) are yielded.
    fn children(&self, id: NodeId) -> Vec<NodeId> {
        let ast = self.ast;
        let n = ast.node(id);
        match n.tag {
            N::Root | N::Block => ast.range(n).to_vec(),
            N::FnDecl => {
                let (params, body) = ast.fn_parts(n);
                params.iter().copied().chain([body]).collect()
            }
            // VarDecl/ConstDecl store `init + 1` in rhs, Return stores
            // `expr + 1` in lhs (0 = absent).
            N::VarDecl | N::ConstDecl => {
                if n.rhs != 0 {
                    vec![n.rhs - 1]
                } else {
                    Vec::new()
                }
            }
            N::Assign | N::CompoundAssign | N::BinOp | N::Index => vec![n.lhs, n.rhs],
            N::While => {
                let (cond, body, cont) = ast.while_parts(n);
                let mut v = vec![cond, body];
                v.extend(cont);
                v
            }
            N::If => {
                let (cond, then, els) = ast.if_parts(n);
                let mut v = vec![cond, then];
                v.extend(els);
                v
            }
            N::Return => {
                if n.lhs != 0 {
                    vec![n.lhs - 1]
                } else {
                    Vec::new()
                }
            }
            N::Discard | N::ExprStmt | N::UnOp | N::Member | N::Deref => vec![n.lhs],
            N::Call => {
                let mut v = vec![n.lhs];
                v.extend_from_slice(ast.call_args(n));
                v
            }
            N::BuiltinCall => ast.extra(n.lhs, n.rhs).to_vec(),
            N::OmpParallel
            | N::OmpWhile
            | N::OmpBarrier
            | N::OmpCritical
            | N::OmpMaster
            | N::OmpSingle
            | N::OmpAtomic => {
                let c = Clauses::read(&ast.extra_data, n.lhs);
                let mut v = Vec::new();
                v.extend(c.num_threads);
                v.extend(c.if_expr);
                if n.rhs != 0 {
                    v.push(n.rhs);
                }
                v
            }
            N::Param
            | N::Ident
            | N::IntLit
            | N::FloatLit
            | N::StrLit
            | N::BoolLit
            | N::UndefinedLit
            | N::Break
            | N::Continue
            | N::OmpThreadprivate => Vec::new(),
        }
    }

    /// Peel `a[i]`, `a.b`, `p.*` down to the base identifier of a place
    /// expression, with a flag for whether any `Index` was peeled.
    fn place_base(&self, mut id: NodeId) -> Option<(String, bool)> {
        let mut indexed = false;
        loop {
            let n = self.ast.node(id);
            match n.tag {
                N::Ident => return Some((self.ast.token_text(n.main_token).to_string(), indexed)),
                N::Index => {
                    indexed = true;
                    id = n.lhs;
                }
                N::Member | N::Deref => id = n.lhs,
                _ => return None,
            }
        }
    }

    // -- function / statement walking ---------------------------------------

    fn walk_fn(&mut self, id: NodeId) {
        let node = *self.ast.node(id);
        let (params, body) = self.ast.fn_parts(&node);
        let mut scope = HashSet::new();
        for &p in params {
            let pn = self.ast.node(p);
            scope.insert(self.ast.token_text(pn.main_token).to_string());
        }
        self.scopes.push(scope);
        self.walk_stmt(body);
        self.scopes.pop();
    }

    fn walk_stmt(&mut self, id: NodeId) {
        let node = *self.ast.node(id);
        match node.tag {
            N::Block => {
                self.scopes.push(HashSet::new());
                if !self.regions.is_empty() {
                    self.check_nowait_reads(self.ast.range(&node).to_vec());
                }
                for &s in self.ast.range(&node) {
                    self.walk_stmt(s);
                }
                self.scopes.pop();
            }
            N::VarDecl | N::ConstDecl => {
                if node.rhs != 0 {
                    self.walk_expr(node.rhs - 1);
                }
                let name = self.ast.token_text(node.main_token).to_string();
                self.declare(&name);
            }
            N::Assign | N::CompoundAssign => {
                self.check_shared_write(&node);
                self.walk_expr(node.lhs);
                self.walk_expr(node.rhs);
            }
            N::While => {
                let (cond, body, cont) = self.ast.while_parts(&node);
                self.walk_expr(cond);
                self.walk_stmt(body);
                if let Some(c) = cont {
                    self.walk_stmt(c);
                }
            }
            N::If => {
                let (cond, then, els) = self.ast.if_parts(&node);
                self.walk_expr(cond);
                self.walk_stmt(then);
                if let Some(e) = els {
                    self.walk_stmt(e);
                }
            }
            N::OmpParallel => self.enter_parallel(id, &node),
            N::OmpWhile => self.enter_ws_loop(id, &node),
            N::OmpAtomic | N::OmpCritical | N::OmpMaster | N::OmpSingle => {
                self.protected += 1;
                if node.rhs != 0 {
                    self.walk_stmt(node.rhs);
                }
                self.protected -= 1;
            }
            N::OmpBarrier | N::OmpThreadprivate | N::Break | N::Continue | N::Param => {}
            N::Return => {
                if node.lhs != 0 {
                    self.walk_expr(node.lhs - 1);
                }
            }
            N::Discard | N::ExprStmt => self.walk_expr(node.lhs),
            _ => self.walk_expr(id),
        }
    }

    fn walk_expr(&mut self, id: NodeId) {
        let node = *self.ast.node(id);
        if node.tag == N::Ident {
            self.check_default_none(&node);
            return;
        }
        for c in self.children(id) {
            self.walk_expr(c);
        }
    }

    // -- region / loop entry ------------------------------------------------

    fn enter_parallel(&mut self, id: NodeId, node: &Node) {
        let clauses = Clauses::read(&self.ast.extra_data, node.lhs);
        let (label, offset) = self.pragma_label(id);
        self.check_clause_conflicts(&clauses, &label, offset);
        let names = |toks: &[u32]| -> HashSet<String> {
            toks.iter()
                .map(|&t| self.ast.token_text(t).to_string())
                .collect()
        };
        let region = Region {
            label: label.clone(),
            offset,
            default: clauses.flags.default,
            private: names(&clauses.private),
            firstprivate: names(&clauses.firstprivate),
            shared: names(&clauses.shared),
            reduction: clauses
                .reduction
                .iter()
                .map(|&(op, t)| (self.ast.token_text(t).to_string(), op))
                .collect(),
            outer_depth: self.scopes.len(),
            flagged_none: HashSet::new(),
        };
        self.regions.push(region);
        if let Some(e) = clauses.num_threads {
            self.walk_expr(e);
        }
        if let Some(e) = clauses.if_expr {
            self.walk_expr(e);
        }
        if node.rhs != 0 {
            self.walk_stmt(node.rhs);
        }
        let region = self.regions.pop().expect("region just pushed");
        // Rule: reduction vars of the region must only appear in combine
        // form inside the region body.
        if node.rhs != 0 {
            for name in region.reduction.keys() {
                self.check_reduction_uses(node.rhs, name, &region.label);
            }
        }
    }

    fn enter_ws_loop(&mut self, id: NodeId, node: &Node) {
        let clauses = Clauses::read(&self.ast.extra_data, node.lhs);
        let (label, offset) = self.pragma_label(id);
        self.check_clause_conflicts(&clauses, &label, offset);

        let shape = if node.rhs != 0 && self.ast.node(node.rhs).tag == N::While {
            loop_shape(self.ast, node.rhs).ok()
        } else {
            None
        };

        // Rule: the induction variable is privatized by the lowering
        // itself; listing it in a clause is a contradiction.
        if let Some(shape) = &shape {
            let listed_as = [
                (&clauses.private, "private"),
                (&clauses.firstprivate, "firstprivate"),
                (&clauses.shared, "shared"),
            ]
            .iter()
            .find_map(|(toks, kind)| {
                toks.iter()
                    .any(|&t| self.ast.token_text(t) == shape.var)
                    .then_some(*kind)
            })
            .or_else(|| {
                clauses
                    .reduction
                    .iter()
                    .any(|&(_, t)| self.ast.token_text(t) == shape.var)
                    .then_some("reduction")
            });
            if let Some(kind) = listed_as {
                self.warn(
                    "induction-in-clause",
                    offset,
                    &label,
                    format!(
                        "loop induction variable `{}` also appears in a `{kind}` clause",
                        shape.var
                    ),
                )
                .note = Some(
                    "the worksharing lowering already gives each thread a private copy \
                     of the induction variable"
                        .to_string(),
                );
            }
        }

        self.check_collapse(id, &clauses, &label, offset);

        let names = |toks: &[u32]| -> HashSet<String> {
            toks.iter()
                .map(|&t| self.ast.token_text(t).to_string())
                .collect()
        };
        self.ws_loops.push(WsLoop {
            label: label.clone(),
            private: names(&clauses.private),
            firstprivate: names(&clauses.firstprivate),
            reduction: clauses
                .reduction
                .iter()
                .map(|&(_, t)| self.ast.token_text(t).to_string())
                .collect(),
            induction: shape.as_ref().map(|s| s.var.clone()),
            flagged_race: HashSet::new(),
        });
        if node.rhs != 0 {
            self.walk_stmt(node.rhs);
        }
        self.ws_loops.pop();

        // Rule: loop-level reduction vars only combine inside the body.
        if let Some(shape) = &shape {
            for &(_, tok) in &clauses.reduction {
                let name = self.ast.token_text(tok).to_string();
                self.check_reduction_uses(shape.body, &name, &label);
            }
        }
    }

    // -- rule: clause-conflict ----------------------------------------------

    fn check_clause_conflicts(&mut self, clauses: &Clauses, label: &str, offset: usize) {
        let mut seen: HashMap<String, &'static str> = HashMap::new();
        let mut flagged: HashSet<String> = HashSet::new();
        let red: Vec<u32> = clauses.reduction.iter().map(|&(_, t)| t).collect();
        for (toks, kind) in [
            (&clauses.private, "private"),
            (&clauses.firstprivate, "firstprivate"),
            (&clauses.shared, "shared"),
            (&red, "reduction"),
        ] {
            for &t in toks {
                let name = self.ast.token_text(t).to_string();
                if let Some(prev) = seen.get(name.as_str()) {
                    if flagged.insert(name.clone()) {
                        let msg = if *prev == kind {
                            format!("`{name}` is listed twice in the `{kind}` clause")
                        } else {
                            format!("`{name}` appears in both `{prev}` and `{kind}` clauses")
                        };
                        self.warn("clause-conflict", offset, label, msg).note = Some(
                            "a variable has exactly one data-sharing class per directive"
                                .to_string(),
                        );
                    }
                } else {
                    seen.insert(name, kind);
                }
            }
        }
    }

    // -- rule: collapse-imperfect / collapse-nonrect ------------------------

    fn check_collapse(&mut self, id: NodeId, clauses: &Clauses, label: &str, offset: usize) {
        let (depth, rhs) = (clauses.flags.collapse, self.ast.node(id).rhs);
        if depth < 2 || rhs == 0 || self.ast.node(rhs).tag != N::While {
            return;
        }
        let nest = match perfect_nest(self.ast, id, depth) {
            Ok(nest) => nest,
            // The preprocessor reports a malformed header of the
            // directive's own loop.
            Err((1, _)) => return,
            Err((level, _)) => {
                self.warn(
                    "collapse-imperfect",
                    offset,
                    label,
                    format!(
                        "collapse({depth}) requires a perfectly nested loop at depth {level}: \
                         the body must be exactly `{{ var j = ...; while (...) ... }}`"
                    ),
                )
                .note = Some(
                    "statements between collapsed loop headers would run once per outer \
                     iteration, not once per collapsed iteration"
                        .to_string(),
                );
                return;
            }
        };
        // Non-rectangular check: no inner loop's first value, bound or
        // step may depend on an outer induction variable.
        for (l, (inner, init)) in nest.iter().enumerate().skip(1) {
            let texts = [init, &inner.ub_text, &inner.incr_text];
            let outer = nest[..l]
                .iter()
                .map(|(s, _)| &s.var)
                .find(|v| texts.iter().any(|t| contains_ident(t, v)));
            if let Some(outer) = outer {
                self.warn(
                    "collapse-nonrect",
                    offset,
                    label,
                    format!(
                        "collapsed inner loop bound depends on outer induction \
                         variable `{outer}`: the nest is not rectangular"
                    ),
                )
                .note = Some(
                    "the collapsed iteration space is computed as a product of \
                     fixed trip counts; non-rectangular nests miscount"
                        .to_string(),
                );
                return;
            }
        }
    }

    // -- rule: race-shared-write --------------------------------------------

    fn check_shared_write(&mut self, node: &Node) {
        if self.protected > 0 || self.regions.is_empty() || self.ws_loops.is_empty() {
            return;
        }
        // Only bare scalar writes race by construction; array-element
        // writes (`a[i] = ...`) are normally partitioned by iteration.
        let lhs = self.ast.node(node.lhs);
        if lhs.tag != N::Ident {
            return;
        }
        let name = self.ast.token_text(lhs.main_token).to_string();
        if self.threadprivate.contains(&name) {
            return;
        }
        let region = self.regions.last().expect("regions checked non-empty");
        // Declared inside the region (or the loop): per-thread, no race.
        match self.resolve_depth(&name) {
            None => return,
            Some(d) if d >= region.outer_depth => return,
            Some(_) => {}
        }
        // Privatized by the region or by any enclosing worksharing loop.
        if region.private.contains(&name)
            || region.firstprivate.contains(&name)
            || region.reduction.contains_key(&name)
        {
            return;
        }
        if self.ws_loops.iter().any(|l| {
            l.private.contains(&name)
                || l.firstprivate.contains(&name)
                || l.reduction.contains(&name)
                || l.induction.as_deref() == Some(name.as_str())
        }) {
            return;
        }
        // default(none) + unlisted is the unlisted-variable rule's job.
        if region.default == DefaultKind::None && !region.shared.contains(&name) {
            return;
        }
        let (label, offset) = {
            let l = self.ws_loops.last().expect("ws_loops checked non-empty");
            (l.label.clone(), self.ast.byte_span(node.lhs).0)
        };
        let loop_info = self
            .ws_loops
            .last_mut()
            .expect("ws_loops checked non-empty");
        if !loop_info.flagged_race.insert(name.clone()) {
            return;
        }
        self.warn(
            "race-shared-write",
            offset,
            &label,
            format!(
                "write to shared variable `{name}` inside a worksharing loop: \
                 concurrent iterations race"
            ),
        )
        .note = Some(format!(
            "privatize `{name}`, protect the update with `//$omp atomic` or \
             `//$omp critical`, or use `reduction(op: {name})`"
        ));
    }

    // -- rule: default-none-unlisted ----------------------------------------

    fn check_default_none(&mut self, node: &Node) {
        if self.regions.is_empty() {
            return;
        }
        let name = self.ast.token_text(node.main_token).to_string();
        let Some(depth) = self.resolve_depth(&name) else {
            return; // functions, module paths, typos
        };
        let region = self.regions.last_mut().expect("regions checked non-empty");
        if region.default != DefaultKind::None
            || depth >= region.outer_depth
            || region.listed(&name)
        {
            return;
        }
        // The worksharing induction variable is privatized implicitly.
        if self
            .ws_loops
            .iter()
            .any(|l| l.induction.as_deref() == Some(name.as_str()))
        {
            return;
        }
        if !region.flagged_none.insert(name.clone()) {
            return;
        }
        let (label, offset) = (region.label.clone(), region.offset);
        self.warn(
            "default-none-unlisted",
            offset,
            &label,
            format!(
                "`{name}` is referenced in a `default(none)` region but listed \
                 in no data-sharing clause"
            ),
        )
        .note = Some(format!(
            "add `{name}` to a `shared`, `private`, `firstprivate`, or \
             `reduction` clause"
        ));
    }

    // -- rule: reduction-outside-combine ------------------------------------

    /// Walk `root` looking for uses of reduction variable `name` outside
    /// an accepted combine statement. Reports at most once.
    fn check_reduction_uses(&mut self, root: NodeId, name: &str, label: &str) {
        if let Some(bad) = self.find_bad_reduction_use(root, name) {
            self.warn(
                "reduction-outside-combine",
                bad,
                label,
                format!(
                    "reduction variable `{name}` is used outside its combine \
                     pattern"
                ),
            )
            .note = Some(format!(
                "inside the construct, `{name}` is a thread-private partial \
                 value: only `{name} op= expr`, `{name} = {name} op expr`, or \
                 `{name} = @min/@max({name}, expr)` are meaningful"
            ));
        }
    }

    /// Byte offset of the first use of `name` outside a combine pattern,
    /// or `None`. A declaration of the same name shadows the reduction
    /// variable for the rest of its block.
    fn find_bad_reduction_use(&self, id: NodeId, name: &str) -> Option<usize> {
        let node = self.ast.node(id);
        match node.tag {
            N::Ident => {
                (self.ast.token_text(node.main_token) == name).then(|| self.ast.byte_span(id).0)
            }
            N::Block => {
                for &s in self.ast.range(node) {
                    let sn = self.ast.node(s);
                    if matches!(sn.tag, N::VarDecl | N::ConstDecl)
                        && self.ast.token_text(sn.main_token) == name
                    {
                        // Shadowed: check only the initializer, then stop.
                        if sn.rhs != 0 {
                            if let Some(bad) = self.find_bad_reduction_use(sn.rhs - 1, name) {
                                return Some(bad);
                            }
                        }
                        return None;
                    }
                    if let Some(bad) = self.find_bad_reduction_use(s, name) {
                        return Some(bad);
                    }
                }
                None
            }
            N::CompoundAssign if self.is_ident(node.lhs, name) => {
                // `r op= e`: fine as long as `e` does not read `r`.
                self.find_bad_reduction_use(node.rhs, name)
            }
            N::Assign if self.is_ident(node.lhs, name) => {
                if self.is_combine_rhs(node.rhs, name) {
                    None
                } else {
                    Some(self.ast.byte_span(node.lhs).0)
                }
            }
            _ => self
                .children(id)
                .iter()
                .find_map(|&c| self.find_bad_reduction_use(c, name)),
        }
    }

    fn is_ident(&self, id: NodeId, name: &str) -> bool {
        let n = self.ast.node(id);
        n.tag == N::Ident && self.ast.token_text(n.main_token) == name
    }

    /// Is `rhs` an accepted combine expression for `name`:
    /// `name op e` / `e op name` (with `name` free in `e`), or
    /// `@min/@max(name, e)`.
    fn is_combine_rhs(&self, rhs: NodeId, name: &str) -> bool {
        let n = self.ast.node(rhs);
        match n.tag {
            N::BinOp => {
                if self.is_ident(n.lhs, name) {
                    self.find_bad_reduction_use(n.rhs, name).is_none()
                } else if self.is_ident(n.rhs, name) {
                    self.find_bad_reduction_use(n.lhs, name).is_none()
                } else {
                    false
                }
            }
            N::BuiltinCall => {
                let callee = self.ast.token_text(n.main_token);
                if callee != "@min" && callee != "@max" {
                    return false;
                }
                let args = self.ast.extra(n.lhs, n.rhs);
                let direct = args.iter().filter(|&&a| self.is_ident(a, name)).count();
                direct == 1
                    && args
                        .iter()
                        .filter(|&&a| !self.is_ident(a, name))
                        .all(|&a| self.find_bad_reduction_use(a, name).is_none())
            }
            _ => false,
        }
    }

    // -- rule: nowait-unsynced-read -----------------------------------------

    /// Scan a statement list for `nowait` worksharing loops whose written
    /// shared variables are read again before the next barrier.
    fn check_nowait_reads(&mut self, stmts: Vec<NodeId>) {
        for (i, &s) in stmts.iter().enumerate() {
            let n = *self.ast.node(s);
            if n.tag != N::OmpWhile {
                continue;
            }
            let clauses = Clauses::read(&self.ast.extra_data, n.lhs);
            // A reduction forces the lowering to keep the trailing
            // barrier even under `nowait`.
            if !clauses.flags.nowait || !clauses.reduction.is_empty() {
                continue;
            }
            let written = self.shared_writes_of(s, &clauses);
            if written.is_empty() {
                continue;
            }
            let (label, _) = self.pragma_label(s);
            let writer_aligned = is_static_unchunked(&clauses);
            let mut flagged: HashSet<String> = HashSet::new();
            for &t in &stmts[i + 1..] {
                let tn = *self.ast.node(t);
                match tn.tag {
                    N::OmpBarrier => break,
                    N::OmpWhile => {
                        let tc = Clauses::read(&self.ast.extra_data, tn.lhs);
                        // Aligned static partitions: a static-unchunked
                        // reader rereads exactly the iterations this
                        // thread wrote (the CG idiom) — not a race.
                        let exempt = writer_aligned && is_static_unchunked(&tc);
                        if !exempt {
                            self.report_nowait_reads(t, &written, &mut flagged, &label);
                        }
                        let has_barrier = !tc.flags.nowait || !tc.reduction.is_empty();
                        if has_barrier {
                            break;
                        }
                    }
                    N::OmpSingle => {
                        // One thread runs the body while others may still
                        // be in the nowait loop; the trailing barrier (if
                        // any) only synchronizes afterwards.
                        self.report_nowait_reads(t, &written, &mut flagged, &label);
                        let tc = Clauses::read(&self.ast.extra_data, tn.lhs);
                        if !tc.flags.nowait {
                            break;
                        }
                    }
                    _ => {
                        self.report_nowait_reads(t, &written, &mut flagged, &label);
                    }
                }
            }
        }
    }

    fn report_nowait_reads(
        &mut self,
        stmt: NodeId,
        written: &HashSet<String>,
        flagged: &mut HashSet<String>,
        label: &str,
    ) {
        for name in written {
            if !flagged.contains(name) && self.mentions(stmt, name) {
                flagged.insert(name.clone());
                let at = self.ast.byte_span(stmt).0;
                self.warn(
                    "nowait-unsynced-read",
                    at,
                    label,
                    format!(
                        "`{name}` is written by a `nowait` worksharing loop and \
                         read again before the next barrier"
                    ),
                )
                .note = Some(
                    "other threads may still be executing the loop: drop `nowait` \
                     or insert `//$omp barrier` before this use"
                        .to_string(),
                );
            }
        }
    }

    /// Shared (region-level) variables the loop body writes, by scalar
    /// assignment or through an indexed place (`a[i] = ...`).
    fn shared_writes_of(&self, ws_id: NodeId, clauses: &Clauses) -> HashSet<String> {
        let Some(region) = self.regions.last() else {
            return HashSet::new();
        };
        let loop_private: HashSet<String> = clauses
            .private
            .iter()
            .chain(&clauses.firstprivate)
            .map(|&t| self.ast.token_text(t).to_string())
            .collect();
        let mut declared = HashSet::new();
        self.collect_decls(ws_id, &mut declared);
        let mut out = HashSet::new();
        self.collect_writes(ws_id, &mut out);
        out.retain(|name| {
            !declared.contains(name)
                && !loop_private.contains(name)
                && !self.threadprivate.contains(name)
                && !region.private.contains(name)
                && !region.firstprivate.contains(name)
                && !region.reduction.contains_key(name)
                && match self.resolve_depth(name) {
                    // Declared inside the region: thread-local, no handoff.
                    Some(d) => d < region.outer_depth,
                    None => false,
                }
        });
        out
    }

    fn collect_decls(&self, id: NodeId, out: &mut HashSet<String>) {
        let n = self.ast.node(id);
        if matches!(n.tag, N::VarDecl | N::ConstDecl) {
            out.insert(self.ast.token_text(n.main_token).to_string());
        }
        for c in self.children(id) {
            self.collect_decls(c, out);
        }
    }

    fn collect_writes(&self, id: NodeId, out: &mut HashSet<String>) {
        let n = self.ast.node(id);
        if matches!(n.tag, N::Assign | N::CompoundAssign) {
            if let Some((name, _)) = self.place_base(n.lhs) {
                out.insert(name);
            }
        }
        for c in self.children(id) {
            self.collect_writes(c, out);
        }
    }
}

/// Is a worksharing loop lowered to the aligned static-unchunked
/// partition (no `schedule` clause, or `schedule(static)` with no chunk)?
fn is_static_unchunked(clauses: &Clauses) -> bool {
    match clauses.schedule {
        None => true,
        Some(s) => s.kind == SchedKind::Static && s.chunk.is_none(),
    }
}

/// Does `text` contain `name` as a whole identifier (not as a substring
/// of a longer identifier)?
fn contains_ident(text: &str, name: &str) -> bool {
    let bytes = text.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = text[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let before_ok = start == 0 || !is_word(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_word(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lint(src: &str) -> Vec<Diag> {
        let ast = parse(src).expect("test source parses");
        analyze(&ast, "test.zag")
    }

    fn codes(src: &str) -> Vec<&'static str> {
        lint(src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_reduction_loop_has_no_findings() {
        let src = r#"
fn main() void {
    var total: i64 = 0;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while reduction(+: total)
        while (i < 100) : (i += 1) {
            total += i;
        }
    }
}
"#;
        assert!(codes(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn shared_scalar_write_in_ws_loop_races() {
        let src = r#"
fn main() void {
    var total: i64 = 0;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while
        while (i < 100) : (i += 1) {
            total = total + i;
        }
    }
}
"#;
        let diags = lint(src);
        assert_eq!(codes(src), vec!["race-shared-write"], "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.label.as_deref(), Some("test.zag:7"));
        assert!(d.message.contains("total"), "{}", d.message);
    }

    #[test]
    fn atomic_protected_write_is_clean() {
        let src = r#"
fn main() void {
    var hits: i64 = 0;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while
        while (i < 100) : (i += 1) {
            //$omp atomic
            hits += 1;
        }
    }
}
"#;
        assert!(codes(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn array_element_writes_are_not_flagged() {
        let src = r#"
fn main() void {
    var a: []f64 = @allocF(100);
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while
        while (i < 100) : (i += 1) {
            a[i] = 2.0;
        }
    }
}
"#;
        assert!(codes(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn default_none_reports_unlisted_variable_once() {
        let src = r#"
fn main() void {
    var n: i64 = 100;
    var m: i64 = 2;
    //$omp parallel default(none) shared(n)
    {
        print(n);
        print(m);
        print(m);
    }
}
"#;
        let diags = lint(src);
        assert_eq!(codes(src), vec!["default-none-unlisted"], "{diags:?}");
        assert!(diags[0].message.contains("`m`"), "{}", diags[0].message);
    }

    #[test]
    fn reduction_read_outside_combine_flagged() {
        let src = r#"
fn main() void {
    var s: i64 = 0;
    var peek: i64 = 0;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while reduction(+: s)
        while (i < 10) : (i += 1) {
            s += i;
            peek = s;
        }
    }
}
"#;
        // `peek = s` reads the partial value; `peek` itself is a shared
        // scalar write, so both rules fire.
        let c = codes(src);
        assert!(c.contains(&"reduction-outside-combine"), "{:?}", lint(src));
    }

    #[test]
    fn reduction_combine_forms_accepted() {
        let src = r#"
fn main() void {
    var s: i64 = 0;
    var lo: i64 = 99;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while reduction(+: s) reduction(min: lo)
        while (i < 10) : (i += 1) {
            s = s + i;
            lo = @min(lo, i);
        }
    }
}
"#;
        assert!(codes(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn induction_variable_in_private_clause_flagged() {
        let src = r#"
fn main() void {
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while private(i)
        while (i < 10) : (i += 1) {
        }
    }
}
"#;
        assert_eq!(codes(src), vec!["induction-in-clause"], "{:?}", lint(src));
    }

    #[test]
    fn imperfect_collapse_nest_flagged() {
        let src = r#"
fn main() void {
    var s: i64 = 0;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while collapse(2) reduction(+: s)
        while (i < 10) : (i += 1) {
            var extra: i64 = 7;
            var j: i64 = 0;
            while (j < 10) : (j += 1) {
                s += extra;
            }
        }
    }
}
"#;
        assert_eq!(codes(src), vec!["collapse-imperfect"], "{:?}", lint(src));
    }

    #[test]
    fn nonrectangular_collapse_flagged() {
        let src = r#"
fn main() void {
    var s: i64 = 0;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while collapse(2) reduction(+: s)
        while (i < 10) : (i += 1) {
            var j: i64 = 0;
            while (j < i) : (j += 1) {
                s += 1;
            }
        }
    }
}
"#;
        assert_eq!(codes(src), vec!["collapse-nonrect"], "{:?}", lint(src));
    }

    /// A `collapse(3)` nest whose level-3 loop has `decl` ahead of it and
    /// runs from `init` to `bound`.
    fn depth_three_nest(decl: &str, init: &str, bound: &str) -> String {
        format!(
            "
fn main() void {{
    var s: i64 = 0;
    //$omp parallel
    {{
        var i: i64 = 0;
        //$omp while collapse(3) reduction(+: s)
        while (i < 10) : (i += 1) {{
            var j: i64 = 0;
            while (j < 10) : (j += 1) {{
                {decl}
                var k: i64 = {init};
                while (k < {bound}) : (k += 1) {{
                    s += 1;
                }}
            }}
        }}
    }}
}}
"
        )
    }

    #[test]
    fn imperfect_level_three_collapse_flagged() {
        assert!(lint(&depth_three_nest("", "0", "10")).is_empty());
        let got = lint(&depth_three_nest("var extra: i64 = 7;", "0", "10"));
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].code, "collapse-imperfect", "{got:?}");
        assert!(got[0].message.contains("at depth 3"), "{got:?}");
    }

    /// The collapsed space is computed from each level's first value and
    /// bound at entry, so either naming an outer variable miscounts.
    #[test]
    fn level_three_bound_naming_level_one_flagged() {
        for (init, bound) in [("0", "i"), ("i", "10")] {
            let got = lint(&depth_three_nest("", init, bound));
            assert_eq!(got.len(), 1, "{got:?}");
            assert_eq!(got[0].code, "collapse-nonrect", "{got:?}");
            assert!(got[0].message.contains("`i`"), "{got:?}");
        }
    }

    #[test]
    fn nowait_then_unsynced_read_flagged() {
        let src = r#"
fn main() void {
    var a: []f64 = @allocF(64);
    var total: f64 = 0.0;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while nowait
        while (i < 64) : (i += 1) {
            a[i] = 1.0;
        }
        //$omp single
        {
            total = a[0];
        }
    }
}
"#;
        assert_eq!(codes(src), vec!["nowait-unsynced-read"], "{:?}", lint(src));
    }

    #[test]
    fn nowait_into_aligned_static_loop_is_exempt() {
        // The CG idiom: a nowait static loop writing an array, then
        // another static-unchunked loop reading the same partition.
        let src = r#"
fn main() void {
    var a: []f64 = @allocF(64);
    var b: []f64 = @allocF(64);
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while nowait
        while (i < 64) : (i += 1) {
            a[i] = 1.0;
        }
        var j: i64 = 0;
        //$omp while
        while (j < 64) : (j += 1) {
            b[j] = a[j] * 2.0;
        }
    }
}
"#;
        assert!(codes(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn barrier_stops_the_nowait_scan() {
        let src = r#"
fn main() void {
    var a: []f64 = @allocF(64);
    var total: f64 = 0.0;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while nowait
        while (i < 64) : (i += 1) {
            a[i] = 1.0;
        }
        //$omp barrier
        //$omp single
        {
            total = a[0];
        }
    }
}
"#;
        assert!(codes(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn clause_conflict_flagged() {
        let src = r#"
fn main() void {
    var x: i64 = 0;
    //$omp parallel private(x) shared(x)
    {
        print(x);
    }
}
"#;
        assert_eq!(codes(src), vec!["clause-conflict"], "{:?}", lint(src));
    }

    #[test]
    fn threadprivate_writes_are_clean() {
        let src = r#"
//$omp threadprivate(counter)
fn main() void {
    var counter: i64 = 0;
    //$omp parallel
    {
        var i: i64 = 0;
        //$omp while
        while (i < 10) : (i += 1) {
            counter += 1;
        }
    }
}
"#;
        let diags = lint(src);
        assert!(
            !diags.iter().any(|d| d.code == "race-shared-write"),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_carry_unit_line_labels() {
        let src = "fn main() void {\n    var t: i64 = 0;\n    //$omp parallel\n    {\n        var i: i64 = 0;\n        //$omp while\n        while (i < 9) : (i += 1) {\n            t = 1;\n        }\n    }\n}\n";
        let diags = lint(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].label.as_deref(), Some("test.zag:6"));
    }

    #[test]
    fn contains_ident_is_word_boundary_aware() {
        assert!(contains_ident("i + 1", "i"));
        assert!(contains_ident("(n - i)", "i"));
        assert!(!contains_ident("width", "i"));
        assert!(!contains_ident("ii", "i"));
    }
}
