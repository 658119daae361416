//! AST → register-bytecode lowering.
//!
//! The compiler runs once per program load (post-preprocess, so outlined
//! parallel regions and worksharing driver loops are ordinary code) and
//! produces one [`CompiledFn`] per function. The pass is total: constructs
//! the tree-walker would reject *at runtime* (unknown variables, bad
//! operators, bare member reads) lower to [`Insn::Trap`] carrying the
//! walker's exact message, so both backends agree even on erroneous
//! programs that never execute the offending node.
//!
//! Lowering decisions:
//!
//! * **Slot resolution** — every local resolves to a fixed register at
//!   compile time; reads and writes are direct indexing, no name lookup.
//!   Scopes restore the register watermark on exit so sibling blocks (and
//!   per-iteration loop bodies) reuse slots.
//! * **Boxing analysis** — a pre-pass finds `&name` uses; only those
//!   locals live in `Arc<Mutex<Value>>` cells (fresh cell per execution of
//!   the declaration, matching the tree-walker's per-iteration `declare`).
//!   Everything else is an unboxed register — the common case for loop
//!   indices and `f64` accumulators.
//! * **Loop fusion** — `while (v cmp limit) : (v ±= k)` with an unboxed
//!   induction variable compiles to a [`Insn::CmpJumpFalse`] guard plus a
//!   single [`Insn::IncCmpJump`] back-edge.
//! * **Call shapes** — user functions resolve to direct indices, `omp.*`
//!   paths to an [`OmpFn`] (an unknown path lowers to a [`Insn::Trap`]
//!   after its arguments), `@builtins` to compile-time [`BuiltinOp`]s.
//! * **Chunk claims** — the preprocessor's `while (ws_next(w)) { i =
//!   ws_lb(w); const ub = ws_ub(w); ... }` head lowers to one
//!   [`Insn::WsNext`] (see [`FnCx::ws_chunk_loop`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use zomp_front::ast::{Ast, Node, NodeId, Tag as N};
use zomp_front::token::Tag as T;

use crate::bytecode::{ArithOp, BuiltinOp, CmpOp, CompiledFn, Image, Insn, OmpFn, Reg};
use crate::interp::callee_path;
use crate::value::Value;

/// Compile every function of a parsed (pragma-free) program.
pub fn compile_image(ast: &Ast) -> Image {
    let root = *ast.node(ast.root);
    let mut decls = Vec::new();
    let mut by_name = HashMap::new();
    for &decl in ast.range(&root) {
        let node = ast.node(decl);
        if node.tag == N::FnDecl {
            let name = ast.token_text(node.main_token).to_string();
            // Duplicate names: last declaration wins, as in the walker's
            // function index.
            by_name.insert(name, decls.len());
            decls.push(decl);
        }
    }
    let funcs: Vec<CompiledFn> = decls
        .iter()
        .map(|&decl| FnCx::new(ast, &by_name).compile_fn(decl))
        .collect();
    for f in &funcs {
        if let Err(e) = crate::optimize::verify_fn(f, funcs.len()) {
            panic!("compiler produced invalid bytecode: {e}");
        }
    }
    Image { funcs, by_name }
}

/// Compile and then run the optimization pipeline at the given
/// level. `OptLevel::O0` returns the raw stream unchanged; `O3` inlines
/// small leaf callees ([`crate::inline`]), runs the per-function rewrite
/// fixpoint, emits static Int/Float specializations from whole-image type
/// inference ([`crate::typeck`]) and installs the native bulk kernels and
/// templates ([`crate::kernels`]) on the fully-rewritten stream.
pub fn compile_image_opt(ast: &Ast, opt: crate::optimize::OptLevel) -> Image {
    compile_image_opt_collect(ast, opt, None)
}

/// [`compile_image_opt`], optionally filling a [`crate::remarks::PassData`]
/// with per-pass statistics as the pipeline runs (`zag --remarks`). The
/// single pipeline definition — the remark path and the normal path
/// cannot drift.
pub(crate) fn compile_image_opt_collect(
    ast: &Ast,
    opt: crate::optimize::OptLevel,
    mut data: Option<&mut crate::remarks::PassData>,
) -> Image {
    let mut image = compile_image(ast);
    if opt > crate::optimize::OptLevel::O0 {
        let inlined = crate::inline::inline_image(&mut image);
        if let Some(d) = data.as_deref_mut() {
            d.inline = inlined;
        }
        let nfuncs = image.funcs.len();
        for f in &mut image.funcs {
            let stats = crate::optimize::optimize_fn_stats(f, opt, nfuncs);
            if let Some(d) = data.as_deref_mut() {
                d.opt_stats.push(stats);
            }
        }
        match data {
            Some(d) => d.sites = crate::typeck::specialize_image_remarked(&mut image),
            None => crate::typeck::specialize_image(&mut image),
        }
        crate::kernels::install_image(&mut image);
    }
    image
}

/// Constant-pool key (floats by bit pattern so `-0.0`/`0.0` stay distinct).
#[derive(Hash, PartialEq, Eq)]
pub(crate) enum CKey {
    Void,
    Undef,
    I(i64),
    F(u64),
    B(bool),
    S(String),
    Fn(String),
}

impl CKey {
    pub(crate) fn of(v: &Value) -> CKey {
        match v {
            Value::Void => CKey::Void,
            Value::Undefined => CKey::Undef,
            Value::Int(i) => CKey::I(*i),
            Value::Float(f) => CKey::F(f.to_bits()),
            Value::Bool(b) => CKey::B(*b),
            Value::Str(s) => CKey::S(s.to_string()),
            Value::Fn(n) => CKey::Fn(n.to_string()),
            // Non-literal values never enter the pool.
            _ => unreachable!("non-constant value in const pool"),
        }
    }
}

struct Local {
    name: String,
    reg: Reg,
    boxed: bool,
}

struct LoopCx {
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

struct FnCx<'a> {
    ast: &'a Ast,
    func_ids: &'a HashMap<String, usize>,
    code: Vec<Insn>,
    consts: Vec<Value>,
    const_map: HashMap<CKey, u16>,
    scopes: Vec<Vec<Local>>,
    boxed_names: HashSet<String>,
    /// Registers permanently held by params/locals (and loop-pinned
    /// constants) in the current scope chain.
    locals_top: Reg,
    /// Next free temporary; reset to `locals_top` at statement boundaries.
    tmp: Reg,
    /// High-water mark = frame size.
    nregs: Reg,
    loops: Vec<LoopCx>,
    locals_debug: Vec<(Reg, String, bool)>,
}

impl<'a> FnCx<'a> {
    fn new(ast: &'a Ast, func_ids: &'a HashMap<String, usize>) -> FnCx<'a> {
        FnCx {
            ast,
            func_ids,
            code: Vec::new(),
            consts: Vec::new(),
            const_map: HashMap::new(),
            scopes: vec![Vec::new()],
            boxed_names: HashSet::new(),
            locals_top: 0,
            tmp: 0,
            nregs: 0,
            loops: Vec::new(),
            locals_debug: Vec::new(),
        }
    }

    fn compile_fn(mut self, decl: NodeId) -> CompiledFn {
        let node = *self.ast.node(decl);
        let name = self.ast.token_text(node.main_token).to_string();
        let (params, body) = self.ast.fn_parts(&node);
        let params = params.to_vec();
        collect_boxed(self.ast, body, &mut self.boxed_names);
        let mut param_tys = Vec::with_capacity(params.len());
        for &p in &params {
            let pnode = *self.ast.node(p);
            let pname = self.ast.token_text(pnode.main_token).to_string();
            // The parser records the *last* token of a type (`f64` in
            // `[]f64` / `*f64`); the token before it disambiguates the
            // slice/pointer constructors.
            let ty_tok = pnode.lhs;
            let base = self.ast.token_text(ty_tok);
            let decl = match self.ast.tokens[ty_tok as usize - 1].tag {
                T::Star => format!("*{base}"),
                T::RBracket => format!("[]{base}"),
                _ => base.to_string(),
            };
            param_tys.push(decl);
            let boxed = self.boxed_names.contains(&pname);
            let reg = self.alloc_local(&pname, boxed);
            if boxed {
                // Rebox the incoming argument value in a fresh cell.
                self.code.push(Insn::NewCell { dst: reg, src: reg });
            }
        }
        self.compile_block(body);
        self.code.push(Insn::RetVoid);
        CompiledFn {
            name,
            nparams: params.len(),
            param_tys,
            nregs: self.nregs as usize,
            code: self.code,
            consts: self.consts,
            locals: self.locals_debug,
            pre_opt: None,
            kernels: Vec::new(),
            templates: Vec::new(),
        }
    }

    // -- frame bookkeeping --------------------------------------------------

    fn bump_watermark(&mut self, r: Reg) {
        if r + 1 > self.nregs {
            self.nregs = r + 1;
        }
    }

    fn alloc_tmp(&mut self) -> Reg {
        let r = self.tmp;
        assert!(r < Reg::MAX, "function needs too many registers");
        self.tmp += 1;
        self.bump_watermark(r);
        r
    }

    fn alloc_local(&mut self, name: &str, boxed: bool) -> Reg {
        let r = self.alloc_pinned();
        self.scopes.last_mut().unwrap().push(Local {
            name: name.to_string(),
            reg: r,
            boxed,
        });
        self.locals_debug.push((r, name.to_string(), boxed));
        r
    }

    /// Reserve an anonymous register that survives until scope exit
    /// (loop-pinned constants).
    fn alloc_pinned(&mut self) -> Reg {
        let r = self.locals_top;
        assert!(r < Reg::MAX, "function needs too many registers");
        self.locals_top += 1;
        if self.tmp < self.locals_top {
            self.tmp = self.locals_top;
        }
        self.bump_watermark(r);
        r
    }

    fn lookup(&self, name: &str) -> Option<(Reg, bool)> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|l| l.name == name))
            .map(|l| (l.reg, l.boxed))
    }

    fn dst_reg(&mut self, hint: Option<Reg>) -> Reg {
        hint.unwrap_or_else(|| self.alloc_tmp())
    }

    // -- pools --------------------------------------------------------------

    fn kconst(&mut self, v: Value) -> u16 {
        let key = CKey::of(&v);
        if let Some(&k) = self.const_map.get(&key) {
            return k;
        }
        let k = self.consts.len() as u16;
        self.consts.push(v);
        self.const_map.insert(key, k);
        k
    }

    // -- emission helpers ---------------------------------------------------

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, sites: &[usize], target: u32) {
        for &site in sites {
            match &mut self.code[site] {
                Insn::Jump { to }
                | Insn::JumpIfFalse { to, .. }
                | Insn::JumpIfTrue { to, .. }
                | Insn::CmpJumpFalse { to, .. }
                | Insn::IncCmpJump { to, .. }
                | Insn::WsNext { exit: to, .. } => *to = target,
                other => unreachable!("patching non-jump {other:?}"),
            }
        }
    }

    /// Emit a runtime error with the tree-walker's message for a construct
    /// that only fails when executed.
    fn trap(&mut self, msg: String) {
        let k = self.kconst(Value::Str(Arc::from(msg)));
        self.code.push(Insn::Trap { msg: k });
    }

    fn trap_expr(&mut self, msg: String, hint: Option<Reg>) -> Reg {
        self.trap(msg);
        self.dst_reg(hint)
    }

    // -- statements ---------------------------------------------------------

    fn compile_block(&mut self, block: NodeId) {
        let node = *self.ast.node(block);
        debug_assert_eq!(node.tag, N::Block);
        self.scopes.push(Vec::new());
        let saved_top = self.locals_top;
        for &stmt in self.ast.range(&node).to_vec().iter() {
            self.tmp = self.locals_top;
            self.compile_stmt(stmt);
        }
        self.scopes.pop();
        self.locals_top = saved_top;
    }

    fn compile_stmt(&mut self, id: NodeId) {
        let node = *self.ast.node(id);
        match node.tag {
            N::VarDecl | N::ConstDecl => {
                let init = if node.rhs > 0 {
                    self.compile_expr(node.rhs - 1, None)
                } else {
                    let k = self.kconst(Value::Undefined);
                    let d = self.alloc_tmp();
                    self.code.push(Insn::Const { dst: d, k });
                    d
                };
                let name = self.ast.token_text(node.main_token).to_string();
                let boxed = self.boxed_names.contains(&name);
                let reg = self.alloc_local(&name, boxed);
                if boxed {
                    self.code.push(Insn::NewCell {
                        dst: reg,
                        src: init,
                    });
                } else if init != reg {
                    self.code.push(Insn::Move {
                        dst: reg,
                        src: init,
                    });
                }
            }
            N::Assign => self.compile_assign(&node),
            N::CompoundAssign => self.compile_compound(&node),
            N::While => self.compile_while(&node),
            N::If => {
                let (cond, then, els) = self.ast.if_parts(&node);
                let false_jumps = self.compile_cond(cond);
                self.tmp = self.locals_top;
                self.compile_stmt(then);
                match els {
                    Some(els) => {
                        let skip = self.code.len();
                        self.code.push(Insn::Jump { to: 0 });
                        let at_else = self.here();
                        self.patch(&false_jumps, at_else);
                        self.tmp = self.locals_top;
                        self.compile_stmt(els);
                        let end = self.here();
                        self.patch(&[skip], end);
                    }
                    None => {
                        let end = self.here();
                        self.patch(&false_jumps, end);
                    }
                }
            }
            N::Return => {
                if node.lhs > 0 {
                    let r = self.compile_expr(node.lhs - 1, None);
                    self.code.push(Insn::Ret { src: r });
                } else {
                    self.code.push(Insn::RetVoid);
                }
            }
            // Break/continue outside any loop end the function with `void`,
            // exactly as the walker's `Flow` propagation does.
            N::Break => {
                let site = self.code.len();
                self.code.push(Insn::Jump { to: 0 });
                match self.loops.last_mut() {
                    Some(l) => l.breaks.push(site),
                    None => self.code[site] = Insn::RetVoid,
                }
            }
            N::Continue => {
                let site = self.code.len();
                self.code.push(Insn::Jump { to: 0 });
                match self.loops.last_mut() {
                    Some(l) => l.continues.push(site),
                    None => self.code[site] = Insn::RetVoid,
                }
            }
            N::Discard | N::ExprStmt => {
                self.compile_expr(node.lhs, None);
            }
            N::Block => self.compile_block(id),
            other => self.trap(format!("node {other:?} is not a statement")),
        }
    }

    fn compile_assign(&mut self, node: &Node) {
        // The walker evaluates the right-hand side before resolving the
        // place; preserve that order everywhere.
        let target = *self.ast.node(node.lhs);
        match target.tag {
            N::Ident => {
                let name = self.ast.token_text(target.main_token).to_string();
                match self.lookup(&name) {
                    Some((reg, false)) => {
                        let r = self.compile_expr(node.rhs, Some(reg));
                        debug_assert_eq!(r, reg);
                    }
                    Some((cell, true)) => {
                        let r = self.compile_expr(node.rhs, None);
                        self.code.push(Insn::CellSet { cell, src: r });
                    }
                    None => {
                        self.compile_expr(node.rhs, None);
                        self.trap(format!("unknown variable `{name}`"));
                    }
                }
            }
            N::Index => {
                let src = self.compile_expr(node.rhs, None);
                let arr = self.compile_expr(target.lhs, None);
                let idx = self.compile_expr(target.rhs, None);
                self.code.push(Insn::IndexSet { arr, idx, src });
            }
            N::Deref => {
                let src = self.compile_expr(node.rhs, None);
                let ptr = self.compile_expr(target.lhs, None);
                self.code.push(Insn::StorePtr { ptr, src });
            }
            other => {
                self.compile_expr(node.rhs, None);
                self.trap(format!("{other:?} is not assignable"));
            }
        }
    }

    fn compile_compound(&mut self, node: &Node) {
        let op_tok = self.ast.tokens[node.main_token as usize].tag;
        let op = match compound_arith(op_tok) {
            Some(op) => op,
            None => {
                // Walker order: rhs, place, load, then the bad-operator
                // error from `compound_op`.
                self.compile_expr(node.rhs, None);
                let target = *self.ast.node(node.lhs);
                match target.tag {
                    N::Ident | N::Index | N::Deref => {}
                    other => {
                        self.trap(format!("{other:?} is not assignable"));
                        return;
                    }
                }
                self.trap(format!("bad compound operator {op_tok:?}"));
                return;
            }
        };
        let target = *self.ast.node(node.lhs);
        match target.tag {
            N::Ident => {
                let name = self.ast.token_text(target.main_token).to_string();
                match self.lookup(&name) {
                    Some((reg, false)) => {
                        let r = self.compile_expr(node.rhs, None);
                        self.code.push(Insn::Arith {
                            op,
                            dst: reg,
                            a: reg,
                            b: r,
                        });
                    }
                    Some((cell, true)) => {
                        let r = self.compile_expr(node.rhs, None);
                        let t = self.alloc_tmp();
                        self.code.push(Insn::CellGet { dst: t, cell });
                        self.code.push(Insn::Arith {
                            op,
                            dst: t,
                            a: t,
                            b: r,
                        });
                        self.code.push(Insn::CellSet { cell, src: t });
                    }
                    None => {
                        self.compile_expr(node.rhs, None);
                        self.trap(format!("unknown variable `{name}`"));
                    }
                }
            }
            N::Index => {
                let r = self.compile_expr(node.rhs, None);
                let arr = self.compile_expr(target.lhs, None);
                let idx = self.compile_expr(target.rhs, None);
                let t = self.alloc_tmp();
                self.code.push(Insn::Index { dst: t, arr, idx });
                self.code.push(Insn::Arith {
                    op,
                    dst: t,
                    a: t,
                    b: r,
                });
                self.code.push(Insn::IndexSet { arr, idx, src: t });
            }
            N::Deref => {
                let r = self.compile_expr(node.rhs, None);
                let ptr = self.compile_expr(target.lhs, None);
                let t = self.alloc_tmp();
                self.code.push(Insn::Deref { dst: t, ptr });
                self.code.push(Insn::Arith {
                    op,
                    dst: t,
                    a: t,
                    b: r,
                });
                self.code.push(Insn::StorePtr { ptr, src: t });
            }
            other => {
                self.compile_expr(node.rhs, None);
                self.trap(format!("{other:?} is not assignable"));
            }
        }
    }

    /// The `while (v cmp limit) : (v ±= k)` fusion probe: the induction
    /// variable and limit must be unboxed registers (or a literal limit,
    /// pinned), the step a positive integer literal.
    fn fusable_loop(
        &mut self,
        cond: NodeId,
        cont: Option<NodeId>,
    ) -> Option<(Reg, Reg, CmpOp, i32)> {
        let cond_node = *self.ast.node(cond);
        if cond_node.tag != N::BinOp {
            return None;
        }
        let op = cmp_from_token(self.ast.tokens[cond_node.main_token as usize].tag)?;
        let var_node = self.ast.node(cond_node.lhs);
        if var_node.tag != N::Ident {
            return None;
        }
        let var_name = self.ast.token_text(var_node.main_token).to_string();
        let (var, var_boxed) = self.lookup(&var_name)?;
        if var_boxed {
            return None;
        }
        // Continue part: `v += k` / `v -= k` on the same variable.
        let cont_node = *self.ast.node(cont?);
        if cont_node.tag != N::CompoundAssign {
            return None;
        }
        let step_sign = match self.ast.tokens[cont_node.main_token as usize].tag {
            T::PlusEq => 1i64,
            T::MinusEq => -1i64,
            _ => return None,
        };
        let cont_target = self.ast.node(cont_node.lhs);
        if cont_target.tag != N::Ident || self.ast.token_text(cont_target.main_token) != var_name {
            return None;
        }
        let step_node = self.ast.node(cont_node.rhs);
        if step_node.tag != N::IntLit {
            return None;
        }
        let k: i64 = self.ast.token_text(step_node.main_token).parse().ok()?;
        let step = i32::try_from(step_sign * k).ok()?;
        // Limit: an unboxed local (re-read each iteration from its live
        // register, same as the walker re-evaluating the condition) or a
        // literal pinned in a loop-lifetime register.
        let limit_node = *self.ast.node(cond_node.rhs);
        let limit = match limit_node.tag {
            N::Ident => {
                let name = self.ast.token_text(limit_node.main_token);
                match self.lookup(name) {
                    Some((reg, false)) => reg,
                    _ => return None,
                }
            }
            N::IntLit => {
                let v: i64 = self.ast.token_text(limit_node.main_token).parse().ok()?;
                let k = self.kconst(Value::Int(v));
                let pin = self.alloc_pinned();
                self.code.push(Insn::Const { dst: pin, k });
                pin
            }
            _ => return None,
        };
        Some((var, limit, op, step))
    }

    /// The `w` of a call `omp.<func>(w)` whose one argument is an identifier.
    fn ws_call_arg(&self, id: NodeId, func: OmpFn) -> Option<&'a str> {
        let node = self.ast.node(id);
        if node.tag != N::Call {
            return None;
        }
        let resolved = match callee_path(self.ast, node.lhs).as_deref() {
            Some(["omp", rest @ ..]) => OmpFn::resolve(rest),
            _ => None,
        };
        let &[arg] = self.ast.call_args(node) else {
            return None;
        };
        let arg = self.ast.node(arg);
        (resolved == Some(func) && arg.tag == N::Ident).then(|| self.ast.token_text(arg.main_token))
    }

    /// The chunk-pull loop probe: `while (omp.internal.ws_next(w)) { X =
    /// omp.internal.ws_lb(w); const U = omp.internal.ws_ub(w); ... }`, the
    /// head of every worksharing loop the preprocessor emits (`X` is
    /// assigned in the plain form and declared in the `collapse` form).
    /// `w`, `X` and `U` must be unboxed locals so [`Insn::WsNext`] can write
    /// the bounds straight into their registers; anything else keeps the
    /// three generic calls. Returns `w`'s register and the body statements.
    fn ws_chunk_loop(
        &self,
        cond: NodeId,
        body: NodeId,
        cont: Option<NodeId>,
    ) -> Option<(Reg, Vec<NodeId>)> {
        if cont.is_some() {
            return None;
        }
        let ws_name = self.ws_call_arg(cond, OmpFn::WsNext)?;
        let (ws, false) = self.lookup(ws_name)? else {
            return None;
        };
        let body_node = self.ast.node(body);
        if body_node.tag != N::Block {
            return None;
        }
        let stmts = self.ast.range(body_node).to_vec();
        let &[lb_stmt, ub_stmt, ..] = &stmts[..] else {
            return None;
        };
        // The name and initialiser of an unboxed `var`/`const` declaration.
        let unboxed_decl = |id: NodeId| {
            let node = self.ast.node(id);
            let name = self.ast.token_text(node.main_token);
            (matches!(node.tag, N::VarDecl | N::ConstDecl)
                && node.rhs > 0
                && !self.boxed_names.contains(name))
            .then(|| (name, node.rhs - 1))
        };
        let lb_node = self.ast.node(lb_stmt);
        let (lb_name, lb_init) = if lb_node.tag == N::Assign {
            let target = self.ast.node(lb_node.lhs);
            let name = self.ast.token_text(target.main_token);
            if target.tag != N::Ident || !matches!(self.lookup(name), Some((_, false))) {
                return None;
            }
            (name, lb_node.rhs)
        } else {
            unboxed_decl(lb_stmt)?
        };
        let (_, ub_init) = unboxed_decl(ub_stmt)?;
        (lb_name != ws_name
            && self.ws_call_arg(lb_init, OmpFn::WsLb) == Some(ws_name)
            && self.ws_call_arg(ub_init, OmpFn::WsUb) == Some(ws_name))
        .then_some((ws, stmts))
    }

    /// Lower a loop [`FnCx::ws_chunk_loop`] matched: one [`Insn::WsNext`]
    /// head whose out-registers are the targets of the body's first two
    /// statements, then the rest of the body block.
    fn compile_ws_loop(&mut self, ws: Reg, stmts: &[NodeId]) {
        self.scopes.push(Vec::new());
        let saved_top = self.locals_top;
        let [lb, ub] = [stmts[0], stmts[1]].map(|stmt| {
            let node = *self.ast.node(stmt);
            if node.tag == N::Assign {
                let target = self.ast.node(node.lhs).main_token;
                let name = self.ast.token_text(target);
                self.lookup(name).expect("matched by ws_chunk_loop").0
            } else {
                let name = self.ast.token_text(node.main_token).to_string();
                self.alloc_local(&name, false)
            }
        });
        let top = self.code.len();
        self.code.push(Insn::WsNext {
            ws,
            lb,
            ub,
            exit: 0,
        });
        self.loops.push(LoopCx {
            breaks: vec![top],
            continues: Vec::new(),
        });
        for &stmt in &stmts[2..] {
            self.tmp = self.locals_top;
            self.compile_stmt(stmt);
        }
        self.scopes.pop();
        self.locals_top = saved_top;
        let lc = self.loops.pop().unwrap();
        self.patch(&lc.continues, top as u32);
        self.code.push(Insn::Jump { to: top as u32 });
        let end = self.here();
        self.patch(&lc.breaks, end);
    }

    fn compile_while(&mut self, node: &Node) {
        let (cond, body, cont) = self.ast.while_parts(node);
        self.tmp = self.locals_top;
        if let Some((ws, stmts)) = self.ws_chunk_loop(cond, body, cont) {
            self.compile_ws_loop(ws, &stmts);
        } else if let Some((var, limit, op, step)) = self.fusable_loop(cond, cont) {
            let guard = self.code.len();
            self.code.push(Insn::CmpJumpFalse {
                op,
                a: var,
                b: limit,
                to: 0,
            });
            let body_head = self.here();
            self.loops.push(LoopCx {
                breaks: vec![guard],
                continues: Vec::new(),
            });
            self.compile_stmt(body);
            let lc = self.loops.pop().unwrap();
            let at_cont = self.here();
            self.patch(&lc.continues, at_cont);
            self.code.push(Insn::IncCmpJump {
                var,
                step,
                limit,
                op,
                to: body_head,
            });
            let end = self.here();
            self.patch(&lc.breaks, end);
        } else {
            let top = self.here();
            let false_jumps = self.compile_cond(cond);
            self.loops.push(LoopCx {
                breaks: false_jumps,
                continues: Vec::new(),
            });
            self.tmp = self.locals_top;
            self.compile_stmt(body);
            let lc = self.loops.pop().unwrap();
            let at_cont = self.here();
            self.patch(&lc.continues, at_cont);
            if let Some(cont) = cont {
                self.tmp = self.locals_top;
                self.compile_stmt(cont);
            }
            self.code.push(Insn::Jump { to: top });
            let end = self.here();
            self.patch(&lc.breaks, end);
        }
    }

    /// Compile a condition so that control falls through when it is true
    /// and branches (to the returned patch sites) when false.
    fn compile_cond(&mut self, id: NodeId) -> Vec<usize> {
        let node = *self.ast.node(id);
        match node.tag {
            N::BinOp => {
                let tok = self.ast.tokens[node.main_token as usize].tag;
                if let Some(op) = cmp_from_token(tok) {
                    let a = self.compile_expr(node.lhs, None);
                    let b = self.compile_expr(node.rhs, None);
                    let site = self.code.len();
                    self.code.push(Insn::CmpJumpFalse { op, a, b, to: 0 });
                    return vec![site];
                }
                if tok == T::KwAnd {
                    let mut sites = self.compile_cond(node.lhs);
                    sites.extend(self.compile_cond(node.rhs));
                    return sites;
                }
                // `or` and other operators: materialise the value.
            }
            N::UnOp => {
                let tok = self.ast.tokens[node.main_token as usize].tag;
                if tok == T::Bang {
                    let r = self.compile_expr(node.lhs, None);
                    let site = self.code.len();
                    self.code.push(Insn::JumpIfTrue { cond: r, to: 0 });
                    return vec![site];
                }
            }
            _ => {}
        }
        let r = self.compile_expr(id, None);
        let site = self.code.len();
        self.code.push(Insn::JumpIfFalse { cond: r, to: 0 });
        vec![site]
    }

    // -- expressions --------------------------------------------------------

    fn compile_expr(&mut self, id: NodeId, hint: Option<Reg>) -> Reg {
        let node = *self.ast.node(id);
        match node.tag {
            N::IntLit => match self.ast.token_text(node.main_token).parse::<i64>() {
                Ok(v) => self.emit_const(Value::Int(v), hint),
                Err(_) => self.trap_expr("integer literal out of range".into(), hint),
            },
            N::FloatLit => match self.ast.token_text(node.main_token).parse::<f64>() {
                Ok(v) => self.emit_const(Value::Float(v), hint),
                Err(_) => self.trap_expr("bad float literal".into(), hint),
            },
            N::BoolLit => {
                let v = self.ast.tokens[node.main_token as usize].tag == T::KwTrue;
                self.emit_const(Value::Bool(v), hint)
            }
            N::StrLit => {
                let raw = self.ast.token_text(node.main_token);
                let inner = &raw[1..raw.len() - 1];
                let s = inner.replace("\\\"", "\"").replace("\\n", "\n");
                self.emit_const(Value::Str(Arc::from(s)), hint)
            }
            N::UndefinedLit => self.emit_const(Value::Undefined, hint),
            N::Ident => {
                let name = self.ast.token_text(node.main_token).to_string();
                match self.lookup(&name) {
                    Some((reg, false)) => match hint {
                        Some(h) if h != reg => {
                            self.code.push(Insn::Move { dst: h, src: reg });
                            h
                        }
                        Some(h) => h,
                        None => reg,
                    },
                    Some((cell, true)) => {
                        let d = self.dst_reg(hint);
                        self.code.push(Insn::CellGet { dst: d, cell });
                        d
                    }
                    None if self.func_ids.contains_key(&name) => {
                        self.emit_const(Value::Fn(Arc::from(name)), hint)
                    }
                    None => self.trap_expr(format!("unknown variable `{name}`"), hint),
                }
            }
            N::BinOp => self.compile_binop(&node, hint),
            N::UnOp => {
                let tok = self.ast.tokens[node.main_token as usize].tag;
                match tok {
                    T::Amp => self.compile_addr(node.lhs, hint),
                    T::Minus => {
                        let r = self.compile_expr(node.lhs, None);
                        let d = self.dst_reg(hint);
                        self.code.push(Insn::Neg { dst: d, src: r });
                        d
                    }
                    T::Bang => {
                        let r = self.compile_expr(node.lhs, None);
                        let d = self.dst_reg(hint);
                        self.code.push(Insn::Not { dst: d, src: r });
                        d
                    }
                    other => self.trap_expr(format!("bad unary operator {other:?}"), hint),
                }
            }
            N::Deref => {
                let p = self.compile_expr(node.lhs, None);
                let d = self.dst_reg(hint);
                self.code.push(Insn::Deref { dst: d, ptr: p });
                d
            }
            N::Index => {
                let arr = self.compile_expr(node.lhs, None);
                let idx = self.compile_expr(node.rhs, None);
                let d = self.dst_reg(hint);
                self.code.push(Insn::Index { dst: d, arr, idx });
                d
            }
            N::Member => self.trap_expr(
                format!("`{}` has no readable fields", self.ast.node_text(node.lhs)),
                hint,
            ),
            N::Call => self.compile_call(&node, hint),
            N::BuiltinCall => {
                let name = self.ast.token_text(node.main_token).to_string();
                let ids = self.ast.extra(node.lhs, node.rhs).to_vec();
                let (base, n) = self.compile_args(&ids);
                let op = BuiltinOp::from_name(&name);
                let name_k = self.kconst(Value::Str(Arc::from(name)));
                let d = self.dst_reg(hint);
                self.code.push(Insn::Builtin {
                    dst: d,
                    op,
                    name_k,
                    base,
                    n,
                });
                d
            }
            other => self.trap_expr(format!("node {other:?} is not an expression"), hint),
        }
    }

    fn compile_binop(&mut self, node: &Node, hint: Option<Reg>) -> Reg {
        let tok = self.ast.tokens[node.main_token as usize].tag;
        // Short-circuit logical operators produce a `Bool` on every path.
        if tok == T::KwAnd || tok == T::KwOr {
            let d = self.dst_reg(hint);
            let a = self.compile_expr(node.lhs, None);
            let short = self.code.len();
            if tok == T::KwAnd {
                self.code.push(Insn::JumpIfFalse { cond: a, to: 0 });
            } else {
                self.code.push(Insn::JumpIfTrue { cond: a, to: 0 });
            }
            let b = self.compile_expr(node.rhs, None);
            self.code.push(Insn::Truthy { dst: d, src: b });
            let skip = self.code.len();
            self.code.push(Insn::Jump { to: 0 });
            let at_short = self.here();
            self.patch(&[short], at_short);
            let k = self.kconst(Value::Bool(tok == T::KwOr));
            self.code.push(Insn::Const { dst: d, k });
            let end = self.here();
            self.patch(&[skip], end);
            return d;
        }
        if let Some(op) = arith_from_token(tok) {
            let a = self.compile_expr(node.lhs, None);
            let b = self.compile_expr(node.rhs, None);
            let d = self.dst_reg(hint);
            self.code.push(Insn::Arith { op, dst: d, a, b });
            return d;
        }
        if let Some(op) = cmp_from_token(tok) {
            let a = self.compile_expr(node.lhs, None);
            let b = self.compile_expr(node.rhs, None);
            let d = self.dst_reg(hint);
            self.code.push(Insn::Cmp { op, dst: d, a, b });
            return d;
        }
        // The walker evaluates both operands before rejecting the operator.
        self.compile_expr(node.lhs, None);
        self.compile_expr(node.rhs, None);
        self.trap_expr(format!("bad binary operator {tok:?}"), hint)
    }

    /// `&target` — the walker's `eval_addr`/`eval_place` pair.
    fn compile_addr(&mut self, target: NodeId, hint: Option<Reg>) -> Reg {
        let node = *self.ast.node(target);
        match node.tag {
            N::Ident => {
                let name = self.ast.token_text(node.main_token).to_string();
                match self.lookup(&name) {
                    // The boxing pre-pass guarantees any `&name` target is
                    // boxed, so its register already holds the `Ptr`.
                    Some((reg, true)) => match hint {
                        Some(h) if h != reg => {
                            self.code.push(Insn::Move { dst: h, src: reg });
                            h
                        }
                        Some(h) => h,
                        None => reg,
                    },
                    Some((_, false)) => {
                        unreachable!("address-taken local `{name}` not boxed")
                    }
                    None => self.trap_expr(format!("unknown variable `{name}`"), hint),
                }
            }
            N::Index => {
                let arr = self.compile_expr(node.lhs, None);
                let idx = self.compile_expr(node.rhs, None);
                let d = self.dst_reg(hint);
                self.code.push(Insn::ElemAddr { dst: d, arr, idx });
                d
            }
            N::Deref => {
                let p = self.compile_expr(node.lhs, None);
                let d = self.dst_reg(hint);
                self.code.push(Insn::AddrDeref { dst: d, src: p });
                d
            }
            other => self.trap_expr(format!("{other:?} is not assignable"), hint),
        }
    }

    /// Evaluate call arguments into a fresh contiguous register block.
    /// All slots are reserved up front so temporaries of one argument
    /// (e.g. a nested call) cannot interleave with later slots.
    fn compile_args(&mut self, ids: &[u32]) -> (Reg, u16) {
        let base = self.tmp;
        for _ in ids {
            self.alloc_tmp();
        }
        for (i, &a) in ids.iter().enumerate() {
            let slot = base + i as Reg;
            let r = self.compile_expr(a, Some(slot));
            debug_assert_eq!(r, slot);
        }
        (base, ids.len() as u16)
    }

    fn compile_call(&mut self, node: &Node, hint: Option<Reg>) -> Reg {
        let ids = self.ast.call_args(node).to_vec();
        let (base, n) = self.compile_args(&ids);
        let path = callee_path(self.ast, node.lhs);
        match path.as_deref() {
            Some(["print"]) => {
                self.code.push(Insn::Print { base, n });
                self.emit_const(Value::Void, hint)
            }
            Some(["omp", rest @ ..]) if !rest.is_empty() => match OmpFn::resolve(rest) {
                Some(func) => {
                    let d = self.dst_reg(hint);
                    self.code.push(Insn::OmpCall {
                        dst: d,
                        func,
                        base,
                        n,
                    });
                    d
                }
                // Walker order: the arguments ran, then the call fails.
                None => self.trap_expr(OmpFn::unknown(rest), hint),
            },
            Some([name]) if self.func_ids.contains_key(*name) => {
                let func = self.func_ids[*name] as u16;
                let d = self.dst_reg(hint);
                self.code.push(Insn::Call {
                    dst: d,
                    func,
                    base,
                    n,
                });
                d
            }
            _ => {
                // Fall back: the callee expression must evaluate to a
                // function value (walker order: arguments first).
                let callee = self.compile_expr(node.lhs, None);
                let d = self.dst_reg(hint);
                self.code.push(Insn::CallValue {
                    dst: d,
                    callee,
                    base,
                    n,
                });
                d
            }
        }
    }

    fn emit_const(&mut self, v: Value, hint: Option<Reg>) -> Reg {
        let k = self.kconst(v);
        let d = self.dst_reg(hint);
        self.code.push(Insn::Const { dst: d, k });
        d
    }
}

// ---------------------------------------------------------------------------
// Operator tables
// ---------------------------------------------------------------------------

fn arith_from_token(tok: T) -> Option<ArithOp> {
    Some(match tok {
        T::Plus => ArithOp::Add,
        T::Minus => ArithOp::Sub,
        T::Star => ArithOp::Mul,
        T::Slash => ArithOp::Div,
        T::Percent => ArithOp::Rem,
        _ => return None,
    })
}

fn cmp_from_token(tok: T) -> Option<CmpOp> {
    Some(match tok {
        T::Lt => CmpOp::Lt,
        T::LtEq => CmpOp::Le,
        T::Gt => CmpOp::Gt,
        T::GtEq => CmpOp::Ge,
        T::EqEq => CmpOp::Eq,
        T::BangEq => CmpOp::Ne,
        _ => return None,
    })
}

fn compound_arith(tok: T) -> Option<ArithOp> {
    Some(match tok {
        T::PlusEq => ArithOp::Add,
        T::MinusEq => ArithOp::Sub,
        T::StarEq => ArithOp::Mul,
        T::SlashEq => ArithOp::Div,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Boxing pre-pass
// ---------------------------------------------------------------------------

/// Record every name whose address is taken (`&name`) anywhere in the
/// function body. Conservative: shadowed declarations of the same name are
/// all boxed.
fn collect_boxed(ast: &Ast, id: NodeId, out: &mut HashSet<String>) {
    let node = *ast.node(id);
    match node.tag {
        N::Root | N::Block => {
            for &c in ast.range(&node).to_vec().iter() {
                collect_boxed(ast, c, out);
            }
        }
        N::FnDecl => {
            let (_, body) = ast.fn_parts(&node);
            collect_boxed(ast, body, out);
        }
        N::VarDecl | N::ConstDecl if node.rhs > 0 => {
            collect_boxed(ast, node.rhs - 1, out);
        }
        N::Assign | N::CompoundAssign | N::BinOp | N::Index => {
            collect_boxed(ast, node.lhs, out);
            collect_boxed(ast, node.rhs, out);
        }
        N::While => {
            let (cond, body, cont) = ast.while_parts(&node);
            collect_boxed(ast, cond, out);
            collect_boxed(ast, body, out);
            if let Some(c) = cont {
                collect_boxed(ast, c, out);
            }
        }
        N::If => {
            let (cond, then, els) = ast.if_parts(&node);
            collect_boxed(ast, cond, out);
            collect_boxed(ast, then, out);
            if let Some(e) = els {
                collect_boxed(ast, e, out);
            }
        }
        N::Return if node.lhs > 0 => {
            collect_boxed(ast, node.lhs - 1, out);
        }
        N::Discard | N::ExprStmt | N::Member | N::Deref => collect_boxed(ast, node.lhs, out),
        N::UnOp => {
            if ast.tokens[node.main_token as usize].tag == T::Amp {
                let target = ast.node(node.lhs);
                if target.tag == N::Ident {
                    out.insert(ast.token_text(target.main_token).to_string());
                }
            }
            collect_boxed(ast, node.lhs, out);
        }
        N::Call => {
            collect_boxed(ast, node.lhs, out);
            for &a in ast.call_args(&node).to_vec().iter() {
                collect_boxed(ast, a, out);
            }
        }
        N::BuiltinCall => {
            for &a in ast.extra(node.lhs, node.rhs).to_vec().iter() {
                collect_boxed(ast, a, out);
            }
        }
        N::Param
        | N::Ident
        | N::IntLit
        | N::FloatLit
        | N::StrLit
        | N::BoolLit
        | N::UndefinedLit
        | N::Break
        | N::Continue => {}
        // OpenMP nodes never survive preprocessing; nothing to scan.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::disasm_fn;

    fn image_for(src: &str) -> Image {
        let pre = zomp_front::preprocess(src).expect("preprocess");
        let ast = zomp_front::parse(&pre).expect("parse");
        compile_image(&ast)
    }

    #[test]
    fn induction_loops_fuse_to_inccmpjump() {
        let image = image_for(
            r#"
fn main() void {
    var s: i64 = 0;
    var i: i64 = 0;
    while (i < 100) : (i += 1) {
        s = s + i;
    }
    print(s);
}
"#,
        );
        let f = image.get("main").unwrap();
        let fused = f
            .code
            .iter()
            .filter(|i| matches!(i, Insn::IncCmpJump { .. }))
            .count();
        assert_eq!(fused, 1, "{}", disasm_fn(f));
        // No name lookups anywhere: locals resolved to registers.
        assert!(f.locals.iter().any(|(_, n, _)| n == "s"));
        assert!(f.locals.iter().any(|(_, n, _)| n == "i"));
    }

    #[test]
    fn only_address_taken_locals_are_boxed() {
        let image = image_for(
            r#"
fn take(p: *f64) void { p.* = 1.0; }
fn main() void {
    var a: f64 = 0.0;
    var b: f64 = 0.0;
    take(&a);
    b = b + 1.0;
    print(a, b);
}
"#,
        );
        let f = image.get("main").unwrap();
        let boxed: Vec<&str> = f
            .locals
            .iter()
            .filter(|(_, _, boxed)| *boxed)
            .map(|(_, n, _)| n.as_str())
            .collect();
        assert_eq!(boxed, vec!["a"], "{}", disasm_fn(f));
    }

    #[test]
    fn preprocessed_driver_loop_fuses() {
        // The worksharing driver shape the preprocessor emits:
        // `while (i < __ub) : (i += 1)` must fuse even when nested inside
        // the chunk-pull loop.
        let image = image_for(
            r#"
fn main() void {
    var total: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: total)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < 1000) : (i += 1) {
            total += 1;
        }
    }
    print(total);
}
"#,
        );
        let outlined = image.get("__omp_outlined_0").expect("outlined fn");
        assert!(
            outlined
                .code
                .iter()
                .any(|i| matches!(i, Insn::IncCmpJump { .. })),
            "{}",
            disasm_fn(outlined)
        );
        // The chunk-pull loop head is the one fused claim instruction.
        assert!(
            outlined
                .code
                .iter()
                .any(|i| matches!(i, Insn::WsNext { .. })),
            "{}",
            disasm_fn(outlined)
        );
    }

    #[test]
    fn direct_calls_resolve_to_function_indices() {
        let image = image_for(
            r#"
fn helper(x: i64) i64 { return x * 2; }
fn main() void { print(helper(21)); }
"#,
        );
        let f = image.get("main").unwrap();
        assert!(
            f.code.iter().any(|i| matches!(i, Insn::Call { .. })),
            "{}",
            disasm_fn(f)
        );
        assert!(!f.code.iter().any(|i| matches!(i, Insn::CallValue { .. })));
    }
}
