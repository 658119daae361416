//! AST → register-bytecode lowering, and the one compile pipeline.
//!
//! **Pipeline.** [`compile_image_opt`] lowers the program, then at
//! `--opt=3` runs the passes of [`PASSES`] in order: inline, optimize,
//! install. It owns what the passes share. It verifies every
//! function with [`verify_fn`] after lowering and after each pass, and
//! each pass records what it did in its field of [`PassData`], which
//! `zag --remarks` renders. No pass verifies or snapshots code itself;
//! `--dump-bytecode` lowers the program again to show the stream as
//! lowered next to the final one.
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
//! * **Loop fusion** — a canonical counted loop, `while (v cmp limit)`
//!   with an unboxed induction variable stepped by a literal, either as
//!   `: (v ±= k)` or as the body's trailing `v ±= k;`, and a limit that is
//!   a local or a pure expression the loop never changes, compiles to a
//!   [`Insn::CmpJumpFalse`] guard plus a single [`Insn::IncCmpJump`]
//!   back-edge (`FnCx::fusable_loop`). It is the one loop shape the
//!   template tier takes; every other loop keeps the general path
//!   (condition, body, continue, `Jump` back).
//! * **Call shapes** — user functions resolve to direct indices, `omp.*`
//!   paths to an [`OmpFn`] (an unknown path lowers to a [`Insn::Trap`]
//!   after its arguments), `@builtins` to compile-time [`BuiltinOp`]s.
//! * **Chunk claims** — the preprocessor's `while (ws_next(w)) { i =
//!   ws_lb(w); const ub = ws_ub(w); ... }` head lowers to one
//!   [`Insn::WsNext`] (see [`FnCx::ws_chunk_loop`]).

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zomp::json::{obj, Json};
use zomp_front::ast::{Ast, Node, NodeId, Tag as N};
use zomp_front::dump::children_of;
use zomp_front::token::Tag as T;
use zomp_front::Diag;

use crate::bytecode::{ArithOp, BuiltinOp, CmpOp, CompiledFn, Image, Insn, OmpFn, Reg};
use crate::inline::InlineData;
use crate::interp::{call_label, callee_path, str_lit};
use crate::optimize::{verify_fn, OptLevel, OptStats};
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
    let funcs = decls
        .iter()
        .map(|&decl| FnCx::new(ast, &by_name).compile_fn(decl))
        .collect();
    Image { funcs, by_name }
}

/// What the passes recorded about the image, indexed like `image.funcs`:
/// the data [`crate::remarks`] renders.
#[derive(Default)]
pub struct PassData {
    pub inline: InlineData,
    pub opt_stats: Vec<OptStats>,
    /// One entry per step [`compile_image_opt`] ran, in order: `lowering`,
    /// then each pass of [`PASSES`] (`zag --time-passes`).
    pub times: Vec<PassTime>,
    /// Wall time of every [`verify_fn`] call, summed.
    pub verify: Duration,
}

/// What one pipeline step cost and left behind.
pub struct PassTime {
    pub name: &'static str,
    pub wall: Duration,
    /// Instructions in the image after the step.
    pub insns: usize,
}

impl PassData {
    /// Record the step `name` that started at `t` and verify its output;
    /// `t` moves to the end of the verification.
    fn step(&mut self, image: &Image, name: &'static str, t: &mut Instant) {
        let done = Instant::now();
        self.times.push(PassTime {
            name,
            wall: done - *t,
            insns: image.funcs.iter().map(|f| f.code.len()).sum(),
        });
        verify(image, name);
        *t = Instant::now();
        self.verify += *t - done;
    }

    /// The step times as a table, one row per step, then `verify` and the
    /// total.
    pub fn time_table(&self) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut out = format!("{:<10} {:>10} {:>8}\n", "pass", "wall_us", "insns");
        for t in &self.times {
            let _ = writeln!(out, "{:<10} {:>10.1} {:>8}", t.name, us(t.wall), t.insns);
        }
        let _ = writeln!(out, "{:<10} {:>10.1}", "verify", us(self.verify));
        let _ = writeln!(out, "{:<10} {:>10.1}", "total", us(self.total()));
        out
    }

    /// The step times as one JSON document: `passes` (`name`, `wall_us`,
    /// `insns`), `verify_us` and `total_us`.
    pub fn time_json(&self) -> Json {
        let us = |d: Duration| Json::Float(d.as_secs_f64() * 1e6);
        let passes = (self.times.iter())
            .map(|t| {
                obj([
                    ("name", Json::from(t.name)),
                    ("wall_us", us(t.wall)),
                    ("insns", Json::Int(t.insns as i64)),
                ])
            })
            .collect();
        obj([
            ("passes", Json::Arr(passes)),
            ("verify_us", us(self.verify)),
            ("total_us", us(self.total())),
        ])
    }

    fn total(&self) -> Duration {
        self.times.iter().map(|t| t.wall).sum::<Duration>() + self.verify
    }
}

/// One pass of the pipeline: rewrites the image in place and records what
/// it did in its field of [`PassData`].
pub struct Pass {
    pub name: &'static str,
    pub run: fn(&mut Image, &mut PassData),
}

/// The `--opt=3` passes, in the order [`compile_image_opt`] runs them.
pub const PASSES: [Pass; 3] = [
    Pass {
        name: "inline",
        run: |image, data| data.inline = crate::inline::inline_image(image),
    },
    Pass {
        name: "optimize",
        run: |image, data| {
            let nfuncs = image.funcs.len();
            data.opt_stats = (image.funcs.iter_mut())
                .map(|f| crate::optimize::optimize_fn(f, OptLevel::O3, nfuncs))
                .collect();
        },
    },
    Pass {
        name: "install",
        run: |image, _| crate::kernels::install_image(image),
    },
];

/// Lower `ast`, then run every pass of [`PASSES`] at `O3` (none at `O0`),
/// verifying the whole image after lowering and after each pass.
pub fn compile_image_opt(ast: &Ast, opt: OptLevel) -> (Image, PassData) {
    let mut data = PassData::default();
    let mut t = Instant::now();
    let mut image = compile_image(ast);
    data.step(&image, "lowering", &mut t);
    if opt == OptLevel::O3 {
        for pass in &PASSES {
            (pass.run)(&mut image, &mut data);
            data.step(&image, pass.name, &mut t);
        }
    }
    (image, data)
}

/// Parse and preprocess `source`, then run the pipeline at `opt`, keeping
/// what the passes recorded (`zag --remarks`, `zag --time-passes`). `unit`
/// labels pragma loops `unit:line`, as in [`crate::compile_opt`].
pub fn compile_source(source: &str, unit: &str, opt: OptLevel) -> Result<(Image, PassData), Diag> {
    let pre = zomp_front::preprocess::preprocess_parsed(zomp_front::parse(source)?, Some(unit))?;
    Ok(compile_image_opt(&pre, opt))
}

/// Panic unless every function passes [`verify_fn`]: the interpreter's
/// unchecked register and constant access relies on it.
fn verify(image: &Image, pass: &str) {
    for f in &image.funcs {
        if let Err(e) = verify_fn(f, image.funcs.len()) {
            panic!("{pass} produced invalid bytecode in fn `{}`: {e}", f.name);
        }
    }
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
    L(&'static str),
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
            Value::Label(s) => CKey::L(s),
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
        for &p in &params {
            let pname = self.ast.token_text(self.ast.node(p).main_token).to_string();
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
            nregs: self.nregs as usize,
            code: self.code,
            consts: self.consts,
            locals: self.locals_debug,
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
        let ast = self.ast;
        let node = ast.node(block);
        debug_assert_eq!(node.tag, N::Block);
        self.compile_stmts(ast.range(node));
    }

    /// Compile statements in a scope of their own.
    fn compile_stmts(&mut self, stmts: &[NodeId]) {
        self.scopes.push(Vec::new());
        let saved_top = self.locals_top;
        for &stmt in stmts {
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

    /// The canonical counted loop probe: `while (v cmp limit) : (v ±= k)`,
    /// or `while (v cmp limit) { ...; v ±= k; }` with the step as the
    /// body block's last statement, `v` an unboxed local and `k` an
    /// integer literal. Returns `v`, the limit register, the test, the
    /// step and whether the step is the body's trailing statement, having
    /// emitted the limit's evaluation when it needs one. The limit is
    ///
    /// - an unboxed local, re-read each iteration from its live register
    ///   just as the walker re-evaluates the condition;
    /// - or a pure expression ([`FnCx::pure_limit`]) of names the loop
    ///   never assigns, evaluated once into a loop-pinned register where
    ///   the guard first evaluates it: every later evaluation would yield
    ///   the same value, and a `/` or `%` that fails, fails there.
    ///
    /// A trailing step is taken only when no `continue` of this loop could
    /// skip it and the block declares no second `v` it could name.
    fn fusable_loop(
        &mut self,
        cond: NodeId,
        body: NodeId,
        cont: Option<NodeId>,
    ) -> Option<(Reg, Reg, CmpOp, i32, bool)> {
        let ast = self.ast;
        let cond_node = ast.node(cond);
        if cond_node.tag != N::BinOp {
            return None;
        }
        let op = cmp_from_token(ast.tokens[cond_node.main_token as usize].tag)?;
        let var_node = ast.node(cond_node.lhs);
        if var_node.tag != N::Ident {
            return None;
        }
        let var_name = ast.token_text(var_node.main_token);
        let (var, false) = self.lookup(var_name)? else {
            return None;
        };
        let body_node = ast.node(body);
        let (step, trailing) = match cont {
            Some(cont) => (step_of(ast, cont, var_name)?, false),
            None if body_node.tag == N::Block => {
                let stmts = ast.range(body_node);
                let redeclared = stmts.iter().any(|&s| {
                    let s = ast.node(s);
                    matches!(s.tag, N::VarDecl | N::ConstDecl)
                        && ast.token_text(s.main_token) == var_name
                });
                if redeclared || any_node(ast, body, true, &|n| n.tag == N::Continue) {
                    return None;
                }
                (step_of(ast, *stmts.last()?, var_name)?, true)
            }
            None => return None,
        };
        let limit_node = ast.node(cond_node.rhs);
        if limit_node.tag == N::Ident {
            let (reg, false) = self.lookup(ast.token_text(limit_node.main_token))? else {
                return None;
            };
            return Some((var, reg, op, step, trailing));
        }
        let mut names = Vec::new();
        if !self.pure_limit(cond_node.rhs, var_name, &mut names) {
            return None;
        }
        let assigns = |n: &Node| {
            matches!(n.tag, N::Assign | N::CompoundAssign) && {
                let target = ast.node(n.lhs);
                target.tag == N::Ident && names.contains(&ast.token_text(target.main_token))
            }
        };
        let mut scope = cont.into_iter().chain([body]);
        if scope.any(|id| any_node(ast, id, false, &assigns)) {
            return None;
        }
        let pin = self.alloc_pinned();
        self.compile_expr(cond_node.rhs, Some(pin));
        Some((var, pin, op, step, trailing))
    }

    /// Whether the loop limit `id` is pure: literals, unboxed locals other
    /// than the induction variable `var`, and arithmetic or unary `-`/`!`
    /// over them — no call, index, dereference or builtin. Collects the
    /// names it reads into `names`.
    fn pure_limit(&self, id: NodeId, var: &str, names: &mut Vec<&'a str>) -> bool {
        let ast = self.ast;
        let node = ast.node(id);
        let tok = ast.tokens[node.main_token as usize].tag;
        match node.tag {
            N::IntLit | N::FloatLit => true,
            N::Ident => {
                let name = ast.token_text(node.main_token);
                names.push(name);
                name != var && matches!(self.lookup(name), Some((_, false)))
            }
            N::BinOp => {
                arith_from_token(tok).is_some()
                    && self.pure_limit(node.lhs, var, names)
                    && self.pure_limit(node.rhs, var, names)
            }
            N::UnOp => matches!(tok, T::Minus | T::Bang) && self.pure_limit(node.lhs, var, names),
            _ => false,
        }
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
        } else if let Some((var, limit, op, step, trailing)) = self.fusable_loop(cond, body, cont) {
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
            if trailing {
                // The body block but its last statement, the step.
                let ast = self.ast;
                let stmts = ast.range(ast.node(body));
                self.compile_stmts(&stmts[..stmts.len() - 1]);
            } else {
                self.compile_stmt(body);
            }
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
            N::StrLit => self.emit_const(Value::Str(Arc::from(str_lit(self.ast, &node))), hint),
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
                let (base, n) = self.compile_args(&ids, None);
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
    /// A call of `omp.<func>` resolves its pragma label here, once
    /// ([`call_label`]).
    fn compile_args(&mut self, ids: &[u32], func: Option<OmpFn>) -> (Reg, u16) {
        let base = self.tmp;
        for _ in ids {
            self.alloc_tmp();
        }
        for (i, &a) in ids.iter().enumerate() {
            let slot = base + i as Reg;
            let label = func
                .filter(|_| i == 0)
                .and_then(|f| call_label(self.ast, f, a));
            let r = match label {
                Some(l) => self.emit_const(Value::Label(l), Some(slot)),
                None => self.compile_expr(a, Some(slot)),
            };
            debug_assert_eq!(r, slot);
        }
        (base, ids.len() as u16)
    }

    fn compile_call(&mut self, node: &Node, hint: Option<Reg>) -> Reg {
        let ids = self.ast.call_args(node).to_vec();
        let path = callee_path(self.ast, node.lhs);
        let func = match path.as_deref() {
            Some(["omp", rest @ ..]) => OmpFn::resolve(rest),
            _ => None,
        };
        let (base, n) = self.compile_args(&ids, func);
        match path.as_deref() {
            Some(["print"]) => {
                self.code.push(Insn::Print { base, n });
                self.emit_const(Value::Void, hint)
            }
            Some(["omp", rest @ ..]) if !rest.is_empty() => match func {
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
// Tree scans
// ---------------------------------------------------------------------------

/// Record every name whose address is taken (`&name`) anywhere in the
/// function body. Conservative: shadowed declarations of the same name are
/// all boxed.
fn collect_boxed(ast: &Ast, id: NodeId, out: &mut HashSet<String>) {
    let node = ast.node(id);
    if node.tag == N::UnOp && ast.tokens[node.main_token as usize].tag == T::Amp {
        let target = ast.node(node.lhs);
        if target.tag == N::Ident {
            out.insert(ast.token_text(target.main_token).to_string());
        }
    }
    for c in children_of(ast, id) {
        collect_boxed(ast, c, out);
    }
}

/// Whether `pred` holds at `id` or anywhere below it. With `own_loop` the
/// scan does not enter nested `while`s (a `continue` there is theirs).
fn any_node(ast: &Ast, id: NodeId, own_loop: bool, pred: &impl Fn(&Node) -> bool) -> bool {
    let node = ast.node(id);
    pred(node)
        || !(own_loop && node.tag == N::While)
            && children_of(ast, id)
                .into_iter()
                .any(|c| any_node(ast, c, own_loop, pred))
}

/// The step of `var += k` / `var -= k`, `k` an integer literal. `var -= 0`
/// is refused: a zero step replays `var + 0`, whose error on a non-integer
/// `var` names `+` where the walker's names `-`.
fn step_of(ast: &Ast, stmt: NodeId, var: &str) -> Option<i32> {
    let node = ast.node(stmt);
    if node.tag != N::CompoundAssign {
        return None;
    }
    let (target, k) = (ast.node(node.lhs), ast.node(node.rhs));
    if target.tag != N::Ident || ast.token_text(target.main_token) != var || k.tag != N::IntLit {
        return None;
    }
    let k: i64 = ast.token_text(k.main_token).parse().ok()?;
    let step = match ast.tokens[node.main_token as usize].tag {
        T::PlusEq => k,
        T::MinusEq if k > 0 => -k,
        _ => return None,
    };
    i32::try_from(step).ok()
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

    /// Rule (a), a pure limit evaluated once, and rule (b), a trailing
    /// step, lower to a guard plus an `IncCmpJump`; a limit the body
    /// assigns, a trailing step a `continue` could skip, a limit that
    /// reads memory and `-= 0` keep the general path's backward `Jump`.
    #[test]
    fn canonical_counted_loops_fuse() {
        let back_edges = |body: &str| {
            let src = format!(
                "fn f(a: []f64, n: i64, d: i64) void {{\n var x: f64 = 0.5;\n var i: i64 = 0;\n {body}\n}}"
            );
            let image = image_for(&src);
            let f = image.get("f").unwrap();
            let fused = (f.code.iter())
                .filter(|i| matches!(i, Insn::IncCmpJump { .. }))
                .count();
            let general = (f.code.iter().enumerate())
                .filter(|&(pc, i)| matches!(*i, Insn::Jump { to } if to as usize <= pc))
                .count();
            (fused, general, disasm_fn(f))
        };
        for fused in [
            "while (i < n - 1) : (i += 1) { a[i] = 1.0; }",
            "while (i < 2 * n + d % 3) : (i += 2) { a[i] = 1.0; }",
            "while (i > -n) : (i -= 1) { a[0] = 1.0; }",
            "while (i < n / d) { a[i] = 1.0; i += 1; }",
            "while (i >= 0) { if (i == 3) { break; } i -= 2; }",
            "while (x < 10.0) { a[0] = x; x += 1; }",
            "while (i < n) { while (i < d) : (i += 1) { continue; } i += 1; }",
        ] {
            let (n, general, code) = back_edges(fused);
            assert!(n >= 1 && general == 0, "{fused}\n{code}");
        }
        for general in [
            "while (i < n - 1) : (i += 1) { n = n - 1; }",
            "while (i < n + d) : (i += 1) { d += 1; }",
            "while (i < n - i) : (i += 1) { a[i] = 1.0; }",
            "while (i < n) { if (i == 2) { i += 3; continue; } i += 1; }",
            "while (i < n) { var i: i64 = 0; i += 1; }",
            "while (i < @floatToInt(a[0])) : (i += 1) { a[i] = 1.0; }",
            "while (x > 0.0) { x -= 0; }",
        ] {
            let (n, general, code) = back_edges(general);
            assert!(n == 0 && general == 1, "{general}\n{code}");
        }
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
    #[should_panic(expected = "optimize produced invalid bytecode in fn `main`: pc 0:")]
    fn verify_names_the_pass_and_the_function() {
        let mut image = image_for("fn main() void { print(1); }");
        let f = &mut image.funcs[0];
        f.code.insert(0, Insn::Jump { to: 99 });
        verify(&image, "optimize");
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
