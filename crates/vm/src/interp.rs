//! Program loading and the two execution backends.
//!
//! Both backends execute the *preprocessed* (pragma-free) program. All
//! parallelism enters through `omp.internal.fork_call`, which runs the
//! outlined function on a real `zomp` team — so a pragma-annotated Zag
//! program ends up executing on actual threads, completing the paper's
//! pipeline end to end.
//!
//! The default backend is the register-bytecode VM ([`Backend::Bytecode`]):
//! functions are lowered once by [`crate::compile`](mod@crate::compile)
//! and executed by [`Vm::run_bytecode`] with a dense `match` dispatch over
//! flat instructions and unboxed register frames. The original tree-walker is
//! kept behind [`Backend::Ast`] as the differential-testing oracle; the
//! two are required to produce byte-identical output (including error
//! messages), which `crates/vm/tests/differential.rs` enforces.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use zomp_front::ast::{Ast, Node, NodeId, Tag as N};
use zomp_front::token::Tag as T;

use crate::builtins;
use crate::bytecode::{ArithOp, CmpOp, Image, Insn, OmpFn, Reg};
use crate::optimize::OptLevel;
use crate::templates::Ran;
use crate::value::{err, ArrF, ArrI, Slot, Value, VmError, VmResult};

thread_local! {
    /// Zag calls currently nested on this thread's native stack.
    static CALL_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// One nested Zag function activation on this thread — a call, or a
/// region body entered through `fork_call` — counted for as long as the
/// guard lives. Both backends recurse natively per activation (`dispatch`
/// → `call_fn` → `dispatch`, `eval_call` → `call_function`), so both take
/// a guard per activation and fail number [`zomp::MAX_CALL_DEPTH`]` + 1`
/// with the same error instead of running off the stack; every thread
/// that runs Zag code for the runtime gets [`zomp::STACK_BYTES`] of it.
struct CallDepth;

impl CallDepth {
    fn enter() -> VmResult<CallDepth> {
        CALL_DEPTH.with(|d| {
            if d.get() >= zomp::MAX_CALL_DEPTH {
                return err(format!(
                    "stack overflow: more than {} nested calls",
                    zomp::MAX_CALL_DEPTH
                ));
            }
            d.set(d.get() + 1);
            Ok(CallDepth)
        })
    }
}

impl Drop for CallDepth {
    fn drop(&mut self) {
        CALL_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Which execution engine runs function bodies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Flat register-bytecode VM (default).
    #[default]
    Bytecode,
    /// Original tree-walking interpreter, kept as the semantic oracle.
    Ast,
    /// Bytecode VM with the native bulk-kernel tier: shorthand that
    /// forces the image to `--opt=3` so recognised hot loops run as
    /// precompiled slice kernels ([`crate::kernels`]).
    Native,
}

impl Backend {
    /// Parse a CLI/ENV spelling (`ast` | `bytecode` | `native`).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "ast" => Some(Backend::Ast),
            "bytecode" => Some(Backend::Bytecode),
            "native" => Some(Backend::Native),
            _ => None,
        }
    }

    /// The optimization level a program is compiled at for this backend:
    /// the native backend is the bulk-kernel tier by definition, so it
    /// pins `O3`; the others take the requested level.
    pub fn opt_level(self, requested: OptLevel) -> OptLevel {
        if self == Backend::Native {
            OptLevel::O3
        } else {
            requested
        }
    }
}

/// Map the core crate's backend selector (plain CLI/request data) onto
/// the VM's engine enum.
impl From<zomp::config::BackendSel> for Backend {
    fn from(sel: zomp::config::BackendSel) -> Backend {
        match sel {
            zomp::config::BackendSel::Ast => Backend::Ast,
            zomp::config::BackendSel::Bytecode => Backend::Bytecode,
            zomp::config::BackendSel::Native => Backend::Native,
        }
    }
}

/// A compiled (preprocessed + parsed + lowered) program.
pub struct Program {
    pub ast: Ast,
    pub functions: HashMap<String, NodeId>,
    /// The bytecode image: every function lowered to a flat instruction
    /// stream with resolved register slots.
    pub code: Image,
    /// The source before preprocessing, kept for display/teaching.
    pub original_source: String,
    /// The pragma-free source actually executed.
    pub final_source: String,
    /// Data-sharing lint findings from `zomp_front::analyze`, produced
    /// against `original_source`. Warnings only — the embedder decides
    /// whether to surface or deny them (`zag` prints them by default).
    pub diags: Vec<zomp_front::Diag>,
    /// Optimization level the image was compiled at. Informational: the
    /// interpreter executes whatever the image holds and never reads it.
    pub opt: OptLevel,
}

/// Compile Zag source: preprocess pragmas away, parse, index functions.
pub fn compile(source: &str) -> Result<Program, zomp_front::Diag> {
    compile_inner(source, None, OptLevel::default())
}

/// [`compile`] at an explicit optimization level (`zag --opt=N`). `unit`
/// (normally the source path) labels parallel regions `unit:line` of
/// their pragma, so runtime traces and profiles point back at the
/// directive.
pub fn compile_opt(
    source: &str,
    unit: Option<&str>,
    opt: OptLevel,
) -> Result<Program, zomp_front::Diag> {
    compile_inner(source, unit, opt)
}

fn compile_inner(
    source: &str,
    unit: Option<&str>,
    opt: OptLevel,
) -> Result<Program, zomp_front::Diag> {
    // The data-sharing lint runs on the original, still-pragma'd parse so
    // its diagnostics point at the user's directives, not the rewritten
    // driver loops. The preprocessor starts from that same parse and
    // hands back the parse of its final text.
    let original = zomp_front::parse(source)?;
    let diags = zomp_front::analyze(&original, unit.unwrap_or("<input>"));
    let ast = zomp_front::preprocess::preprocess_parsed(original, unit)?;
    let final_source = ast.source.clone();
    let mut functions = HashMap::new();
    let root = *ast.node(ast.root);
    for &decl in ast.range(&root) {
        let node = ast.node(decl);
        if node.tag == N::FnDecl {
            functions.insert(ast.token_text(node.main_token).to_string(), decl);
        }
    }
    let (code, _) = crate::compile::compile_image_opt(&ast, opt);
    Ok(Program {
        ast,
        functions,
        code,
        original_source: source.to_string(),
        final_source,
        diags,
        opt,
    })
}

/// The virtual machine: a compiled program plus captured output.
pub struct Vm {
    pub program: Arc<Program>,
    /// Lines produced by `print(...)`, in order.
    pub output: Mutex<Vec<String>>,
    /// Echo `print` output to stdout as well.
    pub echo: bool,
    /// Execution engine for function bodies (bytecode by default).
    pub backend: Backend,
    /// The parallel runtime instance this VM executes against. Every
    /// `omp.*` builtin — fork, ICV queries, critical sections — resolves
    /// through this handle, so two `Vm`s with distinct runtimes share
    /// nothing but the worker pool. Defaults to the process-wide runtime.
    pub runtime: Arc<zomp::Runtime>,
}

/// Lexical environment of one function activation.
struct Frame {
    scopes: Vec<HashMap<String, Slot>>,
}

impl Frame {
    fn new() -> Frame {
        Frame {
            scopes: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, v: Value) {
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), Arc::new(Mutex::new(v)));
    }

    fn lookup(&self, name: &str) -> Option<Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(name).cloned())
    }
}

/// Statement outcome.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// A resolved assignment target.
enum Place {
    Slot(Slot),
    ElemF(Arc<ArrF>, i64),
    ElemI(Arc<ArrI>, i64),
}

impl Vm {
    /// Compile and wrap a program.
    pub fn new(source: &str) -> Result<Vm, zomp_front::Diag> {
        Ok(Vm::from_program(
            Arc::new(compile(source)?),
            Backend::default(),
            Arc::clone(zomp::Runtime::global()),
        ))
    }

    /// Fully-explicit constructor: compilation unit (for pragma `unit:line`
    /// labels), backend, and optimization level.
    pub fn build(
        source: &str,
        unit: Option<&str>,
        backend: Backend,
        opt: OptLevel,
    ) -> Result<Vm, zomp_front::Diag> {
        Ok(Vm::from_program(
            Arc::new(compile_opt(source, unit, backend.opt_level(opt))?),
            backend,
            Arc::clone(zomp::Runtime::global()),
        ))
    }

    /// Wrap an already-compiled program. This is the constructor the `zagd`
    /// service uses: the `Arc<Program>` comes from its compiled-program
    /// cache (compile once, run many) and `runtime` is the per-request
    /// instance, so concurrent executions of the same cached program see
    /// independent ICVs, critical sections, and threadprivate storage.
    pub fn from_program(
        program: Arc<Program>,
        backend: Backend,
        runtime: Arc<zomp::Runtime>,
    ) -> Vm {
        Vm {
            program,
            output: Mutex::new(Vec::new()),
            echo: false,
            backend,
            runtime,
        }
    }

    /// Compile and run `main()`, returning the captured output lines.
    pub fn run(source: &str) -> Result<Vec<String>, VmError> {
        let vm = Vm::new(source).map_err(|e| VmError(e.render(source)))?;
        vm.call_function("main", Vec::new())?;
        Ok(vm.output.into_inner())
    }

    /// Call a function by name on the configured backend. The VM's runtime
    /// is entered for the dynamic extent of the call, so `omp.*` facade
    /// lookups made by program code resolve against [`Vm::runtime`] rather
    /// than whatever instance the calling thread happened to have current.
    pub fn call_function(&self, name: &str, args: Vec<Value>) -> VmResult<Value> {
        let _rt = self.runtime.enter();
        // A `critical` a failed call never left would wedge this `Vm`.
        let held = builtins::criticals_held();
        match self.backend {
            Backend::Bytecode | Backend::Native => {
                let fi = self.resolve_fn(name, args.len())?;
                self.run_bytecode(fi, args.into_iter())
            }
            Backend::Ast => self.call_function_ast(name, args),
        }
        .inspect_err(|_| builtins::release_criticals(held))
    }

    /// Look `name` up in the image and check it takes `nargs` arguments.
    /// `fork_call` resolves its outlined function through here once, before
    /// the team forks, and every thread then enters by index.
    pub(crate) fn resolve_fn(&self, name: &str, nargs: usize) -> VmResult<usize> {
        let &fi = self
            .program
            .code
            .by_name
            .get(name)
            .ok_or_else(|| VmError(format!("unknown function `{name}`")))?;
        let f = &self.program.code.funcs[fi];
        if nargs != f.nparams {
            return err(format!(
                "`{}` expects {} arguments, got {nargs}",
                f.name, f.nparams
            ));
        }
        Ok(fi)
    }

    /// Run function `fi` (from [`Vm::resolve_fn`]) on a team thread. The
    /// runtime is already current there (`zomp::fork_call_rt` enters it on
    /// every team thread), and each thread gets its own copy of `args`.
    pub(crate) fn call_resolved(&self, fi: usize, args: &[Value]) -> VmResult<Value> {
        let _depth = CallDepth::enter()?;
        match self.backend {
            Backend::Bytecode | Backend::Native => self.run_bytecode(fi, args.iter().cloned()),
            Backend::Ast => {
                self.call_function_ast(&self.program.code.funcs[fi].name, args.to_vec())
            }
        }
    }

    /// Tree-walker entry: the original interpreter, kept as the oracle.
    fn call_function_ast(&self, name: &str, args: Vec<Value>) -> VmResult<Value> {
        let ast = &self.program.ast;
        let &decl = self
            .program
            .functions
            .get(name)
            .ok_or_else(|| VmError(format!("unknown function `{name}`")))?;
        let node = ast.node(decl);
        let nparams = node.rhs as usize;
        let params = ast.extra(node.lhs, node.lhs + nparams as u32).to_vec();
        let body = ast.extra_data[(node.lhs as usize) + nparams];
        if args.len() != nparams {
            return err(format!(
                "`{name}` expects {nparams} arguments, got {}",
                args.len()
            ));
        }
        let mut frame = Frame::new();
        for (param, arg) in params.iter().zip(args) {
            let pname = ast.token_text(ast.node(*param).main_token);
            frame.declare(pname, arg);
        }
        match self.exec_block(&mut frame, body)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Void),
        }
    }

    // -- statements ---------------------------------------------------------

    fn exec_block(&self, frame: &mut Frame, block: NodeId) -> VmResult<Flow> {
        let ast = &self.program.ast;
        let node = *ast.node(block);
        debug_assert_eq!(node.tag, N::Block);
        frame.push();
        let stmts = ast.range(&node).to_vec();
        let mut out = Flow::Normal;
        for stmt in stmts {
            match self.exec_stmt(frame, stmt)? {
                Flow::Normal => {}
                flow => {
                    out = flow;
                    break;
                }
            }
        }
        frame.pop();
        Ok(out)
    }

    fn exec_stmt(&self, frame: &mut Frame, id: NodeId) -> VmResult<Flow> {
        let ast = &self.program.ast;
        let node = *ast.node(id);
        match node.tag {
            N::VarDecl | N::ConstDecl => {
                let init = if node.rhs > 0 {
                    self.eval(frame, node.rhs - 1)?
                } else {
                    Value::Undefined
                };
                frame.declare(ast.token_text(node.main_token), init);
                Ok(Flow::Normal)
            }
            N::Assign => {
                let v = self.eval(frame, node.rhs)?;
                let place = self.eval_place(frame, node.lhs)?;
                self.store(place, v)?;
                Ok(Flow::Normal)
            }
            N::CompoundAssign => {
                let rhs = self.eval(frame, node.rhs)?;
                let op = ast.tokens[node.main_token as usize].tag;
                let place = self.eval_place(frame, node.lhs)?;
                let old = self.load(&place)?;
                let new = binop_arith(compound_op(op)?, &old, &rhs)?;
                self.store(place, new)?;
                Ok(Flow::Normal)
            }
            N::While => {
                let body = ast.extra_data[node.rhs as usize];
                let cont = ast.extra_data[node.rhs as usize + 1];
                loop {
                    if !self.eval(frame, node.lhs)?.truthy()? {
                        break;
                    }
                    match self.exec_stmt(frame, body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    if cont > 0 {
                        self.exec_stmt(frame, cont - 1)?;
                    }
                }
                Ok(Flow::Normal)
            }
            N::If => {
                let then = ast.extra_data[node.rhs as usize];
                let els = ast.extra_data[node.rhs as usize + 1];
                if self.eval(frame, node.lhs)?.truthy()? {
                    self.exec_stmt(frame, then)
                } else if els > 0 {
                    self.exec_stmt(frame, els - 1)
                } else {
                    Ok(Flow::Normal)
                }
            }
            N::Return => {
                let v = if node.lhs > 0 {
                    self.eval(frame, node.lhs - 1)?
                } else {
                    Value::Void
                };
                Ok(Flow::Return(v))
            }
            N::Break => Ok(Flow::Break),
            N::Continue => Ok(Flow::Continue),
            N::Discard | N::ExprStmt => {
                self.eval(frame, node.lhs)?;
                Ok(Flow::Normal)
            }
            N::Block => self.exec_block(frame, id),
            other => err(format!("node {other:?} is not a statement")),
        }
    }

    // -- expressions ----------------------------------------------------------

    fn eval(&self, frame: &mut Frame, id: NodeId) -> VmResult<Value> {
        let ast = &self.program.ast;
        let node = *ast.node(id);
        match node.tag {
            N::IntLit => ast
                .token_text(node.main_token)
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| VmError("integer literal out of range".into())),
            N::FloatLit => ast
                .token_text(node.main_token)
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| VmError("bad float literal".into())),
            N::BoolLit => Ok(Value::Bool(
                ast.tokens[node.main_token as usize].tag == T::KwTrue,
            )),
            N::StrLit => Ok(Value::Str(Arc::from(str_lit(ast, &node)))),
            N::UndefinedLit => Ok(Value::Undefined),
            N::Ident => {
                let name = ast.token_text(node.main_token);
                if let Some(slot) = frame.lookup(name) {
                    let v = slot.lock().clone();
                    return Ok(v);
                }
                if self.program.functions.contains_key(name) {
                    return Ok(Value::Fn(Arc::from(name)));
                }
                err(format!("unknown variable `{name}`"))
            }
            N::BinOp => {
                let op = ast.tokens[node.main_token as usize].tag;
                // Short-circuit logical operators.
                if op == T::KwAnd {
                    return Ok(Value::Bool(
                        self.eval(frame, node.lhs)?.truthy()?
                            && self.eval(frame, node.rhs)?.truthy()?,
                    ));
                }
                if op == T::KwOr {
                    return Ok(Value::Bool(
                        self.eval(frame, node.lhs)?.truthy()?
                            || self.eval(frame, node.rhs)?.truthy()?,
                    ));
                }
                let a = self.eval(frame, node.lhs)?;
                let b = self.eval(frame, node.rhs)?;
                binop(op, &a, &b)
            }
            N::UnOp => {
                let op = ast.tokens[node.main_token as usize].tag;
                match op {
                    T::Amp => self.eval_addr(frame, node.lhs),
                    T::Minus => match self.eval(frame, node.lhs)? {
                        Value::Int(v) => Ok(Value::Int(v.wrapping_neg())),
                        Value::Float(v) => Ok(Value::Float(-v)),
                        other => err(format!("cannot negate {}", other.type_name())),
                    },
                    T::Bang => Ok(Value::Bool(!self.eval(frame, node.lhs)?.truthy()?)),
                    other => err(format!("bad unary operator {other:?}")),
                }
            }
            N::Deref => match self.eval(frame, node.lhs)? {
                Value::Ptr(slot) => {
                    let v = slot.lock().clone();
                    Ok(v)
                }
                Value::ElemPtrF(a, i) => a.get(i).map(Value::Float),
                Value::ElemPtrI(a, i) => a.get(i).map(Value::Int),
                other => err(format!("cannot dereference {}", other.type_name())),
            },
            N::Index => {
                let base = self.eval(frame, node.lhs)?;
                let idx = self.eval(frame, node.rhs)?.as_int()?;
                match base {
                    Value::ArrF(a) => a.get(idx).map(Value::Float),
                    Value::ArrI(a) => a.get(idx).map(Value::Int),
                    other => err(format!("cannot index {}", other.type_name())),
                }
            }
            N::Member => {
                // Bare member reads are only meaningful as call paths; a
                // stray one is an error.
                err(format!(
                    "`{}` has no readable fields",
                    ast.node_text(node.lhs)
                ))
            }
            N::Call => self.eval_call(frame, &node),
            N::BuiltinCall => self.eval_builtin(frame, &node),
            other => err(format!("node {other:?} is not an expression")),
        }
    }

    fn eval_addr(&self, frame: &mut Frame, target: NodeId) -> VmResult<Value> {
        match self.eval_place(frame, target)? {
            Place::Slot(s) => Ok(Value::Ptr(s)),
            Place::ElemF(a, i) => Ok(Value::ElemPtrF(a, i)),
            Place::ElemI(a, i) => Ok(Value::ElemPtrI(a, i)),
        }
    }

    fn eval_place(&self, frame: &mut Frame, id: NodeId) -> VmResult<Place> {
        let ast = &self.program.ast;
        let node = *ast.node(id);
        match node.tag {
            N::Ident => {
                let name = ast.token_text(node.main_token);
                frame
                    .lookup(name)
                    .map(Place::Slot)
                    .ok_or_else(|| VmError(format!("unknown variable `{name}`")))
            }
            N::Index => {
                let base = self.eval(frame, node.lhs)?;
                let idx = self.eval(frame, node.rhs)?.as_int()?;
                match base {
                    Value::ArrF(a) => Ok(Place::ElemF(a, idx)),
                    Value::ArrI(a) => Ok(Place::ElemI(a, idx)),
                    other => err(format!("cannot index {}", other.type_name())),
                }
            }
            N::Deref => match self.eval(frame, node.lhs)? {
                Value::Ptr(slot) => Ok(Place::Slot(slot)),
                Value::ElemPtrF(a, i) => Ok(Place::ElemF(a, i)),
                Value::ElemPtrI(a, i) => Ok(Place::ElemI(a, i)),
                other => err(format!("cannot store through {}", other.type_name())),
            },
            other => err(format!("{other:?} is not assignable")),
        }
    }

    fn load(&self, place: &Place) -> VmResult<Value> {
        match place {
            Place::Slot(s) => Ok(s.lock().clone()),
            Place::ElemF(a, i) => a.get(*i).map(Value::Float),
            Place::ElemI(a, i) => a.get(*i).map(Value::Int),
        }
    }

    fn store(&self, place: Place, v: Value) -> VmResult<()> {
        match place {
            Place::Slot(s) => {
                *s.lock() = v;
                Ok(())
            }
            Place::ElemF(a, i) => a.set(i, v.as_float()?),
            Place::ElemI(a, i) => a.set(i, v.as_int()?),
        }
    }

    fn eval_call(&self, frame: &mut Frame, node: &Node) -> VmResult<Value> {
        let ast = &self.program.ast;
        // Resolve the callee as a dotted path of identifiers if possible.
        let path = callee_path(ast, node.lhs);
        let arg_ids = ast.call_args(node).to_vec();
        let func = match path.as_deref() {
            Some(["omp", rest @ ..]) => OmpFn::resolve(rest),
            _ => None,
        };
        let mut args = Vec::with_capacity(arg_ids.len());
        for (i, a) in arg_ids.into_iter().enumerate() {
            let label = func.filter(|_| i == 0).and_then(|f| call_label(ast, f, a));
            args.push(match label {
                Some(l) => Value::Label(l),
                None => self.eval(frame, a)?,
            });
        }
        match path.as_deref() {
            Some(["print"]) => {
                let line = args
                    .iter()
                    .map(|v| v.render())
                    .collect::<Vec<_>>()
                    .join(" ");
                if self.echo {
                    println!("{line}");
                }
                self.output.lock().push(line);
                Ok(Value::Void)
            }
            Some(["omp", rest @ ..]) if !rest.is_empty() => match func {
                Some(func) => builtins::call(self, func, &args),
                None => err(OmpFn::unknown(rest)),
            },
            Some([name]) if self.program.functions.contains_key(*name) => {
                let _depth = CallDepth::enter()?;
                self.call_function(name, args)
            }
            _ => {
                // Fall back: callee evaluates to a function value.
                let callee = self.eval(frame, node.lhs)?;
                match callee {
                    Value::Fn(name) => {
                        let _depth = CallDepth::enter()?;
                        self.call_function(&name, args)
                    }
                    other => err(format!("{} is not callable", other.type_name())),
                }
            }
        }
    }

    fn eval_builtin(&self, frame: &mut Frame, node: &Node) -> VmResult<Value> {
        let ast = &self.program.ast;
        let name = ast.token_text(node.main_token).to_string();
        let arg_ids = ast.extra(node.lhs, node.rhs).to_vec();
        let mut args = Vec::with_capacity(arg_ids.len());
        for a in arg_ids {
            args.push(self.eval(frame, a)?);
        }
        builtins::math_builtin(&name, &args)
    }

    // -- bytecode executor --------------------------------------------------

    /// Bytecode entry point for external callers (API calls, `fork_call`
    /// team workers), after [`Vm::resolve_fn`] checked the arity: the
    /// arguments fill a frame from the per-thread arena.
    fn run_bytecode(&self, fi: usize, args: impl Iterator<Item = Value>) -> VmResult<Value> {
        let f = &self.program.code.funcs[fi];
        let mut regs = acquire_frame(f.nregs.max(f.nparams));
        for (slot, arg) in regs.iter_mut().zip(args) {
            *slot = arg;
        }
        let r = self.dispatch(fi, &mut regs);
        release_frame(regs);
        r
    }

    /// Internal `Call`/`CallValue` path: arity-check, then move the
    /// argument block straight from the caller's registers into a pooled
    /// frame — no `Vec` allocation, no `Arc` traffic.
    fn call_fn(&self, fi: usize, regs: &mut [Value], base: Reg, n: u16) -> VmResult<Value> {
        let _depth = CallDepth::enter()?;
        let f = &self.program.code.funcs[fi];
        if n as usize != f.nparams {
            return err(format!(
                "`{}` expects {} arguments, got {n}",
                f.name, f.nparams
            ));
        }
        let mut frame = acquire_frame(f.nregs.max(f.nparams));
        for i in 0..n as usize {
            frame[i] = std::mem::replace(&mut regs[base as usize + i], Value::Undefined);
        }
        let r = self.dispatch(fi, &mut frame);
        release_frame(frame);
        r
    }

    /// The dispatch loop: one activation of function `fi`, read straight
    /// from the shared image, so execution is a function of the compiled
    /// image alone.
    ///
    /// When a `BulkLoop` / `TemplateLoop` bails, the arm swaps in the
    /// loop-head instruction it replaced and re-enters the `match` through
    /// `'redo`. The bailed head is remembered in a local for the rest of
    /// this activation only (the interpreted loop comes back to its head
    /// every iteration), so the next call starts from the image again.
    ///
    /// Register and constant accesses go through [`rg`]/[`rg_mut`]/[`kc`],
    /// which skip bounds checks. The safety argument lives on those
    /// helpers: every instruction stream that reaches this loop passed
    /// `optimize::verify_fn` at compile time, and a deopt copies operands
    /// verbatim.
    fn dispatch(&self, fi: usize, regs: &mut [Value]) -> VmResult<Value> {
        let f = &self.program.code.funcs[fi];
        let consts = &f.consts[..];
        let code = &f.code[..];
        // `pc` is always the slot after `insn`; a deopt replaces `insn`
        // and `continue`s, which skips the fetch at the bottom.
        let mut insn = code[0];
        let mut pc = 1usize;
        // The last `BulkLoop`/`TemplateLoop` head that bailed here.
        let mut bailed = usize::MAX;
        'redo: loop {
            match insn {
                Insn::Const { dst, k } => {
                    let v = kc(consts, k).dup();
                    set(regs, dst, v);
                }
                Insn::Move { dst, src } => {
                    let v = rg(regs, src).dup();
                    set(regs, dst, v);
                }
                Insn::NewCell { dst, src } => {
                    let v = rg(regs, src).clone();
                    set(regs, dst, Value::Ptr(Arc::new(Mutex::new(v))));
                }
                Insn::CellGet { dst, cell } => match rg(regs, cell) {
                    Value::Ptr(slot) => {
                        let v = slot.lock().clone();
                        set(regs, dst, v);
                    }
                    other => return err(format!("cannot dereference {}", other.type_name())),
                },
                Insn::CellSet { cell, src } => match rg(regs, cell) {
                    Value::Ptr(slot) => {
                        let slot = slot.clone();
                        *slot.lock() = rg(regs, src).clone();
                    }
                    other => return err(format!("cannot store through {}", other.type_name())),
                },
                Insn::Deref { dst, ptr } => {
                    let v = match rg(regs, ptr) {
                        Value::Ptr(slot) => slot.lock().clone(),
                        Value::ElemPtrF(a, i) => Value::Float(a.get(*i)?),
                        Value::ElemPtrI(a, i) => Value::Int(a.get(*i)?),
                        other => return err(format!("cannot dereference {}", other.type_name())),
                    };
                    set(regs, dst, v);
                }
                Insn::StorePtr { ptr, src } => match rg(regs, ptr) {
                    Value::Ptr(slot) => {
                        let slot = slot.clone();
                        *slot.lock() = rg(regs, src).clone();
                    }
                    Value::ElemPtrF(a, i) => a.set(*i, rg(regs, src).as_float()?)?,
                    Value::ElemPtrI(a, i) => a.set(*i, rg(regs, src).as_int()?)?,
                    other => return err(format!("cannot store through {}", other.type_name())),
                },
                Insn::ElemAddr { dst, arr, idx } => {
                    let i = rg(regs, idx).as_int()?;
                    let v = match rg(regs, arr) {
                        Value::ArrF(a) => Value::ElemPtrF(a.clone(), i),
                        Value::ArrI(a) => Value::ElemPtrI(a.clone(), i),
                        other => return err(format!("cannot index {}", other.type_name())),
                    };
                    set(regs, dst, v);
                }
                Insn::AddrDeref { dst, src } => {
                    let v = match rg(regs, src) {
                        p @ (Value::Ptr(_) | Value::ElemPtrF(..) | Value::ElemPtrI(..)) => {
                            p.clone()
                        }
                        other => return err(format!("cannot store through {}", other.type_name())),
                    };
                    set(regs, dst, v);
                }
                Insn::Index { dst, arr, idx } => {
                    let i = rg(regs, idx).as_int()?;
                    let v = match rg(regs, arr) {
                        Value::ArrF(a) => Value::Float(a.get(i)?),
                        Value::ArrI(a) => Value::Int(a.get(i)?),
                        other => return err(format!("cannot index {}", other.type_name())),
                    };
                    set(regs, dst, v);
                }
                Insn::IndexSet { arr, idx, src } => {
                    let i = rg(regs, idx).as_int()?;
                    match rg(regs, arr) {
                        Value::ArrF(a) => {
                            let v = rg(regs, src).as_float()?;
                            a.set(i, v)?;
                        }
                        Value::ArrI(a) => {
                            let v = rg(regs, src).as_int()?;
                            a.set(i, v)?;
                        }
                        other => return err(format!("cannot index {}", other.type_name())),
                    }
                }
                Insn::Arith { op, dst, a, b } => {
                    let v = match (rg(regs, a), rg(regs, b)) {
                        (Value::Float(x), Value::Float(y)) => Value::Float(float_arith(op, *x, *y)),
                        (Value::Int(x), Value::Int(y)) => Value::Int(int_arith(op, *x, *y)?),
                        (x, y) => binop_arith(arith_token(op), x, y)?,
                    };
                    set(regs, dst, v);
                }
                Insn::ArithK { op, dst, a, k } => {
                    let v = match (rg(regs, a), kc(consts, k)) {
                        (Value::Float(x), Value::Float(y)) => Value::Float(float_arith(op, *x, *y)),
                        (Value::Int(x), Value::Int(y)) => Value::Int(int_arith(op, *x, *y)?),
                        (x, y) => binop_arith(arith_token(op), x, y)?,
                    };
                    set(regs, dst, v);
                }
                Insn::ArithKL { op, dst, k, b } => {
                    let v = match (kc(consts, k), rg(regs, b)) {
                        (Value::Float(x), Value::Float(y)) => Value::Float(float_arith(op, *x, *y)),
                        (Value::Int(x), Value::Int(y)) => Value::Int(int_arith(op, *x, *y)?),
                        (x, y) => binop_arith(arith_token(op), x, y)?,
                    };
                    set(regs, dst, v);
                }
                Insn::IncElemK { op, arr, idx, k } => {
                    // Unfused order: Index (idx, arr, bounds) → Arith with
                    // the constant → IndexSet.
                    let i = rg(regs, idx).as_int()?;
                    match (rg(regs, arr), kc(consts, k)) {
                        (Value::ArrF(a), Value::Float(c)) => {
                            let x = a.get(i)?;
                            a.set(i, float_arith(op, x, *c))?;
                        }
                        (Value::ArrI(a), Value::Int(c)) => {
                            let x = a.get(i)?;
                            a.set(i, int_arith(op, x, *c)?)?;
                        }
                        (other, c) => {
                            let elem = match other {
                                Value::ArrF(a) => Value::Float(a.get(i)?),
                                Value::ArrI(a) => Value::Int(a.get(i)?),
                                o => return err(format!("cannot index {}", o.type_name())),
                            };
                            let nv = binop_arith(arith_token(op), &elem, c)?;
                            match other {
                                Value::ArrF(a) => a.set(i, nv.as_float()?)?,
                                Value::ArrI(a) => a.set(i, nv.as_int()?)?,
                                _ => unreachable!(),
                            }
                        }
                    }
                }
                Insn::FmaIdx { dst, x, arr, idx } => {
                    match (rg(regs, arr), rg(regs, idx), rg(regs, x), rg(regs, dst)) {
                        (Value::ArrF(a), Value::Int(i), Value::Float(xv), Value::Float(acc)) => {
                            // Mul then add, separately — bit-identical to
                            // the unfused pair (no hardware fma).
                            let v = Value::Float(*acc + *xv * a.get(*i)?);
                            set(regs, dst, v);
                        }
                        _ => {
                            // Unfused order: Index; Mul; Add.
                            let i = rg(regs, idx).as_int()?;
                            let elem = match rg(regs, arr) {
                                Value::ArrF(a) => Value::Float(a.get(i)?),
                                Value::ArrI(a) => Value::Int(a.get(i)?),
                                other => return err(format!("cannot index {}", other.type_name())),
                            };
                            let prod = binop_arith(T::Star, rg(regs, x), &elem)?;
                            let v = binop_arith(T::Plus, rg(regs, dst), &prod)?;
                            set(regs, dst, v);
                        }
                    }
                }
                Insn::IndexOff { dst, arr, idx, off } => {
                    let i = index_off(rg(regs, idx), off)?;
                    let v = match rg(regs, arr) {
                        Value::ArrF(a) => Value::Float(a.get(i)?),
                        Value::ArrI(a) => Value::Int(a.get(i)?),
                        other => return err(format!("cannot index {}", other.type_name())),
                    };
                    set(regs, dst, v);
                }
                Insn::DerefIndex { dst, cell, idx } => {
                    let v = deref_index(regs, cell, idx)?;
                    set(regs, dst, v);
                }
                Insn::DerefIndexOff {
                    dst,
                    cell,
                    idx,
                    off,
                } => {
                    // Unfused order: Deref, then IndexOff (index arithmetic
                    // before the array type check).
                    let v = match rg(regs, cell) {
                        Value::Ptr(slot) => {
                            let i = index_off(rg(regs, idx), off)?;
                            let g = slot.lock();
                            match &*g {
                                Value::ArrF(a) => Value::Float(a.get(i)?),
                                Value::ArrI(a) => Value::Int(a.get(i)?),
                                other => return err(format!("cannot index {}", other.type_name())),
                            }
                        }
                        Value::ElemPtrF(a, i2) => {
                            let elem = Value::Float(a.get(*i2)?);
                            index_off(rg(regs, idx), off)?;
                            return err(format!("cannot index {}", elem.type_name()));
                        }
                        Value::ElemPtrI(a, i2) => {
                            let elem = Value::Int(a.get(*i2)?);
                            index_off(rg(regs, idx), off)?;
                            return err(format!("cannot index {}", elem.type_name()));
                        }
                        other => return err(format!("cannot dereference {}", other.type_name())),
                    };
                    set(regs, dst, v);
                }
                Insn::DerefIndexSet { cell, idx, src } => match rg(regs, cell) {
                    Value::Ptr(slot) => {
                        let i = rg(regs, idx).as_int()?;
                        let g = slot.lock();
                        match &*g {
                            Value::ArrF(a) => {
                                let v = rg(regs, src).as_float()?;
                                a.set(i, v)?;
                            }
                            Value::ArrI(a) => {
                                let v = rg(regs, src).as_int()?;
                                a.set(i, v)?;
                            }
                            other => return err(format!("cannot index {}", other.type_name())),
                        }
                    }
                    Value::ElemPtrF(a, i2) => {
                        let elem = Value::Float(a.get(*i2)?);
                        rg(regs, idx).as_int()?;
                        return err(format!("cannot index {}", elem.type_name()));
                    }
                    Value::ElemPtrI(a, i2) => {
                        let elem = Value::Int(a.get(*i2)?);
                        rg(regs, idx).as_int()?;
                        return err(format!("cannot index {}", elem.type_name()));
                    }
                    other => return err(format!("cannot store through {}", other.type_name())),
                },
                Insn::FmaGather {
                    dst,
                    xcell,
                    acell,
                    icell,
                    idx,
                } => {
                    // Unfused order: DerefIndex(xcell)[idx] produced the
                    // multiplier first, then Deref(acell), the index gather
                    // and the FmaIdx chain ran.
                    let xv = deref_index(regs, xcell, idx)?;
                    match rg(regs, acell) {
                        Value::Ptr(ps) => {
                            // Deref(acell) of a live `Ptr` cannot fail, so
                            // only the pointer *check* stays in place and the
                            // read is deferred past the index gather
                            // (observable only to racy rebinds of the cell
                            // itself, which are unspecified).
                            let iv = deref_index(regs, icell, idx)?;
                            let g = ps.lock();
                            let v = match (&*g, &iv, &xv, rg(regs, dst)) {
                                (
                                    Value::ArrF(a),
                                    Value::Int(i),
                                    Value::Float(xf),
                                    Value::Float(acc),
                                ) => {
                                    // Mul then add, as the unfused pair.
                                    Value::Float(*acc + *xf * a.get(*i)?)
                                }
                                _ => {
                                    // Unfused FmaIdx order: Index; Mul; Add.
                                    let i = iv.as_int()?;
                                    let elem = match &*g {
                                        Value::ArrF(a) => Value::Float(a.get(i)?),
                                        Value::ArrI(a) => Value::Int(a.get(i)?),
                                        other => {
                                            return err(format!(
                                                "cannot index {}",
                                                other.type_name()
                                            ))
                                        }
                                    };
                                    let prod = binop_arith(T::Star, &xv, &elem)?;
                                    binop_arith(T::Plus, rg(regs, dst), &prod)?
                                }
                            };
                            drop(g);
                            set(regs, dst, v);
                        }
                        Value::ElemPtrF(a, i2) => {
                            // Deref yields a scalar; the gather still runs,
                            // then the FmaIdx slow path rejects the
                            // non-array operand.
                            let elem_a = Value::Float(a.get(*i2)?);
                            let iv = deref_index(regs, icell, idx)?;
                            iv.as_int()?;
                            return err(format!("cannot index {}", elem_a.type_name()));
                        }
                        Value::ElemPtrI(a, i2) => {
                            let elem_a = Value::Int(a.get(*i2)?);
                            let iv = deref_index(regs, icell, idx)?;
                            iv.as_int()?;
                            return err(format!("cannot index {}", elem_a.type_name()));
                        }
                        other => return err(format!("cannot dereference {}", other.type_name())),
                    }
                }
                Insn::Cmp { op, dst, a, b } => {
                    let v = match (rg(regs, a), rg(regs, b)) {
                        (Value::Int(x), Value::Int(y)) => Value::Bool(op.eval(*x, *y)),
                        (Value::Float(x), Value::Float(y)) => Value::Bool(op.eval(*x, *y)),
                        (x, y) => binop(cmp_token(op), x, y)?,
                    };
                    set(regs, dst, v);
                }
                Insn::Neg { dst, src } => {
                    let v = match rg(regs, src) {
                        Value::Int(v) => Value::Int(v.wrapping_neg()),
                        Value::Float(v) => Value::Float(-v),
                        other => return err(format!("cannot negate {}", other.type_name())),
                    };
                    set(regs, dst, v);
                }
                Insn::Not { dst, src } => {
                    let v = Value::Bool(!rg(regs, src).truthy()?);
                    set(regs, dst, v);
                }
                Insn::Truthy { dst, src } => {
                    let v = Value::Bool(rg(regs, src).truthy()?);
                    set(regs, dst, v);
                }
                Insn::Jump { to } => pc = to as usize,
                Insn::JumpIfFalse { cond, to } => {
                    if !rg(regs, cond).truthy()? {
                        pc = to as usize;
                    }
                }
                Insn::JumpIfTrue { cond, to } => {
                    if rg(regs, cond).truthy()? {
                        pc = to as usize;
                    }
                }
                Insn::CmpJumpFalse { op, a, b, to } => {
                    let taken = match (rg(regs, a), rg(regs, b)) {
                        (Value::Int(x), Value::Int(y)) => op.eval(*x, *y),
                        (Value::Float(x), Value::Float(y)) => op.eval(*x, *y),
                        (x, y) => binop(cmp_token(op), x, y)?.truthy()?,
                    };
                    if !taken {
                        pc = to as usize;
                    }
                }
                Insn::IncCmpJump {
                    var,
                    step,
                    limit,
                    op,
                    to,
                } => match (rg(regs, var), rg(regs, limit)) {
                    (Value::Int(v), Value::Int(l)) => {
                        let next = v.wrapping_add(step as i64);
                        let l = *l;
                        set(regs, var, Value::Int(next));
                        if op.eval(next, l) {
                            pc = to as usize;
                        }
                    }
                    _ => {
                        // Slow path mirrors the walker: `v ±= k` through
                        // `binop_arith`, then the condition through `binop`.
                        let (tok, k) = if step >= 0 {
                            (T::Plus, step as i64)
                        } else {
                            (T::Minus, -(step as i64))
                        };
                        let next = binop_arith(tok, rg(regs, var), &Value::Int(k))?;
                        set(regs, var, next);
                        let taken =
                            binop(cmp_token(op), rg(regs, var), rg(regs, limit))?.truthy()?;
                        if taken {
                            pc = to as usize;
                        }
                    }
                },
                Insn::IncJump { var, step, to } => {
                    match rg(regs, var) {
                        Value::Int(v) => {
                            let next = Value::Int(v.wrapping_add(step as i64));
                            set(regs, var, next);
                        }
                        other => {
                            // Same slow path as IncCmpJump's.
                            let (tok, kv) = if step >= 0 {
                                (T::Plus, step as i64)
                            } else {
                                (T::Minus, -(step as i64))
                            };
                            let next = binop_arith(tok, other, &Value::Int(kv))?;
                            set(regs, var, next);
                        }
                    }
                    pc = to as usize;
                }
                Insn::Call { dst, func, base, n } => {
                    let v = self.call_fn(func as usize, regs, base, n)?;
                    set(regs, dst, v);
                }
                Insn::CallValue {
                    dst,
                    callee,
                    base,
                    n,
                } => {
                    let target = match rg(regs, callee) {
                        Value::Fn(name) => match self.program.code.by_name.get(name.as_ref()) {
                            Some(&target) => target,
                            None => return err(format!("unknown function `{name}`")),
                        },
                        other => return err(format!("{} is not callable", other.type_name())),
                    };
                    let v = self.call_fn(target, regs, base, n)?;
                    set(regs, dst, v);
                }
                Insn::OmpCall { dst, func, base, n } => {
                    let v = builtins::call(self, func, &regs[base as usize..(base + n) as usize])?;
                    set(regs, dst, v);
                }
                Insn::WsNext { ws, lb, ub, exit } => match builtins::ws_claim(rg(regs, ws))? {
                    Some((lo, hi)) => {
                        set(regs, lb, Value::Int(lo));
                        set(regs, ub, Value::Int(hi));
                    }
                    None => pc = exit as usize,
                },
                Insn::Builtin {
                    dst,
                    op,
                    name_k,
                    base,
                    n,
                } => {
                    let bargs = &regs[base as usize..(base + n) as usize];
                    let v = match builtins::pure(op, bargs) {
                        Some(v) => v,
                        None => match kc(consts, name_k) {
                            Value::Str(name) => builtins::impure_builtin(name, bargs)?,
                            _ => unreachable!("builtin name constant is not a string"),
                        },
                    };
                    set(regs, dst, v);
                }
                Insn::Print { base, n } => {
                    let line = regs[base as usize..(base + n) as usize]
                        .iter()
                        .map(|v| v.render())
                        .collect::<Vec<_>>()
                        .join(" ");
                    if self.echo {
                        println!("{line}");
                    }
                    self.output.lock().push(line);
                }
                Insn::BulkLoop { kidx } => {
                    // Native tier (`--opt=3` only): run the whole
                    // recognised loop as a precompiled slice kernel. On
                    // success the kernel has written back every register
                    // the loop defines; on any precheck/bounds failure it
                    // wrote back the loop-carried state it advanced, and
                    // running the original head instruction in its place
                    // replays the failing iteration interpreted (raising
                    // the exact error the interpreter would). The kernel
                    // is tried again at the next chunk unless this head
                    // was the last to bail in this activation.
                    let desc = &f.kernels[kidx as usize];
                    if pc - 1 != bailed && crate::kernels::run(desc, (pc - 1) as u32, regs, consts)
                    {
                        pc = desc.exit as usize;
                    } else {
                        bailed = pc - 1;
                        insn = desc.orig;
                        continue 'redo;
                    }
                }
                Insn::TemplateLoop { tidx } => {
                    // Typed-template tier (`--opt=3` only): run the
                    // whole loop as a chain of monomorphized template
                    // ops over an unboxed frame. Deopt contract is
                    // identical to `BulkLoop` above.
                    // A loop too short to enter runs interpreted this
                    // time only.
                    let desc = &f.templates[tidx as usize];
                    let ran = if pc - 1 == bailed {
                        Ran::Bailed
                    } else {
                        crate::templates::run(desc, (pc - 1) as u32, regs)
                    };
                    if ran == Ran::Done {
                        pc = desc.exit as usize;
                    } else {
                        if ran == Ran::Bailed {
                            bailed = pc - 1;
                        }
                        insn = desc.orig;
                        continue 'redo;
                    }
                }
                Insn::Trap { msg } => match kc(consts, msg) {
                    Value::Str(s) => return Err(VmError(s.to_string())),
                    _ => unreachable!("trap message constant is not a string"),
                },
                Insn::Ret { src } => {
                    // The frame is dead after this; stealing the value
                    // avoids an Arc clone when returning arrays/strings.
                    return Ok(std::mem::replace(rg_mut(regs, src), Value::Undefined));
                }
                Insn::RetVoid => return Ok(Value::Void),
            }
            insn = code[pc];
            pc += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Execution machinery: frame arena, register access
// ---------------------------------------------------------------------------

/// Cap on pooled frames per thread; beyond this, frames just drop.
const FRAME_POOL_CAP: usize = 64;

thread_local! {
    /// Per-thread arena of register frames. Frames are cleared on
    /// release, so acquire only pays one fill.
    static FRAME_POOL: RefCell<Vec<Vec<Value>>> = const { RefCell::new(Vec::new()) };
}

fn acquire_frame(n: usize) -> Vec<Value> {
    let mut v = FRAME_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    v.resize(n, Value::Undefined);
    v
}

fn release_frame(mut v: Vec<Value>) {
    v.clear();
    // `try_with` so frames dropped during thread teardown don't panic.
    let _ = FRAME_POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < FRAME_POOL_CAP {
            p.push(v);
        }
    });
}

/// Unchecked register read.
///
/// SAFETY contract for `rg`/`rg_mut`/`set`/`kc`: every instruction stream
/// the dispatch loop executes passed `optimize::verify_fn` at compile
/// time, which proves every register operand `< nregs` and every constant
/// index `< consts.len()`; frames are allocated at exactly
/// `nregs.max(nparams)` slots, and a deopt copies operands verbatim from
/// verified instructions.
#[inline(always)]
fn rg(regs: &[Value], r: Reg) -> &Value {
    debug_assert!((r as usize) < regs.len());
    // SAFETY: see the function doc — r < nregs == regs.len() by verify_fn.
    unsafe { regs.get_unchecked(r as usize) }
}

/// Unchecked register write access (see [`rg`] for the safety contract).
#[inline(always)]
fn rg_mut(regs: &mut [Value], r: Reg) -> &mut Value {
    debug_assert!((r as usize) < regs.len());
    // SAFETY: see `rg` — r < nregs == regs.len() by verify_fn.
    unsafe { regs.get_unchecked_mut(r as usize) }
}

#[inline(always)]
fn set(regs: &mut [Value], r: Reg, v: Value) {
    *rg_mut(regs, r) = v;
}

/// Unchecked constant-pool read (see [`rg`] for the safety contract).
#[inline(always)]
fn kc(consts: &[Value], k: u16) -> &Value {
    debug_assert!((k as usize) < consts.len());
    // SAFETY: see `rg` — k < consts.len() by verify_fn.
    unsafe { consts.get_unchecked(k as usize) }
}

/// The `DerefIndex` computation: dereference the cell register and index
/// the result, with the element read under the cell guard on the `Ptr`
/// path (no array `Value` clone). Evaluation and error order match the
/// unfused `Deref`-then-`Index` pair: the deref completes first (its only
/// error is a non-pointer operand — the `ElemPtr` paths replay the `Index`
/// arm on the scalar for the exact unfused error), then the index
/// coercion, then the array type check and bounds check.
#[inline(always)]
fn deref_index(regs: &[Value], cell: Reg, idx: Reg) -> VmResult<Value> {
    match rg(regs, cell) {
        Value::Ptr(slot) => {
            let i = rg(regs, idx).as_int()?;
            let g = slot.lock();
            match &*g {
                Value::ArrF(a) => Ok(Value::Float(a.get(i)?)),
                Value::ArrI(a) => Ok(Value::Int(a.get(i)?)),
                other => err(format!("cannot index {}", other.type_name())),
            }
        }
        Value::ElemPtrF(a, i2) => {
            let elem = Value::Float(a.get(*i2)?);
            rg(regs, idx).as_int()?;
            err(format!("cannot index {}", elem.type_name()))
        }
        Value::ElemPtrI(a, i2) => {
            let elem = Value::Int(a.get(*i2)?);
            rg(regs, idx).as_int()?;
            err(format!("cannot index {}", elem.type_name()))
        }
        other => err(format!("cannot dereference {}", other.type_name())),
    }
}

/// The `IndexOff`/`DerefIndexOff` index computation: integer fast path,
/// with the non-int fallback reconstructing the unfused `j + k` / `j - k`
/// arithmetic error (the offset's sign encodes the source operator).
#[inline(always)]
fn index_off(v: &Value, off: i32) -> VmResult<i64> {
    match v {
        Value::Int(j) => Ok(j.wrapping_add(off as i64)),
        other => {
            let (tok, kv) = if off >= 0 {
                (T::Plus, off as i64)
            } else {
                (T::Minus, -(off as i64))
            };
            binop_arith(tok, other, &Value::Int(kv))?.as_int()
        }
    }
}

/// Integer arithmetic with the walker's wrapping/division semantics.
#[inline(always)]
fn int_arith(op: ArithOp, x: i64, y: i64) -> VmResult<i64> {
    Ok(match op {
        ArithOp::Add => x.wrapping_add(y),
        ArithOp::Sub => x.wrapping_sub(y),
        ArithOp::Mul => x.wrapping_mul(y),
        ArithOp::Div => {
            if y == 0 {
                return err("integer division by zero");
            }
            x.wrapping_div(y)
        }
        ArithOp::Rem => {
            if y == 0 {
                return err("remainder by zero");
            }
            x.wrapping_rem(y)
        }
    })
}

#[inline(always)]
fn float_arith(op: ArithOp, x: f64, y: f64) -> f64 {
    match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => x / y,
        ArithOp::Rem => x % y,
    }
}

pub(crate) fn arith_token(op: ArithOp) -> T {
    match op {
        ArithOp::Add => T::Plus,
        ArithOp::Sub => T::Minus,
        ArithOp::Mul => T::Star,
        ArithOp::Div => T::Slash,
        ArithOp::Rem => T::Percent,
    }
}

pub(crate) fn cmp_token(op: CmpOp) -> T {
    match op {
        CmpOp::Lt => T::Lt,
        CmpOp::Le => T::LtEq,
        CmpOp::Gt => T::Gt,
        CmpOp::Ge => T::GtEq,
        CmpOp::Eq => T::EqEq,
        CmpOp::Ne => T::BangEq,
    }
}

/// The text of string literal `node`, escapes resolved.
pub(crate) fn str_lit(ast: &Ast, node: &Node) -> String {
    let raw = ast.token_text(node.main_token);
    raw[1..raw.len() - 1]
        .replace("\\\"", "\"")
        .replace("\\n", "\n")
}

/// The pragma label a call of `func` passes as its first argument `arg`:
/// `fork_call` and `ws_begin` take a `unit:line` string literal there
/// (`preprocess_named`), which becomes a [`Value::Label`], interned here.
/// `None` for any other callee or argument, which evaluates as usual.
pub(crate) fn call_label(ast: &Ast, func: OmpFn, arg: NodeId) -> Option<&'static str> {
    let node = ast.node(arg);
    (matches!(func, OmpFn::ForkCall | OmpFn::WsBegin) && node.tag == N::StrLit)
        .then(|| zomp::trace::intern(&str_lit(ast, node)))
}

/// Extract a dotted identifier path from a callee expression
/// (`omp.internal.fork_call` → `["omp", "internal", "fork_call"]`).
pub(crate) fn callee_path(ast: &Ast, mut id: NodeId) -> Option<Vec<&str>> {
    let mut rev = Vec::new();
    loop {
        let node = ast.node(id);
        match node.tag {
            N::Member => {
                rev.push(ast.token_text(node.main_token));
                id = node.lhs;
            }
            N::Ident => {
                rev.push(ast.token_text(node.main_token));
                rev.reverse();
                return Some(rev);
            }
            _ => return None,
        }
    }
}

fn compound_op(op: T) -> VmResult<T> {
    Ok(match op {
        T::PlusEq => T::Plus,
        T::MinusEq => T::Minus,
        T::StarEq => T::Star,
        T::SlashEq => T::Slash,
        other => return err(format!("bad compound operator {other:?}")),
    })
}

pub(crate) fn binop_arith(op: T, a: &Value, b: &Value) -> VmResult<Value> {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => Ok(Value::Int(match op {
            T::Plus => a.wrapping_add(*b),
            T::Minus => a.wrapping_sub(*b),
            T::Star => a.wrapping_mul(*b),
            T::Slash => {
                if *b == 0 {
                    return err("integer division by zero");
                }
                a.wrapping_div(*b)
            }
            T::Percent => {
                if *b == 0 {
                    return err("remainder by zero");
                }
                a.wrapping_rem(*b)
            }
            other => return err(format!("bad arithmetic operator {other:?}")),
        })),
        (Value::Float(a), Value::Float(b)) => Ok(Value::Float(match op {
            T::Plus => a + b,
            T::Minus => a - b,
            T::Star => a * b,
            T::Slash => a / b,
            T::Percent => a % b,
            other => return err(format!("bad arithmetic operator {other:?}")),
        })),
        _ => err(format!(
            "type mismatch: {} {op:?} {} (use @intToFloat/@floatToInt)",
            a.type_name(),
            b.type_name()
        )),
    }
}

pub(crate) fn binop(op: T, a: &Value, b: &Value) -> VmResult<Value> {
    match op {
        T::Plus | T::Minus | T::Star | T::Slash | T::Percent => binop_arith(op, a, b),
        T::EqEq | T::BangEq => {
            let eq = match (a, b) {
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Float(x), Value::Float(y)) => x == y,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Str(x), Value::Str(y)) => x == y,
                _ => {
                    return err(format!(
                        "cannot compare {} and {}",
                        a.type_name(),
                        b.type_name()
                    ))
                }
            };
            Ok(Value::Bool(if op == T::EqEq { eq } else { !eq }))
        }
        T::Lt | T::LtEq | T::Gt | T::GtEq => {
            let ord = match (a, b) {
                (Value::Int(x), Value::Int(y)) => x.partial_cmp(y),
                (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
                _ => {
                    return err(format!(
                        "cannot order {} and {}",
                        a.type_name(),
                        b.type_name()
                    ))
                }
            };
            let Some(ord) = ord else {
                return Ok(Value::Bool(false)); // NaN comparisons
            };
            Ok(Value::Bool(match op {
                T::Lt => ord.is_lt(),
                T::LtEq => ord.is_le(),
                T::Gt => ord.is_gt(),
                _ => ord.is_ge(),
            }))
        }
        other => err(format!("bad binary operator {other:?}")),
    }
}
