//! Recursive-descent parser for Zag.
//!
//! The heart is [`Parser::eat_token`] — the analogue of the Zig parser's
//! `eatToken` — plus the paper's modification: [`Parser::eat_omp_keyword`]
//! accepts an *OpenMP keyword tag* and matches an identifier token whose
//! text resolves through the keyword hash map (§III-A). Directive nodes
//! store their clause block in `extra_data` via [`crate::ast::Clauses`].

use crate::ast::{
    Ast, Clauses, DefaultKind, Node, NodeId, PackedSchedule, RedOpCode, SchedKind, Tag as N,
    TokenId,
};
use crate::omp_kw::{lookup, OmpKw};
use crate::token::{tokenize, Tag as T, Token};
use crate::Diag;

/// The deepest nesting [`parse`] accepts. Every block, `if`, `while`,
/// expression, unary operator and operand of a left-associative chain
/// (`a + b + c`, `f(x)[i].*`) is one level. Past it, parsing stops with an
/// error at the first token one level too deep. Every later stage walks
/// the tree recursively; at this bound a program still goes through
/// analysis, preprocessing, lowering and the tree-walker of a debug build
/// inside a 2 MB thread stack (`zomp-vm`'s
/// `programs_at_the_nesting_bound_compile_and_run`).
pub const MAX_NEST: u32 = 256;

pub struct Parser<'s> {
    source: &'s str,
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of nesting open at the current token (see [`MAX_NEST`]).
    depth: u32,
    nodes: Vec<Node>,
    extra: Vec<u32>,
    /// Per-node (first token, last token) — exact spans for the
    /// preprocessor's source splicing.
    spans: Vec<(TokenId, TokenId)>,
}

/// Errors are boxed inside the parser: one parenthesis is nine frames of
/// descent, and a word-sized error keeps each of them small.
type PResult<T> = Result<T, Box<Diag>>;

/// Parse a full source file.
pub fn parse(source: &str) -> Result<Ast, Diag> {
    let tokens = tokenize(source)?;
    let mut p = Parser {
        source,
        tokens,
        pos: 0,
        depth: 0,
        nodes: Vec::new(),
        extra: Vec::new(),
        spans: Vec::new(),
    };
    let root = p.parse_root().map_err(|e| *e)?;
    Ok(Ast {
        source: source.to_string(),
        tokens: p.tokens,
        nodes: p.nodes,
        extra_data: p.extra,
        node_spans: p.spans,
        root,
    })
}

impl<'s> Parser<'s> {
    fn cur(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn cur_tag(&self) -> T {
        self.cur().tag
    }

    fn here(&self) -> usize {
        self.cur().start as usize
    }

    fn err<R>(&self, msg: impl Into<String>) -> PResult<R> {
        Err(Box::new(Diag::parse(self.here(), msg)))
    }

    /// Open one more level of nesting; past [`MAX_NEST`], an error at the
    /// current token. The caller closes it (`depth -= 1`) once its node is
    /// built; an error ends the parse, so that path need not.
    fn nest(&mut self) -> PResult<()> {
        if self.depth == MAX_NEST {
            return self.err(format!("nesting deeper than {MAX_NEST} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// The Zig-style `eatToken`: if the next token matches, consume and
    /// return its id, else `None`.
    fn eat_token(&mut self, tag: T) -> Option<TokenId> {
        if self.cur_tag() == tag {
            let id = self.pos as TokenId;
            self.pos += 1;
            Some(id)
        } else {
            None
        }
    }

    /// The paper's extension of `eatToken`: match an identifier that the
    /// keyword hash map resolves to the requested OpenMP keyword tag.
    #[allow(dead_code)] // kept as the paper-described API; parsing uses peek
    fn eat_omp_keyword(&mut self, kw: OmpKw) -> Option<TokenId> {
        if self.cur_tag() == T::Ident && lookup(self.cur().text(self.source)) == Some(kw) {
            let id = self.pos as TokenId;
            self.pos += 1;
            Some(id)
        } else {
            None
        }
    }

    /// Peek the OpenMP keyword of the current token, if any. Directive and
    /// clause names that collide with *language* keywords (`while`, `if`)
    /// arrive as keyword tokens rather than identifiers and are mapped
    /// explicitly.
    fn peek_omp_keyword(&self) -> Option<OmpKw> {
        match self.cur_tag() {
            T::Ident => lookup(self.cur().text(self.source)),
            T::KwWhile => Some(OmpKw::While),
            T::KwIf => Some(OmpKw::If),
            _ => None,
        }
    }

    fn expect(&mut self, tag: T, what: &str) -> PResult<TokenId> {
        match self.eat_token(tag) {
            Some(id) => Ok(id),
            None => self.err(format!("expected {what}")),
        }
    }

    /// Create a node. `start` is its first token; its last token is the
    /// one just consumed (every node is created after its tokens).
    fn add_at(
        &mut self,
        tag: N,
        main_token: TokenId,
        start: TokenId,
        lhs: u32,
        rhs: u32,
    ) -> NodeId {
        self.nodes.push(Node {
            tag,
            main_token,
            lhs,
            rhs,
        });
        self.spans
            .push((start, (self.pos.saturating_sub(1)) as TokenId));
        (self.nodes.len() - 1) as NodeId
    }

    fn node_start(&self, id: NodeId) -> TokenId {
        self.spans[id as usize].0
    }

    fn add_range(&mut self, items: &[NodeId]) -> (u32, u32) {
        let start = self.extra.len() as u32;
        self.extra.extend_from_slice(items);
        (start, self.extra.len() as u32)
    }

    // -- declarations -------------------------------------------------------

    fn parse_root(&mut self) -> PResult<NodeId> {
        let mut decls = Vec::new();
        while self.cur_tag() != T::Eof {
            decls.push(self.parse_top_decl()?);
        }
        let (lo, hi) = self.add_range(&decls);
        Ok(self.add_at(N::Root, 0, 0, lo, hi))
    }

    fn parse_top_decl(&mut self) -> PResult<NodeId> {
        match self.cur_tag() {
            T::KwFn => self.parse_fn_decl(),
            T::KwConst => self.parse_var_or_const(false),
            T::PragmaSentinel => self.parse_pragma(),
            _ => self.err("expected a function or constant declaration"),
        }
    }

    fn parse_fn_decl(&mut self) -> PResult<NodeId> {
        let start = self.pos as TokenId;
        self.expect(T::KwFn, "'fn'")?;
        let name = self.expect(T::Ident, "function name")?;
        self.expect(T::LParen, "'('")?;
        let mut params = Vec::new();
        while self.cur_tag() != T::RParen {
            let pname = self.expect(T::Ident, "parameter name")?;
            self.expect(T::Colon, "':' after parameter name")?;
            let ty = self.parse_type()?;
            params.push(self.add_at(N::Param, pname, pname, ty, 0));
            if self.eat_token(T::Comma).is_none() {
                break;
            }
        }
        self.expect(T::RParen, "')'")?;
        let _ret = self.parse_type()?;
        let body = self.parse_block()?;
        let mut items = params.clone();
        items.push(body);
        let (lo, _hi) = self.add_range(&items);
        Ok(self.add_at(N::FnDecl, name, start, lo, params.len() as u32))
    }

    /// Types are structural decoration in Zag (the VM is dynamically
    /// typed under the hood, mirroring the paper's "lack of semantic
    /// context" during preprocessing); we record the main type token.
    fn parse_type(&mut self) -> PResult<TokenId> {
        if self.eat_token(T::LBracket).is_some() {
            self.expect(T::RBracket, "']' in slice type")?;
            return self.expect(T::Ident, "element type");
        }
        if self.eat_token(T::Star).is_some() {
            return self.expect(T::Ident, "pointee type");
        }
        self.expect(T::Ident, "type name")
    }

    fn parse_block(&mut self) -> PResult<NodeId> {
        self.nest()?;
        let open = self.expect(T::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while self.cur_tag() != T::RBrace {
            if self.cur_tag() == T::Eof {
                return self.err("unclosed block");
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect(T::RBrace, "'}'")?;
        let (lo, hi) = self.add_range(&stmts);
        self.depth -= 1;
        Ok(self.add_at(N::Block, open, open, lo, hi))
    }

    // -- statements ---------------------------------------------------------

    fn parse_stmt(&mut self) -> PResult<NodeId> {
        match self.cur_tag() {
            T::KwVar => self.parse_var_or_const(true),
            T::KwConst => self.parse_var_or_const(false),
            T::KwWhile => self.parse_while(),
            T::KwIf => self.parse_if(),
            T::KwReturn => {
                let tok = self.expect(T::KwReturn, "'return'")?;
                let expr = if self.cur_tag() != T::Semicolon {
                    self.parse_expr()? + 1
                } else {
                    0
                };
                self.expect(T::Semicolon, "';' after return")?;
                Ok(self.add_at(N::Return, tok, tok, expr, 0))
            }
            T::KwBreak => {
                let tok = self.expect(T::KwBreak, "'break'")?;
                self.expect(T::Semicolon, "';' after break")?;
                Ok(self.add_at(N::Break, tok, tok, 0, 0))
            }
            T::KwContinue => {
                let tok = self.expect(T::KwContinue, "'continue'")?;
                self.expect(T::Semicolon, "';' after continue")?;
                Ok(self.add_at(N::Continue, tok, tok, 0, 0))
            }
            T::LBrace => self.parse_block(),
            T::PragmaSentinel => self.parse_pragma(),
            _ => self.parse_assign_or_expr_stmt(),
        }
    }

    fn parse_var_or_const(&mut self, is_var: bool) -> PResult<NodeId> {
        let start = self.pos as TokenId;
        let kw = if is_var {
            self.expect(T::KwVar, "'var'")?
        } else {
            self.expect(T::KwConst, "'const'")?
        };
        let _ = kw;
        let name = self.expect(T::Ident, "variable name")?;
        let ty = if self.eat_token(T::Colon).is_some() {
            self.parse_type()? + 1
        } else {
            0
        };
        self.expect(T::Eq, "'=' (Zag requires an initializer)")?;
        let init = self.parse_expr()?;
        self.expect(T::Semicolon, "';' after declaration")?;
        Ok(self.add_at(
            if is_var { N::VarDecl } else { N::ConstDecl },
            name,
            start,
            ty,
            init + 1,
        ))
    }

    fn parse_while(&mut self) -> PResult<NodeId> {
        self.nest()?;
        let tok = self.expect(T::KwWhile, "'while'")?;
        self.expect(T::LParen, "'(' after while")?;
        let cond = self.parse_expr()?;
        self.expect(T::RParen, "')' after condition")?;
        // Optional Zig-style continuation: `: (i += 1)`.
        let cont = if self.eat_token(T::Colon).is_some() {
            self.expect(T::LParen, "'(' after ':'")?;
            let c = self.parse_small_stmt()?;
            self.expect(T::RParen, "')' after continuation")?;
            c + 1
        } else {
            0
        };
        let body = self.parse_stmt()?;
        let (lo, _) = self.add_range(&[body, cont]);
        self.depth -= 1;
        Ok(self.add_at(N::While, tok, tok, cond, lo))
    }

    /// A statement without trailing `;` (the while continuation).
    fn parse_small_stmt(&mut self) -> PResult<NodeId> {
        let lhs = self.parse_expr()?;
        let op = self.cur_tag();
        match op {
            T::Eq => {
                let tok = self.pos as TokenId;
                self.pos += 1;
                let rhs = self.parse_expr()?;
                Ok(self.add_at(N::Assign, tok, self.node_start(lhs), lhs, rhs))
            }
            T::PlusEq | T::MinusEq | T::StarEq | T::SlashEq => {
                let tok = self.pos as TokenId;
                self.pos += 1;
                let rhs = self.parse_expr()?;
                Ok(self.add_at(N::CompoundAssign, tok, self.node_start(lhs), lhs, rhs))
            }
            _ => Ok(self.add_at(
                N::ExprStmt,
                self.nodes[lhs as usize].main_token,
                self.node_start(lhs),
                lhs,
                0,
            )),
        }
    }

    fn parse_if(&mut self) -> PResult<NodeId> {
        self.nest()?;
        let tok = self.expect(T::KwIf, "'if'")?;
        self.expect(T::LParen, "'(' after if")?;
        let cond = self.parse_expr()?;
        self.expect(T::RParen, "')' after condition")?;
        let then = self.parse_block()?;
        let els = if self.eat_token(T::KwElse).is_some() {
            let e = if self.cur_tag() == T::KwIf {
                self.parse_if()?
            } else {
                self.parse_block()?
            };
            e + 1
        } else {
            0
        };
        let (lo, _) = self.add_range(&[then, els]);
        self.depth -= 1;
        Ok(self.add_at(N::If, tok, tok, cond, lo))
    }

    fn parse_assign_or_expr_stmt(&mut self) -> PResult<NodeId> {
        // `_ = expr;` discard.
        if self.cur_tag() == T::Ident && self.cur().text(self.source) == "_" {
            let tok = self.pos as TokenId;
            self.pos += 1;
            self.expect(T::Eq, "'=' after '_'")?;
            let rhs = self.parse_expr()?;
            self.expect(T::Semicolon, "';'")?;
            return Ok(self.add_at(N::Discard, tok, tok, rhs, 0));
        }
        let stmt = self.parse_small_stmt()?;
        self.expect(T::Semicolon, "';' after statement")?;
        Ok(stmt)
    }

    // -- expressions ----------------------------------------------------------

    fn parse_expr(&mut self) -> PResult<NodeId> {
        self.nest()?;
        let e = self.parse_or()?;
        self.depth -= 1;
        Ok(e)
    }

    fn parse_or(&mut self) -> PResult<NodeId> {
        let depth = self.depth;
        let mut lhs = self.parse_and()?;
        while self.cur_tag() == T::KwOr {
            self.nest()?;
            let tok = self.pos as TokenId;
            self.pos += 1;
            let rhs = self.parse_and()?;
            lhs = self.add_at(N::BinOp, tok, self.node_start(lhs), lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_and(&mut self) -> PResult<NodeId> {
        let depth = self.depth;
        let mut lhs = self.parse_cmp()?;
        while self.cur_tag() == T::KwAnd {
            self.nest()?;
            let tok = self.pos as TokenId;
            self.pos += 1;
            let rhs = self.parse_cmp()?;
            lhs = self.add_at(N::BinOp, tok, self.node_start(lhs), lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> PResult<NodeId> {
        let lhs = self.parse_add()?;
        match self.cur_tag() {
            T::EqEq | T::BangEq | T::Lt | T::LtEq | T::Gt | T::GtEq => {
                let tok = self.pos as TokenId;
                self.pos += 1;
                let rhs = self.parse_add()?;
                Ok(self.add_at(N::BinOp, tok, self.node_start(lhs), lhs, rhs))
            }
            _ => Ok(lhs),
        }
    }

    fn parse_add(&mut self) -> PResult<NodeId> {
        let depth = self.depth;
        let mut lhs = self.parse_mul()?;
        loop {
            match self.cur_tag() {
                T::Plus | T::Minus => {
                    self.nest()?;
                    let tok = self.pos as TokenId;
                    self.pos += 1;
                    let rhs = self.parse_mul()?;
                    lhs = self.add_at(N::BinOp, tok, self.node_start(lhs), lhs, rhs);
                }
                _ => {
                    self.depth = depth;
                    return Ok(lhs);
                }
            }
        }
    }

    fn parse_mul(&mut self) -> PResult<NodeId> {
        let depth = self.depth;
        let mut lhs = self.parse_unary()?;
        loop {
            match self.cur_tag() {
                T::Star | T::Slash | T::Percent => {
                    self.nest()?;
                    let tok = self.pos as TokenId;
                    self.pos += 1;
                    let rhs = self.parse_unary()?;
                    lhs = self.add_at(N::BinOp, tok, self.node_start(lhs), lhs, rhs);
                }
                _ => {
                    self.depth = depth;
                    return Ok(lhs);
                }
            }
        }
    }

    fn parse_unary(&mut self) -> PResult<NodeId> {
        match self.cur_tag() {
            T::Minus | T::Bang | T::Amp => {
                self.nest()?;
                let tok = self.pos as TokenId;
                self.pos += 1;
                let operand = self.parse_unary()?;
                self.depth -= 1;
                Ok(self.add_at(N::UnOp, tok, tok, operand, 0))
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> PResult<NodeId> {
        let depth = self.depth;
        let mut e = self.parse_primary()?;
        loop {
            let tag = self.cur_tag();
            if matches!(tag, T::LParen | T::LBracket | T::DotStar | T::Dot) {
                self.nest()?;
            }
            match tag {
                T::LParen => {
                    self.pos += 1;
                    let args = self.parse_args()?;
                    let (lo, hi) = self.add_range(&args);
                    // Call.rhs points at a 2-entry extra record [lo, hi]
                    // bounding the argument list.
                    let rec = self.extra.len() as u32;
                    self.extra.push(lo);
                    self.extra.push(hi);
                    let main = self.nodes[e as usize].main_token;
                    e = self.add_at(N::Call, main, self.node_start(e), e, rec);
                }
                T::LBracket => {
                    self.pos += 1;
                    let idx = self.parse_expr()?;
                    self.expect(T::RBracket, "']'")?;
                    let main = self.nodes[e as usize].main_token;
                    e = self.add_at(N::Index, main, self.node_start(e), e, idx);
                }
                T::DotStar => {
                    let tok = self.pos as TokenId;
                    self.pos += 1;
                    e = self.add_at(N::Deref, tok, self.node_start(e), e, 0);
                }
                T::Dot => {
                    self.pos += 1;
                    let field = self.expect(T::Ident, "field name after '.'")?;
                    e = self.add_at(N::Member, field, self.node_start(e), e, 0);
                }
                _ => {
                    self.depth = depth;
                    return Ok(e);
                }
            }
        }
    }

    fn parse_args(&mut self) -> PResult<Vec<NodeId>> {
        let mut args = Vec::new();
        while self.cur_tag() != T::RParen {
            args.push(self.parse_expr()?);
            if self.eat_token(T::Comma).is_none() {
                break;
            }
        }
        self.expect(T::RParen, "')' after arguments")?;
        Ok(args)
    }

    fn parse_primary(&mut self) -> PResult<NodeId> {
        let tok = self.pos as TokenId;
        match self.cur_tag() {
            T::IntLit => {
                self.pos += 1;
                Ok(self.add_at(N::IntLit, tok, tok, 0, 0))
            }
            T::FloatLit => {
                self.pos += 1;
                Ok(self.add_at(N::FloatLit, tok, tok, 0, 0))
            }
            T::StrLit => {
                self.pos += 1;
                Ok(self.add_at(N::StrLit, tok, tok, 0, 0))
            }
            T::KwTrue | T::KwFalse => {
                self.pos += 1;
                Ok(self.add_at(N::BoolLit, tok, tok, 0, 0))
            }
            T::KwUndefined => {
                self.pos += 1;
                Ok(self.add_at(N::UndefinedLit, tok, tok, 0, 0))
            }
            T::Ident => {
                self.pos += 1;
                Ok(self.add_at(N::Ident, tok, tok, 0, 0))
            }
            T::Builtin => {
                self.pos += 1;
                self.expect(T::LParen, "'(' after builtin")?;
                let args = self.parse_args()?;
                let (lo, hi) = self.add_range(&args);
                let n = self.add_at(N::BuiltinCall, tok, tok, lo, hi);
                Ok(n)
            }
            T::LParen => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect(T::RParen, "')'")?;
                Ok(e)
            }
            _ => self.err(format!("unexpected token {:?}", self.cur_tag())),
        }
    }

    // -- OpenMP pragmas -------------------------------------------------------

    fn parse_pragma(&mut self) -> PResult<NodeId> {
        let sentinel = self.expect(T::PragmaSentinel, "pragma sentinel")?;
        let kw = self
            .peek_omp_keyword()
            .ok_or_else(|| Diag::parse(self.here(), "expected an OpenMP directive name"))?;
        self.pos += 1;

        match kw {
            OmpKw::Parallel => {
                let clauses = self.parse_clauses()?;
                self.expect(T::PragmaEnd, "end of pragma line")?;
                let stmt = self.parse_block()?;
                let base = clauses.write(&mut self.extra);
                Ok(self.add_at(N::OmpParallel, sentinel, sentinel, base, stmt))
            }
            OmpKw::While => {
                let clauses = self.parse_clauses()?;
                self.expect(T::PragmaEnd, "end of pragma line")?;
                if self.cur_tag() != T::KwWhile {
                    return self.err("an 'omp while' directive must be followed by a while loop");
                }
                let stmt = self.parse_while()?;
                let base = clauses.write(&mut self.extra);
                Ok(self.add_at(N::OmpWhile, sentinel, sentinel, base, stmt))
            }
            OmpKw::Barrier => {
                self.expect(T::PragmaEnd, "end of pragma line")?;
                let base = Clauses::default().write(&mut self.extra);
                Ok(self.add_at(N::OmpBarrier, sentinel, sentinel, base, 0))
            }
            OmpKw::Critical => {
                // Optional `(name)`.
                let name_tok = if self.eat_token(T::LParen).is_some() {
                    let t = self.expect(T::Ident, "critical section name")?;
                    self.expect(T::RParen, "')' after critical name")?;
                    t
                } else {
                    sentinel
                };
                self.expect(T::PragmaEnd, "end of pragma line")?;
                let stmt = self.parse_block()?;
                let base = Clauses::default().write(&mut self.extra);
                // main_token points at the name ident when one was given
                // (the sentinel token otherwise).
                Ok(self.add_at(N::OmpCritical, name_tok, sentinel, base, stmt))
            }
            OmpKw::Master => {
                self.expect(T::PragmaEnd, "end of pragma line")?;
                let stmt = self.parse_block()?;
                let base = Clauses::default().write(&mut self.extra);
                Ok(self.add_at(N::OmpMaster, sentinel, sentinel, base, stmt))
            }
            OmpKw::Single => {
                let clauses = self.parse_clauses()?;
                self.expect(T::PragmaEnd, "end of pragma line")?;
                let stmt = self.parse_block()?;
                let base = clauses.write(&mut self.extra);
                Ok(self.add_at(N::OmpSingle, sentinel, sentinel, base, stmt))
            }
            OmpKw::Atomic => {
                self.expect(T::PragmaEnd, "end of pragma line")?;
                let stmt = self.parse_assign_or_expr_stmt()?;
                if self.nodes[stmt as usize].tag != N::CompoundAssign {
                    return self.err(
                        "'omp atomic' must be followed by a compound assignment (x op= expr)",
                    );
                }
                let base = Clauses::default().write(&mut self.extra);
                Ok(self.add_at(N::OmpAtomic, sentinel, sentinel, base, stmt))
            }
            OmpKw::Threadprivate => {
                let mut clauses = Clauses::default();
                self.expect(T::LParen, "'(' after threadprivate")?;
                clauses.private = self.parse_ident_list()?;
                self.expect(T::PragmaEnd, "end of pragma line")?;
                let base = clauses.write(&mut self.extra);
                Ok(self.add_at(N::OmpThreadprivate, sentinel, sentinel, base, 0))
            }
            other => self.err(format!("{other:?} is not a directive name")),
        }
    }

    fn parse_ident_list(&mut self) -> PResult<Vec<TokenId>> {
        // Caller has consumed '('.
        let mut out = Vec::new();
        loop {
            out.push(self.expect(T::Ident, "identifier in clause list")?);
            // A trailing `.*` marks a place rewritten by an earlier
            // preprocessor pass (a shared scalar turned pointer); the
            // clause stores the identifier token and consumers detect the
            // deref from the following token.
            let _ = self.eat_token(T::DotStar);
            if self.eat_token(T::Comma).is_none() {
                break;
            }
        }
        self.expect(T::RParen, "')' after clause list")?;
        Ok(out)
    }

    fn parse_clauses(&mut self) -> PResult<Clauses> {
        let mut c = Clauses::default();
        loop {
            let Some(kw) = self.peek_omp_keyword() else {
                if self.cur_tag() == T::PragmaEnd {
                    return Ok(c);
                }
                return self.err("expected a clause or end of pragma");
            };
            self.pos += 1;
            match kw {
                OmpKw::Private => {
                    self.expect(T::LParen, "'(' after private")?;
                    c.private.extend(self.parse_ident_list()?);
                }
                OmpKw::Firstprivate => {
                    self.expect(T::LParen, "'(' after firstprivate")?;
                    c.firstprivate.extend(self.parse_ident_list()?);
                }
                OmpKw::Shared => {
                    self.expect(T::LParen, "'(' after shared")?;
                    c.shared.extend(self.parse_ident_list()?);
                }
                OmpKw::Reduction => {
                    self.expect(T::LParen, "'(' after reduction")?;
                    let op = self.parse_reduction_op()?;
                    self.expect(T::Colon, "':' after reduction operator")?;
                    for tok in self.parse_ident_list()? {
                        c.reduction.push((op, tok));
                    }
                }
                OmpKw::Schedule => {
                    self.expect(T::LParen, "'(' after schedule")?;
                    let kind = match self.peek_omp_keyword() {
                        Some(OmpKw::Static) => SchedKind::Static,
                        Some(OmpKw::Dynamic) => SchedKind::Dynamic,
                        Some(OmpKw::Guided) => SchedKind::Guided,
                        Some(OmpKw::Runtime) => SchedKind::Runtime,
                        Some(OmpKw::Auto) => SchedKind::Auto,
                        _ => return self.err("expected a schedule kind"),
                    };
                    self.pos += 1;
                    let chunk = if self.eat_token(T::Comma).is_some() {
                        let lit = self.expect(T::IntLit, "chunk size literal")?;
                        let v: u32 = self.tokens[lit as usize]
                            .text(self.source)
                            .parse()
                            .map_err(|_| Diag::parse(self.here(), "bad chunk size"))?;
                        if v == 0 {
                            return self.err("chunk size must be greater than 0");
                        }
                        Some(v)
                    } else {
                        None
                    };
                    self.expect(T::RParen, "')' after schedule")?;
                    c.schedule = Some(PackedSchedule { kind, chunk });
                }
                OmpKw::Nowait => c.flags.nowait = true,
                OmpKw::Default => {
                    self.expect(T::LParen, "'(' after default")?;
                    c.flags.default = match self.peek_omp_keyword() {
                        Some(OmpKw::Shared) => DefaultKind::Shared,
                        Some(OmpKw::None) => DefaultKind::None,
                        _ => return self.err("expected shared or none"),
                    };
                    self.pos += 1;
                    self.expect(T::RParen, "')' after default")?;
                }
                OmpKw::NumThreads => {
                    self.expect(T::LParen, "'(' after num_threads")?;
                    let e = self.parse_expr()?;
                    self.expect(T::RParen, "')' after num_threads")?;
                    c.num_threads = Some(e);
                }
                OmpKw::Collapse => {
                    self.expect(T::LParen, "'(' after collapse")?;
                    let lit = self.expect(T::IntLit, "collapse depth literal")?;
                    let v: u8 = self.tokens[lit as usize]
                        .text(self.source)
                        .parse()
                        .map_err(|_| Diag::parse(self.here(), "bad collapse depth"))?;
                    if v == 0 || v >= 16 {
                        return self.err("collapse depth must be in 1..16");
                    }
                    self.expect(T::RParen, "')' after collapse")?;
                    c.flags.collapse = v;
                }
                OmpKw::If => {
                    self.expect(T::LParen, "'(' after if")?;
                    let e = self.parse_expr()?;
                    self.expect(T::RParen, "')' after if clause")?;
                    c.if_expr = Some(e);
                }
                other => return self.err(format!("{other:?} is not a clause here")),
            }
        }
    }

    fn parse_reduction_op(&mut self) -> PResult<RedOpCode> {
        let op = match self.cur_tag() {
            T::Plus | T::Minus => RedOpCode::Add,
            T::Star => RedOpCode::Mul,
            T::Amp => RedOpCode::BitAnd,
            T::Ident => match self.peek_omp_keyword() {
                Some(OmpKw::Min) => RedOpCode::Min,
                Some(OmpKw::Max) => RedOpCode::Max,
                _ => return self.err("unknown reduction operator"),
            },
            T::KwAnd => RedOpCode::LogAnd,
            T::KwOr => RedOpCode::LogOr,
            _ => return self.err("unknown reduction operator"),
        };
        self.pos += 1;
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Tag;

    fn parse_ok(src: &str) -> Ast {
        parse(src).map_err(|e| panic!("{}", e.render(src))).unwrap()
    }

    fn find(ast: &Ast, tag: Tag) -> Vec<NodeId> {
        (0..ast.nodes.len() as u32)
            .filter(|&i| ast.node(i).tag == tag)
            .collect()
    }

    #[test]
    fn parses_minimal_program() {
        let ast = parse_ok("fn main() void { var x: i64 = 1; x = x + 2; }");
        assert_eq!(find(&ast, Tag::FnDecl).len(), 1);
        assert_eq!(find(&ast, Tag::VarDecl).len(), 1);
        assert_eq!(find(&ast, Tag::Assign).len(), 1);
    }

    #[test]
    fn parses_zig_style_while() {
        let ast = parse_ok("fn f() void { var i: i64 = 0; while (i < 10) : (i += 1) { i = i; } }");
        let whiles = find(&ast, Tag::While);
        assert_eq!(whiles.len(), 1);
        let w = ast.node(whiles[0]);
        // continuation is present.
        let body_cont = ast.extra(w.rhs, w.rhs + 2);
        assert_ne!(body_cont[1], 0, "continuation expected");
    }

    #[test]
    fn parses_parallel_pragma_with_clauses() {
        let src = "fn main() void {\n\
                   var s: f64 = 0.0;\n\
                   //$omp parallel num_threads(4) private(t) firstprivate(a) shared(s) reduction(+: s) default(shared)\n\
                   { s = 1.0; }\n\
                   }";
        let ast = parse_ok(src);
        let ps = find(&ast, Tag::OmpParallel);
        assert_eq!(ps.len(), 1);
        let node = ast.node(ps[0]);
        let c = Clauses::read(&ast.extra_data, node.lhs);
        assert!(c.num_threads.is_some());
        assert_eq!(c.private.len(), 1);
        assert_eq!(ast.token_text(c.private[0]), "t");
        assert_eq!(ast.token_text(c.firstprivate[0]), "a");
        assert_eq!(ast.token_text(c.shared[0]), "s");
        assert_eq!(c.reduction.len(), 1);
        assert_eq!(c.reduction[0].0, RedOpCode::Add);
        assert_eq!(c.flags.default, DefaultKind::Shared);
        // The attached statement is a block.
        assert_eq!(ast.node(node.rhs).tag, Tag::Block);
    }

    #[test]
    fn parses_omp_while_with_schedule() {
        let src = "fn f() void {\n\
                   var i: i64 = 0;\n\
                   //$omp while schedule(dynamic, 16) nowait\n\
                   while (i < 100) : (i += 1) { }\n\
                   }";
        let ast = parse_ok(src);
        let ws = find(&ast, Tag::OmpWhile);
        assert_eq!(ws.len(), 1);
        let c = Clauses::read(&ast.extra_data, ast.node(ws[0]).lhs);
        let s = c.schedule.unwrap();
        assert_eq!(s.kind, SchedKind::Dynamic);
        assert_eq!(s.chunk, Some(16));
        assert!(c.flags.nowait);
    }

    #[test]
    fn omp_while_requires_a_loop() {
        let src = "fn f() void {\n//$omp while\nvar x: i64 = 1;\n}";
        assert!(parse(src).is_err());
    }

    #[test]
    fn chunk_zero_rejected() {
        let src = "fn f() void { var i: i64 = 0;\n//$omp while schedule(static, 0)\nwhile (i < 1) : (i += 1) {} }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn parses_simple_directives() {
        let src = "fn f() void {\n\
                   //$omp barrier\n\
                   //$omp critical (mylock)\n{ }\n\
                   //$omp master\n{ }\n\
                   //$omp single nowait\n{ }\n\
                   var x: i64 = 0;\n\
                   //$omp atomic\nx += 1;\n\
                   }";
        let ast = parse_ok(src);
        assert_eq!(find(&ast, Tag::OmpBarrier).len(), 1);
        let crit = find(&ast, Tag::OmpCritical);
        assert_eq!(crit.len(), 1);
        assert_eq!(ast.token_text(ast.node(crit[0]).main_token), "mylock");
        assert_eq!(find(&ast, Tag::OmpMaster).len(), 1);
        let single = find(&ast, Tag::OmpSingle);
        assert_eq!(single.len(), 1);
        assert!(
            Clauses::read(&ast.extra_data, ast.node(single[0]).lhs)
                .flags
                .nowait
        );
        assert_eq!(find(&ast, Tag::OmpAtomic).len(), 1);
    }

    #[test]
    fn atomic_requires_compound_assignment() {
        let src = "fn f() void { var x: i64 = 0;\n//$omp atomic\nx = 1;\n}";
        assert!(parse(src).is_err());
    }

    #[test]
    fn openmp_names_usable_as_variables() {
        // The compatibility property the keyword-map design preserves.
        let ast = parse_ok("fn f() void { var parallel: i64 = 1; parallel = parallel + 1; }");
        assert_eq!(find(&ast, Tag::OmpParallel).len(), 0);
        assert_eq!(find(&ast, Tag::VarDecl).len(), 1);
    }

    #[test]
    fn member_calls_and_builtins() {
        let ast =
            parse_ok("fn f() void { var x: f64 = @intToFloat(omp.internal.get_tid()); x = x; }");
        assert_eq!(find(&ast, Tag::BuiltinCall).len(), 1);
        assert!(find(&ast, Tag::Member).len() >= 2);
    }

    #[test]
    fn address_of_and_deref() {
        let ast = parse_ok("fn f() void { var x: i64 = 0; var p: *i64 = &x; p.* = 3; p.* += 1; }");
        assert!(find(&ast, Tag::Deref).len() >= 2);
        assert_eq!(find(&ast, Tag::UnOp).len(), 1);
    }

    #[test]
    fn has_pragmas_reports_correctly() {
        let with = parse_ok("fn f() void {\n//$omp barrier\n}");
        assert!(with.has_pragmas());
        let without = parse_ok("fn f() void { }");
        assert!(!without.has_pragmas());
    }

    /// `print` of `n` nested parentheses: the body block, the statement's
    /// expression, the call and its argument hold four more levels.
    fn parens(n: usize) -> String {
        let (open, close) = ("(".repeat(n), ")".repeat(n));
        format!("fn main() void {{ print({open}1{close}); }}")
    }

    /// `print` in `n` nested blocks in a parallel region: the body block,
    /// the region's block, and the statement's expression, call and
    /// argument hold five more levels.
    fn blocks(n: usize) -> String {
        let (open, close) = ("{".repeat(n), "}".repeat(n));
        format!("fn main() void {{\n//$omp parallel\n{{ {open}print(1);{close} }}\n}}")
    }

    #[test]
    fn nesting_bound() {
        let limit = MAX_NEST as usize;
        for (at, over) in [
            (parens(limit - 4), parens(limit - 3)),
            (blocks(limit - 5), blocks(limit - 4)),
        ] {
            let ast = parse_ok(&at);
            assert!(crate::analyze(&ast, "t").is_empty());
            let done = crate::preprocess::preprocess_parsed(ast, None).unwrap();
            assert!(!done.has_pragmas());
            let err = parse(&over).unwrap_err();
            assert_eq!(
                err.message,
                format!("nesting deeper than {MAX_NEST} levels")
            );
            // At the first token one level too deep: the argument `1`.
            assert_eq!(Some(err.offset), over.find('1'), "{over}");
        }
    }

    #[test]
    fn threadprivate_directive() {
        let ast = parse_ok("//$omp threadprivate(counter)\nfn f() void { }");
        let tp = find(&ast, Tag::OmpThreadprivate);
        assert_eq!(tp.len(), 1);
        let c = Clauses::read(&ast.extra_data, ast.node(tp[0]).lhs);
        assert_eq!(ast.token_text(c.private[0]), "counter");
    }
}
