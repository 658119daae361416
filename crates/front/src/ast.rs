//! The flat AST and its `extra_data` side array.
//!
//! Following the Zig compiler's design (and therefore the paper's): nodes
//! live in one flat vector; each node carries a tag, its main token, and
//! two `u32` operands. Anything that does not fit in two operands spills
//! into `extra_data: Vec<u32>` — "an array of 32 bit integers ... used to
//! annotate miscellaneous data about nodes" (§III-A).
//!
//! OpenMP clause storage reproduces §III-A1/A2 exactly:
//!
//! * **List clauses** (`private`, `firstprivate`, `shared`, `reduction`) —
//!   their identifiers' token indices are stored contiguously in
//!   `extra_data`, with begin/end indices of the slice stored in the clause
//!   block (Fig. 2).
//! * **Packed clauses** — the schedule is a 3-bit kind plus a 29-bit chunk
//!   in a single `u32` ([`PackedSchedule`]; chunk 0 = unspecified, since
//!   chunks must be positive); `default` (2 bits), `nowait` (1 bit) and
//!   `collapse` (4 bits) share one packed `u32` ([`PackedFlags`]).

use crate::token::Token;

pub type NodeId = u32;
pub type TokenId = u32;
pub type ExtraId = u32;

/// Node kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Root: `lhs..rhs` extra range of top-level declarations.
    Root,
    /// `fn name(params) ret { body }`: lhs = extra range [params..., body],
    /// rhs = param count. main_token = name.
    FnDecl,
    /// Parameter: main_token = name, lhs = type token.
    Param,
    /// `{ stmts }`: lhs..rhs extra range of statements.
    Block,
    /// `var name: T = init;`: main_token = name, lhs = type token id (or 0),
    /// rhs = init node (or 0).
    VarDecl,
    /// `const name = init;` / `const name: T = init;`
    ConstDecl,
    /// `lhs = rhs;` where lhs is a place expression.
    Assign,
    /// `lhs op= rhs;`: main_token = the operator token.
    CompoundAssign,
    /// `while (cond) [: (cont)] body`: lhs = cond, rhs = extra [body, cont(0)].
    While,
    /// `if (cond) then [else els]`: lhs = cond, rhs = extra [then, els(0)].
    If,
    /// `return expr;` (lhs = expr or 0).
    Return,
    Break,
    Continue,
    /// `_ = expr;` discard.
    Discard,
    /// Expression statement (a call).
    ExprStmt,

    // Expressions.
    /// Binary op: main_token = operator, lhs/rhs = operands.
    BinOp,
    /// Unary: main_token = operator (`-`, `!`, `&`), lhs = operand.
    UnOp,
    /// Call: lhs = callee, rhs = index of a 2-entry extra record
    /// `[args_start, args_end)` bounding the argument node list.
    Call,
    /// `lhs[rhs]`.
    Index,
    /// `lhs.field`: main_token = field ident.
    Member,
    /// `lhs.*`.
    Deref,
    Ident,
    IntLit,
    FloatLit,
    StrLit,
    BoolLit,
    UndefinedLit,
    /// `@name(args)`: main_token = builtin token, rhs = extra range args.
    BuiltinCall,

    // OpenMP directives (lhs = extra index of the clause block,
    // rhs = attached statement node or 0).
    OmpParallel,
    OmpWhile,
    OmpBarrier,
    OmpCritical,
    OmpMaster,
    OmpSingle,
    OmpAtomic,
    OmpThreadprivate,
}

/// One AST node.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    pub tag: Tag,
    pub main_token: TokenId,
    pub lhs: u32,
    pub rhs: u32,
}

/// The parse result: source, tokens, flat nodes, side array.
#[derive(Debug, Clone)]
pub struct Ast {
    pub source: String,
    pub tokens: Vec<Token>,
    pub nodes: Vec<Node>,
    pub extra_data: Vec<u32>,
    /// Per-node (first token, last token), parallel to `nodes`.
    pub node_spans: Vec<(TokenId, TokenId)>,
    /// Index of the `Root` node.
    pub root: NodeId,
}

impl Ast {
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    pub fn token_text(&self, id: TokenId) -> &str {
        self.tokens[id as usize].text(&self.source)
    }

    /// The extra_data slice `[start, end)`.
    pub fn extra(&self, start: ExtraId, end: ExtraId) -> &[u32] {
        &self.extra_data[start as usize..end as usize]
    }

    /// All node ids of a `Root`/`Block` style extra range.
    pub fn range(&self, node: &Node) -> &[u32] {
        self.extra(node.lhs, node.rhs)
    }

    /// Byte span of a node in the source (for preprocessor splicing).
    pub fn byte_span(&self, id: NodeId) -> (usize, usize) {
        let (first, last) = self.node_spans[id as usize];
        (
            self.tokens[first as usize].start as usize,
            self.tokens[last as usize].end as usize,
        )
    }

    /// Source text of a node.
    pub fn node_text(&self, id: NodeId) -> &str {
        let (s, e) = self.byte_span(id);
        &self.source[s..e]
    }

    /// Call arguments of a `Call` node.
    pub fn call_args(&self, node: &Node) -> &[u32] {
        let rec = node.rhs as usize;
        let (lo, hi) = (self.extra_data[rec], self.extra_data[rec + 1]);
        self.extra(lo, hi)
    }

    /// Decompose a `FnDecl` node: (parameter node ids, body block id).
    /// The name is `token_text(node.main_token)`.
    pub fn fn_parts(&self, node: &Node) -> (&[u32], NodeId) {
        debug_assert_eq!(node.tag, Tag::FnDecl);
        let nparams = node.rhs as usize;
        let params = self.extra(node.lhs, node.lhs + nparams as u32);
        let body = self.extra_data[node.lhs as usize + nparams];
        (params, body)
    }

    /// Decompose a `While` node: (condition, body, optional continue stmt).
    pub fn while_parts(&self, node: &Node) -> (NodeId, NodeId, Option<NodeId>) {
        debug_assert_eq!(node.tag, Tag::While);
        let body = self.extra_data[node.rhs as usize];
        let cont = self.extra_data[node.rhs as usize + 1];
        (node.lhs, body, (cont > 0).then(|| cont - 1))
    }

    /// Decompose an `If` node: (condition, then stmt, optional else stmt).
    pub fn if_parts(&self, node: &Node) -> (NodeId, NodeId, Option<NodeId>) {
        debug_assert_eq!(node.tag, Tag::If);
        let then = self.extra_data[node.rhs as usize];
        let els = self.extra_data[node.rhs as usize + 1];
        (node.lhs, then, (els > 0).then(|| els - 1))
    }

    /// Does the AST still contain any OpenMP directive node?
    pub fn has_pragmas(&self) -> bool {
        self.nodes.iter().any(|n| {
            matches!(
                n.tag,
                Tag::OmpParallel
                    | Tag::OmpWhile
                    | Tag::OmpBarrier
                    | Tag::OmpCritical
                    | Tag::OmpMaster
                    | Tag::OmpSingle
                    | Tag::OmpAtomic
                    | Tag::OmpThreadprivate
            )
        })
    }
}

// ---------------------------------------------------------------------------
// Packed clause encodings (§III-A2)
// ---------------------------------------------------------------------------

/// Schedule kinds, 3 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SchedKind {
    NotSpecified = 0,
    Static = 1,
    Dynamic = 2,
    Guided = 3,
    Runtime = 4,
    Auto = 5,
}

impl SchedKind {
    fn from_bits(v: u32) -> SchedKind {
        match v {
            1 => SchedKind::Static,
            2 => SchedKind::Dynamic,
            3 => SchedKind::Guided,
            4 => SchedKind::Runtime,
            5 => SchedKind::Auto,
            _ => SchedKind::NotSpecified,
        }
    }
}

/// The `schedule` clause packed into one `u32`: a 3-bit kind followed by a
/// 29-bit chunk size, "which allows for a maximum chunk of 536870912
/// iterations. Because the chunk size must be greater than 0, the value 0
/// is used to represent no chunk size having been specified."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedSchedule {
    pub kind: SchedKind,
    /// `None` encoded as 0.
    pub chunk: Option<u32>,
}

/// Maximum encodable chunk: 2^29 - 1 iterations fit; the paper quotes the
/// count of expressible values (2^29).
pub const MAX_CHUNK: u32 = (1 << 29) - 1;

impl PackedSchedule {
    pub fn encode(self) -> u32 {
        let chunk = self.chunk.unwrap_or(0);
        assert!(chunk <= MAX_CHUNK, "chunk {chunk} exceeds 29 bits");
        ((self.kind as u32) & 0b111) | (chunk << 3)
    }

    pub fn decode(v: u32) -> PackedSchedule {
        let kind = SchedKind::from_bits(v & 0b111);
        let chunk = v >> 3;
        PackedSchedule {
            kind,
            chunk: (chunk > 0).then_some(chunk),
        }
    }
}

/// `default` clause argument, 2 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DefaultKind {
    NotSpecified = 0,
    Shared = 1,
    None = 2,
}

/// The sub-32-bit clauses grouped into one packed `u32` (§III-A2): the
/// `default` clause (2 bits), `nowait` (1 bit), and `collapse` (4 bits —
/// "it is unlikely that a user would wish to collapse more than 16 loops").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedFlags {
    pub default: DefaultKind,
    pub nowait: bool,
    /// 0 = not specified (treated as 1).
    pub collapse: u8,
    /// Was a `num_threads` clause present?
    pub has_num_threads: bool,
}

impl PackedFlags {
    pub fn encode(self) -> u32 {
        assert!(
            self.collapse < 16,
            "collapse {} exceeds 4 bits",
            self.collapse
        );
        (self.default as u32)
            | ((self.nowait as u32) << 2)
            | ((self.collapse as u32) << 3)
            | ((self.has_num_threads as u32) << 7)
    }

    pub fn decode(v: u32) -> PackedFlags {
        PackedFlags {
            default: match v & 0b11 {
                1 => DefaultKind::Shared,
                2 => DefaultKind::None,
                _ => DefaultKind::NotSpecified,
            },
            nowait: (v >> 2) & 1 == 1,
            collapse: ((v >> 3) & 0b1111) as u8,
            has_num_threads: (v >> 7) & 1 == 1,
        }
    }
}

impl Default for PackedFlags {
    fn default() -> Self {
        PackedFlags {
            default: DefaultKind::NotSpecified,
            nowait: false,
            collapse: 0,
            has_num_threads: false,
        }
    }
}

/// Reduction operators, stored as a 4-bit code next to each reduction list
/// entry. Zag has no `|` or `^`, so no reduction can name them and codes 5
/// and 6 are unassigned; the logical operators keep their codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RedOpCode {
    Add = 0,
    Mul = 1,
    Min = 2,
    Max = 3,
    BitAnd = 4,
    LogAnd = 7,
    LogOr = 8,
}

impl RedOpCode {
    pub fn from_u32(v: u32) -> Option<RedOpCode> {
        Some(match v {
            0 => RedOpCode::Add,
            1 => RedOpCode::Mul,
            2 => RedOpCode::Min,
            3 => RedOpCode::Max,
            4 => RedOpCode::BitAnd,
            7 => RedOpCode::LogAnd,
            8 => RedOpCode::LogOr,
            _ => return None,
        })
    }
}

/// The decoded clause block of one directive. The encoded form in
/// `extra_data` is:
///
/// ```text
/// [base + 0]  PackedSchedule
/// [base + 1]  PackedFlags
/// [base + 2]  num_threads expression node id (0 = none)
/// [base + 3]  if-clause expression node id (0 = none)
/// [base + 4]  private    slice start   ┐ token-id slices, stored
/// [base + 5]  private    slice end     │ contiguously after the header —
/// [base + 6]  firstprivate start       │ the Fig. 2 layout
/// [base + 7]  firstprivate end         │
/// [base + 8]  shared     start         │
/// [base + 9]  shared     end           ┘
/// [base +10]  reduction  start  — pairs of (op code, ident token id)
/// [base +11]  reduction  end
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clauses {
    pub schedule: Option<PackedSchedule>,
    pub flags: PackedFlags,
    pub num_threads: Option<NodeId>,
    pub if_expr: Option<NodeId>,
    pub private: Vec<TokenId>,
    pub firstprivate: Vec<TokenId>,
    pub shared: Vec<TokenId>,
    pub reduction: Vec<(RedOpCode, TokenId)>,
}

pub const CLAUSE_HEADER_LEN: usize = 12;

impl Clauses {
    /// Serialise into `extra_data`, returning the base index the directive
    /// node stores in `lhs`.
    pub fn write(&self, extra: &mut Vec<u32>) -> ExtraId {
        let base = extra.len() as u32;
        extra.resize(extra.len() + CLAUSE_HEADER_LEN, 0);
        let sched = self
            .schedule
            .unwrap_or(PackedSchedule {
                kind: SchedKind::NotSpecified,
                chunk: None,
            })
            .encode();
        let mut flags = self.flags;
        flags.has_num_threads = self.num_threads.is_some();
        let b = base as usize;
        extra[b] = sched;
        extra[b + 1] = flags.encode();
        extra[b + 2] = self.num_threads.unwrap_or(0);
        extra[b + 3] = self.if_expr.unwrap_or(0);
        let write_slice = |extra: &mut Vec<u32>, at: usize, items: &[u32]| {
            let start = extra.len() as u32;
            extra.extend_from_slice(items);
            let end = extra.len() as u32;
            extra[b + at] = start;
            extra[b + at + 1] = end;
        };
        write_slice(extra, 4, &self.private);
        write_slice(extra, 6, &self.firstprivate);
        write_slice(extra, 8, &self.shared);
        let red: Vec<u32> = self
            .reduction
            .iter()
            .flat_map(|&(op, tok)| [op as u32, tok])
            .collect();
        write_slice(extra, 10, &red);
        base
    }

    /// Deserialise from `extra_data`.
    pub fn read(extra: &[u32], base: ExtraId) -> Clauses {
        let b = base as usize;
        let sched = PackedSchedule::decode(extra[b]);
        let flags = PackedFlags::decode(extra[b + 1]);
        let slice = |at: usize| -> Vec<u32> {
            let (s, e) = (extra[b + at] as usize, extra[b + at + 1] as usize);
            extra[s..e].to_vec()
        };
        let red_raw = slice(10);
        let reduction = red_raw
            .chunks(2)
            .map(|p| (RedOpCode::from_u32(p[0]).expect("valid reduction op"), p[1]))
            .collect();
        Clauses {
            schedule: (sched.kind != SchedKind::NotSpecified).then_some(sched),
            flags,
            num_threads: (extra[b + 2] != 0).then_some(extra[b + 2]),
            if_expr: (extra[b + 3] != 0).then_some(extra[b + 3]),
            private: slice(4),
            firstprivate: slice(6),
            shared: slice(8),
            reduction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_packing_roundtrips() {
        for kind in [
            SchedKind::Static,
            SchedKind::Dynamic,
            SchedKind::Guided,
            SchedKind::Runtime,
        ] {
            for chunk in [None, Some(1), Some(7), Some(MAX_CHUNK)] {
                let s = PackedSchedule { kind, chunk };
                let decoded = PackedSchedule::decode(s.encode());
                assert_eq!(decoded, s);
            }
        }
    }

    #[test]
    fn schedule_fits_one_u32_with_3_bit_kind() {
        let s = PackedSchedule {
            kind: SchedKind::Guided,
            chunk: Some(MAX_CHUNK),
        };
        let v = s.encode();
        assert_eq!(v & 0b111, SchedKind::Guided as u32);
        assert_eq!(v >> 3, MAX_CHUNK);
    }

    #[test]
    #[should_panic(expected = "exceeds 29 bits")]
    fn oversized_chunk_rejected() {
        PackedSchedule {
            kind: SchedKind::Static,
            chunk: Some(MAX_CHUNK + 1),
        }
        .encode();
    }

    #[test]
    fn flags_packing_roundtrips() {
        for default in [
            DefaultKind::NotSpecified,
            DefaultKind::Shared,
            DefaultKind::None,
        ] {
            for nowait in [false, true] {
                for collapse in [0u8, 1, 15] {
                    let f = PackedFlags {
                        default,
                        nowait,
                        collapse,
                        has_num_threads: nowait, // arbitrary mix
                    };
                    assert_eq!(PackedFlags::decode(f.encode()), f);
                }
            }
        }
    }

    #[test]
    fn clause_block_roundtrips_through_extra_data() {
        let mut extra = vec![99, 98]; // pre-existing data must be preserved
        let c = Clauses {
            schedule: Some(PackedSchedule {
                kind: SchedKind::Dynamic,
                chunk: Some(16),
            }),
            flags: PackedFlags {
                default: DefaultKind::Shared,
                nowait: true,
                collapse: 2,
                has_num_threads: false,
            },
            num_threads: Some(42),
            if_expr: None,
            private: vec![10, 11, 12],
            firstprivate: vec![20],
            shared: vec![30, 31],
            reduction: vec![(RedOpCode::Add, 40), (RedOpCode::Mul, 41)],
        };
        let base = c.write(&mut extra);
        assert_eq!(&extra[..2], &[99, 98]);
        let back = Clauses::read(&extra, base);
        assert_eq!(back.schedule, c.schedule);
        assert!(back.flags.nowait);
        assert_eq!(back.flags.default, DefaultKind::Shared);
        assert_eq!(back.flags.collapse, 2);
        assert!(back.flags.has_num_threads);
        assert_eq!(back.num_threads, Some(42));
        assert_eq!(back.private, vec![10, 11, 12]);
        assert_eq!(back.firstprivate, vec![20]);
        assert_eq!(back.shared, vec![30, 31]);
        assert_eq!(
            back.reduction,
            vec![(RedOpCode::Add, 40), (RedOpCode::Mul, 41)]
        );
    }

    #[test]
    fn empty_clause_block_roundtrips() {
        let mut extra = Vec::new();
        let base = Clauses::default().write(&mut extra);
        let back = Clauses::read(&extra, base);
        assert!(back.schedule.is_none());
        assert!(back.private.is_empty());
        assert!(back.reduction.is_empty());
        assert!(!back.flags.nowait);
    }
}
