//! # zomp-front — the Zag mini-language front-end with OpenMP pragmas
//!
//! The paper modifies the Zig compiler; since the Zig compiler cannot be
//! reproduced in Rust, this crate implements the same pipeline for **Zag**,
//! a Zig-like mini-language rich enough for the paper's OpenMP surface.
//! Every mechanism of §III exists here, structured as the paper describes:
//!
//! * [`token`] — the tokenizer. Pragmas are sentinel comments (`//$omp`);
//!   the sentinel is one token and the rest of the pragma is tokenised as
//!   ordinary code (option "B" of Fig. 1).
//! * [`omp_kw`] — OpenMP keywords **cannot** be language keywords (they
//!   would break existing identifiers), so they are ordinary identifiers
//!   disambiguated at parse time through a string → keyword-tag hash map.
//! * [`ast`] — the flat AST with its `extra_data: Vec<u32>` side array.
//!   Clause data is bit-packed exactly as §III-A2 describes
//!   ([`ast::PackedSchedule`], [`ast::PackedFlags`]) and list clauses are
//!   stored as contiguous `extra_data` slices (Fig. 2).
//! * [`parser`] — recursive descent around an `eat_token` that also accepts
//!   OpenMP keyword tags.
//! * [`preprocess`](mod@preprocess) — the multi-pass source-to-source preprocessor of
//!   Listing 5: parallel regions are outlined first, then worksharing
//!   loops are rewritten into `omp.internal.*` runtime-call driver loops,
//!   then the simple directives; source offsets are adjusted after each
//!   replacement, and shared scalars are rewritten to pointer accesses
//!   (§III-B3) using only the AST.
//! * [`analyze`](mod@analyze) — the post-parse data-sharing lint: classifies every
//!   variable of each `parallel`/worksharing region into its sharing class
//!   and reports probable races and clause misuse as structured [`Diag`]
//!   warnings (`zag --check`).
//! * [`diag`] — the one diagnostics type every stage above emits.
//!
//! The output of preprocessing is pragma-free Zag source whose
//! `omp.internal.*` calls the `zomp-vm` crate binds to the real `zomp`
//! runtime — pragmas in, threads out.

pub mod analyze;
pub mod ast;
pub mod diag;
pub mod dump;
pub mod fmt;
pub mod omp_kw;
pub mod parser;
pub mod preprocess;
pub mod token;

pub use analyze::analyze;
pub use ast::Ast;
pub use diag::{Diag, Severity};
pub use parser::parse;
pub use preprocess::preprocess;
