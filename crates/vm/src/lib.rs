//! # zomp-vm — executing pragma-annotated Zag programs on real threads
//!
//! The final stage of the paper's pipeline: the `zomp-front` preprocessor
//! lowers OpenMP pragmas to `omp.internal.*` calls, and this crate binds
//! those calls to the real [`zomp`] runtime. `omp.internal.fork_call` runs
//! the outlined function on an actual worker team; worksharing drivers
//! pull chunks from the same schedule machinery the Rust-native kernels
//! use; reductions go through the same atomic cells, CAS loops included.
//!
//! Function bodies execute on one of two backends ([`interp::Backend`]):
//! the default register-bytecode VM ([`bytecode`],
//! [`compile`](mod@compile)) — a flat instruction stream with
//! compile-time slot resolution and fused loop opcodes, with small leaf
//! callees inlined into their callers
//! ([`inline`]), post-processed by the [`optimize`] pipeline (constant
//! folding, dead-store elimination, superinstruction fusion),
//! statically type-specialised from the block-structured [`ir`] by
//! [`typeck`], and executed from a pooled call-frame arena — or the
//! original tree-walking interpreter, kept as the differential-testing
//! oracle (`--backend=ast` on the `zag` CLI). All of that is `--opt=3`,
//! the default; `--opt=0` executes the stream as lowered and is the
//! second oracle. At `--opt=3` recognised hot loop shapes additionally
//! run as precompiled slice-level bulk kernels ([`kernels`]) or
//! strip-mined typed templates ([`templates`]) over the raw `f64`/`i64`
//! array storage, dispatched through the same work-sharing runtime.
//!
//! ```
//! let out = zomp_vm::Vm::run(r#"
//! fn main() void {
//!     var total: i64 = 0;
//!     //$omp parallel num_threads(4) reduction(+: total)
//!     {
//!         var i: i64 = 0;
//!         //$omp while schedule(static)
//!         while (i < 1000) : (i += 1) {
//!             total += 1;
//!         }
//!     }
//!     print(total);
//! }
//! "#).unwrap();
//! assert_eq!(out, vec!["1000"]);
//! ```

pub mod builtins;
pub mod bytecode;
pub mod compile;
pub mod inline;
pub mod interp;
pub mod ir;
pub mod kernels;
pub mod optimize;
pub mod remarks;
pub mod templates;
pub mod typeck;
pub mod value;

pub use interp::{compile, compile_named, compile_opt, Backend, Program, Vm};
pub use optimize::OptLevel;
pub use value::{Value, VmError};
