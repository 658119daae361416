//! # zomp — an OpenMP-style shared-memory parallel runtime
//!
//! This crate is the Rust equivalent of LLVM's `libomp` as used by the paper
//! *"Pragma driven shared memory parallelism in Zig by supporting OpenMP loop
//! directives"* (SC 2024). It provides every runtime entry point the paper's
//! compiler lowers to:
//!
//! * **Parallel regions** via function outlining and [`fork_call`]
//!   (the `__kmpc_fork_call` equivalent), executed on a persistent worker
//!   team ("hot team").
//! * **Worksharing loops** with `static`, `static,chunk`, `dynamic`, `guided`
//!   and `runtime` schedules (`__kmpc_for_static_init` /
//!   `__kmpc_dispatch_init/next` equivalents), with and without the implicit
//!   barrier (`nowait`).
//! * **Reductions** over `+ * min max & | ^ && ||`, implemented with native
//!   atomic RMW operations where the platform provides them and with the
//!   compare-and-swap loop of the paper's Listing 6 where it does not
//!   (multiplication, logical and/or, and all floating point operations).
//! * **Synchronisation**: sense-reversing barriers, `critical`, `master`,
//!   `single`, `atomic` helpers, and the `omp_*` lock API.
//! * **ICVs** and environment handling (`OMP_NUM_THREADS`, `OMP_SCHEDULE`,
//!   `OMP_DYNAMIC`).
//! * The user-facing **`omp` namespace** ([`omp`]) mirroring
//!   `omp_get_thread_num`, `omp_get_wtime`, and friends, as re-exported by the
//!   paper's `std.omp` Zig namespace.
//!
//! Zig's debug/production duality (safety-checked undefined behaviour) is
//! mirrored by [`safety::SafetyMode`]: shared-array wrappers bounds-check and
//! optionally race-check accesses in `Debug`/`Paranoid` modes and elide all
//! checks in `Production`.
//!
//! ## Quickstart
//!
//! ```
//! use zomp::prelude::*;
//!
//! let n = 1 << 14;
//! let x = vec![1.0f64; n];
//! let y = vec![2.0f64; n];
//! let dot = zomp::parallel_reduce(
//!     Parallel::new().num_threads(4),
//!     Schedule::static_default(),
//!     0..n as i64,
//!     0.0f64,
//!     RedOp::Add,
//!     |i, acc| *acc += x[i as usize] * y[i as usize],
//! );
//! assert_eq!(dot, 2.0 * n as f64);
//! ```

pub mod atomic;
pub mod barrier;
pub mod config;
pub mod icv;
pub mod kmpc;
pub mod omp;
pub mod pad;
pub mod profile;
pub mod reduction;
pub mod runtime;
pub mod safety;
pub mod schedule;
pub mod shared;
pub mod sync;
pub mod team;
pub mod threadprivate;
pub mod trace;
pub mod workshare;

pub use config::ExecConfig;
pub use reduction::RedOp;
pub use runtime::{Runtime, RuntimeConfig};
pub use schedule::{LoopBounds, Schedule, ScheduleKind};
pub use team::{fork_call, fork_call_rt, Parallel, ThreadCtx, MAX_CALL_DEPTH, STACK_BYTES};
pub use trace::MetricsSnapshot;
pub use workshare::{parallel_for, parallel_reduce};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::atomic::{AtomicF32, AtomicF64};
    pub use crate::omp;
    pub use crate::reduction::{RedCell, RedOp};
    pub use crate::safety::SafetyMode;
    pub use crate::schedule::{LoopBounds, Schedule};
    pub use crate::shared::SharedSlice;
    pub use crate::team::{fork_call, Parallel, ThreadCtx};
    pub use crate::workshare::{parallel_for, parallel_reduce};
}
