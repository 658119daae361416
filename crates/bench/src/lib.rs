//! # zomp-bench — regenerating the paper's evaluation
//!
//! Two complementary harnesses:
//!
//! * The **`paper-figures` binary** regenerates every evaluation artefact of
//!   the paper — Tables I–III and Figures 3–5 — from the ARCHER2 machine
//!   model (`archer-sim`), printing modelled values side by side with the
//!   paper's published numbers. See `cargo run -p zomp-bench --bin
//!   paper-figures -- --help`.
//! * The **Criterion benches** (`benches/`) measure the *real* runtime and
//!   kernels on the host at laptop-scale classes: runtime primitive costs
//!   (fork, barrier, schedules, reductions — the ablations DESIGN.md calls
//!   out) and serial-vs-parallel kernel runs.
//!
//! The [`paper`] module is the transcription of the paper's published
//! numbers; [`experiments`] runs the model and pairs each artefact with its
//! reference. [`baseline`] holds the shared-cursor dispatcher the runtime's
//! work-stealing deck is measured against.

pub mod baseline;
pub mod experiments;
pub mod format;
pub mod paper;
pub mod ports;
