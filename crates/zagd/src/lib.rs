//! `zagd` — a persistent compile-and-run service for Zag programs.
//!
//! The classic `zag` CLI pays the full pipeline — preprocess, parse,
//! lint, optimize — on every invocation. `zagd` keeps a process alive
//! and amortizes it:
//!
//! * a **compiled-program cache** ([`cache::ProgramCache`]) keyed by
//!   source hash + unit + opt level and checked against the source
//!   itself: parse/lint/compile once at `--opt=3`, run many;
//! * a **shared worker pool**: every program execution gets its own
//!   [`zomp::Runtime`] (ICVs, critical sections, threadprivate storage),
//!   while the parallel regions inside all multiplex one hot team;
//! * a **batched front end** ([`server::Server`]): a local HTTP socket
//!   with bounded request queues, reject-with-`Retry-After`
//!   backpressure, service workers that run the request themselves
//!   under one deadline watchdog, and panic isolation.
//!
//! The request protocol is plain JSON over HTTP/1.1 ([`request`]); the
//! in-crate [`json`] module supplies parsing because the workspace's
//! vendored `serde_json` stand-in is serialize-only.
//!
//! ```text
//! $ zagd --addr 127.0.0.1:7099 &
//! $ curl -s 127.0.0.1:7099/run -d '{"source": "fn main() void { print(6*7); }"}'
//! {"cached":false, ..., "output":["42"],"result":null,"ok":true}
//! ```

pub mod cache;
pub mod client;
pub mod demo;
pub mod json;
pub mod request;
pub mod server;

pub use cache::ProgramCache;
pub use json::Json;
pub use request::{execute, RunOutcome, RunRequest};
pub use server::{Server, ServerConfig};
