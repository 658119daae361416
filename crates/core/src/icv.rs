//! Internal control variables (ICVs) and OpenMP environment handling.
//!
//! The OpenMP specification defines a set of *internal control variables*
//! that govern the behaviour of the runtime: the default team size
//! (`nthreads-var`), the schedule applied by `schedule(runtime)`
//! (`run-sched-var`), whether the implementation may adjust team sizes
//! (`dyn-var`), and so on. Each [`crate::runtime::Runtime`] owns one
//! [`Icvs`] block, seeded from [`crate::runtime::RuntimeConfig`] (the
//! environment, for [`crate::runtime::Runtime::new`]) at construction and
//! subsequently modified through the [`crate::omp`] functions
//! (`set_num_threads`, `set_schedule`, ...).

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::schedule::{Schedule, ScheduleKind};

/// Hard cap on team size. OpenMP permits oversubscription (more threads than
/// cores); the paper's experiments run up to 128 threads. We allow generous
/// oversubscription so strong-scaling tests work on small hosts.
pub const MAX_THREADS_LIMIT: usize = 512;

/// One ICV block (one per [`crate::runtime::Runtime`]).
///
/// All fields are atomics so that the `omp_set_*` API can be called from any
/// thread without locking, mirroring libomp's global ICV handling for the
/// host device. All accesses are `Relaxed`: each ICV is an independent
/// scalar consulted at construct entry, with no data published through it —
/// the fork that reads it already synchronises the team.
pub struct Icvs {
    /// `nthreads-var`: team size used when a `parallel` region does not carry
    /// a `num_threads` clause.
    nthreads: AtomicUsize,
    /// `dyn-var`: whether the implementation may deliver fewer threads than
    /// requested.
    dynamic: AtomicBool,
    /// `run-sched-var` kind, encoded; see [`encode_sched`].
    run_sched_kind: AtomicUsize,
    /// `run-sched-var` chunk (0 = unspecified).
    run_sched_chunk: AtomicI64,
    /// Detected hardware concurrency (`omp_get_num_procs`).
    num_procs: usize,
}

pub(crate) fn parse_env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

pub(crate) fn parse_env_bool(name: &str) -> Option<bool> {
    let v = std::env::var(name).ok()?;
    match v.trim().to_ascii_lowercase().as_str() {
        "true" | "1" | "yes" | "on" => Some(true),
        "false" | "0" | "no" | "off" => Some(false),
        _ => None,
    }
}

/// Parse an `OMP_SCHEDULE`-style string: `kind[,chunk]`, e.g. `"guided,4"`.
///
/// Unknown kinds fall back to `static` (the behaviour libomp warns about and
/// then adopts). A `monotonic:`/`nonmonotonic:` modifier prefix is accepted
/// and ignored, as the paper's runtime does not distinguish them.
pub fn parse_omp_schedule(s: &str) -> Schedule {
    let s = s.trim().to_ascii_lowercase();
    let s = s
        .strip_prefix("monotonic:")
        .or_else(|| s.strip_prefix("nonmonotonic:"))
        .unwrap_or(&s);
    let (kind, chunk) = match s.split_once(',') {
        Some((k, c)) => (k.trim(), c.trim().parse::<i64>().ok().filter(|&c| c > 0)),
        None => (s, None),
    };
    match kind {
        "dynamic" => Schedule {
            kind: ScheduleKind::Dynamic,
            chunk,
        },
        "guided" => Schedule {
            kind: ScheduleKind::Guided,
            chunk,
        },
        "auto" => Schedule {
            kind: ScheduleKind::Static,
            chunk: None,
        },
        // "static" and anything unrecognised.
        _ => Schedule {
            kind: ScheduleKind::Static,
            chunk,
        },
    }
}

pub(crate) fn encode_sched(kind: ScheduleKind) -> usize {
    match kind {
        ScheduleKind::Static => 0,
        ScheduleKind::Dynamic => 1,
        ScheduleKind::Guided => 2,
        ScheduleKind::Runtime => 3,
    }
}

pub(crate) fn decode_sched(v: usize) -> ScheduleKind {
    match v {
        1 => ScheduleKind::Dynamic,
        2 => ScheduleKind::Guided,
        3 => ScheduleKind::Runtime,
        _ => ScheduleKind::Static,
    }
}

impl Default for Icvs {
    fn default() -> Self {
        Icvs::with_overrides(None, None, None)
    }
}

impl Icvs {
    /// Construct an ICV block with explicit overrides; `None` fields take
    /// the OpenMP defaults (team size = detected hardware concurrency,
    /// `dyn-var` = false, `run-sched-var` = static). Environment handling
    /// lives in [`crate::runtime::RuntimeConfig::from_env`] so nothing here
    /// is latched per process but the hardware concurrency: asking the OS
    /// reads the affinity mask and the cgroup files (tens of µs), which
    /// every `zagd` request's runtime would pay again. So the default team
    /// size is read once per process, as libomp reads it at initialisation:
    /// a process whose CPU affinity or cgroup quota changes keeps the old
    /// default until it restarts.
    pub fn with_overrides(
        nthreads: Option<usize>,
        dynamic: Option<bool>,
        run_schedule: Option<Schedule>,
    ) -> Self {
        static NUM_PROCS: OnceLock<usize> = OnceLock::new();
        let num_procs =
            *NUM_PROCS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let nthreads = nthreads
            .filter(|&n| n >= 1)
            .unwrap_or(num_procs)
            .min(MAX_THREADS_LIMIT);
        let sched = run_schedule.unwrap_or(Schedule {
            kind: ScheduleKind::Static,
            chunk: None,
        });
        Icvs {
            nthreads: AtomicUsize::new(nthreads),
            dynamic: AtomicBool::new(dynamic.unwrap_or(false)),
            run_sched_kind: AtomicUsize::new(encode_sched(sched.kind)),
            run_sched_chunk: AtomicI64::new(sched.chunk.unwrap_or(0)),
            num_procs,
        }
    }

    /// `nthreads-var`.
    pub fn num_threads(&self) -> usize {
        self.nthreads.load(Ordering::Relaxed)
    }

    /// Set `nthreads-var` (`omp_set_num_threads`). Values are clamped to
    /// `1..=MAX_THREADS_LIMIT`.
    pub fn set_num_threads(&self, n: usize) {
        self.nthreads
            .store(n.clamp(1, MAX_THREADS_LIMIT), Ordering::Relaxed);
    }

    /// `dyn-var`.
    pub fn dynamic(&self) -> bool {
        self.dynamic.load(Ordering::Relaxed)
    }

    /// Set `dyn-var` (`omp_set_dynamic`).
    pub fn set_dynamic(&self, v: bool) {
        self.dynamic.store(v, Ordering::Relaxed);
    }

    /// `run-sched-var`, consulted by `schedule(runtime)` loops.
    pub fn run_schedule(&self) -> Schedule {
        let kind = decode_sched(self.run_sched_kind.load(Ordering::Relaxed));
        // `runtime` inside run-sched-var would recurse; normalise to static.
        let kind = if kind == ScheduleKind::Runtime {
            ScheduleKind::Static
        } else {
            kind
        };
        let chunk = self.run_sched_chunk.load(Ordering::Relaxed);
        Schedule {
            kind,
            chunk: (chunk > 0).then_some(chunk),
        }
    }

    /// Set `run-sched-var` (`omp_set_schedule`).
    pub fn set_run_schedule(&self, sched: Schedule) {
        self.run_sched_kind
            .store(encode_sched(sched.kind), Ordering::Relaxed);
        self.run_sched_chunk
            .store(sched.chunk.unwrap_or(0), Ordering::Relaxed);
    }

    /// Detected hardware concurrency (`omp_get_num_procs`).
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_kinds() {
        assert_eq!(parse_omp_schedule("static").kind, ScheduleKind::Static);
        assert_eq!(parse_omp_schedule("dynamic").kind, ScheduleKind::Dynamic);
        assert_eq!(parse_omp_schedule("guided").kind, ScheduleKind::Guided);
        assert_eq!(parse_omp_schedule("static").chunk, None);
    }

    #[test]
    fn parses_chunks() {
        let s = parse_omp_schedule("dynamic,16");
        assert_eq!(s.kind, ScheduleKind::Dynamic);
        assert_eq!(s.chunk, Some(16));
        let s = parse_omp_schedule(" GUIDED , 7 ");
        assert_eq!(s.kind, ScheduleKind::Guided);
        assert_eq!(s.chunk, Some(7));
    }

    #[test]
    fn rejects_nonpositive_chunks() {
        assert_eq!(parse_omp_schedule("dynamic,0").chunk, None);
        assert_eq!(parse_omp_schedule("dynamic,-3").chunk, None);
    }

    #[test]
    fn modifier_prefixes_are_ignored() {
        let s = parse_omp_schedule("monotonic:dynamic,2");
        assert_eq!(s.kind, ScheduleKind::Dynamic);
        assert_eq!(s.chunk, Some(2));
        let s = parse_omp_schedule("nonmonotonic:guided");
        assert_eq!(s.kind, ScheduleKind::Guided);
    }

    #[test]
    fn unknown_kind_falls_back_to_static() {
        assert_eq!(parse_omp_schedule("bogus").kind, ScheduleKind::Static);
    }

    #[test]
    fn global_icvs_are_sane() {
        let icvs = crate::runtime::Runtime::global().icvs();
        assert!(icvs.num_threads() >= 1);
        assert!(icvs.num_procs() >= 1);
    }

    #[test]
    fn overrides_apply_and_clamp() {
        let icvs = Icvs::with_overrides(Some(3), Some(true), Some(Schedule::dynamic(Some(2))));
        assert_eq!(icvs.num_threads(), 3);
        assert!(icvs.dynamic());
        assert_eq!(icvs.run_schedule().kind, ScheduleKind::Dynamic);
        // A zero override is invalid and falls back to the default.
        let icvs = Icvs::with_overrides(Some(0), None, None);
        assert!(icvs.num_threads() >= 1);
        let icvs = Icvs::with_overrides(Some(usize::MAX), None, None);
        assert_eq!(icvs.num_threads(), MAX_THREADS_LIMIT);
    }

    #[test]
    fn set_num_threads_clamps() {
        let icvs = Icvs::default();
        icvs.set_num_threads(0);
        assert_eq!(icvs.num_threads(), 1);
        icvs.set_num_threads(usize::MAX);
        assert_eq!(icvs.num_threads(), MAX_THREADS_LIMIT);
    }

    #[test]
    fn run_schedule_roundtrip() {
        let icvs = Icvs::default();
        icvs.set_run_schedule(Schedule {
            kind: ScheduleKind::Guided,
            chunk: Some(5),
        });
        let s = icvs.run_schedule();
        assert_eq!(s.kind, ScheduleKind::Guided);
        assert_eq!(s.chunk, Some(5));
    }

    #[test]
    fn runtime_in_run_sched_normalises_to_static() {
        let icvs = Icvs::default();
        icvs.set_run_schedule(Schedule {
            kind: ScheduleKind::Runtime,
            chunk: None,
        });
        assert_eq!(icvs.run_schedule().kind, ScheduleKind::Static);
    }
}
