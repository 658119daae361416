//! Per-instance runtime state: the `zomp::Runtime` handle.
//!
//! Historically every piece of cross-region state in this crate was
//! process-global: the ICV block lived in a `OnceLock` seeded from the
//! environment exactly once, the `critical` registries were `static`s, and
//! the trace/metrics output paths were a global table. That is faithful to
//! libomp — and exactly wrong for a long-running service (`zagd`) that runs
//! thousands of independent programs, each with its own `num_threads`,
//! `schedule(runtime)` ICV, critical sections, and trace sinks, inside one
//! process.
//!
//! [`Runtime`] owns that state per instance:
//!
//! ```text
//! Runtime
//! ├── Icvs                     nthreads-var, dyn-var, run-sched-var
//! ├── critical registries      unnamed lock, named locks, split-phase locks
//! ├── threadprivate registry   name → ThreadPrivate<T> (type-erased)
//! └── trace/metrics sinks      where finish() writes trace/metrics/profile
//! ```
//!
//! Regions are bound to a runtime at fork time: [`crate::team::fork_call_rt`]
//! stores the handle in the team, workers re-enter it, and everything
//! downstream (`schedule(runtime)` resolution in `team`/`kmpc`/`workshare`,
//! the `omp::set_num_threads` facade, `critical`) consults the *entered*
//! runtime via [`Runtime::current`]. Outside any entered scope,
//! [`Runtime::current`] falls back to [`Runtime::global`] — the default
//! instance that makes every pre-existing caller and test behave exactly as
//! before.
//!
//! The per-OS-thread event rings and the counter block in [`crate::trace`]
//! intentionally stay process-global: they are observability over OS threads
//! (shared by all runtimes via the hot team) and carry no program-visible
//! semantics. What is per-runtime is where the rendered artefacts go.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Once, OnceLock};

use parking_lot::Mutex;

use crate::icv::{self, Icvs};
use crate::schedule::Schedule;
use crate::sync::OmpLock;
use crate::team::{Parallel, ThreadCtx};
use crate::threadprivate::ThreadPrivate;

/// Construction-time overrides for a [`Runtime`].
///
/// `None` fields take the OpenMP defaults (`nthreads-var` = detected
/// hardware concurrency, `dyn-var` = false, `run-sched-var` = static).
/// `Default::default()` reads **nothing** from the environment — the fully
/// isolated configuration a service wants per request. Use
/// [`RuntimeConfig::from_env`] for the classic CLI behaviour.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// Initial `nthreads-var` (`OMP_NUM_THREADS`).
    pub num_threads: Option<usize>,
    /// Initial `dyn-var` (`OMP_DYNAMIC`).
    pub dynamic: Option<bool>,
    /// Initial `run-sched-var` (`OMP_SCHEDULE`).
    pub run_schedule: Option<Schedule>,
    /// Honour `ZOMP_TRACE` / `ZOMP_METRICS` / `ZOMP_PROFILE` on first fork
    /// (read at most once per runtime, not once per process).
    pub sink_env: bool,
}

impl RuntimeConfig {
    /// Snapshot `OMP_NUM_THREADS` / `OMP_DYNAMIC` / `OMP_SCHEDULE` **now**.
    ///
    /// Nothing is latched per process: constructing another runtime after
    /// the environment changed sees the new values.
    pub fn from_env() -> Self {
        RuntimeConfig {
            num_threads: icv::parse_env_usize("OMP_NUM_THREADS").filter(|&n| n >= 1),
            dynamic: icv::parse_env_bool("OMP_DYNAMIC"),
            run_schedule: std::env::var("OMP_SCHEDULE")
                .ok()
                .map(|s| icv::parse_omp_schedule(&s)),
            sink_env: true,
        }
    }

    /// Builder: set `num_threads`.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builder: set `run-sched-var`.
    pub fn run_schedule(mut self, s: Schedule) -> Self {
        self.run_schedule = Some(s);
        self
    }
}

/// Where [`Runtime::finish`] writes the rendered observability artefacts.
#[derive(Default)]
struct TraceSinks {
    trace_path: Option<String>,
    metrics_path: Option<String>,
    /// `None` = profiling not requested, `Some(None)` = stderr,
    /// `Some(Some(path))` = file.
    profile_out: Option<Option<String>>,
}

/// One instance of the OpenMP runtime's mutable state. See the module docs
/// for the ownership picture.
pub struct Runtime {
    icvs: Icvs,
    /// The single lock shared by all *unnamed* `critical` constructs of
    /// programs on this runtime.
    unnamed_critical: Mutex<()>,
    /// Registry of named critical-section locks (closure-based API).
    criticals: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Registry of named critical locks for split-phase (enter/exit) use —
    /// the VM's `critical_enter`/`critical_exit` lowering target, where the
    /// guard cannot live across an interpreter call boundary.
    split_criticals: Mutex<HashMap<String, Arc<OmpLock>>>,
    /// `threadprivate` variables by name, type-erased.
    threadprivates: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    sinks: Mutex<TraceSinks>,
    /// Latches the `ZOMP_*` sink env read to once *per runtime*.
    sink_env_once: Once,
    sink_env: bool,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("num_threads", &self.icvs.num_threads())
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// Stack of entered runtimes on this thread; the top is
    /// [`Runtime::current`]. A stack (not a slot) so nested scopes restore
    /// the outer runtime on drop.
    static CURRENT: std::cell::RefCell<Vec<Arc<Runtime>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Scope token from [`Runtime::enter`]; leaving the scope (drop) restores
/// the previously current runtime on this thread.
pub struct RuntimeGuard {
    /// `!Send`: the guard must drop on the thread whose stack it pushed.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RuntimeGuard {
    fn drop(&mut self) {
        CURRENT.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

impl Runtime {
    /// A fresh runtime configured from the environment (the CLI default).
    pub fn new() -> Arc<Runtime> {
        Runtime::with_config(&RuntimeConfig::from_env())
    }

    /// A fresh runtime with explicit overrides; `Default::default()` config
    /// touches no environment variables at all.
    pub fn with_config(cfg: &RuntimeConfig) -> Arc<Runtime> {
        Arc::new(Runtime {
            icvs: Icvs::with_overrides(cfg.num_threads, cfg.dynamic, cfg.run_schedule),
            unnamed_critical: Mutex::new(()),
            criticals: Mutex::new(HashMap::new()),
            split_criticals: Mutex::new(HashMap::new()),
            threadprivates: Mutex::new(HashMap::new()),
            sinks: Mutex::new(TraceSinks::default()),
            sink_env_once: Once::new(),
            sink_env: cfg.sink_env,
        })
    }

    /// The default process-wide instance backing the free-function facade
    /// (`zomp::omp`, `zomp::sync::critical`, `zomp::trace::finish`).
    /// Initialised from the environment on first use.
    pub fn global() -> &'static Arc<Runtime> {
        static GLOBAL: OnceLock<Arc<Runtime>> = OnceLock::new();
        GLOBAL.get_or_init(Runtime::new)
    }

    /// The innermost runtime entered on this thread, or [`Runtime::global`]
    /// when none is. This is what every free-function facade consults.
    pub fn current() -> Arc<Runtime> {
        CURRENT
            .with(|s| s.borrow().last().cloned())
            .unwrap_or_else(|| Arc::clone(Runtime::global()))
    }

    /// Make this runtime [`Runtime::current`] on the calling thread until
    /// the returned guard drops. [`crate::team::fork_call_rt`] does this on
    /// every team thread, so region bodies rarely call it directly.
    pub fn enter(self: &Arc<Self>) -> RuntimeGuard {
        CURRENT.with(|s| s.borrow_mut().push(Arc::clone(self)));
        RuntimeGuard {
            _not_send: std::marker::PhantomData,
        }
    }

    /// This runtime's ICV block.
    pub fn icvs(&self) -> &Icvs {
        &self.icvs
    }

    /// Fork a team bound to this runtime — `fork_call` with an explicit
    /// handle. See [`crate::team::fork_call_rt`].
    #[track_caller]
    pub fn fork_call<F>(self: &Arc<Self>, par: Parallel, f: F)
    where
        F: for<'x> Fn(&ThreadCtx<'x>) + Sync,
    {
        crate::team::fork_call_rt(self, par, f)
    }

    // -- critical sections --------------------------------------------------

    /// Execute `f` inside this runtime's unnamed `critical` section.
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        let _g = self.unnamed_critical.lock();
        f()
    }

    /// Execute `f` inside this runtime's `critical(name)` section.
    pub fn critical_named<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let lock = {
            let mut reg = self.criticals.lock();
            Arc::clone(reg.entry(name.to_string()).or_default())
        };
        let _g = lock.lock();
        f()
    }

    /// The split-phase lock behind `critical(name)` for lowering targets
    /// that cannot hold a guard across a call boundary (the VM's
    /// `critical_enter`/`critical_exit`). One lock per distinct name, per
    /// runtime.
    pub fn critical_lock(&self, name: &str) -> Arc<OmpLock> {
        let mut reg = self.split_criticals.lock();
        Arc::clone(reg.entry(name.to_string()).or_default())
    }

    // -- threadprivate ------------------------------------------------------

    /// The `threadprivate` variable `key`, created from `init` on first use.
    ///
    /// Distinct runtimes get distinct storage for the same name — two
    /// programs served by one process cannot see each other's
    /// threadprivate state.
    ///
    /// # Panics
    /// If `key` was already registered on this runtime with a different
    /// payload type.
    pub fn threadprivate<T: Send + 'static>(
        &self,
        key: &str,
        init: impl Fn() -> T + Send + Sync + 'static,
    ) -> Arc<ThreadPrivate<T>> {
        let entry = {
            let mut reg = self.threadprivates.lock();
            Arc::clone(
                reg.entry(key.to_string())
                    .or_insert_with(|| Arc::new(ThreadPrivate::new(init))),
            )
        };
        entry.downcast::<ThreadPrivate<T>>().unwrap_or_else(|_| {
            panic!("threadprivate key `{key}` already registered with a different type")
        })
    }

    // -- trace/metrics sinks ------------------------------------------------

    /// Route the Chrome trace to `path` when [`Runtime::finish`] runs,
    /// enabling event recording (programmatic `ZOMP_TRACE=<path>`).
    pub fn set_trace_path(&self, path: &str) {
        self.sinks.lock().trace_path = Some(path.to_string());
        crate::trace::enable_events();
        crate::trace::enable_counters();
    }

    /// Route the metrics dump to `path` when [`Runtime::finish`] runs,
    /// enabling counters (programmatic `ZOMP_METRICS=<path>`).
    pub fn set_metrics_path(&self, path: &str) {
        self.sinks.lock().metrics_path = Some(path.to_string());
        crate::trace::enable_counters();
    }

    /// Route the rendered profile report to `path` — or stderr when `None` —
    /// when [`Runtime::finish`] runs (programmatic `ZOMP_PROFILE`).
    pub fn set_profile_out(&self, path: Option<&str>) {
        self.sinks.lock().profile_out = Some(path.map(|p| p.to_string()));
        crate::profile::enable();
    }

    /// Read `ZOMP_TRACE` / `ZOMP_METRICS` / `ZOMP_PROFILE` at most once for
    /// this runtime and activate the matching instrumentation. Called lazily
    /// by [`crate::team::fork_call_rt`]; a no-op for runtimes built with
    /// `sink_env: false` (per-request service runtimes must not inherit the
    /// daemon's environment).
    pub fn init_sinks_from_env(&self) {
        if !self.sink_env {
            return;
        }
        self.sink_env_once.call_once(|| {
            if let Ok(p) = std::env::var("ZOMP_TRACE") {
                if !p.is_empty() {
                    self.set_trace_path(&p);
                }
            }
            if let Ok(p) = std::env::var("ZOMP_METRICS") {
                if !p.is_empty() {
                    self.set_metrics_path(&p);
                }
            }
            if let Ok(p) = std::env::var("ZOMP_PROFILE") {
                if !p.is_empty() {
                    // `1` means "report to stderr"; anything else is a path.
                    self.set_profile_out((p != "1").then_some(p.as_str()));
                }
            }
        });
    }

    /// Write any outputs configured on this runtime. Returns the paths
    /// written.
    pub fn finish(&self) -> std::io::Result<Vec<String>> {
        let (trace_path, metrics_path, profile_out) = {
            let g = self.sinks.lock();
            (
                g.trace_path.clone(),
                g.metrics_path.clone(),
                g.profile_out.clone(),
            )
        };
        let mut written = Vec::new();
        if let Some(p) = trace_path {
            crate::trace::write_chrome_trace(&p)?;
            written.push(p);
        }
        if let Some(p) = metrics_path {
            crate::trace::write_metrics_json(&p)?;
            written.push(p);
        }
        if let Some(dest) = profile_out {
            let report = format!(
                "--- region profile (gprof-style) ---\n{}\n--- per-construct breakdown ---\n{}\n\
                 --- per-loop tier residency ---\n{}",
                crate::profile::render_report(),
                crate::profile::render_breakdown(),
                crate::profile::render_tiers(),
            );
            match dest {
                Some(p) => {
                    std::fs::write(&p, report)?;
                    written.push(p);
                }
                None => eprint!("{report}"),
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleKind;

    #[test]
    fn current_falls_back_to_global() {
        let cur = Runtime::current();
        assert!(Arc::ptr_eq(&cur, Runtime::global()));
    }

    #[test]
    fn enter_scopes_nest_and_restore() {
        let a = Runtime::with_config(&RuntimeConfig::default().num_threads(2));
        let b = Runtime::with_config(&RuntimeConfig::default().num_threads(3));
        {
            let _ga = a.enter();
            assert!(Arc::ptr_eq(&Runtime::current(), &a));
            {
                let _gb = b.enter();
                assert!(Arc::ptr_eq(&Runtime::current(), &b));
            }
            assert!(Arc::ptr_eq(&Runtime::current(), &a));
        }
        assert!(Arc::ptr_eq(&Runtime::current(), Runtime::global()));
    }

    #[test]
    fn config_overrides_apply() {
        let rt = Runtime::with_config(
            &RuntimeConfig::default()
                .num_threads(7)
                .run_schedule(Schedule::dynamic(Some(4))),
        );
        assert_eq!(rt.icvs().num_threads(), 7);
        let s = rt.icvs().run_schedule();
        assert_eq!(s.kind, ScheduleKind::Dynamic);
        assert_eq!(s.chunk, Some(4));
    }

    #[test]
    fn critical_registries_are_per_runtime() {
        let a = Runtime::with_config(&RuntimeConfig::default());
        let b = Runtime::with_config(&RuntimeConfig::default());
        let la = a.critical_lock("shared_name");
        let lb = b.critical_lock("shared_name");
        assert!(!Arc::ptr_eq(&la, &lb), "runtimes must not share locks");
        assert!(Arc::ptr_eq(&la, &a.critical_lock("shared_name")));
        // b holding "shared_name" must not block a.
        lb.set();
        assert!(la.test(), "a's lock is independent of b's");
        la.unset();
        lb.unset();
    }

    #[test]
    fn threadprivate_registry_is_typed_and_per_runtime() {
        let a = Runtime::with_config(&RuntimeConfig::default());
        let b = Runtime::with_config(&RuntimeConfig::default());
        let ta = a.threadprivate("x", || 1i64);
        let tb = b.threadprivate("x", || 2i64);
        assert!(!Arc::ptr_eq(&ta, &tb));
        assert_eq!(ta.get(), 1);
        assert_eq!(tb.get(), 2);
        // Same runtime + same key → same storage.
        assert!(Arc::ptr_eq(&ta, &a.threadprivate("x", || 99i64)));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn threadprivate_type_confusion_panics() {
        let rt = Runtime::with_config(&RuntimeConfig::default());
        let _ = rt.threadprivate("y", || 1i64);
        let _ = rt.threadprivate("y", || 1.0f64);
    }

    #[test]
    fn fork_binds_runtime_on_all_team_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = Runtime::with_config(&RuntimeConfig::default().num_threads(3));
        let hits = AtomicUsize::new(0);
        rt.fork_call(Parallel::new(), |ctx| {
            assert_eq!(ctx.num_threads(), 3);
            assert!(Arc::ptr_eq(&Runtime::current(), ctx.runtime()));
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }
}
