//! `threadprivate` storage.
//!
//! The EP benchmark uses the `threadprivate` directive (§V-B): a global
//! variable gets one instance per thread, persisting across parallel regions
//! executed by the same thread. [`ThreadPrivate`] reproduces that: values are
//! keyed by OS thread, created on first touch from an init closure, and
//! survive between regions because the worker pool is persistent (the hot
//! team re-uses the same OS threads).

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::Mutex;

/// Per-thread persistent storage for one `threadprivate` variable.
///
/// Access hands out a clone of the per-thread `Arc`; interior mutability of
/// the payload is the user's choice (`Cell`, `RefCell`, `Mutex`, plain read).
/// For the common POD case prefer [`ThreadPrivate::with_mut`], which provides
/// scoped mutable access without nested locking.
pub struct ThreadPrivate<T> {
    init: Box<dyn Fn() -> T + Send + Sync>,
    slots: Mutex<HashMap<ThreadId, Arc<Mutex<T>>>>,
}

impl<T: Send + 'static> ThreadPrivate<T> {
    /// Declare a threadprivate variable with a per-thread initialiser (the
    /// `copyin`-free case; for `copyin`, pass a closure capturing the master
    /// value).
    pub fn new(init: impl Fn() -> T + Send + Sync + 'static) -> Self {
        ThreadPrivate {
            init: Box::new(init),
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn slot(&self) -> Arc<Mutex<T>> {
        let id = std::thread::current().id();
        let mut slots = self.slots.lock();
        Arc::clone(
            slots
                .entry(id)
                .or_insert_with(|| Arc::new(Mutex::new((self.init)()))),
        )
    }

    /// Scoped access to this thread's instance.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let slot = self.slot();
        let g = slot.lock();
        f(&g)
    }

    /// Scoped mutable access to this thread's instance.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let slot = self.slot();
        let mut g = slot.lock();
        f(&mut g)
    }

    /// Number of threads that have touched the variable (diagnostic).
    pub fn instances(&self) -> usize {
        self.slots.lock().len()
    }
}

impl<T: Send + Clone + 'static> ThreadPrivate<T> {
    /// Read a copy of this thread's instance.
    pub fn get(&self) -> T {
        self.with(|v| v.clone())
    }

    /// Overwrite this thread's instance.
    pub fn set(&self, v: T) {
        self.with_mut(|slot| *slot = v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::{fork_call, Parallel};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn each_thread_gets_its_own_instance() {
        let tp = ThreadPrivate::new(|| 0usize);
        fork_call(Parallel::new().num_threads(4), |ctx| {
            tp.set(ctx.thread_num() + 100);
            assert_eq!(tp.get(), ctx.thread_num() + 100);
        });
        assert!(tp.instances() >= 4);
    }

    #[test]
    fn values_persist_across_regions_on_same_thread() {
        // Threadprivate state outlives a region on the OS thread that
        // wrote it. Here that is asserted for thread 0 — the forking
        // thread, the same in both regions — and for the workers only
        // that they see the initial value or one the first region wrote:
        // other tests of this process fork on the same pool, so which
        // workers a region gets is not fixed. `tests/hot_team.rs` checks
        // the whole team, in a process of its own.
        let tp = ThreadPrivate::new(|| 0usize);
        let strays = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(4), |ctx| {
            tp.set(ctx.thread_num() * 7 + 1);
        });
        fork_call(Parallel::new().num_threads(4), |ctx| {
            let seen = tp.get();
            let ok = if ctx.thread_num() == 0 {
                seen == 1
            } else {
                [0, 1, 8, 15, 22].contains(&seen)
            };
            if !ok {
                strays.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(strays.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn with_mut_accumulates() {
        let tp = ThreadPrivate::new(|| 0i64);
        fork_call(Parallel::new().num_threads(3), |_| {
            for _ in 0..10 {
                tp.with_mut(|v| *v += 1);
            }
            assert_eq!(tp.get(), 10);
        });
    }
}
