//! Hot-team persistence: back-to-back regions of one size run on the same
//! OS threads, so threadprivate state written in one region is there in
//! the next — the property EP's per-thread LCG state relies on.
//!
//! This is the only test in the binary on purpose: the worker pool is
//! process-global, and a concurrent test forking on it could be handed the
//! first region's workers between the two `fork_call`s.

use std::sync::atomic::{AtomicUsize, Ordering};

use zomp::threadprivate::ThreadPrivate;
use zomp::{fork_call, Parallel};

#[test]
fn second_region_runs_on_the_first_regions_threads() {
    let tp = ThreadPrivate::new(|| 0usize);
    let fresh = AtomicUsize::new(0);
    for round in 0..50 {
        fork_call(Parallel::new().num_threads(4), |ctx| {
            // From the second round on, every thread of the team must find
            // a value a thread of the previous round left behind.
            if round > 0 && tp.get() == 0 {
                fresh.fetch_add(1, Ordering::SeqCst);
            }
            tp.set(ctx.thread_num() * 7 + 1);
        });
    }
    assert_eq!(fresh.load(Ordering::SeqCst), 0);
    assert_eq!(tp.instances(), 4);
}
