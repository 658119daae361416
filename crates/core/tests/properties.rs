//! Property-based tests of the runtime's core invariants: every schedule
//! partitions the iteration space exactly; reductions match their serial
//! folds for any input; loop-bound normalisation agrees with naive loop
//! execution.

use proptest::prelude::*;
use zomp::prelude::*;
use zomp::reduction::Reduce;
use zomp::schedule::{
    static_block, DynamicDispatch, GuidedDispatch, LoopBounds, LoopCmp, StaticChunked,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// schedule(static): blocks are a contiguous, balanced partition.
    #[test]
    fn static_block_partitions(trip in 0u64..10_000, nth in 1usize..130) {
        let mut covered = 0u64;
        let mut prev_end = 0u64;
        let mut sizes = Vec::new();
        for tid in 0..nth {
            let r = static_block(tid, nth, trip);
            prop_assert_eq!(r.start, prev_end);
            prev_end = r.end;
            sizes.push(r.end - r.start);
            covered += r.end - r.start;
        }
        prop_assert_eq!(covered, trip);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced: {sizes:?}");
    }

    /// schedule(static, chunk): round-robin chunks cover exactly.
    #[test]
    fn static_chunked_partitions(trip in 0u64..5_000, nth in 1usize..65, chunk in 1i64..200) {
        let mut seen = vec![0u8; trip as usize];
        for tid in 0..nth {
            for r in StaticChunked::new(tid, nth, trip, chunk) {
                prop_assert!(r.end - r.start <= chunk as u64);
                for i in r {
                    seen[i as usize] += 1;
                }
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// dynamic work-stealing dispatch covers exactly once in clause-sized
    /// chunks regardless of chunk, deck width (2 and up), and which single
    /// thread drains it (the drain-all caller exercises the steal path
    /// against every other slot); an orphaned loop (a team of one) claims
    /// the whole loop once.
    #[test]
    fn dynamic_dispatch_partitions(trip in 0u64..5_000, nth in 2usize..9,
                                   chunk in proptest::option::of(1i64..300),
                                   drainer in 0usize..8) {
        let d = DynamicDispatch::new(trip, nth, chunk);
        let tid = drainer % nth;
        let max_chunk = chunk.unwrap_or(1) as u64;
        let mut seen = vec![0u8; trip as usize];
        while let Some(r) = d.next(tid) {
            prop_assert!(r.end - r.start <= max_chunk);
            for i in r {
                seen[i as usize] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        let mut solo = zomp::kmpc::WsLoop::begin(None, Schedule::dynamic(chunk), trip, None)
            .expect("positive chunk");
        prop_assert_eq!(solo.next(), (trip > 0).then_some(0..trip));
        prop_assert_eq!(solo.next(), None);
    }

    /// guided work-stealing dispatch covers exactly once; every claim
    /// honours the minimum chunk unless it finishes off a remainder
    /// smaller than the minimum.
    #[test]
    fn guided_dispatch_partitions(trip in 0u64..5_000, nth in 1usize..9,
                                  min_chunk in proptest::option::of(1i64..50),
                                  drainer in 0usize..8) {
        let g = GuidedDispatch::new(trip, nth, min_chunk);
        let tid = drainer % nth;
        let min = min_chunk.unwrap_or(1) as u64;
        let mut seen = vec![0u8; trip as usize];
        let mut sub_min = 0usize;
        while let Some(r) = g.next(tid) {
            let size = r.end - r.start;
            prop_assert!(size >= 1);
            // A sub-minimum claim is only legal when it exhausts a range
            // fragment; fragments are bounded by slots plus steal splits.
            if size < min {
                sub_min += 1;
            }
            for i in r {
                seen[i as usize] += 1;
            }
        }
        // Each fragment (slot or steal split, O(nth·log2 trip) of them) can
        // end with at most one sub-minimum tail claim.
        prop_assert!(sub_min <= nth * 16 + 8, "too many sub-minimum claims: {sub_min}");
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// The legacy shared-cursor protocols (huge-trip fallback and bench
    /// baseline) keep their original sequential-chunk behaviour.
    #[test]
    fn legacy_dispatch_partitions(trip in 0u64..5_000, nth in 1usize..65,
                                  chunk in 1u64..300) {
        let d = zomp::schedule::legacy::SharedCursorDispatch::new(trip, chunk);
        let mut covered = 0u64;
        while let Some(r) = d.next() {
            prop_assert_eq!(r.start, covered);
            covered = r.end;
        }
        prop_assert_eq!(covered, trip);

        let g = zomp::schedule::legacy::SharedGuidedDispatch::new(trip, nth, 1);
        let mut covered = 0u64;
        let mut last = u64::MAX;
        while let Some(r) = g.next() {
            prop_assert_eq!(r.start, covered);
            let size = r.end - r.start;
            prop_assert!(size <= last);
            last = size.max(1);
            covered = r.end;
        }
        prop_assert_eq!(covered, trip);
    }

    /// trip_count matches literally executing the source loop.
    #[test]
    fn trip_count_matches_naive_loop(lb in -500i64..500, span in 0i64..400,
                                     incr in 1i64..17, up in proptest::bool::ANY,
                                     inclusive in proptest::bool::ANY) {
        let (bounds, mut i, step) = if up {
            let ub = lb + span;
            (LoopBounds { lb, ub, incr, cmp: if inclusive { LoopCmp::Le } else { LoopCmp::Lt } }, lb, incr)
        } else {
            let ub = lb - span;
            (LoopBounds { lb, ub, incr: -incr, cmp: if inclusive { LoopCmp::Ge } else { LoopCmp::Gt } }, lb, -incr)
        };
        let mut naive = 0u64;
        let mut values = Vec::new();
        loop {
            let cond = match bounds.cmp {
                LoopCmp::Lt => i < bounds.ub,
                LoopCmp::Le => i <= bounds.ub,
                LoopCmp::Gt => i > bounds.ub,
                LoopCmp::Ge => i >= bounds.ub,
            };
            if !cond {
                break;
            }
            values.push(i);
            naive += 1;
            i += step;
        }
        prop_assert_eq!(bounds.trip_count(), naive);
        for (k, &v) in values.iter().enumerate() {
            prop_assert_eq!(bounds.iter_value(k as u64), v);
        }
    }

    /// Integer add reduction equals the serial sum, for every schedule.
    #[test]
    fn parallel_sum_matches_serial(values in proptest::collection::vec(-1000i64..1000, 0..300),
                                   threads in 1usize..5,
                                   sched_pick in 0usize..4) {
        let sched = [
            Schedule::static_default(),
            Schedule::static_chunked(3),
            Schedule::dynamic(Some(4)),
            Schedule::guided(None),
        ][sched_pick];
        let want: i64 = values.iter().sum();
        let got = parallel_reduce(
            Parallel::new().num_threads(threads),
            sched,
            0..values.len() as i64,
            0i64,
            RedOp::Add,
            |i, acc| *acc += values[i as usize],
        );
        prop_assert_eq!(got, want);
    }

    /// Min/max reductions equal serial folds.
    #[test]
    fn parallel_minmax_matches_serial(values in proptest::collection::vec(-1e6f64..1e6, 1..200),
                                      threads in 1usize..5) {
        let want_min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let want_max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let got_min = parallel_reduce(
            Parallel::new().num_threads(threads),
            Schedule::dynamic(None),
            0..values.len() as i64,
            f64::INFINITY,
            RedOp::Min,
            |i, acc| *acc = acc.min(values[i as usize]),
        );
        let got_max = parallel_reduce(
            Parallel::new().num_threads(threads),
            Schedule::static_default(),
            0..values.len() as i64,
            f64::NEG_INFINITY,
            RedOp::Max,
            |i, acc| *acc = acc.max(values[i as usize]),
        );
        prop_assert_eq!(got_min, want_min);
        prop_assert_eq!(got_max, want_max);
    }

    /// Reduction identities are neutral elements under combine, any value.
    #[test]
    fn identity_neutrality(v in -1e9f64..1e9) {
        for op in [RedOp::Add, RedOp::Mul, RedOp::Min, RedOp::Max] {
            let id = f64::identity(op);
            prop_assert_eq!(f64::combine(op, id, v), v);
            prop_assert_eq!(f64::combine(op, v, id), v);
        }
    }

    /// Disjoint shared-slice writes through a team leave exactly the
    /// expected data (no lost or duplicated writes), any schedule.
    #[test]
    fn shared_slice_disjoint_writes(n in 1usize..2000, threads in 1usize..5, chunk in 1i64..64) {
        let mut data = vec![-1i64; n];
        {
            let s = SharedSlice::new(&mut data);
            parallel_for(
                Parallel::new().num_threads(threads),
                Schedule::static_chunked(chunk),
                0..n as i64,
                |i| s.put(i, i * 3),
            );
        }
        for (i, &v) in data.iter().enumerate() {
            prop_assert_eq!(v, i as i64 * 3);
        }
    }
}

/// OMP_SCHEDULE parser accepts anything without panicking and respects
/// well-formed inputs.
#[test]
fn omp_schedule_parser_is_total() {
    proptest!(|(s in "\\PC*")| {
        let _ = zomp::icv::parse_omp_schedule(&s);
    });
    proptest!(|(chunk in 1i64..1_000_000)| {
        let s = zomp::icv::parse_omp_schedule(&format!("dynamic,{chunk}"));
        prop_assert_eq!(s.chunk, Some(chunk));
    });
}
