//! Region profiling — the paper's future work, implemented on the event
//! stream.
//!
//! §VI proposes "modifying the compiler to automatically instrument
//! applications" with profiling calls, "providing functionality similar to
//! that of gprof". Here the *runtime* provides it, as a reporting layer
//! over [`crate::trace`]: enabling profiling turns on the per-thread event
//! rings, and [`report`] / [`breakdown`] fold the recorded spans into
//! gprof-style tables. There is no profiling-specific hot path any more —
//! the old implementation took a global registry mutex on every region
//! exit; regions now write one event into their thread's lock-free ring,
//! and aggregation happens once, at report time.
//!
//! [`report`] is the flat profile (per-label invocation counts and wall
//! time, one entry per region). [`breakdown`] goes below the region: using
//! the nested loop/chunk/barrier/reduction spans it splits each region's
//! per-thread busy time into *compute*, *dispatch overhead* (worksharing
//! protocol time not spent in loop bodies), *barrier wait*, *reduction*,
//! and the master's *join* wait — the decomposition that explains where a
//! schedule's time actually goes.
//!
//! ```
//! use zomp::prelude::*;
//! zomp::profile::enable();
//! fork_call(Parallel::new().num_threads(2).label("init"), |_| {});
//! fork_call(Parallel::new().num_threads(2).label("init"), |_| {});
//! let report = zomp::profile::report();
//! let init = report.iter().find(|r| r.label == "init").unwrap();
//! assert_eq!(init.invocations, 2);
//! zomp::profile::disable();
//! ```

use std::collections::HashMap;
use std::time::Duration;

use crate::trace::{self, Event, EventKind};

/// Turn region instrumentation on (event rings + counters).
pub fn enable() {
    trace::enable_events();
    trace::enable_counters();
}

/// Turn region instrumentation off (recorded data is kept).
pub fn disable() {
    trace::disable(trace::EVENTS | trace::COUNTERS);
}

/// Is instrumentation currently on?
#[inline]
pub fn enabled() -> bool {
    trace::mode() & trace::EVENTS != 0
}

/// Drop all recorded data.
pub fn reset() {
    trace::reset();
}

/// Display label for regions recorded without one (tracing enabled
/// mid-region, or a hand-built `Parallel` in a context with no caller
/// location).
const UNLABELLED: &str = "<parallel>";

fn display_label(ev: &Event) -> &str {
    if ev.label.is_empty() {
        UNLABELLED
    } else {
        ev.label
    }
}

/// One profiled region label (flat profile entry).
#[derive(Debug, Clone)]
pub struct RegionStat {
    pub label: String,
    pub invocations: u64,
    pub total: Duration,
    pub max: Duration,
    /// Mean team size across invocations.
    pub mean_threads: f64,
}

/// Snapshot of all recorded regions, sorted by total time descending
/// (gprof-style "flat profile"). Folds the master-side `Parallel` spans,
/// so invocation counts match [`crate::team::fork_call`] calls regardless
/// of team size.
pub fn report() -> Vec<RegionStat> {
    #[derive(Default)]
    struct Accum {
        invocations: u64,
        total_ns: u64,
        max_ns: u64,
        threads_sum: u64,
    }
    let mut acc: HashMap<String, Accum> = HashMap::new();
    for (_seq, _name, events) in trace::all_events() {
        for ev in events {
            if ev.kind != EventKind::Parallel {
                continue;
            }
            let a = acc.entry(display_label(&ev).to_string()).or_default();
            a.invocations += 1;
            a.total_ns += ev.dur_ns;
            a.max_ns = a.max_ns.max(ev.dur_ns);
            a.threads_sum += ev.a;
        }
    }
    let mut out: Vec<RegionStat> = acc
        .into_iter()
        .map(|(label, a)| RegionStat {
            label,
            invocations: a.invocations,
            total: Duration::from_nanos(a.total_ns),
            max: Duration::from_nanos(a.max_ns),
            mean_threads: a.threads_sum as f64 / a.invocations.max(1) as f64,
        })
        .collect();
    out.sort_by_key(|r| std::cmp::Reverse(r.total));
    out
}

/// Per-construct time breakdown of one region label, summed over every
/// participating thread's span (so durations are CPU time across the team,
/// not wall clock).
#[derive(Debug, Clone)]
pub struct BreakdownStat {
    pub label: String,
    /// Region invocations (master spans).
    pub invocations: u64,
    /// Per-thread busy time inside the region's spans.
    pub busy: Duration,
    /// Busy time minus everything attributed below: loop bodies plus any
    /// serial code in the region.
    pub compute: Duration,
    /// Worksharing protocol overhead: loop-construct time not spent
    /// executing claimed chunks (dispatch init, claim/steal traffic).
    pub dispatch: Duration,
    /// Time waiting in barriers.
    pub barrier: Duration,
    /// Time in reduction combines.
    pub reduction: Duration,
    /// The master's join wait on the worker latch.
    pub join: Duration,
}

/// Fold the event stream into a per-region-label breakdown of where
/// thread time went: compute vs dispatch overhead vs barrier wait vs
/// reduction vs join. Sorted by busy time descending.
pub fn breakdown() -> Vec<BreakdownStat> {
    #[derive(Default)]
    struct Accum {
        invocations: u64,
        busy_ns: u64,
        loops_ns: u64,
        chunks_ns: u64,
        barrier_ns: u64,
        reduction_ns: u64,
        join_ns: u64,
    }
    let contains = |outer: &Event, inner: &Event| {
        inner.t_ns >= outer.t_ns && inner.t_ns + inner.dur_ns <= outer.t_ns + outer.dur_ns
    };
    let mut acc: HashMap<String, Accum> = HashMap::new();
    for (_seq, _name, events) in trace::all_events() {
        let regions: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Parallel | EventKind::Implicit))
            .collect();
        for ev in &events {
            // Attribute each sub-span to the innermost enclosing region
            // span on the same thread (max start among those containing
            // it — regions nest, they never partially overlap).
            let region = regions
                .iter()
                .filter(|r| !std::ptr::eq(**r, ev) && contains(r, ev))
                .max_by_key(|r| r.t_ns);
            match ev.kind {
                EventKind::Parallel | EventKind::Implicit => {
                    let a = acc.entry(display_label(ev).to_string()).or_default();
                    if ev.kind == EventKind::Parallel {
                        a.invocations += 1;
                    }
                    a.busy_ns += ev.dur_ns;
                }
                _ => {
                    let Some(region) = region else { continue };
                    let a = acc.entry(display_label(region).to_string()).or_default();
                    match ev.kind {
                        EventKind::LoopDispatch => a.loops_ns += ev.dur_ns,
                        EventKind::ChunkOwned | EventKind::ChunkStolen => a.chunks_ns += ev.dur_ns,
                        EventKind::BarrierWait => a.barrier_ns += ev.dur_ns,
                        EventKind::ReductionCombine => a.reduction_ns += ev.dur_ns,
                        EventKind::TaskWait => a.join_ns += ev.dur_ns,
                        // Tier events (bulk kernels, bails, deopts) run
                        // *inside* chunk/compute time — they are folded by
                        // `tier_report`, not double-counted here.
                        EventKind::BulkLoop | EventKind::KernelBail | EventKind::Deopt => {}
                        EventKind::Parallel | EventKind::Implicit => unreachable!(),
                    }
                }
            }
        }
    }
    let mut out: Vec<BreakdownStat> = acc
        .into_iter()
        .map(|(label, a)| {
            let dispatch_ns = a.loops_ns.saturating_sub(a.chunks_ns);
            let compute_ns = a
                .busy_ns
                .saturating_sub(dispatch_ns + a.barrier_ns + a.reduction_ns + a.join_ns);
            BreakdownStat {
                label,
                invocations: a.invocations,
                busy: Duration::from_nanos(a.busy_ns),
                compute: Duration::from_nanos(compute_ns),
                dispatch: Duration::from_nanos(dispatch_ns),
                barrier: Duration::from_nanos(a.barrier_ns),
                reduction: Duration::from_nanos(a.reduction_ns),
                join: Duration::from_nanos(a.join_ns),
            }
        })
        .collect();
    out.sort_by_key(|r| std::cmp::Reverse(r.busy));
    out
}

/// Per-pragma-loop execution-tier residency: how many iterations of a
/// worksharing loop ran inside native bulk kernels vs through the
/// interpreter, plus the kernel-bail / deopt activity observed inside
/// the loop's spans. One entry per loop label (the pragma's
/// `unit:line` when the front end supplied one, else the schedule name).
#[derive(Debug, Clone, Default)]
pub struct LoopTier {
    pub label: String,
    /// Loop-construct spans folded in (per thread, per entry).
    pub dispatches: u64,
    /// Iterations executed under this label, all tiers.
    pub total_iters: u64,
    /// Iterations completed inside native bulk kernels.
    pub native_iters: u64,
    /// Kernel runs that bailed back to the interpreter.
    pub bails: u64,
    /// Specialised instructions that fell back to their generic forms.
    pub deopts: u64,
}

impl LoopTier {
    /// Fraction of iterations that ran natively, in `[0, 1]`.
    pub fn native_frac(&self) -> f64 {
        if self.total_iters == 0 {
            0.0
        } else {
            self.native_iters as f64 / self.total_iters as f64
        }
    }
}

/// Fold the event stream into per-loop tier residency. Each
/// chunk / bulk-kernel / bail / deopt event is attributed to the
/// innermost enclosing loop-construct span on the same thread; a loop span
/// with no chunk events nested (the statically partitioned path, which
/// claims no per-chunk spans) contributes its own iteration payload
/// instead. Sorted by total iterations descending.
pub fn tier_report() -> Vec<LoopTier> {
    #[derive(Default)]
    struct SpanAccum {
        chunk_iters: u64,
        has_chunks: bool,
        native: u64,
        bails: u64,
        deopts: u64,
    }
    let contains = |outer: &Event, inner: &Event| {
        inner.t_ns >= outer.t_ns && inner.t_ns + inner.dur_ns <= outer.t_ns + outer.dur_ns
    };
    let mut acc: HashMap<String, LoopTier> = HashMap::new();
    for (_seq, _name, events) in trace::all_events() {
        let loops: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].kind == EventKind::LoopDispatch)
            .collect();
        let mut spans: HashMap<usize, SpanAccum> = HashMap::new();
        for ev in &events {
            let slot = loops
                .iter()
                .filter(|&&i| !std::ptr::eq(&events[i], ev) && contains(&events[i], ev))
                .max_by_key(|&&i| events[i].t_ns);
            let Some(&slot) = slot else { continue };
            let a = spans.entry(slot).or_default();
            match ev.kind {
                EventKind::ChunkOwned | EventKind::ChunkStolen => {
                    a.has_chunks = true;
                    a.chunk_iters += ev.b;
                }
                EventKind::BulkLoop => a.native += ev.a,
                EventKind::KernelBail => a.bails += 1,
                EventKind::Deopt => a.deopts += 1,
                _ => {}
            }
        }
        for &i in &loops {
            let ev = &events[i];
            let span = spans.remove(&i).unwrap_or_default();
            let t = acc.entry(display_label(ev).to_string()).or_default();
            t.label = display_label(ev).to_string();
            t.dispatches += 1;
            // Claimed worksharing iterations, floored by the kernel count:
            // a bulk kernel that subsumes a loop *nested inside* the chunk
            // body (e.g. IS's per-bucket ranking under `static,1`) executes
            // more iterations than the outer loop claims, and those
            // iterations are real work under this label.
            let claimed = if span.has_chunks {
                span.chunk_iters
            } else {
                ev.a
            };
            t.total_iters += claimed.max(span.native);
            t.native_iters += span.native;
            t.bails += span.bails;
            t.deopts += span.deopts;
        }
    }
    let mut out: Vec<LoopTier> = acc.into_values().collect();
    out.sort_by_key(|t| std::cmp::Reverse(t.total_iters));
    out
}

/// Render the per-loop tier residency as a table.
pub fn render_tiers() -> String {
    let mut s = String::from(
        "loop                            spans        iters       native  native%   bails  deopts\n",
    );
    for t in tier_report() {
        s.push_str(&format!(
            "{:<30} {:>6} {:>12} {:>12} {:>8.1} {:>7} {:>7}\n",
            t.label,
            t.dispatches,
            t.total_iters,
            t.native_iters,
            100.0 * t.native_frac(),
            t.bails,
            t.deopts,
        ));
    }
    s
}

/// Render the flat profile as a table.
pub fn render_report() -> String {
    let mut s =
        String::from("region                          calls   total (ms)     max (ms)  threads\n");
    for r in report() {
        s.push_str(&format!(
            "{:<30} {:>6} {:>12.3} {:>12.3} {:>8.1}\n",
            r.label,
            r.invocations,
            r.total.as_secs_f64() * 1e3,
            r.max.as_secs_f64() * 1e3,
            r.mean_threads
        ));
    }
    s
}

/// Render the per-construct breakdown as a table (all columns in
/// milliseconds of summed per-thread time).
pub fn render_breakdown() -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut s = String::from(
        "region                          calls    busy (ms) compute (ms) dispatch (ms) barrier (ms)  reduce (ms)    join (ms)\n",
    );
    for r in breakdown() {
        s.push_str(&format!(
            "{:<30} {:>6} {:>12.3} {:>12.3} {:>13.3} {:>12.3} {:>12.3} {:>12.3}\n",
            r.label,
            r.invocations,
            ms(r.busy),
            ms(r.compute),
            ms(r.dispatch),
            ms(r.barrier),
            ms(r.reduction),
            ms(r.join),
        ));
    }
    s
}

/// Render the whole profile — per-construct breakdown joined with the
/// per-loop tier residency — as one JSON object (`zag --profile=json`).
pub fn render_json() -> String {
    fn esc(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                '\n' => "\\n".chars().collect(),
                c => vec![c],
            })
            .collect()
    }
    let ns = |d: Duration| d.as_nanos() as u64;
    let mut s = String::from("{\n  \"breakdown\": [\n");
    let rows = breakdown();
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"region\": \"{}\", \"calls\": {}, \"busy_ns\": {}, \"compute_ns\": {}, \
             \"dispatch_ns\": {}, \"barrier_ns\": {}, \"reduction_ns\": {}, \"join_ns\": {}}}{}\n",
            esc(&r.label),
            r.invocations,
            ns(r.busy),
            ns(r.compute),
            ns(r.dispatch),
            ns(r.barrier),
            ns(r.reduction),
            ns(r.join),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"tiers\": [\n");
    let tiers = tier_report();
    for (i, t) in tiers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"loop\": \"{}\", \"spans\": {}, \"iters\": {}, \"native_iters\": {}, \
             \"native_frac\": {:.4}, \"bails\": {}, \"deopts\": {}}}{}\n",
            esc(&t.label),
            t.dispatches,
            t.total_iters,
            t.native_iters,
            t.native_frac(),
            t.bails,
            t.deopts,
            if i + 1 < tiers.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::{fork_call, Parallel};
    use crate::trace::test_serial;

    #[test]
    fn records_labelled_regions() {
        let _g = test_serial();
        reset();
        enable();
        for _ in 0..3 {
            fork_call(Parallel::new().num_threads(2).label("test-region"), |ctx| {
                std::hint::black_box(ctx.thread_num());
            });
        }
        disable();
        let report = report();
        let r = report
            .iter()
            .find(|r| r.label == "test-region")
            .expect("region recorded");
        assert_eq!(r.invocations, 3);
        assert!(r.total > Duration::ZERO);
        assert!(r.max <= r.total);
        assert!((r.mean_threads - 2.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_profiling_records_nothing() {
        let _g = test_serial();
        reset();
        disable();
        fork_call(Parallel::new().num_threads(2).label("ghost"), |_| {});
        assert!(report().iter().all(|r| r.label != "ghost"));
    }

    #[test]
    fn render_contains_header_and_rows() {
        let _g = test_serial();
        reset();
        enable();
        fork_call(Parallel::new().num_threads(2).label("rendered"), |_| {});
        disable();
        let table = render_report();
        assert!(table.contains("region"));
        assert!(table.contains("rendered"));
    }

    #[test]
    fn unlabelled_regions_get_caller_location() {
        let _g = test_serial();
        reset();
        enable();
        fork_call(Parallel::new().num_threads(2), |_| {});
        disable();
        // #[track_caller] auto-label: this file's name, some line.
        assert!(
            report().iter().any(|r| r.label.contains("profile.rs")),
            "expected a file:line auto-label, got {:?}",
            report().iter().map(|r| r.label.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn breakdown_decomposes_a_loop_region() {
        let _g = test_serial();
        reset();
        enable();
        fork_call(Parallel::new().num_threads(4).label("bd"), |ctx| {
            crate::workshare::for_loop(
                ctx,
                crate::schedule::Schedule::dynamic(Some(8)),
                0..4096i64,
                false,
                |i| {
                    std::hint::black_box(i);
                },
            );
        });
        disable();
        let bd = breakdown();
        let r = bd.iter().find(|r| r.label == "bd").expect("region present");
        assert_eq!(r.invocations, 1);
        assert!(r.busy > Duration::ZERO);
        // The pieces never exceed the busy total.
        assert!(
            r.compute + r.dispatch + r.barrier + r.reduction + r.join
                <= r.busy + Duration::from_micros(1)
        );
        // A dispatched loop must show some loop-protocol activity
        // (dispatch overhead can round to ~0, but chunks ran: compute > 0).
        assert!(r.compute > Duration::ZERO);
    }
}
