//! The node model: topology, cache capacities, bandwidth ceilings, and
//! synchronisation overheads.
//!
//! Topology and cache sizes come straight from §IV of the paper (2× AMD
//! EPYC 7742, 32 KB L1d + 512 KB L2 per core, 16.4 MB L3 per 4-core CCX).
//! Rates are *effective* single-thread numbers calibrated so the model's
//! serial class-C runtimes land on the paper's Table I–III Zig rows; the
//! calibration derivation is documented field by field. Threads are placed
//! **compactly** (fill socket 0's cores before socket 1), which is what the
//! paper's scaling curves imply: the CG cache-fit jump appears only at
//! 96–128 threads, where per-thread matrix slices start fitting in the
//! fixed 4.1 MB/core L3 share.

use npb::model::Access;

/// Which dynamic-dispatch implementation the simulated runtime uses. The
/// live runtime ships the work-stealing deck ([`zomp::schedule::StealDeck`]
/// semantics); the shared cursor is kept as the contention baseline so the
/// model can quantify what the refactor bought.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchImpl {
    /// Legacy shared cursor: every chunk grab is an atomic RMW on one
    /// global cache line, so all contending threads serialise on it.
    SharedCursor,
    /// Work-stealing per-thread decks: chunk grabs hit a thread-local
    /// padded word (uncontended), one atomic per [`zomp::schedule::STEAL_BATCH`]
    /// chunks; cross-thread traffic is a handful of steals near the tail.
    WorkStealing,
}

/// A shared-memory node for the analytic model.
#[derive(Debug, Clone)]
pub struct Machine {
    pub name: &'static str,
    pub sockets: usize,
    pub cores_per_socket: usize,
    pub cores_per_ccx: usize,
    /// L2 capacity per core (bytes).
    pub l2_bytes: f64,
    /// L3 capacity per CCX (bytes), shared by `cores_per_ccx` cores.
    pub l3_per_ccx_bytes: f64,
    /// Effective scalar double-precision compute rate per core (flop/s).
    pub flops_per_core: f64,
    /// Single-core DRAM streaming bandwidth (B/s).
    pub bw_core_stream: f64,
    /// Per-CCX memory bandwidth ceiling (B/s) — the Infinity-Fabric link
    /// each 4-core CCX shares towards DRAM, the binding constraint for
    /// bandwidth-hungry codes in the paper's 16-64 thread range.
    pub bw_ccx_cap: f64,
    /// Per-socket DRAM bandwidth ceiling (B/s).
    pub bw_socket: f64,
    /// Per-core bandwidth when data is L2/L3 resident (B/s).
    pub bw_cache: f64,
    /// Gather (indexed-read) bandwidth of a single thread with the caches
    /// to itself — deep prefetch and MLP (B/s).
    pub bw_gather_single: f64,
    /// Per-thread gather bandwidth once several threads contend for shared
    /// L3 and memory-level parallelism (B/s). Aggregate gather bandwidth is
    /// `max(single, contended × t)` up to the node ceiling — the empirical
    /// EPYC behaviour visible in Table I's 2–64-thread rows.
    pub bw_gather_contended: f64,
    /// Per-thread bandwidth for *cache-resident* gathered data (L3-local
    /// indexed reads) (B/s).
    pub bw_cache_gather: f64,
    /// Achieved-bandwidth multiplier for indexed writes (read-modify-write
    /// at cache-line granularity).
    pub scatter_factor: f64,
    /// Bandwidth multiplier for the fully-remote extreme of NUMA traffic;
    /// applied in proportion to the fraction of threads on the second
    /// socket (non-streaming accesses only).
    pub numa_remote_factor: f64,
    /// Fork cost: base + per-thread component (s).
    pub fork_base_s: f64,
    pub fork_per_thread_s: f64,
    /// Barrier cost: `base + log2(T) * log_term` (s).
    pub barrier_base_s: f64,
    pub barrier_log_s: f64,
    /// Cost of one dynamic-dispatch chunk grab (s).
    pub dispatch_chunk_s: f64,
    /// Cost of one contended atomic RMW (s).
    pub atomic_op_s: f64,
}

impl Machine {
    /// One ARCHER2 node.
    ///
    /// Calibration (all from the paper's single-thread class-C rows):
    /// * `flops_per_core`: EP does ≈76 flop/pair × 2³² pairs = 3.3e11 flop;
    ///   Zig runs it in 147.66 s → 2.2 Gflop/s effective scalar rate.
    /// * `bw_core_stream` + `gather_factor`: CG moves ≈18 GB per conj_grad
    ///   (26 SpMV sweeps of a 33.5 M-nonzero matrix + vector traffic) × 75
    ///   iterations ≈ 1.35 TB; Zig's 149.4 s → ≈9 GB/s effective gather
    ///   bandwidth = 11.5 GB/s stream × 0.8 gather.
    /// * `bw_socket`: 8-channel DDR4-3200 ≈ 190 GB/s per socket.
    /// * sync costs: libomp-typical microsecond-scale fork/barrier.
    pub fn archer2() -> Machine {
        Machine {
            name: "ARCHER2 node (2x AMD EPYC 7742)",
            sockets: 2,
            cores_per_socket: 64,
            cores_per_ccx: 4,
            l2_bytes: 512.0 * 1024.0,
            l3_per_ccx_bytes: 16.4e6,
            flops_per_core: 2.2e9,
            bw_core_stream: 11.5e9,
            bw_ccx_cap: 9.0e9,
            bw_socket: 190.0e9,
            bw_cache: 28.0e9,
            bw_gather_single: 9.2e9,
            bw_gather_contended: 2.2e9,
            bw_cache_gather: 8.0e9,
            scatter_factor: 0.30,
            numa_remote_factor: 0.50,
            fork_base_s: 2.0e-6,
            fork_per_thread_s: 0.10e-6,
            barrier_base_s: 0.8e-6,
            barrier_log_s: 0.5e-6,
            dispatch_chunk_s: 0.15e-6,
            atomic_op_s: 0.05e-6,
        }
    }

    /// A generic small shared-memory node (for users modelling their own
    /// hosts rather than ARCHER2): one socket of `cores` cores in 4-core
    /// clusters, laptop-class bandwidth numbers.
    pub fn generic(cores: usize) -> Machine {
        let cores = cores.max(1);
        Machine {
            name: "generic node",
            sockets: 1,
            cores_per_socket: cores,
            cores_per_ccx: 4.min(cores),
            l2_bytes: 512.0 * 1024.0,
            l3_per_ccx_bytes: 8.0e6,
            flops_per_core: 3.0e9,
            bw_core_stream: 15.0e9,
            bw_ccx_cap: 20.0e9,
            bw_socket: 60.0e9,
            bw_cache: 40.0e9,
            bw_gather_single: 12.0e9,
            bw_gather_contended: 4.0e9,
            bw_cache_gather: 12.0e9,
            scatter_factor: 0.35,
            numa_remote_factor: 1.0,
            fork_base_s: 2.0e-6,
            fork_per_thread_s: 0.10e-6,
            barrier_base_s: 0.8e-6,
            barrier_log_s: 0.5e-6,
            dispatch_chunk_s: 0.15e-6,
            atomic_op_s: 0.05e-6,
        }
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Sockets engaged by `t` threads. Placement fills socket 0's 64 cores
    /// before touching socket 1 (what the paper's curves imply — see the
    /// module docs).
    pub fn engaged_sockets(&self, t: usize) -> usize {
        t.div_ceil(self.cores_per_socket).clamp(1, self.sockets)
    }

    /// CCXs engaged by `t` threads: *spread within* a socket (the OS
    /// scatters unbound threads across CCXs, one per CCX until all 16 are
    /// occupied), sockets filled in order.
    pub fn engaged_ccxs(&self, t: usize) -> usize {
        let ccx_per_socket = self.cores_per_socket / self.cores_per_ccx;
        let s0 = t.min(self.cores_per_socket).min(ccx_per_socket);
        let s1 = t.saturating_sub(self.cores_per_socket).min(ccx_per_socket);
        (s0 + s1).max(1)
    }

    /// L3 bytes available to each of `t` threads under the spread-within-
    /// socket placement.
    pub fn l3_share_per_thread(&self, t: usize) -> f64 {
        self.l3_per_ccx_bytes * self.engaged_ccxs(t) as f64 / t as f64
    }

    /// Fraction of threads running on the second socket.
    fn remote_fraction(&self, t: usize) -> f64 {
        t.saturating_sub(self.cores_per_socket) as f64 / t as f64
    }

    /// Aggregate DRAM bandwidth available to `t` compactly placed threads
    /// (B/s): the minimum of per-core demand capability, the engaged CCXs'
    /// fabric links, and the node DRAM ceiling (pages are interleaved
    /// across both sockets on the modelled configuration, so the full-node
    /// ceiling applies regardless of which cores are busy).
    pub fn dram_bw_total(&self, t: usize) -> f64 {
        let node_ceiling = self.bw_socket * self.sockets as f64;
        let ccx_ceiling = self.bw_ccx_cap * self.engaged_ccxs(t) as f64;
        (self.bw_core_stream * t as f64)
            .min(ccx_ceiling)
            .min(node_ceiling)
    }

    /// Effective per-thread bandwidth for a loop whose *shared* working set
    /// is `ws_total` bytes, executed by `t` threads with the given access
    /// pattern.
    ///
    /// DRAM-side bandwidth depends on the pattern:
    /// * streaming — the thread's share of [`Machine::dram_bw_total`];
    /// * gather — `max(single-thread MLP rate, contended rate × t) / t`,
    ///   the empirical EPYC shared-L3-contention curve;
    /// * scatter — streaming share × `scatter_factor` (line-granularity
    ///   read-modify-write).
    ///
    /// If the loop's data is `reused` across an enclosing repeat, the
    /// per-thread slice may become cache resident. LRU re-streaming has a
    /// cliff, not a gradual benefit (a slice even slightly larger than the
    /// cache evicts everything before reuse), so residency ramps from 0 to
    /// 1 as capacity/slice crosses 0.8 → 1.2 — which is exactly what delays
    /// the paper's CG jump to the 96-128-thread range.
    pub fn per_thread_bw(&self, t: usize, ws_total: f64, access: Access, reused: bool) -> f64 {
        let numa = 1.0
            - (1.0 - self.numa_remote_factor)
                * if access == Access::Streaming {
                    0.0
                } else {
                    self.remote_fraction(t)
                };
        let dram_per_thread = match access {
            Access::Gather => {
                let aggregate = (self.bw_gather_contended * t as f64)
                    .max(self.bw_gather_single)
                    .min(self.bw_socket * self.sockets as f64);
                aggregate / t as f64 * numa
            }
            Access::Streaming => self.dram_bw_total(t) / t as f64,
            Access::Scatter => self.dram_bw_total(t) / t as f64 * self.scatter_factor * numa,
        };
        if ws_total <= 0.0 || !reused {
            // Single-pass data streams from DRAM regardless of slice size.
            return dram_per_thread;
        }
        let ws_per_thread = ws_total / t as f64;
        let cache_capacity = self.l2_bytes + self.l3_share_per_thread(t);
        let resident = ((cache_capacity / ws_per_thread - 0.8) / 0.4).clamp(0.0, 1.0);
        let streamed = 1.0 - resident;
        let cache_bw = match access {
            Access::Gather => self.bw_cache_gather,
            _ => self.bw_cache,
        };
        1.0 / (streamed / dram_per_thread + resident / cache_bw)
    }

    /// Fork cost for a `t`-thread region (s).
    pub fn fork_cost(&self, t: usize) -> f64 {
        if t <= 1 {
            0.0
        } else {
            self.fork_base_s + self.fork_per_thread_s * t as f64
        }
    }

    /// Barrier cost for `t` threads (s).
    pub fn barrier_cost(&self, t: usize) -> f64 {
        if t <= 1 {
            0.0
        } else {
            self.barrier_base_s + self.barrier_log_s * (t as f64).log2()
        }
    }

    /// Total dispatch overhead one thread pays to claim `chunks` chunks of
    /// a dynamic/guided loop shared with `t` threads (s).
    ///
    /// * Shared cursor: each grab RMWs the one global cursor line, and on
    ///   average queues behind the other `t - 1` threads doing the same —
    ///   the per-grab cost grows linearly with the team, which is exactly
    ///   the contention the work-stealing refactor removes.
    /// * Work stealing: grabs are served from an owner-private cache
    ///   refilled by one uncontended atomic per [`zomp::schedule::STEAL_BATCH`]
    ///   chunks, plus ~log2(t) contended steal CASes over the whole loop as
    ///   the tail drains.
    ///
    /// A team of one claims its whole loop once under either protocol
    /// (`zomp::schedule`'s serialized-team rule), whatever `chunks` the
    /// clause would cut it into.
    pub fn dispatch_cost(&self, imp: DispatchImpl, t: usize, chunks: u64) -> f64 {
        if t <= 1 {
            return chunks.min(1) as f64 * self.dispatch_chunk_s;
        }
        let n = chunks as f64;
        match imp {
            DispatchImpl::SharedCursor => {
                n * (self.dispatch_chunk_s + self.atomic_op_s * t.saturating_sub(1) as f64)
            }
            DispatchImpl::WorkStealing => {
                let refills = n / zomp::schedule::STEAL_BATCH as f64;
                let steals = if t > 1 { (t as f64).log2() } else { 0.0 };
                refills * self.dispatch_chunk_s + steals * 2.0 * self.atomic_op_s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_matches_paper() {
        let m = Machine::archer2();
        assert_eq!(m.cores(), 128);
        assert_eq!(m.engaged_sockets(64), 1);
        assert_eq!(m.engaged_sockets(65), 2);
        assert_eq!(m.engaged_sockets(128), 2);
        // Spread placement: one CCX per thread up to 16 per socket.
        assert_eq!(m.engaged_ccxs(4), 4);
        assert_eq!(m.engaged_ccxs(16), 16);
        assert_eq!(m.engaged_ccxs(64), 16);
        assert_eq!(m.engaged_ccxs(96), 32);
        assert_eq!(m.engaged_ccxs(128), 32);
    }

    #[test]
    fn l3_share_shrinks_as_sockets_fill() {
        let m = Machine::archer2();
        // A lone thread owns a whole CCX's L3.
        assert!((m.l3_share_per_thread(1) - m.l3_per_ccx_bytes).abs() < 1.0);
        // 64 threads share socket 0's 16 CCXs: l3/4 each.
        assert!((m.l3_share_per_thread(64) - m.l3_per_ccx_bytes / 4.0).abs() < 1.0);
        // 96 threads over 32 CCXs: a *larger* share than at 64 — the
        // mechanism behind the paper's late CG jump.
        assert!(m.l3_share_per_thread(96) > m.l3_share_per_thread(64));
        assert!((m.l3_share_per_thread(128) - m.l3_per_ccx_bytes / 4.0).abs() < 1.0);
    }

    #[test]
    fn dram_bw_grows_with_threads_then_saturates() {
        let m = Machine::archer2();
        // One thread is capped by its CCX's fabric link.
        assert!((m.dram_bw_total(1) - m.bw_ccx_cap).abs() < 1.0);
        // Mid-range: CCX fabric links bind (16 CCXs at 64 threads).
        assert!((m.dram_bw_total(64) - 16.0 * m.bw_ccx_cap).abs() < 1.0);
        // More threads never reduce aggregate bandwidth.
        assert!(m.dram_bw_total(128) >= m.dram_bw_total(64));
        assert!(m.dram_bw_total(128) <= m.sockets as f64 * m.bw_socket + 1.0);
    }

    #[test]
    fn gather_bandwidth_follows_contention_curve() {
        let m = Machine::archer2();
        // Single thread enjoys the exclusive-MLP rate.
        let bw1 = m.per_thread_bw(1, 0.0, Access::Gather, false);
        assert!((bw1 - m.bw_gather_single).abs() < 1.0);
        // Two threads split roughly the same aggregate.
        let bw2 = m.per_thread_bw(2, 0.0, Access::Gather, false);
        assert!((bw2 - m.bw_gather_single / 2.0).abs() < 1.0);
        // Many threads each get the contended rate (one socket: no NUMA).
        let bw16 = m.per_thread_bw(16, 0.0, Access::Gather, false);
        assert!((bw16 - m.bw_gather_contended).abs() < 1.0);
    }

    #[test]
    fn cache_fit_raises_bandwidth_late() {
        let m = Machine::archer2();
        // CG class C matrix: ~400 MB shared working set, reused each
        // CG iteration.
        let ws = 403e6;
        let bw64 = m.per_thread_bw(64, ws, Access::Gather, true);
        let bw96 = m.per_thread_bw(96, ws, Access::Gather, true);
        let bw128 = m.per_thread_bw(128, ws, Access::Gather, true);
        // No residency benefit yet at 64 threads (slice 6.3 MB vs 4.6 MB
        // share) — per-thread bandwidth is the contended floor.
        assert!(bw64 < 1.3 * m.bw_gather_contended, "bw64 = {bw64:e}");
        // The jump arrives in the 96-128 range.
        assert!(bw96 > 2.0 * bw64, "bw96 = {bw96:e} vs bw64 = {bw64:e}");
        assert!(bw128 > 2.0 * bw64, "bw128 = {bw128:e}");
    }

    #[test]
    fn generic_machine_is_usable() {
        let m = Machine::generic(8);
        assert_eq!(m.cores(), 8);
        assert!(m.dram_bw_total(8) <= m.bw_socket + 1.0);
        assert!(m.per_thread_bw(4, 0.0, Access::Streaming, false) > 0.0);
        // Degenerate 1-core machine still works.
        let one = Machine::generic(1);
        assert_eq!(one.cores(), 1);
        assert_eq!(one.engaged_ccxs(1), 1);
    }

    #[test]
    fn sync_costs_grow_with_team() {
        let m = Machine::archer2();
        assert_eq!(m.fork_cost(1), 0.0);
        assert!(m.fork_cost(128) > m.fork_cost(2));
        assert!(m.barrier_cost(128) > m.barrier_cost(2));
    }

    #[test]
    fn shared_cursor_dispatch_degrades_with_contention() {
        let m = Machine::archer2();
        let c2 = m.dispatch_cost(DispatchImpl::SharedCursor, 2, 1000);
        let c4 = m.dispatch_cost(DispatchImpl::SharedCursor, 4, 1000);
        let c128 = m.dispatch_cost(DispatchImpl::SharedCursor, 128, 1000);
        assert!(c4 > c2);
        assert!(c128 > 10.0 * c4, "c128 = {c128:e} vs c4 = {c4:e}");
    }

    #[test]
    fn work_stealing_dispatch_stays_near_flat() {
        let m = Machine::archer2();
        let s2 = m.dispatch_cost(DispatchImpl::WorkStealing, 2, 1000);
        let s128 = m.dispatch_cost(DispatchImpl::WorkStealing, 128, 1000);
        // Team size adds only the tail-steal term, not a per-chunk factor.
        assert!(s128 < 1.1 * s2, "s128 = {s128:e} vs s2 = {s2:e}");
        // A team of one pays one claim, under either protocol.
        for imp in [DispatchImpl::WorkStealing, DispatchImpl::SharedCursor] {
            assert_eq!(m.dispatch_cost(imp, 1, 1000), m.dispatch_chunk_s);
            assert_eq!(m.dispatch_cost(imp, 1, 0), 0.0);
        }
    }

    #[test]
    fn work_stealing_dispatch_at_least_twice_as_cheap_at_four_threads() {
        // Mirrors the runtime acceptance target: >= 2x chunk throughput at
        // 4 threads over the shared cursor.
        let m = Machine::archer2();
        let legacy = m.dispatch_cost(DispatchImpl::SharedCursor, 4, 1000);
        let steal = m.dispatch_cost(DispatchImpl::WorkStealing, 4, 1000);
        assert!(legacy > 2.0 * steal, "legacy {legacy:e} vs steal {steal:e}");
    }
}
