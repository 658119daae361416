//! Team barriers.
//!
//! Every parallel region carries an implicit barrier at its end, every
//! worksharing loop without `nowait` carries one too, and the programmer can
//! insert explicit ones (`omp barrier`).
//!
//! Two implementations sit behind [`Barrier`], selected by team size:
//!
//! * **Central** (small teams): a generation-counting central barrier
//!   (equivalent to the classic sense-reversing design, with the generation
//!   counter playing the role of the sense flag). All arrivals hit one
//!   atomic counter — cheapest possible at low thread counts.
//! * **Tree** (teams above [`TREE_THRESHOLD`]): a combining tree with fan-in
//!   [`TREE_FANIN`] and cache-line-padded per-node arrival counters. Each
//!   thread contends only with its ≤ 4 siblings instead of the whole team,
//!   turning the O(n)-contention central counter into O(log₄ n) quiet
//!   levels.
//!
//! Both spin briefly and then block on a condition variable — appropriate
//! for dedicated cores (spin wins) and for the oversubscribed case
//! (blocking avoids burning the timeslice).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::pad::CachePadded;

/// How many pause/yield rounds to spin before blocking. Kept deliberately
/// small: on an oversubscribed host (more threads than cores) long spins are
/// pure waste.
const SPIN_ROUNDS: usize = 64;

/// Combining-tree fan-in: each node accepts at most this many arrivals.
/// 4 keeps the tree shallow (log₄) while each node's counter stays
/// low-contention; libomp's hyper barrier uses branching factors in the
/// same 2–8 range.
const TREE_FANIN: usize = 4;

/// Teams up to this size use the central barrier: with few threads the
/// single counter is both cheaper and simpler, and a tree of ≤ 2 levels
/// would add pure overhead.
const TREE_THRESHOLD: usize = 8;

/// A wait that ended because the barrier was [poisoned](Barrier::poison),
/// not because the team arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

/// A reusable barrier for a fixed-size team.
///
/// [`Barrier::wait_as`] is the hot entry point (the caller supplies its team
/// id, letting the tree route it to its leaf without shared state);
/// [`Barrier::wait`] keeps the id-less API by handing out arrival tickets
/// from one extra atomic.
///
/// A thread that will never arrive (it failed) [poisons](Barrier::poison)
/// the barrier instead: whoever is waiting, or arrives later and would
/// have to wait, is let go with `Err(Poisoned)`. Poison is for good — a
/// team is built per region — and only waiting looks at it: the arrival
/// path is what it was.
#[derive(Debug)]
pub struct Barrier {
    n: usize,
    /// Ticket dispenser for the id-less [`Barrier::wait`] entry point.
    tickets: AtomicU64,
    core: BarrierCore,
}

/// What every waiter of one barrier watches: the generation word its
/// last arriver bumps, the poison flag, and the condvar both signal.
#[derive(Debug)]
struct Release {
    generation: AtomicU64,
    poisoned: AtomicBool,
    mutex: Mutex<()>,
    cvar: Condvar,
}

impl Release {
    fn new() -> Self {
        Release {
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            mutex: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    /// Last arriver: open the next generation and wake the parked.
    fn open(&self) {
        let _g = self.mutex.lock();
        // Release: publishes the whole team's cycle (including the
        // arrival-counter resets) to the waiters' acquire loads.
        self.generation.fetch_add(1, Ordering::Release);
        self.cvar.notify_all();
    }

    fn poison(&self) {
        // Taken so a waiter between its last check and its park cannot
        // miss the wake-up.
        let _g = self.mutex.lock();
        // Release/Acquire with `wait`: what the failed thread wrote
        // before poisoning (its error) is visible to whoever it lets go.
        self.poisoned.store(true, Ordering::Release);
        self.cvar.notify_all();
    }

    /// Not the last arriver: spin, then park, until generation `gen` is
    /// over or the barrier is poisoned. The poison flag is read only
    /// here, on the waiting side — an arrival that completes the barrier
    /// never looks at it.
    fn wait(&self, gen: u64) -> Waited {
        let released = || self.generation.load(Ordering::Acquire) != gen;
        let done = || released() || self.poisoned.load(Ordering::Acquire);
        let parked = !spin(done);
        if parked {
            let mut g = self.mutex.lock();
            while !done() {
                self.cvar.wait(&mut g);
            }
        }
        // A generation that did advance was a real barrier, whatever
        // happened since; the next wait reports the poison.
        Waited {
            parked,
            released: released(),
        }
    }
}

/// How a wait that was not the last arrival ended.
struct Waited {
    /// It gave up spinning and parked on the condvar.
    parked: bool,
    /// The team arrived (`false`: let go by poison).
    released: bool,
}

#[derive(Debug)]
enum BarrierCore {
    Central(CentralBarrier),
    Tree(TreeBarrier),
}

impl Barrier {
    /// Barrier for `n` threads. `n == 0` is treated as 1. Teams larger than
    /// [`TREE_THRESHOLD`] get the combining-tree implementation.
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        let core = if n <= TREE_THRESHOLD {
            BarrierCore::Central(CentralBarrier::new(n))
        } else {
            BarrierCore::Tree(TreeBarrier::new(n))
        };
        Barrier {
            n,
            tickets: AtomicU64::new(0),
            core,
        }
    }

    /// Force the central implementation regardless of team size — for
    /// benchmarking the crossover; [`Barrier::new`] is the production entry.
    pub fn new_central(n: usize) -> Self {
        let n = n.max(1);
        Barrier {
            n,
            tickets: AtomicU64::new(0),
            core: BarrierCore::Central(CentralBarrier::new(n)),
        }
    }

    /// Force the combining-tree implementation regardless of team size —
    /// for benchmarking the crossover.
    pub fn new_tree(n: usize) -> Self {
        let n = n.max(1);
        Barrier {
            n,
            tickets: AtomicU64::new(0),
            core: BarrierCore::Tree(TreeBarrier::new(n)),
        }
    }

    /// Team size this barrier synchronises.
    pub fn team_size(&self) -> usize {
        self.n
    }

    /// Block until all `n` threads have arrived, as team thread `tid`
    /// (`tid < n`, each id arriving exactly once per cycle). Returns
    /// `Ok(true)` in exactly one thread per cycle (the overall last
    /// arriver), mirroring `std::sync::Barrier`'s leader flag, and
    /// `Err(Poisoned)` when the wait was cut short by [`Barrier::poison`].
    pub fn wait_as(&self, tid: usize) -> Result<bool, Poisoned> {
        if self.n == 1 {
            return Ok(true);
        }
        let t0 = crate::trace::barrier_begin();
        // `None`: this thread arrived last and waited for nobody.
        let waited = match &self.core {
            BarrierCore::Central(c) => c.wait(),
            BarrierCore::Tree(t) => t.wait(tid),
        };
        crate::trace::barrier_end(t0, waited.as_ref().is_some_and(|w| w.parked));
        match waited {
            None => Ok(true),
            Some(w) if w.released => Ok(false),
            Some(_) => Err(Poisoned),
        }
    }

    /// Let go of every thread waiting here now or later: a teammate
    /// failed and will not arrive.
    pub fn poison(&self) {
        self.release().poison();
    }

    /// Has [`Barrier::poison`] been called? For the runtime's other
    /// team-wide waits, which have no barrier to be let go from.
    pub fn is_poisoned(&self) -> bool {
        self.release().poisoned.load(Ordering::Acquire)
    }

    fn release(&self) -> &Release {
        match &self.core {
            BarrierCore::Central(c) => &c.release,
            BarrierCore::Tree(t) => &t.release,
        }
    }

    /// Id-less [`Barrier::wait_as`]: derives a per-cycle id from an arrival
    /// ticket. Tickets can't tangle across cycles — a thread cannot start
    /// cycle `k+1` before all `n` tickets of cycle `k` were claimed.
    pub fn wait(&self) -> Result<bool, Poisoned> {
        if self.n == 1 {
            return Ok(true);
        }
        // Relaxed: the ticket value itself is the only payload, and the
        // barrier's own acquire/release edges order everything else.
        let ticket = self.tickets.fetch_add(1, Ordering::Relaxed) as usize % self.n;
        self.wait_as(ticket)
    }
}

/// Generation-counting central barrier (one shared arrival counter).
#[derive(Debug)]
struct CentralBarrier {
    n: usize,
    arrived: AtomicUsize,
    release: Release,
}

impl CentralBarrier {
    fn new(n: usize) -> Self {
        CentralBarrier {
            n,
            arrived: AtomicUsize::new(0),
            release: Release::new(),
        }
    }

    /// `None` for the releasing last arriver; for everyone else the
    /// outcome of its [`Release::wait`].
    fn wait(&self) -> Option<Waited> {
        let gen = self.release.generation.load(Ordering::Acquire);
        // AcqRel: the last arriver's read end of this RMW pulls in every
        // earlier thread's pre-barrier writes; the write end publishes ours.
        let pos = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if pos == self.n {
            // Last arriver: reset the counter for the next cycle *before*
            // releasing the others (they cannot re-arrive until the
            // generation advances).
            self.arrived.store(0, Ordering::Release);
            self.release.open();
            None
        } else {
            Some(self.release.wait(gen))
        }
    }
}

/// One combining-tree node: an arrival counter expecting `expect` children
/// (threads at leaves, child nodes above), padded to its own cache line so
/// sibling nodes never false-share.
#[derive(Debug)]
struct TreeNode {
    arrived: AtomicUsize,
    expect: usize,
    /// Parent node index, or `None` for the root.
    parent: Option<usize>,
}

/// Combining-tree barrier: leaves fan threads in groups of [`TREE_FANIN`];
/// the last arriver of each node resets it and ascends. The root's last
/// arriver bumps the (single) generation word that all waiters watch.
///
/// Waiting on one global generation instead of per-node flags keeps the
/// release broadcast a single store + notify; the contention win of the
/// tree is on the *arrival* side, which is where every thread writes.
#[derive(Debug)]
struct TreeBarrier {
    nodes: Box<[CachePadded<TreeNode>]>,
    /// Leaf node index of each team thread.
    leaf_of: Box<[usize]>,
    release: Release,
}

impl TreeBarrier {
    fn new(n: usize) -> Self {
        debug_assert!(n > 1);
        // Build level by level: level 0 nodes group threads, higher levels
        // group the nodes below. `widths[l]` = element count entering level l.
        let mut nodes: Vec<CachePadded<TreeNode>> = Vec::new();
        let mut level_start = Vec::new(); // first node index of each level
        let mut width = n; // elements feeding the current level
        while width > 1 {
            level_start.push(nodes.len());
            let groups = width.div_ceil(TREE_FANIN);
            for g in 0..groups {
                let expect = TREE_FANIN.min(width - g * TREE_FANIN);
                nodes.push(CachePadded::new(TreeNode {
                    arrived: AtomicUsize::new(0),
                    expect,
                    parent: None, // patched below
                }));
            }
            width = groups;
        }
        // Patch parents: node `g` of level `l` is child `g % FANIN` of node
        // `g / FANIN` in level `l + 1`.
        for l in 0..level_start.len().saturating_sub(1) {
            let (start, next) = (level_start[l], level_start[l + 1]);
            let count = next - start;
            for g in 0..count {
                nodes[start + g].parent = Some(next + g / TREE_FANIN);
            }
        }
        let leaf_of = (0..n).map(|tid| tid / TREE_FANIN).collect();
        TreeBarrier {
            nodes: nodes.into_boxed_slice(),
            leaf_of,
            release: Release::new(),
        }
    }

    /// See [`CentralBarrier::wait`].
    fn wait(&self, tid: usize) -> Option<Waited> {
        let gen = self.release.generation.load(Ordering::Acquire);
        let mut node = self.leaf_of[tid];
        loop {
            let nd = &self.nodes[node];
            // AcqRel: the node's last arriver reads (acquires) every
            // sibling's pre-barrier writes through this counter's release
            // sequence, then carries them upward with its own write end.
            let pos = nd.arrived.fetch_add(1, Ordering::AcqRel) + 1;
            if pos < nd.expect {
                // Not last at this node: wait for the root release.
                return Some(self.release.wait(gen));
            }
            // Last arriver: reset for the next cycle, then ascend. Relaxed
            // is enough — the reset is published to next-cycle arrivers by
            // the release chain through the parent counters and the
            // generation word (no thread re-arrives before acquiring those).
            nd.arrived.store(0, Ordering::Relaxed);
            match nd.parent {
                Some(p) => node = p,
                None => {
                    self.release.open();
                    return None;
                }
            }
        }
    }
}

/// Poll `done` for up to [`SPIN_ROUNDS`] pause/yield rounds; `false` means
/// the caller should stop burning its timeslice and park — the
/// spin-vs-park transition the observability counters report.
fn spin(done: impl Fn() -> bool) -> bool {
    for _ in 0..SPIN_ROUNDS {
        if done() {
            return true;
        }
        std::hint::spin_loop();
        std::thread::yield_now();
    }
    false
}

/// A one-shot countdown latch used for region join: the master waits until
/// every worker has finished executing the outlined function.
#[derive(Debug)]
pub struct Latch {
    remaining: AtomicUsize,
    mutex: Mutex<()>,
    cvar: Condvar,
}

impl Latch {
    pub fn new(count: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(count),
            mutex: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    /// Signal one completion.
    pub fn count_down(&self) {
        // AcqRel: the final count-down collects every worker's writes so
        // the waiter's acquire load sees the fully joined region.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.mutex.lock();
            self.cvar.notify_all();
        }
    }

    /// Block until the count reaches zero.
    pub fn wait(&self) {
        let done = || self.remaining.load(Ordering::Acquire) == 0;
        if !spin(done) {
            let mut g = self.mutex.lock();
            while !done() {
                self.cvar.wait(&mut g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_thread_barrier_is_noop() {
        let b = Barrier::new(1);
        assert_eq!(b.wait(), Ok(true));
        assert_eq!(b.wait(), Ok(true));
    }

    #[test]
    fn small_teams_use_central_large_use_tree() {
        assert!(matches!(Barrier::new(8).core, BarrierCore::Central(_)));
        assert!(matches!(Barrier::new(9).core, BarrierCore::Tree(_)));
    }

    #[test]
    fn tree_shape_fan_in_4() {
        // 16 threads: 4 leaves + 1 root.
        let t = TreeBarrier::new(16);
        assert_eq!(t.nodes.len(), 5);
        assert!(t.nodes[..4].iter().all(|n| n.expect == 4));
        assert_eq!(t.nodes[4].expect, 4);
        assert!(t.nodes[4].parent.is_none());
        assert!(t.nodes[..4].iter().all(|n| n.parent == Some(4)));
        // 13 threads: leaves expect 4,4,4,1; root expects 4.
        let t = TreeBarrier::new(13);
        assert_eq!(t.nodes.len(), 5);
        assert_eq!(
            t.nodes[..4].iter().map(|n| n.expect).collect::<Vec<_>>(),
            vec![4, 4, 4, 1]
        );
        // 100 threads: 25 leaves, 7 mid nodes, 2 upper, 1 root.
        let t = TreeBarrier::new(100);
        assert_eq!(t.nodes.len(), 25 + 7 + 2 + 1);
    }

    fn exercise_barrier(n: usize, phases: usize) {
        let b = Barrier::new(n);
        let counters: Vec<AtomicUsize> = (0..phases).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for tid in 0..n {
                let b = &b;
                let counters = &counters;
                s.spawn(move || {
                    for counter in counters.iter() {
                        counter.fetch_add(1, Ordering::SeqCst);
                        b.wait_as(tid).unwrap();
                        assert_eq!(counter.load(Ordering::SeqCst), n);
                        b.wait_as(tid).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn barrier_synchronises_phases() {
        exercise_barrier(4, 20);
    }

    #[test]
    fn tree_barrier_synchronises_phases() {
        // Above TREE_THRESHOLD: exercises multi-level arrival and reset.
        exercise_barrier(16, 10);
        exercise_barrier(13, 10);
    }

    fn count_leaders(n: usize, cycles: usize) -> usize {
        let b = Barrier::new(n);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for tid in 0..n {
                let b = &b;
                let leaders = &leaders;
                s.spawn(move || {
                    for _ in 0..cycles {
                        if b.wait_as(tid).unwrap() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        leaders.load(Ordering::SeqCst)
    }

    #[test]
    fn exactly_one_leader_per_cycle() {
        assert_eq!(count_leaders(8, 50), 50);
    }

    #[test]
    fn tree_exactly_one_leader_per_cycle() {
        assert_eq!(count_leaders(12, 30), 30);
    }

    #[test]
    fn ticketed_wait_still_works() {
        // The id-less entry point on a tree-sized team.
        const N: usize = 10;
        let b = Barrier::new(N);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..N {
                let b = &b;
                let hits = &hits;
                s.spawn(move || {
                    for _ in 0..5 {
                        hits.fetch_add(1, Ordering::SeqCst);
                        b.wait().unwrap();
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), N * 5);
    }

    /// One thread of the team never arrives and poisons instead: the
    /// others are let go with `Poisoned`, whether they were already
    /// waiting (spinning or parked) or arrive afterwards. Central and
    /// tree alike.
    #[test]
    fn poison_lets_waiters_go_now_and_later() {
        for n in [3usize, 12] {
            let b = Barrier::new(n);
            let (waiting_tx, waiting_rx) = std::sync::mpsc::channel();
            std::thread::scope(|s| {
                // All but the failing thread and one late-comer wait now.
                for tid in 2..n {
                    let (b, tx) = (&b, waiting_tx.clone());
                    s.spawn(move || {
                        tx.send(()).unwrap();
                        assert_eq!(b.wait_as(tid), Err(Poisoned));
                    });
                }
                for _ in 2..n {
                    waiting_rx.recv().unwrap();
                }
                assert!(!b.is_poisoned());
                b.poison();
            });
            assert!(b.is_poisoned());
            assert_eq!(b.wait_as(1), Err(Poisoned), "team of {n}, late arrival");
        }
    }

    /// A barrier the whole team reached stays a real one even if the
    /// poison lands before a waiter has looked: only the next wait
    /// reports it.
    #[test]
    fn completed_generation_wins_over_poison() {
        let r = Release::new();
        r.open();
        r.poison();
        assert!(r.wait(0).released);
        assert!(!r.wait(1).released);
    }

    #[test]
    fn latch_releases_waiter() {
        let l = Latch::new(3);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| l.count_down());
            }
            l.wait();
        });
    }

    #[test]
    fn latch_zero_is_immediate() {
        Latch::new(0).wait();
    }
}
