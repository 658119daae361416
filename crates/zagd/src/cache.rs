//! The compiled-program cache: parse/lint/compile once, run many.
//!
//! Keys are the FNV-1a hash of the source text (plus its length, making
//! accidental collisions need both a hash and a length match) together
//! with the optimization level and backend — the only inputs that change
//! the compiled image. Values are `Arc<Program>`: the VM executes a
//! program immutably, so one cached compilation can back any number of
//! concurrent [`zomp_vm::Vm`] instances.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zomp_vm::{Backend, OptLevel, Program};

/// FNV-1a over the source bytes: tiny, dependency-free, and stable across
/// processes (usable in logs and the `/stats` endpoint).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    hash: u64,
    len: usize,
    opt: OptLevel,
    backend: Backend,
}

/// A bounded map of compiled programs with hit/miss accounting.
pub struct ProgramCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    cap: usize,
}

struct Inner {
    map: HashMap<Key, Arc<Program>>,
    /// Insertion order for FIFO eviction when the cache is full.
    order: VecDeque<Key>,
}

impl ProgramCache {
    pub fn new(cap: usize) -> ProgramCache {
        ProgramCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cap: cap.max(1),
        }
    }

    /// Look up `source` compiled at `(backend, opt)`, compiling on a miss.
    /// Returns the shared program and whether it was served from cache.
    /// Compile failures are not cached: they are cheap to reproduce (the
    /// pipeline bails at the first error) and a negative entry would pin
    /// request-supplied garbage in memory.
    pub fn get_or_compile(
        &self,
        source: &str,
        unit: Option<&str>,
        backend: Backend,
        opt: OptLevel,
    ) -> Result<(Arc<Program>, bool), zomp_front::Diag> {
        // The native backend pins the image to --opt=3, so `native/O2` and
        // `native/O3` share one entry.
        let opt = backend.opt_level(opt);
        let key = Key {
            hash: fnv1a(source.as_bytes()),
            len: source.len(),
            opt,
            backend,
        };
        if let Some(p) = self.inner.lock().unwrap().map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(p), true));
        }
        // Compile outside the lock: a slow compilation must not stall
        // cache hits for other requests. Two racing misses on the same
        // key both compile; the second insert simply replaces the first.
        let program = Arc::new(zomp_vm::compile_opt(source, unit, opt)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        if !inner.map.contains_key(&key) {
            while inner.map.len() >= self.cap {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                } else {
                    break;
                }
            }
            inner.order.push_back(key);
        }
        inner.map.insert(key, Arc::clone(&program));
        Ok((program, false))
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn entries(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Hits as a fraction of all lookups (0.0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "fn main() void {\n    print(1 + 2);\n}\n";

    #[test]
    fn second_lookup_hits() {
        let cache = ProgramCache::new(8);
        let (p1, cached1) = cache
            .get_or_compile(PROG, None, Backend::Bytecode, OptLevel::O3)
            .unwrap();
        let (p2, cached2) = cache
            .get_or_compile(PROG, None, Backend::Bytecode, OptLevel::O3)
            .unwrap();
        assert!(!cached1);
        assert!(cached2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn opt_and_backend_are_part_of_the_key() {
        let cache = ProgramCache::new(8);
        cache
            .get_or_compile(PROG, None, Backend::Bytecode, OptLevel::O0)
            .unwrap();
        let (_, cached) = cache
            .get_or_compile(PROG, None, Backend::Bytecode, OptLevel::O3)
            .unwrap();
        assert!(!cached, "different opt level must recompile");
        let (_, cached) = cache
            .get_or_compile(PROG, None, Backend::Ast, OptLevel::O0)
            .unwrap();
        assert!(!cached, "different backend must recompile");
        assert_eq!(cache.entries(), 3);
    }

    #[test]
    fn native_backend_normalizes_to_o3() {
        let cache = ProgramCache::new(8);
        cache
            .get_or_compile(PROG, None, Backend::Native, OptLevel::O2)
            .unwrap();
        let (_, cached) = cache
            .get_or_compile(PROG, None, Backend::Native, OptLevel::O3)
            .unwrap();
        assert!(cached, "native always compiles at O3; both keys match");
    }

    #[test]
    fn evicts_fifo_at_capacity() {
        let cache = ProgramCache::new(2);
        let progs: Vec<String> = (0..3)
            .map(|i| format!("fn main() void {{\n    print({i});\n}}\n"))
            .collect();
        for p in &progs {
            cache
                .get_or_compile(p, None, Backend::Bytecode, OptLevel::O2)
                .unwrap();
        }
        assert_eq!(cache.entries(), 2);
        // The oldest entry was evicted; looking it up recompiles.
        let (_, cached) = cache
            .get_or_compile(&progs[0], None, Backend::Bytecode, OptLevel::O2)
            .unwrap();
        assert!(!cached);
        // The newest survived.
        let (_, cached) = cache
            .get_or_compile(&progs[2], None, Backend::Bytecode, OptLevel::O2)
            .unwrap();
        assert!(cached);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = ProgramCache::new(8);
        let bad = "fn main() void {\n    print(;\n}\n";
        assert!(cache
            .get_or_compile(bad, None, Backend::Bytecode, OptLevel::O2)
            .is_err());
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.misses(), 0, "failures do not count as misses");
    }
}
