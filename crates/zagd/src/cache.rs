//! The compiled-program cache: parse/lint/compile once, run many.
//!
//! Keys are the FNV-1a hashes of the source text and of the compilation
//! unit name together with the optimization level
//! — the inputs that change a compiled [`Program`]: the unit is in every
//! pragma's `unit:line` label, the backend is not an input at all
//! (`compile_opt` never sees it; it only picks the level, and chooses the
//! engine at run time). The hashes only *find* an entry: it is served when
//! the source and unit it was compiled from equal the request's, so a
//! collision — 64-bit FNV-1a collisions can be crafted —
//! costs a recompile, never another program's image. Values are
//! `Arc<Program>`: the VM executes a program immutably, so one cached
//! compilation can back any number of concurrent [`zomp_vm::Vm`]
//! instances.

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
    unit: u64,
    opt: OptLevel,
}

impl Key {
    fn of(source: &str, unit: Option<&str>, opt: OptLevel) -> Key {
        Key {
            hash: fnv1a(source.as_bytes()),
            unit: fnv1a(unit.unwrap_or("").as_bytes()),
            opt,
        }
    }
}

/// What a key maps to: the program, and the unit it was compiled under
/// (the source is on the program).
struct Entry {
    program: Arc<Program>,
    unit: Option<String>,
}

/// A bounded map of compiled programs with hit/miss accounting.
pub struct ProgramCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    cap: usize,
}

struct Inner {
    map: HashMap<Key, Entry>,
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

    /// Look up `source` compiled under `unit` at the level `(backend, opt)`
    /// names, compiling on a miss. Returns the shared program and whether
    /// it was served from cache. Compile failures are not cached: they are
    /// cheap to reproduce (the pipeline bails at the first error) and a
    /// negative entry would pin request-supplied garbage in memory.
    pub fn get_or_compile(
        &self,
        source: &str,
        unit: Option<&str>,
        backend: Backend,
        opt: OptLevel,
    ) -> Result<(Arc<Program>, bool), zomp_front::Diag> {
        // The backend only picks the level (`native` pins --opt=3); the
        // three of them share one entry per level.
        let opt = backend.opt_level(opt);
        let key = Key::of(source, unit, opt);
        if let Some(e) = self.inner.lock().unwrap().map.get(&key) {
            if e.program.original_source == source && e.unit.as_deref() == unit {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&e.program), true));
            }
        }
        // Compile outside the lock: a slow compilation must not stall
        // cache hits for other requests. Two racing misses on the same
        // key both compile; the second insert simply replaces the first
        // (as does a colliding program's).
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
        let entry = Entry {
            program: Arc::clone(&program),
            unit: unit.map(str::to_string),
        };
        inner.map.insert(key, entry);
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
    fn opt_is_part_of_the_key_and_backend_is_not() {
        let cache = ProgramCache::new(8);
        let (o0, _) = cache
            .get_or_compile(PROG, None, Backend::Bytecode, OptLevel::O0)
            .unwrap();
        let (o3, cached) = cache
            .get_or_compile(PROG, None, Backend::Bytecode, OptLevel::O3)
            .unwrap();
        assert!(!cached, "different opt level must recompile");
        // `compile_opt` never sees the backend: one image per level serves
        // them all.
        for (backend, opt, want) in [
            (Backend::Ast, OptLevel::O0, &o0),
            (Backend::Ast, OptLevel::O3, &o3),
            (Backend::Native, OptLevel::O3, &o3),
        ] {
            let (p, cached) = cache.get_or_compile(PROG, None, backend, opt).unwrap();
            assert!(cached && Arc::ptr_eq(&p, want), "{backend:?} {opt:?}");
        }
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn native_backend_normalizes_to_o3() {
        let cache = ProgramCache::new(8);
        cache
            .get_or_compile(PROG, None, Backend::Native, OptLevel::O0)
            .unwrap();
        let (p, cached) = cache
            .get_or_compile(PROG, None, Backend::Native, OptLevel::O3)
            .unwrap();
        assert!(cached, "native always compiles at O3; both keys match");
        assert_eq!(p.opt, OptLevel::O3);
    }

    /// The pragma label of `p`'s one parallel region, from its `fork_call`.
    fn region_label(p: &Program) -> String {
        let at = p.final_source.find(".zag:").expect("a unit:line label");
        let start = p.final_source[..at].rfind('"').unwrap() + 1;
        let end = at + p.final_source[at..].find('"').unwrap();
        p.final_source[start..end].to_string()
    }

    #[test]
    fn same_source_under_two_units_is_two_entries_with_their_own_labels() {
        const REGION: &str =
            "fn main() void {\n    //$omp parallel num_threads(2)\n    {\n        print(1);\n    }\n}\n";
        let cache = ProgramCache::new(8);
        for round in 0..2 {
            for unit in ["a.zag", "b.zag"] {
                let (p, cached) = cache
                    .get_or_compile(REGION, Some(unit), Backend::Bytecode, OptLevel::O3)
                    .unwrap();
                assert_eq!(cached, round == 1, "{unit}, round {round}");
                assert_eq!(region_label(&p), format!("{unit}:2"));
            }
        }
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn a_hash_collision_is_a_miss_not_another_programs_image() {
        const OTHER: &str = "fn main() void {\n    print(2 + 1);\n}\n";
        let cache = ProgramCache::new(8);
        // Forge the collision: `OTHER`'s image filed under `PROG`'s key.
        let forged = Entry {
            program: Arc::new(zomp_vm::compile_opt(OTHER, None, OptLevel::O3).unwrap()),
            unit: None,
        };
        let key = Key::of(PROG, None, OptLevel::O3);
        {
            let mut inner = cache.inner.lock().unwrap();
            inner.map.insert(key, forged);
            inner.order.push_back(key);
        }
        let (p, cached) = cache
            .get_or_compile(PROG, None, Backend::Bytecode, OptLevel::O3)
            .unwrap();
        assert!(!cached);
        assert_eq!(p.original_source, PROG);
        // The right program replaced the forged entry in place.
        let (_, cached) = cache
            .get_or_compile(PROG, None, Backend::Bytecode, OptLevel::O3)
            .unwrap();
        assert!(cached);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn evicts_fifo_at_capacity() {
        let cache = ProgramCache::new(2);
        let progs: Vec<String> = (0..3)
            .map(|i| format!("fn main() void {{\n    print({i});\n}}\n"))
            .collect();
        for p in &progs {
            cache
                .get_or_compile(p, None, Backend::Bytecode, OptLevel::default())
                .unwrap();
        }
        assert_eq!(cache.entries(), 2);
        // The oldest entry was evicted; looking it up recompiles.
        let (_, cached) = cache
            .get_or_compile(&progs[0], None, Backend::Bytecode, OptLevel::default())
            .unwrap();
        assert!(!cached);
        // The newest survived.
        let (_, cached) = cache
            .get_or_compile(&progs[2], None, Backend::Bytecode, OptLevel::default())
            .unwrap();
        assert!(cached);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = ProgramCache::new(8);
        let bad = "fn main() void {\n    print(;\n}\n";
        assert!(cache
            .get_or_compile(bad, None, Backend::Bytecode, OptLevel::default())
            .is_err());
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.misses(), 0, "failures do not count as misses");
    }
}
