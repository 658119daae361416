//! Workload `runtime_fine`: `zomp` used the opposite way from
//! `npb_native` — thousands of forks and chunk-at-a-time claims instead
//! of one fork and whole-batch claims — so a dispatch or barrier change
//! that helps one style and costs the other shows as one workload up and
//! one down.

use std::sync::Arc;

use zomp_vm::value::{ArrI, Value};
use zomp_vm::Vm;

use crate::programs::{CHUNK1, FORK_SMALL};
use crate::stats::{Digest, Rng};
use crate::workload::{arr_i, ast_vm, native_vm, Kind, Sizes, Tier, VmWorkload};

pub fn setup(seed: u64, sizes: &Sizes) -> VmWorkload {
    let mut digest = Digest::default();
    let kinds: Vec<Box<dyn Kind>> = vec![
        Box::new(ForkSmall::new(seed, sizes, &mut digest)),
        Box::new(Chunk1::new(seed, sizes, &mut digest)),
    ];
    VmWorkload::new(kinds, digest.value())
}

fn seeded_ints(seed: u64, salt: &str, n: usize, digest: &mut Digest) -> Arc<ArrI> {
    let mut rng = Rng::new(seed, salt);
    let x: Vec<i64> = (0..n).map(|_| rng.below(1000) as i64).collect();
    digest.u64s(x.iter().map(|&v| v as u64));
    arr_i(&x)
}

struct ForkSmall {
    vm: Vm,
    x: Arc<ArrI>,
    regions: i64,
    expected: [i64; 2],
}

impl ForkSmall {
    fn new(seed: u64, sizes: &Sizes, digest: &mut Digest) -> ForkSmall {
        ForkSmall {
            vm: native_vm(FORK_SMALL, "fork_small.zag"),
            x: seeded_ints(seed, "fork_small", 64, digest),
            regions: sizes.fork_regions,
            expected: [0; 2],
        }
    }
}

impl Kind for ForkSmall {
    fn name(&self) -> &'static str {
        "fork_small"
    }
    fn elems(&self) -> u64 {
        self.regions as u64
    }
    fn tier(&self) -> Tier {
        Tier::Any
    }
    fn source(&self) -> (&'static str, &str) {
        ("fork_small.zag", FORK_SMALL)
    }
    fn vm(&self) -> &Vm {
        &self.vm
    }
    fn entry(&self) -> &'static str {
        "fork_small"
    }
    fn args(&self, threads: usize) -> Vec<Value> {
        vec![
            Value::ArrI(Arc::clone(&self.x)),
            Value::Int(self.regions),
            Value::Int(threads as i64),
        ]
    }
    fn compute_reference(&mut self) {
        let oracle = ast_vm(FORK_SMALL, "fork_small.zag");
        for threads in [1, 2] {
            self.expected[threads - 1] = oracle
                .call_function("fork_small", self.args(threads))
                .and_then(|v| v.as_int())
                .expect("tree-walker runs fork_small");
        }
    }
    fn check(&self, threads: usize, ret: &Value) -> Result<(), String> {
        let got = ret.as_int().map_err(|e| e.to_string())?;
        if got == self.expected[threads - 1] {
            Ok(())
        } else {
            Err(format!("total {got} differs from the tree-walker's"))
        }
    }
}

struct Chunk1 {
    vm: Vm,
    x: Arc<ArrI>,
    n: i64,
    rounds: i64,
    /// `out[0]` counts `single` executions, `out[1]` is the `critical`
    /// ticket (one per thread per round).
    out: Arc<ArrI>,
    /// `(sum, out[0], out[1])` per team size.
    expected: [(i64, i64, i64); 2],
}

impl Chunk1 {
    fn new(seed: u64, sizes: &Sizes, digest: &mut Digest) -> Chunk1 {
        Chunk1 {
            vm: native_vm(CHUNK1, "chunk1.zag"),
            x: seeded_ints(seed, "chunk1", sizes.chunk_n, digest),
            n: sizes.chunk_n as i64,
            rounds: sizes.chunk_rounds,
            out: Arc::new(ArrI::new(2)),
            expected: [(0, 0, 0); 2],
        }
    }

    fn call_args(&self, out: &Arc<ArrI>, threads: usize) -> Vec<Value> {
        vec![
            Value::ArrI(Arc::clone(&self.x)),
            Value::Int(self.n),
            Value::Int(self.rounds),
            Value::ArrI(Arc::clone(out)),
            Value::Int(threads as i64),
        ]
    }

    fn observe(out: &ArrI, ret: &Value) -> Result<(i64, i64, i64), String> {
        let get = |i| out.get(i).map_err(|e| e.to_string());
        Ok((ret.as_int().map_err(|e| e.to_string())?, get(0)?, get(1)?))
    }
}

impl Kind for Chunk1 {
    fn name(&self) -> &'static str {
        "chunk1"
    }
    fn elems(&self) -> u64 {
        self.n as u64
    }
    fn tier(&self) -> Tier {
        Tier::Any
    }
    fn source(&self) -> (&'static str, &str) {
        ("chunk1.zag", CHUNK1)
    }
    fn vm(&self) -> &Vm {
        &self.vm
    }
    fn entry(&self) -> &'static str {
        "chunk1"
    }
    fn args(&self, threads: usize) -> Vec<Value> {
        for i in 0..2 {
            self.out.set(i, 0).expect("index within out");
        }
        self.call_args(&self.out, threads)
    }
    fn compute_reference(&mut self) {
        let oracle = ast_vm(CHUNK1, "chunk1.zag");
        for threads in [1, 2] {
            let out = Arc::new(ArrI::new(2));
            let ret = oracle
                .call_function("chunk1", self.call_args(&out, threads))
                .expect("tree-walker runs chunk1");
            self.expected[threads - 1] =
                Chunk1::observe(&out, &ret).expect("chunk1 returns an int");
        }
    }
    fn check(&self, threads: usize, ret: &Value) -> Result<(), String> {
        let got = Chunk1::observe(&self.out, ret)?;
        if got == self.expected[threads - 1] {
            Ok(())
        } else {
            Err(format!(
                "(sum, singles, tickets) {got:?} differ from the tree-walker's"
            ))
        }
    }
}
